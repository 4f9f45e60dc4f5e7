//! EXPERIMENTS.md quotes every deterministic experiment's tables and text
//! verbatim. This test re-runs each experiment under `Setup::default()` and
//! fails on any block the document does not contain, printing the block it
//! expected so the document can be brought back in line with the code.

use bench::experiments::{Setup, EXPERIMENTS};

/// Not quoted: E21 is wall clock over million-record subprocesses.
const UNQUOTED: [&str; 1] = ["e21"];

#[test]
fn experiments_md_quotes_every_deterministic_block() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let mut missing = Vec::new();
    for e in EXPERIMENTS.iter().filter(|e| !UNQUOTED.contains(&e.id)) {
        let report = (e.run)(&Setup::default());
        for block in report.blocks.iter().filter(|b| b.quoted()) {
            let expected = block.render();
            if !doc.contains(&expected) {
                let id = e.id.to_uppercase();
                missing.push(format!(
                    "{id}: EXPERIMENTS.md lacks this block:\n\n{expected}"
                ));
            }
        }
    }
    assert!(missing.is_empty(), "\n{}", missing.join("\n"));
}
