//! Smoke test of the interactive REPL binary: drive it through stdin the
//! way a demo attendee would, and check the replies on stdout.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn repl_runs_the_demo_dialogue() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_palimpchat-repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    let script = "load the dataset of scientific papers\n\
                  I'm interested in papers that are about colorectal cancer, and for these papers, extract whatever public dataset is used by the study\n\
                  run the pipeline with maximum quality\n\
                  how much did the run cost and how long did it take?\n\
                  :quit\n";
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("repl exits");
    assert!(out.status.success(), "repl exited with {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Registered dataset"), "{stdout}");
    assert!(stdout.contains("output record"), "{stdout}");
    assert!(stdout.contains("TOTAL"), "{stdout}");
    assert!(stdout.contains("bye."), "{stdout}");
}

/// The incremental demo loop: watch the corpus, run, append one paper,
/// re-run — the second run is served from the session cache for every
/// unchanged paper and says so.
#[test]
fn repl_watch_append_reruns_incrementally() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_palimpchat-repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    let script = "load the dataset of scientific papers\n\
                  :watch scientific-demo\n\
                  I'm interested in papers that are about colorectal cancer, and for these papers, extract whatever public dataset is used by the study\n\
                  run the pipeline with maximum quality\n\
                  :append scientific-demo paper-new.pdf This colorectal cancer cohort study deposited all samples in the FunkyData registry.\n\
                  run the pipeline with maximum quality\n\
                  :watch\n\
                  :quit\n";
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("repl exits");
    assert!(out.status.success(), "repl exited with {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("watching scientific-demo"), "{stdout}");
    assert!(stdout.contains("v1: 12 record(s)"), "{stdout}");
    assert!(
        stdout.contains("response(s) served from the session cache"),
        "{stdout}"
    );
    assert!(stdout.contains("usage: :watch <dataset>"), "{stdout}");
}

#[test]
fn repl_trace_toggle_shows_react_steps() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_palimpchat-repl"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    let script = ":trace\nload the dataset of scientific papers\n:quit\n";
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("repl exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace display: on"), "{stdout}");
    assert!(stdout.contains("Thought 1"), "{stdout}");
    assert!(stdout.contains("Action 1: register_dataset"), "{stdout}");
}
