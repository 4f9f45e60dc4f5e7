//! `chat` — independent five-turn §3 dialogues through `PalimpChat::handle`
//! (load → filter+convert utterance → "run with maximum quality" → cost
//! question → export notebook) over the 11-paper demo corpus.
//!
//! The paper's headline path. The corpus is tiny on purpose, so the agent
//! loop, the chat planner / tools / codegen and the optimizer's plan
//! enumeration are the work — layers no bulk workload stresses.

use crate::adapter;
use crate::harness::{timed, Pass, Workload};
use crate::workloads::scaled;
use std::time::Instant;

/// Dataset mentions the demo pipeline extracts from the demo corpus.
const EXPECTED_EXTRACTIONS: usize = 6;
/// Papers in the demo corpus: the records a dialogue's run turn scans.
pub const DEMO_PAPERS: usize = 11;

/// Wordings of each turn the chat planner maps to the same tool calls.
const LOAD: [&str; 3] = [
    "Please load the dataset of scientific papers from my folder",
    "upload the collection of PDF papers",
    "load the scientific papers dataset",
];
const DEFINE: [&str; 2] = [
    "I'm interested in papers that are about colorectal cancer, and for these papers, \
     extract whatever public dataset is used by the study",
    "I am interested in papers that are about colorectal cancer, and for these papers, \
     extract whatever public dataset is used by the study",
];
const RUN: [&str; 2] = [
    "run the pipeline with maximum quality",
    "execute the pipeline with maximum quality",
];
const STATS: [&str; 2] = [
    "how much did the run cost and how long did it take?",
    "how much did it cost and how long did it take?",
];
const EXPORT: [&str; 2] = [
    "download the notebook with the generated code",
    "export the notebook with the generated code",
];

pub type Script = [&'static str; 5];

/// The five utterances of dialogue `index` under `seed`.
pub fn script(seed: u64, index: usize) -> Script {
    let h = mix(seed, index as u64);
    let pick = |bank: &[&'static str], shift: u32| bank[(h >> shift) as usize % bank.len()];
    [
        pick(&LOAD, 0),
        pick(&DEFINE, 8),
        pick(&RUN, 16),
        pick(&STATS, 24),
        pick(&EXPORT, 32),
    ]
}

/// splitmix64 finalizer over (seed, index).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One dialogue, turn by turn.
pub struct Dialogue {
    pub new_session_s: f64,
    /// load, define, run, stats, export.
    pub turn_s: [f64; 5],
    pub steps: usize,
    pub extractions: usize,
    pub export_ok: bool,
    pub llm_calls: usize,
    pub spans: usize,
}

impl Dialogue {
    pub fn wall_s(&self) -> f64 {
        self.new_session_s + self.turn_s.iter().sum::<f64>()
    }

    pub fn correct(&self) -> bool {
        self.extractions == EXPECTED_EXTRACTIONS && self.export_ok
    }
}

pub fn run_dialogue(script: &Script) -> Dialogue {
    let t = Instant::now();
    let mut chat = adapter::new_chat();
    let new_session_s = t.elapsed().as_secs_f64();
    let mut turn_s = [0.0; 5];
    let mut steps = 0;
    let mut last_reply = String::new();
    for (slot, utterance) in turn_s.iter_mut().zip(script) {
        let t = Instant::now();
        let (reply, n) = adapter::chat_turn(&mut chat, utterance);
        *slot = t.elapsed().as_secs_f64();
        steps += n;
        last_reply = reply;
    }
    let ctx = adapter::chat_ctx(&chat);
    Dialogue {
        new_session_s,
        turn_s,
        steps,
        extractions: adapter::chat_output_records(&chat),
        export_ok: last_reply.contains("Execute("),
        llm_calls: adapter::ledger_requests(&ctx),
        spans: adapter::span_count(&ctx),
    }
}

pub struct Chat {
    scripts: Vec<Script>,
}

impl Workload for Chat {
    const NAME: &'static str = "chat";

    fn setup(seed: u64, quick: bool) -> Self {
        // 100 dialogues a pass: a p90 with ten samples beyond it.
        let n = scaled(100, quick, 5);
        Chat {
            scripts: (0..n).map(|i| script(seed, i)).collect(),
        }
    }

    fn pass(&mut self) -> Pass {
        let (dialogues, cell) = timed(|| self.scripts.iter().map(run_dialogue).collect::<Vec<_>>());
        let n = dialogues.len() as f64;
        let samples_ms: Vec<f64> = dialogues.iter().map(|d| d.wall_s() * 1000.0).collect();
        let records = n * DEMO_PAPERS as f64;
        let sum = |f: fn(&Dialogue) -> usize| dialogues.iter().map(f).sum::<usize>() as f64;
        let mut pass = Pass {
            wall_s: cell.secs,
            rate_per_s: n / cell.secs,
            layer: vec![
                ("llm.calls", sum(|d| d.llm_calls)),
                ("obs.spans", sum(|d| d.spans)),
                ("archytas.steps_per_dialogue", sum(|d| d.steps) / n),
                ("exec.mat.allocs_per_rec", cell.allocs as f64 / records),
                (
                    "exec.mat.alloc_bytes_per_rec",
                    cell.alloc_bytes as f64 / records,
                ),
            ],
            ..Default::default()
        };
        pass.set_waits(&samples_ms);
        for (d, script) in dialogues.iter().zip(&self.scripts) {
            pass.check(d.correct(), 1, || {
                format!(
                    "chat: {} extractions (want {EXPECTED_EXTRACTIONS}), export ok {} for {script:?}",
                    d.extractions, d.export_ok
                )
            });
        }
        pass
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("dialogues_per_pass", self.scripts.len()),
            ("papers", DEMO_PAPERS),
        ]
    }
}
