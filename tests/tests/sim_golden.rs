//! Golden digests of the simulated provider.
//!
//! The simulator stands in for a hosted model, so every plan's records,
//! ledger, clock and trace are functions of what it answers. These digests
//! pin its observable behaviour — response text, usage, cost and latency
//! bit patterns for every task, embedding bit patterns, and literal
//! `stable_hash` vectors — over generated corpora, so work on its wall cost
//! can be checked against "same bytes out". The constants were computed on
//! the allocating implementation that preceded the shared text kernel; a
//! change that alters any of them changes what every experiment reports.
//!
//! The digest is a local FNV-1a so the test does not lean on the hash it
//! pins.

use pz_datagen::stream::{doc_at, StreamConfig};
use pz_datagen::{legal, realestate, science};
use pz_llm::protocol::{self, Cardinality, Effort, FieldSpec};
use pz_llm::{CompletionRequest, Embedder, EmbeddingRequest, LlmClient, SimulatedLlm};

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed so adjacent texts cannot trade bytes.
    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

const MODELS: [&str; 2] = ["gpt-4o", "llama-3-8b"];
const EFFORTS: [Effort; 2] = [Effort::Standard, Effort::High];

/// Hand-written documents for what the generators never emit: non-ASCII
/// alphanumerics, upper case, CRLF line ends, one-byte tokens, stopword
/// labels, repeated labels, URLs in prose, vertical tabs.
const ODD_DOCS: &[&str] = &[
    "",
    "a b c d e",
    "Título: Étude du cancer colorectal à Zürich\r\nRésumé: Les données proviennent de https://données.example.org/crc.\r\nDataset: CRC-Éte\r\nURL: https://portal.example.org/crc-été\r\n",
    "COLORECTAL CANCER STUDIES\nDATASETS: TCGA-COAD; GEO-GSE39582.\nFrom: alice@example.com\nTo: bob@example.com\nRe: the merger\n\nBoxes of churches, studies and classes were mentioned, discussing passes.",
    "结直肠癌 研究 colorectal 数据集: 癌症基因组图谱\nURL: see https://example.org/数据, or (https://example.org/alt).\nDataset: 图谱\nDataset: 第二个\nDescription: ünïcödé description here\n",
    "Dataset: A\nURL: https://a.example.com/data\nDataset: B\nURL: https://b.example.com/data\nThe: odd label\nX: y\n12:30 is a time: not a pair at all because this label is far too long to count\n",
    "tab\tseparated\u{b}vertical\u{c}feed colorectal\u{a0}cancer\u{2003}wide spaces modern homes garden",
    "has does was papers studies listing emails interested mentioned",
];

fn corpus() -> Vec<String> {
    let cfg = StreamConfig::sized(520, 7);
    let mut docs: Vec<String> = (0..cfg.n_docs).map(|i| doc_at(&cfg, i).content).collect();
    let (emails, _) = legal::generate(legal::LegalConfig {
        n_emails: 40,
        seed: 5,
        ..Default::default()
    });
    let (listings, _) = realestate::generate(realestate::RealEstateConfig {
        n_listings: 40,
        seed: 6,
        ..Default::default()
    });
    let (papers, _) = science::generate(science::ScienceConfig {
        n_papers: 6,
        seed: 8,
        ..Default::default()
    });
    docs.extend(emails.into_iter().map(|d| d.content));
    docs.extend(listings.into_iter().map(|d| d.content));
    docs.extend(papers.into_iter().map(|d| d.content));
    docs.extend(ODD_DOCS.iter().map(|d| d.to_string()));
    docs
}

const PREDICATES: [&str; 4] = [
    science::FILTER_PREDICATE,
    legal::FILTER_PREDICATE,
    realestate::FILTER_PREDICATE,
    "",
];

fn field_sets() -> [Vec<FieldSpec>; 3] {
    [
        vec![
            FieldSpec::new("name", "The name of the clinical data dataset"),
            FieldSpec::new(
                "description",
                "A short description of the content of the dataset",
            ),
            FieldSpec::new("url", "The public URL where the dataset can be accessed"),
        ],
        vec![
            FieldSpec::new("sender", "Who sent the email"),
            FieldSpec::new("recipient", "Who received the email"),
            FieldSpec::new("date", "The date the email was sent"),
            FieldSpec::new("subject", "The subject line"),
        ],
        vec![
            FieldSpec::new("address", "The street address of the listing"),
            FieldSpec::new("price_usd", "The asking price in dollars"),
            FieldSpec::new("bedrooms", "Number of bedrooms"),
            FieldSpec::new("listing-website", ""),
        ],
    ]
}

fn labels() -> Vec<String> {
    [
        "colorectal cancer genomics",
        "legal merger email",
        "modern home listing",
        "the of",
        "astronomy",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Every doc runs one (model, effort) pair chosen by its index; the first
/// 48 run all four, so both models and both efforts see the same input.
fn combos(i: usize) -> Vec<(&'static str, Effort)> {
    if i < 48 {
        MODELS
            .iter()
            .flat_map(|m| EFFORTS.iter().map(move |e| (*m, *e)))
            .collect()
    } else {
        vec![(MODELS[i % 2], EFFORTS[(i / 2) % 2])]
    }
}

fn absorb(d: &mut Digest, sim: &SimulatedLlm, req: &CompletionRequest) {
    match sim.complete(req) {
        Ok(resp) => {
            d.text(&resp.text);
            d.u64(resp.usage.input_tokens as u64);
            d.u64(resp.usage.output_tokens as u64);
            d.u64(resp.cost_usd.to_bits());
            d.u64(resp.latency_secs.to_bits());
        }
        Err(e) => d.text(&format!("error: {e}")),
    }
}

/// One digest per task kind over the whole corpus, then the totals every
/// call left on the simulator's ledger and clock.
fn completion_digests() -> Vec<(&'static str, u64)> {
    let sim = SimulatedLlm::with_defaults();
    let docs = corpus();
    let field_sets = field_sets();
    let labels = labels();
    let mut filter = Digest::new();
    let mut extract_one = Digest::new();
    let mut extract_many = Digest::new();
    let mut classify = Digest::new();
    let mut matching = Digest::new();
    let mut generate = Digest::new();
    let mut over_budget = Digest::new();
    for (i, doc) in docs.iter().enumerate() {
        let predicate = PREDICATES[i % PREDICATES.len()];
        let fields = &field_sets[i % field_sets.len()];
        let other = &docs[(i * 7 + 3) % docs.len()];
        for (model, effort) in combos(i) {
            let req = |prompt: String| CompletionRequest::new(model, prompt);
            absorb(
                &mut filter,
                &sim,
                &req(protocol::filter_prompt_with_effort(predicate, doc, effort))
                    .with_max_output_tokens(4),
            );
            absorb(
                &mut extract_one,
                &sim,
                &req(protocol::extract_prompt_with_effort(
                    fields,
                    Cardinality::OneToOne,
                    doc,
                    effort,
                )),
            );
            absorb(
                &mut extract_many,
                &sim,
                &req(protocol::extract_prompt_with_effort(
                    fields,
                    Cardinality::OneToMany,
                    doc,
                    effort,
                )),
            );
            absorb(
                &mut classify,
                &sim,
                &req(protocol::classify_prompt_with_effort(&labels, doc, effort)),
            );
            absorb(
                &mut matching,
                &sim,
                &req(protocol::match_prompt(predicate, doc, other, effort)),
            );
            absorb(
                &mut generate,
                &sim,
                &req(protocol::generate_prompt("summarize the document", doc))
                    .with_system("You are a careful analyst."),
            );
        }
        if i % 16 == 0 {
            // Responses longer than the budget: cut mid-summary and mid-JSON.
            for budget in [0, 5, 23] {
                absorb(
                    &mut over_budget,
                    &sim,
                    &CompletionRequest::new("gpt-4o", protocol::generate_prompt("summarize", doc))
                        .with_max_output_tokens(budget),
                );
                absorb(
                    &mut over_budget,
                    &sim,
                    &CompletionRequest::new(
                        "llama-3-70b",
                        protocol::extract_prompt(fields, Cardinality::OneToMany, doc),
                    )
                    .with_max_output_tokens(budget),
                );
            }
            // Free-form prompts fall back to the echo summarizer.
            absorb(
                &mut generate,
                &sim,
                &CompletionRequest::new("gpt-4o", doc.clone()),
            );
        }
    }
    vec![
        ("filter", filter.0),
        ("extract_one", extract_one.0),
        ("extract_many", extract_many.0),
        ("classify", classify.0),
        ("match", matching.0),
        ("generate", generate.0),
        ("over_budget", over_budget.0),
        ("ledger_requests", sim.ledger().total_requests() as u64),
        ("ledger_cost_bits", sim.ledger().total_cost_usd().to_bits()),
        ("clock_bits", sim.clock().now_secs().to_bits()),
    ]
}

fn embedding_digests() -> Vec<(&'static str, u64)> {
    let docs = corpus();
    let mut direct = Digest::new();
    for dim in [64usize, 128, 5] {
        let embedder = Embedder::new(dim);
        for doc in docs.iter().step_by(if dim == 64 { 1 } else { 9 }) {
            for x in embedder.embed(doc) {
                direct.u64(u64::from(x.to_bits()));
            }
        }
    }
    let sim = SimulatedLlm::with_defaults();
    let mut provider = Digest::new();
    for chunk in docs.chunks(50) {
        let resp = sim
            .embed(&EmbeddingRequest {
                model: "text-embedding-3-small".into(),
                inputs: chunk.to_vec(),
            })
            .expect("fault-free simulator");
        for v in &resp.vectors {
            for x in v {
                provider.u64(u64::from(x.to_bits()));
            }
        }
        provider.u64(resp.usage.input_tokens as u64);
        provider.u64(resp.cost_usd.to_bits());
        provider.u64(resp.latency_secs.to_bits());
    }
    vec![("embed_direct", direct.0), ("embed_provider", provider.0)]
}

fn assert_table(got: &[(&'static str, u64)], want: &[(&str, u64)]) {
    let render = |t: &[(&str, u64)]| {
        t.iter()
            .map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n"))
            .collect::<String>()
    };
    assert!(
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.0 == w.0 && g.1 == w.1),
        "simulator output changed.\ncomputed:\n{}pinned:\n{}",
        render(got),
        render(want)
    );
}

#[test]
fn completions_match_pinned_digests() {
    assert_table(
        &completion_digests(),
        &[
            ("filter", 0xf4d6b09ab744b9d6),
            ("extract_one", 0xe268625913a174d4),
            ("extract_many", 0x67437c820d3bbe67),
            ("classify", 0x53334107313a3827),
            ("match", 0xdd23f7a308cc1366),
            ("generate", 0xe820ef6c79059a7d),
            ("over_budget", 0xf6595bb645218c1c),
            ("ledger_requests", 4821),
            ("ledger_cost_bits", 0x40167928a463f7eb),
            ("clock_bits", 0x40c1cbb0ded288ce),
        ],
    );
}

#[test]
fn embeddings_match_pinned_digests() {
    assert_table(
        &embedding_digests(),
        &[
            ("embed_direct", 0xb1671db0ac558bf9),
            ("embed_provider", 0xf090488c040d0ba4),
        ],
    );
}

#[test]
fn stable_hash_literal_vectors() {
    let vectors: &[(&[&str], u64)] = &[
        (&[], 0xefd01f60ba992926),
        (&[""], 0x36610c0f0fbc67ca),
        (&["", ""], 0x35a2bd317b957a81),
        (&["a"], 0x567184f80fba7fc6),
        (&["ab", "c"], 0xc9fa8737f6c3e68d),
        (&["a", "bc"], 0xef3352e277284557),
        (&["abc"], 0x5796e4cb9b5a4c19),
        (
            &["42", "filter-difficulty", "about cancer", "hello world"],
            0x11618dbf1fd31ca8,
        ),
        (
            &["42", "gpt-4o", "filter", "about cancer", "hello world"],
            0x1cf0df872945ba2a,
        ),
        (&["colorectal", "0"], 0x330f37fb8ad04d4d),
        (&["colorectal", "1"], 0x617c4a5199420e8a),
        (&["colorectal", "2"], 0xd82e667f05a2c5f2),
        (&["été", "数据集", "\u{1}"], 0xaa94806eea9b801f),
        (
            &["The quick brown fox jumps over the lazy dog"],
            0x5db365d2895c7af3,
        ),
    ];
    let got: Vec<u64> = vectors
        .iter()
        .map(|(parts, _)| pz_llm::stable_hash(parts))
        .collect();
    let want: Vec<u64> = vectors.iter().map(|(_, h)| *h).collect();
    assert!(
        got == want,
        "stable_hash changed; computed:\n{}",
        got.iter()
            .map(|h| format!("    {h:#018x}\n"))
            .collect::<String>()
    );
    for (parts, h) in vectors {
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        assert_eq!(pz_llm::hash_unit(parts).to_bits(), unit.to_bits());
    }
}
