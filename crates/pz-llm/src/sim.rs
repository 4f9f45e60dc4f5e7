//! Deterministic LLM simulator.
//!
//! This is substitution **S1** from DESIGN.md: hosted models are replaced by
//! a simulator that (a) actually performs the filter / extract / classify /
//! generate tasks over the synthetic corpora using transparent rules, and
//! (b) injects *deterministic, quality-dependent errors*, so that cheaper
//! models measurably produce worse output — the property Palimpzest's
//! optimizer trades against cost and latency.
//!
//! Error injection is keyed by `(seed, model, task, content)` through the
//! stable hash, so a given record is always judged the same way by a given
//! model: reruns are bit-identical, yet aggregate error rates match the
//! model card's quality factor.
//!
//! ## Read budget
//!
//! The simulator stands in for a network call, so its wall cost should be a
//! few passes over the prompt and nothing that grows with it on the heap. A
//! completion reads its document three times and copies it never, and the
//! first two reads take ASCII text 8 bytes at a time ([`crate::text`]):
//!
//! 1. **one token count** of the prompt — the bill ([`count_tokens`]), one
//!    table lookup per 8-byte chunk;
//! 2. **one word scan** — [`find_stems`] walks the document's words through
//!    the shared text kernel, which steps over whole chunks of separators
//!    and of word bytes. A word whose first byte starts no predicate stem
//!    is dropped by one lookup; the rest are compared stem against stem
//!    without building either, and the walk stops once every predicate
//!    word is found. The stopword test (one first-byte bucket) runs only
//!    on a word whose stem matched: a stopword is dropped from the
//!    document's vocabulary, so it can only *withhold* a hit, and a word
//!    that matches nothing has no hit to withhold;
//! 3. **one hash pass** — the shared-difficulty draw and the per-model draw
//!    end in the same long part (the document), so both hash states are
//!    fed from a single read ([`StableHasher::part_both`]).
//!
//! [`protocol::parse_prompt`] hands out slices of the prompt, the model card
//! is borrowed from the catalog, and the seed is rendered once at
//! construction. What a call allocates is its answer and a few small
//! vectors sized by the predicate or the schema, not by the document.
//! `extract` reads its document once more, line by line, to find
//! `label: value` pairs; it derives each pair's and each field's matching
//! keys once per call and builds strings only for the values it returns.
//! `match` needs both sides' vocabularies at once, so it folds each side
//! into one lower-cased copy and sorts borrowed stems. `classify` keeps the
//! parent's probe of the whole prompt for `#EFFORT high` (one substring
//! search): honouring only the header would change what a document that
//! happens to contain the string is billed.

use crate::catalog::{Catalog, ModelKind};
use crate::client::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient, LlmError,
};
use crate::clock::VirtualClock;
use crate::embedding::Embedder;
use crate::fault::{FaultInjector, FaultPlan};
use crate::protocol::{self, Cardinality, Effort, FieldRef, Task};
use crate::text::{content_stems, is_stopword, lower, stem, words, Stem};
use crate::tokenizer::{count_output_tokens, count_tokens};
use crate::usage::{Usage, UsageLedger};
use crate::{stable_hash, StableHasher};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the simulator.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed: change it to sample a different (but still
    /// deterministic) error pattern.
    pub seed: u64,
    /// Probability that any single call fails with a transient error
    /// (exercises retry paths; 0.0 in most experiments).
    pub transient_failure_rate: f64,
    /// Dimensionality of simulated embeddings.
    pub embedding_dim: usize,
    /// Scripted per-model fault windows (outages, brownouts, rate limits,
    /// timeouts, malformed output) on the virtual clock. Empty by default:
    /// the fault path is then a complete no-op.
    pub fault_plan: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            transient_failure_rate: 0.0,
            embedding_dim: 64,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// The simulated client. Cheap to clone is not required; executors share it
/// behind an `Arc`.
pub struct SimulatedLlm {
    catalog: Catalog,
    config: SimConfig,
    /// Hash state after the seed, the first part of every draw.
    seeded: StableHasher,
    clock: VirtualClock,
    ledger: UsageLedger,
    embedder: Embedder,
    faults: FaultInjector,
    call_counter: AtomicU64,
}

impl SimulatedLlm {
    pub fn new(
        catalog: Catalog,
        config: SimConfig,
        clock: VirtualClock,
        ledger: UsageLedger,
    ) -> Self {
        let embedder = Embedder::new(config.embedding_dim);
        let faults = FaultInjector::new(config.fault_plan.clone());
        let seeded = StableHasher::new().part(&config.seed.to_string());
        Self {
            catalog,
            config,
            seeded,
            clock,
            ledger,
            embedder,
            faults,
            call_counter: AtomicU64::new(0),
        }
    }

    /// Simulator over the builtin catalog with fresh clock and ledger.
    pub fn with_defaults() -> Self {
        Self::new(
            Catalog::builtin(),
            SimConfig::default(),
            VirtualClock::new(),
            UsageLedger::new(),
        )
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Shared handle on the scripted fault plan; clones observe (and can
    /// swap) the same plan live.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Consult the scripted fault plan. Runs before any billing: a faulted
    /// call costs no tokens and no dollars — except timeouts, which burn
    /// the stalled wall-clock time.
    fn check_faults(&self, model: &crate::catalog::ModelId) -> Result<(), LlmError> {
        match self.faults.check(model, self.clock.now_secs()) {
            Ok(()) => Ok(()),
            Err(fault) => {
                if fault.stall_secs > 0.0 {
                    self.clock.advance_secs(fault.stall_secs);
                }
                Err(fault.error)
            }
        }
    }

    /// Decide whether this call transiently fails (deterministic in the call
    /// counter, so a retry of the "same" request is a *different* call and
    /// can succeed).
    fn maybe_transient(&self) -> Result<(), LlmError> {
        if self.config.transient_failure_rate <= 0.0 {
            return Ok(());
        }
        let n = self.call_counter.fetch_add(1, Ordering::Relaxed);
        let u = self.seeded.part("transient").part(&n.to_string()).unit();
        if u < self.config.transient_failure_rate {
            Err(LlmError::Transient {
                attempt: n as usize,
                reason: "simulated provider overload".into(),
            })
        } else {
            Ok(())
        }
    }

    /// The two draws that decide whether a judgement errs, hashed over
    /// `[seed, "<task>-difficulty", parts…]` and `[seed, model, task,
    /// parts…]` in one pass over the parts.
    ///
    /// Deterministic quality-dependent errors, correlated across models: a
    /// shared "record difficulty" draw trips every model whose shared error
    /// budget covers it (weaker models err on a superset of hard records),
    /// plus an independent per-model draw.
    fn errs(
        &self,
        model_q: f64,
        model: &str,
        task: &str,
        difficulty: &str,
        parts: &[&str],
    ) -> bool {
        let mut shared = self.seeded.part(difficulty);
        let mut own = self.seeded.part(model).part(task);
        for part in parts {
            (shared, own) = StableHasher::part_both(shared, own, part);
        }
        let e = 1.0 - model_q;
        shared.unit() < ERROR_CORRELATION * e || own.unit() < (1.0 - ERROR_CORRELATION) * e
    }
}

/// Which of `needles` are the stem of some content word (a word that is not
/// a stopword) of `haystack`. One walk over the haystack, stopped as soon as
/// every needle is found; see the module docs for why the stopword test can
/// wait for a stem match.
fn find_stems(needles: &[Stem<'_>], haystack: &str) -> Vec<bool> {
    let mut found = vec![false; needles.len()];
    let mut missing = needles.len();
    let mut buf = String::new();
    // A stem keeps its word's first byte, so most words are ruled out on
    // that byte alone, by one lookup, before any folding or stemming.
    let mut firsts = [false; 256];
    for needle in needles {
        if let Some(b) = needle.first_byte() {
            firsts[usize::from(b)] = true;
        }
    }
    for word in words(haystack) {
        if missing == 0 {
            break;
        }
        if !firsts[usize::from(word.as_bytes()[0].to_ascii_lowercase())] {
            continue;
        }
        let word = lower(word, &mut buf);
        let stemmed = stem(word);
        for (needle, found) in needles.iter().zip(found.iter_mut()) {
            if !*found && *needle == stemmed {
                if is_stopword(word) {
                    break;
                }
                *found = true;
                missing -= 1;
            }
        }
    }
    found
}

/// Fraction of `needles` found in `haystack`; the empty set is fully found.
fn relevance(needles: &[Stem<'_>], haystack: &str) -> f64 {
    hit_ratio(&find_stems(needles, haystack))
}

fn hit_ratio(found: &[bool]) -> f64 {
    if found.is_empty() {
        return 1.0;
    }
    found.iter().filter(|f| **f).count() as f64 / found.len() as f64
}

/// The distinct content-word stems of lower-cased text, sorted.
fn stem_set(lowered: &str) -> Vec<Stem<'_>> {
    let mut stems: Vec<Stem<'_>> = content_stems(lowered).collect();
    stems.sort_unstable();
    stems.dedup();
    stems
}

fn verdict(answer: bool) -> String {
    if answer { "TRUE" } else { "FALSE" }.into()
}

// ---------------------------------------------------------------------------
// Task implementations
// ---------------------------------------------------------------------------

/// Fraction of a model's error probability attributable to *record
/// difficulty* shared across models (hard records trip every model),
/// versus model-idiosyncratic noise. Real LLM errors are substantially
/// correlated, which is why majority voting helps less than independence
/// would predict; the cost model mirrors this constant
/// (`pz-core::optimizer::cost::ensemble_quality`).
pub const ERROR_CORRELATION: f64 = 0.35;

impl SimulatedLlm {
    fn answer_filter(&self, model_q: f64, model: &str, predicate: &str, input: &str) -> String {
        // 0.7: with a two-content-word predicate ("colorectal cancer") a
        // hard negative matching only one word (a *breast* cancer paper)
        // scores 0.5 and is rejected; with a three-word conjunctive
        // predicate ("modern homes garden") all three words must appear,
        // giving conjunctions their intended semantics.
        let lowered = predicate.to_ascii_lowercase();
        let needles: Vec<Stem<'_>> = content_stems(&lowered).collect();
        let base = relevance(&needles, input) >= 0.7;
        let flipped = self.errs(
            model_q,
            model,
            "filter",
            "filter-difficulty",
            &[predicate, input],
        );
        verdict(base != flipped)
    }

    fn answer_classify(&self, model_q: f64, model: &str, labels: &[&str], input: &str) -> String {
        if labels.is_empty() {
            return String::new();
        }
        // Every label's words are looked for in one walk over the input;
        // `ends[i]` is where label i's needles stop.
        let lowered: Vec<String> = labels.iter().map(|l| l.to_ascii_lowercase()).collect();
        let mut needles: Vec<Stem<'_>> = Vec::new();
        let mut ends = Vec::with_capacity(labels.len());
        for label in &lowered {
            needles.extend(content_stems(label));
            ends.push(needles.len());
        }
        let found = find_stems(&needles, input);
        let mut best = 0usize;
        let mut best_score = -1.0f64;
        let mut start = 0usize;
        for (i, end) in ends.into_iter().enumerate() {
            let score = hit_ratio(&found[start..end]);
            if score > best_score {
                best_score = score;
                best = i;
            }
            start = end;
        }
        let wrong = self.errs(model_q, model, "classify", "classify-difficulty", &[input]);
        let pick = if !wrong || labels.len() == 1 {
            best
        } else {
            // Error: deterministic wrong label.
            (best + 1 + (stable_hash(&[input]) as usize % (labels.len() - 1))) % labels.len()
        };
        labels[pick].to_string()
    }

    fn answer_extract(
        &self,
        model_q: f64,
        model: &str,
        fields: &[FieldRef<'_>],
        cardinality: Cardinality,
        input: &str,
    ) -> String {
        // Matching keys, once per call: each field's and each pair's.
        let field_text: Vec<(String, String)> = fields
            .iter()
            .map(|f| {
                (
                    f.name.to_ascii_lowercase(),
                    f.description.to_ascii_lowercase(),
                )
            })
            .collect();
        let field_keys: Vec<FieldKeys<'_>> = field_text
            .iter()
            .map(|(name, description)| FieldKeys::new(name, description))
            .collect();
        let pairs = label_value_pairs(input);
        let label_keys: Vec<LabelKeys<'_>> =
            pairs.iter().map(|p| LabelKeys::new(&p.label)).collect();

        // One candidate object per block: the value found for each field,
        // borrowed from the input.
        let mut objects: Vec<Vec<Option<&str>>> = Vec::new();
        for block in group_into_blocks(&label_keys) {
            let values: Vec<Option<&str>> = field_keys
                .iter()
                .map(|f| match_field(f, &pairs[block.clone()], &label_keys[block.clone()], input))
                .collect();
            if values.iter().any(Option::is_some) {
                objects.push(values);
            }
        }
        if objects.is_empty() && cardinality == Cardinality::OneToOne {
            // OneToOne always yields exactly one object, even if all null.
            objects.push(
                field_keys
                    .iter()
                    .map(|f| match_field(f, &[], &[], input))
                    .collect(),
            );
        }
        if cardinality == Cardinality::OneToOne {
            objects.truncate(1);
        }

        // Quality-dependent degradation: per extracted object, possibly drop
        // it entirely (recall loss); per field, possibly null it out or
        // corrupt the value (precision loss).
        let seeded = self.seeded.part(model);
        let mut degraded: Vec<BTreeMap<String, Option<String>>> = Vec::new();
        for (i, values) in objects.into_iter().enumerate() {
            let mut obj: BTreeMap<String, Option<String>> = fields
                .iter()
                .zip(values)
                .map(|(f, v)| (f.name.to_string(), v.map(str::to_string)))
                .collect();
            let key = format!("{i}:{}", obj_signature(&obj));
            let u_drop = seeded.part("extract-drop").part(&key).unit();
            // Whole-object misses are rarer than field-level mistakes.
            let drop_p = (1.0 - model_q) * 0.5;
            if cardinality == Cardinality::OneToMany && u_drop < drop_p {
                continue;
            }
            for f in fields {
                if let Some(slot @ Some(_)) = obj.get_mut(f.name) {
                    let v = slot.as_deref().unwrap_or_default();
                    let u = seeded.part("extract-field").part(f.name).part(v).unit();
                    if u > model_q {
                        *slot = if u > model_q + (1.0 - model_q) * 0.5 {
                            None
                        } else {
                            Some(corrupt_value(v))
                        };
                    }
                }
            }
            degraded.push(obj);
        }
        protocol::format_extraction_response(&degraded)
    }

    /// Pair judgement for semantic joins: the base decision is lexical —
    /// the two sides share a meaningful fraction of content vocabulary
    /// (Jaccard overlap of stemmed content words ≥ 0.4) — with the same
    /// correlated error injection the filter uses.
    fn answer_match(
        &self,
        model_q: f64,
        model: &str,
        criterion: &str,
        left: &str,
        right: &str,
    ) -> String {
        let (left_lowered, right_lowered) = (left.to_ascii_lowercase(), right.to_ascii_lowercase());
        let (lw, rw) = (stem_set(&left_lowered), stem_set(&right_lowered));
        let inter = lw.iter().filter(|s| rw.binary_search(s).is_ok()).count();
        let smaller = lw.len().min(rw.len()).max(1);
        let base = inter as f64 / smaller as f64 >= 0.4 && inter > 0;
        let flipped = self.errs(
            model_q,
            model,
            "match",
            "match-difficulty",
            &[criterion, left, right],
        );
        verdict(base != flipped)
    }

    fn answer_generate(&self, instruction: &str, input: &str) -> String {
        let words: Vec<&str> = input.split_whitespace().take(40).collect();
        if words.is_empty() {
            format!("[{instruction}] (no input)")
        } else {
            format!("[{instruction}] {}", words.join(" "))
        }
    }
}

/// A `label: value` pair found in the input text. Only the lower-cased
/// label is ever consulted, so that is what is kept.
struct Pair<'a> {
    label: String,
    value: &'a str,
}

/// Extract `Label: value` pairs line by line. The label must be short (at
/// most four words) so prose containing colons is not misread.
fn label_value_pairs(input: &str) -> Vec<Pair<'_>> {
    let mut out = Vec::new();
    for line in input.lines() {
        let line = line.trim();
        if let Some((label, value)) = line.split_once(':') {
            // Skip URLs masquerading as pairs ("https://...").
            if value.starts_with("//") {
                continue;
            }
            let label = label.trim();
            let value = value.trim().trim_end_matches('.');
            if label.is_empty() || value.is_empty() {
                continue;
            }
            if label.split_whitespace().count() <= 4 {
                out.push(Pair {
                    label: label.to_ascii_lowercase(),
                    value,
                });
            }
        }
    }
    out
}

/// What grouping and matching ask of a pair's label, derived once.
struct LabelKeys<'a> {
    /// The label's identity for grouping: its content words — or, for a
    /// label made only of stopwords and single characters ("From", "To",
    /// "X"), the label itself.
    identity: Vec<&'a str>,
    /// What field names and descriptions are matched against: the stems of
    /// the content words, or for an all-stopword label its raw tokens, so
    /// "From" stays matchable through synonyms.
    match_words: Vec<Stem<'a>>,
}

impl<'a> LabelKeys<'a> {
    fn new(lowered_label: &'a str) -> Self {
        let content: Vec<&str> = words(lowered_label).filter(|w| !is_stopword(w)).collect();
        if content.is_empty() {
            LabelKeys {
                identity: vec![lowered_label],
                match_words: lowered_label
                    .split_whitespace()
                    .map(Stem::verbatim)
                    .collect(),
            }
        } else {
            LabelKeys {
                match_words: content.iter().map(|w| stem(w)).collect(),
                identity: content,
            }
        }
    }
}

/// Group a flat pair list into record blocks (index ranges): a block ends
/// when a label seen in the current block repeats.
fn group_into_blocks(labels: &[LabelKeys<'_>]) -> Vec<std::ops::Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    for (i, label) in labels.iter().enumerate() {
        if labels[start..i]
            .iter()
            .any(|seen| seen.identity == label.identity)
        {
            blocks.push(start..i);
            start = i;
        }
    }
    if start < labels.len() {
        blocks.push(start..labels.len());
    }
    blocks
}

fn obj_signature(obj: &BTreeMap<String, Option<String>>) -> String {
    obj.values()
        .map(|v| v.as_deref().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\u{1}")
}

fn find_url(text: &str) -> Option<&str> {
    // Most text has no URL at all: one substring search instead of two per
    // token.
    if !text.contains("://") {
        return None;
    }
    for tok in text.split_whitespace() {
        if let Some(start) = tok.find("http://").or_else(|| tok.find("https://")) {
            let url = tok[start..].trim_end_matches(['.', ',', ';', ')', ']']);
            if url.len() > 10 {
                return Some(url);
            }
        }
    }
    None
}

/// Header-style synonyms the extractor understands: a field named
/// `sender` matches a `From:` header the way a real LLM would.
fn field_synonyms(word: &str) -> &'static [&'static str] {
    match word {
        "sender" => &["from"],
        "recipient" | "receiver" => &["to"],
        "date" => &["sent", "when"],
        "subject" => &["re"],
        "author" => &["by", "from"],
        "title" => &["name"],
        _ => &[],
    }
}

/// What a requested field is matched by, derived once per call from its
/// lower-cased name and description.
struct FieldKeys<'a> {
    name_stems: Vec<Stem<'a>>,
    desc_stems: Vec<Stem<'a>>,
    wants_url: bool,
}

impl<'a> FieldKeys<'a> {
    fn new(name: &'a str, description: &'a str) -> Self {
        let mut name_stems: Vec<Stem<'a>> = name
            .split(['_', '-'])
            .filter(|w| w.len() > 1 && !is_stopword(w))
            .map(stem)
            .collect();
        for i in 0..name_stems.len() {
            let synonyms = name_stems[i].as_prefix().map_or(&[][..], field_synonyms);
            name_stems.extend(synonyms.iter().copied().map(Stem::verbatim));
        }
        FieldKeys {
            name_stems,
            desc_stems: content_stems(description).collect(),
            wants_url: [name, description]
                .iter()
                .any(|s| s.contains("url") || s.contains("link") || s.contains("website")),
        }
    }
}

/// Find the value for a requested field inside one record block, falling
/// back to the whole input for URL-like fields.
fn match_field<'a>(
    field: &FieldKeys<'_>,
    block: &[Pair<'a>],
    labels: &[LabelKeys<'_>],
    whole_input: &'a str,
) -> Option<&'a str> {
    // Words from the field name carry much more weight than words from its
    // description: "url" in the name must beat "dataset" in the description.
    let mut best: Option<(&Pair<'a>, usize)> = None;
    for (p, label) in block.iter().zip(labels) {
        let count = |stems: &[Stem<'_>]| {
            label
                .match_words
                .iter()
                .filter(|w| stems.contains(w))
                .count()
        };
        let score = count(&field.name_stems) * 10 + count(&field.desc_stems);
        if score > best.map_or(0, |(_, b)| b) {
            best = Some((p, score));
        }
    }
    if let Some((p, _)) = best {
        // URL fields: extract the URL token even if buried in prose.
        return field
            .wants_url
            .then(|| find_url(p.value))
            .flatten()
            .or(Some(p.value));
    }
    if field.wants_url {
        // No matching label: scan the block values, then the whole input.
        return block
            .iter()
            .find_map(|p| find_url(p.value))
            .or_else(|| find_url(whole_input));
    }
    None
}

/// Deterministically mangle a value so quality metrics register the error.
fn corrupt_value(v: &str) -> String {
    if v.starts_with("http") {
        // A wrong-but-plausible URL.
        format!("https://example.org/{:x}", stable_hash(&[v]) & 0xffff)
    } else if v.len() > 4 {
        // Truncate and mark: a classic partial-extraction failure.
        format!("{}…", &v[..v.len() / 2])
    } else {
        format!("{v}?")
    }
}

// ---------------------------------------------------------------------------
// LlmClient implementation
// ---------------------------------------------------------------------------

impl LlmClient for SimulatedLlm {
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let card = self
            .catalog
            .get(&req.model)
            .ok_or_else(|| LlmError::UnknownModel(req.model.clone()))?;
        if card.kind != ModelKind::Chat {
            return Err(LlmError::WrongKind {
                model: req.model.clone(),
                expected: "chat",
            });
        }
        let input_tokens =
            count_tokens(&req.prompt) + req.system.as_deref().map_or(0, count_tokens);
        if input_tokens > card.context_window {
            return Err(LlmError::ContextOverflow {
                model: req.model.clone(),
                tokens: input_tokens,
                window: card.context_window,
            });
        }
        self.check_faults(&req.model)?;
        self.maybe_transient()?;

        let model = card.id.as_str();
        let task = protocol::parse_prompt(&req.prompt);
        let effort = match &task {
            Some(
                Task::Filter { effort, .. }
                | Task::Extract { effort, .. }
                | Task::Match { effort, .. },
            ) => *effort,
            // The Effort header is honoured for classification too.
            Some(Task::Classify { .. }) if req.prompt.contains("#EFFORT high") => Effort::High,
            _ => Effort::Standard,
        };
        // High effort models self-critique prompting: the error rate is
        // roughly halved, at about double the token/latency budget.
        let (q, effort_multiplier) = match effort {
            Effort::Standard => (card.quality, 1.0f64),
            Effort::High => (card.quality + (1.0 - card.quality) * 0.5, 2.0),
        };
        let mut text = match task {
            Some(Task::Filter {
                predicate, input, ..
            }) => self.answer_filter(q, model, predicate, input),
            Some(Task::Extract {
                fields,
                cardinality,
                input,
                ..
            }) => self.answer_extract(q, model, &fields, cardinality, input),
            Some(Task::Classify { labels, input }) => {
                self.answer_classify(q, model, &labels, input)
            }
            Some(Task::Generate { instruction, input }) => self.answer_generate(instruction, input),
            Some(Task::Match {
                criterion,
                left,
                right,
                ..
            }) => self.answer_match(q, model, criterion, left, right),
            None => self.answer_generate("echo", &req.prompt),
        };

        // Enforce the output budget by word-truncation: whole
        // whitespace-terminated words while their running count fits.
        if count_output_tokens(&text) > req.max_output_tokens {
            let (mut kept, mut used) = (0usize, 0usize);
            for word in text.split_inclusive(char::is_whitespace) {
                used += count_output_tokens(word);
                if used > req.max_output_tokens {
                    break;
                }
                kept += word.len();
            }
            text.truncate(text[..kept].trim_end().len());
        }

        let output_tokens = count_output_tokens(&text);
        // High effort = a sequential self-critique round-trip: tokens (and
        // dollars) double, and wall latency doubles because the second pass
        // cannot start before the first finishes.
        let billed_input = (input_tokens as f64 * effort_multiplier) as usize;
        let usage = Usage::new(billed_input, output_tokens);
        let cost_usd = card.cost_usd(billed_input, output_tokens);
        let latency_secs = card.latency_secs(input_tokens, output_tokens) * effort_multiplier;
        // Atomic check-and-bill: a call the tenant's budget cannot cover is
        // refused before it "happens" — no ledger entry, no clock advance.
        self.ledger
            .try_charge(&card.id, usage, cost_usd, latency_secs)
            .map_err(|q| LlmError::QuotaExhausted {
                model: card.id.clone(),
                reason: q.reason,
            })?;
        self.clock.advance_secs(latency_secs);
        Ok(CompletionResponse {
            text,
            usage,
            latency_secs,
            cost_usd,
        })
    }

    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        let card = self
            .catalog
            .get(&req.model)
            .ok_or_else(|| LlmError::UnknownModel(req.model.clone()))?;
        if card.kind != ModelKind::Embedding {
            return Err(LlmError::WrongKind {
                model: req.model.clone(),
                expected: "embedding",
            });
        }
        self.check_faults(&req.model)?;
        self.maybe_transient()?;
        let input_tokens: usize = req.inputs.iter().map(|s| count_tokens(s)).sum();
        let vectors: Vec<Vec<f32>> = req.inputs.iter().map(|s| self.embedder.embed(s)).collect();
        let usage = Usage::new(input_tokens, 0);
        let cost_usd = card.cost_usd(input_tokens, 0);
        let latency_secs = card.latency_secs(input_tokens, 0);
        self.ledger
            .try_charge(&card.id, usage, cost_usd, latency_secs)
            .map_err(|q| LlmError::QuotaExhausted {
                model: card.id.clone(),
                reason: q.reason,
            })?;
        self.clock.advance_secs(latency_secs);
        Ok(EmbeddingResponse {
            vectors,
            usage,
            latency_secs,
            cost_usd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{extract_prompt, filter_prompt, FieldSpec};
    use crate::text::reference;
    use proptest::prelude::*;

    fn sim() -> SimulatedLlm {
        SimulatedLlm::with_defaults()
    }

    const CANCER_DOC: &str = "Title: Gene mutation profiles in colorectal cancer tumors\n\
        Abstract: We study somatic mutation patterns in colorectal cancer \
        tumor cells using public genomic cohorts.\n\
        Dataset: TCGA-COADREAD\n\
        Description: Colorectal adenocarcinoma multi omics cohort\n\
        URL: https://portal.gdc.cancer.gov/projects/TCGA-COADREAD\n";

    const ASTRO_DOC: &str = "Title: Spectral classification of distant quasars\n\
        Abstract: We analyze emission spectra of quasars observed by a survey telescope.\n";

    /// Majority vote across doc variants: individual answers may flip with
    /// probability 1 - quality (that is the point of the simulator), but the
    /// aggregate decision must track relevance.
    fn majority_filter(s: &SimulatedLlm, predicate: &str, doc: &str) -> bool {
        let mut yes = 0;
        for i in 0..9 {
            let variant = format!("{doc}\nNote {i}.");
            let req = CompletionRequest::new("gpt-4o", filter_prompt(predicate, &variant));
            if s.complete(&req).unwrap().text == "TRUE" {
                yes += 1;
            }
        }
        yes > 4
    }

    #[test]
    fn filter_true_on_relevant_doc() {
        let s = sim();
        assert!(majority_filter(
            &s,
            "The papers are about colorectal cancer",
            CANCER_DOC
        ));
    }

    #[test]
    fn filter_false_on_irrelevant_doc() {
        let s = sim();
        assert!(!majority_filter(
            &s,
            "The papers are about colorectal cancer",
            ASTRO_DOC
        ));
    }

    #[test]
    fn extraction_finds_fields() {
        let s = sim();
        let fields = vec![
            FieldSpec::new("name", "The name of the dataset"),
            FieldSpec::new("description", "A short description of the dataset"),
            FieldSpec::new("url", "The public URL where the dataset can be accessed"),
        ];
        let req = CompletionRequest::new(
            "gpt-4o",
            extract_prompt(&fields, Cardinality::OneToMany, CANCER_DOC),
        );
        let resp = s.complete(&req).unwrap();
        let objs = protocol::parse_extraction_response(&resp.text);
        assert_eq!(objs.len(), 1, "resp: {}", resp.text);
        assert_eq!(objs[0]["name"].as_deref(), Some("TCGA-COADREAD"));
        assert_eq!(
            objs[0]["url"].as_deref(),
            Some("https://portal.gdc.cancer.gov/projects/TCGA-COADREAD")
        );
    }

    #[test]
    fn extraction_one_to_many_groups_blocks() {
        let s = sim();
        let doc = "Dataset: A\nURL: https://a.example.com/data\n\
                   Dataset: B\nURL: https://b.example.com/data\n";
        let fields = vec![
            FieldSpec::new("dataset_name", "The dataset name"),
            FieldSpec::new("url", "The public URL"),
        ];
        let req = CompletionRequest::new(
            "gpt-4o",
            extract_prompt(&fields, Cardinality::OneToMany, doc),
        );
        let objs = protocol::parse_extraction_response(&s.complete(&req).unwrap().text);
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0]["dataset_name"].as_deref(), Some("A"));
        assert_eq!(
            objs[1]["url"].as_deref(),
            Some("https://b.example.com/data")
        );
    }

    #[test]
    fn one_to_one_always_yields_one_object() {
        let s = sim();
        let fields = vec![FieldSpec::new(
            "nothing_here",
            "A field that does not exist",
        )];
        let req = CompletionRequest::new(
            "gpt-4o",
            extract_prompt(
                &fields,
                Cardinality::OneToOne,
                "plain prose without structure",
            ),
        );
        let objs = protocol::parse_extraction_response(&s.complete(&req).unwrap().text);
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0]["nothing_here"], None);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = sim();
        let b = sim();
        let req =
            CompletionRequest::new("llama-3-8b", filter_prompt("colorectal cancer", CANCER_DOC));
        assert_eq!(
            a.complete(&req).unwrap().text,
            b.complete(&req).unwrap().text
        );
    }

    #[test]
    fn weaker_model_makes_more_mistakes() {
        // Over many documents, the weak model must disagree with ground
        // truth more often than the strong one.
        let s = sim();
        let mut strong_errors = 0;
        let mut weak_errors = 0;
        for i in 0..200 {
            let relevant = i % 2 == 0;
            let doc = if relevant {
                format!("Doc {i}. Study of colorectal cancer tumor mutation.")
            } else {
                format!("Doc {i}. Galaxy cluster redshift survey telescope.")
            };
            let prompt = filter_prompt("about colorectal cancer", &doc);
            let strong = s
                .complete(&CompletionRequest::new("gpt-4o", prompt.clone()))
                .unwrap()
                .text
                == "TRUE";
            let weak = s
                .complete(&CompletionRequest::new("llama-3-8b", prompt))
                .unwrap()
                .text
                == "TRUE";
            if strong != relevant {
                strong_errors += 1;
            }
            if weak != relevant {
                weak_errors += 1;
            }
        }
        assert!(
            weak_errors > strong_errors,
            "weak {weak_errors} vs strong {strong_errors}"
        );
        // gpt-4o quality 0.96 -> about 8 errors in 200; allow slack.
        assert!(strong_errors < 30);
        // llama-3-8b quality 0.72 -> about 56 errors in 200; require a gap.
        assert!(weak_errors > 30);
    }

    #[test]
    fn match_task_judges_pairs() {
        let s = sim();
        let yes = s
            .complete(&CompletionRequest::new(
                "gpt-4o",
                protocol::match_prompt(
                    "the records refer to the same dataset",
                    "name: TCGA-COADREAD colorectal adenocarcinoma cohort",
                    "dataset: TCGA COADREAD multi omics colorectal cohort",
                    Effort::Standard,
                ),
            ))
            .unwrap();
        assert_eq!(yes.text, "TRUE");
        let no = s
            .complete(&CompletionRequest::new(
                "gpt-4o",
                protocol::match_prompt(
                    "the records refer to the same dataset",
                    "name: TCGA-COADREAD colorectal cohort",
                    "dataset: quasar redshift survey catalogue",
                    Effort::Standard,
                ),
            ))
            .unwrap();
        assert_eq!(no.text, "FALSE");
    }

    #[test]
    fn errors_are_correlated_across_models() {
        // The shared record-difficulty component makes two models' errors
        // co-occur far more often than independence predicts.
        let s = sim();
        let models = ["llama-3-8b", "mixtral-8x7b"]; // e = .28, .22
        let mut errs = [0usize; 2];
        let mut joint = 0usize;
        let n = 400;
        for i in 0..n {
            let relevant = i % 2 == 0;
            let doc = if relevant {
                format!("Doc {i}: colorectal cancer tumor mutation cohort.")
            } else {
                format!("Doc {i}: galaxy redshift survey telescope imaging.")
            };
            let prompt = filter_prompt("about colorectal cancer", &doc);
            let mut wrong = [false; 2];
            for (j, m) in models.iter().enumerate() {
                let ans = s
                    .complete(&CompletionRequest::new(*m, prompt.clone()))
                    .unwrap();
                wrong[j] = (ans.text == "TRUE") != relevant;
            }
            errs[0] += usize::from(wrong[0]);
            errs[1] += usize::from(wrong[1]);
            joint += usize::from(wrong[0] && wrong[1]);
        }
        let p0 = errs[0] as f64 / n as f64;
        let p1 = errs[1] as f64 / n as f64;
        let p_joint = joint as f64 / n as f64;
        // Joint error rate well above the independent product.
        assert!(
            p_joint > 1.5 * p0 * p1,
            "joint {p_joint:.3} vs independent {:.3}",
            p0 * p1
        );
        // And the marginals are in the neighbourhood of 1 - quality.
        assert!((0.15..0.45).contains(&p0), "llama-3-8b error rate {p0}");
        assert!((0.10..0.35).contains(&p1), "mixtral error rate {p1}");
    }

    #[test]
    fn accounting_hits_ledger_and_clock() {
        let s = sim();
        let req = CompletionRequest::new("gpt-4o", filter_prompt("cancer", CANCER_DOC));
        let resp = s.complete(&req).unwrap();
        assert!(resp.cost_usd > 0.0);
        assert!(resp.latency_secs > 0.0);
        assert_eq!(s.ledger().total_requests(), 1);
        assert!((s.clock().now_secs() - resp.latency_secs).abs() < 1e-9);
    }

    #[test]
    fn unknown_model_rejected() {
        let s = sim();
        let err = s
            .complete(&CompletionRequest::new("gpt-99", "hi"))
            .unwrap_err();
        assert_eq!(err, LlmError::UnknownModel("gpt-99".into()));
    }

    #[test]
    fn embedding_model_rejects_completion() {
        let s = sim();
        let err = s
            .complete(&CompletionRequest::new("text-embedding-3-small", "hi"))
            .unwrap_err();
        assert!(matches!(err, LlmError::WrongKind { .. }));
    }

    #[test]
    fn chat_model_rejects_embedding() {
        let s = sim();
        let err = s
            .embed(&EmbeddingRequest {
                model: "gpt-4o".into(),
                inputs: vec!["x".into()],
            })
            .unwrap_err();
        assert!(matches!(err, LlmError::WrongKind { .. }));
    }

    #[test]
    fn context_overflow_detected() {
        let s = sim();
        let huge = "word ".repeat(20_000);
        let err = s
            .complete(&CompletionRequest::new("llama-3-8b", huge))
            .unwrap_err();
        assert!(matches!(err, LlmError::ContextOverflow { .. }));
    }

    #[test]
    fn transient_failures_fire_at_configured_rate() {
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                transient_failure_rate: 0.5,
                ..Default::default()
            },
            VirtualClock::new(),
            UsageLedger::new(),
        );
        let mut failures = 0;
        for _ in 0..100 {
            let r = s.complete(&CompletionRequest::new("gpt-4o", "hello"));
            if matches!(r, Err(LlmError::Transient { .. })) {
                failures += 1;
            }
        }
        assert!((30..=70).contains(&failures), "failures {failures}");
    }

    #[test]
    fn scripted_outage_fails_without_billing() {
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::default().outage("gpt-4o", 0.0, 100.0),
                ..Default::default()
            },
            VirtualClock::new(),
            UsageLedger::new(),
        );
        let req = CompletionRequest::new("gpt-4o", filter_prompt("cancer", CANCER_DOC));
        let err = s.complete(&req).unwrap_err();
        assert!(matches!(err, LlmError::Transient { .. }));
        // Failed calls bill nothing and burn no time.
        assert_eq!(s.ledger().total_requests(), 0);
        assert!(s.clock().now_secs().abs() < 1e-9);
        // Other models are unaffected, and once past the window the model
        // recovers.
        s.complete(&CompletionRequest::new(
            "gpt-4o-mini",
            filter_prompt("cancer", CANCER_DOC),
        ))
        .unwrap();
        s.clock().advance_secs(200.0);
        s.complete(&req).unwrap();
    }

    /// Satellite regression for the billing-order audit in
    /// [`crate::client::RetryPolicy::embed_with`]: an embedding attempt that
    /// fails inside a fault window must bill the ledger nothing, including
    /// when driven through the full retry path.
    #[test]
    fn embed_billing_skipped_when_fault_fails_the_call() {
        let clock = VirtualClock::new();
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::default().outage("text-embedding-3-small", 0.0, 1e9),
                ..Default::default()
            },
            clock.clone(),
            UsageLedger::new(),
        );
        let req = EmbeddingRequest {
            model: "text-embedding-3-small".into(),
            inputs: vec!["some document".into()],
        };
        let rc = crate::client::RetryContext::new(&clock);
        let err = crate::client::RetryPolicy::default()
            .embed_with(&s, &req, &rc)
            .unwrap_err();
        assert!(err.is_retryable());
        // Every attempt failed: no requests, no tokens, no dollars.
        assert_eq!(s.ledger().total_requests(), 0);
        assert_eq!(s.ledger().total_usage().total_tokens(), 0);
        assert!(s.ledger().total_cost_usd().abs() < 1e-12);
    }

    /// Companion regression: once the breaker for the embedding model is
    /// open, the retry layer refuses locally — the client is never reached
    /// and the ledger stays untouched.
    #[test]
    fn embed_billing_skipped_when_breaker_refuses_the_call() {
        use crate::breaker::HealthTracker;
        let clock = VirtualClock::new();
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::default().outage("text-embedding-3-small", 0.0, 1e9),
                ..Default::default()
            },
            clock.clone(),
            UsageLedger::new(),
        );
        let health = HealthTracker::default();
        let req = EmbeddingRequest {
            model: "text-embedding-3-small".into(),
            inputs: vec!["some document".into()],
        };
        let rc = crate::client::RetryContext::new(&clock).with_health(&health);
        let policy = crate::client::RetryPolicy::default();
        // Exhausting retries trips the breaker…
        policy.embed_with(&s, &req, &rc).unwrap_err();
        // …so the next call is refused before the provider, billing nothing
        // and burning no time (a provider attempt would back off on the
        // clock; a local refusal must not).
        let requests_before = s.ledger().total_requests();
        let now_before = clock.now_secs();
        let err = policy.embed_with(&s, &req, &rc).unwrap_err();
        assert!(matches!(err, LlmError::CircuitOpen { .. }));
        assert_eq!(s.ledger().total_requests(), requests_before);
        assert!((clock.now_secs() - now_before).abs() < 1e-9);
        assert!(s.ledger().total_cost_usd().abs() < 1e-12);
    }

    /// Quota enforcement happens at the billing point: a call the tenant's
    /// budget cannot cover is refused with a structured error, bills
    /// nothing, and consumes no virtual time. Not a provider fault: the
    /// failover machinery must not route around a spent budget by swapping
    /// models (the ledger — and so the refusal — is tenant-wide).
    #[test]
    fn quota_refusal_bills_nothing_and_burns_no_time() {
        use crate::usage::Quota;
        let clock = VirtualClock::new();
        let ledger = UsageLedger::new();
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig::default(),
            clock.clone(),
            ledger.clone(),
        );
        let req = CompletionRequest::new("gpt-4o", filter_prompt("cancer", "a cancer study"));
        let first = s.complete(&req).unwrap();
        assert!(first.cost_usd > 0.0);
        // Cap the budget exactly at what was spent: the next call must not fit.
        ledger.set_quota(Quota::cost_limit(ledger.total_cost_usd()));
        let (requests, now) = (ledger.total_requests(), clock.now_secs());
        let err = s.complete(&req).unwrap_err();
        assert!(matches!(err, LlmError::QuotaExhausted { .. }), "{err}");
        assert!(!err.is_retryable());
        assert!(!err.is_provider_fault());
        assert_eq!(ledger.total_requests(), requests);
        assert!((clock.now_secs() - now).abs() < 1e-9);
        // Embeddings enforce the same budget.
        let err = s
            .embed(&EmbeddingRequest {
                model: "text-embedding-3-small".into(),
                inputs: vec!["doc".into()],
            })
            .unwrap_err();
        assert!(matches!(err, LlmError::QuotaExhausted { .. }), "{err}");
    }

    #[test]
    fn scripted_timeout_burns_time_but_no_tokens() {
        let s = SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig {
                fault_plan: FaultPlan::parse("gpt-4o:timeout@0..10:stall=8", 1).unwrap(),
                ..Default::default()
            },
            VirtualClock::new(),
            UsageLedger::new(),
        );
        let err = s
            .complete(&CompletionRequest::new("gpt-4o", "hello"))
            .unwrap_err();
        assert!(matches!(err, LlmError::Timeout { .. }));
        assert!((s.clock().now_secs() - 8.0).abs() < 1e-9);
        assert_eq!(s.ledger().total_requests(), 0);
    }

    #[test]
    fn injector_handle_swaps_plan_live() {
        let s = sim();
        let req = CompletionRequest::new("gpt-4o", "hello");
        s.complete(&req).unwrap();
        s.faults()
            .set(FaultPlan::default().outage("gpt-4o", 0.0, 1e12));
        assert!(s.complete(&req).is_err());
        s.faults().clear();
        s.complete(&req).unwrap();
    }

    #[test]
    fn embeddings_returned_per_input() {
        let s = sim();
        let resp = s
            .embed(&EmbeddingRequest {
                model: "text-embedding-3-small".into(),
                inputs: vec!["colorectal cancer".into(), "real estate".into()],
            })
            .unwrap();
        assert_eq!(resp.vectors.len(), 2);
        assert_eq!(resp.vectors[0].len(), 64);
        assert!(resp.cost_usd > 0.0);
    }

    #[test]
    fn max_output_tokens_truncates() {
        let s = sim();
        let long_input = "alpha beta gamma delta ".repeat(50);
        let req = CompletionRequest::new(
            "gpt-4o",
            protocol::generate_prompt("summarize", &long_input),
        )
        .with_max_output_tokens(5);
        let resp = s.complete(&req).unwrap();
        assert!(resp.usage.output_tokens <= 5, "{}", resp.text);
    }

    #[test]
    fn free_form_prompt_echoes() {
        let s = sim();
        let resp = s
            .complete(&CompletionRequest::new("gpt-4o", "What is Palimpzest?"))
            .unwrap();
        assert!(resp.text.contains("Palimpzest"));
    }

    #[test]
    fn pair_parsing_skips_urls_and_prose() {
        let pairs = label_value_pairs(
            "Name: X\nhttps://foo.bar/baz\nThis sentence mentions time 12:30 in prose but the label is way too long to count: nope\nB: y\n",
        );
        let labels: Vec<&str> = pairs.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["name", "b"]);
    }

    fn blocks_of(input: &str) -> Vec<std::ops::Range<usize>> {
        let pairs = label_value_pairs(input);
        let labels: Vec<LabelKeys<'_>> = pairs.iter().map(|p| LabelKeys::new(&p.label)).collect();
        group_into_blocks(&labels)
    }

    #[test]
    fn block_grouping_on_repeated_label() {
        assert_eq!(blocks_of("A: 1\nB: 2\nA: 3\nB: 4\n"), vec![0..2, 2..4]);
        // Labels are told apart by their content words, case folded; a
        // label with none (all stopwords, single letters) by itself.
        assert_eq!(
            blocks_of("The Dataset: 1\nFrom: 2\nTo: 3\ndataset of: 4\nFROM: 5\nfrom: 6\n"),
            vec![0..3, 3..5, 5..6]
        );
        assert_eq!(blocks_of("no pairs here"), vec![]);
    }

    /// What the streaming scan must reproduce: the reference builds every
    /// lower-cased content word and every stem of the haystack.
    fn reference_relevance(predicate: &str, haystack: &str) -> f64 {
        reference::relevance(&reference::content_words(predicate), haystack)
    }

    fn streamed_relevance(predicate: &str, haystack: &str) -> f64 {
        let lowered = predicate.to_ascii_lowercase();
        let needles: Vec<Stem<'_>> = content_stems(&lowered).collect();
        relevance(&needles, haystack)
    }

    #[test]
    fn relevance_edge_cases_match_reference() {
        for (predicate, haystack) in [
            // The empty predicate is fully satisfied, by anything.
            ("", "anything"),
            ("the of", ""),
            // A stopword whose stem equals a predicate stem is still dropped
            // from the haystack: "does" stems to "doe" but never counts.
            ("doe", "does"),
            ("doe", "does doe"),
            ("doe does", "a doe"),
            // Duplicate predicate words each count.
            ("cancer cancer tumor", "cancers"),
            ("cancer Cancer", "no match here"),
            // Stems meet from both sides; one-byte tokens are not words.
            ("studies", "a study x y"),
            ("study", "STUDIES,studi"),
            ("classes boxes", "class box"),
            // Non-ASCII letters are word characters and are not case folded.
            ("étude", "Étude étude"),
            ("数据集", "数据集s 数据"),
            ("colorectal cancer", "colorectal\r\ncancer"),
            ("modern homes garden", "a modern home; gardens."),
        ] {
            assert_eq!(
                streamed_relevance(predicate, haystack).to_bits(),
                reference_relevance(predicate, haystack).to_bits(),
                "{predicate:?} in {haystack:?}"
            );
        }
        assert_eq!(streamed_relevance("doe", "does"), 0.0);
        assert_eq!(streamed_relevance("", "anything"), 1.0);
    }

    proptest! {
        #[test]
        fn relevance_matches_reference(
            predicate in reference::odd_text(),
            haystack in reference::odd_text(),
        ) {
            prop_assert_eq!(
                streamed_relevance(&predicate, &haystack).to_bits(),
                reference_relevance(&predicate, &haystack).to_bits()
            );
        }

        #[test]
        fn stem_sets_match_reference(text in reference::odd_text()) {
            let want: std::collections::BTreeSet<String> = reference::content_words(&text)
                .iter()
                .map(|w| reference::stem(w))
                .collect();
            let lowered = text.to_ascii_lowercase();
            let got: Vec<String> = stem_set(&lowered).iter().map(Stem::built).collect();
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn corrupt_value_changes_value() {
        for v in ["https://portal.gdc.cancer.gov/x", "TCGA-COADREAD", "ab"] {
            assert_ne!(corrupt_value(v), v);
        }
    }
}
