//! The tracer as it was before the row store: every span a [`SpanRecord`]
//! of strings from the moment it opens, found again through a map from
//! [`SpanId`] to its position. Kept as the reference the row store must
//! match, operation for operation and byte for byte.

use super::{HistogramSummary, TraceSnapshot, Tracer};
use crate::span::{AttrValue, Event, Layer, SpanGuard, SpanId, SpanRecord};
use crate::TraceClock;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct RefState {
    spans: Vec<SpanRecord>,
    index: HashMap<SpanId, usize>,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
    scope: Vec<SpanId>,
    root_count: u32,
    child_count: HashMap<SpanId, u32>,
}

impl RefState {
    fn alloc_id(&mut self, parent: Option<&SpanId>) -> SpanId {
        match parent {
            None => {
                self.root_count += 1;
                SpanId::root(self.root_count)
            }
            Some(p) => {
                let n = self.child_count.entry(p.clone()).or_insert(0);
                *n += 1;
                p.child(*n)
            }
        }
    }

    fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                self.histograms
                    .insert(name.to_string(), HistogramSummary::new(value));
            }
        }
    }
}

#[derive(Clone)]
struct RefTracer {
    clock: Arc<dyn TraceClock>,
    state: Arc<Mutex<RefState>>,
}

struct RefGuard {
    tracer: RefTracer,
    id: SpanId,
    pushed: bool,
    done: bool,
}

impl RefGuard {
    fn set_attr(&self, key: &str, value: String) {
        let mut st = self.tracer.state.lock();
        if let Some(&i) = st.index.get(&self.id) {
            st.spans[i].attrs.insert(key.to_string(), value);
        }
    }

    fn close(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let end = self.tracer.clock.now_micros();
        let mut st = self.tracer.state.lock();
        if let Some(&i) = st.index.get(&self.id) {
            st.spans[i].end_us = Some(end);
        }
        if self.pushed {
            if let Some(at) = st.scope.iter().rposition(|open| *open == self.id) {
                st.scope.truncate(at);
            }
        }
    }
}

impl Drop for RefGuard {
    fn drop(&mut self) {
        self.close();
    }
}

impl RefTracer {
    fn new(clock: Arc<dyn TraceClock>) -> Self {
        Self {
            clock,
            state: Arc::default(),
        }
    }

    fn open_span(&self, layer: Layer, name: &str, push: bool) -> RefGuard {
        let start = self.clock.now_micros();
        let mut st = self.state.lock();
        let parent = st.scope.last().cloned();
        let id = st.alloc_id(parent.as_ref());
        let idx = st.spans.len();
        st.index.insert(id.clone(), idx);
        st.spans.push(SpanRecord {
            id: id.clone(),
            parent,
            layer,
            name: name.to_string(),
            start_us: start,
            end_us: None,
            attrs: BTreeMap::new(),
        });
        if push {
            st.scope.push(id.clone());
        }
        RefGuard {
            tracer: self.clone(),
            id,
            pushed: push,
            done: false,
        }
    }

    fn record_leaf(
        &self,
        layer: Layer,
        name: &str,
        start_us: u64,
        attrs: Vec<(&str, String)>,
        counter: &str,
        sample: Option<(&str, f64)>,
    ) {
        let end = self.clock.now_micros();
        let mut st = self.state.lock();
        let parent = st.scope.last().cloned();
        let id = st.alloc_id(parent.as_ref());
        st.spans.push(SpanRecord {
            id,
            parent,
            layer,
            name: name.to_string(),
            start_us,
            end_us: Some(end),
            attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        st.incr(counter, 1);
        if let Some((histogram, value)) = sample {
            st.observe(histogram, value);
        }
    }

    fn event(&self, layer: Layer, name: &str, attrs: &[(&str, String)]) {
        let at = self.clock.now_micros();
        let mut st = self.state.lock();
        let span = st.scope.last().cloned();
        st.events.push(Event {
            span,
            layer,
            name: name.to_string(),
            at_us: at,
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    fn snapshot(&self) -> TraceSnapshot {
        let st = self.state.lock();
        TraceSnapshot {
            spans: st.spans.clone(),
            events: st.events.clone(),
            counters: st.counters.clone(),
            histograms: st.histograms.clone(),
        }
    }

    fn reset(&self) {
        *self.state.lock() = RefState::default();
    }
}

/// A clock that moves 7 µs on every read, so any difference in when the
/// two tracers read it shows in their timestamps.
struct Steps(AtomicU64);

impl TraceClock for Steps {
    fn now_micros(&self) -> u64 {
        self.0.fetch_add(7, Ordering::SeqCst)
    }
}

const LAYERS: [Layer; 6] = [
    Layer::Chat,
    Layer::Agent,
    Layer::Optimizer,
    Layer::Executor,
    Layer::Llm,
    Layer::Vector,
];
const NAMES: [&str; 5] = ["turn", "op:filter", "complete", "act:load", "thought:1"];
const KEYS: [&str; 5] = ["model", "in", "cost_usd", "text", "error"];
const MODELS: [&str; 3] = ["gpt-4o", "llama-3-70b", "sim"];

/// One random value, as the row store takes it and as the reference
/// takes it (the string its callers formatted for it).
fn value(pick: u64, n: u64, x: f64) -> (AttrValue<'static>, String) {
    match pick % 5 {
        0 => (AttrValue::Int(n), n.to_string()),
        1 => {
            let places = (n % 10) as u8;
            let x = if n.is_multiple_of(17) { f64::NAN } else { x };
            (
                AttrValue::Fixed(x, places),
                format!("{:.*}", usize::from(places), x),
            )
        }
        2 => {
            let model = MODELS[(n % 3) as usize];
            (AttrValue::Symbol(model), model.to_string())
        }
        3 => (
            AttrValue::from(NAMES[(n % 5) as usize]),
            NAMES[(n % 5) as usize].to_string(),
        ),
        _ => {
            let text = format!("text {n}");
            (AttrValue::from(text.clone()), text)
        }
    }
}

/// Drive both tracers through `ops`, comparing their snapshots along the
/// way and at the end.
fn drive(ops: &[(u8, u64, u64, f64)]) {
    let new = Tracer::new(Arc::new(Steps(AtomicU64::new(0))));
    let old = RefTracer::new(Arc::new(Steps(AtomicU64::new(0))));
    let mut guards: Vec<(SpanGuard, RefGuard)> = Vec::new();
    let same = |new: &Tracer, old: &RefTracer| {
        let (a, b) = (new.snapshot(), old.snapshot());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a, b);
    };
    for &(op, a, b, x) in ops {
        let layer = LAYERS[(a % 6) as usize];
        let name = NAMES[(b % 5) as usize];
        match op {
            0 | 1 => {
                let g = if op == 0 {
                    (new.span(layer, name), old.open_span(layer, name, true))
                } else {
                    (
                        new.leaf_span(layer, name),
                        old.open_span(layer, name, false),
                    )
                };
                guards.push(g);
            }
            2 => {
                let model = MODELS[(a % 3) as usize];
                let (input, output, latency) = (a % 5000, b % 700, x.abs() / 1e3);
                let start = new.now_micros();
                assert_eq!(start, old.clock.now_micros());
                new.record_leaf(
                    Layer::Llm,
                    "complete",
                    start,
                    [
                        ("model", AttrValue::Symbol(model)),
                        ("input_tokens", AttrValue::Int(input)),
                        ("output_tokens", AttrValue::Int(output)),
                        ("cost_usd", AttrValue::Fixed(x, 6)),
                        ("latency_secs", AttrValue::Fixed(latency, 6)),
                    ],
                    "llm.completions",
                    Some(("llm.latency_secs", latency)),
                );
                old.record_leaf(
                    Layer::Llm,
                    "complete",
                    start,
                    vec![
                        ("model", model.to_string()),
                        ("input_tokens", input.to_string()),
                        ("output_tokens", output.to_string()),
                        ("cost_usd", format!("{:.6}", x)),
                        ("latency_secs", format!("{:.6}", latency)),
                    ],
                    "llm.completions",
                    Some(("llm.latency_secs", latency)),
                );
            }
            3 => {
                let model = MODELS[(a % 3) as usize];
                let start = new.now_micros();
                old.clock.now_micros();
                let error = format!("unknown model {b}");
                new.record_leaf(
                    Layer::Llm,
                    "embed",
                    start,
                    [
                        ("model", AttrValue::Symbol(model)),
                        ("error", AttrValue::from(error.as_str())),
                    ],
                    "llm.errors",
                    None,
                );
                old.record_leaf(
                    Layer::Llm,
                    "embed",
                    start,
                    vec![("model", model.to_string()), ("error", error)],
                    "llm.errors",
                    None,
                );
            }
            4 if !guards.is_empty() => {
                // On an open span or, after op 5, a closed one.
                let (g, r) = &guards[(a % guards.len() as u64) as usize];
                let key = KEYS[(b % 5) as usize];
                let (v, s) = value(a >> 8, b >> 8, x);
                g.set_attr(key, v);
                r.set_attr(key, s);
            }
            5 if !guards.is_empty() => {
                // Close without dropping, so later set_attrs hit a closed span.
                let at = (a % guards.len() as u64) as usize;
                guards[at].0.close();
                guards[at].1.close();
            }
            6 if !guards.is_empty() => {
                // Any guard, not just the newest: out-of-order closes.
                guards.remove((a % guards.len() as u64) as usize);
            }
            7 => {
                let attrs = [
                    ("kept", b.to_string()),
                    ("model", MODELS[(a % 3) as usize].to_string()),
                ];
                let attrs = &attrs[..(a % 3) as usize];
                new.event(layer, name, attrs);
                old.event(layer, name, attrs);
            }
            8 => {
                let counter = NAMES[(a % 5) as usize];
                new.incr(counter, b % 5);
                old.state.lock().incr(counter, b % 5);
            }
            9 => {
                let histogram = NAMES[(a % 5) as usize];
                new.observe(histogram, x);
                old.state.lock().observe(histogram, x);
            }
            10 => {
                new.reset();
                old.reset();
                // Every guard from before the reset, some given an attribute
                // first, dropped in a scrambled order: none may touch the
                // empty trace.
                let mut stale = std::mem::take(&mut guards);
                let mut pick = b;
                while !stale.is_empty() {
                    let (g, r) = stale.remove((pick % stale.len() as u64) as usize);
                    if pick.is_multiple_of(2) {
                        let (v, s) = value(pick, a, x);
                        g.set_attr("text", v);
                        r.set_attr("text", s);
                    }
                    assert_eq!(g.id(), None);
                    pick = pick.rotate_right(7) ^ a;
                }
                same(&new, &old);
            }
            _ => same(&new, &old),
        }
    }
    same(&new, &old);
    for (g, r) in &guards {
        assert_eq!(g.id().as_ref(), Some(&r.id));
    }
    while let Some(pair) = guards.pop() {
        drop(pair);
    }
    same(&new, &old);
}

proptest! {
    #[test]
    fn row_store_matches_the_string_tracer(
        ops in collection::vec((0u8..12, any::<u64>(), any::<u64>(), any::<f64>()), 0..160),
    ) {
        drive(&ops);
    }

    #[test]
    fn deep_nesting_matches_the_string_tracer(
        ops in collection::vec((0u8..3, any::<u64>(), any::<u64>(), any::<f64>()), 0..200),
    ) {
        // Opens and provider calls only, so the tree grows deep and wide.
        drive(&ops);
    }
}

#[test]
fn a_guard_from_before_a_reset_leaves_the_new_span_of_its_id_alone() {
    // The string tracer found spans by id, so a stale guard closed (and
    // popped) whichever new span reused its id. The row store checks the
    // reset generation instead.
    let t = Tracer::new(Arc::new(Steps(AtomicU64::new(0))));
    let stale = t.span(Layer::Chat, "turn");
    t.reset();
    let fresh = t.span(Layer::Chat, "turn");
    stale.set_attr("text", "stale");
    drop(stale);
    let child = t.leaf_span(Layer::Llm, "complete");
    assert_eq!(child.id(), Some(SpanId(vec![1, 1])));
    drop(child);
    let snap = t.snapshot();
    assert_eq!(snap.spans[0].end_us, None);
    assert!(snap.spans[0].attrs.is_empty());
    drop(fresh);
    assert!(t.snapshot().spans[0].end_us.is_some());
}
