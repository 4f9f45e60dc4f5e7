//! The thread-safe in-memory trace sink and its snapshot/export types.
//!
//! ## Row layout
//!
//! The sink keeps no strings per span. Each span is one 40-byte [`Row`]:
//! start and end times, its parent's row, its position among its parent's
//! children, its layer, an interned name and the head of its attribute
//! list. Each attribute is one 16-byte [`AttrSlot`] in a shared vector,
//! linked to the span's previous attribute: a key index (keys are
//! `&'static str`, stored once), a kind, and 8 bytes of value — an
//! integer, the bits of a float with its decimal places, an interned
//! symbol, or an index into the text values. Names and symbols are stored
//! once per tracer, so a provider call's span (`"complete"`, model
//! `"gpt-4o"`, two token counts, cost and latency) appends one row and five
//! slots and allocates nothing beyond amortized vector growth.
//!
//! ## Strings at snapshot
//!
//! [`SpanId`] paths, parent ids, names and attribute renderings (`to_string`
//! for integers, `{:.N}` for fixed-point floats) are built only by
//! [`Tracer::snapshot`], which yields the same [`TraceSnapshot`] of
//! [`SpanRecord`]s, byte for byte, that a tracer storing strings from the
//! start would. A span's id is its row's path of ordinals; a parent is
//! always an earlier row, so the snapshot builds every id in one pass.
//!
//! A [`SpanGuard`] names its span by row and by the tracer's reset
//! generation: after [`Tracer::reset`] the generation moves on and the
//! guard touches nothing, not even a new span that reused its row.

use crate::span::{AttrValue, Event, Layer, SpanGuard, SpanId, SpanRecord};
use crate::TraceClock;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Running summary of an observed distribution. Keeps the moments
/// (count/sum/min/max) plus the raw samples, so percentile queries
/// (p50/p95/p99 — serving SLOs) are exact rather than sketched. The
/// sample vector serializes only when non-empty, so pre-quantile JSONL
/// exports still parse.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub samples: Vec<f64>,
}

impl HistogramSummary {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.samples.push(value);
    }

    fn new(value: f64) -> Self {
        Self {
            count: 1,
            sum: value,
            min: value,
            max: value,
            samples: vec![value],
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile over the recorded samples (`q` in `[0, 1]`).
    /// Returns 0.0 when no samples were kept (e.g. a summary parsed from
    /// an old JSONL export that predates sample retention).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        // A total order: a NaN sample (a provider reporting a NaN latency)
        // sorts above every number instead of making the sort panic.
        sorted.sort_by(f64::total_cmp);
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank.min(sorted.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// `Row::parent` of a root span, the end of an attribute list, and the
/// scope of an event recorded outside every span.
const NONE: u32 = u32::MAX;

/// A position in one of the state's vectors as a `u32` link; [`NONE`]
/// stays free to mean "no row".
fn link(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&i| i != NONE)
        .expect("a trace holds fewer than 2^32 - 1 of each: spans, attributes, texts, strings")
}

/// One span: 40 bytes, no heap. Its id, parent id and name become strings
/// only in [`TraceState::snapshot`].
#[derive(Clone, Copy)]
struct Row {
    start_us: u64,
    /// Meaningful once `closed`.
    end_us: u64,
    /// Row of the enclosing span, or [`NONE`] for a root.
    parent: u32,
    /// 1-based position among its parent's children (or among the roots):
    /// the last component of its [`SpanId`].
    ordinal: u32,
    /// Interned name ([`TraceState::strings`]).
    name: u32,
    /// Head of this span's attribute list in [`TraceState::attrs`].
    attrs: u32,
    layer: Layer,
    closed: bool,
}

/// How an [`AttrSlot`]'s `bits` read.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// The integer itself.
    Int,
    /// `f64::to_bits` of the value, shown with `places` decimals.
    Fixed,
    /// An interned string ([`TraceState::strings`]).
    Symbol,
    /// An index into [`TraceState::texts`].
    Text,
}

/// One attribute: 16 bytes, a link in its span's list.
#[derive(Clone, Copy)]
struct AttrSlot {
    bits: u64,
    /// The span's next attribute, or [`NONE`].
    next: u32,
    /// Index into [`TraceState::keys`].
    key: u16,
    kind: Kind,
    places: u8,
}

// The sizes the layout above is built around.
const _: () = assert!(std::mem::size_of::<Row>() == 40);
const _: () = assert!(std::mem::size_of::<AttrSlot>() == 16);

/// An open structural span on the scope stack, with the number of
/// children numbered under it so far. Only the top of the stack takes
/// children, and a span that leaves the stack never returns to it, so its
/// count lives here rather than on the row.
struct Open {
    row: u32,
    children: u32,
}

/// Everything a tracer has recorded since its last reset.
#[derive(Default)]
struct TraceState {
    /// Bumped by every [`Tracer::reset`]; a guard from an earlier
    /// generation touches nothing.
    generation: u64,
    rows: Vec<Row>,
    attrs: Vec<AttrSlot>,
    /// Attribute keys, by [`AttrSlot::key`].
    keys: Vec<&'static str>,
    key_ids: HashMap<&'static str, u16>,
    /// Span names and symbol values, each stored once.
    strings: HashMap<Box<str>, u32>,
    /// Text attribute values, by [`AttrSlot::bits`].
    texts: Vec<Box<str>>,
    /// Each event with the row it was recorded under; its `span` is filled
    /// in by the snapshot.
    events: Vec<(u32, Event)>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
    /// Stack of open *structural* spans; the top is the parent for
    /// whatever starts next.
    scope: Vec<Open>,
    roots: u32,
}

impl TraceState {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let id = link(self.strings.len());
        self.strings.insert(s.into(), id);
        id
    }

    fn key_id(&mut self, key: &'static str) -> u16 {
        if let Some(&id) = self.key_ids.get(key) {
            return id;
        }
        let id = u16::try_from(self.keys.len())
            .expect("attribute keys are string literals, fewer than 2^16 of them");
        self.keys.push(key);
        self.key_ids.insert(key, id);
        id
    }

    /// Append a span under the current scope top, numbered after its
    /// earlier siblings; a structural span also becomes the scope top.
    fn open(&mut self, layer: Layer, name: &str, start_us: u64, push: bool) -> u32 {
        let name = self.intern(name);
        let row = link(self.rows.len());
        let (parent, ordinal) = match self.scope.last_mut() {
            Some(open) => {
                open.children += 1;
                (open.row, open.children)
            }
            None => {
                self.roots += 1;
                (NONE, self.roots)
            }
        };
        self.rows.push(Row {
            start_us,
            end_us: 0,
            parent,
            ordinal,
            name,
            attrs: NONE,
            layer,
            closed: false,
        });
        if push {
            self.scope.push(Open { row, children: 0 });
        }
        row
    }

    fn close(&mut self, row: u32, end_us: u64) {
        let row = &mut self.rows[row as usize];
        row.end_us = end_us;
        row.closed = true;
    }

    /// Set `key` on `row`, replacing an earlier value under the same key.
    fn set_attr(&mut self, row: u32, key: &'static str, value: AttrValue<'_>) {
        let key = self.key_id(key);
        let mut at = self.rows[row as usize].attrs;
        while at != NONE {
            let slot = self.attrs[at as usize];
            if slot.key == key {
                let reuse = (slot.kind == Kind::Text).then_some(slot.bits);
                let (kind, places, bits) = self.encode(value, reuse);
                self.attrs[at as usize] = AttrSlot {
                    kind,
                    places,
                    bits,
                    ..slot
                };
                return;
            }
            at = slot.next;
        }
        let (kind, places, bits) = self.encode(value, None);
        let at = link(self.attrs.len());
        let row = &mut self.rows[row as usize];
        self.attrs.push(AttrSlot {
            bits,
            next: row.attrs,
            key,
            kind,
            places,
        });
        row.attrs = at;
    }

    /// A value's slot fields. A text replacing a text takes over its slot
    /// in `texts` (`reuse`); a text replaced by anything else is emptied.
    fn encode(&mut self, value: AttrValue<'_>, reuse: Option<u64>) -> (Kind, u8, u64) {
        let slot = match value {
            AttrValue::Int(n) => (Kind::Int, 0, n),
            AttrValue::Fixed(x, places) => (Kind::Fixed, places, x.to_bits()),
            AttrValue::Symbol(s) => (Kind::Symbol, 0, u64::from(self.intern(s))),
            AttrValue::Text(t) => {
                let t = Box::<str>::from(t);
                let at = match reuse {
                    Some(at) => {
                        self.texts[at as usize] = t;
                        at
                    }
                    None => {
                        let at = u64::from(link(self.texts.len()));
                        self.texts.push(t);
                        at
                    }
                };
                return (Kind::Text, 0, at);
            }
        };
        if let Some(at) = reuse {
            self.texts[at as usize] = Box::default();
        }
        slot
    }

    fn incr(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(n) => *n += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
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

    /// The id of `row`: its ordinals from the root down.
    fn span_id(&self, mut row: u32) -> SpanId {
        let mut path = Vec::new();
        while row != NONE {
            let r = &self.rows[row as usize];
            path.push(r.ordinal);
            row = r.parent;
        }
        path.reverse();
        SpanId(path)
    }

    /// The state as snapshot types: here, and only here, ids, names and
    /// attribute values become strings.
    fn snapshot(&self) -> TraceSnapshot {
        let mut strings = vec![""; self.strings.len()];
        for (s, &id) in &self.strings {
            strings[id as usize] = s;
        }
        // A parent is always an earlier row, so its id is already built.
        let mut ids: Vec<SpanId> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let id = match row.parent {
                NONE => SpanId::root(row.ordinal),
                parent => ids[parent as usize].child(row.ordinal),
            };
            ids.push(id);
        }
        let spans = self
            .rows
            .iter()
            .zip(&ids)
            .map(|(row, id)| SpanRecord {
                id: id.clone(),
                parent: (row.parent != NONE).then(|| ids[row.parent as usize].clone()),
                layer: row.layer,
                name: strings[row.name as usize].to_string(),
                start_us: row.start_us,
                end_us: row.closed.then_some(row.end_us),
                attrs: self.attr_map(row.attrs, &strings),
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|(row, event)| Event {
                span: (*row != NONE).then(|| ids[*row as usize].clone()),
                ..event.clone()
            })
            .collect();
        TraceSnapshot {
            spans,
            events,
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        }
    }

    fn attr_map(&self, mut at: u32, strings: &[&str]) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        while at != NONE {
            let slot = &self.attrs[at as usize];
            let value = match slot.kind {
                Kind::Int => slot.bits.to_string(),
                Kind::Fixed => {
                    format!("{:.*}", usize::from(slot.places), f64::from_bits(slot.bits))
                }
                Kind::Symbol => strings[slot.bits as usize].to_string(),
                Kind::Text => self.texts[slot.bits as usize].to_string(),
            };
            map.insert(self.keys[usize::from(slot.key)].to_string(), value);
            at = slot.next;
        }
        map
    }
}

/// Cloneable handle to a shared trace sink. All palimpchat layers hold
/// the same `Tracer`, so their spans land on one timeline.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

struct Inner {
    clock: Arc<dyn TraceClock>,
    state: Mutex<TraceState>,
    /// When false (the default) the executor skips all profiling gauges
    /// (queue depth, wait attribution, utilization), keeping default-run
    /// traces byte-identical to pre-profiler builds.
    profiling: AtomicBool,
}

impl Tracer {
    /// A tracer with nothing recorded. It allocates nothing until the
    /// first span, event, counter or sample.
    pub fn new(clock: Arc<dyn TraceClock>) -> Self {
        Self {
            inner: Arc::new(Inner {
                clock,
                state: Mutex::new(TraceState::default()),
                profiling: AtomicBool::new(false),
            }),
        }
    }

    pub fn now_micros(&self) -> u64 {
        self.inner.clock.now_micros()
    }

    /// Enable or disable profiling gauges (off by default). Instrumented
    /// code checks [`Tracer::profiling_enabled`] before recording any
    /// gauge, so a disabled profiler costs one relaxed atomic load.
    pub fn set_profiling(&self, on: bool) {
        self.inner.profiling.store(on, Ordering::Relaxed);
    }

    /// Whether profiling gauges should be recorded.
    pub fn profiling_enabled(&self) -> bool {
        self.inner.profiling.load(Ordering::Relaxed)
    }

    fn open_span(&self, layer: Layer, name: &str, push: bool) -> SpanGuard {
        let start = self.now_micros();
        let mut st = self.inner.state.lock();
        let row = st.open(layer, name, start, push);
        SpanGuard {
            tracer: self.clone(),
            row,
            generation: st.generation,
            pushed: push,
            done: false,
        }
    }

    /// Open a *structural* span: it becomes the parent of everything
    /// started (from any thread) until its guard drops. Use for chat
    /// turns, agent phases, optimizer runs, and executor operators.
    pub fn span(&self, layer: Layer, name: &str) -> SpanGuard {
        self.open_span(layer, name, true)
    }

    /// Open a *leaf* span: parented under the current scope but not
    /// pushed onto it. Safe to open concurrently from worker threads
    /// (e.g. per-LLM-call spans under one operator span).
    pub fn leaf_span(&self, layer: Layer, name: &str) -> SpanGuard {
        self.open_span(layer, name, false)
    }

    /// Record a leaf span that is already over, in one call under one lock:
    /// opened at `start_us` (read before the work it times), closed now, with
    /// `attrs`, one increment of the counter `counter` and, when given, one
    /// histogram sample. The span is parented under the current scope and
    /// numbered when it is recorded, so a span opened while the work ran
    /// (none is, in a single-threaded run) would number before it. Beyond
    /// the amortized growth of the state's vectors it allocates only for a
    /// [`AttrValue::Text`] value or a name, key, symbol, counter or
    /// histogram seen for the first time.
    pub fn record_leaf<'v>(
        &self,
        layer: Layer,
        name: &str,
        start_us: u64,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue<'v>)>,
        counter: &str,
        sample: Option<(&str, f64)>,
    ) {
        let end = self.now_micros();
        let mut st = self.inner.state.lock();
        let row = st.open(layer, name, start_us, false);
        st.close(row, end);
        for (key, value) in attrs {
            st.set_attr(row, key, value);
        }
        st.incr(counter, 1);
        if let Some((histogram, value)) = sample {
            st.observe(histogram, value);
        }
    }

    /// Close `row` now, if the tracer has not been reset since it opened.
    pub(crate) fn end_span(&self, row: u32, generation: u64, pushed: bool) {
        let end = self.now_micros();
        let mut st = self.inner.state.lock();
        if st.generation != generation {
            return;
        }
        st.close(row, end);
        if pushed {
            // Pop this span and anything accidentally left above it. A span
            // no longer on the stack (closed out of order, after one it
            // encloses) pops nothing: its enclosing spans are still open.
            if let Some(at) = st.scope.iter().rposition(|open| open.row == row) {
                st.scope.truncate(at);
            }
        }
    }

    pub(crate) fn set_span_attr(
        &self,
        row: u32,
        generation: u64,
        key: &'static str,
        value: AttrValue<'_>,
    ) {
        let mut st = self.inner.state.lock();
        if st.generation == generation {
            st.set_attr(row, key, value);
        }
    }

    pub(crate) fn span_id(&self, row: u32, generation: u64) -> Option<SpanId> {
        let st = self.inner.state.lock();
        (st.generation == generation).then(|| st.span_id(row))
    }

    /// Record a point-in-time event under the current scope.
    pub fn event(&self, layer: Layer, name: &str, attrs: &[(&str, String)]) {
        let at = self.now_micros();
        let mut st = self.inner.state.lock();
        let span = st.scope.last().map_or(NONE, |open| open.row);
        st.events.push((
            span,
            Event {
                span: None,
                layer,
                name: name.to_string(),
                at_us: at,
                attrs: attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        ));
    }

    /// Add `by` to a named monotonic counter.
    pub fn incr(&self, name: &str, by: u64) {
        self.inner.state.lock().incr(name, by);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .state
            .lock()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Record one observation into a named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.inner.state.lock().observe(name, value);
    }

    /// Number of spans recorded so far (cheap liveness probe).
    pub fn span_count(&self) -> usize {
        self.inner.state.lock().rows.len()
    }

    /// Copy out everything recorded so far, as strings.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.inner.state.lock().snapshot()
    }

    /// Drop all recorded data (scope stack included). Guards of spans
    /// opened before the reset touch nothing afterwards.
    pub fn reset(&self) {
        let mut st = self.inner.state.lock();
        let generation = st.generation + 1;
        *st = TraceState {
            generation,
            ..TraceState::default()
        };
    }
}

/// One line of a JSONL trace export.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum TraceLine {
    Span(SpanRecord),
    Event(Event),
    Counter {
        name: String,
        value: u64,
    },
    Histogram {
        name: String,
        summary: HistogramSummary,
    },
}

/// An immutable copy of a trace, exportable as JSON Lines.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSnapshot {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<Event>,
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl TraceSnapshot {
    /// Serialize as JSON Lines: one span/event/counter/histogram per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&serde_json::to_string(&TraceLine::Span(s.clone())).expect("span json"));
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&serde_json::to_string(&TraceLine::Event(e.clone())).expect("event json"));
            out.push('\n');
        }
        for (name, value) in &self.counters {
            out.push_str(
                &serde_json::to_string(&TraceLine::Counter {
                    name: name.clone(),
                    value: *value,
                })
                .expect("counter json"),
            );
            out.push('\n');
        }
        for (name, summary) in &self.histograms {
            out.push_str(
                &serde_json::to_string(&TraceLine::Histogram {
                    name: name.clone(),
                    summary: summary.clone(),
                })
                .expect("histogram json"),
            );
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL export back into a snapshot.
    pub fn from_jsonl(text: &str) -> Result<Self, serde_json::Error> {
        let mut snap = TraceSnapshot::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match serde_json::from_str::<TraceLine>(line)? {
                TraceLine::Span(s) => snap.spans.push(s),
                TraceLine::Event(e) => snap.events.push(e),
                TraceLine::Counter { name, value } => {
                    snap.counters.insert(name, value);
                }
                TraceLine::Histogram { name, summary } => {
                    snap.histograms.insert(name, summary);
                }
            }
        }
        Ok(snap)
    }

    /// All spans from one layer, in creation order.
    pub fn spans_in_layer(&self, layer: Layer) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.layer == layer).collect()
    }

    /// Sum a numeric attribute across all spans of a layer (spans
    /// without the attribute contribute 0).
    pub fn attr_sum(&self, layer: Layer, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .filter_map(|s| s.attrs.get(key))
            .filter_map(|v| v.parse::<f64>().ok())
            .sum()
    }

    /// Root spans (no parent), in creation order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Direct children of `id`, in creation order.
    pub fn children(&self, id: &SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent.as_ref() == Some(id))
            .collect()
    }

    /// Events attached to `id` (not descendants), in record order.
    pub fn events_for(&self, id: &SpanId) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| e.span.as_ref() == Some(id))
            .collect()
    }

    /// Total trace duration in microseconds: latest closed end minus
    /// earliest start across all spans (0 for an empty or all-open trace).
    pub fn duration_micros(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_us).min();
        let end = self.spans.iter().filter_map(|s| s.end_us).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => 0,
        }
    }

    /// Time a span spent in its direct children, in microseconds.
    /// Clamped to the parent's own duration so malformed traces (child
    /// outliving parent) never report child-time above total.
    pub fn child_time_us(&self, id: &SpanId) -> u64 {
        let total = match self.spans.iter().find(|s| &s.id == id) {
            Some(s) => s.duration_us(),
            None => return 0,
        };
        let children: u64 = self.children(id).iter().map(|c| c.duration_us()).sum();
        children.min(total)
    }

    /// Self-time of a span: its duration minus time covered by direct
    /// children. The quantity the profiler attributes to the span itself.
    pub fn self_time_us(&self, id: &SpanId) -> u64 {
        match self.spans.iter().find(|s| &s.id == id) {
            Some(s) => s.duration_us().saturating_sub(self.child_time_us(id)),
            None => 0,
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrozenClock;

    fn tracer() -> Tracer {
        Tracer::new(Arc::new(FrozenClock(1_000)))
    }

    #[test]
    fn structural_spans_nest_and_leaves_attach() {
        let t = tracer();
        let outer = t.span(Layer::Chat, "turn");
        let inner = t.span(Layer::Executor, "op:filter");
        let leaf = t.leaf_span(Layer::Llm, "complete");
        leaf.set_attr("model", "sim");
        drop(leaf);
        drop(inner);
        drop(outer);

        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[0].id.to_string(), "1");
        assert_eq!(snap.spans[1].id.to_string(), "1.1");
        assert_eq!(snap.spans[2].id.to_string(), "1.1.1");
        assert_eq!(snap.spans[2].parent, Some(SpanId(vec![1, 1])));
        assert_eq!(snap.spans[2].attrs["model"], "sim");
        assert!(snap.spans.iter().all(|s| s.end_us.is_some()));
    }

    #[test]
    fn leaf_spans_do_not_become_parents() {
        let t = tracer();
        let _outer = t.span(Layer::Executor, "op");
        let leaf = t.leaf_span(Layer::Llm, "call-1");
        let sibling = t.leaf_span(Layer::Llm, "call-2");
        assert_eq!(leaf.id().unwrap().to_string(), "1.1");
        assert_eq!(sibling.id().unwrap().to_string(), "1.2");
    }

    #[test]
    fn events_counters_histograms() {
        let t = tracer();
        let _s = t.span(Layer::Llm, "call");
        t.event(Layer::Llm, "cache_hit", &[("model", "sim".to_string())]);
        t.incr("llm.cache.hits", 2);
        t.incr("llm.cache.hits", 1);
        t.observe("llm.latency_us", 10.0);
        t.observe("llm.latency_us", 30.0);

        assert_eq!(t.counter("llm.cache.hits"), 3);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].span, Some(SpanId(vec![1])));
        let h = &snap.histograms["llm.latency_us"];
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 30.0);
    }

    #[test]
    fn histogram_quantiles_nearest_rank() {
        let t = tracer();
        for v in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
            t.observe("lat", v);
        }
        let snap = t.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p95(), 100.0);
        assert_eq!(h.p99(), 100.0);
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.quantile(1.0), 100.0);

        let single = &Tracer::new(Arc::new(FrozenClock(0)));
        single.observe("one", 7.0);
        assert_eq!(single.snapshot().histograms["one"].p99(), 7.0);
    }

    #[test]
    fn histogram_quantiles_survive_nan_samples() {
        // One NaN latency from a client must not make every later quantile
        // panic (40 samples with 6 NaN did, under a `partial_cmp` sort).
        let t = tracer();
        for i in 0..40 {
            t.observe(
                "lat",
                if i % 7 == 3 {
                    f64::NAN
                } else {
                    f64::from(40 - i)
                },
            );
        }
        let h = &t.snapshot().histograms["lat"];
        let mut numbers: Vec<f64> = h.samples.iter().copied().filter(|x| !x.is_nan()).collect();
        assert_eq!(numbers.len(), 34);
        numbers.sort_by(f64::total_cmp);
        assert_eq!(h.p50(), numbers[19]);
        assert_eq!(h.quantile(0.0), numbers[0]);
        assert!(h.p99().is_nan());
    }

    #[test]
    fn out_of_order_close_keeps_the_enclosing_scope() {
        let t = tracer();
        let turn = t.span(Layer::Chat, "turn");
        let a = t.span(Layer::Agent, "a");
        let b = t.span(Layer::Agent, "b");
        // `a` closes first and takes `b` off the stack with it; closing `b`
        // afterwards must leave `turn` open.
        drop(a);
        drop(b);
        let leaf = t.leaf_span(Layer::Llm, "complete");
        assert_eq!(leaf.id().unwrap().to_string(), "1.2");
        drop(leaf);
        drop(turn);
        let snap = t.snapshot();
        assert_eq!(snap.spans[3].parent, Some(SpanId::root(1)));
        assert!(snap.spans.iter().all(|s| s.end_us.is_some()));
    }

    #[test]
    fn record_leaf_matches_an_opened_and_closed_leaf() {
        struct Steps(std::sync::atomic::AtomicU64);
        impl crate::TraceClock for Steps {
            fn now_micros(&self) -> u64 {
                self.0.fetch_add(7, std::sync::atomic::Ordering::SeqCst)
            }
        }
        let run = |whole: bool| {
            let t = Tracer::new(Arc::new(Steps(Default::default())));
            let _op = t.span(Layer::Executor, "op");
            for call in 0..3u32 {
                if whole {
                    let start = t.now_micros();
                    t.record_leaf(
                        Layer::Llm,
                        "complete",
                        start,
                        [
                            ("model", AttrValue::Symbol("sim")),
                            ("call", AttrValue::Int(call.into())),
                        ],
                        "llm.completions",
                        Some(("llm.latency_secs", f64::from(call))),
                    );
                } else {
                    let leaf = t.leaf_span(Layer::Llm, "complete");
                    leaf.set_attr("model", "sim");
                    leaf.set_attr("call", call.to_string());
                    t.incr("llm.completions", 1);
                    t.observe("llm.latency_secs", f64::from(call));
                }
            }
            t.snapshot()
        };
        let (whole, opened) = (run(true), run(false));
        assert_eq!(whole.to_jsonl(), opened.to_jsonl());
        assert_eq!(whole.spans[1].id.to_string(), "1.1");
        assert_eq!(whole.spans[3].attrs["call"], "2");
        assert_eq!(whole.spans[3].end_us, Some(whole.spans[3].start_us + 7));
        assert_eq!(whole.counters["llm.completions"], 3);
        assert_eq!(whole.histograms["llm.latency_secs"].count, 3);
    }

    #[test]
    fn old_jsonl_histograms_without_samples_still_parse() {
        // A line from a pre-quantile export: no `samples` field.
        let line = r#"{"Histogram":{"name":"lat","summary":{"count":2,"sum":40.0,"min":10.0,"max":30.0}}}"#;
        let snap = TraceSnapshot::from_jsonl(line).expect("parse legacy line");
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 2);
        assert!(h.samples.is_empty());
        assert_eq!(h.p95(), 0.0); // no samples retained → quantiles degrade to 0
    }

    #[test]
    fn duration_and_self_time_helpers() {
        struct Steps(std::sync::atomic::AtomicU64);
        impl crate::TraceClock for Steps {
            fn now_micros(&self) -> u64 {
                self.0.fetch_add(100, std::sync::atomic::Ordering::SeqCst)
            }
        }
        let t = Tracer::new(Arc::new(Steps(Default::default())));
        let outer = t.span(Layer::Executor, "outer"); // starts @0
        let inner = t.span(Layer::Llm, "inner"); // starts @100
        inner.finish(); // ends @200
        outer.finish(); // ends @300

        let snap = t.snapshot();
        assert_eq!(snap.duration_micros(), 300);
        let outer_id = SpanId::root(1);
        assert_eq!(snap.child_time_us(&outer_id), 100);
        assert_eq!(snap.self_time_us(&outer_id), 200);
        assert_eq!(snap.self_time_us(&outer_id.child(1)), 100);
    }

    #[test]
    fn profiling_flag_defaults_off_and_toggles() {
        let t = tracer();
        assert!(!t.profiling_enabled());
        t.set_profiling(true);
        assert!(t.profiling_enabled());
        let clone = t.clone();
        assert!(clone.profiling_enabled()); // shared with clones
        t.set_profiling(false);
        assert!(!clone.profiling_enabled());
    }

    #[test]
    fn jsonl_round_trip() {
        let t = tracer();
        {
            let s = t.span(Layer::Optimizer, "optimize");
            s.set_attr("plans", "12");
            t.event(
                Layer::Optimizer,
                "pareto_pruned",
                &[("kept", "3".to_string())],
            );
        }
        t.incr("optimizer.plans_enumerated", 12);
        t.observe("optimizer.plan_cost_usd", 0.25);

        let snap = t.snapshot();
        let jsonl = snap.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        let back = TraceSnapshot::from_jsonl(&jsonl).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn reset_clears_everything() {
        let t = tracer();
        t.span(Layer::Chat, "turn").finish();
        t.incr("c", 1);
        t.reset();
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        // ids restart from 1
        let s = t.span(Layer::Chat, "turn2");
        assert_eq!(s.id().unwrap().to_string(), "1");
    }
}
