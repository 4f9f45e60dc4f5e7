//! Span, event, and layer types.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Which layer of the stack emitted a span or event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Layer {
    /// A palimpchat session turn.
    Chat,
    /// The archytas ReAct loop (thought / act / observe).
    Agent,
    /// Plan enumeration, Pareto pruning, sentinel calibration.
    Optimizer,
    /// Physical plan execution (per-operator).
    Executor,
    /// LLM substrate calls (completions, embeddings, cache).
    Llm,
    /// Vector index builds and probes.
    Vector,
}

impl Layer {
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Chat => "chat",
            Layer::Agent => "agent",
            Layer::Optimizer => "optimizer",
            Layer::Executor => "executor",
            Layer::Llm => "llm",
            Layer::Vector => "vector",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hierarchical span identifier: `1.2.3` is the third child of the
/// second child of the first root span. Lexicographic-by-component order
/// equals tree (pre-order) creation order within a parent.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub Vec<u32>);

impl SpanId {
    pub fn root(n: u32) -> Self {
        SpanId(vec![n])
    }

    pub fn child(&self, n: u32) -> Self {
        let mut path = self.0.clone();
        path.push(n);
        SpanId(path)
    }

    pub fn parent(&self) -> Option<SpanId> {
        if self.0.len() > 1 {
            Some(SpanId(self.0[..self.0.len() - 1].to_vec()))
        } else {
            None
        }
    }

    pub fn depth(&self) -> usize {
        self.0.len()
    }

    pub fn is_root(&self) -> bool {
        self.0.len() == 1
    }

    /// Is `self` an ancestor of (or equal to) `other`?
    pub fn contains(&self, other: &SpanId) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, part) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{part}")?;
        }
        Ok(())
    }
}

/// A completed or in-flight span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub layer: Layer,
    pub name: String,
    pub start_us: u64,
    /// `None` while the span is still open.
    pub end_us: Option<u64>,
    pub attrs: BTreeMap<String, String>,
}

impl SpanRecord {
    /// Duration in microseconds; open spans report 0.
    pub fn duration_us(&self) -> u64 {
        self.end_us
            .map(|e| e.saturating_sub(self.start_us))
            .unwrap_or(0)
    }
}

/// A point-in-time mark attached to the enclosing span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// The span this event occurred under (`None` = outside any span).
    pub span: Option<SpanId>,
    pub layer: Layer,
    pub name: String,
    pub at_us: u64,
    pub attrs: BTreeMap<String, String>,
}

/// A span attribute's value as instrumented code hands it over. The
/// tracer keeps it in this form and renders it as a string only in a
/// snapshot, so recording one formats nothing.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue<'a> {
    /// Shown in decimal, as `to_string` shows it.
    Int(u64),
    /// Shown with this many decimal places, as `format!("{:.N}")` shows it.
    Fixed(f64, u8),
    /// A string from a small set, such as a model id: stored once per
    /// tracer, so recording it again allocates nothing.
    Symbol(&'a str),
    /// Any other string: stored with its span.
    Text(Cow<'a, str>),
}

impl<'a> From<&'a str> for AttrValue<'a> {
    fn from(s: &'a str) -> Self {
        AttrValue::Text(Cow::Borrowed(s))
    }
}

impl From<String> for AttrValue<'_> {
    fn from(s: String) -> Self {
        AttrValue::Text(Cow::Owned(s))
    }
}

impl From<usize> for AttrValue<'_> {
    fn from(n: usize) -> Self {
        // Lossless: no supported target has a usize wider than 64 bits.
        AttrValue::Int(n as u64)
    }
}

/// RAII handle for an open span: records the end timestamp (and pops the
/// scope stack for structural spans) when dropped or `finish`ed. It names
/// its span by row, and a guard that outlives [`crate::Tracer::reset`]
/// touches nothing.
pub struct SpanGuard {
    pub(crate) tracer: crate::Tracer,
    pub(crate) row: u32,
    /// The tracer's reset generation when the span opened.
    pub(crate) generation: u64,
    pub(crate) pushed: bool,
    pub(crate) done: bool,
}

impl SpanGuard {
    /// The span's id, or `None` once the tracer has been reset.
    pub fn id(&self) -> Option<SpanId> {
        self.tracer.span_id(self.row, self.generation)
    }

    /// Attach or overwrite an attribute on this span.
    pub fn set_attr<'v>(&self, key: &'static str, value: impl Into<AttrValue<'v>>) {
        self.tracer
            .set_span_attr(self.row, self.generation, key, value.into());
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(mut self) {
        self.close();
    }

    /// Close the span if it is still open; later calls do nothing.
    pub(crate) fn close(&mut self) {
        if !self.done {
            self.done = true;
            self.tracer.end_span(self.row, self.generation, self.pushed);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}
