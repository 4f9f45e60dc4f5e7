//! # pz-obs — unified tracing & metrics for the palimpchat stack
//!
//! Before this crate the repo had three disconnected telemetry silos —
//! `archytas::ReactTrace`, `pz_core::exec::stats::ExecutionStats`, and
//! `pz_llm::usage::UsageLedger` — with no shared timeline. `pz-obs` puts
//! every layer (chat turn → agent step → optimizer → executor operator →
//! LLM/vector substrate call) onto one trace tree:
//!
//! - **Spans** carry a hierarchical id (`1.2.3`), a [`Layer`], start/end
//!   timestamps, and attributes, which a snapshot shows as strings.
//! - **Events** are point-in-time marks (cache hits, Pareto pruning, …)
//!   attached to the enclosing span.
//! - **Counters** and **histograms** aggregate high-frequency signals
//!   (vector probes, LLM latencies) without per-call span overhead.
//!
//! Timestamps come from a [`TraceClock`] — in this workspace the
//! simulated `pz_llm::clock::VirtualClock` — so a trace is *bit-for-bit
//! reproducible* across runs: same pipeline, same trace.
//!
//! The sink is an in-memory, thread-safe store (`parking_lot::Mutex`,
//! matching workspace style; no external `tracing` dependency). It keeps
//! each span as one small row of numbers and each attribute as a typed
//! [`AttrValue`] (integer, fixed-point float, interned symbol or text), so
//! recording a provider call formats nothing. Strings — span ids, names,
//! attribute values — are built only when [`Tracer::snapshot`] copies the
//! trace out as [`SpanRecord`]s; the `sink` module documents the layout.
//! Traces export as JSON Lines ([`TraceSnapshot::to_jsonl`]) and render as
//! a text tree ([`render_tree`]) for the REPL `:spans` command.
//!
//! ## Span parenting
//!
//! Parenting uses an explicit scope stack rather than thread-locals so
//! it stays correct when the executor fans work out over scoped threads:
//! *structural* spans ([`Tracer::span`]) push themselves onto the scope
//! stack and become the parent of whatever starts while they are open;
//! *leaf* spans ([`Tracer::leaf_span`]) adopt the current scope top as
//! parent but do **not** push, so concurrent workers can open leaf spans
//! under one operator span without corrupting each other's scope.

mod export;
pub mod profile;
mod render;
mod sink;
mod span;

pub use export::{to_chrome_trace, to_prometheus};
pub use profile::{critical_path, profile_plan, PlanProfile, StageBuckets, StageProfile};
pub use render::render_tree;
pub use sink::{HistogramSummary, TraceSnapshot, Tracer};
pub use span::{AttrValue, Event, Layer, SpanGuard, SpanId, SpanRecord};

/// Source of trace timestamps, in microseconds.
///
/// Implemented by `pz_llm::clock::VirtualClock` (the trait lives here,
/// below `pz-llm`, so every crate can depend on `pz-obs` without cycles).
pub trait TraceClock: Send + Sync {
    fn now_micros(&self) -> u64;
}

/// A fixed clock, useful for tests and for tracers created before a
/// virtual clock exists.
pub struct FrozenClock(pub u64);

impl TraceClock for FrozenClock {
    fn now_micros(&self) -> u64 {
        self.0
    }
}
