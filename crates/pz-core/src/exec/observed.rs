//! What operator work costs in the run's own books: the ledger and the
//! failure sink the retry layer writes (`PzContext::retry_wait_us`).

use crate::context::PzContext;
use std::sync::atomic::Ordering;

/// Records in, calls, tokens, dollars and latency billed, and the time
/// calls lost to failures; counts held as `f64`, so a share is one too.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Observed {
    pub(crate) records: f64,
    pub(crate) calls: f64,
    pub(crate) input_tokens: f64,
    pub(crate) output_tokens: f64,
    pub(crate) cost_usd: f64,
    pub(crate) billed_secs: f64,
    pub(crate) stalled_secs: f64,
}

impl Observed {
    /// `ctx`'s running totals: the difference of two readings
    /// ([`since`](Self::since)) is what ran between them.
    pub(crate) fn meter(ctx: &PzContext) -> Self {
        let usage = ctx.ledger.total_usage();
        let lost_us = (ctx.retry_wait_us.as_ref()).map_or(0, |s| s.load(Ordering::Relaxed));
        Self {
            records: 0.0,
            calls: ctx.ledger.total_requests() as f64,
            input_tokens: usage.input_tokens as f64,
            output_tokens: usage.output_tokens as f64,
            cost_usd: ctx.ledger.total_cost_usd(),
            billed_secs: ctx.ledger.total_latency_secs(),
            stalled_secs: lost_us as f64 / 1e6,
        }
    }

    /// Field by field, `f` of this and `other`.
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self {
            records: f(self.records, other.records),
            calls: f(self.calls, other.calls),
            input_tokens: f(self.input_tokens, other.input_tokens),
            output_tokens: f(self.output_tokens, other.output_tokens),
            cost_usd: f(self.cost_usd, other.cost_usd),
            billed_secs: f(self.billed_secs, other.billed_secs),
            stalled_secs: f(self.stalled_secs, other.stalled_secs),
        }
    }

    /// What ran since `before`, an earlier reading of the same totals.
    pub(crate) fn since(self, before: Self) -> Self {
        self.zip(before, |now, then| now - then)
    }

    /// One record's share of what `n` records cost together.
    pub(crate) fn share(self, n: usize) -> Self {
        self.zip(self, |total, _| total / n.max(1) as f64)
    }

    pub(crate) fn add(&mut self, other: &Self) {
        *self = self.zip(*other, |a, b| a + b);
    }
}
