//! What operator work costs in the run's own books: the ledger, and the
//! sink the retry layer writes (`PzContext::run_sink`) with the time calls
//! lost to failures and what the response cache's hits handed on.

use crate::context::PzContext;
use pz_llm::CallShare;

/// Records in, and the calls, tokens, dollars and latency billed for them
/// with the time calls lost to failures; counts held as `f64`, so a share
/// is one too.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Observed {
    pub(crate) records: f64,
    pub(crate) share: CallShare,
}

impl Observed {
    /// `ctx`'s running totals: the difference of two readings
    /// ([`since`](Self::since)) is what ran between them.
    pub(crate) fn meter(ctx: &PzContext) -> Self {
        let usage = ctx.ledger.total_usage();
        let share = CallShare {
            calls: ctx.ledger.total_requests() as f64,
            input_tokens: usage.input_tokens as f64,
            output_tokens: usage.output_tokens as f64,
            cost_usd: ctx.ledger.total_cost_usd(),
            latency_secs: ctx.ledger.total_latency_secs(),
            stalled_secs: (ctx.run_sink.as_ref()).map_or(0.0, |s| s.lost_secs()),
        };
        Self {
            records: 0.0,
            share,
        }
    }

    /// The running total of what the run's cache hits handed on: the share
    /// of every call that filled an entry they served. Zero without a
    /// cache.
    pub(crate) fn replayed(ctx: &PzContext) -> Self {
        Self {
            records: 0.0,
            share: (ctx.run_sink.as_ref()).map_or_else(CallShare::default, |s| s.replayed()),
        }
    }

    /// What ran since `before`, an earlier reading of the same totals.
    pub(crate) fn since(self, before: Self) -> Self {
        Self {
            records: self.records - before.records,
            share: self.share.since(before.share),
        }
    }

    pub(crate) fn add(&mut self, other: &Self) {
        self.records += other.records;
        self.share.add(&other.share);
    }
}
