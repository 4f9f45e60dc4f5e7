//! Weighted-fair run order and the host's provider-call count.
//!
//! A serving host runs its admitted sessions one whole run at a time
//! (see `ServeHost::serve`), so what tenants compete for is their turn.
//! The order is start-time fair queueing over unit-cost runs: each tenant
//! carries a weight, each run it is handed advances the tenant's virtual
//! finish tag by `1/weight`, and the host next runs the admitted run with
//! the smallest tag (submission order breaks ties). An interactive
//! tenant with weight 4 therefore gets four runs for every one a weight-1
//! batch tenant gets while both are backlogged — a deep batch backlog
//! cannot starve chat turns — while an idle tenant's tag is clamped up to
//! the virtual time on arrival so it cannot bank service while away and
//! then monopolize the host. `FairQueue` computes the tags from its
//! inputs alone: no lock, no clock.

use pz_obs::Tracer;
use serde::Serialize;
use std::collections::HashMap;

/// Counters describing the provider calls a host has made.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct SchedulerStats {
    /// Provider calls that missed the response cache, failed ones
    /// included: one per call a tenant's traced client recorded.
    pub granted: u64,
}

/// The host's tenants as the run order sees them: weights, and the
/// tracers whose counters number their provider calls.
#[derive(Default)]
pub struct GlobalScheduler {
    weights: HashMap<String, f64>,
    tracers: Vec<Tracer>,
}

impl GlobalScheduler {
    /// Register a tenant with its relative share. Weights are clamped to a
    /// small positive floor so a zero weight cannot push a tenant's runs
    /// behind everyone's forever.
    pub(crate) fn register_tenant(&mut self, tenant: &str, weight: f64, tracer: Tracer) {
        self.weights.insert(tenant.to_string(), weight.max(1e-6));
        self.tracers.push(tracer);
    }

    /// A tenant's weight; 1 for a tenant never registered.
    pub fn weight(&self, tenant: &str) -> f64 {
        self.weights.get(tenant).copied().unwrap_or(1.0)
    }

    /// Provider calls so far, read off every tenant's tracer counters
    /// (since the tracer was last reset).
    pub fn stats(&self) -> SchedulerStats {
        let calls = |t: &Tracer| {
            ["llm.completions", "llm.embeddings", "llm.errors"]
                .iter()
                .map(|name| t.counter(name))
                .sum::<u64>()
        };
        SchedulerStats {
            granted: self.tracers.iter().map(calls).sum(),
        }
    }
}

/// Admitted runs waiting for their turn, handed out in start-time-fair
/// order.
#[derive(Default)]
pub(crate) struct FairQueue {
    /// `(finish tag, job)` of every waiting run; `job` is its submission
    /// index.
    ready: Vec<(f64, usize)>,
    /// Each tenant's most recent finish tag.
    last_tag: HashMap<String, f64>,
    /// Finish tag of the run handed out last: a tenant that was idle
    /// starts from here.
    vtime: f64,
}

impl FairQueue {
    /// Queue run `job` of `tenant`, whose weight is `weight`.
    pub(crate) fn push(&mut self, tenant: &str, weight: f64, job: usize) {
        let last = self.last_tag.entry(tenant.to_string()).or_insert(0.0);
        let tag = last.max(self.vtime) + 1.0 / weight;
        *last = tag;
        self.ready.push((tag, job));
    }

    /// The waiting run with the smallest `(tag, job)`, if any.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let next = (0..self.ready.len()).min_by(|&a, &b| {
            let ((ta, ja), (tb, jb)) = (self.ready[a], self.ready[b]);
            ta.total_cmp(&tb).then(ja.cmp(&jb))
        })?;
        let (tag, job) = self.ready.swap_remove(next);
        self.vtime = self.vtime.max(tag);
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs of a weight-1 batch tenant, submitted first, and ten of a
    /// weight-4 chat tenant: the chat tenant's tags (0.25, 0.5, … 2.5) run
    /// ahead of the batch tenant's (1, 2, … 10), four to one, and the
    /// batch tenant still finishes all ten.
    #[test]
    fn weighted_fairness_interleaves_backlogged_tenants() {
        let mut q = FairQueue::default();
        for job in 0..20 {
            let (tenant, weight) = if job < 10 { ("b", 1.0) } else { ("c", 4.0) };
            q.push(tenant, weight, job);
        }
        let order: String = std::iter::from_fn(|| q.pop())
            .map(|job| if job < 10 { 'b' } else { 'c' })
            .collect();
        // A tie goes to the earlier submission.
        assert_eq!(order, "cccbccccbcccbbbbbbbb");
        let chat_head = order.chars().take(10).filter(|&n| n == 'c').count();
        assert_eq!(chat_head, 8);

        // A tenant that arrives later starts at the virtual time: it banked
        // nothing while away, and takes its turn after the runs already
        // tagged ahead of it.
        let mut q = FairQueue::default();
        q.push("b", 1.0, 0);
        q.push("b", 1.0, 1);
        assert_eq!(q.pop(), Some(0));
        q.push("late", 1.0, 2);
        assert_eq!((q.pop(), q.pop()), (Some(1), Some(2)));
    }
}
