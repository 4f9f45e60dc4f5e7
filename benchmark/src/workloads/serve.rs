//! `serve` — a `ServeHost` with four tenants (weights 1/1/2/4, one of them
//! on a request budget that truncates about a tenth of its sessions), the
//! shared response cache on, admission at 2 slots + 4 queued, and two
//! closed-loop client threads each looping `run_session`.
//!
//! The only concurrent workload: the shared cache map, scheduler and ledger
//! locks under two threads, and per-session optimizer + admission overhead.
//! Every dataset is served fresh (cache writes) and every second one is
//! served again later (cache reads), so hits run beside misses, and quota
//! truncation beside normal completion. Two sessions in three are fresh on
//! purpose: at one in two the median session sits in the gap between the
//! fast (revisit) and the slow (fresh) mode and jumps between them from
//! run to run.

use crate::adapter::{self, SessionEnd};
use crate::harness::{timed, Pass, Workload};
use crate::workloads::scaled;
use std::time::Instant;

/// Fixed at two: callers wait for replies (closed loop), and the box this
/// is sized for has two cores.
const CLIENTS: usize = 2;
pub const PAPERS_PER_SESSION: usize = 50;
/// Under six fresh sessions' worth of calls (50 filter calls plus ~20
/// converts each): the budget runs out during every sixth fresh session —
/// three of the tenant's thirty sessions a pass — and the client then
/// starts the tenant's next billing period.
const QUOTA_REQUESTS: usize = 400;

/// One dataset of one tenant.
struct Corpus {
    tenant: &'static str,
    name: String,
    source: adapter::Source,
}

pub struct Serve {
    corpora: Vec<Corpus>,
    /// Per client, the sessions it submits in order: indices into `corpora`.
    jobs: [Vec<usize>; CLIENTS],
}

/// Visit order over one tenant's datasets: fresh a, fresh b, again a,
/// fresh c, fresh d, again c, … — every revisit finds its dataset cached.
fn visit_order(datasets: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(datasets + datasets / 2);
    for pair in (0..datasets).collect::<Vec<_>>().chunks(2) {
        order.extend_from_slice(pair);
        if pair.len() == 2 {
            order.push(pair[0]);
        }
    }
    order
}

impl Workload for Serve {
    const NAME: &'static str = "serve";

    fn setup(seed: u64, quick: bool) -> Self {
        // 20 datasets a tenant, 30 sessions: 120 pooled samples a pass for
        // the p90.
        let per_tenant = scaled(20, quick, 2);
        let mut corpora = Vec::new();
        let mut jobs: [Vec<usize>; CLIENTS] = Default::default();
        for (t, (tenant, _)) in adapter::TENANTS.iter().enumerate() {
            let base = corpora.len();
            for d in 0..per_tenant {
                // A seed of its own per dataset: no two tenants ever share a
                // prompt, so cache hits come from revisits only and every
                // count repeats exactly whatever the thread interleaving.
                let docs = adapter::gen_docs(
                    PAPERS_PER_SESSION,
                    seed.wrapping_mul(1_000_003).wrapping_add((base + d) as u64),
                );
                let name = format!("{tenant}-d{d}");
                corpora.push(Corpus {
                    tenant,
                    source: adapter::memory_source(&name, &docs),
                    name,
                });
            }
            // A tenant's sessions all go to one client, in order, so its
            // ledger and quota see a deterministic sequence.
            jobs[t % CLIENTS].extend(visit_order(per_tenant).iter().map(|d| base + d));
        }
        // Interleave the two tenants a client serves.
        for list in &mut jobs {
            let half = list.len() / 2;
            let (a, b) = list.split_at(half);
            *list = a.iter().zip(b).flat_map(|(x, y)| [*x, *y]).collect();
        }
        Serve { corpora, jobs }
    }

    fn pass(&mut self) -> Pass {
        let host = adapter::serve_host(QUOTA_REQUESTS);
        for c in &self.corpora {
            adapter::register(&adapter::tenant_ctx(&host, c.tenant), c.source.clone());
        }

        let client = |jobs: &[usize]| {
            jobs.iter()
                .map(|&j| {
                    let c = &self.corpora[j];
                    let t = Instant::now();
                    let end = adapter::run_session(&host, adapter::session_job(c.tenant, &c.name));
                    if matches!(end, SessionEnd::Truncated) {
                        adapter::reset_tenant_ledger(&host, c.tenant);
                    }
                    (c.tenant, end, t.elapsed().as_secs_f64() * 1000.0)
                })
                .collect::<Vec<_>>()
        };
        let (per_client, cell) = timed(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .jobs
                    .iter()
                    .map(|jobs| s.spawn(|| client(jobs)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread does not panic"))
                    .collect::<Vec<_>>()
            })
        });
        let sessions: Vec<_> = per_client.into_iter().flatten().collect();

        let samples_ms: Vec<f64> = sessions.iter().map(|s| s.2).collect();
        let n = sessions.len() as f64;
        let records = n * PAPERS_PER_SESSION as f64;
        let tenants: Vec<_> = adapter::TENANTS
            .iter()
            .map(|(id, _)| adapter::tenant_ctx(&host, id))
            .collect();
        let truncated = sessions
            .iter()
            .filter(|s| matches!(s.1, SessionEnd::Truncated))
            .count();
        let mut pass = Pass {
            wall_s: cell.secs,
            rate_per_s: n / cell.secs,
            layer: vec![
                (
                    "llm.calls",
                    tenants
                        .iter()
                        .map(|c| adapter::counter(c, "llm.completions"))
                        .sum::<u64>() as f64,
                ),
                (
                    "llm.retries",
                    tenants
                        .iter()
                        .map(|c| adapter::counter(c, "llm.errors"))
                        .sum::<u64>() as f64,
                ),
                ("llm.cache.hit_ratio", adapter::cache_hit_ratio(&tenants[0])),
                (
                    "obs.spans",
                    tenants.iter().map(adapter::span_count).sum::<usize>() as f64,
                ),
                (
                    "serve.scheduler_granted",
                    adapter::scheduler_granted(&host) as f64,
                ),
                ("serve.shed", adapter::admission_shed(&host) as f64),
                ("serve.truncated", truncated as f64),
                ("exec.mat.allocs_per_rec", cell.allocs as f64 / records),
                (
                    "exec.mat.alloc_bytes_per_rec",
                    cell.alloc_bytes as f64 / records,
                ),
            ],
            ..Default::default()
        };
        pass.set_waits(&samples_ms);
        // Every session completes, or is a flagged truncation on the one
        // tenant that has a budget; a shed or failed session is a failure.
        for (tenant, end, _) in &sessions {
            let ok = match end {
                SessionEnd::Completed => true,
                SessionEnd::Truncated => *tenant == adapter::QUOTA_TENANT,
                SessionEnd::Shed | SessionEnd::Failed => false,
            };
            pass.check(ok, 1, || {
                format!("serve: a session of {tenant} was shed, failed or wrongly truncated")
            });
        }
        pass
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("clients", CLIENTS),
            ("tenants", adapter::TENANTS.len()),
            ("sessions_per_pass", self.jobs.iter().map(Vec::len).sum()),
            ("papers_per_session", PAPERS_PER_SESSION),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_second_dataset_is_visited_again_after_its_fresh_visit() {
        assert_eq!(visit_order(4), vec![0, 1, 0, 2, 3, 2]);
        assert_eq!(visit_order(3), vec![0, 1, 0, 2]);
        let order = visit_order(20);
        assert_eq!(order.len(), 30);
        for d in 0..20 {
            let visits = order.iter().filter(|&&x| x == d).count();
            assert_eq!(visits, if d % 2 == 0 { 2 } else { 1 });
        }
    }
}
