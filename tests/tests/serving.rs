//! Multi-tenant serving: differential isolation, quota enforcement,
//! breaker isolation, shared-cache audit, and overload shedding.
//!
//! The load-bearing property is *isolation*: per-tenant outputs and
//! ledgers under N-tenant concurrent serving must match each tenant's
//! solo run — token and request counts byte-identical, cost within one
//! f64 ulp-accumulation tolerance (concurrent sessions of one tenant sum
//! the same per-call costs in a different order). A shared response cache
//! may only ever *reduce* a tenant's cost, never shift spend between
//! tenants; one tenant's fault storm must trip only its own breakers; and
//! under overload the host sheds with structured errors instead of
//! hanging or degrading everyone.

mod common;

use common::multiset;
use pz_core::dataset::Dataset;
use pz_core::exec::ExecutionConfig;
use pz_core::prelude::*;
use pz_datagen::traffic::{self, TrafficConfig};
use pz_llm::{BreakerState, FaultPlan, Quota};
use pz_serve::{AdmissionConfig, ServeConfig, ServeHost, SessionJob, TenantSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Register a session-private corpus. Every document's content is salted
/// with `salt`: template-generated docs can collide byte-for-byte across
/// seeds, and a collision turns shared-cache hits into an interleaving
/// lottery — salting makes prompt bytes unique per salt, so per-tenant
/// call counts are deterministic. Tests that *want* cross-tenant dedup
/// pass the same salt for both tenants.
fn register_salted(ctx: &PzContext, dataset: &str, salt: &str, seed: u64, n_docs: usize) {
    let (docs, _) = pz_datagen::science::generate(pz_datagen::science::ScienceConfig {
        n_papers: n_docs,
        seed,
        ..Default::default()
    });
    let items: Vec<(String, String)> = docs
        .into_iter()
        .map(|d| (d.filename, format!("{}\n[workspace {salt}]", d.content)))
        .collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        dataset,
        Schema::pdf_file(),
        items,
    )));
}

/// The common case: salt = the dataset name (unique per session).
fn register_corpus(ctx: &PzContext, dataset: &str, seed: u64, n_docs: usize) {
    register_salted(ctx, dataset, dataset, seed, n_docs);
}

fn session_plan(dataset: &str) -> LogicalPlan {
    Dataset::source(dataset)
        .filter("the paper is about colorectal cancer research")
        .build()
        .unwrap()
}

/// Sim seed for a tenant: stable function of its id so solo and concurrent
/// hosts agree.
fn tenant_seed(id: &str) -> u64 {
    1000 + id.bytes().map(u64::from).sum::<u64>()
}

/// Provision `host` with the given slice of a traffic plan and build its
/// session jobs. Deadlines are only attached when `use_deadlines` — the
/// parity tests keep them off because concurrent neighbors advance the
/// shared clock, which would make deadline hits themselves load-dependent.
fn provision(
    host: &mut ServeHost,
    tenants: &[traffic::TenantTraffic],
    use_deadlines: bool,
) -> Vec<SessionJob> {
    let mut jobs = Vec::new();
    for t in tenants {
        host.add_tenant(
            TenantSpec::new(&t.id)
                .with_weight(t.weight)
                .with_seed(tenant_seed(&t.id)),
        );
        let ctx = host.session_ctx(&t.id).unwrap();
        for s in &t.sessions {
            register_corpus(&ctx, &s.session, s.corpus_seed, s.n_docs);
            let mut job = SessionJob::new(&t.id, &s.session, session_plan(&s.session));
            if use_deadlines {
                if let Some(d) = s.deadline_secs {
                    job = job.with_config(ExecutionConfig::sequential().with_deadline(d));
                }
            }
            if !t.interactive {
                job = job.batch();
            }
            jobs.push(job);
        }
    }
    jobs
}

/// Admission roomy enough that nothing queues or sheds.
fn open_admission(slots: usize) -> ServeConfig {
    ServeConfig {
        admission: AdmissionConfig {
            max_concurrent_runs: slots,
            max_queued: slots * 4,
            expected_run_secs: 30.0,
        },
        shared_cache: true,
    }
}

/// Per-tenant ledger fingerprint with integer fields exact.
fn ledger_key(ctx: &PzContext) -> (usize, usize, f64) {
    (
        ctx.ledger.total_requests(),
        ctx.ledger.total_usage().total_tokens(),
        ctx.ledger.total_cost_usd(),
    )
}

/// Requests and tokens must match exactly; cost is the same multiset of
/// per-call f64s summed in session-interleaving order, so it is compared
/// to one accumulation ulp.
fn assert_ledger_parity(got: (usize, usize, f64), want: (usize, usize, f64), who: &str) {
    assert_eq!(got.0, want.0, "{who} request count shifted");
    assert_eq!(got.1, want.1, "{who} token count shifted");
    assert!(
        (got.2 - want.2).abs() < 1e-9,
        "{who} cost shifted: {} vs {}",
        got.2,
        want.2
    );
}

/// Per-session output multisets from a serve report.
fn outputs_by_session(report: &pz_serve::ServeReport) -> BTreeMap<String, Vec<String>> {
    report
        .outcomes
        .iter()
        .map(|o| {
            let recs = &o
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("session {} failed: {e}", o.session))
                .records;
            (o.session.clone(), multiset(recs))
        })
        .collect()
}

/// The tentpole differential test: N tenants served concurrently produce,
/// per tenant, the same outputs and the same bill as each tenant served
/// alone. Completion of the serve() calls doubles as the no-hang check.
#[test]
fn concurrent_serving_matches_solo_runs_per_tenant() {
    let plan = traffic::generate(TrafficConfig {
        tenants: 3,
        sessions_per_tenant: 2,
        interactive_fraction: 0.4,
        docs_per_session: 4,
        ..Default::default()
    });
    let n_jobs = plan.total_sessions();

    // Concurrent: all tenants on one host.
    let mut host = ServeHost::new(open_admission(n_jobs));
    let jobs = provision(&mut host, &plan.tenants, false);
    let report = host.serve(jobs);
    assert_eq!(report.metrics.sessions_completed, n_jobs);
    assert_eq!(report.metrics.sessions_shed, 0);
    let concurrent_outputs = outputs_by_session(&report);

    // Solo: each tenant alone on a fresh host.
    for t in &plan.tenants {
        let mut solo = ServeHost::new(open_admission(t.sessions.len()));
        let jobs = provision(&mut solo, std::slice::from_ref(t), false);
        let solo_report = solo.serve(jobs);
        let solo_outputs = outputs_by_session(&solo_report);
        for (session, out) in &solo_outputs {
            assert_eq!(
                concurrent_outputs.get(session),
                Some(out),
                "session {session} output diverged under concurrency"
            );
        }
        let (solo_reqs, solo_toks, solo_cost) = ledger_key(&solo.tenant(&t.id).unwrap().ctx);
        let (con_reqs, con_toks, con_cost) = ledger_key(&host.tenant(&t.id).unwrap().ctx);
        assert_eq!(con_reqs, solo_reqs, "tenant {} request count shifted", t.id);
        assert_eq!(con_toks, solo_toks, "tenant {} token count shifted", t.id);
        // Same per-call costs, possibly summed in a different order by
        // concurrent sessions of this tenant.
        assert!(
            (con_cost - solo_cost).abs() < 1e-9,
            "tenant {} cost shifted: {con_cost} vs solo {solo_cost}",
            t.id
        );
    }
    // Scheduler arbitrated every provider call; fairness is perfect when
    // nothing is shed and workloads complete.
    assert!(report.scheduler.granted > 0);
    assert!(
        report.metrics.fairness_jain >= 0.8,
        "{}",
        report.metrics.fairness_jain
    );
}

/// Model substitution judges a run by its own evidence only. Concurrent
/// neighbours advance the shared clock during every step of a session,
/// but a healthy session loses no time to failures, so nothing is ever
/// replanned and concurrent serving still matches solo runs — here with
/// two LLM operators per session, each stepping through several batches.
#[test]
fn concurrent_multi_stage_sessions_never_replan_and_match_solo() {
    let plan = traffic::generate(TrafficConfig {
        tenants: 4,
        sessions_per_tenant: 3,
        interactive_fraction: 0.4,
        docs_per_session: 16,
        ..Default::default()
    });
    let n_jobs = plan.total_sessions();
    let two_stage = |dataset: &str| {
        Dataset::source(dataset)
            .filter("the paper is about colorectal cancer research")
            .convert(
                common::clinical_schema(),
                Cardinality::OneToMany,
                "extract the datasets",
            )
            .build()
            .unwrap()
    };
    let config = ExecutionConfig::sequential();
    let serve = |tenants: &[traffic::TenantTraffic]| {
        let mut host = ServeHost::new(open_admission(n_jobs));
        let mut jobs = Vec::new();
        for t in tenants {
            host.add_tenant(TenantSpec::new(&t.id).with_seed(tenant_seed(&t.id)));
            let ctx = host.session_ctx(&t.id).unwrap();
            for s in &t.sessions {
                register_corpus(&ctx, &s.session, s.corpus_seed, s.n_docs);
                let job = SessionJob::new(&t.id, &s.session, two_stage(&s.session));
                jobs.push(job.with_config(config));
            }
        }
        let report = host.serve(jobs);
        for t in tenants {
            let ctx = &host.tenant(&t.id).unwrap().ctx;
            assert_eq!(ctx.tracer.counter("exec.replan"), 0, "{}", t.id);
        }
        (host, outputs_by_session(&report))
    };
    let (host, concurrent) = serve(&plan.tenants);
    for t in &plan.tenants {
        let (solo, outputs) = serve(std::slice::from_ref(t));
        assert!(outputs
            .iter()
            .all(|(s, out)| concurrent.get(s) == Some(out)));
        assert_ledger_parity(
            ledger_key(&host.tenant(&t.id).unwrap().ctx),
            ledger_key(&solo.tenant(&t.id).unwrap().ctx),
            &t.id,
        );
    }
}

/// Shared-cache audit, serving edition: two tenants running the
/// *byte-identical* workload with the same sim seed. Run sequentially, the
/// second tenant's calls all hit the first tenant's cached responses: its
/// bill is zero, the first tenant's bill is exactly its solo bill — the
/// hit reduced cost, it did not shift a cent between ledgers.
#[test]
fn shared_cache_dedups_identical_workloads_without_cost_shift() {
    let corpus_seed = 7777u64;
    let build = |host: &mut ServeHost, id: &str| -> SessionJob {
        host.add_tenant(TenantSpec::new(id).with_seed(4242));
        let ctx = host.session_ctx(id).unwrap();
        let ds = format!("{id}-docs");
        // Same salt + seed for every tenant: the workloads must be
        // byte-identical for the shared cache to dedup them.
        register_salted(&ctx, &ds, "shared-workload", corpus_seed, 5);
        SessionJob::new(id, format!("{id}/s0"), session_plan(&ds))
    };

    // Solo baseline for the workload.
    let mut solo = ServeHost::new(open_admission(2));
    let job = build(&mut solo, "solo");
    let out = solo.run_session(job);
    let solo_outputs = multiset(&out.result.as_ref().unwrap().records);
    let (solo_reqs, _, solo_cost) = ledger_key(&solo.tenant("solo").unwrap().ctx);
    assert!(solo_cost > 0.0);

    // Two tenants, shared cache, sequential so the dedup is deterministic.
    let mut host = ServeHost::new(open_admission(2));
    let job_a = build(&mut host, "alpha");
    let job_b = build(&mut host, "beta");
    let out_a = host.run_session(job_a);
    let out_b = host.run_session(job_b);
    assert_eq!(
        multiset(&out_a.result.as_ref().unwrap().records),
        solo_outputs
    );
    assert_eq!(
        multiset(&out_b.result.as_ref().unwrap().records),
        solo_outputs
    );
    let (a_reqs, _, a_cost) = ledger_key(&host.tenant("alpha").unwrap().ctx);
    let (b_reqs, _, b_cost) = ledger_key(&host.tenant("beta").unwrap().ctx);
    assert_eq!(a_reqs, solo_reqs);
    assert_eq!(a_cost, solo_cost, "first tenant pays exactly its solo bill");
    assert_eq!(b_reqs, 0, "second tenant's calls all hit the shared cache");
    assert_eq!(b_cost, 0.0, "cache hits are free, not re-billed");
    // Reduce-only also under true concurrency: neither tenant can ever
    // exceed its solo bill (a racing double-miss just re-pays the solo
    // price for that call).
    let mut chost = ServeHost::new(open_admission(2));
    let ja = build(&mut chost, "alpha");
    let jb = build(&mut chost, "beta");
    let report = chost.serve(vec![ja, jb]);
    assert_eq!(report.metrics.sessions_completed, 2);
    for id in ["alpha", "beta"] {
        let (_, _, cost) = ledger_key(&chost.tenant(id).unwrap().ctx);
        assert!(
            cost <= solo_cost + 1e-9,
            "tenant {id} paid {cost} > solo {solo_cost}"
        );
    }
}

/// Quota enforcement: an over-budget run is truncated with a flagged
/// partial result — billed exactly what ran, never past the cap — and the
/// tenant's next run is refused almost for free.
#[test]
fn quota_exhaustion_truncates_with_flagged_partial_result() {
    // Measure the unquoted bill first.
    let mut probe = ServeHost::new(open_admission(1));
    probe.add_tenant(TenantSpec::new("probe").with_seed(9));
    let ctx = probe.session_ctx("probe").unwrap();
    register_corpus(&ctx, "docs", 321, 8);
    let full = probe.run_session(SessionJob::new("probe", "s0", session_plan("docs")));
    let full_outcome = full.result.unwrap();
    assert!(!full_outcome.stats.quota_exhausted);
    let full_cost = probe.tenant("probe").unwrap().ctx.ledger.total_cost_usd();
    let cap = full_cost / 2.0;

    // Same workload under a budget of half the bill.
    let mut host = ServeHost::new(open_admission(1));
    host.add_tenant(
        TenantSpec::new("capped")
            .with_seed(9)
            .with_quota(Quota::cost_limit(cap)),
    );
    let ctx = host.session_ctx("capped").unwrap();
    register_corpus(&ctx, "docs", 321, 8);
    let out = host.run_session(SessionJob::new("capped", "s0", session_plan("docs")));
    let outcome = out.result.expect("quota truncation is not a failure");
    assert!(
        outcome.stats.quota_exhausted,
        "partial result must be flagged"
    );
    let billed = host.tenant("capped").unwrap().ctx.ledger.total_cost_usd();
    assert!(
        billed <= cap + 1e-9,
        "billed {billed} past the {cap} budget"
    );
    assert!(billed > 0.0, "calls before the refusal are real and billed");
    // Truncated output: the input of the aborted operator (the scanned
    // docs), not a silent empty success.
    assert_eq!(outcome.records.len(), 8);

    // A follow-up run is refused at its first model call: flagged, and
    // the bill does not move.
    let out2 = host.run_session(SessionJob::new("capped", "s1", session_plan("docs")));
    let outcome2 = out2.result.unwrap();
    assert!(outcome2.stats.quota_exhausted);
    let billed2 = host.tenant("capped").unwrap().ctx.ledger.total_cost_usd();
    assert_eq!(billed2, billed, "a refused call must never bill");
}

/// Per-tenant breaker isolation, deterministic edition: tenant A's models
/// are in a scripted full-window outage, so its breakers trip; tenant B
/// runs the identical pipeline shape clean, at exact cost parity with its
/// solo run.
#[test]
fn tenant_outage_trips_only_its_own_breakers() {
    let outage =
        FaultPlan::parse("gpt-4o:outage@0..1000000;gpt-4o-mini:outage@0..1000000", 5).unwrap();
    let build = |host: &mut ServeHost, id: &str, plan: FaultPlan| -> SessionJob {
        host.add_tenant(
            TenantSpec::new(id)
                .with_seed(tenant_seed(id))
                .with_fault_plan(plan),
        );
        let ctx = host.session_ctx(id).unwrap();
        let ds = format!("{id}-docs");
        register_corpus(&ctx, &ds, 2024, 5);
        SessionJob::new(id, format!("{id}/s0"), session_plan(&ds))
    };

    // Solo baseline for B.
    let mut solo = ServeHost::new(open_admission(2));
    let sb = build(&mut solo, "b", FaultPlan::default());
    let solo_out = solo.run_session(sb);
    let solo_outputs = multiset(&solo_out.result.as_ref().unwrap().records);
    let solo_key = ledger_key(&solo.tenant("b").unwrap().ctx);

    // Concurrent: A in outage, B clean.
    let mut host = ServeHost::new(open_admission(2));
    let ja = build(&mut host, "a", outage);
    let jb = build(&mut host, "b", FaultPlan::default());
    let report = host.serve(vec![ja, jb]);
    assert_eq!(
        report.metrics.sessions_completed, 2,
        "failover keeps A alive"
    );

    // A's breakers tripped...
    let a_health = host.tenant("a").unwrap().ctx.health.snapshot();
    let a_trips: u64 = a_health.iter().map(|s| s.trips).sum();
    assert!(
        a_trips >= 1,
        "outage must trip tenant A's breaker: {a_health:?}"
    );
    // ...and A's run came back degraded (failed over off the dead models).
    let a_outcome = report
        .outcomes
        .iter()
        .find(|o| o.tenant == "a")
        .unwrap()
        .result
        .as_ref()
        .unwrap();
    assert!(!a_outcome.stats.degraded.is_empty());

    // B's breakers never moved, and B's run matches solo exactly.
    let b_health = host.tenant("b").unwrap().ctx.health.snapshot();
    for s in &b_health {
        assert_eq!(s.trips, 0, "tenant B breaker moved: {s:?}");
        assert_eq!(s.state, BreakerState::Closed);
    }
    let b_outcome = report
        .outcomes
        .iter()
        .find(|o| o.tenant == "b")
        .unwrap()
        .result
        .as_ref()
        .unwrap();
    assert_eq!(multiset(&b_outcome.records), solo_outputs);
    assert_ledger_parity(
        ledger_key(&host.tenant("b").unwrap().ctx),
        solo_key,
        "tenant B",
    );
}

/// Same isolation property under the E18 brownout plan (stochastic
/// timeouts, p=0.35, 25s stalls): whatever tenant A's retries and
/// failovers do, tenant B stays at byte-exact parity with its solo run.
#[test]
fn e18_brownout_storm_never_leaks_into_neighbor() {
    let brownout = FaultPlan::parse("gpt-4o:timeout@0..1000000000:p=0.35:stall=25", 11).unwrap();
    let build = |host: &mut ServeHost, id: &str, plan: FaultPlan| -> Vec<SessionJob> {
        host.add_tenant(
            TenantSpec::new(id)
                .with_seed(tenant_seed(id))
                .with_fault_plan(plan),
        );
        let ctx = host.session_ctx(id).unwrap();
        (0..2)
            .map(|i| {
                let ds = format!("{id}-docs-{i}");
                // Salt the corpus by tenant too: identical seeds would make
                // A's and B's documents byte-identical, and the shared
                // cache would (legitimately) dedup across tenants — this
                // test wants B's solo bill reproduced exactly.
                register_corpus(&ctx, &ds, 5000 + i + tenant_seed(id), 4);
                SessionJob::new(id, format!("{id}/s{i}"), session_plan(&ds))
            })
            .collect()
    };

    let mut solo = ServeHost::new(open_admission(2));
    let jobs = build(&mut solo, "b", FaultPlan::default());
    let solo_report = solo.serve(jobs);
    let solo_outputs = outputs_by_session(&solo_report);
    let solo_key = ledger_key(&solo.tenant("b").unwrap().ctx);

    let mut host = ServeHost::new(open_admission(4));
    let mut jobs = build(&mut host, "a", brownout);
    jobs.extend(build(&mut host, "b", FaultPlan::default()));
    let report = host.serve(jobs);

    // Every session finished (retry/failover absorb the brownout; nothing
    // hangs), and B is byte-exact against solo.
    assert_eq!(report.metrics.sessions_completed, 4);
    let outputs = outputs_by_session(&report);
    for (session, out) in &solo_outputs {
        assert_eq!(
            outputs.get(session),
            Some(out),
            "B session {session} diverged"
        );
    }
    assert_ledger_parity(
        ledger_key(&host.tenant("b").unwrap().ctx),
        solo_key,
        "tenant B",
    );
    for s in &host.tenant("b").unwrap().ctx.health.snapshot() {
        assert_eq!(s.trips, 0, "B breaker tripped by A's storm: {s:?}");
    }
}

/// Overload: 2× more submissions than the host will hold. The host sheds
/// the excess with structured `Overloaded` errors (bounded queue), every
/// thread returns (no hangs), admitted sessions complete, and the shed
/// errors carry a usable retry-after.
#[test]
fn overload_sheds_with_structured_errors_and_bounded_latency() {
    let mut host = ServeHost::new(ServeConfig {
        admission: AdmissionConfig {
            max_concurrent_runs: 2,
            max_queued: 2,
            expected_run_secs: 30.0,
        },
        shared_cache: true,
    });
    host.add_tenant(TenantSpec::new("t0").with_seed(1));
    host.add_tenant(TenantSpec::new("t1").with_seed(2));
    let mut jobs = Vec::new();
    for (i, id) in ["t0", "t1"].iter().enumerate() {
        let ctx = host.session_ctx(id).unwrap();
        for s in 0..4 {
            let ds = format!("{id}-d{s}");
            register_corpus(&ctx, &ds, (i as u64 + 1) * 100 + s as u64, 3);
            jobs.push(SessionJob::new(
                *id,
                format!("{id}/s{s}"),
                session_plan(&ds),
            ));
        }
    }
    // 8 sessions into 2 slots + 2 queue spots: at least 2 must shed (all 8
    // submit together at the barrier; grants free slots as runs finish, so
    // more than 4 may ultimately complete — but the queue bound guarantees
    // sheds at the initial burst).
    let report = host.serve(jobs);
    assert_eq!(report.outcomes.len(), 8, "every submission returned");
    assert!(
        report.metrics.sessions_shed >= 1,
        "2x overload must shed: {:?}",
        report.admission
    );
    assert!(report.metrics.shed_rate > 0.0);
    for o in &report.outcomes {
        match &o.result {
            Ok(outcome) => assert!(!outcome.stats.quota_exhausted),
            Err(PzError::Overloaded {
                reason,
                retry_after_secs,
            }) => {
                assert!(!reason.is_empty());
                assert!(*retry_after_secs > 0.0);
            }
            Err(e) => panic!("non-structured failure under overload: {e}"),
        }
    }
    // Admitted sessions saw bounded virtual latency (queue wait included):
    // generous bound, but a hang or unbounded queue would blow it.
    assert!(
        report.metrics.p99_latency_secs < 100_000.0,
        "p99 {}",
        report.metrics.p99_latency_secs
    );
    assert!(report.metrics.sessions_completed + report.metrics.sessions_shed == 8);
}

/// Deadline-aware admission: when the predicted queue wait already blows a
/// session's deadline, it is refused immediately with `Overloaded` — not
/// admitted to fail slowly.
#[test]
fn deadline_aware_admission_refuses_unmeetable_sessions() {
    use pz_core::context::AdmissionGate;
    let mut host = ServeHost::new(ServeConfig {
        admission: AdmissionConfig {
            max_concurrent_runs: 1,
            max_queued: 4,
            expected_run_secs: 60.0,
        },
        shared_cache: true,
    });
    host.add_tenant(TenantSpec::new("t").with_seed(3));
    let ctx = host.session_ctx("t").unwrap();
    register_corpus(&ctx, "docs", 42, 3);

    // Hold the only run slot directly, then submit a session whose 5s
    // deadline cannot survive the predicted 60s queue wait.
    let ticket = host.admission().begin(0.0, None).unwrap();
    let out = host.run_session(
        SessionJob::new("t", "tight", session_plan("docs"))
            .with_config(ExecutionConfig::sequential().with_deadline(5.0)),
    );
    assert!(
        out.shed(),
        "expected deadline shed, got {:?}",
        out.result.as_ref().map(|_| ())
    );
    assert!(out.result.unwrap_err().to_string().contains("deadline"));
    assert_eq!(host.admission().stats().shed_deadline, 1);
    host.admission().end(ticket, 0.0);

    // With the slot free the same session is admitted and runs.
    let out = host.run_session(
        SessionJob::new("t", "retry", session_plan("docs"))
            .with_config(ExecutionConfig::sequential().with_deadline(10_000.0)),
    );
    assert!(out.result.is_ok());
}

/// A session under a dollar cap on a plan whose model stages step through
/// the corpus is cut at the refused operator: every stage is a barrier
/// under a budget, so the result is flagged partial output, never an
/// error, and nothing is billed past the cap.
#[test]
fn streaming_quota_refusal_is_structured_and_never_overbills() {
    let mut probe = ServeHost::new(open_admission(1));
    probe.add_tenant(TenantSpec::new("p").with_seed(6));
    let ctx = probe.session_ctx("p").unwrap();
    register_corpus(&ctx, "docs", 64, 6);
    probe
        .run_session(SessionJob::new("p", "s", session_plan("docs")))
        .result
        .unwrap();
    let full_cost = probe.tenant("p").unwrap().ctx.ledger.total_cost_usd();

    let cap = full_cost / 2.0;
    let mut host = ServeHost::new(open_admission(1));
    host.add_tenant(
        TenantSpec::new("c")
            .with_seed(6)
            .with_quota(Quota::cost_limit(cap)),
    );
    let ctx = host.session_ctx("c").unwrap();
    register_corpus(&ctx, "docs", 64, 6);
    let out = host.run_session(SessionJob::new("c", "s", session_plan("docs")));
    let outcome = out.result.expect("a refusal truncates the run");
    assert!(outcome.stats.quota_exhausted);
    assert!(outcome.stats.render_table().contains("QUOTA EXHAUSTED"));
    let billed = host.tenant("c").unwrap().ctx.ledger.total_cost_usd();
    assert!(billed <= cap + 1e-9, "billed {billed} past cap {cap}");
}

/// A job naming a tenant the host never provisioned fails with a
/// structured error naming the tenant, and is not a shed.
#[test]
fn unknown_tenant_session_is_an_error_not_a_panic() {
    let host = ServeHost::new(open_admission(1));
    let out = host.run_session(SessionJob::new("ghost", "s", session_plan("docs")));
    let err = out.result.expect_err("no such tenant");
    assert!(
        !err.is_overloaded(),
        "an unknown tenant is not a shed: {err}"
    );
    assert!(err.to_string().contains("ghost"), "unexpected error: {err}");
}

/// One bad job in a batch fails alone: the admission gate is sized by the
/// jobs that will run, so the known tenants' sessions are not held for it.
#[test]
fn serve_batch_with_an_unknown_tenant_completes_the_rest() {
    let mut host = ServeHost::new(open_admission(4));
    host.add_tenant(TenantSpec::new("t").with_seed(tenant_seed("t")));
    let ctx = host.session_ctx("t").unwrap();
    let mut jobs = Vec::new();
    for s in ["a", "b", "c"] {
        register_corpus(&ctx, s, 70, 3);
        jobs.push(SessionJob::new("t", s, session_plan(s)));
    }
    jobs.insert(1, SessionJob::new("ghost", "x", session_plan("a")));
    let report = host.serve(jobs);
    assert_eq!(report.metrics.sessions_submitted, 4);
    assert_eq!(report.metrics.sessions_completed, 3);
    assert_eq!(report.metrics.sessions_shed, 0);
    let failed: Vec<&str> = report
        .outcomes
        .iter()
        .filter(|o| o.result.is_err())
        .map(|o| o.tenant.as_str())
        .collect();
    assert_eq!(failed, ["ghost"]);
}

/// Sessions of one tenant share its ledger, clock and cache handle, but
/// each run's evidence is its own: under a brownout, a cached re-run on
/// the browning-out model and one on a healthy model, served together,
/// make exactly the replans each makes alone. Neither sees the other's
/// cache hits.
#[test]
fn cached_sessions_of_one_tenant_replan_as_they_do_alone() {
    let brownout = FaultPlan::parse("gpt-4o:timeout@0..1000000000:p=0.35:stall=60", 11).unwrap();
    let mut host = ServeHost::new(open_admission(2));
    host.add_tenant(
        TenantSpec::new("t")
            .with_seed(tenant_seed("t"))
            .with_fault_plan(brownout),
    );
    let ctx = host.session_ctx("t").unwrap();
    for (seed, ds) in [(7000, "t-slow"), (7001, "t-fast")] {
        register_corpus(&ctx, ds, seed, 400);
    }
    // A filter on gpt-4o, and a classifier on the cheapest chat model.
    let classify = Dataset::source("t-fast")
        .classify(&["oncology", "other"], "area")
        .build()
        .unwrap();
    let jobs = || {
        [
            SessionJob::new("t", "t-slow", session_plan("t-slow")),
            SessionJob::new("t", "t-fast", classify.clone()).with_policy(Policy::MinCost),
        ]
        .map(|job| job.with_config(ExecutionConfig::sequential()))
    };
    let swaps = |o: &pz_serve::SessionOutcome| {
        let stats = &o.result.as_ref().expect("session completes").stats;
        (stats.adaptive.iter())
            .map(|r| (r.operator.clone(), r.from_model.clone(), r.to_model.clone()))
            .collect::<Vec<_>>()
    };
    // Cold runs fill the cache; a re-run alone is the reference.
    for job in jobs() {
        host.run_session(job);
    }
    let alone: Vec<_> = jobs()
        .into_iter()
        .map(|job| swaps(&host.run_session(job)))
        .collect();
    assert!(!alone[0].is_empty(), "the brownout moved nothing");
    assert!(alone[1].is_empty(), "the healthy model replanned alone");

    for _ in 0..4 {
        let report = host.serve(jobs().into());
        for o in &report.outcomes {
            let i = usize::from(o.session == "t-fast");
            assert_eq!(swaps(o), alone[i], "{} decided otherwise", o.session);
        }
    }
}
