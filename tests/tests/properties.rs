//! Cross-crate property tests: invariants of the relational operators and
//! lossless plan serialization.

mod common;

use proptest::prelude::*;
use pz_core::ops::relational::{distinct, limit, project, sort};
use pz_core::prelude::*;

fn rec(id: u64, x: i64, s: &str) -> DataRecord {
    DataRecord::new(id).with_field("x", x).with_field("s", s)
}

fn arb_records() -> impl Strategy<Value = Vec<DataRecord>> {
    proptest::collection::vec((0i64..50, "[a-d]{0,3}"), 0..25).prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (x, s))| rec(i as u64, x, &s))
            .collect()
    })
}

proptest! {
    #[test]
    fn sort_is_a_permutation(input in arb_records(), desc in any::<bool>()) {
        let sorted = sort(input.clone(), "x", desc);
        prop_assert_eq!(sorted.len(), input.len());
        let mut in_ids: Vec<u64> = input.iter().map(|r| r.id).collect();
        let mut out_ids: Vec<u64> = sorted.iter().map(|r| r.id).collect();
        in_ids.sort_unstable();
        out_ids.sort_unstable();
        prop_assert_eq!(in_ids, out_ids);
        // And it is ordered.
        let xs: Vec<i64> = sorted.iter().map(|r| r.get("x").unwrap().as_int().unwrap()).collect();
        for w in xs.windows(2) {
            if desc {
                prop_assert!(w[0] >= w[1]);
            } else {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn sort_is_idempotent(input in arb_records()) {
        let once = sort(input, "x", false);
        let twice = sort(once.clone(), "x", false);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn distinct_is_idempotent_and_shrinking(input in arb_records()) {
        let fields = vec!["x".to_string()];
        let once = distinct(input.clone(), &fields);
        prop_assert!(once.len() <= input.len());
        let twice = distinct(once.clone(), &fields);
        prop_assert_eq!(once.clone(), twice);
        // Keys are unique afterwards.
        let mut keys: Vec<i64> =
            once.iter().map(|r| r.get("x").unwrap().as_int().unwrap()).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), n);
    }

    #[test]
    fn limit_bounds_and_prefixes(input in arb_records(), n in 0usize..30) {
        let out = limit(input.clone(), n);
        prop_assert_eq!(out.len(), input.len().min(n));
        prop_assert_eq!(out.as_slice(), &input[..out.len()]);
    }

    #[test]
    fn project_only_keeps_requested(input in arb_records()) {
        let out = project(input, &["x".to_string()]);
        for r in &out {
            prop_assert!(r.get("x").is_some());
            prop_assert!(r.get("s").is_none());
        }
    }

    #[test]
    fn logical_plans_round_trip_serde(
        predicate in "[a-z ]{1,30}",
        n in 1usize..20,
        desc in any::<bool>(),
        k in 1usize..10,
    ) {
        let plan = Dataset::source("src")
            .filter(predicate)
            .retrieve("some query", k)
            .sort("x", desc)
            .limit(n)
            .join_eq("other", "a", "b")
            .distinct(&["x"])
            .build()
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: LogicalPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, plan);
    }

    #[test]
    fn physical_plans_round_trip_serde(n in 1usize..6) {
        use pz_llm::protocol::Effort;
        let mut ops = vec![PhysicalOp::Scan { dataset: "d".into() }];
        for i in 0..n {
            ops.push(PhysicalOp::LlmFilter {
                predicate: format!("pred {i}"),
                model: "gpt-4o".into(),
                effort: if i % 2 == 0 { Effort::Standard } else { Effort::High },
            });
        }
        let plan = PhysicalPlan { ops };
        let json = serde_json::to_string(&plan).unwrap();
        let back: PhysicalPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, plan);
    }
}

// ---------------------------------------------------------------------------
// Differential testing: the executor's drive vs each operator applied once
// to its whole input.
//
// For randomized corpora and randomized operator chains, the drive must
// produce the reference's records (ids included) and, absent an early-exit
// Limit, charge the same calls and dollars to the ledger.
// ---------------------------------------------------------------------------

mod differential {
    use super::*;
    use crate::common::{
        arb_corpus, arb_steps, build_plan, fresh_ctx, has_early_exit, whole_input_reference,
    };
    use pz_core::exec::execute_plan;

    proptest! {
        #[test]
        fn streaming_equals_materializing_records_and_cost(
            corpus in arb_corpus(),
            steps in arb_steps(),
        ) {
            let plan = build_plan("diff", &steps);
            let ctx_ref = fresh_ctx("diff", &corpus);
            let reference = whole_input_reference(&ctx_ref, &plan);
            let ctx = fresh_ctx("diff", &corpus);
            let (records, stats) =
                execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();

            prop_assert_eq!(&records, &reference);
            if has_early_exit(&steps) {
                // A satisfied Limit may only ever *reduce* the drive's work.
                prop_assert!(ctx.ledger.total_requests() <= ctx_ref.ledger.total_requests());
            } else {
                prop_assert!(
                    (ctx.ledger.total_cost_usd() - ctx_ref.ledger.total_cost_usd()).abs() < 1e-9,
                    "reference ${} vs drive ${}",
                    ctx_ref.ledger.total_cost_usd(),
                    ctx.ledger.total_cost_usd()
                );
                prop_assert_eq!(ctx.ledger.total_requests(), ctx_ref.ledger.total_requests());
            }
            // The sequential figure is the stages' sum, and overlapping
            // them never makes the pipeline slower.
            let sum: f64 = stats.operators.iter().map(|o| o.time_secs).sum();
            prop_assert!((stats.total_time_secs - sum).abs() < 1e-9);
            prop_assert!(stats.pipelined_secs <= stats.total_time_secs + 1e-9);
        }

        /// Same seed, same bytes: for any plan and at any parallelism, two
        /// runs agree on the records (ids included), the serialized stats,
        /// the ledger, the clock and the trace.
        #[test]
        fn reruns_are_byte_identical(
            corpus in arb_corpus(),
            steps in arb_steps(),
            p_idx in 0usize..3,
        ) {
            let config = ExecutionConfig::sequential().with_parallelism([1usize, 2, 8][p_idx]);
            let plan = build_plan("diff", &steps);
            let run = || {
                let ctx = fresh_ctx("diff", &corpus);
                let (records, stats) = execute_plan(&ctx, &plan, config).unwrap();
                (
                    records,
                    serde_json::to_string(&stats).unwrap(),
                    ctx.ledger.total_requests(),
                    ctx.ledger.total_cost_usd(),
                    ctx.clock.now_secs(),
                    ctx.tracer.snapshot().to_jsonl(),
                )
            };
            prop_assert_eq!(run(), run());
        }

        /// Parallelism is an attribution-only change: for any plan and any
        /// degree, the run must agree with the serial run on the records
        /// and the ledger, both time figures may only shrink, and its
        /// per-operator stats must still reconcile exactly against the
        /// ledger.
        #[test]
        fn parallel_streaming_equals_serial_streaming(
            corpus in arb_corpus(),
            steps in arb_steps(),
            p_idx in 0usize..3,
        ) {
            let parallelism = [1usize, 2, 8][p_idx];
            let plan = build_plan("diff", &steps);

            let ctx_1 = fresh_ctx("diff", &corpus);
            let (rec_1, stats_1) =
                execute_plan(&ctx_1, &plan, ExecutionConfig::sequential()).unwrap();
            let ctx_p = fresh_ctx("diff", &corpus);
            let (rec_p, stats_p) = execute_plan(
                &ctx_p,
                &plan,
                ExecutionConfig::sequential().with_parallelism(parallelism),
            )
            .unwrap();

            prop_assert_eq!(rec_1, rec_p);
            prop_assert_eq!(ctx_1.ledger.total_cost_usd(), ctx_p.ledger.total_cost_usd());
            prop_assert_eq!(ctx_1.ledger.total_requests(), ctx_p.ledger.total_requests());
            // Workers divide attributed time; they never add any.
            prop_assert!(stats_p.total_time_secs <= stats_1.total_time_secs + 1e-9);
            prop_assert!(stats_p.pipelined_secs <= stats_1.pipelined_secs + 1e-9);
            // Every dollar and every call the ledger saw is attributed to
            // exactly one operator.
            let op_cost: f64 = stats_p.operators.iter().map(|o| o.cost_usd).sum();
            let op_calls: usize = stats_p.operators.iter().map(|o| o.llm_calls).sum();
            prop_assert!(
                (op_cost - ctx_p.ledger.total_cost_usd()).abs() < 1e-9,
                "op cost sum {} vs ledger {}",
                op_cost,
                ctx_p.ledger.total_cost_usd()
            );
            prop_assert_eq!(op_calls, ctx_p.ledger.total_requests());
        }
    }
}

#[test]
fn schemas_round_trip_serde() {
    let s = Schema::new(
        "ClinicalData",
        "doc",
        vec![
            FieldDef::text("name", "The name"),
            FieldDef::typed("price", FieldType::Int, "dollars").required(),
        ],
    )
    .unwrap();
    let json = serde_json::to_string(&s).unwrap();
    let back: Schema = serde_json::from_str(&json).unwrap();
    assert_eq!(back, s);
}
