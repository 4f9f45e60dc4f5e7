//! # pz-core — the Palimpzest reproduction
//!
//! A declarative system for building and automatically optimizing AI data
//! pipelines over unstructured data (paper §2.1). Users write *logical*
//! plans with the fluent [`dataset::Dataset`] builder; the
//! [`optimizer::Optimizer`] enumerates all physical implementations
//! (model × strategy × effort per semantic operator), estimates each plan's
//! dollar cost, runtime, and output quality, prunes the Pareto-dominated
//! ones, and picks the winner under a user [`optimizer::policy::Policy`];
//! the [`exec`] engine runs the plan and reports Figure-5-style statistics.
//!
//! ## The demo pipeline (Figure 6), end to end
//!
//! ```
//! use pz_core::prelude::*;
//! use std::sync::Arc;
//!
//! // Runtime context with the simulated LLM substrate.
//! let ctx = PzContext::simulated();
//!
//! // Register the 11-paper scientific-discovery corpus.
//! let (docs, _truth) = pz_datagen::science::demo_corpus();
//! let items = docs.into_iter().map(|d| (d.filename, d.content)).collect();
//! ctx.registry.register(Arc::new(MemorySource::new(
//!     "sigmod-demo", Schema::pdf_file(), items)));
//!
//! // Figure 6: schema + filter + convert.
//! let clinical = Schema::new(
//!     "ClinicalData",
//!     "A schema for extracting clinical data datasets from papers.",
//!     vec![
//!         FieldDef::text("name", "The name of the clinical data dataset"),
//!         FieldDef::text("description", "A short description of the content of the dataset"),
//!         FieldDef::text("url", "The public URL where the dataset can be accessed"),
//!     ],
//! ).unwrap();
//! let plan = Dataset::source("sigmod-demo")
//!     .filter("The papers are about colorectal cancer")
//!     .convert(clinical, Cardinality::OneToMany, "extract datasets")
//!     .build().unwrap();
//!
//! // records, execution_stats = Execute(output, policy=pz.MaxQuality())
//! let outcome = execute(&ctx, &plan, &Policy::MaxQuality, ExecutionConfig::sequential()).unwrap();
//! assert!(!outcome.records.is_empty());
//! assert!(outcome.stats.total_cost_usd > 0.0);
//! ```

pub mod context;
pub mod dataset;
pub mod datasource;
pub mod error;
pub mod exec;
pub mod field;
pub mod ops;
pub mod optimizer;
pub mod record;
pub mod schema;

use crate::exec::{ExecMode, ExecutionConfig, ExecutionStats};
use crate::ops::logical::LogicalPlan;
use crate::ops::physical::PhysicalPlan;
use crate::optimizer::cost::PlanEstimate;
use crate::optimizer::policy::Policy;
use crate::optimizer::{Optimizer, OptimizerReport};
use crate::record::DataRecord;

/// Everything `execute` produces: output records, runtime statistics, the
/// chosen physical plan, its pre-execution estimate, and the optimizer
/// report.
#[derive(Clone, Debug)]
pub struct ExecutionOutcome {
    pub records: Vec<DataRecord>,
    pub stats: ExecutionStats,
    pub chosen_plan: PhysicalPlan,
    pub estimate: PlanEstimate,
    pub report: OptimizerReport,
}

impl ExecutionOutcome {
    /// Estimate-vs-observed drift for this run: the optimizer's
    /// per-operator predictions zipped against the measured stats.
    /// `None` when the report kept no estimates or the shapes disagree.
    pub fn drift_report(&self) -> Option<optimizer::drift::DriftReport> {
        optimizer::drift::DriftReport::new(&self.report.op_estimates, &self.stats)
    }

    /// EXPLAIN-style report: the chosen physical plan, its pre-execution
    /// estimates, the optimizer's search statistics, and the measured
    /// per-operator table.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "physical plan : {}", self.chosen_plan.describe());
        let _ = writeln!(
            s,
            "estimate      : ${:.4}, {:.1}s, quality {:.2}, ~{:.0} records out",
            self.estimate.cost_usd,
            self.estimate.time_secs,
            self.estimate.quality,
            self.estimate.output_cardinality
        );
        let _ = writeln!(
            s,
            "search        : {} physical plans, {} considered, {} on the Pareto frontier{}{}",
            self.report.plan_space_size,
            self.report.plans_considered,
            self.report.pareto_size,
            if self.report.calibrated {
                ", sentinel-calibrated"
            } else {
                ""
            },
            if self.report.rewrites.changed() {
                ", logically rewritten"
            } else {
                ""
            },
        );
        s.push_str(&self.stats.render_table());
        s
    }
}

/// Optimize and run a logical plan — the library's `Execute(output,
/// policy)` entry point from Figure 6.
pub fn execute(
    ctx: &context::PzContext,
    plan: &LogicalPlan,
    policy: &Policy,
    config: ExecutionConfig,
) -> error::PzResult<ExecutionOutcome> {
    execute_with_optimizer(ctx, plan, policy, config, &Optimizer::default())
}

/// `execute` with a configured optimizer (e.g. sentinel calibration on).
pub fn execute_with_optimizer(
    ctx: &context::PzContext,
    plan: &LogicalPlan,
    policy: &Policy,
    config: ExecutionConfig,
    optimizer: &Optimizer,
) -> error::PzResult<ExecutionOutcome> {
    // A streaming run overlaps its stages, so plan *time* must be costed
    // as the bottleneck stage — otherwise MinTime-style policies would
    // rank plans by a sum the executor never pays. Likewise, worker pools
    // divide each stage's effective time, which can shift which plan wins
    // a time-sensitive policy.
    let mut optimizer = optimizer.clone();
    if matches!(config.mode, ExecMode::Streaming { .. }) {
        optimizer.pipelined_time = true;
        optimizer.parallel_workers = config.parallelism.max(1);
    }
    let (chosen_plan, estimate, report) = optimizer.optimize(ctx, plan, policy)?;
    // Substitute models are ranked along the dimension the policy
    // optimized for (quality-seeking policy -> next-best-quality model).
    let rank = crate::exec::failover::Rank::from(policy);
    let (records, mut stats) = crate::exec::run::execute_ranked(ctx, &chosen_plan, config, rank)?;
    stats.policy = policy.name();
    Ok(ExecutionOutcome {
        records,
        stats,
        chosen_plan,
        estimate,
        report,
    })
}

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::context::{AdmissionGate, PzContext};
    pub use crate::dataset::Dataset;
    pub use crate::datasource::{
        DataRegistry, DatasetChange, DatasetVersion, DirectorySource, GeneratedSource,
        MemorySource, RecordBatchIter, RecordGenerator, UdfRegistry, VersionedSource,
    };
    pub use crate::error::{PzError, PzResult};
    pub use crate::exec::{
        AdaptiveReport, DegradedExecution, ExecMode, ExecutionConfig, ExecutionStats, OperatorStats,
    };
    pub use crate::execute;
    pub use crate::execute_with_optimizer;
    pub use crate::field::{FieldDef, FieldType};
    pub use crate::ops::logical::{
        AggExpr, AggFunc, Cardinality, FilterPredicate, LogicalOp, LogicalPlan,
    };
    pub use crate::ops::physical::{PhysicalOp, PhysicalPlan};
    pub use crate::optimizer::cost::{OperatorEstimate, PlanEstimate};
    pub use crate::optimizer::drift::{DriftReport, StageDrift};
    pub use crate::optimizer::policy::Policy;
    pub use crate::optimizer::Optimizer;
    pub use crate::record::{DataRecord, Value};
    pub use crate::schema::Schema;
    pub use crate::ExecutionOutcome;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    fn science_ctx() -> PzContext {
        let ctx = PzContext::simulated();
        let (docs, _) = pz_datagen::science::demo_corpus();
        let items = docs.into_iter().map(|d| (d.filename, d.content)).collect();
        ctx.registry.register(Arc::new(MemorySource::new(
            "sigmod-demo",
            Schema::pdf_file(),
            items,
        )));
        ctx
    }

    fn demo_plan() -> LogicalPlan {
        let clinical = Schema::new(
            "ClinicalData",
            "A schema for extracting clinical data datasets from papers.",
            vec![
                FieldDef::text("name", "The name of the clinical data dataset"),
                FieldDef::text(
                    "description",
                    "A short description of the content of the dataset",
                ),
                FieldDef::text("url", "The public URL where the dataset can be accessed"),
            ],
        )
        .unwrap();
        Dataset::source("sigmod-demo")
            .filter("The papers are about colorectal cancer")
            .convert(clinical, Cardinality::OneToMany, "extract datasets")
            .build()
            .unwrap()
    }

    #[test]
    fn execute_max_quality_picks_champion_model() {
        let ctx = science_ctx();
        let outcome = execute(
            &ctx,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        // MaxQuality must route both semantic ops to the champion at high
        // effort.
        let desc = outcome.chosen_plan.describe();
        assert!(desc.contains("gpt-4o"), "{desc}");
        assert!(outcome.report.plan_space_size > 100);
        assert!(outcome.report.pareto_size <= outcome.report.plans_considered);
        assert!(!outcome.records.is_empty());
    }

    #[test]
    fn min_cost_is_cheaper_than_max_quality() {
        let ctx1 = science_ctx();
        let q = execute(
            &ctx1,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        let ctx2 = science_ctx();
        let c = execute(
            &ctx2,
            &demo_plan(),
            &Policy::MinCost,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        assert!(
            c.stats.total_cost_usd < q.stats.total_cost_usd,
            "MinCost {} vs MaxQuality {}",
            c.stats.total_cost_usd,
            q.stats.total_cost_usd
        );
    }

    #[test]
    fn min_time_is_faster_than_max_quality() {
        let ctx1 = science_ctx();
        let q = execute(
            &ctx1,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        let ctx2 = science_ctx();
        let t = execute(
            &ctx2,
            &demo_plan(),
            &Policy::MinTime,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        assert!(t.stats.total_time_secs < q.stats.total_time_secs);
    }

    #[test]
    fn constrained_policy_respects_budget_in_estimate() {
        let ctx = science_ctx();
        let budget = 0.05;
        let outcome = execute(
            &ctx,
            &demo_plan(),
            &Policy::MaxQualityAtCost(budget),
            ExecutionConfig::sequential(),
        )
        .unwrap();
        assert!(
            outcome.estimate.cost_usd <= budget,
            "estimate {} over budget",
            outcome.estimate.cost_usd
        );
    }

    #[test]
    fn invalid_plan_fails_before_any_cost() {
        let ctx = PzContext::simulated();
        let plan = Dataset::source("not-registered")
            .filter("x")
            .build()
            .unwrap();
        assert!(execute(&ctx, &plan, &Policy::MinCost, ExecutionConfig::sequential()).is_err());
        assert_eq!(ctx.ledger.total_cost_usd(), 0.0);
    }

    #[test]
    fn fieldwise_convert_is_enumerated_but_dominated() {
        // The conventional per-field strategy exists in the plan space but
        // never survives to be chosen: bonded dominates it on cost and
        // quality under this cost model.
        let ctx = science_ctx();
        for policy in [Policy::MaxQuality, Policy::MinCost, Policy::MinTime] {
            let outcome =
                execute(&ctx, &demo_plan(), &policy, ExecutionConfig::sequential()).unwrap();
            assert!(
                !outcome.chosen_plan.describe().contains("FieldwiseConvert"),
                "{policy:?} chose {}",
                outcome.chosen_plan.describe()
            );
        }
    }

    #[test]
    fn streaming_execute_same_cost_bottleneck_time_estimate() {
        let ctx_m = science_ctx();
        let m = execute(
            &ctx_m,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        let ctx_s = science_ctx();
        let s = execute(
            &ctx_s,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::streaming(),
        )
        .unwrap();
        // Same plan, same records, same dollars.
        assert_eq!(m.chosen_plan.describe(), s.chosen_plan.describe());
        assert_eq!(m.records.len(), s.records.len());
        assert!((m.stats.total_cost_usd - s.stats.total_cost_usd).abs() < 1e-9);
        // The optimizer costed time as the bottleneck stage, and the
        // executor measured the overlap.
        assert!(s.estimate.time_secs < m.estimate.time_secs);
        assert!(s.stats.total_time_secs < m.stats.total_time_secs);
    }

    #[test]
    fn explain_contains_plan_estimates_and_table() {
        let ctx = science_ctx();
        let outcome = execute(
            &ctx,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        let e = outcome.explain();
        assert!(e.contains("physical plan"));
        assert!(e.contains("estimate"));
        assert!(e.contains("Pareto frontier"));
        assert!(e.contains("TOTAL"));
    }

    #[test]
    fn estimate_tracks_actuals_within_factor() {
        // The cost model should land within ~5x of the measured values for
        // the demo pipeline (it uses default selectivity/fanout).
        let ctx = science_ctx();
        let outcome = execute(
            &ctx,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        let est = outcome.estimate.cost_usd;
        let act = outcome.stats.total_cost_usd;
        assert!(est > act / 5.0 && est < act * 5.0, "est {est} vs act {act}");
    }
}
