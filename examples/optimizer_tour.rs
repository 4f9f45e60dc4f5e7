//! Optimizer tour: watch the §2.1 machinery work — plan-space enumeration,
//! Pareto pruning, per-policy choices, and sentinel calibration.
//!
//! ```text
//! cargo run -p pz-examples --bin optimizer_tour --release
//! ```

use pz_core::optimizer::cost::CostContext;
use pz_core::optimizer::{enumerate, pareto, Optimizer};
use pz_core::prelude::*;
use pz_examples::context_with_corpus;

fn main() -> PzResult<()> {
    let ctx = context_with_corpus("science");
    let clinical = Schema::new(
        "ClinicalData",
        "datasets used by papers",
        vec![
            FieldDef::text("name", "The name of the clinical data dataset"),
            FieldDef::text("url", "The public URL where the dataset can be accessed"),
        ],
    )?;
    let plan = Dataset::source("sigmod-demo")
        .filter("The papers are about colorectal cancer")
        .convert(clinical, Cardinality::OneToMany, "extract datasets")
        .build()?;

    // 1. The plan space.
    let space = enumerate::plan_space_size(&plan, &ctx.catalog);
    println!("logical plan     : {}", plan.describe());
    println!("physical space   : {space} plans");

    // 2. The Pareto frontier with estimates.
    let cost_ctx = CostContext::from_context(&ctx, &plan)?;
    let frontier = pareto::enumerate_pareto(&plan, &ctx.catalog, &cost_ctx).plans;
    println!("pareto frontier  : {} plans\n", frontier.len());
    println!(
        "{:<64} {:>9} {:>9} {:>8}",
        "frontier plan", "cost($)", "time(s)", "quality"
    );
    let mut rows = frontier.clone();
    rows.sort_by(|a, b| a.1.cost_usd.total_cmp(&b.1.cost_usd));
    for (p, e) in rows.iter().take(12) {
        let desc = p.describe();
        let desc = if desc.len() > 62 {
            format!("{}…", &desc[..62])
        } else {
            desc
        };
        println!(
            "{desc:<64} {:>9.4} {:>9.1} {:>8.2}",
            e.cost_usd, e.time_secs, e.quality
        );
    }

    // 3. What each policy picks.
    println!();
    for policy in [
        Policy::MaxQuality,
        Policy::MinCost,
        Policy::MinTime,
        Policy::MaxQualityAtCost(0.05),
        Policy::MinCostAtQuality(0.85),
    ] {
        let (chosen, est, _) = Optimizer::default().optimize(&ctx, &plan, &policy)?;
        println!(
            "{:<26} -> {} (est ${:.4}, {:.0}s, q={:.2})",
            policy.name(),
            chosen.describe(),
            est.cost_usd,
            est.time_secs,
            est.quality
        );
    }

    // 4. Logical rewrites: cheap predicates run first automatically.
    ctx.udfs.register_filter("small_files", |r| {
        r.get("contents")
            .and_then(|v| v.as_text())
            .is_some_and(|t| t.len() < 40_000)
    });
    let sloppy = Dataset::source("sigmod-demo")
        .filter("The papers are about colorectal cancer") // expensive first...
        .filter_udf("small_files") // ...free one after
        .build()?;
    let (chosen, _, report) = Optimizer::default().optimize(&ctx, &sloppy, &Policy::MinCost)?;
    println!(
        "\nlogical rewrite: reordered={} deduped={} -> {}",
        report.rewrites.filters_reordered,
        report.rewrites.filters_deduped,
        chosen.describe()
    );

    // 5. Sentinel calibration: spend a little on a sample, estimate better.
    println!("\nwith sentinel calibration (sample of 4):");
    let optimizer = Optimizer::default().with_sentinel(4);
    let (chosen, est, report) = optimizer.optimize(&ctx, &plan, &Policy::MaxQuality)?;
    println!(
        "MaxQuality -> {} (est ${:.4}, {:.0}s, q={:.2}; calibrated={})",
        chosen.describe(),
        est.cost_usd,
        est.time_secs,
        est.quality,
        report.calibrated
    );
    Ok(())
}
