//! E8 bench: corpus-size and worker scaling of pipeline execution
//! (wall-clock; the virtual-clock scaling table is in `repro --exp e8`).

use bench::{demo_plan, science_context};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pz_core::prelude::*;
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for n in [11usize, 50] {
        for workers in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("papers{n}"), format!("w{workers}")),
                &(n, workers),
                |b, &(n, workers)| {
                    b.iter(|| {
                        let (ctx, _) = science_context(n, 17);
                        let outcome = execute(
                            &ctx,
                            &demo_plan(),
                            &Policy::MinCost,
                            ExecutionConfig::sequential().with_parallelism(workers),
                        )
                        .expect("pipeline runs");
                        black_box(outcome.records.len())
                    })
                },
            );
        }
    }
    group.finish();
}

/// The materializing drive's chunked scan over a streamed 10k-document
/// corpus — three chunks (E21 runs the full 10k/100k/1M curve; this keeps
/// the scan honest at bench cadence).
fn bench_chunked_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunked_scan");
    group.sample_size(10);
    const N: usize = 10_000;
    let make_ctx = || {
        let ctx = PzContext::simulated();
        let cfg = pz_datagen::stream::StreamConfig::sized(N, 11);
        ctx.registry
            .register(std::sync::Arc::new(GeneratedSource::new(
                "stream-corpus",
                Schema::text_file(),
                N,
                move |i| {
                    let d = pz_datagen::stream::doc_at(&cfg, i);
                    (d.filename, d.content)
                },
            )));
        ctx.udfs.register_filter("sparse", |r: &DataRecord| {
            r.get("filename")
                .map(|v| v.as_display().ends_with("0000.txt"))
                .unwrap_or(false)
        });
        ctx
    };
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "stream-corpus".into(),
            },
            PhysicalOp::UdfFilter {
                udf: "sparse".into(),
            },
        ],
    };
    group.bench_function("scan10k", |b| {
        b.iter(|| {
            let ctx = make_ctx();
            let (records, _stats) =
                pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::sequential())
                    .expect("scan runs");
            black_box(records.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scaling, bench_chunked_scan);
criterion_main!(benches);
