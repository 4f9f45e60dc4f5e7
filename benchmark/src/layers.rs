//! The per-layer cost table: one small cell per layer boundary, timed from
//! outside through the public API, each on inputs generated from the seed.
//!
//! The table runs at the end of every traced run, whatever the workload, so
//! every timing in `report::LAYERS` is measured every time. Cells are sized
//! to finish in a few seconds together; each is repeated and the median
//! kept. Tracing and allocation counting are off while they run.
//!
//! Which end-to-end metric each layer should move is written down in the
//! README as a prediction, before any optimisation is measured with this.

use crate::adapter::{self, Drive};
use crate::harness::timed;
use crate::stats::{median, prefix_difference};
use crate::trace;
use crate::workloads::{chat, fresh_ctx, run_plan, serve, PlanRun};
use std::hint::black_box;

const REPS: usize = 3;

/// Wall seconds of one run of `f`.
fn once<T>(f: impl FnOnce() -> T) -> f64 {
    timed(f).1.secs
}

/// Microseconds per item of one timed sweep of `f` over `items`.
fn us_per<I: ExactSizeIterator>(items: I, f: impl FnMut(I::Item)) -> f64 {
    let n = items.len();
    once(|| items.for_each(f)) * 1e6 / n as f64
}

/// Median wall seconds of `REPS` runs of `f`.
fn secs(mut f: impl FnMut()) -> f64 {
    self_timed(|| once(&mut f))
}

/// Median wall seconds of `REPS` runs of `f`, which times itself (fresh
/// state is built outside the timed part).
fn self_timed(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// Median wall seconds of one plan over a fresh context.
fn plan_secs(source: &adapter::Source, plan: &adapter::PhysicalPlan, drive: Drive) -> f64 {
    self_timed(|| run_plan(source, plan, drive).cell.secs)
}

type Table = Vec<(&'static str, f64)>;

pub fn measure(seed: u64, quick: bool) -> Table {
    let scale = |n: usize| if quick { (n / 10).max(20) } else { n };
    let mut t = Table::new();
    let docs = adapter::gen_docs(scale(2000), seed ^ 0x1a7e5);
    let call_us = llm(&mut t, &docs);
    obs(&mut t);
    vector(&mut t, seed, quick);
    record(&mut t, &docs);
    let plans = ops_and_exec(&mut t, &docs, seed, quick);
    optimizer(&mut t, &docs);
    serve_cell(&mut t, seed);
    chat_cell(&mut t, seed, quick);
    reconcile(&mut t, call_us, &plans);
    t
}

/// What the reconciliation needs to know about the two whole plans the
/// prefix-differencing cells ran.
struct Plans {
    extract_docs: f64,
    filter_calls: f64,
    convert_calls: f64,
    extract_wall_s: f64,
    relational_docs: f64,
    relational_kept: f64,
    relational_wall_s: f64,
}

fn get(t: &Table, name: &str) -> f64 {
    t.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

/// `pz-llm`: tokenizer, simulator call, tracing wrapper, cache, embedding.
/// Returns the cost of one traced (filter, extract) call in µs.
fn llm(t: &mut Table, docs: &[adapter::Document]) -> (f64, f64) {
    let bytes: usize = docs.iter().map(|d| d.content.len()).sum();
    let s = secs(|| {
        for d in docs {
            black_box(adapter::count_tokens(&d.content));
        }
    });
    t.push(("llm.tokenizer.mb_per_s", bytes as f64 / 1e6 / s));

    let n = docs.len().min(400);
    let requests: Vec<_> = docs[..n]
        .iter()
        .map(|d| adapter::filter_request(&d.content))
        .collect();
    let per_call_us = |client: &dyn Fn() -> adapter::Client,
                       requests: &[adapter::CompletionRequest]| {
        self_timed(|| {
            let c = client();
            us_per(requests.iter(), |r| {
                black_box(adapter::complete(c.as_ref(), r));
            })
        })
    };
    let traced_sim = || adapter::traced(adapter::raw_sim());
    let raw = per_call_us(&adapter::raw_sim, &requests);
    let traced = per_call_us(&traced_sim, &requests);
    t.push(("llm.sim.complete_us", raw));
    t.push(("llm.traced.overhead_us", traced - raw));
    let extracts: Vec<_> = docs[..n]
        .iter()
        .map(|d| adapter::extract_request(&d.content))
        .collect();
    let traced_extract = per_call_us(&traced_sim, &extracts);

    // Cache: the first sweep misses (lookup + insert on top of the raw
    // call), the second hits.
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let c = adapter::cached(adapter::raw_sim());
        let sweep = || {
            us_per(requests.iter(), |r| {
                black_box(adapter::complete(&c, r));
            })
        };
        miss.push(sweep());
        hit.push(sweep());
    }
    t.push(("llm.cache.hit_us", median(&hit)));
    t.push(("llm.cache.miss_overhead_us", median(&miss) - raw));

    let ctx = adapter::new_ctx();
    let texts: Vec<String> = docs[..n].iter().map(|d| d.content.clone()).collect();
    let s = secs(|| {
        black_box(adapter::embed(&ctx, texts.clone()));
    });
    t.push(("llm.embed.us_per_doc", s * 1e6 / n as f64));
    (traced, traced_extract)
}

/// `pz-obs`: cost and memory of a span.
fn obs(t: &mut Table) {
    const SPANS: usize = 50_000;
    let ctx = adapter::new_ctx();
    t.push(("obs.span_us", us_per(0..SPANS, |_| adapter::obs_span(&ctx))));
    // Every span is retained until the tracer is reset. Counted as bytes
    // requested from the allocator, not as RSS growth: resident pages read
    // 0 whenever an earlier cell left the heap with room.
    trace::set_counting(true);
    let bytes = timed(|| (0..SPANS).for_each(|_| adapter::obs_span(&ctx)))
        .1
        .alloc_bytes;
    trace::set_counting(false);
    let kib_per_kspan = bytes as f64 / 1024.0 / (SPANS as f64 / 1000.0);
    t.push(("obs.rss_per_kspan_kib", kib_per_kspan));
}

/// `pz-vector`, through `VectorStore` only: exact scan below 1k vectors,
/// the IVF window above (measured 1k → 2.3k: five rebuilds). The HNSW tier
/// past 8k costs ~17 s to reach; the `retrieve` workload measures it.
fn vector(t: &mut Table, seed: u64, quick: bool) {
    const FLAT: usize = 1000;
    let total = if quick { 1280 } else { 2304 };
    let docs = adapter::gen_docs(total, seed ^ 0x7ec7);
    let ctx = adapter::new_ctx();
    let vectors = adapter::embed(&ctx, docs.iter().map(|d| d.content.clone()).collect());
    let dim = vectors[0].len();
    let store = adapter::VectorStore::new();
    adapter::vector_collection(&store, "cell", dim);
    let add = |range: std::ops::Range<usize>| {
        us_per(range, |i| {
            adapter::vector_add(&store, "cell", &vectors[i], i)
        })
    };
    let queries = &vectors[..100];
    let search = || {
        us_per(queries.iter(), |q| {
            black_box(adapter::vector_search(&store, "cell", q, 10));
        })
    };
    t.push(("vector.add_flat_us", add(0..FLAT)));
    t.push(("vector.search_flat_us", search()));
    t.push(("vector.add_ivf_window_us", add(FLAT..total)));
    t.push(("vector.search_ivf_window_us", search()));

    // Useful ÷ attempts: how many of the exact top-10 the store returns.
    let mut found = 0usize;
    for q in queries {
        let mut exact: Vec<(f32, usize)> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (adapter::cosine(q, v), i))
            .collect();
        exact.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let got = adapter::vector_search(&store, "cell", q, 10);
        found += exact[..10].iter().filter(|(_, i)| got.contains(i)).count();
    }
    t.push((
        "vector.recall_at_10",
        found as f64 / (10 * queries.len()) as f64,
    ));
}

/// `pz-core::record`: what the executors do to every record.
fn record(t: &mut Table, docs: &[adapter::Document]) {
    let records: Vec<_> = docs.iter().map(adapter::sample_record).collect();
    let n = records.len() as f64;
    let per_rec = |f: &dyn Fn(&adapter::DataRecord)| secs(|| records.iter().for_each(f)) / n;
    t.push((
        "core.record.clone_ns",
        per_rec(&|r| drop(black_box(r.clone()))) * 1e9,
    ));
    t.push((
        "core.record.derive_ns",
        per_rec(&|r| drop(black_box(adapter::record_derive(r, 7)))) * 1e9,
    ));
    t.push((
        "core.record.json_roundtrip_us",
        per_rec(&|r| drop(black_box(adapter::record_json_roundtrip(r)))) * 1e6,
    ));
    t.push((
        "core.memo.identity_ns",
        per_rec(&|r| {
            black_box(adapter::record_identity(r));
        }) * 1e9,
    ));
}

/// Every prefix Scan→…→opᵢ of a `k`-operator plan, timed.
struct Prefixes {
    /// Wall seconds of the prefix of 1..=k operators.
    walls: Vec<f64>,
    /// Seconds per input record of each operator after the scan.
    per_rec: Vec<f64>,
    /// One run of the whole plan: its stats and the context it left.
    full: PlanRun,
}

fn prefixes(
    source: &adapter::Source,
    plan: impl Fn(usize) -> adapter::PhysicalPlan,
    k: usize,
) -> Prefixes {
    let full = run_plan(source, &plan(k), Drive::Materializing);
    let walls: Vec<f64> = (1..=k)
        .map(|i| plan_secs(source, &plan(i), Drive::Materializing))
        .collect();
    let ins: Vec<usize> = full.stats.operators[1..]
        .iter()
        .map(|o| o.input_records)
        .collect();
    Prefixes {
        per_rec: prefix_difference(&walls, &ins),
        walls,
        full,
    }
}

/// `pz-core::ops` by prefix differencing, and `pz-core::exec`.
fn ops_and_exec(t: &mut Table, docs: &[adapter::Document], seed: u64, quick: bool) -> Plans {
    let n = docs.len();
    let source = adapter::memory_source("cell", docs);

    // extract plan: Scan, +LLMFilter, +LLMConvert.
    let extract = prefixes(&source, |k| adapter::extract_plan("cell", k), 3);
    t.push((
        "core.source.scan_records_per_s",
        n as f64 / extract.walls[0],
    ));
    t.push(("ops.llm_filter.us_per_rec", extract.per_rec[0] * 1e6));
    t.push(("ops.llm_convert.us_per_rec", extract.per_rec[1] * 1e6));
    let extract_wall = extract.walls[2];
    let calls = |k: usize| extract.full.stats.operators[k].llm_calls as f64;

    // The same plan with the executor's profiling gauges on.
    let full_plan = adapter::extract_plan("cell", 3);
    let profiled = self_timed(|| {
        let ctx = fresh_ctx(&source);
        adapter::set_profiling(&ctx, true);
        once(|| adapter::execute_plan(&ctx, &full_plan, Drive::Materializing))
    });
    t.push((
        "obs.profiling_overhead_pct",
        (profiled / extract_wall - 1.0) * 100.0,
    ));
    let s = secs(|| {
        black_box(adapter::trace_jsonl_len(&extract.full.ctx));
    });
    t.push(("obs.snapshot_jsonl_ms", s * 1e3));

    // Two workers per streaming stage against one (workers share cores).
    let p1 = plan_secs(&source, &full_plan, Drive::Streaming);
    let p2 = plan_secs(&source, &full_plan, Drive::StreamingP2);
    t.push(("exec.stream_p2.speedup", p1 / p2));

    // relational plan: Scan, +UdfFilter, +UdfMap, +Sort, +Aggregate.
    let big_docs = adapter::gen_docs(if quick { 500 } else { 10_000 }, seed ^ 0xb16);
    let big = adapter::memory_source("cell", &big_docs);
    let relational = prefixes(&big, |k| adapter::relational_plan("cell", k), 5);
    for (name, v) in [
        "ops.udf_filter.ns_per_rec",
        "ops.udf_map.ns_per_rec",
        "ops.sort.ns_per_rec",
        "ops.aggregate.ns_per_rec",
    ]
    .into_iter()
    .zip(&relational.per_rec)
    {
        t.push((name, v * 1e9));
    }

    // Executor passthrough: Scan → keep-all filter, both executors.
    let nb = big_docs.len() as f64;
    let mat = plan_secs(
        &big,
        &adapter::passthrough_plan("cell"),
        Drive::Materializing,
    );
    let stream = plan_secs(&big, &adapter::passthrough_plan("cell"), Drive::Streaming);
    let batches = (nb / adapter::streaming_batch_size() as f64).ceil();
    t.push(("exec.mat.passthrough_records_per_s", nb / mat));
    t.push(("exec.stream.passthrough_records_per_s", nb / stream));
    t.push(("exec.stream.batches", batches));
    t.push((
        "exec.stream.per_batch_overhead_us",
        (stream - mat) * 1e6 / batches,
    ));

    // Retrieve below the exact-scan threshold (embed + insert + search).
    let small = adapter::memory_source("cell", &docs[..n.min(900)]);
    let rctx = adapter::new_ctx();
    let walls: Vec<f64> = (1..=2)
        .map(|k| {
            plan_secs(
                &small,
                &adapter::retrieve_plan(&rctx, "cell", k),
                Drive::Materializing,
            )
        })
        .collect();
    t.push((
        "ops.retrieve.us_per_rec",
        prefix_difference(&walls, &[n.min(900)])[0] * 1e6,
    ));

    // Memo replay: a re-run with nothing edited is all memo hits.
    let mut per_hit = Vec::new();
    for _ in 0..REPS {
        let ctx = adapter::new_ctx_incremental();
        adapter::register(&ctx, source.clone());
        let plan = adapter::extract_plan("cell", 3);
        adapter::execute_plan_incremental(&ctx, &plan);
        let ((_, stats), cell) = timed(|| adapter::execute_plan_incremental(&ctx, &plan));
        per_hit.push(cell.secs * 1e6 / stats.memo_hits.max(1) as f64);
    }
    t.push(("exec.memo.replay_us_per_hit", median(&per_hit)));
    Plans {
        extract_docs: n as f64,
        filter_calls: calls(1),
        convert_calls: calls(2),
        extract_wall_s: extract_wall,
        relational_docs: nb,
        relational_kept: relational.full.stats.operators[2].input_records as f64,
        relational_wall_s: relational.walls[4],
    }
}

/// `pz-core::optimizer`: the §3 logical plan, and four chained filters.
fn optimizer(t: &mut Table, docs: &[adapter::Document]) {
    let ctx = adapter::new_ctx();
    adapter::register(
        &ctx,
        adapter::memory_source("cell", &docs[..docs.len().min(50)]),
    );
    const RUNS: usize = 20;
    let plan = adapter::extract_logical("cell");
    let mut considered = 0;
    let s = secs(|| (0..RUNS).for_each(|_| considered = adapter::optimize(&ctx, &plan)));
    t.push(("optimizer.optimize_ms", s * 1e3 / RUNS as f64));
    t.push(("optimizer.plans_considered", considered as f64));
    let chain = adapter::chain4_logical("cell");
    let s = secs(|| {
        black_box(adapter::optimize(&ctx, &chain));
    });
    t.push(("optimizer.chain4_ms", s * 1e3));
}

/// `pz-serve`: what `run_session` adds to a direct `execute` of the plan.
fn serve_cell(t: &mut Table, seed: u64) {
    const SESSIONS: usize = 10;
    let corpora: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let docs = adapter::gen_docs(serve::PAPERS_PER_SESSION, seed ^ (0x5e7 + i as u64));
            (format!("cell-{i}"), docs)
        })
        .collect();
    let served = self_timed(|| {
        let host = adapter::serve_host(usize::MAX);
        let tenant = adapter::TENANTS[0].0;
        for (name, docs) in &corpora {
            adapter::register(
                &adapter::tenant_ctx(&host, tenant),
                adapter::memory_source(name, docs),
            );
        }
        once(|| {
            for (name, _) in &corpora {
                adapter::run_session(&host, adapter::session_job(tenant, name));
            }
        })
    });
    let direct = self_timed(|| {
        let ctx = adapter::new_ctx_cached();
        for (name, docs) in &corpora {
            adapter::register(&ctx, adapter::memory_source(name, docs));
        }
        once(|| {
            for (name, _) in &corpora {
                black_box(adapter::execute_logical(
                    &ctx,
                    &adapter::extract_logical(name),
                ));
            }
        })
    });
    t.push((
        "serve.session_overhead_us",
        (served - direct) * 1e6 / SESSIONS as f64,
    ));
}

/// `archytas` / `palimpchat`: per-turn-kind cost of the §3 dialogue.
fn chat_cell(t: &mut Table, seed: u64, quick: bool) {
    let n = if quick { 5 } else { 30 };
    let dialogues: Vec<_> = (0..n)
        .map(|i| chat::run_dialogue(&chat::script(seed, i)))
        .collect();
    let turn_us = |k: usize| {
        median(
            &dialogues
                .iter()
                .map(|d| d.turn_s[k] * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    for (k, name) in [
        "chat.turn.load_us",
        "chat.turn.define_us",
        "chat.turn.run_us",
        "chat.turn.stats_us",
        "chat.turn.export_us",
    ]
    .into_iter()
    .enumerate()
    {
        t.push((name, turn_us(k)));
    }
    t.push((
        "chat.new_session_us",
        median(
            &dialogues
                .iter()
                .map(|d| d.new_session_s * 1e6)
                .collect::<Vec<_>>(),
        ),
    ));
    const RENDERS: usize = 1000;
    let s = secs(|| {
        for _ in 0..RENDERS {
            black_box(adapter::render_template());
        }
    });
    t.push(("archytas.template.render_us", s * 1e6 / RENDERS as f64));
}

/// Reconciliation: what the cells above predict for a whole plan, as a
/// share of its measured wall time. Far from 1 means a layer has no cell.
fn reconcile(t: &mut Table, (filter_us, extract_us): (f64, f64), p: &Plans) {
    // extract = scan + every simulator call at the cost of a traced call.
    // What is left over is `ops` itself: prompt rendering, response
    // parsing, record building.
    let extract = p.extract_docs / get(t, "core.source.scan_records_per_s")
        + (p.filter_calls * filter_us + p.convert_calls * extract_us) / 1e6;
    t.push(("recon.extract_mat.coverage", extract / p.extract_wall_s));
    // relational = scan + filter drive (the passthrough cell) + one record
    // clone per mapped record. Sort and Aggregate have no cell of their own.
    let relational = p.relational_docs / get(t, "exec.mat.passthrough_records_per_s")
        + p.relational_kept * get(t, "core.record.clone_ns") / 1e9;
    t.push((
        "recon.relational_mat.coverage",
        relational / p.relational_wall_s,
    ));
}
