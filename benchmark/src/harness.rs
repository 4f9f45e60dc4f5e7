//! The measuring loop every workload shares.
//!
//! A run is: set-up including one warm-up pass (five or more times, median
//! reported as `setup_s`), then whole timed passes until there are at least
//! three and `--seconds` of timed work. Every metric is computed *per pass*
//! and reported as the median over passes, with the quartile spread over
//! passes beside it. Passes are kept short (well under a second where the
//! workload allows) on purpose: this box slows down by 25–70% for a second
//! or two at a time, and a median over many short passes discards those
//! bursts where a mean, or a percentile pooled over all samples, would not.

use crate::report::{Measured, SpanSummary, WorkloadResult};
use crate::{stats, trace};
use std::time::Instant;

/// One timed region: wall seconds, plus allocations while a traced pass
/// has the counting allocator on (zero otherwise).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cell {
    pub secs: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Time `f`. Only code inside `timed` counts towards a pass's wall time:
/// building contexts and checking outputs happen outside it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cell) {
    let (a0, b0) = trace::alloc_counters();
    let t = Instant::now();
    let out = std::hint::black_box(f());
    let secs = t.elapsed().as_secs_f64();
    let (a1, b1) = trace::alloc_counters();
    (
        out,
        Cell {
            secs,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        },
    )
}

/// What one pass measured. The three headline slots mean, per workload,
/// what `report::alias` says they mean.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Timed wall seconds in this pass (all cells).
    pub wall_s: f64,
    pub rate_per_s: f64,
    pub wait_p50_ms: f64,
    pub wait_p90_ms: f64,
    /// Further end-to-end values with a name of their own.
    pub named: Vec<(&'static str, f64)>,
    /// Per-layer counts and ratios read off the engine after the pass.
    pub layer: Vec<(&'static str, f64)>,
    /// Operations run and checked / failed, shed or wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Why, for each failed check (first few are printed).
    pub failures: Vec<String>,
}

impl Pass {
    /// Record one correctness check covering `ops` operations.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.failures.push(what());
        }
    }

    /// Fill the latency slots from this pass's samples: the median, and the
    /// highest percentile up to p90 with ten samples beyond it.
    pub fn set_waits(&mut self, samples_ms: &[f64]) {
        self.wait_p50_ms = stats::median(samples_ms);
        self.wait_p90_ms = stats::tail_percentile(samples_ms, 0.90);
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Generate inputs from the seed and build the sources.
    fn setup(seed: u64, quick: bool) -> Self;
    /// One whole pass: fresh engine state, timed cells, correctness checks.
    fn pass(&mut self) -> Pass;
    /// Settle allocator, page cache and lazy statics before timing.
    fn warm_up(&mut self) {
        self.pass();
    }
    /// Input sizes, for the result file.
    fn sizes(&self) -> Vec<(&'static str, usize)>;
}

fn measured(name: &str, samples: &[f64]) -> (String, Measured) {
    let m = Measured::new(
        name,
        stats::median(samples),
        stats::quartile_spread(samples),
    );
    (name.to_string(), m)
}

const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 2.5;
const MIN_PASSES: usize = 3;
/// A workload whose single pass outlasts `--seconds` (retrieve) still gets
/// more than one pass, but not a third: stop once this many times
/// `--seconds` have been measured.
const OVERRUN: f64 = 3.0;

fn done(passes: usize, timed_s: f64, seconds: f64) -> bool {
    (passes >= MIN_PASSES && timed_s >= seconds) || (passes >= 2 && timed_s >= OVERRUN * seconds)
}

fn absorb(out: &mut WorkloadResult, pass: &Pass) {
    out.passes += 1;
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.failures.extend(pass.failures.iter().cloned());
}

fn sizes<W: Workload>(w: &W) -> std::collections::BTreeMap<String, u64> {
    w.sizes()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as u64))
        .collect()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// The untraced run: end-to-end metrics, tracing and allocation counting off.
pub fn run_end_to_end<W: Workload>(seed: u64, seconds: f64, quick: bool) -> WorkloadResult {
    // Set-up is everything before the first timed pass — generating the
    // inputs, building the sources, and the warm-up pass — so that work a
    // change moves out of the timed passes (into source construction, or
    // into anything initialised on first use) shows up here.
    let set_up = || {
        let t = Instant::now();
        let mut w = W::setup(seed, quick);
        w.warm_up();
        (w, t.elapsed().as_secs_f64())
    };
    // Each copy is dropped before the next is built, so peak RSS holds one
    // set of inputs. A set-up of a fraction of a second is repeated more
    // often: the median of five 0.2 s samples moved 29% between runs.
    let (mut w, first_s) = set_up();
    let mut setup_s = vec![first_s];
    while setup_s.len() < SETUP_REPEATS
        || (!quick
            && setup_s.iter().sum::<f64>() < SETUP_MIN_S
            && setup_s.len() < 3 * SETUP_REPEATS)
    {
        drop(w);
        let (next, secs) = set_up();
        w = next;
        setup_s.push(secs);
    }

    let mut out = WorkloadResult {
        runs: 1,
        sizes: sizes(&w),
        ..Default::default()
    };
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed_s = 0.0;
    let mut peak_rss = 0.0;
    while !done(passes.len(), timed_s, seconds) {
        let pass = w.pass();
        timed_s += pass.wall_s;
        absorb(&mut out, &pass);
        passes.push(pass);
        // How many passes fit in `--seconds` varies from run to run, and
        // the allocator's high-water mark creeps up with every pass: read
        // it after the same amount of work each time.
        if passes.len() <= MIN_PASSES {
            peak_rss = peak_rss_mib();
        }
    }

    let column = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    out.end_to_end = [
        measured("setup_s", &setup_s),
        measured("rate_per_s", &column(|p| p.rate_per_s)),
        measured("wait_p50_ms", &column(|p| p.wait_p50_ms)),
        measured("wait_p90_ms", &column(|p| p.wait_p90_ms)),
        measured("peak_rss_mib", &[peak_rss]),
    ]
    .into();
    for (i, (name, _)) in passes[0].named.iter().enumerate() {
        let samples: Vec<f64> = passes.iter().map(|p| p.named[i].1).collect();
        out.end_to_end.extend([measured(name, &samples)]);
    }
    out
}

/// The traced run: untraced and traced passes alternate (their ratio is
/// `trace_overhead_pct`), the traced ones with benchmark-side spans and the
/// counting allocator on. Returns the spans for the Chrome trace file.
pub fn run_traced<W: Workload>(
    seed: u64,
    seconds: f64,
    quick: bool,
) -> (WorkloadResult, Vec<trace::Span>) {
    let mut w = W::setup(seed, quick);
    w.warm_up();
    let mut out = WorkloadResult {
        runs: 1,
        sizes: sizes(&w),
        ..Default::default()
    };
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first_traced: Option<Pass> = None;
    let mut timed = 0.0;
    while !done(plain_s.len() + traced_s.len(), timed, seconds) {
        let plain = w.pass();
        trace::start_pass(traced_s.len() as u32);
        let traced = w.pass();
        trace::stop();
        timed += plain.wall_s + traced.wall_s;
        plain_s.push(plain.wall_s);
        traced_s.push(traced.wall_s);
        absorb(&mut out, &plain);
        absorb(&mut out, &traced);
        first_traced.get_or_insert(traced);
    }
    let spans = trace::drain();
    out.spans = trace::by_name(&spans)
        .into_iter()
        .map(|(name, count, total_ns, self_ns)| {
            let summary = SpanSummary {
                count: count as u64,
                total_ms: total_ns as f64 / 1e6,
                self_ms: self_ns as f64 / 1e6,
            };
            (name.to_string(), summary)
        })
        .collect();
    let first = first_traced.expect("at least one traced pass ran");
    out.layers = first
        .layer
        .iter()
        .map(|(name, v)| (name.to_string(), Measured::new(name, *v, 0.0)))
        .collect();
    let overhead = (stats::median(&traced_s) / stats::median(&plain_s) - 1.0) * 100.0;
    out.layers.extend([(
        "trace_overhead_pct".to_string(),
        Measured::new("trace_overhead_pct", overhead, 0.0),
    )]);
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_stops_on_passes_and_time() {
        assert!(!done(2, 100.0, 40.0), "two passes need the overrun");
        assert!(done(2, 120.0, 40.0), "a long pass is not run a third time");
        assert!(!done(3, 5.0, 10.0));
        assert!(done(3, 10.0, 10.0));
        assert!(!done(1, 1000.0, 1.0), "never a single pass");
    }

    #[test]
    fn pass_check_counts_operations() {
        let mut p = Pass::default();
        p.check(true, 10, || unreachable!());
        p.check(false, 2, || "wrong".into());
        assert_eq!((p.attempted, p.failed), (12, 2));
        assert_eq!(p.failures, vec!["wrong".to_string()]);
    }

    #[test]
    fn waits_fall_back_to_the_median_on_few_samples() {
        let mut p = Pass::default();
        p.set_waits(&[3.0, 1.0, 2.0]);
        assert_eq!((p.wait_p50_ms, p.wait_p90_ms), (2.0, 2.0));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        p.set_waits(&many);
        assert_eq!((p.wait_p50_ms, p.wait_p90_ms), (50.5, 90.0));
    }

    #[test]
    fn timed_measures_the_closure() {
        let (v, cell) = timed(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(cell.secs >= 0.0);
    }
}
