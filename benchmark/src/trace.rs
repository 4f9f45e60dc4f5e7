//! Benchmark-side tracing: spans around the calls into each engine layer,
//! and a counting allocator.
//!
//! Both are off unless a traced pass switches them on, so the end-to-end
//! numbers are measured without them; the difference between traced and
//! untraced passes is reported as `trace_overhead_pct`. Spans inside the
//! engine (dual-clock `pz-obs`) are a later change — these see only what a
//! caller of the public API sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent` indexes the same span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Timed pass the span belongs to (spans of one pass share it).
    pub pass: u32,
    pub tid: u32,
}

// Relaxed everywhere: the flags publish no other data. Spans are pushed
// under the mutex, and passes are switched only between timed regions.
static ENABLED: AtomicBool = AtomicBool::new(false);
static PASS: AtomicU32 = AtomicU32::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last (indices into `SPANS`).
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("no thread panics holding the span list")
}

/// Switch span recording and allocation counting on for pass `pass`.
pub fn start_pass(pass: u32) {
    PASS.store(pass, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
    COUNTING.store(false, Ordering::Relaxed);
}

/// Allocation counting alone, for a layer cell that measures memory.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped. Holds nothing while tracing is off.
pub struct SpanGuard(Option<usize>);

/// Open a span named after the layer boundary being crossed.
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let mut list = spans();
    let index = list.len();
    list.push(Span {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        pass: PASS.load(Ordering::Relaxed),
        tid: TID.with(|t| *t),
    });
    drop(list);
    STACK.with(|s| s.borrow_mut().push(index));
    SpanGuard(Some(index))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end = now_ns();
            STACK.with(|s| s.borrow_mut().pop());
            // Not `spans()`: a Drop must not panic.
            if let Ok(mut list) = SPANS.lock() {
                list[index].end_ns = end;
            }
        }
    }
}

/// Take every recorded span, leaving the list empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// Self time of each span: its duration minus the part its children cover.
/// Children of one parent run on the parent's thread, so they never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per span name: (count, total ns, self ns), sorted by name.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let mut map = std::collections::BTreeMap::<&'static str, (usize, u64, u64)>::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = map.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    map.into_iter().map(|(k, v)| (k, v.0, v.1, v.2)).collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one lane per client thread.
pub fn to_chrome_json(workload: &str, spans: &[Span]) -> String {
    let events: Vec<serde_json::Value> = spans
        .iter()
        .zip(self_times_ns(spans))
        .map(|(s, own)| {
            serde_json::json!({
                "name": s.name,
                "cat": workload,
                "ph": "X",
                "ts": s.start_ns as f64 / 1000.0,
                "dur": (s.end_ns - s.start_ns) as f64 / 1000.0,
                "pid": 1,
                "tid": s.tid,
                "args": {
                    "pass": s.pass,
                    "parent": s.parent.map(|p| p as i64).unwrap_or(-1),
                    "self_us": own as f64 / 1000.0,
                },
            })
        })
        .collect();
    serde_json::to_string(&serde_json::json!({ "traceEvents": events }))
        .expect("a JSON value always serializes")
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// (allocations, bytes requested) counted so far.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The system allocator plus two counters that move only while a traced
/// pass has set `COUNTING`. Untraced runs pay one relaxed load per call.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is the
        // caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // root 0..100 with children 10..30 and 40..90; the second child has
        // a grandchild 50..60 that must not be subtracted from the root.
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("b", 40, 90, Some(0)),
            sp("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let total_self: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total_self, 100, "self times partition the root");
    }

    #[test]
    fn by_name_groups_and_sums() {
        let spans = vec![
            sp("x", 0, 10, None),
            sp("y", 2, 6, Some(0)),
            sp("x", 20, 25, None),
        ];
        assert_eq!(by_name(&spans), vec![("x", 2, 15, 11), ("y", 1, 4, 4)]);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let spans = vec![sp("exec.execute_plan", 1000, 3000, None)];
        let v: serde_json::Value =
            serde_json::from_str(&to_chrome_json("extract", &spans)).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["dur"].as_f64(), Some(2.0));
        assert_eq!(events[0]["cat"], "extract");
    }

    #[test]
    fn spans_nest_on_the_opening_thread() {
        // The only test that touches the global recorder.
        start_pass(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        stop();
        let got = drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].parent, Some(0));
        assert_eq!(got[0].pass, 7);
        assert!(got[0].end_ns >= got[1].end_ns);
        let _off = span("ignored");
        assert!(drain().is_empty());
    }
}
