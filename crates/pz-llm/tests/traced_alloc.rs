//! What a provider call's span costs the heap, counted by this test
//! binary's own global allocator. The wrapped client allocates nothing, so
//! every allocation counted during the calls is the tracer's.

use pz_llm::{
    CallShare, CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse,
    LlmClient, LlmError, TracedClient, Usage, VirtualClock,
};
use pz_obs::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting allocation calls and the bytes live.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("an allocation is smaller than 2^63 bytes")
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(bytes(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes(new_size) - bytes(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A provider that answers every completion with the same response. Its
/// text is empty, so cloning the response allocates nothing.
struct Canned(CompletionResponse);

impl LlmClient for Canned {
    fn complete(&self, _req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        Ok(self.0.clone())
    }

    fn embed(&self, _req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        unimplemented!("this test makes completion calls only")
    }
}

#[test]
fn a_provider_call_span_is_one_small_row() {
    const CALLS: usize = 10_000;
    let provider = Arc::new(Canned(CompletionResponse {
        text: String::new(),
        usage: Usage::new(412, 37),
        latency_secs: 1.234_567_8,
        cost_usd: 0.003_21,
        replayed: CallShare::default(),
    }));
    let requests = [
        CompletionRequest::new("gpt-4o", "a"),
        CompletionRequest::new("llama-3-70b", "b"),
    ];
    let (allocations, live) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    let tracer = Tracer::new(Arc::new(VirtualClock::new()));
    let client = TracedClient::new(provider, tracer.clone());
    for i in 0..CALLS {
        client
            .complete(&requests[i % 2])
            .expect("the canned provider never fails");
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let retained = LIVE_BYTES.load(Ordering::Relaxed) - live;
    let per_call = allocations as f64 / CALLS as f64;
    let per_span = retained as f64 / CALLS as f64;
    println!("{per_call:.3} allocations per call, {per_span:.1} B retained per span");
    assert_eq!(tracer.span_count(), CALLS);
    assert!(per_call <= 1.0, "{per_call} allocations per call");
    assert!(per_span <= 200.0, "{per_span} B retained per span");
}
