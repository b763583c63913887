//! Exact CPU-work pin: heap allocations per self-reflection batch.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread. Retrieval sends its 15 `filter` prompts as one
//! `complete_all` batch; on a one-thread shim pool the whole batch runs
//! on this thread, so the count is exact and the same on every run. A
//! change that adds (or saves) an allocation per call moves the pinned
//! number by 15.

use simllm::{CompletionRequest, LanguageModel, SimLlm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations (fresh, zeroed and resized) per 15-prompt batch.
const ALLOCATIONS_PER_BATCH: u64 = 71;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only bumps a thread-local
// `Cell` with a const initialiser, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One retrieval's reflection batch, shaped as `Retriever::retrieve_k`
/// builds it: one query, 15 single-line sources.
fn reflection_batch() -> Vec<CompletionRequest> {
    let query = "The application issues 25600 POSIX writes, 95% of them below 1 MB, \
                 from 16 ranks onto a Lustre file striped over 1 OST.";
    (0..15)
        .map(|i| {
            let source = format!(
                "Source {i}. Small write requests below the stripe size waste parallel \
                 file system bandwidth; aggregate them with collective buffering or a \
                 larger transfer size, and widen the stripe count to {} OSTs.",
                i + 2
            );
            CompletionRequest::new(
                "Decide whether the source is relevant to the fragment.",
                format!("### TASK: filter\n## FRAGMENT\n{query}\n## SOURCE\n{source}\n"),
            )
        })
        .collect()
}

#[test]
fn a_reflection_batch_allocates_the_pinned_count() {
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let model = SimLlm::new("gpt-4o-mini");
    let batch = reflection_batch();
    let used = one_thread.install(|| {
        // Warm-up: the first delivery looks up the metric handles.
        let warm = model.complete_all(&batch);
        let before = allocations();
        let verdicts = model.complete_all(&batch);
        let used = allocations() - before;
        assert_eq!(verdicts, warm);
        used
    });
    assert_eq!(
        used, ALLOCATIONS_PER_BATCH,
        "allocations per 15-prompt filter batch changed"
    );
}
