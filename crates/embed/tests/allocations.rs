//! Exact CPU-work pin: `Embedder::embed_into` allocates nothing once its
//! thread-local scratch and the caller's output buffer have grown to the
//! largest text seen. A counting global allocator tallies the
//! allocations made on the calling thread.

use ioembed::Embedder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn embed_into_allocates_nothing_after_warm_up() {
    let embedder = Embedder::default();
    let texts = [
        "The application issues 25600 POSIX writes, 95% of them below 1 MB, from 16 ranks \
         onto a Lustre file striped over 1 OST; collective buffering is off.",
        "stripe count one serialises onto a single OST",
        "",
        "Small write requests below the stripe size waste parallel file system bandwidth.",
    ];
    let mut out = Vec::new();
    // Warm-up on the longest text grows the scratch buffers and `out`.
    embedder.embed_into(texts[0], &mut out);
    let before = allocations();
    for _ in 0..3 {
        for text in texts {
            embedder.embed_into(text, &mut out);
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "embed_into allocated after warm-up"
    );
    // The counter does see this thread's allocations: `embed` returns a
    // fresh vector.
    let before = allocations();
    assert_eq!(out, embedder.embed(texts[3]));
    assert_eq!(allocations() - before, 1);
}
