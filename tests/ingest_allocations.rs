//! Exact CPU-work pin: heap allocations of a job's ingest.
//!
//! Ingest is everything a worker does to a request before the first LLM
//! call: `protocol::parse_line` (the NDJSON envelope and the Darshan
//! text), the cache-key fingerprint, and `preprocessor::extract_fragments`.
//! A counting global allocator tallies the allocations made on the calling
//! thread over all 40 TraceBench request lines, so the count is exact and
//! the same on every run. A change that adds one allocation per counter
//! row moves the pin by about 19,000; one per record, by about 2,800.

use ioagentd::protocol::{self, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tracebench::TraceBench;

/// Heap allocations (fresh, zeroed and resized) over the 40 request
/// lines: 793.0 per trace on average. With counters kept in a
/// `BTreeMap<String, _>` per record and summaries that built each counter
/// name with `format!`, the same ingest made 294,399 (7,360.0 per trace).
const ALLOCATIONS_PER_SUITE: u64 = 31_719;

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

/// Allocations of one request line's ingest.
fn ingest(line: &str, id: &str) -> u64 {
    let before = allocations();
    let Ok(Request::Job(job)) = protocol::parse_line(line, id) else {
        panic!("{id}: not a job request");
    };
    let key = job.fingerprint();
    let fragments = preprocessor::extract_fragments(&job.trace);
    let used = allocations() - before;
    assert!(key.trace_hash != 0 && !fragments.is_empty(), "{id}");
    drop((job, key, fragments));
    used
}

#[test]
fn ingest_of_the_suite_allocates_the_pinned_count() {
    let suite = TraceBench::generate();
    let lines: Vec<(&str, String)> = suite
        .entries
        .iter()
        .map(|e| {
            let line = serde_json::to_string(&serde_json::json!({
                "id": e.spec.id,
                "trace": darshan::write::write_text(&e.trace),
                "model": "gpt-4o",
            }))
            .unwrap();
            (e.spec.id, line)
        })
        .collect();
    // Warm-up: first uses may fill process-wide tables.
    for (id, line) in &lines {
        ingest(line, id);
    }
    let used: u64 = lines.iter().map(|(id, line)| ingest(line, id)).sum();
    assert_eq!(
        used,
        ALLOCATIONS_PER_SUITE,
        "ingest allocations over the 40 traces changed ({:.1} per trace)",
        used as f64 / lines.len() as f64
    );
}
