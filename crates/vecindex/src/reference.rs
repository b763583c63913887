//! The pre-arena retrieval path, kept as an executable specification.
//!
//! This is, line for line, what `VectorIndex::search` did before the
//! engine rebuild: score **every** entry with `ioembed::cosine` (which
//! recomputes both the query's and the entry's norm per call), materialise
//! a [`SearchHit`] per entry, full-sort descending with the
//! `total_cmp` + entry-index tie-break, and truncate to `k`.
//!
//! The engine must match it bit for bit — same scores, same order — which
//! `tests/retrieval_equivalence.rs` pins over the seed knowledge corpus,
//! and the retrieval benchmark both asserts and uses as its speedup
//! baseline.

use crate::{SearchHit, VectorIndex};

/// Scan-score-sort search over `index` (the old hot path, sequential).
pub fn search(index: &VectorIndex, query: &str, k: usize) -> Vec<SearchHit> {
    let qv = index.embedder().embed(query);
    let mut scored: Vec<SearchHit> = (0..index.len())
        .map(|i| SearchHit {
            score: ioembed::cosine(&qv, index.vector(i)),
            entry_idx: i,
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.entry_idx.cmp(&b.entry_idx))
    });
    scored.truncate(k);
    scored
}
