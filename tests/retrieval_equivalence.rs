//! Old-path vs new-path retrieval equivalence (ISSUE 4).
//!
//! The retrieval engine rebuild (flat vector arena, cached norms, unrolled
//! dot kernel, bounded-heap top-k, thread-local query buffers) must be a
//! pure performance change: over the seed knowledge corpus, `search` must
//! return **byte-identical** scores and orderings to the seed-era
//! scan-score-sort path, which survives as the executable spec in
//! `vecindex::reference`.

use ioagent_core::rag::Retriever;
use vecindex::{reference, SearchHit, VectorIndex};

/// Queries shaped like the trace-fragment descriptions the agent issues.
const QUERIES: &[&str] = &[
    "the value of 1.0 in the 1K to 10K bin indicates that 100% of the write \
     operations fall within the 1 KB to 10 KB range; many frequent small \
     write requests from 16 processes",
    "the mean stripe width is 1.0 and the job used 1 of 64 available object \
     storage targets, serialising server load on a single OST",
    "excessive metadata operations: thousands of open and stat calls \
     dominate the runtime",
    "collective MPI-IO aggregation of small independent requests",
    "random access pattern with poor sequential locality on reads",
    "",
];

fn bits(hits: &[SearchHit]) -> Vec<(u32, usize)> {
    hits.iter()
        .map(|h| (h.score.to_bits(), h.entry_idx))
        .collect()
}

fn corpus_index() -> VectorIndex {
    // The retriever builds over the full seed knowledge corpus (66 docs).
    let r = Retriever::build();
    r.index().clone()
}

#[test]
fn engine_search_matches_reference_on_the_seed_corpus() {
    let ix = corpus_index();
    for q in QUERIES {
        for k in [1usize, 15, 1000] {
            let engine = bits(&ix.search(q, k));
            let spec = bits(&reference::search(&ix, q, k));
            assert_eq!(engine, spec, "k={k} q={q:?}");
        }
    }
}

/// The full corpus chunked finely and replicated past 1024 rows: many
/// packed blocks plus a trailing partial block, still byte-identical to
/// the reference scan.
#[test]
fn fine_chunked_corpus_matches_reference() {
    // Rebuild the corpus with small chunks, replicated under distinct doc
    // ids as needed.
    let mut ix = VectorIndex::new(ioembed::Embedder::default(), 32, 4);
    let mut rep = 0;
    while ix.len() <= 1024 {
        for doc in knowledge::corpus() {
            let text = format!("{}. {}", doc.title, doc.body);
            ix.add_document(&format!("{}-r{rep}", doc.id), &doc.citation(), &text);
        }
        rep += 1;
        assert!(rep < 32, "corpus replication runaway");
    }
    for q in QUERIES {
        let engine = bits(&ix.search(q, 15));
        let spec = bits(&reference::search(&ix, q, 15));
        assert_eq!(engine, spec, "diverged on {q:?}");
    }
}
