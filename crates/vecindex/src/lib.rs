#![warn(missing_docs)]
//! Chunking vector index with top-k cosine retrieval.
//!
//! Reproduces the paper's LlamaIndex configuration: documents are split into
//! chunks of 512 tokens with an overlap of 20, each chunk is embedded, and
//! queries retrieve the top-k chunks by cosine similarity (the paper uses
//! k = 15 before self-reflection filtering). Batch searches run in parallel
//! with rayon, mirroring IOAgent's parallel per-fragment retrieval.
//!
//! # Engine layout
//!
//! Vectors live in a flat struct-of-arrays [`VectorArena`] (`n × dim`
//! contiguous `f32`s plus a norm cached per row at insert) instead of one
//! heap allocation per entry; [`IndexEntry`] carries only metadata, with
//! `doc_id`/`citation` shared across a document's chunks via `Arc<str>`.
//! A search embeds the query once into a reused thread-local buffer,
//! computes its norm once, streams the arena through a norm-cached
//! dot-product kernel ([`ioembed::dot`], unrolled but summation-order
//! preserving), and keeps the best k in a bounded heap ([`topk::TopK`]) —
//! O(n·d + n log k) with zero per-entry allocation. Scores and orderings
//! are bit-identical to the original scan-score-sort path, which survives
//! as the executable spec in [`mod@reference`]. Every search, single or
//! batched, is this exact scan: the index has one layout and no
//! approximate tier.
//!
//! # The query-blocked batch
//!
//! [`VectorIndex::search_batch`] groups batch queries into blocks of
//! [`VectorArena::QUERY_BLOCK`] and streams the arena **once per block**
//! instead of once per query ([`VectorArena::dot_block_batch`] /
//! [`ioembed::dot_multi`]), turning the DRAM-bandwidth-bound batch into an
//! arithmetic-bound one. Per-query results stay byte-identical to
//! [`VectorIndex::search`].

pub mod arena;
pub mod chunk;
pub mod reference;
pub mod topk;

pub use arena::VectorArena;
pub use chunk::{chunk_text, Chunk};
pub use topk::{top_k, TopK};

use ioembed::Embedder;
use rayon::prelude::*;
use serde::Serialize;
use std::cell::RefCell;
use std::sync::Arc;

/// Default chunk size in tokens (LlamaIndex default used by the paper).
pub const DEFAULT_CHUNK_SIZE: usize = 512;
/// Default chunk overlap in tokens.
pub const DEFAULT_OVERLAP: usize = 20;

/// Rows below which a search scans inline rather than splitting across the
/// thread pool (spawn overhead would dwarf the scan).
const MIN_ROWS_PER_SHARD: usize = 1024;

/// One indexed chunk (metadata only; its vector lives in the arena at the
/// same row index).
#[derive(Debug, Clone, Serialize)]
pub struct IndexEntry {
    /// Identifier of the source document, shared across the document's
    /// chunks (`Arc<str>`, not a per-chunk `String` clone).
    pub doc_id: Arc<str>,
    /// Human-readable citation for the source (title, venue, year), shared
    /// like `doc_id`.
    pub citation: Arc<str>,
    /// Chunk ordinal within the document.
    pub chunk_no: usize,
    /// The chunk text.
    pub text: String,
}

/// A retrieval hit.
#[derive(Debug, Clone, Copy)]
pub struct SearchHit {
    /// Cosine similarity to the query.
    pub score: f32,
    /// Index of the entry within the index.
    pub entry_idx: usize,
}

thread_local! {
    /// Reused query-embedding buffer: one allocation per thread, then
    /// every `search` on that thread embeds into it allocation-free.
    static QUERY_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Ends a scan span and records its latency histogram on every exit path
/// of the scoring functions (they return from several branches).
struct ScanTimer {
    start: std::time::Instant,
    _span: ioobserve::Span,
}

impl Drop for ScanTimer {
    fn drop(&mut self) {
        ioobserve::metrics()
            .histogram("vecindex.scan_ns")
            .record_duration(self.start.elapsed());
    }
}

/// An in-memory vector index over chunked documents.
#[derive(Debug, Clone)]
pub struct VectorIndex {
    embedder: Embedder,
    chunk_size: usize,
    overlap: usize,
    entries: Vec<IndexEntry>,
    arena: VectorArena,
}

impl Default for VectorIndex {
    fn default() -> Self {
        VectorIndex::new(Embedder::default(), DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP)
    }
}

impl VectorIndex {
    /// Create an empty index with explicit hyper-parameters.
    pub fn new(embedder: Embedder, chunk_size: usize, overlap: usize) -> Self {
        assert!(chunk_size > overlap, "chunk size must exceed overlap");
        let dim = embedder.dim;
        VectorIndex {
            embedder,
            chunk_size,
            overlap,
            entries: Vec::new(),
            arena: VectorArena::new(dim),
        }
    }

    /// Reassemble an index from previously serialized parts (e.g. an
    /// `iostore` snapshot). Entries and arena are taken as-is — vectors
    /// are NOT re-embedded — so the caller is responsible for checking
    /// that the embedder configuration matches the one the parts were
    /// built with (the snapshot header carries exactly that fingerprint).
    pub fn from_parts(
        embedder: Embedder,
        chunk_size: usize,
        overlap: usize,
        entries: Vec<IndexEntry>,
        arena: VectorArena,
    ) -> Self {
        assert!(chunk_size > overlap, "chunk size must exceed overlap");
        assert_eq!(arena.dim(), embedder.dim, "arena/embedder dim mismatch");
        assert_eq!(
            arena.len(),
            entries.len(),
            "every entry needs exactly one arena row"
        );
        VectorIndex {
            embedder,
            chunk_size,
            overlap,
            entries,
            arena,
        }
    }

    /// The embedder this index embeds queries (and documents) with.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// Chunk size in tokens.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Chunk overlap in tokens.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// All indexed entries, in insertion order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The vector arena backing this index: row `i` belongs to entry `i`.
    pub fn arena(&self) -> &VectorArena {
        &self.arena
    }

    /// Entry `idx`'s embedding vector.
    pub fn vector(&self, idx: usize) -> &[f32] {
        self.arena.row(idx)
    }

    /// Chunk, embed, and add a document.
    pub fn add_document(&mut self, doc_id: &str, citation: &str, text: &str) {
        let doc_id: Arc<str> = Arc::from(doc_id);
        let citation: Arc<str> = Arc::from(citation);
        let first_new = self.entries.len();
        let mut vbuf = Vec::with_capacity(self.embedder.dim);
        for (i, chunk) in chunk_text(text, self.chunk_size, self.overlap)
            .into_iter()
            .enumerate()
        {
            self.embedder.embed_into(&chunk.text, &mut vbuf);
            self.arena.push(&vbuf);
            self.entries.push(IndexEntry {
                doc_id: Arc::clone(&doc_id),
                citation: Arc::clone(&citation),
                chunk_no: i,
                text: chunk.text,
            });
        }
        // Memory shape: every chunk this call appended aliases one doc_id /
        // citation allocation (the satellite this refactor pins).
        debug_assert!(self.entries[first_new..]
            .iter()
            .all(|e| Arc::ptr_eq(&e.doc_id, &doc_id) && Arc::ptr_eq(&e.citation, &citation)));
    }

    /// Number of chunks in the index.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Access an entry by index.
    pub fn entry(&self, idx: usize) -> &IndexEntry {
        &self.entries[idx]
    }

    /// Top-k entries by cosine similarity to `query`.
    ///
    /// The query is embedded once into a reused thread-local buffer and
    /// its norm computed once; every arena row is then scored with the
    /// cached-norm dot kernel and offered to a bounded k-heap. Results are
    /// bit-identical to [`reference::search`] (the old scan-score-sort
    /// path): same float operations per score, same
    /// `total_cmp`-descending / entry-index-ascending order, pinned by
    /// `tests/retrieval_equivalence.rs` and the top-k property test.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        // Take the buffer out of the thread-local rather than holding its
        // RefCell borrow across the nested parallel scan: with a
        // work-stealing scheduler (real rayon; this repo's shim never
        // steals foreign tasks, but don't depend on that), a stolen
        // sibling `search` on this thread would re-borrow and panic.
        let mut qv = QUERY_BUF.with(|buf| std::mem::take(&mut *buf.borrow_mut()));
        {
            let embed_start = std::time::Instant::now();
            let _span = ioobserve::tracer().span_fine("vecindex.embed");
            self.embedder.embed_into(query, &mut qv);
            ioobserve::metrics()
                .histogram("vecindex.embed_ns")
                .record_duration(embed_start.elapsed());
        }
        let hits = self.search_embedded(&qv, k);
        QUERY_BUF.with(|buf| *buf.borrow_mut() = qv);
        hits
    }

    /// [`VectorIndex::search`] with an already-embedded query vector.
    ///
    /// Large indexes shard the scan across the rayon pool, each shard
    /// keeping its own k-heap; shard winners are re-selected through one
    /// final heap. Because per-row scores do not depend on sharding and
    /// the heap order is total, the merged result is identical at any
    /// thread count (pinned by `tests/parallel_equivalence.rs`).
    fn search_embedded(&self, qv: &[f32], k: usize) -> Vec<SearchHit> {
        assert_eq!(qv.len(), self.arena.dim(), "query dimension mismatch");
        let n = self.arena.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let qnorm = ioembed::norm(qv);
        let scan_start = std::time::Instant::now();
        let mut span = ioobserve::tracer().span_fine("vecindex.scan");
        span.set_attr("rows", n);
        let m = ioobserve::metrics();
        m.counter("vecindex.queries").inc();
        m.counter("vecindex.rows_scanned").add(n as u64);
        let _scan_guard = ScanTimer {
            start: scan_start,
            _span: span,
        };
        let shards = rayon::current_num_threads().min(n.div_ceil(MIN_ROWS_PER_SHARD));
        if shards <= 1 {
            return self.scan_shard(qv, qnorm, 0, n, k).into_sorted_hits();
        }
        // Even row partition; shard boundaries cannot change scores.
        let bounds: Vec<(usize, usize)> = (0..shards)
            .map(|s| {
                let base = n / shards;
                let rem = n % shards;
                let start = s * base + s.min(rem);
                (start, start + base + usize::from(s < rem))
            })
            .collect();
        let locals: Vec<Vec<SearchHit>> = bounds
            .par_iter()
            .map(|&(start, end)| self.scan_shard(qv, qnorm, start, end, k).into_sorted_hits())
            .collect();
        let mut merged = TopK::new(k);
        for hit in locals.into_iter().flatten() {
            merged.push(hit.score, hit.entry_idx);
        }
        merged.into_sorted_hits()
    }

    /// Score rows `start..end` against the query, keeping the best `k`.
    ///
    /// Rows go through [`VectorArena::dot_block`] eight at a time so eight
    /// independent accumulator chains pipeline (a single bit-faithful dot
    /// is add-latency-bound); the tail falls back to the one-row kernel.
    /// Both produce bit-identical per-row dots, and rows are offered to
    /// the heap in index order either way.
    fn scan_shard(&self, qv: &[f32], qnorm: f32, start: usize, end: usize, k: usize) -> TopK {
        const BLOCK: usize = VectorArena::DOT_BLOCK;
        let mut top = TopK::new(k);
        let push_single = |top: &mut TopK, i: usize| {
            let score = ioembed::cosine_with_norms(
                ioembed::dot(qv, self.arena.row(i)),
                qnorm,
                self.arena.norm(i),
            );
            top.push(score, i);
        };
        let mut i = start;
        // Leading rows up to block alignment, then full packed blocks,
        // then the tail — all offered to the heap in index order.
        while i < end && !i.is_multiple_of(BLOCK) {
            push_single(&mut top, i);
            i += 1;
        }
        let mut dots = [0.0f32; BLOCK];
        while i + BLOCK <= end {
            self.arena.dot_block(qv, i, &mut dots);
            for (j, &dot) in dots.iter().enumerate() {
                let score = ioembed::cosine_with_norms(dot, qnorm, self.arena.norm(i + j));
                top.push(score, i + j);
            }
            i += BLOCK;
        }
        while i < end {
            push_single(&mut top, i);
            i += 1;
        }
        top
    }

    /// Run many queries, each returning its own top-k, byte-identical to
    /// per-query [`VectorIndex::search`] calls.
    ///
    /// Queries are embedded once up front, grouped into blocks of
    /// [`VectorArena::QUERY_BLOCK`], and each block streams the arena
    /// **once** for all of its queries — the query-blocked kernel that
    /// reuses every loaded row across the whole block instead of
    /// re-streaming n×dim floats per query. Blocks run in parallel on the
    /// rayon pool; blocks are independent, so results are identical at any
    /// thread width.
    pub fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<SearchHit>> {
        let embedded: Vec<Vec<f32>> = queries.par_iter().map(|q| self.embedder.embed(q)).collect();
        let blocks: Vec<&[Vec<f32>]> = embedded.chunks(VectorArena::QUERY_BLOCK).collect();
        let per_block: Vec<Vec<Vec<SearchHit>>> = blocks
            .par_iter()
            .map(|block| {
                let refs: Vec<&[f32]> = block.iter().map(Vec::as_slice).collect();
                self.search_block_flat(&refs, k)
            })
            .collect();
        per_block.into_iter().flatten().collect()
    }

    /// Top-k for one block of ≤ [`VectorArena::QUERY_BLOCK`] queries,
    /// streaming shared rows once for the whole block.
    fn search_block_flat(&self, block: &[&[f32]], k: usize) -> Vec<Vec<SearchHit>> {
        let n = self.arena.len();
        if n == 0 || k == 0 {
            return block.iter().map(|_| Vec::new()).collect();
        }
        let qnorms: Vec<f32> = block.iter().map(|q| ioembed::norm(q)).collect();
        const B: usize = VectorArena::DOT_BLOCK;
        let mut tops: Vec<TopK> = block.iter().map(|_| TopK::new(k)).collect();
        // Full packed blocks through the query-blocked kernel…
        let full = n - n % B;
        let mut dots = vec![0.0f32; block.len() * B];
        let mut i = 0;
        while i < full {
            self.arena.dot_block_batch(block, i, &mut dots);
            for ((q, top), dot_lanes) in tops.iter_mut().enumerate().zip(dots.chunks_exact(B)) {
                for (j, &dot) in dot_lanes.iter().enumerate() {
                    let score = ioembed::cosine_with_norms(dot, qnorms[q], self.arena.norm(i + j));
                    top.push(score, i + j);
                }
            }
            i += B;
        }
        // …then the trailing rows through the one-row multi-query kernel.
        let mut row_dots = vec![0.0f32; block.len()];
        for i in full..n {
            ioembed::dot_multi(block, self.arena.row(i), &mut row_dots);
            for ((top, &dot), &qnorm) in tops.iter_mut().zip(&row_dots).zip(&qnorms) {
                top.push(
                    ioembed::cosine_with_norms(dot, qnorm, self.arena.norm(i)),
                    i,
                );
            }
        }
        tops.into_iter().map(TopK::into_sorted_hits).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index() -> VectorIndex {
        let mut ix = VectorIndex::new(Embedder::default(), 64, 8);
        ix.add_document(
            "doc-stripe",
            "[Striping for Parallel I/O, SC 2021]",
            "Lustre stripe count determines how many object storage targets serve a file. \
             A stripe count of one serialises all accesses onto a single OST, limiting \
             bandwidth and parallelism. Increasing the stripe count spreads server load.",
        );
        ix.add_document(
            "doc-collective",
            "[Collective I/O Revisited, IPDPS 2022]",
            "Collective MPI-IO operations aggregate many small independent requests into \
             large contiguous transfers, dramatically improving shared-file write bandwidth.",
        );
        ix.add_document(
            "doc-metadata",
            "[Metadata Scalability, FAST 2023]",
            "Excessive open, stat and close operations overload the metadata server. \
             Batching metadata operations or caching attributes reduces latency.",
        );
        ix
    }

    #[test]
    fn retrieval_prefers_topical_document() {
        let ix = small_index();
        let hits = ix.search("stripe count of 1 limits parallelism on a single OST", 2);
        assert_eq!(&*ix.entry(hits[0].entry_idx).doc_id, "doc-stripe");
        assert!(hits[0].score > 0.2);
    }

    #[test]
    fn search_returns_at_most_k() {
        let ix = small_index();
        assert_eq!(ix.search("metadata", 1).len(), 1);
        assert!(ix.search("metadata", 100).len() <= ix.len());
    }

    #[test]
    fn batch_matches_individual_searches() {
        let ix = small_index();
        let queries = vec![
            "collective aggregation of small writes".to_string(),
            "stat storm".to_string(),
        ];
        let batch = ix.search_batch(&queries, 2);
        for (q, hits) in queries.iter().zip(&batch) {
            let single = ix.search(q, 2);
            let a: Vec<usize> = hits.iter().map(|h| h.entry_idx).collect();
            let b: Vec<usize> = single.iter().map(|h| h.entry_idx).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn long_document_produces_multiple_chunks() {
        let mut ix = VectorIndex::new(Embedder::default(), 32, 4);
        let long = "word ".repeat(200);
        ix.add_document("long", "[Long]", &long);
        assert!(ix.len() > 3);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let ix = VectorIndex::default();
        assert!(ix.search("anything", 5).is_empty());
        assert!(ix.is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must exceed overlap")]
    fn bad_hyperparameters_panic() {
        VectorIndex::new(Embedder::default(), 10, 10);
    }

    #[test]
    fn from_parts_reconstructs_an_equivalent_index() {
        let ix = small_index();
        let rebuilt = VectorIndex::from_parts(
            ix.embedder().clone(),
            ix.chunk_size(),
            ix.overlap(),
            ix.entries().to_vec(),
            ix.arena().clone(),
        );
        assert_eq!(rebuilt.len(), ix.len());
        let q = "collective aggregation of small writes";
        let a: Vec<usize> = ix.search(q, 3).iter().map(|h| h.entry_idx).collect();
        let b: Vec<usize> = rebuilt.search(q, 3).iter().map(|h| h.entry_idx).collect();
        assert_eq!(a, b);
    }

    /// The Arc-sharing satellite: every chunk of a document must alias the
    /// same doc_id / citation allocation rather than cloning the strings.
    #[test]
    fn chunks_of_one_document_share_metadata_allocations() {
        let mut ix = VectorIndex::new(Embedder::default(), 32, 4);
        ix.add_document("shared", "[Shared, V 2024]", &"tok ".repeat(200));
        assert!(ix.len() > 2, "need multiple chunks for the test to bite");
        let first = ix.entry(0);
        for i in 1..ix.len() {
            let e = ix.entry(i);
            assert!(
                Arc::ptr_eq(&first.doc_id, &e.doc_id),
                "chunk {i} doc_id is a separate allocation"
            );
            assert!(
                Arc::ptr_eq(&first.citation, &e.citation),
                "chunk {i} citation is a separate allocation"
            );
        }
    }

    /// Engine-vs-reference equivalence in miniature (the full-corpus pin
    /// lives in tests/retrieval_equivalence.rs).
    #[test]
    fn engine_matches_reference_bit_for_bit() {
        let ix = small_index();
        for k in [1, 2, 5, 100] {
            for q in [
                "stripe count of 1 limits parallelism",
                "metadata stat storm",
                "",
            ] {
                let engine: Vec<(u32, usize)> = ix
                    .search(q, k)
                    .iter()
                    .map(|h| (h.score.to_bits(), h.entry_idx))
                    .collect();
                let reference: Vec<(u32, usize)> = reference::search(&ix, q, k)
                    .iter()
                    .map(|h| (h.score.to_bits(), h.entry_idx))
                    .collect();
                assert_eq!(engine, reference, "k={k} q={q:?}");
            }
        }
    }

    /// Force the sharded path (n ≥ MIN_ROWS_PER_SHARD rows) and check it
    /// still matches the sequential reference.
    #[test]
    fn sharded_scan_matches_reference() {
        let mut ix = VectorIndex::new(Embedder::new(8), 4, 1);
        // ~1.3k chunks of repetitive but distinguishable text.
        for d in 0..40 {
            let text: String = (0..130)
                .map(|i| format!("w{} ", (d * 7 + i) % 90))
                .collect();
            ix.add_document(&format!("d{d}"), "[C]", &text);
        }
        assert!(ix.len() >= MIN_ROWS_PER_SHARD, "len {}", ix.len());
        let q = "w3 w40 w77";
        let engine: Vec<(u32, usize)> = ix
            .search(q, 15)
            .iter()
            .map(|h| (h.score.to_bits(), h.entry_idx))
            .collect();
        let reference: Vec<(u32, usize)> = reference::search(&ix, q, 15)
            .iter()
            .map(|h| (h.score.to_bits(), h.entry_idx))
            .collect();
        assert_eq!(engine, reference);
    }
}
