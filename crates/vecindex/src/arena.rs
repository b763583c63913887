//! Flat struct-of-arrays storage for embedding vectors.
//!
//! The seed-era index held one heap `Vec<f32>` per entry, so a 10k-chunk
//! scan chased 10k scattered allocations. [`VectorArena`] packs all
//! vectors into a single contiguous `n × dim` buffer — rows are adjacent
//! in memory, so the scoring loop streams through cache lines — and
//! caches each row's Euclidean norm once at insert, computed with the same
//! [`ioembed::norm`] the old per-query cosine called, so cached-norm
//! scores are bit-identical to recomputed ones.
//!
//! # Why two layouts
//!
//! A bit-faithful dot product is a serial chain of f32 adds, so one row's
//! scan is bound by add *latency*, not throughput — which is also why the
//! seed scan got the two norm recomputations almost for free (independent
//! chains overlap in the out-of-order window). The only way to go faster
//! without reordering any row's summation is to keep **many rows'** chains
//! in flight at once. [`VectorArena::dot_block`] therefore scores
//! [`VectorArena::DOT_BLOCK`] rows per pass over a second, lane-interleaved
//! copy of the data (`packed`: the block's 8 rows' d-th lanes stored
//! adjacently), so each dimension step is a single 8-wide vector
//! multiply-add — one SIMD lane per row, every lane still folding strictly
//! left-to-right from `-0.0`. Per-row results are bit-identical to
//! [`ioembed::dot`]; only cross-row scheduling changes. The row-major copy
//! stays authoritative for [`VectorArena::row`] (snapshots, the reference
//! path, tests); the ~2× vector memory is the price of scoring at memory
//! bandwidth instead of add latency.

/// Contiguous row-major vector storage with per-row cached norms and a
/// lane-interleaved scoring copy.
#[derive(Debug, Clone, Default)]
pub struct VectorArena {
    dim: usize,
    /// Row-major `n × dim`.
    data: Vec<f32>,
    /// Lane-interleaved complete blocks: block `b`, lane `d`, row-in-block
    /// `j` lives at `((b * dim) + d) * DOT_BLOCK + j`.
    packed: Vec<f32>,
    norms: Vec<f32>,
}

impl VectorArena {
    /// Empty arena for vectors of `dim` lanes.
    pub fn new(dim: usize) -> Self {
        VectorArena {
            dim,
            data: Vec::new(),
            packed: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// Empty arena with room for `rows` vectors.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        VectorArena {
            dim,
            data: Vec::with_capacity(dim * rows),
            packed: Vec::with_capacity(dim * rows),
            norms: Vec::with_capacity(rows),
        }
    }

    /// Lanes per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Append a row, caching its norm. Returns the new row's index.
    pub fn push(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "arena row dimension mismatch");
        self.data.extend_from_slice(v);
        self.norms.push(ioembed::norm(v));
        let n = self.norms.len();
        if n.is_multiple_of(Self::DOT_BLOCK) {
            // A block just completed: interleave its 8 rows into `packed`.
            let base = n - Self::DOT_BLOCK;
            for d in 0..self.dim {
                for j in 0..Self::DOT_BLOCK {
                    self.packed.push(self.data[(base + j) * self.dim + d]);
                }
            }
        }
        n - 1
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Cached Euclidean norm of row `i` (bit-identical to
    /// `ioembed::norm(self.row(i))`).
    #[inline]
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// Rows scored per pass by [`VectorArena::dot_block`].
    pub const DOT_BLOCK: usize = 8;

    /// Dot products of `qv` against the [`VectorArena::DOT_BLOCK`] rows
    /// starting at `start` (which must be block-aligned with all 8 rows
    /// present), written to `out[j]` for row `start + j`.
    ///
    /// Each dimension step reads the 8 rows' `d`-th lanes as one
    /// contiguous run of the interleaved layout and folds them into 8
    /// per-row accumulators — a vertical SIMD multiply-add after
    /// auto-vectorisation, with every lane still a strict left-to-right
    /// f32 fold from `-0.0` (the `Iterator::sum` identity). See the module
    /// docs for why this, and not a smarter single-row kernel, is what
    /// beats the seed scan.
    #[inline]
    pub fn dot_block(&self, qv: &[f32], start: usize, out: &mut [f32; Self::DOT_BLOCK]) {
        const B: usize = VectorArena::DOT_BLOCK;
        assert_eq!(qv.len(), self.dim, "query dimension mismatch");
        assert_eq!(start % B, 0, "dot_block start must be block-aligned");
        assert!(
            start + B <= self.len() - self.len() % B,
            "dot_block needs a complete packed block: rows {start}..{} but only {} of {} rows \
             are in complete blocks (score trailing rows with the one-row kernel)",
            start + B,
            self.len() - self.len() % B,
            self.len(),
        );
        let dim = self.dim;
        let qv = &qv[..dim];
        let block = &self.packed[(start / B) * dim * B..(start / B + 1) * dim * B];
        fold_packed_block(block, qv, out);
    }
}

/// Fold one lane-interleaved complete block (8 rows' `d`-th lanes stored
/// adjacently per dimension) against `qv`: `out[j]` becomes the dot of
/// `qv` with the block's `j`-th row, each lane a strict left-to-right f32
/// fold from `-0.0` (the `Iterator::sum` identity) — a vertical 8-wide
/// multiply-add after auto-vectorisation.
fn fold_packed_block(block: &[f32], qv: &[f32], out: &mut [f32; VectorArena::DOT_BLOCK]) {
    const B: usize = VectorArena::DOT_BLOCK;
    debug_assert_eq!(block.len(), qv.len() * B, "one 8-lane column per dim");
    let mut acc = [-0.0f32; B];
    for (col, &q) in block.chunks_exact(B).zip(qv) {
        for j in 0..B {
            acc[j] += q * col[j];
        }
    }
    *out = acc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_norms_match_recompute() {
        let mut arena = VectorArena::new(4);
        let rows = [
            [1.0f32, 0.0, 0.0, 0.0],
            [0.3, -0.4, 0.5, 0.1],
            [0.0, 0.0, 0.0, 0.0],
        ];
        for r in &rows {
            arena.push(r);
        }
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.dim(), 4);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(arena.row(i), r);
            assert_eq!(
                arena.norm(i).to_bits(),
                ioembed::norm(r).to_bits(),
                "cached norm must be bit-identical to recomputation"
            );
        }
    }

    #[test]
    fn push_returns_row_index() {
        let mut arena = VectorArena::with_capacity(2, 8);
        assert_eq!(arena.push(&[1.0, 2.0]), 0);
        assert_eq!(arena.push(&[3.0, 4.0]), 1);
        assert!(!arena.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_width_row_panics() {
        VectorArena::new(4).push(&[1.0, 2.0]);
    }

    /// Every lane of a block dot must be bit-identical to the one-row
    /// kernel (and hence to the naive sequential fold) — the interleaved
    /// layout and cross-row SIMD may change scheduling, never results.
    #[test]
    fn dot_block_is_bit_identical_to_single_row_dots() {
        let dim = 37; // odd, exercises unaligned lane indexing
        let mut arena = VectorArena::new(dim);
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) as f32 * if state & 1 == 0 { 1.0 } else { -1e-3 }
        };
        for _ in 0..VectorArena::DOT_BLOCK * 3 {
            let row: Vec<f32> = (0..dim).map(|_| next()).collect();
            arena.push(&row);
        }
        let qv: Vec<f32> = (0..dim).map(|_| next()).collect();
        let mut out = [0.0f32; VectorArena::DOT_BLOCK];
        for start in (0..arena.len()).step_by(VectorArena::DOT_BLOCK) {
            arena.dot_block(&qv, start, &mut out);
            for (j, lane) in out.iter().enumerate() {
                assert_eq!(
                    lane.to_bits(),
                    ioembed::dot(&qv, arena.row(start + j)).to_bits(),
                    "row {} diverged",
                    start + j
                );
            }
        }
    }

    /// `packed` only holds complete blocks; trailing rows are scored by
    /// the one-row kernel, so a non-multiple-of-8 arena must still expose
    /// every row consistently.
    #[test]
    fn partial_trailing_block_keeps_row_access_consistent() {
        let dim = 8;
        let mut arena = VectorArena::new(dim);
        for i in 0..11 {
            let row: Vec<f32> = (0..dim).map(|d| (i * dim + d) as f32).collect();
            arena.push(&row);
        }
        assert_eq!(arena.len(), 11);
        for i in 0..11 {
            assert_eq!(arena.row(i)[0], (i * dim) as f32);
        }
    }
}
