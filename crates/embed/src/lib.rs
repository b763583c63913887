//! Deterministic lexical text embeddings.
//!
//! Stands in for the paper's `text-embedding-3-large`: a feature-hashing
//! embedding over word tokens and character trigrams, TF-weighted and
//! L2-normalised, under which lexically/semantically related HPC-I/O text
//! lands close in cosine space. Fully deterministic — no model weights, no
//! network — which keeps the whole RAG pipeline reproducible.
//!
//! The hot path ([`Embedder::embed_into`]) performs **zero per-token heap
//! allocations**: tokens are lowercased into a reused thread-local scratch
//! buffer, term frequencies are counted by sorting the token spans in
//! place (no `HashMap`), and the caller supplies (and can reuse) the
//! output vector. Sorting also fixes a subtle seed-era bug: the original
//! implementation iterated a `std::collections::HashMap` whose order
//! varies per *instance*, so on texts long enough for several tokens to
//! hash into one slot the f32 accumulation order — and therefore the last
//! ulps of the embedding — changed from call to call. Distinct tokens are
//! now always folded in lexicographic order, making embeddings bit-stable
//! across calls, threads, and processes.

pub mod tokenize;
pub mod vector;

pub use tokenize::{token_count, token_slices, tokenize};
pub use vector::{cosine, cosine_with_norms, dot, l2_normalize, norm};

use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Default embedding dimensionality.
pub const DEFAULT_DIM: usize = 256;

/// A deterministic text embedder.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Embedder {
    /// Embedding dimensionality.
    pub dim: usize,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder { dim: DEFAULT_DIM }
    }
}

/// FNV-1a 64-bit hash (stable across runs and platforms).
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Reused per-thread tokenisation state: the lowercased concatenation of
/// the input's tokens plus the (start, end) span of each token within it.
/// Living in a thread-local, the buffers are allocated once per thread and
/// amortise to zero allocations per embed (`tests/allocations.rs` counts
/// them).
#[derive(Default)]
struct EmbedScratch {
    lower: String,
    spans: Vec<(u32, u32)>,
}

thread_local! {
    static EMBED_SCRATCH: RefCell<EmbedScratch> = RefCell::new(EmbedScratch::default());
}

impl Embedder {
    /// Create an embedder with a custom dimensionality (≥ 8).
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 8, "embedding dimension too small");
        Embedder { dim }
    }

    /// Embed a text into an L2-normalised vector.
    ///
    /// Each token contributes to two hashed slots with ±1 signs (feature
    /// hashing), as do its character trigrams (at 0.4 weight); counts are
    /// squashed with `ln(1+tf)`.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = Vec::new();
        self.embed_into(text, &mut v);
        v
    }

    /// [`Embedder::embed`] into a caller-owned buffer, the allocation-free
    /// hot path: `out` is cleared and refilled (its capacity is reused on
    /// repeat calls), and all intermediate state lives in reused
    /// thread-local scratch. `vecindex` drives every query embedding in
    /// `search` through this.
    pub fn embed_into(&self, text: &str, out: &mut Vec<f32>) {
        assert!(
            text.len() <= u32::MAX as usize,
            "text too large to embed in one call"
        );
        out.clear();
        out.resize(self.dim, 0.0);
        EMBED_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.lower.clear();
            scratch.spans.clear();

            // Tokenise through the shared borrowed iterator (one token
            // definition for the whole crate), lowercasing each slice
            // into the scratch string and recording its span. Tokens are
            // ASCII-only, so per-byte lowercasing is UTF-8 safe.
            for tok in tokenize::token_slices(text) {
                let start = scratch.lower.len() as u32;
                for &b in tok.as_bytes() {
                    scratch.lower.push(b.to_ascii_lowercase() as char);
                }
                scratch.spans.push((start, scratch.lower.len() as u32));
            }

            // Term frequencies without a map: sort the spans by token
            // bytes (in place, no allocation) and fold runs of equal
            // tokens. Lexicographic order makes the f32 accumulation
            // order — and thus the embedding — bit-stable call to call.
            let lower = scratch.lower.as_bytes();
            let tok = |&(s, e): &(u32, u32)| &lower[s as usize..e as usize];
            scratch.spans.sort_unstable_by(|a, b| tok(a).cmp(tok(b)));

            let spans = &scratch.spans;
            let mut i = 0;
            while i < spans.len() {
                let bytes = tok(&spans[i]);
                let mut j = i + 1;
                while j < spans.len() && tok(&spans[j]) == bytes {
                    j += 1;
                }
                let w = (1.0 + (j - i) as f32).ln();
                self.bump(out, bytes, 0, w);
                self.bump(out, bytes, 1, w);
                if bytes.len() >= 3 {
                    for tri in bytes.windows(3) {
                        self.bump(out, tri, 2, w * 0.4);
                    }
                }
                i = j;
            }
        });
        l2_normalize(out);
    }

    fn bump(&self, v: &mut [f32], bytes: &[u8], seed: u64, weight: f32) {
        let h = fnv1a(bytes, seed);
        let slot = (h % self.dim as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[slot] += sign * weight;
    }

    /// Cosine similarity between two texts' embeddings.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        cosine(&self.embed(a), &self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_is_deterministic() {
        let e = Embedder::default();
        assert_eq!(
            e.embed("small write requests hurt Lustre"),
            e.embed("small write requests hurt Lustre")
        );
    }

    /// The regression the sorted tf-fold fixes: long texts (many slot
    /// collisions) must embed bit-identically on every call. The HashMap
    /// iteration of the original implementation failed this on effectively
    /// every call for 400-token texts.
    #[test]
    fn long_text_embedding_is_bit_stable_across_calls() {
        let e = Embedder::default();
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("tok{i} stripe{i} write {i} "));
        }
        let a = e.embed(&text);
        for _ in 0..10 {
            let b = e.embed(&text);
            let bits_a: Vec<u32> = a.iter().map(|f| f.to_bits()).collect();
            let bits_b: Vec<u32> = b.iter().map(|f| f.to_bits()).collect();
            assert_eq!(bits_a, bits_b);
        }
    }

    #[test]
    fn embed_into_matches_embed_and_reuses_the_buffer() {
        let e = Embedder::default();
        let texts = [
            "collective MPI-IO aggregates small requests",
            "",
            "stripe count one serialises onto a single OST",
        ];
        let mut buf = Vec::new();
        for t in texts {
            e.embed_into(t, &mut buf);
            let fresh = e.embed(t);
            assert_eq!(buf.len(), e.dim);
            let bits_a: Vec<u32> = buf.iter().map(|f| f.to_bits()).collect();
            let bits_b: Vec<u32> = fresh.iter().map(|f| f.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "embed_into diverged on {t:?}");
        }
        // A dirty, over-sized buffer is fully overwritten.
        let mut dirty = vec![7.0f32; 1024];
        e.embed_into("metadata stat storm", &mut dirty);
        assert_eq!(dirty.len(), e.dim);
        assert_eq!(dirty, e.embed("metadata stat storm"));
    }

    #[test]
    fn embedding_is_normalised() {
        let e = Embedder::default();
        let v = e.embed("collective MPI-IO aggregates small requests into large ones");
        assert!((norm(&v) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = Embedder::default();
        let v = e.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.len(), e.dim);
    }

    #[test]
    fn related_text_scores_higher_than_unrelated() {
        let e = Embedder::default();
        let query = "most write operations are smaller than 1 MB causing poor bandwidth";
        let related =
            "small write requests below 1 MB degrade I/O bandwidth on parallel file systems";
        let unrelated = "the quantum chromodynamics lattice uses gauge field tensors";
        assert!(e.similarity(query, related) > e.similarity(query, unrelated) + 0.1);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let e = Embedder::default();
        let a = "stripe count of one serialises file access onto a single OST";
        let b = "increasing the Lustre stripe count spreads load across servers";
        let s1 = e.similarity(a, b);
        let s2 = e.similarity(b, a);
        assert!((s1 - s2).abs() < 1e-6);
        assert!((-1.0..=1.0).contains(&s1));
    }

    #[test]
    fn self_similarity_is_one() {
        let e = Embedder::default();
        let t = "metadata operations dominate runtime";
        assert!((e.similarity(t, t) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn custom_dim_respected() {
        let e = Embedder::new(64);
        assert_eq!(e.embed("hello world").len(), 64);
    }

    #[test]
    #[should_panic(expected = "dimension too small")]
    fn tiny_dim_panics() {
        Embedder::new(4);
    }

    /// Token case must not matter for tf grouping: "WRITE write Write"
    /// counts one token with tf 3, exactly as the old lowercase-then-count
    /// path did.
    #[test]
    fn tf_grouping_is_case_insensitive() {
        let e = Embedder::default();
        let a = e.embed("WRITE write Write");
        let b = e.embed("write write write");
        let bits_a: Vec<u32> = a.iter().map(|f| f.to_bits()).collect();
        let bits_b: Vec<u32> = b.iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits_a, bits_b);
    }
}
