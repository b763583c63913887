//! Deterministic synthetic retrieval corpus for the retrieval benchmark
//! (`benches/retrieval.rs`).
//!
//! Every function is seeded SplitMix64, so every run — on any machine —
//! builds the identical corpus and therefore measures the
//! identical work. The vocabulary is domain-flavoured (stripe counts,
//! collective I/O, metadata storms) and documents are **topical**: each
//! document draws most of its tokens from one of [`TOPICS`] overlapping
//! vocabulary slices, the way real trace descriptions cluster around one
//! failure mode, so queries score against a corpus with the cluster
//! structure real retrieval sees rather than uniform vocabulary soup.

use vecindex::VectorIndex;

/// Chunk size the synthetic corpus is indexed with.
pub const CHUNK_SIZE: usize = 128;
/// Chunk overlap the synthetic corpus is indexed with.
pub const OVERLAP: usize = 16;

/// Domain-flavoured vocabulary the synthetic corpus draws from.
pub const VOCAB: &[&str] = &[
    "stripe",
    "ost",
    "mdt",
    "collective",
    "aggregate",
    "bandwidth",
    "latency",
    "metadata",
    "open",
    "stat",
    "close",
    "write",
    "read",
    "seek",
    "random",
    "sequential",
    "aligned",
    "misaligned",
    "shared",
    "independent",
    "posix",
    "mpiio",
    "stdio",
    "lustre",
    "gpfs",
    "buffer",
    "cache",
    "flush",
    "sync",
    "request",
    "transfer",
    "block",
    "chunk",
    "offset",
    "extent",
    "server",
    "client",
    "rank",
    "process",
    "node",
    "burst",
    "checkpoint",
];

/// SplitMix64 — deterministic streams, identical on every machine.
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 mixed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform pick from a pool.
    pub fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[(self.next_u64() % pool.len() as u64) as usize]
    }
}

/// Distinct topics documents (and queries) cluster around.
pub const TOPICS: usize = 16;

/// Share (percent) of a topical text's tokens drawn from its topic slice;
/// the rest come from the full vocabulary, as real descriptions mix
/// topic-specific and generic I/O terms.
const TOPIC_SHARE: u64 = 85;

/// One token of a `topic`-flavoured text.
fn topical_token<'a>(rng: &mut Rng, topic: usize) -> &'a str {
    if rng.next_u64() % 100 < TOPIC_SHARE {
        // Overlapping 6-word slice of the vocabulary, rotated per topic.
        let i = (topic * 5 + (rng.next_u64() % 6) as usize) % VOCAB.len();
        VOCAB[i]
    } else {
        rng.pick(VOCAB)
    }
}

/// One synthetic document of roughly `tokens` vocabulary tokens around
/// one topic, with numeric tokens sprinkled in, as real trace text has.
pub fn synthetic_doc(rng: &mut Rng, tokens: usize, topic: usize) -> String {
    let mut text = String::with_capacity(tokens * 8);
    for _ in 0..tokens {
        text.push_str(topical_token(rng, topic));
        if rng.next_u64().is_multiple_of(7) {
            text.push_str(&format!(" {}", rng.next_u64() % 1_048_576));
        }
        text.push(' ');
    }
    text
}

/// Build the synthetic corpus: topic-rotating documents are appended
/// until the index holds at least `target_chunks` chunks.
pub fn build_corpus(target_chunks: usize) -> VectorIndex {
    let mut ix = VectorIndex::new(ioembed::Embedder::default(), CHUNK_SIZE, OVERLAP);
    let mut rng = Rng(0x10a6e27);
    let mut doc = 0usize;
    while ix.len() < target_chunks {
        let text = synthetic_doc(&mut rng, 1200, doc % TOPICS);
        ix.add_document(
            &format!("syn-{doc:05}"),
            &format!("[Synthetic {doc}, BENCH 2026]"),
            &text,
        );
        doc += 1;
    }
    ix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_and_queries_are_deterministic() {
        let a = build_corpus(64);
        let b = build_corpus(64);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let bits_a: Vec<u32> = a.vector(i).iter().map(|f| f.to_bits()).collect();
            let bits_b: Vec<u32> = b.vector(i).iter().map(|f| f.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "chunk {i}");
        }
    }
}
