//! Property-based tests over the core data structures and invariants.

use darshan::counters::{size_bin_index, Module, SIZE_BINS};
use darshan::{DarshanTrace, JobHeader, Record};
use ioembed::{cosine, Embedder};
use proptest::collection;
use proptest::prelude::*;
use vecindex::chunk_text;

proptest! {
    /// The embedder never panics and always produces unit-or-zero vectors.
    #[test]
    fn embeddings_are_normalised(text in ".{0,400}") {
        let e = Embedder::default();
        let v = e.embed(&text);
        prop_assert_eq!(v.len(), ioembed::DEFAULT_DIM);
        let n = ioembed::norm(&v);
        prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-3);
    }

    /// Cosine similarity is symmetric and bounded for arbitrary texts.
    #[test]
    fn cosine_symmetric_bounded(a in "[a-z ]{0,200}", b in "[a-z ]{0,200}") {
        let e = Embedder::default();
        let va = e.embed(&a);
        let vb = e.embed(&b);
        let s1 = cosine(&va, &vb);
        let s2 = cosine(&vb, &va);
        prop_assert!((s1 - s2).abs() < 1e-5);
        prop_assert!((-1.001..=1.001).contains(&s1));
    }

    /// Chunking covers every token exactly: first chunk starts at 0, the
    /// last ends at the final token, and consecutive chunks overlap by the
    /// configured amount (except possibly the last).
    #[test]
    fn chunking_covers_all_tokens(
        n_tokens in 0usize..600,
        chunk_size in 8usize..64,
        overlap in 0usize..7,
    ) {
        let text: String = (0..n_tokens).map(|i| format!("t{i} ")).collect();
        let chunks = chunk_text(&text, chunk_size, overlap);
        if n_tokens == 0 {
            prop_assert!(chunks.is_empty());
        } else {
            prop_assert_eq!(chunks[0].start_token, 0);
            let last = chunks.last().unwrap();
            let final_token = format!("t{}", n_tokens - 1);
            let ends_correctly = last.text.ends_with(&final_token);
            prop_assert!(ends_correctly, "last chunk must end with {}", final_token);
            for w in chunks.windows(2) {
                prop_assert_eq!(w[1].start_token, w[0].start_token + chunk_size - overlap);
            }
        }
    }

    /// Size-bin classification is monotone and total.
    #[test]
    fn size_bins_monotone(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(size_bin_index(lo) <= size_bin_index(hi));
        prop_assert!(size_bin_index(hi) < SIZE_BINS.len());
    }

    /// The darshan text format round-trips arbitrary well-formed records.
    #[test]
    fn darshan_roundtrip_arbitrary_counters(
        rank in -1i64..64,
        record_id in 1u64..u64::MAX,
        opens in 0i64..1_000_000,
        bytes in 0i64..i64::MAX / 2,
        time in 0.0f64..1.0e6,
    ) {
        let mut t = DarshanTrace::new(JobHeader::new("./prop", 8, 100.0));
        let mut r = Record::new(Module::Posix, rank, record_id, "/scratch/prop");
        r.set_ic("POSIX_OPENS", opens);
        r.set_ic("POSIX_BYTES_READ", bytes);
        r.set_fc("POSIX_F_READ_TIME", time);
        t.push(r);
        let text = darshan::write::write_text(&t);
        let back = darshan::parse::parse_text(&text).unwrap();
        let rec = back.records_for(Module::Posix).next().unwrap();
        prop_assert_eq!(rec.ic("POSIX_OPENS"), opens);
        prop_assert_eq!(rec.ic("POSIX_BYTES_READ"), bytes);
        prop_assert!((rec.fc("POSIX_F_READ_TIME") - time).abs() <= 1e-6 * time.max(1.0));
        prop_assert_eq!(rec.rank, rank);
    }

    /// Quality scores stay in [0, 1] for arbitrary report text.
    #[test]
    fn quality_scores_bounded(text in ".{0,600}") {
        let f = simllm::quality::features(&text);
        let u = simllm::quality::utility_score(&f);
        let i = simllm::quality::interpretability_score(&f);
        prop_assert!((0.0..=1.0).contains(&u), "utility {}", u);
        prop_assert!((0.0..=1.0).contains(&i), "interpretability {}", i);
    }

    /// The LLM simulator never panics on arbitrary prompts and always
    /// reports coherent token accounting.
    #[test]
    fn simllm_total_on_arbitrary_prompts(prompt in ".{0,500}", salt in 0u64..50) {
        use simllm::{CompletionRequest, LanguageModel, SimLlm};
        let m = SimLlm::new("gpt-4o-mini");
        let c = m.complete(&CompletionRequest::new("sys", &prompt).with_salt(salt));
        prop_assert!(c.retention >= 0.0 && c.retention <= 1.0);
        prop_assert!(c.cost_usd >= 0.0);
    }

    /// Darshan module aggregation never produces negative fractions.
    #[test]
    fn aggregate_fractions_bounded(
        reads in 0i64..100_000,
        small in 0i64..100_000,
        seq in 0i64..100_000,
    ) {
        let mut t = DarshanTrace::new(JobHeader::new("./p", 4, 60.0));
        let mut r = Record::new(Module::Posix, -1, 1, "/f");
        r.set_ic("POSIX_READS", reads);
        r.set_ic("POSIX_SIZE_READ_0_100", small);
        r.set_ic("POSIX_SEQ_READS", seq);
        t.push(r);
        if let Some(agg) = darshan::derive::aggregate(&t, Module::Posix) {
            for v in [agg.small_read_fraction(), agg.seq_read_fraction(), agg.misaligned_fraction()] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}

proptest! {
    /// Heap-based top-k selection is *exactly* the full-sort-and-truncate
    /// specification — `sort_by(total_cmp desc, entry_idx asc)` +
    /// `truncate(k)` — including NaN scores (both signs), signed zeros,
    /// infinities, and duplicate-score ties. This is the ISSUE-4 pin that
    /// lets `VectorIndex::search` keep 15 of 10k entries in O(n log k)
    /// without any behavioural drift from the seed path.
    #[test]
    fn heap_top_k_matches_sort_spec(
        picks in collection::vec(0usize..10, 0..120),
        k in 0usize..25,
    ) {
        // A palette heavy in pathological values and duplicates.
        const PALETTE: [f32; 10] = [
            f32::NAN, -0.0, 0.0, 0.5, 0.5, -0.5, 1.0, -1.0,
            f32::INFINITY, f32::NEG_INFINITY,
        ];
        let scores: Vec<f32> = picks.iter().map(|&i| {
            if i == 0 { -f32::NAN } else { PALETTE[i] }
        }).collect();

        let mut expected: Vec<vecindex::SearchHit> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| vecindex::SearchHit { score: s, entry_idx: i })
            .collect();
        expected.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then(a.entry_idx.cmp(&b.entry_idx))
        });
        expected.truncate(k);

        let got = vecindex::top_k(&scores, k);
        let e: Vec<(u32, usize)> =
            expected.iter().map(|h| (h.score.to_bits(), h.entry_idx)).collect();
        let g: Vec<(u32, usize)> =
            got.iter().map(|h| (h.score.to_bits(), h.entry_idx)).collect();
        prop_assert_eq!(g, e);
    }

    /// The allocation-free counting scan agrees with materialising the
    /// token vector, for arbitrary printable-ASCII soup.
    #[test]
    fn token_count_matches_tokenize_len(text in ".{0,400}") {
        prop_assert_eq!(
            ioembed::token_count(&text),
            ioembed::tokenize(&text).len()
        );
    }

    /// Embeddings are bit-stable across calls for arbitrary texts — the
    /// determinism regression the sorted tf-fold fixed (the seed-era
    /// HashMap iteration made long-text embeddings vary call to call).
    #[test]
    fn embeddings_are_bit_stable_across_calls(text in "[a-z0-9 ]{0,500}") {
        let e = Embedder::default();
        let a: Vec<u32> = e.embed(&text).iter().map(|f| f.to_bits()).collect();
        let b: Vec<u32> = e.embed(&text).iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(a, b);
    }
}
