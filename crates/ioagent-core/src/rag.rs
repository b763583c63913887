//! Domain Knowledge Integrator (paper §IV-B).
//!
//! Builds the vector index over the 66-document expert corpus (chunk size
//! 512, overlap 20 — the paper's LlamaIndex defaults), retrieves the top 15
//! chunks for each fragment's natural-language description, and filters the
//! hits with a cheaper *self-reflection* model run in parallel, "ruling out
//! nearly half of the retrieved sources" before diagnosis. The reflection
//! prompts of one retrieval go to the model as one batch
//! ([`LanguageModel::complete_all`]), so they are in flight together.

use ioembed::Embedder;
use simllm::{CompletionRequest, LanguageModel};
use vecindex::{VectorIndex, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP};

/// A retrieved, reflection-approved source.
#[derive(Debug, Clone)]
pub struct GroundedSource {
    /// Knowledge-document id.
    pub doc_id: String,
    /// Citation string for reports.
    pub citation: String,
    /// Claims the document substantiates.
    pub claims: Vec<&'static str>,
    /// Retrieval score.
    pub score: f32,
}

impl GroundedSource {
    /// Render as `REFERENCE` prompt lines (one per claim).
    pub fn reference_lines(&self) -> String {
        self.claims
            .iter()
            .map(|c| format!("REFERENCE claim={c} cite={}\n", self.citation))
            .collect()
    }
}

/// Where a retriever's index came from (see [`Retriever::build_or_load`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexProvenance {
    /// Served from an on-disk snapshot — no re-embedding happened.
    Snapshot,
    /// Built fresh from the corpus; the string says why the snapshot was
    /// not usable (missing, stale corpus, config mismatch, corruption, …).
    Rebuilt(String),
}

/// The knowledge retriever.
pub struct Retriever {
    index: VectorIndex,
    /// How many chunks to retrieve before reflection (paper: 15).
    pub top_k: usize,
}

impl Retriever {
    /// Build the index over the built-in corpus.
    pub fn build() -> Self {
        let mut index = VectorIndex::new(Embedder::default(), DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP);
        for doc in knowledge::corpus() {
            let text = format!("{}. {}", doc.title, doc.body);
            index.add_document(doc.id, &doc.citation(), &text);
        }
        Self::from_index(index)
    }

    /// Wrap an already-built index (e.g. loaded from an `iostore`
    /// snapshot) with the paper's retrieval configuration.
    fn from_index(index: VectorIndex) -> Self {
        Retriever { index, top_k: 15 }
    }

    /// The underlying vector index (read-only; used for snapshotting).
    pub fn index(&self) -> &VectorIndex {
        &self.index
    }

    /// What an index snapshot must match to stand in for [`Retriever::build`]:
    /// the default embedder/chunking configuration plus the content hash of
    /// the live corpus.
    pub fn index_spec() -> iostore::IndexSpec {
        iostore::IndexSpec {
            embedder_dim: Embedder::default().dim,
            chunk_size: DEFAULT_CHUNK_SIZE,
            overlap: DEFAULT_OVERLAP,
            corpus_hash: knowledge::corpus_hash(),
        }
    }

    /// Load the index from `state`'s snapshot when it matches the live
    /// corpus and embedder configuration; otherwise build it fresh and
    /// (re)write the snapshot so the *next* start is instant. The returned
    /// [`IndexProvenance`] says which path was taken and why.
    ///
    /// A snapshot-loaded retriever is bit-identical to a built one — same
    /// entries, same vectors — so retrievals and downstream diagnoses do
    /// not depend on which path ran. A failure to *write* the snapshot is
    /// reported in the provenance but never fails the build.
    pub fn build_or_load(state: &iostore::StateDir) -> (Self, IndexProvenance) {
        let spec = Self::index_spec();
        let path = state.index_path();
        match iostore::load_index(&path, &spec) {
            Ok(index) => (Retriever::from_index(index), IndexProvenance::Snapshot),
            Err(err) => {
                let retriever = Retriever::build();
                let mut reason = err.to_string();
                if let Err(save_err) =
                    iostore::save_index(&path, retriever.index(), spec.corpus_hash)
                {
                    reason = format!("{reason}; snapshot save failed: {save_err}");
                }
                (retriever, IndexProvenance::Rebuilt(reason))
            }
        }
    }

    /// Number of indexed chunks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Retrieve top-`self.top_k` sources for a query, then self-reflect
    /// with the given (cheaper) model to drop irrelevant hits. Reflection
    /// calls go out as one batch, in parallel as in the paper; verdicts
    /// come back in hit order, so the kept set is identical at any thread
    /// count.
    pub fn retrieve(
        &self,
        query: &str,
        reflection_model: &dyn LanguageModel,
    ) -> Vec<GroundedSource> {
        self.retrieve_k(query, reflection_model, self.top_k)
    }

    /// [`Retriever::retrieve`] with an explicit `k`, so a shared, immutable
    /// retriever can serve agents with different `top_k` configurations.
    pub fn retrieve_k(
        &self,
        query: &str,
        reflection_model: &dyn LanguageModel,
        k: usize,
    ) -> Vec<GroundedSource> {
        let hits = self.index.search(query, k);
        let requests: Vec<CompletionRequest> = hits
            .iter()
            .map(|hit| {
                let entry = self.index.entry(hit.entry_idx);
                let prompt = format!(
                    "### TASK: filter\n## FRAGMENT\n{query}\n## SOURCE\n{}\n",
                    entry.text
                );
                CompletionRequest::new(
                    "Decide whether the source is relevant to the fragment.",
                    prompt,
                )
            })
            .collect();
        let verdicts = reflection_model.complete_all(&requests);

        let mut out: Vec<GroundedSource> = Vec::new();
        for (hit, verdict) in hits.iter().zip(&verdicts) {
            if !verdict.text.starts_with("RELEVANT") {
                continue;
            }
            let entry = self.index.entry(hit.entry_idx);
            if out.iter().any(|s| s.doc_id.as_str() == &*entry.doc_id) {
                continue; // one citation per document
            }
            let doc = knowledge::get(&entry.doc_id).expect("indexed doc exists");
            out.push(GroundedSource {
                doc_id: entry.doc_id.to_string(),
                citation: entry.citation.to_string(),
                claims: doc.claims.to_vec(),
                score: hit.score,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::SimLlm;

    #[test]
    fn index_covers_corpus() {
        let r = Retriever::build();
        assert!(!r.is_empty());
        assert!(r.len() >= 66, "at least one chunk per document");
    }

    #[test]
    fn stripe_query_grounds_stripe_claim() {
        let r = Retriever::build();
        let mini = SimLlm::new("gpt-4o-mini");
        let sources = r.retrieve(
            "the mean stripe width is 1.0 and the job used 1 of 64 available object \
             storage targets, serialising server load on a single OST",
            &mini,
        );
        assert!(!sources.is_empty());
        let claims: Vec<&str> = sources
            .iter()
            .flat_map(|s| s.claims.iter().copied())
            .collect();
        assert!(
            claims.contains(&knowledge::claims::STRIPE_WIDTH_PARALLELISM),
            "claims: {claims:?}"
        );
    }

    #[test]
    fn reflection_prunes_some_hits() {
        let r = Retriever::build();
        let mini = SimLlm::new("gpt-4o-mini");
        let query = "100% of the write operations fall within the 0 B to 100 B range; \
                     the application issues many frequent small write requests";
        let kept = r.retrieve(query, &mini);
        // Top-15 chunks retrieved; reflection plus per-doc dedup must prune.
        assert!(kept.len() < 15, "kept {}", kept.len());
        assert!(!kept.is_empty());
    }

    #[test]
    fn reference_lines_format() {
        let s = GroundedSource {
            doc_id: "k01".into(),
            citation: "[T, V 2021]".into(),
            claims: vec!["stripe_width_parallelism"],
            score: 0.5,
        };
        assert_eq!(
            s.reference_lines(),
            "REFERENCE claim=stripe_width_parallelism cite=[T, V 2021]\n"
        );
    }

    struct TempState(std::path::PathBuf);

    impl TempState {
        fn new(tag: &str) -> (Self, iostore::StateDir) {
            let dir = std::env::temp_dir().join(format!("rag-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let state = iostore::StateDir::new(&dir).unwrap();
            (TempState(dir), state)
        }
    }

    impl Drop for TempState {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn build_or_load_round_trips_through_the_snapshot() {
        let (_guard, state) = TempState::new("round-trip");
        // First call: no snapshot yet — builds fresh and writes one.
        let (first, provenance) = Retriever::build_or_load(&state);
        assert!(
            matches!(provenance, IndexProvenance::Rebuilt(_)),
            "{provenance:?}"
        );
        assert!(state.index_path().is_file(), "rebuild must save a snapshot");
        // Second call: served from the snapshot, bit-identical entries.
        let (second, provenance) = Retriever::build_or_load(&state);
        assert_eq!(provenance, IndexProvenance::Snapshot);
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first
            .index()
            .entries()
            .iter()
            .zip(second.index().entries())
            .enumerate()
        {
            assert_eq!(a.text, b.text);
            let bits_a: Vec<u32> = first
                .index()
                .vector(i)
                .iter()
                .map(|f| f.to_bits())
                .collect();
            let bits_b: Vec<u32> = second
                .index()
                .vector(i)
                .iter()
                .map(|f| f.to_bits())
                .collect();
            assert_eq!(bits_a, bits_b);
        }
    }

    #[test]
    fn stale_snapshot_triggers_rebuild_and_resave() {
        let (_guard, state) = TempState::new("stale");
        let built = Retriever::build();
        // A snapshot recorded against a *different* corpus hash must not be
        // served — this is what a corpus edit between releases looks like.
        iostore::save_index(
            &state.index_path(),
            built.index(),
            knowledge::corpus_hash() ^ 0xdead,
        )
        .unwrap();
        let (_retriever, provenance) = Retriever::build_or_load(&state);
        match provenance {
            IndexProvenance::Rebuilt(reason) => {
                assert!(reason.contains("corpus"), "reason: {reason}")
            }
            other => panic!("expected rebuild, got {other:?}"),
        }
        // The rebuild healed the snapshot in place.
        let (_retriever, provenance) = Retriever::build_or_load(&state);
        assert_eq!(provenance, IndexProvenance::Snapshot);
    }

    #[test]
    fn retrieval_is_deterministic() {
        let r = Retriever::build();
        let mini = SimLlm::new("gpt-4o-mini");
        let q = "metadata operations dominate the runtime with many opens and stats";
        let a: Vec<String> = r.retrieve(q, &mini).into_iter().map(|s| s.doc_id).collect();
        let b: Vec<String> = r.retrieve(q, &mini).into_iter().map(|s| s.doc_id).collect();
        assert_eq!(a, b);
    }
}
