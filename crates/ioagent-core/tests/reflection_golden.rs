//! Golden digest of every self-reflection verdict over the full TraceBench
//! suite.
//!
//! Each of the 40 traces is pre-processed into fragments; each fragment is
//! turned into its retrieval query by each benchmark backbone model, and
//! the query's top-15 hits are judged by the `gpt-4o-mini` reflection
//! model, exactly as [`Retriever::retrieve_k`] does inside a diagnosis.
//! The digest covers every verdict text byte for byte, so any change to
//! the simulator's filter path (tokenising, overlap scoring, seeding,
//! attention, the batch's shared-prefix reuse) that alters even one
//! similarity signal fails here.

use ioagent_core::{transform, Retriever};
use simllm::rng::stable_hash;
use simllm::{Completion, CompletionRequest, LanguageModel, ModelProfile, SimLlm};
use std::sync::Mutex;
use tracebench::TraceBench;

/// Digest of the sorted `(prompt hash, verdict)` lines below.
const GOLDEN_DIGEST: u64 = 0xe169_b99c_3a21_6700;
/// Number of reflection calls the digest covers.
const GOLDEN_CALLS: usize = 28_260;

/// Forwards to a [`SimLlm`] and keeps every (prompt hash, verdict) pair.
/// Retrieval sends its reflection prompts as one batch, so the batch goes
/// to [`SimLlm::complete_all`] whole, the path a diagnosis takes.
struct Recorder {
    inner: SimLlm,
    seen: Mutex<Vec<(u64, String)>>,
}

impl LanguageModel for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn complete(&self, request: &CompletionRequest) -> Completion {
        self.complete_all(std::slice::from_ref(request))
            .pop()
            .expect("one completion per request")
    }

    fn complete_all(&self, requests: &[CompletionRequest]) -> Vec<Completion> {
        let completions = self.inner.complete_all(requests);
        let mut seen = self.seen.lock().unwrap();
        for (request, completion) in requests.iter().zip(&completions) {
            let key = stable_hash(&format!("{}\n{}", request.system, request.user));
            seen.push((key, completion.text.clone()));
        }
        completions
    }
}

#[test]
fn reflection_verdicts_match_the_golden_digest() {
    let suite = TraceBench::generate();
    assert_eq!(suite.len(), 40);
    let retriever = Retriever::build();
    let recorder = Recorder {
        inner: SimLlm::new("gpt-4o-mini"),
        seen: Mutex::new(Vec::new()),
    };
    for model in ["gpt-4o", "gpt-4o-mini", "llama-3.1-70b"] {
        let backbone = SimLlm::new(model);
        for entry in &suite.entries {
            for fragment in preprocessor::extract_fragments(&entry.trace) {
                let query = transform::to_natural_language(&backbone, &fragment);
                retriever.retrieve_k(&query, &recorder, retriever.top_k);
            }
        }
    }
    // Reflection calls run on a thread pool; sort so the digest does not
    // depend on completion order.
    let mut seen = recorder.seen.into_inner().unwrap();
    seen.sort_unstable();
    let mut joined = String::new();
    for (key, text) in &seen {
        joined.push_str(&format!("{key:016x} {text}\n"));
    }
    let digest = stable_hash(&joined);
    assert_eq!(
        (seen.len(), digest),
        (GOLDEN_CALLS, GOLDEN_DIGEST),
        "reflection verdicts changed: {} calls, digest {digest:#018x}",
        seen.len()
    );
}
