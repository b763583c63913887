//! Self-reflection replay: the CPU cost of one simulated `filter` call.
//!
//! Self-reflection is most of a diagnosis's LLM calls (15 per fragment).
//! This bench records every reflection batch that retrieval sends over
//! the whole TraceBench suite (40 traces × the three benchmark backbone
//! models, judged by `gpt-4o-mini`, exactly as a diagnosis sends them),
//! then replays the batches through `SimLlm::complete_all` and prints the
//! mean wall time per call. Replayed verdicts are checked against the
//! recorded ones before any number is printed. Every batch runs on the
//! calling thread, so the number is CPU per call:
//!
//! ```sh
//! cargo bench -p ioagent-bench --bench reflection
//! ```
//!
//! `--test` (as `cargo bench -- --test` passes it) replays one round
//! instead of seven, still after the check against the recorded verdicts.

use ioagent_core::{transform, Retriever};
use simllm::{Completion, CompletionRequest, LanguageModel, ModelProfile, SimLlm};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use tracebench::TraceBench;

/// Replay rounds; the fastest round is reported.
const ROUNDS: usize = 7;
const REFLECTION_MODEL: &str = "gpt-4o-mini";

/// Forwards to a [`SimLlm`] and keeps every batch with its completions.
struct Recorder {
    inner: SimLlm,
    batches: Mutex<Vec<(Vec<CompletionRequest>, Vec<Completion>)>>,
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
        self.batches
            .lock()
            .unwrap()
            .push((requests.to_vec(), completions.clone()));
        completions
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let rounds = if test_mode { 1 } else { ROUNDS };
    let suite = TraceBench::generate();
    let retriever = Retriever::build();
    let recorder = Recorder {
        inner: SimLlm::new(REFLECTION_MODEL),
        batches: Mutex::new(Vec::new()),
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
    let batches = recorder.batches.into_inner().unwrap();
    let calls: usize = batches.iter().map(|(requests, _)| requests.len()).sum();
    let bytes: usize = batches
        .iter()
        .flat_map(|(requests, _)| requests)
        .map(|r| r.system.len() + 1 + r.user.len())
        .sum();

    let model = SimLlm::new(REFLECTION_MODEL);
    for (requests, recorded) in &batches {
        assert_eq!(
            &model.complete_all(requests),
            recorded,
            "replay diverged from the recorded verdicts"
        );
    }
    let mut rounds_ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        for (requests, _) in &batches {
            black_box(model.complete_all(black_box(requests)));
        }
        rounds_ns.push(started.elapsed().as_nanos() as f64);
    }
    rounds_ns.sort_by(f64::total_cmp);
    let per_call_us = |ns: f64| ns / calls as f64 / 1e3;
    println!(
        "reflection replay: {} batches, {calls} calls, {:.0} prompt bytes per call",
        batches.len(),
        bytes as f64 / calls as f64,
    );
    println!(
        "per call: best {:.3} us, median {:.3} us, worst {:.3} us over {rounds} rounds",
        per_call_us(rounds_ns[0]),
        per_call_us(rounds_ns[rounds / 2]),
        per_call_us(rounds_ns[rounds - 1])
    );
}
