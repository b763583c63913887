//! Correctness: every reply against a plain, fault-free `IoAgent` run of
//! the same request, plus label micro-F1 against TraceBench ground truth.

use crate::spec::{Content, Requests, MODELS};
use ioagent_core::{AgentConfig, IoAgent, Retriever};
use serde_json::Value;
use simllm::{Diagnosis, SimLlm};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The comparable part of a successful reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Hash of the diagnosis text, issue keys and references.
    pub diagnosis: u64,
    /// LLM completions charged to the job.
    pub llm_calls: u64,
    /// Input tokens charged to the job.
    pub input_tokens: u64,
    /// Output tokens charged to the job.
    pub output_tokens: u64,
}

/// A rendered reply, reduced to what the checks and metrics need.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A diagnosis.
    Ok {
        /// Comparable content and accounting.
        digest: Digest,
        /// Whether the service answered from its cache or journal.
        cached: bool,
        /// Spend charged to the job.
        cost_usd: f64,
        /// Issue keys (kept only where label F1 needs them).
        issues: Vec<String>,
    },
    /// An error reply.
    Failed {
        /// The reply's `error_kind`.
        kind: String,
    },
}

/// Stable hash of a diagnosis as the wire shows it.
pub fn diagnosis_hash(text: &str, issues: &[String], references: &[String]) -> u64 {
    let mut joined = String::with_capacity(text.len() + 256);
    joined.push_str(text);
    for part in issues.iter().chain(std::iter::once(&String::new())) {
        joined.push('\u{1}');
        joined.push_str(part);
    }
    for r in references {
        joined.push('\u{2}');
        joined.push_str(r);
    }
    simllm::rng::stable_hash(&joined)
}

fn strings(value: Option<&Value>) -> Vec<String> {
    value
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// Reduce one rendered reply line. `keep_issues` retains the issue keys.
pub fn parse_reply(line: &str, keep_issues: bool) -> Reply {
    let value: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            return Reply::Failed {
                kind: format!("unparseable reply: {e}"),
            }
        }
    };
    if let Some(kind) = value.get("error_kind").and_then(Value::as_str) {
        return Reply::Failed {
            kind: kind.to_string(),
        };
    }
    let count = |k: &str| value.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
    let issues = strings(value.get("issues"));
    let digest = Digest {
        diagnosis: diagnosis_hash(
            value.get("text").and_then(Value::as_str).unwrap_or(""),
            &issues,
            &strings(value.get("references")),
        ),
        llm_calls: count("llm_calls"),
        input_tokens: count("input_tokens"),
        output_tokens: count("output_tokens"),
    };
    Reply::Ok {
        digest,
        cached: value
            .get("cached")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        cost_usd: value
            .get("cost_usd")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
        issues: if keep_issues { issues } else { Vec::new() },
    }
}

/// What a fault-free `IoAgent` run says about one content.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Digest of the reference diagnosis and its accounting.
    pub digest: Digest,
    /// Reference issue keys.
    pub issues: Vec<String>,
}

/// Diagnose one content the plain way: parse its wire text, run a fresh
/// `IoAgent` with the paper-default config over the shared index.
pub fn reference_run(
    requests: &Requests,
    retriever: &Arc<Retriever>,
    content: &Content,
) -> Expected {
    let text = requests.trace_text(content);
    let trace = darshan::parse::parse_text(&text).expect("generated trace parses");
    let model = SimLlm::new(MODELS[content.model]);
    let agent =
        IoAgent::with_shared_retriever(&model, AgentConfig::default(), Arc::clone(retriever));
    let diagnosis: Diagnosis = agent.diagnose(&trace);
    let (backbone, reflection) = (model.usage(), agent.reflection_usage());
    let issues: Vec<String> = diagnosis
        .issues
        .iter()
        .map(|i| i.key().to_string())
        .collect();
    Expected {
        digest: Digest {
            diagnosis: diagnosis_hash(&diagnosis.text, &issues, &diagnosis.references),
            llm_calls: (backbone.calls + reflection.calls) as u64,
            input_tokens: (backbone.input_tokens + reflection.input_tokens) as u64,
            output_tokens: (backbone.output_tokens + reflection.output_tokens) as u64,
        },
        issues,
    }
}

/// The part of a content a diagnosis can depend on. `header.jobid` only
/// makes cache keys distinct: it reaches no prompt, so requests that
/// differ in it alone share one reference run. (A reply that disagrees
/// with the shared run is re-checked against a run of its own request
/// before it counts as wrong, so this is only a saving, never a premise.)
pub fn diagnosis_key(content: &Content) -> Content {
    Content {
        jobid: 0,
        ..*content
    }
}

/// Reference runs for every distinct [`diagnosis_key`] of `contents`,
/// spread over `threads` threads (each job itself runs single-threaded,
/// like a service worker). The map is keyed by [`diagnosis_key`].
pub fn reference_runs(
    requests: &Requests,
    retriever: &Arc<Retriever>,
    contents: impl IntoIterator<Item = Content>,
    threads: usize,
) -> HashMap<Content, Expected> {
    let mut contents: Vec<Content> = contents.into_iter().map(|c| diagnosis_key(&c)).collect();
    contents.sort_unstable();
    contents.dedup();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::with_capacity(contents.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .expect("reference pool");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(content) = contents.get(i) else {
                        break;
                    };
                    let expected = pool.install(|| reference_run(requests, retriever, content));
                    out.lock().unwrap().insert(*content, expected);
                }
            });
        }
    });
    out.into_inner().unwrap()
}

/// Compare one successful reply with its reference and return the LLM
/// calls it was charged beyond the reference. A reply answered from the
/// cache must carry the reference diagnosis and zero spend; a fresh one
/// must match the reference's accounting too.
///
/// With `hedged`, a fresh reply may be charged *more* than the reference:
/// when a hedged duplicate and its primary both deliver before either is
/// cancelled, the simulator bills both, as a real provider would. The
/// diagnosis itself must still be identical.
pub fn compare(
    id: &str,
    digest: &Digest,
    cached: bool,
    expect_cached: bool,
    hedged: bool,
    expected: &Expected,
) -> Result<u64, String> {
    if cached != expect_cached {
        return Err(format!(
            "{id}: cached={cached}, but the request {} a journaled job",
            if expect_cached {
                "repeats"
            } else {
                "does not repeat"
            }
        ));
    }
    let want = if cached {
        Digest {
            llm_calls: 0,
            input_tokens: 0,
            output_tokens: 0,
            ..expected.digest
        }
    } else {
        expected.digest
    };
    let billed_duplicates = hedged
        && !cached
        && digest.diagnosis == want.diagnosis
        && digest.llm_calls > want.llm_calls
        && digest.input_tokens > want.input_tokens
        && digest.output_tokens >= want.output_tokens;
    if *digest != want && !billed_duplicates {
        return Err(format!(
            "{id}: reply {digest:?} differs from the fault-free IoAgent run {want:?}"
        ));
    }
    Ok(digest.llm_calls - want.llm_calls)
}

/// Micro-averaged label F1 over `(predicted issue keys, trace index)`.
pub fn label_f1<'a>(
    requests: &Requests,
    predictions: impl IntoIterator<Item = (&'a [String], usize)>,
) -> f64 {
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (predicted, trace) in predictions {
        let truth: Vec<&str> = requests.suite().entries[trace]
            .spec
            .labels
            .iter()
            .map(|l| l.key())
            .collect();
        let hits = predicted
            .iter()
            .filter(|p| truth.contains(&p.as_str()))
            .count();
        tp += hits;
        fp += predicted.len() - hits;
        fn_ += truth.len()
            - truth
                .iter()
                .filter(|t| predicted.iter().any(|p| p == *t))
                .count();
    }
    if tp == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
}
