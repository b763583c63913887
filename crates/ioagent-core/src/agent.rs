//! The IOAgent pipeline.

use crate::merge::{merge_in_waves, MergeStrategy, SummaryBlock};
use crate::rag::Retriever;
use crate::session::AgentSession;
use crate::transform;
use darshan::DarshanTrace;
use preprocessor::SummaryFragment;
use rayon::prelude::*;
use simllm::{Completion, CompletionRequest, Diagnosis, LanguageModel, SimLlm};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tracebench::IssueLabel;

/// Configuration knobs (defaults match the paper).
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Chunks retrieved per fragment before self-reflection (paper: 15).
    pub top_k: usize,
    /// Merge strategy (paper: tree; flat is the ablation arm).
    pub merge: MergeStrategy,
    /// Whether to transform JSON fragments to natural language before
    /// retrieval (ablation: query with raw JSON instead).
    pub nl_transform: bool,
    /// Whether to retrieve domain knowledge at all (ablation).
    pub use_rag: bool,
    /// Self-reflection model name (paper: a faster, cheaper model).
    pub reflection_model: String,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            top_k: 15,
            merge: MergeStrategy::Tree,
            nl_transform: true,
            use_rag: true,
            reflection_model: "gpt-4o-mini".to_string(),
        }
    }
}

/// The IOAgent, bound to a backbone model.
///
/// The knowledge retriever is held behind an [`Arc`] so a long-lived
/// service (`ioagentd`) can build the vector index once and share it across
/// many concurrent agents; per-job state (the backbone model reference and
/// the reflection model with its usage accounting) stays per-agent.
///
/// A diagnosis issues its backbone calls in *waves*, one
/// [`LanguageModel::complete_all`] batch per pipeline stage: every
/// fragment's transform, then every fragment's diagnosis, then one wave
/// per tree-merge level. A model with remote latency keeps a wave's calls
/// in flight together, so a job waits on a handful of round trips instead
/// of one per call.
pub struct IoAgent<'m> {
    model: &'m dyn LanguageModel,
    reflection: SimLlm,
    retriever: Arc<Retriever>,
    config: AgentConfig,
    /// Backbone waves issued so far.
    waves: AtomicUsize,
}

impl<'m> IoAgent<'m> {
    /// Create an agent with default (paper) configuration.
    pub fn new(model: &'m dyn LanguageModel) -> Self {
        Self::with_config(model, AgentConfig::default())
    }

    /// Create an agent with explicit configuration, building a private
    /// knowledge index.
    pub fn with_config(model: &'m dyn LanguageModel, config: AgentConfig) -> Self {
        Self::with_shared_retriever(model, config, Arc::new(Retriever::build()))
    }

    /// Create an agent over an existing shared knowledge index. The index
    /// is immutable after construction, so any number of agents across any
    /// number of threads may share one `Arc<Retriever>`; `config.top_k` is
    /// applied per retrieval call rather than baked into the index.
    pub fn with_shared_retriever(
        model: &'m dyn LanguageModel,
        config: AgentConfig,
        retriever: Arc<Retriever>,
    ) -> Self {
        IoAgent {
            model,
            reflection: SimLlm::new(&config.reflection_model),
            retriever,
            config,
            waves: AtomicUsize::new(0),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Usage accumulated by the private self-reflection model. Combined
    /// with the backbone model's own usage this gives the full per-job
    /// token/cost accounting.
    pub fn reflection_usage(&self) -> simllm::Usage {
        self.reflection.usage()
    }

    /// Backbone waves (batches of concurrent LLM calls) this agent's
    /// diagnoses have issued so far: the depth of their critical path in
    /// model round trips.
    pub fn llm_waves(&self) -> usize {
        self.waves.load(Ordering::Relaxed)
    }

    /// Tool name used in reports and the evaluation.
    pub fn tool_name(&self) -> String {
        format!("ioagent-{}", self.model.name())
    }

    /// Run the full pipeline on a trace.
    pub fn diagnose(&self, trace: &DarshanTrace) -> Diagnosis {
        let tracer = ioobserve::tracer();
        let metrics = ioobserve::metrics();

        // Stage 1: module-based pre-processing. Each stage records its
        // histogram inside its own span, so the bookkeeping (a windowed
        // histogram allocates its slices on first use, and resets one
        // whenever a new slice starts) counts toward the stage instead
        // of leaving a gap in the job's span decomposition.
        let preprocess_start = std::time::Instant::now();
        let fragments = {
            let mut span = tracer.span("stage.preprocess");
            let fragments = preprocessor::extract_fragments(trace);
            span.set_attr("fragments", fragments.len());
            metrics
                .histogram("stage.preprocess_ns")
                .record_duration(preprocess_start.elapsed());
            fragments
        };

        // Stage 2: per-fragment knowledge integration + diagnosis. One
        // coarse `stage.fragments` span tiles the whole fan-out.
        let fragments_span = tracer.span("stage.fragments");
        let blocks = self.diagnose_fragments(&fragments, fragments_span.id());
        // Free the fragments inside the stage that used them, not in the
        // unattributed tail of the job after rendering.
        drop(fragments);
        drop(fragments_span);

        // Stage 3: tree-based merge, one wave per level.
        let merge_start = std::time::Instant::now();
        let merged = {
            let _span = tracer.span("stage.merge");
            let merged = merge_in_waves(blocks, self.config.merge, |requests| {
                self.wave("merge", requests)
            });
            metrics
                .histogram("stage.merge_ns")
                .record_duration(merge_start.elapsed());
            merged
        };

        // Final report rendering.
        let _render_span = tracer.span("stage.render");
        let (text, issues, references) = render_report(&self.tool_name(), &merged);
        Diagnosis {
            tool: self.tool_name(),
            text,
            issues,
            references,
        }
    }

    /// Diagnose every fragment into a mergeable summary block, in fragment
    /// order: a wave of NL transforms (the RAG queries), then retrieval
    /// and self-reflection per fragment (CPU work, parallel across the
    /// shim pool), then a wave of grounded diagnoses. `parent` is the
    /// span id of the enclosing fan-out (0 when tracing is disabled),
    /// threaded explicitly because the retrieval closures may run on pool
    /// worker threads whose span stacks are empty.
    fn diagnose_fragments(&self, fragments: &[SummaryFragment], parent: u64) -> Vec<SummaryBlock> {
        // 2a: NL transformation (the RAG query).
        let queries: Vec<String> = if self.config.nl_transform {
            let requests: Vec<CompletionRequest> =
                fragments.iter().map(transform::request).collect();
            self.wave("transform", &requests)
                .into_iter()
                .map(|c| c.text)
                .collect()
        } else {
            fragments.iter().map(SummaryFragment::json_text).collect()
        };

        // 2b/2c: retrieval + self-reflection filtering, then the grounded
        // diagnosis prompt.
        let requests: Vec<CompletionRequest> = fragments
            .par_iter()
            .enumerate()
            .map(|(i, fragment)| self.diagnosis_request(fragment, &queries[i], parent))
            .collect();

        // 2d: grounded per-fragment diagnosis.
        self.wave("diagnose", &requests)
            .iter()
            .zip(fragments)
            .map(|(c, f)| SummaryBlock::new(f.title.clone(), response_to_points(&c.text)))
            .collect()
    }

    /// Ground one fragment's query in retrieved, reflection-approved
    /// sources and build its diagnosis request.
    fn diagnosis_request(
        &self,
        fragment: &SummaryFragment,
        query: &str,
        parent: u64,
    ) -> CompletionRequest {
        let tracer = ioobserve::tracer();
        let mut fragment_span = tracer.span_child_fine("stage.fragment", parent);
        fragment_span.set_attr("title", &fragment.title);
        let retrieve_start = std::time::Instant::now();
        let sources = {
            let mut span = tracer.span_fine("stage.retrieve");
            span.set_attr("top_k", self.config.top_k);
            if self.config.use_rag {
                self.retriever
                    .retrieve_k(query, &self.reflection, self.config.top_k)
            } else {
                Vec::new()
            }
        };
        ioobserve::metrics()
            .histogram("stage.retrieve_ns")
            .record_duration(retrieve_start.elapsed());

        let mut prompt = format!(
            "### TASK: diagnose\nDiagnose I/O issues visible in the {} summary.\n",
            fragment.title
        );
        prompt.push_str(&fragment.evidence_lines());
        prompt.push_str(&format!("SUMMARY: {query}\n"));
        for s in &sources {
            prompt.push_str(&s.reference_lines());
        }
        CompletionRequest::new("You are an expert in HPC I/O performance.", prompt)
    }

    /// Issue one wave: `requests` to the backbone as one batch, under a
    /// fine `stage.llm` span carrying the stage (`op`) and the batch size
    /// (`calls`). An empty wave issues nothing.
    fn wave(&self, op: &str, requests: &[CompletionRequest]) -> Vec<Completion> {
        if requests.is_empty() {
            return Vec::new();
        }
        let started = std::time::Instant::now();
        let mut span = ioobserve::tracer().span_fine("stage.llm");
        span.set_attr("op", op);
        span.set_attr("calls", requests.len());
        let completions = self.model.complete_all(requests);
        drop(span);
        ioobserve::metrics()
            .histogram("stage.llm_ns")
            .record_duration(started.elapsed());
        self.waves.fetch_add(1, Ordering::Relaxed);
        completions
    }

    /// Open an interactive session seeded with a diagnosis of the trace.
    pub fn start_session(&self, trace: &DarshanTrace) -> AgentSession<'m> {
        let diagnosis = self.diagnose(trace);
        AgentSession::new(self.model, diagnosis, trace)
    }
}

/// Parse a diagnosis response into `- POINT[key]` lines (one per issue
/// block, references attached).
fn response_to_points(response: &str) -> Vec<String> {
    let mut points = Vec::new();
    let mut current: Option<(IssueLabel, Vec<String>, Vec<String>)> = None;
    let flush = |cur: &mut Option<(IssueLabel, Vec<String>, Vec<String>)>,
                 points: &mut Vec<String>| {
        if let Some((issue, body, refs)) = cur.take() {
            let mut line = format!(
                "- POINT[{}] Issue: {} — {}",
                issue.key(),
                issue.display_name(),
                body.join(" ")
            );
            if !refs.is_empty() {
                line.push_str(&format!(" ;; REFS: {}", refs.join(" | ")));
            }
            points.push(line);
        }
    };
    for raw in response.lines() {
        let line = raw.trim();
        if line == "Observations:" || line == "General suggestions:" {
            // Trailing free-form sections are not mergeable findings.
            flush(&mut current, &mut points);
            break;
        }
        if let Some(rest) = line.strip_prefix("Issue:") {
            flush(&mut current, &mut points);
            if let Ok(issue) = rest.trim().parse::<IssueLabel>() {
                current = Some((issue, Vec::new(), Vec::new()));
            }
        } else if let Some(cite) = line.strip_prefix("Reference:") {
            if let Some((_, _, refs)) = current.as_mut() {
                refs.push(cite.trim().to_string());
            }
        } else if !line.is_empty() {
            if let Some((_, body, _)) = current.as_mut() {
                body.push(line.to_string());
            }
        }
    }
    flush(&mut current, &mut points);
    points
}

/// Render merged points into the final report.
fn render_report(tool: &str, merged: &SummaryBlock) -> (String, Vec<IssueLabel>, Vec<String>) {
    let mut text = format!(
        "{tool} diagnosis report\n{}\n\n",
        "=".repeat(tool.len() + 17)
    );
    let mut issues: Vec<IssueLabel> = Vec::new();
    let mut references: BTreeSet<String> = BTreeSet::new();
    if merged.points.is_empty() {
        text.push_str("No significant I/O performance issues identified.\n");
        return (text, issues, Vec::new());
    }
    for point in &merged.points {
        // `- POINT[key] Issue: Name — body ;; REFS: [a] | [b]`
        let (head, refs) = match point.split_once(";; REFS:") {
            Some((h, r)) => (h, Some(r)),
            None => (point.as_str(), None),
        };
        let body = head
            .strip_prefix("- POINT[")
            .and_then(|r| r.split_once("] "))
            .map(|(_, b)| b)
            .unwrap_or(head);
        text.push_str(body.trim());
        text.push('\n');
        if let Some(key) = point
            .strip_prefix("- POINT[")
            .and_then(|r| r.split(']').next())
        {
            if let Ok(issue) = key.parse::<IssueLabel>() {
                if !issues.contains(&issue) {
                    issues.push(issue);
                }
            }
        }
        if let Some(refs) = refs {
            for r in refs.split('|') {
                let r = r.trim();
                if !r.is_empty() {
                    text.push_str(&format!("  Reference: {r}\n"));
                    references.insert(r.to_string());
                }
            }
        }
        text.push('\n');
    }
    (text, issues, references.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracebench::TraceBench;

    #[test]
    fn agent_diagnoses_simple_trace_accurately() {
        let tb = TraceBench::generate();
        let model = SimLlm::new("gpt-4o");
        let agent = IoAgent::new(&model);
        let entry = tb.get("sb01_small_io").unwrap();
        let d = agent.diagnose(&entry.trace);
        let found = d.issue_set();
        for l in entry.spec.labels {
            assert!(found.contains(l), "missing {l:?} in:\n{}", d.text);
        }
    }

    #[test]
    fn agent_finds_server_imbalance_where_drishti_cannot() {
        let tb = TraceBench::generate();
        let model = SimLlm::new("gpt-4o");
        let agent = IoAgent::new(&model);
        let d = agent.diagnose(&tb.get("sb10_server_hotspot").unwrap().trace);
        assert!(
            d.issues.contains(&IssueLabel::ServerLoadImbalance),
            "{}",
            d.text
        );
    }

    #[test]
    fn reports_carry_references() {
        let tb = TraceBench::generate();
        let model = SimLlm::new("gpt-4o");
        let agent = IoAgent::new(&model);
        let d = agent.diagnose(&tb.get("ra_amrex").unwrap().trace);
        assert!(!d.references.is_empty(), "{}", d.text);
        assert!(d.text.contains("Reference: ["));
    }

    #[test]
    fn diagnosis_is_deterministic() {
        let tb = TraceBench::generate();
        let model = SimLlm::new("llama-3.1-70b");
        let agent = IoAgent::new(&model);
        let t = &tb.get("sb04_shared_file").unwrap().trace;
        assert_eq!(agent.diagnose(t).text, agent.diagnose(t).text);
    }

    #[test]
    fn response_points_round_trip() {
        let response = "I/O Performance Diagnosis\n\n\
            Issue: Small Write I/O Requests\n  small writes hurt (data: 95%)\n\
            Recommendation: aggregate.\n  Reference: [A, B 2020]\n\n\
            Issue: Server Load Imbalance\n  stripe 1 (data: 1 of 64 OSTs)\n";
        let points = response_to_points(response);
        assert_eq!(points.len(), 2);
        assert!(points[0].contains("POINT[small_write]"));
        assert!(points[0].contains(";; REFS: [A, B 2020]"));
        assert!(points[1].contains("POINT[server_load_imbalance]"));
    }

    #[test]
    fn agent_recall_beats_ion_recall_across_subset() {
        let tb = TraceBench::generate();
        let model = SimLlm::new("gpt-4o");
        let agent = IoAgent::new(&model);
        let ion_model = SimLlm::new("gpt-4o");
        let ion = baselines_ion_recall_helper(&tb, &ion_model);
        let mut hit = 0;
        let mut total = 0;
        for e in tb.entries.iter().take(12) {
            let d = agent.diagnose(&e.trace);
            let found = d.issue_set();
            for l in e.spec.labels {
                total += 1;
                if found.contains(l) {
                    hit += 1;
                }
            }
        }
        let agent_recall = hit as f64 / total as f64;
        assert!(
            agent_recall > ion + 0.1,
            "agent {agent_recall:.2} vs ion {ion:.2}"
        );
    }

    // Minimal inline ION equivalent to avoid a circular dev-dependency on
    // the baselines crate.
    fn baselines_ion_recall_helper(tb: &TraceBench, model: &SimLlm) -> f64 {
        let mut hit = 0;
        let mut total = 0;
        for e in tb.entries.iter().take(12) {
            let raw = darshan::write::write_text(&e.trace);
            let req = CompletionRequest::new(
                "You are an expert in HPC I/O performance analysis.",
                format!("### TASK: diagnose\n## TRACE\n{raw}"),
            );
            let d = Diagnosis::from_text("ion", model.complete(&req).text);
            let found = d.issue_set();
            for l in e.spec.labels {
                total += 1;
                if found.contains(l) {
                    hit += 1;
                }
            }
        }
        hit as f64 / total as f64
    }
}
