//! Newline-delimited JSON protocol for the `ioagentd` front end.
//!
//! One request per line:
//!
//! ```json
//! {"id": "job-1", "trace": "<darshan-parser text>", "model": "gpt-4o",
//!  "top_k": 15, "use_rag": true, "nl_transform": true, "merge": "tree",
//!  "reflection_model": "gpt-4o-mini"}
//! ```
//!
//! Only `trace` is required; `id` defaults to the line number, `model` to
//! `gpt-4o`, and the remaining fields to the paper configuration. One
//! response (or error) per line, in request order:
//!
//! ```json
//! {"id": "job-1", "tool": "ioagent-gpt-4o", "issues": ["small_write"],
//!  "references": ["..."], "text": "...", "cached": false, "llm_calls": 93,
//!  "input_tokens": 31200, "output_tokens": 4800, "cost_usd": 0.21,
//!  "queue_wait_ms": 0.1, "exec_ms": 42.0, "worker": 3}
//! ```

use crate::resilience::JobFailure;
use crate::service::{JobRequest, JobResult, ServiceStats, SubmitError};
use ioagent_core::{AgentConfig, MergeStrategy};
use ioobserve::{HistogramSnapshot, RegistrySnapshot, SloReport};
use serde_json::{json, Map, Value};
use std::io::{self, BufRead};

/// Hard cap on a caller-supplied `trace_id`. Generous for any sane
/// correlation id while keeping span-file attrs bounded.
pub const MAX_TRACE_ID_BYTES: usize = 128;

/// Hard cap on one request line. A single darshan-parser text trace is
/// typically tens of kilobytes; 4 MiB leaves two orders of magnitude of
/// headroom while bounding per-connection memory, so one hostile or
/// corrupted line cannot balloon the daemon. Oversized lines are consumed
/// (to resynchronise on the next newline) and answered with a structured
/// per-line error instead of poisoning the stream.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 * 1024 * 1024;

/// Stable machine-readable classification of error replies, sent on the
/// wire as the `error_kind` field. The snake_case names are part of the
/// protocol (pinned by `error_replies_pin_exact_strings`); clients may
/// dispatch on them without parsing the human-readable `error` text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line exceeded [`MAX_REQUEST_LINE_BYTES`].
    OversizedLine,
    /// The line was not valid JSON.
    MalformedJson,
    /// Valid JSON, but the request fields were missing or out of range.
    InvalidRequest,
    /// The backbone or reflection model matches no known profile.
    UnknownModel,
    /// The service is shutting down and accepts no new jobs.
    Shutdown,
    /// An injected LLM timeout ended the job (retries disabled).
    LlmTimeout,
    /// An injected LLM rate-limit error ended the job (retries disabled).
    LlmRateLimited,
    /// An injected truncated LLM response ended the job (retries
    /// disabled).
    LlmTruncated,
    /// The job's deadline expired (in the queue or mid-execution).
    DeadlineExceeded,
    /// Every allowed LLM delivery attempt faulted.
    RetriesExhausted,
    /// The job panicked while executing; the service kept running.
    Internal,
}

impl ErrorKind {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::OversizedLine => "oversized_line",
            ErrorKind::MalformedJson => "malformed_json",
            ErrorKind::InvalidRequest => "invalid_request",
            ErrorKind::UnknownModel => "unknown_model",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::LlmTimeout => "llm_timeout",
            ErrorKind::LlmRateLimited => "llm_rate_limited",
            ErrorKind::LlmTruncated => "llm_truncated",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::RetriesExhausted => "retries_exhausted",
            ErrorKind::Internal => "internal",
        }
    }
}

impl From<&JobFailure> for ErrorKind {
    fn from(f: &JobFailure) -> ErrorKind {
        match f {
            JobFailure::DeadlineExceededQueued | JobFailure::DeadlineExceeded => {
                ErrorKind::DeadlineExceeded
            }
            JobFailure::RetriesExhausted { .. } => ErrorKind::RetriesExhausted,
            JobFailure::Fault(kind) => match kind {
                simllm::FaultKind::Timeout => ErrorKind::LlmTimeout,
                simllm::FaultKind::RateLimited => ErrorKind::LlmRateLimited,
                simllm::FaultKind::Truncated => ErrorKind::LlmTruncated,
            },
            JobFailure::Internal => ErrorKind::Internal,
        }
    }
}

impl From<&SubmitError> for ErrorKind {
    fn from(e: &SubmitError) -> ErrorKind {
        match e {
            SubmitError::UnknownModel(_) => ErrorKind::UnknownModel,
            SubmitError::ShuttingDown => ErrorKind::Shutdown,
        }
    }
}

/// A rejected request line: the id to answer under (the request's own
/// `id` whenever the JSON parsed far enough to reveal one) plus the
/// kind and reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Identifier to echo in the error response.
    pub id: String,
    /// Machine-readable classification (`error_kind` on the wire).
    pub kind: ErrorKind,
    /// Human-readable rejection reason.
    pub message: String,
}

/// One parsed protocol line.
#[derive(Debug)]
pub enum Request {
    /// A diagnosis job (boxed: a parsed trace is large).
    Job(Box<JobRequest>),
    /// A stats probe: `{"stats": true}` — answered inline with the
    /// service's aggregate counters, never enqueued.
    Stats {
        /// Identifier to echo in the stats response.
        id: String,
    },
    /// A metrics probe: `{"metrics": true}` — answered inline with the
    /// full observability registries (counters, gauges, and histogram
    /// quantiles per pipeline stage, lifetime and windowed), never
    /// enqueued.
    Metrics {
        /// Identifier to echo in the metrics response.
        id: String,
    },
    /// An SLO probe: `{"slo": true}` — answered inline with the daemon's
    /// configured SLO declarations evaluated against the current windowed
    /// quantiles, never enqueued.
    Slo {
        /// Identifier to echo in the SLO response.
        id: String,
    },
}

/// Parse one NDJSON line into a [`Request`] (job, stats, or metrics
/// probe).
pub fn parse_line(line: &str, default_id: &str) -> Result<Request, RequestError> {
    let value: Value = serde_json::from_str(line).map_err(|e| RequestError {
        id: default_id.to_string(),
        kind: ErrorKind::MalformedJson,
        message: e.to_string(),
    })?;
    let id = resolve_id(&value, default_id);
    if value.get("stats").and_then(Value::as_bool) == Some(true) {
        return Ok(Request::Stats { id });
    }
    if value.get("metrics").and_then(Value::as_bool) == Some(true) {
        return Ok(Request::Metrics { id });
    }
    if value.get("slo").and_then(Value::as_bool) == Some(true) {
        return Ok(Request::Slo { id });
    }
    parse_request_value(value, id).map(|job| Request::Job(Box::new(job)))
}

// Resolved before field validation so later rejections are attributable
// to the request's own id.
fn resolve_id(value: &Value, default_id: &str) -> String {
    value
        .get("id")
        .and_then(Value::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| default_id.to_string())
}

fn parse_request_value(value: Value, id: String) -> Result<JobRequest, RequestError> {
    let fail = |id: &str, message: String| RequestError {
        id: id.to_string(),
        kind: ErrorKind::InvalidRequest,
        message,
    };
    let trace_text = value
        .get("trace")
        .and_then(Value::as_str)
        .ok_or_else(|| fail(&id, "missing required string field \"trace\"".to_string()))?;
    let model = value
        .get("model")
        .and_then(Value::as_str)
        .unwrap_or("gpt-4o")
        .to_string();

    let mut config = AgentConfig::default();
    if let Some(k) = value.get("top_k").and_then(Value::as_i64) {
        if k < 1 {
            return Err(fail(&id, format!("top_k must be >= 1, got {k}")));
        }
        config.top_k = k as usize;
    }
    if let Some(b) = value.get("use_rag").and_then(Value::as_bool) {
        config.use_rag = b;
    }
    if let Some(b) = value.get("nl_transform").and_then(Value::as_bool) {
        config.nl_transform = b;
    }
    if let Some(m) = value.get("merge").and_then(Value::as_str) {
        config.merge = match m {
            "tree" => MergeStrategy::Tree,
            "flat" => MergeStrategy::Flat,
            other => {
                return Err(fail(
                    &id,
                    format!("unknown merge strategy {other:?} (tree|flat)"),
                ))
            }
        };
    }
    if let Some(m) = value.get("reflection_model").and_then(Value::as_str) {
        config.reflection_model = m.to_string();
    }
    let trace_id = match value.get("trace_id") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let t = v
                .as_str()
                .ok_or_else(|| fail(&id, "trace_id must be a string when present".to_string()))?;
            validate_trace_id(t).map_err(|e| fail(&id, e))?;
            Some(t.to_string())
        }
    };
    let deadline = match value.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let ms = v
                .as_f64()
                .filter(|ms| ms.is_finite() && *ms > 0.0)
                .ok_or_else(|| {
                    fail(
                        &id,
                        format!("deadline_ms must be a positive number, got {v:?}"),
                    )
                })?;
            Some(std::time::Duration::from_secs_f64(ms / 1e3))
        }
    };

    let mut request =
        JobRequest::from_trace_text(id.clone(), trace_text, model).map_err(|e| fail(&id, e))?;
    request.config = config;
    request.trace_id = trace_id;
    request.deadline = deadline;
    Ok(request)
}

/// A caller-supplied trace id must be non-empty, bounded, and span-attr
/// safe (alphanumeric plus `-_.:`), so it can be embedded in NDJSON span
/// files and grouped on without any escaping concerns.
fn validate_trace_id(t: &str) -> Result<(), String> {
    if t.is_empty() {
        return Err("trace_id must not be empty".to_string());
    }
    if t.len() > MAX_TRACE_ID_BYTES {
        return Err(format!(
            "trace_id of {} bytes exceeds the {MAX_TRACE_ID_BYTES} byte limit",
            t.len()
        ));
    }
    if let Some(bad) = t
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':')))
    {
        return Err(format!(
            "trace_id contains {bad:?}; allowed: ASCII alphanumerics and -_.:"
        ));
    }
    Ok(())
}

/// Render a completed job as one compact JSON line. Failed jobs render
/// as error replies: the same `{"error", "error_kind", "id"}` shape as
/// request-level rejections, with the failure's kind
/// (`deadline_exceeded`, `retries_exhausted`, `llm_*`).
pub fn render_result(result: &JobResult) -> String {
    if let Some(failure) = &result.failure {
        return render_error(&result.id, failure.into(), &failure.message());
    }
    let issues: Vec<Value> = result
        .diagnosis
        .issues
        .iter()
        .map(|i| json!(i.key()))
        .collect();
    let response = json!({
        "id": result.id,
        "tool": result.diagnosis.tool,
        "issues": issues,
        "references": result.diagnosis.references,
        "text": result.diagnosis.text,
        "cached": result.cached,
        "llm_calls": result.metrics.llm_calls,
        "input_tokens": result.metrics.input_tokens,
        "output_tokens": result.metrics.output_tokens,
        "cost_usd": result.metrics.cost_usd,
        "queue_wait_ms": result.metrics.queue_wait.as_secs_f64() * 1e3,
        "exec_ms": result.metrics.exec.as_secs_f64() * 1e3,
        "worker": if result.worker == usize::MAX { -1 } else { result.worker as i64 },
        "trace_id": result.trace_id,
    });
    serde_json::to_string(&response).expect("serialize response")
}

/// Render a per-line failure as one compact JSON line carrying both the
/// human-readable `error` and the stable machine-readable `error_kind`.
pub fn render_error(id: &str, kind: ErrorKind, message: &str) -> String {
    serde_json::to_string(&json!({ "id": id, "error": message, "error_kind": kind.as_str() }))
        .expect("serialize error")
}

/// Render the service's aggregate counters as one compact JSON line
/// (the response to a `{"stats": true}` request). `queue_depth` is the
/// probe-time queue occupancy — the one instantaneous gauge the
/// otherwise-monotonic stats reply carries.
pub fn render_stats(
    id: &str,
    stats: &ServiceStats,
    persistence: bool,
    queue_depth: usize,
) -> String {
    let response = json!({
        "id": id,
        "stats": json!({
            "jobs_completed": stats.jobs_completed,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "llm_calls": stats.llm_calls,
            "input_tokens": stats.input_tokens,
            "output_tokens": stats.output_tokens,
            "cost_usd": stats.cost_usd,
            "persistence": persistence,
            "persisted_entries": stats.persisted_entries,
            "journal_bytes": stats.journal_bytes,
            "queue_depth": queue_depth,
            "jobs_failed": stats.jobs_failed,
            "shed_total": stats.shed_total,
            "deadline_exceeded": stats.deadline_exceeded,
            "retries": stats.retries,
            "hedges": stats.hedges,
            "hedge_wins": stats.hedge_wins,
            "faults_timeout": stats.faults_timeout,
            "faults_rate_limited": stats.faults_rate_limited,
            "faults_truncated": stats.faults_truncated,
        }),
    });
    serde_json::to_string(&response).expect("serialize stats")
}

fn histogram_json(h: &HistogramSnapshot) -> Value {
    json!({
        "count": h.count,
        "sum_ns": h.sum,
        "mean_ns": h.mean(),
        "min_ns": h.min,
        "max_ns": h.max,
        "p50_ns": h.p50,
        "p90_ns": h.p90,
        "p99_ns": h.p99,
        "p999_ns": h.p999,
    })
}

/// One windowed histogram summary. An empty window reports `null`
/// statistics (not 0) — a dashboard renders `-`, and nothing downstream
/// can mistake "no samples in the last 10 s" for "p99 of zero".
fn histogram_window_json(h: &HistogramSnapshot, window_ns: u64) -> Value {
    let mut out = Map::new();
    out.insert("window_s".to_string(), json!(window_ns as f64 / 1e9));
    out.insert("count".to_string(), json!(h.count));
    let stat = |v: u64| if h.count == 0 { Value::Null } else { json!(v) };
    out.insert("sum_ns".to_string(), stat(h.sum));
    out.insert("mean_ns".to_string(), stat(h.mean()));
    out.insert("min_ns".to_string(), stat(h.min));
    out.insert("max_ns".to_string(), stat(h.max));
    out.insert("p50_ns".to_string(), stat(h.p50));
    out.insert("p90_ns".to_string(), stat(h.p90));
    out.insert("p99_ns".to_string(), stat(h.p99));
    out.insert("p999_ns".to_string(), stat(h.p999));
    Value::Object(out)
}

fn registry_json(snap: &RegistrySnapshot) -> Value {
    let mut counters = Map::new();
    for (name, v) in &snap.counters {
        counters.insert(name.clone(), json!(v));
    }
    for (name, v) in &snap.floats {
        counters.insert(name.clone(), json!(v));
    }
    let mut gauges = Map::new();
    for (name, v) in &snap.gauges {
        gauges.insert(name.clone(), json!(v));
    }
    let mut histograms = Map::new();
    for (name, h) in &snap.histograms {
        let mut entry = histogram_json(h);
        if let Some((_, wins)) = snap.histogram_windows.iter().find(|(n, _)| n == name) {
            let windows: Vec<Value> = wins
                .iter()
                .zip(&snap.window_ns)
                .map(|(w, &ns)| histogram_window_json(w, ns))
                .collect();
            entry
                .as_object_mut()
                .expect("histogram_json is an object")
                .insert("windows".to_string(), Value::Array(windows));
        }
        histograms.insert(name.clone(), entry);
    }
    let mut out = Map::new();
    out.insert("counters".to_string(), Value::Object(counters));
    out.insert("gauges".to_string(), Value::Object(gauges));
    out.insert("histograms".to_string(), Value::Object(histograms));
    if !snap.window_ns.is_empty() {
        let window_s: Vec<f64> = snap.window_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        out.insert("window_s".to_string(), json!(window_s));
        let mut counter_windows = Map::new();
        for (name, totals) in &snap.counter_windows {
            counter_windows.insert(name.clone(), json!(totals));
        }
        out.insert(
            "counter_windows".to_string(),
            Value::Object(counter_windows),
        );
        if let Some(rates) = rates_json(snap) {
            out.insert("rates".to_string(), rates);
        }
    }
    Value::Object(out)
}

/// Per-window throughput rates, derived from the windowed service
/// counters: jobs/s, errors/s, and the cache-hit ratio among jobs that
/// completed in the window (`null` when no jobs did). Only emitted for
/// registries that carry the `service.*` counters.
fn rates_json(snap: &RegistrySnapshot) -> Option<Value> {
    let windows = |name: &str| -> Option<&Vec<u64>> {
        snap.counter_windows
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    };
    let jobs = windows("service.jobs_completed")?;
    let hits = windows("service.cache_hits");
    let errors = windows("service.errors");
    let rows: Vec<Value> = snap
        .window_ns
        .iter()
        .enumerate()
        .map(|(i, &ns)| {
            let secs = ns as f64 / 1e9;
            let jobs_n = jobs.get(i).copied().unwrap_or(0);
            let hit_ratio = match (hits.and_then(|h| h.get(i)), jobs_n) {
                (_, 0) => Value::Null,
                (Some(&h), n) => json!(h as f64 / n as f64),
                (None, _) => Value::Null,
            };
            json!({
                "window_s": secs,
                "jobs_per_s": jobs_n as f64 / secs,
                "errors_per_s": errors.and_then(|e| e.get(i)).copied().unwrap_or(0) as f64 / secs,
                "cache_hit_ratio": hit_ratio,
            })
        })
        .collect();
    Some(Value::Array(rows))
}

/// Render the full observability registries as one compact JSON line
/// (the response to a `{"metrics": true}` request): the service's own
/// counters and latency histograms under `"service"`, and the
/// process-global stage/library metrics (pipeline stages, vecindex,
/// simllm, iostore) under `"process"`, each histogram summarized as
/// count/mean/min/max and p50/p90/p99/p999 in nanoseconds.
pub fn render_metrics(id: &str, service: &RegistrySnapshot, process: &RegistrySnapshot) -> String {
    let response = json!({
        "id": id,
        "metrics": json!({
            "service": registry_json(service),
            "process": registry_json(process),
        }),
    });
    serde_json::to_string(&response).expect("serialize metrics")
}

/// Render an evaluated SLO report as one compact JSON line (the response
/// to an `{"slo": true}` request). `checks` is empty when the daemon was
/// started without `--slo`.
pub fn render_slo(id: &str, report: &SloReport) -> String {
    let checks: Vec<Value> = report
        .checks
        .iter()
        .map(|c| {
            json!({
                "decl": c.decl.text,
                "metric": c.decl.metric,
                "quantile": c.decl.quantile.label(),
                "bound_ns": c.decl.bound_ns,
                "window_s": c.decl.window_ns as f64 / 1e9,
                "observed_ns": c.observed_ns,
                "samples": c.samples,
                "pass": c.pass,
                "note": c.note,
            })
        })
        .collect();
    let response = json!({
        "id": id,
        "slo": json!({ "pass": report.pass(), "checks": checks }),
    });
    serde_json::to_string(&response).expect("serialize slo")
}

fn snapshot_histogram(v: &Value) -> HistogramSnapshot {
    let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    HistogramSnapshot {
        count: field("count"),
        sum: field("sum_ns"),
        min: field("min_ns"),
        max: field("max_ns"),
        p50: field("p50_ns"),
        p90: field("p90_ns"),
        p99: field("p99_ns"),
        p999: field("p999_ns"),
    }
}

/// Reconstruct a [`RegistrySnapshot`] from one registry section of a
/// `{"metrics": true}` reply (the inverse of `registry_json`, up to the
/// empty-window `null`s, which map back to zeros under `count == 0`).
/// This is how `ioagentd top` and a remote `ioagentd slo-check` turn the
/// wire format back into the structures the renderer and the SLO engine
/// evaluate locally.
pub fn snapshot_from_metrics_json(section: &Value) -> RegistrySnapshot {
    let mut snap = RegistrySnapshot::default();
    if let Some(counters) = section.get("counters").and_then(Value::as_object) {
        for (name, v) in counters {
            // Integral values are counters; anything else came from a
            // FloatCounter.
            match v.as_u64() {
                Some(n) => snap.counters.push((name.clone(), n)),
                None => snap.floats.push((name.clone(), v.as_f64().unwrap_or(0.0))),
            }
        }
    }
    if let Some(gauges) = section.get("gauges").and_then(Value::as_object) {
        for (name, v) in gauges {
            snap.gauges.push((name.clone(), v.as_u64().unwrap_or(0)));
        }
    }
    snap.window_ns = section
        .get("window_s")
        .and_then(Value::as_array)
        .map(|ws| {
            ws.iter()
                .filter_map(Value::as_f64)
                .map(|s| (s * 1e9).round() as u64)
                .collect()
        })
        .unwrap_or_default();
    if let Some(hists) = section.get("histograms").and_then(Value::as_object) {
        for (name, h) in hists {
            snap.histograms.push((name.clone(), snapshot_histogram(h)));
            if let Some(wins) = h.get("windows").and_then(Value::as_array) {
                snap.histogram_windows
                    .push((name.clone(), wins.iter().map(snapshot_histogram).collect()));
            }
        }
    }
    if let Some(cw) = section.get("counter_windows").and_then(Value::as_object) {
        for (name, totals) in cw {
            let totals = totals
                .as_array()
                .map(|t| t.iter().filter_map(Value::as_u64).collect())
                .unwrap_or_default();
            snap.counter_windows.push((name.clone(), totals));
        }
    }
    snap
}

/// One read from a bounded request stream.
#[derive(Debug, PartialEq, Eq)]
pub enum InputLine {
    /// A complete line within the size limit (newline stripped).
    Line(String),
    /// A line longer than the limit. The excess has been consumed up to
    /// (and including) the next newline, so the stream is resynchronised;
    /// `bytes` is the total length of the discarded line.
    Oversized {
        /// Length of the oversized line in bytes.
        bytes: usize,
    },
    /// End of stream.
    Eof,
}

/// Read one `\n`-terminated line, holding at most `max` bytes in memory.
/// Unlike `BufRead::lines`, a gigantic line neither allocates unboundedly
/// nor kills the connection: it is drained and reported as
/// [`InputLine::Oversized`] so the caller can answer with a structured
/// error and keep serving subsequent lines.
pub fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> io::Result<InputLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut discarded = 0usize;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            // EOF. A final unterminated line still counts as a line.
            return Ok(if discarding {
                InputLine::Oversized {
                    bytes: discarded + buf.len(),
                }
            } else if buf.is_empty() {
                InputLine::Eof
            } else {
                InputLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if discarding {
            discarded += newline.map_or(take, |i| i);
        } else {
            let content = newline.map_or(take, |i| i);
            buf.extend_from_slice(&available[..content]);
            if buf.len() > max {
                discarding = true;
                discarded = buf.len();
                buf.clear();
            }
        }
        reader.consume(take);
        if newline.is_some() {
            return Ok(if discarding {
                InputLine::Oversized { bytes: discarded }
            } else {
                InputLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::Diagnosis;
    use std::time::Duration;

    /// Parse a line that must be a job request.
    fn parse_job(line: &str, default_id: &str) -> Result<JobRequest, RequestError> {
        match parse_line(line, default_id)? {
            Request::Job(job) => Ok(*job),
            other => panic!("expected a job request, got {other:?}"),
        }
    }

    fn trace_json_line() -> String {
        let suite = tracebench::TraceBench::generate();
        let text = darshan::write::write_text(&suite.entries[0].trace);
        serde_json::to_string(&json!({
            "id": "t1",
            "trace": text,
            "model": "gpt-4o-mini",
            "top_k": 5,
            "merge": "flat",
            "use_rag": false,
        }))
        .unwrap()
    }

    #[test]
    fn request_round_trip() {
        let line = trace_json_line();
        let req = parse_job(&line, "fallback").unwrap();
        assert_eq!(req.id, "t1");
        assert_eq!(req.model, "gpt-4o-mini");
        assert_eq!(req.config.top_k, 5);
        assert_eq!(req.config.merge, MergeStrategy::Flat);
        assert!(!req.config.use_rag);
        assert!(!req.trace.records.is_empty());
    }

    #[test]
    fn missing_trace_is_an_error() {
        let err = parse_job(r#"{"id": "x"}"#, "d").unwrap_err();
        assert_eq!(err.id, "x", "error must carry the request's own id");
        assert!(err.message.contains("trace"), "{}", err.message);
    }

    #[test]
    fn bad_merge_is_an_error() {
        let line = r#"{"trace": "", "merge": "diagonal"}"#;
        let err = parse_job(line, "d").unwrap_err();
        assert_eq!(err.id, "d", "no id in the request, so the fallback applies");
        assert!(err.message.contains("diagonal"), "{}", err.message);
    }

    #[test]
    fn defaults_apply() {
        let suite = tracebench::TraceBench::generate();
        let text = darshan::write::write_text(&suite.entries[0].trace);
        let line = serde_json::to_string(&json!({ "trace": text })).unwrap();
        let req = parse_job(&line, "line-7").unwrap();
        assert_eq!(req.id, "line-7");
        assert_eq!(req.model, "gpt-4o");
        assert_eq!(req.config.top_k, AgentConfig::default().top_k);
    }

    #[test]
    fn stats_request_parses_and_renders() {
        match parse_line(r#"{"id": "probe-1", "stats": true}"#, "d").unwrap() {
            Request::Stats { id } => assert_eq!(id, "probe-1"),
            other => panic!("expected stats request, got {other:?}"),
        }
        // A job line still parses as a job through the same entry point.
        match parse_line(&trace_json_line(), "d").unwrap() {
            Request::Job(job) => assert_eq!(job.id, "t1"),
            other => panic!("expected job, got {other:?}"),
        }
        let stats = ServiceStats {
            jobs_completed: 7,
            cache_hits: 3,
            cache_misses: 4,
            persisted_entries: 5,
            journal_bytes: 1234,
            jobs_failed: 6,
            shed_total: 2,
            deadline_exceeded: 4,
            retries: 11,
            hedges: 9,
            hedge_wins: 5,
            faults_timeout: 3,
            faults_rate_limited: 2,
            faults_truncated: 1,
            ..Default::default()
        };
        let line = render_stats("probe-1", &stats, true, 2);
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back.get("id").and_then(Value::as_str), Some("probe-1"));
        let s = back.get("stats").unwrap();
        assert_eq!(s.get("cache_hits").and_then(Value::as_i64), Some(3));
        assert_eq!(s.get("cache_misses").and_then(Value::as_i64), Some(4));
        assert_eq!(s.get("persisted_entries").and_then(Value::as_i64), Some(5));
        assert_eq!(s.get("journal_bytes").and_then(Value::as_i64), Some(1234));
        assert_eq!(s.get("persistence").and_then(Value::as_bool), Some(true));
        assert_eq!(s.get("queue_depth").and_then(Value::as_i64), Some(2));
        // Resilience counters ride along in the same probe.
        assert_eq!(s.get("jobs_failed").and_then(Value::as_i64), Some(6));
        assert_eq!(s.get("shed_total").and_then(Value::as_i64), Some(2));
        assert_eq!(s.get("deadline_exceeded").and_then(Value::as_i64), Some(4));
        assert_eq!(s.get("retries").and_then(Value::as_i64), Some(11));
        assert_eq!(s.get("hedges").and_then(Value::as_i64), Some(9));
        assert_eq!(s.get("hedge_wins").and_then(Value::as_i64), Some(5));
        assert_eq!(s.get("faults_timeout").and_then(Value::as_i64), Some(3));
        assert_eq!(
            s.get("faults_rate_limited").and_then(Value::as_i64),
            Some(2)
        );
        assert_eq!(s.get("faults_truncated").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn metrics_request_parses_and_renders() {
        match parse_line(r#"{"id": "m-1", "metrics": true}"#, "d").unwrap() {
            Request::Metrics { id } => assert_eq!(id, "m-1"),
            other => panic!("expected metrics request, got {other:?}"),
        }
        let service = ioobserve::MetricsRegistry::new();
        service.counter("service.jobs_completed").add(4);
        let h = service.histogram("service.exec_ns");
        for v in [100u64, 200, 300, 4_000] {
            h.record(v);
        }
        let process = ioobserve::MetricsRegistry::new();
        process.counter("llm.calls").add(9);
        process.float_counter("llm.cost_usd").add(0.5);
        process.gauge("service.queue_depth").set(3);
        let line = render_metrics("m-1", &service.snapshot(), &process.snapshot());
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back.get("id").and_then(Value::as_str), Some("m-1"));
        let m = back.get("metrics").unwrap();
        let svc = m.get("service").unwrap();
        assert_eq!(
            svc.get("counters")
                .and_then(|c| c.get("service.jobs_completed"))
                .and_then(Value::as_i64),
            Some(4)
        );
        let exec = svc
            .get("histograms")
            .and_then(|h| h.get("service.exec_ns"))
            .unwrap();
        assert_eq!(exec.get("count").and_then(Value::as_i64), Some(4));
        assert_eq!(exec.get("min_ns").and_then(Value::as_i64), Some(100));
        assert_eq!(exec.get("max_ns").and_then(Value::as_i64), Some(4_000));
        let p50 = exec.get("p50_ns").and_then(Value::as_i64).unwrap();
        assert!((200..=213).contains(&p50), "p50 {p50} outside error bound");
        assert!(exec.get("p99_ns").is_some() && exec.get("p999_ns").is_some());
        let proc = m.get("process").unwrap();
        assert_eq!(
            proc.get("counters")
                .and_then(|c| c.get("llm.calls"))
                .and_then(Value::as_i64),
            Some(9)
        );
        assert_eq!(
            proc.get("counters")
                .and_then(|c| c.get("llm.cost_usd"))
                .and_then(Value::as_f64),
            Some(0.5)
        );
        assert_eq!(
            proc.get("gauges")
                .and_then(|g| g.get("service.queue_depth"))
                .and_then(Value::as_i64),
            Some(3)
        );
    }

    /// The exact reply bytes for every error kind are protocol surface:
    /// clients dispatch on `error_kind`, and scripts grep the `error`
    /// text. Pin them so a refactor cannot silently reshape them.
    #[test]
    fn error_replies_pin_exact_strings() {
        assert_eq!(
            render_error(
                "line-3",
                ErrorKind::OversizedLine,
                "request line of 5000000 bytes exceeds the 4194304 byte limit"
            ),
            r#"{"error":"request line of 5000000 bytes exceeds the 4194304 byte limit","error_kind":"oversized_line","id":"line-3"}"#
        );
        assert_eq!(
            render_error("line-1", ErrorKind::MalformedJson, "invalid JSON"),
            r#"{"error":"invalid JSON","error_kind":"malformed_json","id":"line-1"}"#
        );
        assert_eq!(
            render_error(
                "x",
                ErrorKind::InvalidRequest,
                "missing required string field \"trace\""
            ),
            r#"{"error":"missing required string field \"trace\"","error_kind":"invalid_request","id":"x"}"#
        );
        let unknown = SubmitError::UnknownModel("gpt-9".to_string());
        assert_eq!(
            render_error("j1", (&unknown).into(), &unknown.to_string()),
            r#"{"error":"unknown model profile \"gpt-9\"","error_kind":"unknown_model","id":"j1"}"#
        );
        let down = SubmitError::ShuttingDown;
        assert_eq!(
            render_error("j3", (&down).into(), &down.to_string()),
            r#"{"error":"service is shutting down","error_kind":"shutdown","id":"j3"}"#
        );
        // Job failures reuse the same reply shape. Each of the six kinds
        // is pinned byte-for-byte.
        let shed = JobFailure::DeadlineExceededQueued;
        assert_eq!(
            render_error("j4", (&shed).into(), &shed.message()),
            r#"{"error":"deadline expired while the job was queued; shed without executing","error_kind":"deadline_exceeded","id":"j4"}"#
        );
        let late = JobFailure::DeadlineExceeded;
        assert_eq!(
            render_error("j5", (&late).into(), &late.message()),
            r#"{"error":"deadline expired during execution","error_kind":"deadline_exceeded","id":"j5"}"#
        );
        let spent = JobFailure::RetriesExhausted {
            attempts: 4,
            last: simllm::FaultKind::Timeout,
        };
        assert_eq!(
            render_error("j6", (&spent).into(), &spent.message()),
            r#"{"error":"all 4 delivery attempts faulted (last: llm_timeout)","error_kind":"retries_exhausted","id":"j6"}"#
        );
        for (kind, wire) in [
            (simllm::FaultKind::Timeout, "llm_timeout"),
            (simllm::FaultKind::RateLimited, "llm_rate_limited"),
            (simllm::FaultKind::Truncated, "llm_truncated"),
        ] {
            let fault = JobFailure::Fault(kind);
            assert_eq!(
                render_error("j7", (&fault).into(), &fault.message()),
                format!(
                    r#"{{"error":"llm fault with retries disabled: {wire}","error_kind":"{wire}","id":"j7"}}"#
                )
            );
        }
        let panicked = JobFailure::Internal;
        assert_eq!(
            render_error("j8", (&panicked).into(), &panicked.message()),
            r#"{"error":"internal error: the job panicked","error_kind":"internal","id":"j8"}"#
        );
    }

    #[test]
    fn trace_id_parses_and_validates() {
        let suite = tracebench::TraceBench::generate();
        let text = darshan::write::write_text(&suite.entries[0].trace);
        let line =
            serde_json::to_string(&json!({ "trace": text, "trace_id": "req-7.a:b_c" })).unwrap();
        let req = parse_job(&line, "d").unwrap();
        assert_eq!(req.trace_id.as_deref(), Some("req-7.a:b_c"));
        // Absent → None (the service generates one at submit time).
        let line = serde_json::to_string(&json!({ "trace": text })).unwrap();
        assert_eq!(parse_job(&line, "d").unwrap().trace_id, None);
        // Empty, oversized, non-string, and unsafe-charset ids rejected.
        for bad in [
            json!(""),
            json!("x".repeat(MAX_TRACE_ID_BYTES + 1)),
            json!(17),
            json!("has space"),
            json!("quote\""),
        ] {
            let line = serde_json::to_string(&json!({ "trace": text, "trace_id": bad })).unwrap();
            let err = parse_job(&line, "d").unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidRequest, "{bad:?}");
            assert!(err.message.contains("trace_id"), "{}", err.message);
        }
    }

    #[test]
    fn deadline_ms_parses_and_validates() {
        let suite = tracebench::TraceBench::generate();
        let text = darshan::write::write_text(&suite.entries[0].trace);
        // Absent → no per-request deadline (the daemon default applies).
        let line = serde_json::to_string(&json!({ "trace": text })).unwrap();
        assert_eq!(parse_job(&line, "d").unwrap().deadline, None);
        // Present → the request carries its own deadline budget.
        let line = serde_json::to_string(&json!({ "trace": text, "deadline_ms": 250 })).unwrap();
        assert_eq!(
            parse_job(&line, "d").unwrap().deadline,
            Some(Duration::from_millis(250))
        );
        // Fractional milliseconds are honoured.
        let line = serde_json::to_string(&json!({ "trace": text, "deadline_ms": 0.5 })).unwrap();
        assert_eq!(
            parse_job(&line, "d").unwrap().deadline,
            Some(Duration::from_micros(500))
        );
        // Explicit null means "no deadline", same as absent.
        let line =
            serde_json::to_string(&json!({ "trace": text, "deadline_ms": Value::Null })).unwrap();
        assert_eq!(parse_job(&line, "d").unwrap().deadline, None);
        // Zero, negative, and non-numeric budgets are rejected.
        for bad in [json!(0), json!(-5), json!("fast"), json!(true)] {
            let line =
                serde_json::to_string(&json!({ "trace": text, "deadline_ms": bad })).unwrap();
            let err = parse_job(&line, "d").unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidRequest, "{bad:?}");
            assert!(err.message.contains("deadline_ms"), "{}", err.message);
        }
    }

    #[test]
    fn failed_result_renders_as_error_reply() {
        let result = JobResult {
            id: "late-1".into(),
            diagnosis: Diagnosis {
                tool: "ioagent-gpt-4o".into(),
                text: String::new(),
                issues: vec![],
                references: vec![],
            },
            cached: false,
            worker: 0,
            metrics: crate::service::JobMetrics::default(),
            trace_id: "abc123-00000001".into(),
            failure: Some(JobFailure::DeadlineExceededQueued),
        };
        // A failed job is rendered as a structured error, never as a
        // (vacuous) diagnosis payload.
        assert_eq!(
            render_result(&result),
            r#"{"error":"deadline expired while the job was queued; shed without executing","error_kind":"deadline_exceeded","id":"late-1"}"#
        );
    }

    #[test]
    fn slo_request_parses_and_renders() {
        match parse_line(r#"{"id": "s-1", "slo": true}"#, "d").unwrap() {
            Request::Slo { id } => assert_eq!(id, "s-1"),
            other => panic!("expected slo request, got {other:?}"),
        }
        let decls = ioobserve::parse_slo_file("exec_p99 < 250ms over 60s").unwrap();
        let snap = RegistrySnapshot {
            window_ns: vec![60_000_000_000],
            histogram_windows: vec![(
                "service.exec_ns".to_string(),
                vec![HistogramSnapshot {
                    count: 9,
                    sum: 9 * 400_000_000,
                    min: 400_000_000,
                    max: 400_000_000,
                    p50: 400_000_000,
                    p90: 400_000_000,
                    p99: 400_000_000,
                    p999: 400_000_000,
                }],
            )],
            ..RegistrySnapshot::default()
        };
        let report = ioobserve::evaluate_slos(&decls, &[&snap]);
        let line = render_slo("s-1", &report);
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back.get("id").and_then(Value::as_str), Some("s-1"));
        let slo = back.get("slo").unwrap();
        assert_eq!(slo.get("pass").and_then(Value::as_bool), Some(false));
        let check = &slo.get("checks").and_then(Value::as_array).unwrap()[0];
        assert_eq!(
            check.get("decl").and_then(Value::as_str),
            Some("exec_p99 < 250ms over 60s")
        );
        assert_eq!(
            check.get("observed_ns").and_then(Value::as_u64),
            Some(400_000_000)
        );
        assert_eq!(check.get("pass").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn windowed_metrics_render_and_round_trip() {
        use ioobserve::{VirtualClock, WindowSpec};
        use std::sync::Arc;
        let clock = Arc::new(VirtualClock::new());
        let spec = WindowSpec::new(
            Arc::clone(&clock) as Arc<dyn ioobserve::Clock>,
            1_000_000_000,
            &[10_000_000_000, 60_000_000_000],
        );
        let service = ioobserve::MetricsRegistry::windowed(spec);
        service.counter("service.jobs_completed").add(8);
        service.counter("service.cache_hits").add(2);
        service.counter("service.errors").add(1);
        service.counter("service.retries").add(5);
        service.counter("service.hedges").add(3);
        service.counter("service.shed_total").add(1);
        let h = service.histogram("service.exec_ns");
        h.record(5_000_000);
        // An idle histogram: lifetime-empty, so its windows are empty too.
        service.histogram("service.persist_ns");
        let process = ioobserve::MetricsRegistry::new();
        let line = render_metrics("m-2", &service.snapshot(), &process.snapshot());
        let back: Value = serde_json::from_str(&line).unwrap();
        let svc = back.get("metrics").and_then(|m| m.get("service")).unwrap();

        // Offered windows and per-window counter totals are reported.
        assert_eq!(
            svc.get("window_s").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );
        assert_eq!(
            svc.get("counter_windows")
                .and_then(|c| c.get("service.jobs_completed"))
                .and_then(Value::as_array)
                .map(|t| t.iter().filter_map(Value::as_u64).collect::<Vec<_>>()),
            Some(vec![8, 8])
        );
        // Rates: 8 jobs in 10s = 0.8 jobs/s, hit ratio 2/8.
        let rates = svc.get("rates").and_then(Value::as_array).unwrap();
        assert!((rates[0].get("jobs_per_s").and_then(Value::as_f64).unwrap() - 0.8).abs() < 1e-9);
        assert!(
            (rates[0]
                .get("cache_hit_ratio")
                .and_then(Value::as_f64)
                .unwrap()
                - 0.25)
                .abs()
                < 1e-9
        );
        assert!(
            (rates[0]
                .get("errors_per_s")
                .and_then(Value::as_f64)
                .unwrap()
                - 0.1)
                .abs()
                < 1e-9
        );

        // Histogram windows: populated window carries quantiles, empty
        // window reports null (not zero) statistics.
        let exec = svc
            .get("histograms")
            .and_then(|h| h.get("service.exec_ns"))
            .unwrap();
        assert_eq!(exec.get("sum_ns").and_then(Value::as_u64), Some(5_000_000));
        let windows = exec.get("windows").and_then(Value::as_array).unwrap();
        assert_eq!(windows[0].get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(
            windows[0].get("p99_ns").and_then(Value::as_u64),
            Some(5_000_000)
        );
        let idle = svc
            .get("histograms")
            .and_then(|h| h.get("service.persist_ns"))
            .and_then(|h| h.get("windows"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(idle[0].get("count").and_then(Value::as_u64), Some(0));
        assert!(
            idle[0].get("p99_ns").unwrap().is_null(),
            "empty windows must report null quantiles, not 0"
        );

        // Resilience counters participate in the same windowing: both
        // offered windows carry the lifetime-so-far totals.
        for (name, want) in [
            ("service.retries", 5u64),
            ("service.hedges", 3),
            ("service.shed_total", 1),
        ] {
            assert_eq!(
                svc.get("counter_windows")
                    .and_then(|c| c.get(name))
                    .and_then(Value::as_array)
                    .map(|t| t.iter().filter_map(Value::as_u64).collect::<Vec<_>>()),
                Some(vec![want, want]),
                "{name}"
            );
        }

        // The wire format reconstructs into a snapshot the SLO engine
        // can evaluate: an over-bound p99 in the 10s window fails.
        let rebuilt = snapshot_from_metrics_json(svc);
        assert_eq!(rebuilt.window_ns, vec![10_000_000_000, 60_000_000_000]);
        let decls = ioobserve::parse_slo_file("exec_p99 < 1ms over 10s").unwrap();
        let report = ioobserve::evaluate_slos(&decls, &[&rebuilt]);
        assert!(!report.pass(), "5ms p99 must violate the 1ms bound");
        // And the indeterminate (empty-window) metric still passes.
        let decls = ioobserve::parse_slo_file("persist_p99 < 1ns over 10s").unwrap();
        assert!(ioobserve::evaluate_slos(&decls, &[&rebuilt]).pass());

        // Rotation: once the clock moves past the short window, the
        // resilience counters age out of the 10s view but survive in
        // the 60s one — stale retries must not pollute fresh rates.
        clock.advance(11_000_000_000);
        let line = render_metrics("m-3", &service.snapshot(), &process.snapshot());
        let back: Value = serde_json::from_str(&line).unwrap();
        let svc = back.get("metrics").and_then(|m| m.get("service")).unwrap();
        assert_eq!(
            svc.get("counter_windows")
                .and_then(|c| c.get("service.retries"))
                .and_then(Value::as_array)
                .map(|t| t.iter().filter_map(Value::as_u64).collect::<Vec<_>>()),
            Some(vec![0, 5]),
            "retries must age out of the 10s window but stay in the 60s one"
        );
    }

    #[test]
    fn malformed_json_carries_kind() {
        let err = parse_line("{not json", "line-9").unwrap_err();
        assert_eq!(err.kind, ErrorKind::MalformedJson);
        assert_eq!(err.id, "line-9");
        let err = parse_job(r#"{"id": "x"}"#, "d").unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn bounded_reader_passes_normal_lines() {
        let mut input = io::Cursor::new(b"one\ntwo\nthree".to_vec());
        assert_eq!(
            read_bounded_line(&mut input, 16).unwrap(),
            InputLine::Line("one".into())
        );
        assert_eq!(
            read_bounded_line(&mut input, 16).unwrap(),
            InputLine::Line("two".into())
        );
        // Unterminated final line still delivered, then EOF.
        assert_eq!(
            read_bounded_line(&mut input, 16).unwrap(),
            InputLine::Line("three".into())
        );
        assert_eq!(read_bounded_line(&mut input, 16).unwrap(), InputLine::Eof);
    }

    #[test]
    fn bounded_reader_drains_oversized_line_and_resynchronises() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"after\n");
        let mut input = io::Cursor::new(data);
        assert_eq!(
            read_bounded_line(&mut input, 10).unwrap(),
            InputLine::Oversized { bytes: 100 }
        );
        // The stream survives: the next line parses normally.
        assert_eq!(
            read_bounded_line(&mut input, 10).unwrap(),
            InputLine::Line("after".into())
        );
        // Oversized line at EOF without a trailing newline.
        let mut input = io::Cursor::new(vec![b'y'; 50]);
        assert_eq!(
            read_bounded_line(&mut input, 10).unwrap(),
            InputLine::Oversized { bytes: 50 }
        );
    }

    #[test]
    fn result_renders_parseable_json() {
        let result = JobResult {
            id: "j".into(),
            diagnosis: Diagnosis {
                tool: "ioagent-gpt-4o".into(),
                text: "line one\nline \"two\"".into(),
                issues: vec![tracebench::IssueLabel::SmallWrite],
                references: vec!["[A, B 2020]".into()],
            },
            cached: false,
            worker: 2,
            metrics: crate::service::JobMetrics {
                llm_calls: 3,
                exec: Duration::from_millis(5),
                ..Default::default()
            },
            trace_id: "abc123-00000001".into(),
            failure: None,
        };
        let line = render_result(&result);
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back.get("id").and_then(Value::as_str), Some("j"));
        assert_eq!(back.get("llm_calls").and_then(Value::as_i64), Some(3));
        assert_eq!(back.get("worker").and_then(Value::as_i64), Some(2));
        assert_eq!(
            back.get("trace_id").and_then(Value::as_str),
            Some("abc123-00000001"),
            "the job's trace context is echoed in the reply"
        );
        // Issue labels use the documented stable snake_case keys.
        assert_eq!(
            back.get("issues"),
            Some(&Value::Array(vec![Value::String("small_write".into())]))
        );
        assert_eq!(
            back.get("text").and_then(Value::as_str),
            Some("line one\nline \"two\"")
        );
    }
}
