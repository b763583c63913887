//! End-to-end persistence smoke: drive the real `ioagentd` binary over
//! stdio, restart it against the same `--state-dir`, and assert the repeat
//! batch is served with zero LLM calls and byte-identical reports. Also
//! exercises the hardened input path (oversized and malformed lines) and
//! the in-band `{"stats": true}` probe. This is the test CI runs as its
//! persistence smoke job.

use serde_json::{json, Value};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ioagentd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run the daemon with the given args, feed it `input`, return stdout
/// lines parsed as JSON.
fn run_daemon(args: &[&str], input: &str) -> Vec<Value> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ioagentd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ioagentd");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let output = child.wait_with_output().expect("daemon exit");
    assert!(
        output.status.success(),
        "daemon exited with {:?}",
        output.status
    );
    String::from_utf8(output.stdout)
        .expect("utf-8 stdout")
        .lines()
        .map(|l| serde_json::from_str(l).expect("response line is JSON"))
        .collect()
}

fn request_lines(n: usize) -> String {
    let suite = tracebench::TraceBench::generate();
    let mut out = String::new();
    for entry in suite.entries.iter().take(n) {
        let text = darshan::write::write_text(&entry.trace);
        let line = json!({
            "id": entry.spec.id,
            "trace": text,
            "model": "gpt-4o-mini",
        });
        out.push_str(&serde_json::to_string(&line).unwrap());
        out.push('\n');
    }
    out
}

fn llm_calls(response: &Value) -> i64 {
    response
        .get("llm_calls")
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("response without llm_calls: {response:?}"))
}

#[test]
fn daemon_restart_serves_previous_batch_for_free() {
    let state = TempDir::new("smoke-state");
    let state_arg = state.0.to_str().unwrap();
    let requests = request_lines(3);

    // Generation 1: cold state dir — real diagnoses, journalled to disk.
    let first = run_daemon(&["--workers", "2", "--state-dir", state_arg], &requests);
    assert_eq!(first.len(), 3);
    for r in &first {
        assert!(llm_calls(r) > 0, "cold run must hit the LLM: {r:?}");
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
    }
    assert!(state.0.join(iostore::RESULTS_FILE).is_file());
    assert!(state.0.join(iostore::INDEX_FILE).is_file());

    // Generation 2: a fresh daemon process over the same state dir. The
    // index comes from the snapshot, the batch from the journal: zero LLM
    // calls, byte-identical reports.
    let second = run_daemon(&["--workers", "2", "--state-dir", state_arg], &requests);
    assert_eq!(second.len(), 3);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            llm_calls(b),
            0,
            "restart must serve from the journal: {b:?}"
        );
        assert_eq!(b.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(a.get("id"), b.get("id"));
        assert_eq!(
            a.get("text"),
            b.get("text"),
            "reports must be byte-identical"
        );
        assert_eq!(a.get("issues"), b.get("issues"));
        assert_eq!(a.get("references"), b.get("references"));
    }
}

#[test]
fn daemon_stats_probe_reports_cache_and_journal_counters() {
    let state = TempDir::new("stats-state");
    let state_arg = state.0.to_str().unwrap();
    let mut input = request_lines(2);
    // Same two traces again (served from cache), then a stats probe.
    input.push_str(&request_lines(2));
    input.push_str("{\"id\": \"probe\", \"stats\": true}\n");

    let responses = run_daemon(&["--workers", "1", "--state-dir", state_arg], &input);
    assert_eq!(responses.len(), 5);
    let stats = responses[4].get("stats").expect("stats response");
    assert_eq!(
        responses[4].get("id").and_then(Value::as_str),
        Some("probe")
    );
    assert_eq!(stats.get("jobs_completed").and_then(Value::as_i64), Some(4));
    assert_eq!(stats.get("cache_hits").and_then(Value::as_i64), Some(2));
    assert_eq!(stats.get("cache_misses").and_then(Value::as_i64), Some(2));
    assert_eq!(
        stats.get("persistence").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        stats.get("persisted_entries").and_then(Value::as_i64),
        Some(2)
    );
    assert!(stats.get("journal_bytes").and_then(Value::as_i64).unwrap() > 0);
}

#[test]
fn daemon_survives_malformed_and_oversized_lines() {
    let mut input = String::new();
    input.push_str("{\"id\": \"bad\", \"nonsense\": true}\n"); // missing trace
    input.push_str("this is not json at all\n");
    // An oversized line (> 4 MiB) of garbage.
    input.push_str(&"x".repeat(ioagentd::protocol::MAX_REQUEST_LINE_BYTES + 16));
    input.push('\n');
    input.push_str(&request_lines(1)); // a valid job after all that

    let responses = run_daemon(&["--workers", "1"], &input);
    assert_eq!(responses.len(), 4, "every line gets exactly one response");
    assert_eq!(
        responses[0].get("id").and_then(Value::as_str),
        Some("bad"),
        "parseable id must be echoed in the error"
    );
    assert!(responses[0].get("error").is_some());
    assert!(responses[1].get("error").is_some());
    let oversized = responses[2].get("error").and_then(Value::as_str).unwrap();
    assert!(oversized.contains("exceeds"), "{oversized}");
    // The stream survived: the valid job ran normally.
    assert!(llm_calls(&responses[3]) > 0);
    assert!(responses[3].get("error").is_none());
}

#[test]
fn daemon_rejects_deeply_nested_json_and_keeps_serving() {
    // 200 KB of nesting: far past the parser's 128-level bound, well
    // under the line limit. Unbounded recursion would overflow the stack
    // and abort the process.
    let depth = 100_000;
    let mut input = "[".repeat(depth) + &"]".repeat(depth);
    input.push('\n');
    input.push_str("{\"id\": \"probe\", \"stats\": true}\n");

    let responses = run_daemon(&["--workers", "1"], &input);
    assert_eq!(responses.len(), 2, "every line gets exactly one response");
    assert_eq!(
        responses[0].get("error_kind").and_then(Value::as_str),
        Some("malformed_json"),
        "{:?}",
        responses[0]
    );
    assert!(
        responses[1].get("stats").is_some(),
        "the daemon must answer after the nested line: {:?}",
        responses[1]
    );
}
