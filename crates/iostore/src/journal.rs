//! Append-only NDJSON journal of completed diagnoses.
//!
//! One record per line:
//!
//! ```json
//! {"v": 1, "trace": "0x9f2c…", "model": "gpt-4o",
//!  "config": "AgentConfig { … }", "tool": "ioagent-gpt-4o",
//!  "text": "…full report…", "issues": ["small_write"],
//!  "references": ["[…]"]}
//! ```
//!
//! The journal is the fleet-lifetime result map: every distinct
//! `(trace fingerprint, model, config)` key ever diagnosed, with the last
//! record for a key winning. Records are appended (and flushed) as jobs
//! complete; on open the whole file is replayed into an in-memory map.
//! Robustness rules:
//!
//! - A **torn final line** (crash mid-append) is skipped, not fatal.
//! - A corrupt or unknown-version line anywhere is skipped and counted.
//! - If any line was skipped — or the file does not end in a newline — the
//!   journal is compacted on open, so damage never accumulates and a torn
//!   tail can never swallow the next appended record.
//! - Appends of a key already stored with the same diagnosis are no-ops,
//!   and compaction rewrites one record per live key whenever the file
//!   grows past twice the live-entry count.

use crate::{fnv1a, FNV_OFFSET};
use serde_json::{json, Value};
use simllm::Diagnosis;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use tracebench::IssueLabel;

/// Journal record format version.
const JOURNAL_FORMAT_VERSION: i64 = 1;

/// Compaction is considered once the file holds this many raw records.
const COMPACT_MIN_RECORDS: usize = 64;

/// Key of one persisted result: the same triple the in-memory LRU uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Stable FNV-1a hash of the canonical trace text.
    pub trace_hash: u64,
    /// Backbone model profile name.
    pub model: String,
    /// Full agent configuration rendered as a stable string.
    pub config: String,
}

impl ResultKey {
    /// Hash of the key itself (journal fingerprint, used in summaries).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &self.trace_hash.to_le_bytes());
        fnv1a(&mut h, self.model.as_bytes());
        fnv1a(&mut h, self.config.as_bytes());
        h
    }
}

/// Disk-backed map of completed diagnoses.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    writer: BufWriter<File>,
    entries: HashMap<ResultKey, Diagnosis>,
    /// Raw records currently in the file (≥ `entries.len()` until compaction).
    file_records: usize,
    /// Lines skipped while loading (torn tail and/or corrupt records).
    skipped_lines: usize,
}

impl ResultStore {
    /// Open a journal, replaying every intact record. Creates the file if
    /// missing. A torn final line or corrupt interior lines are skipped and
    /// healed by an immediate compaction; they never refuse the open.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        // Read *bytes*, not a String: a torn tail can split a multi-byte
        // UTF-8 character (diagnosis text is not ASCII-only), and
        // `read_to_string` would then fail the whole open instead of
        // skipping one line.
        let mut raw: Vec<u8> = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let mut entries = HashMap::new();
        let mut file_records = 0usize;
        let mut skipped_lines = 0usize;
        for line in raw.split(|&b| b == b'\n') {
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            match std::str::from_utf8(line).ok().and_then(parse_record) {
                Some((key, diagnosis)) => {
                    entries.insert(key, diagnosis);
                    file_records += 1;
                }
                None => skipped_lines += 1,
            }
        }

        let writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(&path)?);
        let mut store = ResultStore {
            path,
            writer,
            entries,
            file_records,
            skipped_lines,
        };
        // Heal damage at open time: skipped lines mean the file holds
        // garbage, and a missing trailing newline means the next append
        // would glue itself onto the torn record.
        if store.skipped_lines > 0 || (!raw.is_empty() && !raw.ends_with(b"\n")) {
            store.compact()?;
        }
        Ok(store)
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Distinct keys currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current size of the journal file in bytes.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Look up a persisted diagnosis.
    pub fn get(&self, key: &ResultKey) -> Option<&Diagnosis> {
        self.entries.get(key)
    }

    /// Iterate all persisted results.
    pub fn iter(&self) -> impl Iterator<Item = (&ResultKey, &Diagnosis)> {
        self.entries.iter()
    }

    /// Persist one result: append a record and flush. Re-inserting a key
    /// with an unchanged diagnosis is a no-op; a changed diagnosis appends
    /// a superseding record (last record for a key wins on replay). The
    /// journal self-compacts once duplicates outnumber live entries.
    pub fn insert(&mut self, key: ResultKey, diagnosis: Diagnosis) -> io::Result<()> {
        if self.entries.get(&key) == Some(&diagnosis) {
            return Ok(());
        }
        let append_start = std::time::Instant::now();
        let _span = ioobserve::tracer().span("journal.append");
        let _timer = AppendTimer {
            start: append_start,
        };
        let line = render_record(&key, &diagnosis);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.entries.insert(key, diagnosis);
        self.file_records += 1;
        if self.file_records >= COMPACT_MIN_RECORDS && self.file_records > 2 * self.entries.len() {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrite the journal with exactly one record per live key (temp file
    /// + rename, so a crash mid-compaction leaves the old journal intact).
    fn compact(&mut self) -> io::Result<()> {
        let compact_start = std::time::Instant::now();
        let mut span = ioobserve::tracer().span("journal.compact");
        span.set_attr("live_entries", self.entries.len());
        ioobserve::metrics().counter("journal.compactions").inc();
        let tmp = self.path.with_extension("ndjson.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            // Deterministic record order keeps compacted journals diffable.
            let mut keys: Vec<&ResultKey> = self.entries.keys().collect();
            keys.sort_by(|a, b| {
                (a.trace_hash, &a.model, &a.config).cmp(&(b.trace_hash, &b.model, &b.config))
            });
            for key in keys {
                let diagnosis = &self.entries[key];
                w.write_all(render_record(key, diagnosis).as_bytes())?;
                w.write_all(b"\n")?;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        self.file_records = self.entries.len();
        self.skipped_lines = 0;
        ioobserve::metrics()
            .histogram("journal.compact_ns")
            .record_duration(compact_start.elapsed());
        Ok(())
    }
}

/// Records the append-latency histogram on every exit path of
/// [`ResultJournal::insert`] (including `?` early returns).
struct AppendTimer {
    start: std::time::Instant,
}

impl Drop for AppendTimer {
    fn drop(&mut self) {
        let m = ioobserve::metrics();
        m.counter("journal.appends").inc();
        m.histogram("journal.append_ns")
            .record_duration(self.start.elapsed());
    }
}

fn render_record(key: &ResultKey, diagnosis: &Diagnosis) -> String {
    let issues: Vec<Value> = diagnosis.issues.iter().map(|i| json!(i.key())).collect();
    let record = json!({
        "v": JOURNAL_FORMAT_VERSION,
        "trace": format!("0x{:016x}", key.trace_hash),
        "model": key.model,
        "config": key.config,
        "tool": diagnosis.tool,
        "text": diagnosis.text,
        "issues": issues,
        "references": diagnosis.references,
    });
    serde_json::to_string(&record).expect("serialize journal record")
}

fn parse_record(line: &str) -> Option<(ResultKey, Diagnosis)> {
    let value: Value = serde_json::from_str(line).ok()?;
    if value.get("v").and_then(Value::as_i64) != Some(JOURNAL_FORMAT_VERSION) {
        return None;
    }
    let trace = value.get("trace").and_then(Value::as_str)?;
    let trace_hash = u64::from_str_radix(trace.strip_prefix("0x")?, 16).ok()?;
    let model = value.get("model").and_then(Value::as_str)?.to_string();
    let config = value.get("config").and_then(Value::as_str)?.to_string();
    let tool = value.get("tool").and_then(Value::as_str)?.to_string();
    let text = value.get("text").and_then(Value::as_str)?.to_string();
    let issues = match value.get("issues")? {
        Value::Array(items) => items
            .iter()
            .map(|i| i.as_str().and_then(|s| s.parse::<IssueLabel>().ok()))
            .collect::<Option<Vec<IssueLabel>>>()?,
        _ => return None,
    };
    let references = match value.get("references")? {
        Value::Array(items) => items
            .iter()
            .map(|r| r.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()?,
        _ => return None,
    };
    Some((
        ResultKey {
            trace_hash,
            model,
            config,
        },
        Diagnosis {
            tool,
            text,
            issues,
            references,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn sample(n: u64) -> (ResultKey, Diagnosis) {
        (
            ResultKey {
                trace_hash: 0x1000 + n,
                model: "gpt-4o".into(),
                config: "AgentConfig { top_k: 15 }".into(),
            },
            Diagnosis {
                tool: "ioagent-gpt-4o".into(),
                text: format!("report {n}\nwith \"quotes\" and unicode — ✓"),
                issues: vec![IssueLabel::SmallWrite, IssueLabel::MisalignedWrite],
                references: vec!["[Striping, SC 2021]".into()],
            },
        )
    }

    #[test]
    fn round_trips_across_reopen() {
        let tmp = TempDir::new("journal-rt");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            for n in 0..5 {
                let (k, d) = sample(n);
                store.insert(k, d).unwrap();
            }
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 5);
        assert_eq!(store.skipped_lines, 0);
        let (k, d) = sample(3);
        assert_eq!(store.get(&k), Some(&d));
    }

    #[test]
    fn duplicate_insert_is_a_noop_and_update_supersedes() {
        let tmp = TempDir::new("journal-dup");
        let path = tmp.0.join("results.ndjson");
        let mut store = ResultStore::open(&path).unwrap();
        let (k, d) = sample(1);
        store.insert(k.clone(), d.clone()).unwrap();
        store.insert(k.clone(), d.clone()).unwrap();
        assert_eq!(store.file_records, 1, "identical re-insert must not append");
        let mut d2 = d.clone();
        d2.text.push_str("\nrevised");
        store.insert(k.clone(), d2.clone()).unwrap();
        assert_eq!(store.file_records, 2);
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.get(&k).unwrap().text, d2.text, "last record wins");
    }

    #[test]
    fn torn_final_line_is_skipped_and_healed() {
        let tmp = TempDir::new("journal-torn");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            for n in 0..3 {
                let (k, d) = sample(n);
                store.insert(k, d).unwrap();
            }
        }
        // Simulate a crash mid-append: truncate the file inside the last
        // record.
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 25]).unwrap();

        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "intact records survive");
        // The open healed the file: a reopen sees a clean journal.
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!((store.len(), store.skipped_lines), (2, 0));
        assert_eq!(store.file_records, 2);
    }

    #[test]
    fn torn_tail_splitting_a_utf8_character_is_not_fatal() {
        let tmp = TempDir::new("journal-torn-utf8");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            let (k, d) = sample(0);
            store.insert(k, d).unwrap();
            let (k, d) = sample(1); // sample text ends "— ✓" (multi-byte)
            store.insert(k, d).unwrap();
        }
        // Truncate one byte into the last "✓" (e2 9c 93), so the file is
        // no longer valid UTF-8 as a whole.
        let raw = std::fs::read(&path).unwrap();
        let check = [0xe2u8, 0x9c, 0x93];
        let cut = (0..raw.len() - 2)
            .rev()
            .find(|&i| raw[i..i + 3] == check)
            .expect("sample text contains a ✓")
            + 1;
        assert!(
            std::str::from_utf8(&raw[..cut]).is_err(),
            "cut must split a char"
        );
        std::fs::write(&path, &raw[..cut]).unwrap();

        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "the intact record must survive");
        let (k, d) = sample(0);
        assert_eq!(store.get(&k), Some(&d));
        // Healed: reopen sees a clean single-record journal.
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!((store.len(), store.skipped_lines), (1, 0));
    }

    #[test]
    fn corrupt_interior_line_is_skipped_not_fatal() {
        let tmp = TempDir::new("journal-mid");
        let path = tmp.0.join("results.ndjson");
        {
            let mut store = ResultStore::open(&path).unwrap();
            let (k, d) = sample(0);
            store.insert(k, d).unwrap();
            let (k, d) = sample(1);
            store.insert(k, d).unwrap();
        }
        let raw = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = raw.lines().collect();
        lines.insert(1, "{this is not json");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        let (k, d) = sample(0);
        assert_eq!(store.get(&k), Some(&d));
    }

    #[test]
    fn unknown_version_records_are_ignored() {
        let tmp = TempDir::new("journal-ver");
        let path = tmp.0.join("results.ndjson");
        std::fs::write(&path, "{\"v\": 99, \"trace\": \"0x1\"}\n").unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn compaction_collapses_superseded_records() {
        let tmp = TempDir::new("journal-compact");
        let path = tmp.0.join("results.ndjson");
        let mut store = ResultStore::open(&path).unwrap();
        let (k, d) = sample(0);
        // Supersede the same key many times; each revision appends.
        for rev in 0..COMPACT_MIN_RECORDS + 4 {
            let mut d = d.clone();
            d.text = format!("rev {rev}");
            store.insert(k.clone(), d).unwrap();
        }
        // 68 superseding appends, but auto-compaction keeps the file
        // bounded: it can never exceed the compaction threshold.
        assert!(
            store.file_records <= COMPACT_MIN_RECORDS,
            "auto-compaction must bound journal growth, file has {} records",
            store.file_records
        );
        assert!(
            store.file_records < COMPACT_MIN_RECORDS + 4,
            "compaction must actually have run"
        );
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get(&k).unwrap().text,
            format!("rev {}", COMPACT_MIN_RECORDS + 3)
        );
    }

    #[test]
    fn result_key_fingerprint_is_stable_and_distinct() {
        let (a, _) = sample(0);
        let (b, _) = sample(1);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
