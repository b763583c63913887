//! Structured span tracing with NDJSON output.
//!
//! A [`Tracer`] hands out [`Span`] guards: a span opens with a name, ends
//! when the guard drops, and is written as one NDJSON line carrying its
//! id, parent id, start/end nanoseconds, and `key=value` attributes.
//!
//! # Cost model
//!
//! - **Disabled** (the default, and the only mode unless the daemon is
//!   started with `--trace-dir`): [`Tracer::span`] is one branch on an
//!   `Option` and returns an empty guard — no allocation, no clock read,
//!   no synchronization. The bench gate holds the whole pipeline to <3%
//!   overhead in this mode, and in practice it is in the noise.
//! - **Enabled**: completed spans are rendered into a **per-thread
//!   buffer** (no lock on the span path) which is appended to the shared
//!   sink only when it exceeds `FLUSH_BYTES`, when a *root* span ends
//!   (one lock per job, not per span), or when the thread exits.
//!
//! # Parenting
//!
//! Within a thread, spans nest automatically: each live span sits on a
//! thread-local stack and new spans adopt the top as their parent. A job
//! runs on the one thread that serves it, so its spans all nest this way;
//! the explicit-parent forms ([`Tracer::span_at`],
//! [`Tracer::span_child_fine`]) only name a parent opened elsewhere on the
//! same thread, or one whose guard is gone (a queue wait observed before
//! the worker opened its job). Spans whose parent cannot be known record
//! parent 0 and are reported as unattributed by `trace-report` rather
//! than guessed.
//!
//! # Determinism
//!
//! Timestamps come from a [`Clock`]; tests inject a
//! [`VirtualClock`](crate::clock::VirtualClock) so span boundaries are
//! exact. Tracing never changes what the pipeline computes — the
//! byte-identity test in `tests/observability.rs` pins diagnosis output
//! equal with tracing on and off.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::Histogram;
use crate::report::{JOB_SPAN, STAGE_PREFIX};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Per-thread buffer size that forces a flush to the shared sink.
const FLUSH_BYTES: usize = 32 * 1024;

/// Completed `job` roots a percentile tail rule needs before it starts
/// flushing — below this the quantile estimate is noise, so nothing is
/// kept (the conservative direction for an overhead-bounded feature).
const TAIL_WARMUP_JOBS: u64 = 32;

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Span records and their NDJSON form
// ---------------------------------------------------------------------------

/// One completed span, as written to (and read back from) the NDJSON sink.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// Unique id within the tracer (starts at 1; 0 is "no span").
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Span name (e.g. `job`, `stage.retrieve`, `llm.call`).
    pub name: String,
    /// Start, in the tracer clock's nanoseconds.
    pub start_ns: u64,
    /// End, in the tracer clock's nanoseconds.
    pub end_ns: u64,
    /// `key=value` attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds (0 if the clock went backwards).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// First attribute with the given key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Render as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(96 + self.name.len());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
            self.id,
            self.parent,
            escape_json(&self.name),
            self.start_ns,
            self.end_ns,
        );
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        out.push_str("}}");
        out
    }

    /// Parse one NDJSON line back into a record. Accepts exactly the
    /// shape [`SpanRecord::to_ndjson`] writes (keys in any order).
    pub fn parse(line: &str) -> Result<SpanRecord, String> {
        let mut p = MiniParser::new(line);
        let mut record = SpanRecord {
            id: 0,
            parent: 0,
            name: String::new(),
            start_ns: 0,
            end_ns: 0,
            attrs: Vec::new(),
        };
        p.expect('{')?;
        loop {
            p.skip_ws();
            if p.eat('}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            match key.as_str() {
                "id" => record.id = p.number()?,
                "parent" => record.parent = p.number()?,
                "name" => record.name = p.string()?,
                "start_ns" => record.start_ns = p.number()?,
                "end_ns" => record.end_ns = p.number()?,
                "attrs" => {
                    p.expect('{')?;
                    loop {
                        p.skip_ws();
                        if p.eat('}') {
                            break;
                        }
                        let k = p.string()?;
                        p.skip_ws();
                        p.expect(':')?;
                        p.skip_ws();
                        let v = p.string()?;
                        record.attrs.push((k, v));
                        p.skip_ws();
                        let _ = p.eat(',');
                    }
                }
                other => return Err(format!("unknown span field {other:?}")),
            }
            p.skip_ws();
            let _ = p.eat(',');
        }
        if record.id == 0 {
            return Err("span record without an id".to_string());
        }
        Ok(record)
    }
}

/// Parse a whole NDJSON buffer (blank lines skipped) into records.
pub fn parse_spans(text: &str) -> Result<Vec<SpanRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(SpanRecord::parse)
        .collect()
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Minimal JSON cursor for the span record shape (objects of numbers,
/// strings, and one level of string→string nesting).
struct MiniParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> MiniParser<'a> {
    fn new(s: &'a str) -> Self {
        MiniParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<u64>()
            .map_err(|e| e.to_string())
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        if !self.eat('"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("dangling escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let char_start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = char_start + width;
                    let chunk = self.bytes.get(char_start..end).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = end;
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xf0 => 4,
        b if b >= 0xe0 => 3,
        _ => 2,
    }
}

// ---------------------------------------------------------------------------
// Sinks and per-thread buffering
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum SinkKind {
    /// Append to an NDJSON file (buffered; flushed on root spans and at
    /// thread/tracer teardown).
    File {
        path: PathBuf,
        writer: Mutex<std::io::BufWriter<std::fs::File>>,
    },
    /// Accumulate in memory (tests and in-process inspection).
    Memory(Mutex<String>),
}

#[derive(Debug)]
struct SinkState {
    kind: SinkKind,
}

impl SinkState {
    fn append(&self, chunk: &str) {
        match &self.kind {
            SinkKind::File { writer, .. } => {
                let mut w = lock(writer);
                // Trace loss is never worth failing the pipeline over.
                let _ = w.write_all(chunk.as_bytes());
                let _ = w.flush();
            }
            SinkKind::Memory(buf) => lock(buf).push_str(chunk),
        }
    }
}

struct ThreadBuf {
    sink: Arc<SinkState>,
    buf: String,
}

/// All of this thread's tracer buffers; flushed when the thread exits.
#[derive(Default)]
struct ThreadBufs {
    bufs: Vec<ThreadBuf>,
}

impl Drop for ThreadBufs {
    fn drop(&mut self) {
        for tb in &mut self.bufs {
            if !tb.buf.is_empty() {
                tb.sink.append(&tb.buf);
            }
        }
    }
}

/// One entry of a thread's stack of live spans.
#[derive(Clone, Copy)]
struct LiveSpan {
    /// The tracer that opened the span.
    token: usize,
    id: u64,
    /// The span's root, carried so tail sampling can attribute fine spans
    /// to their job without touching any shared state on the hot path (0
    /// for non-tail tracers, which never read it).
    root: u64,
    /// When the span's last coarse `stage.*` child closed: where its next
    /// one starts.
    stage_end: Option<u64>,
}

thread_local! {
    /// Stack of live spans on this thread.
    static SPAN_STACK: RefCell<Vec<LiveSpan>> = const { RefCell::new(Vec::new()) };
    /// Per-thread rendered-span buffers, one per sink this thread has
    /// written to (almost always exactly one).
    static BUFFERS: RefCell<ThreadBufs> = RefCell::new(ThreadBufs::default());
    /// Tail-sampling fine spans awaiting their root's verdict, as
    /// `(tracer token, root span id, record)`. A fine span whose root is
    /// live on *this* thread's stack buffers here — a plain push, no
    /// lock — and is drained when that root drops (necessarily on this
    /// thread, after all of its children). A fine span whose root is not
    /// on its thread is written unconditionally instead.
    static TAIL_LOCAL: RefCell<Vec<(usize, u64, SpanRecord)>> = const { RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// Tail-based sampling
// ---------------------------------------------------------------------------

/// When a `tail:`-sampled job keeps its fine-detail spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TailThreshold {
    /// Keep jobs whose root span lasted at least this many milliseconds.
    Millis(u64),
    /// Keep jobs at or above this quantile of job durations seen so far
    /// (`p99` → 0.99). Needs `TAIL_WARMUP_JOBS` completed jobs before
    /// anything is kept.
    Percentile(f64),
}

/// The argument of `--trace-sample tail:<ms|pN>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailRule {
    /// When a finished job's fine spans are worth keeping.
    pub threshold: TailThreshold,
}

impl TailRule {
    /// Parse the part after `tail:` — `250ms` or a percentile like
    /// `p99`. One or two digits read as a percent (`p5`, `p50`, `p99`);
    /// longer forms are the colloquial nines family (`p999` = 99.9%,
    /// `p9999` = 99.99%).
    pub fn parse(s: &str) -> Result<TailRule, String> {
        if let Some(ms) = s.strip_suffix("ms") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad tail threshold {s:?}: want <integer>ms or pN"))?;
            return Ok(TailRule {
                threshold: TailThreshold::Millis(ms),
            });
        }
        if let Some(digits) = s.strip_prefix('p') {
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) && digits.len() <= 6
            {
                let n: u64 = digits.parse().expect("all digits");
                // One or two digits: a percent. Longer: the nines
                // family only. Either way the fraction is n / 10^k in a
                // single division (no compounding float error).
                let ok_family = digits.len() <= 2 || digits.starts_with("99");
                let p = n as f64 / 10f64.powi(digits.len().max(2) as i32);
                if ok_family && (0.01..1.0).contains(&p) {
                    return Ok(TailRule {
                        threshold: TailThreshold::Percentile(p),
                    });
                }
            }
        }
        Err(format!(
            "bad tail threshold {s:?}: want <integer>ms (e.g. 250ms) or a percentile strictly \
             between p1 and p100 (e.g. p99, p999)"
        ))
    }
}

impl std::fmt::Display for TailRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.threshold {
            TailThreshold::Millis(ms) => write!(f, "tail:{ms}ms"),
            TailThreshold::Percentile(p) => {
                // 0.99 -> p99, 0.999 -> p999, 0.05 -> p5.
                let percent = p * 100.0;
                if (percent - percent.round()).abs() < 1e-9 {
                    write!(f, "tail:p{}", percent.round() as u64)
                } else {
                    write!(f, "tail:p{}", format!("{percent}").replace('.', ""))
                }
            }
        }
    }
}

/// Shared state of a tail-sampling tracer: the rule and the
/// job-duration distribution that percentile rules threshold against.
///
/// Every span resolves its root from the thread-local span stack, and a
/// fine span (one per LLM call / fragment / scan, hundreds per job)
/// buffers its unrendered record in the thread-local `TAIL_LOCAL`, so
/// the span path touches no shared state at all. Rendering to NDJSON
/// happens only for kept jobs. A fine span whose root is not on its
/// thread's stack cannot be judged with its job and is written
/// unconditionally, never lost.
#[derive(Debug)]
struct TailState {
    rule: TailRule,
    /// Durations of completed `job` roots.
    job_ns: Histogram,
}

impl TailState {
    fn new(rule: TailRule) -> TailState {
        TailState {
            rule,
            job_ns: Histogram::default(),
        }
    }

    /// Current keep-threshold in nanoseconds (`u64::MAX` = keep nothing,
    /// used while a percentile rule warms up).
    fn threshold_ns(&self) -> u64 {
        match self.rule.threshold {
            TailThreshold::Millis(ms) => ms.saturating_mul(1_000_000),
            TailThreshold::Percentile(p) => {
                if self.job_ns.count() < TAIL_WARMUP_JOBS {
                    u64::MAX
                } else {
                    self.job_ns.quantile(p)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct TracerInner {
    clock: Box<dyn Clock>,
    sink: Arc<SinkState>,
    next_id: AtomicU64,
    /// Record fine-grained spans (`span_fine` and friends) too. Off by
    /// default: the coarse stage tiling costs a handful of spans per job,
    /// while per-call / per-fragment detail costs hundreds.
    fine: bool,
    /// Tail-based sampling: buffer fine spans per job and keep them only
    /// for slow or errored jobs. Implies `fine`.
    tail: Option<TailState>,
}

/// Hands out spans. Cheap to share (`Arc` inside); a disabled tracer is a
/// `None` and costs one branch per call.
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing (the default mode).
    pub const fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Trace to `<dir>/spans-<pid>.ndjson` with a monotonic clock. The
    /// directory is created if missing; the file is appended to, so
    /// restarts of the same process tree accumulate in one directory.
    pub fn to_dir(dir: impl AsRef<Path>) -> std::io::Result<Tracer> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{}.ndjson", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Self::build(
            Box::new(MonotonicClock::new()),
            SinkKind::File {
                path,
                writer: Mutex::new(std::io::BufWriter::new(file)),
            },
        ))
    }

    /// Trace into an in-memory buffer with a monotonic clock.
    pub fn memory() -> Tracer {
        Self::with_clock_memory(Box::new(MonotonicClock::new()))
    }

    /// Trace into an in-memory buffer with an explicit clock (tests pass
    /// a [`VirtualClock`](crate::clock::VirtualClock) here).
    pub fn with_clock_memory(clock: Box<dyn Clock>) -> Tracer {
        Self::build(clock, SinkKind::Memory(Mutex::new(String::new())))
    }

    fn build(clock: Box<dyn Clock>, kind: SinkKind) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                sink: Arc::new(SinkState { kind }),
                next_id: AtomicU64::new(1),
                fine: false,
                tail: None,
            })),
        }
    }

    /// Turn on fine-grained detail: [`Tracer::span_fine`] /
    /// [`Tracer::span_child_fine`] record real spans instead of no-ops.
    /// Builder-style — call before the tracer is shared or installed.
    pub fn with_fine_detail(mut self) -> Tracer {
        if let Some(inner) = self.inner.as_mut().and_then(Arc::get_mut) {
            inner.fine = true;
        }
        self
    }

    /// Turn on tail-based sampling: fine spans are recorded (implies
    /// [`Tracer::with_fine_detail`]) but buffered per job, and written
    /// out only when the job's root span is slow (per `rule`) or carries
    /// an `error` attribute. Coarse spans are always written. Non-`job`
    /// roots keep their fine spans unconditionally — the rule speaks
    /// about jobs. Builder-style — call before the tracer is shared.
    pub fn with_tail_sampling(mut self, rule: TailRule) -> Tracer {
        if let Some(inner) = self.inner.as_mut().and_then(Arc::get_mut) {
            inner.fine = true;
            inner.tail = Some(TailState::new(rule));
        }
        self
    }

    /// The tail-sampling rule, if sampling is on.
    pub fn tail_sampling(&self) -> Option<TailRule> {
        self.inner
            .as_ref()
            .and_then(|i| i.tail.as_ref())
            .map(|t| t.rule)
    }

    /// Whether fine-grained spans are being recorded.
    pub fn fine_detail(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.fine)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time on the tracer's clock (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// The file this tracer appends to, if it has one.
    pub fn trace_path(&self) -> Option<&Path> {
        match &self.inner.as_ref()?.sink.kind {
            SinkKind::File { path, .. } => Some(path),
            SinkKind::Memory(_) => None,
        }
    }

    /// Open a span whose parent is the innermost live span on this
    /// thread (0 if none).
    ///
    /// A `stage.*` span starts where the previous `stage.*` span under the
    /// same parent on this thread ended, not when it is opened, so a job's
    /// stages tile it: the bookkeeping between two stages counts toward
    /// the next one, and a thread descheduled there leaves no hole in the
    /// job's stage coverage.
    pub fn span(&self, name: &str) -> Span {
        self.span_stacked(name, false)
    }

    /// Fine-detail variant of [`Tracer::span`]: records only when
    /// [`Tracer::fine_detail`] is on. Use for high-volume spans (one per
    /// LLM call, per fragment, per index scan) whose cost would dominate
    /// a default trace.
    pub fn span_fine(&self, name: &str) -> Span {
        if self.fine_detail() {
            self.span_stacked(name, true)
        } else {
            Span { state: None }
        }
    }

    fn span_stacked(&self, name: &str, fine: bool) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let parent = self.innermost(inner);
        let now = inner.clock.now_ns();
        let start = match parent.and_then(|p| p.stage_end) {
            Some(end) if !fine && name.starts_with(STAGE_PREFIX) => end.min(now),
            _ => now,
        };
        self.open(inner, name, start, parent.map_or(0, |p| p.id), fine)
    }

    /// The innermost live span this tracer opened on this thread.
    fn innermost(&self, inner: &Arc<TracerInner>) -> Option<LiveSpan> {
        let token = Arc::as_ptr(inner) as usize;
        SPAN_STACK.with(|s| s.borrow().iter().rev().find(|l| l.token == token).copied())
    }

    /// The innermost live span on this thread (0 if none, or when
    /// disabled): the parent [`Tracer::span`] would pick. Pass it to
    /// [`Tracer::span_child_fine`] to open several spans as siblings.
    pub fn current_span_id(&self) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        self.innermost(inner).map_or(0, |l| l.id)
    }

    /// Open a fine-detail span with an explicit parent id (records only
    /// when [`Tracer::fine_detail`] is on), e.g. several sibling calls
    /// under the span that was innermost when their batch started.
    pub fn span_child_fine(&self, name: &str, parent: u64) -> Span {
        if self.fine_detail() {
            let Some(inner) = &self.inner else {
                return Span { state: None };
            };
            self.open(inner, name, inner.clock.now_ns(), parent, true)
        } else {
            Span { state: None }
        }
    }

    /// Open a span with an explicit start time and parent — for phases
    /// whose beginning was observed before the span could be created
    /// (e.g. queue wait: enqueue happens on the submitter's thread, the
    /// span is recorded by the worker at dequeue).
    pub fn span_at(&self, name: &str, start_ns: u64, parent: u64) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        self.open(inner, name, start_ns, parent, false)
    }

    fn open(
        &self,
        inner: &Arc<TracerInner>,
        name: &str,
        start_ns: u64,
        parent: u64,
        fine: bool,
    ) -> Span {
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let token = Arc::as_ptr(inner) as usize;
        let mut root = 0;
        if inner.tail.is_some() {
            // Resolve this span's root from the parent on this thread's
            // stack; a parent that is not there leaves the root unknown.
            root = if parent == 0 {
                id
            } else {
                SPAN_STACK
                    .with(|s| {
                        s.borrow()
                            .iter()
                            .rev()
                            .find(|l| l.token == token && l.id == parent)
                            .map(|l| l.root)
                    })
                    .unwrap_or(0)
            };
        }
        SPAN_STACK.with(|s| {
            s.borrow_mut().push(LiveSpan {
                token,
                id,
                root,
                stage_end: None,
            })
        });
        Span {
            state: Some(SpanState {
                tracer: Arc::clone(inner),
                record: SpanRecord {
                    id,
                    parent,
                    name: name.to_string(),
                    start_ns,
                    end_ns: 0,
                    attrs: Vec::new(),
                },
                fine,
                root,
            }),
        }
    }

    /// Flush this thread's buffered spans to the sink (and the sink to
    /// disk, for file sinks). Spans buffered on *other* live threads
    /// flush when those threads exit or fill their buffers.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        flush_thread_buffer(&inner.sink);
    }

    /// Take everything recorded so far (memory sinks only), parsed back
    /// into records. Flushes the calling thread's buffer first.
    pub fn drain_memory(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        flush_thread_buffer(&inner.sink);
        let SinkKind::Memory(buf) = &inner.sink.kind else {
            return Vec::new();
        };
        let text = std::mem::take(&mut *lock(buf));
        parse_spans(&text).expect("tracer wrote valid NDJSON")
    }
}

fn flush_thread_buffer(sink: &Arc<SinkState>) {
    BUFFERS.with(|b| {
        let mut bufs = b.borrow_mut();
        for tb in &mut bufs.bufs {
            if Arc::ptr_eq(&tb.sink, sink) && !tb.buf.is_empty() {
                tb.sink.append(&std::mem::take(&mut tb.buf));
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------------

struct SpanState {
    tracer: Arc<TracerInner>,
    record: SpanRecord,
    /// Opened via a `span_fine` variant — under tail sampling these are
    /// buffered per root instead of written immediately.
    fine: bool,
    /// Root span id resolved at open time (0 = unknown; only meaningful
    /// under tail sampling).
    root: u64,
}

/// A live span; ends (and is recorded) when dropped.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// This span's id (0 when the tracer is disabled) — pass it as the
    /// explicit parent of [`Tracer::span_at`].
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.record.id)
    }

    /// Whether this span will be recorded.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// Attach a `key=value` attribute (no-op when disabled).
    pub fn set_attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(s) = &mut self.state {
            s.record.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Builder-style [`Span::set_attr`].
    pub fn with_attr(mut self, key: &str, value: impl std::fmt::Display) -> Span {
        self.set_attr(key, value);
        self
    }

    /// End the span at `end_ns`, a reading of [`Tracer::now_ns`], instead
    /// of when it drops: a span and its last child ended at one reading
    /// leave no time between the two.
    pub fn end_at(mut self, end_ns: u64) {
        if let Some(s) = self.state.take() {
            let end_ns = end_ns.max(s.record.start_ns);
            s.finish(end_ns);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let end_ns = s.tracer.clock.now_ns();
            s.finish(end_ns);
        }
    }
}

impl SpanState {
    /// Record the span as ended at `end_ns`.
    fn finish(self, end_ns: u64) {
        let mut s = self;
        s.record.end_ns = end_ns;
        let token = Arc::as_ptr(&s.tracer) as usize;
        let buffer_locally = s.fine && s.root != 0 && s.tracer.tail.is_some();
        // Pop this span from the thread's stack (it is almost always the
        // top; out-of-order drops just remove the matching entry). In the
        // same borrow, a coarse stage marks where its parent's next stage
        // starts, and a tail-sampled fine span checks whether its root is
        // live on this thread, which decides whether the record waits for
        // that root's verdict.
        let mut root_is_local = false;
        let stage = !s.fine && s.record.name.starts_with(STAGE_PREFIX);
        SPAN_STACK.with(|st| {
            let mut stack = st.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|l| l.token == token && l.id == s.record.id)
            {
                stack.remove(pos);
            }
            if stage {
                let parent = s.record.parent;
                if let Some(p) = stack
                    .iter_mut()
                    .rev()
                    .find(|l| l.token == token && l.id == parent)
                {
                    p.stage_end = Some(s.record.end_ns);
                }
            }
            if buffer_locally {
                root_is_local = stack
                    .iter()
                    .rev()
                    .any(|l| l.token == token && l.id == s.root);
            }
        });
        let is_root = s.record.parent == 0;
        if let Some(tail) = &s.tracer.tail {
            if is_root {
                // The verdict point: this root's buffered fine spans are
                // either rendered and flushed (before the root line, so
                // children precede their job in the file) or dropped
                // unrendered — the common, fast case.
                let local: Vec<SpanRecord> = TAIL_LOCAL.with(|p| {
                    p.borrow_mut()
                        .extract_if(.., |&mut (t, r, _)| t == token && r == s.record.id)
                        .map(|(_, _, rec)| rec)
                        .collect()
                });
                let keep = if s.record.name == JOB_SPAN {
                    let threshold = tail.threshold_ns();
                    let duration = s.record.duration_ns();
                    tail.job_ns.record(duration);
                    s.record.attr("error").is_some() || duration >= threshold
                } else {
                    true
                };
                if keep {
                    let mut text = String::new();
                    for rec in &local {
                        text.push_str(&rec.to_ndjson());
                        text.push('\n');
                    }
                    if !text.is_empty() {
                        s.tracer.sink.append(&text);
                    }
                }
            } else if root_is_local {
                let rec = std::mem::take(&mut s.record);
                TAIL_LOCAL.with(|p| p.borrow_mut().push((token, s.root, rec)));
                return;
            }
            // Fine spans whose root is unknown or not on this thread fall
            // through and are written unconditionally — never guessed,
            // never lost.
        }
        let line = s.record.to_ndjson();
        BUFFERS.with(|b| {
            let mut bufs = b.borrow_mut();
            let tb = match bufs
                .bufs
                .iter_mut()
                .position(|tb| Arc::ptr_eq(&tb.sink, &s.tracer.sink))
            {
                Some(i) => &mut bufs.bufs[i],
                None => {
                    bufs.bufs.push(ThreadBuf {
                        sink: Arc::clone(&s.tracer.sink),
                        buf: String::with_capacity(FLUSH_BYTES / 4),
                    });
                    bufs.bufs.last_mut().expect("just pushed")
                }
            };
            tb.buf.push_str(&line);
            tb.buf.push('\n');
            if is_root || tb.buf.len() >= FLUSH_BYTES {
                tb.sink.append(&std::mem::take(&mut tb.buf));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn disabled_tracer_records_nothing_and_is_cheap() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut span = t.span("anything").with_attr("k", "v");
        span.set_attr("x", 1);
        assert_eq!(span.id(), 0);
        assert!(!span.is_recording());
        drop(span);
        assert_eq!(t.now_ns(), 0);
        assert!(t.drain_memory().is_empty());
    }

    #[test]
    fn fine_spans_record_only_at_fine_detail() {
        let coarse = Tracer::memory();
        assert!(!coarse.fine_detail());
        drop(coarse.span_fine("llm.call"));
        drop(coarse.span_child_fine("stage.fragment", 7));
        drop(coarse.span("stage.merge"));
        let names: Vec<String> = coarse.drain_memory().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["stage.merge"]);

        let fine = Tracer::memory().with_fine_detail();
        assert!(fine.fine_detail());
        // A fine span parents on the TLS stack like any other.
        let outer = fine.span("stage.fragments");
        let inner = fine.span_fine("llm.call");
        assert!(inner.is_recording());
        let inner_parent = outer.id();
        drop(inner);
        drop(outer);
        drop(fine.span_child_fine("stage.fragment", 3));
        let records = fine.drain_memory();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "llm.call");
        assert_eq!(records[0].parent, inner_parent);
        assert_eq!(records[2].parent, 3);
    }

    #[test]
    fn ndjson_round_trip_preserves_every_field() {
        let record = SpanRecord {
            id: 42,
            parent: 7,
            name: "stage.retrieve".to_string(),
            start_ns: 1_000,
            end_ns: 2_500,
            attrs: vec![
                ("job".to_string(), "sb01_small_io".to_string()),
                (
                    "quote\"newline\n".to_string(),
                    "tab\tback\\slash".to_string(),
                ),
                ("unicode".to_string(), "héllo—π".to_string()),
            ],
        };
        let line = record.to_ndjson();
        let back = SpanRecord::parse(&line).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.duration_ns(), 1_500);
        assert_eq!(back.attr("job"), Some("sb01_small_io"));
        assert_eq!(back.attr("missing"), None);
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"id":"string"}"#,
            r#"{"parent":1}"#, // no id
            r#"{"id":1,"wat":3}"#,
        ] {
            assert!(SpanRecord::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn virtual_clock_spans_nest_and_order_deterministically() {
        let clock = Arc::new(VirtualClock::new());
        let t = Tracer::with_clock_memory(Box::new(Arc::clone(&clock)));
        assert!(t.enabled());

        let mut outer = t.span("job").with_attr("job", "j1");
        clock.advance(100);
        {
            let _inner1 = t.span("stage.retrieve");
            clock.advance(40);
        } // inner1: [100, 140]
        {
            let _inner2 = t.span("stage.merge");
            clock.advance(60);
        } // inner2: [140, 200]
        clock.advance(10);
        outer.set_attr("cached", false);
        drop(outer); // outer: [0, 210]

        let records = t.drain_memory();
        assert_eq!(records.len(), 3);
        // Children complete (and are written) before the root.
        let inner1 = &records[0];
        let inner2 = &records[1];
        let root = &records[2];
        assert_eq!(root.name, "job");
        assert_eq!(root.parent, 0);
        assert_eq!((root.start_ns, root.end_ns), (0, 210));
        assert_eq!(inner1.name, "stage.retrieve");
        assert_eq!(inner1.parent, root.id);
        assert_eq!((inner1.start_ns, inner1.end_ns), (100, 140));
        assert_eq!(inner2.name, "stage.merge");
        assert_eq!(inner2.parent, root.id);
        assert_eq!((inner2.start_ns, inner2.end_ns), (140, 200));
        assert!(inner1.id < inner2.id, "ids are allocation-ordered");
        assert_eq!(root.attr("cached"), Some("false"));

        // Drained means drained.
        assert!(t.drain_memory().is_empty());
    }

    #[test]
    fn stage_spans_start_where_the_previous_stage_ended() {
        let clock = Arc::new(VirtualClock::new());
        let t = Tracer::with_clock_memory(Box::new(Arc::clone(&clock)));
        let job = t.span("job");
        clock.advance(10);
        drop(t.span_at("stage.queue_wait", 0, job.id())); // [0, 10]
        clock.advance(5); // work between two stages
        {
            let _probe = t.span("stage.cache_probe"); // [10, 20], not [15, 20]
            clock.advance(5);
        }
        clock.advance(7);
        {
            let _pre = t.span("stage.preprocess"); // [20, 33]
            clock.advance(3);
            let _nested = t.span("stage.parse"); // first stage under _pre: [30, 33]
            clock.advance(3);
        }
        clock.advance(4);
        drop(t.span("journal.append")); // not a stage: [37, 37]
        drop(t.span_fine("stage.llm")); // fine spans keep their open time
        clock.advance(2);
        drop(t.span("stage.render")); // [33, 39]
        let end = t.now_ns();
        clock.advance(9); // bookkeeping after the reading
        job.end_at(end); // [0, 39]

        let records = t.drain_memory();
        let at = |name: &str| {
            let r = records.iter().find(|r| r.name == name).expect(name);
            (r.start_ns, r.end_ns)
        };
        assert_eq!(at("stage.queue_wait"), (0, 10));
        assert_eq!(at("stage.cache_probe"), (10, 20));
        assert_eq!(at("stage.preprocess"), (20, 33));
        assert_eq!(at("stage.parse"), (30, 33));
        assert_eq!(at("journal.append"), (37, 37));
        assert_eq!(at("stage.render"), (33, 39));
        assert_eq!(at("job"), (0, 39));
        assert_eq!(crate::fold_spans(&records).coverage_min, 1.0);
    }

    #[test]
    fn explicit_parent_and_start_cross_thread() {
        let clock = Arc::new(VirtualClock::new());
        let t = Tracer::with_clock_memory(Box::new(Arc::clone(&clock)));
        let root = t.span("job");
        let root_id = root.id();
        clock.advance(500);
        // Simulates the queue-wait span: observed start in the past.
        drop(t.span_at("stage.queue_wait", 120, root_id));
        drop(root);
        let records = t.drain_memory();
        let wait = records
            .iter()
            .find(|r| r.name == "stage.queue_wait")
            .unwrap();
        assert_eq!(wait.parent, root_id);
        assert_eq!((wait.start_ns, wait.end_ns), (120, 500));
        // span_at adopts the explicit parent even with an empty stack.
        let child = t.span_at("fragment", t.now_ns(), 999);
        drop(child);
        let records = t.drain_memory();
        assert_eq!(records[0].parent, 999);
    }

    #[test]
    fn spans_from_worker_threads_flush_on_thread_exit() {
        let t = Arc::new(Tracer::memory());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    // Non-root span: stays in the thread buffer until the
                    // thread exits (roots would flush immediately).
                    drop(t.span_at("fragment", t.now_ns(), 1).with_attr("i", i));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let records = t.drain_memory();
        assert_eq!(records.len(), 4);
        let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids are unique across threads");
    }

    #[test]
    fn tail_rule_parse_and_display() {
        assert_eq!(
            TailRule::parse("250ms").unwrap().threshold,
            TailThreshold::Millis(250)
        );
        assert_eq!(
            TailRule::parse("p99").unwrap().threshold,
            TailThreshold::Percentile(0.99)
        );
        assert_eq!(
            TailRule::parse("p999").unwrap().threshold,
            TailThreshold::Percentile(0.999)
        );
        assert_eq!(
            TailRule::parse("p5").unwrap().threshold,
            TailThreshold::Percentile(0.05)
        );
        assert_eq!(
            TailRule::parse("p9999").unwrap().threshold,
            TailThreshold::Percentile(0.9999)
        );
        for bad in [
            "", "250", "ms", "p", "p0", "p100", "p100.5", "p123", "pxx", "-3ms", "tail:p99",
        ] {
            assert!(TailRule::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(TailRule::parse("250ms").unwrap().to_string(), "tail:250ms");
        assert_eq!(TailRule::parse("p99").unwrap().to_string(), "tail:p99");
        assert_eq!(TailRule::parse("p999").unwrap().to_string(), "tail:p999");
    }

    fn tail_tracer(clock: &Arc<VirtualClock>, rule: &str) -> Tracer {
        Tracer::with_clock_memory(Box::new(Arc::clone(clock)))
            .with_tail_sampling(TailRule::parse(rule).unwrap())
    }

    #[test]
    fn tail_sampling_drops_fine_spans_of_fast_jobs() {
        let clock = Arc::new(VirtualClock::new());
        let t = tail_tracer(&clock, "10ms");
        assert!(t.fine_detail(), "tail sampling implies fine detail");
        assert_eq!(
            t.tail_sampling().unwrap().threshold,
            TailThreshold::Millis(10)
        );

        // Fast job: 1 ms. Fine spans vanish, coarse stage spans stay.
        let job = t.span("job");
        let _ = job.id();
        {
            let _stage = t.span("stage.llm");
            drop(t.span_fine("llm.call"));
            clock.advance(1_000_000);
        }
        drop(job);
        let names: Vec<String> = t.drain_memory().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["stage.llm", "job"]);
    }

    #[test]
    fn tail_sampling_keeps_slow_and_errored_jobs() {
        let clock = Arc::new(VirtualClock::new());
        let t = tail_tracer(&clock, "10ms");

        // Slow job: 20 ms. Fine spans flush, before the root line.
        {
            let _job = t.span("job");
            drop(t.span_fine("llm.call"));
            clock.advance(20_000_000);
        }
        let names: Vec<String> = t.drain_memory().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["llm.call", "job"]);

        // Fast but errored job: kept too.
        {
            let mut job = t.span("job");
            drop(t.span_fine("llm.call"));
            clock.advance(1_000_000);
            job.set_attr("error", "deadline_exceeded");
        }
        let records = t.drain_memory();
        assert!(records.iter().any(|r| r.name == "llm.call"));
    }

    #[test]
    fn tail_sampling_writes_fine_spans_whose_root_is_off_thread() {
        let clock = Arc::new(VirtualClock::new());
        let t = tail_tracer(&clock, "10ms");
        // A fast job, whose own fine spans are dropped, with a fine child
        // opened on another thread: its root is not on that thread's
        // stack, so it cannot be judged with the job and is written
        // unconditionally, never lost.
        let job = t.span("job");
        let job_id = job.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                drop(t.span_child_fine("vecindex.scan", job_id));
                t.flush();
            });
        });
        drop(t.span_fine("llm.call"));
        clock.advance(1_000_000);
        drop(job);
        let names: Vec<String> = t.drain_memory().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["vecindex.scan", "job"]);
    }

    #[test]
    fn tail_sampling_non_job_roots_always_keep_fine_spans() {
        let clock = Arc::new(VirtualClock::new());
        let t = tail_tracer(&clock, "1000ms");
        {
            let _conn = t.span("conn");
            drop(t.span_fine("read_line"));
        }
        let names: Vec<String> = t.drain_memory().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["read_line", "conn"], "rule only speaks about jobs");
    }

    #[test]
    fn tail_percentile_warms_up_before_keeping_anything() {
        let clock = Arc::new(VirtualClock::new());
        let t = tail_tracer(&clock, "p50");
        // 40 jobs of 10 ms each; the first 32 are warmup (nothing kept),
        // after which each 10 ms job sits at p50 and is kept.
        let mut kept_before_warmup = 0;
        let mut kept_after_warmup = 0;
        for i in 0..40 {
            {
                let _job = t.span("job");
                drop(t.span_fine("llm.call"));
                clock.advance(10_000_000);
            }
            let fine = t
                .drain_memory()
                .iter()
                .filter(|r| r.name == "llm.call")
                .count();
            if i < 32 {
                kept_before_warmup += fine;
            } else {
                kept_after_warmup += fine;
            }
        }
        assert_eq!(kept_before_warmup, 0, "warmup keeps nothing");
        assert_eq!(kept_after_warmup, 8, "at-threshold jobs kept after warmup");
    }

    #[test]
    fn file_sink_appends_parseable_ndjson() {
        let dir = std::env::temp_dir().join(format!("ioobserve-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Tracer::to_dir(&dir).unwrap();
        let path = t.trace_path().unwrap().to_path_buf();
        drop(t.span("job").with_attr("job", "j1"));
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_spans(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "job");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
