//! `ioagentd` — streaming front end to the concurrent diagnosis service.
//!
//! ```text
//! USAGE:
//!   ioagentd [OPTIONS]
//!   ioagentd trace-report PATH [--slowest N]
//!   ioagentd top ADDR [--interval-ms N] [--once]
//!   ioagentd slo-check ADDR [--slo FILE]
//!
//! OPTIONS:
//!   --workers N        worker threads, one job each (default: available
//!                      parallelism); a job overlaps its LLM calls in
//!                      waves on its own thread
//!   --queue N          job queue bound (default: 2 x workers)
//!   --cache N          result cache entries, 0 disables (default: 256)
//!   --state-dir DIR    persist results + the knowledge-index snapshot in
//!                      DIR and serve them across restarts (default: off)
//!   --listen ADDR      serve the line protocol over TCP instead of stdio
//!   --trace-dir DIR    write per-job span traces (NDJSON) into DIR
//!                      (default: off — tracing has near-zero cost when
//!                      disabled and never changes diagnosis output)
//!   --trace-detail D   span granularity: `stage` (default, a handful of
//!                      coarse stage spans per job) or `fine` (adds
//!                      per-fragment, per-LLM-call, and per-scan spans)
//!   --trace-sample S   tail-based sampling for fine spans: `tail:250ms`
//!                      keeps a job's fine detail only when the job ran
//!                      at least that long (or errored); `tail:p99` keeps
//!                      the slowest percentile. Implies fine detail;
//!                      requires --trace-dir. Coarse stage spans are
//!                      always emitted.
//!   --slo FILE         SLO declarations (`exec_p99 < 250ms over 60s`,
//!                      one per line) served by in-band {"slo": true}
//!                      probes and `ioagentd slo-check`
//!   --deadline-ms N    per-job deadline budget, measured from submit;
//!                      jobs that expire in the queue are shed, jobs that
//!                      expire mid-execution are cancelled (default: none;
//!                      a request's own `deadline_ms` field overrides)
//!   --max-retries N    LLM delivery attempts beyond the first before a
//!                      job fails with `retries_exhausted` (default: 2)
//!   --retry-backoff-ms N  decorrelated-backoff base between retries;
//!                      the cap is 25x the base (default: 2)
//!   --hedge-ms N       hedge a slow LLM attempt with a duplicate request
//!                      after max(N ms, observed p95 attempt latency);
//!                      first answer wins, the loser is dropped unbilled
//!                      (default: off)
//!   --llm-faults SPEC  simulate heavy-tailed latency and injected faults
//!                      in the LLM layer; SPEC is comma-separated k=v,
//!                      e.g. `ttft=800us,tps=150000,tail_p=0.03,
//!                      timeout_p=0.005,timeout=50ms` (default: off)
//!   -h, --help         print this help
//! ```
//!
//! In stdio mode the daemon reads newline-delimited JSON requests on stdin
//! until EOF and writes one JSON response per line to stdout, in request
//! order. With `--listen host:port` it accepts any number of concurrent
//! TCP connections, each speaking the same protocol. Either way, all
//! connections share one knowledge index, one worker pool, and one result
//! cache; the bounded queue applies backpressure by pausing reads.
//!
//! Input hardening: request lines are capped at
//! [`protocol::MAX_REQUEST_LINE_BYTES`]; an oversized or malformed line is
//! answered with a structured `{"id": …, "error": …, "error_kind": …}`
//! line (echoing the request's own `id` whenever the JSON parsed far
//! enough to reveal one) and the stream keeps serving. A `{"stats": true}`
//! line returns the service's aggregate counters in-band; `{"metrics":
//! true}` returns the full observability registries with per-stage
//! latency histogram quantiles, lifetime and windowed (last 10s/60s),
//! plus jobs/s / errors/s / cache-hit rates; `{"slo": true}` evaluates
//! the `--slo` declarations against the current windows. Jobs may carry a
//! `trace_id`, echoed in the reply and stamped on the job's root span so
//! span files from several processes can be correlated.
//!
//! `ioagentd trace-report PATH` folds a span NDJSON file (or every
//! `spans-*.ndjson` in a `--trace-dir` directory — multi-process files
//! are id-remapped and grouped by trace) into a per-stage latency
//! attribution table; `--slowest N` appends the N slowest jobs with
//! their per-stage critical path. `ioagentd top` polls a daemon's
//! metrics probe and redraws a terminal dashboard. `ioagentd slo-check`
//! exits nonzero when a daemon violates its SLOs — the CI gate.

use ioagentd::{protocol, DiagnosisService, HedgePolicy, ResiliencePolicy, ServiceConfig};
use ioobserve::SloDecl;
use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprint!("{}", usage_text());
    std::process::exit(2);
}

/// The `--help` text. A plain multi-line literal: a `\n\` continuation
/// would strip each next line's leading spaces, and with them the indent
/// of every option.
fn usage_text() -> &'static str {
    r#"ioagentd — concurrent batch I/O-diagnosis service

USAGE: ioagentd [OPTIONS]
       ioagentd trace-report PATH [--slowest N]
       ioagentd top ADDR [--interval-ms N] [--once]
       ioagentd slo-check ADDR [--slo FILE]

OPTIONS:
  --workers N        worker threads, one job each (default: available parallelism)
  --queue N          job queue bound (default: 2 x workers)
  --cache N          result cache entries, 0 disables (default: 256)
  --state-dir DIR    persist results + index snapshot in DIR
  --listen ADDR      serve over TCP (host:port) instead of stdio
  --trace-dir DIR    write span traces (NDJSON) into DIR
  --trace-detail D   span granularity: stage (default) | fine
  --trace-sample S   tail sampling: tail:<dur>ms | tail:pN
                     (keep fine spans of slow/errored jobs only)
  --slo FILE         SLO declarations for {"slo": true} probes
  --deadline-ms N    per-job deadline from submit; expired jobs
                     are shed (queued) or cancelled (executing)
  --max-retries N    LLM retries before retries_exhausted (def: 2)
  --retry-backoff-ms N  retry backoff base, cap = 25x (def: 2)
  --hedge-ms N       duplicate slow LLM attempts after
                     max(N ms, p95 attempt latency); first wins
  --llm-faults SPEC  inject heavy-tailed latency + faults into
                     the LLM layer (k=v, comma-separated)
  -h, --help         print this help

SUBCOMMANDS:
  trace-report PATH  fold a span NDJSON file (or a --trace-dir
                     directory of spans-*.ndjson files) into a
                     per-stage latency table; --slowest N adds
                     the N slowest jobs' critical paths
  top ADDR           live dashboard over a daemon's metrics probe
                     (--interval-ms 1000, --once for one frame)
  slo-check ADDR     evaluate SLOs against a running daemon and
                     exit 0 (pass) / 1 (violation) / 2 (error);
                     --slo FILE checks client-side declarations,
                     otherwise the daemon's own --slo file

PROTOCOL (one JSON document per line):
  request:  {"id": "j1", "trace": "<darshan-parser text>",
             "model": "gpt-4o", "top_k": 15, "use_rag": true,
             "merge": "tree", "trace_id": "req-7"}
  response: {"id": "j1", "issues": [...], "text": "...",
             "cached": false, "llm_calls": 93, "cost_usd": 0.21,
             "trace_id": "req-7"}
"#
}

fn parse_count(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    match args.next().map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("{flag} expects a non-negative integer");
            usage();
        }
    }
}

/// `ioagentd trace-report PATH [--slowest N]`: fold one span NDJSON file
/// — or every `spans-*.ndjson` in a trace directory — into a latency
/// table. Files are parsed separately and id-remapped before folding so
/// spans from different processes (which all number ids from 1) stay
/// disjoint; jobs are then grouped across processes by `trace_id`.
fn trace_report(path: &str, mut rest: impl Iterator<Item = String>) -> ! {
    let mut slowest = 0usize;
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--slowest" => slowest = parse_count(&mut rest, "--slowest"),
            other => {
                eprintln!("trace-report: unknown option {other:?}");
                usage();
            }
        }
    }
    let path = std::path::Path::new(path);
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).unwrap_or_else(|e| {
            eprintln!("trace-report: cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("spans-") && name.ends_with(".ndjson") {
                files.push(entry.path());
            }
        }
        files.sort();
        if files.is_empty() {
            eprintln!(
                "trace-report: no spans-*.ndjson files in {}",
                path.display()
            );
            std::process::exit(1);
        }
    } else {
        files.push(path.to_path_buf());
    }

    let mut per_file = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("trace-report: cannot read {}: {e}", file.display());
            std::process::exit(1);
        });
        match ioobserve::parse_spans(&text) {
            Ok(spans) => per_file.push(spans),
            Err(e) => {
                eprintln!("trace-report: {}: {e}", file.display());
                std::process::exit(1);
            }
        }
    }
    let records = ioobserve::merge_process_spans(per_file);
    print!("{}", ioobserve::fold_spans(&records).render_table());
    if slowest > 0 {
        let all = ioobserve::slowest_jobs(&records, usize::MAX);
        let total = all.len() as u64;
        let mut digests = all;
        digests.truncate(slowest);
        print!("\n{}", ioobserve::render_slowest(&digests, total));
    }
    std::process::exit(0);
}

/// Send one probe line to a daemon and return the one-line JSON reply.
fn probe_daemon(addr: &str, request: &str) -> Result<serde_json::Value, String> {
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone connection: {e}"))?;
    writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send probe to {addr}: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("cannot read reply from {addr}: {e}"))?;
    if reply.trim().is_empty() {
        return Err(format!("empty reply from {addr}"));
    }
    serde_json::from_str(reply.trim()).map_err(|e| format!("malformed reply from {addr}: {e}"))
}

/// Fetch `{"metrics": true}` and rebuild the (service, process) registry
/// snapshots from the wire format.
fn fetch_snapshots(
    addr: &str,
) -> Result<(ioobserve::RegistrySnapshot, ioobserve::RegistrySnapshot), String> {
    let reply = probe_daemon(addr, r#"{"id": "probe", "metrics": true}"#)?;
    let metrics = reply
        .get("metrics")
        .ok_or_else(|| format!("reply from {addr} has no \"metrics\" section"))?;
    let service = metrics
        .get("service")
        .map(protocol::snapshot_from_metrics_json)
        .ok_or_else(|| format!("reply from {addr} has no \"metrics.service\" section"))?;
    let process = metrics
        .get("process")
        .map(protocol::snapshot_from_metrics_json)
        .ok_or_else(|| format!("reply from {addr} has no \"metrics.process\" section"))?;
    Ok((service, process))
}

/// `ioagentd top ADDR [--interval-ms N] [--once]`: poll the daemon's
/// metrics probe and redraw a terminal dashboard until interrupted.
fn top_cmd(addr: &str, mut rest: impl Iterator<Item = String>) -> ! {
    let mut interval_ms = 1000u64;
    let mut once = false;
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--interval-ms" => interval_ms = parse_count(&mut rest, "--interval-ms") as u64,
            "--once" => once = true,
            other => {
                eprintln!("top: unknown option {other:?}");
                usage();
            }
        }
    }
    loop {
        let (service, process) = fetch_snapshots(addr).unwrap_or_else(|e| {
            eprintln!("top: {e}");
            std::process::exit(2);
        });
        let frame = ioagentd::top::render_dashboard(&service, &process);
        if once {
            print!("{frame}");
            std::process::exit(0);
        }
        // Clear + home, then the frame: a flicker-free redraw loop.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

/// `ioagentd slo-check ADDR [--slo FILE]`: exit 0 when the daemon meets
/// its SLOs, 1 on violation, 2 on probe errors. With `--slo FILE` the
/// declarations are evaluated client-side against the metrics probe;
/// without it the daemon's own `--slo` file is checked via the in-band
/// `{"slo": true}` probe.
fn slo_check_cmd(addr: &str, mut rest: impl Iterator<Item = String>) -> ! {
    let mut slo_file: Option<String> = None;
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--slo" => slo_file = Some(rest.next().unwrap_or_else(|| usage())),
            other => {
                eprintln!("slo-check: unknown option {other:?}");
                usage();
            }
        }
    }
    let fail = |msg: String| -> ! {
        eprintln!("slo-check: {msg}");
        std::process::exit(2);
    };
    match slo_file {
        Some(file) => {
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| fail(format!("cannot read {file}: {e}")));
            let decls =
                ioobserve::parse_slo_file(&text).unwrap_or_else(|e| fail(format!("{file}: {e}")));
            if decls.is_empty() {
                fail(format!("{file} declares no SLOs"));
            }
            let (service, process) = fetch_snapshots(addr).unwrap_or_else(|e| fail(e));
            let report = ioobserve::evaluate_slos(&decls, &[&service, &process]);
            print!("{}", report.render());
            std::process::exit(if report.pass() { 0 } else { 1 });
        }
        None => {
            let reply =
                probe_daemon(addr, r#"{"id": "probe", "slo": true}"#).unwrap_or_else(|e| fail(e));
            if let Some(err) = reply.get("error").and_then(serde_json::Value::as_str) {
                fail(format!("daemon rejected the probe: {err}"));
            }
            let slo = reply
                .get("slo")
                .and_then(serde_json::Value::as_object)
                .unwrap_or_else(|| fail(format!("reply from {addr} has no \"slo\" section")));
            let pass = slo.get("pass").and_then(serde_json::Value::as_bool) == Some(true);
            for check in slo
                .get("checks")
                .and_then(serde_json::Value::as_array)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                let decl = check.get("decl").and_then(serde_json::Value::as_str);
                let ok = check.get("pass").and_then(serde_json::Value::as_bool) == Some(true);
                let note = check
                    .get("note")
                    .and_then(serde_json::Value::as_str)
                    .unwrap_or("");
                println!(
                    "{} {}{}",
                    if ok { "PASS" } else { "FAIL" },
                    decl.unwrap_or("?"),
                    if note.is_empty() {
                        String::new()
                    } else {
                        format!("  ({note})")
                    }
                );
            }
            std::process::exit(if pass { 0 } else { 1 });
        }
    }
}

fn main() {
    let mut config = ServiceConfig::default();
    let mut listen: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut trace_fine = false;
    let mut tail_rule: Option<ioobserve::TailRule> = None;
    let mut slo_decls: Vec<SloDecl> = Vec::new();
    let mut explicit_queue = false;
    let mut policy = ResiliencePolicy::default();
    let mut explicit_policy = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "trace-report" => trace_report(&args.next().unwrap_or_else(|| usage()), args),
            "top" => top_cmd(&args.next().unwrap_or_else(|| usage()), args),
            "slo-check" => slo_check_cmd(&args.next().unwrap_or_else(|| usage()), args),
            "--workers" => config.workers = parse_count(&mut args, "--workers").max(1),
            "--queue" => {
                config.queue_capacity = parse_count(&mut args, "--queue").max(1);
                explicit_queue = true;
            }
            "--cache" => config.cache_capacity = parse_count(&mut args, "--cache"),
            "--state-dir" => config.state_dir = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--listen" => listen = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-dir" => trace_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-detail" => match args.next().as_deref() {
                Some("stage") => trace_fine = false,
                Some("fine") => trace_fine = true,
                other => {
                    eprintln!("--trace-detail expects `stage` or `fine`, got {other:?}");
                    usage();
                }
            },
            "--trace-sample" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let Some(rule) = spec.strip_prefix("tail:") else {
                    eprintln!("--trace-sample expects `tail:<dur>ms` or `tail:pN`, got {spec:?}");
                    usage();
                };
                match ioobserve::TailRule::parse(rule) {
                    Ok(rule) => tail_rule = Some(rule),
                    Err(e) => {
                        eprintln!("--trace-sample: {e}");
                        usage();
                    }
                }
            }
            "--slo" => {
                let file = args.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
                    eprintln!("cannot read SLO file {file}: {e}");
                    std::process::exit(1);
                });
                slo_decls = ioobserve::parse_slo_file(&text).unwrap_or_else(|e| {
                    eprintln!("{file}: {e}");
                    std::process::exit(1);
                });
            }
            "--deadline-ms" => {
                let ms = parse_count(&mut args, "--deadline-ms").max(1) as u64;
                config = config.deadline(Duration::from_millis(ms));
            }
            "--max-retries" => {
                policy = policy.retries(parse_count(&mut args, "--max-retries") as u32);
                explicit_policy = true;
            }
            "--retry-backoff-ms" => {
                let base = parse_count(&mut args, "--retry-backoff-ms").max(1) as u64;
                policy = policy.backoff(
                    Duration::from_millis(base),
                    Duration::from_millis(base.saturating_mul(25)),
                );
                explicit_policy = true;
            }
            "--hedge-ms" => {
                let ms = parse_count(&mut args, "--hedge-ms").max(1) as u64;
                policy = policy.hedged(HedgePolicy {
                    min_delay: Duration::from_millis(ms),
                    ..HedgePolicy::default()
                });
                explicit_policy = true;
            }
            "--llm-faults" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match simllm::FaultPlan::parse(&spec) {
                    Ok(plan) => config = config.fault_plan(plan),
                    Err(e) => {
                        eprintln!("--llm-faults: {e}");
                        usage();
                    }
                }
            }
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown option {other:?}");
                usage();
            }
        }
    }
    // The *default* queue bound scales with the worker count chosen above;
    // an explicit --queue (however tight) is the operator's call.
    if !explicit_queue {
        config.queue_capacity = 2 * config.workers;
    }
    if explicit_policy {
        config = config.resilience(policy);
    }
    // The tracer is process-global and set-once, so it must be installed
    // before the service spawns its workers (each worker resolves the
    // tracer when it starts).
    if tail_rule.is_some() && trace_dir.is_none() {
        eprintln!("--trace-sample requires --trace-dir (there is nowhere to flush kept spans)");
        std::process::exit(1);
    }
    if let Some(dir) = &trace_dir {
        match ioobserve::Tracer::to_dir(dir) {
            Ok(tracer) => {
                let tracer = match tail_rule {
                    // Tail sampling implies fine detail: the whole point is
                    // keeping the fine spans of only the slow/errored jobs.
                    Some(rule) => tracer.with_tail_sampling(rule),
                    None if trace_fine => tracer.with_fine_detail(),
                    None => tracer,
                };
                let detail = if let Some(rule) = tracer.tail_sampling() {
                    format!("fine, tail-sampled {rule}")
                } else if tracer.fine_detail() {
                    "fine".to_string()
                } else {
                    "stage".to_string()
                };
                let path = tracer.trace_path().map(|p| p.display().to_string());
                if ioobserve::init_tracer(tracer) {
                    eprintln!(
                        "[ioagentd] tracing on ({detail} detail): {}",
                        path.as_deref().unwrap_or("<memory>")
                    );
                } else {
                    eprintln!("[ioagentd] warning: tracer already installed; --trace-dir ignored");
                }
            }
            Err(e) => {
                eprintln!("cannot open trace dir {dir}: {e}");
                std::process::exit(1);
            }
        }
    }

    eprintln!(
        "[ioagentd] starting: {} workers, queue {}, cache {}",
        config.workers, config.queue_capacity, config.cache_capacity
    );
    if let Some(d) = config.deadline {
        eprintln!("[ioagentd] deadline: {} ms per job", d.as_millis());
    }
    if let Some(p) = &config.resilience {
        eprintln!(
            "[ioagentd] resilience: max_retries {}, backoff {}..{} ms, hedging {}",
            p.max_retries
                .map_or_else(|| "unbounded".to_string(), |n| n.to_string()),
            p.backoff_base.as_millis(),
            p.backoff_cap.as_millis(),
            p.hedge.map_or_else(
                || "off".to_string(),
                |h| format!(
                    "after max({} ms, p{:.0})",
                    h.min_delay.as_millis(),
                    h.quantile * 100.0
                )
            ),
        );
    }
    if config.fault_plan.is_some() {
        eprintln!("[ioagentd] llm fault injection on");
    }
    let service = Arc::new(DiagnosisService::start(config));
    match service.index_provenance() {
        Some(ioagentd::IndexProvenance::Snapshot) => {
            eprintln!("[ioagentd] knowledge index loaded from snapshot")
        }
        Some(ioagentd::IndexProvenance::Rebuilt(reason)) => {
            eprintln!("[ioagentd] knowledge index rebuilt ({reason})")
        }
        None => eprintln!("[ioagentd] knowledge index ready"),
    }
    if service.persistence_active() {
        let stats = service.stats();
        eprintln!(
            "[ioagentd] persistence on: {} journalled results ({} bytes)",
            stats.persisted_entries, stats.journal_bytes
        );
    }

    if !slo_decls.is_empty() {
        for d in &slo_decls {
            eprintln!("[ioagentd] SLO: {}", d.text);
        }
    }
    let slo_decls = Arc::new(slo_decls);

    match listen {
        None => {
            let stdin = std::io::stdin();
            serve_stream(&service, &slo_decls, stdin.lock(), std::io::stdout());
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
                eprintln!("cannot listen on {addr}: {e}");
                std::process::exit(1);
            });
            // Report the *bound* address, not the requested one: with
            // `--listen 127.0.0.1:0` the kernel picks the port, and test
            // harnesses scrape it from this line.
            match listener.local_addr() {
                Ok(bound) => eprintln!("[ioagentd] listening on {bound}"),
                Err(_) => eprintln!("[ioagentd] listening on {addr}"),
            }
            // Connection threads are detached: the accept loop runs for the
            // daemon's lifetime, so retaining JoinHandles would only grow
            // an unjoinable list. Each thread holds its own Arc on the
            // service and drains independently.
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let peer = stream
                    .peer_addr()
                    .map(|p| p.to_string())
                    .unwrap_or_default();
                eprintln!("[ioagentd] connection from {peer}");
                let service = Arc::clone(&service);
                let slo_decls = Arc::clone(&slo_decls);
                std::thread::spawn(move || {
                    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    serve_stream(&service, &slo_decls, reader, stream);
                });
            }
        }
    }

    let stats = match Arc::try_unwrap(service) {
        Ok(service) => {
            let stats = service.stats();
            service.shutdown();
            stats
        }
        Err(service) => service.stats(),
    };
    eprintln!(
        "[ioagentd] done: {} jobs ({} cache hits), {} LLM calls, {} input tokens, ${:.4}",
        stats.jobs_completed, stats.cache_hits, stats.llm_calls, stats.input_tokens, stats.cost_usd
    );
}

/// Pump one request stream: parse + submit each line (blocking on the
/// bounded queue for backpressure), while a writer thread emits responses
/// in request order as they complete.
fn serve_stream<R: BufRead, W: Write + Send + 'static>(
    service: &Arc<DiagnosisService>,
    slo_decls: &Arc<Vec<SloDecl>>,
    mut reader: R,
    mut writer: W,
) {
    enum Outcome {
        Ticket(ioagentd::JobTicket),
        // An error reply; counted into `service.errors` at print time so
        // the errors/s window matches what clients actually saw.
        Error(String),
        // Rendered by the printer thread, *after* every earlier ticket in
        // the stream has resolved, so a serial client sees counters that
        // include all of its own preceding jobs.
        Stats { id: String },
        Metrics { id: String },
        Slo { id: String },
    }

    // Bounded: if the peer stops reading responses, the printer thread
    // blocks on write, this channel fills, and `send` below blocks the
    // reader — backpressure holds even for cache hits, which bypass the
    // service's own bounded queue.
    let (tx, rx) = mpsc::sync_channel::<Outcome>(64);
    let printer_service = Arc::clone(service);
    let printer_decls = Arc::clone(slo_decls);
    let printer = std::thread::spawn(move || {
        let mut served = 0u64;
        for outcome in rx {
            let line = match outcome {
                Outcome::Ticket(ticket) => {
                    let result = ticket.wait();
                    if result.failure.is_some() {
                        // Failed jobs render as error replies; count them
                        // into the same errors/s window as parse errors.
                        printer_service.note_error();
                    }
                    protocol::render_result(&result)
                }
                Outcome::Error(line) => {
                    printer_service.note_error();
                    line
                }
                Outcome::Stats { id } => protocol::render_stats(
                    &id,
                    &printer_service.stats(),
                    printer_service.persistence_active(),
                    printer_service.queue_depth(),
                ),
                Outcome::Metrics { id } => protocol::render_metrics(
                    &id,
                    &printer_service.metrics_snapshot(),
                    &ioobserve::metrics().snapshot(),
                ),
                Outcome::Slo { id } => {
                    let report = ioobserve::evaluate_slos(
                        &printer_decls,
                        &[
                            &printer_service.metrics_snapshot(),
                            &ioobserve::metrics().snapshot(),
                        ],
                    );
                    protocol::render_slo(&id, &report)
                }
            };
            if writeln!(writer, "{line}").is_err() {
                break; // peer went away; drain remaining tickets silently
            }
            let _ = writer.flush();
            served += 1;
        }
        served
    });

    // Per-connection accounting: one root `conn` span covering the whole
    // stream, plus process-wide byte/request counters.
    let mut conn_span = ioobserve::tracer().span("conn");
    let mut conn_bytes = 0u64;
    let mut conn_requests = 0u64;

    let mut line_no = 0u64;
    loop {
        line_no += 1;
        let default_id = format!("line-{line_no}");
        let line = match protocol::read_bounded_line(&mut reader, protocol::MAX_REQUEST_LINE_BYTES)
        {
            Ok(protocol::InputLine::Line(line)) => line,
            Ok(protocol::InputLine::Oversized { bytes }) => {
                conn_bytes += bytes as u64;
                conn_requests += 1;
                // The oversized line was drained, so the stream is intact;
                // answer it with a structured error and keep serving.
                let message = format!(
                    "request line of {bytes} bytes exceeds the {} byte limit",
                    protocol::MAX_REQUEST_LINE_BYTES
                );
                if tx
                    .send(Outcome::Error(protocol::render_error(
                        &default_id,
                        protocol::ErrorKind::OversizedLine,
                        &message,
                    )))
                    .is_err()
                {
                    break;
                }
                continue;
            }
            Ok(protocol::InputLine::Eof) | Err(_) => break,
        };
        conn_bytes += line.len() as u64 + 1;
        if line.trim().is_empty() {
            line_no -= 1;
            continue;
        }
        conn_requests += 1;
        let outcome = match protocol::parse_line(&line, &default_id) {
            Ok(protocol::Request::Stats { id }) => Outcome::Stats { id },
            Ok(protocol::Request::Metrics { id }) => Outcome::Metrics { id },
            Ok(protocol::Request::Slo { id }) => Outcome::Slo { id },
            Ok(protocol::Request::Job(request)) => {
                let id = request.id.clone();
                match service.submit(*request) {
                    Ok(ticket) => Outcome::Ticket(ticket),
                    Err(e) => {
                        Outcome::Error(protocol::render_error(&id, (&e).into(), &e.to_string()))
                    }
                }
            }
            Err(e) => Outcome::Error(protocol::render_error(&e.id, e.kind, &e.message)),
        };
        if tx.send(outcome).is_err() {
            break;
        }
    }
    drop(tx);
    let _ = printer.join();

    let metrics = ioobserve::metrics();
    metrics.counter("conn.bytes").add(conn_bytes);
    metrics.counter("conn.requests").add(conn_requests);
    conn_span.set_attr("bytes", conn_bytes);
    conn_span.set_attr("requests", conn_requests);
    drop(conn_span);
    ioobserve::tracer().flush();
}

#[cfg(test)]
mod tests {
    use super::usage_text;

    #[test]
    fn help_options_keep_their_indent() {
        let text = usage_text();
        let (_, options_section) = text.split_once("OPTIONS:\n").unwrap();
        let (options_section, _) = options_section.split_once("\n\n").unwrap();
        let mut options = 0;
        for line in options_section.lines() {
            let body = line.trim_start();
            let indent = line.len() - body.len();
            if body.starts_with('-') {
                assert_eq!(indent, 2, "option line {line:?}");
                options += 1;
            }
        }
        assert_eq!(options, 15);
        // Wrapped descriptions sit under the first description column.
        assert!(
            text.contains("\n                     (keep fine spans of slow/errored jobs only)\n")
        );
        assert!(text.contains("\n       ioagentd top ADDR"));
        assert!(text.contains("\n  trace-report PATH  fold"));
    }
}
