//! The untraced runs: requests through `ioagentd`'s public request path,
//! `protocol::parse_line` → `DiagnosisService::submit` → `JobTicket::wait`
//! → `protocol::render_result`, in-process and without socket I/O.

use crate::check::{parse_reply, Reply};
use crate::spec::{Job, Requests, COUNTED};
use ioagentd::protocol::{self, ErrorKind, Request};
use ioagentd::{DiagnosisService, JobTicket};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request.
    pub job: Job,
    /// Request latency (see [`closed_loop`] and [`open_loop`]).
    pub latency_ms: f64,
    /// Time spent inside `DiagnosisService::submit`.
    pub submit_ms: f64,
    /// The job's queue wait (`JobMetrics::queue_wait`).
    pub queue_wait_ms: f64,
    /// The job's execution time (`JobMetrics::exec`).
    pub exec_ms: f64,
    /// The rendered reply, reduced.
    pub reply: Reply,
}

impl Sample {
    /// Whether the request got a diagnosis.
    pub fn ok(&self) -> bool {
        matches!(self.reply, Reply::Ok { .. })
    }

    /// Whether the diagnosis came from the cache or journal.
    pub fn cached(&self) -> bool {
        matches!(self.reply, Reply::Ok { cached: true, .. })
    }
}

/// Everything a drive observed.
#[derive(Debug, Default)]
pub struct Drive {
    /// Every request sent, in no particular order.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last reply.
    pub wall_s: f64,
    /// Open loop only: the latest the generator ever sent, against its
    /// schedule.
    pub lag_ms_max: f64,
    /// Open loop only: sends that left later than the lateness threshold.
    pub late: usize,
    /// Peak resident memory (MiB) once the counted requests were answered:
    /// a fixed amount of work, so the figure does not grow with throughput
    /// (the journal's in-memory map does).
    pub rss_mb: f64,
}

/// Reads the peak resident memory when the last counted request is
/// answered.
#[derive(Default)]
struct CountedRss {
    answered: AtomicUsize,
    rss_mb_bits: AtomicU64,
}

impl CountedRss {
    fn answered(&self, job: &Job) {
        if job.counted() && self.answered.fetch_add(1, Ordering::Relaxed) + 1 == COUNTED {
            let rss = crate::stats::peak_rss_mib();
            self.rss_mb_bits.store(rss.to_bits(), Ordering::Relaxed);
        }
    }

    fn rss_mb(&self) -> f64 {
        f64::from_bits(self.rss_mb_bits.load(Ordering::Relaxed))
    }
}

/// A request after submission, before its reply.
enum Pending {
    Ticket {
        job: Job,
        ticket: JobTicket,
        start: Instant,
        submit_ms: f64,
    },
    Refused {
        job: Job,
        reply: String,
        start: Instant,
        submit_ms: f64,
    },
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Parse and submit one line, as the daemon's connection loop does.
fn submit(service: &DiagnosisService, job: Job, line: &str, start: Instant) -> Pending {
    let request = match protocol::parse_line(line, &job.id) {
        Ok(Request::Job(request)) => request,
        Ok(_) => {
            let reply = protocol::render_error(&job.id, ErrorKind::InvalidRequest, "not a job");
            return Pending::Refused {
                job,
                reply,
                start,
                submit_ms: 0.0,
            };
        }
        Err(e) => {
            let reply = protocol::render_error(&e.id, e.kind, &e.message);
            return Pending::Refused {
                job,
                reply,
                start,
                submit_ms: 0.0,
            };
        }
    };
    let submitted = Instant::now();
    match service.submit(*request) {
        Ok(ticket) => Pending::Ticket {
            job,
            ticket,
            start,
            submit_ms: ms(submitted.elapsed()),
        },
        Err(e) => Pending::Refused {
            reply: protocol::render_error(&job.id, (&e).into(), &e.to_string()),
            job,
            start,
            submit_ms: ms(submitted.elapsed()),
        },
    }
}

/// Wait for the reply and render it; latency ends once it is rendered.
fn finish(pending: Pending) -> Sample {
    let (job, reply, start, submit_ms, queue_wait_ms, exec_ms) = match pending {
        Pending::Ticket {
            job,
            ticket,
            start,
            submit_ms,
        } => {
            let result = ticket.wait();
            let reply = protocol::render_result(&result);
            let m = result.metrics;
            (job, reply, start, submit_ms, ms(m.queue_wait), ms(m.exec))
        }
        Pending::Refused {
            job,
            reply,
            start,
            submit_ms,
        } => (job, reply, start, submit_ms, 0.0, 0.0),
    };
    let latency_ms = ms(start.elapsed());
    let reply = parse_reply(&reply, job.counted());
    Sample {
        job,
        latency_ms,
        submit_ms,
        queue_wait_ms,
        exec_ms,
        reply,
    }
}

/// Closed loop: `clients` requests outstanding until `window` has passed.
/// One generator thread writes the request lines in stream order; each
/// client takes the next line, and its latency runs from handing the line
/// to `parse_line` until the reply is rendered.
pub fn closed_loop(
    service: &DiagnosisService,
    requests: &Requests,
    clients: usize,
    window: Duration,
) -> Drive {
    let (tx, rx) = mpsc::sync_channel::<(Job, String)>(2 * clients);
    let rx = Arc::new(Mutex::new(rx));
    let start = Instant::now();
    let deadline = start + window;
    let mut samples = Vec::new();
    let counted_rss = CountedRss::default();
    let counted_rss = &counted_rss;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0.. {
                let job = requests.job(i);
                let line = requests.line(&job);
                if tx.send((job, line)).is_err() {
                    break;
                }
            }
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let Ok((job, line)) = rx.lock().unwrap().recv() else {
                            break;
                        };
                        // The counted rounds always complete, however short
                        // the window: the exact counters are taken over them.
                        if !job.counted() && Instant::now() >= deadline {
                            break;
                        }
                        let sample = finish(submit(service, job, &line, Instant::now()));
                        counted_rss.answered(&sample.job);
                        local.push(sample);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("client thread"));
        }
        // Dropping the last receiver stops the generator.
        drop(rx);
    });
    Drive {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
        lag_ms_max: 0.0,
        late: 0,
        rss_mb: counted_rss.rss_mb(),
    }
}

/// Open loop: request `i` is due at `i / rate` seconds, for `window`.
/// One thread writes each line ahead of its slot, then parses and submits
/// it on schedule; `waiters` threads collect replies. Latency runs from
/// the scheduled send time, so a late generator is charged, not hidden;
/// sends more than `late_ms` after their slot are counted.
pub fn open_loop(
    service: &DiagnosisService,
    requests: &Requests,
    rate: f64,
    window: Duration,
    waiters: usize,
    late_ms: f64,
) -> Drive {
    let n = ((rate * window.as_secs_f64()).round() as usize).max(COUNTED);
    let (tx, rx) = mpsc::channel::<Pending>();
    let rx = Arc::new(Mutex::new(rx));
    let mut samples = Vec::with_capacity(n);
    let (mut lag_ms_max, mut late) = (0.0f64, 0);
    let counted_rss = CountedRss::default();
    let counted_rss = &counted_rss;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let next = rx.lock().unwrap().recv();
                        let Ok(pending) = next else { break };
                        let sample = finish(pending);
                        counted_rss.answered(&sample.job);
                        local.push(sample);
                    }
                    local
                })
            })
            .collect();
        for i in 0..n {
            let job = requests.job(i);
            let line = requests.line(&job);
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lag_ms = ms(Instant::now().saturating_duration_since(due));
            lag_ms_max = lag_ms_max.max(lag_ms);
            late += usize::from(lag_ms > late_ms);
            tx.send(submit(service, job, &line, due))
                .expect("waiters outlive the sender");
        }
        drop(tx);
        for handle in handles {
            samples.extend(handle.join().expect("waiter thread"));
        }
    });
    Drive {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
        lag_ms_max,
        late,
        rss_mb: counted_rss.rss_mb(),
    }
}
