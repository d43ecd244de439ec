//! The serving runtime: acceptor, connection handlers, worker pool,
//! monitor.
//!
//! Thread layout (all plain `std::thread`, std-only rule):
//!
//! ```text
//! acceptor ──spawns──▶ handler (one per connection)
//!                        │  inline: ping / stats / shutdown
//!                        │  queued: decode / sleep / experiment
//!                        ▼
//!                 Bounded<Job> queue  (try_push = admission control)
//!                        │
//!                        ▼
//!            worker × N  (micro-batch compatible decodes, reply via mpsc)
//!
//! monitor: journals a ServeBeat every heartbeat interval
//! ```
//!
//! Invariants the tests pin down:
//!
//! * **Bounded backlog.** The only queue is [`Bounded`]; a full queue turns
//!   into an `{"error":"overloaded"}` line at the client, never growth.
//! * **Admitted means answered.** Every job that passes admission control
//!   gets exactly one reply line, even across drain (workers run until the
//!   closed queue is empty), a panicking request (`catch_unwind` → a
//!   structured `internal` error, the worker's channel cache reset), and
//!   deadlines (a structured `deadline_exceeded`, never a hung client). A
//!   reply channel that drops without an answer becomes the handler's own
//!   `internal` line, counted as `orphaned`.
//! * **Drain order.** `shutdown` sets the drain flag; the acceptor stops
//!   accepting and joins handlers (which finish their in-flight request,
//!   reply, and close); only then is the queue closed, the workers joined,
//!   and the final `done:true` heartbeat flushed.
//! * **Wall-domain only.** Nothing here touches `METRICS_<id>.json`; the
//!   journal, spans, and stats are diagnostics (DESIGN.md §11/§15/§16).

use crate::proto::{decode_line, error_line, Request, ServeBeat, MAX_LINE_BYTES};
use crate::queue::{Bounded, PushError};
use arachnet_obs::{flush_thread_spans, global_counter_add, span, warn_str, Histo};
use arachnet_sim::wavesim::WaveSim;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capability hook for the `experiment` op: `(id, quick, seed)` → the
/// deterministic metrics JSON document, or an error message.
///
/// Injected by the embedder (the `repro serve` subcommand wires the
/// experiment registry in) so that `arachnet-serve` does not depend on
/// `arachnet-experiments` — the dependency points the other way.
pub type ExperimentRunner = Box<dyn Fn(&str, bool, u64) -> Result<String, String> + Send + Sync>;

/// Server configuration; `Default` gives the `repro serve` defaults.
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, see
    /// [`ServerHandle::local_addr`]).
    pub port: u16,
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded queue capacity (clamped to ≥ 1): the admission-control knob.
    pub queue_depth: usize,
    /// Most decode requests one worker folds into a micro-batch (≥ 1).
    pub max_batch: usize,
    /// Where to journal [`ServeBeat`] heartbeats (`None` = no journal).
    pub journal: Option<PathBuf>,
    /// Optional `experiment` op capability.
    pub experiment_runner: Option<ExperimentRunner>,
    /// Per-request deadline: an admitted request not answered within this
    /// budget gets a structured `deadline_exceeded` line instead of a hung
    /// client.
    pub request_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 2,
            queue_depth: 64,
            max_batch: 8,
            journal: None,
            experiment_runner: None,
            request_deadline: Duration::from_secs(30),
        }
    }
}

/// Final tallies returned by [`ServerHandle::join`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Work requests admitted to the queue.
    pub requests: u64,
    /// Work requests a worker disposed of (replied, or answered with a
    /// worker-side `deadline_exceeded`).
    pub completed: u64,
    /// Requests refused by admission control (`overloaded` + `draining`).
    pub rejected: u64,
    /// Malformed / oversized / bad-request lines.
    pub malformed: u64,
    /// Connections that vanished mid-line (EOF with a partial request).
    pub torn: u64,
    /// Micro-batches executed (a lone decode counts as a batch of 1).
    pub batches: u64,
    /// Decode requests served through a batch of size ≥ 2.
    pub batched_requests: u64,
    /// Request latency p50 (enqueue → reply), microseconds.
    pub p50_us: u64,
    /// Request latency p95, microseconds.
    pub p95_us: u64,
    /// `deadline_exceeded` replies generated (handler- and worker-side).
    pub deadlines: u64,
    /// Admitted requests whose reply channel dropped without an answer
    /// (the handler's structured `internal` fallback answered the client).
    pub orphaned: u64,
}

/// One admitted unit of work: the request plus its reply channel.
struct Job {
    req: Request,
    enqueued: Instant,
    deadline: Instant,
    reply: mpsc::Sender<String>,
}

/// A worker's cached channel: compatible decode requests reuse the
/// expensive `WaveSim::paper(seed)` synthesis.
type ChannelCache = Option<(u64, WaveSim)>;

/// State shared by every thread of one server.
struct Shared {
    queue: Bounded<Job>,
    draining: AtomicBool,
    requests: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    torn: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    inflight: AtomicU64,
    deadlines: AtomicU64,
    orphaned: AtomicU64,
    request_deadline: Duration,
    latency_us: Mutex<Histo>,
    started: Instant,
    workers: u32,
    experiment_runner: Option<ExperimentRunner>,
}

impl Shared {
    fn beat(&self, done: bool) -> ServeBeat {
        let completed = self.completed.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64();
        let (p50_us, p95_us) = {
            let h = self.latency_us.lock().unwrap_or_else(|e| e.into_inner());
            (h.p50(), h.p95())
        };
        ServeBeat {
            t_ms: self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
            requests: self.requests.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            inflight: self.inflight.load(Ordering::Relaxed),
            workers: self.workers,
            // Same clamp as `progress_rates`: a sub-millisecond window
            // must not serialize an `inf`/`NaN` rate.
            rps: if elapsed > 1e-3 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            p50_us,
            p95_us,
            deadlines: self.deadlines.load(Ordering::Relaxed),
            done,
        }
    }

    fn stats_line(&self) -> String {
        let b = self.beat(false);
        format!(
            "{{\"ok\":true,\"op\":\"stats\",\"draining\":{},{}}}",
            self.draining.load(Ordering::Relaxed),
            // Reuse the heartbeat encoding minus its own braces.
            b.to_json().trim_start_matches('{').trim_end_matches('}'),
        )
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `port: 0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begin graceful drain: stop accepting, finish in-flight, flush
    /// telemetry. Idempotent; returns immediately (pair with
    /// [`ServerHandle::join`]).
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Has a drain been requested (via [`ServerHandle::shutdown`] or a
    /// client `shutdown` op)? `repro serve` polls this to know when to
    /// join.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Block until the drain completes and return the final tallies.
    /// Implies [`ServerHandle::shutdown`].
    pub fn join(mut self) -> ServeStats {
        self.shutdown();
        // 1. Acceptor notices the flag, stops accepting, hands back the
        //    handler threads it spawned.
        let handlers = self
            .acceptor
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        // 2. Handlers finish their in-flight request (workers are still
        //    running, so pending replies arrive), answer it, and close.
        for h in handlers {
            let _ = h.join();
        }
        // 3. Only now close the queue: workers drain what was admitted,
        //    then observe `None` and exit.
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                warn_str("serve: a worker died to a panic outside its per-request catch");
            }
        }
        // 4. Final telemetry: the monitor writes the `done:true` beat.
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        let s = &self.shared;
        let (p50_us, p95_us) = {
            let h = s.latency_us.lock().unwrap_or_else(|e| e.into_inner());
            (h.p50(), h.p95())
        };
        let stats = ServeStats {
            requests: s.requests.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            malformed: s.malformed.load(Ordering::Relaxed),
            torn: s.torn.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_requests: s.batched_requests.load(Ordering::Relaxed),
            p50_us,
            p95_us,
            deadlines: s.deadlines.load(Ordering::Relaxed),
            orphaned: s.orphaned.load(Ordering::Relaxed),
        };
        // Mirror the tallies into the process-wide obs counters so
        // `repro serve` reports them alongside everything else.
        global_counter_add("serve.requests", stats.requests);
        global_counter_add("serve.completed", stats.completed);
        global_counter_add("serve.rejected", stats.rejected);
        global_counter_add("serve.malformed", stats.malformed);
        global_counter_add("serve.batches", stats.batches);
        global_counter_add("serve.deadlines", stats.deadlines);
        stats
    }
}

/// Bind on 127.0.0.1 and start serving. Errors only on bind failure —
/// everything after that degrades into structured error lines.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        queue: Bounded::new(config.queue_depth),
        draining: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        malformed: AtomicU64::new(0),
        torn: AtomicU64::new(0),
        batches: AtomicU64::new(0),
        batched_requests: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        deadlines: AtomicU64::new(0),
        orphaned: AtomicU64::new(0),
        request_deadline: config.request_deadline,
        latency_us: Mutex::new(Histo::new()),
        started: Instant::now(),
        workers: workers as u32,
        experiment_runner: config.experiment_runner,
    });

    let max_batch = config.max_batch.max(1);
    let worker_handles = (0..workers)
        .map(|_| {
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&sh, max_batch))
        })
        .collect();

    let monitor = config.journal.map(|path| {
        let sh = Arc::clone(&shared);
        std::thread::spawn(move || monitor_loop(&sh, &path))
    });

    let sh = Arc::clone(&shared);
    let acceptor = std::thread::spawn(move || {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !sh.draining.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let sh2 = Arc::clone(&sh);
                    handlers.push(std::thread::spawn(move || handle_conn(stream, &sh2)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        handlers
    });

    Ok(ServerHandle {
        local_addr,
        shared,
        acceptor: Some(acceptor),
        workers: worker_handles,
        monitor,
    })
}

/// How long a handler blocks in one `read` call before re-checking the
/// drain flag; also the granularity of the idle deadline.
const READ_SLICE: Duration = Duration::from_millis(100);

/// Per-connection idle read deadline: a connection that sends no byte for
/// this long is closed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-connection write deadline (slow reader back-pressure bound).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Heartbeat interval for the monitor thread.
const HEARTBEAT: Duration = Duration::from_millis(500);

/// Extra slack the handler grants past the request deadline before it
/// answers `deadline_exceeded` itself, so a worker-side deadline reply
/// (which carries better accounting) wins the race when both fire.
const DEADLINE_GRACE: Duration = Duration::from_millis(50);

fn handle_conn(mut stream: TcpStream, sh: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Replies are single small lines: disable Nagle so a reply is not
    // parked behind the peer's delayed ACK (~40 ms on loopback).
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut idle = Instant::now();
    loop {
        // Serve every complete line currently buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if pos >= MAX_LINE_BYTES {
                // The terminator arrived, but the line is past the cap —
                // same oversized rejection as the never-terminated case.
                sh.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(
                    &mut stream,
                    &error_line(
                        "oversized",
                        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    ),
                );
                return;
            }
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            match serve_line(&line, sh, &mut stream) {
                LineOutcome::Continue => idle = Instant::now(),
                LineOutcome::Close => return,
            }
        }
        if buf.len() > MAX_LINE_BYTES {
            // The stream cannot be resynchronized once a line overruns the
            // cap — answer and drop the connection.
            sh.malformed.fetch_add(1, Ordering::Relaxed);
            let _ = write_line(
                &mut stream,
                &error_line("oversized", &format!("request line exceeds {MAX_LINE_BYTES} bytes")),
            );
            return;
        }
        if sh.draining.load(Ordering::SeqCst) {
            // Graceful drain: anything already admitted was answered by
            // the loop above; new lines are no longer read.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    // Mid-line disconnect: the peer died between bytes.
                    sh.torn.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if idle.elapsed() > READ_TIMEOUT {
                    return;
                }
            }
            Err(_) => {
                if !buf.is_empty() {
                    sh.torn.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
    }
}

enum LineOutcome {
    Continue,
    Close,
}

/// Parse, route, and answer one request line. Inline ops bypass the queue
/// so health checks and shutdown work even when the pool is saturated.
fn serve_line(line: &str, sh: &Shared, stream: &mut TcpStream) -> LineOutcome {
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(rej) => {
            sh.malformed.fetch_add(1, Ordering::Relaxed);
            return match write_line(stream, &rej.to_line()) {
                Ok(()) => LineOutcome::Continue,
                Err(()) => LineOutcome::Close,
            };
        }
    };
    match req {
        Request::Ping => match write_line(stream, "{\"ok\":true,\"op\":\"ping\"}") {
            Ok(()) => LineOutcome::Continue,
            Err(()) => LineOutcome::Close,
        },
        Request::Stats => match write_line(stream, &sh.stats_line()) {
            Ok(()) => LineOutcome::Continue,
            Err(()) => LineOutcome::Close,
        },
        Request::Shutdown => {
            let _ = write_line(stream, "{\"ok\":true,\"op\":\"shutdown\",\"draining\":true}");
            sh.draining.store(true, Ordering::SeqCst);
            LineOutcome::Close
        }
        work => {
            if sh.draining.load(Ordering::SeqCst) {
                sh.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(
                    stream,
                    &error_line("draining", "server is shutting down"),
                );
                return LineOutcome::Close;
            }
            let deadline = Instant::now() + sh.request_deadline;
            let (tx, rx) = mpsc::channel();
            let job = Job {
                req: work,
                enqueued: Instant::now(),
                deadline,
                reply: tx,
            };
            match sh.queue.try_push(job) {
                Ok(()) => {
                    sh.requests.fetch_add(1, Ordering::Relaxed);
                    // Admitted means answered: workers reply to every
                    // popped job; a reply channel dropped without an answer
                    // lands here, and if nothing arrives by the deadline the
                    // handler answers itself — the client is never left
                    // hanging.
                    let wait = deadline
                        .saturating_duration_since(Instant::now())
                        .saturating_add(DEADLINE_GRACE);
                    let reply = match rx.recv_timeout(wait) {
                        Ok(r) => r,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            sh.deadlines.fetch_add(1, Ordering::Relaxed);
                            error_line(
                                "deadline_exceeded",
                                "request outlived its deadline before a worker replied",
                            )
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            sh.orphaned.fetch_add(1, Ordering::Relaxed);
                            error_line("internal", "worker disappeared before replying")
                        }
                    };
                    match write_line(stream, &reply) {
                        Ok(()) => LineOutcome::Continue,
                        Err(()) => LineOutcome::Close,
                    }
                }
                Err(PushError::Full(_)) => {
                    sh.rejected.fetch_add(1, Ordering::Relaxed);
                    match write_line(
                        stream,
                        &error_line("overloaded", "request queue is full, retry later"),
                    ) {
                        Ok(()) => LineOutcome::Continue,
                        Err(()) => LineOutcome::Close,
                    }
                }
                Err(PushError::Closed(_)) => {
                    sh.rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = write_line(
                        stream,
                        &error_line("draining", "server is shutting down"),
                    );
                    LineOutcome::Close
                }
            }
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> Result<(), ()> {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    stream
        .write_all(&out)
        .and_then(|()| stream.flush())
        .map_err(|_| ())
}

/// Worker: pop → (maybe micro-batch) → execute → reply, until the queue
/// is closed and empty.
fn worker_loop(sh: &Shared, max_batch: usize) {
    let mut cache: ChannelCache = None;
    while let Some(job) = sh.queue.pop() {
        let mut batch = vec![job];
        if let Some(key) = batch[0].req.batch_key() {
            // Micro-batch: grab compatible (same-seed) decodes that are
            // already waiting. Never blocks, so batching only amortizes.
            batch.extend(
                sh.queue
                    .pop_matching(|j| j.req.batch_key() == Some(key), max_batch - 1),
            );
        }
        let n = batch.len() as u64;
        sh.inflight.fetch_add(n, Ordering::Relaxed);
        sh.batches.fetch_add(1, Ordering::Relaxed);
        if batch.len() >= 2 {
            sh.batched_requests.fetch_add(n, Ordering::Relaxed);
        }
        for job in batch.drain(..) {
            if Instant::now() > job.deadline {
                // Expired while queued: skip the work, answer structurally.
                // The handler may have answered already (after the grace)
                // — this send then lands in a dropped receiver, which is
                // fine.
                sh.deadlines.fetch_add(1, Ordering::Relaxed);
                sh.completed.fetch_add(1, Ordering::Relaxed);
                sh.inflight.fetch_sub(1, Ordering::Relaxed);
                let _ = job.reply.send(error_line(
                    "deadline_exceeded",
                    "request expired before a worker could serve it",
                ));
                continue;
            }
            let _t = span("serve.request");
            let result = catch_unwind(AssertUnwindSafe(|| {
                execute(&job.req, n as usize, &mut cache, sh)
            }));
            let reply = match result {
                Ok(r) => r,
                Err(_) => {
                    // A panicking request must not take the worker (or the
                    // whole pool) down — quarantine it behind a structured
                    // error, like the sweep engine quarantines trials. The
                    // cache is rebuilt from scratch: the panic may have
                    // left a half-written entry.
                    cache = None;
                    error_line("internal", "request panicked; worker recovered")
                }
            };
            let us = job.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
            sh.latency_us
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .record(us);
            sh.completed.fetch_add(1, Ordering::Relaxed);
            sh.inflight.fetch_sub(1, Ordering::Relaxed);
            // A dead reply receiver (handler gone) is fine — the work is
            // done and accounted; there is just nobody left to tell.
            let _ = job.reply.send(reply);
        }
    }
    flush_thread_spans();
}

/// Run one queued request to its reply line. `batched` is the size of the
/// micro-batch this request rode in (1 = alone).
fn execute(req: &Request, batched: usize, cache: &mut ChannelCache, sh: &Shared) -> String {
    match req {
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(*ms));
            format!("{{\"ok\":true,\"op\":\"sleep\",\"ms\":{ms}}}")
        }
        Request::Decode {
            tag,
            ul_bps,
            packets,
            seed,
        } => {
            let hit = matches!(cache, Some((s, _)) if *s == *seed);
            if !hit {
                let _t = span("serve.channel_synth");
                *cache = Some((*seed, WaveSim::paper(*seed)));
            }
            let sim = &cache.as_ref().expect("just cached").1;
            let _t = span("serve.decode");
            let r = sim.uplink_trial(*tag, *ul_bps, *packets);
            decode_line(*tag, *ul_bps, r.sent, r.lost, r.snr_db, batched)
        }
        Request::Experiment { id, quick, seed } => match sh.experiment_runner.as_ref() {
            None => error_line(
                "unsupported",
                "this server was started without an experiment runner",
            ),
            Some(run) => {
                let _t = span("serve.experiment");
                match run(id, *quick, *seed) {
                    Ok(metrics_json) => format!(
                        "{{\"ok\":true,\"op\":\"experiment\",\"id\":\"{}\",\"metrics\":{}}}",
                        arachnet_obs::json_escape(id),
                        metrics_json,
                    ),
                    Err(msg) => error_line("bad_request", &msg),
                }
            }
        },
        // Inline ops never reach the queue.
        Request::Ping | Request::Stats | Request::Shutdown => {
            error_line("internal", "inline op routed to the worker pool")
        }
    }
}

/// Monitor: append a [`ServeBeat`] heartbeat line every interval, plus the
/// final `done:true` beat once the drain completes.
fn monitor_loop(sh: &Shared, path: &std::path::Path) {
    let mut journal = arachnet_obs::Journal::open(path);
    loop {
        // Sleep in short slices so shutdown is prompt.
        let wake = Instant::now() + HEARTBEAT;
        while Instant::now() < wake {
            if sh.draining.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if sh.draining.load(Ordering::SeqCst) {
            break;
        }
        journal.append_line(&sh.beat(false).to_json());
    }
    // Wait for the drain to finish (queue empty, nothing in flight) before
    // stamping the final beat, so `done:true` really means drained.
    let deadline = Instant::now() + Duration::from_secs(30);
    while (!sh.queue.is_empty() || sh.inflight.load(Ordering::Relaxed) > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    journal.append_line(&sh.beat(true).to_json());
}
