//! The serving runtime: acceptor, connection handlers, worker pool.
//!
//! Thread layout (all plain `std::thread`, std-only rule):
//!
//! ```text
//! acceptor ──spawns──▶ handler (one per connection)
//! (blocks in accept)     │  inline: ping / stats / shutdown
//!                        │  queued: decode / sleep / experiment
//!                        ▼
//!                 Bounded<Job> queue  (try_push = admission control)
//!                        │
//!                        ▼
//!            worker × N  (one job at a time, reply via mpsc)
//! ```
//!
//! Invariants the tests pin down:
//!
//! * **Bounded backlog.** The only queue is [`Bounded`]; a full queue turns
//!   into an `{"error":"overloaded"}` line at the client, never growth.
//! * **Admitted means answered.** Every job that passes admission control
//!   gets exactly one reply line, even across drain (workers run until the
//!   closed queue is empty), a panicking request (`catch_unwind` → a
//!   structured `internal` error), and deadlines (a structured
//!   `deadline_exceeded`, never a hung client). A reply channel that
//!   drops without an answer becomes the handler's own `internal` line,
//!   counted as `orphaned`.
//! * **Drain order.** `shutdown` sets the drain flag and wakes the
//!   acceptor, which blocks in `accept`, with one loopback connection; the
//!   acceptor drops that connection unserved and exits, and its handlers
//!   are joined (each finishes its in-flight request, replies, and
//!   closes); only then is the queue closed and the workers joined.
//! * **Wall-domain only.** Nothing here touches `METRICS_<id>.json`; the
//!   stats are diagnostics (DESIGN.md §16).

use crate::proto::{decode_line, error_line, Request, ServeBeat, MAX_LINE_BYTES};
use crate::queue::{Bounded, PushError};
use arachnet_obs::warn_str;
use arachnet_sim::wavesim::WaveSim;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Always 0: a worker runs one job at a time and never batches.
    /// perfbench reads it for `serve.batched_frac`; it goes when that
    /// stops.
    pub batched_requests: u64,
    /// Request latency p50 (enqueue → reply) over the last
    /// [`LATENCY_WINDOW`] requests, microseconds; 0 before the first.
    pub p50_us: u64,
    /// Request latency p95, over the same window, microseconds.
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

/// How many of the most recent request latencies the `stats` op and
/// [`ServeStats`] take their p50/p95 over.
pub const LATENCY_WINDOW: usize = 4096;

/// The raw latencies of the last [`LATENCY_WINDOW`] requests; the oldest
/// is overwritten first.
#[derive(Default)]
struct LatencyRing {
    us: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, us: u64) {
        if self.us.len() < LATENCY_WINDOW {
            self.us.push(us);
        } else {
            self.us[self.next] = us;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }
}

/// Exact `(p50, p95)` of `us`: the order statistic of rank ⌈q·n⌉, clamped
/// to [1, n]; `(0, 0)` when `us` is empty.
fn p50_p95(mut us: Vec<u64>) -> (u64, u64) {
    if us.is_empty() {
        return (0, 0);
    }
    us.sort_unstable();
    let n = us.len();
    let at = |pct: usize| us[(n * pct).div_ceil(100).clamp(1, n) - 1];
    (at(50), at(95))
}

/// State shared by every thread of one server.
struct Shared {
    queue: Bounded<Job>,
    draining: AtomicBool,
    /// The listener's own address, which the drain connects to.
    local_addr: SocketAddr,
    requests: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    torn: AtomicU64,
    inflight: AtomicU64,
    deadlines: AtomicU64,
    orphaned: AtomicU64,
    request_deadline: Duration,
    latency_us: Mutex<LatencyRing>,
    started: Instant,
    workers: u32,
    experiment_runner: Option<ExperimentRunner>,
}

impl Shared {
    /// Begin the drain, once: set the flag, then wake the acceptor out of
    /// its blocking `accept` with one loopback connection, which it drops
    /// unserved. A second call does nothing.
    fn drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = TcpStream::connect(self.local_addr) {
            warn_str(&format!(
                "serve: the drain could not wake the acceptor ({e}); it stops at its next connection"
            ));
        }
    }

    /// Latency p50 and p95 over the ring: copied under the lock, sorted
    /// outside it.
    fn latency_p50_p95(&self) -> (u64, u64) {
        let us = self
            .latency_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .us
            .clone();
        p50_p95(us)
    }

    fn beat(&self) -> ServeBeat {
        let completed = self.completed.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64();
        let (p50_us, p95_us) = self.latency_p50_p95();
        ServeBeat {
            t_ms: self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
            requests: self.requests.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            inflight: self.inflight.load(Ordering::Relaxed),
            workers: self.workers,
            // A sub-millisecond window must not serialize an `inf`/`NaN`
            // rate.
            rps: if elapsed > 1e-3 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            p50_us,
            p95_us,
            deadlines: self.deadlines.load(Ordering::Relaxed),
        }
    }

    fn stats_line(&self) -> String {
        let b = self.beat();
        format!(
            "{{\"ok\":true,\"op\":\"stats\",\"draining\":{},{}}}",
            self.draining.load(Ordering::Relaxed),
            // Reuse the snapshot encoding minus its own braces.
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
}

impl ServerHandle {
    /// The bound address (resolves `port: 0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begin graceful drain: stop accepting, finish in-flight.
    /// Idempotent; returns once the acceptor has been woken (pair with
    /// [`ServerHandle::join`]).
    pub fn shutdown(&self) {
        self.shared.drain();
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
        // 1. Acceptor, woken by the drain, sees the flag, stops accepting
        //    and hands back the handler threads it spawned.
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
        let s = &self.shared;
        let (p50_us, p95_us) = s.latency_p50_p95();
        ServeStats {
            requests: s.requests.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            malformed: s.malformed.load(Ordering::Relaxed),
            torn: s.torn.load(Ordering::Relaxed),
            batched_requests: 0,
            p50_us,
            p95_us,
            deadlines: s.deadlines.load(Ordering::Relaxed),
            orphaned: s.orphaned.load(Ordering::Relaxed),
        }
    }
}

/// Bind on 127.0.0.1 and start serving. Errors only on bind failure —
/// everything after that degrades into structured error lines.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let local_addr = listener.local_addr()?;

    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        queue: Bounded::new(config.queue_depth),
        draining: AtomicBool::new(false),
        local_addr,
        requests: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        malformed: AtomicU64::new(0),
        torn: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        deadlines: AtomicU64::new(0),
        orphaned: AtomicU64::new(0),
        request_deadline: config.request_deadline,
        latency_us: Mutex::new(LatencyRing::default()),
        started: Instant::now(),
        workers: workers as u32,
        experiment_runner: config.experiment_runner,
    });

    let worker_handles = (0..workers)
        .map(|_| {
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&sh))
        })
        .collect();

    let sh = Arc::clone(&shared);
    let acceptor = std::thread::spawn(move || {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            // The drain's wake connection, and any that races it, is
            // dropped here unserved.
            if sh.draining.load(Ordering::SeqCst) {
                return handlers;
            }
            match accepted {
                Ok((stream, _)) => {
                    let sh2 = Arc::clone(&sh);
                    handlers.push(std::thread::spawn(move || handle_conn(stream, &sh2)));
                }
                // A real accept error (EMFILE, ECONNABORTED): back off so
                // a lasting one cannot spin.
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
    });

    Ok(ServerHandle {
        local_addr,
        shared,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

/// How long the acceptor waits after a failed `accept` before it tries
/// again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a handler blocks in one `read` call before re-checking the
/// drain flag; also the granularity of the idle deadline.
const READ_SLICE: Duration = Duration::from_millis(100);

/// Per-connection idle read deadline: a connection that sends no byte for
/// this long is closed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-connection write deadline (slow reader back-pressure bound).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

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
                &error_line(
                    "oversized",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ),
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
            // Drain first, so a client that reads the reply finds the
            // server draining.
            sh.drain();
            let _ = write_line(
                stream,
                "{\"ok\":true,\"op\":\"shutdown\",\"draining\":true}",
            );
            LineOutcome::Close
        }
        work => {
            if sh.draining.load(Ordering::SeqCst) {
                sh.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_line(stream, &error_line("draining", "server is shutting down"));
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
                    let _ = write_line(stream, &error_line("draining", "server is shutting down"));
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

/// Worker: pop one job → execute → reply, until the queue is closed and
/// empty.
fn worker_loop(sh: &Shared) {
    while let Some(job) = sh.queue.pop() {
        if Instant::now() > job.deadline {
            // Expired while queued: skip the work, answer structurally.
            // The handler may have answered already (after the grace) —
            // this send then lands in a dropped receiver, which is fine.
            sh.deadlines.fetch_add(1, Ordering::Relaxed);
            sh.completed.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(error_line(
                "deadline_exceeded",
                "request expired before a worker could serve it",
            ));
            continue;
        }
        sh.inflight.fetch_add(1, Ordering::Relaxed);
        // A panicking request must not take the worker (or the whole
        // pool) down — quarantine it behind a structured error, like the
        // sweep engine quarantines trials.
        let reply = catch_unwind(AssertUnwindSafe(|| execute(&job.req, sh)))
            .unwrap_or_else(|_| error_line("internal", "request panicked; worker recovered"));
        let us = job.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
        sh.latency_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(us);
        sh.completed.fetch_add(1, Ordering::Relaxed);
        sh.inflight.fetch_sub(1, Ordering::Relaxed);
        // A dead reply receiver (handler gone) is fine — the work is done
        // and accounted; there is just nobody left to tell.
        let _ = job.reply.send(reply);
    }
}

/// Run one queued request to its reply line. A decode builds its own
/// `WaveSim::paper(seed)`: a few µs against about 1 ms for the trial.
fn execute(req: &Request, sh: &Shared) -> String {
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
            let r = WaveSim::paper(*seed).uplink_trial(*tag, *ul_bps, *packets);
            decode_line(*tag, *ul_bps, r.sent, r.lost, r.snr_db)
        }
        Request::Experiment { id, quick, seed } => match sh.experiment_runner.as_ref() {
            None => error_line(
                "unsupported",
                "this server was started without an experiment runner",
            ),
            Some(run) => match run(id, *quick, *seed) {
                Ok(metrics_json) => format!(
                    "{{\"ok\":true,\"op\":\"experiment\",\"id\":\"{}\",\"metrics\":{}}}",
                    arachnet_obs::json_escape(id),
                    metrics_json,
                ),
                Err(msg) => error_line("bad_request", &msg),
            },
        },
        // Inline ops never reach the queue.
        Request::Ping | Request::Stats | Request::Shutdown => {
            error_line("internal", "inline op routed to the worker pool")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_p50_p95(values: impl IntoIterator<Item = u64>) -> (u64, u64) {
        let mut ring = LatencyRing::default();
        for v in values {
            ring.record(v);
        }
        p50_p95(ring.us)
    }

    #[test]
    fn latency_percentiles_are_exact_order_statistics() {
        assert_eq!(ring_p50_p95(1..=1000), (500, 950));
        assert_eq!(ring_p50_p95([7]), (7, 7));
        assert_eq!(ring_p50_p95([]), (0, 0));
    }

    #[test]
    fn latency_ring_keeps_only_the_last_window() {
        // A full window of huge values, then 1..=LATENCY_WINDOW: the ring
        // holds only the second run, so none of the first counts.
        let w = LATENCY_WINDOW as u64;
        let values = std::iter::repeat_n(u64::MAX, LATENCY_WINDOW).chain(1..=w);
        assert_eq!(ring_p50_p95(values), (w / 2, (w * 95).div_ceil(100)));
    }
}
