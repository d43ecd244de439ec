//! The `serve-decode` workload: an in-process `arachnet-serve` with two
//! workers, driven open-loop from two connections at one fixed rate.
//!
//! Request `j` is due `j / RATE_HZ` after the phase starts and goes out
//! on connection `j % 2`. Each connection keeps one request in flight, so
//! a request whose predecessor is still out leaves late; its latency is
//! timed from when it was due, so a stall is charged to every request it
//! delays. The phase is one unbroken schedule; its p99 is taken per
//! window of `WINDOW` consecutive requests and the median over windows
//! reported, so a burst of host stalls in one window does not set it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use arachnet_core::rng::TagRng;
use arachnet_obs::parse_json;
use arachnet_serve::{start, ServeClient, ServeConfig, ServerHandle};
use arachnet_sim::wavesim::{with_phy_scratch, UplinkResult, WaveSim};

use crate::checks;
use crate::metrics::Outcome;
use crate::trace::{self, Chunk, LayerTotals};
use crate::{phy, procfs, stats, sweeps, Args};

/// Offered load over both connections.
const RATE_HZ: f64 = 400.0;
/// Share of `--seconds` the fixed-rate phase takes; a traced run leaves
/// room for its ping phase and in-process PHY passes.
const PHASE_SHARE: f64 = 0.85;
const TRACED_PHASE_SHARE: f64 = 0.5;
/// Requests per latency window, and per in-process PHY pass of a traced
/// run: ten beyond each window's p99.
const WINDOW: usize = 1000;
/// Distinct request seeds.
const POOL: usize = 4;
const TAGS: [u8; 3] = [8, 4, 11];
const UL_BPS: f64 = 2000.0;
const PACKETS: u64 = 1;
const CONNECTIONS: usize = 2;
const SETUP_REPS: usize = 7;
/// The server's acceptor polls for connections every 10 ms. Set-up
/// connects this long after binding, so every repetition meets the poll
/// the same way; connecting at once races the acceptor's first poll and
/// makes set-up time bimodal (0.4 or 10 ms).
const CONNECT_AFTER: Duration = Duration::from_millis(2);
/// Closed-loop pings in the traced run's ping phase.
const PINGS: usize = 400;
/// A run's latencies are invalid when its generator sends its p99
/// request later than one per-connection send interval after it was due:
/// the offered rate was not held. The report says so; it is not an
/// output error, so it does not fail the run.
const LATE_TOLERANCE_MS: f64 = CONNECTIONS as f64 * 1e3 / RATE_HZ;
const TIMEOUT: Duration = Duration::from_secs(10);

struct Request {
    tag: u8,
    seed: u64,
    line: String,
}

/// The request seed pool and `n` requests: tags rotate 8/4/11, seeds
/// come from a pool drawn from the run seed (at most 2^53, the wire
/// format's limit).
fn requests(seed: u64, n: usize) -> (Vec<u64>, Vec<Request>) {
    let mut rng = TagRng::new(seed ^ 0x5E2F_DEC0);
    let pool: Vec<u64> = (0..POOL).map(|_| rng.next_u64() >> 11).collect();
    let reqs = (0..n)
        .map(|j| {
            let tag = TAGS[j % TAGS.len()];
            let seed = pool[rng.below(POOL as u64) as usize];
            let line = format!(
                "{{\"op\":\"decode\",\"tag\":{tag},\"ul_bps\":{UL_BPS},\"packets\":{PACKETS},\"seed\":{seed}}}"
            );
            Request { tag, seed, line }
        })
        .collect();
    (pool, reqs)
}

/// A running server with its generator connections.
struct Rig {
    server: ServerHandle,
    conns: Vec<ServeClient>,
}

impl Rig {
    fn stop(self) {
        drop(self.conns);
        self.server.join();
    }
}

/// Binds a server and connects; done when the first ping is answered.
fn boot() -> Result<Rig, String> {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    std::thread::sleep(CONNECT_AFTER);
    let addr = server.local_addr();
    let conns = (0..CONNECTIONS)
        .map(|_| ServeClient::connect(addr, TIMEOUT).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>();
    let mut rig = match conns {
        Ok(conns) => Rig { server, conns },
        Err(e) => {
            server.join();
            return Err(e);
        }
    };
    match rig.conns[0].roundtrip("{\"op\":\"ping\"}") {
        Ok(pong) if pong.contains("\"ok\":true") => Ok(rig),
        answer => {
            rig.stop();
            Err(format!("first ping: {answer:?}"))
        }
    }
}

struct Sample {
    done: Instant,
    late_ms: f64,
    latency_ms: f64,
    reply: Result<String, String>,
    index: usize,
}

struct Phase {
    wall_s: f64,
    cpu_s: f64,
    samples: Vec<Sample>,
}

fn fixed_rate_phase(conns: &mut [ServeClient], reqs: &[Request]) -> Phase {
    let cpu0 = procfs::cpu_s().expect("read /proc/self/stat");
    let t0 = Instant::now() + Duration::from_millis(2);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    (c..reqs.len())
                        .step_by(CONNECTIONS)
                        .map(|j| {
                            let due = t0 + Duration::from_secs_f64(j as f64 / RATE_HZ);
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                            let sent = Instant::now();
                            let reply = conn.roundtrip(&reqs[j].line).map_err(|e| e.to_string());
                            let done = Instant::now();
                            Sample {
                                done,
                                late_ms: (sent - due).as_secs_f64() * 1e3,
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                reply,
                                index: j,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let end = samples.iter().map(|s| s.done).max().unwrap_or(t0);
    Phase {
        wall_s: end.saturating_duration_since(t0).as_secs_f64(),
        cpu_s: procfs::cpu_s().expect("read /proc/self/stat") - cpu0,
        samples,
    }
}

/// What the server must answer for each (tag, seed): `WaveSim::uplink_trial`
/// run in-process.
fn expected(sims: &BTreeMap<u64, WaveSim>) -> BTreeMap<(u8, u64), UplinkResult> {
    sims.iter()
        .flat_map(|(&seed, sim)| {
            TAGS.map(|tag| ((tag, seed), sim.uplink_trial(tag, UL_BPS, PACKETS)))
        })
        .collect()
}

/// Checks one reply against the in-process result.
fn reply_ok(reply: &str, want: &UplinkResult) -> bool {
    let Ok(v) = parse_json(reply) else {
        return false;
    };
    let num = |k| v.get(k).and_then(|x| x.as_f64());
    v.get("ok").and_then(|x| x.as_bool()) == Some(true)
        && num("sent") == Some(want.sent as f64)
        && num("lost") == Some(want.lost as f64)
        && num("snr_db").map(f64::to_bits) == Some(want.snr_db.to_bits())
}

pub fn serve_decode(args: &Args, out: &mut Outcome) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut rig: Option<Rig> = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        match boot() {
            Ok(r) => {
                setup.push(t.elapsed().as_secs_f64());
                if let Some(old) = rig.replace(r) {
                    old.stop();
                }
            }
            Err(e) => {
                out.problem(format!("server set-up {i} failed: {e}"));
                if let Some(old) = rig {
                    old.stop();
                }
                return;
            }
        }
    }
    let Rig { server, mut conns } = rig.expect("at least one set-up");
    stats::report_setup(&setup);
    out.set("setup_s", stats::median(&setup));

    let share = if args.trace {
        TRACED_PHASE_SHARE
    } else {
        PHASE_SHARE
    };
    let n = ((args.seconds * share * RATE_HZ) as usize / WINDOW).max(1) * WINDOW;
    let (pool, reqs) = requests(args.seed, n);
    let sims: BTreeMap<u64, WaveSim> = pool.iter().map(|&s| (s, WaveSim::paper(s))).collect();
    let want = expected(&sims);
    let digest = checks::fnv1a(
        &want
            .iter()
            .flat_map(|(&(tag, seed), r)| {
                [u64::from(tag), seed, r.sent, r.lost, r.snr_db.to_bits()]
                    .into_iter()
                    .flat_map(u64::to_le_bytes)
            })
            .collect::<Vec<u8>>(),
    );

    let mut ping_p50 = 0.0;
    if args.trace {
        let rtts: Vec<f64> = (0..PINGS)
            .filter_map(|i| {
                let t = Instant::now();
                let pong = conns[i % CONNECTIONS].roundtrip("{\"op\":\"ping\"}").ok()?;
                pong.contains("\"ok\":true")
                    .then(|| t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        if rtts.len() < PINGS {
            out.problem(format!("{} of {PINGS} pings failed", PINGS - rtts.len()));
        }
        ping_p50 = stats::median(&rtts);
    }

    let phase = fixed_rate_phase(&mut conns, &reqs);
    drop(conns);
    let serve_stats = server.join();

    let mut by_index: Vec<&Sample> = phase.samples.iter().collect();
    by_index.sort_by_key(|s| s.index);
    let of = |f: fn(&Sample) -> f64| {
        let windows: Vec<Vec<f64>> = by_index
            .chunks(WINDOW)
            .map(|w| w.iter().map(|s| f(s)).collect())
            .collect();
        stats::Latency::of_windows(&windows)
    };
    let lat = of(|s| s.latency_ms);
    let late_p99 = of(|s| s.late_ms).p99;
    let (mut bad, mut io) = (0u64, 0u64);
    for s in &phase.samples {
        let r = &reqs[s.index];
        match &s.reply {
            Ok(line) if reply_ok(line, &want[&(r.tag, r.seed)]) => {}
            Ok(_) => bad += 1,
            Err(_) => io += 1,
        }
    }
    out.attempted += phase.samples.len() as u64;
    out.failed += bad + io;
    println!(
        "fixed-rate phase: {} requests at {RATE_HZ} req/s over {CONNECTIONS} connections, wall {:.4} s, cpu {:.3} s",
        phase.samples.len(),
        phase.wall_s,
        phase.cpu_s
    );
    println!("decode latency from scheduled send: {}", lat.describe("ms"));
    println!("generator lateness: p99 {late_p99:.4} ms (tolerance {LATE_TOLERANCE_MS} ms)");
    println!(
        "server: {} admitted, {} batched, {} rejected, {} deadlines; {bad} wrong replies, {io} io errors",
        serve_stats.requests, serve_stats.batched_requests, serve_stats.rejected, serve_stats.deadlines
    );
    out.shape(
        bad == 0 && io == 0,
        &format!("every decode reply ok with sent = {PACKETS} and equal to WaveSim::uplink_trial in-process"),
    );
    if late_p99 > LATE_TOLERANCE_MS {
        println!(
            "INVALID RUN: generator p99 lateness {late_p99:.3} ms exceeds {LATE_TOLERANCE_MS} ms, \
             so decode latencies do not describe {RATE_HZ} req/s"
        );
    }
    checks::report_digest(&args.workload, args.seed, digest);

    out.set("wall_s", phase.wall_s);
    out.set("cpu_s", phase.cpu_s);
    out.set("decode_p50_ms", lat.p50);
    out.set("decode_p95_ms", lat.p95);
    out.set("decode_p99_ms", lat.p99);
    out.set("loadgen.late_p99_ms", late_p99);
    out.set("serve.ping_p50_ms", ping_p50);
    out.set(
        "serve.batched_frac",
        serve_stats.batched_requests as f64 / serve_stats.requests.max(1) as f64,
    );
    out.set("serve.rejected", serve_stats.rejected as f64);
    out.set("serve.deadlines", serve_stats.deadlines as f64);
    if args.trace {
        phy_phase(args, out, &reqs[..WINDOW], &sims, lat.p50);
    }
}

/// Requests through the PHY in-process, with no socket: each request runs
/// untraced (`WaveSim::uplink_trial`) and then traced (the composed path),
/// back to back so both see the same host; the two must agree exactly.
fn phy_phase(
    args: &Args,
    out: &mut Outcome,
    reqs: &[Request],
    sims: &BTreeMap<u64, WaveSim>,
    decode_p50: f64,
) {
    trace::take_chunks();
    let mut plain_ms = Vec::with_capacity(reqs.len());
    let mut agree = true;
    let mut decoded = 0;
    for (j, r) in reqs.iter().enumerate() {
        let sim = &sims[&r.seed];
        let t = Instant::now();
        let a = sim.uplink_trial(r.tag, UL_BPS, PACKETS);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let b = trace::trial(j as u64, || {
            with_phy_scratch(|s| phy::uplink_trial(sim, r.seed, r.tag, UL_BPS, PACKETS, s))
        });
        agree &= a.sent == b.sent && a.lost == b.lost && a.snr_db.to_bits() == b.snr_db.to_bits();
        decoded += b.sent - b.lost;
    }
    let chunks: Vec<Chunk> = trace::take_chunks();
    if agree {
        println!(
            "trace self-check ok: composed PHY path reproduces uplink_trial on {} requests",
            reqs.len()
        );
    } else {
        out.problem("composed PHY path disagrees with WaveSim::uplink_trial");
    }
    let mut totals = LayerTotals::default();
    totals.add(&chunks);
    let traced_ns: u64 = chunks.iter().map(|c| c.root().dur()).sum();
    let coverage = totals.layer_self_ns() as f64 / traced_ns.max(1) as f64;
    let overhead_pct = (traced_ns as f64 * 1e-6 / plain_ms.iter().sum::<f64>() - 1.0) * 100.0;
    let phy = stats::Latency::of_windows(&[plain_ms]);
    println!("in-process PHY per request: {}", phy.describe("ms"));
    out.set("serve.phy_p50_ms", phy.p50);
    out.set("serve.overhead_p50_ms", decode_p50 - phy.p50);
    out.set("trace.coverage", coverage);
    out.set("trace.overhead_pct", overhead_pct);
    checks::coverage(out, coverage, overhead_pct);
    sweeps::phy_metrics(out, &totals, 1.0, decoded);
    checks::write_spans(args, &chunks);
}
