//! Closed-loop load generator for the serve tier.
//!
//! `concurrency` client threads each hold one connection and issue
//! requests back-to-back (closed loop: a client never has more than one
//! request outstanding, so offered load self-limits to server capacity —
//! the honest way to measure a backpressured service). Rejections
//! (`overloaded`) are counted, not retried in a tight loop: the client
//! backs off briefly so an overloaded server is measured, not hammered.
//!
//! Used by the `bench` serve suite (`BENCH_serve.json`) and the verify.sh
//! serve smoke; wall-domain by definition.

use crate::client::{error_code, is_ok, ServeClient};
use arachnet_obs::Histo;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub concurrency: usize,
    /// Total wall-clock run time.
    pub duration: Duration,
    /// Request lines to cycle through (round-robin per client).
    pub requests: Vec<String>,
    /// Back-off after an `overloaded`/`draining` rejection.
    pub backoff: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            concurrency: 4,
            duration: Duration::from_millis(500),
            requests: vec![
                r#"{"op":"decode","tag":8,"ul_bps":2000,"packets":2,"seed":7}"#.to_string(),
            ],
            backoff: Duration::from_millis(5),
        }
    }
}

/// What a load run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Replies with `"ok":true`.
    pub ok: u64,
    /// Structured rejections (`overloaded` / `draining`).
    pub rejected: u64,
    /// Other error replies (`bad_request`, `internal`, ...).
    pub errored: u64,
    /// Transport-level failures (connect/read/write).
    pub io_errors: u64,
    /// Wall-clock seconds the run actually took.
    pub elapsed_secs: f64,
    /// Successful requests per second.
    pub throughput_rps: f64,
    /// Per-request latency (send → reply), microseconds.
    pub latency_us: Histo,
}

/// Run a closed-loop load against `addr` and report what happened.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let workers: Vec<_> = (0..cfg.concurrency.max(1))
        .map(|w| {
            let requests = cfg.requests.clone();
            let backoff = cfg.backoff;
            std::thread::spawn(move || {
                let mut rep = LoadReport::default();
                let mut client = match ServeClient::connect(addr, Duration::from_secs(5)) {
                    Ok(c) => c,
                    Err(_) => {
                        rep.io_errors += 1;
                        return rep;
                    }
                };
                let mut i = w; // stagger the starting request per client
                while Instant::now() < deadline {
                    let line = &requests[i % requests.len()];
                    i += 1;
                    let t0 = Instant::now();
                    match client.query(line) {
                        Ok(v) => {
                            let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                            rep.latency_us.record(us);
                            if is_ok(&v) {
                                rep.ok += 1;
                            } else if matches!(
                                error_code(&v),
                                Some("overloaded") | Some("draining")
                            ) {
                                rep.rejected += 1;
                                std::thread::sleep(backoff);
                            } else {
                                rep.errored += 1;
                            }
                        }
                        Err(_) => {
                            rep.io_errors += 1;
                            // The connection may be gone (drain closes it);
                            // reconnect once, give up on repeat failure.
                            match ServeClient::connect(addr, Duration::from_secs(5)) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                rep
            })
        })
        .collect();

    let mut total = LoadReport::default();
    for w in workers {
        if let Ok(rep) = w.join() {
            total.ok += rep.ok;
            total.rejected += rep.rejected;
            total.errored += rep.errored;
            total.io_errors += rep.io_errors;
            total.latency_us.merge(&rep.latency_us);
        }
    }
    total.elapsed_secs = started.elapsed().as_secs_f64();
    // A sub-millisecond window must not report a non-finite rate.
    total.throughput_rps = if total.elapsed_secs > 1e-3 {
        total.ok as f64 / total.elapsed_secs
    } else {
        0.0
    };
    total
}
