//! Serve-tier benchmarks: end-to-end request cost through a real TCP
//! socket against an in-process `arachnet-serve` instance. Two layers:
//!
//! * **protocol floor** — a `ping` round-trip: parse + dispatch + reply
//!   with no PHY work, the fixed per-request overhead of the wire tier;
//! * **single decode** — one uplink-decode request end to end (connect
//!   once, then request/reply per iteration), the latency a lone client
//!   sees with an idle server.
//!
//! Emits `BENCH_serve.json`; verify.sh gates `serve/roundtrip_decode_1pkt`
//! against its committed median. The server under load is perfbench's
//! `serve-decode` workload (open loop, exact order statistics).
//!
//! Everything here is wall-domain: nothing feeds `METRICS_<id>.json`.

use std::time::Duration;

use arachnet_serve::{start, ServeClient, ServeConfig};
use bench::{black_box, Suite};

fn bench_roundtrips(s: &mut Suite, addr: std::net::SocketAddr) {
    let mut c = ServeClient::connect(addr, Duration::from_secs(5)).expect("connect");
    s.bench("serve/roundtrip_ping", || {
        let v = c.query(r#"{"op":"ping"}"#).expect("ping");
        black_box(arachnet_serve::is_ok(&v))
    });
    let mut c = ServeClient::connect(addr, Duration::from_secs(5)).expect("connect");
    s.bench("serve/roundtrip_decode_1pkt", || {
        let v = c
            .query(r#"{"op":"decode","tag":8,"ul_bps":2000,"packets":1,"seed":7}"#)
            .expect("decode");
        black_box(arachnet_serve::is_ok(&v))
    });
}

fn main() {
    let handle = start(ServeConfig {
        workers: 4,
        queue_depth: 64,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr();

    let mut s = Suite::new("serve");
    bench_roundtrips(&mut s, addr);
    s.finish();

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(
        stats.requests, stats.completed,
        "admitted-means-answered must hold under bench load"
    );
}
