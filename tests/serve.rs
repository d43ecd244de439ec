//! Serve-tier edge cases over a real TCP socket: the wire protocol,
//! oversized lines, mid-line disconnects, queue-full rejection under a
//! burst, drain-during-in-flight, request deadlines and panicking
//! requests. Everything here runs against `arachnet_serve::start` on an
//! ephemeral 127.0.0.1 port — no mocks. The last two properties feed
//! generated and mutated lines to `Request::parse`.

use arachnet::serve::proto::{MAX_UL_BPS, MIN_UL_BPS};
use arachnet::serve::{
    error_code, is_ok, start, Request, ServeClient, ServeConfig, MAX_LINE_BYTES, MAX_PACKETS,
    MAX_SLEEP_MS, MAX_TAG,
};
use arachnet_testkit::{check, check_with, gen, prop_assert, prop_assert_eq, Config};
use std::io::Write;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn boot(workers: usize, queue_depth: usize) -> (arachnet::serve::ServerHandle, SocketAddr) {
    let handle = start(ServeConfig {
        workers,
        queue_depth,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr();
    (handle, addr)
}

fn client(addr: SocketAddr) -> ServeClient {
    ServeClient::connect(addr, Duration::from_secs(10)).expect("connect")
}

#[test]
fn protocol_roundtrip_ping_decode_stats_and_errors() {
    let (handle, addr) = boot(2, 16);
    let mut c = client(addr);

    let v = c.query(r#"{"op":"ping"}"#).unwrap();
    assert!(is_ok(&v), "{v:?}");

    // A decode runs the real block-processed PHY path end to end.
    let v = c
        .query(r#"{"op":"decode","tag":8,"ul_bps":2000,"packets":2,"seed":7}"#)
        .unwrap();
    assert!(is_ok(&v), "{v:?}");
    assert_eq!(v.get("sent").and_then(|x| x.as_f64()), Some(2.0));
    assert!(v.get("snr_db").is_some());

    // Same request, same seed: the PHY path is deterministic, so the
    // reply fields (minus batching happenstance) must match.
    let v2 = c
        .query(r#"{"op":"decode","tag":8,"ul_bps":2000,"packets":2,"seed":7}"#)
        .unwrap();
    assert_eq!(
        v.get("lost").and_then(|x| x.as_f64()),
        v2.get("lost").and_then(|x| x.as_f64())
    );
    assert_eq!(
        v.get("snr_db").and_then(|x| x.as_f64()),
        v2.get("snr_db").and_then(|x| x.as_f64())
    );

    // Malformed JSON and bad requests are structured errors on a live
    // connection — not disconnects.
    let v = c.query("{this is not json").unwrap();
    assert_eq!(error_code(&v), Some("malformed"));
    let v = c
        .query(r#"{"op":"decode","tag":99,"ul_bps":2000,"packets":2}"#)
        .unwrap();
    assert_eq!(error_code(&v), Some("bad_request"));
    let v = c.query(r#"{"op":"ping"}"#).unwrap();
    assert!(is_ok(&v), "connection survives error replies: {v:?}");

    // Stats reports the counters the errors above bumped.
    let v = c.query(r#"{"op":"stats"}"#).unwrap();
    assert!(is_ok(&v), "{v:?}");
    assert!(v.get("malformed").and_then(|x| x.as_f64()).unwrap() >= 2.0);

    let stats = handle.join();
    assert_eq!(stats.requests, stats.completed);
    assert!(stats.malformed >= 2);
}

/// `decode` accepts exactly the span of the paper's UL rate ladder. The
/// pin lives here because `arachnet-serve` does not depend on
/// `arachnet-core`.
#[test]
fn decode_rate_bounds_match_the_ul_ladder() {
    let rates = arachnet::core_protocol::rates::ul_rates();
    assert_eq!(rates.first().map(|r| r.bps), Some(MIN_UL_BPS));
    assert_eq!(rates.last().map(|r| r.bps), Some(MAX_UL_BPS));
}

#[test]
fn oversized_request_line_is_rejected_and_the_connection_closed() {
    let (handle, addr) = boot(1, 4);
    let mut c = client(addr);
    // One giant "line" past the cap, no terminator needed: the server
    // must reject as soon as the buffer overruns, then close.
    let huge = "x".repeat(MAX_LINE_BYTES + 128);
    c.send(&huge).expect("send oversized");
    let reply = c.read_line().expect("structured error before close");
    assert!(reply.contains("\"error\":\"oversized\""), "{reply}");
    // The connection is gone: the next read sees EOF.
    assert!(c.read_line().is_err(), "oversized must close the stream");
    // The server itself is unharmed.
    let mut c2 = client(addr);
    assert!(is_ok(&c2.query(r#"{"op":"ping"}"#).unwrap()));
    let stats = handle.join();
    assert!(stats.malformed >= 1);
}

#[test]
fn mid_line_disconnect_is_counted_and_harmless() {
    let (handle, addr) = boot(1, 4);
    {
        let c = client(addr);
        // Half a request, then vanish.
        c.stream()
            .try_clone()
            .unwrap()
            .write_all(b"{\"op\":\"dec")
            .unwrap();
        // Dropping the client closes the socket mid-line.
    }
    // Give the handler a moment to observe the EOF.
    std::thread::sleep(Duration::from_millis(300));
    let mut c = client(addr);
    assert!(is_ok(&c.query(r#"{"op":"ping"}"#).unwrap()));
    let stats = handle.join();
    assert_eq!(stats.torn, 1, "{stats:?}");
    assert_eq!(stats.requests, stats.completed);
}

#[test]
fn queue_full_burst_gets_structured_overload_rejections() {
    // One worker, queue depth 1: a sleep parks the worker, a second sleep
    // fills the queue, and everything after that must be rejected with
    // `overloaded` — immediately, not after the backlog clears.
    let (handle, addr) = boot(1, 1);
    let mut park = client(addr);
    park.send(r#"{"op":"sleep","ms":1200}"#).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // worker now busy
    let mut fill = client(addr);
    fill.send(r#"{"op":"sleep","ms":10}"#).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // queue now full

    let burst = 6;
    let mut rejected = 0;
    let t0 = std::time::Instant::now();
    for _ in 0..burst {
        let mut c = client(addr);
        let v = c.query(r#"{"op":"decode","tag":3,"ul_bps":2000,"packets":1}"#).unwrap();
        if error_code(&v) == Some("overloaded") {
            rejected += 1;
        }
    }
    // Rejections are immediate (admission control), far faster than the
    // 1.2 s the parked worker needs — the burst must not serialize
    // behind it.
    assert!(t0.elapsed() < Duration::from_millis(900), "{:?}", t0.elapsed());
    assert_eq!(rejected, burst, "every burst request must be shed");

    // Health checks bypass the queue and still answer under overload.
    let mut c = client(addr);
    assert!(is_ok(&c.query(r#"{"op":"ping"}"#).unwrap()));

    // The parked requests were admitted, so they complete normally.
    assert!(park.read_line().unwrap().contains("\"ok\":true"));
    assert!(fill.read_line().unwrap().contains("\"ok\":true"));

    let stats = handle.join();
    assert_eq!(stats.rejected, burst as u64, "{stats:?}");
    assert_eq!(stats.requests, 2, "{stats:?}");
    assert_eq!(stats.completed, 2, "{stats:?}");
}

#[test]
fn drain_finishes_in_flight_requests_then_refuses_new_work() {
    let (handle, addr) = boot(1, 4);
    // An in-flight sleep plus a queued one: both were admitted, so both
    // must be answered even though the drain starts while they run.
    let mut inflight = client(addr);
    inflight.send(r#"{"op":"sleep","ms":600}"#).unwrap();
    let mut queued = client(addr);
    queued.send(r#"{"op":"sleep","ms":50}"#).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let mut ctl = client(addr);
    let v = ctl.query(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(v.get("draining").and_then(|x| x.as_bool()), Some(true));

    // Admitted-means-answered, across the drain.
    assert!(inflight.read_line().unwrap().contains("\"ok\":true"));
    assert!(queued.read_line().unwrap().contains("\"ok\":true"));

    let stats = handle.join();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.completed, 2, "drain must finish in-flight work");

    // After join the listener is gone: new connections are refused.
    assert!(
        ServeClient::connect(addr, Duration::from_millis(500)).is_err(),
        "drained server must stop accepting"
    );
}

#[test]
fn micro_batching_amortizes_same_seed_decodes() {
    // One worker parked behind a sleep while four same-seed decodes queue
    // up: when the worker frees, it should take them as one batch.
    let (handle, addr) = boot(1, 16);
    let mut park = client(addr);
    park.send(r#"{"op":"sleep","ms":500}"#).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut clients: Vec<ServeClient> = (0..4).map(|_| client(addr)).collect();
    for c in &mut clients {
        c.send(r#"{"op":"decode","tag":5,"ul_bps":2000,"packets":1,"seed":11}"#)
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(150)); // all four queued
    assert!(park.read_line().unwrap().contains("\"ok\":true"));
    let mut batched_max = 0u64;
    for c in &mut clients {
        let v = arachnet::serve::parse_json(&c.read_line().unwrap()).unwrap();
        assert!(is_ok(&v), "{v:?}");
        let b = v.get("batched").and_then(|x| x.as_f64()).unwrap() as u64;
        batched_max = batched_max.max(b);
    }
    assert!(
        batched_max >= 2,
        "same-seed decodes queued together should share a batch (got {batched_max})"
    );
    let stats = handle.join();
    assert!(stats.batched_requests >= 2, "{stats:?}");
}

const DECODE: &str = r#"{"op":"decode","tag":8,"ul_bps":2000,"packets":1,"seed":7}"#;

/// Deadlines bound the client's wait even while the only worker is busy:
/// the handler answers `deadline_exceeded` long before the request would
/// have finished.
#[test]
fn slow_request_is_answered_with_deadline_exceeded_not_a_hang() {
    let handle = start(ServeConfig {
        workers: 1,
        request_deadline: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = client(handle.local_addr());
    let t0 = Instant::now();
    let v = c.query(r#"{"op":"sleep","ms":1500}"#).unwrap();
    assert_eq!(error_code(&v), Some("deadline_exceeded"), "{v:?}");
    // Handler-side enforcement: deadline (100 ms) + grace, far less than
    // the 1.5 s sleep.
    assert!(
        t0.elapsed() < Duration::from_millis(900),
        "client wait must be bounded by the deadline, not the work: {:?}",
        t0.elapsed()
    );
    let stats = handle.join();
    assert!(stats.deadlines >= 1, "{stats:?}");
    assert_eq!(stats.requests, stats.completed, "{stats:?}");
}

/// A request that panics inside its worker is answered `internal`, and the
/// same worker goes on serving: the decode after it (which runs on a
/// channel cache the panic reset) matches the decode before it.
#[test]
fn panicking_request_is_answered_internal_and_the_worker_keeps_serving() {
    let handle = start(ServeConfig {
        workers: 1,
        // `resume_unwind` skips the panic hook, so the test output stays
        // quiet; the worker's `catch_unwind` sees an ordinary panic.
        experiment_runner: Some(Box::new(|_, _, _| {
            std::panic::resume_unwind(Box::new("experiment runner bug"))
        })),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = client(handle.local_addr());
    let before = c.query(DECODE).unwrap();
    assert!(is_ok(&before), "{before:?}");
    let v = c.query(r#"{"op":"experiment","id":"table1"}"#).unwrap();
    assert_eq!(error_code(&v), Some("internal"), "{v:?}");
    let after = c.query(DECODE).unwrap();
    assert!(is_ok(&after), "the worker must serve again: {after:?}");
    for key in ["lost", "snr_db"] {
        assert_eq!(before.get(key), after.get(key), "{key}");
    }
    let stats = handle.join();
    assert_eq!(stats.requests, 3, "{stats:?}");
    assert_eq!(stats.requests, stats.completed, "{stats:?}");
    assert_eq!(stats.orphaned, 0, "{stats:?}");
}

/// Any valid request, over every op and each field's accepted range.
/// Experiment ids mix characters that need JSON escapes with multi-byte
/// UTF-8.
fn request_gen() -> gen::Gen<Request> {
    const ID_CHARS: [char; 9] = ['a', 'Z', '7', '-', '"', '\\', '\n', '\u{1}', 'é'];
    gen::Gen::new(|rng| match rng.below(6) {
        0 => Request::Ping,
        1 => Request::Stats,
        2 => Request::Shutdown,
        3 => Request::Sleep {
            ms: rng.below(MAX_SLEEP_MS + 1),
        },
        4 => Request::Decode {
            tag: 1 + rng.below(MAX_TAG) as u8,
            ul_bps: MIN_UL_BPS + rng.unit_f64() * (MAX_UL_BPS - MIN_UL_BPS),
            packets: 1 + rng.below(MAX_PACKETS),
            seed: rng.below(1 << 53),
        },
        _ => Request::Experiment {
            id: (0..rng.below(12))
                .map(|_| ID_CHARS[rng.below(ID_CHARS.len() as u64) as usize])
                .collect(),
            quick: rng.chance(0.5),
            seed: rng.below(1 << 53),
        },
    })
}

/// One wire line for `req`, every field spelled out.
fn render(req: &Request) -> String {
    match req {
        Request::Ping => r#"{"op":"ping"}"#.to_string(),
        Request::Stats => r#"{"op":"stats"}"#.to_string(),
        Request::Shutdown => r#"{"op":"shutdown"}"#.to_string(),
        Request::Sleep { ms } => format!(r#"{{"op":"sleep","ms":{ms}}}"#),
        Request::Decode {
            tag,
            ul_bps,
            packets,
            seed,
        } => format!(
            r#"{{"op":"decode","tag":{tag},"ul_bps":{ul_bps},"packets":{packets},"seed":{seed}}}"#
        ),
        Request::Experiment { id, quick, seed } => format!(
            r#"{{"op":"experiment","id":"{}","quick":{quick},"seed":{seed}}}"#,
            arachnet_obs::json_escape(id)
        ),
    }
}

#[test]
fn valid_requests_of_every_op_parse_back_to_equal_values() {
    check("request_parse_roundtrip", &request_gen(), |req| {
        prop_assert_eq!(Request::parse(&render(req)), Ok(req.clone()));
        Ok(())
    });
}

/// Line `a` truncated (`kind` 0), with one bit flipped (1), or with its
/// head spliced onto the tail of line `b` (2); `at` picks the positions.
fn mutate(a: &[u8], b: &[u8], kind: u8, at: u64) -> Vec<u8> {
    let cut = (at % (a.len() as u64 + 1)) as usize;
    match kind {
        0 => a[..cut].to_vec(),
        1 => {
            let mut flipped = a.to_vec();
            flipped[cut.min(a.len() - 1)] ^= 1 << ((at >> 32) % 8);
            flipped
        }
        _ => {
            let tail = ((at >> 16) % (b.len() as u64 + 1)) as usize;
            [&a[..cut], &b[tail..]].concat()
        }
    }
}

/// Truncated, bit-flipped and spliced lines never panic the parser, and a
/// rejection is always one of the two parse codes. The bytes pass through
/// `from_utf8_lossy` exactly as a connection handler's do.
#[test]
fn truncated_flipped_and_spliced_request_lines_never_panic() {
    let (a, b) = (request_gen(), request_gen());
    let mutations = gen::zip4(a, b, gen::u8_range(0, 3), gen::u64_any());
    let cfg = Config {
        cases: 2000,
        ..Config::default()
    };
    check_with(&cfg, "request_parse_mutated", &mutations, |case| {
        let (a, b, kind, at) = case;
        let bytes = mutate(render(a).as_bytes(), render(b).as_bytes(), *kind, *at);
        let line = String::from_utf8_lossy(&bytes);
        if let Err(rej) = Request::parse(&line) {
            prop_assert!(
                matches!(rej.code, "malformed" | "bad_request"),
                "{line:?} rejected with {rej:?}"
            );
        }
        Ok(())
    });
}
