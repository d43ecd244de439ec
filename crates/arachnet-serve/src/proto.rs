//! The `arachnet-serve` wire protocol: line-delimited JSON over TCP.
//!
//! One request is one `\n`-terminated JSON object; the server answers with
//! exactly one JSON line per request, in order, per connection (no
//! pipelining — the load model is closed-loop). Requests are parsed with
//! the repo's own [`arachnet_obs::parse_json`] (std-only rule), and every
//! failure mode maps to a *structured* error line
//! `{"error":"<code>","detail":"..."}` rather than a dropped connection:
//!
//! | code | meaning |
//! |---|---|
//! | `malformed` | the line is not valid JSON / not an object with `"op"` |
//! | `bad_request` | known op, but a field is missing or out of range |
//! | `oversized` | request line longer than [`MAX_LINE_BYTES`] (connection closes — the stream cannot be resynchronized) |
//! | `overloaded` | admission control refused the job: the queue is full |
//! | `draining` | the server is shutting down and admits no new work |
//! | `unsupported` | op needs a capability this server was not started with |
//! | `internal` | the worker panicked serving the request (quarantined) |
//! | `deadline_exceeded` | the request outlived its per-request deadline (admitted, but the reply is this structured error — never a hung client) |
//!
//! Ops: `ping`, `stats`, `shutdown` (answered inline by the connection
//! handler — health and control must work even when the queue is full),
//! and the queued work ops `decode` (one uplink-decode trial),
//! `experiment` (registry artifact, when the embedder installed a runner)
//! and `sleep` (a diagnostic that holds a worker; used by the overload and
//! drain tests, capped at [`MAX_SLEEP_MS`]).

use arachnet_obs::{json_escape, json_f64, parse_json, JsonValue};

/// Longest accepted request line, terminator included. Anything longer is
/// rejected with `{"error":"oversized"}` and the connection closes.
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// Most packets one `decode` request may ask for (a request is a unit of
/// admission control, not a batch job — big sweeps belong to `repro`).
pub const MAX_PACKETS: u64 = 4096;

/// Longest `sleep` op, milliseconds (diagnostic op; keeps a hostile client
/// from parking a worker forever).
pub const MAX_SLEEP_MS: u64 = 10_000;

/// Highest valid tag id in the paper deployment: its 12 tags are ids
/// 1..=12 (Fig. 10), so `decode` accepts exactly `1..=MAX_TAG`.
pub const MAX_TAG: u64 = 12;

/// Slowest `decode` uplink rate, the bottom of the paper's UL ladder
/// (12 kHz / 128). The receiver is built for the ladder's span: a rate far
/// below it sizes an enormous waveform, one far above it leaves a packet
/// shorter than one PSD segment.
pub const MIN_UL_BPS: f64 = 93.75;

/// Fastest `decode` uplink rate: the top of the UL ladder (12 kHz / 4).
pub const MAX_UL_BPS: f64 = 3_000.0;

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Health probe; answered inline, never queued.
    Ping,
    /// Server telemetry snapshot; answered inline.
    Stats,
    /// Begin graceful drain; answered inline, then the connection closes.
    Shutdown,
    /// Diagnostic: hold a worker for `ms` milliseconds.
    Sleep {
        /// How long the worker sleeps.
        ms: u64,
    },
    /// Uplink-decode trial: `packets` seeded packets from `tag` at
    /// `ul_bps` through the block-processed PHY path.
    Decode {
        /// Tag id (1..=[`MAX_TAG`]).
        tag: u8,
        /// Uplink bit rate in bits/s ([`MIN_UL_BPS`]..=[`MAX_UL_BPS`]).
        ul_bps: f64,
        /// Packets to send (1..=[`MAX_PACKETS`]).
        packets: u64,
        /// Channel/trial seed.
        seed: u64,
    },
    /// Run a registry experiment and return its deterministic metrics
    /// document. Served only when the embedder installed a runner.
    Experiment {
        /// Registry id (`repro list`).
        id: String,
        /// Quick mode (reduced trial counts; the default).
        quick: bool,
        /// Experiment seed.
        seed: u64,
    },
}

/// A structured rejection: the error `code` plus a human detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// Stable machine-readable code (see the module table).
    pub code: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl Reject {
    /// A rejection with the given code and detail.
    pub fn new(code: &'static str, detail: impl Into<String>) -> Self {
        Reject {
            code,
            detail: detail.into(),
        }
    }

    /// The JSON error line (no trailing newline).
    pub fn to_line(&self) -> String {
        error_line(self.code, &self.detail)
    }
}

/// Renders `{"error":"<code>","detail":"..."}` (no trailing newline).
pub fn error_line(code: &str, detail: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
        json_escape(code),
        json_escape(detail)
    )
}

/// Non-negative integer field: accepts only integral JSON numbers that
/// fit the `u64` range the repo's emitters use (≤ 2^53).
fn u64_field(v: &JsonValue, key: &str) -> Result<u64, Reject> {
    let n = v
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| Reject::new("bad_request", format!("missing numeric field `{key}`")))?;
    if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
        return Err(Reject::new(
            "bad_request",
            format!("field `{key}` must be a non-negative integer"),
        ));
    }
    Ok(n as u64)
}

fn u64_field_or(v: &JsonValue, key: &str, default: u64) -> Result<u64, Reject> {
    if v.get(key).is_none() {
        return Ok(default);
    }
    u64_field(v, key)
}

impl Request {
    /// Parses and validates one request line.
    pub fn parse(line: &str) -> Result<Request, Reject> {
        let v = parse_json(line.trim()).map_err(|e| Reject::new("malformed", e.to_string()))?;
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| Reject::new("malformed", "request object needs a string `op`"))?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "sleep" => {
                let ms = u64_field(&v, "ms")?;
                if ms > MAX_SLEEP_MS {
                    return Err(Reject::new(
                        "bad_request",
                        format!("sleep ms exceeds the {MAX_SLEEP_MS} ms cap"),
                    ));
                }
                Ok(Request::Sleep { ms })
            }
            "decode" => {
                let tag = u64_field(&v, "tag")?;
                if !(1..=MAX_TAG).contains(&tag) {
                    return Err(Reject::new(
                        "bad_request",
                        format!("tag must be in 1..={MAX_TAG}"),
                    ));
                }
                let ul_bps = v
                    .get("ul_bps")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| Reject::new("bad_request", "missing numeric field `ul_bps`"))?;
                if !(MIN_UL_BPS..=MAX_UL_BPS).contains(&ul_bps) {
                    return Err(Reject::new(
                        "bad_request",
                        format!("ul_bps must be in {MIN_UL_BPS}..={MAX_UL_BPS} bps"),
                    ));
                }
                let packets = u64_field(&v, "packets")?;
                if packets == 0 || packets > MAX_PACKETS {
                    return Err(Reject::new(
                        "bad_request",
                        format!("packets must be in 1..={MAX_PACKETS}"),
                    ));
                }
                let seed = u64_field_or(&v, "seed", 1)?;
                Ok(Request::Decode {
                    tag: tag as u8,
                    ul_bps,
                    packets,
                    seed,
                })
            }
            "experiment" => {
                let id = v
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| Reject::new("bad_request", "missing string field `id`"))?;
                let quick = v
                    .get("quick")
                    .map(|q| {
                        q.as_bool()
                            .ok_or_else(|| Reject::new("bad_request", "`quick` must be a bool"))
                    })
                    .transpose()?
                    .unwrap_or(true);
                let seed = u64_field_or(&v, "seed", 1)?;
                Ok(Request::Experiment {
                    id: id.to_string(),
                    quick,
                    seed,
                })
            }
            other => Err(Reject::new("bad_request", format!("unknown op `{other}`"))),
        }
    }
}

/// The successful `decode` reply line (no trailing newline).
pub fn decode_line(tag: u8, ul_bps: f64, sent: u64, lost: u64, snr_db: f64) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"decode\",\"tag\":{tag},\"ul_bps\":{},\"sent\":{sent},\"lost\":{lost},\"snr_db\":{}}}",
        json_f64(ul_bps),
        json_f64(snr_db),
    )
}

/// A wall-domain snapshot of a running server's counters: the body of
/// the `stats` op's reply. Strictly diagnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeBeat {
    /// Milliseconds since the server started.
    pub t_ms: u64,
    /// Requests admitted to the queue so far (work ops only).
    pub requests: u64,
    /// Requests completed (responses sent back to a handler).
    pub completed: u64,
    /// Requests rejected by admission control (`overloaded`).
    pub rejected: u64,
    /// Malformed / oversized / bad-request lines seen.
    pub malformed: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// Jobs being processed by workers right now.
    pub inflight: u64,
    /// Worker threads.
    pub workers: u32,
    /// Observed completion throughput, requests per second.
    pub rps: f64,
    /// Request latency p50 (enqueue → response), microseconds.
    pub p50_us: u64,
    /// Request latency p95, microseconds.
    pub p95_us: u64,
    /// Requests answered with `deadline_exceeded`.
    pub deadlines: u64,
    /// True once the drain has completed; a server that still answers
    /// `stats` reports `false`.
    pub done: bool,
}

impl ServeBeat {
    /// One JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ms\":{},\"requests\":{},\"completed\":{},\"rejected\":{},\"malformed\":{},\"queue_depth\":{},\"inflight\":{},\"workers\":{},\"rps\":{},\"p50_us\":{},\"p95_us\":{},\"deadlines\":{},\"done\":{}}}",
            self.t_ms,
            self.requests,
            self.completed,
            self.rejected,
            self.malformed,
            self.queue_depth,
            self.inflight,
            self.workers,
            json_f64(self.rps),
            self.p50_us,
            self.p95_us,
            self.deadlines,
            self.done,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op_with_defaults() {
        assert_eq!(Request::parse(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(Request::parse(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        assert_eq!(
            Request::parse(r#"{"op":"sleep","ms":50}"#),
            Ok(Request::Sleep { ms: 50 })
        );
        assert_eq!(
            Request::parse(r#"{"op":"decode","tag":8,"ul_bps":2000,"packets":4}"#),
            Ok(Request::Decode {
                tag: 8,
                ul_bps: 2000.0,
                packets: 4,
                seed: 1
            })
        );
        assert_eq!(
            Request::parse(r#"{"op":"experiment","id":"fig14b","seed":7}"#),
            Ok(Request::Experiment {
                id: "fig14b".into(),
                quick: true,
                seed: 7
            })
        );
    }

    #[test]
    fn malformed_and_out_of_range_requests_are_structured_rejects() {
        assert_eq!(Request::parse("{nope").unwrap_err().code, "malformed");
        assert_eq!(Request::parse("[1,2]").unwrap_err().code, "malformed");
        assert_eq!(
            Request::parse(r#"{"op":"teleport"}"#).unwrap_err().code,
            "bad_request"
        );
        for bad in [
            r#"{"op":"decode","tag":0,"ul_bps":2000,"packets":4}"#,
            r#"{"op":"decode","tag":13,"ul_bps":2000,"packets":4}"#,
            r#"{"op":"decode","tag":3,"ul_bps":-5,"packets":4}"#,
            r#"{"op":"decode","tag":3,"ul_bps":0.001,"packets":4}"#,
            r#"{"op":"decode","tag":3,"ul_bps":60000,"packets":4}"#,
            r#"{"op":"decode","tag":3,"ul_bps":1e6,"packets":4}"#,
            r#"{"op":"decode","tag":3,"ul_bps":2000,"packets":0}"#,
            r#"{"op":"decode","tag":3,"ul_bps":2000,"packets":99999}"#,
            r#"{"op":"decode","tag":3.5,"ul_bps":2000,"packets":4}"#,
            r#"{"op":"sleep","ms":99999}"#,
            r#"{"op":"experiment"}"#,
        ] {
            assert_eq!(
                Request::parse(bad).unwrap_err().code,
                "bad_request",
                "{bad}"
            );
        }
        // The ends of the UL ladder are themselves valid rates, and the
        // deployment's first and last tag ids valid tags.
        for ok in [
            r#"{"op":"decode","tag":3,"ul_bps":93.75,"packets":4}"#,
            r#"{"op":"decode","tag":3,"ul_bps":3000,"packets":4}"#,
            r#"{"op":"decode","tag":1,"ul_bps":2000,"packets":4}"#,
            r#"{"op":"decode","tag":12,"ul_bps":2000,"packets":4}"#,
        ] {
            assert!(Request::parse(ok).is_ok(), "{ok}");
        }
        // Error lines are themselves valid single-line JSON.
        let line = Request::parse("{nope").unwrap_err().to_line();
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("malformed"));
    }

    #[test]
    fn max_tag_matches_the_paper_deployment() {
        // `decode` accepts 1..=MAX_TAG: exactly the deployment's tag ids.
        let deploy = biw_channel::geometry::Deployment::paper();
        let ids: Vec<u64> = deploy.sites.iter().map(|s| u64::from(s.id)).collect();
        assert_eq!(ids, (1..=MAX_TAG).collect::<Vec<_>>());
    }

    #[test]
    fn serve_beat_roundtrips_and_decode_line_is_json() {
        let beat = ServeBeat {
            t_ms: 1234,
            requests: 100,
            completed: 90,
            rejected: 5,
            malformed: 2,
            queue_depth: 3,
            inflight: 2,
            workers: 4,
            rps: 123.5,
            p50_us: 800,
            p95_us: 2100,
            deadlines: 4,
            done: false,
        };
        // The stats body is one JSON object carrying every field.
        let v = parse_json(&beat.to_json()).unwrap();
        let num = |k: &str| v.get(k).and_then(JsonValue::as_f64);
        for (k, want) in [
            ("t_ms", 1234.0),
            ("requests", 100.0),
            ("completed", 90.0),
            ("rejected", 5.0),
            ("malformed", 2.0),
            ("queue_depth", 3.0),
            ("inflight", 2.0),
            ("workers", 4.0),
            ("rps", 123.5),
            ("p50_us", 800.0),
            ("p95_us", 2100.0),
            ("deadlines", 4.0),
        ] {
            assert_eq!(num(k), Some(want), "{k}");
        }
        assert_eq!(v.get("done").and_then(JsonValue::as_bool), Some(false));
        let line = decode_line(8, 2000.0, 20, 1, 12.25);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    }
}
