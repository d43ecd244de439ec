//! `arachnet-serve`: a backpressured, micro-batching TCP query service
//! over the ARACHNET PHY/fleet engines (DESIGN.md §16).
//!
//! It is std-only: plain `std::net` sockets, line-delimited JSON parsed
//! with [`arachnet_obs::parse_json`], `std::thread` workers.
//!
//! The load-shedding contract, in one paragraph: every request is either
//! answered inline (`ping`/`stats`/`shutdown`), admitted to the *bounded*
//! job queue, or rejected **immediately** with a structured
//! `{"error":"overloaded"}` line — there is no unbounded backlog anywhere,
//! and an admitted request is always answered, even across graceful
//! drain, deadlines and panicking requests. Compatible uplink-decode
//! requests (same channel seed) are micro-batched onto one synthesized
//! `WaveSim` to amortize channel synthesis, the serving analogue of the
//! block-processed PHY path.
//!
//! Everything this crate measures (heartbeats, latency histograms, spans)
//! is wall-domain and never feeds the deterministic `METRICS_<id>.json`
//! export.
//!
//! ```no_run
//! use arachnet_serve::{start, ServeConfig};
//! let handle = start(ServeConfig::default()).unwrap();
//! println!("serving on {}", handle.local_addr());
//! handle.shutdown();
//! let stats = handle.join();
//! assert_eq!(stats.requests, stats.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod proto;
pub mod queue;
pub mod server;

pub use arachnet_obs::{parse_json, JsonValue};
pub use client::{error_code, is_ok, ServeClient};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use proto::{Reject, Request, ServeBeat, MAX_LINE_BYTES, MAX_PACKETS, MAX_SLEEP_MS, MAX_TAG};
pub use queue::{Bounded, PushError};
pub use server::{start, ExperimentRunner, ServeConfig, ServeStats, ServerHandle};
