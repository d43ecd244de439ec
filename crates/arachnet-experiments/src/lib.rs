//! # arachnet-experiments — regenerating every table and figure
//!
//! One [`report::Experiment`] implementation per evaluation artifact, each
//! producing a structured [`report::Report`] that prints the measured
//! values next to the paper's reported numbers. The [`registry`] holds the
//! full list; the `repro` binary exposes it as subcommands (`repro
//! fig11a`, `repro table2`, `repro all`, `repro list`, …) and the bench
//! suite in `crates/bench` runs the same registry end to end.
//!
//! Trial-heavy experiments (Fig. 15/16/19, the ablations, vanilla) fan
//! their `(pattern, seed)` matrices out over `arachnet_sim::sweep`, so
//! they parallelize across cores while staying bit-identical at any
//! thread count.
//!
//! | module | artifact |
//! |--------|----------|
//! | [`table1`] | Table 1 — illustrative slot allocation |
//! | [`fig11`]  | Fig. 11 — amplified voltage & charging time |
//! | [`table2`] | Table 2 — tag power consumption |
//! | [`fig12`]  | Fig. 12 — uplink SNR & packet loss |
//! | [`fig13`]  | Fig. 13 — downlink loss & sync offsets |
//! | [`fig14`]  | Fig. 14 — ping-pong waveform & latency CDF |
//! | [`table3`] | Table 3 — transmission patterns |
//! | [`fig15`]  | Fig. 15 — first convergence time |
//! | [`fig16`]  | Fig. 16 — long-running slot statistics |
//! | [`fig17`]  | Fig. 17 — strain case study |
//! | [`fig19`]  | Fig. 19 — ALOHA baseline |
//! | [`table4`] | Table 4 — qualitative comparison |
//! | [`markov`] | Appendix C — absorbing-chain verification |
//! | [`ablation`] | refinement / drive-scheme / stage-count ablations |
//! | [`dyn_scenarios`] | dynamic-network scenarios — churn, drift, outages, soak |
//! | [`multireader`] | multi-reader fleet — FDMA scaling, interference, sharded soak |
//! | [`resilience`] | sweep-runtime quarantine self-test (injected panic) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod registry;
pub mod render;
pub mod report;

pub mod ablation;
pub mod ambient;
pub mod dyn_scenarios;
pub mod fdma;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig19;
pub mod markov;
pub mod multireader;
pub mod resilience;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod vanilla;

pub use report::{Experiment, ExperimentCtx, ExperimentCtxBuilder, Report, Section};
