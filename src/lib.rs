//! # arachnet — umbrella crate
//!
//! Re-exports every layer of the ARACHNET reproduction (SIGCOMM 2025,
//! "Acoustic Backscatter Network for Vehicle Body-in-White") under short
//! module names. See the individual crates for the real documentation:
//!
//! * [`core_protocol`] (`arachnet-core`) — packets, codecs, MAC state
//!   machines, slot math, Markov convergence analysis;
//! * [`dsp`] (`arachnet-dsp`) — the signal-processing substrate;
//! * [`channel`] (`biw-channel`) — the calibrated BiW acoustic medium;
//! * [`energy`] (`arachnet-energy`) — harvesting, storage, power ledger;
//! * [`tag`] (`arachnet-tag`) — tag firmware and timing models;
//! * [`reader`] (`arachnet-reader`) — the reader's TX/RX chains;
//! * [`sim`] (`arachnet-sim`) — slot-level and waveform-level simulators;
//! * [`sensors`] (`arachnet-sensors`) — the strain-measurement case study;
//! * [`serve`] (`arachnet-serve`) — the backpressured TCP query service
//!   over the PHY/fleet engines (`repro serve`).
//!
//! The runnable entry points live in `examples/` (start with
//! `quickstart`), the evaluation regenerators in the `repro` binary of
//! `arachnet-experiments`, and the paper-vs-measured record in
//! `EXPERIMENTS.md`.
//!
//! The [`prelude`] re-exports the high-level API most downstream code
//! wants: the simulator configs and the [`prelude::Experiment`] registry
//! types.

#![forbid(unsafe_code)]

pub use arachnet_core as core_protocol;
pub use arachnet_dsp as dsp;
pub use arachnet_energy as energy;
pub use arachnet_experiments as experiments;
pub use arachnet_reader as reader;
pub use arachnet_sensors as sensors;
pub use arachnet_serve as serve;
pub use arachnet_sim as sim;
pub use arachnet_tag as tag;
pub use biw_channel as channel;

/// The high-level API in one import: the simulator configs, the parallel
/// sweep engine, and the experiment registry.
///
/// ```
/// use arachnet::prelude::*;
///
/// let cfg = SlotSimConfig {
///     dl_loss_prob: 0.005,
///     ..SlotSimConfig::new(sim::patterns::Pattern::c3(), 1)
/// };
/// # let _ = cfg;
/// let ctx = ExperimentCtx::builder(1).quick().build().unwrap();
/// let report = experiments::registry::find("table3")
///     .unwrap()
///     .run(&ctx);
/// assert!(report.render().contains("c9"));
/// ```
pub mod prelude {
    pub use crate::{experiments, sim};
    pub use arachnet_experiments::registry;
    pub use arachnet_experiments::report::{
        Experiment, ExperimentCtx, ExperimentCtxBuilder, Report, Section,
    };
    pub use arachnet_sim::aloha::AlohaConfig;
    pub use arachnet_sim::config::ConfigError;
    pub use arachnet_sim::slotsim::SlotSimConfig;
    pub use arachnet_sim::sweep::{run_matrix_sweep, run_sweep, SweepConfig};
}
