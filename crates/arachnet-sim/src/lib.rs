//! # arachnet-sim — simulation engines for the ARACHNET evaluation
//!
//! Two granularities, matching how the paper's experiments operate:
//!
//! * **slot level** ([`slotsim`]) — the distributed slot-allocation
//!   protocol over thousands of 1-second slots: first-convergence time
//!   (Fig. 15), long-running slot statistics (Fig. 16), beacon-loss and
//!   late-arrival fault injection, with the full energy lifecycle of each
//!   tag ([`arachnet_tag::device::TagDevice`]);
//! * **waveform level** ([`wavesim`]) — individual packets synthesized
//!   through the acoustic channel and decoded by the reader DSP chain:
//!   uplink SNR and loss (Fig. 12), downlink loss and synchronization
//!   offsets (Fig. 13), ping-pong latency (Fig. 14);
//! * **fleet level** ([`fleet`]) — K reader cells sharing the body under a
//!   frequency-space division plan: waveform-level cross-reader
//!   interference trials, and sharded slot-level soaks where every cell
//!   replays its own scenario over the sweep pool.
//!
//! Plus the workload definitions ([`patterns`]: Table 3's nine
//! configurations), the contention baseline ([`aloha`]: Appendix B),
//! statistics helpers ([`metrics`]), the typed configuration error
//! ([`config`]), dynamic-network scenario descriptions ([`scenario`]: tag
//! churn, reader duty-cycling, channel weather, with the re-convergence
//! metric), and the deterministic parallel trial runner ([`sweep`]) that
//! fans pattern × seed matrices over a worker pool with bit-identical
//! results at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aloha;
pub mod codec;
pub mod config;
pub mod cosim;
pub mod fleet;
pub mod metrics;
pub mod patterns;
pub mod scenario;
pub mod slotsim;
pub mod sweep;
pub mod vanilla;
pub mod wavesim;

pub use codec::TrialCodec;
pub use config::ConfigError;
pub use fleet::{run_fleet, CellOutcome, FleetCell, FleetUplinkResult, FleetWaveSim};
pub use patterns::Pattern;
pub use scenario::{ReconvergenceSample, Scenario, ScenarioEvent, TimedEvent};
pub use slotsim::{SlotSim, SlotSimConfig};
pub use sweep::{
    run_matrix_sweep, run_sweep, CheckpointSpec, MatrixRun, SweepConfig, SweepRun, SweepStats,
};
