//! # arachnet-reader — the backscatter reader (Sec. 6.1)
//!
//! The paper's reader is a USB DAQ (500 kHz sampling) plus C++ software
//! handling "DL transmission, UL reception, and network protocols in real
//! time". This crate is that software:
//!
//! * [`tx`] — the beacon transmitter: PIE modulation with the 0.1–0.3 ms
//!   per-symbol software jitter the paper measures (the reader modulates
//!   PIE "using software… via USB commands");
//! * [`rx`] — the uplink receiver, one batch pass per slot over
//!   per-worker scratch buffers: down-conversion, boxcar decimation, PCA
//!   projection with Schmitt slicing, edge-domain FM0 decoding (immune to
//!   tag clock drift), CRC check, IQ-domain collision detection (Sec. 5.3)
//!   and the PSD-based SNR metric of Fig. 12(a);
//! * [`driver`] — the ping-pong timing of Fig. 14: the software
//!   processing-latency model and the two-stage latency sample;
//! * [`fleet`] — frequency-space division for reader fleets: the
//!   validated per-reader FDMA sub-band [`fleet::FleetPlan`] plus the
//!   inter-reader interference-rejecting [`fleet::FleetReceiver`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod fdma;
pub mod fleet;
pub mod rx;
pub mod tx;

pub use fleet::{FleetPlan, FleetPlanError, FleetReceiver, FleetRxScratch};
pub use rx::{SlotRx, UplinkReceiver};
pub use tx::BeaconTransmitter;
