//! # arachnet-tag — the battery-free tag, firmware and timing models
//!
//! Sections 3–4 of the paper describe the tag as hardware plus an
//! interrupt-driven firmware. This crate models both at the two levels the
//! evaluation needs:
//!
//! * **waveform level** — [`mcu`] models the 12 kHz low-frequency clock
//!   with its supply-dependent drift and integer-tick quantisation (the
//!   stated cause of the Fig. 13a downlink-loss surge at 1–2 kbps);
//!   [`demod`] is the edge-interrupt PIE demodulator of Fig. 6(a); the
//!   timer-interrupt FM0 modulator of Fig. 6(b) is FM0 encoding plus
//!   [`mcu::McuClock::ticks_to_seconds`] for the raw-bit interval;
//! * **slot level** — [`device`] wraps the MAC state machine from
//!   `arachnet-core` together with the harvesting chain from
//!   `arachnet-energy` into a [`device::TagDevice`] whose energy lifecycle
//!   (dormant → charging → active → brownout) drives the late-arrival and
//!   fault-injection experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demod;
pub mod device;
pub mod mcu;
pub mod subcarrier;

pub use demod::PieDemodulator;
pub use device::TagDevice;
pub use mcu::McuClock;
