//! # biw-channel — acoustic model of the vehicle Body-in-White
//!
//! The paper's medium is physical: an ONVO L60 BiW (4.8 m × 1.9 m of sheet
//! metal) carrying 90 kHz vibrations from a reader PZT to 12 tag PZTs and
//! back. This crate is the software substitute (see DESIGN.md): a
//! plate-network propagation model calibrated against every quantitative
//! observation the paper reports about the medium —
//!
//! * per-tag harvested voltages (Fig. 11a: Tag 4 → 4.74 V, Tag 11 → 2.70 V
//!   at 16× amplification; all 12 tags ≥ 2.3 V at 8 stages);
//! * attenuation mechanisms: spreading loss, material damping, seam
//!   junction loss, and the severe loss at perpendicular structural
//!   transitions ("geometric transition at the perpendicular junction" that
//!   explains Tag 4);
//! * the 90 kHz system resonance and the *ring effect* — the reader PZT
//!   keeps vibrating after voltage cutoff (Sec. 4.1), which the paper
//!   suppresses with the 'FSK in, OOK out' trick;
//! * noise: a white electronic noise floor alone. The sub-100 Hz vehicle
//!   vibration that Sec. 2.2 argues is frequency-separated from the 90 kHz
//!   channel is not modelled, so that claim is not checked.
//!
//! Module map:
//!
//! * [`geometry`] — the Fig. 10 deployment: 12 tag sites + reader, each with
//!   a structural path descriptor;
//! * [`propagation`] — path gain & delay from the descriptor;
//! * [`pzt`] — the transducer two-port: harvest conversion and the
//!   reflective/absorptive backscatter states;
//! * [`resonator`] — the 90 kHz resonance's ring-down tail: free under
//!   plain OOK, amplifier-loaded under the FSK-in/OOK-out drive;
//! * [`noise`] — deterministic white-noise floor (AWGN), with the fitted
//!   paper level [`noise::NoiseConfig::paper`];
//! * [`channel`] — the paper's carrier and DAQ rate
//!   ([`channel::CARRIER_HZ`], [`channel::SAMPLE_RATE_HZ`]), per-tag
//!   carrier voltages and waveform-level uplink synthesis;
//! * [`timevarying`] — epoch-wise drift: prebuilt per-epoch channels for
//!   dynamic-network experiments (gain fades, leakage shifts, noise-floor
//!   wander, ring-down/Q drift);
//! * [`fleet`] — the multi-reader channel matrix: K reader cells sharing
//!   one acoustic medium, with per-reader sub-band carriers and
//!   reader→reader / reader→tag leakage paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod fleet;
pub mod geometry;
pub mod noise;
pub mod propagation;
pub mod pzt;
pub mod resonator;
pub mod timevarying;

pub use channel::BiwChannel;
pub use fleet::FleetChannel;
pub use geometry::{Deployment, TagSite, Zone};
pub use propagation::PathSpec;
pub use timevarying::{ChannelDrift, TimeVaryingChannel};
