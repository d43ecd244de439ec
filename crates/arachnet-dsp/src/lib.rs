//! # arachnet-dsp — signal-processing substrate for the ARACHNET reader
//!
//! The paper's reader (Sec. 6.1) is a C++ pipeline fed by a 500 kHz DAQ:
//! *down conversion → frequency-offset calibration → Schmitt triggering →
//! filtering → decimation → packet decoding*. The reproduction's receiver
//! (`arachnet-reader::rx`) runs that chain as one batch pass per slot; this
//! crate holds the primitives it is built from — and the analysis tools the
//! evaluation uses (Welch PSD for the SNR of Fig. 12a, IQ clustering for
//! the collision detection of Sec. 5.3) — as plain, allocation-conscious
//! Rust with no external DSP dependency.
//!
//! Module map:
//!
//! * [`cplx`] — a minimal complex number type;
//! * [`fft`] — planned real-input radix-2 FFT;
//! * [`window`] — Hann / rectangular windows;
//! * [`psd`] — Welch power-spectral-density estimation and band power;
//! * [`nco`] — one period of carrier phasors for complex down-mixing;
//! * [`schmitt`] — hysteresis comparator;
//! * [`cluster`] — IQ-domain cluster counting for collision detection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod cplx;
pub mod fft;
pub mod nco;
pub mod psd;
pub mod schmitt;
pub mod window;

pub use cplx::Cplx;
