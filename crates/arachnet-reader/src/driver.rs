//! The reader's ping-pong timing (Fig. 14): the software processing-latency
//! model and the two-stage latency sample.
//!
//! Each slot opens with a beacon (whose on-air time and software jitter
//! come from [`crate::tx::BeaconTransmitter`]), the reader listens for the
//! tag reply (tags wait the 20 ms guard of Fig. 14a), and the software
//! pipeline adds a processing delay before the decoded packet reaches the
//! MAC — the paper measures "about 58.9 ms" of software delay and a
//! 99th-percentile stage-2 latency of 281.9 ms (Fig. 14b). The waveform
//! simulator's `ping_pong_sample` composes them.

use arachnet_core::rng::TagRng;

/// Fixed reader-software pipeline latency: buffering and filtering group
/// delay (s). With [`SOFTWARE_JITTER_MAX_S`], calibrated so the mean
/// software delay is the paper's ≈ 58.9 ms (Fig. 14b).
pub const SOFTWARE_BASE_S: f64 = 0.040;

/// Upper bound of the uniformly distributed scheduling latency added to
/// [`SOFTWARE_BASE_S`] (s).
pub const SOFTWARE_JITTER_MAX_S: f64 = 0.038;

/// Samples one reader-software processing delay:
/// `SOFTWARE_BASE_S + U(0, SOFTWARE_JITTER_MAX_S)`.
pub fn software_delay_s(rng: &mut TagRng) -> f64 {
    SOFTWARE_BASE_S + SOFTWARE_JITTER_MAX_S * rng.unit_f64()
}

/// One ping-pong latency sample (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPong {
    /// Stage 1: DL beacon on-air time (s).
    pub stage1_s: f64,
    /// Stage 2: end of DL → decoded UL packet (guard + UL + software) (s).
    pub stage2_s: f64,
}

impl PingPong {
    /// Total round-trip latency.
    pub fn total(&self) -> f64 {
        self.stage1_s + self.stage2_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_delay_mean_matches_paper() {
        let mean = SOFTWARE_BASE_S + SOFTWARE_JITTER_MAX_S / 2.0;
        assert!((mean - 0.0589).abs() < 0.002, "{mean}");
    }
}
