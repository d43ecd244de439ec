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

/// Latency model of the reader software (Fig. 14b).
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed pipeline latency: buffering + filtering group delay (s).
    pub base_s: f64,
    /// Additional uniformly distributed scheduling latency (s).
    pub jitter_max_s: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Calibrated so the mean software delay ≈ 58.9 ms.
        Self {
            base_s: 0.040,
            jitter_max_s: 0.038,
        }
    }
}

impl LatencyModel {
    /// Samples one processing delay.
    pub fn sample(&self, rng: &mut TagRng) -> f64 {
        self.base_s + self.jitter_max_s * rng.unit_f64()
    }

    /// Mean processing delay.
    pub fn mean(&self) -> f64 {
        self.base_s + self.jitter_max_s / 2.0
    }
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
        let latency = LatencyModel::default();
        assert!(
            (latency.mean() - 0.0589).abs() < 0.002,
            "{}",
            latency.mean()
        );
    }
}
