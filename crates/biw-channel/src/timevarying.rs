//! Epoch-wise channel drift: [`TimeVaryingChannel`].
//!
//! A vehicle body is not a stationary medium over hours: temperature shifts
//! the panel's damping (ring-down/Q), fixture clamping and payload change
//! path gains, and the electronic noise floor wanders with the DAQ front
//! end. This module models that drift at *epoch* granularity: the drift
//! schedule is a list of [`ChannelDrift`] scale factors, one fully built
//! [`BiwChannel`] per epoch, derived from a shared base configuration.
//!
//! The per-sample hot path is untouched and allocation-free: every epoch's
//! channel (with its [`crate::channel::ChannelCache`] link tables) is
//! prebuilt at construction, so switching epochs is one slice index —
//! callers grab `channel_at(epoch)` once per waveform and synthesize
//! through the usual fast path. Deriving link tables happens only at
//! construction (or never again), never inside a synthesis loop. The
//! epochs are shared: cloning a `TimeVaryingChannel` bumps a refcount and
//! copies no channel.

use std::sync::Arc;

use crate::channel::{BiwChannel, ChannelConfig};

/// Multiplicative drift of one epoch relative to the base configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelDrift {
    /// Scales the drive amplitude — and with it every link's path
    /// amplitude and harvested voltage.
    pub gain_scale: f64,
    /// Scales the direct TX→RX carrier leakage.
    pub leakage_scale: f64,
    /// Scales the white-noise floor.
    pub noise_scale: f64,
    /// Scales the reader PZT's quality factors (the ring-down tail that
    /// delays falling downlink edges).
    pub q_scale: f64,
}

impl ChannelDrift {
    /// No drift: the epoch is the base channel.
    pub fn identity() -> Self {
        Self {
            gain_scale: 1.0,
            leakage_scale: 1.0,
            noise_scale: 1.0,
            q_scale: 1.0,
        }
    }

    /// Uniform fade: gain scaled, everything else nominal.
    pub fn fade(gain_scale: f64) -> Self {
        Self {
            gain_scale,
            ..Self::identity()
        }
    }

    /// Applies the drift to a base configuration.
    fn apply(&self, base: &ChannelConfig) -> ChannelConfig {
        let mut noise = base.noise;
        noise.floor_sigma *= self.noise_scale;
        ChannelConfig {
            drive_amplitude: base.drive_amplitude * self.gain_scale,
            carrier_leakage: base.carrier_leakage * self.leakage_scale,
            q_scale: base.q_scale * self.q_scale,
            noise,
            ..base.clone()
        }
    }
}

/// A drift schedule realized as prebuilt per-epoch channels.
///
/// ```
/// use biw_channel::channel::ChannelConfig;
/// use biw_channel::timevarying::{ChannelDrift, TimeVaryingChannel};
///
/// let tvc = TimeVaryingChannel::paper(
///     ChannelConfig::default(),
///     &[ChannelDrift::identity(), ChannelDrift::fade(0.7)],
/// );
/// assert_eq!(tvc.epoch_count(), 2);
/// // Epoch 1 harvests less everywhere than epoch 0.
/// let v0 = tvc.channel_at(0).tag_carrier_voltage(8).unwrap();
/// let v1 = tvc.channel_at(1).tag_carrier_voltage(8).unwrap();
/// assert!(v1 < v0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeVaryingChannel {
    epochs: Arc<[BiwChannel]>,
}

impl TimeVaryingChannel {
    /// Builds one channel per drift entry over the paper's 12-tag
    /// deployment. An empty schedule gets a single identity epoch so
    /// `channel_at` is total.
    pub fn paper(base: ChannelConfig, drifts: &[ChannelDrift]) -> Self {
        let identity = [ChannelDrift::identity()];
        let schedule = if drifts.is_empty() {
            &identity[..]
        } else {
            drifts
        };
        let epochs = schedule
            .iter()
            .map(|d| BiwChannel::paper(d.apply(&base)))
            .collect();
        Self { epochs }
    }

    /// Number of epochs in the schedule (≥ 1).
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// The channel of `epoch`, clamped to the last epoch (drift schedules
    /// end in a steady state rather than wrapping).
    pub fn channel_at(&self, epoch: usize) -> &BiwChannel {
        &self.epochs[epoch.min(self.epochs.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use crate::pzt::PztState;
    use crate::resonator::DriveScheme;

    fn base() -> ChannelConfig {
        ChannelConfig {
            noise: NoiseConfig::silent(),
            ..ChannelConfig::default()
        }
    }

    #[test]
    fn identity_epoch_matches_base_channel() {
        let tvc = TimeVaryingChannel::paper(base(), &[ChannelDrift::identity()]);
        let direct = BiwChannel::paper(base());
        let states = BiwChannel::states_from_raw_bits(&[true, false, true], 500);
        let a = tvc.channel_at(0).uplink_waveform(&[(5, &states)], 2_000);
        let b = direct.uplink_waveform(&[(5, &states)], 2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn fade_scales_uplink_amplitude_and_harvest() {
        let tvc =
            TimeVaryingChannel::paper(base(), &[ChannelDrift::identity(), ChannelDrift::fade(0.5)]);
        for id in 1..=12u8 {
            let v0 = tvc.channel_at(0).tag_carrier_voltage(id).unwrap();
            let v1 = tvc.channel_at(1).tag_carrier_voltage(id).unwrap();
            assert!(v1 < v0, "tag {id}: {v1} !< {v0}");
        }
        // The uplink link tables scale with the drive too.
        let g0 = tvc.channel_at(0).cache().link(8).unwrap().up_gain;
        let g1 = tvc.channel_at(1).cache().link(8).unwrap().up_gain;
        assert!((g1 / g0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_index_clamps_to_last() {
        let tvc = TimeVaryingChannel::paper(base(), &[ChannelDrift::fade(0.9)]);
        assert_eq!(tvc.epoch_count(), 1);
        let a = tvc.channel_at(0).tag_carrier_voltage(8);
        let b = tvc.channel_at(99).tag_carrier_voltage(8);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_schedule_defaults_to_identity() {
        let tvc = TimeVaryingChannel::paper(base(), &[]);
        assert_eq!(tvc.epoch_count(), 1);
        let direct = BiwChannel::paper(base());
        assert_eq!(
            tvc.channel_at(0).tag_carrier_voltage(8),
            direct.tag_carrier_voltage(8)
        );
    }

    #[test]
    fn q_drift_stretches_the_ring_down() {
        // A longer ring (q_scale > 1) stretches the tail the downlink edge
        // model adds to falling edges, under either drive scheme.
        let drifts = [
            ChannelDrift::identity(),
            ChannelDrift {
                q_scale: 3.0,
                ..ChannelDrift::identity()
            },
        ];
        let tvc = TimeVaryingChannel::paper(base(), &drifts);
        for scheme in [DriveScheme::PlainOok, DriveScheme::FskInOokOut] {
            let tau = |ch: &BiwChannel| {
                let c = ch.config();
                scheme.ring_tau_s(c.carrier_hz, c.q_scale)
            };
            let (nominal, ringing) = (tau(tvc.channel_at(0)), tau(tvc.channel_at(1)));
            assert!(
                (ringing / nominal - 3.0).abs() < 1e-12,
                "{scheme:?}: ring τ {ringing} vs nominal {nominal}"
            );
        }
    }

    #[test]
    fn noise_drift_scales_the_floor() {
        let noisy_base = ChannelConfig {
            noise: NoiseConfig::default(),
            ..ChannelConfig::default()
        };
        let drifts = [
            ChannelDrift::identity(),
            ChannelDrift {
                noise_scale: 10.0,
                gain_scale: 0.0,
                leakage_scale: 0.0,
                q_scale: 1.0,
            },
        ];
        let tvc = TimeVaryingChannel::paper(noisy_base, &drifts);
        let rms = |ch: &BiwChannel| {
            let w = ch.uplink_waveform(&[] as &[(u8, &[PztState])], 10_000);
            (w.iter().map(|x| x * x).sum::<f64>() / w.len() as f64).sqrt()
        };
        // Epoch 1 has no carrier at all (gain/leakage zero), so its RMS is
        // pure noise at 10× the base sigma.
        let floor = rms(tvc.channel_at(1));
        assert!((floor / 0.1 - 1.0).abs() < 0.1, "floor {floor}");
    }
}
