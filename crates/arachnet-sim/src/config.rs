//! Validating builders for the simulator configurations.
//!
//! The plain config structs ([`SlotSimConfig`], [`AlohaConfig`],
//! [`CoSimConfig`]) stay public-field plain data for tests that want to
//! poke them directly, but external callers should go through these
//! builders: every setter is checked at [`build`](SlotSimConfigBuilder::build)
//! time and an invalid combination comes back as a typed [`ConfigError`]
//! instead of a panic (or a silently nonsensical simulation) later.

use arachnet_core::slot::Period;
use biw_channel::geometry::Deployment;

use crate::aloha::AlohaConfig;
use crate::cosim::CoSimConfig;
use crate::patterns::Pattern;
use crate::slotsim::SlotSimConfig;

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field that must be a probability lies outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A field that must be strictly positive (and finite) is not.
    NotPositive {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A field that must be finite is NaN or infinite.
    NotFinite {
        /// Field name.
        field: &'static str,
    },
    /// A collection that must be non-empty is empty.
    Empty {
        /// Field name.
        field: &'static str,
    },
    /// The same tag ID appears twice.
    DuplicateTag {
        /// The duplicated tag ID.
        tid: u8,
    },
    /// A tag ID names no site of the deployment.
    UnknownTag {
        /// The unknown tag ID.
        tid: u8,
    },
    /// Two fields are individually valid but mutually inconsistent.
    Inconsistent {
        /// Human-readable description of the violated relation.
        reason: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            ConfigError::NotPositive { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ConfigError::NotFinite { field } => write!(f, "{field} must be finite"),
            ConfigError::Empty { field } => write!(f, "{field} must not be empty"),
            ConfigError::DuplicateTag { tid } => write!(f, "tag {tid} listed more than once"),
            ConfigError::UnknownTag { tid } => write!(f, "tag {tid} is not in the deployment"),
            ConfigError::Inconsistent { reason } => write!(f, "inconsistent config: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

fn probability(field: &'static str, value: f64) -> Result<f64, ConfigError> {
    if !(0.0..=1.0).contains(&value) {
        return Err(ConfigError::ProbabilityOutOfRange { field, value });
    }
    Ok(value)
}

fn positive(field: &'static str, value: f64) -> Result<f64, ConfigError> {
    if !value.is_finite() {
        return Err(ConfigError::NotFinite { field });
    }
    if value <= 0.0 {
        return Err(ConfigError::NotPositive { field, value });
    }
    Ok(value)
}

/// Builder for [`SlotSimConfig`]; starts from the paper-default channel of
/// [`SlotSimConfig::new`].
#[derive(Debug, Clone)]
pub struct SlotSimConfigBuilder {
    inner: SlotSimConfig,
}

impl SlotSimConfigBuilder {
    /// Starts from paper defaults for `pattern` and `seed`.
    pub fn new(pattern: Pattern, seed: u64) -> Self {
        Self {
            inner: SlotSimConfig::new(pattern, seed),
        }
    }

    /// Per-tag per-beacon downlink loss probability.
    pub fn dl_loss_prob(mut self, p: f64) -> Self {
        self.inner.dl_loss_prob = p;
        self
    }

    /// Decode-failure probability for a clean single-transmitter slot.
    pub fn ul_loss_prob(mut self, p: f64) -> Self {
        self.inner.ul_loss_prob = p;
        self
    }

    /// Probability that a collision still yields one decodable packet.
    pub fn capture_prob(mut self, p: f64) -> Self {
        self.inner.capture_prob = p;
        self
    }

    /// Whether tags start charged (skip the cold-start phase).
    pub fn charged_start(mut self, charged: bool) -> Self {
        self.inner.charged_start = charged;
        self
    }

    /// An idealized lossless channel (the [`SlotSimConfig::ideal`] preset).
    pub fn ideal_channel(mut self) -> Self {
        self.inner.dl_loss_prob = 0.0;
        self.inner.ul_loss_prob = 0.0;
        self.inner.capture_prob = 0.0;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<SlotSimConfig, ConfigError> {
        probability("dl_loss_prob", self.inner.dl_loss_prob)?;
        probability("ul_loss_prob", self.inner.ul_loss_prob)?;
        probability("capture_prob", self.inner.capture_prob)?;
        if self.inner.pattern.tags.is_empty() {
            return Err(ConfigError::Empty {
                field: "pattern.tags",
            });
        }
        Ok(self.inner)
    }
}

impl SlotSimConfig {
    /// Returns a validating builder seeded with paper defaults.
    pub fn builder(pattern: Pattern, seed: u64) -> SlotSimConfigBuilder {
        SlotSimConfigBuilder::new(pattern, seed)
    }
}

/// Builder for [`AlohaConfig`]; starts from Appendix B defaults.
#[derive(Debug, Clone)]
pub struct AlohaConfigBuilder {
    inner: AlohaConfig,
}

impl AlohaConfigBuilder {
    /// Starts from [`AlohaConfig::default`] with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: AlohaConfig {
                seed,
                ..AlohaConfig::default()
            },
        }
    }

    /// Simulated duration in seconds.
    pub fn duration_s(mut self, s: f64) -> Self {
        self.inner.duration_s = s;
        self
    }

    /// Packet on-air time in seconds.
    pub fn packet_s(mut self, s: f64) -> Self {
        self.inner.packet_s = s;
        self
    }

    /// Resume-charge fraction of a full charge; `None` derives per-tag
    /// fractions from the harvesting chain.
    pub fn resume_fraction(mut self, f: Option<f64>) -> Self {
        self.inner.resume_fraction = f;
        self
    }

    /// Multiplicative noise on each recharge duration.
    pub fn charge_noise(mut self, sigma: f64) -> Self {
        self.inner.charge_noise = sigma;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<AlohaConfig, ConfigError> {
        positive("duration_s", self.inner.duration_s)?;
        positive("packet_s", self.inner.packet_s)?;
        if self.inner.packet_s >= self.inner.duration_s {
            return Err(ConfigError::Inconsistent {
                reason: "packet_s must be shorter than duration_s",
            });
        }
        if let Some(f) = self.inner.resume_fraction {
            positive("resume_fraction", f)?;
            if f > 1.0 {
                return Err(ConfigError::ProbabilityOutOfRange {
                    field: "resume_fraction",
                    value: f,
                });
            }
        }
        probability("charge_noise", self.inner.charge_noise)?;
        Ok(self.inner)
    }
}

impl AlohaConfig {
    /// Returns a validating builder seeded with Appendix B defaults.
    pub fn builder(seed: u64) -> AlohaConfigBuilder {
        AlohaConfigBuilder::new(seed)
    }
}

/// Builder for [`CoSimConfig`]; starts from paper-default rates.
#[derive(Debug, Clone)]
pub struct CoSimConfigBuilder {
    inner: CoSimConfig,
}

impl CoSimConfigBuilder {
    /// Starts from [`CoSimConfig::new`] over the given tag set.
    pub fn new(tags: Vec<(u8, Period)>, seed: u64) -> Self {
        Self {
            inner: CoSimConfig::new(tags, seed),
        }
    }

    /// Downlink raw bit rate (bps).
    pub fn dl_bps(mut self, bps: f64) -> Self {
        self.inner.dl_bps = bps;
        self
    }

    /// Uplink raw bit rate (bps).
    pub fn ul_bps(mut self, bps: f64) -> Self {
        self.inner.ul_bps = bps;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<CoSimConfig, ConfigError> {
        if self.inner.tags.is_empty() {
            return Err(ConfigError::Empty { field: "tags" });
        }
        let deployment = Deployment::paper();
        let mut seen = [false; 256];
        for &(tid, _) in &self.inner.tags {
            if seen[tid as usize] {
                return Err(ConfigError::DuplicateTag { tid });
            }
            if deployment.site(tid).is_none() {
                return Err(ConfigError::UnknownTag { tid });
            }
            seen[tid as usize] = true;
        }
        positive("dl_bps", self.inner.dl_bps)?;
        positive("ul_bps", self.inner.ul_bps)?;
        Ok(self.inner)
    }
}

impl CoSimConfig {
    /// Returns a validating builder seeded with paper-default rates.
    pub fn builder(tags: Vec<(u8, Period)>, seed: u64) -> CoSimConfigBuilder {
        CoSimConfigBuilder::new(tags, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotsim_builder_accepts_defaults_and_matches_new() {
        let built = SlotSimConfig::builder(Pattern::c3(), 7).build().unwrap();
        let direct = SlotSimConfig::new(Pattern::c3(), 7);
        assert_eq!(built.dl_loss_prob, direct.dl_loss_prob);
        assert_eq!(built.seed, 7);
    }

    #[test]
    fn slotsim_builder_rejects_bad_probability() {
        let err = SlotSimConfig::builder(Pattern::c1(), 1)
            .capture_prob(1.5)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ProbabilityOutOfRange {
                field: "capture_prob",
                value: 1.5
            }
        );
        assert!(err.to_string().contains("capture_prob"));
    }

    #[test]
    fn slotsim_ideal_channel_matches_ideal_preset() {
        let built = SlotSimConfig::builder(Pattern::c1(), 3)
            .ideal_channel()
            .build()
            .unwrap();
        let preset = SlotSimConfig::ideal(Pattern::c1(), 3);
        assert_eq!(built.dl_loss_prob, preset.dl_loss_prob);
        assert_eq!(built.ul_loss_prob, preset.ul_loss_prob);
        assert_eq!(built.capture_prob, preset.capture_prob);
    }

    #[test]
    fn aloha_builder_validates_durations() {
        assert!(AlohaConfig::builder(1).build().is_ok());
        assert!(matches!(
            AlohaConfig::builder(1).duration_s(-5.0).build(),
            Err(ConfigError::NotPositive { .. })
        ));
        assert!(matches!(
            AlohaConfig::builder(1).duration_s(0.1).build(),
            Err(ConfigError::Inconsistent { .. })
        ));
        assert!(matches!(
            AlohaConfig::builder(1).duration_s(f64::NAN).build(),
            Err(ConfigError::NotFinite { .. })
        ));
        assert!(matches!(
            AlohaConfig::builder(1).resume_fraction(Some(2.0)).build(),
            Err(ConfigError::ProbabilityOutOfRange { .. })
        ));
    }

    #[test]
    fn cosim_builder_rejects_empty_and_duplicate_tags() {
        let p = |v| Period::new(v).unwrap();
        assert!(matches!(
            CoSimConfig::builder(vec![], 1).build(),
            Err(ConfigError::Empty { field: "tags" })
        ));
        assert_eq!(
            CoSimConfig::builder(vec![(8, p(2)), (8, p(4))], 1)
                .build()
                .unwrap_err(),
            ConfigError::DuplicateTag { tid: 8 }
        );
        assert!(CoSimConfig::builder(vec![(8, p(2)), (7, p(4))], 1)
            .build()
            .is_ok());
    }

    #[test]
    fn cosim_builder_rejects_a_tag_outside_the_deployment() {
        // The paper deployment has tags 1–12; a 13th would have gone on
        // air under a TID no site owns.
        let p = |v| Period::new(v).unwrap();
        assert_eq!(
            CoSimConfig::builder(vec![(8, p(2)), (13, p(4))], 1)
                .build()
                .unwrap_err(),
            ConfigError::UnknownTag { tid: 13 }
        );
        assert_eq!(
            CoSimConfig::builder(vec![(0, p(2))], 1)
                .build()
                .unwrap_err(),
            ConfigError::UnknownTag { tid: 0 }
        );
    }

    #[test]
    fn cosim_builder_rejects_nonpositive_rates() {
        let p = |v| Period::new(v).unwrap();
        assert!(matches!(
            CoSimConfig::builder(vec![(8, p(2))], 1).dl_bps(0.0).build(),
            Err(ConfigError::NotPositive {
                field: "dl_bps",
                ..
            })
        ));
    }
}
