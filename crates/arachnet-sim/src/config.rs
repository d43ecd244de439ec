//! The typed error of the validating constructors.
//!
//! [`ScenarioBuilder::build`](crate::scenario::ScenarioBuilder::build),
//! [`run_fleet`](crate::fleet::run_fleet) and the experiment context
//! builder of `arachnet-experiments` reject an invalid value or an
//! inconsistent combination with a [`ConfigError`] instead of a panic (or
//! a silently nonsensical simulation) later. The simulator configurations
//! themselves are plain data, built with `new`, a preset or a struct
//! literal.

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
    /// The same tag ID appears twice.
    DuplicateTag {
        /// The duplicated tag ID.
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
            ConfigError::DuplicateTag { tid } => write!(f, "tag {tid} listed more than once"),
            ConfigError::Inconsistent { reason } => write!(f, "inconsistent config: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_field() {
        let err = ConfigError::ProbabilityOutOfRange {
            field: "capture_prob",
            value: 1.5,
        };
        assert!(err.to_string().contains("capture_prob"), "{err}");
        let err = ConfigError::NotPositive {
            field: "dl_bps",
            value: 0.0,
        };
        assert!(err.to_string().contains("dl_bps"), "{err}");
    }
}
