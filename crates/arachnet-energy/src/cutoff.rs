//! The low-voltage cutoff circuit with hysteresis (Sec. 3.3, Appendix A).
//!
//! A comparator watches the supercapacitor through a resistor divider and
//! connects the MCU only between two thresholds: power connects when the
//! capacitor rises above `V_HTH` and disconnects when it falls below
//! `V_LTH`. The feedback network switches the effective divider: with the
//! output low the bottom leg is `R3` alone (rising threshold
//! `V_REF · (R1+R2+R3)/R3 = 2.31 V`), with the output high it is `R2+R3`
//! (falling threshold `V_REF · (R1+R2+R3)/(R2+R3) = 1.95 V`) — the paper's
//! R1 = 680 kΩ, R2 = 180 kΩ, R3 = 1 MΩ, V_REF = 1.24 V.

/// Comparator reference voltage (V).
pub const V_REF: f64 = 1.24;
/// Divider resistor R1 (Ω).
pub const R1_OHM: f64 = 680_000.0;
/// Divider resistor R2 (Ω).
pub const R2_OHM: f64 = 180_000.0;
/// Divider resistor R3 (Ω).
pub const R3_OHM: f64 = 1_000_000.0;

/// Quiescent current of the cutoff circuit (divider + comparator), amps.
/// Appendix A bounds it below 1 µA.
pub const CUTOFF_QUIESCENT_A: f64 = 0.9e-6;

/// The hysteretic power switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowVoltageCutoff {
    v_hth: f64,
    v_lth: f64,
    connected: bool,
}

impl Default for LowVoltageCutoff {
    fn default() -> Self {
        Self::paper()
    }
}

impl LowVoltageCutoff {
    /// The paper's circuit from its published resistor values.
    pub fn paper() -> Self {
        let total = R1_OHM + R2_OHM + R3_OHM;
        Self::new(V_REF * total / R3_OHM, V_REF * total / (R2_OHM + R3_OHM))
    }

    /// A cutoff with explicit thresholds.
    pub fn new(v_hth: f64, v_lth: f64) -> Self {
        assert!(v_hth > v_lth, "hysteresis requires HTH > LTH");
        Self {
            v_hth,
            v_lth,
            connected: false,
        }
    }

    /// Rising (connect) threshold.
    pub fn v_hth(&self) -> f64 {
        self.v_hth
    }

    /// Falling (disconnect) threshold.
    pub fn v_lth(&self) -> f64 {
        self.v_lth
    }

    /// Whether the MCU is currently powered.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Updates the switch with the current capacitor voltage. Returns the
    /// transition that occurred, if any.
    pub fn update(&mut self, v_cap: f64) -> Option<CutoffEvent> {
        if !self.connected && v_cap >= self.v_hth {
            self.connected = true;
            Some(CutoffEvent::PoweredOn)
        } else if self.connected && v_cap <= self.v_lth {
            self.connected = false;
            Some(CutoffEvent::PoweredOff)
        } else {
            None
        }
    }

    /// Forces the disconnected state (e.g. after a full discharge).
    pub fn reset(&mut self) {
        self.connected = false;
    }
}

/// A power transition of the cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutoffEvent {
    /// Capacitor crossed `V_HTH` rising: the MCU boots.
    PoweredOn,
    /// Capacitor crossed `V_LTH` falling: the MCU browns out.
    PoweredOff,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds() {
        let c = LowVoltageCutoff::paper();
        assert!((c.v_hth() - 2.3).abs() < 0.02, "HTH {}", c.v_hth());
        assert!((c.v_lth() - 1.95).abs() < 0.01, "LTH {}", c.v_lth());
    }

    #[test]
    fn connects_only_at_hth() {
        let mut c = LowVoltageCutoff::paper();
        assert_eq!(
            c.update(2.0),
            None,
            "between thresholds from below: stay off"
        );
        assert_eq!(c.update(2.29), None);
        assert_eq!(c.update(2.31), Some(CutoffEvent::PoweredOn));
        assert!(c.is_connected());
    }

    #[test]
    fn disconnects_only_at_lth() {
        let mut c = LowVoltageCutoff::paper();
        c.update(2.35);
        assert!(c.is_connected());
        assert_eq!(
            c.update(2.0),
            None,
            "between thresholds from above: stay on"
        );
        assert_eq!(c.update(1.96), None);
        assert_eq!(c.update(1.94), Some(CutoffEvent::PoweredOff));
        assert!(!c.is_connected());
    }

    #[test]
    fn hysteresis_prevents_oscillation() {
        // A voltage hovering between the thresholds must never toggle.
        let mut c = LowVoltageCutoff::paper();
        c.update(2.35); // on
        let mut events = 0;
        for v in [2.1, 2.25, 2.0, 2.2, 1.97, 2.29] {
            if c.update(v).is_some() {
                events += 1;
            }
        }
        assert_eq!(events, 0);
    }

    #[test]
    fn events_fire_once_per_transition() {
        let mut c = LowVoltageCutoff::paper();
        assert!(c.update(2.4).is_some());
        assert!(c.update(2.5).is_none(), "already on");
        assert!(c.update(1.9).is_some());
        assert!(c.update(1.8).is_none(), "already off");
    }

    #[test]
    fn quiescent_current_below_appendix_bound() {
        let quiescent = CUTOFF_QUIESCENT_A;
        assert!(
            quiescent < 1.0e-6,
            "cutoff quiescent draw {quiescent} A exceeds 1 uA"
        );
    }

    #[test]
    #[should_panic(expected = "HTH > LTH")]
    fn inverted_thresholds_panic() {
        LowVoltageCutoff::new(1.9, 2.3);
    }

    #[test]
    fn reset_forces_off() {
        let mut c = LowVoltageCutoff::paper();
        c.update(2.4);
        c.reset();
        assert!(!c.is_connected());
    }
}
