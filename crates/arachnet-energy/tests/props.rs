//! Property-based tests over the energy chain (arachnet-testkit).

use arachnet_energy::cutoff::{LowVoltageCutoff, V_HTH, V_LTH};
use arachnet_energy::harvester::HarvestChain;
use arachnet_energy::ledger::{PowerLedger, PowerMode};
use arachnet_energy::multiplier::Multiplier;
use arachnet_energy::storage::SuperCap;
use arachnet_testkit::gen;
use arachnet_testkit::{check, prop_assert};

/// Pump output voltage is monotone in the input and in the stage count.
#[test]
fn multiplier_is_monotone() {
    let g = gen::zip(gen::f64_range(0.0, 2.0), gen::u32_range(1, 12));
    check("multiplier_is_monotone", &g, |&(vp, stages)| {
        let m = Multiplier::new(stages);
        let m_next = Multiplier::new(stages + 1);
        prop_assert!(m.open_circuit_voltage(vp + 0.1) >= m.open_circuit_voltage(vp));
        prop_assert!(m_next.open_circuit_voltage(vp) >= m.open_circuit_voltage(vp));
        prop_assert!(m.open_circuit_voltage(vp) >= 0.0);
        Ok(())
    });
}

/// Charging time decreases with input voltage and increases with the
/// voltage span, whenever defined.
#[test]
fn charge_time_monotonicity() {
    let g = gen::zip(gen::f64_range(0.35, 1.5), gen::f64_range(0.5, 2.2));
    check("charge_time_monotonicity", &g, |&(vp, v1)| {
        let h = HarvestChain::paper();
        let t1 = h.charge_time(vp, 0.0, v1).unwrap();
        let t2 = h.charge_time(vp + 0.05, 0.0, v1).unwrap();
        prop_assert!(t2 <= t1, "more input must not charge slower");
        let t3 = h.charge_time(vp, 0.0, v1 * 0.9).unwrap();
        prop_assert!(t3 <= t1, "a lower target must not take longer");
        prop_assert!(t1.is_finite() && t1 > 0.0);
        Ok(())
    });
}

/// The cutoff never oscillates inside the dead band: an arbitrary voltage
/// walk produces transitions only at threshold crossings.
#[test]
fn cutoff_transitions_only_at_thresholds() {
    let g = gen::vec(gen::f64_range(0.0, 3.0), 1, 199);
    check("cutoff_transitions_only_at_thresholds", &g, |walk| {
        let mut c = LowVoltageCutoff::paper();
        for &v in walk {
            let was = c.is_connected();
            let event = c.update(v);
            match event {
                Some(arachnet_energy::cutoff::CutoffEvent::PoweredOn) => {
                    prop_assert!(!was && v >= V_HTH);
                }
                Some(arachnet_energy::cutoff::CutoffEvent::PoweredOff) => {
                    prop_assert!(was && v <= V_LTH);
                }
                None => {}
            }
        }
        Ok(())
    });
}

/// Capacitor stepping conserves charge up to leakage: with zero leak, the
/// voltage change equals ∫i/C exactly.
#[test]
fn capacitor_integrates_current() {
    let g = gen::zip(
        gen::vec(gen::f64_range(-50e-6, 200e-6), 1, 99),
        gen::f64_range(0.0, 2.0),
    );
    check("capacitor_integrates_current", &g, |(currents, v0)| {
        let mut c = SuperCap::new(1.0e-3).with_leak(0.0);
        c.set_voltage(*v0);
        let dt = 0.5;
        let mut expected = *v0;
        for &i in currents {
            expected = (expected + i * dt / 1.0e-3).max(0.0);
            c.step(i, dt);
            prop_assert!((c.voltage() - expected).abs() < 1e-12);
        }
        Ok(())
    });
}

/// The power ledger is additive: splitting an interval never changes the
/// total energy.
#[test]
fn ledger_is_additive() {
    let g = gen::zip(gen::f64_range(0.001, 10.0), gen::f64_range(0.01, 0.99));
    check("ledger_is_additive", &g, |&(dt, split)| {
        let mode = PowerMode::rx_default();
        let mut whole = PowerLedger::new();
        whole.spend(mode, dt);
        let mut parts = PowerLedger::new();
        parts.spend(mode, dt * split);
        parts.spend(mode, dt * (1.0 - split));
        prop_assert!((whole.energy() - parts.energy()).abs() < 1e-15);
        prop_assert!((whole.time() - parts.time()).abs() < 1e-12);
        Ok(())
    });
}

/// Power modes are ordered TX > RX > IDLE at any legal rate pair.
#[test]
fn mode_power_ordering() {
    let g = gen::zip(gen::f64_range(90.0, 3000.0), gen::f64_range(125.0, 2000.0));
    check("mode_power_ordering", &g, |&(ul, dl)| {
        let tx = PowerMode::Tx { ul_bps: ul };
        let rx = PowerMode::Rx { dl_bps: dl };
        prop_assert!(tx.power() > PowerMode::Idle.power());
        prop_assert!(rx.power() > PowerMode::Idle.power());
        Ok(())
    });
}
