//! Multi-reader channel matrix: K reader cells sharing one acoustic medium.
//!
//! The paper deploys a single reader on one BiW; a production line parks
//! several bodies side by side, each with its own reader. This module
//! models that fleet as a *reader-indexed channel matrix*:
//!
//! * **diagonal** — each reader drives its own cell (its own
//!   [`Deployment::paper`](crate::geometry::Deployment::paper) copy of
//!   the BiW) on its assigned sub-band carrier, exactly like the
//!   single-reader [`BiwChannel`];
//! * **reader→reader leakage** — reader *j*'s CW carrier couples into
//!   reader *i*'s RX PZT through the shared fixture/floor, attenuated by
//!   the pairwise cross gain ([`CROSS_GAIN`] per hop);
//! * **reader→tag leakage** — reader *j*'s carrier also reaches the tags
//!   of cell *i* (and reader *i* hears cell *j*'s tags), so backscatter on
//!   *foreign* carriers appears in every RX stream at the same cross gain.
//!
//! Every off-diagonal entry is itself a [`BiwChannel`] whose carrier is
//! the *transmitting* reader's sub-band and whose drive/leakage amplitudes
//! are scaled by the cross gain — so the per-sample hot path reuses the
//! existing [`ChannelCache`](crate::channel::ChannelCache) block tables
//! unchanged, and superposition is two table-adds per interferer via
//! [`BiwChannel::uplink_add_carrier_into`] /
//! [`BiwChannel::uplink_add_tags_into`]. Cross gains decay geometrically
//! with cell distance (`g^(|i−j|)`): one intervening body per hop.
//!
//! The matrix is purely about *synthesis*; sub-band selection and
//! interference rejection live in `arachnet-reader::fleet`.

use crate::channel::{BiwChannel, ChannelConfig};
use crate::noise::NoiseConfig;
use crate::pzt::PztState;

/// Lower edge of the usable acoustic band for sub-band carriers (Hz). The
/// tag PZT resonates at 90 kHz; wideband drive electronics keep a window
/// around it usable for frequency-space division.
pub const MIN_BAND_HZ: f64 = 78_000.0;
/// Upper edge of the usable acoustic band (Hz).
pub const MAX_BAND_HZ: f64 = 104_000.0;

/// Adjacent-cell cross-coupling gain, −12 dB: cells `|i−j|` apart couple
/// at `CROSS_GAIN^(|i−j|)`. A reproduction choice: the paper deploys one
/// reader, and the fleet follows Trident's frequency-space division.
pub const CROSS_GAIN: f64 = 0.25;

/// Cross gains below this are dropped from the matrix entirely (the
/// off-diagonal channel is simply not built).
const NEGLIGIBLE_CROSS_GAIN: f64 = 1e-4;

/// The reader-indexed channel matrix (see the module docs).
#[derive(Debug, Clone)]
pub struct FleetChannel {
    /// Diagonal: reader `i` driving its own cell on its own carrier.
    cells: Vec<BiwChannel>,
    /// Off-diagonal: `cross[rx][tx]` synthesizes what reader `rx` hears of
    /// reader `tx`'s carrier and of backscatter riding on it. `None` on
    /// the diagonal and where the coupling is negligible.
    cross: Vec<Vec<Option<BiwChannel>>>,
}

impl FleetChannel {
    /// Builds the matrix over the paper deployment, one cell per carrier.
    /// `base` is the configuration every cell shares; each cell's
    /// `carrier_hz` comes from `carriers`, one entry per reader. Each
    /// carrier needs an exact sample period at the base sample rate
    /// ([`exact_carrier_period`](crate::channel::exact_carrier_period));
    /// `FleetPlan` in the reader crate hands out only such carriers.
    ///
    /// # Panics
    /// When `carriers` is empty, or a carrier is outside
    /// [`MIN_BAND_HZ`]..=[`MAX_BAND_HZ`] or has no exact sample period
    /// ([`BiwChannel::paper`]) — plan-level validation (`FleetPlan` in the
    /// reader crate) is expected to run first.
    pub fn new(base: ChannelConfig, carriers: &[f64]) -> Self {
        assert!(!carriers.is_empty(), "fleet needs at least one reader");
        for &f in carriers {
            assert!(
                (MIN_BAND_HZ..=MAX_BAND_HZ).contains(&f),
                "carrier {f} Hz outside the usable band"
            );
        }
        let k = carriers.len();
        let cells: Vec<BiwChannel> = carriers
            .iter()
            .map(|&f| {
                BiwChannel::paper(ChannelConfig {
                    carrier_hz: f,
                    ..base.clone()
                })
            })
            .collect();
        let cross = (0..k)
            .map(|rx| {
                (0..k)
                    .map(|tx| {
                        if rx == tx {
                            return None;
                        }
                        let g = CROSS_GAIN.powi((rx as i32 - tx as i32).abs());
                        if g < NEGLIGIBLE_CROSS_GAIN {
                            return None;
                        }
                        // The off-diagonal entry carries reader tx's
                        // carrier: its leak table is the reader→reader
                        // path, its tag tables the cross backscatter.
                        // Noise is synthesized once by the diagonal cell,
                        // so the cross channel is silent.
                        Some(BiwChannel::paper(ChannelConfig {
                            carrier_hz: carriers[tx],
                            drive_amplitude: base.drive_amplitude * g,
                            carrier_leakage: base.carrier_leakage * g,
                            noise: NoiseConfig::silent(),
                            ..base.clone()
                        }))
                    })
                    .collect()
            })
            .collect();
        Self { cells, cross }
    }

    /// Number of reader cells.
    pub fn readers(&self) -> usize {
        self.cells.len()
    }

    /// Reader `i`'s own-cell channel (the matrix diagonal).
    pub fn cell(&self, i: usize) -> &BiwChannel {
        &self.cells[i]
    }

    /// Synthesizes the RX waveform at reader `rx` over `len` samples.
    ///
    /// `cell_tags[c]` lists cell `c`'s active tags and their per-sample
    /// reflection-state streams (same convention as
    /// [`BiwChannel::uplink_waveform_seeded_into`]). The diagonal cell
    /// contributes noise + own carrier + own tags; every surviving
    /// off-diagonal entry then adds the foreign reader's leaked carrier,
    /// that cell's tags backscattering it across the fixture, and the own
    /// cell's tags re-modulating the foreign carrier — all through the
    /// prebuilt block tables, allocation-free once `out` is warm.
    pub fn rx_waveform_into(
        &self,
        rx: usize,
        cell_tags: &[&[(u8, &[PztState])]],
        len: usize,
        seed: u64,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            cell_tags.len(),
            self.cells.len(),
            "one tag list per reader cell"
        );
        self.cells[rx].uplink_waveform_seeded_into(cell_tags[rx], len, seed, out);
        for (tx, entry) in self.cross[rx].iter().enumerate() {
            let Some(ch) = entry else { continue };
            ch.uplink_add_carrier_into(out);
            ch.uplink_add_tags_into(cell_tags[tx], out);
            ch.uplink_add_tags_into(cell_tags[rx], out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn silent_base() -> ChannelConfig {
        ChannelConfig {
            noise: NoiseConfig::silent(),
            ..ChannelConfig::default()
        }
    }

    #[test]
    fn single_reader_fleet_matches_plain_channel() {
        let fleet = FleetChannel::new(silent_base(), &[90_000.0]);
        let plain = BiwChannel::paper(silent_base());
        let states = BiwChannel::states_from_raw_bits(&[true, false, true], 600);
        let tags: [(u8, &[PztState]); 1] = [(8, &states)];
        let mut a = Vec::new();
        fleet.rx_waveform_into(0, &[&tags], 3_000, 5, &mut a);
        let b = plain.uplink_waveform_seeded(&tags, 3_000, 5);
        assert_eq!(a, b, "K=1 fleet must degenerate to the plain channel");
    }

    /// Coherent amplitude of the `f` Hz sine in `wave` (500 kHz samples).
    fn tone_amplitude(wave: &[f64], f: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f / 500_000.0;
        wave.iter()
            .enumerate()
            .map(|(n, &x)| x * (w * n as f64).sin())
            .sum::<f64>()
            * 2.0
            / wave.len() as f64
    }

    #[test]
    fn cross_reader_carrier_leaks_into_the_rx() {
        let fleet = FleetChannel::new(silent_base(), &[90_000.0, 94_000.0]);
        let none: [(u8, &[PztState]); 0] = [];
        let mut duo = Vec::new();
        fleet.rx_waveform_into(0, &[&none, &none], 5_000, 1, &mut duo);
        // Expected amplitude of the neighbour's 94 kHz carrier: leakage
        // 2.0 × cross gain 0.25.
        let corr = tone_amplitude(&duo, 94_000.0);
        assert!(
            (corr - 0.5).abs() < 0.05,
            "94 kHz leak amplitude {corr} (expected ≈0.5)"
        );
    }

    #[test]
    fn cross_gain_decays_with_cell_distance() {
        // Three silent cells: a foreign carrier reaches a reader at the
        // leakage 2.0 times CROSS_GAIN per cell between them.
        let fleet = FleetChannel::new(silent_base(), &[86_000.0, 90_000.0, 94_000.0]);
        let none: [(u8, &[PztState]); 0] = [];
        let heard = |rx: usize, f: f64| {
            let mut wave = Vec::new();
            fleet.rx_waveform_into(rx, &[&none, &none, &none], 5_000, 1, &mut wave);
            tone_amplitude(&wave, f)
        };
        for (rx, f, want) in [
            (0, 90_000.0, 2.0 * 0.25),
            (0, 94_000.0, 2.0 * 0.0625),
            (1, 86_000.0, 0.5),
        ] {
            let got = heard(rx, f);
            assert!(
                (got - want).abs() < 0.05 * want,
                "reader {rx} hears {f} Hz at {got} (expected ≈{want})"
            );
        }
    }

    #[test]
    fn foreign_tags_are_audible_across_cells() {
        let fleet = FleetChannel::new(silent_base(), &[90_000.0, 94_000.0]);
        let states = BiwChannel::states_from_raw_bits(&[true; 6], 500);
        let none: [(u8, &[PztState]); 0] = [];
        let busy: [(u8, &[PztState]); 1] = [(8, &states)];
        let mut idle = Vec::new();
        let mut with_tag = Vec::new();
        fleet.rx_waveform_into(0, &[&none, &none], 3_000, 1, &mut idle);
        fleet.rx_waveform_into(0, &[&none, &busy], 3_000, 1, &mut with_tag);
        let diff: f64 = idle.iter().zip(&with_tag).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.1, "cell-1 tag invisible at reader 0: diff {diff}");
    }

    #[test]
    fn synthesis_is_deterministic_and_reuses_capacity() {
        let fleet = FleetChannel::new(ChannelConfig::default(), &[90_000.0, 94_000.0]);
        let none: [(u8, &[PztState]); 0] = [];
        let mut a = Vec::new();
        fleet.rx_waveform_into(1, &[&none, &none], 10_000, 3, &mut a);
        let ptr = a.as_ptr();
        let first = a.clone();
        fleet.rx_waveform_into(1, &[&none, &none], 10_000, 3, &mut a);
        assert_eq!(a, first);
        assert_eq!(a.as_ptr(), ptr, "buffer must be reused, not reallocated");
    }

    #[test]
    fn sub_band_carriers_have_exact_periods() {
        // Every carrier the default FDMA plan hands out builds a cell, and
        // its table period holds a whole number of carrier cycles.
        for f in [82_000.0, 86_000.0, 90_000.0, 94_000.0, 98_000.0, 102_000.0] {
            let fleet = FleetChannel::new(ChannelConfig::default(), &[f]);
            let p = fleet.cell(0).cache().period();
            let cycles = f * p as f64 / 500_000.0;
            assert_eq!(cycles, cycles.round(), "carrier {f} Hz over {p} samples");
        }
    }

    #[test]
    #[should_panic(expected = "usable band")]
    fn out_of_band_carrier_is_rejected() {
        FleetChannel::new(ChannelConfig::default(), &[90_000.0, 200_000.0]);
    }
}
