//! Multi-reader channel matrix: K reader cells sharing one acoustic medium.
//!
//! The paper deploys a single reader on one BiW; a production line parks
//! several bodies side by side, each with its own reader. This module
//! models that fleet as a *reader-indexed channel matrix*:
//!
//! * **diagonal** — each reader drives its own cell (its own
//!   [`Deployment::paper`] copy of the BiW) on its assigned sub-band
//!   carrier, exactly like the single-reader [`BiwChannel`];
//! * **reader→reader leakage** — reader *j*'s CW carrier couples into
//!   reader *i*'s RX PZT through the shared fixture/floor, attenuated by
//!   the pairwise cross gain;
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
use crate::geometry::Deployment;
use crate::noise::NoiseConfig;
use crate::pzt::PztState;

/// Lower edge of the usable acoustic band for sub-band carriers (Hz). The
/// tag PZT resonates at 90 kHz; wideband drive electronics keep a window
/// around it usable for frequency-space division.
pub const MIN_BAND_HZ: f64 = 78_000.0;
/// Upper edge of the usable acoustic band (Hz).
pub const MAX_BAND_HZ: f64 = 104_000.0;

/// Cross gains below this are dropped from the matrix entirely (the
/// off-diagonal channel is simply not built).
const NEGLIGIBLE_CROSS_GAIN: f64 = 1e-4;

/// Fleet channel configuration.
#[derive(Debug, Clone)]
pub struct FleetChannelConfig {
    /// Template configuration shared by every cell; `carrier_hz` is
    /// overridden per reader from `carriers`.
    pub base: ChannelConfig,
    /// Per-reader carrier assignment (Hz), one entry per cell. Each needs
    /// an exact sample period at the base sample rate
    /// ([`exact_carrier_period`](crate::channel::exact_carrier_period));
    /// `FleetPlan` in the reader crate hands out only such carriers.
    pub carriers: Vec<f64>,
    /// Adjacent-cell cross-coupling gain in `[0, 1)`; cells `|i−j|` apart
    /// couple at `cross_gain^(|i−j|)`.
    pub cross_gain: f64,
}

impl FleetChannelConfig {
    /// Paper-calibrated base config with the given sub-band carriers and
    /// the default adjacent-cell coupling of −12 dB (0.25).
    pub fn paper(carriers: Vec<f64>) -> Self {
        Self {
            base: ChannelConfig::default(),
            carriers,
            cross_gain: 0.25,
        }
    }
}

/// The reader-indexed channel matrix (see the module docs).
#[derive(Debug, Clone)]
pub struct FleetChannel {
    /// Diagonal: reader `i` driving its own cell on its own carrier.
    cells: Vec<BiwChannel>,
    /// Off-diagonal: `cross[rx][tx]` synthesizes what reader `rx` hears of
    /// reader `tx`'s carrier and of backscatter riding on it. `None` on
    /// the diagonal and where the coupling is negligible.
    cross: Vec<Vec<Option<BiwChannel>>>,
    cross_gain: f64,
}

impl FleetChannel {
    /// Builds the matrix over the paper deployment, one cell per carrier.
    ///
    /// # Panics
    /// When `carriers` is empty, a carrier is outside
    /// [`MIN_BAND_HZ`]..=[`MAX_BAND_HZ`] or has no exact sample period
    /// ([`BiwChannel::new`]), or `cross_gain` is not in `[0, 1)` —
    /// plan-level validation (`FleetPlan` in the reader crate) is expected
    /// to run first.
    pub fn new(cfg: FleetChannelConfig) -> Self {
        assert!(!cfg.carriers.is_empty(), "fleet needs at least one reader");
        assert!(
            (0.0..1.0).contains(&cfg.cross_gain),
            "cross_gain must be in [0, 1)"
        );
        for &f in &cfg.carriers {
            assert!(
                (MIN_BAND_HZ..=MAX_BAND_HZ).contains(&f),
                "carrier {f} Hz outside the usable band"
            );
        }
        let k = cfg.carriers.len();
        let cells: Vec<BiwChannel> = cfg
            .carriers
            .iter()
            .map(|&f| {
                BiwChannel::new(
                    ChannelConfig {
                        carrier_hz: f,
                        ..cfg.base.clone()
                    },
                    Deployment::paper(),
                )
            })
            .collect();
        let cross = (0..k)
            .map(|rx| {
                (0..k)
                    .map(|tx| {
                        if rx == tx {
                            return None;
                        }
                        let g = cfg.cross_gain.powi((rx as i32 - tx as i32).abs());
                        if g < NEGLIGIBLE_CROSS_GAIN {
                            return None;
                        }
                        // The off-diagonal entry carries reader tx's
                        // carrier: its leak table is the reader→reader
                        // path, its tag tables the cross backscatter.
                        // Noise is synthesized once by the diagonal cell,
                        // so the cross channel is silent.
                        Some(BiwChannel::new(
                            ChannelConfig {
                                carrier_hz: cfg.carriers[tx],
                                drive_amplitude: cfg.base.drive_amplitude * g,
                                carrier_leakage: cfg.base.carrier_leakage * g,
                                noise: NoiseConfig::silent(),
                                ..cfg.base.clone()
                            },
                            Deployment::paper(),
                        ))
                    })
                    .collect()
            })
            .collect();
        Self {
            cells,
            cross,
            cross_gain: cfg.cross_gain,
        }
    }

    /// Number of reader cells.
    pub fn readers(&self) -> usize {
        self.cells.len()
    }

    /// Reader `i`'s own-cell channel (the matrix diagonal).
    pub fn cell(&self, i: usize) -> &BiwChannel {
        &self.cells[i]
    }

    /// Effective cross gain between readers `i` and `j` (0 on the
    /// diagonal and where the matrix pruned the entry).
    pub fn cross_gain(&self, i: usize, j: usize) -> f64 {
        if i == j || self.cross[i][j].is_none() {
            0.0
        } else {
            self.cross_gain.powi((i as i32 - j as i32).abs())
        }
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
        let fleet = FleetChannel::new(FleetChannelConfig {
            base: silent_base(),
            carriers: vec![90_000.0],
            cross_gain: 0.25,
        });
        let plain = BiwChannel::paper(silent_base());
        let states = BiwChannel::states_from_raw_bits(&[true, false, true], 600);
        let tags: [(u8, &[PztState]); 1] = [(8, &states)];
        let mut a = Vec::new();
        fleet.rx_waveform_into(0, &[&tags], 3_000, 5, &mut a);
        let b = plain.uplink_waveform_seeded(&tags, 3_000, 5);
        assert_eq!(a, b, "K=1 fleet must degenerate to the plain channel");
    }

    #[test]
    fn cross_reader_carrier_leaks_into_the_rx() {
        let fleet = FleetChannel::new(FleetChannelConfig {
            base: silent_base(),
            carriers: vec![90_000.0, 94_000.0],
            cross_gain: 0.25,
        });
        let none: [(u8, &[PztState]); 0] = [];
        let mut duo = Vec::new();
        fleet.rx_waveform_into(0, &[&none, &none], 5_000, 1, &mut duo);
        // Coherent correlation against the neighbour's 94 kHz carrier.
        let w = 2.0 * std::f64::consts::PI * 94_000.0 / 500_000.0;
        let corr: f64 = duo
            .iter()
            .enumerate()
            .map(|(n, &x)| x * (w * n as f64).sin())
            .sum::<f64>()
            * 2.0
            / duo.len() as f64;
        // Expected amplitude: leakage 2.0 × cross gain 0.25.
        assert!(
            (corr - 0.5).abs() < 0.05,
            "94 kHz leak amplitude {corr} (expected ≈0.5)"
        );
    }

    #[test]
    fn cross_gain_decays_with_cell_distance() {
        let fleet = FleetChannel::new(FleetChannelConfig {
            base: silent_base(),
            carriers: vec![86_000.0, 90_000.0, 94_000.0],
            cross_gain: 0.25,
        });
        assert_eq!(fleet.cross_gain(0, 0), 0.0);
        assert!((fleet.cross_gain(0, 1) - 0.25).abs() < 1e-12);
        assert!((fleet.cross_gain(0, 2) - 0.0625).abs() < 1e-12);
        assert_eq!(fleet.cross_gain(0, 1), fleet.cross_gain(1, 0));
    }

    #[test]
    fn foreign_tags_are_audible_across_cells() {
        let fleet = FleetChannel::new(FleetChannelConfig {
            base: silent_base(),
            carriers: vec![90_000.0, 94_000.0],
            cross_gain: 0.25,
        });
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
        let fleet = FleetChannel::new(FleetChannelConfig::paper(vec![90_000.0, 94_000.0]));
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
            let fleet = FleetChannel::new(FleetChannelConfig::paper(vec![f]));
            let p = fleet.cell(0).cache().period();
            let cycles = f * p as f64 / 500_000.0;
            assert_eq!(cycles, cycles.round(), "carrier {f} Hz over {p} samples");
        }
    }

    #[test]
    #[should_panic(expected = "usable band")]
    fn out_of_band_carrier_is_rejected() {
        FleetChannel::new(FleetChannelConfig::paper(vec![90_000.0, 200_000.0]));
    }
}
