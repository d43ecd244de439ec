//! Frequency-space division for reader fleets (the multi-reader MAC).
//!
//! K readers on adjacent bodies share one acoustic medium (see
//! `biw_channel::fleet`), so their CW carriers leak into each other's RX
//! PZTs. The coordinator avoids inter-reader interference the way Trident
//! does for RFID: *frequency-space division*. Each reader is assigned its
//! own sub-band carrier from a validated [`FleetPlan`], and the receiver
//! front-end additionally performs *inter-reader interference rejection* —
//! each foreign carrier is coherently estimated over the slot
//! (`a = (2/N) Σ x[n] e^{-jωn}`, the same estimate the SNR metric uses for
//! the own carrier) and subtracted before the single-reader chain runs.
//!
//! Every plan carrier sits on one fixed grid at the 500 kHz DAQ rate, so
//! each has an *exact* sample period: synthesis, mixing and the rejection
//! itself index one-period tables ([`CarrierTable`]) with no per-sample
//! trig.

use std::fmt;

use arachnet_dsp::nco::CarrierTable;
use biw_channel::channel::{CARRIER_HZ, SAMPLE_RATE_HZ};
use biw_channel::fleet::{MAX_BAND_HZ, MIN_BAND_HZ};

use crate::rx::{carrier_corrections, carrier_table, RxConfig, RxScratch, SlotRx, UplinkReceiver};

/// Step of the FDMA grid (Hz): carriers sit at 90 kHz, then alternately
/// above and below it, one step further out each pair. Wide enough that
/// the decimation filter puts a foreign carrier well outside the
/// modulation band at every paper bit rate.
const GRID_SPACING_HZ: f64 = 4_000.0;

/// Distinct sub-bands the grid holds inside the usable band
/// ([`MIN_BAND_HZ`]..=[`MAX_BAND_HZ`]): 90 kHz and three steps on each
/// side, 78–102 kHz. An eighth carrier would land at 106 kHz, so
/// [`FleetPlan::fdma`] plans at most this many readers, and a larger fleet
/// reuses bands ([`FleetPlan::fdma_reuse`]).
pub const GRID_BANDS: usize = 7;

/// Most readers a single plan will coordinate.
pub const MAX_READERS: usize = 8;

/// Why a [`FleetPlan`] failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetPlanError {
    /// The plan has no readers.
    NoReaders,
    /// More readers than [`MAX_READERS`].
    TooManyReaders {
        /// Requested reader count.
        readers: usize,
    },
    /// A sub-band carrier left the usable acoustic band.
    OutOfBand {
        /// The offending carrier (Hz).
        carrier_hz: f64,
    },
}

impl fmt::Display for FleetPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetPlanError::NoReaders => write!(f, "fleet plan needs at least one reader"),
            FleetPlanError::TooManyReaders { readers } => {
                write!(
                    f,
                    "{readers} readers exceeds the supported fleet size ({MAX_READERS})"
                )
            }
            FleetPlanError::OutOfBand { carrier_hz } => write!(
                f,
                "sub-band {carrier_hz} Hz outside the usable band \
                 [{MIN_BAND_HZ}, {MAX_BAND_HZ}] Hz"
            ),
        }
    }
}

impl std::error::Error for FleetPlanError {}

/// A validated per-reader FDMA sub-band assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    carriers: Vec<f64>,
}

impl FleetPlan {
    /// The default plan: `readers` sub-bands on the grid centred on the
    /// 90 kHz resonance (offsets 0, +4, −4, +8, … kHz). More than
    /// [`GRID_BANDS`] readers put a carrier out of band.
    pub fn fdma(readers: usize) -> Result<Self, FleetPlanError> {
        let carriers = (0..readers)
            .map(|r| {
                // 0, +1, -1, +2, -2, … grid steps.
                let step = (r as i64 + 1) / 2;
                let sign = if r % 2 == 1 { 1.0 } else { -1.0 };
                CARRIER_HZ + sign * step as f64 * GRID_SPACING_HZ
            })
            .collect();
        Self::validated(carriers)
    }

    /// A plan for more readers than available sub-bands: `bands` distinct
    /// sub-bands of the default grid, assigned round-robin, so some cells
    /// share a band. Sharing is legal — the fleet soak uses exactly this
    /// shape to measure the cost of frequency-space collision (see
    /// [`FleetPlan::band`]).
    pub fn fdma_reuse(readers: usize, bands: usize) -> Result<Self, FleetPlanError> {
        if readers > MAX_READERS {
            return Err(FleetPlanError::TooManyReaders { readers });
        }
        let grid = Self::fdma(bands.min(readers.max(1)))?;
        let carriers = (0..readers)
            .map(|r| grid.carriers[r % grid.readers()])
            .collect();
        Self::validated(carriers)
    }

    /// The deliberately degenerate baseline: every reader on the 90 kHz
    /// carrier — the "no frequency-space division" arm of the
    /// interference experiments, not a plan anyone should deploy.
    pub fn co_channel(readers: usize) -> Result<Self, FleetPlanError> {
        Self::validated(vec![CARRIER_HZ; readers])
    }

    fn validated(carriers: Vec<f64>) -> Result<Self, FleetPlanError> {
        if carriers.is_empty() {
            return Err(FleetPlanError::NoReaders);
        }
        if carriers.len() > MAX_READERS {
            return Err(FleetPlanError::TooManyReaders {
                readers: carriers.len(),
            });
        }
        if let Some(&f) = carriers
            .iter()
            .find(|f| !(MIN_BAND_HZ..=MAX_BAND_HZ).contains(*f))
        {
            return Err(FleetPlanError::OutOfBand { carrier_hz: f });
        }
        Ok(Self { carriers })
    }

    /// Number of readers in the plan.
    pub fn readers(&self) -> usize {
        self.carriers.len()
    }

    /// Per-reader carrier assignment (Hz), indexed by reader.
    pub fn carriers(&self) -> &[f64] {
        &self.carriers
    }

    /// Reader `r`'s assigned carrier (Hz).
    pub fn carrier_hz(&self, r: usize) -> f64 {
        self.carriers[r]
    }

    /// Reader `r`'s sub-band index: the rank of its carrier among the
    /// plan's distinct carriers, ascending. Readers sharing a carrier
    /// (the co-channel baseline) share a band index — band reuse is how
    /// the fleet soak detects frequency-space collisions.
    pub fn band(&self, r: usize) -> usize {
        let f = self.carriers[r];
        let mut distinct: Vec<f64> = self.carriers.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        distinct.iter().position(|&x| x == f).expect("own carrier")
    }
}

/// Reusable working set for [`FleetReceiver`]: the interference-rejected
/// waveform copy, the per-phase correction table, and the single-reader
/// chain's scratch. Contents never influence results.
#[derive(Debug, Clone, Default)]
pub struct FleetRxScratch {
    cleaned: Vec<f64>,
    corr: Vec<f64>,
    /// Scratch of the wrapped single-reader chain.
    pub rx: RxScratch,
}

/// The multi-reader receiver front-end: inter-reader interference
/// rejection wrapped around the single-reader [`UplinkReceiver`].
#[derive(Debug, Clone)]
pub struct FleetReceiver {
    rx: UplinkReceiver,
    /// Conjugate-carrier table of each foreign carrier to reject.
    interferers: Vec<CarrierTable>,
    reject: bool,
}

impl FleetReceiver {
    /// Receiver for reader `reader` under `plan`, expecting `ul_bps`
    /// uplink raw bits. Every *other* plan carrier that differs from the
    /// reader's own becomes an interferer to reject (co-channel neighbours
    /// cannot be rejected coherently — subtracting the own-frequency CW
    /// would also null the backscatter mean — so they are skipped).
    pub fn new(plan: &FleetPlan, reader: usize, ul_bps: f64) -> Self {
        let own = plan.carrier_hz(reader);
        let cfg = RxConfig {
            carrier_hz: own,
            ul_bps,
            ..RxConfig::default()
        };
        let interferers = plan
            .carriers()
            .iter()
            .enumerate()
            .filter(|&(r, &f)| r != reader && (f - own).abs() > 1.0)
            .map(|(_, &f)| carrier_table(SAMPLE_RATE_HZ, f))
            .collect();
        Self {
            rx: UplinkReceiver::new(cfg),
            interferers,
            reject: true,
        }
    }

    /// Enables/disables the rejection stage (on by default); with it off
    /// the receiver degenerates to the bare single-reader chain — the
    /// "FDMA without rejection" arm of the interference experiments.
    pub fn set_rejection(&mut self, on: bool) {
        self.reject = on;
    }

    /// The wrapped single-reader receiver.
    pub fn inner(&self) -> &UplinkReceiver {
        &self.rx
    }

    /// Coherently estimates and subtracts every foreign carrier from
    /// `wave` in place (see the module docs for the estimator).
    fn reject_into(&self, wave: &mut [f64], corr: &mut Vec<f64>) {
        for tab in &self.interferers {
            carrier_corrections(tab, wave, corr);
            let p = corr.len();
            let mut ph = 0usize;
            for x in wave.iter_mut() {
                *x -= corr[ph];
                ph += 1;
                if ph == p {
                    ph = 0;
                }
            }
        }
    }

    /// Processes one slot: interference rejection (when enabled and there
    /// is anything to reject), then the single-reader chain. Bit-identical
    /// across scratch reuse, like the chain it wraps.
    pub fn process_slot_with(&self, wave: &[f64], scratch: &mut FleetRxScratch) -> SlotRx {
        if !self.reject || self.interferers.is_empty() {
            return self.rx.process_slot_with(wave, &mut scratch.rx);
        }
        scratch.cleaned.clear();
        scratch.cleaned.extend_from_slice(wave);
        self.reject_into(&mut scratch.cleaned, &mut scratch.corr);
        self.rx.process_slot_with(&scratch.cleaned, &mut scratch.rx)
    }

    /// SNR of the slot after interference rejection (the fleet analogue of
    /// [`UplinkReceiver::uplink_snr_db_with`]).
    pub fn uplink_snr_db_with(&self, wave: &[f64], scratch: &mut FleetRxScratch) -> f64 {
        if !self.reject || self.interferers.is_empty() {
            return self.rx.uplink_snr_db_with(wave, &mut scratch.rx);
        }
        scratch.cleaned.clear();
        scratch.cleaned.extend_from_slice(wave);
        self.reject_into(&mut scratch.cleaned, &mut scratch.corr);
        self.rx
            .uplink_snr_db_with(&scratch.cleaned, &mut scratch.rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arachnet_core::fm0::Fm0Encoder;
    use arachnet_core::packet::UlPacket;
    use arachnet_dsp::cplx::Cplx;
    use biw_channel::channel::{exact_carrier_period, BiwChannel, ChannelConfig};
    use biw_channel::fleet::FleetChannel;
    use biw_channel::noise::NoiseConfig;
    use biw_channel::pzt::PztState;

    #[test]
    fn fdma_plan_assigns_distinct_inband_carriers() {
        let plan = FleetPlan::fdma(4).unwrap();
        assert_eq!(plan.readers(), 4);
        assert_eq!(plan.carriers(), [90_000.0, 94_000.0, 86_000.0, 98_000.0]);
        // Bands are a permutation of 0..readers.
        let mut bands: Vec<usize> = (0..4).map(|r| plan.band(r)).collect();
        bands.sort_unstable();
        assert_eq!(bands, vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_grid_carrier_has_an_exact_period_and_room_to_its_neighbours() {
        // The grid is fixed, so the plan need not check per call what holds
        // for every plan `fdma` can build: each carrier closes its table at
        // the DAQ rate and sits at least 2 kHz from every other.
        for readers in 1..=GRID_BANDS {
            let plan = FleetPlan::fdma(readers).unwrap();
            for (r, &f) in plan.carriers().iter().enumerate() {
                assert!((MIN_BAND_HZ..=MAX_BAND_HZ).contains(&f), "reader {r}: {f}");
                assert!(
                    exact_carrier_period(SAMPLE_RATE_HZ, f).is_some(),
                    "reader {r}: carrier {f} has no exact period"
                );
                for &g in &plan.carriers()[r + 1..] {
                    assert!((f - g).abs() >= 2_000.0, "{f} Hz and {g} Hz too close");
                }
            }
        }
    }

    #[test]
    fn the_grid_holds_seven_bands_and_no_eighth() {
        assert_eq!(FleetPlan::fdma(GRID_BANDS).unwrap().readers(), GRID_BANDS);
        assert_eq!(
            FleetPlan::fdma(GRID_BANDS + 1),
            Err(FleetPlanError::OutOfBand {
                carrier_hz: 106_000.0
            })
        );
        // More readers than bands reuse them, up to the fleet limit.
        let reuse = FleetPlan::fdma_reuse(MAX_READERS, GRID_BANDS).unwrap();
        assert_eq!(reuse.band(GRID_BANDS), reuse.band(0));
    }

    #[test]
    fn plan_validation_catches_bad_configs() {
        assert_eq!(FleetPlan::fdma(0), Err(FleetPlanError::NoReaders));
        assert_eq!(
            FleetPlan::fdma(9),
            Err(FleetPlanError::TooManyReaders { readers: 9 })
        );
        assert_eq!(
            FleetPlan::fdma_reuse(9, 2),
            Err(FleetPlanError::TooManyReaders { readers: 9 })
        );
        assert_eq!(
            FleetPlan::co_channel(9),
            Err(FleetPlanError::TooManyReaders { readers: 9 })
        );
        // Errors render readable messages.
        let e = FleetPlan::fdma(9).unwrap_err();
        assert!(e.to_string().contains("fleet size"));
    }

    #[test]
    fn co_channel_plan_shares_one_band() {
        let plan = FleetPlan::co_channel(3).unwrap();
        assert_eq!(plan.readers(), 3);
        for r in 0..3 {
            assert_eq!(plan.band(r), 0);
            assert_eq!(plan.carrier_hz(r), CARRIER_HZ);
        }
        // A co-channel receiver has nothing it can coherently reject.
        let rx = FleetReceiver::new(&plan, 0, 375.0);
        assert_eq!(rx.interferers.len(), 0);
    }

    fn packet_states(pkt: &UlPacket, spb: usize) -> Vec<PztState> {
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(pkt.to_bits().iter()).to_bools();
        let mut s = vec![PztState::Absorptive; 8 * spb];
        s.extend(BiwChannel::states_from_raw_bits(&raw, spb));
        s.extend(vec![PztState::Absorptive; 8 * spb]);
        s
    }

    #[test]
    fn rejection_recovers_packet_under_adjacent_carrier() {
        // Reader 0 decodes its tag while reader 1's 94 kHz carrier leaks
        // in; the rejection stage must recover the packet, and must
        // measurably remove the foreign carrier.
        let plan = FleetPlan::fdma(2).unwrap();
        let fleet = FleetChannel::new(
            ChannelConfig {
                noise: NoiseConfig::silent(),
                ..ChannelConfig::default()
            },
            plan.carriers(),
        );
        let pkt = UlPacket::new(8, 0x3A5).unwrap();
        let spb = (500_000.0f64 / 375.0).round() as usize;
        let states = packet_states(&pkt, spb);
        let own: [(u8, &[PztState]); 1] = [(8, &states)];
        let idle: [(u8, &[PztState]); 0] = [];
        let mut wave = Vec::new();
        fleet.rx_waveform_into(0, &[&own, &idle], states.len(), 3, &mut wave);

        let rx = FleetReceiver::new(&plan, 0, 375.0);
        assert_eq!(rx.interferers.len(), 1);
        let mut scratch = FleetRxScratch::default();
        let out = rx.process_slot_with(&wave, &mut scratch);
        assert_eq!(out.packet, Some(pkt), "rejection failed: {out:?}");

        // The 94 kHz component drops by well over 20 dB.
        let f1 = plan.carrier_hz(1);
        let corr_at = |w: &[f64]| {
            let om = 2.0 * std::f64::consts::PI * f1 / 500_000.0;
            let mut acc = Cplx::ZERO;
            for (n, &x) in w.iter().enumerate() {
                acc += Cplx::cis(-om * n as f64) * x;
            }
            (acc * (2.0 / w.len() as f64)).abs()
        };
        let before = corr_at(&wave);
        let mut cleaned = wave.clone();
        rx.reject_into(&mut cleaned, &mut Vec::new());
        let after = corr_at(&cleaned);
        assert!(
            after < before / 10.0,
            "interferer only dropped {before} -> {after}"
        );
    }

    #[test]
    fn single_reader_fleet_receiver_is_the_plain_chain() {
        let plan = FleetPlan::fdma(1).unwrap();
        let ch = BiwChannel::paper(ChannelConfig {
            seed: 7,
            ..ChannelConfig::default()
        });
        let pkt = UlPacket::new(5, 0x155).unwrap();
        let spb = (500_000.0f64 / 375.0).round() as usize;
        let states = packet_states(&pkt, spb);
        let wave = ch.uplink_waveform(&[(5, &states)], states.len());
        let rx = FleetReceiver::new(&plan, 0, 375.0);
        let mut scratch = FleetRxScratch::default();
        let fleet_out = rx.process_slot_with(&wave, &mut scratch);
        let plain_out = rx.inner().process_slot_with(&wave, &mut scratch.rx);
        assert_eq!(fleet_out, plain_out);
        assert_eq!(fleet_out.packet, Some(pkt));
    }
}
