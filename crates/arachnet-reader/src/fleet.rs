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
//! Every sub-band carrier has an *exact* sample period at the DAQ rate, as
//! every carrier must: synthesis, mixing and the rejection itself index
//! one-period tables ([`CarrierTable`]) with no per-sample trig, and a plan
//! with any other carrier fails validation.

use std::fmt;

use arachnet_dsp::nco::CarrierTable;
use biw_channel::channel::{exact_carrier_period, CARRIER_HZ};
use biw_channel::fleet::{MAX_BAND_HZ, MIN_BAND_HZ};

use crate::rx::{carrier_corrections, carrier_table, RxConfig, RxScratch, SlotRx, UplinkReceiver};

/// Minimum sub-band separation (Hz) a valid FDMA plan must keep: wide
/// enough that the decimation filter puts a foreign carrier well outside
/// the modulation band at every paper bit rate.
pub const MIN_SPACING_HZ: f64 = 2_000.0;

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
    /// Two sub-bands sit closer than [`MIN_SPACING_HZ`].
    TooClose {
        /// One carrier of the offending pair (Hz).
        a: f64,
        /// The other carrier (Hz).
        b: f64,
    },
    /// A carrier has no exact sample period at the DAQ rate
    /// ([`exact_carrier_period`]), so neither its channel nor its receiver
    /// can be built.
    NoExactPeriod {
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
            FleetPlanError::TooClose { a, b } => write!(
                f,
                "sub-bands {a} Hz and {b} Hz closer than {MIN_SPACING_HZ} Hz"
            ),
            FleetPlanError::NoExactPeriod { carrier_hz } => write!(
                f,
                "carrier {carrier_hz} Hz has no exact sample period at the DAQ rate"
            ),
        }
    }
}

impl std::error::Error for FleetPlanError {}

/// A validated per-reader FDMA sub-band assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    sample_rate: f64,
    carriers: Vec<f64>,
}

impl FleetPlan {
    /// The default plan: `readers` sub-bands on a grid centred on the
    /// 90 kHz resonance at 4 kHz spacing (offsets 0, +4, −4, +8, … kHz),
    /// validated end to end.
    pub fn fdma(readers: usize, sample_rate: f64) -> Result<Self, FleetPlanError> {
        Self::with_spacing(readers, CARRIER_HZ, 4_000.0, sample_rate)
    }

    /// A plan on a centred grid with explicit base carrier and spacing.
    pub fn with_spacing(
        readers: usize,
        base_hz: f64,
        spacing_hz: f64,
        sample_rate: f64,
    ) -> Result<Self, FleetPlanError> {
        let carriers = (0..readers)
            .map(|r| {
                // 0, +1, -1, +2, -2, … grid steps.
                let step = (r as i64 + 1) / 2;
                let sign = if r % 2 == 1 { 1.0 } else { -1.0 };
                base_hz + sign * step as f64 * spacing_hz
            })
            .collect();
        let plan = Self {
            sample_rate,
            carriers,
        };
        plan.validate(true)?;
        Ok(plan)
    }

    /// A plan for more readers than available sub-bands: `bands` distinct
    /// sub-bands of the default grid, assigned round-robin, so some cells
    /// share a band. Spacing is validated across the *distinct* carriers;
    /// sharing itself is legal — the fleet soak uses exactly this shape to
    /// measure the cost of frequency-space collision (see
    /// [`FleetPlan::band`]).
    pub fn fdma_reuse(
        readers: usize,
        bands: usize,
        sample_rate: f64,
    ) -> Result<Self, FleetPlanError> {
        if readers > MAX_READERS {
            return Err(FleetPlanError::TooManyReaders { readers });
        }
        let grid = Self::fdma(bands.min(readers.max(1)), sample_rate)?;
        let carriers = (0..readers)
            .map(|r| grid.carriers[r % grid.readers()])
            .collect();
        let plan = Self {
            sample_rate,
            carriers,
        };
        plan.validate(false)?;
        Ok(plan)
    }

    /// The deliberately degenerate baseline: every reader on the *same*
    /// carrier. Skips the spacing check (that is the point) but still
    /// validates band membership and the exact-period requirement — this
    /// is the "no frequency-space division" arm of the interference
    /// experiments, not a plan anyone should deploy.
    pub fn co_channel(
        readers: usize,
        base_hz: f64,
        sample_rate: f64,
    ) -> Result<Self, FleetPlanError> {
        let plan = Self {
            sample_rate,
            carriers: vec![base_hz; readers],
        };
        plan.validate(false)?;
        Ok(plan)
    }

    fn validate(&self, check_spacing: bool) -> Result<(), FleetPlanError> {
        if self.carriers.is_empty() {
            return Err(FleetPlanError::NoReaders);
        }
        if self.carriers.len() > MAX_READERS {
            return Err(FleetPlanError::TooManyReaders {
                readers: self.carriers.len(),
            });
        }
        for &f in &self.carriers {
            if !(MIN_BAND_HZ..=MAX_BAND_HZ).contains(&f) {
                return Err(FleetPlanError::OutOfBand { carrier_hz: f });
            }
            if exact_carrier_period(self.sample_rate, f).is_none() {
                return Err(FleetPlanError::NoExactPeriod { carrier_hz: f });
            }
        }
        if check_spacing {
            for (i, &a) in self.carriers.iter().enumerate() {
                for &b in &self.carriers[i + 1..] {
                    if (a - b).abs() < MIN_SPACING_HZ {
                        return Err(FleetPlanError::TooClose { a, b });
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of readers in the plan.
    pub fn readers(&self) -> usize {
        self.carriers.len()
    }

    /// DAQ sample rate the plan was validated against (Hz).
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
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
            sample_rate: plan.sample_rate(),
            carrier_hz: own,
            ul_bps,
            ..RxConfig::default()
        };
        let interferers = plan
            .carriers()
            .iter()
            .enumerate()
            .filter(|&(r, &f)| r != reader && (f - own).abs() > 1.0)
            .map(|(_, &f)| carrier_table(plan.sample_rate(), f))
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
    use biw_channel::channel::{BiwChannel, ChannelConfig};
    use biw_channel::fleet::{FleetChannel, FleetChannelConfig};
    use biw_channel::noise::NoiseConfig;
    use biw_channel::pzt::PztState;

    #[test]
    fn fdma_plan_assigns_distinct_inband_carriers() {
        let plan = FleetPlan::fdma(4, 500_000.0).unwrap();
        assert_eq!(plan.readers(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..4 {
            let f = plan.carrier_hz(r);
            assert!((MIN_BAND_HZ..=MAX_BAND_HZ).contains(&f), "reader {r}: {f}");
            assert!(seen.insert(f as i64), "duplicate carrier {f}");
            assert!(
                exact_carrier_period(500_000.0, f).is_some(),
                "reader {r}: carrier {f} has no exact period"
            );
        }
        // Bands are a permutation of 0..readers.
        let mut bands: Vec<usize> = (0..4).map(|r| plan.band(r)).collect();
        bands.sort_unstable();
        assert_eq!(bands, vec![0, 1, 2, 3]);
    }

    #[test]
    fn plan_validation_catches_bad_configs() {
        assert_eq!(
            FleetPlan::fdma(0, 500_000.0),
            Err(FleetPlanError::NoReaders)
        );
        assert_eq!(
            FleetPlan::fdma(9, 500_000.0),
            Err(FleetPlanError::TooManyReaders { readers: 9 })
        );
        assert!(matches!(
            FleetPlan::with_spacing(2, 90_000.0, 500.0, 500_000.0),
            Err(FleetPlanError::TooClose { .. })
        ));
        assert!(matches!(
            FleetPlan::with_spacing(8, 90_000.0, 4_000.0, 500_000.0),
            Err(FleetPlanError::OutOfBand { .. })
        ));
        assert!(matches!(
            FleetPlan::with_spacing(2, 90_000.0, 2_000.0 + 0.12345, 500_000.0),
            Err(FleetPlanError::NoExactPeriod { .. })
        ));
        // Errors render readable messages.
        let e = FleetPlan::fdma(9, 500_000.0).unwrap_err();
        assert!(e.to_string().contains("fleet size"));
    }

    #[test]
    fn co_channel_plan_shares_one_band() {
        let plan = FleetPlan::co_channel(3, 90_000.0, 500_000.0).unwrap();
        assert_eq!(plan.readers(), 3);
        for r in 0..3 {
            assert_eq!(plan.band(r), 0);
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
        let plan = FleetPlan::fdma(2, 500_000.0).unwrap();
        let fleet = FleetChannel::new(FleetChannelConfig {
            base: ChannelConfig {
                noise: NoiseConfig::silent(),
                ..ChannelConfig::default()
            },
            carriers: plan.carriers().to_vec(),
            cross_gain: 0.25,
        });
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
        let plan = FleetPlan::fdma(1, 500_000.0).unwrap();
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
