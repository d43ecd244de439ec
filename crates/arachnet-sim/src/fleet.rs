//! Multi-reader fleet simulation: K reader cells sharing one Body-in-White.
//!
//! Two engines, mirroring the single-reader split:
//!
//! * [`FleetWaveSim`] — waveform-level: every cell's tag modulates its own
//!   packet, the [`biw_channel::fleet::FleetChannel`] matrix superposes all
//!   K carriers (plus reader→reader and reader→tag leakage) at one reader's
//!   DAQ, and the [`arachnet_reader::fleet::FleetReceiver`] decodes after
//!   rejecting the foreign carriers. A one-reader fleet reproduces
//!   [`WaveSim`](crate::wavesim::WaveSim) bit for bit.
//! * [`run_fleet`] — slot-level: each cell replays its own dynamic-network
//!   [`Scenario`] under the shared FDMA [`FleetPlan`], sharded over the
//!   sweep worker pool as a K×trials matrix. Cell `c`, trial `t` always
//!   runs at seed `trial_seed(trial_seed(base, c), t)`, so results are
//!   byte-identical at any `--threads`.
//!
//! Fleet-level telemetry rides on the flight recorder: each observed cell
//! trial opens with an [`EventKind::ReaderAssigned`] stamp, and cells that
//! share a sub-band (the plan ran out of spectrum, or the co-channel
//! baseline) carry an [`EventKind::CrossReaderCollision`] marker counting
//! their same-band neighbours.

use std::cell::RefCell;

use arachnet_core::packet::UlPacket;
use arachnet_obs::{DecodeFailReason, Event, EventKind, Recorder, RecorderSnapshot};
use arachnet_reader::fleet::{FleetPlan, FleetReceiver, FleetRxScratch};
use biw_channel::channel::ChannelConfig;
use biw_channel::fleet::{FleetChannel, FleetChannelConfig};
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;

use crate::config::ConfigError;
use crate::patterns::Pattern;
use crate::scenario::{ReconvergenceSample, Scenario};
use crate::slotsim::run_scenario_trial;
use crate::sweep::{run_matrix_sweep, trial_seed, MatrixRun, SweepConfig, TrialError};
use crate::wavesim::modulate_uplink;

/// Reusable fleet PHY working set: one PZT state stream per reader cell,
/// the superposed reader-side waveform, and the fleet receiver's scratch.
/// Capacities persist between packets; contents never influence results.
#[derive(Debug, Default)]
pub struct FleetPhyScratch {
    /// Per-cell per-sample PZT state streams for the packet under synthesis.
    pub states: Vec<Vec<PztState>>,
    /// Superposed waveform at the observed reader's DAQ.
    pub wave: Vec<f64>,
    /// Fleet receiver scratch (rejection buffer + single-reader DSP).
    pub rx: FleetRxScratch,
}

thread_local! {
    static FLEET_SCRATCH: RefCell<FleetPhyScratch> = RefCell::new(FleetPhyScratch::default());
}

/// Runs `f` with this thread's persistent [`FleetPhyScratch`]. Do not nest
/// calls (the inner one would re-borrow).
pub fn with_fleet_scratch<R>(f: impl FnOnce(&mut FleetPhyScratch) -> R) -> R {
    FLEET_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Result of a multi-reader uplink packet-loss trial at one reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetUplinkResult {
    /// Packets sent by the observed reader's own tag.
    pub sent: u64,
    /// Packets not decoded (or decoded wrong) at the observed reader.
    pub lost: u64,
    /// Packets where cross-reader interference was implicated: the slot
    /// was lost or the IQ clustering flagged a collision while foreign
    /// readers were active. Always 0 for a one-reader fleet.
    pub cross_collisions: u64,
    /// PSD-band SNR (dB) of the representative (index-0) waveform, after
    /// the receiver's interference rejection.
    pub snr_db: f64,
}

/// Waveform-level co-simulation of a reader fleet over one BiW.
///
/// Every cell runs the *same* tag id per trial — the worst case for
/// frequency-space division, since the foreign copies of the tag modulate
/// independent payloads on their own carriers and all of it lands on the
/// observed reader's DAQ.
pub struct FleetWaveSim {
    channel: FleetChannel,
    plan: FleetPlan,
    seed: u64,
}

impl FleetWaveSim {
    /// Fleet environment over the plan's carriers with the given noise
    /// floor at every cell.
    pub fn new(plan: FleetPlan, seed: u64, noise: NoiseConfig) -> Self {
        let channel = FleetChannel::new(FleetChannelConfig {
            base: ChannelConfig {
                noise,
                seed,
                ..ChannelConfig::default()
            },
            ..FleetChannelConfig::paper(plan.carriers().to_vec())
        });
        Self {
            channel,
            plan,
            seed,
        }
    }

    /// Default environment: the same calibrated noise floor as
    /// [`WaveSim::paper`](crate::wavesim::WaveSim::paper), so a one-reader
    /// fleet is the single-reader simulator exactly.
    pub fn paper(plan: FleetPlan, seed: u64) -> Self {
        Self::new(
            plan,
            seed,
            NoiseConfig {
                floor_sigma: 0.013,
                ..NoiseConfig::default()
            },
        )
    }

    /// The underlying channel matrix.
    pub fn channel(&self) -> &FleetChannel {
        &self.channel
    }

    /// The frequency plan this fleet runs under.
    pub fn plan(&self) -> &FleetPlan {
        &self.plan
    }

    /// A fleet receiver for `reader` at `ul_bps`, with interference
    /// rejection enabled. Build one per (reader, rate) — not per packet.
    pub fn fleet_rx(&self, reader: usize, ul_bps: f64) -> FleetReceiver {
        FleetReceiver::new(&self.plan, reader, ul_bps)
    }

    /// Base seed for `reader`'s (tag, rate) packet sequence: packet `i`
    /// uses `trial_seed(base, i)`. Reader 0 degenerates to
    /// [`WaveSim::uplink_base_seed`](crate::wavesim::WaveSim::uplink_base_seed),
    /// which is what makes the K=1 fleet bit-identical to the
    /// single-reader path.
    pub fn uplink_base_seed(&self, reader: usize, tid: u8, ul_bps: f64) -> u64 {
        trial_seed(
            self.seed ^ ((reader as u64) << 40) ^ (u64::from(tid) << 32),
            ul_bps.to_bits(),
        )
    }

    /// Sends packet `i` of every cell's sequence and decodes at `reader`.
    /// Returns `(own packet, decode)`, or a [`TrialError`] (trial = packet
    /// index) when `reader` is not in the fleet or `tid` overflows the
    /// packet's 4-bit TID field. Pure in `(reader, tid, i)`.
    fn uplink_packet_at(
        &self,
        rx: &FleetReceiver,
        reader: usize,
        tid: u8,
        i: u64,
        s: &mut FleetPhyScratch,
    ) -> Result<(UlPacket, arachnet_reader::rx::SlotRx), TrialError> {
        let k = self.channel.readers();
        let ul_bps = rx.inner().config().ul_bps;
        s.states.resize_with(k, Vec::new);
        let mut own_pkt = None;
        for c in 0..k {
            // Each cell's tag runs WaveSim's modulator with its clock
            // salted by the reader index (cell 0 unsalted).
            let fs = self.channel.cell(c).config().sample_rate;
            let seed_c = trial_seed(self.uplink_base_seed(c, tid, ul_bps), i);
            let clock_seed = self.seed ^ ((c as u64) << 40);
            let pkt = modulate_uplink(clock_seed, tid, fs, ul_bps, seed_c, &mut s.states[c])
                .map_err(|e| TrialError {
                    trial: i,
                    payload: format!("cell {c} packet synthesis: {e}"),
                    attempts: 1,
                })?;
            if c == reader {
                own_pkt = Some(pkt);
            }
        }
        let own_pkt = own_pkt.ok_or_else(|| TrialError {
            trial: i,
            payload: format!("observed reader {reader} is not in the {k}-reader fleet"),
            attempts: 1,
        })?;
        let tags: Vec<[(u8, &[PztState]); 1]> =
            s.states.iter().map(|st| [(tid, st.as_slice())]).collect();
        let cell_tags: Vec<&[(u8, &[PztState])]> =
            tags.iter().map(|t| t.as_slice()).collect();
        let len = s.states[reader].len();
        let seed_own = trial_seed(self.uplink_base_seed(reader, tid, ul_bps), i);
        self.channel
            .rx_waveform_into(reader, &cell_tags, len, seed_own, &mut s.wave);
        let out = rx.process_slot_with(&s.wave, &mut s.rx);
        Ok((own_pkt, out))
    }

    /// Multi-reader Fig. 12 analogue: sends `n` packets from `reader`'s
    /// own tag `tid` while every other cell's copy of the tag transmits
    /// concurrently on its own carrier; counts losses at `reader` and
    /// packets where cross-reader interference was implicated. Errors
    /// (rather than panicking) on an out-of-range `tid` or a `reader`
    /// index outside the fleet.
    pub fn uplink_trial(
        &self,
        rx: &FleetReceiver,
        reader: usize,
        tid: u8,
        n: u64,
    ) -> Result<FleetUplinkResult, TrialError> {
        self.uplink_trial_observed(rx, reader, tid, n, &mut Recorder::disabled())
    }

    /// [`Self::uplink_trial`] with a flight recorder watching every
    /// packet: decodes count as [`EventKind::Decoded`], losses land as
    /// [`EventKind::DecodeFail`], and interference-implicated packets as
    /// [`EventKind::CrossReaderCollision`] (slot = packet index).
    pub fn uplink_trial_observed(
        &self,
        rx: &FleetReceiver,
        reader: usize,
        tid: u8,
        n: u64,
        recorder: &mut Recorder,
    ) -> Result<FleetUplinkResult, TrialError> {
        let k = self.channel.readers();
        with_fleet_scratch(|s| {
            let mut snr_db = f64::NAN;
            let mut lost = 0;
            let mut cross = 0;
            for i in 0..n.max(1) {
                let (pkt, out) = self.uplink_packet_at(rx, reader, tid, i, s)?;
                if i == 0 {
                    snr_db = rx.uplink_snr_db_with(&s.wave, &mut s.rx);
                }
                if i >= n {
                    continue;
                }
                let ok = out.packet == Some(pkt);
                if ok {
                    recorder.note(EventKind::Decoded);
                } else {
                    lost += 1;
                    let reason = out.fail.unwrap_or(DecodeFailReason::BadCrc);
                    recorder.record(i, tid, EventKind::DecodeFail { reason });
                }
                if k > 1 && (!ok || out.collision) {
                    cross += 1;
                    recorder.record(
                        i,
                        tid,
                        EventKind::CrossReaderCollision {
                            readers: (k - 1).min(u8::MAX as usize) as u8,
                        },
                    );
                }
            }
            Ok(FleetUplinkResult {
                sent: n,
                lost,
                cross_collisions: cross,
                snr_db,
            })
        })
    }
}

/// One reader cell of a slot-level fleet run: its workload pattern and the
/// dynamic-network scenario it replays.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Metric label for this cell (e.g. `"cell0"`).
    pub name: String,
    /// The cell's Table-3 workload.
    pub pattern: Pattern,
    /// The cell's disruption script.
    pub scenario: Scenario,
}

/// Outcome of one cell × trial of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Sub-band index the plan assigned this cell.
    pub band: usize,
    /// Number of *other* cells sharing the band (frequency-space
    /// collisions waiting to happen; 0 under a clean FDMA plan).
    pub band_sharers: u8,
    /// Re-convergence measurements, one per disruption.
    pub samples: Vec<ReconvergenceSample>,
    /// Slots executed.
    pub slots: u64,
    /// Flight-recorder snapshot (empty unless this was the observed
    /// trial); opens with the cell's `ReaderAssigned` stamp, plus a
    /// `CrossReaderCollision` marker when the band is shared.
    pub snapshot: RecorderSnapshot,
}

/// Runs a K-cell fleet as a sharded (cell × trial) matrix over the sweep
/// worker pool. Cell `c`, trial `t` runs `run_scenario_trial` at seed
/// `trial_seed(trial_seed(sweep.base_seed, c), t)` — the derivation
/// [`run_matrix_sweep`] applies, since it runs the grid — so the result
/// grid is byte-identical at any thread count. Retries and the sweep
/// config's resilience policy (checkpoint/resume, budget) apply over the
/// flattened job space; counters land in the run's `stats`.
///
/// When `observe` is set, trial 0 of every cell records its flight; the
/// snapshot is prefixed with [`EventKind::ReaderAssigned`] (tag = reader
/// index) and, for cells whose sub-band is reused by a neighbour, an
/// [`EventKind::CrossReaderCollision`] marker counting the sharers.
///
/// # Errors
///
/// [`ConfigError::Inconsistent`] when `plan.readers() != cells.len()`.
pub fn run_fleet(
    plan: &FleetPlan,
    cells: &[FleetCell],
    trials: u64,
    sweep: &SweepConfig,
    cap: u64,
    observe: bool,
) -> Result<MatrixRun<CellOutcome>, ConfigError> {
    if plan.readers() != cells.len() {
        return Err(ConfigError::Inconsistent {
            reason: "fleet needs one FleetCell per planned reader",
        });
    }
    let sharing: Vec<u8> = (0..cells.len())
        .map(|c| {
            (0..cells.len())
                .filter(|&o| o != c && plan.band(o) == plan.band(c))
                .count()
                .min(u8::MAX as usize) as u8
        })
        .collect();
    let indexed: Vec<(usize, &FleetCell)> = cells.iter().enumerate().collect();
    let run = run_matrix_sweep(sweep, &indexed, trials, |&(c, cell), trial, seed| {
        let record = observe && trial == 0;
        let t = run_scenario_trial(&cell.pattern, &cell.scenario, seed, cap, false, record);
        let mut snapshot = t.snapshot;
        if record {
            let assigned = EventKind::ReaderAssigned {
                band: plan.band(c).min(u16::MAX as usize) as u16,
            };
            let mut events = Vec::with_capacity(snapshot.events.len() + 2);
            events.push(Event {
                slot: 0,
                tag: c as u8,
                kind: assigned,
            });
            snapshot.counts[assigned.index()] += 1;
            if sharing[c] > 0 {
                let collide = EventKind::CrossReaderCollision {
                    readers: sharing[c],
                };
                events.push(Event {
                    slot: 0,
                    tag: c as u8,
                    kind: collide,
                });
                snapshot.counts[collide.index()] += 1;
            }
            events.append(&mut snapshot.events);
            snapshot.events = events;
        }
        CellOutcome {
            band: plan.band(c),
            band_sharers: sharing[c],
            samples: t.samples,
            slots: t.slots,
            snapshot,
        }
    });
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::wavesim::{PhyScratch, WaveSim};
    use arachnet_core::slot::Period;

    const FS: f64 = 500_000.0;

    #[test]
    fn one_reader_fleet_matches_the_single_reader_wavesim() {
        // The whole point of the K=1 degenerate case: same seeds, same
        // channel, same receiver → bit-identical losses and SNR.
        let plan = FleetPlan::fdma(1, FS).unwrap();
        let fleet = FleetWaveSim::paper(plan, 42);
        let rx = fleet.fleet_rx(0, 375.0);
        let a = fleet.uplink_trial(&rx, 0, 8, 6).unwrap();
        let sim = WaveSim::paper(42);
        let b = sim.uplink_trial(8, 375.0, 6);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.snr_db, b.snr_db);
        assert_eq!(a.cross_collisions, 0);
        // Packet by packet: cell 0 runs WaveSim's modulator, so its state
        // stream, the waveform bits and the decode all equal
        // `WaveSim::uplink_packet`'s scratch.
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let mut fs = FleetPhyScratch::default();
        let mut ws = PhyScratch::default();
        for bps in [375.0, 3_000.0] {
            let frx = fleet.fleet_rx(0, bps);
            let wrx = sim.uplink_rx(bps);
            for tid in [8u8, 4, 11] {
                let base = sim.uplink_base_seed(tid, bps);
                for i in 0..4 {
                    let at = format!("tag {tid} at {bps} bps, packet {i}");
                    let (pkt, out) = fleet.uplink_packet_at(&frx, 0, tid, i, &mut fs).unwrap();
                    let ok = sim.uplink_packet(&wrx, tid, trial_seed(base, i), &mut ws);
                    assert_eq!(fs.states[0], ws.states, "state stream: {at}");
                    assert!(same_bits(&fs.wave, &ws.wave), "waveform: {at}");
                    let decode = wrx.process_slot_with(&ws.wave, &mut ws.rx);
                    assert_eq!(out, decode, "decode: {at}");
                    assert_eq!(out.packet == Some(pkt), ok, "verdict: {at}");
                }
            }
        }
    }

    #[test]
    fn fdma_fleet_survives_an_active_neighbour() {
        // Two cells 4 kHz apart, both tags transmitting: the observed
        // reader's rejection keeps the strong tag decodable.
        let plan = FleetPlan::fdma(2, FS).unwrap();
        let fleet = FleetWaveSim::paper(plan, 7);
        let rx = fleet.fleet_rx(0, 375.0);
        let r = fleet.uplink_trial(&rx, 0, 8, 5).unwrap();
        assert!(r.lost <= 1, "{}/{} lost under FDMA", r.lost, r.sent);
        assert!(r.snr_db > 5.0, "snr {:.1}", r.snr_db);
    }

    #[test]
    fn co_channel_fleet_flags_collisions_that_fdma_removes() {
        // Same fleet, same seeds, two plans. On the co-channel baseline
        // the neighbour's tag backscatters *in band*, so the IQ clustering
        // flags a cross-reader collision on every packet; under the FDMA
        // plan the neighbour sits 4 kHz away and the packets come through
        // clean. (The PSD band-ratio SNR is deliberately not compared:
        // in-band interference masquerades as signal energy there.)
        let fdma = {
            let plan = FleetPlan::fdma(2, FS).unwrap();
            let fleet = FleetWaveSim::paper(plan, 9);
            let rx = fleet.fleet_rx(0, 375.0);
            fleet.uplink_trial(&rx, 0, 8, 6).unwrap()
        };
        let co = {
            let plan = FleetPlan::co_channel(2, 90_000.0, FS).unwrap();
            let fleet = FleetWaveSim::paper(plan, 9);
            let rx = fleet.fleet_rx(0, 375.0);
            fleet.uplink_trial(&rx, 0, 8, 6).unwrap()
        };
        assert_eq!(fdma.cross_collisions, 0, "FDMA flagged {}", fdma.cross_collisions);
        assert_eq!(fdma.lost, 0, "FDMA lost {}/{}", fdma.lost, fdma.sent);
        assert!(
            co.cross_collisions > fdma.cross_collisions,
            "co-channel {} vs fdma {}",
            co.cross_collisions,
            fdma.cross_collisions
        );
    }

    #[test]
    fn fleet_trial_records_cross_reader_events() {
        let plan = FleetPlan::co_channel(2, 90_000.0, FS).unwrap();
        let fleet = FleetWaveSim::paper(plan, 21);
        let rx = fleet.fleet_rx(0, 1_500.0);
        let mut rec = Recorder::enabled(21);
        let r = fleet.uplink_trial_observed(&rx, 0, 11, 8, &mut rec).unwrap();
        let snap = rec.into_snapshot();
        let xidx = EventKind::CrossReaderCollision { readers: 0 }.index();
        assert_eq!(snap.count_at(xidx), r.cross_collisions);
        // Observed trials and bare trials agree.
        let bare = fleet.uplink_trial(&rx, 0, 11, 8).unwrap();
        assert_eq!(bare.lost, r.lost);
        assert_eq!(bare.cross_collisions, r.cross_collisions);
        assert_eq!(bare.snr_db, r.snr_db);
    }

    fn cells3() -> Vec<FleetCell> {
        let p = |v: u32| Period::new(v).unwrap();
        (0..3u64)
            .map(|c| FleetCell {
                name: format!("cell{c}"),
                pattern: Pattern::c1(),
                scenario: Scenario::builder()
                    .join(40 + 10 * c, 9, p(4))
                    .leave(200, 9)
                    .build()
                    .unwrap(),
            })
            .collect()
    }

    #[test]
    fn fleet_run_is_thread_invariant() {
        let plan = FleetPlan::fdma_reuse(3, 2, FS).unwrap();
        let cells = cells3();
        let run = |threads| {
            let cfg = SweepConfig::new(77).with_threads(threads);
            run_fleet(&plan, &cells, 2, &cfg, 20_000, true).unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.cells.len(), 3);
        assert_eq!(a.stats.completed, 6);
        assert_eq!(a.stats.quarantined, 0);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            for (ta, tb) in ca.iter().zip(cb) {
                assert_eq!(ta.as_ref().unwrap(), tb.as_ref().unwrap());
            }
        }
    }

    #[test]
    fn out_of_range_tid_is_an_error_not_a_panic() {
        // TID is a 4-bit packet field; 31 overflows it. The old library
        // `expect` aborted the whole sweep here.
        let plan = FleetPlan::fdma(2, FS).unwrap();
        let fleet = FleetWaveSim::paper(plan, 13);
        let rx = fleet.fleet_rx(0, 375.0);
        let e = fleet.uplink_trial(&rx, 0, 31, 4).unwrap_err();
        assert_eq!(e.trial, 0, "fails on the first packet");
        assert!(e.payload.contains("TID 31"), "{}", e.payload);
    }

    #[test]
    fn absent_observed_reader_is_an_error_not_a_panic() {
        let plan = FleetPlan::fdma(2, FS).unwrap();
        let fleet = FleetWaveSim::paper(plan, 13);
        let rx = fleet.fleet_rx(0, 375.0);
        let e = fleet.uplink_trial(&rx, 5, 8, 4).unwrap_err();
        assert!(
            e.payload.contains("reader 5 is not in the 2-reader fleet"),
            "{}",
            e.payload
        );
    }

    #[test]
    fn mismatched_plan_and_cells_is_a_config_error() {
        let plan = FleetPlan::fdma(2, FS).unwrap();
        let cells = cells3(); // 3 cells against a 2-reader plan
        let cfg = SweepConfig::new(1).with_threads(1);
        let err = run_fleet(&plan, &cells, 1, &cfg, 20_000, false).unwrap_err();
        assert!(matches!(err, ConfigError::Inconsistent { .. }));
    }

    #[test]
    fn fleet_snapshots_open_with_reader_assignment() {
        // fdma_reuse(3, 2) puts cells 0 and 2 on band 0, cell 1 on band 1:
        // the sharers get a CrossReaderCollision marker, the loner none.
        let plan = FleetPlan::fdma_reuse(3, 2, FS).unwrap();
        let cells = cells3();
        let cfg = SweepConfig::new(5).with_threads(1);
        let grid = run_fleet(&plan, &cells, 1, &cfg, 20_000, true)
            .unwrap()
            .cells;
        for (c, row) in grid.iter().enumerate() {
            let out = row[0].as_ref().unwrap();
            let first = out.snapshot.events.first().expect("recorded trial");
            assert_eq!(first.slot, 0);
            assert_eq!(first.tag, c as u8);
            assert_eq!(
                first.kind,
                EventKind::ReaderAssigned {
                    band: out.band as u16
                }
            );
            let xidx = EventKind::CrossReaderCollision { readers: 0 }.index();
            if out.band_sharers > 0 {
                assert_eq!(out.snapshot.count_at(xidx), 1, "cell {c}");
            } else {
                assert_eq!(out.snapshot.count_at(xidx), 0, "cell {c}");
            }
            // Convergence still measured per cell.
            assert!(out.slots > 0);
            assert_eq!(out.samples.len(), 2, "join + leave disruptions");
        }
        // Band reuse shape: two distinct bands across three cells.
        let bands: Vec<usize> = grid
            .iter()
            .map(|row| row[0].as_ref().unwrap().band)
            .collect();
        assert_eq!(bands, vec![0, 1, 0]);
    }

    #[test]
    fn unobserved_fleet_trials_carry_empty_snapshots() {
        let plan = FleetPlan::fdma(2, FS).unwrap();
        let cells = cells3().into_iter().take(2).collect::<Vec<_>>();
        let cfg = SweepConfig::new(3).with_threads(2);
        let grid = run_fleet(&plan, &cells, 2, &cfg, 20_000, false)
            .unwrap()
            .cells;
        for row in &grid {
            for t in row {
                assert!(t.as_ref().unwrap().snapshot.events.is_empty());
            }
        }
    }
}
