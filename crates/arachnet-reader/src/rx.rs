//! The uplink receiver (Sec. 6.1's processing blocks, batch form).
//!
//! Chain: **down conversion** (mix the 500 kHz real stream to baseband
//! through one period of carrier phasors; a carrier without an exact sample
//! period is refused at construction, so no stage runs trig per sample) →
//! **filtering + decimation** (boxcar anti-alias, rate matched to ~16
//! samples per raw bit) → **PCA projection + adaptive slicing** (Schmitt
//! around the percentile midpoint — the backscatter rides on a large
//! carrier leak) → **edge-domain FM0 decoding** → CRC-checked packet, in
//! one pass per slot over a per-worker [`RxScratch`].
//!
//! Two design points worth calling out:
//!
//! * decoding works on *edge intervals*, classifying each run as 1 or 2
//!   raw-bit durations with the duration estimated from the signal itself.
//!   FM0 guarantees a transition at every symbol boundary, so the decoder
//!   automatically absorbs the tag's ±3 % clock drift that would break a
//!   fixed-grid sampler over a 64-raw-bit packet;
//! * collision detection (Sec. 5.3) clusters the decimated IQ samples: one
//!   backscatterer makes ≤2 clusters, two make up to 4 — "if more than two
//!   clusters are identified, we infer that a collision has occurred". The
//!   verdict is MAC feedback that a packet-loss count does not need, so it
//!   is a call of its own, [`UplinkReceiver::iq_clusters`], over the IQ the
//!   slot's decode left in the scratch: a decode alone never clusters.

use arachnet_core::bits::BitBuf;
use arachnet_core::fm0::{self, Fm0Encoder};
use arachnet_core::packet::{UlPacket, UL_PREAMBLE};
use arachnet_core::rates::DEFAULT_UL_BPS;
use arachnet_dsp::cluster::{cluster_iq, ClusterConfig};
use arachnet_dsp::cplx::Cplx;
use arachnet_dsp::nco::CarrierTable;
use arachnet_dsp::psd::{welch_psd_into, Psd, WelchScratch};
use arachnet_dsp::schmitt::{Edge, Schmitt};
use arachnet_dsp::window::Window;
use arachnet_obs::DecodeFailReason;
use biw_channel::channel::{exact_carrier_period, CARRIER_HZ, SAMPLE_RATE_HZ};

/// Shortest Welch segment of the SNR estimate, in samples.
const MIN_WELCH_SEG: usize = 256;

/// The conjugate-carrier table of `carrier_hz` at `fs`, over its exact
/// sample period: every carrier path of the reader (mixing, the SNR's
/// carrier canceller, fleet interference rejection) indexes one.
///
/// # Panics
/// When `carrier_hz` has no exact sample period at `fs`
/// ([`exact_carrier_period`]).
pub(crate) fn carrier_table(fs: f64, carrier_hz: f64) -> CarrierTable {
    let period = exact_carrier_period(fs, carrier_hz)
        .unwrap_or_else(|| panic!("carrier {carrier_hz} Hz has no exact sample period at {fs} Hz"));
    CarrierTable::new(fs, carrier_hz, period)
}

/// The coherent estimate `a = (2/N) Σ x[n] e^{-jωn}` of `tab`'s carrier
/// in `wave` (a wrapping phase counter over the table), and its
/// correction per table phase, `corr[k] = (phasor[k].conj() · a).re`:
/// `wave[n] − corr[n mod p]` removes the carrier. The SNR's carrier
/// canceller and the fleet's interference rejection both run it.
pub(crate) fn carrier_corrections(tab: &CarrierTable, wave: &[f64], corr: &mut Vec<f64>) -> Cplx {
    let phasors = tab.phasors();
    let p = phasors.len();
    let mut acc = Cplx::ZERO;
    let mut ph = 0usize;
    for &x in wave {
        acc += phasors[ph] * x;
        ph += 1;
        if ph == p {
            ph = 0;
        }
    }
    let a = acc * (2.0 / wave.len() as f64);
    corr.clear();
    corr.extend(phasors.iter().map(|z| (z.conj() * a).re));
    a
}

/// Reusable per-worker working set for the RX chain. Every buffer that
/// scales with the waveform — mix → decimate, the projection, its
/// percentile copy and the edge list for the decode; the step copies and
/// the clustering sub-sample for the collision verdict — lives here, so a
/// warm receiver allocates none of them again. The SNR path holds no
/// waveform-length buffer: one carrier period of corrections, the Welch
/// scratch (one segment of at most 8192 samples, cleaned as Welch asks for
/// it) and the PSD. A decode still allocates a small, bounded working set:
/// the edge decoder builds its transition and bit-clock lists and up to two
/// `BitBuf`s (sized by the edge count). The verdict call adds
/// `cluster_iq`'s seeds, assignment and per-k centers (at most ~1500
/// sub-sampled points). Scratch contents never influence results — only
/// capacities persist between calls — with one exception:
/// [`UplinkReceiver::iq_clusters`] reads the IQ that the last
/// [`UplinkReceiver::process_slot_with`] left. So sharing one scratch per
/// worker thread keeps sweep results bit-identical at any thread count.
#[derive(Debug, Clone, Default)]
pub struct RxScratch {
    iq: Vec<Cplx>,
    tmp: Vec<Cplx>,
    proj: Vec<f64>,
    proj_sel: Vec<f64>,
    steps: Vec<f64>,
    steps_sel: Vec<f64>,
    settled: Vec<Cplx>,
    sub: Vec<Cplx>,
    edges: Vec<Edge>,
    corr: Vec<f64>,
    welch: WelchScratch,
    psd: Psd,
}

/// Minimum modulation contrast (fraction of the envelope midpoint) below
/// which a slot is declared empty (a reproduction choice).
pub const MIN_CONTRAST: f64 = 0.002;

/// Receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct RxConfig {
    /// DAQ sample rate (Hz).
    pub sample_rate: f64,
    /// Carrier frequency (Hz).
    pub carrier_hz: f64,
    /// Expected UL raw bit rate (bps).
    pub ul_bps: f64,
}

impl Default for RxConfig {
    fn default() -> Self {
        Self {
            sample_rate: SAMPLE_RATE_HZ,
            carrier_hz: CARRIER_HZ,
            ul_bps: DEFAULT_UL_BPS,
        }
    }
}

/// Result of processing one slot's waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRx {
    /// CRC-valid decoded packet, if any.
    pub packet: Option<UlPacket>,
    /// Envelope edges detected (diagnostics).
    pub edges: usize,
    /// Why no packet was decoded (`None` when `packet` is `Some`).
    ///
    /// Note the receiver cannot tell an empty slot from a transmission it
    /// failed to detect: a genuinely idle slot reads `NoModulation` (or
    /// `TooShort`). Whether that is a *failure* is the caller's call — the
    /// sim layer only records a `DecodeFail` event when it knows a tag
    /// actually transmitted.
    pub fail: Option<DecodeFailReason>,
}

impl SlotRx {
    /// An empty-slot result.
    pub fn empty() -> Self {
        Self {
            packet: None,
            edges: 0,
            fail: Some(DecodeFailReason::NoModulation),
        }
    }
}

/// The batch uplink receiver.
///
/// ```
/// use arachnet_reader::rx::{RxConfig, UplinkReceiver};
///
/// let rx = UplinkReceiver::new(RxConfig::default());
/// // At the default 375 bps the decimator snaps to 75 — a multiple of 25,
/// // placing a boxcar null exactly on the 180 kHz mixing image.
/// assert_eq!(rx.decimation(), 75);
/// ```
#[derive(Debug, Clone)]
pub struct UplinkReceiver {
    cfg: RxConfig,
    /// FM0 raw-bit expansion of the UL preamble (16 raw bits).
    preamble_raw: Vec<bool>,
    /// Exact-period conjugate-carrier table.
    carrier_tab: CarrierTable,
}

impl UplinkReceiver {
    /// Receiver with the given configuration.
    ///
    /// # Panics
    /// When `cfg.carrier_hz` has no exact sample period at
    /// `cfg.sample_rate` ([`exact_carrier_period`]).
    pub fn new(cfg: RxConfig) -> Self {
        let mut enc = Fm0Encoder::new();
        let preamble_raw = enc.encode(UL_PREAMBLE.iter().copied()).to_bools();
        let carrier_tab = carrier_table(cfg.sample_rate, cfg.carrier_hz);
        Self {
            cfg,
            preamble_raw,
            carrier_tab,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &RxConfig {
        &self.cfg
    }

    /// Decimation factor used for this rate.
    ///
    /// The raw target is ~16 output samples per raw bit, but the factor is
    /// snapped to a multiple that places a boxcar null *exactly* on the
    /// 2·f_c mixing image (for 90 kHz at 500 kHz: 2f_c/f_s = 9/25, so any
    /// multiple of 25 nulls it) — otherwise the image ripple rivals the
    /// modulation contrast of far tags.
    pub fn decimation(&self) -> usize {
        let target = (self.cfg.sample_rate / (self.cfg.ul_bps * 16.0)).max(1.0);
        // Find q such that 2·fc/fs = p/q in lowest terms.
        let image = 2.0 * self.cfg.carrier_hz;
        let q = {
            // Rational approximation with small denominator.
            let mut best = 1usize;
            let mut err = f64::MAX;
            for cand in 1..=200usize {
                let ratio = image * cand as f64 / self.cfg.sample_rate;
                let e = (ratio - ratio.round()).abs();
                if e < err - 1e-12 {
                    err = e;
                    best = cand;
                    if e < 1e-9 {
                        break;
                    }
                }
            }
            best
        };
        let snapped = ((target / q as f64).round() as usize).max(1) * q;
        snapped.max(q)
    }

    /// Mixes and decimates a slot waveform to baseband IQ.
    ///
    /// Two cascaded boxcars (a triangular response) are used before
    /// decimation: a single boxcar leaves ~1 % of the 2·f_c mixing image,
    /// which is comparable to the modulation contrast of the weakest tags;
    /// squaring the rejection buries it.
    fn to_baseband_into(&self, wave: &[f64], iq: &mut Vec<Cplx>, tmp: &mut Vec<Cplx>) {
        let d = self.decimation();
        // Single fused pass: mix → boxcar → boxcar → keep every d-th
        // sample. Arithmetically identical to materializing each stage
        // (same running sums, same divisions, in the same order) but only
        // two length-d rings stay live — no full-rate buffers — and the
        // second boxcar's division runs only at the samples the decimator
        // keeps, since every other quotient would be thrown away.
        iq.clear();
        iq.reserve(wave.len().div_ceil(d));
        tmp.clear();
        tmp.resize(2 * d, Cplx::ZERO);
        let (ring1, ring2) = tmp.split_at_mut(d);
        let phasors = self.carrier_tab.phasors();
        let p = phasors.len();
        let mut ph = 0usize;
        let (mut acc1, mut acc2) = (Cplx::ZERO, Cplx::ZERO);
        let mut idx = 0usize; // i mod d, wrapping — ring slot and keep mark
        for (i, &x) in wave.iter().enumerate() {
            let z = phasors[ph] * x;
            ph += 1;
            if ph == p {
                ph = 0;
            }
            acc1 += z;
            let o1 = if i >= d {
                acc1 -= ring1[idx];
                acc1 / d as f64
            } else {
                acc1 / (i + 1) as f64
            };
            ring1[idx] = z;
            acc2 += o1;
            if i >= d {
                acc2 -= ring2[idx];
                if idx == 0 {
                    iq.push(acc2 / d as f64);
                }
            } else if idx == 0 {
                iq.push(acc2 / (i + 1) as f64);
            }
            ring2[idx] = o1;
            idx += 1;
            if idx == d {
                idx = 0;
            }
        }
    }

    /// Processes one slot's waveform.
    ///
    /// Slicing operates on the *principal-component projection* of the IQ
    /// samples, not on the envelope magnitude: when a tag's backscatter
    /// phasor lands near quadrature with the carrier leak, |IQ| barely
    /// moves (the classic backscatter blind spot), but the modulation axis
    /// in the IQ plane always carries the full swing.
    pub fn process_slot(&self, wave: &[f64]) -> SlotRx {
        self.process_slot_with(wave, &mut RxScratch::default())
    }

    /// [`UplinkReceiver::process_slot`] over a caller-owned scratch: bit-
    /// identical results, but a warm scratch keeps every waveform-sized
    /// buffer (see [`RxScratch`]). Keep one scratch per worker thread. The
    /// slot's decimated IQ stays in the scratch for
    /// [`UplinkReceiver::iq_clusters`].
    pub fn process_slot_with(&self, wave: &[f64], scratch: &mut RxScratch) -> SlotRx {
        let RxScratch {
            iq,
            tmp,
            proj,
            proj_sel,
            edges,
            ..
        } = scratch;
        if wave.len() < 64 {
            // No IQ either, so the verdict reads one cluster.
            iq.clear();
            return SlotRx {
                fail: Some(DecodeFailReason::TooShort),
                ..SlotRx::empty()
            };
        }
        self.to_baseband_into(wave, iq, tmp);
        let n = iq.len() as f64;
        let mean = iq.iter().fold(Cplx::ZERO, |a, &z| a + z) / n;
        // 2×2 covariance → principal axis.
        let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
        for &z in iq.iter() {
            let d = z - mean;
            sxx += d.re * d.re;
            sxy += d.re * d.im;
            syy += d.im * d.im;
        }
        let theta = 0.5 * (2.0 * sxy).atan2(sxx - syy);
        let (ct, st) = (theta.cos(), theta.sin());
        proj.clear();
        proj.extend(
            iq.iter()
                .map(|z| (z.re - mean.re) * ct + (z.im - mean.im) * st),
        );

        // Adaptive slicing thresholds from projection percentiles.
        proj_sel.clear();
        proj_sel.extend_from_slice(proj);
        let last = (proj_sel.len() - 1) as f64;
        let p = |q: f64| (last * q) as usize;
        let (lo, hi) = order_stats(proj_sel, p(0.05), p(0.95));
        let mid = 0.5 * (lo + hi);
        let range = hi - lo;
        let leak_scale = mean.abs().max(1e-12);
        if !range.is_finite() || range < MIN_CONTRAST * leak_scale {
            // A non-finite range means NaN/Inf samples poisoned the
            // percentiles (degenerate channel config); there is no usable
            // modulation contrast either way, and building a Schmitt slicer
            // from non-finite thresholds would panic.
            // No modulation: empty slot. The IQ stays for the verdict, which
            // may still see something odd in it.
            return SlotRx::empty();
        }

        let mut slicer = Schmitt::new(mid + 0.2 * range * 0.5, mid - 0.2 * range * 0.5);
        slicer.process_edges_into(proj, edges);
        // The PCA axis sign is arbitrary; the decoder's dual-polarity scan
        // absorbs it.
        let (packet, fail) = match self.decode_edges_internal(edges) {
            Ok(pkt) => (Some(pkt), None),
            Err(reason) => (None, Some(reason)),
        };
        SlotRx {
            packet,
            edges: edges.len(),
            fail,
        }
    }

    /// Counts the significant IQ clusters of the slot that the last
    /// [`UplinkReceiver::process_slot_with`] over `scratch` decoded (the
    /// Sec. 5.3 collision verdict: more than two means a collision). The
    /// IQ is sub-sampled for speed; a slot too short to decode reads one
    /// cluster.
    ///
    /// Samples in the middle of a symbol transition (the anti-alias ramp)
    /// sit between constellation points and inflate the within-cluster
    /// spread, hiding weak tags' states; they are removed by a local
    /// derivative test before clustering.
    pub fn iq_clusters(&self, scratch: &mut RxScratch) -> usize {
        let RxScratch {
            iq,
            steps,
            steps_sel,
            settled,
            sub,
            ..
        } = scratch;
        if iq.len() < 3 {
            return 1;
        }
        // Local step sizes; settled samples move far less than ramps. The
        // cutoff keys on the large (ramp) steps — a median-based cutoff
        // collapses on noiseless channels where settled steps are ~0.
        steps.clear();
        steps.extend(iq.windows(2).map(|w| (w[1] - w[0]).abs()));
        steps_sel.clear();
        steps_sel.extend_from_slice(steps);
        let len = steps_sel.len();
        let (median_step, p95_step) = order_stats(steps_sel, len / 2, (len - 1) * 19 / 20);
        let cutoff = (3.0 * median_step).max(0.25 * p95_step).max(1e-12);
        settled.clear();
        settled.extend(
            (1..iq.len() - 1)
                .filter(|&i| steps[i - 1] < cutoff && steps[i] < cutoff)
                .map(|i| iq[i]),
        );
        let source: &[Cplx] = if settled.len() >= iq.len() / 4 {
            settled
        } else {
            iq
        };
        let stride = (source.len() / 1_500).max(1);
        sub.clear();
        sub.extend(source.iter().step_by(stride).copied());
        let cfg = ClusterConfig {
            separation_ratio: 3.5,
            ..ClusterConfig::default()
        };
        cluster_iq(sub, cfg).len()
    }

    /// Edge-domain FM0 decode: runs → raw bits → preamble search → packet.
    /// `Err` carries the first stage that could not proceed.
    fn decode_edges_internal(&self, edges: &[Edge]) -> Result<UlPacket, DecodeFailReason> {
        if edges.len() < 8 {
            return Err(DecodeFailReason::TooFewEdges);
        }
        // Build (start, level) transitions; run k spans transition k→k+1.
        let times: Vec<(usize, bool)> = edges
            .iter()
            .map(|e| match *e {
                Edge::Rising(i) => (i, true),
                Edge::Falling(i) => (i, false),
            })
            .collect();

        // Estimate the raw-bit duration in decimated samples. Nominal:
        let t_nom = self.cfg.sample_rate / (self.cfg.ul_bps * self.decimation() as f64);
        let mut shorts = Vec::new();
        for w in times.windows(2) {
            let run = (w[1].0 - w[0].0) as f64;
            if run > 0.6 * t_nom && run < 1.4 * t_nom {
                shorts.push(run);
            } else if run > 1.6 * t_nom && run < 2.4 * t_nom {
                shorts.push(run / 2.0);
            }
        }
        if shorts.is_empty() {
            return Err(DecodeFailReason::NoBitClock);
        }
        let t_est = shorts.iter().sum::<f64>() / shorts.len() as f64;

        // Expand runs to raw bits. The run before the first edge and after
        // the last are unbounded (idle), so only interior runs count; the
        // level during run k is the polarity of transition k.
        let mut raw = BitBuf::new();
        // The level *before* the first transition may hold the packet's
        // clipped head run (up to 2 raw bits — e.g. the slicer armed
        // mid-run, or the idle level coincides with the first symbol's
        // level under inverted polarity). Prepend it unconditionally: a
        // wrong guess cannot produce a CRC-valid packet.
        if let Some(&(_, first_lvl)) = times.first() {
            raw.push(!first_lvl);
            raw.push(!first_lvl);
        }
        for (ri, w) in times.windows(2).enumerate() {
            let run = (w[1].0 - w[0].0) as f64;
            let n = (run / t_est).round() as usize;
            if !(1..=2).contains(&n) {
                if ri == 0 && n > 2 {
                    // Stream-onset artifact: the receiver switched on mid-
                    // level, so the first run absorbed idle time. Only its
                    // tail can belong to the packet — keep 2 raw bits (the
                    // CRC rejects wrong guesses).
                    raw.push(w[0].1);
                    raw.push(w[0].1);
                    continue;
                }
                // Not a legal FM0 run: restart decoding after this point by
                // inserting a separator the preamble search cannot match.
                // (Simplest: push 3 alternating bits which kill alignment.)
                raw.push(w[0].1);
                raw.push(!w[0].1);
                raw.push(w[0].1);
                continue;
            }
            for _ in 0..n {
                raw.push(w[0].1);
            }
        }

        // Symmetrically, the run after the final transition merges with the
        // idle tail and never produces an edge: append two bits of the
        // ongoing level.
        if let Some(&(_, lvl)) = times.last() {
            raw.push(lvl);
            raw.push(lvl);
        }

        // Slide the FM0-expanded preamble over the raw stream; the
        // envelope polarity depends on the leak-relative backscatter phase,
        // so scan both senses.
        let (pkt, saw_preamble_a) = self.scan_raw(&raw);
        if let Some(pkt) = pkt {
            return Ok(pkt);
        }
        let inverted: BitBuf = raw.iter().map(|b| !b).collect();
        let (pkt, saw_preamble_b) = self.scan_raw(&inverted);
        match pkt {
            Some(pkt) => Ok(pkt),
            None if saw_preamble_a || saw_preamble_b => Err(DecodeFailReason::BadCrc),
            None => Err(DecodeFailReason::NoPreamble),
        }
    }

    /// Scans a recovered raw-bit stream for a preamble + CRC-valid body.
    /// Also reports whether *any* preamble alignment matched (to tell a
    /// CRC reject apart from never finding the preamble at all).
    fn scan_raw(&self, raw: &BitBuf) -> (Option<UlPacket>, bool) {
        let pre = &self.preamble_raw;
        let need_body = 2 * (arachnet_core::packet::UL_PACKET_BITS - 8);
        if raw.len() < pre.len() + need_body {
            return (None, false);
        }
        let mut saw_preamble = false;
        'outer: for start in 0..=(raw.len() - pre.len() - need_body) {
            for (k, &pb) in pre.iter().enumerate() {
                if raw.get(start + k) != Some(pb) {
                    continue 'outer;
                }
            }
            saw_preamble = true;
            let body_raw = raw
                .slice(start + pre.len(), need_body)
                .expect("bounds checked");
            if let Ok(body_bits) = fm0::decode_lenient(&body_raw) {
                if let Ok(pkt) = UlPacket::from_body_bits(&body_bits) {
                    return (Some(pkt), true);
                }
            }
        }
        (None, saw_preamble)
    }

    /// The paper's Fig. 12(a) SNR: backscatter sideband power density over
    /// the surrounding band's density.
    ///
    /// The CW carrier leak (and the unmodulated mean of the backscatter)
    /// sits exactly at f_c and would spill through the analysis window's
    /// sidelobes into the modulation band, so it is coherently estimated
    /// and subtracted before the PSD — the "frequency offset calibration"
    /// stage of the real reader does the equivalent job. A waveform shorter
    /// than one 256-sample Welch segment has no SNR to measure and reads
    /// `NaN`.
    pub fn uplink_snr_db(&self, wave: &[f64]) -> f64 {
        self.uplink_snr_db_with(wave, &mut RxScratch::default())
    }

    /// [`UplinkReceiver::uplink_snr_db`] over a caller-owned scratch
    /// (allocation-free once warm; identical results).
    pub fn uplink_snr_db_with(&self, wave: &[f64], scratch: &mut RxScratch) -> f64 {
        if wave.len() < MIN_WELCH_SEG {
            return f64::NAN;
        }
        let fc = self.cfg.carrier_hz;
        let r = self.cfg.ul_bps;
        let RxScratch {
            corr, welch, psd, ..
        } = scratch;
        // The carrier's correction only takes one value per table phase,
        // so subtraction is a lookup.
        carrier_corrections(&self.carrier_tab, wave, corr);
        let corr = &*corr;
        let p = corr.len();
        let fs = self.cfg.sample_rate;
        let seg = 8_192
            .min(wave.len().next_power_of_two() / 2)
            .max(MIN_WELCH_SEG);
        // Welch asks for the packet piece by piece; each piece is written
        // as `wave − carrier` straight from the waveform, so the cleaned
        // packet never exists whole. One `%` per piece; a wrapping counter
        // after that.
        let clean = |start: usize, out: &mut [f64]| {
            let mut ph = start % p;
            for (y, &x) in out.iter_mut().zip(&wave[start..]) {
                *y = x - corr[ph];
                ph += 1;
                if ph == p {
                    ph = 0;
                }
            }
        };
        welch_psd_into(wave.len(), clean, fs, seg, Window::Hann, welch, psd);
        let psd = &*psd;
        let band = |lo: f64, hi: f64| psd.band_power(lo, hi);
        // Modulation sidebands of FM0 OOK at raw rate R.
        let sig = band(fc + 0.1 * r, fc + 2.0 * r) + band(fc - 2.0 * r, fc - 0.1 * r);
        let sig_bw = 2.0 * 1.9 * r;
        let noise = band(fc + 4.0 * r, fc + 12.0 * r) + band(fc - 12.0 * r, fc - 4.0 * r);
        let noise_bw = 2.0 * 8.0 * r;
        let sig_d = (sig / sig_bw).max(f64::MIN_POSITIVE);
        let noise_d = (noise / noise_bw).max(f64::MIN_POSITIVE);
        10.0 * (sig_d / noise_d).log10()
    }
}

/// The values a full `sort_by(f64::total_cmp)` of `v` would put at
/// indices `i` and `j`, found by selection: the larger index first, then
/// the smaller one inside the prefix below it. `total_cmp` is a total
/// order, so each pick is bit-identical to the sorted element. Reorders
/// `v`.
fn order_stats(v: &mut [f64], i: usize, j: usize) -> (f64, f64) {
    let (lo, hi) = (i.min(j), i.max(j));
    let (below, &mut at_hi, _) = v.select_nth_unstable_by(hi, f64::total_cmp);
    let at_lo = if lo < hi {
        *below.select_nth_unstable_by(lo, f64::total_cmp).1
    } else {
        at_hi
    };
    if i <= j {
        (at_lo, at_hi)
    } else {
        (at_hi, at_lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biw_channel::channel::{BiwChannel, ChannelConfig};
    use biw_channel::noise::NoiseConfig;
    use biw_channel::pzt::PztState;

    fn channel(noise: NoiseConfig) -> BiwChannel {
        BiwChannel::paper(ChannelConfig {
            noise,
            seed: 7,
            ..ChannelConfig::default()
        })
    }

    /// Synthesizes one tag's packet transmission into a reader waveform.
    fn tag_waveform(ch: &BiwChannel, tid: u8, packet: &UlPacket, bps: f64) -> Vec<f64> {
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(packet.to_bits().iter()).to_bools();
        let spb = (500_000.0f64 / bps).round() as usize;
        // Idle lead-in and tail.
        let mut states = vec![PztState::Absorptive; 8 * spb];
        states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
        states.extend(vec![PztState::Absorptive; 8 * spb]);
        let len = states.len();
        ch.uplink_waveform(&[(tid, &states)], len)
    }

    #[test]
    fn carrier_corrections_recover_and_cancel_a_tone() {
        // 90 kHz at 500 kHz: the 50-sample table. Over whole periods the
        // 2ω image sums to zero, so the estimate is the tone's phasor and
        // the corrections are the tone itself.
        let tab = carrier_table(SAMPLE_RATE_HZ, CARRIER_HZ);
        assert_eq!(tab.period(), 50);
        let (amp, phase) = (0.37, 1.1);
        let w = 2.0 * std::f64::consts::PI * CARRIER_HZ / SAMPLE_RATE_HZ;
        let tone: Vec<f64> = (0..5_000)
            .map(|n| amp * (w * n as f64 + phase).cos())
            .collect();
        let mut corr = Vec::new();
        let a = carrier_corrections(&tab, &tone, &mut corr);
        assert!((a.abs() - amp).abs() < 1e-9 * amp, "amplitude {}", a.abs());
        assert!((a.arg() - phase).abs() < 1e-9, "phase {}", a.arg());
        assert_eq!(corr.len(), 50);
        for (n, &x) in tone.iter().enumerate() {
            let left = x - corr[n % 50];
            assert!(left.abs() < 1e-9 * amp, "sample {n}: {left}");
        }
    }

    /// Decodes `wave` and reads the slot's collision verdict over one
    /// fresh scratch.
    fn decode_and_cluster(rx: &UplinkReceiver, wave: &[f64]) -> (SlotRx, usize) {
        let mut scratch = RxScratch::default();
        let out = rx.process_slot_with(wave, &mut scratch);
        (out, rx.iq_clusters(&mut scratch))
    }

    #[test]
    fn nan_bearing_waveform_does_not_panic_the_rx_chain() {
        // Regression: the adaptive-slicing percentile sort used
        // `partial_cmp().unwrap()`, so one NaN sample from a degenerate
        // channel config panicked the whole sweep worker. With `total_cmp`
        // the chain must classify the slot (any outcome) without panicking.
        let ch = channel(NoiseConfig::silent());
        let pkt = UlPacket::new(8, 0xABC).unwrap();
        let mut wave = tag_waveform(&ch, 8, &pkt, 375.0);
        for i in (0..wave.len()).step_by(97) {
            wave[i] = f64::NAN;
        }
        let mid = wave.len() / 2;
        wave[mid] = f64::INFINITY;
        let rx = UplinkReceiver::new(RxConfig::default());
        let mut scratch = RxScratch::default();
        let out = rx.process_slot_with(&wave, &mut scratch);
        // No particular decode outcome is required — only survival.
        assert!(out.edges < wave.len(), "edge count stayed bounded");
    }

    #[test]
    fn decodes_clean_packet_from_strong_tag() {
        let ch = channel(NoiseConfig::silent());
        let pkt = UlPacket::new(8, 0xABC).unwrap();
        let wave = tag_waveform(&ch, 8, &pkt, 375.0);
        let rx = UplinkReceiver::new(RxConfig::default());
        let (out, clusters) = decode_and_cluster(&rx, &wave);
        assert_eq!(out.packet, Some(pkt));
        assert!(
            clusters <= 2,
            "single tag flagged as collision: {clusters} clusters"
        );
    }

    #[test]
    fn decodes_weak_far_tag() {
        let ch = channel(NoiseConfig::default());
        let pkt = UlPacket::new(11, 0x123).unwrap();
        let wave = tag_waveform(&ch, 11, &pkt, 375.0);
        let rx = UplinkReceiver::new(RxConfig::default());
        let out = rx.process_slot(&wave);
        assert_eq!(out.packet, Some(pkt), "edges={}", out.edges);
    }

    #[test]
    fn decodes_at_all_paper_rates() {
        let ch = channel(NoiseConfig::silent());
        for bps in [93.75, 187.5, 375.0, 750.0, 1_500.0, 3_000.0] {
            let pkt = UlPacket::new(4, 0x5A5).unwrap();
            let wave = tag_waveform(&ch, 4, &pkt, bps);
            let rx = UplinkReceiver::new(RxConfig {
                ul_bps: bps,
                ..RxConfig::default()
            });
            let out = rx.process_slot(&wave);
            assert_eq!(out.packet, Some(pkt), "rate {bps}");
        }
    }

    #[test]
    fn empty_slot_yields_nothing() {
        let ch = channel(NoiseConfig::default());
        let wave = ch.uplink_waveform(&[], 100_000);
        let rx = UplinkReceiver::new(RxConfig::default());
        let (out, clusters) = decode_and_cluster(&rx, &wave);
        assert_eq!(out.packet, None);
        assert!(clusters <= 2, "{clusters} clusters");
    }

    #[test]
    fn two_tags_flag_collision() {
        // Two concurrent backscatterers with *different* data: the IQ
        // constellation shows the Cartesian product of their states.
        let ch = channel(NoiseConfig::silent());
        let p1 = UlPacket::new(8, 0x155).unwrap();
        let p2 = UlPacket::new(7, 0xEAA).unwrap();
        let spb = (500_000.0f64 / 375.0).round() as usize;
        let mk = |p: &UlPacket| {
            let mut enc = Fm0Encoder::new();
            let raw = enc.encode(p.to_bits().iter()).to_bools();
            let mut s = vec![PztState::Absorptive; 8 * spb];
            s.extend(BiwChannel::states_from_raw_bits(&raw, spb));
            s.extend(vec![PztState::Absorptive; 8 * spb]);
            s
        };
        let s1 = mk(&p1);
        let s2 = mk(&p2);
        let len = s1.len();
        let wave = ch.uplink_waveform(&[(8, &s1), (7, &s2)], len);
        let rx = UplinkReceiver::new(RxConfig::default());
        let (_, clusters) = decode_and_cluster(&rx, &wave);
        assert!(clusters > 2, "clusters={clusters}");
    }

    #[test]
    fn corrupted_crc_is_rejected() {
        let ch = channel(NoiseConfig::silent());
        let pkt = UlPacket::new(8, 0xABC).unwrap();
        // Flip one payload bit after encoding by building raw manually.
        let mut bits = pkt.to_bits();
        bits.set(15, !bits.get(15).unwrap());
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(bits.iter()).to_bools();
        let spb = (500_000.0f64 / 375.0).round() as usize;
        let mut states = vec![PztState::Absorptive; 8 * spb];
        states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
        states.extend(vec![PztState::Absorptive; 8 * spb]);
        let len = states.len();
        let wave = ch.uplink_waveform(&[(8, &states)], len);
        let rx = UplinkReceiver::new(RxConfig::default());
        assert_eq!(rx.process_slot(&wave).packet, None);
    }

    #[test]
    fn survives_tag_clock_drift() {
        // ±3 % raw-bit scaling: the edge-domain decoder must still decode.
        let ch = channel(NoiseConfig::silent());
        let pkt = UlPacket::new(5, 0x7F7).unwrap();
        for scale in [0.97, 1.03] {
            let mut enc = Fm0Encoder::new();
            let raw = enc.encode(pkt.to_bits().iter()).to_bools();
            let spb = (500_000.0f64 / 375.0 * scale).round() as usize;
            let mut states = vec![PztState::Absorptive; 8 * spb];
            states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
            states.extend(vec![PztState::Absorptive; 8 * spb]);
            let len = states.len();
            let wave = ch.uplink_waveform(&[(5, &states)], len);
            let rx = UplinkReceiver::new(RxConfig::default());
            assert_eq!(rx.process_slot(&wave).packet, Some(pkt), "scale {scale}");
        }
    }

    #[test]
    fn snr_orders_tags_by_path_strength() {
        // Fig. 12(a): Tag 8 (nearest) > Tag 4 (junction) > Tag 11 (far).
        let ch = channel(NoiseConfig { floor_sigma: 0.02 });
        let rx = UplinkReceiver::new(RxConfig::default());
        let snr = |tid: u8| {
            let pkt = UlPacket::new(tid, 0x3C3).unwrap();
            let wave = tag_waveform(&ch, tid, &pkt, 375.0);
            rx.uplink_snr_db(&wave)
        };
        let (s8, s4, s11) = (snr(8), snr(4), snr(11));
        assert!(s8 > s4, "tag8 {s8:.1} dB vs tag4 {s4:.1} dB");
        assert!(s4 > s11, "tag4 {s4:.1} dB vs tag11 {s11:.1} dB");
    }

    #[test]
    fn snr_decreases_with_bit_rate() {
        // Fig. 12(a): power spreads over wider bandwidth at higher rates.
        let ch = channel(NoiseConfig { floor_sigma: 0.02 });
        let pkt = UlPacket::new(8, 0x3C3).unwrap();
        let snr_at = |bps: f64| {
            let rx = UplinkReceiver::new(RxConfig {
                ul_bps: bps,
                ..RxConfig::default()
            });
            let wave = tag_waveform(&ch, 8, &pkt, bps);
            rx.uplink_snr_db(&wave)
        };
        let low = snr_at(93.75);
        let high = snr_at(3_000.0);
        assert!(low > high, "93.75 bps {low:.1} dB vs 3 kbps {high:.1} dB");
    }

    #[test]
    fn short_waveform_is_empty() {
        let rx = UplinkReceiver::new(RxConfig::default());
        for len in [0, 10] {
            let (out, clusters) = decode_and_cluster(&rx, &vec![0.0; len]);
            assert_eq!(out.packet, None);
            assert_eq!(clusters, 1);
            assert_eq!(out.fail, Some(DecodeFailReason::TooShort));
        }
        // Shorter than one Welch segment: no SNR, and no panic.
        for len in [0, 10, 255] {
            assert!(rx.uplink_snr_db(&vec![0.0; len]).is_nan(), "len {len}");
        }
        assert!(rx.uplink_snr_db(&[0.0; 256]).is_finite());
    }

    /// The SNR with the whole carrier-cleaned packet materialized, the
    /// slice Welch and a test of every bin for each band.
    /// `uplink_snr_db_with` must equal it bit for bit.
    fn materialized_snr(rx: &UplinkReceiver, wave: &[f64]) -> f64 {
        use arachnet_dsp::psd::welch_psd;
        if wave.len() < MIN_WELCH_SEG {
            return f64::NAN;
        }
        let (fs, fc, r) = (rx.cfg.sample_rate, rx.cfg.carrier_hz, rx.cfg.ul_bps);
        let tab = rx.carrier_tab.phasors();
        let carrier = |n: usize| tab[n % tab.len()];
        let mut acc = Cplx::ZERO;
        for (n, &x) in wave.iter().enumerate() {
            acc += carrier(n) * x;
        }
        let a = acc * (2.0 / wave.len() as f64);
        let cleaned: Vec<f64> = wave
            .iter()
            .enumerate()
            .map(|(n, &x)| x - (carrier(n).conj() * a).re)
            .collect();
        let seg = 8_192
            .min(cleaned.len().next_power_of_two() / 2)
            .max(MIN_WELCH_SEG);
        let psd = welch_psd(&cleaned, fs, seg, Window::Hann);
        let band = |lo: f64, hi: f64| {
            let mut total = 0.0;
            for (i, &d) in psd.density.iter().enumerate() {
                let f = psd.freq(i);
                if f >= lo && f < hi {
                    total += d * psd.bin_hz;
                }
            }
            total
        };
        let sig = band(fc + 0.1 * r, fc + 2.0 * r) + band(fc - 2.0 * r, fc - 0.1 * r);
        let noise = band(fc + 4.0 * r, fc + 12.0 * r) + band(fc - 12.0 * r, fc - 4.0 * r);
        let sig_d = (sig / (2.0 * 1.9 * r)).max(f64::MIN_POSITIVE);
        let noise_d = (noise / (2.0 * 8.0 * r)).max(f64::MIN_POSITIVE);
        10.0 * (sig_d / noise_d).log10()
    }

    #[test]
    fn snr_equals_the_materialized_reference_bit_for_bit() {
        let ch = channel(NoiseConfig::default());
        let mut scratch = RxScratch::default();
        let mut same = |rx: &UplinkReceiver, wave: &[f64], what: &str| {
            let got = rx.uplink_snr_db_with(wave, &mut scratch);
            let want = materialized_snr(rx, wave);
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want} dB");
        };
        let mut longest = 0;
        for bps in [93.75, 187.5, 375.0, 750.0, 1_500.0, 3_000.0] {
            let rx = UplinkReceiver::new(RxConfig {
                ul_bps: bps,
                ..RxConfig::default()
            });
            for tid in [8, 4, 11] {
                let pkt = UlPacket::new(tid, 0x3C3).unwrap();
                let wave = tag_waveform(&ch, tid, &pkt, bps);
                longest = longest.max(wave.len());
                // The whole packet, and a prefix that ends mid-segment.
                same(&rx, &wave, &format!("tag {tid} at {bps} bps"));
                let cut = wave.len() * 2 / 3 + 17;
                same(
                    &rx,
                    &wave[..cut],
                    &format!("tag {tid} at {bps} bps, {cut} samples"),
                );
            }
        }
        assert!(longest >= 400_000, "longest packet {longest} samples");
        // Short and odd lengths, around each Welch segment size.
        let rx = UplinkReceiver::new(RxConfig::default());
        let pkt = UlPacket::new(8, 0x3C3).unwrap();
        let wave = tag_waveform(&ch, 8, &pkt, 375.0);
        for len in [
            256, 257, 300, 511, 512, 1_000, 8_191, 8_192, 8_193, 20_000, 70_001,
        ] {
            same(&rx, &wave[..len], &format!("{len} samples"));
        }
    }

    #[test]
    #[should_panic(expected = "carrier 90000.7 Hz has no exact sample period")]
    fn carrier_without_an_exact_period_is_refused() {
        UplinkReceiver::new(RxConfig {
            carrier_hz: 90_000.7,
            ..RxConfig::default()
        });
    }

    #[test]
    fn snr_path_holds_no_waveform_length_buffer() {
        let ch = channel(NoiseConfig::default());
        let pkt = UlPacket::new(8, 0x3C3).unwrap();
        let wave = tag_waveform(&ch, 8, &pkt, 93.75);
        assert!(wave.len() >= 400_000, "{} samples", wave.len());
        let rx = UplinkReceiver::new(RxConfig {
            ul_bps: 93.75,
            ..RxConfig::default()
        });
        let mut scratch = RxScratch::default();
        assert!(rx.uplink_snr_db_with(&wave, &mut scratch).is_finite());
        // Every field by name, so a new buffer has to be listed here. The
        // Welch scratch's own bound is `arachnet-dsp`'s to test.
        let RxScratch {
            iq,
            tmp,
            proj,
            proj_sel,
            steps,
            steps_sel,
            settled,
            sub,
            edges,
            corr,
            welch: _,
            psd,
        } = &scratch;
        let capacities = [
            iq.capacity(),
            tmp.capacity(),
            proj.capacity(),
            proj_sel.capacity(),
            steps.capacity(),
            steps_sel.capacity(),
            settled.capacity(),
            sub.capacity(),
            edges.capacity(),
            corr.capacity(),
            psd.density.capacity(),
        ];
        assert!(capacities.iter().all(|&c| c <= 8_192), "{capacities:?}");
    }

    #[test]
    fn order_stats_match_a_full_sort() {
        use arachnet_testkit::{check, gen, prop_assert};
        // Few distinct values, so slices repeat them; ±0.0 and both NaN
        // signs are distinct under `total_cmp`.
        let value = gen::select(vec![
            1.0,
            -1.0,
            0.0,
            -0.0,
            2.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        let g = gen::zip3(
            gen::vec(value, 1, 64),
            gen::usize_range(0, 64),
            gen::usize_range(0, 64),
        );
        check("order_stats_match_a_full_sort", &g, |(v, i, j)| {
            let len = v.len();
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            let last = (len - 1) as f64;
            let picks = [
                (i % len, j % len),
                ((last * 0.05) as usize, (last * 0.95) as usize),
                (len / 2, (len - 1) * 19 / 20),
            ];
            for (i, j) in picks {
                let (a, b) = order_stats(&mut v.clone(), i, j);
                prop_assert!(
                    a.to_bits() == sorted[i].to_bits() && b.to_bits() == sorted[j].to_bits(),
                    "indices ({i}, {j}) of {v:?}: got ({a}, {b})"
                );
            }
            Ok(())
        });
        // Two steps: the median index (1) lies above the p95 index (0).
        assert_eq!(order_stats(&mut [2.0, 1.0], 1, 0), (2.0, 1.0));
    }

    #[test]
    fn failure_reasons_match_the_stage_that_failed() {
        let rx = UplinkReceiver::new(RxConfig::default());
        // Idle silent channel: no modulation contrast at all.
        let silent_idle = channel(NoiseConfig::silent()).uplink_waveform(&[], 100_000);
        assert_eq!(
            rx.process_slot(&silent_idle).fail,
            Some(DecodeFailReason::NoModulation)
        );
        // Idle noisy channel: still no packet, some failure reason set.
        let ch = channel(NoiseConfig::default());
        let idle = ch.uplink_waveform(&[], 100_000);
        let noisy = rx.process_slot(&idle);
        assert_eq!(noisy.packet, None);
        assert!(noisy.fail.is_some());
        // A corrupted payload decodes edges fine but fails the body check.
        let pkt = UlPacket::new(8, 0xABC).unwrap();
        let mut bits = pkt.to_bits();
        bits.set(15, !bits.get(15).unwrap());
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(bits.iter()).to_bools();
        let spb = (500_000.0f64 / 375.0).round() as usize;
        let silent = channel(NoiseConfig::silent());
        let mut states = vec![PztState::Absorptive; 8 * spb];
        states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
        states.extend(vec![PztState::Absorptive; 8 * spb]);
        let len = states.len();
        let wave = silent.uplink_waveform(&[(8, &states)], len);
        let out = rx.process_slot(&wave);
        assert_eq!(out.packet, None);
        assert!(matches!(
            out.fail,
            Some(DecodeFailReason::BadCrc) | Some(DecodeFailReason::NoPreamble)
        ));
        // A good decode carries no failure reason.
        let good = tag_waveform(&silent, 8, &pkt, 375.0);
        let ok = rx.process_slot(&good);
        assert_eq!(ok.packet, Some(pkt));
        assert_eq!(ok.fail, None);
    }

    #[test]
    fn warm_scratch_is_bit_identical() {
        // The scratch-reusing path must produce the same result whether the
        // scratch is fresh or warm from an unrelated (longer) waveform —
        // that invariance is what makes per-worker scratch sharing safe.
        let ch = channel(NoiseConfig::default());
        let pkt = UlPacket::new(8, 0x6D2).unwrap();
        let wave = tag_waveform(&ch, 8, &pkt, 375.0);
        let idle = ch.uplink_waveform(&[], 150_000);
        let rx = UplinkReceiver::new(RxConfig::default());
        let fresh_slot = rx.process_slot(&wave);
        let fresh_snr = rx.uplink_snr_db(&wave);
        let (_, fresh_clusters) = decode_and_cluster(&rx, &wave);
        let mut scratch = RxScratch::default();
        rx.process_slot_with(&idle, &mut scratch);
        rx.iq_clusters(&mut scratch);
        rx.uplink_snr_db_with(&idle, &mut scratch);
        assert_eq!(rx.process_slot_with(&wave, &mut scratch), fresh_slot);
        // The SNR leaves the decode's IQ in place for the verdict.
        assert_eq!(rx.uplink_snr_db_with(&wave, &mut scratch), fresh_snr);
        assert_eq!(rx.iq_clusters(&mut scratch), fresh_clusters);
        assert_eq!(fresh_slot.packet, Some(pkt));
        assert_eq!(fresh_clusters, 2);
        // A slot too short to decode leaves no IQ behind, so it reads one
        // cluster, not the long slot's two.
        let short = rx.process_slot_with(&wave[..63], &mut scratch);
        assert_eq!(short.fail, Some(DecodeFailReason::TooShort));
        assert_eq!(rx.iq_clusters(&mut scratch), 1);
    }

    #[test]
    fn decode_leaves_the_verdict_buffers_unallocated() {
        let ch = channel(NoiseConfig::default());
        let pkt = UlPacket::new(8, 0x3C3).unwrap();
        let wave = tag_waveform(&ch, 8, &pkt, 375.0);
        let rx = UplinkReceiver::new(RxConfig::default());
        let mut scratch = RxScratch::default();
        assert_eq!(rx.process_slot_with(&wave, &mut scratch).packet, Some(pkt));
        // Every field by name, so a new buffer has to be listed here. The
        // decode fills its own buffers and never touches the verdict's or
        // the SNR's.
        let RxScratch {
            iq,
            tmp,
            proj,
            proj_sel,
            steps,
            steps_sel,
            settled,
            sub,
            edges,
            corr,
            welch: _,
            psd,
        } = &scratch;
        let decode = [
            iq.capacity(),
            tmp.capacity(),
            proj.capacity(),
            proj_sel.capacity(),
            edges.capacity(),
        ];
        assert!(decode.iter().all(|&c| c > 0), "{decode:?}");
        let idle = [
            steps.capacity(),
            steps_sel.capacity(),
            settled.capacity(),
            sub.capacity(),
            corr.capacity(),
            psd.density.capacity(),
        ];
        assert_eq!(idle, [0; 6]);
        // The verdict call is what allocates the clustering buffers.
        rx.iq_clusters(&mut scratch);
        let RxScratch {
            steps,
            steps_sel,
            settled,
            sub,
            ..
        } = &scratch;
        let verdict = [
            steps.capacity(),
            steps_sel.capacity(),
            settled.capacity(),
            sub.capacity(),
        ];
        assert!(verdict.iter().all(|&c| c > 0), "{verdict:?}");
    }
}
