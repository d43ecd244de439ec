//! Byte-exact trial-result serialization for sweep checkpoints.
//!
//! [`TrialCodec`] is the contract a trial type must satisfy to ride the
//! checkpoint/resume path of [`crate::sweep`]: `decode(encode(x)) == x`
//! **bit for bit**, because a resumed sweep must reproduce the
//! uninterrupted run byte-identically (floats round-trip via
//! [`f64::to_bits`], never through text). The format is deliberately dumb —
//! little-endian fixed-width integers and length-prefixed sequences, no
//! external dependencies — and is only ever read back by the same build
//! that wrote it; the checkpoint header (see `sweep`) guards against
//! cross-run shape mismatches.
//!
//! Implementations cover the primitive/composite types the experiment
//! layer sweeps over, plus the observability payloads that travel with a
//! trial ([`Event`], [`RecorderSnapshot`]) and the sim-level result structs
//! ([`ReconvergenceSample`], [`UplinkResult`], [`FleetUplinkResult`],
//! [`CellOutcome`]).

use arachnet_obs::{
    DecodeFailReason, Event, EventKind, MigrateReason, RecorderSnapshot, KIND_COUNT,
};

use crate::fleet::{CellOutcome, FleetUplinkResult};
use crate::scenario::ReconvergenceSample;
use crate::wavesim::UplinkResult;

/// Exact binary round-tripping for checkpointed trial results.
///
/// Invariant: `decode` of an `encode` output must reconstruct a value equal
/// to the original in every bit that can influence a report (floats are
/// carried as raw IEEE-754 bits). `decode` must consume exactly the bytes
/// `encode` produced and return `None` on any truncation or corruption —
/// the sweep treats an undecodable record as "re-run this trial", never as
/// a panic.
pub trait TrialCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes. `None` on truncated or invalid input.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Some(head)
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl TrialCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let b = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(b.try_into().ok()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl TrialCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl TrialCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(input)?).ok()
    }
}

impl TrialCodec for f64 {
    /// Raw IEEE-754 bits: NaN payloads and signed zeros survive, so a
    /// restored trial renders exactly like a recomputed one.
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(f64::from_bits(u64::decode(input)?))
    }
}

impl TrialCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = usize::decode(input)?;
        let b = take(input, n)?;
        String::from_utf8(b.to_vec()).ok()
    }
}

impl<T: TrialCodec> TrialCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

impl<T: TrialCodec> TrialCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = usize::decode(input)?;
        // Guard against a corrupt length demanding absurd allocation: each
        // element consumes at least one byte.
        if n > input.len() {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(input)?);
        }
        Some(out)
    }
}

macro_rules! tuple_codec {
    ($($name:ident),+) => {
        impl<$($name: TrialCodec),+> TrialCodec for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(($($name::decode(input)?,)+))
            }
        }
    };
}

tuple_codec!(A);
tuple_codec!(A, B);
tuple_codec!(A, B, C);
tuple_codec!(A, B, C, D);

fn migrate_reason_code(r: MigrateReason) -> u8 {
    match r {
        MigrateReason::FeedbackNack => 0,
        MigrateReason::NackRun => 1,
        MigrateReason::BeaconTimeout => 2,
        MigrateReason::EmptyGated => 3,
        MigrateReason::Reset => 4,
        MigrateReason::PowerOnReset => 5,
    }
}

fn migrate_reason_from(code: u8) -> Option<MigrateReason> {
    Some(match code {
        0 => MigrateReason::FeedbackNack,
        1 => MigrateReason::NackRun,
        2 => MigrateReason::BeaconTimeout,
        3 => MigrateReason::EmptyGated,
        4 => MigrateReason::Reset,
        5 => MigrateReason::PowerOnReset,
        _ => return None,
    })
}

fn decode_fail_code(r: DecodeFailReason) -> u8 {
    match r {
        DecodeFailReason::TooShort => 0,
        DecodeFailReason::NoModulation => 1,
        DecodeFailReason::TooFewEdges => 2,
        DecodeFailReason::NoBitClock => 3,
        DecodeFailReason::NoPreamble => 4,
        DecodeFailReason::BadCrc => 5,
    }
}

fn decode_fail_from(code: u8) -> Option<DecodeFailReason> {
    Some(match code {
        0 => DecodeFailReason::TooShort,
        1 => DecodeFailReason::NoModulation,
        2 => DecodeFailReason::TooFewEdges,
        3 => DecodeFailReason::NoBitClock,
        4 => DecodeFailReason::NoPreamble,
        5 => DecodeFailReason::BadCrc,
        _ => return None,
    })
}

impl TrialCodec for EventKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
        match *self {
            EventKind::SlotClaimed { offset } | EventKind::Settled { offset } => offset.encode(out),
            EventKind::TagMigrated { from, to, reason } => {
                from.encode(out);
                to.encode(out);
                out.push(migrate_reason_code(reason));
            }
            EventKind::AckNack { ack } => ack.encode(out),
            EventKind::Collision { transmitters } => transmitters.encode(out),
            EventKind::DecodeFail { reason } => out.push(decode_fail_code(reason)),
            EventKind::ChannelEpoch { epoch } => epoch.encode(out),
            EventKind::ReaderOutage { slots } => slots.encode(out),
            EventKind::ReaderAssigned { band } => band.encode(out),
            EventKind::CrossReaderCollision { readers } => readers.encode(out),
            EventKind::TrialQuarantined { attempts } => attempts.encode(out),
            EventKind::SweepResumed { restored } => restored.encode(out),
            EventKind::Empty
            | EventKind::BeaconLost
            | EventKind::PowerCutoff
            | EventKind::PowerOn
            | EventKind::Decoded
            | EventKind::TagJoined
            | EventKind::TagDeparted
            | EventKind::BudgetExhausted => {}
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => EventKind::SlotClaimed {
                offset: u16::decode(input)?,
            },
            1 => EventKind::Settled {
                offset: u16::decode(input)?,
            },
            2 => EventKind::TagMigrated {
                from: u16::decode(input)?,
                to: u16::decode(input)?,
                reason: migrate_reason_from(u8::decode(input)?)?,
            },
            3 => EventKind::AckNack {
                ack: bool::decode(input)?,
            },
            4 => EventKind::Collision {
                transmitters: u8::decode(input)?,
            },
            5 => EventKind::Empty,
            6 => EventKind::BeaconLost,
            7 => EventKind::PowerCutoff,
            8 => EventKind::PowerOn,
            9 => EventKind::Decoded,
            10 => EventKind::DecodeFail {
                reason: decode_fail_from(u8::decode(input)?)?,
            },
            11 => EventKind::TagJoined,
            12 => EventKind::TagDeparted,
            13 => EventKind::ChannelEpoch {
                epoch: u16::decode(input)?,
            },
            14 => EventKind::ReaderOutage {
                slots: u16::decode(input)?,
            },
            15 => EventKind::ReaderAssigned {
                band: u16::decode(input)?,
            },
            16 => EventKind::CrossReaderCollision {
                readers: u8::decode(input)?,
            },
            17 => EventKind::TrialQuarantined {
                attempts: u8::decode(input)?,
            },
            18 => EventKind::SweepResumed {
                restored: u16::decode(input)?,
            },
            19 => EventKind::BudgetExhausted,
            _ => return None,
        })
    }
}

impl TrialCodec for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot.encode(out);
        self.tag.encode(out);
        self.kind.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Event {
            slot: u64::decode(input)?,
            tag: u8::decode(input)?,
            kind: EventKind::decode(input)?,
        })
    }
}

impl TrialCodec for RecorderSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seed.encode(out);
        self.dropped.encode(out);
        for c in &self.counts {
            c.encode(out);
        }
        self.events.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let seed = u64::decode(input)?;
        let dropped = u64::decode(input)?;
        let mut counts = [0u64; KIND_COUNT];
        for c in &mut counts {
            *c = u64::decode(input)?;
        }
        Some(RecorderSnapshot {
            seed,
            dropped,
            counts,
            events: Vec::<Event>::decode(input)?,
        })
    }
}

impl TrialCodec for ReconvergenceSample {
    fn encode(&self, out: &mut Vec<u8>) {
        self.disruption_slot.encode(out);
        self.slots.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ReconvergenceSample {
            disruption_slot: u64::decode(input)?,
            slots: Option::<u64>::decode(input)?,
        })
    }
}

impl TrialCodec for UplinkResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sent.encode(out);
        self.lost.encode(out);
        self.snr_db.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(UplinkResult {
            sent: u64::decode(input)?,
            lost: u64::decode(input)?,
            snr_db: f64::decode(input)?,
        })
    }
}

impl TrialCodec for FleetUplinkResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sent.encode(out);
        self.lost.encode(out);
        self.cross_collisions.encode(out);
        self.snr_db.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(FleetUplinkResult {
            sent: u64::decode(input)?,
            lost: u64::decode(input)?,
            cross_collisions: u64::decode(input)?,
            snr_db: f64::decode(input)?,
        })
    }
}

impl TrialCodec for CellOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.band.encode(out);
        self.band_sharers.encode(out);
        self.samples.encode(out);
        self.slots.encode(out);
        self.snapshot.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CellOutcome {
            band: usize::decode(input)?,
            band_sharers: u8::decode(input)?,
            samples: Vec::<ReconvergenceSample>::decode(input)?,
            slots: u64::decode(input)?,
            snapshot: RecorderSnapshot::decode(input)?,
        })
    }
}

/// Encodes `value` into a fresh byte vector.
pub fn encode_to_vec<T: TrialCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value that must consume `bytes` exactly; `None` on trailing
/// garbage or truncation.
pub fn decode_exact<T: TrialCodec>(bytes: &[u8]) -> Option<T> {
    let mut input = bytes;
    let v = T::decode(&mut input)?;
    input.is_empty().then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: TrialCodec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_exact(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip_exactly() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(usize::MAX as u64);
        roundtrip(String::from("quarantine ünïcode"));
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((1u64, 2.5f64, Some(3u8)));
    }

    #[test]
    fn floats_roundtrip_bit_for_bit() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0e-308, 281.9] {
            let bytes = encode_to_vec(&v);
            let back: f64 = decode_exact(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn every_event_kind_roundtrips() {
        let kinds = [
            EventKind::SlotClaimed { offset: 9 },
            EventKind::Settled { offset: 3 },
            EventKind::TagMigrated {
                from: 1,
                to: 5,
                reason: MigrateReason::BeaconTimeout,
            },
            EventKind::AckNack { ack: false },
            EventKind::Collision { transmitters: 3 },
            EventKind::Empty,
            EventKind::BeaconLost,
            EventKind::PowerCutoff,
            EventKind::PowerOn,
            EventKind::Decoded,
            EventKind::DecodeFail {
                reason: DecodeFailReason::NoPreamble,
            },
            EventKind::TagJoined,
            EventKind::TagDeparted,
            EventKind::ChannelEpoch { epoch: 4 },
            EventKind::ReaderOutage { slots: 64 },
            EventKind::ReaderAssigned { band: 2 },
            EventKind::CrossReaderCollision { readers: 2 },
            EventKind::TrialQuarantined { attempts: 2 },
            EventKind::SweepResumed { restored: 40 },
            EventKind::BudgetExhausted,
        ];
        assert_eq!(kinds.len(), KIND_COUNT, "new kinds need codec arms");
        for k in kinds {
            roundtrip(Event {
                slot: 77,
                tag: 4,
                kind: k,
            });
        }
    }

    #[test]
    fn snapshots_and_outcomes_roundtrip() {
        let mut counts = [0u64; KIND_COUNT];
        counts[4] = 2;
        counts[9] = 11;
        let snap = RecorderSnapshot {
            seed: 0xDEAD_BEEF,
            dropped: 3,
            counts,
            events: vec![Event {
                slot: 12,
                tag: 8,
                kind: EventKind::Collision { transmitters: 2 },
            }],
        };
        roundtrip(snap.clone());
        roundtrip(ReconvergenceSample {
            disruption_slot: 4_000,
            slots: None,
        });
        roundtrip(UplinkResult {
            sent: 16,
            lost: 1,
            snr_db: -3.75,
        });
        // NaN SNR (no representative waveform) must survive bit-for-bit
        // even though NaN breaks PartialEq: compare raw bits instead.
        let nan_snr = UplinkResult {
            sent: 16,
            lost: 1,
            snr_db: f64::NAN,
        };
        let back: UplinkResult = decode_exact(&encode_to_vec(&nan_snr)).unwrap();
        assert_eq!(back.snr_db.to_bits(), nan_snr.snr_db.to_bits());
        roundtrip(FleetUplinkResult {
            sent: 16,
            lost: 0,
            cross_collisions: 4,
            snr_db: 12.25,
        });
        roundtrip(CellOutcome {
            band: 1,
            band_sharers: 2,
            samples: vec![ReconvergenceSample {
                disruption_slot: 9,
                slots: Some(120),
            }],
            slots: 20_000,
            snapshot: snap,
        });
    }

    #[test]
    fn truncated_and_corrupt_input_decodes_to_none() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(
                decode_exact::<Vec<u64>>(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_exact::<Vec<u64>>(&extended).is_none());
        // A length prefix pointing past the buffer must not allocate/loop.
        let mut lied = Vec::new();
        (u64::MAX).encode(&mut lied);
        assert!(decode_exact::<Vec<u64>>(&lied).is_none());
        // An out-of-range enum code is invalid, not a panic.
        assert!(decode_exact::<bool>(&[7]).is_none());
    }

    /// Property (testkit): arbitrary nested composites round-trip exactly.
    #[test]
    fn property_random_composites_roundtrip() {
        use arachnet_testkit::{check, gen, prop_assert_eq};
        let g = gen::zip3(
            gen::vec(gen::u64_any(), 0, 20),
            gen::u64_any(),
            gen::u64_range(0, 3),
        );
        check("codec_roundtrip", &g, |(v, bits, opt)| {
            let value = (
                v.clone(),
                f64::from_bits(*bits),
                if *opt == 0 { None } else { Some(*opt) },
            );
            let bytes = encode_to_vec(&value);
            let back: (Vec<u64>, f64, Option<u64>) = decode_exact(&bytes).ok_or("decode failed")?;
            prop_assert_eq!(&back.0, &value.0);
            prop_assert_eq!(back.1.to_bits(), value.1.to_bits());
            prop_assert_eq!(back.2, value.2);
            Ok(())
        });
    }
}
