//! Slot arithmetic and the vanilla centralized allocator (Sec. 5.2).
//!
//! Transmission periods are powers of two, `P = {2^k}`, so any two tags
//! `i, j` collide iff their offsets agree modulo the *smaller* of the two
//! periods: `a_i ≡ a_j (mod min(p_i, p_j))`. That single congruence drives
//! the whole protocol: the vanilla allocator packs offsets greedily, the
//! reader's future-collision check (Sec. 5.6) asks whether a viable offset
//! exists, and the Markov analysis enumerates it.

/// A transmission period — constrained to powers of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Period(u32);

impl Period {
    /// Validates that `p` is a power of two.
    pub fn new(p: u32) -> Option<Self> {
        if p.is_power_of_two() {
            Some(Self(p))
        } else {
            None
        }
    }

    /// Period value in slots.
    pub fn get(&self) -> u32 {
        self.0
    }

    /// Per-tag channel share `1/p`.
    pub fn rate(&self) -> f64 {
        1.0 / f64::from(self.0)
    }
}

/// One tag's static schedule: its period and slot offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Transmission period in slots.
    pub period: Period,
    /// Offset within the period, `0 ≤ offset < period`.
    pub offset: u32,
}

impl Schedule {
    /// Builds a schedule, checking the offset range.
    pub fn new(period: Period, offset: u32) -> Option<Self> {
        if offset < period.get() {
            Some(Self { period, offset })
        } else {
            None
        }
    }

    /// Whether this schedule transmits in global slot `s` (Eq. 2).
    pub fn fires_at(&self, s: u64) -> bool {
        s % u64::from(self.period.get()) == u64::from(self.offset)
    }

    /// Whether two schedules ever transmit in the same slot.
    ///
    /// With power-of-two periods this is the congruence
    /// `a_i ≡ a_j (mod min(p_i, p_j))`.
    pub fn conflicts_with(&self, other: &Schedule) -> bool {
        let m = self.period.get().min(other.period.get());
        self.offset % m == other.offset % m
    }
}

/// Aggregate slot utilization `U = Σ 1/p_i` (Eq. 1).
pub fn utilization(periods: &[Period]) -> f64 {
    periods.iter().map(Period::rate).sum()
}

/// Whether a viable (conflict-free) offset exists for a tag with period `p`
/// given the already-fixed schedules. Used by the reader's future-collision
/// avoidance (Sec. 5.6).
pub fn viable_offset(p: Period, fixed: &[Schedule]) -> Option<u32> {
    (0..p.get()).find(|&a| {
        let cand = Schedule {
            period: p,
            offset: a,
        };
        fixed.iter().all(|s| !cand.conflicts_with(s))
    })
}

/// Error from the vanilla allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// `Σ 1/p_i > 1` — the demand exceeds channel capacity (violates Eq. 1).
    OverCapacity,
    /// Capacity is sufficient but the greedy order failed (cannot happen for
    /// sorted power-of-two demands; kept for API honesty).
    NoOffset {
        /// Index (into the input array) of the unplaceable tag.
        tag: usize,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OverCapacity => write!(f, "slot utilization exceeds 1"),
            AllocError::NoOffset { tag } => write!(f, "no conflict-free offset for tag {tag}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// The vanilla centralized slot allocator of Sec. 5.2: given every tag's
/// period, assign offsets so that no two tags ever share a slot.
///
/// Tags are placed shortest-period first (they are the most constrained);
/// with power-of-two periods and `U ≤ 1` this greedy order always succeeds —
/// the same argument as the dyadic-interval packing used in Table 1.
///
/// Returns offsets in the order of the input periods.
pub fn allocate(periods: &[Period]) -> Result<Vec<u32>, AllocError> {
    if utilization(periods) > 1.0 + 1e-12 {
        return Err(AllocError::OverCapacity);
    }
    // Sort indices by period ascending, stable so equal periods keep input
    // order (matches Table 1's layout).
    let mut order: Vec<usize> = (0..periods.len()).collect();
    order.sort_by_key(|&i| periods[i].get());

    let mut fixed: Vec<Schedule> = Vec::with_capacity(periods.len());
    let mut offsets = vec![0u32; periods.len()];
    for &i in &order {
        let p = periods[i];
        match viable_offset(p, &fixed) {
            Some(a) => {
                offsets[i] = a;
                fixed.push(Schedule {
                    period: p,
                    offset: a,
                });
            }
            None => return Err(AllocError::NoOffset { tag: i }),
        }
    }
    Ok(offsets)
}

/// Renders the first `slots` slots of a schedule set as occupancy rows —
/// the format of Table 1. Row `i` holds `true` where tag `i` transmits.
pub fn occupancy_table(schedules: &[Schedule], slots: u64) -> Vec<Vec<bool>> {
    schedules
        .iter()
        .map(|sch| (0..slots).map(|s| sch.fires_at(s)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> Period {
        Period::new(v).unwrap()
    }

    #[test]
    fn period_rejects_non_powers() {
        assert!(Period::new(3).is_none());
        assert!(Period::new(0).is_none());
        assert!(Period::new(6).is_none());
        assert!(Period::new(1).is_some());
        assert!(Period::new(32).is_some());
    }

    #[test]
    fn schedule_offset_range_checked() {
        assert!(Schedule::new(p(4), 3).is_some());
        assert!(Schedule::new(p(4), 4).is_none());
    }

    #[test]
    fn fires_at_matches_modular_rule() {
        let s = Schedule::new(p(8), 3).unwrap();
        let fired: Vec<u64> = (0..32).filter(|&t| s.fires_at(t)).collect();
        assert_eq!(fired, vec![3, 11, 19, 27]);
    }

    #[test]
    fn conflict_rule_same_period() {
        let a = Schedule::new(p(4), 1).unwrap();
        let b = Schedule::new(p(4), 1).unwrap();
        let c = Schedule::new(p(4), 2).unwrap();
        assert!(a.conflicts_with(&b));
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    fn conflict_rule_nested_periods() {
        // p=2,a=0 occupies all even slots; p=8,a=4 is even → conflict.
        let fast = Schedule::new(p(2), 0).unwrap();
        let slow_even = Schedule::new(p(8), 4).unwrap();
        let slow_odd = Schedule::new(p(8), 5).unwrap();
        assert!(fast.conflicts_with(&slow_even));
        assert!(!fast.conflicts_with(&slow_odd));
        // Symmetry.
        assert!(slow_even.conflicts_with(&fast));
    }

    #[test]
    fn conflict_rule_agrees_with_brute_force() {
        for pa in [1u32, 2, 4, 8] {
            for pb in [1u32, 2, 4, 8] {
                for aa in 0..pa {
                    for ab in 0..pb {
                        let sa = Schedule::new(p(pa), aa).unwrap();
                        let sb = Schedule::new(p(pb), ab).unwrap();
                        let brute = (0..64u64).any(|s| sa.fires_at(s) && sb.fires_at(s));
                        assert_eq!(
                            sa.conflicts_with(&sb),
                            brute,
                            "pa={pa} pb={pb} aa={aa} ab={ab}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn utilization_sums_rates() {
        let u = utilization(&[p(2), p(4), p(8), p(8)]);
        assert!((u - (0.5 + 0.25 + 0.125 + 0.125)).abs() < 1e-12);
    }

    #[test]
    fn table1_configuration_allocates_perfectly() {
        // Table 1: p = {2, 4, 8, 8} fills every slot exactly once.
        let periods = [p(2), p(4), p(8), p(8)];
        let offsets = allocate(&periods).unwrap();
        let schedules: Vec<Schedule> = periods
            .iter()
            .zip(&offsets)
            .map(|(&pp, &a)| Schedule::new(pp, a).unwrap())
            .collect();
        // Every slot 0..8 has exactly one transmitter.
        for s in 0..8u64 {
            let count = schedules.iter().filter(|sc| sc.fires_at(s)).count();
            assert_eq!(count, 1, "slot {s}");
        }
    }

    #[test]
    fn paper_table1_offsets_are_valid() {
        // The paper's example: a_A=0 (p=2), a_B=1 (p=4), a_C=7 (p=8), a_D=3 (p=8).
        let schedules = [
            Schedule::new(p(2), 0).unwrap(),
            Schedule::new(p(4), 1).unwrap(),
            Schedule::new(p(8), 7).unwrap(),
            Schedule::new(p(8), 3).unwrap(),
        ];
        for i in 0..schedules.len() {
            for j in (i + 1)..schedules.len() {
                assert!(!schedules[i].conflicts_with(&schedules[j]), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn allocate_rejects_over_capacity() {
        assert_eq!(allocate(&[p(1), p(2)]), Err(AllocError::OverCapacity));
        assert_eq!(allocate(&[p(2), p(2), p(2)]), Err(AllocError::OverCapacity));
    }

    #[test]
    fn allocate_handles_full_capacity_many_tags() {
        // 16 tags of period 16 exactly fill the channel.
        let periods: Vec<Period> = (0..16).map(|_| p(16)).collect();
        let offsets = allocate(&periods).unwrap();
        let mut seen = [false; 16];
        for &a in &offsets {
            assert!(!seen[a as usize], "duplicate offset {a}");
            seen[a as usize] = true;
        }
    }

    #[test]
    fn allocate_result_is_conflict_free_for_random_mixes() {
        let mixes: Vec<Vec<u32>> = vec![
            vec![4, 4, 8, 8, 16, 16, 16, 32],
            vec![2, 8, 8, 16, 32, 32],
            vec![4, 4, 4, 16, 16, 32, 32, 32, 32],
            vec![8; 8],
        ];
        for mix in mixes {
            let periods: Vec<Period> = mix.iter().map(|&v| p(v)).collect();
            let offsets = allocate(&periods).unwrap();
            let schedules: Vec<Schedule> = periods
                .iter()
                .zip(&offsets)
                .map(|(&pp, &a)| Schedule::new(pp, a).unwrap())
                .collect();
            for i in 0..schedules.len() {
                for j in (i + 1)..schedules.len() {
                    assert!(
                        !schedules[i].conflicts_with(&schedules[j]),
                        "{mix:?}: {i} vs {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn viable_offset_none_when_saturated() {
        // Sec. 5.6 example: A and B have period 4 at offsets 2 and 3; a new
        // tag with period 2 can never fit (offsets 0 and 1 collide with A/B
        // resp. — 2 mod 2 = 0, 3 mod 2 = 1).
        let fixed = [
            Schedule::new(p(4), 2).unwrap(),
            Schedule::new(p(4), 3).unwrap(),
        ];
        assert_eq!(viable_offset(p(2), &fixed), None);
        // But after evicting A (offset 2), offset 0 works.
        assert_eq!(viable_offset(p(2), &fixed[1..]), Some(0));
    }

    #[test]
    fn occupancy_table_matches_paper_table1() {
        let schedules = [
            Schedule::new(p(2), 0).unwrap(),
            Schedule::new(p(4), 1).unwrap(),
            Schedule::new(p(8), 7).unwrap(),
            Schedule::new(p(8), 3).unwrap(),
        ];
        let table = occupancy_table(&schedules, 8);
        let render: Vec<String> = table
            .iter()
            .map(|row| row.iter().map(|&t| if t { 'T' } else { '.' }).collect())
            .collect();
        assert_eq!(render[0], "T.T.T.T.");
        assert_eq!(render[1], ".T...T..");
        assert_eq!(render[2], ".......T");
        assert_eq!(render[3], "...T....");
    }
}
