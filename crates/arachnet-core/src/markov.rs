//! Exact absorbing-Markov-chain analysis of the slot-allocation protocol
//! (Appendix C).
//!
//! The appendix proves convergence by modelling the network as an absorbing
//! Markov chain whose states are `(z_i, a_i, c_i)` per tag — MIGRATE/SETTLE,
//! slot offset, consecutive-NACK count — and whose absorbing states are the
//! all-SETTLE, collision-free configurations. This module *constructs that
//! chain* for small configurations and machine-checks the proof:
//!
//! * every reachable state can reach an absorbing state
//!   (Lemma 3 / reachability);
//! * absorbing states are exactly the all-SETTLE conflict-free ones and are
//!   closed (Lemmas 1–2);
//! * the expected number of slots to absorption is computed by solving the
//!   first-step equations — an exact, protocol-level prediction that the
//!   simulator's measured convergence times can be tested against.
//!
//! The chain assumes the proof's idealisations: synchronized counters, no
//! beacon loss, perfect collision detection. State-space size is
//! `L × Π_i p_i(N+1)` (phase × per-tag states), so the analysis is intended
//! for configurations of up to ~4 tags with periods ≤ 8.

use std::collections::HashMap;

use crate::slot::{Period, Schedule};

/// Configuration of the chain to analyze.
#[derive(Debug, Clone)]
pub struct MarkovConfig {
    /// Tag periods (powers of two).
    pub periods: Vec<Period>,
    /// Consecutive-NACK threshold `N` (the paper's is
    /// [`NACK_THRESHOLD`](crate::mac::NACK_THRESHOLD)).
    pub nack_threshold: u8,
}

/// Outcome of the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovAnalysis {
    /// Reachable states (including absorbing ones).
    pub num_states: usize,
    /// Reachable absorbing states.
    pub num_absorbing: usize,
    /// True iff every reachable state has a path to an absorbing state —
    /// the machine-checked core of the convergence proof.
    pub absorbing_chain: bool,
    /// Expected slots from the post-RESET distribution (all tags MIGRATE,
    /// offsets uniform) to absorption. `None` if `absorbing_chain` is false.
    pub expected_slots_to_absorb: Option<f64>,
}

/// Errors from the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkovError {
    /// No tags configured.
    NoTags,
    /// State space exceeds the tractability cap.
    TooLarge {
        /// The estimated state count.
        states: u128,
    },
    /// Value iteration failed to converge (should not occur for absorbing
    /// chains within the size cap).
    NoConvergence,
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::NoTags => write!(f, "no tags in Markov configuration"),
            MarkovError::TooLarge { states } => {
                write!(f, "state space too large: {states} states")
            }
            MarkovError::NoConvergence => write!(f, "value iteration did not converge"),
        }
    }
}

impl std::error::Error for MarkovError {}

/// One tag's protocol state inside a chain state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TagChainState {
    settled: bool,
    offset: u32,
    nacks: u8,
}

/// Full chain state: global phase plus per-tag states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ChainState {
    phase: u32,
    tags: Vec<TagChainState>,
}

const MAX_STATES: u128 = 2_000_000;

struct ChainBuilder<'a> {
    cfg: &'a MarkovConfig,
    hyperperiod: u32,
}

impl<'a> ChainBuilder<'a> {
    fn new(cfg: &'a MarkovConfig) -> Self {
        let hyperperiod = cfg.periods.iter().map(|p| p.get()).max().unwrap_or(1);
        Self { cfg, hyperperiod }
    }

    fn size_estimate(&self) -> u128 {
        let mut n: u128 = u128::from(self.hyperperiod);
        for p in &self.cfg.periods {
            // Migrate: p offsets; Settle: p offsets × N nack counts.
            n = n.saturating_mul(u128::from(p.get()) * (1 + u128::from(self.cfg.nack_threshold)));
        }
        n
    }

    fn is_absorbing(&self, s: &ChainState) -> bool {
        if !s.tags.iter().all(|t| t.settled) {
            return false;
        }
        let schedules: Vec<Schedule> = s
            .tags
            .iter()
            .zip(&self.cfg.periods)
            .map(|(t, &p)| Schedule::new(p, t.offset).unwrap())
            .collect();
        for i in 0..schedules.len() {
            for j in (i + 1)..schedules.len() {
                if schedules[i].conflicts_with(&schedules[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// Successor distribution of a state: `(probability, next_state)` pairs.
    fn successors(&self, s: &ChainState) -> Vec<(f64, ChainState)> {
        let next_phase = (s.phase + 1) % self.hyperperiod;
        // Who transmits in slot `phase`?
        let transmitters: Vec<usize> = s
            .tags
            .iter()
            .enumerate()
            .filter(|(i, t)| s.phase % self.cfg.periods[*i].get() == t.offset)
            .map(|(i, _)| i)
            .collect();

        // Per-tag next-state alternatives.
        let mut alternatives: Vec<Vec<(f64, TagChainState)>> = Vec::with_capacity(s.tags.len());
        for (i, t) in s.tags.iter().enumerate() {
            let p = self.cfg.periods[i].get();
            let transmitted = transmitters.contains(&i);
            if !transmitted {
                alternatives.push(vec![(1.0, *t)]);
                continue;
            }
            if transmitters.len() == 1 {
                // ACK: settle, clear counter.
                alternatives.push(vec![(
                    1.0,
                    TagChainState {
                        settled: true,
                        offset: t.offset,
                        nacks: 0,
                    },
                )]);
            } else {
                // NACK.
                let migrate_uniform = || -> Vec<(f64, TagChainState)> {
                    (0..p)
                        .map(|a| {
                            (
                                1.0 / f64::from(p),
                                TagChainState {
                                    settled: false,
                                    offset: a,
                                    nacks: 0,
                                },
                            )
                        })
                        .collect()
                };
                // Unsettled tags and settled tags crossing the NACK
                // threshold both migrate uniformly; stay otherwise.
                if !t.settled || t.nacks + 1 >= self.cfg.nack_threshold {
                    alternatives.push(migrate_uniform());
                } else {
                    alternatives.push(vec![(
                        1.0,
                        TagChainState {
                            settled: true,
                            offset: t.offset,
                            nacks: t.nacks + 1,
                        },
                    )]);
                }
            }
        }

        // Cartesian product of alternatives.
        let mut out: Vec<(f64, Vec<TagChainState>)> = vec![(1.0, Vec::new())];
        for alt in alternatives {
            let mut next = Vec::with_capacity(out.len() * alt.len());
            for (prob, partial) in &out {
                for (ap, at) in &alt {
                    let mut v = partial.clone();
                    v.push(*at);
                    next.push((prob * ap, v));
                }
            }
            out = next;
        }
        out.into_iter()
            .map(|(prob, tags)| {
                (
                    prob,
                    ChainState {
                        phase: next_phase,
                        tags,
                    },
                )
            })
            .collect()
    }
}

/// Constructs the chain reachable from the post-RESET distribution and
/// analyzes it.
pub fn analyze(cfg: &MarkovConfig) -> Result<MarkovAnalysis, MarkovError> {
    if cfg.periods.is_empty() {
        return Err(MarkovError::NoTags);
    }
    let builder = ChainBuilder::new(cfg);
    let est = builder.size_estimate();
    if est > MAX_STATES {
        return Err(MarkovError::TooLarge { states: est });
    }

    // Initial distribution: phase 0, all MIGRATE, offsets uniform.
    let mut initial: Vec<(f64, ChainState)> = vec![(
        1.0,
        ChainState {
            phase: 0,
            tags: Vec::new(),
        },
    )];
    for &p in &cfg.periods {
        let mut next = Vec::new();
        for (prob, st) in &initial {
            for a in 0..p.get() {
                let mut tags = st.tags.clone();
                tags.push(TagChainState {
                    settled: false,
                    offset: a,
                    nacks: 0,
                });
                next.push((prob / f64::from(p.get()), ChainState { phase: 0, tags }));
            }
        }
        initial = next;
    }

    // BFS over reachable states.
    let mut index: HashMap<ChainState, usize> = HashMap::new();
    let mut states: Vec<ChainState> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    let intern = |s: ChainState,
                  index: &mut HashMap<ChainState, usize>,
                  states: &mut Vec<ChainState>,
                  queue: &mut Vec<usize>|
     -> usize {
        if let Some(&i) = index.get(&s) {
            return i;
        }
        let i = states.len();
        index.insert(s.clone(), i);
        states.push(s);
        queue.push(i);
        i
    };
    for (_, s) in &initial {
        intern(s.clone(), &mut index, &mut states, &mut queue);
    }
    let mut transitions: Vec<Vec<(f64, usize)>> = Vec::new();
    let mut absorbing: Vec<bool> = Vec::new();
    let mut qi = 0;
    while qi < queue.len() {
        let si = queue[qi];
        qi += 1;
        let s = states[si].clone();
        let is_abs = builder.is_absorbing(&s);
        while absorbing.len() <= si {
            absorbing.push(false);
            transitions.push(Vec::new());
        }
        absorbing[si] = is_abs;
        if is_abs {
            continue; // absorbing super-state: no outgoing edges needed
        }
        let succ = builder.successors(&s);
        let mut edges = Vec::with_capacity(succ.len());
        for (prob, ns) in succ {
            let ni = intern(ns, &mut index, &mut states, &mut queue);
            edges.push((prob, ni));
        }
        transitions[si] = edges;
    }
    while absorbing.len() < states.len() {
        absorbing.push(false);
        transitions.push(Vec::new());
    }
    // Tail states discovered after their slot in `absorbing` was pushed may
    // not have been classified; fix up by classifying everything.
    for (si, s) in states.iter().enumerate() {
        absorbing[si] = builder.is_absorbing(s);
    }

    let num_states = states.len();
    let num_absorbing = absorbing.iter().filter(|&&a| a).count();

    // Reachability of absorption from every state: reverse BFS.
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); num_states];
    for (si, edges) in transitions.iter().enumerate() {
        for &(_, ni) in edges {
            reverse[ni].push(si);
        }
    }
    let mut can_absorb = absorbing.clone();
    let mut stack: Vec<usize> = (0..num_states).filter(|&i| absorbing[i]).collect();
    while let Some(i) = stack.pop() {
        for &pred in &reverse[i] {
            if !can_absorb[pred] {
                can_absorb[pred] = true;
                stack.push(pred);
            }
        }
    }
    let absorbing_chain = can_absorb.iter().all(|&c| c);

    let expected = if absorbing_chain && num_absorbing > 0 {
        // Gauss–Seidel on E[x] = 1 + Σ P(x,y) E[y].
        let mut e = vec![0.0f64; num_states];
        let mut converged = false;
        for _ in 0..200_000 {
            let mut max_delta = 0.0f64;
            for si in 0..num_states {
                if absorbing[si] {
                    continue;
                }
                let mut v = 1.0;
                for &(prob, ni) in &transitions[si] {
                    v += prob * e[ni];
                }
                max_delta = max_delta.max((v - e[si]).abs());
                e[si] = v;
            }
            if max_delta < 1e-10 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(MarkovError::NoConvergence);
        }
        let mut start = 0.0;
        for (prob, s) in &initial {
            start += prob * e[index[s]];
        }
        Some(start)
    } else {
        None
    };

    Ok(MarkovAnalysis {
        num_states,
        num_absorbing,
        absorbing_chain,
        expected_slots_to_absorb: expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(periods: &[u32]) -> MarkovConfig {
        MarkovConfig {
            periods: periods.iter().map(|&p| Period::new(p).unwrap()).collect(),
            nack_threshold: crate::mac::NACK_THRESHOLD,
        }
    }

    #[test]
    fn single_tag_absorbs_within_one_period() {
        // One tag never collides: it transmits at its offset, gets ACKed,
        // settles. Expected absorption = expected wait for its slot + 1.
        let a = analyze(&cfg(&[2])).unwrap();
        assert!(a.absorbing_chain);
        assert!(a.num_absorbing >= 1);
        let e = a.expected_slots_to_absorb.unwrap();
        // Offsets 0/1 uniform, phase starts at 0: offset 0 fires at slot 0
        // (absorb after 1 step), offset 1 at slot 1 (absorb after 2 steps).
        assert!((e - 1.5).abs() < 1e-6, "expected 1.5, got {e}");
    }

    #[test]
    fn two_tags_period_two_full_utilization() {
        let a = analyze(&cfg(&[2, 2])).unwrap();
        assert!(a.absorbing_chain, "proof: chain must be absorbing");
        let e = a.expected_slots_to_absorb.unwrap();
        // Full utilization: must converge but slower than a single tag.
        assert!(e > 1.5 && e < 50.0, "implausible expectation {e}");
    }

    #[test]
    fn two_tags_mixed_periods() {
        let a = analyze(&cfg(&[2, 4])).unwrap();
        assert!(a.absorbing_chain);
        assert!(a.expected_slots_to_absorb.unwrap().is_finite());
    }

    #[test]
    fn three_tags_half_utilization_absorbs_faster_than_full() {
        let sparse = analyze(&cfg(&[4, 4])).unwrap(); // U = 0.5
        let dense = analyze(&cfg(&[2, 4, 4])).unwrap(); // U = 1.0
        assert!(sparse.absorbing_chain && dense.absorbing_chain);
        let (es, ed) = (
            sparse.expected_slots_to_absorb.unwrap(),
            dense.expected_slots_to_absorb.unwrap(),
        );
        assert!(
            ed > es,
            "higher utilization must slow convergence: dense {ed} vs sparse {es} \
             (Fig. 15a trend)"
        );
    }

    #[test]
    fn absorbing_states_are_conflict_free() {
        // Structural check on the builder, via a tiny chain.
        let c = cfg(&[2, 2]);
        let b = ChainBuilder::new(&c);
        let good = ChainState {
            phase: 0,
            tags: vec![
                TagChainState {
                    settled: true,
                    offset: 0,
                    nacks: 0,
                },
                TagChainState {
                    settled: true,
                    offset: 1,
                    nacks: 0,
                },
            ],
        };
        let conflicted = ChainState {
            phase: 0,
            tags: vec![
                TagChainState {
                    settled: true,
                    offset: 1,
                    nacks: 0,
                },
                TagChainState {
                    settled: true,
                    offset: 1,
                    nacks: 0,
                },
            ],
        };
        let migrating = ChainState {
            phase: 0,
            tags: vec![
                TagChainState {
                    settled: false,
                    offset: 0,
                    nacks: 0,
                },
                TagChainState {
                    settled: true,
                    offset: 1,
                    nacks: 0,
                },
            ],
        };
        assert!(b.is_absorbing(&good));
        assert!(!b.is_absorbing(&conflicted));
        assert!(!b.is_absorbing(&migrating));
    }

    #[test]
    fn successor_probabilities_sum_to_one() {
        let c = cfg(&[2, 2]);
        let b = ChainBuilder::new(&c);
        let s = ChainState {
            phase: 0,
            tags: vec![
                TagChainState {
                    settled: false,
                    offset: 0,
                    nacks: 0,
                },
                TagChainState {
                    settled: false,
                    offset: 0,
                    nacks: 0,
                },
            ],
        };
        let succ = b.successors(&s);
        let total: f64 = succ.iter().map(|(p, _)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Both transmit at phase 0 → collision → both migrate: 4 branches.
        assert_eq!(succ.len(), 4);
    }

    #[test]
    fn settled_tag_counts_nacks_before_migrating() {
        let c = cfg(&[2, 2]);
        let b = ChainBuilder::new(&c);
        // Both settled on offset 0 → collide at phase 0.
        let s = ChainState {
            phase: 0,
            tags: vec![
                TagChainState {
                    settled: true,
                    offset: 0,
                    nacks: 0,
                },
                TagChainState {
                    settled: true,
                    offset: 0,
                    nacks: 2,
                },
            ],
        };
        let succ = b.successors(&s);
        // Tag 0: nacks 0→1 (stays settled, deterministic). Tag 1: nacks 2+1
        // ≥ 3 → migrates (2 uniform branches). Total 2 branches.
        assert_eq!(succ.len(), 2);
        for (_, ns) in &succ {
            assert!(ns.tags[0].settled);
            assert_eq!(ns.tags[0].nacks, 1);
            assert!(!ns.tags[1].settled);
        }
    }

    #[test]
    fn no_tags_is_error() {
        assert_eq!(analyze(&cfg(&[])), Err(MarkovError::NoTags));
    }

    #[test]
    fn oversized_config_is_rejected() {
        let big = cfg(&[64, 64, 64, 64, 64]);
        assert!(matches!(analyze(&big), Err(MarkovError::TooLarge { .. })));
    }
}
