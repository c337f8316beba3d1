//! The arbitration-policy abstraction.
//!
//! The paper's Sec. 4 surveys four contention-resolution techniques —
//! round-robin, random, FIFO and priority-based — and selects round-robin
//! for its fairness-per-CLB. All four are implemented behind this trait so
//! the simulator and the ablation benchmarks can swap them freely.

use std::fmt;

/// The quantum used when a [`PolicyKind::PreemptiveRoundRobin`] arbiter
/// is built without an explicit quantum (in granted cycles).
pub const DEFAULT_PREEMPT_QUANTUM: u32 = 4;

/// Which arbitration policy an arbiter implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// The paper's choice: cyclic priority rotation (Fig. 5).
    RoundRobin,
    /// Requests served in a pseudo-random order (LFSR-driven).
    Random,
    /// Requests served in arrival order (age-matrix implementation).
    Fifo,
    /// Requests served in a statically determined order (priority
    /// encoder). Cheap but starves low-priority tasks.
    StaticPriority,
    /// The paper's Sec. 6 future work: round-robin with a preemption
    /// quantum ([`DEFAULT_PREEMPT_QUANTUM`] granted cycles), so a task
    /// that never relinquishes its request still cannot starve others.
    PreemptiveRoundRobin,
    /// Round-robin with O(log N) parallel-prefix grant resolution
    /// instead of the Fig. 5 linear scan — grant-identical to
    /// [`PolicyKind::RoundRobin`] by construction (see
    /// [`crate::prefix`]).
    PrefixRoundRobin,
}

impl PolicyKind {
    /// All kinds, for sweeps.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::RoundRobin,
        PolicyKind::Random,
        PolicyKind::Fifo,
        PolicyKind::StaticPriority,
        PolicyKind::PreemptiveRoundRobin,
        PolicyKind::PrefixRoundRobin,
    ];
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::Random => "random",
            PolicyKind::Fifo => "fifo",
            PolicyKind::StaticPriority => "static-priority",
            PolicyKind::PreemptiveRoundRobin => "preemptive-rr",
            PolicyKind::PrefixRoundRobin => "prefix-rr",
        })
    }
}

/// A cycle-accurate behavioural arbiter.
///
/// Every clock cycle the arbiter samples the request word (bit `i` set when
/// task `i` requests) and produces a grant word with **at most one bit
/// set** — the mutual-exclusion contract. Implementations are Mealy
/// machines: the grant may respond to the same-cycle request.
pub trait Policy: fmt::Debug {
    /// The policy kind.
    fn kind(&self) -> PolicyKind;

    /// Number of tasks arbitrated.
    fn num_tasks(&self) -> usize;

    /// Advances one clock cycle; returns the grant word.
    fn step(&mut self, requests: u64) -> u64;

    /// Returns the arbiter to its power-on state.
    fn reset(&mut self);

    /// The grant fixed point under a *held* request word, if any.
    ///
    /// `Some(grant)` promises two things, starting from the current
    /// state:
    ///
    /// - every later [`step`](Self::step) with the same `requests` word
    ///   returns exactly `grant`;
    /// - the only state such a step moves is state that does not depend
    ///   on the requests (the random policy's free-running LFSR), so
    ///   [`skip`](Self::skip) can advance it without stepping.
    ///
    /// The batched simulation kernel uses this to prove an arbiter
    /// quiescent, skip whole cycles and then [`skip`](Self::skip) the
    /// policy over them; the legacy kernel cross-checks the promise
    /// against `step` in debug builds.
    ///
    /// The default is the always-safe `None` ("never provably steady"),
    /// which only costs performance, never correctness.
    fn next_grant(&self, requests: u64) -> Option<u64> {
        let _ = requests;
        None
    }

    /// Advances the request-independent state exactly as `cycles`
    /// [`step`](Self::step)s under a held word would. The kernel calls
    /// it only across spans where a [`next_grant`](Self::next_grant)
    /// promise held.
    ///
    /// The default does nothing, which is right for every policy whose
    /// promise already freezes all of its state.
    fn skip(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// Constructs a behavioural arbiter of the given kind for `n` tasks.
///
/// The random policy starts its LFSR from the fixed
/// [`crate::random::LFSR_SEED`] whatever `n` is, so repeated runs are
/// reproducible; use [`crate::random::RandomArbiter::with_seed`] for
/// explicit control.
///
/// # Panics
///
/// Panics if `n` is zero or larger than 32.
pub fn build(kind: PolicyKind, n: usize) -> Box<dyn Policy> {
    match kind {
        PolicyKind::RoundRobin => Box::new(crate::rr::RoundRobinArbiter::new(n)),
        PolicyKind::Random => Box::new(crate::random::RandomArbiter::new(n)),
        PolicyKind::Fifo => Box::new(crate::fifo::FifoArbiter::new(n)),
        PolicyKind::StaticPriority => Box::new(crate::priority::StaticPriorityArbiter::new(n)),
        PolicyKind::PreemptiveRoundRobin => Box::new(crate::preempt::PreemptiveRoundRobin::new(
            n,
            DEFAULT_PREEMPT_QUANTUM,
        )),
        PolicyKind::PrefixRoundRobin => Box::new(crate::prefix::PrefixRoundRobin::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_constructs_every_kind() {
        for kind in PolicyKind::ALL {
            let p = build(kind, 4);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.num_tasks(), 4);
        }
    }

    #[test]
    fn every_policy_grants_at_most_one_and_only_requesters() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind, 5);
            let mut x = 0x243f6a8885a308d3u64;
            for _ in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let req = x & 0b11111;
                let grant = p.step(req);
                assert!(grant.count_ones() <= 1, "{kind} granted multiple");
                assert_eq!(grant & !req, 0, "{kind} granted a non-requester");
            }
        }
    }

    #[test]
    fn every_policy_grants_someone_under_contention() {
        // With everyone requesting every cycle, each cycle must grant.
        for kind in PolicyKind::ALL {
            let mut p = build(kind, 3);
            for _ in 0..50 {
                assert_eq!(p.step(0b111).count_ones(), 1, "{kind} idle under load");
            }
        }
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind, 4);
            let first: Vec<u64> = (0..10).map(|_| p.step(0b1111)).collect();
            p.reset();
            let second: Vec<u64> = (0..10).map(|_| p.step(0b1111)).collect();
            assert_eq!(first, second, "{kind} reset not faithful");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::RoundRobin.to_string(), "round-robin");
        assert_eq!(PolicyKind::Fifo.to_string(), "fifo");
    }

    /// Whenever a policy claims a fixed point, holding the request word
    /// must keep returning that exact grant — across every kind, after
    /// arbitrary warm-up histories.
    #[test]
    fn next_grant_promises_are_honoured_by_step() {
        for kind in PolicyKind::ALL {
            let mut p = build(kind, 5);
            let mut x = 0x9e3779b97f4a7c15u64;
            let mut claims = 0u32;
            for _ in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let req = x & 0b11111;
                if let Some(promised) = p.next_grant(req) {
                    claims += 1;
                    for _ in 0..3 {
                        assert_eq!(p.step(req), promised, "{kind} broke its fixed point");
                        assert_eq!(p.next_grant(req), Some(promised), "{kind} state drifted");
                    }
                }
                let _ = p.step(req);
            }
            // Every policy reaches fixed points under random traffic
            // (idle words at minimum).
            assert!(claims > 0, "{kind} never claimed a fixed point");
        }
    }
}
