//! FIFO (arrival-order) arbitration (baseline).
//!
//! Requests are served oldest-first. The hardware is the classic *age
//! matrix*: an N x N flip-flop matrix `M[i][j]` meaning "task i's pending
//! request is older than task j's", maintained from request edges, plus
//! edge-detect registers and a holder lock. The quadratic flip-flop count
//! is what made the paper call the FIFO option "too large" for the RC
//! framework.
//!
//! Same-cycle arrivals tie-break by task index (lower index counts as
//! older), which keeps the matrix antisymmetric and the grant unique.

use crate::policy::{Policy, PolicyKind};
use rcarb_logic::netlist::Netlist;
use rcarb_logic::structural::CircuitBuilder;

/// Behavioural age-matrix FIFO arbiter with a holder lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoArbiter {
    n: usize,
    /// Bit `j` of `older[i]`: i's pending request predates j's.
    older: [u32; 32],
    /// The request word sampled last cycle (the edge detectors).
    prev_req: u64,
    holder: Option<usize>,
}

impl FifoArbiter {
    /// Creates an arbiter for `n` tasks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or larger than 32.
    pub fn new(n: usize) -> Self {
        assert!((1..=32).contains(&n), "fifo arbiter supports 1..=32 tasks");
        Self {
            n,
            older: [0; 32],
            prev_req: 0,
            holder: None,
        }
    }

    /// Builds the equivalent gate-level netlist: inputs `R0..R(n-1)`,
    /// outputs `G0..G(n-1)`.
    pub fn structural_netlist(n: usize) -> Netlist {
        assert!((1..=32).contains(&n), "fifo arbiter supports 1..=32 tasks");
        let mut b = CircuitBuilder::new(n);
        let reqs: Vec<_> = (0..n).map(|i| b.input(i)).collect();
        let prev: Vec<_> = (0..n).map(|_| b.reg(false)).collect();
        let news: Vec<_> = (0..n).map(|i| b.and_not(reqs[i], prev[i])).collect();
        for i in 0..n {
            b.connect_reg(prev[i], reqs[i]);
        }
        // Age matrix (diagonal omitted).
        let mut matrix = vec![b.constant(false); n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    matrix[i * n + j] = b.reg(false);
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // On new_i: i is older than j only if j is not already
                // pending, or j arrives the same cycle and i wins the
                // index tie-break. On new_j (and not new_i): i (pending or
                // not) becomes older than j. Otherwise hold.
                let not_rj = b.not(reqs[j]);
                let tie = if i < j { news[j] } else { b.constant(false) };
                let when_new_i = b.or2(not_rj, tie);
                let hold_or_newj = b.or2(news[j], matrix[i * n + j]);
                let next = b.mux(news[i], when_new_i, hold_or_newj);
                b.connect_reg(matrix[i * n + j], next);
            }
        }
        // Holder lock.
        let holders: Vec<_> = (0..n).map(|_| b.reg(false)).collect();
        let held: Vec<_> = (0..n).map(|i| b.and2(holders[i], reqs[i])).collect();
        let locked = b.or_many(&held);
        let not_locked = b.not(locked);
        // Oldest-pending selection. "Pending" must reflect effective age:
        // a request arriving this cycle participates with its tie-broken
        // matrix view: for new requests the matrix registers still hold
        // stale values, so substitute the combinational next-matrix for
        // rows/columns with news set.
        for i in 0..n {
            let mut terms = vec![reqs[i]];
            for j in 0..n {
                if i == j {
                    continue;
                }
                // effective_older(i,j): matrix unless one side just arrived.
                let not_rj = b.not(reqs[j]);
                let tie = if i < j { news[j] } else { b.constant(false) };
                let when_new_i = b.or2(not_rj, tie);
                let hold_or_newj = b.or2(news[j], matrix[i * n + j]);
                let eff = b.mux(news[i], when_new_i, hold_or_newj);
                let ok = b.or2(not_rj, eff);
                terms.push(ok);
            }
            let sel = b.and_many(&terms);
            let fresh_grant = b.and2(not_locked, sel);
            let grant = b.or2(held[i], fresh_grant);
            b.output(grant);
            b.connect_reg(holders[i], grant);
        }
        b.finish()
    }

    fn effective_older(&self, i: usize, j: usize, req: u64) -> bool {
        let new = req & !self.prev_req;
        let new_i = new >> i & 1 != 0;
        let new_j = new >> j & 1 != 0;
        if new_i {
            let rj = req >> j & 1 != 0;
            !rj || (new_j && i < j)
        } else if new_j {
            true
        } else {
            self.older[i] >> j & 1 != 0
        }
    }
}

impl Policy for FifoArbiter {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Fifo
    }

    fn num_tasks(&self) -> usize {
        self.n
    }

    fn step(&mut self, requests: u64) -> u64 {
        let requests = requests & mask(self.n);
        // Combinational grant from the *effective* (edge-adjusted) ages.
        let grant = if let Some(h) = self.holder.filter(|&h| requests >> h & 1 != 0) {
            1u64 << h
        } else if requests == 0 {
            self.holder = None;
            0
        } else {
            let winner = (0..self.n)
                .find(|&i| {
                    requests >> i & 1 != 0
                        && (0..self.n).all(|j| {
                            i == j || requests >> j & 1 == 0 || self.effective_older(i, j, requests)
                        })
                })
                .expect("age matrix always has a unique oldest");
            self.holder = Some(winner);
            1 << winner
        };
        // Clock edge: update matrix and edge detectors.
        let mut next = [0u32; 32];
        for (i, row) in next.iter_mut().enumerate().take(self.n) {
            for j in 0..self.n {
                if i != j && self.effective_older(i, j, requests) {
                    *row |= 1 << j;
                }
            }
        }
        self.older = next;
        self.prev_req = requests;
        grant
    }

    fn reset(&mut self) {
        self.older = [0; 32];
        self.prev_req = 0;
        self.holder = None;
    }

    fn next_grant(&self, requests: u64) -> Option<u64> {
        let requests = requests & mask(self.n);
        // The age matrix only moves on request *edges*; with the edge
        // detectors settled (`prev_req` equals the held word) the matrix
        // update rewrites itself and the grant is combinationally fixed.
        if self.prev_req != requests {
            return None;
        }
        match self.holder {
            Some(h) if requests >> h & 1 != 0 => Some(1 << h),
            None if requests == 0 => Some(0),
            // Holder about to release, or a fresh claim pending.
            _ => None,
        }
    }
}

fn mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_order_is_respected() {
        let mut a = FifoArbiter::new(4);
        // Task 2 arrives first, then task 0 joins one cycle later.
        assert_eq!(a.step(0b0100), 0b0100);
        assert_eq!(a.step(0b0101), 0b0100); // 2 still holds
                                            // 2 releases; 0 (older than nobody else pending) wins.
        assert_eq!(a.step(0b0001), 0b0001);
    }

    #[test]
    fn queue_of_three_drains_in_order() {
        let mut a = FifoArbiter::new(4);
        assert_eq!(a.step(0b1000), 0b1000); // 3 arrives
        assert_eq!(a.step(0b1010), 0b1000); // 1 queues behind 3
        assert_eq!(a.step(0b1011), 0b1000); // 0 queues last
        assert_eq!(a.step(0b0011), 0b0010); // 3 gone -> 1 (older than 0)
        assert_eq!(a.step(0b0001), 0b0001); // 1 gone -> 0
    }

    #[test]
    fn same_cycle_tie_breaks_by_index() {
        let mut a = FifoArbiter::new(3);
        assert_eq!(a.step(0b110), 0b010); // tasks 1 and 2 arrive together
        assert_eq!(a.step(0b100), 0b100);
    }

    #[test]
    fn re_request_goes_to_back_of_queue() {
        let mut a = FifoArbiter::new(3);
        assert_eq!(a.step(0b001), 0b001);
        assert_eq!(a.step(0b011), 0b001); // 1 queues
                                          // 0 releases, immediately re-requests next cycle: 1 must win, and
                                          // 0's fresh request queues behind 1.
        assert_eq!(a.step(0b010), 0b010);
        assert_eq!(a.step(0b011), 0b010);
        assert_eq!(a.step(0b001), 0b001);
    }

    #[test]
    fn structural_matches_behavioural() {
        for n in [2usize, 3, 4, 6] {
            let nl = FifoArbiter::structural_netlist(n);
            let mut beh = FifoArbiter::new(n);
            let mut state = nl.reset_state();
            let mut x = 0x0123456789abcdefu64 ^ (n as u64) << 48;
            for step in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let req = x & mask(n);
                let req_bits: Vec<bool> = (0..n).map(|i| req >> i & 1 != 0).collect();
                let hw = nl.step(&mut state, &req_bits);
                let hw_word = hw
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (i, &g)| if g { w | 1 << i } else { w });
                assert_eq!(hw_word, beh.step(req), "n={n} step={step} req={req:#b}");
            }
        }
    }

    #[test]
    fn flip_flop_count_is_quadratic() {
        let nl4 = FifoArbiter::structural_netlist(4);
        let nl8 = FifoArbiter::structural_netlist(8);
        // n*(n-1) matrix + n prev + n holder.
        assert_eq!(nl4.num_regs(), 4 * 3 + 4 + 4);
        assert_eq!(nl8.num_regs(), 8 * 7 + 8 + 8);
    }
}
