//! Random arbitration (baseline).
//!
//! Each time the resource is free, an 8-bit LFSR supplies a pseudo-random
//! scan start and the first requester from there wins; a one-hot holder
//! register keeps multi-cycle accesses granted. The selection barrel (one
//! priority chain per possible start) plus the LFSR and the non-power-of-2
//! modulus decode are what made the paper call this option "too large".

use crate::policy::{Policy, PolicyKind};
use rcarb_logic::netlist::Netlist;
use rcarb_logic::structural::CircuitBuilder;

/// LFSR power-on value (any non-zero value works; fixed for
/// reproducibility).
pub const LFSR_SEED: u8 = 0x5A;

/// Fibonacci LFSR taps for width 8: x^8 + x^6 + x^5 + x^4 + 1.
const TAPS: [usize; 4] = [7, 5, 4, 3];

fn lfsr_next(state: u8) -> u8 {
    let fb = TAPS.iter().fold(0u8, |acc, &t| acc ^ (state >> t & 1));
    state << 1 | fb
}

/// Behavioural random arbiter with a holder lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomArbiter {
    n: usize,
    k: usize,
    seed: u8,
    lfsr: u8,
    holder: Option<usize>,
}

impl RandomArbiter {
    /// Creates an arbiter for `n` tasks with the default seed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or larger than 32.
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, LFSR_SEED)
    }

    /// Creates an arbiter with an explicit LFSR seed (must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `seed` is zero (an all-zero LFSR
    /// never advances).
    pub fn with_seed(n: usize, seed: u8) -> Self {
        assert!(
            (1..=32).contains(&n),
            "random arbiter supports 1..=32 tasks"
        );
        assert_ne!(seed, 0, "LFSR seed must be non-zero");
        Self {
            n,
            k: bits_for(n),
            seed,
            lfsr: seed,
            holder: None,
        }
    }

    fn scan_start(&self) -> usize {
        let v = (self.lfsr as usize) & ((1 << self.k) - 1);
        if v >= self.n {
            v - self.n
        } else {
            v
        }
    }

    /// Builds the equivalent gate-level netlist: inputs `R0..R(n-1)`,
    /// outputs `G0..G(n-1)`.
    pub fn structural_netlist(n: usize) -> Netlist {
        assert!(
            (1..=32).contains(&n),
            "random arbiter supports 1..=32 tasks"
        );
        let k = bits_for(n);
        let mut b = CircuitBuilder::new(n);
        let reqs: Vec<_> = (0..n).map(|i| b.input(i)).collect();

        // The 8-bit LFSR advances every cycle.
        let lfsr: Vec<_> = (0..8).map(|i| b.reg(LFSR_SEED >> i & 1 != 0)).collect();
        let fb = {
            let t0 = b.xor2(lfsr[TAPS[0]], lfsr[TAPS[1]]);
            let t1 = b.xor2(lfsr[TAPS[2]], lfsr[TAPS[3]]);
            b.xor2(t0, t1)
        };
        for i in (1..8).rev() {
            b.connect_reg(lfsr[i], lfsr[i - 1]);
        }
        b.connect_reg(lfsr[0], fb);

        // Decode the scan start s from the low k LFSR bits, with the
        // v >= n wraparound handled by also accepting v == s + n.
        let eq_const = |b: &mut CircuitBuilder, value: usize| {
            let lits: Vec<_> = (0..k)
                .map(|bit| {
                    if value >> bit & 1 != 0 {
                        lfsr[bit]
                    } else {
                        // negate below
                        lfsr[bit]
                    }
                })
                .collect();
            // Build AND of polarized bits.
            let mut terms = Vec::with_capacity(k);
            for (bit, &l) in lits.iter().enumerate() {
                if value >> bit & 1 != 0 {
                    terms.push(l);
                } else {
                    let nl = b.not(l);
                    terms.push(nl);
                }
            }
            b.and_many(&terms)
        };
        let decodes: Vec<_> = (0..n)
            .map(|s| {
                let direct = eq_const(&mut b, s);
                if s + n < (1 << k) {
                    let wrapped = eq_const(&mut b, s + n);
                    b.or2(direct, wrapped)
                } else {
                    direct
                }
            })
            .collect();

        // Holder lock.
        let holders: Vec<_> = (0..n).map(|_| b.reg(false)).collect();
        let held: Vec<_> = (0..n).map(|i| b.and2(holders[i], reqs[i])).collect();
        let locked = b.or_many(&held);
        let not_locked = b.not(locked);

        // Selection barrel: for each start s and offset o, grant the task
        // (s + o) % n when it requests and everything between s and it
        // does not.
        let mut fresh = vec![Vec::new(); n];
        for (s, &dec) in decodes.iter().enumerate() {
            for o in 0..n {
                let i = (s + o) % n;
                let mut terms = vec![dec, reqs[i]];
                for m in 0..o {
                    let blocker = reqs[(s + m) % n];
                    let nb = b.not(blocker);
                    terms.push(nb);
                }
                let t = b.and_many(&terms);
                fresh[i].push(t);
            }
        }
        for i in 0..n {
            let pick = b.or_many(&fresh[i]);
            let fresh_grant = b.and2(not_locked, pick);
            let grant = b.or2(held[i], fresh_grant);
            b.output(grant);
            b.connect_reg(holders[i], grant);
        }
        b.finish()
    }
}

impl Policy for RandomArbiter {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Random
    }

    fn num_tasks(&self) -> usize {
        self.n
    }

    fn step(&mut self, requests: u64) -> u64 {
        let requests = requests & mask(self.n);
        let start = self.scan_start();
        self.lfsr = lfsr_next(self.lfsr); // advances every cycle
        if let Some(h) = self.holder {
            if requests >> h & 1 != 0 {
                return 1 << h;
            }
        }
        if requests == 0 {
            self.holder = None;
            return 0;
        }
        let winner = (0..self.n)
            .map(|o| (start + o) % self.n)
            .find(|&i| requests >> i & 1 != 0)
            .expect("requests nonzero");
        self.holder = Some(winner);
        1 << winner
    }

    fn reset(&mut self) {
        self.lfsr = self.seed;
        self.holder = None;
    }

    fn next_grant(&self, _requests: u64) -> Option<u64> {
        // The LFSR advances on every step regardless of the request
        // word, so this policy is never at a fixed point: the
        // batched kernel must execute every cycle under it to keep
        // the pseudo-random sequence bit-identical to the legacy loop.
        None
    }
}

fn bits_for(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
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
    fn lfsr_has_long_period() {
        let mut s = LFSR_SEED;
        let mut period = 0u32;
        loop {
            s = lfsr_next(s);
            period += 1;
            if s == LFSR_SEED || period > 300 {
                break;
            }
        }
        assert_eq!(period, 255, "maximal-length 8-bit LFSR expected");
    }

    #[test]
    fn holder_is_sticky() {
        let mut a = RandomArbiter::new(4);
        let g = a.step(0b0100);
        assert_eq!(g, 0b0100);
        for _ in 0..20 {
            assert_eq!(a.step(0b1111), 0b0100);
        }
    }

    #[test]
    fn grants_spread_over_tasks() {
        let mut a = RandomArbiter::new(4);
        let mut counts = [0u32; 4];
        let mut req = 0b1111u64;
        for _ in 0..4000 {
            let g = a.step(req);
            if g != 0 {
                counts[g.trailing_zeros() as usize] += 1;
                req &= !g; // release immediately
            } else {
                req = 0b1111;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 100, "task {i} nearly starved: {counts:?}");
        }
    }

    #[test]
    fn structural_matches_behavioural() {
        for n in [2usize, 3, 5, 6] {
            let nl = RandomArbiter::structural_netlist(n);
            let mut beh = RandomArbiter::new(n);
            let mut state = nl.reset_state();
            let mut x = 0xabcdef0123456789u64 ^ (n as u64) << 32;
            for step in 0..800 {
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
    fn netlist_is_bigger_than_priority() {
        let n = 6;
        let rnd = RandomArbiter::structural_netlist(n).num_luts();
        let pri = crate::priority::StaticPriorityArbiter::structural_netlist(n).num_luts();
        assert!(
            rnd > pri,
            "random ({rnd} LUTs) should out-cost static priority ({pri} LUTs)"
        );
    }
}
