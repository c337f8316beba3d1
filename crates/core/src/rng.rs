//! Deterministic pseudo-random numbers for fault injection.
//!
//! Fault plans must reproduce **byte-identical** runs from a seed, on
//! both simulation kernels. A stateful generator cannot give that: the
//! batched kernel skips cycles the legacy kernel executes, so any
//! draw consumed "per cycle" would desynchronize the two. The module
//! therefore offers two primitives:
//!
//! - [`SplitMix64`], the classic stateful generator (used where a plain
//!   sequence is fine, e.g. randomized plan construction in tests);
//! - [`mix3`], a *stateless* keyed draw: `mix3(seed, cycle, salt)`
//!   depends only on its inputs, so an injection decision made "at
//!   cycle `c` for fault `i`" is identical no matter how many other
//!   draws happened first — or whether the surrounding cycles were
//!   skipped.

/// Sebastiano Vigna's SplitMix64: tiny, fast, passes BigCrush, and —
/// crucial here — every output is a bijective mix of the counter, so
/// distinct keys never collide trivially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 output mix: a bijective avalanche of one 64-bit word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including zero).
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// A draw in `0..n` (`n` must be nonzero). Modulo bias is
    /// irrelevant at fault-injection rates and keeps the draw a single
    /// deterministic operation.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

/// A stateless keyed draw: hashes `(seed, a, b)` into one uniform
/// 64-bit word. Identical inputs give identical outputs regardless of
/// call order, which is what keeps fault injection byte-identical
/// across the batched and legacy kernels.
pub fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    // Feed each key through the golden-ratio increment so consecutive
    // cycles land far apart in state space, then avalanche.
    let mut z = seed;
    z = mix(z.wrapping_add(0x9e37_79b9_7f4a_7c15));
    z = mix(z ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    mix(z ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(g.next_below(10) < 10);
        }
    }

    #[test]
    fn keyed_draws_are_order_independent() {
        // The whole point: mix3 is a pure function of its inputs.
        let forward: Vec<u64> = (0..10).map(|c| mix3(5, c, 3)).collect();
        let backward: Vec<u64> = (0..10).rev().map(|c| mix3(5, c, 3)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn keyed_draws_separate_keys() {
        // Neighbouring cycles, salts and seeds must all decorrelate.
        assert_ne!(mix3(1, 0, 0), mix3(1, 1, 0));
        assert_ne!(mix3(1, 0, 0), mix3(1, 0, 1));
        assert_ne!(mix3(1, 0, 0), mix3(2, 0, 0));
        // Zero seed is not a degenerate fixed point.
        assert_ne!(mix3(0, 0, 0), 0);
    }
}
