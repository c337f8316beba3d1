//! Open-loop arrival schedules.
//!
//! Independent clients are modelled as a Poisson process: inter-arrival
//! gaps are exponential with mean `1 / rate`. The schedule is a pure
//! function of its seed, so a run can be repeated request for request.

use rcarb_core::rng::SplitMix64;

/// Send offsets in seconds from the phase start, ascending, for a
/// Poisson process of `rate_per_s` over `duration_s`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 53 random bits -> u in [0, 1); 1 - u is in (0, 1] so ln is finite.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}
