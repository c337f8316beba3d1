//! Host-speed reference: a fixed unit of work owned by the benchmark.
//!
//! On a shared host the same code's CPU time swings by up to twofold
//! from one minute to the next (other tenants on the sibling hyperthread
//! and in the memory system), and no clock leaves that out. Each
//! workload therefore runs [`reference_work`] interleaved with its
//! operations and scales its timings by nominal ÷ measured reference
//! time (both medians over the run): on a host running at half speed the reference takes twice its
//! nominal time, and the operations are scaled back by the same factor.
//! The reference uses only the standard library, so no change to the
//! program under test changes it.

use crate::stats;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The unit of scaled timings: they read as if [`reference_work`] took
/// this many CPU milliseconds per thread. A chosen figure, close to what
/// it takes on a quiet 2-vCPU Intel Xeon VM in a release build.
pub const NOMINAL_MS: f64 = 0.5;

/// Process CPU time between reference measurements: about 2 % of a run
/// goes into the reference.
pub const CALIBRATE_EVERY_S: f64 = 0.1;

/// One unit of reference work: sorting, ordered-map inserts and lookups,
/// and string formatting and parsing over seeded data, the same mix of
/// branchy integer work, pointer chasing and allocation the stack does.
pub fn reference_work() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..8192).map(|_| next()).collect();
    v.sort_unstable();
    let mut map = BTreeMap::new();
    for &k in v.iter().step_by(4) {
        map.insert(k.rotate_left(17), k);
    }
    let mut acc = 0u64;
    for &k in v.iter().step_by(3) {
        acc = acc.wrapping_add(*map.get(&k.rotate_left(17)).unwrap_or(&1));
    }
    for &k in v.iter().step_by(16) {
        let text = format!("{k}:{}", k >> 7);
        acc = acc.wrapping_add(text.len() as u64);
        acc ^= text
            .split(':')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
    }
    black_box(acc)
}

/// Runs the reference at most once per `interval_s` of process CPU time
/// and turns its measured times into a scale factor.
///
/// The reference runs on as many threads at once as the measured
/// operations keep busy: when both vCPUs of a 2-vCPU VM compute, each
/// runs slower than one alone does, by an amount that varies with the
/// host.
#[derive(Debug)]
pub struct Calibrator {
    interval_s: f64,
    threads: usize,
    last_cpu_s: f64,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    /// A calibrator for operations that keep `threads` threads busy,
    /// which has measured the reference once.
    pub fn new(interval_s: f64, threads: usize) -> Self {
        let mut c = Self {
            interval_s,
            threads: threads.max(1),
            last_cpu_s: 0.0,
            samples_ms: Vec::new(),
        };
        c.measure();
        c
    }

    /// Measures the reference now: CPU time per thread.
    pub fn measure(&mut self) {
        let c0 = stats::cpu_s();
        if self.threads == 1 {
            reference_work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..self.threads {
                    scope.spawn(reference_work);
                }
            });
        }
        let c1 = stats::cpu_s();
        self.samples_ms.push((c1 - c0) * 1e3 / self.threads as f64);
        self.last_cpu_s = c1;
    }

    /// Measures the reference if `interval_s` of CPU time has gone by
    /// since the last measurement. Call between operations.
    pub fn tick(&mut self) {
        if stats::cpu_s() - self.last_cpu_s >= self.interval_s {
            self.measure();
        }
    }

    /// Median measured reference time.
    pub fn reference_ms(&self) -> f64 {
        stats::median(&self.samples_ms).expect("measured at least once")
    }

    /// Multiply a measured time by this to get it at nominal speed.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / self.reference_ms()
    }

    /// Number of reference measurements.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// A line for the run's output: the measured reference and factor.
    pub fn render(&self) -> String {
        format!(
            "host speed: reference {:.4} ms CPU per thread on {} threads (median of {}; nominal {NOMINAL_MS} ms), scale {:.4}",
            self.reference_ms(),
            self.threads,
            self.samples(),
            self.factor()
        )
    }
}
