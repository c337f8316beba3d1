//! The seeded benchmark of the rcarb arbitration stack.
//!
//! One binary runs one workload per invocation. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) replay the workload's operations stage by stage under
//! spans recorded here, around calls into each crate's public
//! functions, and report per-layer metrics. `METRICS.md` next to this
//! package is the catalogue.

pub mod calib;
pub mod fingerprint;
pub mod gen;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// Times are process CPU time (see [`stats::cpu_s`]) scaled to a
/// reference host speed (see [`calib`]).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cpu_p50_ms", "ms"),
    ("throughput_per_cpu_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("logic.encode_ms", "ms"),
    ("logic.minimize_ms", "ms"),
    ("logic.techmap_ms", "ms"),
    ("logic.pack_ms", "ms"),
    ("logic.timing_ms", "ms"),
    ("logic.luts", "count"),
    ("exec.cache_hits", "count"),
    ("exec.cache_misses", "count"),
    ("exec.cache_hit_rate", "ratio"),
    ("exec.pool_jobs", "count"),
    ("exec.pool_stolen", "count"),
    ("exec.pool_busy_ratio", "ratio"),
    ("core.generate_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("core.insert_ms", "ms"),
    ("core.arbiters", "count"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.cycles_executed", "count"),
    ("sim.cycles_skipped", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.ns_per_executed_cycle", "ns"),
    ("analyze.ms", "ms"),
    ("analyze.findings", "count"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.frame_ms", "ms"),
    ("serve.request_kb", "KB"),
    ("serve.backend_ms.synthesize", "ms"),
    ("serve.backend_ms.sweep", "ms"),
    ("serve.backend_ms.plan", "ms"),
    ("serve.backend_ms.analyze", "ms"),
    ("serve.backend_ms.simulate", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.max_queue_depth", "count"),
    ("serve.batches", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("fuzz.generate_ms", "ms"),
    ("fuzz.observe_ms.legacy", "ms"),
    ("fuzz.observe_ms.event", "ms"),
    ("fuzz.observe_ms.batched", "ms"),
    ("fuzz.materialize_ms", "ms"),
    ("fuzz.kept_ratio", "ratio"),
    ("fuzz.coverage_keys", "count"),
    ("fuzz.findings", "count"),
    ("trace.ops", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
    ("known_defect_failures", "count"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// Names the missing or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds is not a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed is not an unsigned integer".to_owned())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name; units come from the catalogue.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused or dropped, mismatched
    /// their reference, or raised a fuzz finding.
    pub failed: u64,
    /// Failures that belong to the recorded known kernel defect (a
    /// subset of `failed`; see `METRICS.md`).
    pub known_defect: u64,
    /// Check failures that are not operation failures (a broken closure
    /// or trace, a reference that could not be computed).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one checked operation.
    pub fn count(&mut self, ok: bool, known_defect: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if known_defect {
                self.known_defect += 1;
            }
        }
    }

    /// True when every failure is the known defect and no check broke.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == self.known_defect
    }
}

/// Fewest setup repetitions per untraced run.
pub const SETUP_MIN_REPS: usize = 5;
/// Setup repeats past the minimum until this much time has gone into it,
/// so a setup of a few milliseconds still yields a steady median.
pub const SETUP_MIN_S: f64 = 1.0;
/// Most setup repetitions per run.
pub const SETUP_MAX_REPS: usize = 64;

/// Runs `setup` at least [`SETUP_MIN_REPS`] times and on until
/// [`SETUP_MIN_S`] seconds have gone into it (at most [`SETUP_MAX_REPS`]
/// times), and returns the median CPU time in seconds, at the reference
/// host speed measured between repetitions (see [`calib`]), with the
/// last repetition's result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut calib = calib::Calibrator::new(0.0, 1);
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        // The previous result is dropped outside the timed region (a
        // daemon drains when dropped).
        drop(last.take());
        let c0 = stats::cpu_s();
        last = Some(setup());
        times.push(stats::cpu_s() - c0);
        calib.measure();
    }
    let median = stats::median(&times).expect("at least one repetition");
    (
        median * calib.factor(),
        last.expect("at least one repetition"),
    )
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
