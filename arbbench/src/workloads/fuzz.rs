//! `fuzz`: `Fuzzer::run` in fixed-size chunks on the main thread, with
//! shrinking off.
//!
//! One shard: two shards on two cores contend for the shared exec pool
//! and the allocator, which made throughput swing twofold from one
//! process to the next.
//!
//! This is the only workload that runs `rcarb-fuzz`'s three-kernel
//! differential oracles and the analyzer across many generated designs.
//! Every raw finding counts as a failed scenario; findings of the
//! recorded kernel defect are marked as such (see `METRICS.md`).

use crate::calib::{Calibrator, CALIBRATE_EVERY_S};
use crate::spans::{stage, Tracer};
use crate::{stats, timed_setup, Args, Outcome};
use rcarb_analyze::{analyze_plan, AnalyzeConfig};
use rcarb_board::SpeedGrade;
use rcarb_core::characterize::Characterization;
use rcarb_core::generator::reset_synthesis_cache;
use rcarb_core::rng::mix3;
use rcarb_fuzz::{
    observe_kernel, FaultSpec, Finding, FindingKind, FuzzConfig, Fuzzer, Scenario, KERNELS,
};
use rcarb_sim::KernelKind;
use std::collections::BTreeSet;
use std::time::Instant;

/// Scenarios per `Fuzzer::run` call. Each call starts a fresh fuzzer on
/// the next stretch of generator seeds, so chunks are independent and a
/// run's figures do not hinge on what one early chunk happened to keep.
const CHUNK: u64 = 100;

/// Warms the synthesis cache for the arbiter sizes scenarios draw (the
/// fuzzer's tool-model oracle sweeps them on every scenario).
fn setup() {
    reset_synthesis_cache();
    Characterization::sweep_round_robin(1..=8, SpeedGrade::Minus3);
}

/// First generator seed of a shard: disjoint ranges per seed and shard.
fn shard_seed(seed: u64, shard: u64) -> u64 {
    mix3(seed, shard, 0xF022) >> 16
}

/// True for the recorded defect: an optimized kernel diverging from
/// legacy on a scenario whose faults perturb grant lines.
pub fn is_known_defect(f: &Finding) -> bool {
    let grant_fault = f.scenario.faults.iter().any(|s| {
        matches!(
            s,
            FaultSpec::GrantGlitch { .. } | FaultSpec::StuckGrant { .. }
        )
    });
    grant_fault
        && matches!(
            f.kind,
            FindingKind::KernelDivergence { .. } | FindingKind::StatsDivergence
        )
}

/// Distinct chunks per seed (4000 scenarios, 3 to 5 s of CPU on
/// 2 vCPUs). Each runs once, untimed, before the window: that pass is
/// the ledger, and it leaves the window only warm runs, whose count
/// would otherwise vary with host speed. The window then cycles over the
/// chunks, so every run of a seed times the same scenarios.
const CHUNKS: u64 = 40;

/// The first run of one distinct chunk.
struct ChunkRun {
    scenarios: u64,
    kept: u64,
    coverage_keys: usize,
    findings: Vec<Finding>,
}

/// What identifies a chunk's findings when a repeat is compared.
fn signature(findings: &[Finding]) -> Vec<(String, String)> {
    findings
        .iter()
        .map(|f| (f.kind.key(), rcarb_fuzz::encode(&f.scenario)))
        .collect()
}

struct ShardRun {
    /// CPU and wall seconds of each run in the window, per distinct chunk.
    cpu_s: Vec<Vec<f64>>,
    wall_s: Vec<Vec<f64>>,
    /// Scenarios run in the window.
    timed_scenarios: u64,
    /// The untimed first run of each distinct chunk.
    chunks: Vec<ChunkRun>,
    /// Chunks whose repeats found other findings than their first run.
    unstable: Vec<u64>,
}

impl ShardRun {
    /// `(scenarios, median seconds)` of every chunk run in the window, by
    /// one clock. Each chunk counts once, whatever its number of runs, so
    /// where the window cut the last pass does not weigh some chunks more.
    fn per_chunk(&self, times: &[Vec<f64>]) -> Vec<(f64, f64)> {
        times
            .iter()
            .zip(&self.chunks)
            .filter_map(|(t, c)| Some((c.scenarios as f64, stats::median(t)?)))
            .collect()
    }
}

/// Median ms per scenario over chunks, and scenarios per second over a
/// pass through them, from [`ShardRun::per_chunk`].
fn chunk_figures(per_chunk: &[(f64, f64)]) -> (f64, f64) {
    let ms: Vec<f64> = per_chunk.iter().map(|(n, s)| s * 1e3 / n).collect();
    let scenarios: f64 = per_chunk.iter().map(|(n, _)| n).sum();
    let secs: f64 = per_chunk.iter().map(|(_, s)| s).sum();
    (stats::median(&ms).unwrap_or(f64::NAN), scenarios / secs)
}

fn run_chunk(seed: u64, chunk: u64) -> ChunkRun {
    let config = FuzzConfig {
        max_scenarios: Some(CHUNK),
        seed_start: seed + chunk * CHUNK / 2,
        shrink_findings: false,
        ..FuzzConfig::default()
    };
    let mut fuzzer = Fuzzer::default();
    let stats = fuzzer.run(&config);
    ChunkRun {
        scenarios: stats.scenarios,
        kept: stats.kept,
        coverage_keys: stats.coverage_keys,
        findings: std::mem::take(&mut fuzzer.findings),
    }
}

fn run_shard(seed: u64, seconds: f64, calib: &mut Calibrator) -> ShardRun {
    let mut out = ShardRun {
        cpu_s: vec![Vec::new(); CHUNKS as usize],
        wall_s: vec![Vec::new(); CHUNKS as usize],
        timed_scenarios: 0,
        chunks: Vec::new(),
        unstable: Vec::new(),
    };
    out.chunks = (0..CHUNKS).map(|chunk| run_chunk(seed, chunk)).collect();
    let started = Instant::now();
    let mut runs = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let chunk = runs % CHUNKS;
        calib.tick();
        let (c0, t0) = (stats::cpu_s(), Instant::now());
        let run = run_chunk(seed, chunk);
        out.cpu_s[chunk as usize].push(stats::cpu_s() - c0);
        out.wall_s[chunk as usize].push(t0.elapsed().as_secs_f64());
        out.timed_scenarios += run.scenarios;
        let first = &out.chunks[chunk as usize];
        if signature(&first.findings) != signature(&run.findings) && !out.unstable.contains(&chunk)
        {
            out.unstable.push(chunk);
        }
        runs += 1;
    }
    out
}

/// Counts the distinct scenarios of every chunk: a scenario with any
/// finding failed; it is the known defect when all of its findings are.
/// A chunk whose repeats disagreed counts as one more failure.
fn count(out: &mut Outcome, shard: &ShardRun) {
    let mut bad: std::collections::BTreeMap<String, bool> = Default::default();
    let findings: Vec<&Finding> = shard.chunks.iter().flat_map(|c| &c.findings).collect();
    for f in &findings {
        let known = bad.entry(rcarb_fuzz::encode(&f.scenario)).or_insert(true);
        *known &= is_known_defect(f);
    }
    for chunk in &shard.unstable {
        bad.insert(format!("chunk {chunk} repeated differently"), false);
        out.line(format!(
            "chunk {chunk}: a repeat found other findings than the first run"
        ));
    }
    let scenarios: u64 = shard.chunks.iter().map(|c| c.scenarios).sum();
    for _ in 0..scenarios.saturating_sub(bad.len() as u64) {
        out.count(true, false);
    }
    for known in bad.values() {
        out.count(false, *known);
    }
    if let Some(f) = findings.iter().find(|f| !is_known_defect(f)) {
        out.line(format!(
            "unexpected finding [{}] {}: rcarb-fuzz replay '{}'",
            f.kind.key(),
            f.detail,
            rcarb_fuzz::encode(&f.scenario)
        ));
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let (setup_s, ()) = timed_setup(setup);
    let mut calib = Calibrator::new(CALIBRATE_EVERY_S, 1);
    let shard = run_shard(shard_seed(args.seed, 0), args.seconds, &mut calib);
    count(&mut out, &shard);
    out.line(calib.render());

    let (p50, per_cpu_s) = chunk_figures(&shard.per_chunk(&shard.cpu_s));
    let (wall_p50, per_wall_s) = chunk_figures(&shard.per_chunk(&shard.wall_s));
    let timed_chunks = shard.cpu_s.iter().filter(|t| !t.is_empty()).count();
    let scale = calib.factor();
    out.set("setup_s", setup_s);
    out.set("op_cpu_p50_ms", p50 * scale);
    out.set("throughput_per_cpu_s", per_cpu_s / scale);
    let raw: usize = shard.chunks.iter().map(|c| c.findings.len()).sum();
    let kept: u64 = shard.chunks.iter().map(|c| c.kept).sum();
    out.line(format!(
        "fuzz: {} distinct scenarios in {CHUNKS} chunks ({raw} raw findings, {kept} kept); {} scenarios run in the window",
        out.attempted, shard.timed_scenarios
    ));
    out.line(format!(
        "fuzz_scenarios_per_s: {per_wall_s:.3} 1/s wall, {per_cpu_s:.3} 1/s CPU (one pass over {timed_chunks} chunks, each at its median)"
    ));
    out.line(format!(
        "scenario_ms: {wall_p50:.4} ms wall, {p50:.4} ms CPU (median over {timed_chunks} chunks of each chunk's median)"
    ));
    out
}

fn kernel_span(kernel: KernelKind) -> &'static str {
    match kernel {
        KernelKind::Legacy => "fuzz.observe.legacy",
        KernelKind::Event => "fuzz.observe.event",
        KernelKind::BatchedSoa => "fuzz.observe.batched",
    }
}

/// Generated scenarios replayed stage by stage: generation, each kernel
/// through `observe_kernel`, materialization and the analyzer.
fn replay(seeds: &[u64], mut tracer: Option<&mut Tracer>) -> (u64, u64) {
    let mut diagnostics = 0u64;
    let mut failures = 0u64;
    for &seed in seeds {
        let mut one = |t: &mut Option<&mut Tracer>| {
            let scenario = stage(t, "fuzz.generate", || Scenario::generate(seed));
            let mut observed = Vec::new();
            for kernel in KERNELS {
                observed.push(stage(t, kernel_span(kernel), || {
                    observe_kernel(&scenario, kernel)
                }));
            }
            if let Ok(mat) = stage(t, "fuzz.materialize", || scenario.materialize()) {
                let report = stage(t, "analyze", || {
                    analyze_plan(
                        &mat.plan,
                        &mat.binding,
                        &mat.merges,
                        &AnalyzeConfig::default().with_max_burst(scenario.max_burst),
                    )
                });
                diagnostics += report.diagnostics().len() as u64;
            }
            if observed.iter().any(Result::is_err) {
                failures += 1;
            }
        };
        match tracer.as_deref_mut() {
            Some(tr) => tr.op("fuzz", |tr| one(&mut Some(tr))),
            None => one(&mut None),
        }
    }
    (diagnostics, failures)
}

/// The traced run: a third of the window fuzzing untraced for the
/// corpus figures, then generated scenarios replayed under spans and
/// again without, for the overhead ratio.
fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    setup();
    let shard = run_shard(
        shard_seed(args.seed, 0),
        args.seconds / 3.0,
        &mut Calibrator::new(CALIBRATE_EVERY_S, 1),
    );
    count(&mut out, &shard);
    let scenarios: u64 = shard.chunks.iter().map(|c| c.scenarios).sum();
    let kept: u64 = shard.chunks.iter().map(|c| c.kept).sum();
    let findings: Vec<&Finding> = shard.chunks.iter().flat_map(|c| &c.findings).collect();
    out.set("fuzz.kept_ratio", super::ratio(kept, scenarios));
    out.set(
        "fuzz.coverage_keys",
        shard
            .chunks
            .iter()
            .map(|c| c.coverage_keys)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("fuzz.findings", findings.len() as f64);

    let mut tracer = Tracer::new();
    let mut seeds = Vec::new();
    let base = shard_seed(args.seed, 1);
    let t0 = Instant::now();
    let mut diagnostics = 0;
    while t0.elapsed().as_secs_f64() < args.seconds / 3.0 && seeds.len() < super::MAX_TRACED_OPS {
        let seed = base + seeds.len() as u64;
        seeds.push(seed);
        diagnostics += replay(&[seed], Some(&mut tracer)).0;
    }
    let traced_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let (_, failures) = replay(&seeds, None);
    let untraced_ns = t0.elapsed().as_nanos() as u64;
    if failures > 0 {
        out.errors
            .push(format!("{failures} replayed scenarios failed to run"));
    }

    super::layer_metrics(&mut out, &tracer, traced_ns, untraced_ns);
    out.set(
        "analyze.findings",
        diagnostics as f64 / seeds.len().max(1) as f64,
    );
    let distinct: BTreeSet<String> = findings.iter().map(|f| f.kind.key()).collect();
    out.line(format!(
        "fuzz traced: {scenarios} scenarios fuzzed ({} findings: {distinct:?}), {} replayed under spans",
        findings.len(),
        seeds.len()
    ));
    super::finish_trace(&mut out, &tracer, traced_ns, args);
    out
}
