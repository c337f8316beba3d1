//! `bench_sweep` — the parallel-characterization benchmark.
//!
//! Sweeps round-robin arbiters over N in [2, 32] for every (tool,
//! encoding) combination three ways — sequentially, in parallel on a
//! cold synthesis cache, and in parallel on a warm cache — asserts the
//! three tables are byte-identical, and writes the timings plus the
//! engine's [`PerfReport`] to `BENCH_sweep.json`.
//!
//! ```text
//! cargo run -p rcarb-bench --release --bin bench_sweep [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the sweep to N in [2, 8] for CI smoke jobs. The
//! recorded `cores` field is the pool's actual worker count: speedups on
//! a single-core host are honestly ~1x, the parallel path there is
//! exercised for determinism, not for speed.
//!
//! One-hot combinations above N = 21 exceed the two-level synthesizer's
//! 64-variable cube budget and are skipped by the sweep itself (see
//! `rcarb_core::characterize::synthesizable`), so the tail of the range
//! only carries the compact series.
//!
//! The `kernel` section of the JSON compares both simulation kernels —
//! the batched SoA production kernel and the legacy always-execute
//! reference loop — on four workloads: a
//! sparse one (long computes, long grant waits), a dense one (private
//! banks, memory traffic every cycle), a contended one (sixteen tasks
//! queued on shared banks — the fully-loaded regime the batched
//! kernel's deferred-wait fast path targets) and one FFT block. The
//! differential assertions (identical reports, full cycle accounting,
//! a never-skipping reference) run on every host; only the wall-clock
//! speedup thresholds are gated on a multi-core machine.
//! Each entry records simulated cycles per wall-clock second per
//! kernel.
//!
//! The `fault` section is the chaos harness: it measures the wall-clock
//! cost of arming an *empty* fault plan (the zero-fault fast path must
//! be free and byte-identical to an unarmed run), then sweeps seeded
//! fault plans — a camping stuck-request plus a transient task hang —
//! over a contended two-task workload on both kernels, asserting
//! the kernels produce identical run and fault reports for every seed
//! and recording detection/recovery counts and the worst detection
//! latency.
//!
//! The `obs` section measures the observability layer: the dense
//! workload runs bare and with a metrics/tracing session attached, the
//! two run reports must be byte-identical, and the enabled-session
//! overhead must stay within 5%.
//!
//! The `analyze` section times the six-family static verifier on the
//! FFT flow (every temporal partition, exactly what the CI analyze-gate
//! job runs) and on an N×encoding grid of contended single-bank plans,
//! asserting every plan verifies in under a second so the gate stays
//! cheap.

use rcarb_analyze::{analyze_plan, AnalyzeConfig};
use rcarb_board::device::SpeedGrade;
use rcarb_board::presets;
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::characterize::Characterization;
use rcarb_core::generator::{reset_synthesis_cache, synthesis_cache_stats};
use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
use rcarb_core::memmap::bind_segments;
use rcarb_exec::{global_pool, PerfReport};
use rcarb_fft::flow::{run_fft_flow, simulate_block_with};
use rcarb_json::Json;
use rcarb_logic::encode::EncodingStyle;
use rcarb_obs::{Obs, ObsConfig};
use rcarb_sim::config::{SimConfig, WatchdogConfig};
use rcarb_sim::engine::SystemBuilder;
use rcarb_sim::scheduler::KernelStats;
use rcarb_sim::stats::kernel_speedup;
use rcarb_sim::{FaultPlan, FaultWindow, KernelKind, RecoveryPolicy};
use rcarb_taskgraph::builder::TaskGraphBuilder;
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::id::{ArbiterId, TaskId};
use rcarb_taskgraph::program::{Expr, Program};
use std::time::{Duration, Instant};

/// One timed kernel run: wall clock of the `run()` call alone (system
/// construction excluded), an equality witness, total cycles and the
/// kernel's cycle accounting.
type KernelRun<T> = (Duration, T, u64, KernelStats);

/// Best-of-`reps` timing; the witness/stats come from the last rep
/// (every rep is deterministic, so they are all identical).
fn best_of<T>(reps: usize, run: impl Fn() -> KernelRun<T>) -> KernelRun<T> {
    let mut best: Option<KernelRun<T>> = None;
    for _ in 0..reps {
        let r = run();
        best = Some(match best {
            Some(b) if b.0 <= r.0 => (b.0, r.1, r.2, r.3),
            _ => r,
        });
    }
    best.expect("reps > 0")
}

/// The two-kernel comparison record for one workload: the JSON entry
/// plus the batched kernel's wall-clock speedup over legacy.
struct KernelComparison {
    json: Json,
    batched_speedup: f64,
    cycle_speedup: f64,
}

/// Simulated cycles per wall-clock second — the throughput number the
/// Performance table quotes.
fn cycles_per_sec(cycles: u64, wall: Duration) -> f64 {
    cycles as f64 / wall.as_secs_f64().max(1e-9)
}

/// Runs one workload under both kernels, asserts they agree, and
/// renders a JSON record of the comparison.
///
/// The differential checks here are *unconditional* — they hold on any
/// host, single-core included: byte-identical witnesses, identical cycle
/// counts, a never-skipping legacy oracle, and full cycle accounting
/// (executed plus skipped) on the batched kernel. Only the wall-clock
/// *thresholds* in `main` are gated on core count; the timings
/// themselves are always recorded.
fn kernel_entry<T: PartialEq + std::fmt::Debug>(
    label: &str,
    reps: usize,
    run: impl Fn(KernelKind) -> KernelRun<T>,
) -> KernelComparison {
    let (legacy_wall, legacy_witness, legacy_cycles, legacy_stats) =
        best_of(reps, || run(KernelKind::Legacy));
    let (batched_wall, batched_witness, batched_cycles, batched_stats) =
        best_of(reps, || run(KernelKind::BatchedSoa));
    assert!(
        batched_witness == legacy_witness,
        "{label}: batched kernel disagrees\nbatched: {batched_witness:?}\nlegacy:  {legacy_witness:?}"
    );
    assert_eq!(
        batched_cycles, legacy_cycles,
        "{label}: batched cycle count differs"
    );
    assert_eq!(
        legacy_stats.skipped_cycles, 0,
        "{label}: the legacy kernel must never skip"
    );
    assert_eq!(
        batched_stats.total_cycles(),
        legacy_stats.total_cycles(),
        "{label}: kernels must account the same simulated cycles"
    );
    let batched_speedup = legacy_wall.as_secs_f64() / batched_wall.as_secs_f64().max(1e-9);
    let cycle_speedup = kernel_speedup(&batched_stats);
    let json = Json::Obj(vec![
        (
            "legacy_ms".to_owned(),
            Json::from(legacy_wall.as_secs_f64() * 1e3),
        ),
        (
            "batched_ms".to_owned(),
            Json::from(batched_wall.as_secs_f64() * 1e3),
        ),
        ("batched_speedup".to_owned(), Json::from(batched_speedup)),
        ("cycle_speedup".to_owned(), Json::from(cycle_speedup)),
        ("cycles".to_owned(), Json::from(batched_cycles)),
        (
            "executed".to_owned(),
            Json::from(batched_stats.executed_cycles),
        ),
        (
            "skipped".to_owned(),
            Json::from(batched_stats.skipped_cycles),
        ),
        (
            "legacy_cycles_per_sec".to_owned(),
            Json::from(cycles_per_sec(legacy_cycles, legacy_wall)),
        ),
        (
            "batched_cycles_per_sec".to_owned(),
            Json::from(cycles_per_sec(batched_cycles, batched_wall)),
        ),
        ("reports_identical".to_owned(), Json::Bool(true)),
    ]);
    println!(
        "kernel/{label}: legacy {:.2} ms, \
         batched {:.2} ms ({batched_speedup:.2}x wall, {cycle_speedup:.2}x cycles), \
         {}/{} cycles executed, batched {:.1}M cycles/s",
        legacy_wall.as_secs_f64() * 1e3,
        batched_wall.as_secs_f64() * 1e3,
        batched_stats.executed_cycles,
        batched_stats.total_cycles(),
        cycles_per_sec(batched_cycles, batched_wall) / 1e6,
    );
    KernelComparison {
        json,
        batched_speedup,
        cycle_speedup,
    }
}

/// Sparse workload: four tasks on one shared, arbitrated bank, each
/// alternating a long compute with a single write — the kernel spends
/// almost every cycle with all tasks asleep or queued on the arbiter.
fn sparse_graph(iters: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("kernel_sparse");
    let segs: Vec<_> = (0..4).map(|i| b.segment(format!("S{i}"), 64, 16)).collect();
    for (i, &seg) in segs.iter().enumerate() {
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(iters, |p| {
                    p.compute(200);
                    p.mem_write(seg, Expr::lit(i as u64), Expr::lit(1));
                });
            }),
        );
    }
    b.finish().expect("sparse graph is well-formed")
}

/// Dense workload: four tasks each touching their own private bank every
/// cycle — nothing ever sleeps, so the batched kernel can never skip and
/// its bookkeeping overhead is measured head-on.
fn dense_graph(iters: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("kernel_dense");
    let segs: Vec<_> = (0..4).map(|i| b.segment(format!("D{i}"), 64, 16)).collect();
    for (i, &seg) in segs.iter().enumerate() {
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(iters, |p| {
                    let v = p.mem_read(seg, Expr::lit(i as u64));
                    p.mem_write(
                        seg,
                        Expr::lit(i as u64),
                        Expr::add(Expr::var(v), Expr::lit(1)),
                    );
                });
            }),
        );
    }
    b.finish().expect("dense graph is well-formed")
}

///// Contended dense workload — the paper's fully-loaded N-client/M-bank
/// arbitration regime: sixteen tasks each looping a read-modify-write
/// against segments packed into duo_small's shared banks, so every
/// access queues behind a hot many-port arbiter and most tasks sit
/// blocked on a grant on any given cycle. This is the regime the
/// batched kernel's deferred-wait fast path targets: parked tasks cost
/// one counter bump instead of a full dispatch step plus monitor tick.
fn contended_graph(iters: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("kernel_contended");
    let segs: Vec<_> = (0..16)
        .map(|i| b.segment(format!("C{i}"), 64, 16))
        .collect();
    for (i, &seg) in segs.iter().enumerate() {
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(iters, |p| {
                    let v = p.mem_read(seg, Expr::lit(i as u64));
                    p.mem_write(
                        seg,
                        Expr::lit(i as u64),
                        Expr::add(Expr::var(v), Expr::lit(1)),
                    );
                });
            }),
        );
    }
    b.finish().expect("contended graph is well-formed")
}

/// Builds a planned system for `graph` on `board` and times one run.
fn timed_run(
    graph: &TaskGraph,
    board: &rcarb_board::board::Board,
    kernel: KernelKind,
) -> KernelRun<rcarb_sim::engine::RunReport> {
    let binding = bind_segments(graph.segments(), board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let plan = insert_arbiters(graph, &binding, &merges, &InsertionConfig::paper());
    let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
        .with_config(SimConfig::new().with_kernel(kernel))
        .try_build(board)
        .unwrap();
    let t = Instant::now();
    let report = sys.run(50_000_000);
    let wall = t.elapsed();
    assert!(report.completed, "workload must finish");
    let cycles = report.cycles;
    (wall, report, cycles, sys.kernel_stats())
}

/// Fault-sweep workload: two tasks contending on one shared, arbitrated
/// bank — enough traffic that a camping request line visibly starves the
/// other task and the watchdog/recovery path is exercised end to end.
fn chaos_graph(iters: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("chaos");
    let m = b.segment("M", 64, 16);
    b.task(
        "hog",
        Program::build(move |p| {
            p.repeat(iters, |p| {
                p.mem_write(m, Expr::lit(0), Expr::lit(1));
            });
        }),
    );
    b.task(
        "meek",
        Program::build(move |p| {
            p.repeat(iters, |p| {
                p.mem_write(m, Expr::lit(1), Expr::lit(2));
            });
        }),
    );
    b.finish().expect("chaos graph is well-formed")
}

/// One run of `graph` with an optional fault plan: wall clock of the
/// `run()` call, plus everything the chaos harness compares across
/// kernels.
fn fault_run(
    graph: &TaskGraph,
    board: &rcarb_board::board::Board,
    config: SimConfig,
    plan: Option<&FaultPlan>,
) -> (
    Duration,
    rcarb_sim::engine::RunReport,
    rcarb_sim::FaultReport,
) {
    let binding = bind_segments(graph.segments(), board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let arb_plan = insert_arbiters(graph, &binding, &merges, &InsertionConfig::paper());
    let mut builder = SystemBuilder::from_plan(&arb_plan, &binding, &merges).with_config(config);
    if let Some(plan) = plan {
        builder = builder.with_faults(plan.clone());
    }
    let mut sys = builder.try_build(board).expect("builds");
    let t = Instant::now();
    let report = sys.run(1_000_000);
    (t.elapsed(), report, sys.fault_report())
}

/// The chaos harness: zero-fault overhead measurement plus a seeded
/// fault sweep with cross-kernel identity checks. Returns the JSON
/// record for the `fault` section.
fn fault_sweep(smoke: bool) -> Json {
    let duo = presets::duo_small();
    let graph = chaos_graph(if smoke { 50 } else { 200 });

    // Arming an empty plan must not change the run or its cost class:
    // the fast path stays fault-free and byte-identical.
    let empty = FaultPlan::seeded(0);
    let reps = if smoke { 3 } else { 5 };
    let (bare_wall, bare_report, _, _) = best_of(reps, || {
        let (w, r, f) = fault_run(&graph, &duo, SimConfig::new(), None);
        (w, (r, f), 0, KernelStats::default())
    });
    let (armed_wall, armed_report, _, _) = best_of(reps, || {
        let (w, r, f) = fault_run(&graph, &duo, SimConfig::new(), Some(&empty));
        (w, (r, f), 0, KernelStats::default())
    });
    assert_eq!(
        bare_report.0, armed_report.0,
        "an empty fault plan must be invisible"
    );
    assert_eq!(armed_report.1.injected, 0);

    // Seeded sweep: a camping stuck-request (defeats the Fig. 8
    // deassert protocol) plus a transient task hang, with watchdogs and
    // scrub recovery on. Every seed must complete, detect, recover —
    // and the two kernels must agree byte for byte.
    let seeds: u64 = if smoke { 3 } else { 8 };
    let config = SimConfig::new()
        .with_watchdog(
            WatchdogConfig::none()
                .with_grant_timeout(32)
                .with_progress_bound(4096),
        )
        .with_recovery(RecoveryPolicy::none().with_scrub_requests(true));
    let mut detected = 0u64;
    let mut recovered = 0u64;
    let mut worst_latency = 0u64;
    for seed in 0..seeds {
        let plan = FaultPlan::seeded(seed)
            .with_stuck_request(
                TaskId::new(0),
                ArbiterId::new(0),
                true,
                FaultWindow::new(seed * 3, seed * 3 + 60),
            )
            .with_task_hang(TaskId::new(1), FaultWindow::new(10 + seed, 20 + seed));
        let (_, batched_report, batched_faults) = fault_run(
            &graph,
            &duo,
            config.with_kernel(KernelKind::BatchedSoa),
            Some(&plan),
        );
        let (_, legacy_report, legacy_faults) = fault_run(
            &graph,
            &duo,
            config.with_kernel(KernelKind::Legacy),
            Some(&plan),
        );
        assert_eq!(
            batched_report, legacy_report,
            "seed {seed}: batched kernel disagrees on the run report"
        );
        assert_eq!(
            batched_faults, legacy_faults,
            "seed {seed}: batched kernel disagrees on the fault report"
        );
        assert!(
            batched_report.completed,
            "seed {seed}: recovery must restore progress"
        );
        detected += batched_faults.detected;
        recovered += batched_faults.recovered;
        worst_latency = worst_latency.max(batched_faults.worst_detection_latency().unwrap_or(0));
    }
    assert!(detected > 0, "the sweep must detect at least one fault");
    assert_eq!(
        detected, recovered,
        "every detected fault in the sweep is recoverable"
    );
    println!(
        "fault sweep: {seeds} seeds, {detected} detected, {recovered} recovered, \
         worst detection latency {worst_latency} cycles; empty plan {:.2} ms vs bare {:.2} ms",
        armed_wall.as_secs_f64() * 1e3,
        bare_wall.as_secs_f64() * 1e3,
    );
    Json::Obj(vec![
        (
            "zero_fault".to_owned(),
            Json::Obj(vec![
                (
                    "bare_ms".to_owned(),
                    Json::from(bare_wall.as_secs_f64() * 1e3),
                ),
                (
                    "armed_ms".to_owned(),
                    Json::from(armed_wall.as_secs_f64() * 1e3),
                ),
                ("reports_identical".to_owned(), Json::Bool(true)),
            ]),
        ),
        (
            "chaos".to_owned(),
            Json::Obj(vec![
                ("seeds".to_owned(), Json::from(seeds)),
                ("detected".to_owned(), Json::from(detected)),
                ("recovered".to_owned(), Json::from(recovered)),
                (
                    "worst_detection_latency".to_owned(),
                    Json::from(worst_latency),
                ),
                ("kernels_identical".to_owned(), Json::Bool(true)),
            ]),
        ),
    ])
}

/// Observability overhead measurement on the dense workload — the worst
/// case for per-cycle instrumentation, since nothing ever sleeps and the
/// batched kernel cannot skip. Asserts the observed run report is
/// byte-identical to the bare one and that the enabled-session overhead
/// stays within 5%.
fn obs_overhead(smoke: bool) -> Json {
    // A 5%-resolution ratio needs a run long enough to dominate timer
    // and allocator noise, so the workload does not shrink with --smoke
    // (one run is a few ms; the section stays well under a second).
    let reps = if smoke { 5 } else { 7 };
    let graph = dense_graph(20_000);
    let wild = presets::wildforce();
    let binding = bind_segments(graph.segments(), &wild, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    let build = |obs: Option<Obs>| {
        let mut b =
            SystemBuilder::from_plan(&plan, &binding, &merges).with_config(SimConfig::new());
        if let Some(o) = obs {
            b = b.with_obs(o);
        }
        b.try_build(&wild).expect("builds")
    };
    let timed = |obs: Option<&Obs>| {
        let mut sys = build(obs.cloned());
        let t = Instant::now();
        let report = sys.run(10_000_000);
        (t.elapsed(), report, 0, KernelStats::default())
    };
    let (bare_wall, bare_report, _, _) = best_of(reps, || timed(None));
    let session = ObsConfig::on().session().expect("enabled");
    let (obs_wall, obs_report, _, _) = best_of(reps, || timed(Some(&session)));
    assert_eq!(
        bare_report, obs_report,
        "an attached observability session must not change the run report"
    );
    let overhead = obs_wall.as_secs_f64() / bare_wall.as_secs_f64().max(1e-9);
    assert!(
        overhead <= 1.05,
        "observability overhead must stay within 5% on the dense workload, got {overhead:.3}x"
    );
    let series = session.snapshot().len();
    println!(
        "obs overhead: bare {:.2} ms, observed {:.2} ms ({overhead:.3}x), {series} metric series",
        bare_wall.as_secs_f64() * 1e3,
        obs_wall.as_secs_f64() * 1e3,
    );
    Json::Obj(vec![
        (
            "bare_ms".to_owned(),
            Json::from(bare_wall.as_secs_f64() * 1e3),
        ),
        (
            "observed_ms".to_owned(),
            Json::from(obs_wall.as_secs_f64() * 1e3),
        ),
        ("overhead".to_owned(), Json::from(overhead)),
        ("metric_series".to_owned(), Json::from(series as u64)),
        ("reports_identical".to_owned(), Json::Bool(true)),
    ])
}

/// Verifier-grid workload: `n` tasks bursting on one shared, arbitrated
/// bank — one arbiter with `n` clients, the dimension the lockset,
/// deadlock and fairness passes all scale in.
fn verifier_graph(n: usize) -> TaskGraph {
    let mut b = TaskGraphBuilder::new(format!("analyze_n{n}"));
    let m = b.segment("M", 256, 16);
    for i in 0..n {
        b.task(
            format!("T{i}"),
            Program::build(move |p| {
                for k in 0..4u64 {
                    p.mem_write(m, Expr::lit((i as u64) * 4 + k), Expr::lit(k));
                }
            }),
        );
    }
    b.finish().expect("verifier graph is well-formed")
}

/// The static-verifier timing sweep: the FFT flow (every temporal
/// partition, exactly what the CI analyze-gate job runs) plus an
/// N×encoding grid of contended single-bank plans. Every measured plan
/// must verify in under a second — the gate only stays cheap while the
/// verifier stays fast — and every grid plan must certify clean.
/// The `fuzz` section: a bounded coverage-guided fuzz run through every
/// differential oracle, asserting zero findings and recording the
/// throughput and coverage the fleet can sustain.
fn fuzz_sweep(smoke: bool) -> Json {
    let scenarios = if smoke { 40 } else { 150 };
    let config = rcarb_fuzz::FuzzConfig {
        max_scenarios: Some(scenarios),
        ..rcarb_fuzz::FuzzConfig::default()
    };
    let mut fuzzer = rcarb_fuzz::Fuzzer::default();
    let stats = fuzzer.run(&config);
    assert!(
        fuzzer.findings.is_empty(),
        "fuzz sweep must be finding-free; got {:?}",
        fuzzer
            .findings
            .iter()
            .map(|f| (f.kind.key(), f.detail.clone()))
            .collect::<Vec<_>>()
    );
    println!(
        "fuzz sweep: {} scenarios, {:.1} scen/s, corpus {}, {} coverage keys, {} series",
        stats.scenarios,
        stats.scenarios_per_sec(),
        fuzzer.corpus.len(),
        stats.coverage_keys,
        stats.series
    );
    Json::Obj(vec![
        ("scenarios".to_owned(), Json::from(stats.scenarios)),
        (
            "scenarios_per_sec".to_owned(),
            Json::from(stats.scenarios_per_sec()),
        ),
        (
            "corpus_size".to_owned(),
            Json::from(fuzzer.corpus.len() as u64),
        ),
        (
            "coverage_keys".to_owned(),
            Json::from(stats.coverage_keys as u64),
        ),
        ("series".to_owned(), Json::from(stats.series as u64)),
        ("findings".to_owned(), Json::from(stats.findings)),
    ])
}

fn analyze_sweep(smoke: bool) -> Json {
    let reps = if smoke { 3 } else { 5 };
    let limit_ms = 1_000.0;

    let flow = run_fft_flow().expect("fft flow plans");
    let base = AnalyzeConfig::default();
    let (fft_wall, fft_report, _, _) = best_of(reps, || {
        let t = Instant::now();
        let report = flow.analyze(&base);
        (t.elapsed(), report, 0, KernelStats::default())
    });
    let fft_ms = fft_wall.as_secs_f64() * 1e3;
    assert!(
        fft_ms < limit_ms,
        "fft flow must verify in under 1 s, got {fft_ms:.1} ms"
    );
    assert!(
        fft_report.is_clean(),
        "fft flow must certify clean\n{}",
        fft_report.render_text()
    );
    let fft_findings = fft_report.diagnostics().len() as u64;

    let ns: Vec<usize> = if smoke {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16]
    };
    let encodings = [
        ("one_hot", EncodingStyle::OneHot),
        ("compact", EncodingStyle::Compact),
        ("gray", EncodingStyle::Gray),
    ];
    let duo = presets::duo_small();
    let mut grid = Vec::new();
    let mut worst_ms = 0.0f64;
    for &n in &ns {
        let graph = verifier_graph(n);
        let binding = bind_segments(graph.segments(), &duo, &|_| None).expect("binds");
        let merges = ChannelMergePlan::default();
        let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        for (label, encoding) in encodings {
            let config = AnalyzeConfig {
                encoding,
                ..AnalyzeConfig::default()
            };
            let (wall, report, _, _) = best_of(reps, || {
                let t = Instant::now();
                let r = analyze_plan(&plan, &binding, &merges, &config);
                (t.elapsed(), r, 0, KernelStats::default())
            });
            let ms = wall.as_secs_f64() * 1e3;
            assert!(
                ms < limit_ms,
                "verifier must stay under 1 s/plan (n={n}, {label}), got {ms:.1} ms"
            );
            assert!(
                report.is_clean(),
                "grid plan n={n} ({label}) must certify clean\n{}",
                report.render_text()
            );
            worst_ms = worst_ms.max(ms);
            grid.push((format!("n{n}_{label}"), Json::from(ms)));
        }
    }
    println!(
        "analyze sweep: fft {fft_ms:.2} ms ({fft_findings} findings), grid worst {worst_ms:.2} ms \
         over {} plans (limit {limit_ms:.0} ms/plan)",
        grid.len(),
    );
    Json::Obj(vec![
        ("fft_ms".to_owned(), Json::from(fft_ms)),
        ("fft_findings".to_owned(), Json::from(fft_findings)),
        ("grid_ms".to_owned(), Json::Obj(grid)),
        ("worst_grid_ms".to_owned(), Json::from(worst_ms)),
        ("limit_ms".to_owned(), Json::from(limit_ms)),
        ("under_limit".to_owned(), Json::Bool(true)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ns: Vec<usize> = if smoke {
        (2..=8).collect()
    } else {
        (2..=32).collect()
    };
    let grade = SpeedGrade::Minus3;
    let cores = global_pool().num_workers();
    println!(
        "bench_sweep: N in [{}, {}], 3 (tool, encoding) series, {cores} worker(s)",
        ns[0],
        ns[ns.len() - 1]
    );

    let mut perf = PerfReport::new();

    // Sequential reference, cold cache.
    reset_synthesis_cache();
    let t = Instant::now();
    let seq = Characterization::sweep_round_robin_seq(ns.clone(), grade);
    let seq_wall = t.elapsed();
    perf.add_stage("sweep/sequential", seq_wall);

    // Parallel sweep, cold cache — the honest speedup measurement.
    reset_synthesis_cache();
    let t = Instant::now();
    let par = Characterization::sweep_round_robin(ns.clone(), grade);
    let par_wall = t.elapsed();
    perf.add_stage("sweep/parallel-cold", par_wall);

    assert_eq!(
        par.rows(),
        seq.rows(),
        "parallel table must be byte-identical to the sequential reference"
    );

    // Parallel sweep again on the warm cache — measures cache reuse.
    let t = Instant::now();
    let warm = Characterization::sweep_round_robin(ns.clone(), grade);
    let warm_wall = t.elapsed();
    perf.add_stage("sweep/parallel-warm", warm_wall);
    assert_eq!(warm.rows(), seq.rows());

    // Kernel comparison: batched SoA versus legacy,
    // four workloads. The dense/contended runs are sized to dominate
    // timer noise (tens of milliseconds per legacy run, hundreds of
    // thousands of simulated cycles) so the recorded speedups are
    // stable enough to threshold.
    let reps = if smoke { 3 } else { 5 };
    let sparse_iters = if smoke { 50 } else { 200 };
    let dense_iters = if smoke { 5_000 } else { 50_000 };
    let contended_iters = if smoke { 2_000 } else { 20_000 };

    let t = Instant::now();
    let sparse = sparse_graph(sparse_iters);
    let duo = presets::duo_small();
    let sparse_cmp = kernel_entry("sparse", reps, |kernel| timed_run(&sparse, &duo, kernel));
    let dense = dense_graph(dense_iters);
    let wild = presets::wildforce();
    let dense_cmp = kernel_entry("dense", reps, |kernel| timed_run(&dense, &wild, kernel));
    let contended = contended_graph(contended_iters);
    let contended_cmp = kernel_entry("contended", reps, |kernel| {
        timed_run(&contended, &duo, kernel)
    });
    let flow = run_fft_flow().expect("fft flow plans");
    let tile: [[i64; 4]; 4] =
        std::array::from_fn(|r| std::array::from_fn(|c| (r * 4 + c + 1) as i64));
    let fft_cmp = kernel_entry("fft", reps, |kernel| {
        let t = Instant::now();
        let sim = simulate_block_with(&flow, tile, SimConfig::new().with_kernel(kernel));
        let wall = t.elapsed();
        let cycles = sim.total_cycles();
        (
            wall,
            (sim.output, sim.stage_cycles.clone()),
            cycles,
            sim.kernel_stats(),
        )
    });
    perf.add_stage("kernel/comparison", t.elapsed());

    // Cycle-level assertions hold on any host — they are properties of
    // the skip accounting, not of the wall clock. The sparse workload
    // must skip the bulk of its cycles; the dense workload never sleeps,
    // so its skip-free accounting is the honest overhead baseline.
    assert!(
        sparse_cmp.cycle_speedup >= 2.0,
        "sparse workload must skip at least half its cycles, got {:.2}x",
        sparse_cmp.cycle_speedup
    );
    assert!(
        dense_cmp.cycle_speedup >= 1.0,
        "cycle speedup is a ratio of accounted cycles and cannot dip below 1"
    );

    // Chaos harness: fault-injection overhead and seeded fault sweep.
    let t = Instant::now();
    let fault_json = fault_sweep(smoke);
    perf.add_stage("fault/sweep", t.elapsed());

    // Observability overhead on the dense workload.
    let t = Instant::now();
    let obs_json = obs_overhead(smoke);
    perf.add_stage("obs/overhead", t.elapsed());

    // Static-verifier wall time: the analyze-gate cost model.
    let t = Instant::now();
    let analyze_json = analyze_sweep(smoke);
    perf.add_stage("analyze/sweep", t.elapsed());

    // Differential-oracle fuzz throughput.
    let t = Instant::now();
    let fuzz_json = fuzz_sweep(smoke);
    perf.add_stage("fuzz/sweep", t.elapsed());

    // Wall-clock *thresholds* are gated on core count: a single-core
    // host (or a heavily shared CI box pinned to one worker) timeshares
    // the benchmark with everything else on the machine, so its ratios
    // measure scheduler noise, not kernels. The differential checks and
    // the cycle-level assertions above already ran unconditionally —
    // only the timing thresholds are skipped, the timings themselves are
    // recorded either way, and the skip is written into the JSON rather
    // than silently passing.
    let thresholds_checked = cores > 1;
    if thresholds_checked {
        assert!(
            sparse_cmp.batched_speedup >= 2.0,
            "batched kernel must be at least 2x faster on the sparse workload, got {:.2}x",
            sparse_cmp.batched_speedup
        );
        assert!(
            dense_cmp.batched_speedup >= 1.0,
            "batched kernel must not regress the dense workload, got {:.2}x",
            dense_cmp.batched_speedup
        );
        assert!(
            contended_cmp.batched_speedup >= 5.0,
            "batched kernel must be at least 5x faster on the contended dense workload, got {:.2}x",
            contended_cmp.batched_speedup
        );
    } else {
        println!("kernel wall-clock thresholds skipped: single-core host");
    }
    let kernel_json = Json::Obj(vec![
        ("sparse".to_owned(), sparse_cmp.json),
        ("dense".to_owned(), dense_cmp.json),
        ("contended".to_owned(), contended_cmp.json),
        ("fft".to_owned(), fft_cmp.json),
        (
            "thresholds".to_owned(),
            Json::Obj(vec![
                ("checked".to_owned(), Json::Bool(thresholds_checked)),
                ("sparse_batched_min".to_owned(), Json::from(2.0)),
                ("dense_batched_min".to_owned(), Json::from(1.0)),
                ("contended_batched_min".to_owned(), Json::from(5.0)),
                (
                    "skipped_reason".to_owned(),
                    if thresholds_checked {
                        Json::Null
                    } else {
                        Json::Str("single-core host".to_owned())
                    },
                ),
            ]),
        ),
    ]);
    println!(
        "kernel comparison vs legacy (batched): sparse {:.2}x, dense {:.2}x, \
         contended {:.2}x, fft {:.2}x",
        sparse_cmp.batched_speedup,
        dense_cmp.batched_speedup,
        contended_cmp.batched_speedup,
        fft_cmp.batched_speedup,
    );

    let mut perf = perf.with_pool(global_pool().stats());
    perf.add_cache("synthesis", synthesis_cache_stats());

    let speedup = seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9);
    let warm_speedup = seq_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);

    let doc = Json::Obj(vec![
        (
            "bench".to_owned(),
            Json::Str("sweep_round_robin".to_owned()),
        ),
        ("smoke".to_owned(), Json::Bool(smoke)),
        ("cores".to_owned(), Json::from(cores as u64)),
        (
            "ns".to_owned(),
            Json::Arr(ns.iter().map(|&n| Json::from(n as u64)).collect()),
        ),
        ("rows".to_owned(), Json::from(seq.rows().len() as u64)),
        (
            "seq_ms".to_owned(),
            Json::from(seq_wall.as_secs_f64() * 1e3),
        ),
        (
            "par_cold_ms".to_owned(),
            Json::from(par_wall.as_secs_f64() * 1e3),
        ),
        (
            "par_warm_ms".to_owned(),
            Json::from(warm_wall.as_secs_f64() * 1e3),
        ),
        ("speedup".to_owned(), Json::from(speedup)),
        ("warm_speedup".to_owned(), Json::from(warm_speedup)),
        ("tables_identical".to_owned(), Json::Bool(true)),
        ("kernel".to_owned(), kernel_json),
        ("fault".to_owned(), fault_json),
        ("obs".to_owned(), obs_json),
        ("analyze".to_owned(), analyze_json),
        ("fuzz".to_owned(), fuzz_json),
        ("perf".to_owned(), perf.to_json()),
    ]);
    std::fs::write("BENCH_sweep.json", doc.to_string_pretty()).expect("write BENCH_sweep.json");

    println!("{}", perf.render_text());
    println!(
        "{} rows; cold parallel speedup {speedup:.2}x, warm {warm_speedup:.2}x on {cores} core(s)",
        seq.rows().len()
    );
    println!("wrote BENCH_sweep.json");
}
