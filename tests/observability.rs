//! Golden-trace and trace-equivalence tests for the observability layer.
//!
//! Three properties:
//!
//! 1. **Reconciliation** — every `sim/*` counter in a session's snapshot
//!    must agree with the `RunReport` of the run that produced it: total
//!    cycles, per-task busy/stall, per-arbiter grants. The metrics are a
//!    second bookkeeping path through the same simulation, so any
//!    disagreement is a bug in one of them.
//! 2. **Schema** — the Chrome trace document validates (`validate_trace`)
//!    and the facade's `design/*` spans nest correctly.
//! 3. **Determinism** — the deterministic subset of the snapshot
//!    (`sim/*` and `fault/*`; kernel- and pool-private series excluded)
//!    is identical across the batched and legacy kernels for random
//!    designs, and pool-local counters are thread-count-insensitive.

use proptest::prelude::*;
use rcarb::obs::chrome::validate_trace;
use rcarb::obs::MetricsSnapshot;
use rcarb::prelude::*;
use rcarb::sim::KernelKind;

/// Two tasks colliding in duo_small's shared bank — the quickstart
/// shape, guaranteed to instantiate an arbiter.
fn contended_graph() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("obs_quickstart");
    let m1 = b.segment("M1", 64, 16);
    let m2 = b.segment("M2", 64, 16);
    b.task(
        "T1",
        Program::build(|p| {
            p.repeat(8, |p| {
                p.mem_write(m1, Expr::lit(0), Expr::lit(1));
                p.compute(3);
            });
        }),
    );
    b.task(
        "T2",
        Program::build(|p| {
            p.repeat(8, |p| {
                let _ = p.mem_read(m2, Expr::lit(0));
                p.compute(2);
            });
        }),
    );
    b.finish().unwrap()
}

#[test]
fn quickstart_metrics_reconcile_with_the_run_report() {
    let planned = Design::new(contended_graph(), presets::duo_small())
        .plan()
        .unwrap();
    let (report, obs) = planned
        .simulate_observed(SimConfig::new(), 10_000, &ObsConfig::on())
        .unwrap();
    let obs = obs.expect("session when enabled");
    assert!(report.clean());
    let snap = obs.snapshot();

    // Counter totals reconcile with the report.
    assert_eq!(snap.counter("sim/runs"), 1);
    assert_eq!(snap.counter("sim/cycles_total"), report.cycles);
    assert_eq!(snap.counter("sim/completed_runs"), 1);
    assert_eq!(
        snap.counter("sim/violations"),
        report.violations.len() as u64
    );
    for s in &report.task_stats {
        let name = planned.plan().graph.task(s.task).name().to_owned();
        assert_eq!(
            snap.counter(&format!("sim/task/{name}/busy")),
            s.busy_cycles
        );
        assert_eq!(
            snap.counter(&format!("sim/task/{name}/stall")),
            s.stall_cycles
        );
    }
    assert!(!report.arbiter_grants.is_empty(), "design has an arbiter");
    for &(arbiter, grants) in &report.arbiter_grants {
        assert_eq!(snap.counter(&format!("sim/arb/{arbiter}/grants")), grants);
        // One grant-wait observation per completed wait episode; a
        // multi-cycle grant burst is one episode, so the histogram can
        // have fewer samples than grants but never more.
        let hist = snap
            .histogram(&format!("sim/arb/{arbiter}/grant_wait"))
            .expect("grant-wait histogram recorded");
        assert!(hist.count >= 1 && hist.count <= grants, "{hist:?}");
    }

    // Kernel accounting covers every simulated cycle.
    assert_eq!(
        snap.counter("kernel/executed_cycles") + snap.counter("kernel/skipped_cycles"),
        report.cycles
    );

    // The Chrome document validates and the facade spans nest.
    let summary = validate_trace(&obs.chrome_trace()).expect("valid trace");
    assert!(summary.spans >= 3);
    let spans = obs.spans();
    let root = spans.iter().find(|s| s.name == "design/simulate").unwrap();
    for child in ["design/build", "design/run"] {
        let c = spans.iter().find(|s| s.name == child).unwrap();
        assert_eq!(c.parent, Some(root.id), "{child} nests under the root");
    }

    // Prometheus exposition carries the same totals.
    let prom = obs.prometheus();
    assert!(prom.contains(&format!("rcarb_sim_cycles_total_total {}", report.cycles)));
}

#[test]
fn fft_block_metrics_reconcile_across_partitions() {
    let flow = run_fft_flow().unwrap();
    let tile: [[i64; 4]; 4] =
        std::array::from_fn(|r| std::array::from_fn(|c| (r * 4 + c + 1) as i64));
    let obs = ObsConfig::on().session().unwrap();
    let sim = simulate_block_observed(&flow, tile, SimConfig::new(), &obs);
    let snap = obs.snapshot();
    assert_eq!(snap.counter("sim/runs"), flow.result.num_stages() as u64);
    assert_eq!(
        snap.counter("sim/completed_runs"),
        flow.result.num_stages() as u64
    );
    assert_eq!(snap.counter("sim/cycles_total"), sim.total_cycles());
    let kernel = sim.kernel_stats();
    assert_eq!(
        snap.counter("kernel/executed_cycles"),
        kernel.executed_cycles
    );
    assert_eq!(snap.counter("kernel/skipped_cycles"), kernel.skipped_cycles);
    validate_trace(&obs.chrome_trace()).expect("valid trace");
}

/// A random contended design (same shape as the kernel-equivalence
/// suite): every task gets its own segment, all segments collide in
/// duo_small's single bank.
fn random_design(num_tasks: usize, patterns: &[Vec<u8>]) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("obs_random");
    let segs: Vec<_> = (0..num_tasks)
        .map(|i| b.segment(format!("M{i}"), 64, 16))
        .collect();
    for (i, &seg) in segs.iter().enumerate() {
        let pattern = patterns[i].clone();
        b.task(
            format!("T{i}"),
            Program::build(move |p| {
                for (k, &op) in pattern.iter().enumerate() {
                    match op % 3 {
                        0 => p.mem_write(seg, Expr::lit(k as u64 % 64), Expr::lit(u64::from(op))),
                        1 => {
                            let _ = p.mem_read(seg, Expr::lit(k as u64 % 64));
                        }
                        _ => p.compute(u32::from(op % 5) + 1),
                    }
                }
            }),
        );
    }
    b.finish().expect("valid random design")
}

/// Runs `graph` on the chosen kernel with a fresh session and returns
/// the deterministic (kernel-independent) slice of the snapshot.
fn observed_deterministic(graph: &TaskGraph, kernel: KernelKind) -> (RunReport, MetricsSnapshot) {
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let plan = insert_arbiters(graph, &binding, &merges, &InsertionConfig::paper());
    let obs = ObsConfig::on().session().unwrap();
    let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
        .with_config(SimConfig::new().with_kernel(kernel))
        .with_obs(obs.clone())
        .try_build(&board)
        .unwrap();
    let report = sys.run(100_000);
    (report, obs.snapshot().deterministic())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The deterministic metric subset is a pure function of the design:
    /// both kernels produce identical `sim/*` series (counters, gauges
    /// and grant-wait histograms alike), even though their
    /// kernel-private `kernel/*` accounting differs.
    #[test]
    fn deterministic_metrics_agree_across_kernels(
        patterns in proptest::collection::vec(proptest::collection::vec(0u8..=255, 1..24), 2..4)
    ) {
        let graph = random_design(patterns.len(), &patterns);
        let (batched_report, batched_snap) = observed_deterministic(&graph, KernelKind::BatchedSoa);
        let (legacy_report, legacy_snap) = observed_deterministic(&graph, KernelKind::Legacy);
        prop_assert_eq!(batched_report, legacy_report);
        prop_assert_eq!(batched_snap, legacy_snap);
    }
}

#[test]
fn deterministic_filter_drops_kernel_private_series() {
    let graph = contended_graph();
    let (_, snap) = observed_deterministic(&graph, KernelKind::BatchedSoa);
    assert!(!snap.is_empty());
    assert!(snap.counter("sim/cycles_total") > 0);
    assert!(snap.get("kernel/executed_cycles").is_none());
    assert!(snap.get("kernel/skips").is_none());
}

#[test]
fn pool_counters_are_thread_count_insensitive() {
    // The pool's scheduled/executed totals depend only on the work, not
    // on how many workers raced for it; only steal accounting may vary.
    let run = |workers: usize| {
        let pool = rcarb::exec::ThreadPool::new(workers);
        let out = pool.parallel_map((0..32u64).collect::<Vec<_>>(), |v| v * v);
        assert_eq!(out, (0..32u64).map(|v| v * v).collect::<Vec<_>>());
        pool.stats()
    };
    let single = run(1);
    let multi = run(4);
    assert_eq!(single.scheduled, multi.scheduled);
    assert_eq!(single.executed, multi.executed);
    assert_eq!(single.queue_depth, 0);
    assert_eq!(multi.queue_depth, 0);
}
