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
use rcarb::obs::{MetricValue, MetricsSnapshot};
use rcarb::prelude::*;
use rcarb::sim::KernelKind;
use rcarb::taskgraph::id::{ArbiterId, ChannelId};

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

/// Every `kernel/*` counter of one observed batched-kernel run of
/// `graph` on duo_small, in name order.
fn kernel_counters(
    graph: &TaskGraph,
    config: SimConfig,
    plan: Option<FaultPlan>,
) -> Vec<(String, u64)> {
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let plan_ = insert_arbiters(graph, &binding, &merges, &InsertionConfig::paper());
    let obs = ObsConfig::on().session().unwrap();
    let mut builder = SystemBuilder::from_plan(&plan_, &binding, &merges)
        .with_config(config.with_kernel(KernelKind::BatchedSoa))
        .with_obs(obs.clone());
    if let Some(p) = plan {
        builder = builder.with_faults(p);
    }
    let mut sys = builder.try_build(&board).unwrap();
    let report = sys.run(100_000);
    assert!(report.completed);
    obs.snapshot()
        .0
        .into_iter()
        .filter(|(name, _)| name.starts_with("kernel/"))
        .map(|(name, v)| match v {
            MetricValue::Counter(n) => (name, n),
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .collect()
}

fn pinned(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
    rows.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
}

/// Three tasks on duo_small's shared bank with long computes between
/// accesses, the first also sending its last read to a fourth task
/// over a channel: the arbiter's grant stays steady while its holder
/// computes, and the receiver sits in `Recv`, so the batched kernel
/// skips with tasks blocked on a grant and on data.
fn long_compute_contended_graph() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("obs_skips");
    let segs: Vec<_> = (0..3).map(|i| b.segment(format!("M{i}"), 64, 16)).collect();
    let out = b.segment("OUT", 4, 16);
    let c = ChannelId::new(0);
    let tasks: Vec<_> = segs
        .iter()
        .enumerate()
        .map(|(i, &seg)| {
            b.task(
                format!("T{i}"),
                Program::build(move |p| {
                    p.repeat(4, |p| {
                        p.mem_write(seg, Expr::lit(0), Expr::lit(i as u64));
                        p.mem_write(seg, Expr::lit(1), Expr::lit(i as u64));
                        p.compute(20 + 7 * i as u32);
                    });
                    let v = p.mem_read(seg, Expr::lit(1));
                    if i == 0 {
                        p.send(c, Expr::var(v));
                    }
                }),
            )
        })
        .collect();
    let sink = b.task(
        "sink",
        Program::build(move |p| {
            let v = p.recv(c);
            p.compute(5);
            p.mem_write(out, Expr::lit(0), Expr::var(v));
        }),
    );
    let _ = b.channel("c", 16, tasks[0], sink);
    b.finish().unwrap()
}

/// The batched kernel's private execute/skip/wake accounting, pinned
/// exactly on a contended design: the wake and skip decisions behind
/// these counters are kernel-internal, so no report comparison sees a
/// change in them.
#[test]
fn kernel_counters_are_pinned_on_a_contended_design() {
    let got = kernel_counters(&long_compute_contended_graph(), SimConfig::new(), None);
    assert_eq!(
        got,
        pinned(&[
            ("kernel/executed_cycles", 79),
            ("kernel/skipped_cycles", 82),
            ("kernel/skips", 11),
            ("kernel/wakes/arbiters", 79),
            ("kernel/wakes/banks", 28),
            ("kernel/wakes/routes", 1),
            ("kernel/wakes/task/T0", 56),
            ("kernel/wakes/task/T1", 74),
            ("kernel/wakes/task/T2", 79),
            ("kernel/wakes/task/sink", 63),
        ])
    );
}

/// The same pin with a fault plan live: skips are clamped to the fault
/// windows and every task steps each cycle (no deferred waits).
#[test]
fn kernel_counters_are_pinned_under_a_fault_plan() {
    let plan = FaultPlan::seeded(7)
        .with_stuck_request(
            TaskId::new(0),
            ArbiterId::new(0),
            false,
            FaultWindow::new(5, 60),
        )
        .with_task_hang(TaskId::new(1), FaultWindow::new(30, 50));
    let config = SimConfig::new()
        .with_watchdog(WatchdogConfig::none().with_grant_timeout(40))
        .with_recovery(RecoveryPolicy::none().with_scrub_requests(true));
    let got = kernel_counters(&long_compute_contended_graph(), config, Some(plan));
    assert_eq!(
        got,
        pinned(&[
            ("kernel/executed_cycles", 112),
            ("kernel/skipped_cycles", 51),
            ("kernel/skips", 7),
            ("kernel/wakes/arbiters", 112),
            ("kernel/wakes/banks", 28),
            ("kernel/wakes/routes", 1),
            ("kernel/wakes/task/T0", 96),
            ("kernel/wakes/task/T1", 107),
            ("kernel/wakes/task/T2", 112),
            ("kernel/wakes/task/sink", 102),
        ])
    );
}
