//! Differential testing of the two simulation kernels.
//!
//! Both kernels execute one cycle body. The batched SoA production
//! kernel skips cycles it can prove inert, parks sleepers, defers
//! waits and reads request words from its incremental matrix; the
//! legacy reference turns all of that off, executes every cycle and
//! reassembles every request word from the task lines. For
//! any design, any policy and any configuration, the two must produce
//! an *identical* [`RunReport`], identical memory contents and — with
//! tracing on — byte-identical VCD output. The legacy kernel never
//! skips; the batched kernel accounts every cycle as executed or
//! skipped, and its skip decisions ([`KernelStats`]) on the directed
//! designs and the sparse, dense, contended, long-compute, FFT-block and
//! co-simulated saturated workloads are pinned in [`GOLDEN_STATS`]. Its
//! work per phase (the `kernel_work/*` counters) on the workloads is
//! pinned in [`GOLDEN_WORK`].

use proptest::prelude::*;
use rcarb::arb::channel::ChannelMergePlan;
use rcarb::arb::insertion::{insert_arbiters, InsertionConfig};
use rcarb::arb::memmap::bind_segments;
use rcarb::arb::policy::PolicyKind;
use rcarb::board::board::Board;
use rcarb::board::presets;
use rcarb::obs::Obs;
use rcarb::sim::config::SimConfig;
use rcarb::sim::engine::{RunReport, System, SystemBuilder};
use rcarb::sim::{
    FaultPlan, FaultReport, FaultWindow, KernelKind, KernelStats, RecoveryPolicy, WatchdogConfig,
};
use rcarb::taskgraph::builder::TaskGraphBuilder;
use rcarb::taskgraph::graph::TaskGraph;
use rcarb::taskgraph::id::{ArbiterId, ChannelId, TaskId};
use rcarb::taskgraph::program::{Expr, Program};
use rcarb::taskgraph::segment::MemorySegment;
use std::collections::BTreeMap;

/// Both kernels, in oracle-first order.
const KERNELS: [KernelKind; 2] = [KernelKind::Legacy, KernelKind::BatchedSoa];

/// Shorthand for a pinned [`KernelStats`] row.
const fn stats(executed_cycles: u64, skipped_cycles: u64, skips: u64) -> KernelStats {
    KernelStats {
        executed_cycles,
        skipped_cycles,
        skips,
    }
}

/// The batched kernel's skip decisions on every directed design and
/// workload below.
/// A changed row means the kernel now executes or skips different
/// cycles; re-record it only once the reports still match legacy and
/// the new decisions are understood.
///
/// The faulted rows rely on a fault window counting as live through
/// the first cycle after it closes.
const GOLDEN_STATS: &[(&str, KernelStats)] = &[
    ("channel_waits", stats(27, 125, 8)),
    ("floating_select_lines", stats(10, 38, 2)),
    ("deadlock_timeouts", stats(2, 4998, 1)),
    ("starvation_monitoring", stats(37, 0, 0)),
    ("watchdogs", stats(83, 0, 0)),
    ("fault_plans", stats(101, 0, 0)),
    ("stuck_request_window_end", stats(17, 33, 2)),
    ("stuck_grant_window_end", stats(16, 33, 2)),
    ("grant_glitch_window_end", stats(15, 33, 2)),
    ("channel_bit_flip_window_end", stats(10, 35, 1)),
    ("bank_read_error_window_end", stats(16, 31, 2)),
    ("task_hang_window_end", stats(20, 33, 2)),
    ("task_hang_mid_compute", stats(22, 25, 3)),
    ("sparse", stats(550, 9606, 50)),
    ("dense", stats(10000, 0, 0)),
    ("contended", stats(19201, 0, 0)),
    ("long_compute_contention", stats(561, 2961, 20)),
    ("long_compute_contention_random", stats(561, 2961, 20)),
    ("long_compute_contention_prefix", stats(561, 2961, 20)),
    ("random_stuck_grant_window", stats(155, 130, 3)),
    ("random_resumed_mid_skip", stats(109, 128, 4)),
    ("fft_block", stats(183, 2, 1)),
    ("saturated_4way_cosim", stats(513, 0, 0)),
];

/// The `kernel_work/*` counters, in [`GOLDEN_WORK`] column order.
const WORK_COUNTERS: [&str; 5] = [
    "kernel_work/tasks_stepped",
    "kernel_work/waits_deferred",
    "kernel_work/sleeps_parked",
    "kernel_work/bank_resolves",
    "kernel_work/select_checks",
];

/// The batched kernel's work per phase on the workloads: tasks stepped,
/// waits deferred, sleeps parked, bank resolves and select checks, read
/// from an observed run. Like [`GOLDEN_STATS`], a changed row means the
/// kernel now does different work; the reports must still match legacy.
/// Parking a sleeper trades a task step for a parked one, so
/// `tasks_stepped + sleeps_parked` stays the number of running-list
/// visits; no select line here is tri-state, so none is ever checked.
const GOLDEN_WORK: &[(&str, [u64; 5])] = &[
    ("sparse", [1003, 9, 1176, 200, 0]),
    ("dense", [40000, 0, 0, 40000, 0]),
    ("contended", [31999, 274857, 0, 12800, 0]),
    ("long_compute_contention", [1135, 77, 3192, 320, 0]),
    ("long_compute_contention_random", [1135, 77, 3192, 320, 0]),
    ("long_compute_contention_prefix", [1135, 77, 3192, 320, 0]),
    ("fft_block", [329, 235, 20, 144, 0]),
];

/// Asserts the batched kernel's skip accounting on directed design
/// `name` matches its [`GOLDEN_STATS`] row.
fn assert_golden_stats(name: &str, got: KernelStats) {
    let want = GOLDEN_STATS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden stats row for {name}"))
        .1;
    assert_eq!(got, want, "{name}: batched skip decisions changed");
}

/// The `kernel_work/*` counters an observability session collected.
fn work_counters(obs: &Obs) -> [u64; 5] {
    let snap = obs.snapshot();
    WORK_COUNTERS.map(|name| snap.counter(name))
}

/// Asserts the batched kernel's work on workload `name` matches its
/// [`GOLDEN_WORK`] row.
fn assert_golden_work(name: &str, got: [u64; 5]) {
    let want = GOLDEN_WORK
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden work row for {name}"))
        .1;
    assert_eq!(
        got, want,
        "{name}: batched work changed (columns: {WORK_COUNTERS:?})"
    );
}

/// A random design: `num_tasks` tasks, each with its own segment and a
/// random access pattern, all colliding in duo_small's single bank.
fn random_design(num_tasks: usize, patterns: &[Vec<u8>]) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("random");
    let segs: Vec<_> = (0..num_tasks)
        .map(|i| b.segment(format!("M{i}"), 64, 16))
        .collect();
    for (i, &seg) in segs.iter().enumerate() {
        let pattern = patterns[i].clone();
        b.task(
            format!("T{i}"),
            Program::build(move |p| {
                for (k, &op) in pattern.iter().enumerate() {
                    match op % 4 {
                        0 => p.mem_write(seg, Expr::lit(k as u64 % 64), Expr::lit(u64::from(op))),
                        1 => {
                            let _ = p.mem_read(seg, Expr::lit(k as u64 % 64));
                        }
                        2 => p.compute(u32::from(op % 5) + 1),
                        _ => {
                            let v = p.let_(Expr::lit(u64::from(op)));
                            p.set(v, Expr::add(Expr::var(v), Expr::lit(1)));
                        }
                    }
                }
            }),
        );
    }
    b.finish().expect("valid random design")
}

/// Everything observable about one run: the report, the VCD document,
/// and every segment's final contents.
type Observation = (RunReport, Option<String>, Vec<Vec<u64>>, KernelStats);

/// Builds and runs `graph` on `board` with the given kernel, observing
/// everything.
fn observe(
    graph: &TaskGraph,
    board: &Board,
    arbitrated: bool,
    kind: PolicyKind,
    m: u32,
    kernel: KernelKind,
) -> Observation {
    let sys = builder(graph, board, arbitrated, kind, m, kernel)
        .try_build(board)
        .unwrap();
    run_observed(sys, graph.segments())
}

/// Runs `graph` arbitrated on the batched kernel with an observability
/// session attached, asserts the report equals the unobserved batched
/// one, and returns the `kernel_work/*` counters.
fn observe_work(
    graph: &TaskGraph,
    board: &Board,
    kind: PolicyKind,
    m: u32,
    unobserved: &RunReport,
) -> [u64; 5] {
    let obs = Obs::new();
    let mut sys = builder(graph, board, true, kind, m, KernelKind::BatchedSoa)
        .with_obs(obs.clone())
        .try_build(board)
        .unwrap();
    let report = sys.run(1_000_000);
    assert_eq!(&report, unobserved, "an obs session perturbed the run");
    work_counters(&obs)
}

/// The builder [`observe`] runs: `graph` bound on `board`, arbitrated
/// under the paper's insertion or not, with tracing on.
fn builder(
    graph: &TaskGraph,
    board: &Board,
    arbitrated: bool,
    kind: PolicyKind,
    m: u32,
    kernel: KernelKind,
) -> SystemBuilder {
    let binding = bind_segments(graph.segments(), board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let config = SimConfig::new()
        .with_policy(kind)
        .with_trace(true)
        .with_kernel(kernel);
    if arbitrated {
        let plan = insert_arbiters(
            graph,
            &binding,
            &merges,
            &InsertionConfig::paper()
                .with_max_burst(m)
                .with_await_each_access(kind == PolicyKind::PreemptiveRoundRobin),
        );
        SystemBuilder::from_plan(&plan, &binding, &merges)
    } else {
        SystemBuilder::unarbitrated(graph, &binding, &merges)
    }
    .with_config(config)
}

/// Runs `sys` to completion (or a million cycles) and observes the
/// report, the VCD and the final contents of `segments`.
fn run_observed(mut sys: System, segments: &[MemorySegment]) -> Observation {
    let report = sys.run(1_000_000);
    let vcd = sys.vcd();
    let memory = segments
        .iter()
        .map(|s| sys.try_read_segment(s.id(), s.words() as usize).unwrap())
        .collect();
    (report, vcd, memory, sys.kernel_stats())
}

/// Asserts both kernels observed the same run: identical report, VCD
/// and memory; full cycle accounting on the batched kernel; and a
/// legacy oracle that never skipped.
fn assert_equivalent(legacy: &Observation, batched: &Observation) {
    assert_eq!(
        batched.0, legacy.0,
        "batched RunReport diverged from legacy"
    );
    assert_eq!(
        batched.1, legacy.1,
        "batched VCD output diverged from legacy"
    );
    assert_eq!(batched.2, legacy.2, "batched memory diverged from legacy");
    assert_eq!(
        batched.3.total_cycles(),
        batched.0.cycles,
        "batched kernel accounting does not cover the run"
    );
    assert_eq!(legacy.3.skipped_cycles, 0, "legacy kernel must never skip");
}

/// Runs `graph` on both kernels and asserts full equivalence,
/// returning the batched observation for scenario-specific checks.
fn assert_kernels_agree(
    graph: &TaskGraph,
    board: &Board,
    arbitrated: bool,
    kind: PolicyKind,
    m: u32,
) -> Observation {
    let [legacy, batched] =
        KERNELS.map(|kernel| observe(graph, board, arbitrated, kind, m, kernel));
    assert_equivalent(&legacy, &batched);
    batched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrated random designs: every policy, every burst bound, both
    /// kernels — identical reports, VCD and memory.
    #[test]
    fn kernels_agree_on_arbitrated_designs(
        num_tasks in 2usize..=5,
        seed_patterns in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 1..30),
            5,
        ),
        m in 1u32..=4,
        kind_idx in 0usize..PolicyKind::ALL.len(),
    ) {
        let graph = random_design(num_tasks, &seed_patterns);
        let kind = PolicyKind::ALL[kind_idx];
        assert_kernels_agree(&graph, &presets::duo_small(), true, kind, m);
    }

    /// Unarbitrated random designs (bank conflicts and all): the
    /// kernels must report the identical violation stream.
    #[test]
    fn kernels_agree_on_unarbitrated_designs(
        num_tasks in 2usize..=5,
        seed_patterns in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 1..30),
            5,
        ),
    ) {
        let graph = random_design(num_tasks, &seed_patterns);
        assert_kernels_agree(&graph, &presets::duo_small(), false, PolicyKind::RoundRobin, 1);
    }
}

/// A producer/consumer pair over a channel: the consumer's blocked
/// `Recv` spans the producer's long compute, which the batched kernel
/// skips — the wake-on-data path must land on exactly the right cycle.
#[test]
fn kernels_agree_on_channel_waits() {
    let mut b = TaskGraphBuilder::new("chan");
    let seg = b.segment("out", 8, 16);
    let producer = b.task(
        "producer",
        Program::build(|p| {
            for i in 0..4u64 {
                p.compute(37);
                p.send(ChannelId::new(0), Expr::lit(100 + i));
            }
        }),
    );
    let consumer = b.task(
        "consumer",
        Program::build(|p| {
            for i in 0..4u64 {
                let v = p.recv(ChannelId::new(0));
                p.mem_write(seg, Expr::lit(i), Expr::var(v));
                p.compute(3);
            }
        }),
    );
    let _ = b.channel("c", 16, producer, consumer);
    let graph = b.finish().expect("valid");
    let batched = assert_kernels_agree(
        &graph,
        &presets::duo_small(),
        false,
        PolicyKind::RoundRobin,
        1,
    );
    assert!(batched.0.completed, "producer/consumer must finish");
    // The consumer waits out most of the producer's computes; the
    // batched kernel must actually skip a meaningful share of them.
    assert!(
        batched.3.skipped_cycles > 50,
        "expected skips across channel waits, got {:?}",
        batched.3
    );
    assert_golden_stats("channel_waits", batched.3);
}

/// A floating select line (the paper's Fig. 4 hazard, TriState idle
/// drive) must be detected in the same cycle by both kernels,
/// including when the batched kernel would otherwise be skipping.
#[test]
fn kernels_agree_on_floating_select_lines() {
    let observe_tristate = |kernel: KernelKind| {
        let mut b = TaskGraphBuilder::new("float");
        let seg = b.segment("S", 16, 16);
        b.task(
            "a",
            Program::build(|p| {
                p.compute(20);
                p.mem_write(seg, Expr::lit(0), Expr::lit(1));
            }),
        );
        b.task(
            "b",
            Program::build(|p| {
                p.compute(45);
                let _ = p.mem_read(seg, Expr::lit(0));
            }),
        );
        let graph = b.finish().expect("valid");
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
        let merges = ChannelMergePlan::default();
        let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_select_line(rcarb::arb::line::SharedLineKind::TriState)
                    .with_trace(true)
                    .with_kernel(kernel),
            )
            .try_build(&board)
            .unwrap();
        let report = sys.run(100_000);
        (report, sys.vcd(), sys.kernel_stats())
    };
    let [legacy, batched] = KERNELS.map(observe_tristate);
    assert_eq!(batched.0, legacy.0);
    assert_eq!(batched.1, legacy.1);
    assert_eq!(legacy.2.skipped_cycles, 0);
    assert_golden_stats("floating_select_lines", batched.2);
    assert!(
        batched
            .0
            .violations
            .iter()
            .any(|v| matches!(v, rcarb::sim::monitor::Violation::FloatingSelectLine { .. })),
        "the TriState idle drive must float: {:?}",
        batched.0.violations
    );
    assert_eq!(batched.2.total_cycles(), batched.0.cycles);
}

/// A deadlocked consumer (nobody ever sends) runs to the cycle limit;
/// the batched kernel jumps straight there and both kernels agree on
/// the timeout report, stall accounting included.
#[test]
fn kernels_agree_on_deadlock_timeouts() {
    let observe_deadlock = |kernel: KernelKind| {
        let mut b = TaskGraphBuilder::new("deadlock");
        let producer = b.task("quiet", Program::build(|p| p.compute(2)));
        let consumer = b.task(
            "starved",
            Program::build(|p| {
                let _ = p.recv(ChannelId::new(0));
            }),
        );
        let _ = b.channel("c", 16, producer, consumer);
        let graph = b.finish().expect("valid");
        let board = presets::duo_small();
        let mut sys = SystemBuilder::unarbitrated(
            &graph,
            &rcarb::arb::memmap::MemoryBinding::default(),
            &ChannelMergePlan::default(),
        )
        .with_config(SimConfig::new().with_kernel(kernel))
        .try_build(&board)
        .unwrap();
        let report = sys.run(5_000);
        (report, sys.kernel_stats())
    };
    let [legacy, batched] = KERNELS.map(observe_deadlock);
    assert_eq!(batched.0, legacy.0);
    assert_eq!(legacy.1.skipped_cycles, 0);
    assert_golden_stats("deadlock_timeouts", batched.1);
    assert!(!batched.0.completed);
    assert_eq!(batched.0.cycles, 5_000);
    let starved = batched.0.task(TaskId::new(1));
    assert!(starved.finished_at.is_none());
    assert!(
        starved.stall_cycles > 4_000,
        "stalls: {}",
        starved.stall_cycles
    );
    // Nearly the whole timeout is one jump.
    assert!(
        batched.1.skipped_cycles > 4_900,
        "expected a deadlock jump, got {:?}",
        batched.1
    );
}

/// Segment readback stays available (and identical) through the unified
/// facade's planning path as well.
#[test]
fn kernels_agree_under_starvation_monitoring() {
    let observe_starved = |kernel: KernelKind| {
        let mut b = TaskGraphBuilder::new("starve");
        let s0 = b.segment("A", 32, 16);
        let s1 = b.segment("B", 32, 16);
        b.task(
            "hog",
            Program::build(|p| {
                for i in 0..24u64 {
                    p.mem_write(s0, Expr::lit(i % 32), Expr::lit(i));
                }
            }),
        );
        b.task(
            "meek",
            Program::build(|p| {
                let _ = p.mem_read(s1, Expr::lit(0));
            }),
        );
        let graph = b.finish().expect("valid");
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
        let merges = ChannelMergePlan::default();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &merges,
            &InsertionConfig::paper().with_max_burst(4),
        );
        let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_starvation_bound(3)
                    .with_kernel(kernel),
            )
            .try_build(&board)
            .unwrap();
        let report = sys.run(100_000);
        (report, sys.kernel_stats())
    };
    let [legacy, batched] = KERNELS.map(observe_starved);
    assert_eq!(batched.0, legacy.0);
    assert_eq!(legacy.1.skipped_cycles, 0);
    assert_eq!(batched.1.total_cycles(), batched.0.cycles);
    assert_golden_stats("starvation_monitoring", batched.1);
}

/// A seeded fault plan (bank read errors, a grant glitch, a task hang)
/// with full recovery enabled: the batched kernel must clamp its skips
/// to the fault windows so every injection, detection and recovery
/// lands on the identical cycle in both kernels — and its
/// structural-rebuild path (bank quarantine) must leave its flat tables
/// consistent with the remapped placement.
#[test]
fn kernels_agree_under_fault_plans() {
    let mut b = TaskGraphBuilder::new("faulted");
    let m1 = b.segment("M1", 64, 16);
    let m2 = b.segment("M2", 64, 16);
    b.task(
        "T0",
        Program::build(move |p| {
            for i in 0..12u64 {
                p.mem_write(m1, Expr::lit(i), Expr::lit(7 + i));
                let _ = p.mem_read(m1, Expr::lit(i));
            }
        }),
    );
    b.task(
        "T1",
        Program::build(move |p| {
            for i in 0..12u64 {
                p.mem_write(m2, Expr::lit(i), Expr::lit(100 + i));
            }
        }),
    );
    let graph = b.finish().expect("valid");
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let bank = binding.used_banks()[0];
    let plan = FaultPlan::seeded(123)
        .with_bank_read_error(bank, 600, FaultWindow::new(10, 600))
        .with_grant_glitch(ArbiterId::new(0), 1, 25)
        .with_task_hang(TaskId::new(1), FaultWindow::new(40, 60));
    let observe_faulted = |kernel: KernelKind| {
        let merges = ChannelMergePlan::default();
        let arb_plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        let mut sys = SystemBuilder::from_plan(&arb_plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_trace(true)
                    .with_watchdog(WatchdogConfig::none().with_grant_timeout(32))
                    .with_recovery(RecoveryPolicy::full())
                    .with_kernel(kernel),
            )
            .with_faults(plan.clone())
            .try_build(&board)
            .unwrap();
        let report = sys.run(100_000);
        let faults = sys.fault_report();
        let vcd = sys.vcd();
        let memory: Vec<Vec<u64>> = graph
            .segments()
            .iter()
            .map(|s| sys.try_read_segment(s.id(), s.words() as usize).unwrap())
            .collect();
        (report, faults, vcd, memory, sys.kernel_stats())
    };
    let [legacy, batched] = KERNELS.map(observe_faulted);
    assert_eq!(batched.0, legacy.0, "RunReport diverged under faults");
    assert_eq!(batched.1, legacy.1, "FaultReport diverged");
    assert_eq!(batched.2, legacy.2, "VCD diverged under faults");
    assert_eq!(batched.3, legacy.3, "memory diverged under faults");
    assert_eq!(legacy.4.skipped_cycles, 0);
    assert!(batched.1.injected > 0, "the plan must actually fire");
    assert_golden_stats("fault_plans", batched.4);
}

/// Watchdogs armed (grant timeout, fairness cross-check, no-progress
/// bound) over a contended design: the watchdog cycle bookkeeping must
/// survive skipping exactly as the legacy kernel counts it.
#[test]
fn kernels_agree_under_watchdogs() {
    let mut b = TaskGraphBuilder::new("watchdog");
    let s0 = b.segment("A", 32, 16);
    let s1 = b.segment("B", 32, 16);
    b.task(
        "left",
        Program::build(|p| {
            for i in 0..16u64 {
                p.mem_write(s0, Expr::lit(i % 32), Expr::lit(i));
                p.compute(2);
            }
        }),
    );
    b.task(
        "right",
        Program::build(|p| {
            p.compute(30);
            for i in 0..8u64 {
                let _ = p.mem_read(s1, Expr::lit(i));
            }
        }),
    );
    let graph = b.finish().expect("valid");
    let observe_watched = |kernel: KernelKind| {
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
        let merges = ChannelMergePlan::default();
        let plan = insert_arbiters(
            &graph,
            &binding,
            &merges,
            &InsertionConfig::paper().with_max_burst(2),
        );
        let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_trace(true)
                    .with_watchdog(
                        WatchdogConfig::none()
                            .with_grant_timeout(64)
                            .with_fairness_m(2)
                            .with_progress_bound(512),
                    )
                    .with_kernel(kernel),
            )
            .try_build(&board)
            .unwrap();
        let report = sys.run(100_000);
        (report, sys.vcd(), sys.kernel_stats())
    };
    let [legacy, batched] = KERNELS.map(observe_watched);
    assert_eq!(batched.0, legacy.0);
    assert_eq!(batched.1, legacy.1);
    assert_eq!(legacy.2.skipped_cycles, 0);
    assert_golden_stats("watchdogs", batched.2);
}

/// Two tasks contending for duo_small's one shared bank, each with a
/// long compute the batched kernel skips: `T0` writes and reads back at
/// once, then computes; `T1` computes first, then writes. The fault
/// windows below close while `T1` sleeps in its compute, so a skip is
/// on offer at the first cycle after each window.
fn window_end_graph() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("window_end");
    let s0 = b.segment("A", 16, 16);
    let s1 = b.segment("B", 16, 16);
    b.task(
        "T0",
        Program::build(move |p| {
            p.mem_write(s0, Expr::lit(0), Expr::lit(5));
            let _ = p.mem_read(s0, Expr::lit(0));
            p.compute(40);
            p.mem_write(s0, Expr::lit(1), Expr::lit(7));
        }),
    );
    b.task(
        "T1",
        Program::build(move |p| {
            p.compute(30);
            p.mem_write(s1, Expr::lit(0), Expr::lit(6));
        }),
    );
    b.finish().expect("valid")
}

/// Runs `graph` arbitrated on duo_small under `plan` on both kernels
/// with tracing on, asserts the report, fault report, VCD and memory
/// are identical, pins the batched skip decisions as `name`, and
/// returns the batched run's fault report.
fn assert_agree_at_window_end(name: &str, graph: &TaskGraph, plan: &FaultPlan) -> FaultReport {
    assert_agree_under_policy(name, graph, plan, PolicyKind::RoundRobin)
}

/// [`assert_agree_at_window_end`] with the arbiters under `policy`.
fn assert_agree_under_policy(
    name: &str,
    graph: &TaskGraph,
    plan: &FaultPlan,
    policy: PolicyKind,
) -> FaultReport {
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let arb_plan = insert_arbiters(graph, &binding, &merges, &InsertionConfig::paper());
    let [legacy, batched] = KERNELS.map(|kernel| {
        let mut sys = SystemBuilder::from_plan(&arb_plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_policy(policy)
                    .with_trace(true)
                    .with_kernel(kernel),
            )
            .with_faults(plan.clone())
            .try_build(&board)
            .unwrap();
        let report = sys.run(5_000);
        let memory: Vec<Vec<u64>> = graph
            .segments()
            .iter()
            .map(|s| sys.try_read_segment(s.id(), s.words() as usize).unwrap())
            .collect();
        (
            report,
            sys.fault_report(),
            sys.vcd(),
            memory,
            sys.kernel_stats(),
        )
    });
    assert_eq!(batched.0, legacy.0, "{name}: RunReport diverged");
    assert_eq!(batched.1, legacy.1, "{name}: FaultReport diverged");
    assert_eq!(batched.2, legacy.2, "{name}: VCD diverged");
    assert_eq!(batched.3, legacy.3, "{name}: memory diverged");
    assert!(batched.0.completed, "{name}: the run must finish");
    assert!(batched.1.injected > 0, "{name}: the fault must fire");
    assert_eq!(legacy.4.skipped_cycles, 0);
    assert_golden_stats(name, batched.4);
    batched.1
}

/// `T0`'s request line stuck low for the first cycles: the arbiter sees
/// the request only once the window closes.
#[test]
fn kernels_agree_when_a_stuck_request_window_ends() {
    let plan = FaultPlan::seeded(1).with_stuck_request(
        TaskId::new(0),
        ArbiterId::new(0),
        false,
        FaultWindow::new(0, 4),
    );
    assert_agree_at_window_end("stuck_request_window_end", &window_end_graph(), &plan);
}

/// `T0`'s grant line stuck low while it waits: at the window's end the
/// arbiter looks steady and `T0` looks blocked, yet the grant it sees
/// next cycle lets it proceed. Skipping that cycle once livelocked the
/// batched kernel.
#[test]
fn kernels_agree_when_a_stuck_grant_window_ends() {
    let plan =
        FaultPlan::seeded(1).with_stuck_grant(ArbiterId::new(0), 0, false, FaultWindow::new(0, 3));
    assert_agree_at_window_end("stuck_grant_window_end", &window_end_graph(), &plan);
}

/// One glitch inverts `T0`'s first grant: the grant is back the next
/// cycle, which must execute rather than be skipped.
#[test]
fn kernels_agree_when_a_grant_glitch_ends() {
    let plan = FaultPlan::seeded(1).with_grant_glitch(ArbiterId::new(0), 0, 1);
    assert_agree_at_window_end("grant_glitch_window_end", &window_end_graph(), &plan);
}

/// A bit-flip window that closes right after the first transfer over
/// the channel, while the producer computes.
#[test]
fn kernels_agree_when_a_channel_bit_flip_window_ends() {
    let mut b = TaskGraphBuilder::new("flip_end");
    let seg = b.segment("out", 4, 16);
    let producer = b.task(
        "producer",
        Program::build(|p| {
            p.compute(3);
            p.send(ChannelId::new(0), Expr::lit(0x55));
            p.compute(40);
            p.send(ChannelId::new(0), Expr::lit(0x66));
        }),
    );
    let consumer = b.task(
        "consumer",
        Program::build(|p| {
            for i in 0..2u64 {
                let v = p.recv(ChannelId::new(0));
                p.mem_write(seg, Expr::lit(i), Expr::var(v));
            }
        }),
    );
    let _ = b.channel("c", 16, producer, consumer);
    let graph = b.finish().expect("valid");
    let plan =
        FaultPlan::seeded(1).with_channel_bit_flip(ChannelId::new(0), FaultWindow::new(0, 5));
    assert_agree_at_window_end("channel_bit_flip_window_end", &graph, &plan);
}

/// Every read fails error detection until the window closes right
/// after `T0`'s read-back.
#[test]
fn kernels_agree_when_a_bank_read_error_window_ends() {
    let graph = window_end_graph();
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let plan = FaultPlan::seeded(1).with_bank_read_error(
        binding.used_banks()[0],
        1000,
        FaultWindow::new(0, 6),
    );
    assert_agree_at_window_end("bank_read_error_window_end", &graph, &plan);
}

/// `T0` hangs mid-protocol; the window closes while `T1` computes.
#[test]
fn kernels_agree_when_a_task_hang_ends() {
    let plan = FaultPlan::seeded(1).with_task_hang(TaskId::new(0), FaultWindow::new(2, 8));
    assert_agree_at_window_end("task_hang_window_end", &window_end_graph(), &plan);
}

/// `T1` hangs from inside its 30-cycle compute: the controller must
/// see the hang on every cycle of the window, so a hang-targeted
/// sleeper is stepped, never skipped, through its compute.
#[test]
fn kernels_agree_when_a_task_hang_opens_mid_compute() {
    let plan = FaultPlan::seeded(1).with_task_hang(TaskId::new(1), FaultWindow::new(12, 19));
    let faults = assert_agree_at_window_end("task_hang_mid_compute", &window_end_graph(), &plan);
    assert_eq!(faults.injected, 1, "the hang must fire once: {faults:?}");
}

/// Eight tasks on duo_small's one bank, each computing 60 cycles and
/// then reading and writing its own segment, three times over, under
/// the random policy: the first compute is one skip over an idle
/// arbiter, and the next grant order is read off the LFSR phase that
/// skip left behind.
fn random_phase_graph() -> TaskGraph {
    long_compute_contention_graph(3, 60)
}

/// A stuck-grant window under the random policy that opens late in the
/// first compute and closes once every task queues behind `T0`, which
/// holds a grant it cannot see: the skip over the idle arbiter is
/// clamped at the window's start, the window's cycles execute, and the
/// grant order after it is read off the LFSR phase the skip and the
/// executed cycles left behind.
#[test]
fn kernels_agree_when_a_stuck_grant_window_cuts_a_random_skip() {
    let plan = FaultPlan::seeded(1).with_stuck_grant(
        ArbiterId::new(0),
        0,
        false,
        FaultWindow::new(58, 130),
    );
    assert_agree_under_policy(
        "random_stuck_grant_window",
        &random_phase_graph(),
        &plan,
        PolicyKind::Random,
    );
}

/// A random-policy run cut in the middle of the first compute's skip
/// and resumed: the LFSR phase carries across the two runs, so both
/// partial reports, the VCD and memory match legacy.
#[test]
fn kernels_agree_when_a_random_run_is_resumed_mid_skip() {
    let graph = random_phase_graph();
    let board = presets::duo_small();
    let [legacy, batched] = KERNELS.map(|kernel| {
        let mut sys = builder(&graph, &board, true, PolicyKind::Random, 1, kernel)
            .try_build(&board)
            .unwrap();
        let first = sys.run(33);
        let (second, vcd, memory, stats) = run_observed(sys, graph.segments());
        (first, (second, vcd, memory, stats))
    });
    assert_eq!(batched.0, legacy.0, "the cut run's report diverged");
    assert_equivalent(&legacy.1, &batched.1);
    assert!(!batched.0.completed && batched.1 .0.completed);
    assert_golden_stats("random_resumed_mid_skip", batched.1 .3);
}

/// The progress watchdog armed tighter than a compute: `producer`
/// computes for 60 cycles while `consumer` sits blocked on the empty
/// channel, and a 20-cycle progress bound must not fire, because the
/// computing task's busy count grows on every one of those cycles.
#[test]
fn kernels_agree_when_the_progress_bound_is_shorter_than_a_compute() {
    let mut b = TaskGraphBuilder::new("progress_vs_compute");
    let a = b.segment("A", 8, 16);
    let out = b.segment("OUT", 8, 16);
    let producer = b.task(
        "producer",
        Program::build(|p| {
            for i in 0..3u64 {
                p.mem_write(a, Expr::lit(i), Expr::lit(i + 1));
                p.compute(60);
                p.send(ChannelId::new(0), Expr::lit(40 + i));
            }
        }),
    );
    let consumer = b.task(
        "consumer",
        Program::build(|p| {
            for i in 0..3u64 {
                let v = p.recv(ChannelId::new(0));
                p.mem_write(out, Expr::lit(i), Expr::var(v));
            }
        }),
    );
    let _ = b.channel("c", 16, producer, consumer);
    let graph = b.finish().expect("valid");
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    let [legacy, batched] = KERNELS.map(|kernel| {
        let sys = SystemBuilder::from_plan(&plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_trace(true)
                    .with_watchdog(WatchdogConfig::none().with_progress_bound(20))
                    .with_kernel(kernel),
            )
            .try_build(&board)
            .unwrap();
        run_observed(sys, graph.segments())
    });
    assert_equivalent(&legacy, &batched);
    assert!(
        batched.0.clean(),
        "no progress violation may fire: {:?}",
        batched.0.violations
    );
}

/// A run cut mid-compute and resumed: `run(k)` with cycle `k` inside a
/// 50-cycle compute, then `run` to completion. Both partial reports,
/// the VCD and memory match legacy, so a run ends with every task's
/// counts settled and a second run continues exactly.
#[test]
fn kernels_agree_when_a_run_is_resumed_mid_compute() {
    let graph = window_end_graph();
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    let [legacy, batched] = KERNELS.map(|kernel| {
        let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
            .with_config(SimConfig::new().with_trace(true).with_kernel(kernel))
            .try_build(&board)
            .unwrap();
        let first = sys.run(17);
        let (second, vcd, memory, _) = run_observed(sys, graph.segments());
        (first, second, vcd, memory)
    });
    assert_eq!(batched.0, legacy.0, "the cut run's report diverged");
    assert_eq!(batched.1, legacy.1, "the resumed run's report diverged");
    assert_eq!(batched.2, legacy.2, "VCD diverged");
    assert_eq!(batched.3, legacy.3, "memory diverged");
    assert!(!batched.0.completed && batched.1.completed);
}

/// Sparse workload: four tasks on duo_small's one shared bank, each
/// alternating a long compute with a single write, so on almost every
/// cycle every task is asleep or queued on the arbiter and the batched
/// kernel skips the bulk of the run.
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

/// `tasks` tasks each looping a read-modify-write of word `i` of its own
/// segment: on Wildforce's private banks nothing ever sleeps (the dense
/// workload); packed into duo_small's one shared bank every access
/// queues behind a `tasks`-input arbiter (the contended workload).
fn read_modify_write_graph(tasks: usize, iters: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("kernel_read_modify_write");
    let segs: Vec<_> = (0..tasks)
        .map(|i| b.segment(format!("D{i}"), 64, 16))
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
    b.finish().expect("read-modify-write graph is well-formed")
}

/// Eight tasks, all clients of duo_small's one shared bank, each
/// looping a long compute followed by a read-modify-write of its own
/// segment — the shape of the simulate benchmark's long designs. Most
/// tasks sleep in a compute on most cycles while the bank serves the
/// others.
fn long_compute_contention_graph(iters: u32, compute: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("kernel_long_compute");
    let segs: Vec<_> = (0..8)
        .map(|t| b.segment(format!("L{t}"), iters, 16))
        .collect();
    for (t, &seg) in segs.iter().enumerate() {
        b.task(
            format!("T{t}"),
            Program::build(|p| {
                let i = p.let_(Expr::lit(0));
                p.repeat(iters, |p| {
                    p.compute(compute);
                    let v = p.mem_read(seg, Expr::var(i));
                    p.mem_write(
                        seg,
                        Expr::var(i),
                        Expr::add(Expr::var(v), Expr::lit(t as u64 + 1)),
                    );
                    p.set(i, Expr::add(Expr::var(i), Expr::lit(1)));
                });
            }),
        );
    }
    b.finish().expect("long-compute graph is well-formed")
}

/// The sparse, dense, contended and long-compute workloads, each
/// arbitrated under the paper's insertion (the long-compute one under
/// the round-robin, the random and the prefix-rr policy): reports, VCD and memory
/// match legacy, every run finishes, and the batched skip decisions and
/// work counters are pinned.
#[test]
fn kernels_agree_on_sparse_dense_and_contended_workloads() {
    let duo = presets::duo_small();
    let wildforce = presets::wildforce();
    let rr = PolicyKind::RoundRobin;
    for (name, graph, board, policy) in [
        ("sparse", sparse_graph(50), &duo, rr),
        ("dense", read_modify_write_graph(4, 5_000), &wildforce, rr),
        ("contended", read_modify_write_graph(16, 400), &duo, rr),
        (
            "long_compute_contention",
            long_compute_contention_graph(20, 170),
            &duo,
            rr,
        ),
        (
            "long_compute_contention_random",
            long_compute_contention_graph(20, 170),
            &duo,
            PolicyKind::Random,
        ),
        (
            "long_compute_contention_prefix",
            long_compute_contention_graph(20, 170),
            &duo,
            PolicyKind::PrefixRoundRobin,
        ),
    ] {
        let batched = assert_kernels_agree(&graph, board, true, policy, 2);
        assert!(batched.0.completed, "{name}: the workload must finish");
        assert_golden_stats(name, batched.3);
        let work = observe_work(&graph, board, policy, 2, &batched.0);
        assert_golden_work(name, work);
    }
}

/// One tile through the paper's three FFT partitions on Wildforce, the
/// host carrying segment contents between partitions by name: each
/// partition's report, VCD and memory match legacy, and the batched
/// skip decisions summed over the partitions are pinned.
#[test]
fn kernels_agree_on_an_fft_block() {
    let flow = rcarb::fft::run_fft_flow().expect("fft flow plans");
    let mut memory: BTreeMap<String, Vec<u64>> = (0..4u64)
        .map(|r| (format!("MI{}", r + 1), (1..=4).map(|c| r * 4 + c).collect()))
        .collect();
    let mut total = KernelStats::default();
    let obs = Obs::new();
    for stage in &flow.result.stages {
        let segments = stage.plan.graph.segments();
        let build = |kernel: KernelKind, obs: Option<&Obs>| {
            let mut builder = SystemBuilder::from_plan(&stage.plan, &stage.binding, &stage.merges)
                .with_config(SimConfig::new().with_trace(true).with_kernel(kernel));
            if let Some(o) = obs {
                builder = builder.with_obs(o.clone());
            }
            let mut sys = builder.try_build(&flow.board).unwrap();
            for seg in segments {
                if let Some(data) = memory.get(seg.name()) {
                    sys.try_load_segment(seg.id(), data).unwrap();
                }
            }
            run_observed(sys, segments)
        };
        let [legacy, batched] = KERNELS.map(|kernel| build(kernel, None));
        assert_equivalent(&legacy, &batched);
        let observed = build(KernelKind::BatchedSoa, Some(&obs));
        assert_eq!(observed.0, batched.0, "an obs session perturbed the run");
        assert!(
            batched.0.clean() && batched.0.completed,
            "partition #{}: {:?}",
            stage.index,
            batched.0.violations
        );
        total.absorb(batched.3);
        for (seg, data) in segments.iter().zip(batched.2) {
            memory.insert(seg.name().to_owned(), data);
        }
    }
    assert_golden_stats("fft_block", total);
    assert_golden_work("fft_block", work_counters(&obs));
}

/// Saturated four-way contention: four tasks each writing their own
/// segment 64 times, all in duo_small's one shared bank behind a
/// 4-input arbiter, co-simulated against its synthesized netlist. For
/// both policies that share the Fig. 5 FSM, the kernels agree on
/// report, VCD and memory, the run is clean (no `CosimMismatch`), and
/// the batched skip decisions are pinned.
#[test]
fn kernels_agree_on_a_cosimulated_saturated_4way_design() {
    let mut b = TaskGraphBuilder::new("saturated_4way");
    let segs: Vec<_> = (0..4).map(|i| b.segment(format!("M{i}"), 64, 16)).collect();
    for (i, &seg) in segs.iter().enumerate() {
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(64, |p| {
                    p.mem_write(seg, Expr::lit(0), Expr::lit(1));
                });
            }),
        );
    }
    let graph = b.finish().expect("valid");
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    assert_eq!(plan.arbiters.len(), 1);
    assert_eq!(plan.arbiters[0].inputs, 4);
    for policy in [PolicyKind::RoundRobin, PolicyKind::PrefixRoundRobin] {
        let [legacy, batched] = KERNELS.map(|kernel| {
            let sys = SystemBuilder::from_plan(&plan, &binding, &merges)
                .with_config(
                    SimConfig::new()
                        .with_policy(policy)
                        .with_cosim(true)
                        .with_trace(true)
                        .with_kernel(kernel),
                )
                .try_build(&board)
                .unwrap();
            run_observed(sys, graph.segments())
        });
        assert_equivalent(&legacy, &batched);
        assert!(
            batched.0.clean(),
            "{policy}: saturated run must finish clean: {:?}",
            batched.0.violations
        );
        assert_golden_stats("saturated_4way_cosim", batched.3);
    }
}
