//! Chaos-engineering suite for the deterministic fault-injection layer.
//!
//! Three guarantees are proved here:
//!
//! 1. **Determinism** — a [`FaultPlan`] with a given seed produces a
//!    byte-identical [`FaultReport`], [`RunReport`], memory image and
//!    VCD on every run, *and* on both kernels (the batched one clamps
//!    its skips to fault windows, so every in-window cycle and the
//!    first cycle after each window executes on both).
//! 2. **Zero-fault transparency** — an empty plan, or one whose windows
//!    never open, is byte-identical to a run with no plan at all.
//! 3. **Detection and recovery** — the watchdogs turn line faults,
//!    dead banks and dropped grants into structured [`Violation`]s
//!    (never panics), and the configured recovery policies restore
//!    forward progress: request scrubbing, bank quarantine, channel
//!    re-routing and the bounded-wait retry protocol.

use proptest::prelude::*;
use rcarb::board::memory::BankId;
use rcarb::prelude::*;
use rcarb::sim::KernelKind;
use rcarb::taskgraph::id::{ArbiterId, ChannelId};

/// Two tasks whose segments collide in duo_small's single shared bank:
/// the smallest design with real arbitration traffic.
fn contending_graph() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("chaos");
    let m1 = b.segment("M1", 64, 16);
    let m2 = b.segment("M2", 64, 16);
    b.task(
        "T0",
        Program::build(move |p| {
            for i in 0..6u64 {
                p.mem_write(m1, Expr::lit(i), Expr::lit(7 + i));
            }
        }),
    );
    b.task(
        "T1",
        Program::build(move |p| {
            for i in 0..6u64 {
                p.mem_write(m2, Expr::lit(i), Expr::lit(100 + i));
            }
        }),
    );
    b.finish().expect("valid graph")
}

/// Everything observable about one faulted run.
type Observation = (RunReport, FaultReport, Option<String>, Vec<Vec<u64>>);

/// Builds `graph` with `insertion`, compiles `plan` in, runs it, and
/// observes everything.
fn observe(
    graph: &TaskGraph,
    insertion: &InsertionConfig,
    config: SimConfig,
    plan: Option<&FaultPlan>,
    max_cycles: u64,
) -> Observation {
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let arb_plan = insert_arbiters(graph, &binding, &merges, insertion);
    let mut builder = SystemBuilder::from_plan(&arb_plan, &binding, &merges).with_config(config);
    if let Some(plan) = plan {
        builder = builder.with_faults(plan.clone());
    }
    let mut sys = builder.try_build(&board).expect("builds");
    let report = sys.run(max_cycles);
    let faults = sys.fault_report();
    let vcd = sys.vcd();
    let memory = graph
        .segments()
        .iter()
        .map(|s| sys.try_read_segment(s.id(), s.words() as usize).unwrap())
        .collect();
    (report, faults, vcd, memory)
}

fn has_violation(report: &RunReport, kind: &str) -> bool {
    report.violations.iter().any(|v| v.kind() == kind)
}

// ---------------------------------------------------------------------
// Zero-fault transparency
// ---------------------------------------------------------------------

/// No plan, an empty seeded plan, and a plan whose only window opens
/// long after the run ends must all be byte-identical — on both
/// kernels.
#[test]
fn zero_fault_runs_are_byte_identical() {
    let graph = contending_graph();
    let insertion = InsertionConfig::paper();
    let config = SimConfig::new().with_trace(true);
    let empty = FaultPlan::seeded(42);
    let dormant = FaultPlan::seeded(42).with_task_hang(TaskId::new(0), FaultWindow::at(5_000_000));
    for kernel in [KernelKind::BatchedSoa, KernelKind::Legacy] {
        let cfg = config.with_kernel(kernel);
        let baseline = observe(&graph, &insertion, cfg, None, 50_000);
        let with_empty = observe(&graph, &insertion, cfg, Some(&empty), 50_000);
        let with_dormant = observe(&graph, &insertion, cfg, Some(&dormant), 50_000);
        assert!(baseline.0.completed && baseline.0.clean());
        assert_eq!(baseline.0, with_empty.0, "RunReport (empty plan)");
        assert_eq!(baseline.2, with_empty.2, "VCD (empty plan)");
        assert_eq!(baseline.3, with_empty.3, "memory (empty plan)");
        assert_eq!(baseline.0, with_dormant.0, "RunReport (dormant plan)");
        assert_eq!(baseline.2, with_dormant.2, "VCD (dormant plan)");
        assert_eq!(baseline.3, with_dormant.3, "memory (dormant plan)");
        assert_eq!(with_empty.1, FaultReport::default());
        assert_eq!(with_dormant.1.injected, 0);
        assert_eq!(with_dormant.1.unrecovered, 0);
    }
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// The same seed produces byte-identical observations run after run,
/// and the two kernels agree on every one of them — including the
/// per-fault injection/detection/recovery traces.
#[test]
fn seeded_plans_are_deterministic_across_runs_and_kernels() {
    let graph = contending_graph();
    let insertion = InsertionConfig::paper();
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let bank = binding.used_banks()[0];
    let plan = FaultPlan::seeded(123)
        .with_bank_read_error(bank, 400, FaultWindow::new(10, 400))
        .with_grant_glitch(ArbiterId::new(0), 1, 25)
        .with_task_hang(TaskId::new(1), FaultWindow::new(40, 60));
    let config = SimConfig::new()
        .with_trace(true)
        .with_watchdog(WatchdogConfig::none().with_grant_timeout(32))
        .with_recovery(RecoveryPolicy::full());
    let batched_a = observe(&graph, &insertion, config, Some(&plan), 100_000);
    let batched_b = observe(&graph, &insertion, config, Some(&plan), 100_000);
    let legacy = observe(
        &graph,
        &insertion,
        config.with_kernel(KernelKind::Legacy),
        Some(&plan),
        100_000,
    );
    assert_eq!(batched_a, batched_b, "same seed, same everything");
    assert_eq!(batched_a.0, legacy.0, "RunReports diverged across kernels");
    assert_eq!(
        batched_a.1, legacy.1,
        "FaultReports diverged across kernels"
    );
    assert_eq!(batched_a.2, legacy.2, "VCD diverged across kernels");
    assert_eq!(batched_a.3, legacy.3, "memory diverged across kernels");
}

// ---------------------------------------------------------------------
// Watchdogs: detection as structured violations
// ---------------------------------------------------------------------

/// A request line stuck at 0 starves its task silently — until the
/// bounded-wait watchdog fires a GrantTimeout. With request scrubbing
/// enabled the runtime re-drives the line and the run completes; the
/// report records inject → detect → recover with a bounded latency.
#[test]
fn stuck_request_is_detected_and_scrubbed() {
    let graph = contending_graph();
    let plan = FaultPlan::seeded(7).with_stuck_request(
        TaskId::new(0),
        ArbiterId::new(0),
        false,
        FaultWindow::starting_at(0),
    );
    let config = SimConfig::new()
        .with_watchdog(WatchdogConfig::none().with_grant_timeout(40))
        .with_recovery(RecoveryPolicy::none().with_scrub_requests(true));
    let (report, faults, _, memory) = observe(
        &graph,
        &InsertionConfig::paper(),
        config,
        Some(&plan),
        100_000,
    );
    assert!(report.completed, "scrubbing must restore forward progress");
    assert!(has_violation(&report, "GrantTimeout"));
    assert!(faults.injected > 0);
    assert_eq!(faults.detected, 1);
    assert_eq!(faults.recovered, 1);
    assert_eq!(faults.unrecovered, 0);
    let latency = faults.worst_detection_latency().expect("detected");
    assert!(
        latency <= 45,
        "detection latency {latency} exceeds bound+slack"
    );
    // T0's writes landed after recovery.
    assert_eq!(memory[0][..6], [7, 8, 9, 10, 11, 12]);
}

/// The same stuck line with recovery disabled: the no-progress watchdog
/// halts the run with a structured violation instead of spinning to the
/// cycle limit (or panicking).
#[test]
fn stuck_request_without_recovery_halts_via_no_progress() {
    let graph = contending_graph();
    let plan = FaultPlan::seeded(7).with_stuck_request(
        TaskId::new(0),
        ArbiterId::new(0),
        false,
        FaultWindow::starting_at(0),
    );
    let config = SimConfig::new().with_watchdog(WatchdogConfig::none().with_progress_bound(150));
    let (report, faults, _, _) = observe(
        &graph,
        &InsertionConfig::paper(),
        config,
        Some(&plan),
        100_000,
    );
    assert!(!report.completed);
    assert!(report.cycles < 100_000, "watchdog must halt early");
    assert!(has_violation(&report, "NoProgress"));
    assert!(faults.injected > 0);
    assert_eq!(faults.recovered, 0);
}

/// A grant line stuck at 1 hands two tasks the bank at once: the
/// MultipleGrants monitor catches it on the perturbed word. No recovery
/// can re-drive an arbiter output, so the report ends unrecovered.
#[test]
fn stuck_grant_high_surfaces_as_multiple_grants() {
    let graph = contending_graph();
    let plan = FaultPlan::seeded(7).with_stuck_grant(
        ArbiterId::new(0),
        1,
        true,
        FaultWindow::starting_at(0),
    );
    let config = SimConfig::new().with_recovery(RecoveryPolicy::full());
    let (report, faults, _, _) = observe(
        &graph,
        &InsertionConfig::paper(),
        config,
        Some(&plan),
        100_000,
    );
    assert!(has_violation(&report, "MultipleGrants"));
    assert!(faults.injected > 0);
    assert_eq!(faults.detected, 1);
    assert_eq!(faults.unrecovered, 1);
}

/// The runtime fairness cross-check. Fault-free, even a static-priority
/// arbiter stays within the paper's M-bound: the Fig. 8 protocol forces
/// the hog to deassert between bursts, and the waiter is granted during
/// that gap. A stuck-at-1 request line camping on the arbiter defeats
/// the protocol — the meek task starves past the bound, the watchdog
/// reports the breach, and request scrubbing restores progress.
#[test]
fn fairness_watchdog_flags_starvation_under_a_camping_request() {
    let mut b = TaskGraphBuilder::new("starve");
    let m1 = b.segment("A", 64, 16);
    b.task(
        "hog",
        Program::build(move |p| {
            for i in 0..30u64 {
                p.mem_write(m1, Expr::lit(i % 64), Expr::lit(i));
            }
        }),
    );
    b.task(
        "meek",
        Program::build(move |p| {
            let _ = p.mem_read(m1, Expr::lit(0));
        }),
    );
    let graph = b.finish().expect("valid");
    let watchdog = WatchdogConfig::none().with_fairness_m(2);
    // Fault-free static priority: the protocol's forced deasserts keep
    // every waiter inside the bound, so the cross-check stays quiet.
    let clean = observe(
        &graph,
        &InsertionConfig::paper(),
        SimConfig::new()
            .with_policy(PolicyKind::StaticPriority)
            .with_watchdog(watchdog),
        None,
        100_000,
    );
    assert!(clean.0.completed);
    assert!(
        !has_violation(&clean.0, "FairnessBreach"),
        "the M-protocol protects fairness fault-free: {:?}",
        clean.0.violations
    );
    // Camp the hog's request line: it never deasserts, static priority
    // re-grants the hog forever, and the meek task starves.
    let plan = FaultPlan::seeded(7).with_stuck_request(
        TaskId::new(0),
        ArbiterId::new(0),
        true,
        FaultWindow::starting_at(0),
    );
    let starved = observe(
        &graph,
        &InsertionConfig::paper(),
        SimConfig::new()
            .with_policy(PolicyKind::StaticPriority)
            .with_watchdog(watchdog)
            .with_recovery(RecoveryPolicy::none().with_scrub_requests(true)),
        Some(&plan),
        100_000,
    );
    assert!(
        has_violation(&starved.0, "FairnessBreach"),
        "a camping request must breach the M-bound: {:?}",
        starved.0.violations
    );
    assert_eq!(starved.1.detected, 1, "{}", starved.1.render_text());
    assert_eq!(starved.1.recovered, 1, "{}", starved.1.render_text());
    assert!(starved.0.completed, "scrubbing restores forward progress");
    // The same workload under round-robin stays within the bound: the
    // cross-check never fires on the paper's fair arbiter.
    let fair = observe(
        &graph,
        &InsertionConfig::paper(),
        SimConfig::new().with_watchdog(watchdog),
        None,
        100_000,
    );
    assert!(
        !has_violation(&fair.0, "FairnessBreach"),
        "round-robin conforms to the bound: {:?}",
        fair.0.violations
    );
}

/// Two tasks each writing one shared bank `iters` times: enough traffic
/// that a camping request line visibly starves the other task.
fn hog_and_meek_graph(iters: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("chaos_sweep");
    let m = b.segment("M", 64, 16);
    b.task(
        "hog",
        Program::build(move |p| {
            p.repeat(iters, |p| p.mem_write(m, Expr::lit(0), Expr::lit(1)));
        }),
    );
    b.task(
        "meek",
        Program::build(move |p| {
            p.repeat(iters, |p| p.mem_write(m, Expr::lit(1), Expr::lit(2)));
        }),
    );
    b.finish().expect("valid graph")
}

/// A seeded sweep of a camping stuck-request (which defeats the Fig. 8
/// deassert protocol) plus a transient task hang, with watchdogs and
/// request scrubbing on: every seed completes, both kernels observe the
/// identical run and fault lifecycle, and every detected fault is
/// recovered. The totals over the sweep are pinned.
#[test]
fn seeded_chaos_sweep_recovers_identically_on_both_kernels() {
    let graph = hog_and_meek_graph(50);
    let config = SimConfig::new()
        .with_trace(true)
        .with_watchdog(
            WatchdogConfig::none()
                .with_grant_timeout(32)
                .with_progress_bound(4096),
        )
        .with_recovery(RecoveryPolicy::none().with_scrub_requests(true));
    let insertion = InsertionConfig::paper();
    let (mut detected, mut recovered, mut worst_latency) = (0, 0, 0);
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed)
            .with_stuck_request(
                TaskId::new(0),
                ArbiterId::new(0),
                true,
                FaultWindow::new(seed * 3, seed * 3 + 60),
            )
            .with_task_hang(TaskId::new(1), FaultWindow::new(10 + seed, 20 + seed));
        let batched = observe(&graph, &insertion, config, Some(&plan), 1_000_000);
        let legacy = observe(
            &graph,
            &insertion,
            config.with_kernel(KernelKind::Legacy),
            Some(&plan),
            1_000_000,
        );
        assert_eq!(batched, legacy, "seed {seed}: the kernels diverged");
        assert!(
            batched.0.completed,
            "seed {seed}: recovery must restore progress"
        );
        detected += batched.1.detected;
        recovered += batched.1.recovered;
        worst_latency = worst_latency.max(batched.1.worst_detection_latency().unwrap_or(0));
    }
    assert!(detected > 0, "the sweep must detect at least one fault");
    assert_eq!(detected, recovered, "every detected fault is recoverable");
    assert_eq!((detected, worst_latency), (8, 43), "sweep totals changed");
}

// ---------------------------------------------------------------------
// Recovery: quarantine, re-route, retry
// ---------------------------------------------------------------------

/// A bank whose every read fails EDC: with read retries and quarantine
/// enabled, the runtime migrates the segment to a spare bank, after
/// which reads are clean and the task finishes with correct data.
#[test]
fn dead_bank_is_quarantined_onto_a_spare() {
    let mut b = TaskGraphBuilder::new("bank");
    let m = b.segment("M", 32, 16);
    b.task(
        "reader",
        Program::build(move |p| {
            for i in 0..8u64 {
                let v = p.mem_read(m, Expr::lit(i));
                p.mem_write(m, Expr::lit(8 + i), Expr::add(Expr::var(v), Expr::lit(1)));
            }
        }),
    );
    let graph = b.finish().expect("valid");
    let board = presets::wildforce(); // four banks: three spares
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let sick = binding.used_banks()[0];
    let merges = ChannelMergePlan::default();
    let arb_plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    let plan = FaultPlan::seeded(99).with_bank_read_error(sick, 1000, FaultWindow::starting_at(0));
    let run = |kernel: KernelKind| {
        let mut sys = SystemBuilder::from_plan(&arb_plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_recovery(
                        RecoveryPolicy::none()
                            .with_retry_reads(true)
                            .with_quarantine_banks(4),
                    )
                    .with_kernel(kernel),
            )
            .with_faults(plan.clone())
            .try_build(&board)
            .expect("builds");
        let seed_data: Vec<u64> = (0..8).map(|i| i * 3).collect();
        sys.try_load_segment(graph.segments()[0].id(), &seed_data)
            .unwrap();
        let report = sys.run(100_000);
        let faults = sys.fault_report();
        let words = sys.try_read_segment(graph.segments()[0].id(), 16).unwrap();
        (report, faults, words)
    };
    let (report, faults, words) = run(KernelKind::BatchedSoa);
    assert!(report.completed, "quarantine must unblock the reader");
    assert!(has_violation(&report, "BankReadFault"));
    assert_eq!(faults.detected, 1);
    assert_eq!(faults.recovered, 1, "{}", faults.render_text());
    // Post-quarantine reads returned the migrated, uncorrupted data.
    let expect: Vec<u64> = (0..8).map(|i| i * 3 + 1).collect();
    assert_eq!(words[8..16], expect[..]);
    // And the whole episode is kernel-independent.
    let legacy = run(KernelKind::Legacy);
    assert_eq!((report, faults, words), legacy);
}

/// A channel whose route flips one bit per transfer: parity detection
/// fires ChannelFault, and after the threshold the runtime re-routes
/// the channel onto a fresh private route the fault cannot follow.
#[test]
fn noisy_channel_is_rerouted() {
    let mut b = TaskGraphBuilder::new("chan");
    let seg = b.segment("out", 16, 16);
    let producer = b.task(
        "producer",
        Program::build(|p| {
            for i in 0..8u64 {
                p.compute(3);
                p.send(ChannelId::new(0), Expr::lit(1 << 8 | i));
            }
        }),
    );
    // Receiver registers are persistent latched wires (the paper's
    // register model): a recv samples the current value without
    // consuming it. Read once, well after the producer's last send, so
    // the sampled value is the final transfer.
    let consumer = b.task(
        "consumer",
        Program::build(move |p| {
            p.compute(60);
            let v = p.recv(ChannelId::new(0));
            p.mem_write(seg, Expr::lit(0), Expr::var(v));
        }),
    );
    let c = b.channel("c", 16, producer, consumer);
    let graph = b.finish().expect("valid");
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let arb_plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    let plan = FaultPlan::seeded(5).with_channel_bit_flip(c, FaultWindow::starting_at(0));
    let run = |kernel: KernelKind| {
        let mut sys = SystemBuilder::from_plan(&arb_plan, &binding, &merges)
            .with_config(
                SimConfig::new()
                    .with_recovery(RecoveryPolicy::none().with_reroute_channels(2))
                    .with_kernel(kernel),
            )
            .with_faults(plan.clone())
            .try_build(&board)
            .expect("builds");
        let report = sys.run(100_000);
        let faults = sys.fault_report();
        let words = sys.try_read_segment(seg, 1).unwrap();
        (report, faults, words)
    };
    let (report, faults, words) = run(KernelKind::BatchedSoa);
    assert!(report.completed);
    assert!(has_violation(&report, "ChannelFault"));
    assert_eq!(faults.detected, 1);
    assert_eq!(faults.recovered, 1, "{}", faults.render_text());
    // After the re-route the fault cannot inject: the final transfer
    // arrives intact on the fresh route.
    assert_eq!(words[0], 1 << 8 | 7);
    let legacy = run(KernelKind::Legacy);
    assert_eq!((report, faults, words), legacy);
}

/// A grant line stuck at 0 deadlocks the blocking Fig. 8 protocol — but
/// a task rewritten with the bounded-wait retry policy exhausts its
/// attempts, skips the batch (degraded mode) and keeps going.
#[test]
fn retry_protocol_degrades_past_a_dead_grant_line() {
    let graph = contending_graph();
    let plan = FaultPlan::seeded(3).with_stuck_grant(
        ArbiterId::new(0),
        0,
        false,
        FaultWindow::starting_at(0),
    );
    // Blocking protocol: T0 waits forever; the watchdog halts the run.
    let blocking = observe(
        &graph,
        &InsertionConfig::paper(),
        SimConfig::new().with_watchdog(WatchdogConfig::none().with_progress_bound(200)),
        Some(&plan),
        100_000,
    );
    assert!(!blocking.0.completed);
    assert!(has_violation(&blocking.0, "NoProgress"));
    // Retry protocol: bounded waits, then degraded completion.
    let retry = observe(
        &graph,
        &InsertionConfig::paper().with_retry(RetryPolicy::new(8, 2, 4)),
        SimConfig::new(),
        Some(&plan),
        100_000,
    );
    assert!(retry.0.completed, "retry must restore forward progress");
    assert!(retry.1.injected > 0);
    // Degraded mode: T0's guarded writes were skipped, T1's landed.
    assert_eq!(retry.3[0][..6], [0; 6]);
    assert_eq!(retry.3[1][..6], [100, 101, 102, 103, 104, 105]);
    // Without the fault the same retry-rewritten design runs clean and
    // writes everything — the bounded waits themselves change nothing.
    let clean = observe(
        &graph,
        &InsertionConfig::paper().with_retry(RetryPolicy::new(8, 2, 4)),
        SimConfig::new(),
        None,
        100_000,
    );
    assert!(clean.0.completed && clean.0.clean());
    assert_eq!(clean.3[0][..6], [7, 8, 9, 10, 11, 12]);
    assert_eq!(clean.3[1][..6], [100, 101, 102, 103, 104, 105]);
}

/// A transient hang freezes a task mid-flight; when the window closes
/// it resumes exactly where it stopped and the run still completes with
/// the right memory image.
#[test]
fn transient_task_hang_resumes_exactly() {
    let graph = contending_graph();
    let plan = FaultPlan::seeded(11).with_task_hang(TaskId::new(0), FaultWindow::new(5, 47));
    let insertion = InsertionConfig::paper();
    let config = SimConfig::new().with_trace(true);
    let faulted = observe(&graph, &insertion, config, Some(&plan), 100_000);
    let baseline = observe(&graph, &insertion, config, None, 100_000);
    assert!(faulted.0.completed);
    // `injected` counts faults that fired; the per-cycle count is on
    // the trace — one injection per frozen cycle of [5..47).
    assert_eq!(faulted.1.injected, 1);
    assert_eq!(
        faulted.1.traces[0].injections, 42,
        "one injection per frozen cycle"
    );
    assert_eq!(faulted.1.traces[0].first_injection, Some(5));
    // Same final memory, later finish.
    assert_eq!(faulted.3, baseline.3);
    assert!(faulted.0.cycles > baseline.0.cycles);
    // Kernel parity under the hang.
    let legacy = observe(
        &graph,
        &insertion,
        config.with_kernel(KernelKind::Legacy),
        Some(&plan),
        100_000,
    );
    assert_eq!(faulted.0, legacy.0);
    assert_eq!(faulted.1, legacy.1);
    assert_eq!(faulted.2, legacy.2);
}

/// Invalid plans are rejected at build time with a structured error,
/// never a mid-run panic.
#[test]
fn invalid_plans_fail_at_build() {
    let graph = contending_graph();
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let merges = ChannelMergePlan::default();
    let arb_plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    let bad_plans = [
        FaultPlan::seeded(0).with_task_hang(TaskId::new(9), FaultWindow::at(0)),
        FaultPlan::seeded(0).with_stuck_grant(ArbiterId::new(3), 0, true, FaultWindow::at(0)),
        FaultPlan::seeded(0).with_stuck_grant(ArbiterId::new(0), 63, true, FaultWindow::at(0)),
        FaultPlan::seeded(0).with_bank_read_error(BankId::new(0), 2000, FaultWindow::at(0)),
        FaultPlan::seeded(0).with_channel_bit_flip(ChannelId::new(0), FaultWindow::at(0)),
    ];
    for plan in bad_plans {
        let err = SystemBuilder::from_plan(&arb_plan, &binding, &merges)
            .with_faults(plan)
            .try_build(&board)
            .expect_err("invalid plan must be rejected");
        assert!(
            matches!(err, Error::FaultPlan { .. }),
            "unexpected error: {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Randomized cross-kernel parity
// ---------------------------------------------------------------------

/// A random plan drawn from raw bytes: every kind is exercised, windows
/// and seeds vary, references stay valid for `contending_graph`.
fn random_plan(seed: u64, picks: &[(u8, u64, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    for &(kind, from, len) in picks {
        let window = FaultWindow::new(from, from + len.max(1));
        plan = match kind % 6 {
            0 => plan.with_stuck_request(TaskId::new(0), ArbiterId::new(0), false, window),
            1 => plan.with_stuck_request(TaskId::new(1), ArbiterId::new(0), true, window),
            2 => plan.with_stuck_grant(
                ArbiterId::new(0),
                (kind / 6) as usize % 2,
                kind % 2 == 0,
                window,
            ),
            3 => plan.with_grant_glitch(ArbiterId::new(0), (kind / 6) as usize % 2, from),
            4 => plan.with_task_hang(TaskId::new(u32::from(kind) % 2), window),
            _ => plan.with_fault(
                FaultKind::BankReadError {
                    bank: BankId::new(0),
                    per_mille: u32::from(kind) * 4,
                },
                window,
            ),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random plan, with watchdogs and full recovery on: the two
    /// kernels observe the identical run, fault accounting included,
    /// and a repeat run is byte-identical.
    #[test]
    fn kernels_agree_under_random_fault_plans(
        seed in 0u64..1_000_000,
        picks in proptest::collection::vec((0u8..=255, 0u64..120, 1u64..80), 1..5),
    ) {
        let graph = contending_graph();
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
        let bank = binding.used_banks()[0];
        let mut plan = random_plan(seed, &picks);
        // Re-target the placeholder bank id onto the real bound bank.
        let faults: Vec<_> = plan
            .faults()
            .iter()
            .map(|f| {
                let kind = match f.kind {
                    FaultKind::BankReadError { per_mille, .. } => {
                        FaultKind::BankReadError { bank, per_mille: per_mille.min(1000) }
                    }
                    k => k,
                };
                (kind, f.window)
            })
            .collect();
        plan = FaultPlan::seeded(seed);
        for (kind, window) in faults {
            plan = plan.with_fault(kind, window);
        }
        let config = SimConfig::new()
            .with_trace(true)
            .with_watchdog(
                WatchdogConfig::none()
                    .with_grant_timeout(24)
                    .with_progress_bound(600)
                    .with_fairness_m(2),
            )
            .with_recovery(RecoveryPolicy::full());
        let insertion = InsertionConfig::paper();
        let batched = observe(&graph, &insertion, config, Some(&plan), 20_000);
        let batched_again = observe(&graph, &insertion, config, Some(&plan), 20_000);
        let legacy = observe(
            &graph,
            &insertion,
            config.with_kernel(KernelKind::Legacy),
            Some(&plan),
            20_000,
        );
        prop_assert_eq!(&batched, &batched_again, "determinism broke");
        prop_assert_eq!(&batched.0, &legacy.0, "RunReports diverged");
        prop_assert_eq!(&batched.1, &legacy.1, "FaultReports diverged");
        prop_assert_eq!(&batched.2, &legacy.2, "VCD diverged");
        prop_assert_eq!(&batched.3, &legacy.3, "memory diverged");
    }
}
