//! Counterexample replay: every hazard-claiming verifier error on the
//! test corpus must carry a witness, and every witness must replay to a
//! matching watchdog violation on **both** simulation kernels. The
//! converse is a property: random plans the verifier certifies clean
//! run with zero protocol/fairness violations under armed watchdogs on
//! both kernels.

use proptest::prelude::*;
use rcarb::analyze::replay::replay_all;
use rcarb::analyze::{analyze_plan, AnalyzeConfig, DiagCode, Severity};
use rcarb::arb::channel::ChannelMergePlan;
use rcarb::arb::insertion::{
    insert_arbiters, ArbitratedResource, ArbitrationPlan, InsertionConfig,
};
use rcarb::arb::memmap::{bind_segments, MemoryBinding};
use rcarb::board::board::Board;
use rcarb::board::presets;
use rcarb::sim::config::{SimConfig, WatchdogConfig};
use rcarb::sim::engine::SystemBuilder;
use rcarb::sim::KernelKind;
use rcarb::taskgraph::builder::TaskGraphBuilder;
use rcarb::taskgraph::program::{Expr, Op, Program};

/// One corpus scenario: a (mutated) plan plus the config it is
/// analyzed under.
struct Scenario {
    name: &'static str,
    plan: ArbitrationPlan,
    binding: MemoryBinding,
    merges: ChannelMergePlan,
    config: AnalyzeConfig,
    board: Board,
    /// Codes the scenario is designed to trip.
    expected: Vec<DiagCode>,
}

/// Hazard-claiming codes: error findings of these families predict a
/// concrete watchdog violation and must carry a replayable witness.
/// (RCA304/RCA306 are structural — a dangling reference or an
/// unsynthesizable shape has no runtime behaviour to predict.)
fn requires_witness(code: DiagCode) -> bool {
    matches!(
        code,
        DiagCode::BurstExceeded
            | DiagCode::MissingRelease
            | DiagCode::NestedHold
            | DiagCode::UnguardedAccess
            | DiagCode::AwaitWithoutRequest
            | DiagCode::DeadlockCycle
            | DiagCode::FairnessRefuted
    )
}

/// Two tasks bursting `accesses` writes each into segments sharing
/// duo_small's one bank, transformed with burst window `m`.
fn contended(m: u32, accesses: u64) -> (ArbitrationPlan, MemoryBinding, ChannelMergePlan, Board) {
    let mut b = TaskGraphBuilder::new("corpus");
    let m1 = b.segment("M1", 256, 16);
    let m2 = b.segment("M2", 256, 16);
    for (name, seg) in [("T1", m1), ("T2", m2)] {
        b.task(
            name,
            Program::build(move |p| {
                for i in 0..accesses {
                    p.mem_write(seg, Expr::lit(i), Expr::lit(i));
                }
            }),
        );
    }
    let graph = b.finish().unwrap();
    let board = presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
    let merges = ChannelMergePlan::default();
    let plan = insert_arbiters(
        &graph,
        &binding,
        &merges,
        &InsertionConfig::paper().with_max_burst(m),
    );
    (plan, binding, merges, board)
}

fn strip_releases(ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .filter(|op| !matches!(op, Op::ReqDeassert { .. }))
        .cloned()
        .collect()
}

fn corpus() -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    // 1. Stripped release: T1 camps on the arbiter forever.
    {
        let (mut plan, binding, merges, board) = contended(2, 4);
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let stripped = Program::from_ops(strip_releases(plan.graph.task(t1).program().ops()));
        plan.graph.task_mut(t1).set_program(stripped);
        scenarios.push(Scenario {
            name: "stripped-release",
            plan,
            binding,
            merges,
            config: AnalyzeConfig::default(),
            board,
            expected: vec![DiagCode::MissingRelease, DiagCode::NestedHold],
        });
    }

    // 2. Raw access: T1's protocol ops removed entirely, arbiter kept.
    {
        let (mut plan, binding, merges, board) = contended(2, 4);
        let t1 = plan.graph.task_by_name("T1").unwrap().id();
        let seg = plan.graph.segments()[0].id();
        plan.graph.task_mut(t1).set_program(Program::build(|p| {
            for i in 0..4 {
                p.mem_write(seg, Expr::lit(i), Expr::lit(i));
            }
        }));
        scenarios.push(Scenario {
            name: "raw-access",
            plan,
            binding,
            merges,
            config: AnalyzeConfig::default(),
            board,
            expected: vec![DiagCode::UnguardedAccess],
        });
    }

    // 3. Overlong burst: transformed for M = 4, certified against M = 2.
    {
        let (plan, binding, merges, board) = contended(4, 4);
        scenarios.push(Scenario {
            name: "overlong-burst",
            plan,
            binding,
            merges,
            config: AnalyzeConfig::default().with_max_burst(2),
            board,
            expected: vec![DiagCode::BurstExceeded, DiagCode::FairnessRefuted],
        });
    }

    // 4. Cross-order deadlock: two arbiters acquired in opposite order.
    {
        let mut b = TaskGraphBuilder::new("dl");
        let m1 = b.segment("M1", 64, 16);
        let m2 = b.segment("M2", 64, 16);
        let mk = |p: &mut rcarb::taskgraph::program::ProgramBuilder| {
            p.mem_write(m1, Expr::lit(0), Expr::lit(1));
            p.mem_write(m2, Expr::lit(0), Expr::lit(1));
        };
        let t1 = b.task("T1", Program::build(mk));
        let t2 = b.task("T2", Program::build(mk));
        let graph = b.finish().unwrap();
        let board = presets::quad_large();
        let binding = bind_segments(graph.segments(), &board, &|_| None).unwrap();
        let merges = ChannelMergePlan::default();
        let mut plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
        let arb_of = |plan: &ArbitrationPlan, seg| {
            plan.arbiter_for(ArbitratedResource::Bank(binding.bank_of(seg).unwrap()))
                .unwrap()
                .id
        };
        let (a1, a2) = (arb_of(&plan, m1), arb_of(&plan, m2));
        let hold_both = |first, second, seg1, seg2| {
            Program::from_ops(vec![
                Op::ReqAssert { arbiter: first },
                Op::AwaitGrant { arbiter: first },
                Op::MemWrite {
                    segment: seg1,
                    addr: Expr::lit(0),
                    value: Expr::lit(1),
                },
                Op::ReqAssert { arbiter: second },
                Op::AwaitGrant { arbiter: second },
                Op::MemWrite {
                    segment: seg2,
                    addr: Expr::lit(0),
                    value: Expr::lit(1),
                },
                Op::ReqDeassert { arbiter: second },
                Op::ReqDeassert { arbiter: first },
            ])
        };
        plan.graph
            .task_mut(t1)
            .set_program(hold_both(a1, a2, m1, m2));
        plan.graph
            .task_mut(t2)
            .set_program(hold_both(a2, a1, m2, m1));
        scenarios.push(Scenario {
            name: "cross-order-deadlock",
            plan,
            binding,
            merges,
            config: AnalyzeConfig::default(),
            board,
            expected: vec![DiagCode::DeadlockCycle, DiagCode::NestedHold],
        });
    }

    scenarios
}

#[test]
fn every_corpus_error_carries_a_witness_that_replays_on_both_kernels() {
    for s in corpus() {
        let report = analyze_plan(&s.plan, &s.binding, &s.merges, &s.config);
        assert!(!report.is_clean(), "{}: expected errors", s.name);
        for code in &s.expected {
            assert!(
                report.has_code(*code),
                "{}: missing {code}\n{}",
                s.name,
                report.render_text()
            );
        }

        // Every hazard-claiming error carries a witness.
        let hazard_errors: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Error && requires_witness(d.code))
            .collect();
        assert!(!hazard_errors.is_empty(), "{}: no hazard errors", s.name);
        for d in &hazard_errors {
            assert!(
                d.witness.is_some(),
                "{}: {} at {} has no witness",
                s.name,
                d.code,
                d.location
            );
        }

        // And every witness replays to the predicted violation on both
        // kernels.
        let outcomes = replay_all(
            &s.plan,
            &s.binding,
            &s.merges,
            &s.config,
            &s.board,
            hazard_errors.iter().copied(),
        )
        .unwrap_or_else(|e| panic!("{}: replay build failed: {e}", s.name));
        assert_eq!(outcomes.len(), hazard_errors.len(), "{}", s.name);
        for o in &outcomes {
            assert!(
                o.confirmed(),
                "{}: {} at {} expecting {} — batched={} legacy={}",
                s.name,
                o.code,
                o.location,
                o.expect,
                o.batched_confirmed,
                o.legacy_confirmed
            );
        }
    }
}

/// A random contending design in the style of `protocol_props`: each
/// task owns a segment (all sharing duo_small's bank) and runs a random
/// access/compute pattern.
fn random_design(num_tasks: usize, patterns: &[Vec<u8>]) -> rcarb::taskgraph::graph::TaskGraph {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The converse of replay: a plan the verifier certifies clean runs
    /// with zero violations under fully armed watchdogs, on both
    /// kernels. (The generator is the deterministic vendored shim, so
    /// all 200 plans are reproducible.)
    #[test]
    fn certified_clean_plans_have_zero_violations(
        num_tasks in 2usize..=5,
        seed_patterns in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 1..24),
            5,
        ),
        m in 1u32..=4,
        retry_sel in 0u8..=1,
    ) {
        let retry = retry_sel == 1;
        let graph = random_design(num_tasks, &seed_patterns);
        let board = presets::duo_small();
        let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
        let merges = ChannelMergePlan::default();
        let mut insertion = InsertionConfig::paper().with_max_burst(m);
        if retry {
            insertion = insertion.with_retry(rcarb::arb::transform::RetryPolicy::new(64, 3, 16));
        }
        let plan = insert_arbiters(&graph, &binding, &merges, &insertion);

        let config = AnalyzeConfig::default().with_max_burst(m);
        let report = analyze_plan(&plan, &binding, &merges, &config);
        prop_assert!(report.is_clean(), "verifier rejected a transformed plan:\n{}", report.render_text());

        // The derived (N-1)(M+2)+2 fairness bound plus grant/progress
        // watchdogs: nothing may fire on a certified plan.
        let n = plan.arbiters.iter().map(|a| a.inputs).max().unwrap_or(2) as u64;
        let watchdog = WatchdogConfig::none()
            .with_grant_timeout(((n.max(2) - 1) * (u64::from(m) + 2) + 16).max(64))
            .with_progress_bound(256)
            .with_fairness_m(m);
        for kernel in [KernelKind::BatchedSoa, KernelKind::Legacy] {
            let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
                .with_config(
                    SimConfig::new()
                        .with_watchdog(watchdog)
                        .with_kernel(kernel),
                )
                .try_build(&board)
                .unwrap();
            let run = sys.run(1_000_000);
            prop_assert!(run.completed, "{kernel:?}: did not terminate");
            prop_assert!(
                run.violations.is_empty(),
                "{kernel:?}: {:?}",
                run.violations
            );
        }
    }
}
