//! Golden analyzer reports: every design below is analyzed, and the
//! report's text rendering and JSON document must match
//! `data/analyze_golden.txt` byte for byte.
//!
//! The expected file pins what the static analyzer says, whatever its
//! internal scheduling. The designs are:
//!
//! - the FFT Wildforce flow, every temporal partition, with and without
//!   Sec. 5 elision;
//! - a contention grid: `n` tasks bursting on duo_small's one shared
//!   bank, so one arbiter with `n` clients, for n = 2, 4, 8 under each
//!   FSM encoding (one-hot, compact, Gray);
//! - the design mutations of `tests/analyze.rs` (dropped arbiters,
//!   stripped releases, cross-order locks, fairness refutation and
//!   unprovability, a shorted channel);
//! - the witness-replay corpus of `tests/verifier_replay.rs`, plus
//!   seeded random contending designs in the style of its property
//!   test.
//!
//! To print the reports (for example to re-record them after a
//! deliberate change to a diagnostic): `cargo test --test analyze_golden
//! -- --ignored --nocapture`.
//!
//! The analyzer memoizes each arbiter shape's FSM and netlist verdict
//! process-wide; two tests here pin that memo's hit and miss counts.
//! Every test takes [`cache_lock`], so no other analysis moves the
//! counters while they are read.

use rcarb::analyze::{
    analyze_plan, reset_verdict_cache, verdict_cache_stats, AnalysisReport, AnalyzeConfig,
};
use rcarb::arb::channel::{plan_merges, ChannelMergePlan};
use rcarb::arb::insertion::{
    insert_arbiters, ArbitratedResource, ArbitrationPlan, InsertionConfig,
};
use rcarb::arb::memmap::{bind_segments, MemoryBinding};
use rcarb::arb::transform::RetryPolicy;
use rcarb::board::board::PeId;
use rcarb::board::presets;
use rcarb::fft::flow::run_fft_flow_with;
use rcarb::logic::encode::EncodingStyle;
use rcarb::taskgraph::builder::TaskGraphBuilder;
use rcarb::taskgraph::graph::TaskGraph;
use rcarb::taskgraph::id::{TaskId, VarId};
use rcarb::taskgraph::program::{Expr, Op, Program};
use std::sync::{Mutex, MutexGuard};

const EXPECTED: &str = include_str!("data/analyze_golden.txt");

/// Serializes the tests of this binary: the verdict memo and its
/// counters are process-wide.
fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(hits, misses)` added to the verdict memo by `analyze`.
fn lookups_during(analyze: impl FnOnce()) -> (u64, u64) {
    let before = verdict_cache_stats();
    analyze();
    let after = verdict_cache_stats();
    (after.hits - before.hits, after.misses - before.misses)
}

/// One analyzed design: its plan and the inputs the analyzer needs.
struct Case {
    plan: ArbitrationPlan,
    binding: MemoryBinding,
    merges: ChannelMergePlan,
}

impl Case {
    fn new(
        graph: &TaskGraph,
        board: &rcarb::board::board::Board,
        insertion: &InsertionConfig,
    ) -> Self {
        let binding = bind_segments(graph.segments(), board, &|_| None).expect("binds");
        let merges = ChannelMergePlan::default();
        let plan = insert_arbiters(graph, &binding, &merges, insertion);
        Self {
            plan,
            binding,
            merges,
        }
    }

    fn analyze(&self, config: &AnalyzeConfig) -> AnalysisReport {
        analyze_plan(&self.plan, &self.binding, &self.merges, config)
    }

    fn arbiter_of(&self, segment_index: usize) -> rcarb::taskgraph::id::ArbiterId {
        let seg = self.plan.graph.segments()[segment_index].id();
        self.plan
            .arbiter_for(ArbitratedResource::Bank(
                self.binding.bank_of(seg).expect("bound"),
            ))
            .expect("arbitrated")
            .id
    }

    fn set_program(&mut self, task: &str, program: Program) {
        let t = self.plan.graph.task_by_name(task).expect("task").id();
        self.plan.graph.task_mut(t).set_program(program);
    }
}

/// Strips every `ReqDeassert` from a program, recursively.
fn strip_releases(ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .filter(|op| !matches!(op, Op::ReqDeassert { .. }))
        .map(|op| match op {
            Op::Repeat { times, body } => Op::Repeat {
                times: *times,
                body: strip_releases(body),
            },
            Op::IfNonZero {
                cond,
                then_ops,
                else_ops,
            } => Op::IfNonZero {
                cond: cond.clone(),
                then_ops: strip_releases(then_ops),
                else_ops: strip_releases(else_ops),
            },
            other => other.clone(),
        })
        .collect()
}

/// `n` tasks writing four words each into one shared segment: one
/// arbiter with `n` clients, the dimension the lockset, deadlock and
/// fairness passes scale in.
fn burst_graph(n: usize) -> TaskGraph {
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
    b.finish().expect("well-formed")
}

/// Two tasks writing four words each into their own segment on
/// duo_small's one bank, transformed with burst window `m`.
fn contended(m: u32) -> Case {
    let mut b = TaskGraphBuilder::new("contended");
    let m1 = b.segment("M1", 256, 16);
    let m2 = b.segment("M2", 256, 16);
    for (name, seg) in [("T1", m1), ("T2", m2)] {
        b.task(
            name,
            Program::build(move |p| {
                for i in 0..4 {
                    p.mem_write(seg, Expr::lit(i), Expr::lit(i));
                }
            }),
        );
    }
    let graph = b.finish().unwrap();
    Case::new(
        &graph,
        &presets::duo_small(),
        &InsertionConfig::paper().with_max_burst(m),
    )
}

/// Two tasks holding two arbiters (one per quad_large bank), T2 in the
/// opposite order when `opposite`; `ordered` serializes the tasks and
/// `bounded` makes every wait an `AwaitGrantFor`.
fn two_locks(opposite: bool, ordered: bool, bounded: bool) -> Case {
    let mut b = TaskGraphBuilder::new("locks");
    let m1 = b.segment("M1", 64, 16);
    let m2 = b.segment("M2", 64, 16);
    let mk = |p: &mut rcarb::taskgraph::program::ProgramBuilder| {
        p.mem_write(m1, Expr::lit(0), Expr::lit(1));
        p.mem_write(m2, Expr::lit(0), Expr::lit(1));
    };
    let t1 = b.task("T1", Program::build(mk));
    let t2 = b.task("T2", Program::build(mk));
    if ordered {
        b.control_dep(t1, t2);
    }
    let graph = b.finish().unwrap();
    let mut case = Case::new(&graph, &presets::quad_large(), &InsertionConfig::paper());
    let (a1, a2) = (case.arbiter_of(0), case.arbiter_of(1));
    let hold_both = |first, second, seg1, seg2| {
        let acquire = |arbiter, var| {
            if bounded {
                Op::AwaitGrantFor {
                    arbiter,
                    cycles: 16,
                    dst: VarId::new(var),
                }
            } else {
                Op::AwaitGrant { arbiter }
            }
        };
        let write = |segment| Op::MemWrite {
            segment,
            addr: Expr::lit(0),
            value: Expr::lit(1),
        };
        Program::from_ops(vec![
            Op::ReqAssert { arbiter: first },
            acquire(first, 0),
            write(seg1),
            Op::ReqAssert { arbiter: second },
            acquire(second, 1),
            write(seg2),
            Op::ReqDeassert { arbiter: second },
            Op::ReqDeassert { arbiter: first },
        ])
    };
    case.set_program("T1", hold_both(a1, a2, m1, m2));
    let p2 = if opposite {
        hold_both(a2, a1, m2, m1)
    } else {
        hold_both(a1, a2, m1, m2)
    };
    case.set_program("T2", p2);
    case
}

/// Two writers merged onto one physical channel (the Table 1 topology).
/// `erased` drops the merged channel's arbiter and undoes the
/// transform, shorting the two sources.
fn shorted_channel(erased: bool) -> Case {
    let mut b = TaskGraphBuilder::new("shorted");
    let t1 = b.task("W1", Program::empty());
    let t4 = b.task("W2", Program::empty());
    let t2 = b.task("R1", Program::empty());
    let t3 = b.task("R2", Program::empty());
    let c1 = b.channel("c1", 16, t1, t2);
    let c4 = b.channel("c4", 16, t4, t3);
    let mut graph = b.finish().expect("valid design");
    let send = |c, v| Program::build(|p| p.send(c, Expr::lit(v)));
    graph.task_mut(t1).set_program(send(c1, 10));
    graph.task_mut(t4).set_program(send(c4, 102));
    graph.task_mut(t2).set_program(Program::build(|p| {
        let _ = p.recv(c1);
    }));
    graph.task_mut(t3).set_program(Program::build(|p| {
        let _ = p.recv(c4);
    }));
    let board = presets::duo_small();
    let place = |t: TaskId| PeId::new(u32::from(t.index() >= 2));
    let merges = plan_merges(&graph, &board, &place).expect("single route");
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let mut plan = insert_arbiters(&graph, &binding, &merges, &InsertionConfig::paper());
    if erased {
        plan.arbiters.clear();
        plan.graph.task_mut(t1).set_program(send(c1, 10));
        plan.graph.task_mut(t4).set_program(send(c4, 102));
    }
    Case {
        plan,
        binding,
        merges,
    }
}

/// A random contending design: each task owns a segment (all on
/// duo_small's one bank) and runs the access/compute pattern its byte
/// string spells.
fn random_design(patterns: &[Vec<u8>]) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("random");
    let segs: Vec<_> = (0..patterns.len())
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

/// SplitMix64: the seeded source of the random designs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The contention grid: n clients on one arbiter, every encoding.
fn grid_reports() -> Vec<(String, AnalysisReport)> {
    let mut out = Vec::new();
    for n in [2, 4, 8] {
        let case = Case::new(
            &burst_graph(n),
            &presets::duo_small(),
            &InsertionConfig::paper(),
        );
        for (label, encoding) in [
            ("one_hot", EncodingStyle::OneHot),
            ("compact", EncodingStyle::Compact),
            ("gray", EncodingStyle::Gray),
        ] {
            let config = AnalyzeConfig {
                encoding,
                ..AnalyzeConfig::default()
            };
            out.push((format!("grid n{n}_{label}"), case.analyze(&config)));
        }
    }
    out
}

/// Every golden case's name and report, in file order.
fn reports() -> Vec<(String, AnalysisReport)> {
    let paper = AnalyzeConfig::default();
    let mut out = Vec::new();

    for elide in [false, true] {
        let flow = run_fft_flow_with(elide).expect("the FFT flow partitions");
        out.push((format!("fft elide={elide}"), flow.analyze(&paper)));
    }

    out.extend(grid_reports());

    // Mutations of the FFT's partition #0 (arbiters N = 6 and 2).
    let flow = run_fft_flow_with(false).expect("flow");
    let stage = &flow.result.stages[0];
    let fft_p0 = |plan: ArbitrationPlan| Case {
        plan,
        binding: stage.binding.clone(),
        merges: stage.merges.clone(),
    };
    let mut dropped = fft_p0(stage.plan.clone());
    dropped.plan.arbiters.clear();
    out.push(("fft p0 arbiters dropped".into(), dropped.analyze(&paper)));
    let mut stripped = fft_p0(stage.plan.clone());
    let ids: Vec<TaskId> = stripped.plan.graph.tasks().iter().map(|t| t.id()).collect();
    for t in ids {
        let ops = strip_releases(stripped.plan.graph.task(t).program().ops());
        stripped
            .plan
            .graph
            .task_mut(t)
            .set_program(Program::from_ops(ops));
    }
    out.push(("fft p0 releases stripped".into(), stripped.analyze(&paper)));

    for (opposite, ordered, bounded) in [
        (true, false, false),
        (false, false, false),
        (true, true, false),
        (true, false, true),
    ] {
        out.push((
            format!("two locks opposite={opposite} ordered={ordered} bounded={bounded}"),
            two_locks(opposite, ordered, bounded).analyze(&paper),
        ));
    }

    let wide = contended(4);
    for m in [2, 4] {
        out.push((
            format!("burst 4 certified at M={m}"),
            wide.analyze(&AnalyzeConfig::default().with_max_burst(m)),
        ));
    }
    let mut cleared = contended(4);
    cleared.plan.arbiters.clear();
    out.push((
        "burst 4 arbiters cleared at M=2".into(),
        cleared.analyze(&AnalyzeConfig::default().with_max_burst(2)),
    ));

    let mut amplified = contended(2);
    let (seg, arb) = (
        amplified.plan.graph.segments()[0].id(),
        amplified.arbiter_of(0),
    );
    amplified.set_program(
        "T1",
        Program::build(|p| {
            p.push(Op::ReqAssert { arbiter: arb });
            p.push(Op::AwaitGrant { arbiter: arb });
            p.repeat(1 << 20, |q| q.mem_write(seg, Expr::lit(0), Expr::lit(1)));
            p.push(Op::ReqDeassert { arbiter: arb });
        }),
    );
    out.push(("loop-amplified hold".into(), amplified.analyze(&paper)));

    for erased in [false, true] {
        out.push((
            format!("shorted channel erased={erased}"),
            shorted_channel(erased).analyze(&paper),
        ));
    }

    // The witness-replay corpus.
    let mut raw = contended(2);
    let seg = raw.plan.graph.segments()[0].id();
    raw.set_program(
        "T1",
        Program::build(|p| {
            for i in 0..4 {
                p.mem_write(seg, Expr::lit(i), Expr::lit(i));
            }
        }),
    );
    out.push(("replay raw access".into(), raw.analyze(&paper)));
    let mut camping = contended(2);
    let t1 = camping.plan.graph.task_by_name("T1").unwrap().id();
    let ops = strip_releases(camping.plan.graph.task(t1).program().ops());
    camping.set_program("T1", Program::from_ops(ops));
    out.push(("replay stripped release".into(), camping.analyze(&paper)));

    // Seeded random designs, analyzed under the window they were
    // transformed for, half of them with bounded-wait retries.
    let mut seed = 0x5eed_u64;
    for i in 0..16 {
        let tasks = 2 + (splitmix(&mut seed) % 4) as usize;
        let patterns: Vec<Vec<u8>> = (0..tasks)
            .map(|_| {
                let len = 1 + (splitmix(&mut seed) % 23) as usize;
                (0..len).map(|_| splitmix(&mut seed) as u8).collect()
            })
            .collect();
        let m = 1 + (splitmix(&mut seed) % 4) as u32;
        let mut insertion = InsertionConfig::paper().with_max_burst(m);
        if i % 2 == 1 {
            insertion = insertion.with_retry(RetryPolicy::new(64, 3, 16));
        }
        let case = Case::new(&random_design(&patterns), &presets::duo_small(), &insertion);
        out.push((
            format!("random #{i} tasks={tasks} M={m} retry={}", i % 2 == 1),
            case.analyze(&AnalyzeConfig::default().with_max_burst(m)),
        ));
    }
    out
}

/// The golden file's text: per case a `== name ==` header, the text
/// report, and the JSON document on one line.
fn actual() -> String {
    let mut out = String::new();
    for (name, report) in reports() {
        out.push_str(&format!("== {name} ==\n"));
        out.push_str(&report.render_text());
        out.push_str(&report.to_json().to_string());
        out.push('\n');
    }
    out
}

#[test]
fn analysis_reports_match_the_recorded_golden() {
    let _cache = cache_lock();
    let actual = actual();
    if actual == EXPECTED {
        return;
    }
    let (want, got): (Vec<_>, Vec<_>) = (EXPECTED.lines().collect(), actual.lines().collect());
    let first = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(0);
    panic!(
        "analysis reports changed at line {}:\n  want {}\n  got  {}",
        first + 1,
        want.get(first).unwrap_or(&"<nothing>"),
        got.get(first).unwrap_or(&"<nothing>")
    );
}

#[test]
fn the_golden_covers_clean_and_failing_designs() {
    let _cache = cache_lock();
    let reports = reports();
    let failing = reports.iter().filter(|(_, r)| !r.is_clean()).count();
    let clean = reports.len() - failing;
    assert!(
        failing >= 8 && clean >= 20,
        "{clean} clean, {failing} failing"
    );
}

#[test]
fn a_second_fft_analysis_is_one_memo_hit_per_arbiter() {
    let _cache = cache_lock();
    let paper = AnalyzeConfig::default();
    for elide in [false, true] {
        let flow = run_fft_flow_with(elide).expect("the FFT flow partitions");
        let arbiters: usize = flow
            .result
            .stages
            .iter()
            .map(|s| s.plan.arbiters.len())
            .sum();
        assert!(arbiters > 0);
        let first = flow.analyze(&paper);
        let (hits, misses) = lookups_during(|| assert_eq!(flow.analyze(&paper), first));
        assert_eq!((hits, misses), (arbiters as u64, 0), "elide={elide}");
    }
}

#[test]
fn the_contention_grid_misses_once_per_shape() {
    let _cache = cache_lock();
    reset_verdict_cache();
    // Nine shapes: N = 2, 4, 8 under three encodings, one arbiter each.
    let cold = lookups_during(|| drop(grid_reports()));
    assert_eq!(cold, (0, 9));
    let warm = lookups_during(|| drop(grid_reports()));
    assert_eq!(warm, (9, 0));
    assert_eq!(verdict_cache_stats().entries, 9);
}

#[test]
#[ignore = "prints the reports for recording"]
fn print_reports() {
    let _cache = cache_lock();
    print!("{}", actual());
}
