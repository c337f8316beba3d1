//! Golden insertion pass: the arbiter inventory and every rewritten
//! program of the FFT, planned on every board preset with and without
//! Sec. 5 elision, must match `data/insertion_golden.txt` byte for byte.
//!
//! Two plannings per (board, elision) pair:
//!
//! - `served`: the whole FFT graph bound onto the board with no
//!   affinities and no channel merges, as a served Plan or Analyze
//!   request plans it;
//! - `flow`: the paper's flow (temporal partitions, Fig. 11 memory
//!   affinities, channel merges), one block per temporal partition, or
//!   the flow's error where the board cannot host it.
//!
//! The FFT shares no physical channel between writers, so the file ends
//! with the Table 1 topology (two writers merged onto duo_small's one
//! route), concurrent or dependency-ordered, with and without elision.
//!
//! Per arbiter the file records its id, resource, size, ports, bypass
//! set, CLBs and clock; per task the rewritten program as JSON, or, for
//! a program already printed, the case and task that first showed it.
//!
//! To print the expected text (for example to re-record it after a
//! deliberate change to the pass): `cargo test --test insertion_golden
//! -- --ignored --nocapture`.

use rcarb::arb::channel::{plan_merges, ChannelMergePlan};
use rcarb::arb::insertion::{try_insert_arbiters, ArbitrationPlan, InsertionConfig};
use rcarb::arb::memmap::bind_segments;
use rcarb::board::board::PeId;
use rcarb::board::presets;
use rcarb::fft::flow::{run_fft_flow_on, FFT_UTILIZATION};
use rcarb::fft::taskgraph::build_fft_taskgraph;
use rcarb::taskgraph::builder::TaskGraphBuilder;
use rcarb::taskgraph::graph::TaskGraph;
use rcarb::taskgraph::id::TaskId;
use rcarb::taskgraph::program::{Expr, Program};
use std::collections::HashMap;
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("data/insertion_golden.txt");

/// Program JSON already printed, mapped to where it was first printed.
type Seen = HashMap<String, String>;

/// Appends the arbiter inventory, rewrite statistics and every task's
/// program of `plan`, printed under `case`.
fn render_plan(out: &mut String, seen: &mut Seen, case: &str, plan: &ArbitrationPlan) {
    for arb in &plan.arbiters {
        let _ = writeln!(
            out,
            "arbiter {:?} {} ({}): inputs={} ports={:?} bypass={:?} clbs={} fmax_mhz={:.6}",
            arb.id,
            arb.name(),
            arb.resource,
            arb.inputs,
            arb.ports,
            arb.bypass,
            arb.clbs,
            arb.fmax_mhz
        );
    }
    let _ = writeln!(
        out,
        "stats: batches={} guarded_accesses={} retry_guard_evals={}",
        plan.stats.batches, plan.stats.guarded_accesses, plan.stats.retry_guard_evals
    );
    for task in plan.graph.tasks() {
        let json = rcarb::json::to_string(task.program());
        match seen.get(&json) {
            Some(first) => {
                let _ = writeln!(out, "task {}: as {first}", task.name());
            }
            None => {
                let _ = writeln!(out, "task {}: {json}", task.name());
                seen.insert(json, format!("{case} task {}", task.name()));
            }
        }
    }
}

/// Writers W1 and W2 send to readers R1 and R2 over channels that
/// merge onto one physical route; `ordered` makes W2 wait for W1.
fn shared_channel(ordered: bool) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("table1");
    let w1 = b.task("W1", Program::empty());
    let w2 = b.task("W2", Program::empty());
    let r1 = b.task("R1", Program::empty());
    let r2 = b.task("R2", Program::empty());
    let c1 = b.channel("c1", 16, w1, r1);
    let c2 = b.channel("c2", 16, w2, r2);
    if ordered {
        b.control_dep(w1, w2);
    }
    let mut graph = b.finish().expect("valid design");
    let send = |c, v| Program::build(|p| p.send(c, Expr::lit(v)));
    let recv = |c| {
        Program::build(|p| {
            let _ = p.recv(c);
        })
    };
    graph.task_mut(w1).set_program(send(c1, 10));
    graph.task_mut(w2).set_program(send(c2, 102));
    graph.task_mut(r1).set_program(recv(c1));
    graph.task_mut(r2).set_program(recv(c2));
    graph
}

/// The golden file's text.
fn actual() -> String {
    let (graph, _) = build_fft_taskgraph();
    let boards = [
        ("wildforce", presets::wildforce()),
        ("duo_small", presets::duo_small()),
        ("quad_large", presets::quad_large()),
    ];
    let mut out = String::new();
    let mut seen = Seen::new();
    for (label, board) in boards {
        for elide in [false, true] {
            let config = InsertionConfig::paper().with_elision(elide);
            let case = format!("{label} elide={elide} served");
            let _ = writeln!(out, "== {case} ==");
            let planned = bind_segments(graph.segments(), &board, &|_| None)
                .map_err(|e| e.to_string())
                .and_then(|binding| {
                    try_insert_arbiters(&graph, &binding, &ChannelMergePlan::default(), &config)
                        .map_err(|e| e.to_string())
                });
            match planned {
                Ok(plan) => render_plan(&mut out, &mut seen, &case, &plan),
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }

            let _ = writeln!(out, "== {label} elide={elide} flow ==");
            match run_fft_flow_on(board.clone(), FFT_UTILIZATION, elide) {
                Ok(flow) => {
                    for stage in &flow.result.stages {
                        let _ = writeln!(out, "-- partition #{} --", stage.index);
                        let case = format!("{label} elide={elide} flow #{}", stage.index);
                        render_plan(&mut out, &mut seen, &case, &stage.plan);
                    }
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e:?}");
                }
            }
        }
    }
    let board = presets::duo_small();
    for ordered in [false, true] {
        let graph = shared_channel(ordered);
        let place = |t: TaskId| PeId::new(u32::from(t.index() >= 2));
        let merges = plan_merges(&graph, &board, &place).expect("single route");
        let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
        for elide in [false, true] {
            let case = format!("table1 ordered={ordered} elide={elide}");
            let _ = writeln!(out, "== {case} ==");
            let config = InsertionConfig::paper().with_elision(elide);
            let plan = try_insert_arbiters(&graph, &binding, &merges, &config).expect("fits");
            render_plan(&mut out, &mut seen, &case, &plan);
        }
    }
    out
}

#[test]
fn insertion_plans_match_the_recorded_golden() {
    let actual = actual();
    if actual == EXPECTED {
        return;
    }
    let (want, got): (Vec<_>, Vec<_>) = (EXPECTED.lines().collect(), actual.lines().collect());
    let first = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(0);
    panic!(
        "insertion plans changed at line {}:\n  want {}\n  got  {}",
        first + 1,
        want.get(first).unwrap_or(&"<nothing>"),
        got.get(first).unwrap_or(&"<nothing>")
    );
}

#[test]
fn the_golden_covers_elided_and_channel_arbiters() {
    let actual = actual();
    // Elision changes the FFT's partition #0 arbiter (6 inputs to 4).
    assert!(actual.contains("Arb6 (bank"), "no baseline Arb6");
    assert!(actual.contains("Arb4 (bank"), "no elided Arb4");
    assert!(actual.contains("(merged channel #"), "no channel arbiter");
}

#[test]
#[ignore = "prints the expected text for recording"]
fn print_plans() {
    print!("{}", actual());
}
