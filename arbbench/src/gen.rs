//! Seeded input generators. The stack only ever sees what these build.
//!
//! Mixes are stratified: every seed yields the same number of designs in
//! each (policy, size class, fault) cell and the seed only draws the
//! details inside a cell, so the cost of a mix is comparable across
//! seeds while the inputs themselves differ.
//!
//! No recorded workload exists to take proportions from. Where the
//! weights are not fixed by what a mix must span, they are equal shares;
//! the remaining choices (the fault share, the loop and compute ranges)
//! are marked as chosen, not measured, where they are defined.

use rcarb::backend::{
    AnalyzeRequest, PlanRequest, SimulateOptions, SimulateRequest, SweepRequest, SynthesizeRequest,
};
use rcarb_board::memory::BankId;
use rcarb_board::presets;
use rcarb_core::rng::SplitMix64;
use rcarb_core::PolicyKind;
use rcarb_serve::RequestBody;
use rcarb_sim::{FaultPlan, FaultWindow};
use rcarb_taskgraph::builder::TaskGraphBuilder;
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::program::{Expr, Program};
use rcarb_taskgraph::{ArbiterId, TaskId};

/// The four speed grades, in catalogue order.
pub const GRADES: [rcarb_board::device::SpeedGrade; 4] = [
    rcarb_board::device::SpeedGrade::Minus1,
    rcarb_board::device::SpeedGrade::Minus2,
    rcarb_board::device::SpeedGrade::Minus3,
    rcarb_board::device::SpeedGrade::Minus4,
];

/// Draws uniformly from `lo..=hi`.
fn pick(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo + 1)
}

/// A seeded permutation of `items`.
pub fn shuffled<T>(seed: u64, mut items: Vec<T>) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}

/// How much a design computes between bank accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizeClass {
    /// Few iterations, little compute: plan and build dominate.
    Short,
    /// Moderate loops, balanced compute and access.
    Medium,
    /// Long loops with long compute stretches the kernel can skip.
    Long,
}

/// One generated simulate design.
#[derive(Debug, Clone)]
pub struct SimDesign {
    /// Short description for diagnostics.
    pub label: String,
    /// The request as sent to `Backend::simulate`.
    pub request: SimulateRequest,
    /// True when the fault plan perturbs grant lines (glitch or stuck
    /// grant): the class of the recorded known kernel defect.
    pub grant_fault: bool,
}

/// A taskgraph with `tasks` tasks, of which the first `clients` loop
/// `iters` times over `compute` cycles of work followed by a
/// read-modify-write of their own segment; the rest only compute.
/// On `duo_small` every segment lands in the one shared bank, so the
/// clients contend for it through one arbiter with `clients` ports.
pub fn contention_graph(
    name: &str,
    tasks: usize,
    clients: usize,
    iters: u32,
    compute: u32,
) -> TaskGraph {
    let mut b = TaskGraphBuilder::new(name);
    for t in 0..tasks {
        let program = if t < clients {
            let seg = b.segment(format!("S{t}"), iters.max(1), 16);
            Program::build(|p| {
                let i = p.let_(Expr::lit(0));
                p.repeat(iters, |p| {
                    if compute > 0 {
                        p.compute(compute);
                    }
                    let v = p.mem_read(seg, Expr::var(i));
                    p.mem_write(
                        seg,
                        Expr::var(i),
                        Expr::add(Expr::var(v), Expr::lit(t as u64 + 1)),
                    );
                    p.set(i, Expr::add(Expr::var(i), Expr::lit(1)));
                });
            })
        } else {
            Program::build(|p| p.repeat(iters, |p| p.compute(compute.max(1))))
        };
        b.task(format!("T{t}"), program);
    }
    b.finish().expect("generated graph is valid")
}

/// Tasks and bank clients per slot of a (policy, size class) cell: every
/// cell spans contention from 2 to 8 clients the same way, so a seed
/// changes the details of each design but not the mix's shape.
const SLOTS: [(usize, usize); 8] = [
    (2, 2),
    (3, 2),
    (4, 2),
    (5, 5),
    (6, 5),
    (7, 5),
    (8, 8),
    (5, 4),
];
/// Slots that carry a fault plan with watchdogs armed: the last two of
/// eight, a quarter of the mix. A chosen share, not a measured one: large
/// enough that every cell holds faulted designs, small enough that
/// fault-free runs stay the bulk of the kernel's work.
const FAULTED_SLOTS: usize = 6;

/// The `simulate` mix: all six policies x three size classes x eight
/// slots; the faulted slots rotate through the five fault kinds.
pub fn simulate_mix(seed: u64) -> Vec<SimDesign> {
    let mut rng = SplitMix64::new(seed ^ 0x5349_4d55);
    let mut out = Vec::new();
    let mut faults = 0u64;
    for policy in PolicyKind::ALL {
        for class in [SizeClass::Short, SizeClass::Medium, SizeClass::Long] {
            for (slot, &(tasks, clients)) in SLOTS.iter().enumerate() {
                let fault = (slot >= FAULTED_SLOTS).then(|| {
                    faults += 1;
                    faults % 5
                });
                out.push(sim_design(&mut rng, policy, class, tasks, clients, fault));
            }
        }
    }
    shuffled(seed, out)
}

/// One design of a cell. The loop and compute ranges of each size class
/// are chosen, not measured: short designs do so little that planning
/// and building dominate a call, long ones compute long enough between
/// accesses that `System::run` dominates and the kernel can skip cycles.
fn sim_design(
    rng: &mut SplitMix64,
    policy: PolicyKind,
    class: SizeClass,
    tasks: usize,
    clients: usize,
    fault: Option<u64>,
) -> SimDesign {
    let (iters, compute) = match class {
        SizeClass::Short => (pick(rng, 3, 5), pick(rng, 0, 2)),
        SizeClass::Medium => (pick(rng, 14, 18), pick(rng, 6, 10)),
        SizeClass::Long => (pick(rng, 52, 60), pick(rng, 160, 200)),
    };
    let graph = contention_graph("sim", tasks, clients, iters as u32, compute as u32);
    let mut options = SimulateOptions {
        policy: policy.to_string(),
        ..SimulateOptions::default()
    };
    let mut grant_fault = false;
    let mut fault_name = "none";
    if let Some(kind) = fault {
        let arb = ArbiterId::new(0);
        let port = pick(rng, 0, clients as u64 - 1) as usize;
        let at = pick(rng, 4, 40 * iters);
        let len = pick(rng, 2, 64);
        let plan = FaultPlan::seeded(rng.next_u64());
        let plan = match kind {
            0 => {
                grant_fault = true;
                fault_name = "glitch";
                plan.with_grant_glitch(arb, port, at)
            }
            1 => {
                grant_fault = true;
                fault_name = "stuck-grant";
                plan.with_stuck_grant(
                    arb,
                    port,
                    rng.next_below(2) == 1,
                    FaultWindow::new(at, at + len),
                )
            }
            2 => {
                fault_name = "stuck-request";
                let task = TaskId::new(port as u32);
                plan.with_stuck_request(task, arb, true, FaultWindow::new(at, at + len))
            }
            3 => {
                fault_name = "bank-read-error";
                plan.with_bank_read_error(BankId::new(0), 50, FaultWindow::new(at, at + len))
            }
            _ => {
                fault_name = "task-hang";
                let task = TaskId::new(pick(rng, 0, tasks as u64 - 1) as u32);
                plan.with_task_hang(task, FaultWindow::new(at, at + len))
            }
        };
        options.faults = Some(plan);
        options.grant_timeout = Some(4_096);
        options.progress_bound = Some(20_000);
    }
    SimDesign {
        label: format!(
            "{policy} {class:?} tasks={tasks} clients={clients} iters={iters} compute={compute} fault={fault_name}"
        ),
        request: SimulateRequest {
            graph,
            board: presets::duo_small(),
            max_cycles: 200_000,
            options,
        },
        grant_fault,
    }
}

/// Policies `Backend::synthesize` answers from the synthesis cache.
/// Only the FSM-based round-robin family qualifies: the preemptive
/// machine re-synthesizes inside generation on every call, and the
/// structural policies (fifo, random, static-priority) panic in
/// `synthesize` because they have no symbolic FSM — a defect recorded in
/// `METRICS.md`, kept out of the mix because it kills a daemon worker.
const CACHED_POLICIES: [PolicyKind; 2] = [PolicyKind::RoundRobin, PolicyKind::PrefixRoundRobin];

/// The request kinds of the `serve` mix, in rotation. The issue names
/// them without proportions and there is no recorded partitioner traffic
/// to take proportions from, so each kind gets an equal share.
const SERVE_KINDS: usize = 5;

/// A pool of request bodies for the `serve` workload: Synthesize, Sweep,
/// Plan, Analyze and Simulate in rotation, an equal share each; no
/// `Ping`. Half of the plan and analyze bodies carry the FFT on
/// Wildforce, the other half generated designs of 2 to 14 tasks (1 to
/// 15 KB). Sizes and task counts follow the body's position, so every
/// seed has the same shape; the seed draws loop lengths, policies,
/// encodings, tools and grades. Synthesize bodies ask for the area and
/// clock figures the partitioner needs, not the VHDL text.
pub fn serve_bodies(seed: u64, count: usize) -> Vec<RequestBody> {
    let mut rng = SplitMix64::new(seed ^ 0x5345_5256);
    let (fft, _) = rcarb_fft::build_fft_taskgraph();
    let wildforce = presets::wildforce();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        // Position among the bodies of the same kind.
        let j = i / SERVE_KINDS;
        let body = match i % SERVE_KINDS {
            0 => {
                let policy = CACHED_POLICIES[rng.next_below(2) as usize];
                RequestBody::Synthesize(SynthesizeRequest {
                    n: 2 + (j % 7) as u64,
                    policy: policy.to_string(),
                    encoding: ["one-hot", "compact"][rng.next_below(2) as usize].to_owned(),
                    tool: ["synplify", "fpga_express"][rng.next_below(2) as usize].to_owned(),
                    grade: GRADES[rng.next_below(4) as usize].to_string(),
                    include_vhdl: false,
                })
            }
            1 => RequestBody::Sweep(SweepRequest {
                ns: vec![2, 3 + (j % 3) as u64],
                grade: GRADES[rng.next_below(4) as usize].to_string(),
            }),
            k @ (2 | 3) => {
                let (graph, board) = if j % 2 == 0 {
                    (fft.clone(), wildforce.clone())
                } else {
                    let tasks = 2 + (3 * j + k) % 13;
                    (served_graph(&mut rng, tasks), presets::duo_small())
                };
                if k == 2 {
                    RequestBody::Plan(PlanRequest { graph, board })
                } else {
                    RequestBody::Analyze(AnalyzeRequest {
                        graph,
                        board,
                        verified: false,
                    })
                }
            }
            _ => {
                let tasks = 2 + j % 4;
                let graph = contention_graph(
                    "serve-sim",
                    tasks,
                    tasks,
                    pick(&mut rng, 8, 12) as u32,
                    pick(&mut rng, 8, 24) as u32,
                );
                RequestBody::Simulate(SimulateRequest {
                    graph,
                    board: presets::duo_small(),
                    max_cycles: 100_000,
                    options: SimulateOptions {
                        policy: PolicyKind::ALL[j % 6].to_string(),
                        ..SimulateOptions::default()
                    },
                })
            }
        };
        out.push(body);
    }
    out
}

/// A generated design of `tasks` tasks for plan and analyze bodies.
fn served_graph(rng: &mut SplitMix64, tasks: usize) -> TaskGraph {
    let clients = tasks.min(2 + rng.next_below(5) as usize);
    contention_graph(
        "serve-plan",
        tasks,
        clients,
        pick(rng, 8, 24) as u32,
        pick(rng, 0, 16) as u32,
    )
}
