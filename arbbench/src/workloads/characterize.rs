//! `characterize`: cold pre-characterization sweeps (the paper's
//! Figs. 6-7) through `Characterization::sweep_round_robin`.
//!
//! One operation is one cold sweep at one speed grade: the synthesis
//! cache is reset and the N grid is swept for all three (tool, encoding)
//! series. Operations cycle through the four grades. Every lookup
//! misses, so `rcarb-logic` and the `rcarb-exec` pool do nearly all the
//! work.

use crate::calib::{Calibrator, CALIBRATE_EVERY_S};
use crate::gen::{shuffled, GRADES};
use crate::spans::Tracer;
use crate::{stats, timed_setup, Args, Outcome};
use rcarb_board::SpeedGrade;
use rcarb_core::characterize::{synthesizable, CharRow, Characterization};
use rcarb_core::generator::{reset_synthesis_cache, synthesis_cache_stats};
use rcarb_core::{ArbiterGenerator, ArbiterSpec};
use rcarb_exec::global_pool;
use rcarb_logic::encode::{Encoding, EncodingStyle};
use rcarb_logic::minimize::Effort;
use rcarb_logic::synth::FsmNetwork;
use rcarb_logic::tools::{SynthReport, ToolModel};
use rcarb_logic::{clb, techmap, timing};
use std::time::Instant;

/// Largest arbiter size in the grid: every size from 2 up, ascending as
/// in the paper's figures. The seed only permutes the order of the
/// grades: a permuted size order changes how the pool balances the
/// largest jobs, which made sweep time depend on the seed.
const N_MAX: usize = 11;

struct Inputs {
    ns: Vec<usize>,
    grades: Vec<SpeedGrade>,
}

fn inputs(seed: u64) -> Inputs {
    Inputs {
        ns: (2..=N_MAX).collect(),
        grades: shuffled(seed ^ 0x4752, GRADES.to_vec()),
    }
}

/// Builds inputs and runs one cold warm-up sweep of the grid at the
/// paper's grade, so the pool threads exist and the code and allocator
/// are warm before timing.
fn setup(seed: u64) -> Inputs {
    let inputs = inputs(seed);
    reset_synthesis_cache();
    Characterization::sweep_round_robin(inputs.ns.clone(), SpeedGrade::Minus3);
    inputs
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let (setup_s, inp) = timed_setup(|| setup(args.seed));

    // Reference, outside the timed window: the sequential sweep on the
    // same grid. Every timed sweep is compared with it as it completes.
    let reference: Vec<Vec<CharRow>> = inp
        .grades
        .iter()
        .map(|&g| {
            Characterization::sweep_round_robin_seq(inp.ns.clone(), g)
                .rows()
                .to_vec()
        })
        .collect();

    // The sweeps keep every pool worker busy; so does the reference.
    let mut calib = Calibrator::new(CALIBRATE_EVERY_S, global_pool().num_workers());
    let started = Instant::now();
    let mut cpu_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut rows = 0usize;
    while started.elapsed().as_secs_f64() < args.seconds {
        let k = cpu_ms.len() % inp.grades.len();
        calib.tick();
        reset_synthesis_cache();
        let (c0, t0) = (stats::cpu_s(), Instant::now());
        let table = Characterization::sweep_round_robin(inp.ns.clone(), inp.grades[k]);
        cpu_ms.push((stats::cpu_s() - c0) * 1e3);
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rows += table.rows().len();
        out.count(table.rows() == reference[k].as_slice(), false);
    }

    let figures = |ms: &[f64]| {
        let p50 = stats::median(ms).unwrap_or(f64::NAN);
        (p50, rows as f64 / (ms.iter().sum::<f64>() / 1e3))
    };
    let (p50, per_cpu_s) = figures(&cpu_ms);
    let (wall_p50, per_wall_s) = figures(&wall_ms);
    let scale = calib.factor();
    out.set("setup_s", setup_s);
    out.set("op_cpu_p50_ms", p50 * scale);
    out.set("throughput_per_cpu_s", per_cpu_s / scale);
    out.line(calib.render());
    out.line(format!(
        "characterize: grid N={:?} grades={:?}, {} cold sweeps",
        inp.ns,
        inp.grades.iter().map(|g| g.to_string()).collect::<Vec<_>>(),
        cpu_ms.len()
    ));
    out.line(format!(
        "sweep_s: {:.4} s wall, {:.4} s CPU (medians)",
        wall_p50 / 1e3,
        p50 / 1e3,
    ));
    out.line(format!(
        "rows_per_s: {per_wall_s:.2} 1/s wall, {per_cpu_s:.2} 1/s CPU"
    ));
    out
}

/// The tool-model constants `ToolModel` keeps private, restated so the
/// traced run can call each stage itself; the equality check against
/// `ToolModel::synthesize_fsm` catches any drift.
fn stage_knobs(tool: &ToolModel) -> (Effort, bool, f64) {
    match tool.name() {
        "synplify" => (Effort::High, true, 0.95),
        _ => (Effort::Medium, true, 0.62),
    }
}

const COMBOS: [(fn() -> ToolModel, EncodingStyle); 3] = [
    (ToolModel::fpga_express, EncodingStyle::OneHot),
    (ToolModel::fpga_express, EncodingStyle::Compact),
    (ToolModel::synplify, EncodingStyle::OneHot),
];

/// One characterization row: (n, tool, requested encoding, grade).
type RowKey = (usize, usize, SpeedGrade);

fn grid(inp: &Inputs) -> Vec<RowKey> {
    let mut keys = Vec::new();
    for &grade in &inp.grades {
        for &n in &inp.ns {
            for (c, (tool, enc)) in COMBOS.iter().enumerate() {
                if synthesizable(n, &tool(), *enc) {
                    keys.push((n, c, grade));
                }
            }
        }
    }
    keys
}

fn fsm_of(n: usize, enc: EncodingStyle, grade: SpeedGrade) -> rcarb_logic::Fsm {
    ArbiterGenerator::new()
        .with_grade(grade)
        .generate(&ArbiterSpec::round_robin(n).with_encoding(enc))
        .fsm()
        .clone()
}

fn traced_row(t: &mut Tracer, (n, c, grade): RowKey) -> SynthReport {
    let (tool_fn, requested) = COMBOS[c];
    let tool = tool_fn();
    let (effort, sharing, packing) = stage_knobs(&tool);
    t.op("characterize", |t| {
        let fsm = t.span("core.generate", |_| fsm_of(n, requested, grade));
        let style = if tool.forces_one_hot() {
            EncodingStyle::OneHot
        } else {
            requested
        };
        let encoding = t.span("logic.encode", |_| Encoding::assign(&fsm, style));
        let network = t.span("logic.minimize", |_| {
            FsmNetwork::synthesize(&fsm, encoding, effort)
        });
        let netlist = t.span("logic.techmap", |_| {
            techmap::map_fsm_network(&network, sharing)
        });
        let clb = t.span("logic.pack", |_| clb::pack(&netlist, packing));
        let timing = t.span("logic.timing", |_| timing::analyze(&netlist, grade));
        SynthReport {
            tool: tool.name(),
            encoding_used: style,
            clb,
            timing,
            netlist,
        }
    })
}

fn untraced_row((n, c, grade): RowKey) -> SynthReport {
    let (tool_fn, requested) = COMBOS[c];
    let fsm = fsm_of(n, requested, grade);
    tool_fn().synthesize_fsm(&fsm, requested, grade)
}

/// The traced run: rows rebuilt stage by stage under spans, checked
/// against `ToolModel::synthesize_fsm`, plus one parallel and one
/// sequential cold sweep for the pool and cache counters.
fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inp = setup(args.seed);
    let keys = grid(&inp);

    // Pool and cache counters around one cold parallel sweep; the
    // sequential sweep gives the summed row time for the busy ratio.
    let pool0 = global_pool().stats();
    let cache0 = synthesis_cache_stats();
    let t0 = Instant::now();
    let mut parallel = Vec::new();
    for &g in &inp.grades {
        reset_synthesis_cache();
        parallel.push(Characterization::sweep_round_robin(inp.ns.clone(), g));
    }
    let par_s = t0.elapsed().as_secs_f64();
    let pool1 = global_pool().stats();
    let cache1 = synthesis_cache_stats();
    let t0 = Instant::now();
    for (&g, par) in inp.grades.iter().zip(&parallel) {
        reset_synthesis_cache();
        let seq = Characterization::sweep_round_robin_seq(inp.ns.clone(), g);
        out.count(seq.rows() == par.rows(), false);
    }
    let seq_s = t0.elapsed().as_secs_f64();

    // Traced pass over the grid, cyclically, for half the window.
    let budget = args.seconds / 2.0;
    let mut tracer = Tracer::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < budget && traced.len() < super::MAX_TRACED_OPS {
        let key = keys[traced.len() % keys.len()];
        traced.push((key, traced_row(&mut tracer, key)));
    }
    let traced_ns = t0.elapsed().as_nanos() as u64;

    // The same rows untraced, for the overhead ratio and the check.
    let t0 = Instant::now();
    let reference: Vec<SynthReport> = traced.iter().map(|&(k, _)| untraced_row(k)).collect();
    let untraced_ns = t0.elapsed().as_nanos() as u64;
    for ((_, got), want) in traced.iter().zip(&reference) {
        out.count(got == want, false);
    }
    if traced.iter().zip(&reference).any(|((_, g), w)| g != w) {
        out.errors
            .push("stage-by-stage synthesis differs from ToolModel::synthesize_fsm".to_owned());
    }

    let ops = tracer.ops() as f64;
    super::layer_metrics(&mut out, &tracer, traced_ns, untraced_ns);
    let luts: u64 = traced.iter().map(|(_, r)| u64::from(r.clb.luts)).sum();
    out.set("logic.luts", luts as f64 / ops);
    let hits = cache1.hits - cache0.hits;
    let misses = cache1.misses - cache0.misses;
    out.set("exec.cache_hits", hits as f64);
    out.set("exec.cache_misses", misses as f64);
    out.set("exec.cache_hit_rate", super::ratio(hits, hits + misses));
    out.set("exec.pool_jobs", (pool1.executed - pool0.executed) as f64);
    out.set("exec.pool_stolen", (pool1.stolen - pool0.stolen) as f64);
    out.set(
        "exec.pool_busy_ratio",
        seq_s / (par_s * pool1.workers.max(1) as f64),
    );
    out.line(format!(
        "characterize traced: {} rows, parallel sweep {:.1} ms vs sequential {:.1} ms on {} workers",
        traced.len(),
        par_s * 1e3,
        seq_s * 1e3,
        pool1.workers
    ));
    super::finish_trace(&mut out, &tracer, traced_ns, args);
    out
}
