//! `simulate`: one in-process caller sending `Backend::simulate` calls
//! over a seeded mix of generated designs (closed loop).
//!
//! The `rcarb-sim` kernel dominates; there is no wire and, because setup
//! plans every design once, no cold synthesis. After the timed window
//! every report is compared with the legacy reference kernel, and each
//! design's VCD and memory image with a legacy run of the same design.

use crate::calib::{Calibrator, CALIBRATE_EVERY_S};
use crate::gen::{simulate_mix, SimDesign};
use crate::spans::Tracer;
use crate::{stats, timed_setup, Args, Outcome};
use rcarb::backend::{Backend, InProcessBackend, SimulateResponse};
use rcarb::Design;
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::generator::{reset_synthesis_cache, synthesis_cache_stats};
use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
use rcarb_core::memmap::bind_segments;
use rcarb_sim::{FaultReport, KernelKind, KernelStats, RunReport, SystemBuilder};
use std::time::Instant;

/// Generates the mix and plans every design once, so the arbiter sizes
/// it draws are in the synthesis cache before timing starts.
fn setup(seed: u64) -> Vec<SimDesign> {
    reset_synthesis_cache();
    let mix = simulate_mix(seed);
    for d in &mix {
        Design::new(d.request.graph.clone(), d.request.board.clone())
            .plan()
            .expect("generated designs plan");
    }
    mix
}

/// What a run produced, for the reference comparison.
struct Observed {
    report: RunReport,
    faults: Option<FaultReport>,
    vcd: Option<String>,
    memory: Vec<Vec<u64>>,
}

/// Runs `design` through the public builder on `kernel` with VCD
/// tracing on, reading back every segment.
fn observe(design: &SimDesign, kernel: KernelKind) -> Result<Observed, String> {
    let req = &design.request;
    let planned = Design::new(req.graph.clone(), req.board.clone())
        .plan()
        .map_err(|e| e.to_string())?;
    let spec = req.options.to_spec().map_err(|e| e.to_string())?;
    let mut builder = SystemBuilder::from_plan(planned.plan(), planned.binding(), planned.merges())
        .with_config(spec.config.with_kernel(kernel).with_trace(true));
    if let Some(plan) = &spec.faults {
        builder = builder.with_faults(plan.clone());
    }
    let mut system = builder.try_build(&req.board).map_err(|e| e.to_string())?;
    let report = system.run(req.max_cycles);
    let memory = req
        .graph
        .segments()
        .iter()
        .map(|s| system.try_read_segment(s.id(), s.words() as usize))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Observed {
        report,
        faults: spec.faults.is_some().then(|| system.fault_report()),
        vcd: system.vcd(),
        memory,
    })
}

/// A design's first response against the reference kernel.
enum Verdict {
    Matches,
    /// An optimized kernel diverged from legacy.
    Diverged(&'static str),
    /// The call or a reference run errored.
    Failed(String),
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let (setup_s, mix) = timed_setup(|| setup(args.seed));
    let backend = InProcessBackend::new();

    // The window cycles over the mix, at least once round. Each design's
    // first response is kept for the reference check; every later
    // response must equal it.
    let mut calib = Calibrator::new(CALIBRATE_EVERY_S, 1);
    let started = Instant::now();
    let mut first: Vec<Option<Result<SimulateResponse, String>>> = vec![None; mix.len()];
    let mut repeats_differ = vec![0u64; mix.len()];
    let mut cpu_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut cycles = 0u64;
    let mut peak_rss_mb = None;
    while cpu_ms.len() < mix.len() || started.elapsed().as_secs_f64() < args.seconds {
        let i = cpu_ms.len() % mix.len();
        calib.tick();
        let (c0, t0) = (stats::cpu_s(), Instant::now());
        let resp = backend.simulate(&mix[i].request);
        cpu_ms.push((stats::cpu_s() - c0) * 1e3);
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Ok(r) = &resp {
            cycles += r.report.cycles;
        }
        let resp = resp.map_err(|e| e.to_string());
        match &first[i] {
            None => first[i] = Some(resp),
            Some(f) => repeats_differ[i] += u64::from(f != &resp),
        }
        // Once every design has run, the program's working set is in
        // place; later calls repeat the same designs, and only the
        // benchmark's own sample vectors keep growing.
        if cpu_ms.len() == mix.len() {
            peak_rss_mb = stats::peak_rss_mb();
        }
    }

    // Reference: the legacy kernel, per distinct design. The ledger
    // counts designs, not calls, so it does not scale with how many
    // calls the host fitted into the window: a design fails when its
    // first response differs from legacy or any repeat differs from its
    // first response. Only a divergence from legacy on a design with a
    // grant fault is the known kernel defect; a failed call, a failed
    // reference run or repeats that differ are not.
    let mut first_failure = None;
    for (d, design) in mix.iter().enumerate() {
        let resp = first[d].as_ref().expect("the window runs every design");
        let legacy = observe(design, KernelKind::Legacy);
        let batched = observe(design, KernelKind::BatchedSoa);
        let verdict = match (resp, &legacy, &batched) {
            (Err(e), _, _) => Verdict::Failed(format!("simulate failed: {e}")),
            (_, Err(e), _) | (_, _, Err(e)) => {
                Verdict::Failed(format!("reference run failed: {e}"))
            }
            (Ok(r), Ok(l), Ok(b)) => {
                if r.report != l.report || r.faults != l.faults {
                    Verdict::Diverged("report or fault report differs from legacy")
                } else if l.vcd != b.vcd || l.memory != b.memory {
                    Verdict::Diverged("VCD or memory image differs from legacy")
                } else {
                    Verdict::Matches
                }
            }
        };
        let stable = repeats_differ[d] == 0;
        let (ok, known) = match &verdict {
            Verdict::Matches => (stable, false),
            Verdict::Diverged(_) => (false, stable && design.grant_fault),
            Verdict::Failed(_) => (false, false),
        };
        out.count(ok, known);
        let problem = match &verdict {
            Verdict::Matches => {
                (!stable).then(|| format!("{} repeated calls differ", repeats_differ[d]))
            }
            Verdict::Diverged(e) => Some((*e).to_owned()),
            Verdict::Failed(e) => Some(e.clone()),
        };
        if let (Some(p), None) = (problem, &first_failure) {
            first_failure = Some(format!("{}: {p}", design.label));
        }
    }
    if let Some(f) = first_failure {
        out.line(format!("first failure: {f}"));
    }

    let figures = |ms: &[f64]| {
        let p50 = stats::median(ms).unwrap_or(f64::NAN);
        (p50, cycles as f64 / (ms.iter().sum::<f64>() / 1e3))
    };
    let (p50, per_cpu_s) = figures(&cpu_ms);
    let (_, per_wall_s) = figures(&wall_ms);
    let scale = calib.factor();
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN));
    out.set("op_cpu_p50_ms", p50 * scale);
    out.set("throughput_per_cpu_s", per_cpu_s / scale);
    out.line(calib.render());
    out.line(format!(
        "simulate: {} designs, {} calls, {cycles} simulated cycles",
        mix.len(),
        cpu_ms.len(),
    ));
    out.line(format!(
        "sim_mcycles_per_s: {:.4} 1/s wall, {:.4} 1/s CPU",
        per_wall_s / 1e6,
        per_cpu_s / 1e6
    ));
    for (clock, samples) in [("wall", &wall_ms), ("CPU", &cpu_ms)] {
        out.line(format!(
            "simulate_p50_ms ({clock}): {:.4} ms (n={})",
            stats::median(samples).unwrap_or(f64::NAN),
            samples.len()
        ));
        out.line(format!(
            "simulate_p99_ms ({clock}): {}",
            stats::tail(samples, 99.0).render("ms")
        ));
    }
    out
}

/// One design planned and simulated stage by stage under spans.
fn traced_call(
    t: &mut Tracer,
    design: &SimDesign,
) -> Result<(RunReport, Option<FaultReport>, KernelStats, usize), String> {
    let req = &design.request;
    t.op("simulate", |t| {
        let binding = t
            .span("core.bind", |_| {
                bind_segments(req.graph.segments(), &req.board, &|_| None)
            })
            .map_err(|e| e.to_string())?;
        let (merges, plan) = t.span("core.insert", |_| {
            let merges = ChannelMergePlan::default();
            let plan = insert_arbiters(&req.graph, &binding, &merges, &InsertionConfig::paper());
            (merges, plan)
        });
        let (faulted, mut system) = t.span("sim.build", |_| {
            let spec = req.options.to_spec().map_err(|e| e.to_string())?;
            let mut b = SystemBuilder::from_plan(&plan, &binding, &merges).with_config(spec.config);
            let faulted = spec.faults.is_some();
            if let Some(f) = spec.faults {
                b = b.with_faults(f);
            }
            let system = b.try_build(&req.board).map_err(|e| e.to_string())?;
            Ok::<_, String>((faulted, system))
        })?;
        // The run and its read-outs, so no time inside the operation
        // falls outside a layer span.
        let (report, faults, kernel) = t.span("sim.run", |_| {
            let report = system.run(req.max_cycles);
            let faults = faulted.then(|| system.fault_report());
            (report, faults, system.kernel_stats())
        });
        Ok((report, faults, kernel, plan.arbiters.len()))
    })
}

fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mix = setup(args.seed);
    let backend = InProcessBackend::new();
    let cache0 = synthesis_cache_stats();

    let budget = args.seconds / 2.0;
    let mut tracer = Tracer::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < budget && traced.len() < super::MAX_TRACED_OPS {
        let d = traced.len() % mix.len();
        traced.push((d, traced_call(&mut tracer, &mix[d])));
    }
    let traced_ns = t0.elapsed().as_nanos() as u64;

    // The same calls untraced through the backend: the overhead
    // baseline and the reference the stage-by-stage results must equal.
    let t0 = Instant::now();
    let untraced: Vec<_> = traced
        .iter()
        .map(|&(d, _)| backend.simulate(&mix[d].request))
        .collect();
    let untraced_ns = t0.elapsed().as_nanos() as u64;
    let cache1 = synthesis_cache_stats();

    let (mut executed, mut skipped, mut arbiters) = (0u64, 0u64, 0u64);
    for ((_, got), want) in traced.iter().zip(&untraced) {
        let ok = match (got, want) {
            (Ok((report, faults, kernel, arbs)), Ok(w)) => {
                executed += kernel.executed_cycles;
                skipped += kernel.skipped_cycles;
                arbiters += *arbs as u64;
                report == &w.report && faults == &w.faults && kernel == &w.kernel
            }
            _ => false,
        };
        out.count(ok, false);
    }
    if out.failed > 0 {
        out.errors
            .push("stage-by-stage simulation differs from Backend::simulate".to_owned());
    }

    let ops = tracer.ops().max(1) as f64;
    super::layer_metrics(&mut out, &tracer, traced_ns, untraced_ns);
    let run_ns: u64 = crate::spans::self_by_name(tracer.spans())
        .get("sim.run")
        .copied()
        .unwrap_or(0);
    out.set("core.arbiters", arbiters as f64 / ops);
    out.set("sim.cycles_executed", executed as f64);
    out.set("sim.cycles_skipped", skipped as f64);
    out.set("sim.skip_ratio", super::ratio(skipped, executed + skipped));
    out.set("sim.ns_per_executed_cycle", super::ratio(run_ns, executed));
    let hits = cache1.hits - cache0.hits;
    let misses = cache1.misses - cache0.misses;
    out.set("exec.cache_hits", hits as f64);
    out.set("exec.cache_misses", misses as f64);
    out.set("exec.cache_hit_rate", super::ratio(hits, hits + misses));
    out.line(format!(
        "simulate traced: {} calls over {} designs",
        traced.len(),
        mix.len()
    ));
    super::finish_trace(&mut out, &tracer, traced_ns, args);
    out
}
