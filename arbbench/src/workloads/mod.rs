//! The four workloads and the trace bookkeeping they share.

pub mod characterize;
pub mod fuzz;
pub mod serve;
pub mod simulate;

use crate::spans::{self, Tracer, CLOSURE_TOLERANCE};
use crate::{ms, Args, Outcome};

/// Workload names, in catalogue order.
pub const WORKLOADS: [&str; 4] = ["characterize", "simulate", "serve", "fuzz"];

/// Runs the named workload.
///
/// # Errors
///
/// Names an unknown workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    Ok(match args.workload.as_str() {
        "characterize" => characterize::run(args),
        "simulate" => simulate::run(args),
        "serve" => serve::run(args),
        "fuzz" => fuzz::run(args),
        other => return Err(format!("unknown workload `{other}`; one of {WORKLOADS:?}")),
    })
}

/// Cap on operations in one trace (`validate_trace` is quadratic in
/// the span count).
pub const MAX_TRACED_OPS: usize = 4000;

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The catalogue metric a span name reports into: `logic.encode` ->
/// `logic.encode_ms`, `serve.backend.plan` -> `serve.backend_ms.plan`,
/// `analyze` -> `analyze.ms`.
pub fn metric_for_span(name: &str) -> String {
    match name.split_once('.') {
        Some((layer, rest)) => match rest.split_once('.') {
            Some((what, variant)) => format!("{layer}.{what}_ms.{variant}"),
            None => format!("{layer}.{rest}_ms"),
        },
        None => format!("{name}.ms"),
    }
}

/// Per-layer self times as mean milliseconds per operation, plus the
/// trace's own counters. `untraced_ns` is the wall time of the same
/// operations replayed without spans.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer, traced_ns: u64, untraced_ns: u64) {
    let ops = tracer.ops().max(1) as f64;
    for (name, self_ns) in spans::self_by_name(tracer.spans()) {
        if !name.starts_with("op/") {
            out.set(&metric_for_span(&name), ms(self_ns) / ops);
        }
    }
    out.set("trace.ops", tracer.ops() as f64);
    out.set("trace.wall_ms", ms(traced_ns));
    out.set("trace.overhead_ratio", ratio(traced_ns, untraced_ns));
}

/// Closure check, Chrome export and validation; failures become errors.
/// Only layer spans count towards the closure: time an operation spends
/// outside every layer span is unattributed.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, traced_ns: u64, args: &Args) {
    let attributed = spans::attributed_ns(tracer.spans());
    out.set("trace.attributed_ratio", ratio(attributed, traced_ns));
    match spans::check_closure(attributed, traced_ns, CLOSURE_TOLERANCE) {
        Ok(share) => out.line(format!(
            "closure: layer self times cover {share:.4} of {:.1} ms traced wall (tolerance {CLOSURE_TOLERANCE})",
            ms(traced_ns)
        )),
        Err(e) => out.errors.push(format!("closure: {e}")),
    }
    match spans::chrome_document(tracer.spans()) {
        Ok((doc, summary)) => {
            let dir = std::path::Path::new(".bench_out");
            let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_string()))
            {
                Ok(()) => out.line(format!(
                    "chrome trace: {} ({} spans, validate_trace ok)",
                    path.display(),
                    summary.spans
                )),
                Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
            }
        }
        Err(e) => out.errors.push(format!("validate_trace: {e}")),
    }
}
