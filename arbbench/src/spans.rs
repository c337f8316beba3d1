//! In-memory spans recorded by the benchmark around calls into the
//! stack, their self times, and the closure check.
//!
//! Every span has a name, a start, an end and a parent; the spans of one
//! operation share its `op` id, and each operation has one root span
//! named `op/<kind>`. A layer's self time is its span minus the part of
//! the interval its children cover. Summed over the layer spans (every
//! span but the roots), self times must account for the traced window's
//! wall time. Whatever they do not cover is unattributed: time inside an
//! operation that no layer span covers (the root's self time) and
//! bookkeeping between operations. [`check_closure`] bounds that share.

use rcarb_json::Json;
use rcarb_obs::chrome::{chrome_trace, validate_trace, TraceSummary};
use rcarb_obs::{MetricsSnapshot, SpanRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// Largest share of the traced wall time that may fall outside every
/// span before the attribution is rejected.
pub const CLOSURE_TOLERANCE: f64 = 0.05;

/// One finished span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Sequential id, from 1.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Operation id shared by all spans of one operation.
    pub op: u64,
    /// Layer name, e.g. `logic.encode`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    op: u64,
    next_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            next_id: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new operation: a root span named `op/<kind>` whose
    /// descendants all carry the new operation id.
    pub fn op<T>(&mut self, kind: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        assert!(self.open.is_empty(), "operations do not nest");
        self.op += 1;
        self.span(&format!("op/{kind}"), f)
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Number of operations recorded.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Finished spans, in close order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span named `name` when tracing, plainly otherwise,
/// so traced and untraced replays share one code path.
pub fn stage<T>(t: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match t.as_deref_mut() {
        Some(tr) => tr.span(name, |_| f()),
        None => f(),
    }
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&pi) = s.parent.and_then(|p| index.get(&p)) {
            children[pi].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// True for an operation's root span, `op/<kind>`.
pub fn is_op_root(span: &Span) -> bool {
    span.name.starts_with("op/")
}

/// Self time of the layer spans, summed in ns. An operation root's self
/// time is time no layer span covers, so it is left out.
pub fn attributed_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| !is_op_root(s))
        .map(|(_, t)| t)
        .sum()
}

/// Self time summed per span name, in ns.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += t;
    }
    out
}

/// Checks that self times add up to the traced wall time: their sum may
/// not exceed `wall_ns` (overlap or double counting) nor fall short of it
/// by more than `tolerance` of the wall time (unattributed time).
/// Returns the attributed share.
///
/// # Errors
///
/// Describes the violated side of the check.
pub fn check_closure(sum_self_ns: u64, wall_ns: u64, tolerance: f64) -> Result<f64, String> {
    if wall_ns == 0 {
        return Err("empty traced window".to_owned());
    }
    let share = sum_self_ns as f64 / wall_ns as f64;
    if share > 1.0 + 1e-9 {
        return Err(format!(
            "self times sum to {share:.4} of wall time: spans overlap or are counted twice"
        ));
    }
    if share < 1.0 - tolerance {
        return Err(format!(
            "self times cover only {share:.4} of wall time (tolerance {tolerance})"
        ));
    }
    Ok(share)
}

/// Exports the spans as one Chrome trace through `rcarb-obs` and checks
/// it with `validate_trace`. Times are floored to microseconds, which
/// keeps every child inside its parent.
///
/// # Errors
///
/// Returns the validator's complaint.
pub fn chrome_document(spans: &[Span]) -> Result<(Json, TraceSummary), String> {
    let records: Vec<SpanRecord> = spans
        .iter()
        .map(|s| SpanRecord {
            id: s.id,
            parent: s.parent,
            name: if s.parent.is_none() {
                format!("{}#{}", s.name, s.op)
            } else {
                s.name.clone()
            },
            start_us: s.start_ns / 1000,
            dur_us: s.end_ns / 1000 - s.start_ns / 1000,
        })
        .collect();
    let doc = chrome_trace(&records, &MetricsSnapshot::default());
    let summary = validate_trace(&doc)?;
    Ok((doc, summary))
}
