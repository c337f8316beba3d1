//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Collection is lock-per-update over a [`BTreeMap`] keyed by metric
//! name, which keeps snapshots deterministically ordered — the property
//! the cross-kernel equivalence tests rely on. Instrumented code is
//! expected to batch updates (flush once per run) rather than hammer
//! the registry from inner loops.

use std::collections::BTreeMap;
use std::sync::Mutex;

use rcarb_json::Json;

/// Default histogram upper bounds: powers of two from 1 to 4096 cycles.
///
/// Sized for grant-wait and fault-latency distributions, where the
/// paper's `(N-1)(M+2)` fairness bound puts realistic waits well under
/// a few thousand cycles.
pub const DEFAULT_BOUNDS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// An immutable histogram state: bucket bounds, per-bucket counts
/// (one extra overflow bucket), and the sum/count of raw observations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending; an implicit `+Inf` bucket
    /// follows the last bound.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    fn new(bounds: &[u64]) -> Self {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Mean observed value, when anything was observed.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A fixed-bucket distribution.
    Histogram(HistogramSnapshot),
}

/// A thread-safe registry of named metrics.
///
/// Names are `/`-separated paths (`sim/arb/Arb0/grants`); the first
/// segment groups metrics into subsystems and doubles as the Chrome
/// trace category. Updating a name under a different kind resets it to
/// the new kind, so stale entries cannot poison later runs.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut map = self.inner.lock().unwrap();
        match map.get_mut(name) {
            Some(MetricValue::Counter(v)) => *v += delta,
            _ => {
                map.insert(name.to_owned(), MetricValue::Counter(delta));
            }
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner
            .lock()
            .unwrap()
            .insert(name.to_owned(), MetricValue::Gauge(value));
    }

    /// Records `value` into the histogram `name` with the
    /// [`DEFAULT_BOUNDS`] buckets.
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_with(name, value, &DEFAULT_BOUNDS);
    }

    /// Records `value` into the histogram `name`, creating it with the
    /// given `bounds` if absent.
    pub fn observe_with(&self, name: &str, value: u64, bounds: &[u64]) {
        let mut map = self.inner.lock().unwrap();
        match map.get_mut(name) {
            Some(MetricValue::Histogram(h)) => h.observe(value),
            _ => {
                let mut h = HistogramSnapshot::new(bounds);
                h.observe(value);
                map.insert(name.to_owned(), MetricValue::Histogram(h));
            }
        }
    }

    /// Copies out the current state of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot(self.inner.lock().unwrap().clone())
    }
}

/// An immutable, ordered copy of a registry's state.
///
/// Two snapshots compare equal when every metric name and value
/// matches, which is how the equivalence tests assert that the batched
/// and legacy kernels — or 1-thread and N-thread pools — told the same
/// story.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot(pub BTreeMap<String, MetricValue>);

impl MetricsSnapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.0.get(name)
    }

    /// The counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.0.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge `name`, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.0.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.0.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The subset of metrics that is deterministic across kernels and
    /// thread counts.
    ///
    /// `kernel/*` (executed/skipped cycle accounting, wake counts) is
    /// kernel-strategy-specific by design, and `pool/*` / `cache/*`
    /// depend on scheduling order and prior process state; everything
    /// else — `sim/*`, `fault/*`, facade stage counters — must match
    /// exactly for equivalent runs.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot(
            self.0
                .iter()
                .filter(|(name, _)| {
                    !name.starts_with("kernel/")
                        && !name.starts_with("pool/")
                        && !name.starts_with("cache/")
                })
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        )
    }

    /// Renders the snapshot as a JSON object keyed by metric name.
    ///
    /// Counters become integers, gauges floats, and histograms objects
    /// with `bounds`/`counts`/`sum`/`count` fields.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        MetricValue::Counter(c) => Json::from(*c),
                        MetricValue::Gauge(g) => Json::from(*g),
                        MetricValue::Histogram(h) => Json::Obj(vec![
                            (
                                "bounds".to_owned(),
                                Json::Arr(h.bounds.iter().map(|&b| Json::from(b)).collect()),
                            ),
                            (
                                "counts".to_owned(),
                                Json::Arr(h.counts.iter().map(|&c| Json::from(c)).collect()),
                            ),
                            ("sum".to_owned(), Json::from(h.sum)),
                            ("count".to_owned(), Json::from(h.count)),
                        ]),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter_add("sim/cycles", 10);
        reg.counter_add("sim/cycles", 5);
        assert_eq!(reg.snapshot().counter("sim/cycles"), 15);
        assert_eq!(reg.snapshot().counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("pool/queue_depth", 3.0);
        reg.gauge_set("pool/queue_depth", 1.0);
        assert_eq!(reg.snapshot().gauge("pool/queue_depth"), Some(1.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricsRegistry::new();
        for v in [0, 1, 2, 3, 5000] {
            reg.observe("sim/wait", v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("sim/wait").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 5006);
        // 0 and 1 land in the `<=1` bucket, 2 in `<=2`, 3 in `<=4`,
        // 5000 in the overflow bucket.
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 1);
        assert_eq!(*h.counts.last().unwrap(), 1);
        assert_eq!(h.mean(), Some(5006.0 / 5.0));
    }

    #[test]
    fn kind_conflicts_reset_to_new_kind() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("x", 2.0);
        reg.counter_add("x", 3);
        assert_eq!(reg.snapshot().counter("x"), 3);
    }

    #[test]
    fn deterministic_filter_drops_scheduling_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter_add("sim/cycles", 1);
        reg.counter_add("kernel/executed", 1);
        reg.gauge_set("pool/stolen", 4.0);
        reg.gauge_set("cache/synthesis/hits", 2.0);
        let det = reg.snapshot().deterministic();
        assert_eq!(det.len(), 1);
        assert_eq!(det.counter("sim/cycles"), 1);
    }

    #[test]
    fn snapshot_json_shape() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a/count", 7);
        reg.gauge_set("b/level", 1.5);
        reg.observe_with("c/dist", 3, &[1, 4]);
        let doc = reg.snapshot().to_json();
        assert_eq!(doc["a/count"].as_u64(), Some(7));
        assert_eq!(doc["b/level"].as_f64(), Some(1.5));
        assert_eq!(doc["c/dist"]["count"].as_u64(), Some(1));
        assert_eq!(doc["c/dist"]["counts"].as_array().unwrap().len(), 3);
    }
}
