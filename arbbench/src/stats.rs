//! Order statistics and process measurements.
//!
//! Timed operations are measured in process CPU time ([`cpu_s`]), not
//! wall time. The benchmark runs on a few vCPUs of a shared host, where
//! wall time also counts the time a vCPU was not running (steal) or a
//! thread waited for one; that share swings by tens of percent from one
//! minute to the next. The kernel leaves both out of CPU time.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`.
//! A tail percentile is only worth printing when enough samples lie
//! beyond it to say something about the tail, so [`tail`] withholds the
//! value unless at least [`MIN_BEYOND`] samples are larger-ranked.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0..=100) over `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The nearest-rank percentile of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Sorts a copy of `samples` (NaN-free by construction: wall times).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (nearest rank; `None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile_sorted(&sorted(samples), 50.0)
}

/// A tail percentile together with the sample count that supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The requested percentile, 0..=100.
    pub p: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked strictly beyond the percentile.
    pub beyond: usize,
    /// The percentile value, withheld when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub value: Option<f64>,
}

impl Tail {
    /// Renders `value (n=.., beyond=..)` or a withheld marker.
    pub fn render(&self, unit: &str) -> String {
        match self.value {
            Some(v) => format!("{v:.4} {unit} (n={}, beyond={})", self.n, self.beyond),
            None => format!(
                "withheld (n={}, beyond={} < {MIN_BEYOND})",
                self.n, self.beyond
            ),
        }
    }
}

/// The `p`-th percentile of `samples`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            p,
            n,
            beyond: 0,
            value: None,
        };
    }
    let r = rank(n, p);
    let beyond = n - r;
    let value = (beyond >= MIN_BEYOND).then(|| sorted(samples)[r - 1]);
    Tail {
        p,
        n,
        beyond,
        value,
    }
}

/// Peak resident set size of this process in MiB, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used so far, in seconds: user plus system
/// time summed over all of its threads (`CLOCK_PROCESS_CPUTIME_ID`), so
/// work the exec pool or the daemon's workers do for an operation counts.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec (64-bit Linux layout)
    // for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
