//! Deterministic fault injection, detection bookkeeping, and recovery
//! policy for the simulation kernel.
//!
//! A [`FaultPlan`] describes *what goes wrong and when*: stuck request
//! and grant lines, single-cycle grant glitches, channel bit-flips,
//! transient bank read errors, and task hangs — each confined to a
//! half-open cycle [`FaultWindow`]. Plans are seeded: every random
//! decision (does this read fail? which bit flips?) is a stateless
//! [`rcarb_core::rng::mix3`] draw keyed by `(seed, cycle, fault)`, so
//! identical seeds reproduce byte-identical runs on both the batched
//! and the legacy kernel, regardless of how many cycles the batched
//! kernel skipped elsewhere.
//!
//! The engine compiles a plan into a crate-private `FaultController` at
//! build time
//! (validating every referenced resource), consults it from the
//! component layer while stepping, and asks it for a [`FaultReport`]
//! afterwards. The zero-fault fast path is untouched: a system built
//! without a plan carries no controller and takes no extra branches,
//! and a system whose windows have all expired (or been repaired) is
//! skip-eligible again — the controller's fault horizon (the distance
//! to the next live window) is what the kernel folds into its skip
//! bound. A window counts as live through the first cycle after it
//! closes, so the cycle that sees an unmasked grant again is always
//! executed.
//!
//! What the runtime *does* about detected faults is the
//! [`RecoveryPolicy`]'s business: scrubbing stuck request lines,
//! retrying EDC-failed reads, quarantining a faulted bank onto a spare,
//! and re-routing a faulted channel. All recovery actions happen on
//! executed cycles in both kernels, keeping reports identical.

use std::fmt;

use rcarb_board::memory::BankId;
use rcarb_core::rng::mix3;
use rcarb_json::{expect_field, FromJson, Json, JsonError, ToJson};
use rcarb_taskgraph::id::{ArbiterId, ChannelId, TaskId};

/// Salt for the "does this draw fire?" decision of probabilistic faults.
const SALT_FIRE: u64 = 0x0b5e_55ed;
/// Salt for the "which bit?" decision of corruption faults.
const SALT_BIT: u64 = 0xb17f_11b5;

/// A half-open range of simulated cycles `[from, until)` during which a
/// fault is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First cycle the fault is active.
    pub from: u64,
    /// First cycle the fault is no longer active.
    pub until: u64,
}

impl FaultWindow {
    /// The window `[from, until)`; `until` must not precede `from`.
    pub fn new(from: u64, until: u64) -> Self {
        assert!(until >= from, "fault window ends before it starts");
        Self { from, until }
    }

    /// A single-cycle window — the classic glitch shape.
    pub fn at(cycle: u64) -> Self {
        Self::new(cycle, cycle + 1)
    }

    /// A window that never expires (permanent fault).
    pub fn starting_at(cycle: u64) -> Self {
        Self::new(cycle, u64::MAX)
    }

    /// Is `cycle` inside the window?
    pub fn contains(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }
}

impl fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.until == u64::MAX {
            write!(f, "[{}..)", self.from)
        } else {
            write!(f, "[{}..{})", self.from, self.until)
        }
    }
}

/// What a single injected fault does to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The physical request line from `task` to `arbiter` is stuck at
    /// `value`, regardless of what the task drives.
    StuckRequest {
        /// The task whose line is faulted.
        task: TaskId,
        /// The arbiter sampling the line.
        arbiter: ArbiterId,
        /// The stuck level.
        value: bool,
    },
    /// The grant line from `arbiter` to `port` is stuck at `value`.
    StuckGrant {
        /// The arbiter driving the line.
        arbiter: ArbiterId,
        /// The faulted output port.
        port: usize,
        /// The stuck level.
        value: bool,
    },
    /// The grant line from `arbiter` to `port` is *inverted* for every
    /// cycle of the window (use [`FaultWindow::at`] for a one-cycle
    /// glitch).
    GrantGlitch {
        /// The arbiter driving the line.
        arbiter: ArbiterId,
        /// The glitched output port.
        port: usize,
    },
    /// Data crossing `channel`'s physical route has one seeded bit
    /// flipped per transfer. The flip is detected (parity model) and
    /// keyed to the route the channel used when the system was built,
    /// so re-routing the channel escapes the fault.
    ChannelBitFlip {
        /// The faulted logical channel.
        channel: ChannelId,
    },
    /// Reads from `bank` fail error detection with probability
    /// `per_mille / 1000` per read (1000 = every read).
    BankReadError {
        /// The faulted bank.
        bank: BankId,
        /// Failure probability in 0..=1000 parts per thousand.
        per_mille: u32,
    },
    /// `task`'s controller freezes: it issues nothing while the window
    /// is live, then resumes exactly where it stopped.
    TaskHang {
        /// The hung task.
        task: TaskId,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckRequest {
                task,
                arbiter,
                value,
            } => write!(f, "request {task}->{arbiter} stuck at {}", u8::from(*value)),
            FaultKind::StuckGrant {
                arbiter,
                port,
                value,
            } => write!(
                f,
                "grant {arbiter} port {port} stuck at {}",
                u8::from(*value)
            ),
            FaultKind::GrantGlitch { arbiter, port } => {
                write!(f, "grant glitch on {arbiter} port {port}")
            }
            FaultKind::ChannelBitFlip { channel } => {
                write!(f, "bit flips on {channel}")
            }
            FaultKind::BankReadError { bank, per_mille } => {
                write!(f, "read errors on bank {bank} ({per_mille}/1000)")
            }
            FaultKind::TaskHang { task } => write!(f, "{task} hangs"),
        }
    }
}

/// One planned fault: a [`FaultKind`] live during a [`FaultWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// When it is live.
    pub window: FaultWindow,
}

/// A seeded, deterministic fault plan: the full description of what is
/// injected into a run. Build one with the `with_*` methods and attach
/// it via `SystemBuilder::with_faults`.
///
/// ```
/// use rcarb_sim::fault::{FaultPlan, FaultWindow};
/// use rcarb_taskgraph::id::{ArbiterId, TaskId};
///
/// let plan = FaultPlan::seeded(42)
///     .with_stuck_request(TaskId::new(0), ArbiterId::new(0), false, FaultWindow::new(10, 50))
///     .with_grant_glitch(ArbiterId::new(0), 1, 25);
/// assert_eq!(plan.faults().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl Default for FaultPlan {
    /// The empty plan: no faults, seed zero.
    fn default() -> Self {
        Self::seeded(0)
    }
}

impl FaultPlan {
    /// An empty plan drawing all randomness from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The planned faults, in injection-priority order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds an arbitrary fault.
    #[must_use]
    pub fn with_fault(mut self, kind: FaultKind, window: FaultWindow) -> Self {
        self.faults.push(Fault { kind, window });
        self
    }

    /// Sticks `task`'s request line to `arbiter` at `value` during
    /// `window`.
    #[must_use]
    pub fn with_stuck_request(
        self,
        task: TaskId,
        arbiter: ArbiterId,
        value: bool,
        window: FaultWindow,
    ) -> Self {
        self.with_fault(
            FaultKind::StuckRequest {
                task,
                arbiter,
                value,
            },
            window,
        )
    }

    /// Sticks `arbiter`'s grant line to `port` at `value` during
    /// `window`.
    #[must_use]
    pub fn with_stuck_grant(
        self,
        arbiter: ArbiterId,
        port: usize,
        value: bool,
        window: FaultWindow,
    ) -> Self {
        self.with_fault(
            FaultKind::StuckGrant {
                arbiter,
                port,
                value,
            },
            window,
        )
    }

    /// Inverts `arbiter`'s grant to `port` for the single cycle `at`.
    #[must_use]
    pub fn with_grant_glitch(self, arbiter: ArbiterId, port: usize, at: u64) -> Self {
        self.with_fault(
            FaultKind::GrantGlitch { arbiter, port },
            FaultWindow::at(at),
        )
    }

    /// Flips one seeded bit on every transfer over `channel`'s route
    /// during `window`.
    #[must_use]
    pub fn with_channel_bit_flip(self, channel: ChannelId, window: FaultWindow) -> Self {
        self.with_fault(FaultKind::ChannelBitFlip { channel }, window)
    }

    /// Makes reads from `bank` fail error detection with probability
    /// `per_mille / 1000` during `window`.
    #[must_use]
    pub fn with_bank_read_error(self, bank: BankId, per_mille: u32, window: FaultWindow) -> Self {
        self.with_fault(FaultKind::BankReadError { bank, per_mille }, window)
    }

    /// Freezes `task` during `window`.
    #[must_use]
    pub fn with_task_hang(self, task: TaskId, window: FaultWindow) -> Self {
        self.with_fault(FaultKind::TaskHang { task }, window)
    }
}

/// What the runtime is allowed to do about detected faults. All knobs
/// default to off: detection alone never changes the simulated design's
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-drive (scrub) stuck request lines when a grant-timeout,
    /// fairness or no-progress watchdog fires on the affected arbiter.
    pub scrub_requests: bool,
    /// Replay a read whose error detection failed on the next cycle
    /// instead of consuming the corrupted word.
    pub retry_reads: bool,
    /// Migrate a bank's contents and clients onto a spare board bank
    /// once it accumulates `bank_fault_threshold` detected read faults.
    pub quarantine_banks: bool,
    /// Detected read faults tolerated per bank before quarantine.
    pub bank_fault_threshold: u32,
    /// Move a channel onto a fresh private route once it accumulates
    /// `channel_fault_threshold` detected transfer faults.
    pub reroute_channels: bool,
    /// Detected transfer faults tolerated per channel before re-route.
    pub channel_fault_threshold: u32,
}

impl RecoveryPolicy {
    /// Detection only — no repair action of any kind.
    pub fn none() -> Self {
        Self {
            scrub_requests: false,
            retry_reads: false,
            quarantine_banks: false,
            bank_fault_threshold: 3,
            reroute_channels: false,
            channel_fault_threshold: 3,
        }
    }

    /// Every recovery mechanism on, with the default thresholds.
    pub fn full() -> Self {
        Self {
            scrub_requests: true,
            retry_reads: true,
            quarantine_banks: true,
            reroute_channels: true,
            ..Self::none()
        }
    }

    /// Enables request-line scrubbing.
    #[must_use]
    pub fn with_scrub_requests(mut self, on: bool) -> Self {
        self.scrub_requests = on;
        self
    }

    /// Enables read replay on detected read faults.
    #[must_use]
    pub fn with_retry_reads(mut self, on: bool) -> Self {
        self.retry_reads = on;
        self
    }

    /// Enables bank quarantine after `threshold` detected read faults.
    #[must_use]
    pub fn with_quarantine_banks(mut self, threshold: u32) -> Self {
        self.quarantine_banks = true;
        self.bank_fault_threshold = threshold.max(1);
        self
    }

    /// Enables channel re-route after `threshold` detected transfer
    /// faults.
    #[must_use]
    pub fn with_reroute_channels(mut self, threshold: u32) -> Self {
        self.reroute_channels = true;
        self.channel_fault_threshold = threshold.max(1);
        self
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// The lifecycle trace of one planned fault, for the [`FaultReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTrace {
    /// Index of the fault in the plan.
    pub index: usize,
    /// Human-readable `kind @ window` label.
    pub label: String,
    /// How many cycles/transfers the fault actually perturbed.
    pub injections: u64,
    /// First cycle the fault perturbed anything.
    pub first_injection: Option<u64>,
    /// Cycle a watchdog or parity check attributed a violation to it.
    pub detected_at: Option<u64>,
    /// Cycle a recovery action repaired or routed around it.
    pub recovered_at: Option<u64>,
}

impl FaultTrace {
    /// Cycles between first injection and detection, when both
    /// happened.
    pub fn detection_latency(&self) -> Option<u64> {
        Some(self.detected_at?.saturating_sub(self.first_injection?))
    }
}

/// The outcome of a faulted run: aggregate counts plus one
/// [`FaultTrace`] per planned fault. Byte-identical for identical
/// seeds, on both kernels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Faults that perturbed state at least once.
    pub injected: u64,
    /// Injected faults attributed to at least one violation.
    pub detected: u64,
    /// Detected faults repaired or routed around.
    pub recovered: u64,
    /// Detected faults still live (or expired unrepaired) at run end.
    pub unrecovered: u64,
    /// Per-fault lifecycle traces, in plan order.
    pub traces: Vec<FaultTrace>,
}

impl FaultReport {
    /// Worst detection latency across all detected faults, if any
    /// fault was detected.
    pub fn worst_detection_latency(&self) -> Option<u64> {
        self.traces
            .iter()
            .filter_map(|t| t.detection_latency())
            .max()
    }

    /// A multi-line human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "faults: {} injected, {} detected, {} recovered, {} unrecovered\n",
            self.injected, self.detected, self.recovered, self.unrecovered
        ));
        for t in &self.traces {
            out.push_str(&format!(
                "  [{}] {} — injections {} (first {}), detected {}, recovered {}\n",
                t.index,
                t.label,
                t.injections,
                opt(t.first_injection),
                opt(t.detected_at),
                opt(t.recovered_at),
            ));
        }
        out
    }
}

fn opt(v: Option<u64>) -> String {
    match v {
        Some(c) => format!("@{c}"),
        None => "never".to_owned(),
    }
}

impl ToJson for FaultTrace {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("index".to_owned(), (self.index as u64).to_json()),
            ("label".to_owned(), self.label.to_json()),
            ("injections".to_owned(), self.injections.to_json()),
            ("first_injection".to_owned(), opt_json(self.first_injection)),
            ("detected_at".to_owned(), opt_json(self.detected_at)),
            ("recovered_at".to_owned(), opt_json(self.recovered_at)),
        ])
    }
}

impl ToJson for FaultReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("injected".to_owned(), self.injected.to_json()),
            ("detected".to_owned(), self.detected.to_json()),
            ("recovered".to_owned(), self.recovered.to_json()),
            ("unrecovered".to_owned(), self.unrecovered.to_json()),
            (
                "traces".to_owned(),
                Json::Arr(self.traces.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

fn opt_json(v: Option<u64>) -> Json {
    match v {
        Some(c) => c.to_json(),
        None => Json::Null,
    }
}

rcarb_json::impl_json_struct!(FaultWindow { from, until });
rcarb_json::impl_json_struct!(Fault { kind, window });
rcarb_json::impl_json_struct!(FaultPlan { seed, faults });

impl ToJson for FaultKind {
    fn to_json(&self) -> Json {
        let (tag, fields): (&str, Vec<(String, Json)>) = match self {
            FaultKind::StuckRequest {
                task,
                arbiter,
                value,
            } => (
                "StuckRequest",
                vec![
                    ("task".to_owned(), task.to_json()),
                    ("arbiter".to_owned(), arbiter.to_json()),
                    ("value".to_owned(), value.to_json()),
                ],
            ),
            FaultKind::StuckGrant {
                arbiter,
                port,
                value,
            } => (
                "StuckGrant",
                vec![
                    ("arbiter".to_owned(), arbiter.to_json()),
                    ("port".to_owned(), (*port as u64).to_json()),
                    ("value".to_owned(), value.to_json()),
                ],
            ),
            FaultKind::GrantGlitch { arbiter, port } => (
                "GrantGlitch",
                vec![
                    ("arbiter".to_owned(), arbiter.to_json()),
                    ("port".to_owned(), (*port as u64).to_json()),
                ],
            ),
            FaultKind::ChannelBitFlip { channel } => (
                "ChannelBitFlip",
                vec![("channel".to_owned(), channel.to_json())],
            ),
            FaultKind::BankReadError { bank, per_mille } => (
                "BankReadError",
                vec![
                    ("bank".to_owned(), bank.to_json()),
                    ("per_mille".to_owned(), per_mille.to_json()),
                ],
            ),
            FaultKind::TaskHang { task } => ("TaskHang", vec![("task".to_owned(), task.to_json())]),
        };
        Json::Obj(vec![(tag.to_owned(), Json::Obj(fields))])
    }
}

impl FromJson for FaultKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| JsonError::shape("expected a FaultKind object"))?;
        let (tag, body) = match pairs {
            [(tag, body)] => (tag.as_str(), body),
            _ => return Err(JsonError::shape("expected exactly one FaultKind tag")),
        };
        match tag {
            "StuckRequest" => Ok(FaultKind::StuckRequest {
                task: TaskId::from_json(expect_field(body, "task")?)?,
                arbiter: ArbiterId::from_json(expect_field(body, "arbiter")?)?,
                value: bool::from_json(expect_field(body, "value")?)?,
            }),
            "StuckGrant" => Ok(FaultKind::StuckGrant {
                arbiter: ArbiterId::from_json(expect_field(body, "arbiter")?)?,
                port: u64::from_json(expect_field(body, "port")?)? as usize,
                value: bool::from_json(expect_field(body, "value")?)?,
            }),
            "GrantGlitch" => Ok(FaultKind::GrantGlitch {
                arbiter: ArbiterId::from_json(expect_field(body, "arbiter")?)?,
                port: u64::from_json(expect_field(body, "port")?)? as usize,
            }),
            "ChannelBitFlip" => Ok(FaultKind::ChannelBitFlip {
                channel: ChannelId::from_json(expect_field(body, "channel")?)?,
            }),
            "BankReadError" => Ok(FaultKind::BankReadError {
                bank: BankId::from_json(expect_field(body, "bank")?)?,
                per_mille: u32::from_json(expect_field(body, "per_mille")?)?,
            }),
            "TaskHang" => Ok(FaultKind::TaskHang {
                task: TaskId::from_json(expect_field(body, "task")?)?,
            }),
            other => Err(JsonError::shape(format!(
                "unknown FaultKind variant `{other}`"
            ))),
        }
    }
}

impl FromJson for FaultTrace {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            index: u64::from_json(expect_field(v, "index")?)? as usize,
            label: String::from_json(expect_field(v, "label")?)?,
            injections: u64::from_json(expect_field(v, "injections")?)?,
            first_injection: Option::from_json(expect_field(v, "first_injection")?)?,
            detected_at: Option::from_json(expect_field(v, "detected_at")?)?,
            recovered_at: Option::from_json(expect_field(v, "recovered_at")?)?,
        })
    }
}

impl FromJson for FaultReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            injected: u64::from_json(expect_field(v, "injected")?)?,
            detected: u64::from_json(expect_field(v, "detected")?)?,
            recovered: u64::from_json(expect_field(v, "recovered")?)?,
            unrecovered: u64::from_json(expect_field(v, "unrecovered")?)?,
            traces: Vec::from_json(expect_field(v, "traces")?)?,
        })
    }
}

/// One compiled fault with its runtime lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CompiledFault {
    kind: FaultKind,
    window: FaultWindow,
    /// For [`FaultKind::ChannelBitFlip`]: the physical route index the
    /// channel used at build time. The fault stays bound to that route,
    /// so recovery can escape it by moving the channel.
    route: Option<usize>,
    /// Set by a recovery action: the fault no longer injects.
    disabled: bool,
    injections: u64,
    first_injection: Option<u64>,
    detected_at: Option<u64>,
    recovered_at: Option<u64>,
}

impl CompiledFault {
    fn live(&self, cycle: u64) -> bool {
        !self.disabled && self.window.contains(cycle)
    }

    fn inject(&mut self, cycle: u64) {
        self.injections += 1;
        self.first_injection.get_or_insert(cycle);
    }

    fn recover(&mut self, cycle: u64) {
        self.disabled = true;
        self.recovered_at.get_or_insert(cycle);
    }
}

/// The resource a detected violation is attributed to when the engine
/// maps it back onto planned faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultTarget {
    /// Faults on an arbiter's request or grant lines.
    Arbiter(ArbiterId),
    /// Read faults on a bank.
    Bank(BankId),
    /// Transfer faults on a channel.
    Channel(ChannelId),
    /// System-level symptoms (no-progress): any injected fault. This is
    /// also how task hangs get attributed — a frozen controller has no
    /// resource of its own to blame.
    Any,
}

/// The compiled, stateful form of a [`FaultPlan`], owned by the running
/// system. All methods are engine-internal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultController {
    seed: u64,
    faults: Vec<CompiledFault>,
}

impl FaultController {
    /// Compiles `plan`, resolving each [`FaultKind::ChannelBitFlip`] to
    /// its build-time route via `route_of`. Reference validation is the
    /// engine's job (it knows the task/arbiter/bank tables).
    pub(crate) fn new(plan: &FaultPlan, route_of: impl Fn(ChannelId) -> Option<usize>) -> Self {
        let faults = plan
            .faults
            .iter()
            .map(|f| CompiledFault {
                kind: f.kind,
                window: f.window,
                route: match f.kind {
                    FaultKind::ChannelBitFlip { channel } => route_of(channel),
                    _ => None,
                },
                disabled: false,
                injections: 0,
                first_injection: None,
                detected_at: None,
                recovered_at: None,
            })
            .collect();
        Self {
            seed: plan.seed,
            faults,
        }
    }

    /// The planned faults (kind + window), for validation at build.
    pub(crate) fn planned(&self) -> impl Iterator<Item = (&FaultKind, &FaultWindow)> {
        self.faults.iter().map(|f| (&f.kind, &f.window))
    }

    /// How many cycles starting at `now` are provably fault-silent:
    /// `0` if any enabled fault window is live at `now` or closed
    /// exactly at `now`, otherwise the distance to the earliest future
    /// window (or `u64::MAX` when all windows are spent). The kernel
    /// folds this into its skip bound so every in-window cycle, and the
    /// first cycle after each window, executes on both kernels.
    ///
    /// The cycle at `until` counts as live because a window's last
    /// perturbation is only seen then: a task that sampled a masked or
    /// glitched grant looks blocked on a steady arbiter, yet the
    /// unmasked grant it acts on next cycle would let it proceed.
    pub(crate) fn horizon(&self, now: u64) -> u64 {
        let mut horizon = u64::MAX;
        for f in &self.faults {
            if f.disabled || f.window.until < now {
                continue;
            }
            if f.window.from <= now {
                return 0;
            }
            horizon = horizon.min(f.window.from - now);
        }
        horizon
    }

    /// Applies live stuck-request faults on `arbiter` to the sampled
    /// request `word` (`port_bit[i]` gives each faulted line's port).
    /// Counts an injection per fault per cycle the word actually
    /// changed.
    pub(crate) fn perturb_requests(
        &mut self,
        arbiter: ArbiterId,
        cycle: u64,
        word: u64,
        port_of: impl Fn(TaskId) -> Option<usize>,
    ) -> u64 {
        let mut out = word;
        for f in &mut self.faults {
            let FaultKind::StuckRequest {
                task,
                arbiter: a,
                value,
            } = f.kind
            else {
                continue;
            };
            if a != arbiter || !f.live(cycle) {
                continue;
            }
            let Some(port) = port_of(task) else { continue };
            let bit = 1u64 << port;
            let forced = if value { out | bit } else { out & !bit };
            if forced != out {
                f.inject(cycle);
            }
            out = forced;
        }
        out
    }

    /// Applies live stuck-grant and glitch faults on `arbiter` to the
    /// issued `grant` word.
    pub(crate) fn perturb_grant(&mut self, arbiter: ArbiterId, cycle: u64, grant: u64) -> u64 {
        let mut out = grant;
        for f in &mut self.faults {
            let (a, forced) = match f.kind {
                FaultKind::StuckGrant {
                    arbiter: a,
                    port,
                    value,
                } => {
                    let bit = 1u64 << port;
                    (a, if value { out | bit } else { out & !bit })
                }
                FaultKind::GrantGlitch { arbiter: a, port } => (a, out ^ (1u64 << port)),
                _ => continue,
            };
            if a != arbiter || !f.live(cycle) {
                continue;
            }
            if forced != out {
                f.inject(cycle);
            }
            out = forced;
        }
        out
    }

    /// Consults live bank-read faults for a read of `bank` at `cycle`.
    /// Returns the XOR corruption mask when the read fails error
    /// detection this cycle.
    pub(crate) fn read_fault(&mut self, bank: BankId, cycle: u64) -> Option<u64> {
        let seed = self.seed;
        for (i, f) in self.faults.iter_mut().enumerate() {
            let FaultKind::BankReadError { bank: b, per_mille } = f.kind else {
                continue;
            };
            if b != bank || !f.live(cycle) {
                continue;
            }
            let fire = mix3(seed, cycle, (i as u64) << 32 | SALT_FIRE) % 1000;
            if fire < u64::from(per_mille.min(1000)) {
                f.inject(cycle);
                let bit = mix3(seed, cycle, (i as u64) << 32 | SALT_BIT) % 64;
                return Some(1u64 << bit);
            }
        }
        None
    }

    /// Consults live channel faults for a transfer of `channel` over
    /// physical route `route` at `cycle`. Returns the flipped bit's XOR
    /// mask; the fault stays bound to its build-time route.
    pub(crate) fn channel_flip(
        &mut self,
        channel: ChannelId,
        route: usize,
        cycle: u64,
    ) -> Option<u64> {
        let seed = self.seed;
        for (i, f) in self.faults.iter_mut().enumerate() {
            let FaultKind::ChannelBitFlip { channel: ch } = f.kind else {
                continue;
            };
            if ch != channel || f.route != Some(route) || !f.live(cycle) {
                continue;
            }
            f.inject(cycle);
            let bit = mix3(seed, cycle, (i as u64) << 32 | SALT_BIT) % 64;
            return Some(1u64 << bit);
        }
        None
    }

    /// True when `task` is frozen by a live hang fault at `cycle`;
    /// counts the injection.
    pub(crate) fn task_hung(&mut self, task: TaskId, cycle: u64) -> bool {
        for f in &mut self.faults {
            let FaultKind::TaskHang { task: t } = f.kind else {
                continue;
            };
            if t == task && f.live(cycle) {
                f.inject(cycle);
                return true;
            }
        }
        false
    }

    /// Attributes a violation observed at `cycle` to every matching
    /// fault that has injected but not yet been detected.
    pub(crate) fn note_detection(&mut self, target: FaultTarget, cycle: u64) {
        for f in &mut self.faults {
            if f.injections == 0 || f.detected_at.is_some() {
                continue;
            }
            let matches = match (target, f.kind) {
                (FaultTarget::Arbiter(a), FaultKind::StuckRequest { arbiter, .. })
                | (FaultTarget::Arbiter(a), FaultKind::StuckGrant { arbiter, .. })
                | (FaultTarget::Arbiter(a), FaultKind::GrantGlitch { arbiter, .. }) => a == arbiter,
                (FaultTarget::Bank(b), FaultKind::BankReadError { bank, .. }) => b == bank,
                (FaultTarget::Channel(c), FaultKind::ChannelBitFlip { channel }) => c == channel,
                (FaultTarget::Any, _) => true,
                _ => false,
            };
            if matches {
                f.detected_at = Some(cycle);
            }
        }
    }

    /// Disables live stuck-request faults on `arbiter` (the runtime
    /// re-drove the lines). Returns how many faults were repaired.
    pub(crate) fn scrub_requests(&mut self, arbiter: ArbiterId, cycle: u64) -> usize {
        let mut n = 0;
        for f in &mut self.faults {
            if let FaultKind::StuckRequest { arbiter: a, .. } = f.kind {
                if a == arbiter && f.live(cycle) {
                    f.recover(cycle);
                    n += 1;
                }
            }
        }
        n
    }

    /// Disables every live stuck-request fault (no-progress recovery).
    pub(crate) fn scrub_all_requests(&mut self, cycle: u64) -> usize {
        let arbiters: Vec<ArbiterId> = self
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::StuckRequest { arbiter, .. } if f.live(cycle) => Some(arbiter),
                _ => None,
            })
            .collect();
        let mut n = 0;
        for a in arbiters {
            n += self.scrub_requests(a, cycle);
        }
        n
    }

    /// Disables read faults on `bank` (its contents migrated to a
    /// spare).
    pub(crate) fn recover_bank(&mut self, bank: BankId, cycle: u64) {
        for f in &mut self.faults {
            if let FaultKind::BankReadError { bank: b, .. } = f.kind {
                if b == bank && !f.disabled {
                    f.recover(cycle);
                }
            }
        }
    }

    /// Disables transfer faults on `channel` (it moved to a fresh
    /// route).
    pub(crate) fn recover_channel(&mut self, channel: ChannelId, cycle: u64) {
        for f in &mut self.faults {
            if let FaultKind::ChannelBitFlip { channel: c } = f.kind {
                if c == channel && !f.disabled {
                    f.recover(cycle);
                }
            }
        }
    }

    /// The run's fault lifecycle summary.
    pub(crate) fn report(&self) -> FaultReport {
        let traces: Vec<FaultTrace> = self
            .faults
            .iter()
            .enumerate()
            .map(|(index, f)| FaultTrace {
                index,
                label: format!("{} {}", f.kind, f.window),
                injections: f.injections,
                first_injection: f.first_injection,
                detected_at: f.detected_at,
                recovered_at: f.recovered_at,
            })
            .collect();
        let injected = traces.iter().filter(|t| t.injections > 0).count() as u64;
        let detected = traces.iter().filter(|t| t.detected_at.is_some()).count() as u64;
        let recovered = traces
            .iter()
            .filter(|t| t.detected_at.is_some() && t.recovered_at.is_some())
            .count() as u64;
        FaultReport {
            injected,
            detected,
            recovered,
            unrecovered: detected - recovered,
            traces,
        }
    }
}

/// Helper for the engine: renders a kind+window pair the way traces do
/// (used in validation error messages).
pub(crate) fn describe(kind: &FaultKind, window: &FaultWindow) -> String {
    format!("{kind} {window}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }
    fn a(i: u32) -> ArbiterId {
        ArbiterId::new(i)
    }
    fn b(i: u32) -> BankId {
        BankId::new(i)
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::new(5, 8);
        assert!(!w.contains(4));
        assert!(w.contains(5));
        assert!(w.contains(7));
        assert!(!w.contains(8));
        assert!(FaultWindow::at(3).contains(3));
        assert!(!FaultWindow::at(3).contains(4));
        assert!(FaultWindow::starting_at(9).contains(u64::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_windows_are_rejected() {
        let _ = FaultWindow::new(9, 3);
    }

    #[test]
    fn plan_builder_accumulates_faults() {
        let plan = FaultPlan::seeded(1)
            .with_stuck_request(t(0), a(0), true, FaultWindow::starting_at(0))
            .with_bank_read_error(b(2), 500, FaultWindow::new(10, 20))
            .with_task_hang(t(1), FaultWindow::at(7));
        assert_eq!(plan.seed(), 1);
        assert_eq!(plan.faults().len(), 3);
        assert!(!plan.is_empty());
        assert!(FaultPlan::seeded(1).is_empty());
    }

    #[test]
    fn horizon_tracks_windows() {
        let plan = FaultPlan::seeded(0)
            .with_grant_glitch(a(0), 0, 50)
            .with_task_hang(t(0), FaultWindow::new(100, 110));
        let fc = FaultController::new(&plan, |_| None);
        assert_eq!(fc.horizon(0), 50);
        assert_eq!(fc.horizon(50), 0);
        // The first cycle after a window still executes.
        assert_eq!(fc.horizon(51), 0);
        assert_eq!(fc.horizon(52), 48);
        assert_eq!(fc.horizon(105), 0);
        assert_eq!(fc.horizon(110), 0);
        assert_eq!(fc.horizon(111), u64::MAX);
    }

    #[test]
    fn stuck_requests_perturb_only_their_port() {
        let plan =
            FaultPlan::seeded(0).with_stuck_request(t(1), a(0), true, FaultWindow::new(0, 10));
        let mut fc = FaultController::new(&plan, |_| None);
        let port_of = |task: TaskId| Some(task.index());
        // In window: bit 1 forced high; injection counted only on change.
        assert_eq!(fc.perturb_requests(a(0), 0, 0b001, port_of), 0b011);
        assert_eq!(fc.perturb_requests(a(0), 1, 0b010, port_of), 0b010);
        // Other arbiter, or out of window: untouched.
        assert_eq!(fc.perturb_requests(a(1), 2, 0b001, port_of), 0b001);
        assert_eq!(fc.perturb_requests(a(0), 10, 0b001, port_of), 0b001);
        let report = fc.report();
        assert_eq!(report.traces[0].injections, 1);
        assert_eq!(report.traces[0].first_injection, Some(0));
    }

    #[test]
    fn grant_perturbations_stack_deterministically() {
        let plan = FaultPlan::seeded(0)
            .with_stuck_grant(a(0), 0, false, FaultWindow::new(0, 5))
            .with_grant_glitch(a(0), 1, 2);
        let mut fc = FaultController::new(&plan, |_| None);
        assert_eq!(fc.perturb_grant(a(0), 0, 0b01), 0b00);
        assert_eq!(fc.perturb_grant(a(0), 2, 0b01), 0b10); // both fire
        assert_eq!(fc.perturb_grant(a(0), 6, 0b01), 0b01);
    }

    #[test]
    fn read_faults_follow_the_seed() {
        let plan = FaultPlan::seeded(99).with_bank_read_error(b(0), 500, FaultWindow::new(0, 64));
        let mut x = FaultController::new(&plan, |_| None);
        let mut y = FaultController::new(&plan, |_| None);
        let fired_x: Vec<Option<u64>> = (0..64).map(|c| x.read_fault(b(0), c)).collect();
        let fired_y: Vec<Option<u64>> = (0..64).map(|c| y.read_fault(b(0), c)).collect();
        assert_eq!(fired_x, fired_y);
        let hits = fired_x.iter().flatten().count();
        assert!(hits > 5 && hits < 60, "500/1000 should fire roughly half");
        // Each mask is a single bit.
        for m in fired_x.into_iter().flatten() {
            assert_eq!(m.count_ones(), 1);
        }
        // A different seed gives a different firing pattern.
        let plan2 = FaultPlan::seeded(100).with_bank_read_error(b(0), 500, FaultWindow::new(0, 64));
        let mut z = FaultController::new(&plan2, |_| None);
        let fired_z: Vec<bool> = (0..64).map(|c| z.read_fault(b(0), c).is_some()).collect();
        let fired_99: Vec<bool> = {
            let mut w = FaultController::new(&plan, |_| None);
            (0..64).map(|c| w.read_fault(b(0), c).is_some()).collect()
        };
        assert_ne!(fired_z, fired_99);
    }

    #[test]
    fn channel_faults_stay_bound_to_their_route() {
        let ch = ChannelId::new(0);
        let plan = FaultPlan::seeded(7).with_channel_bit_flip(ch, FaultWindow::starting_at(0));
        let mut fc = FaultController::new(&plan, |_| Some(3));
        assert!(fc.channel_flip(ch, 3, 0).is_some());
        // After a re-route the channel uses a different physical route:
        // the fault no longer reaches it.
        assert!(fc.channel_flip(ch, 5, 1).is_none());
    }

    #[test]
    fn detection_and_recovery_lifecycle() {
        let plan = FaultPlan::seeded(0)
            .with_stuck_request(t(0), a(0), true, FaultWindow::starting_at(0))
            .with_bank_read_error(b(1), 1000, FaultWindow::starting_at(0));
        let mut fc = FaultController::new(&plan, |_| None);
        let _ = fc.perturb_requests(a(0), 4, 0, |_| Some(0));
        let _ = fc.read_fault(b(1), 6);
        // Detection only sticks to injected faults with matching targets.
        fc.note_detection(FaultTarget::Bank(b(1)), 7);
        fc.note_detection(FaultTarget::Arbiter(a(0)), 9);
        let r = fc.report();
        assert_eq!(r.injected, 2);
        assert_eq!(r.detected, 2);
        assert_eq!(r.traces[0].detected_at, Some(9));
        assert_eq!(r.traces[1].detected_at, Some(7));
        assert_eq!(r.traces[1].detection_latency(), Some(1));
        // Recovery flips the aggregate counts.
        assert_eq!(fc.scrub_requests(a(0), 12), 1);
        fc.recover_bank(b(1), 15);
        let r = fc.report();
        assert_eq!(r.recovered, 2);
        assert_eq!(r.unrecovered, 0);
        assert_eq!(r.worst_detection_latency(), Some(5));
        // Scrubbed faults stop injecting and clear the horizon.
        assert_eq!(fc.perturb_requests(a(0), 16, 0, |_| Some(0)), 0);
        assert_eq!(fc.horizon(16), u64::MAX);
    }

    #[test]
    fn report_renders_text_and_json() {
        let plan = FaultPlan::seeded(0).with_task_hang(t(2), FaultWindow::new(3, 5));
        let mut fc = FaultController::new(&plan, |_| None);
        assert!(fc.task_hung(t(2), 3));
        assert!(!fc.task_hung(t(2), 5));
        assert!(!fc.task_hung(t(0), 3));
        let r = fc.report();
        let text = r.render_text();
        assert!(text.contains("1 injected"), "{text}");
        assert!(text.contains("hangs"), "{text}");
        let json = rcarb_json::to_string(&r);
        assert!(json.contains("\"injected\":1"), "{json}");
        assert!(json.contains("\"detected_at\":null"), "{json}");
    }
}
