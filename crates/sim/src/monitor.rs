//! Runtime monitors: the properties the arbitration mechanism must
//! guarantee, checked on every cycle, plus the watchdog violations the
//! fault-injection runtime surfaces (grant timeouts, fairness
//! breaches, no-progress halts, detected data faults).

use rcarb_board::memory::BankId;
use rcarb_json::{expect_field, FromJson, Json, JsonError, ToJson};
use rcarb_taskgraph::id::{ArbiterId, ChannelId, TaskId};
use std::fmt;

/// A property violation observed during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two or more tasks drove one memory bank in the same cycle.
    BankConflict {
        /// Cycle of the conflict.
        cycle: u64,
        /// The bank.
        bank: BankId,
        /// Involved tasks.
        tasks: Vec<TaskId>,
    },
    /// Two or more distinct tasks drove one shared route simultaneously.
    RouteConflict {
        /// Cycle of the conflict.
        cycle: u64,
        /// Merged-route index.
        route: usize,
        /// Involved tasks.
        tasks: Vec<TaskId>,
    },
    /// A task accessed an arbitrated resource without holding the grant.
    AccessWithoutGrant {
        /// Cycle of the access.
        cycle: u64,
        /// The offending task.
        task: TaskId,
        /// The arbiter that should have been consulted.
        arbiter: ArbiterId,
    },
    /// An arbiter granted more than one port in a cycle (mutual exclusion
    /// broken — must never happen).
    MultipleGrants {
        /// Cycle of the grant.
        cycle: u64,
        /// The arbiter.
        arbiter: ArbiterId,
        /// The grant word.
        grants: u64,
    },
    /// The synthesized netlist disagreed with the behavioural arbiter.
    CosimMismatch {
        /// The arbiter.
        arbiter: ArbiterId,
        /// Number of mismatching cycles.
        cycles: u64,
    },
    /// A shared bank's write-select line floated (high impedance) while
    /// the bank was idle — the Fig. 4 hazard: an undefined select can
    /// cause unwanted writes. Only possible under the (wrong) tri-state
    /// select discipline; the paper's OR discipline precludes it.
    FloatingSelectLine {
        /// First cycle the float was observed.
        cycle: u64,
        /// The bank whose select floated.
        bank: BankId,
    },
    /// A continuously requesting task waited longer than the configured
    /// starvation bound.
    Starvation {
        /// The starving task.
        task: TaskId,
        /// The arbiter it waited on.
        arbiter: ArbiterId,
        /// Cycles waited.
        waited: u64,
    },
    /// The bounded-wait watchdog: a task's grant wait crossed the
    /// configured [`grant_timeout`]. Fired once per wait episode, at
    /// the crossing cycle, on both kernels.
    ///
    /// [`grant_timeout`]: crate::config::WatchdogConfig::grant_timeout
    GrantTimeout {
        /// Cycle the wait crossed the bound.
        cycle: u64,
        /// The waiting task.
        task: TaskId,
        /// The arbiter it waits on.
        arbiter: ArbiterId,
        /// The wait length at the crossing (bound + 1).
        waited: u64,
    },
    /// The runtime fairness cross-check: a task waited longer than the
    /// paper's M-bound guarantees is possible on a fault-free fabric,
    /// so a line or arbiter is misbehaving.
    FairnessBreach {
        /// Cycle the wait crossed the bound.
        cycle: u64,
        /// The waiting task.
        task: TaskId,
        /// The arbiter it waits on.
        arbiter: ArbiterId,
        /// The wait length at the crossing (bound + 1).
        waited: u64,
        /// The violated bound, in cycles.
        bound: u64,
    },
    /// The deadlock/livelock watchdog: no task made forward progress
    /// for `stalled` consecutive cycles. The run halts at `cycle`.
    NoProgress {
        /// Cycle the run was halted.
        cycle: u64,
        /// The progress bound that expired.
        stalled: u64,
    },
    /// A bank read failed error detection (parity/EDC model); the read
    /// data was corrupted in flight.
    BankReadFault {
        /// Cycle of the faulted read.
        cycle: u64,
        /// The faulted bank.
        bank: BankId,
        /// The reading task.
        task: TaskId,
    },
    /// A channel transfer failed parity: one bit flipped in flight.
    ChannelFault {
        /// Cycle of the faulted transfer.
        cycle: u64,
        /// The logical channel.
        channel: ChannelId,
        /// The flipped data bit (0–63).
        bit: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BankConflict { cycle, bank, tasks } => {
                write!(
                    f,
                    "cycle {cycle}: bank {bank} driven by {} tasks",
                    tasks.len()
                )
            }
            Violation::RouteConflict {
                cycle,
                route,
                tasks,
            } => {
                write!(
                    f,
                    "cycle {cycle}: route #{route} driven by {} tasks",
                    tasks.len()
                )
            }
            Violation::AccessWithoutGrant {
                cycle,
                task,
                arbiter,
            } => {
                write!(
                    f,
                    "cycle {cycle}: task {task} accessed {arbiter}'s resource without grant"
                )
            }
            Violation::MultipleGrants {
                cycle,
                arbiter,
                grants,
            } => {
                write!(f, "cycle {cycle}: {arbiter} granted word {grants:#b}")
            }
            Violation::CosimMismatch { arbiter, cycles } => {
                write!(f, "{arbiter}: netlist disagreed on {cycles} cycles")
            }
            Violation::FloatingSelectLine { cycle, bank } => {
                write!(f, "cycle {cycle}: bank {bank}'s write select floated")
            }
            Violation::Starvation {
                task,
                arbiter,
                waited,
            } => {
                write!(f, "task {task} starved {waited} cycles at {arbiter}")
            }
            Violation::GrantTimeout {
                cycle,
                task,
                arbiter,
                waited,
            } => {
                write!(
                    f,
                    "cycle {cycle}: task {task} waited {waited} cycles on {arbiter} (timeout)"
                )
            }
            Violation::FairnessBreach {
                cycle,
                task,
                arbiter,
                waited,
                bound,
            } => {
                write!(
                    f,
                    "cycle {cycle}: task {task} waited {waited} cycles on {arbiter}, \
                     breaching the fairness bound of {bound}"
                )
            }
            Violation::NoProgress { cycle, stalled } => {
                write!(
                    f,
                    "cycle {cycle}: no task progress for {stalled} cycles; run halted"
                )
            }
            Violation::BankReadFault { cycle, bank, task } => {
                write!(
                    f,
                    "cycle {cycle}: read of bank {bank} by task {task} failed error detection"
                )
            }
            Violation::ChannelFault {
                cycle,
                channel,
                bit,
            } => {
                write!(f, "cycle {cycle}: bit {bit} flipped on {channel}")
            }
        }
    }
}

impl Violation {
    /// A short machine-stable name for the violation kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::BankConflict { .. } => "BankConflict",
            Violation::RouteConflict { .. } => "RouteConflict",
            Violation::AccessWithoutGrant { .. } => "AccessWithoutGrant",
            Violation::MultipleGrants { .. } => "MultipleGrants",
            Violation::CosimMismatch { .. } => "CosimMismatch",
            Violation::FloatingSelectLine { .. } => "FloatingSelectLine",
            Violation::Starvation { .. } => "Starvation",
            Violation::GrantTimeout { .. } => "GrantTimeout",
            Violation::FairnessBreach { .. } => "FairnessBreach",
            Violation::NoProgress { .. } => "NoProgress",
            Violation::BankReadFault { .. } => "BankReadFault",
            Violation::ChannelFault { .. } => "ChannelFault",
        }
    }

    /// The cycle the violation was observed, when it is tied to one
    /// (end-of-run summaries like [`Violation::Starvation`] and
    /// [`Violation::CosimMismatch`] are not).
    pub fn cycle(&self) -> Option<u64> {
        match self {
            Violation::BankConflict { cycle, .. }
            | Violation::RouteConflict { cycle, .. }
            | Violation::AccessWithoutGrant { cycle, .. }
            | Violation::MultipleGrants { cycle, .. }
            | Violation::FloatingSelectLine { cycle, .. }
            | Violation::GrantTimeout { cycle, .. }
            | Violation::FairnessBreach { cycle, .. }
            | Violation::NoProgress { cycle, .. }
            | Violation::BankReadFault { cycle, .. }
            | Violation::ChannelFault { cycle, .. } => Some(*cycle),
            Violation::CosimMismatch { .. } | Violation::Starvation { .. } => None,
        }
    }

    /// The task involved, when the violation is tied to a single one.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            Violation::AccessWithoutGrant { task, .. }
            | Violation::Starvation { task, .. }
            | Violation::GrantTimeout { task, .. }
            | Violation::FairnessBreach { task, .. }
            | Violation::BankReadFault { task, .. } => Some(*task),
            _ => None,
        }
    }

    /// The arbiter involved, when the violation is tied to one.
    pub fn arbiter(&self) -> Option<ArbiterId> {
        match self {
            Violation::AccessWithoutGrant { arbiter, .. }
            | Violation::MultipleGrants { arbiter, .. }
            | Violation::CosimMismatch { arbiter, .. }
            | Violation::Starvation { arbiter, .. }
            | Violation::GrantTimeout { arbiter, .. }
            | Violation::FairnessBreach { arbiter, .. } => Some(*arbiter),
            _ => None,
        }
    }
}

impl ToJson for Violation {
    fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> =
            vec![("kind".to_owned(), Json::Str(self.kind().to_owned()))];
        if let Some(c) = self.cycle() {
            obj.push(("cycle".to_owned(), c.to_json()));
        }
        match self {
            Violation::BankConflict { bank, tasks, .. } => {
                obj.push(("bank".to_owned(), (bank.index() as u64).to_json()));
                obj.push(task_list(tasks));
            }
            Violation::RouteConflict { route, tasks, .. } => {
                obj.push(("route".to_owned(), (*route as u64).to_json()));
                obj.push(task_list(tasks));
            }
            Violation::AccessWithoutGrant { task, arbiter, .. } => {
                obj.push(("task".to_owned(), (task.index() as u64).to_json()));
                obj.push(("arbiter".to_owned(), (arbiter.index() as u64).to_json()));
            }
            Violation::MultipleGrants {
                arbiter, grants, ..
            } => {
                obj.push(("arbiter".to_owned(), (arbiter.index() as u64).to_json()));
                obj.push(("grants".to_owned(), grants.to_json()));
            }
            Violation::CosimMismatch { arbiter, cycles } => {
                obj.push(("arbiter".to_owned(), (arbiter.index() as u64).to_json()));
                obj.push(("cycles".to_owned(), cycles.to_json()));
            }
            Violation::FloatingSelectLine { bank, .. } => {
                obj.push(("bank".to_owned(), (bank.index() as u64).to_json()));
            }
            Violation::Starvation {
                task,
                arbiter,
                waited,
            } => {
                obj.push(("task".to_owned(), (task.index() as u64).to_json()));
                obj.push(("arbiter".to_owned(), (arbiter.index() as u64).to_json()));
                obj.push(("waited".to_owned(), waited.to_json()));
            }
            Violation::GrantTimeout {
                task,
                arbiter,
                waited,
                ..
            } => {
                obj.push(("task".to_owned(), (task.index() as u64).to_json()));
                obj.push(("arbiter".to_owned(), (arbiter.index() as u64).to_json()));
                obj.push(("waited".to_owned(), waited.to_json()));
            }
            Violation::FairnessBreach {
                task,
                arbiter,
                waited,
                bound,
                ..
            } => {
                obj.push(("task".to_owned(), (task.index() as u64).to_json()));
                obj.push(("arbiter".to_owned(), (arbiter.index() as u64).to_json()));
                obj.push(("waited".to_owned(), waited.to_json()));
                obj.push(("bound".to_owned(), bound.to_json()));
            }
            Violation::NoProgress { stalled, .. } => {
                obj.push(("stalled".to_owned(), stalled.to_json()));
            }
            Violation::BankReadFault { bank, task, .. } => {
                obj.push(("bank".to_owned(), (bank.index() as u64).to_json()));
                obj.push(("task".to_owned(), (task.index() as u64).to_json()));
            }
            Violation::ChannelFault { channel, bit, .. } => {
                obj.push(("channel".to_owned(), (channel.index() as u64).to_json()));
                obj.push(("bit".to_owned(), bit.to_json()));
            }
        }
        obj.push(("text".to_owned(), Json::Str(self.to_string())));
        Json::Obj(obj)
    }
}

fn task_list(tasks: &[TaskId]) -> (String, Json) {
    (
        "tasks".to_owned(),
        Json::Arr(tasks.iter().map(|t| (t.index() as u64).to_json()).collect()),
    )
}

fn index_field(v: &Json, name: &str) -> Result<u32, JsonError> {
    let raw = u64::from_json(expect_field(v, name)?)?;
    u32::try_from(raw).map_err(|_| JsonError::shape(format!("{name} index out of range")))
}

fn u64_field(v: &Json, name: &str) -> Result<u64, JsonError> {
    u64::from_json(expect_field(v, name)?)
}

fn tasks_field(v: &Json) -> Result<Vec<TaskId>, JsonError> {
    Vec::<u64>::from_json(expect_field(v, "tasks")?)?
        .into_iter()
        .map(|raw| {
            u32::try_from(raw)
                .map(TaskId::new)
                .map_err(|_| JsonError::shape("task index out of range"))
        })
        .collect()
}

impl FromJson for Violation {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind = String::from_json(expect_field(v, "kind")?)?;
        match kind.as_str() {
            "BankConflict" => Ok(Violation::BankConflict {
                cycle: u64_field(v, "cycle")?,
                bank: BankId::new(index_field(v, "bank")?),
                tasks: tasks_field(v)?,
            }),
            "RouteConflict" => Ok(Violation::RouteConflict {
                cycle: u64_field(v, "cycle")?,
                route: index_field(v, "route")? as usize,
                tasks: tasks_field(v)?,
            }),
            "AccessWithoutGrant" => Ok(Violation::AccessWithoutGrant {
                cycle: u64_field(v, "cycle")?,
                task: TaskId::new(index_field(v, "task")?),
                arbiter: ArbiterId::new(index_field(v, "arbiter")?),
            }),
            "MultipleGrants" => Ok(Violation::MultipleGrants {
                cycle: u64_field(v, "cycle")?,
                arbiter: ArbiterId::new(index_field(v, "arbiter")?),
                grants: u64_field(v, "grants")?,
            }),
            "CosimMismatch" => Ok(Violation::CosimMismatch {
                arbiter: ArbiterId::new(index_field(v, "arbiter")?),
                cycles: u64_field(v, "cycles")?,
            }),
            "FloatingSelectLine" => Ok(Violation::FloatingSelectLine {
                cycle: u64_field(v, "cycle")?,
                bank: BankId::new(index_field(v, "bank")?),
            }),
            "Starvation" => Ok(Violation::Starvation {
                task: TaskId::new(index_field(v, "task")?),
                arbiter: ArbiterId::new(index_field(v, "arbiter")?),
                waited: u64_field(v, "waited")?,
            }),
            "GrantTimeout" => Ok(Violation::GrantTimeout {
                cycle: u64_field(v, "cycle")?,
                task: TaskId::new(index_field(v, "task")?),
                arbiter: ArbiterId::new(index_field(v, "arbiter")?),
                waited: u64_field(v, "waited")?,
            }),
            "FairnessBreach" => Ok(Violation::FairnessBreach {
                cycle: u64_field(v, "cycle")?,
                task: TaskId::new(index_field(v, "task")?),
                arbiter: ArbiterId::new(index_field(v, "arbiter")?),
                waited: u64_field(v, "waited")?,
                bound: u64_field(v, "bound")?,
            }),
            "NoProgress" => Ok(Violation::NoProgress {
                cycle: u64_field(v, "cycle")?,
                stalled: u64_field(v, "stalled")?,
            }),
            "BankReadFault" => Ok(Violation::BankReadFault {
                cycle: u64_field(v, "cycle")?,
                bank: BankId::new(index_field(v, "bank")?),
                task: TaskId::new(index_field(v, "task")?),
            }),
            "ChannelFault" => Ok(Violation::ChannelFault {
                cycle: u64_field(v, "cycle")?,
                channel: ChannelId::new(index_field(v, "channel")?),
                bit: u32::from_json(expect_field(v, "bit")?)?,
            }),
            other => Err(JsonError::shape(format!(
                "unknown Violation kind `{other}`"
            ))),
        }
    }
}

/// Tracks per-(task, arbiter) wait times to detect starvation.
#[derive(Debug, Clone, Default)]
pub struct StarvationTracker {
    /// `(task, arbiter) -> cycles waited so far` for live waits.
    waiting: std::collections::BTreeMap<(TaskId, ArbiterId), u64>,
    /// Longest completed or ongoing wait per (task, arbiter).
    worst: std::collections::BTreeMap<(TaskId, ArbiterId), u64>,
}

impl StarvationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `task` spent this cycle blocked on `arbiter`.
    pub fn tick_waiting(&mut self, task: TaskId, arbiter: ArbiterId) {
        self.tick_waiting_n(task, arbiter, 1);
    }

    /// Records `cycles` consecutive blocked cycles in one step —
    /// equivalent to calling [`tick_waiting`](Self::tick_waiting) that
    /// many times. The batched kernel uses this to account for
    /// skipped quiescent cycles in bulk.
    pub fn tick_waiting_n(&mut self, task: TaskId, arbiter: ArbiterId, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let w = self.waiting.entry((task, arbiter)).or_insert(0);
        *w += cycles;
        let best = self.worst.entry((task, arbiter)).or_insert(0);
        *best = (*best).max(*w);
    }

    /// Records that `task`'s wait on `arbiter` ended (granted).
    pub fn granted(&mut self, task: TaskId, arbiter: ArbiterId) {
        self.waiting.remove(&(task, arbiter));
    }

    /// The length of `task`'s live wait on `arbiter` (0 when not
    /// waiting).
    pub fn current_wait(&self, task: TaskId, arbiter: ArbiterId) -> u64 {
        self.waiting.get(&(task, arbiter)).copied().unwrap_or(0)
    }

    /// The worst wait observed for `(task, arbiter)`.
    pub fn worst_wait(&self, task: TaskId, arbiter: ArbiterId) -> u64 {
        self.worst.get(&(task, arbiter)).copied().unwrap_or(0)
    }

    /// The worst wait observed anywhere.
    pub fn global_worst(&self) -> u64 {
        self.worst.values().copied().max().unwrap_or(0)
    }

    /// Emits a [`Violation::Starvation`] for every wait exceeding `bound`.
    pub fn violations(&self, bound: u64) -> Vec<Violation> {
        self.worst
            .iter()
            .filter(|(_, &w)| w > bound)
            .map(|(&(task, arbiter), &waited)| Violation::Starvation {
                task,
                arbiter,
                waited,
            })
            .collect()
    }
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

    #[test]
    fn waits_accumulate_and_reset_on_grant() {
        let mut s = StarvationTracker::new();
        for _ in 0..5 {
            s.tick_waiting(t(0), a(0));
        }
        assert_eq!(s.worst_wait(t(0), a(0)), 5);
        s.granted(t(0), a(0));
        s.tick_waiting(t(0), a(0));
        // Worst is retained even after a shorter second wait.
        assert_eq!(s.worst_wait(t(0), a(0)), 5);
        assert_eq!(s.global_worst(), 5);
    }

    #[test]
    fn violations_respect_bound() {
        let mut s = StarvationTracker::new();
        for _ in 0..10 {
            s.tick_waiting(t(1), a(0));
        }
        assert!(s.violations(10).is_empty());
        let v = s.violations(9);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::Starvation { waited: 10, .. }));
    }

    #[test]
    fn bulk_ticks_match_repeated_single_ticks() {
        let mut one = StarvationTracker::new();
        let mut bulk = StarvationTracker::new();
        for _ in 0..7 {
            one.tick_waiting(t(0), a(1));
        }
        bulk.tick_waiting_n(t(0), a(1), 7);
        assert_eq!(one.worst_wait(t(0), a(1)), bulk.worst_wait(t(0), a(1)));
        bulk.tick_waiting_n(t(0), a(1), 0); // no-op
        assert_eq!(bulk.worst_wait(t(0), a(1)), 7);
        assert_eq!(one.violations(6), bulk.violations(6));
    }

    #[test]
    fn display_is_informative() {
        let v = Violation::BankConflict {
            cycle: 7,
            bank: BankId::new(2),
            tasks: vec![t(0), t(1)],
        };
        assert_eq!(v.to_string(), "cycle 7: bank B2 driven by 2 tasks");
    }

    /// Every watchdog/fault variant renders the actors and the cycle in
    /// its text form, and tags itself with a stable kind string.
    #[test]
    fn watchdog_violation_text_names_the_actors() {
        let cases: [(Violation, &str, &str); 5] = [
            (
                Violation::GrantTimeout {
                    cycle: 9,
                    task: t(1),
                    arbiter: a(0),
                    waited: 17,
                },
                "GrantTimeout",
                "cycle 9: task T1 waited 17 cycles on Arb0 (timeout)",
            ),
            (
                Violation::FairnessBreach {
                    cycle: 40,
                    task: t(2),
                    arbiter: a(1),
                    waited: 11,
                    bound: 6,
                },
                "FairnessBreach",
                "cycle 40: task T2 waited 11 cycles on Arb1, breaching the fairness bound of 6",
            ),
            (
                Violation::NoProgress {
                    cycle: 128,
                    stalled: 64,
                },
                "NoProgress",
                "cycle 128: no task progress for 64 cycles; run halted",
            ),
            (
                Violation::BankReadFault {
                    cycle: 3,
                    bank: BankId::new(5),
                    task: t(0),
                },
                "BankReadFault",
                "cycle 3: read of bank B5 by task T0 failed error detection",
            ),
            (
                Violation::ChannelFault {
                    cycle: 12,
                    channel: ChannelId::new(4),
                    bit: 23,
                },
                "ChannelFault",
                "cycle 12: bit 23 flipped on c4",
            ),
        ];
        for (v, kind, text) in cases {
            assert_eq!(v.kind(), kind);
            assert_eq!(v.to_string(), text);
            assert_eq!(
                v.cycle(),
                text.strip_prefix("cycle ")
                    .and_then(|r| { r.split(&[':', ' '][..]).next().and_then(|n| n.parse().ok()) })
            );
        }
    }

    /// The JSON form carries the kind, the cycle, every structured
    /// field, and the rendered text — so downstream tooling never has
    /// to parse the human-readable line.
    #[test]
    fn watchdog_violation_json_is_structured() {
        let v = Violation::FairnessBreach {
            cycle: 40,
            task: t(2),
            arbiter: a(1),
            waited: 11,
            bound: 6,
        };
        let json = rcarb_json::to_string(&v);
        for field in [
            "\"kind\":\"FairnessBreach\"",
            "\"cycle\":40",
            "\"task\":2",
            "\"arbiter\":1",
            "\"waited\":11",
            "\"bound\":6",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        let b = Violation::BankReadFault {
            cycle: 3,
            bank: BankId::new(5),
            task: t(0),
        };
        let bj = rcarb_json::to_string(&b);
        assert!(bj.contains("\"bank\":5"), "{bj}");
        let c = Violation::ChannelFault {
            cycle: 12,
            channel: ChannelId::new(4),
            bit: 23,
        };
        let cj = rcarb_json::to_string(&c);
        assert!(
            cj.contains("\"channel\":4") && cj.contains("\"bit\":23"),
            "{cj}"
        );
        let n = Violation::NoProgress {
            cycle: 128,
            stalled: 64,
        };
        let nj = rcarb_json::to_string(&n);
        assert!(nj.contains("\"stalled\":64"), "{nj}");
    }
}
