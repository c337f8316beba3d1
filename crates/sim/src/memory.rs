//! Physical memory bank models.

use crate::component::MonitorComponent;
use crate::monitor::Violation;
use rcarb_board::memory::BankId;
use rcarb_core::line::SharedLineKind;
use rcarb_taskgraph::id::TaskId;

/// One access presented to a bank in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// The accessing task.
    pub task: TaskId,
    /// Word address (bank-relative).
    pub addr: u32,
    /// `Some(value)` for a write, `None` for a read.
    pub write: Option<u64>,
}

/// What a bank did with one cycle's accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BankOutcome {
    /// No access this cycle.
    Idle,
    /// Exactly one access proceeded; reads carry the value.
    Ok {
        /// The task served.
        task: TaskId,
        /// The value read, for a read access.
        read_value: Option<u64>,
    },
    /// Multiple tasks drove the bank's lines simultaneously: the paper's
    /// Fig. 2 hazard. Nothing is stored; any read data is unknown.
    Conflict {
        /// The tasks involved, in id order.
        tasks: Vec<TaskId>,
    },
}

/// A single-ported SRAM bank, plus the protocol clients and select-line
/// state of a *shared* (arbitrated) bank. Private banks simply have no
/// clients.
#[derive(Debug, Clone)]
pub struct BankModel {
    id: BankId,
    words: Vec<u64>,
    conflicts: u64,
    accesses: u64,
    /// Protocol clients, when the bank is arbitrated.
    clients: Vec<TaskId>,
    /// Whether the floating-select hazard has already been reported
    /// (once per bank).
    flagged: bool,
    /// Whether an all-idle cycle floats the select line under the
    /// configured discipline, precomputed when the clients are set.
    idle_floats: bool,
}

impl BankModel {
    /// Creates a zero-initialized bank of `words` words.
    pub fn new(id: BankId, words: u32) -> Self {
        Self {
            id,
            words: vec![0; words as usize],
            conflicts: 0,
            accesses: 0,
            clients: Vec::new(),
            flagged: false,
            idle_floats: false,
        }
    }

    /// The bank id.
    pub fn id(&self) -> BankId {
        self.id
    }

    /// Direct word inspection (testing / result extraction).
    pub fn word(&self, addr: u32) -> u64 {
        self.words[addr as usize]
    }

    /// Direct word initialization (loading input data).
    pub fn set_word(&mut self, addr: u32, value: u64) {
        self.words[addr as usize] = value;
    }

    /// Capacity in words.
    pub fn capacity(&self) -> u32 {
        self.words.len() as u32
    }

    /// Number of simultaneous-access conflicts observed.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of successful accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Registers the bank's protocol clients and precomputes whether an
    /// all-idle cycle floats the select line under `select_line`: only
    /// a tri-state line does, because its idle drivers release it.
    pub(crate) fn set_clients(&mut self, clients: Vec<TaskId>, select_line: SharedLineKind) {
        self.idle_floats = !clients.is_empty() && select_line == SharedLineKind::TriState;
        self.clients = clients;
    }

    /// The registered protocol clients (used when a quarantine migrates
    /// a faulted bank's role onto a spare).
    pub(crate) fn clients(&self) -> &[TaskId] {
        &self.clients
    }

    /// Whether a cycle in which nobody touches the bank can still record
    /// a new violation: only an unflagged shared bank whose idle select
    /// line *floats* can. Everything else a bank does is driven by task
    /// accesses, and an accessing task is itself active, so the batched
    /// kernel may skip cycles over any bank for which this is false.
    pub(crate) fn idle_may_float(&self) -> bool {
        self.idle_floats && !self.flagged
    }

    /// The Fig. 4 select-line check for one cycle: each client drives
    /// its first access this cycle (write -> 1, read -> 0) or its idle
    /// drive, and a line that resolves to Z or X is reported once per
    /// bank. `accesses` is this cycle's traffic on this bank, if any.
    ///
    /// Only a tri-state line can float: the OR and AND lines of
    /// Fig. 4b/4c hard-wire the idle contribution and always resolve to
    /// a level, so they return at once. A tri-state line floats when no
    /// client drives it (Z) or when reads and writes drive it at once
    /// (X), which the check decides by noting whether any client reads
    /// and any writes, without allocating. Returns whether the line was
    /// checked at all (the `kernel_work/select_checks` count).
    pub(crate) fn check_select(
        &mut self,
        cycle: u64,
        accesses: Option<&Vec<BankAccess>>,
        select_line: SharedLineKind,
        monitor: &mut MonitorComponent,
    ) -> bool {
        if self.clients.is_empty() || self.flagged || select_line != SharedLineKind::TriState {
            return false;
        }
        let (mut reads, mut writes) = (false, false);
        if let Some(accs) = accesses {
            for &t in &self.clients {
                match accs.iter().find(|a| a.task == t) {
                    Some(a) if a.write.is_some() => writes = true,
                    Some(_) => reads = true,
                    None => {}
                }
            }
        }
        if reads == writes {
            self.flagged = true;
            monitor.push(Violation::FloatingSelectLine {
                cycle,
                bank: self.id,
            });
        }
        true
    }

    /// Applies one cycle's accesses.
    ///
    /// A single-ported bank exposes one set of address/data/select lines:
    /// *any* two simultaneous accesses — even two reads — collide on the
    /// address lines, so more than one access is a conflict and nothing
    /// is served.
    ///
    /// # Panics
    ///
    /// Panics if an address is out of range (the memory binding guarantees
    /// in-range addresses for well-formed designs).
    pub fn cycle(&mut self, accesses: &[BankAccess]) -> BankOutcome {
        match accesses {
            [] => BankOutcome::Idle,
            [a] => {
                assert!(
                    (a.addr as usize) < self.words.len(),
                    "address {} out of range for bank {}",
                    a.addr,
                    self.id
                );
                self.accesses += 1;
                match a.write {
                    Some(v) => {
                        self.words[a.addr as usize] = v;
                        BankOutcome::Ok {
                            task: a.task,
                            read_value: None,
                        }
                    }
                    None => BankOutcome::Ok {
                        task: a.task,
                        read_value: Some(self.words[a.addr as usize]),
                    },
                }
            }
            many => {
                self.conflicts += 1;
                let mut tasks: Vec<TaskId> = many.iter().map(|a| a.task).collect();
                tasks.sort();
                tasks.dedup();
                BankOutcome::Conflict { tasks }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }

    #[test]
    fn single_write_then_read() {
        let mut bank = BankModel::new(BankId::new(0), 16);
        let w = bank.cycle(&[BankAccess {
            task: t(0),
            addr: 3,
            write: Some(42),
        }]);
        assert!(matches!(
            w,
            BankOutcome::Ok {
                read_value: None,
                ..
            }
        ));
        let r = bank.cycle(&[BankAccess {
            task: t(1),
            addr: 3,
            write: None,
        }]);
        assert_eq!(
            r,
            BankOutcome::Ok {
                task: t(1),
                read_value: Some(42)
            }
        );
        assert_eq!(bank.accesses(), 2);
    }

    #[test]
    fn two_reads_still_conflict() {
        // Address lines are shared; even two reads collide.
        let mut bank = BankModel::new(BankId::new(0), 4);
        let out = bank.cycle(&[
            BankAccess {
                task: t(0),
                addr: 0,
                write: None,
            },
            BankAccess {
                task: t(1),
                addr: 1,
                write: None,
            },
        ]);
        assert_eq!(
            out,
            BankOutcome::Conflict {
                tasks: vec![t(0), t(1)]
            }
        );
        assert_eq!(bank.conflicts(), 1);
    }

    #[test]
    fn conflicting_write_is_dropped() {
        let mut bank = BankModel::new(BankId::new(0), 4);
        bank.set_word(2, 7);
        let _ = bank.cycle(&[
            BankAccess {
                task: t(0),
                addr: 2,
                write: Some(1),
            },
            BankAccess {
                task: t(1),
                addr: 2,
                write: Some(9),
            },
        ]);
        // The conflicted write must not corrupt deterministic state.
        assert_eq!(bank.word(2), 7);
    }

    #[test]
    fn idle_cycles_change_nothing() {
        let mut bank = BankModel::new(BankId::new(0), 4);
        assert_eq!(bank.cycle(&[]), BankOutcome::Idle);
        assert_eq!(bank.accesses(), 0);
    }

    /// The select check flags exactly the cycles whose resolved line
    /// (`resolve_line` over each client's drive) is neither 0 nor 1,
    /// for every line kind, 0..=4 clients and every idle/read/write
    /// assignment of the clients, and flags a bank only once.
    #[test]
    fn select_check_flags_exactly_the_lines_that_resolve_to_no_level() {
        use crate::value::resolve_line;
        use rcarb_core::line::IdleDrive;
        for kind in [
            SharedLineKind::TriState,
            SharedLineKind::ActiveHighOr,
            SharedLineKind::ActiveLowAnd,
        ] {
            let idle = match kind.idle_drive() {
                IdleDrive::HighZ => None,
                IdleDrive::Low => Some(false),
                IdleDrive::High => Some(true),
            };
            for n in 0..=4u32 {
                // Each client idles (0), reads (1) or writes (2).
                for code in 0..3u32.pow(n) {
                    let ops: Vec<u32> = (0..n).map(|c| code / 3u32.pow(c) % 3).collect();
                    let accesses: Vec<BankAccess> = ops
                        .iter()
                        .enumerate()
                        .filter(|&(_, &op)| op != 0)
                        .map(|(c, &op)| BankAccess {
                            task: t(c as u32),
                            addr: 0,
                            write: (op == 2).then_some(7),
                        })
                        .collect();
                    let drivers: Vec<Option<bool>> = ops
                        .iter()
                        .map(|&op| match op {
                            0 => idle,
                            1 => Some(false),
                            _ => Some(true),
                        })
                        .collect();
                    let floats = n > 0 && resolve_line(kind, &drivers).to_bool().is_none();
                    let mut bank = BankModel::new(BankId::new(0), 4);
                    bank.set_clients((0..n).map(t).collect(), kind);
                    let mut monitor = MonitorComponent::new();
                    let traffic = (!accesses.is_empty()).then_some(&accesses);
                    for cycle in 0..2 {
                        bank.check_select(cycle, traffic, kind, &mut monitor);
                    }
                    let flagged = monitor
                        .violations()
                        .iter()
                        .filter(|v| matches!(v, Violation::FloatingSelectLine { cycle: 0, .. }))
                        .count();
                    assert_eq!(
                        flagged,
                        usize::from(floats),
                        "{kind:?} with client ops {ops:?}"
                    );
                    assert_eq!(monitor.violations().len(), flagged, "flagged twice");
                    if ops.iter().all(|&op| op == 0) {
                        assert!(!bank.idle_may_float(), "{kind:?}, {n} clients");
                        let mut fresh = BankModel::new(BankId::new(0), 4);
                        fresh.set_clients((0..n).map(t).collect(), kind);
                        assert_eq!(fresh.idle_may_float(), floats, "{kind:?}, {n} clients");
                    }
                }
            }
        }
    }
}
