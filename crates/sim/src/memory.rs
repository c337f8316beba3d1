//! Physical memory bank models.

use crate::component::MonitorComponent;
use crate::monitor::Violation;
use crate::value::resolve_line;
use rcarb_board::memory::BankId;
use rcarb_core::line::{IdleDrive, SharedLineKind};
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
    /// all-idle cycle floats the select line under `select_line`.
    pub(crate) fn set_clients(&mut self, clients: Vec<TaskId>, select_line: SharedLineKind) {
        let idle: Vec<Option<bool>> = clients.iter().map(|_| idle_value(select_line)).collect();
        self.idle_floats =
            !clients.is_empty() && resolve_line(select_line, &idle).to_bool().is_none();
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

    /// The Fig. 4 select-line check for one cycle: collect each client's
    /// drive (write -> 1, read -> 0, idle -> per discipline), resolve,
    /// and report a float once per bank. `accesses` is this cycle's
    /// traffic on this bank, if any.
    pub(crate) fn check_select(
        &mut self,
        cycle: u64,
        accesses: Option<&Vec<BankAccess>>,
        select_line: SharedLineKind,
        monitor: &mut MonitorComponent,
    ) {
        if self.clients.is_empty() || self.flagged {
            return;
        }
        let drivers: Vec<Option<bool>> = self
            .clients
            .iter()
            .map(|&t| {
                accesses
                    .and_then(|accs| accs.iter().find(|a| a.task == t))
                    .map(|a| a.write.is_some())
                    .or(idle_value(select_line))
            })
            .collect();
        if resolve_line(select_line, &drivers).to_bool().is_none() {
            self.flagged = true;
            monitor.push(Violation::FloatingSelectLine {
                cycle,
                bank: self.id,
            });
        }
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

/// A client's idle drive on the select line, as an optional logic level.
fn idle_value(select_line: SharedLineKind) -> Option<bool> {
    match select_line.idle_drive() {
        IdleDrive::HighZ => None,
        IdleDrive::Low => Some(false),
        IdleDrive::High => Some(true),
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
}
