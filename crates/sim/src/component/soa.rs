//! Structure-of-arrays state behind the one cycle body both kernels
//! execute.
//!
//! - [`ReqMatrix`] — every arbiter's request word as a `u64` bitset,
//!   maintained incrementally from request-line *edges* instead of being
//!   reassembled from scratch, beside the words each arbiter sampled and
//!   granted in the executing cycle;
//! - [`CycleArena`] — reused per-cycle traffic buffers (bank accesses,
//!   route sends, pending reads) with dense touched-lists, so a cycle
//!   allocates nothing at steady state;
//! - [`DenseTables`] — flat index-addressed lookup tables for segment
//!   placements, access guards, channel routes and bank slots, updated
//!   in place when recovery moves a bank or a channel;
//! - [`BatchedEnv`] — the environment the task interpreter executes
//!   against.
//!
//! The legacy kernel runs the very same cycle body over this state
//! with skipping, parking and wait deferral off, and samples every
//! arbiter's request word reassembled from the task lines
//! (`ArbiterSim::compute_word`) rather than from the matrix. Those are
//! the only differences, so `tests/kernel_equivalence.rs`, which holds
//! the two kernels to byte-identical reports, VCD and memory, checks
//! the skip, park and defer decisions and the matrix's incremental
//! edges; the lookups here are checked against the binding, guard and
//! route answers by this module's tests.

use super::monitor::MonitorComponent;
use super::task::{ReadFault, TaskComponent};
use crate::arbiter::ArbiterSim;
use crate::channel::{RouteSend, RouteState};
use crate::fault::FaultController;
use crate::memory::BankAccess;
use crate::monitor::Violation;
use crate::scheduler::WakeList;
use rcarb_board::memory::BankId;
use rcarb_core::memmap::MemoryBinding;
use rcarb_taskgraph::id::{ArbiterId, ChannelId, SegmentId, TaskId, VarId};
use std::collections::BTreeMap;

/// Every arbiter's request word, maintained incrementally, beside the
/// words it sampled and granted in the executing cycle.
///
/// A port's bit is the OR of its member tasks' request lines, exactly
/// as [`ArbiterSim::request_word`](crate::arbiter::ArbiterSim) wires
/// them; since several tasks can share a port, the matrix keeps a
/// per-port count of asserted member lines and flips the word bit on
/// the zero/non-zero edges. Request lines change only through
/// `ReqAssert`/`ReqDeassert`, which report their edges through
/// [`CycleEnv::note_request`], so the words stay exact without ever
/// being reassembled.
#[derive(Debug)]
pub(crate) struct ReqMatrix {
    n_tasks: usize,
    /// Two tables in one allocation. First the arbiter-major flat LUT:
    /// `pool[a * n_tasks + t]` is the port task `t` drives on arbiter
    /// `a`, plus one (zero = drives none). Then the asserted member
    /// lines per (arbiter, port), from each arbiter's `port_base`.
    pool: Vec<u16>,
    /// Per-arbiter words, by arbiter position.
    arbiters: Vec<ArbiterWords>,
}

/// One arbiter's row of the [`ReqMatrix`].
#[derive(Debug, Clone, Copy, Default)]
struct ArbiterWords {
    /// Offset of the arbiter's per-port line counts in `pool`.
    port_base: usize,
    /// The request word the task lines assemble.
    word: u64,
    /// The (possibly fault-perturbed) request word sampled this cycle.
    sampled: u64,
    /// The grant word issued this cycle.
    grant: u64,
}

impl ReqMatrix {
    /// Builds the matrix from the arbiters' port maps and the tasks'
    /// current request lines.
    pub(crate) fn new(arbiters: &[ArbiterSim], tasks: &[TaskComponent]) -> Self {
        let n_tasks = tasks.len();
        let lut = arbiters.len() * n_tasks;
        let total_ports: usize = arbiters.iter().map(ArbiterSim::num_ports).sum();
        let mut pool = vec![0u16; lut + total_ports];
        let mut rows = Vec::with_capacity(arbiters.len());
        let mut port_base = lut;
        for (ai, a) in arbiters.iter().enumerate() {
            rows.push(ArbiterWords {
                port_base,
                ..ArbiterWords::default()
            });
            port_base += a.num_ports();
            for (ti, t) in tasks.iter().enumerate() {
                if let Some(p) = a.port_of(t.id()) {
                    pool[ai * n_tasks + ti] = (p + 1) as u16;
                }
            }
        }
        let mut m = Self {
            n_tasks,
            pool,
            arbiters: rows,
        };
        for (ai, a) in arbiters.iter().enumerate() {
            for t in tasks {
                if t.requesting(a.id()) {
                    m.note_edge(ai, t.id(), false, true);
                }
            }
        }
        m
    }

    /// The current request word of the arbiter at `index`.
    pub(crate) fn word(&self, index: usize) -> u64 {
        self.arbiters[index].word
    }

    /// The grant word the arbiter at `index` issued this cycle.
    pub(crate) fn grant(&self, index: usize) -> u64 {
        self.arbiters.get(index).map_or(0, |a| a.grant)
    }

    /// Records what the arbiter at `index` sampled and granted this
    /// cycle.
    pub(crate) fn note_cycle(&mut self, index: usize, sampled: u64, grant: u64) {
        let a = &mut self.arbiters[index];
        a.sampled = sampled;
        a.grant = grant;
    }

    /// Every arbiter's sampled request word and grant word this cycle,
    /// in arbiter order.
    pub(crate) fn sampled_lines(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.arbiters.iter().map(|a| (a.sampled, a.grant))
    }

    /// The port `task` drives on the arbiter at `index`, if any.
    pub(crate) fn port_of(&self, index: usize, task: TaskId) -> Option<usize> {
        if index >= self.arbiters.len() || task.index() >= self.n_tasks {
            return None;
        }
        let p = self.pool[index * self.n_tasks + task.index()];
        (p != 0).then(|| (p - 1) as usize)
    }

    /// Applies one request-line edge (`was` -> `now`) from `task` on
    /// the arbiter at `index`.
    pub(crate) fn note_edge(&mut self, index: usize, task: TaskId, was: bool, now: bool) {
        if was == now {
            return;
        }
        let Some(p) = self.port_of(index, task) else {
            return;
        };
        let row = &mut self.arbiters[index];
        let lines = &mut self.pool[row.port_base + p];
        if now {
            *lines += 1;
            if *lines == 1 {
                row.word |= 1 << p;
            }
        } else {
            *lines -= 1;
            if *lines == 0 {
                row.word &= !(1 << p);
            }
        }
    }
}

/// Reused per-cycle traffic buffers.
///
/// The arena keeps one buffer per bank slot and per route alive across
/// the whole run and tracks which were touched, so a cycle costs clears
/// of *touched* buffers only and no allocation at steady state.
#[derive(Debug)]
pub(crate) struct CycleArena {
    /// Collected accesses per bank slot.
    bank_accesses: Vec<Vec<BankAccess>>,
    /// Bank slots with accesses this cycle.
    touched_banks: Vec<u32>,
    /// Reads awaiting bank resolution: `(bank, task, dst, mask)`.
    pub(crate) pending_reads: Vec<(BankId, TaskId, VarId, u64)>,
    /// Collected sends per route.
    route_sends: Vec<Vec<RouteSend>>,
    /// Routes with sends this cycle.
    touched_routes: Vec<u32>,
}

impl CycleArena {
    /// Empty buffers for a system of the given shape.
    pub(crate) fn new(n_banks: usize, n_routes: usize) -> Self {
        Self {
            bank_accesses: vec![Vec::new(); n_banks],
            touched_banks: Vec::new(),
            pending_reads: Vec::new(),
            route_sends: vec![Vec::new(); n_routes],
            touched_routes: Vec::new(),
        }
    }

    /// Grows the per-bank / per-route buffers after a quarantine or
    /// re-route added slots.
    pub(crate) fn ensure(&mut self, n_banks: usize, n_routes: usize) {
        if self.bank_accesses.len() < n_banks {
            self.bank_accesses.resize_with(n_banks, Vec::new);
        }
        if self.route_sends.len() < n_routes {
            self.route_sends.resize_with(n_routes, Vec::new);
        }
    }

    /// Clears last cycle's traffic (touched buffers only).
    pub(crate) fn begin_cycle(&mut self) {
        for &s in &self.touched_banks {
            self.bank_accesses[s as usize].clear();
        }
        self.touched_banks.clear();
        for &r in &self.touched_routes {
            self.route_sends[r as usize].clear();
        }
        self.touched_routes.clear();
        self.pending_reads.clear();
    }

    /// Collects one bank access.
    pub(crate) fn push_access(&mut self, slot: u32, access: BankAccess) {
        let v = &mut self.bank_accesses[slot as usize];
        if v.is_empty() {
            self.touched_banks.push(slot);
        }
        v.push(access);
    }

    /// Collects one route send.
    pub(crate) fn push_send(&mut self, route: u32, send: RouteSend) {
        let v = &mut self.route_sends[route as usize];
        if v.is_empty() {
            self.touched_routes.push(route);
        }
        v.push(send);
    }

    /// Sorts the touched bank slots into `BankId` order, the order the
    /// violation sequence is defined in. Tasks touch banks in task
    /// order, and quarantine can append a spare bank whose id is out of
    /// slot order, so neither touch order nor slot order is id order.
    pub(crate) fn sort_touched_banks(&mut self, id_of: impl Fn(u32) -> BankId) {
        self.touched_banks.sort_unstable_by_key(|&s| id_of(s));
    }

    /// Sorts the touched routes into index order.
    pub(crate) fn sort_touched_routes(&mut self) {
        self.touched_routes.sort_unstable();
    }

    /// Bank slots touched this cycle (in id order after
    /// [`sort_touched_banks`](Self::sort_touched_banks)).
    pub(crate) fn touched_banks(&self) -> &[u32] {
        &self.touched_banks
    }

    /// Routes touched this cycle.
    pub(crate) fn touched_routes(&self) -> &[u32] {
        &self.touched_routes
    }

    /// This cycle's accesses on a bank slot.
    pub(crate) fn accesses(&self, slot: u32) -> &[BankAccess] {
        &self.bank_accesses[slot as usize]
    }

    /// This cycle's accesses on a bank slot, in the `Option<&Vec>`
    /// shape [`BankModel::check_select`] consumes (`None` when the
    /// slot saw no traffic, like a map miss).
    ///
    /// [`BankModel::check_select`]: crate::memory::BankModel::check_select
    pub(crate) fn accesses_of(&self, slot: u32) -> Option<&Vec<BankAccess>> {
        let v = &self.bank_accesses[slot as usize];
        (!v.is_empty()).then_some(v)
    }

    /// Visits every touched route's sends mutably, in touched order.
    pub(crate) fn for_each_route_mut(&mut self, mut f: impl FnMut(u32, &mut Vec<RouteSend>)) {
        let Self {
            touched_routes,
            route_sends,
            ..
        } = self;
        for &r in touched_routes.iter() {
            f(r, &mut route_sends[r as usize]);
        }
    }

    /// Visits every touched route's sends, in touched order.
    pub(crate) fn for_each_route(&self, mut f: impl FnMut(u32, &[RouteSend])) {
        for &r in &self.touched_routes {
            f(r, &self.route_sends[r as usize]);
        }
    }
}

/// Flat index-addressed lookup tables for the hot per-instruction
/// questions: segment placement, access guards, channel routing and
/// bank slots. Built from the design's maps once; a quarantine or
/// re-route updates the rows it moves in place.
#[derive(Debug)]
pub(crate) struct DenseTables {
    n_segments: usize,
    n_channels: usize,
    /// `segment.index()` -> (bank, in-bank offset).
    placements: Vec<Option<(BankId, u32)>>,
    /// `task.index() * n_segments + segment.index()` -> guard.
    seg_guards: Vec<Option<ArbiterId>>,
    /// `task.index() * n_channels + channel.index()` -> guard.
    chan_guards: Vec<Option<ArbiterId>>,
    /// `channel.index()` -> route index plus one (zero = unrouted).
    route_of: Vec<u32>,
    /// `bank.index()` -> bank slot plus one (zero = unmodelled).
    bank_slot: Vec<u32>,
}

impl DenseTables {
    /// Builds the tables from the system builder's maps.
    pub(crate) fn new(
        n_tasks: usize,
        binding: &MemoryBinding,
        segment_guards: &BTreeMap<(TaskId, SegmentId), ArbiterId>,
        channel_guards: &BTreeMap<(TaskId, ChannelId), ArbiterId>,
        route_of_channel: &BTreeMap<ChannelId, usize>,
        bank_ids: &[BankId],
    ) -> Self {
        let mut placed: Vec<(SegmentId, BankId, u32)> = Vec::new();
        for bank in binding.used_banks() {
            for seg in binding.segments_in(bank) {
                if let Some(p) = binding.placement(seg) {
                    placed.push((seg, p.bank, p.offset));
                }
            }
        }
        let n_segments = placed
            .iter()
            .map(|&(s, _, _)| s.index() + 1)
            .chain(segment_guards.keys().map(|&(_, s)| s.index() + 1))
            .max()
            .unwrap_or(0);
        let n_channels = route_of_channel
            .keys()
            .map(|c| c.index() + 1)
            .chain(channel_guards.keys().map(|&(_, c)| c.index() + 1))
            .max()
            .unwrap_or(0);
        let mut placements = vec![None; n_segments];
        for (seg, bank, offset) in placed {
            placements[seg.index()] = Some((bank, offset));
        }
        let mut seg_guards = vec![None; n_tasks * n_segments];
        for (&(t, s), &a) in segment_guards {
            seg_guards[t.index() * n_segments + s.index()] = Some(a);
        }
        let mut chan_guards = vec![None; n_tasks * n_channels];
        for (&(t, c), &a) in channel_guards {
            chan_guards[t.index() * n_channels + c.index()] = Some(a);
        }
        let mut route_of = vec![0u32; n_channels];
        for (&c, &r) in route_of_channel {
            route_of[c.index()] = (r + 1) as u32;
        }
        let n_banks = bank_ids.iter().map(|b| b.index() + 1).max().unwrap_or(0);
        let mut bank_slot = vec![0u32; n_banks];
        for (slot, b) in bank_ids.iter().enumerate() {
            bank_slot[b.index()] = (slot + 1) as u32;
        }
        Self {
            n_segments,
            n_channels,
            placements,
            seg_guards,
            chan_guards,
            route_of,
            bank_slot,
        }
    }

    /// The placement of `segment`, if bound.
    pub(crate) fn placement(&self, segment: SegmentId) -> Option<(BankId, u32)> {
        *self.placements.get(segment.index())?
    }

    /// The arbiter guarding `task`'s accesses to `segment`, if any.
    pub(crate) fn segment_guard(&self, task: TaskId, segment: SegmentId) -> Option<ArbiterId> {
        if segment.index() >= self.n_segments {
            return None;
        }
        *self
            .seg_guards
            .get(task.index() * self.n_segments + segment.index())?
    }

    /// The arbiter guarding `task`'s sends on `channel`, if any.
    pub(crate) fn channel_guard(&self, task: TaskId, channel: ChannelId) -> Option<ArbiterId> {
        if channel.index() >= self.n_channels {
            return None;
        }
        *self
            .chan_guards
            .get(task.index() * self.n_channels + channel.index())?
    }

    /// The route carrying `channel`, if routed.
    pub(crate) fn route_of(&self, channel: ChannelId) -> Option<u32> {
        let r = *self.route_of.get(channel.index())?;
        (r != 0).then(|| r - 1)
    }

    /// The dense slot of `bank`, if modelled.
    pub(crate) fn bank_slot(&self, bank: BankId) -> Option<u32> {
        let s = *self.bank_slot.get(bank.index())?;
        (s != 0).then(|| s - 1)
    }

    /// Moves the placed `segment` to `bank` at `offset` (quarantine).
    pub(crate) fn place(&mut self, segment: SegmentId, bank: BankId, offset: u32) {
        self.placements[segment.index()] = Some((bank, offset));
    }

    /// Registers a newly modelled `bank` at `slot` (quarantine).
    pub(crate) fn add_bank(&mut self, bank: BankId, slot: usize) {
        if self.bank_slot.len() <= bank.index() {
            self.bank_slot.resize(bank.index() + 1, 0);
        }
        self.bank_slot[bank.index()] = (slot + 1) as u32;
    }

    /// Moves the routed `channel` onto `route` (re-route).
    pub(crate) fn reroute(&mut self, channel: ChannelId, route: usize) {
        self.route_of[channel.index()] = (route + 1) as u32;
    }
}

/// A sleeper the batched kernel stopped stepping: a task that stepped
/// into a multi-cycle `Compute` whose every cycle but the last only
/// counts down and adds a busy cycle. It is settled in one
/// [`TaskComponent::skip`] and stepped again on the compute's last
/// cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParkedSleep {
    /// The compute's last cycle: the task is settled and stepped there.
    pub(crate) wake: u64,
    /// The first cycle not yet credited to the task.
    pub(crate) accounted_to: u64,
}

/// The whole SoA state both kernels execute over: matrix, arena, tables
/// and the batched kernel's wake-list and per-task slots, owned by the
/// engine alongside the units it mirrors.
#[derive(Debug)]
pub(crate) struct BatchedState {
    /// Incremental request words.
    pub(crate) matrix: ReqMatrix,
    /// Reused per-cycle traffic buffers.
    pub(crate) arena: CycleArena,
    /// Flat lookup tables.
    pub(crate) tables: DenseTables,
    /// Dense running/pending task index lists.
    pub(crate) wake_list: WakeList,
    /// Per-task bookkeeping, by task index.
    pub(crate) task_slots: Vec<TaskSlot>,
}

/// The batched kernel's bookkeeping for one task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskSlot {
    /// Deferred blocked-cycle count: cycles the task sat in a plain
    /// grant or data wait without being stepped. Flushed into
    /// stall/starvation/wake accounting before the task next executes,
    /// before recovery may mutate task state, and before the run
    /// report is built — so every observable total is byte-identical
    /// to stepping the task every cycle.
    pub(crate) deferred_wait: u64,
    /// The parked sleeper, beside the deferred wait: neither stepped,
    /// refreshed nor skipped until its wake cycle, and settled on the
    /// same flush path as the wait.
    pub(crate) parked: Option<ParkedSleep>,
    /// May the task be parked? False under the legacy kernel, and for
    /// a task a `TaskHang` fault targets, whose controller must sample
    /// the hang every cycle.
    pub(crate) parkable: bool,
}

impl BatchedState {
    /// Builds the SoA state of a freshly constructed system;
    /// `parkable` says which tasks may be parked in a multi-cycle
    /// compute.
    pub(crate) fn new(
        arbiters: &[ArbiterSim],
        tasks: &[TaskComponent],
        parkable: impl Fn(TaskId) -> bool,
        tables: DenseTables,
        n_banks: usize,
        n_routes: usize,
    ) -> Self {
        // The matrix rows are indexed by arbiter *position*; the
        // interpreter looks grants up by `ArbiterId::index()`.
        debug_assert!(
            arbiters
                .iter()
                .enumerate()
                .all(|(i, a)| a.id().index() == i),
            "arbiter ids must be positional"
        );
        let mut wake_list = WakeList::default();
        wake_list.rebuild(
            tasks.len(),
            |i| tasks[i].status() == super::TaskStatus::Running,
            |i| tasks[i].status() == super::TaskStatus::NotStarted,
        );
        Self {
            matrix: ReqMatrix::new(arbiters, tasks),
            arena: CycleArena::new(n_banks, n_routes),
            tables,
            wake_list,
            task_slots: tasks
                .iter()
                .map(|t| TaskSlot {
                    deferred_wait: 0,
                    parked: None,
                    parkable: parkable(t.id()),
                })
                .collect(),
        }
    }

    /// The busy cycles the parked sleepers have slept since they were
    /// last settled, as of cycle `now`: what stepping them would have
    /// added to their busy counts.
    pub(crate) fn parked_busy(&self, now: u64) -> u64 {
        self.task_slots
            .iter()
            .filter_map(|s| s.parked)
            .map(|p| now - p.accounted_to)
            .sum()
    }
}

/// The environment a task borrows for one execution cycle, in both
/// kernels: this cycle's grants (the matrix rows), the route registers
/// and the flat lookup tables, plus the arena the task's memory and
/// channel traffic is collected in for the bank and route phases.
pub(crate) struct BatchedEnv<'a> {
    /// The executing cycle.
    pub(crate) cycle: u64,
    /// All arbiters (for validation-time port checks only; grants and
    /// ports resolve through the matrix).
    pub(crate) arbiters: &'a [ArbiterSim],
    /// All channel routes.
    pub(crate) routes: &'a [RouteState],
    /// The violation/starvation monitor.
    pub(crate) monitor: &'a mut MonitorComponent,
    /// This cycle's traffic arena.
    pub(crate) arena: &'a mut CycleArena,
    /// The incremental request matrix (receives request edges, holds
    /// this cycle's grants).
    pub(crate) matrix: &'a mut ReqMatrix,
    /// Flat lookup tables.
    pub(crate) tables: &'a DenseTables,
    /// The compiled fault plan, when this run injects faults.
    pub(crate) faults: &'a mut Option<FaultController>,
    /// Replay faulted reads instead of consuming the corrupted word
    /// ([`RecoveryPolicy::retry_reads`]).
    ///
    /// [`RecoveryPolicy::retry_reads`]: crate::fault::RecoveryPolicy::retry_reads
    pub(crate) retry_reads: bool,
}

impl BatchedEnv<'_> {
    /// Whether `task` holds `arbiter`'s grant this cycle.
    pub(crate) fn task_granted(&self, arbiter: ArbiterId, task: TaskId) -> bool {
        let i = arbiter.index();
        let Some(p) = self.matrix.port_of(i, task) else {
            return false;
        };
        debug_assert_eq!(
            Some(p),
            self.arbiters.get(i).and_then(|a| a.port_of(task)),
            "matrix port table out of sync"
        );
        self.matrix.grant(i) >> p & 1 != 0
    }

    /// Reports an `AccessWithoutGrant` if `task` touches a resource
    /// `guard` arbitrates without holding its grant.
    pub(crate) fn check_grant(&mut self, task: TaskId, guard: Option<ArbiterId>) {
        if let Some(arbiter) = guard {
            if !self.task_granted(arbiter, task) {
                self.monitor.push(Violation::AccessWithoutGrant {
                    cycle: self.cycle,
                    task,
                    arbiter,
                });
            }
        }
    }

    /// Reads the route register visible to `channel`'s receiver.
    pub(crate) fn route_read(&self, channel: ChannelId) -> Option<u64> {
        let r = self.tables.route_of(channel)?;
        self.routes[r as usize].read(channel)
    }

    /// Collects one bank access for the bank-resolution phase.
    pub(crate) fn push_access(&mut self, bank: BankId, access: BankAccess) {
        // Placements are validated in `try_build`, so the slot exists;
        // degrade to a dropped access otherwise.
        if let Some(slot) = self.tables.bank_slot(bank) {
            self.arena.push_access(slot, access);
        }
    }

    /// Collects one read awaiting its bank's resolution; `mask` is
    /// XOR'd into the delivered word and is zero on the fault-free path.
    pub(crate) fn push_pending_read(&mut self, bank: BankId, task: TaskId, dst: VarId, mask: u64) {
        self.arena.pending_reads.push((bank, task, dst, mask));
    }

    /// Collects one channel send for the route-resolution phase
    /// (dropped when the channel is unrouted).
    pub(crate) fn push_send(&mut self, channel: ChannelId, send: RouteSend) {
        if let Some(r) = self.tables.route_of(channel) {
            self.arena.push_send(r, send);
        }
    }

    /// Applies a request-line edge (`was` -> `now`) on `arbiter` to the
    /// request matrix.
    pub(crate) fn note_request(&mut self, arbiter: ArbiterId, task: TaskId, was: bool, now: bool) {
        self.matrix.note_edge(arbiter.index(), task, was, now);
    }

    /// Whether a live hang fault freezes `task` this cycle.
    pub(crate) fn task_hung(&mut self, task: TaskId) -> bool {
        let cycle = self.cycle;
        self.faults
            .as_mut()
            .is_some_and(|fc| fc.task_hung(task, cycle))
    }

    /// Consults the fault plan for a read of `bank` by `task` this
    /// cycle; a failed parity check is recorded as a
    /// [`Violation::BankReadFault`] at the injection cycle.
    pub(crate) fn bank_read_fault(&mut self, bank: BankId, task: TaskId) -> ReadFault {
        let cycle = self.cycle;
        let Some(mask) = self
            .faults
            .as_mut()
            .and_then(|fc| fc.read_fault(bank, cycle))
        else {
            return ReadFault::None;
        };
        self.monitor
            .push(Violation::BankReadFault { cycle, bank, task });
        if self.retry_reads {
            ReadFault::Retry
        } else {
            ReadFault::Corrupt(mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{System, SystemBuilder};
    use crate::fault::{FaultPlan, FaultWindow, RecoveryPolicy};
    use rcarb_board::board::{Board, PeId};
    use rcarb_board::presets;
    use rcarb_core::channel::{plan_merges, ChannelMergePlan};
    use rcarb_core::insertion::{
        insert_arbiters, ArbitratedResource, ArbitrationPlan, InsertionConfig,
    };
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::graph::TaskGraph;
    use rcarb_taskgraph::program::{Expr, Program};

    /// A design whose tables hold every kind of row. Writers `W0..W2`
    /// (on PE0) send to readers `R0..R2` (on PE1) over `c0..c2`, more
    /// channels than the boards below route between two PEs, so two
    /// writers share a merged, arbitrated route; `W0` also sends to
    /// `W1` over the on-chip `local`, which gets a private route. `W0`
    /// and `W2` share segment `A`, `W1` and `R1` share `B`, and `C` is
    /// written by `R0` alone.
    fn design() -> (TaskGraph, [SegmentId; 3], [ChannelId; 4]) {
        let mut b = TaskGraphBuilder::new("tables");
        let seg = [
            b.segment("A", 16, 16),
            b.segment("B", 16, 16),
            b.segment("C", 16, 16),
        ];
        let w: Vec<TaskId> = (0..3)
            .map(|i| b.task(format!("W{i}"), Program::empty()))
            .collect();
        let r: Vec<TaskId> = (0..3)
            .map(|i| b.task(format!("R{i}"), Program::empty()))
            .collect();
        let ch: Vec<ChannelId> = (0..3)
            .map(|i| b.channel(format!("c{i}"), 16, w[i], r[i]))
            .collect();
        let local = b.channel("local", 16, w[0], w[1]);
        let mut graph = b.finish().expect("valid design");
        for i in 0..3 {
            let (read, chan) = (seg[[0, 1, 0][i]], ch[i]);
            graph.task_mut(w[i]).set_program(Program::build(move |p| {
                for k in 0..4u64 {
                    let v = p.mem_read(read, Expr::lit(k));
                    p.send(chan, Expr::add(Expr::var(v), Expr::lit(k)));
                }
                match i {
                    0 => p.send(local, Expr::lit(7)),
                    1 => {
                        let _ = p.recv(local);
                    }
                    _ => {}
                }
            }));
            let write = [Some(seg[2]), Some(seg[1]), None][i];
            graph.task_mut(r[i]).set_program(Program::build(move |p| {
                p.compute(20);
                let v = p.recv(chan);
                if let Some(write) = write {
                    p.mem_write(write, Expr::lit(1), Expr::var(v));
                }
            }));
        }
        (graph, seg, [ch[0], ch[1], ch[2], local])
    }

    /// Arbitrates `graph` with the writers on PE0 and the readers on
    /// PE1.
    fn arbitrate(
        graph: &TaskGraph,
        board: &Board,
        binding: &MemoryBinding,
    ) -> (ArbitrationPlan, ChannelMergePlan) {
        let place = |t: TaskId| PeId::new(u32::from(t.index() >= 3));
        let merges = plan_merges(graph, board, &place).expect("routes exist");
        assert!(
            merges.merges().iter().any(|m| m.needs_arbiter()),
            "two writers must share a route"
        );
        let plan = insert_arbiters(graph, binding, &merges, &InsertionConfig::paper());
        (plan, merges)
    }

    /// Checks every lookup of `sys`'s tables against the answer of the
    /// maps they replace: the live binding; the guards the plan and
    /// its build-time `binding` imply; the routes the merge plan
    /// implies, with each channel in `rerouted` moved, in order, onto a
    /// fresh route after them; and the modelled bank slots.
    fn assert_tables_match(
        sys: &System,
        plan: &ArbitrationPlan,
        binding: &MemoryBinding,
        merges: &ChannelMergePlan,
        board: &Board,
        rerouted: &[ChannelId],
    ) {
        let graph = &plan.graph;
        let tables = sys.dense_tables();
        for s in graph.segments() {
            let want = sys.binding().placement(s.id()).map(|p| (p.bank, p.offset));
            assert_eq!(tables.placement(s.id()), want, "placement of {}", s.id());
        }
        let mut seg_guards = BTreeMap::new();
        let mut chan_guards = BTreeMap::new();
        for inst in &plan.arbiters {
            for task in inst.arbitrated_tasks() {
                match inst.resource {
                    ArbitratedResource::Bank(bank) => {
                        for s in graph.task(task).program().segments_accessed() {
                            if binding.bank_of(s) == Some(bank) {
                                seg_guards.insert((task, s), inst.id);
                            }
                        }
                    }
                    ArbitratedResource::MergedChannel(mi) => {
                        for &c in &merges.merges()[mi].logicals {
                            if graph.channel(c).writer() == task {
                                chan_guards.insert((task, c), inst.id);
                            }
                        }
                    }
                }
            }
        }
        assert!(!seg_guards.is_empty() && !chan_guards.is_empty());
        for t in graph.tasks() {
            for s in graph.segments() {
                let want = seg_guards.get(&(t.id(), s.id())).copied();
                let got = tables.segment_guard(t.id(), s.id());
                assert_eq!(got, want, "guard of ({}, {})", t.id(), s.id());
            }
            for c in graph.channels() {
                let want = chan_guards.get(&(t.id(), c.id())).copied();
                let got = tables.channel_guard(t.id(), c.id());
                assert_eq!(got, want, "guard of ({}, {})", t.id(), c.id());
            }
        }
        // One route per merge group, then a private route per channel
        // no merge carries, in channel order.
        let mut route_of: BTreeMap<ChannelId, u32> = BTreeMap::new();
        for (i, m) in merges.merges().iter().enumerate() {
            for &c in &m.logicals {
                route_of.insert(c, i as u32);
            }
        }
        let mut next = merges.merges().len() as u32;
        for c in graph.channels() {
            route_of.entry(c.id()).or_insert_with(|| {
                next += 1;
                next - 1
            });
        }
        for &c in rerouted {
            route_of.insert(c, next);
            next += 1;
        }
        for c in graph.channels() {
            let want = route_of.get(&c.id()).copied();
            assert_eq!(tables.route_of(c.id()), want, "route of {}", c.id());
        }
        for i in 0..board.banks().len() {
            let bank = BankId::new(i as u32);
            let want = sys.bank_slot(bank).map(|s| s as u32);
            assert_eq!(tables.bank_slot(bank), want, "slot of {bank}");
        }
    }

    #[test]
    fn dense_tables_answer_like_the_binding_guard_and_route_maps() {
        let (graph, seg, _) = design();
        for board in [presets::duo_small(), presets::quad_large()] {
            // Everything in the one shared bank on duo_small; `A` and
            // `B` in the two shared banks on quad_large, `C` beside `B`.
            let banks = match board.banks().len() {
                1 => [0, 0, 0],
                _ => [4, 5, 5],
            };
            let mut binding = MemoryBinding::default();
            for (k, (&s, &bank)) in seg.iter().zip(&banks).enumerate() {
                binding.place(s, BankId::new(bank), 16 * k as u32);
            }
            let (plan, merges) = arbitrate(&graph, &board, &binding);
            let arbitrated_banks = plan
                .arbiters
                .iter()
                .filter(|a| matches!(a.resource, ArbitratedResource::Bank(_)))
                .count();
            assert_eq!(arbitrated_banks, board.banks().len().min(2));
            let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
                .try_build(&board)
                .expect("builds");
            assert_tables_match(&sys, &plan, &binding, &merges, &board, &[]);
            assert!(sys.run(10_000).completed);
            assert_tables_match(&sys, &plan, &binding, &merges, &board, &[]);
        }
    }

    #[test]
    fn dense_tables_follow_quarantine_and_reroute() {
        let (graph, seg, ch) = design();
        let board = presets::quad_large();
        let mut binding = MemoryBinding::default();
        binding.place(seg[0], BankId::new(4), 0);
        binding.place(seg[1], BankId::new(5), 0);
        binding.place(seg[2], BankId::new(5), 16);
        let (plan, merges) = arbitrate(&graph, &board, &binding);
        let sick = FaultPlan::seeded(1).with_bank_read_error(
            BankId::new(4),
            1000,
            FaultWindow::starting_at(0),
        );
        let noisy = FaultPlan::seeded(1).with_channel_bit_flip(ch[0], FaultWindow::starting_at(0));
        let recovery = RecoveryPolicy::none()
            .with_retry_reads(true)
            .with_quarantine_banks(1)
            .with_reroute_channels(1);
        for (faults, rerouted) in [(sick, &[][..]), (noisy, &[ch[0]][..])] {
            let mut sys = SystemBuilder::from_plan(&plan, &binding, &merges)
                .with_config(SimConfig::new().with_recovery(recovery))
                .with_faults(faults)
                .try_build(&board)
                .expect("builds");
            assert_tables_match(&sys, &plan, &binding, &merges, &board, &[]);
            let report = sys.run(10_000);
            assert!(report.completed);
            assert_eq!(sys.fault_report().recovered, 1);
            assert_tables_match(&sys, &plan, &binding, &merges, &board, rerouted);
            if rerouted.is_empty() {
                // The first spare, LOC0, is appended after both shared
                // banks: its id is out of slot order.
                assert_eq!(sys.binding().bank_of(seg[0]), Some(BankId::new(0)));
                assert_eq!(sys.bank_slot(BankId::new(0)), Some(2));
            }
        }
    }
}
