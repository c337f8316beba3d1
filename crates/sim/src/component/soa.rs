//! Structure-of-arrays state for the batched simulation kernel.
//!
//! The legacy kernel re-derives everything each cycle: request words are recomputed from per-task `BTreeMap` request
//! lines, grants and traffic travel in freshly allocated maps, and every
//! placement or guard lookup walks an ordered tree. The batched kernel
//! keeps the same *semantics* but flattens the state:
//!
//! - [`ReqMatrix`] — every arbiter's request word as a `u64` bitset,
//!   maintained incrementally from request-line *edges* instead of being
//!   reassembled from scratch;
//! - [`FsmLanes`] — the round-robin arbiter FSMs as parallel arrays
//!   (per-lane priority pointer, packed claimed bits), stepped with the
//!   word-level [`prefix_first_requester`] network instead of boxed
//!   dynamic dispatch;
//! - [`CycleArena`] — reused per-cycle traffic buffers (grants, request
//!   words, bank accesses, route sends, pending reads) with dense
//!   touched-lists replacing the per-cycle `BTreeMap` allocations;
//! - [`DenseTables`] — flat index-addressed lookup tables for segment
//!   placements, access guards, channel routes and bank slots;
//! - [`BatchedEnv`] — the [`CycleEnv`] implementation gluing the above
//!   under the task interpreter, so the batched kernel executes the
//!   *same* instruction semantics as the legacy kernel by
//!   construction.
//!
//! Everything here is bookkeeping over the very same component state the
//! legacy kernel uses; `tests/kernel_equivalence.rs` holds the two to
//! byte-identical reports, VCD and memory.

use super::arbiter::ArbiterComponent;
use super::monitor::MonitorComponent;
use super::route::RouteComponent;
use super::task::{CycleEnv, TaskComponent};
use crate::channel::RouteSend;
use crate::fault::FaultController;
use crate::memory::BankAccess;
use crate::scheduler::WakeList;
use rcarb_board::memory::BankId;
use rcarb_core::memmap::MemoryBinding;
use rcarb_core::policy::PolicyKind;
use rcarb_core::prefix::prefix_first_requester;
use rcarb_taskgraph::id::{ArbiterId, ChannelId, SegmentId, TaskId, VarId};
use std::collections::BTreeMap;

/// Every arbiter's request word, maintained incrementally.
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
    /// Arbiter-major flat LUT: `task_port[a * n_tasks + t]` is the port
    /// task `t` drives on arbiter `a`, plus one (zero = drives none).
    task_port: Vec<u16>,
    /// Per-arbiter offset into `lines`.
    port_base: Vec<usize>,
    /// Asserted member lines per (arbiter, port).
    lines: Vec<u16>,
    /// Current request word per arbiter.
    words: Vec<u64>,
}

impl ReqMatrix {
    /// Builds the matrix from the arbiters' port maps and the tasks'
    /// current request lines.
    pub(crate) fn new(arbiters: &[ArbiterComponent], tasks: &[TaskComponent]) -> Self {
        let n_tasks = tasks.len();
        let mut task_port = vec![0u16; arbiters.len() * n_tasks];
        let mut port_base = Vec::with_capacity(arbiters.len());
        let mut total_ports = 0;
        for (ai, a) in arbiters.iter().enumerate() {
            port_base.push(total_ports);
            total_ports += a.num_ports();
            for (ti, t) in tasks.iter().enumerate() {
                if let Some(p) = a.port_of(t.id()) {
                    task_port[ai * n_tasks + ti] = (p + 1) as u16;
                }
            }
        }
        let mut m = Self {
            n_tasks,
            task_port,
            port_base,
            lines: vec![0; total_ports],
            words: vec![0; arbiters.len()],
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
        self.words[index]
    }

    /// The port `task` drives on the arbiter at `index`, if any.
    pub(crate) fn port_of(&self, index: usize, task: TaskId) -> Option<usize> {
        let p = *self.task_port.get(index * self.n_tasks + task.index())?;
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
        let slot = self.port_base[index] + p;
        if now {
            self.lines[slot] += 1;
            if self.lines[slot] == 1 {
                self.words[index] |= 1 << p;
            }
        } else {
            self.lines[slot] -= 1;
            if self.lines[slot] == 0 {
                self.words[index] &= !(1 << p);
            }
        }
    }
}

/// The round-robin arbiter FSMs as parallel per-lane arrays.
///
/// One lane per arbiter, each the Fig. 5 FSM — free with a priority
/// pointer, or claimed by a holder — stepped through the word-level
/// [`prefix_first_requester`] network. Grant-identical to both
/// `RoundRobinArbiter` and `PrefixRoundRobin` from any shared state
/// (the boxed policies the arbiters still own go stale while lanes are
/// active; the engine reports counters and steadiness from here).
#[derive(Debug)]
pub(crate) struct FsmLanes {
    /// Ports per lane.
    nports: Vec<u8>,
    /// Scan-start pointer: the priority port while free, the holding
    /// port while claimed.
    prio: Vec<u8>,
    /// Claimed bits, packed 64 lanes per word.
    claimed: Vec<u64>,
}

impl FsmLanes {
    /// One fresh `F0` lane per arbiter.
    pub(crate) fn new(arbiters: &[ArbiterComponent]) -> Self {
        let nports: Vec<u8> = arbiters
            .iter()
            .map(|a| {
                let n = a.num_ports();
                debug_assert!((1..=64).contains(&n));
                n as u8
            })
            .collect();
        let words = arbiters.len().div_ceil(64);
        Self {
            prio: vec![0; nports.len()],
            claimed: vec![0; words],
            nports,
        }
    }

    fn is_claimed(&self, lane: usize) -> bool {
        self.claimed[lane / 64] >> (lane % 64) & 1 != 0
    }

    fn set_claimed(&mut self, lane: usize, claimed: bool) {
        if claimed {
            self.claimed[lane / 64] |= 1 << (lane % 64);
        } else {
            self.claimed[lane / 64] &= !(1 << (lane % 64));
        }
    }

    /// Advances one lane one cycle from `word`, returning the grant.
    /// Bit-for-bit the `RoundRobinArbiter`/`PrefixRoundRobin` step.
    pub(crate) fn step(&mut self, lane: usize, word: u64) -> u64 {
        let n = self.nports[lane] as usize;
        let word = word & low_mask(n);
        let i = self.prio[lane] as usize;
        if self.is_claimed(lane) {
            if word == 0 {
                self.set_claimed(lane, false);
                self.prio[lane] = ((i + 1) % n) as u8;
                0
            } else if word >> i & 1 != 0 {
                1 << i
            } else {
                let j = prefix_first_requester(word, (i + 1) % n, n).expect("requests nonzero");
                self.prio[lane] = j as u8;
                1 << j
            }
        } else {
            match prefix_first_requester(word, i, n) {
                None => 0,
                Some(j) => {
                    self.set_claimed(lane, true);
                    self.prio[lane] = j as u8;
                    1 << j
                }
            }
        }
    }

    /// The lane's grant fixed point under a held `word`, if any — the
    /// [`Policy::next_grant`](rcarb_core::policy::Policy::next_grant)
    /// promise the engine's steadiness check relies on.
    pub(crate) fn next_grant(&self, lane: usize, word: u64) -> Option<u64> {
        let n = self.nports[lane] as usize;
        let word = word & low_mask(n);
        let i = self.prio[lane] as usize;
        if self.is_claimed(lane) {
            (word >> i & 1 != 0).then(|| 1 << i)
        } else {
            (word == 0).then_some(0)
        }
    }
}

fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Reused per-cycle traffic buffers.
///
/// The dispatch kernels allocate fresh `BTreeMap`s and `Vec`s every
/// cycle; the arena keeps one buffer per bank slot / route / arbiter
/// alive across the whole run and tracks which were touched, so a cycle
/// costs clears of *touched* buffers only and no allocation at steady
/// state.
#[derive(Debug)]
pub(crate) struct CycleArena {
    /// Grant word per arbiter (by position), rewritten every cycle.
    pub(crate) grants: Vec<u64>,
    /// Sampled (possibly fault-perturbed) request word per arbiter.
    pub(crate) request_words: Vec<u64>,
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
    pub(crate) fn new(n_arbiters: usize, n_banks: usize, n_routes: usize) -> Self {
        Self {
            grants: vec![0; n_arbiters],
            request_words: vec![0; n_arbiters],
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

    /// Sorts the touched bank slots into `BankId` order (the order the
    /// dispatch kernels' `BTreeMap` iterates, which the violation
    /// sequence depends on). Quarantine can append a spare bank whose
    /// id is out of slot order, so slot order is not id order.
    pub(crate) fn sort_touched_banks(&mut self, ids: &[BankId]) {
        self.touched_banks
            .sort_unstable_by_key(|&s| ids[s as usize]);
    }

    /// Sorts the touched routes into index order (the dispatch
    /// kernels' map order).
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
    /// shape [`BankComponent::check_select`] consumes (`None` when the
    /// slot saw no traffic, like a map miss).
    ///
    /// [`BankComponent::check_select`]: super::BankComponent::check_select
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
/// questions the dispatch kernels answer with `BTreeMap` walks:
/// segment placement, access guards, channel routing and bank slots.
/// Rebuilt (cheaply, and rarely) after a quarantine or re-route
/// mutates the binding or routing.
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
    /// Builds the tables from the engine's maps.
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
}

/// The batched kernel's whole SoA state: matrix, lanes, arena, tables
/// and the wake-list, owned by the engine alongside the components.
#[derive(Debug)]
pub(crate) struct BatchedState {
    /// Incremental request words.
    pub(crate) matrix: ReqMatrix,
    /// Word-level round-robin FSMs, when the configured policy has a
    /// lane implementation and co-simulation is off (co-sim must step
    /// the boxed policy's netlist in lock step every cycle).
    pub(crate) lanes: Option<FsmLanes>,
    /// Reused per-cycle traffic buffers.
    pub(crate) arena: CycleArena,
    /// Flat lookup tables.
    pub(crate) tables: DenseTables,
    /// Dense running/pending task index lists.
    pub(crate) wake_list: WakeList,
    /// Per-task deferred blocked-cycle counts: cycles a task sat in a
    /// plain grant or data wait without being stepped. Flushed into
    /// stall/starvation/wake accounting before the task next executes,
    /// before recovery may mutate task state, and before the run
    /// report is built — so every observable total is byte-identical
    /// to the dispatch kernels'.
    pub(crate) deferred_waits: Vec<u64>,
}

impl BatchedState {
    /// Builds the SoA mirror of a freshly constructed system.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        arbiters: &[ArbiterComponent],
        tasks: &[TaskComponent],
        bank_ids: &[BankId],
        n_routes: usize,
        binding: &MemoryBinding,
        segment_guards: &BTreeMap<(TaskId, SegmentId), ArbiterId>,
        channel_guards: &BTreeMap<(TaskId, ChannelId), ArbiterId>,
        route_of_channel: &BTreeMap<ChannelId, usize>,
        policy: PolicyKind,
        cosim: bool,
    ) -> Self {
        // The arena and grant slices are indexed by arbiter *position*;
        // the interpreter looks grants up by `ArbiterId::index()`. The
        // dispatch kernels already require the two to coincide (their
        // component lookups index by id), so pin the invariant here.
        debug_assert!(
            arbiters
                .iter()
                .enumerate()
                .all(|(i, a)| a.id().index() == i),
            "arbiter ids must be positional"
        );
        let lanes = (!cosim
            && matches!(
                policy,
                PolicyKind::RoundRobin | PolicyKind::PrefixRoundRobin
            ))
        .then(|| FsmLanes::new(arbiters));
        let mut wake_list = WakeList::default();
        wake_list.rebuild(
            tasks.len(),
            |i| tasks[i].status() == super::TaskStatus::Running,
            |i| tasks[i].status() == super::TaskStatus::NotStarted,
        );
        Self {
            matrix: ReqMatrix::new(arbiters, tasks),
            lanes,
            arena: CycleArena::new(arbiters.len(), bank_ids.len(), n_routes),
            tables: DenseTables::new(
                tasks.len(),
                binding,
                segment_guards,
                channel_guards,
                route_of_channel,
                bank_ids,
            ),
            wake_list,
            deferred_waits: vec![0; tasks.len()],
        }
    }
}

/// The batched kernel's [`CycleEnv`]: same answers as the dispatch
/// [`ExecCtx`](super::ExecCtx), sourced from the flat tables and the
/// arena instead of the per-cycle maps.
pub(crate) struct BatchedEnv<'a> {
    /// The executing cycle.
    pub(crate) cycle: u64,
    /// All arbiters (for validation-time port checks only; grants and
    /// ports resolve through the matrix).
    pub(crate) arbiters: &'a [ArbiterComponent],
    /// All channel routes.
    pub(crate) routes: &'a [RouteComponent],
    /// The violation/starvation monitor.
    pub(crate) monitor: &'a mut MonitorComponent,
    /// This cycle's traffic arena (grants already written).
    pub(crate) arena: &'a mut CycleArena,
    /// The incremental request matrix (receives request edges).
    pub(crate) matrix: &'a mut ReqMatrix,
    /// Flat lookup tables.
    pub(crate) tables: &'a DenseTables,
    /// The compiled fault plan, when this run injects faults.
    pub(crate) faults: &'a mut Option<FaultController>,
    /// Replay faulted reads instead of consuming the corrupted word.
    pub(crate) retry_reads: bool,
}

impl CycleEnv for BatchedEnv<'_> {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn task_granted(&self, arbiter: ArbiterId, task: TaskId) -> bool {
        let i = arbiter.index();
        let Some(p) = self.matrix.port_of(i, task) else {
            return false;
        };
        debug_assert_eq!(
            Some(p),
            self.arbiters.get(i).and_then(|a| a.port_of(task)),
            "matrix port table out of sync"
        );
        self.arena.grants.get(i).copied().unwrap_or(0) >> p & 1 != 0
    }

    fn monitor(&mut self) -> &mut MonitorComponent {
        self.monitor
    }

    fn placement(&self, segment: SegmentId) -> Option<(BankId, u32)> {
        self.tables.placement(segment)
    }

    fn segment_guard(&self, task: TaskId, segment: SegmentId) -> Option<ArbiterId> {
        self.tables.segment_guard(task, segment)
    }

    fn channel_guard(&self, task: TaskId, channel: ChannelId) -> Option<ArbiterId> {
        self.tables.channel_guard(task, channel)
    }

    fn route_read(&self, channel: ChannelId) -> Option<u64> {
        let r = self.tables.route_of(channel)?;
        self.routes[r as usize].read(channel)
    }

    fn push_access(&mut self, bank: BankId, access: BankAccess) {
        // Placements are validated in `try_build`, so the slot exists;
        // degrade to a dropped access otherwise, like the dispatch
        // kernels' map miss.
        if let Some(slot) = self.tables.bank_slot(bank) {
            self.arena.push_access(slot, access);
        }
    }

    fn push_pending_read(&mut self, bank: BankId, task: TaskId, dst: VarId, mask: u64) {
        self.arena.pending_reads.push((bank, task, dst, mask));
    }

    fn push_send(&mut self, channel: ChannelId, send: RouteSend) {
        if let Some(r) = self.tables.route_of(channel) {
            self.arena.push_send(r, send);
        }
    }

    fn note_request(&mut self, arbiter: ArbiterId, task: TaskId, was: bool, now: bool) {
        self.matrix.note_edge(arbiter.index(), task, was, now);
    }

    fn task_hung(&mut self, task: TaskId) -> bool {
        let cycle = self.cycle;
        self.faults
            .as_mut()
            .is_some_and(|fc| fc.task_hung(task, cycle))
    }

    fn read_fault(&mut self, bank: BankId) -> Option<u64> {
        let cycle = self.cycle;
        self.faults
            .as_mut()
            .and_then(|fc| fc.read_fault(bank, cycle))
    }

    fn retry_reads(&self) -> bool {
        self.retry_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcarb_core::policy::Policy;
    use rcarb_core::prefix::PrefixRoundRobin;

    #[test]
    fn lanes_step_matches_boxed_policy_on_random_walks() {
        // One lane per width, stepped against the boxed oracle from the
        // same fresh state.
        for n in [1usize, 2, 3, 5, 8, 13, 32] {
            let mut lanes = FsmLanes {
                nports: vec![n as u8],
                prio: vec![0],
                claimed: vec![0],
            };
            let mut oracle = PrefixRoundRobin::new(n);
            let mut x = 0x9e3779b97f4a7c15u64 ^ n as u64;
            for step in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let req = x & low_mask(n);
                assert_eq!(
                    lanes.next_grant(0, req),
                    oracle.next_grant(req),
                    "n={n} step={step}: next_grant diverged"
                );
                assert_eq!(
                    lanes.step(0, req),
                    oracle.step(req),
                    "n={n} step={step}: step diverged on {req:#b}"
                );
            }
        }
    }

    #[test]
    fn claimed_bits_pack_across_word_boundaries() {
        let lanes_n = 130;
        let mut lanes = FsmLanes {
            nports: vec![2; lanes_n],
            prio: vec![0; lanes_n],
            claimed: vec![0; 3],
        };
        // Claim every odd lane, then release them all.
        for lane in (1..lanes_n).step_by(2) {
            assert_eq!(lanes.step(lane, 0b10), 0b10);
        }
        for lane in 0..lanes_n {
            assert_eq!(lanes.is_claimed(lane), lane % 2 == 1, "lane {lane}");
        }
        for lane in (1..lanes_n).step_by(2) {
            assert_eq!(lanes.step(lane, 0), 0);
            assert!(!lanes.is_claimed(lane));
        }
    }
}
