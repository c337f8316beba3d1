//! The arbiter component: a behavioural [`ArbiterSim`] plus the
//! last-sampled request/grant pair the batched kernel needs to prove the
//! arbiter steady.

use super::task::TaskComponent;
use super::{Component, Wake};
use crate::arbiter::ArbiterSim;
use rcarb_taskgraph::id::{ArbiterId, TaskId};

/// One arbiter in the kernel, wrapping the behavioural simulator with
/// the bookkeeping that makes cycle-skipping exact.
///
/// Steadiness is a *three-way* condition checked at refresh time (after
/// tasks executed, so against the request lines as they will be sampled
/// next cycle): the request word is unchanged, the policy promises the
/// same grant as a fixed point, and the grant drives at most one port
/// (so no VCD signal can move either). Only then may the engine skip
/// cycles over this arbiter, bulk-accounting them through
/// [`skip`](Component::skip).
#[derive(Debug)]
pub struct ArbiterComponent {
    sim: ArbiterSim,
    /// The request word sampled in the last executed cycle.
    last_word: u64,
    /// The grant word issued in the last executed cycle.
    last_grant: u64,
}

impl ArbiterComponent {
    /// Wraps a behavioural arbiter.
    pub fn new(sim: ArbiterSim) -> Self {
        Self {
            sim,
            last_word: 0,
            last_grant: 0,
        }
    }

    /// The arbiter id.
    pub fn id(&self) -> ArbiterId {
        self.sim.id()
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.sim.num_ports()
    }

    /// The port a task drives, if any.
    pub fn port_of(&self, task: TaskId) -> Option<usize> {
        self.sim.port_of(task)
    }

    /// Total grants issued so far (live steps plus skipped steady
    /// cycles).
    pub fn grants_issued(&self) -> u64 {
        self.sim.grants_issued()
    }

    /// Grants issued to each port so far.
    pub fn port_grants(&self) -> &[u64] {
        self.sim.port_grants()
    }

    /// Behaviour/netlist grant mismatches observed (must stay 0).
    pub fn cosim_mismatches(&self) -> u64 {
        self.sim.cosim_mismatches()
    }

    /// Returns the grant for a specific task given a grant word.
    pub fn task_granted(&self, grants: u64, task: TaskId) -> bool {
        self.sim.task_granted(grants, task)
    }

    /// The request word the given task request lines assemble on this
    /// arbiter's ports.
    pub fn compute_word(&self, tasks: &[TaskComponent]) -> u64 {
        let id = self.sim.id();
        self.sim
            .request_word(&|task: TaskId| tasks[task.index()].requesting(id))
    }

    /// Samples the request lines and advances one cycle, remembering the
    /// request/grant pair for later steadiness checks. Returns the grant
    /// word.
    pub fn sample_and_step(&mut self, tasks: &[TaskComponent]) -> u64 {
        let word = self.compute_word(tasks);
        self.step_with_word(word)
    }

    /// Advances one cycle on an already-assembled (possibly
    /// fault-perturbed) request word. What the arbiter *sampled* is what
    /// steadiness must be judged against, so the perturbed word is what
    /// gets remembered.
    pub fn step_with_word(&mut self, word: u64) -> u64 {
        let grant = self.sim.step_word(word);
        self.last_word = word;
        self.last_grant = grant;
        grant
    }

    /// The grant word issued in the last executed cycle.
    pub fn last_grant(&self) -> u64 {
        self.last_grant
    }

    /// The request word sampled in the last executed cycle.
    pub fn last_word(&self) -> u64 {
        self.last_word
    }

    /// Records a cycle the batched kernel stepped in the flat FSM lanes:
    /// counter accounting plus the request/grant memory for steadiness,
    /// without re-running the boxed policy (whose state is stale while a
    /// lane is active — nothing consults it).
    pub(crate) fn note_batch_step(&mut self, word: u64, grant: u64) {
        self.sim.note_step(grant);
        self.last_word = word;
        self.last_grant = grant;
    }

    /// Whether the arbiter is provably inert under `word`, the request
    /// word assembled *after* this cycle's task execution (the word the
    /// arbiter would sample next cycle):
    ///
    /// - the word equals the one sampled in the executed cycle (no
    ///   request edge is pending, so the VCD request signals hold), and
    /// - the policy promises the executed cycle's grant as a fixed point
    ///   (so the grant signals hold and no policy state moves), and
    /// - at most one port is granted (a multi-grant word must execute so
    ///   the `MultipleGrants` violation is recorded per cycle).
    pub fn steady_for(&self, word: u64) -> bool {
        word == self.last_word
            && self.sim.steady_grant(word) == Some(self.last_grant)
            && self.last_grant.count_ones() <= 1
    }
}

impl Component for ArbiterComponent {
    fn label(&self) -> String {
        format!("arbiter {}", self.id())
    }

    /// Steadiness needs the tasks' request lines, which `wake` cannot
    /// see; the engine consults [`steady_for`](Self::steady_for) in its
    /// refresh instead. Standalone, the only safe answer is `Active`.
    fn wake(&self, _now: u64) -> Wake {
        Wake::Active
    }

    fn skip(&mut self, cycles: u64) {
        self.sim.record_steady_grants(self.last_grant, cycles);
    }
}
