//! Behavioural arbiters with optional netlist co-simulation.

use crate::component::{MonitorComponent, TaskComponent};
use crate::fault::FaultController;
use crate::monitor::Violation;
use rcarb_core::generator::{ArbiterGenerator, ArbiterSpec};
use rcarb_core::policy::{self, Policy, PolicyKind};
use rcarb_logic::tools::{SynthReport, ToolModel};
use rcarb_taskgraph::id::{ArbiterId, TaskId};
use std::sync::Arc;

/// An arbiter instance inside the simulator.
///
/// Requests arrive per *task*; tasks sharing a port (temporally disjoint
/// elision groups) are OR-ed onto that port, exactly as the overlaid
/// hardware would wire them. With co-simulation enabled, every cycle is
/// also run through the tool-synthesized gate-level netlist and the grant
/// words are compared — a continuous equivalence check between the Fig. 5
/// specification and the mapped hardware.
///
/// The arbiter also remembers the request/grant pair of its last
/// executed cycle, which is what lets the batched kernel prove it
/// steady and skip cycles over it.
#[derive(Debug)]
pub struct ArbiterSim {
    id: ArbiterId,
    /// Every port's member tasks as `(port, task)` pairs in port order:
    /// the whole port map in one allocation.
    members: Vec<(usize, TaskId)>,
    policy: Box<dyn Policy>,
    cosim: Option<Cosim>,
    grants_issued: u64,
    port_grants: Vec<u64>,
    mismatches: u64,
    /// The request word sampled in the last executed cycle.
    last_word: u64,
    /// The grant word issued in the last executed cycle.
    last_grant: u64,
}

#[derive(Debug)]
struct Cosim {
    /// The shared synthesis report whose netlist is co-simulated.
    synth: Arc<SynthReport>,
    state: Vec<bool>,
}

impl ArbiterSim {
    /// Creates an arbiter over the given port map with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty.
    pub fn new(id: ArbiterId, ports: &[Vec<TaskId>], kind: PolicyKind) -> Self {
        assert!(!ports.is_empty(), "arbiter needs at least one port");
        let n = ports.len();
        let members = ports
            .iter()
            .enumerate()
            .flat_map(|(p, tasks)| tasks.iter().map(move |&t| (p, t)))
            .collect();
        Self {
            id,
            members,
            policy: policy::build(kind, n),
            cosim: None,
            grants_issued: 0,
            port_grants: vec![0; n],
            mismatches: 0,
            last_word: 0,
            last_grant: 0,
        }
    }

    /// The spec the arbiter's policy is generated from.
    fn spec(&self) -> ArbiterSpec {
        ArbiterSpec::round_robin(self.num_ports()).with_policy(self.policy.kind())
    }

    /// Whether [`with_cosim`](Self::with_cosim) applies: the policy is
    /// generated as a symbolic FSM ([`ArbiterSpec::fsm_states`]), so its
    /// synthesized netlist is independent of the behavioural model.
    pub fn can_cosim(&self) -> bool {
        self.spec().fsm_states().is_some()
    }

    /// Enables gate-level co-simulation: the Synplify-model netlist of
    /// the policy's FSM runs in lock step with the behavioural arbiter
    /// and every grant word is compared.
    ///
    /// # Panics
    ///
    /// Panics unless [`can_cosim`](Self::can_cosim): the structurally
    /// generated policies' (random/FIFO/priority) netlists *are* the
    /// reference implementation, so there is nothing independent to
    /// compare against.
    pub fn with_cosim(mut self) -> Self {
        assert!(
            self.can_cosim(),
            "co-simulation is wired for the FSM-based policies"
        );
        let spec = self.spec();
        let synth = ArbiterGenerator::new().synthesize(&spec, &ToolModel::synplify());
        let state = synth.netlist.reset_state();
        self.cosim = Some(Cosim { synth, state });
        self
    }

    /// The arbiter id.
    pub fn id(&self) -> ArbiterId {
        self.id
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.port_grants.len()
    }

    /// The port a task drives, if any.
    pub fn port_of(&self, task: TaskId) -> Option<usize> {
        self.members
            .iter()
            .find(|&&(_, t)| t == task)
            .map(|&(p, _)| p)
    }

    /// Total grants issued so far.
    pub fn grants_issued(&self) -> u64 {
        self.grants_issued
    }

    /// Grants issued to each port so far (the per-client bandwidth split;
    /// Jain's index over this vector measures delivered fairness).
    pub fn port_grants(&self) -> &[u64] {
        &self.port_grants
    }

    /// Behaviour/netlist grant mismatches observed (must stay 0).
    pub fn cosim_mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Advances one cycle. `requesting` reports, per task, whether its
    /// request line is up; the return value is the granted port word.
    pub fn step(&mut self, requesting: &dyn Fn(TaskId) -> bool) -> u64 {
        let word = self.request_word(requesting);
        self.step_word(word)
    }

    /// The per-port request word for the given task request lines: a
    /// port's bit is the OR of its tasks' lines, exactly as the overlaid
    /// hardware wires them.
    pub fn request_word(&self, requesting: &dyn Fn(TaskId) -> bool) -> u64 {
        let mut word = 0u64;
        for &(p, t) in &self.members {
            if word >> p & 1 == 0 && requesting(t) {
                word |= 1 << p;
            }
        }
        word
    }

    /// The request word the given task request lines assemble on this
    /// arbiter's ports.
    pub(crate) fn compute_word(&self, tasks: &[TaskComponent]) -> u64 {
        self.request_word(&|task: TaskId| tasks[task.index()].requesting(self.id))
    }

    /// The grant fixed point under a held request word, if any: the
    /// policy's [`next_grant`](Policy::next_grant) promise, suppressed
    /// while co-simulation is on (the netlist state must advance in
    /// lock step every cycle, so a co-simulated arbiter is never
    /// skippable). Both kernels step the same policy, so this promise
    /// is about the live state. It may leave request-independent policy
    /// state moving, the random policy's LFSR; [`Policy::skip`]
    /// replays it.
    pub fn steady_grant(&self, word: u64) -> Option<u64> {
        if self.cosim.is_some() {
            return None;
        }
        self.policy.next_grant(word)
    }

    /// Advances one cycle from an already-assembled (possibly
    /// fault-perturbed) request word. What the arbiter *sampled* is what
    /// steadiness is judged against, so that word is what gets
    /// remembered, beside the grant counters.
    pub fn step_word(&mut self, word: u64) -> u64 {
        // In debug builds, hold the behavioural policy to any fixed
        // point it promised — every executed cycle thereby cross-checks
        // the `next_grant` interface the batched kernel skips on.
        #[cfg(debug_assertions)]
        let promised = self.policy.next_grant(word);
        let grants = self.policy.step(word);
        #[cfg(debug_assertions)]
        if let Some(p) = promised {
            debug_assert_eq!(
                p, grants,
                "{}: next_grant promised a fixed point step() broke",
                self.id
            );
        }
        if grants != 0 {
            self.grants_issued += 1;
            self.port_grants[grants.trailing_zeros() as usize] += 1;
        }
        self.last_word = word;
        self.last_grant = grants;
        if let Some(cosim) = &mut self.cosim {
            let bits: Vec<bool> = (0..self.port_grants.len())
                .map(|i| word >> i & 1 != 0)
                .collect();
            let hw = cosim.synth.netlist.step(&mut cosim.state, &bits);
            let hw_word = hw
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &g)| if g { w | 1 << i } else { w });
            if hw_word != grants {
                self.mismatches += 1;
            }
        }
        grants
    }

    /// One cycle's arbitration phase, as both kernels run it, from
    /// `word`, the request word the task lines assemble. Stuck-request
    /// faults perturb the sampled word (what the arbiter *and*
    /// steadiness see); stuck-grant and glitch faults perturb the issued
    /// grant on the wire (what the tasks, tracer and multi-grant check
    /// see), leaving the arbiter's own bookkeeping on the raw grant.
    /// Returns the sampled word and the wire grant.
    pub(crate) fn sample(
        &mut self,
        cycle: u64,
        word: u64,
        faults: &mut Option<FaultController>,
        monitor: &mut MonitorComponent,
    ) -> (u64, u64) {
        let mut word = word;
        if let Some(fc) = faults.as_mut() {
            word = fc.perturb_requests(self.id, cycle, word, |t| self.port_of(t));
        }
        let mut grant = self.step_word(word);
        if let Some(fc) = faults.as_mut() {
            grant = fc.perturb_grant(self.id, cycle, grant);
        }
        if grant.count_ones() > 1 {
            monitor.push(Violation::MultipleGrants {
                cycle,
                arbiter: self.id,
                grants: grant,
            });
        }
        (word, grant)
    }

    /// Whether the arbiter is provably inert under `word`, the request
    /// word assembled *after* this cycle's task execution (the word the
    /// arbiter would sample next cycle):
    ///
    /// - the word equals the one sampled in the executed cycle (no
    ///   request edge is pending, so the VCD request signals hold), and
    /// - the [`steady_grant`](Self::steady_grant) promise is the
    ///   executed cycle's grant (so the grant signals hold and no
    ///   request-dependent state moves), and
    /// - at most one port is granted (a multi-grant word must execute so
    ///   the `MultipleGrants` violation is recorded per cycle).
    ///
    /// The promise is asked only once the word is known to hold.
    pub(crate) fn steady_for(&self, word: u64) -> bool {
        word == self.last_word
            && self.steady_grant(word) == Some(self.last_grant)
            && self.last_grant.count_ones() <= 1
    }

    /// Returns the grant for a specific task given this cycle's grant
    /// word.
    pub fn task_granted(&self, grants: u64, task: TaskId) -> bool {
        self.port_of(task).is_some_and(|p| grants >> p & 1 != 0)
    }

    /// Bulk-accounts `cycles` skipped cycles during which the arbiter
    /// was [steady](Self::steady_for), so it kept issuing its last
    /// grant: the counters and the policy's request-independent state
    /// ([`Policy::skip`]) advance exactly as `cycles` live steps would
    /// have advanced them: the random policy's LFSR jumps here, and
    /// every other policy's skip is the no-op default.
    pub(crate) fn skip(&mut self, cycles: u64) {
        if self.last_grant != 0 {
            self.grants_issued += cycles;
            self.port_grants[self.last_grant.trailing_zeros() as usize] += cycles;
        }
        self.policy.skip(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }

    #[test]
    fn requests_or_onto_shared_ports() {
        // Port 0 carries tasks 0 and 2 (disjoint phases).
        let mut a = ArbiterSim::new(
            ArbiterId::new(0),
            &[vec![t(0), t(2)], vec![t(1)]],
            PolicyKind::RoundRobin,
        );
        // Task 2 requesting lights up port 0.
        let grants = a.step(&|task| task == t(2));
        assert_eq!(grants, 0b01);
        assert!(a.task_granted(grants, t(2)));
        assert!(a.task_granted(grants, t(0))); // same port, same wire
        assert!(!a.task_granted(grants, t(1)));
    }

    #[test]
    fn cosim_stays_in_lockstep() {
        let mut a = ArbiterSim::new(
            ArbiterId::new(0),
            &(0..4).map(|i| vec![t(i)]).collect::<Vec<_>>(),
            PolicyKind::RoundRobin,
        )
        .with_cosim();
        let mut x = 0x243f6a8885a308d3u64;
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let req = x & 0b1111;
            let set: BTreeSet<u32> = (0..4).filter(|i| req >> i & 1 != 0).collect();
            let _ = a.step(&|task| set.contains(&(task.index() as u32)));
        }
        assert_eq!(a.cosim_mismatches(), 0);
    }

    #[test]
    fn preemptive_cosim_stays_in_lockstep() {
        let mut a = ArbiterSim::new(
            ArbiterId::new(0),
            &(0..3).map(|i| vec![t(i)]).collect::<Vec<_>>(),
            PolicyKind::PreemptiveRoundRobin,
        )
        .with_cosim();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let req = x & 0b111;
            let set: BTreeSet<u32> = (0..3).filter(|i| req >> i & 1 != 0).collect();
            let _ = a.step(&|task| set.contains(&(task.index() as u32)));
        }
        assert_eq!(a.cosim_mismatches(), 0);
    }

    #[test]
    fn grants_issued_counts_active_cycles() {
        let mut a = ArbiterSim::new(
            ArbiterId::new(0),
            &[vec![t(0)], vec![t(1)]],
            PolicyKind::RoundRobin,
        );
        assert_eq!(a.step(&|_| false), 0);
        let _ = a.step(&|task| task == t(0));
        assert_eq!(a.grants_issued(), 1);
    }
}
