//! The parameterized arbiter generator.
//!
//! Mirrors the paper's Sec. 4.2 tool: given the number of tasks `N` (and an
//! FSM encoding request), produce the round-robin arbiter as a symbolic
//! FSM, a VHDL file, an executable hardware netlist and synthesis reports
//! from both tool models. Baseline policies generate their structural
//! netlists through the same interface so the Sec. 4 comparison can be run
//! uniformly.
//!
//! Synthesis reports live in one process-wide cache keyed by the
//! synthesized circuit, the speed grade and the tool.
//! [`ArbiterGenerator::synthesize`] looks the key up first and generates
//! the arbiter only on a miss, so a warm estimate is a table lookup that
//! hands out a shared [`Arc<SynthReport>`]. VHDL text is rendered on the
//! first [`GeneratedArbiter::vhdl`] call, not by
//! [`ArbiterGenerator::generate`].

use crate::error::Error;
use crate::fifo::FifoArbiter;
use crate::policy::PolicyKind;
use crate::priority::StaticPriorityArbiter;
use crate::random::RandomArbiter;
use crate::rr;
use crate::vhdl;
use rcarb_board::device::SpeedGrade;
use rcarb_logic::encode::EncodingStyle;
use rcarb_logic::fsm::Fsm;
use rcarb_logic::netlist::Netlist;
use rcarb_logic::tools::{SynthReport, ToolModel};
use std::sync::{Arc, OnceLock};

/// What to generate: task count, FSM encoding, policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbiterSpec {
    n: usize,
    encoding: EncodingStyle,
    policy: PolicyKind,
}

impl ArbiterSpec {
    /// A round-robin arbiter for `n` tasks (the paper's default), one-hot
    /// encoded.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or larger than 32; use
    /// [`try_round_robin`](Self::try_round_robin) to handle the failure.
    pub fn round_robin(n: usize) -> Self {
        Self::try_round_robin(n).expect("arbiters support 1..=32 tasks")
    }

    /// The fallible form of [`round_robin`](Self::round_robin).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTaskCount`] if `n` is zero or larger
    /// than 32.
    pub fn try_round_robin(n: usize) -> Result<Self, Error> {
        if !(1..=32).contains(&n) {
            return Err(Error::InvalidTaskCount { n });
        }
        Ok(Self {
            n,
            encoding: EncodingStyle::OneHot,
            policy: PolicyKind::RoundRobin,
        })
    }

    /// Selects the FSM encoding (meaningful for round-robin).
    pub fn with_encoding(mut self, encoding: EncodingStyle) -> Self {
        self.encoding = encoding;
        self
    }

    /// Selects the arbitration policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Number of arbitrated tasks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The requested encoding.
    pub fn encoding(&self) -> EncodingStyle {
        self.encoding
    }

    /// The requested policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The number of states of the symbolic FSM this spec generates, or
    /// `None` for the structurally generated policies (fifo, random,
    /// static-priority). Computed from the spec alone: the Fig. 5
    /// machine has `2N` states, the preemptive one `N(quantum + 1)`.
    pub fn fsm_states(&self) -> Option<usize> {
        match self.policy {
            PolicyKind::RoundRobin | PolicyKind::PrefixRoundRobin => Some(2 * self.n),
            PolicyKind::PreemptiveRoundRobin => {
                Some(self.n * (crate::policy::DEFAULT_PREEMPT_QUANTUM as usize + 1))
            }
            PolicyKind::Random | PolicyKind::Fifo | PolicyKind::StaticPriority => None,
        }
    }

    /// Whether synthesizing this spec with `tool`, and rendering its
    /// VHDL, fits the two-level synthesizer's 64-variable cube
    /// representation (state bits plus request inputs); both panic on a
    /// spec that does not fit.
    ///
    /// The round-robin family is judged by
    /// [`synthesizable`](crate::characterize::synthesizable). The
    /// preemptive machine has `N(quantum + 1)` states and its VHDL is a
    /// one-hot Synplify synthesis, whatever the tool, so it fits up to
    /// `N = 10`. Structural policies are not synthesized and always fit.
    pub fn fits_synthesizer(&self, tool: &ToolModel) -> bool {
        match self.policy {
            PolicyKind::RoundRobin | PolicyKind::PrefixRoundRobin => {
                crate::characterize::synthesizable(self.n, tool, self.encoding)
            }
            PolicyKind::PreemptiveRoundRobin => {
                self.fsm_states().expect("an FSM policy") + self.n <= 64
            }
            PolicyKind::Random | PolicyKind::Fifo | PolicyKind::StaticPriority => true,
        }
    }
}

/// Generates arbiters from specs.
#[derive(Debug, Clone)]
pub struct ArbiterGenerator {
    grade: SpeedGrade,
}

impl ArbiterGenerator {
    /// A generator targeting the paper's `-3` speed grade.
    pub fn new() -> Self {
        Self {
            grade: SpeedGrade::Minus3,
        }
    }

    /// Overrides the target speed grade.
    pub fn with_grade(mut self, grade: SpeedGrade) -> Self {
        self.grade = grade;
        self
    }

    /// Generates the arbiter described by `spec`: its symbolic FSM, or
    /// the structural netlist of a baseline policy. The VHDL text is
    /// rendered on the first [`GeneratedArbiter::vhdl`] call.
    pub fn generate(&self, spec: &ArbiterSpec) -> GeneratedArbiter {
        let (fsm, structural) = match spec.policy {
            // The parallel-prefix policy is grant-identical to the Fig. 5
            // rotation — only the combinational resolution tree differs —
            // so both map onto the same symbolic FSM and VHDL template;
            // synthesis and co-simulation see one machine.
            PolicyKind::RoundRobin | PolicyKind::PrefixRoundRobin => {
                (Some(rr::round_robin_fsm(spec.n)), None)
            }
            PolicyKind::PreemptiveRoundRobin => {
                let fsm = crate::preempt::preemptive_round_robin_fsm(
                    spec.n,
                    crate::policy::DEFAULT_PREEMPT_QUANTUM,
                );
                (Some(fsm), None)
            }
            PolicyKind::Random => (None, Some(RandomArbiter::structural_netlist(spec.n))),
            PolicyKind::Fifo => (None, Some(FifoArbiter::structural_netlist(spec.n))),
            PolicyKind::StaticPriority => (
                None,
                Some(StaticPriorityArbiter::structural_netlist(spec.n)),
            ),
        };
        GeneratedArbiter {
            spec: *spec,
            grade: self.grade,
            fsm,
            structural,
            vhdl: OnceLock::new(),
        }
    }

    /// The `tool`-synthesized report for `spec` at this generator's
    /// speed grade, from the process-wide synthesis cache. The arbiter is
    /// generated and synthesized only on a miss; a hit is one key lookup
    /// that shares the stored report.
    pub fn synthesize(&self, spec: &ArbiterSpec, tool: &ToolModel) -> Arc<SynthReport> {
        cached_synthesis(spec, self.grade, tool, || {
            self.generate(spec).synthesize_uncached(tool)
        })
    }
}

impl Default for ArbiterGenerator {
    fn default() -> Self {
        Self::new()
    }
}

/// The content address of one synthesis result: the circuit that is
/// synthesized, not the spec that asked for it. Generation is
/// deterministic per spec (the preemptive quantum is a constant), so two
/// equal keys always denote byte-identical reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SynthKey {
    n: usize,
    policy: PolicyKind,
    encoding: EncodingStyle,
    grade: SpeedGrade,
    tool: &'static str,
}

impl SynthKey {
    /// Prefix round-robin keys as round-robin, whose FSM it shares. An
    /// FSM policy under a tool that forces one-hot keys as one-hot,
    /// the encoding it is synthesized in. Structural policies keep the
    /// requested encoding, which their report echoes.
    fn new(spec: &ArbiterSpec, grade: SpeedGrade, tool: &ToolModel) -> Self {
        let policy = match spec.policy {
            PolicyKind::PrefixRoundRobin => PolicyKind::RoundRobin,
            policy => policy,
        };
        let encoding = if spec.fsm_states().is_some() && tool.forces_one_hot() {
            EncodingStyle::OneHot
        } else {
            spec.encoding
        };
        Self {
            n: spec.n,
            policy,
            encoding,
            grade,
            tool: tool.name(),
        }
    }
}

fn synth_cache() -> &'static rcarb_exec::Cache<SynthKey, Arc<SynthReport>> {
    static CACHE: OnceLock<rcarb_exec::Cache<SynthKey, Arc<SynthReport>>> = OnceLock::new();
    CACHE.get_or_init(rcarb_exec::Cache::new)
}

/// The one entry point to the synthesis cache: one counted lookup keyed
/// by the circuit (spec, grade and tool; see [`SynthKey::new`]), running
/// `miss` only when the key is absent.
fn cached_synthesis(
    spec: &ArbiterSpec,
    grade: SpeedGrade,
    tool: &ToolModel,
    miss: impl FnOnce() -> SynthReport,
) -> Arc<SynthReport> {
    let key = SynthKey::new(spec, grade, tool);
    synth_cache().get_or_insert_with(&key, || Arc::new(miss()))
}

/// Hit/miss statistics of the process-wide synthesis cache (for
/// [`rcarb_exec::PerfReport`]).
pub fn synthesis_cache_stats() -> rcarb_exec::CacheStats {
    synth_cache().stats()
}

/// Drops every entry of the process-wide synthesis cache (counters are
/// preserved). Mainly useful to tests and benchmarks that measure the
/// cold path.
pub fn reset_synthesis_cache() {
    synth_cache().clear();
}

/// A generated arbiter: symbolic FSM (round-robin), structural netlist
/// (baselines), VHDL text rendered on demand, plus cached synthesis.
#[derive(Debug, Clone)]
pub struct GeneratedArbiter {
    spec: ArbiterSpec,
    grade: SpeedGrade,
    fsm: Option<Fsm>,
    structural: Option<Netlist>,
    vhdl: OnceLock<String>,
}

impl GeneratedArbiter {
    /// The generating spec.
    pub fn spec(&self) -> &ArbiterSpec {
        &self.spec
    }

    /// The symbolic Fig. 5 FSM.
    ///
    /// # Panics
    ///
    /// Panics for non-round-robin policies, which are generated
    /// structurally; use [`try_fsm`](Self::try_fsm) or
    /// [`netlist`](Self::netlist) instead.
    pub fn fsm(&self) -> &Fsm {
        self.try_fsm()
            .expect("only round-robin arbiters have a symbolic FSM")
    }

    /// The symbolic FSM of the round-robin family, or `None` for the
    /// structurally generated policies (fifo, random, static-priority),
    /// whose hardware is only a [`netlist`](Self::netlist).
    pub fn try_fsm(&self) -> Option<&Fsm> {
        self.fsm.as_ref()
    }

    /// The generated VHDL source, rendered on the first call.
    ///
    /// The preemptive machine has no behavioural template; its VHDL is
    /// the Synplify-synthesized netlist, read from the synthesis cache
    /// (one lookup under this arbiter's spec and grade).
    pub fn vhdl(&self) -> &str {
        self.vhdl.get_or_init(|| {
            let n = self.spec.n;
            let structural = |name: &str| {
                let nl = self.structural.as_ref().expect("structural netlist");
                vhdl::netlist_vhdl(&format!("{name}_arbiter_n{n}"), nl)
            };
            match self.spec.policy {
                PolicyKind::RoundRobin | PolicyKind::PrefixRoundRobin => {
                    vhdl::round_robin_vhdl(n, self.spec.encoding)
                }
                PolicyKind::PreemptiveRoundRobin => {
                    let report = self.synthesize(&ToolModel::synplify());
                    vhdl::netlist_vhdl(&format!("prr_arbiter_n{n}"), &report.netlist)
                }
                PolicyKind::Random => structural("random"),
                PolicyKind::Fifo => structural("fifo"),
                PolicyKind::StaticPriority => structural("priority"),
            }
        })
    }

    /// The arbiter in KISS2 format (FSM-based policies only), consumable
    /// by SIS/ABC for cross-checking the characterization.
    pub fn kiss2(&self) -> Option<String> {
        self.fsm.as_ref().map(rcarb_logic::export::fsm_to_kiss2)
    }

    /// The `tool`-synthesized netlist in BLIF format.
    pub fn blif(&self, tool: &ToolModel) -> String {
        rcarb_logic::export::netlist_to_blif(
            &format!("{}_arbiter_n{}", self.spec.policy, self.spec.n).replace('-', "_"),
            &self.synthesize(tool).netlist,
        )
    }

    /// An owned copy of the executable hardware netlist: the structural
    /// one for baselines, or the `tool`-synthesized one for the FSM
    /// policies. Callers that only read it should borrow
    /// [`synthesize`](Self::synthesize)`(tool).netlist` instead.
    pub fn netlist(&self, tool: &ToolModel) -> Netlist {
        self.synthesize(tool).netlist.clone()
    }

    /// Synthesizes with `tool` and reports area/timing.
    ///
    /// FSM policies run the full pipeline (encoding, minimization,
    /// mapping); baselines pack/time their structural netlists through
    /// the same back end. Reports are memoized in a process-wide cache
    /// addressed by the synthesized circuit (task count, FSM, encoding
    /// used, speed grade, tool), so re-synthesizing a spec with the same
    /// circuit shares the stored report instead of running the pipeline.
    pub fn synthesize(&self, tool: &ToolModel) -> Arc<SynthReport> {
        cached_synthesis(&self.spec, self.grade, tool, || {
            self.synthesize_uncached(tool)
        })
    }

    fn synthesize_uncached(&self, tool: &ToolModel) -> SynthReport {
        match &self.fsm {
            Some(fsm) => tool.synthesize_fsm(fsm, self.spec.encoding, self.grade),
            None => {
                let nl = self.structural.clone().expect("structural netlist");
                let clb = rcarb_logic::clb::pack(&nl, 0.85);
                let timing = rcarb_logic::timing::analyze(&nl, self.grade);
                SynthReport {
                    tool: tool.name(),
                    encoding_used: self.spec.encoding,
                    clb,
                    timing,
                    netlist: nl,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_generation_produces_fsm_and_vhdl() {
        let spec = ArbiterSpec::round_robin(6).with_encoding(EncodingStyle::OneHot);
        let arb = ArbiterGenerator::new().generate(&spec);
        assert_eq!(arb.fsm().num_states(), 12);
        assert!(arb.vhdl().contains("entity rr_arbiter_n6"));
    }

    #[test]
    fn synthesizer_fit_follows_the_cube_variable_ceiling() {
        let synplify = ToolModel::synplify();
        let express = ToolModel::fpga_express();
        let rr = |n| ArbiterSpec::round_robin(n);
        assert!(rr(21).fits_synthesizer(&synplify));
        assert!(!rr(22).fits_synthesizer(&synplify));
        let compact = rr(32).with_encoding(EncodingStyle::Compact);
        assert!(compact.fits_synthesizer(&express));
        assert!(!compact.fits_synthesizer(&synplify));
        let preempt = |n| rr(n).with_policy(PolicyKind::PreemptiveRoundRobin);
        assert!(preempt(10).fits_synthesizer(&express));
        assert!(!preempt(11)
            .with_encoding(EncodingStyle::Compact)
            .fits_synthesizer(&express));
        for policy in [
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::StaticPriority,
        ] {
            assert!(rr(32).with_policy(policy).fits_synthesizer(&synplify));
        }
    }

    #[test]
    fn fsm_states_match_the_generated_machines() {
        let g = ArbiterGenerator::new();
        for policy in PolicyKind::ALL {
            for n in 1..=32 {
                let spec = ArbiterSpec::round_robin(n).with_policy(policy);
                let states = g.generate(&spec).try_fsm().map(Fsm::num_states);
                assert_eq!(spec.fsm_states(), states, "{policy} n={n}");
            }
        }
    }

    #[test]
    fn baseline_generation_produces_netlist_vhdl() {
        let spec = ArbiterSpec::round_robin(4).with_policy(PolicyKind::Fifo);
        let arb = ArbiterGenerator::new().generate(&spec);
        assert!(arb.vhdl().contains("entity fifo_arbiter_n4"));
        let report = arb.synthesize(&ToolModel::synplify());
        assert!(report.clbs() > 0);
    }

    #[test]
    fn synthesized_rr_netlist_grants_like_behavioural_model() {
        use crate::policy::Policy;
        let spec = ArbiterSpec::round_robin(4);
        let arb = ArbiterGenerator::new().generate(&spec);
        let nl = arb.netlist(&ToolModel::synplify());
        let mut beh = crate::rr::RoundRobinArbiter::new(4);
        let mut state = nl.reset_state();
        let mut x = 77u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let req = x & 0b1111;
            let bits: Vec<bool> = (0..4).map(|i| req >> i & 1 != 0).collect();
            let hw = nl.step(&mut state, &bits);
            let hw_word = hw
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &g)| if g { w | 1 << i } else { w });
            assert_eq!(hw_word, beh.step(req));
        }
    }

    #[test]
    fn kiss2_and_blif_exports_are_generated() {
        let arb = ArbiterGenerator::new().generate(&ArbiterSpec::round_robin(3));
        let kiss2 = arb.kiss2().expect("round-robin has an FSM");
        assert!(kiss2.starts_with(".i 3\n.o 3\n"));
        assert!(kiss2.contains(".r F1"));
        let blif = arb.blif(&ToolModel::synplify());
        assert!(blif.starts_with(".model round_robin_arbiter_n3"));
        assert!(blif.contains(".latch"));
        // Structural policies have no FSM to export.
        let fifo = ArbiterGenerator::new()
            .generate(&ArbiterSpec::round_robin(3).with_policy(PolicyKind::Fifo));
        assert!(fifo.kiss2().is_none());
        assert!(fifo.blif(&ToolModel::synplify()).contains(".latch"));
    }

    #[test]
    fn try_round_robin_rejects_out_of_range_sizes() {
        assert!(ArbiterSpec::try_round_robin(1).is_ok());
        assert!(ArbiterSpec::try_round_robin(32).is_ok());
        assert_eq!(
            ArbiterSpec::try_round_robin(0).unwrap_err(),
            Error::InvalidTaskCount { n: 0 }
        );
        assert_eq!(
            ArbiterSpec::try_round_robin(33).unwrap_err(),
            Error::InvalidTaskCount { n: 33 }
        );
    }

    #[test]
    fn cached_synthesis_equals_cold_synthesis() {
        // A cold miss computes the report; the warm hit shares it. Both
        // must be indistinguishable, down to the mapped netlist.
        let spec = ArbiterSpec::round_robin(9).with_encoding(EncodingStyle::Compact);
        let g = ArbiterGenerator::new();
        let tool = ToolModel::fpga_express();
        let first = g.generate(&spec).synthesize(&tool);
        crate::generator::reset_synthesis_cache();
        let cold = g.generate(&spec).synthesize(&tool); // recomputed
        let warm = g.generate(&spec).synthesize(&tool); // cached
        assert_eq!(cold.netlist, warm.netlist);
        assert_eq!(first.netlist, warm.netlist);
        assert_eq!(
            (cold.clbs(), cold.fmax_mhz(), cold.encoding_used),
            (warm.clbs(), warm.fmax_mhz(), warm.encoding_used)
        );
    }

    #[test]
    fn area_grows_with_n_for_round_robin() {
        let g = ArbiterGenerator::new();
        let tool = ToolModel::fpga_express();
        let a2 = g.generate(&ArbiterSpec::round_robin(2)).synthesize(&tool);
        let a10 = g.generate(&ArbiterSpec::round_robin(10)).synthesize(&tool);
        assert!(a10.clbs() > a2.clbs());
        assert!(a10.fmax_mhz() < a2.fmax_mhz());
    }
}
