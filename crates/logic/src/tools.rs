//! Synthesis-tool models.
//!
//! The paper synthesizes every generated arbiter with two commercial tools
//! and observes three behaviours worth modelling:
//!
//! * **Synplify 5.1.4** "used one-hot encoding regardless of what the VHDL
//!   files specified", ran much faster, and produced satisfactory results —
//!   modelled as a high-effort flow (strong minimization, structural
//!   sharing, tight packing) that overrides the requested encoding;
//! * **FPGA Express 2.1** honoured both encodings but optimized less
//!   aggressively — modelled as a medium-effort flow with looser packing.
//!
//! Both flows map with structural sharing. The numeric knobs
//! (`packing_efficiency`) are calibration constants; the qualitative
//! differences (encoding override, minimize effort) are structural.

use crate::clb::{self, ClbEstimate};
use crate::encode::{Encoding, EncodingStyle};
use crate::fsm::Fsm;
use crate::minimize::Effort;
use crate::netlist::Netlist;
use crate::synth::FsmNetwork;
use crate::techmap;
use crate::timing::{self, TimingReport};
use rcarb_board::device::SpeedGrade;

/// A synthesis-tool configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolModel {
    name: &'static str,
    forces_one_hot: bool,
    effort: Effort,
    packing_efficiency: f64,
}

impl ToolModel {
    /// The Synplify-like flow: forces one-hot, optimizes hard (strong
    /// minimization, tight packing).
    pub fn synplify() -> Self {
        Self {
            name: "synplify",
            forces_one_hot: true,
            effort: Effort::High,
            packing_efficiency: 0.95,
        }
    }

    /// The FPGA-Express-like flow: honours the requested encoding,
    /// optimizes moderately (weaker minimization, looser packing). Both
    /// flows use a structurally-hashed mapper — table stakes for any
    /// commercial mapper — so the tool gap comes from effort and packing.
    pub fn fpga_express() -> Self {
        Self {
            name: "fpga_express",
            forces_one_hot: false,
            effort: Effort::Medium,
            packing_efficiency: 0.62,
        }
    }

    /// The tool name used in reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether the tool overrides the requested encoding with one-hot.
    pub fn forces_one_hot(&self) -> bool {
        self.forces_one_hot
    }

    /// Runs the full pipeline on `fsm`: encode, synthesize, minimize, map,
    /// pack, time.
    pub fn synthesize_fsm(
        &self,
        fsm: &Fsm,
        requested: EncodingStyle,
        grade: SpeedGrade,
    ) -> SynthReport {
        let style = if self.forces_one_hot {
            EncodingStyle::OneHot
        } else {
            requested
        };
        let encoding = Encoding::assign(fsm, style);
        let network = FsmNetwork::synthesize(fsm, encoding, self.effort);
        let netlist = techmap::map_fsm_network(&network, true);
        let clb = clb::pack(&netlist, self.packing_efficiency);
        let timing = timing::analyze(&netlist, grade);
        SynthReport {
            tool: self.name,
            encoding_used: style,
            clb,
            timing,
            netlist,
        }
    }
}

/// The outcome of running one tool model on one FSM.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReport {
    /// Which tool produced this.
    pub tool: &'static str,
    /// The encoding actually used (after any override).
    pub encoding_used: EncodingStyle,
    /// Area result.
    pub clb: ClbEstimate,
    /// Timing result.
    pub timing: TimingReport,
    /// The mapped netlist (executable; used for co-simulation).
    pub netlist: Netlist,
}

impl SynthReport {
    /// Area in CLBs (the paper's Fig. 6 metric).
    pub fn clbs(&self) -> u32 {
        self.clb.clbs
    }

    /// Maximum clock in MHz (the paper's Fig. 7 metric).
    pub fn fmax_mhz(&self) -> f64 {
        self.timing.fmax_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::fsm::Transition;

    /// A counter FSM with `n` states that advances while input 0 is high.
    fn counter(n: usize) -> Fsm {
        let mut fsm = Fsm::new("ctr", 1, 1);
        for i in 0..n {
            fsm.add_state(format!("S{i}"));
        }
        fsm.set_reset(0);
        for s in 0..n {
            fsm.add_transition(Transition {
                from: s,
                guard: Cube::universe().with_lit(0, true),
                to: (s + 1) % n,
                outputs: u64::from(s == n - 1),
            });
            fsm.add_transition(Transition {
                from: s,
                guard: Cube::universe().with_lit(0, false),
                to: s,
                outputs: 0,
            });
        }
        fsm
    }

    #[test]
    fn synplify_overrides_encoding() {
        let fsm = counter(6);
        let r =
            ToolModel::synplify().synthesize_fsm(&fsm, EncodingStyle::Compact, SpeedGrade::Minus3);
        assert_eq!(r.encoding_used, EncodingStyle::OneHot);
        assert_eq!(r.clb.ffs, 6);
    }

    #[test]
    fn express_honours_encoding() {
        let fsm = counter(6);
        let r = ToolModel::fpga_express().synthesize_fsm(
            &fsm,
            EncodingStyle::Compact,
            SpeedGrade::Minus3,
        );
        assert_eq!(r.encoding_used, EncodingStyle::Compact);
        assert_eq!(r.clb.ffs, 3); // ceil(log2 6)
    }

    #[test]
    fn mapped_netlist_behaves_like_fsm() {
        let fsm = counter(4);
        fsm.validate().unwrap();
        let r =
            ToolModel::synplify().synthesize_fsm(&fsm, EncodingStyle::OneHot, SpeedGrade::Minus3);
        let mut state = r.netlist.reset_state();
        // Pulse the input 4 times; the terminal-count output must fire on
        // the 4th cycle exactly.
        let mut fires = Vec::new();
        for _ in 0..8 {
            let out = r.netlist.step(&mut state, &[true]);
            fires.push(out[0]);
        }
        assert_eq!(
            fires,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn larger_fsms_cost_more_area() {
        let t = ToolModel::fpga_express();
        let small = t.synthesize_fsm(&counter(4), EncodingStyle::OneHot, SpeedGrade::Minus3);
        let large = t.synthesize_fsm(&counter(16), EncodingStyle::OneHot, SpeedGrade::Minus3);
        assert!(large.clbs() > small.clbs());
    }

    #[test]
    fn synplify_beats_express_on_area_for_one_hot() {
        let fsm = counter(10);
        let s =
            ToolModel::synplify().synthesize_fsm(&fsm, EncodingStyle::OneHot, SpeedGrade::Minus3);
        let e = ToolModel::fpga_express().synthesize_fsm(
            &fsm,
            EncodingStyle::OneHot,
            SpeedGrade::Minus3,
        );
        assert!(s.clbs() <= e.clbs());
    }
}
