//! Arbiter pre-characterization.
//!
//! Sec. 4.3: "Since arbiters are pre-characterized for the number of inputs
//! and outputs, their area, and their delay, a precise estimation can be
//! performed by the partitioners to ensure the fitness and speed of the
//! contemplated design." This module builds those tables by sweeping the
//! generator through the synthesis pipeline — the same sweep that
//! regenerates the paper's Figs. 6 and 7.

use crate::error::Error;
use crate::generator::{ArbiterGenerator, ArbiterSpec};
use rcarb_board::device::SpeedGrade;
use rcarb_exec::global_pool;
use rcarb_logic::encode::EncodingStyle;
use rcarb_logic::tools::ToolModel;

/// The paper's three (tool, encoding) series: FPGA Express with one-hot
/// and compact, Synplify (which forces one-hot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ToolSel {
    Express,
    Synplify,
}

impl ToolSel {
    fn model(self) -> ToolModel {
        match self {
            ToolSel::Express => ToolModel::fpga_express(),
            ToolSel::Synplify => ToolModel::synplify(),
        }
    }
}

const COMBOS: [(ToolSel, EncodingStyle); 3] = [
    (ToolSel::Express, EncodingStyle::OneHot),
    (ToolSel::Express, EncodingStyle::Compact),
    (ToolSel::Synplify, EncodingStyle::OneHot),
];

/// Whether an `(n, tool, encoding)` combination fits the two-level
/// synthesizer's 64-variable cube representation.
///
/// The Fig. 5 round-robin FSM has `2N` states and `N` request inputs, and
/// synthesis needs one cube variable per state bit plus one per input.
/// One-hot spends `2N` bits on the state register, so it tops out at
/// `N = 21` (`3 * 21 = 63`); compact (`ceil(log2 2N)` bits) fits through
/// the generator's full `N = 32` range. Tools that force one-hot
/// (Synplify) are judged on one-hot regardless of the requested encoding.
pub fn synthesizable(n: usize, tool: &ToolModel, encoding: EncodingStyle) -> bool {
    let style = if tool.forces_one_hot() {
        EncodingStyle::OneHot
    } else {
        encoding
    };
    let states = 2 * n;
    let state_bits = match style {
        EncodingStyle::OneHot => states,
        EncodingStyle::Compact | EncodingStyle::Gray => {
            (usize::BITS - (states.max(2) - 1).leading_zeros()) as usize
        }
    };
    state_bits + n <= 64
}

fn char_row(n: usize, tool: &ToolModel, encoding: EncodingStyle, grade: SpeedGrade) -> CharRow {
    let spec = ArbiterSpec::round_robin(n).with_encoding(encoding);
    let report = ArbiterGenerator::new()
        .with_grade(grade)
        .synthesize(&spec, tool);
    CharRow {
        n,
        tool: report.tool,
        encoding: report.encoding_used,
        clbs: report.clbs(),
        fmax_mhz: report.fmax_mhz(),
        luts: report.clb.luts,
        ffs: report.clb.ffs,
        levels: report.timing.levels,
    }
}

/// One characterization row.
#[derive(Debug, Clone, PartialEq)]
pub struct CharRow {
    /// Arbiter size (number of tasks).
    pub n: usize,
    /// Synthesis tool name.
    pub tool: &'static str,
    /// Encoding actually used.
    pub encoding: EncodingStyle,
    /// Area in CLBs (Fig. 6 metric).
    pub clbs: u32,
    /// Maximum clock in MHz (Fig. 7 metric).
    pub fmax_mhz: f64,
    /// 4-input LUTs.
    pub luts: u32,
    /// Flip-flops.
    pub ffs: u32,
    /// Critical-path LUT levels.
    pub levels: u32,
}

/// The pre-characterization table consulted by the partitioner.
#[derive(Debug, Clone, Default)]
pub struct Characterization {
    rows: Vec<CharRow>,
}

impl Characterization {
    /// Sweeps round-robin arbiters over `ns` for every (tool, encoding)
    /// combination in the paper's evaluation: FPGA Express with one-hot
    /// and compact, Synplify (which forces one-hot).
    ///
    /// Each (N, tool, encoding) synthesis runs as an independent job on
    /// the workspace thread pool, with results reassembled in sweep
    /// order — the table is byte-identical to the sequential
    /// [`sweep_round_robin_seq`](Self::sweep_round_robin_seq) path.
    ///
    /// Combinations that would overflow the two-level synthesizer's
    /// 64-variable cube budget (one-hot above `N = 21`; see
    /// [`synthesizable`]) are skipped rather than synthesized, so the
    /// one-hot series simply end early while compact continues to
    /// `N = 32`.
    ///
    /// # Panics
    ///
    /// Panics if any `n` is zero or larger than 32; use
    /// [`try_sweep_round_robin`](Self::try_sweep_round_robin) to handle
    /// the failure.
    pub fn sweep_round_robin(ns: impl IntoIterator<Item = usize>, grade: SpeedGrade) -> Self {
        Self::try_sweep_round_robin(ns, grade).expect("arbiters support 1..=32 tasks")
    }

    /// The fallible form of [`sweep_round_robin`](Self::sweep_round_robin).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTaskCount`] if any `n` is outside
    /// `1..=32`; nothing is synthesized in that case.
    pub fn try_sweep_round_robin(
        ns: impl IntoIterator<Item = usize>,
        grade: SpeedGrade,
    ) -> Result<Self, Error> {
        let mut jobs = Vec::new();
        for n in ns {
            ArbiterSpec::try_round_robin(n)?;
            for (tool, encoding) in COMBOS {
                if synthesizable(n, &tool.model(), encoding) {
                    jobs.push((n, tool, encoding));
                }
            }
        }
        let rows = global_pool().parallel_map(jobs, move |(n, tool, encoding)| {
            char_row(n, &tool.model(), encoding, grade)
        });
        Ok(Self { rows })
    }

    /// The single-threaded reference sweep, kept as the determinism
    /// baseline for [`sweep_round_robin`](Self::sweep_round_robin).
    pub fn sweep_round_robin_seq(ns: impl IntoIterator<Item = usize>, grade: SpeedGrade) -> Self {
        let mut rows = Vec::new();
        for n in ns {
            for (tool, encoding) in COMBOS {
                if synthesizable(n, &tool.model(), encoding) {
                    rows.push(char_row(n, &tool.model(), encoding, grade));
                }
            }
        }
        Self { rows }
    }

    /// All rows.
    pub fn rows(&self) -> &[CharRow] {
        &self.rows
    }

    /// Looks up one row.
    pub fn lookup(&self, n: usize, tool: &str, encoding: EncodingStyle) -> Option<&CharRow> {
        self.rows
            .iter()
            .find(|r| r.n == n && r.tool == tool && r.encoding == encoding)
    }

    /// Rows for one (tool, encoding) series, ascending in `n` — one curve
    /// of Fig. 6 / Fig. 7.
    pub fn series(&self, tool: &str, encoding: EncodingStyle) -> Vec<&CharRow> {
        let mut rows: Vec<&CharRow> = self
            .rows
            .iter()
            .filter(|r| r.tool == tool && r.encoding == encoding)
            .collect();
        rows.sort_by_key(|r| r.n);
        rows
    }
}

/// Whether an `n`-input round-robin arbiter can be generated and its
/// Synplify netlist synthesized, as [`estimate_round_robin`] does (see
/// [`ArbiterSpec::fits_synthesizer`]). Synplify forces one-hot, so this
/// admits `1..=21`.
pub fn synplify_fits(n: usize) -> bool {
    ArbiterSpec::try_round_robin(n).is_ok_and(|spec| spec.fits_synthesizer(&ToolModel::synplify()))
}

/// Quick estimate used by the partitioner when no full table is at hand:
/// the `(clbs, fmax_mhz)` of a single round-robin arbiter synthesized
/// with the Synplify model. Once the synthesis cache holds the size, the
/// estimate is one key lookup.
///
/// # Panics
///
/// Panics unless [`synplify_fits`]`(n)`.
pub fn estimate_round_robin(n: usize, grade: SpeedGrade) -> (u32, f64) {
    let report = ArbiterGenerator::new()
        .with_grade(grade)
        .synthesize(&ArbiterSpec::round_robin(n), &ToolModel::synplify());
    (report.clbs(), report.fmax_mhz())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_three_series() {
        let c = Characterization::sweep_round_robin(2..=4, SpeedGrade::Minus3);
        assert_eq!(c.rows().len(), 9);
        assert_eq!(c.series("fpga_express", EncodingStyle::OneHot).len(), 3);
        assert_eq!(c.series("fpga_express", EncodingStyle::Compact).len(), 3);
        assert_eq!(c.series("synplify", EncodingStyle::OneHot).len(), 3);
        // Synplify forced one-hot, so no compact series exists for it.
        assert!(c.series("synplify", EncodingStyle::Compact).is_empty());
    }

    #[test]
    fn area_series_grow_with_n() {
        let c = Characterization::sweep_round_robin([2, 6, 10], SpeedGrade::Minus3);
        for (tool, enc) in [
            ("fpga_express", EncodingStyle::OneHot),
            ("fpga_express", EncodingStyle::Compact),
            ("synplify", EncodingStyle::OneHot),
        ] {
            let s = c.series(tool, enc);
            assert!(
                s.windows(2).all(|w| w[0].clbs <= w[1].clbs),
                "{tool}/{enc}: area not monotone"
            );
            assert!(
                s.windows(2).all(|w| w[0].fmax_mhz >= w[1].fmax_mhz),
                "{tool}/{enc}: clock not monotone"
            );
        }
    }

    #[test]
    fn one_hot_uses_more_ffs_than_compact() {
        let c = Characterization::sweep_round_robin([8], SpeedGrade::Minus3);
        let oh = c.lookup(8, "fpga_express", EncodingStyle::OneHot).unwrap();
        let cp = c.lookup(8, "fpga_express", EncodingStyle::Compact).unwrap();
        assert_eq!(oh.ffs, 16); // 2N one-hot states
        assert_eq!(cp.ffs, 4); // ceil(log2 16)
    }

    #[test]
    fn parallel_sweep_matches_sequential_exactly() {
        let par = Characterization::sweep_round_robin(2..=8, SpeedGrade::Minus3);
        let seq = Characterization::sweep_round_robin_seq(2..=8, SpeedGrade::Minus3);
        assert_eq!(par.rows(), seq.rows());
    }

    #[test]
    fn invalid_sizes_are_rejected_without_synthesizing() {
        let err = Characterization::try_sweep_round_robin([2, 33], SpeedGrade::Minus3)
            .expect_err("33 is out of range");
        assert_eq!(err, crate::error::Error::InvalidTaskCount { n: 33 });
        assert!(Characterization::try_sweep_round_robin([0], SpeedGrade::Minus3).is_err());
    }

    #[test]
    fn one_hot_series_end_at_the_cube_variable_ceiling() {
        // 3 * 21 = 63 variables fits; 3 * 22 = 66 does not.
        let express = ToolModel::fpga_express();
        let synplify = ToolModel::synplify();
        assert!(synthesizable(21, &express, EncodingStyle::OneHot));
        assert!(!synthesizable(22, &express, EncodingStyle::OneHot));
        assert!(!synthesizable(22, &synplify, EncodingStyle::Compact));
        assert!(synthesizable(32, &express, EncodingStyle::Compact));

        let c = Characterization::sweep_round_robin([21, 22, 32], SpeedGrade::Minus3);
        assert_eq!(c.series("fpga_express", EncodingStyle::OneHot).len(), 1);
        assert_eq!(c.series("synplify", EncodingStyle::OneHot).len(), 1);
        assert_eq!(c.series("fpga_express", EncodingStyle::Compact).len(), 3);
    }

    #[test]
    fn estimate_matches_full_sweep() {
        let c = Characterization::sweep_round_robin([5], SpeedGrade::Minus3);
        let row = c.lookup(5, "synplify", EncodingStyle::OneHot).unwrap();
        let (clbs, fmax) = estimate_round_robin(5, SpeedGrade::Minus3);
        assert_eq!(clbs, row.clbs);
        assert!((fmax - row.fmax_mhz).abs() < 1e-9);
    }
}
