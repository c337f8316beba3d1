//! Row generators of the `figures` binary.

use rcarb_board::device::SpeedGrade;
use rcarb_core::characterize::Characterization;
use rcarb_core::generator::{ArbiterGenerator, ArbiterSpec};
use rcarb_core::policy::PolicyKind;
use rcarb_logic::encode::EncodingStyle;
use rcarb_logic::tools::ToolModel;

/// One point of a Fig. 6 / Fig. 7 series.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Arbiter size.
    pub n: usize,
    /// Series label (tool + encoding, matching the paper's legend).
    pub series: String,
    /// Area in CLBs.
    pub clbs: u32,
    /// Clock in MHz.
    pub fmax_mhz: f64,
}

fn sweep(ns: std::ops::RangeInclusive<usize>) -> Vec<SweepRow> {
    let table = Characterization::sweep_round_robin(ns, SpeedGrade::Minus3);
    let mut rows = Vec::new();
    for (tool, enc, label) in [
        (
            "fpga_express",
            EncodingStyle::OneHot,
            "FPGA_express One-Hot",
        ),
        (
            "fpga_express",
            EncodingStyle::Compact,
            "FPGA_express Compact",
        ),
        ("synplify", EncodingStyle::OneHot, "Synplify One-Hot"),
    ] {
        for row in table.series(tool, enc) {
            rows.push(SweepRow {
                n: row.n,
                series: label.to_owned(),
                clbs: row.clbs,
                fmax_mhz: row.fmax_mhz,
            });
        }
    }
    rows
}

/// Fig. 6: N-input arbiter sizes in CLBs, N in [2, 10], three
/// tool/encoding series.
pub fn fig6_rows() -> Vec<SweepRow> {
    sweep(2..=10)
}

/// Fig. 7: N-input arbiter clock speeds in MHz, same sweep.
pub fn fig7_rows() -> Vec<SweepRow> {
    sweep(2..=10)
}

/// One row of the policy ablation (the paper's Sec. 4 rationale).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Arbiter size.
    pub n: usize,
    /// Policy compared.
    pub policy: PolicyKind,
    /// Area in CLBs.
    pub clbs: u32,
    /// Flip-flops consumed.
    pub ffs: u32,
    /// Clock in MHz.
    pub fmax_mhz: f64,
}

/// Ablation A1: area/clock of all four policies over N.
pub fn policy_ablation_rows(ns: impl IntoIterator<Item = usize>) -> Vec<PolicyRow> {
    let generator = ArbiterGenerator::new();
    let tool = ToolModel::synplify();
    let mut rows = Vec::new();
    for n in ns {
        for policy in PolicyKind::ALL {
            let spec = ArbiterSpec::round_robin(n).with_policy(policy);
            let report = generator.synthesize(&spec, &tool);
            rows.push(PolicyRow {
                n,
                policy,
                clbs: report.clbs(),
                ffs: report.clb.ffs,
                fmax_mhz: report.fmax_mhz(),
            });
        }
    }
    rows
}

/// One row of the Fig. 11 reproduction: a temporal partition and its
/// arbiters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig11Row {
    /// Partition index.
    pub partition: usize,
    /// Task names in the partition.
    pub tasks: Vec<String>,
    /// Arbiter names (e.g. "Arb6").
    pub arbiters: Vec<String>,
    /// Total pre-characterized arbiter area, CLBs.
    pub arbiter_clbs: u32,
}

/// E4: the FFT flow's partition/arbiter structure (Figs. 10-11).
pub fn fig11_rows() -> Vec<Fig11Row> {
    let flow = rcarb_fft::flow::run_fft_flow().expect("the shipped FFT flow partitions cleanly");
    flow.result
        .stages
        .iter()
        .map(|stage| Fig11Row {
            partition: stage.index,
            tasks: stage
                .plan
                .graph
                .tasks()
                .iter()
                .map(|t| t.name().to_owned())
                .collect(),
            arbiters: stage.plan.arbiters.iter().map(|a| a.name()).collect(),
            arbiter_clbs: stage.plan.total_arbiter_clbs(),
        })
        .collect()
}

/// E5: the hardware-vs-software runtime comparison.
pub fn e5_report() -> rcarb_fft::runtime::RuntimeReport {
    let flow = rcarb_fft::flow::run_fft_flow().expect("flow");
    rcarb_fft::runtime::compare_512(&flow, 512)
}

/// One row of the protocol-overhead experiment (E7): batch size M versus
/// measured cycles for a fixed access count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadRow {
    /// The Fig. 8 burst bound.
    pub m: u32,
    /// Accesses issued by the measured task.
    pub accesses: u32,
    /// Cycles without arbitration.
    pub plain_cycles: u64,
    /// Cycles with the protocol inserted.
    pub arbitrated_cycles: u64,
}

impl OverheadRow {
    /// Measured protocol overhead in cycles.
    pub fn overhead(&self) -> u64 {
        self.arbitrated_cycles - self.plain_cycles
    }
}

/// E7 / A3: protocol overhead versus the burst bound M.
pub fn protocol_overhead_rows(accesses: u32, ms: &[u32]) -> Vec<OverheadRow> {
    use rcarb_core::channel::ChannelMergePlan;
    use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
    use rcarb_core::memmap::bind_segments;
    use rcarb_sim::engine::SystemBuilder;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::id::TaskId;
    use rcarb_taskgraph::program::{Expr, Program};

    let board = rcarb_board::presets::duo_small();
    let build = |m: Option<u32>| -> u64 {
        let mut b = TaskGraphBuilder::new("overhead");
        let m1 = b.segment("M1", 256, 16);
        let m2 = b.segment("M2", 256, 16);
        b.task(
            "probe",
            Program::build(|p| {
                for i in 0..accesses {
                    p.mem_write(m1, Expr::lit(u64::from(i)), Expr::lit(1));
                }
            }),
        );
        let other = b.task(
            "other",
            Program::build(|p| {
                p.mem_write(m2, Expr::lit(0), Expr::lit(2));
            }),
        );
        b.control_dep(TaskId::new(0), other);
        let graph = b.finish().expect("valid");
        let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
        let report = match m {
            Some(m) => {
                let plan = insert_arbiters(
                    &graph,
                    &binding,
                    &ChannelMergePlan::default(),
                    &InsertionConfig::paper().with_max_burst(m),
                );
                SystemBuilder::from_plan(&plan, &binding, &ChannelMergePlan::default())
                    .try_build(&board)
                    .unwrap()
                    .run(1_000_000)
            }
            None => SystemBuilder::unarbitrated(&graph, &binding, &ChannelMergePlan::default())
                .try_build(&board)
                .unwrap()
                .run(1_000_000),
        };
        assert!(report.completed);
        let probe = report.task(TaskId::new(0));
        probe.finished_at.expect("finished") - probe.started_at.expect("started")
    };
    let plain = build(None);
    ms.iter()
        .map(|&m| OverheadRow {
            m,
            accesses,
            plain_cycles: plain,
            arbitrated_cycles: build(Some(m)),
        })
        .collect()
}

/// One row of the elision ablation (A2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElisionRow {
    /// Whether dependency-aware elision ran.
    pub elision: bool,
    /// Arbiter sizes per partition.
    pub arbiter_sizes: Vec<Vec<usize>>,
    /// Total arbiter CLBs across partitions.
    pub total_clbs: u32,
    /// Simulated cycles for one FFT block (sum over partitions).
    pub block_cycles: u64,
}

/// A2: the FFT flow with and without the Sec. 5 elision improvement.
pub fn elision_rows() -> Vec<ElisionRow> {
    use rcarb_fft::flow::{run_fft_flow_with, simulate_block};
    [false, true]
        .into_iter()
        .map(|elision| {
            let flow = run_fft_flow_with(elision).expect("flow");
            let sizes: Vec<Vec<usize>> = flow.result.arbiter_sizes();
            let total: u32 = flow
                .result
                .stages
                .iter()
                .map(|s| s.plan.total_arbiter_clbs())
                .sum();
            let block = simulate_block(
                &flow,
                [[1, 2, 3, 4], [5, 6, 7, 8], [9, 1, 2, 3], [4, 5, 6, 7]],
            );
            ElisionRow {
                elision,
                arbiter_sizes: sizes,
                total_clbs: total,
                block_cycles: block.total_cycles(),
            }
        })
        .collect()
}

/// One row of the contention-scaling extension experiment (A4): how the
/// protocol's cost and fairness evolve as more tasks share one bank.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Number of contending tasks (= arbiter inputs).
    pub tasks: usize,
    /// Total cycles to drain the workload.
    pub cycles: u64,
    /// Stall share of total task activity.
    pub overhead_fraction: f64,
    /// Jain fairness index over per-task stalls.
    pub stall_fairness: f64,
    /// Worst grant wait observed.
    pub worst_wait: u64,
}

/// A4: N tasks, each issuing the same access workload against one shared
/// bank, N swept — the paper promises "very little overhead"; this
/// quantifies how that holds up under growing contention.
pub fn contention_scaling_rows(ns: &[usize], accesses_per_task: u32) -> Vec<ScalingRow> {
    use rcarb_core::channel::ChannelMergePlan;
    use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
    use rcarb_core::memmap::bind_segments;
    use rcarb_sim::engine::SystemBuilder;
    use rcarb_sim::stats::RunSummary;
    use rcarb_taskgraph::builder::TaskGraphBuilder;
    use rcarb_taskgraph::program::{Expr, Program};

    let board = rcarb_board::presets::duo_small();
    ns.iter()
        .map(|&n| {
            let mut b = TaskGraphBuilder::new("scaling");
            let segs: Vec<_> = (0..n).map(|i| b.segment(format!("M{i}"), 64, 16)).collect();
            for (i, &s) in segs.iter().enumerate() {
                b.task(
                    format!("T{i}"),
                    Program::build(|p| {
                        p.repeat(accesses_per_task, |p| {
                            p.mem_write(s, Expr::lit(0), Expr::lit(1));
                        });
                    }),
                );
            }
            let graph = b.finish().expect("valid");
            let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
            let plan = insert_arbiters(
                &graph,
                &binding,
                &ChannelMergePlan::default(),
                &InsertionConfig::paper(),
            );
            let mut sys = SystemBuilder::from_plan(&plan, &binding, &ChannelMergePlan::default())
                .try_build(&board)
                .unwrap();
            let report = sys.run(10_000_000);
            assert!(report.clean(), "n={n}: {:?}", report.violations);
            let summary = RunSummary::of(&report);
            ScalingRow {
                tasks: n,
                cycles: report.cycles,
                overhead_fraction: summary.overhead_fraction(),
                stall_fairness: summary.stall_fairness,
                worst_wait: report.worst_wait,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_has_27_points() {
        let rows = fig6_rows();
        assert_eq!(rows.len(), 27); // 9 sizes x 3 series
    }

    #[test]
    fn fig6_shape_matches_paper() {
        // Sec. 4.2: "a 10-bit arbiter added about 40 CLBs" on commercial
        // multi-level synthesis; our pipeline (two-level + hashing +
        // single-literal extraction) lands within ~2.5x of that for the
        // best flow and preserves the figure's shape: monotone growth of
        // the one-hot series, Synplify cheapest, small arbiters (N in
        // [2, 6], the common sizes) staying modest.
        let rows = fig6_rows();
        let series = |name: &str| -> Vec<u32> {
            rows.iter()
                .filter(|r| r.series == name)
                .map(|r| r.clbs)
                .collect()
        };
        for name in ["FPGA_express One-Hot", "Synplify One-Hot"] {
            let s = series(name);
            assert!(
                s.windows(2).all(|w| w[0] <= w[1]),
                "{name} not monotone: {s:?}"
            );
        }
        let syn = series("Synplify One-Hot");
        let exp = series("FPGA_express One-Hot");
        assert!(syn.iter().zip(&exp).all(|(s, e)| s <= e));
        // 10-input arbiter: paper ~40 CLBs; accept up to 2.5x model scale.
        assert!(
            (40..=100).contains(&syn[8]),
            "synplify N=10 at {} CLBs",
            syn[8]
        );
        // N in [2, 6] — the range the paper says covers most taskgraphs —
        // stays under 60 CLBs even for the weaker flow.
        assert!(exp[..5].iter().all(|&c| c <= 60), "{exp:?}");
    }

    #[test]
    fn fig7_shape_matches_paper() {
        // Fig. 7: clock decreases with N; "10-bit arbiters clocked at
        // 26 MHz" on the XC4000E-3 (we land within a few MHz).
        let rows = fig7_rows();
        for name in ["FPGA_express One-Hot", "Synplify One-Hot"] {
            let s: Vec<f64> = rows
                .iter()
                .filter(|r| r.series == name)
                .map(|r| r.fmax_mhz)
                .collect();
            assert!(
                s.windows(2).all(|w| w[0] >= w[1]),
                "{name} not monotone: {s:?}"
            );
            assert!(
                (18.0..=35.0).contains(&s[8]),
                "{name} N=10 at {} MHz (paper: 26)",
                s[8]
            );
            assert!(s[0] > 40.0, "{name} N=2 too slow: {} MHz", s[0]);
        }
    }

    #[test]
    fn policy_ablation_round_robin_beats_fifo_and_random_on_area() {
        let rows = policy_ablation_rows([6]);
        let clbs = |p: PolicyKind| rows.iter().find(|r| r.policy == p).unwrap().clbs;
        assert!(clbs(PolicyKind::RoundRobin) < clbs(PolicyKind::Fifo));
        assert!(clbs(PolicyKind::RoundRobin) < clbs(PolicyKind::Random));
    }

    #[test]
    fn fig11_rows_match_the_paper() {
        let rows = fig11_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].arbiters, vec!["Arb6", "Arb2"]);
        assert_eq!(rows[1].arbiters, vec!["Arb4"]);
        assert!(rows[2].arbiters.is_empty());
    }

    #[test]
    fn e7_overhead_is_two_cycles_per_batch() {
        let rows = protocol_overhead_rows(8, &[1, 2, 4, 8]);
        for r in &rows {
            let batches = u64::from(r.accesses.div_ceil(r.m));
            assert_eq!(r.overhead(), 2 * batches, "M={}", r.m);
        }
        // Larger M strictly reduces overhead for multi-access bursts.
        assert!(rows[0].overhead() > rows[3].overhead());
    }

    #[test]
    fn a4_contention_scaling_behaves() {
        let rows = contention_scaling_rows(&[1, 2, 4, 8], 8);
        // More contenders -> longer drains, more waiting, but fairness
        // stays high (round-robin's selling point) and the worst wait is
        // bounded by (N-1) holders' batches.
        assert!(rows.windows(2).all(|w| w[0].cycles < w[1].cycles));
        assert!(rows.windows(2).all(|w| w[0].worst_wait <= w[1].worst_wait));
        for r in &rows {
            assert!(
                r.stall_fairness > 0.9,
                "n={}: unfair stalls ({:.3})",
                r.tasks,
                r.stall_fairness
            );
            let bound = (r.tasks as u64 - 1) * (2 + 2) + 4;
            assert!(
                r.worst_wait <= bound,
                "n={}: wait {} exceeds bound {}",
                r.tasks,
                r.worst_wait,
                bound
            );
        }
        // A lone task still pays the protocol but never stalls.
        assert_eq!(rows[0].worst_wait, 0);
    }

    #[test]
    fn a2_elision_shrinks_area_and_latency_never_worsens() {
        let rows = elision_rows();
        let base = &rows[0];
        let elided = &rows[1];
        assert_eq!(base.arbiter_sizes, vec![vec![6, 2], vec![4], vec![]]);
        assert_eq!(elided.arbiter_sizes, vec![vec![4, 2], vec![4], vec![]]);
        assert!(elided.total_clbs < base.total_clbs);
        assert!(elided.block_cycles <= base.block_cycles);
    }
}
