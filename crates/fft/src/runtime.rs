//! The hardware-vs-software runtime comparison (Sec. 5, experiment E5).
//!
//! The paper: "the RC's hardware execution (4.4 sec for a 512x512 image)
//! proved faster than a software execution on a Pentium system running at
//! 150 MHz (6.8 sec)". The hardware number decomposes into
//!
//! ```text
//! t_hw = blocks * cycles_per_block / f_design
//!      + blocks * bytes_per_block / host_bandwidth
//!      + configs * t_reconfig
//! ```
//!
//! with `cycles_per_block` measured by cycle-accurate simulation of all
//! three temporal partitions and `f_design = 6 MHz` (the paper's design
//! clock).
//!
//! ## Calibration
//!
//! `HOST_BANDWIDTH` (425 KB/s) models the era's per-word host-to-board
//! transfers and is calibrated so the total lands at the paper's measured
//! 4.4 s; `RECONFIG_SECONDS` (60 ms per configuration) is a typical
//! XC4013E full-configuration time. The *shape* — hardware beating the
//! Pentium by roughly 1.5x despite a 6 MHz clock — follows from the
//! measured cycle counts, not the calibration.

use crate::flow::{simulate_block, simulate_block_timed, simulate_blocks, BlockSim, FftFlow};
use crate::image::Image;
use crate::swmodel;
use rcarb_exec::PerfReport;
use rcarb_sim::config::SimConfig;
use rcarb_sim::scheduler::KernelStats;
use std::time::Instant;

/// The paper's design clock (Sec. 5: "the design clocked at about
/// 6 MHz").
pub const DESIGN_CLOCK_HZ: f64 = 6.0e6;
/// Host I/O bandwidth for block transfers (calibrated; see module docs).
pub const HOST_BANDWIDTH_BYTES_PER_S: f64 = 425.0e3;
/// Full-device configuration time per temporal partition.
pub const RECONFIG_SECONDS: f64 = 0.060;
/// Bytes moved between host and board per 4x4 block: 16 input pixels
/// (2 bytes each) in, 32 output words (2 bytes each) out.
pub const BYTES_PER_BLOCK: f64 = (16 * 2 + 64) as f64;

/// The E5 comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// 4x4 blocks processed.
    pub blocks: u64,
    /// Simulated cycles per block, per temporal partition.
    pub stage_cycles: Vec<u64>,
    /// Kernel cycle accounting per temporal partition (executed versus
    /// skipped cycles under the batched kernel).
    pub stage_kernel: Vec<KernelStats>,
    /// Hardware compute time, seconds.
    pub hw_compute_s: f64,
    /// Hardware host-I/O time, seconds.
    pub hw_io_s: f64,
    /// Reconfiguration time, seconds.
    pub hw_reconfig_s: f64,
    /// Total hardware time, seconds.
    pub hw_total_s: f64,
    /// Modelled software time, seconds.
    pub sw_total_s: f64,
}

impl RuntimeReport {
    /// Software-over-hardware speedup (the paper's headline is ~1.55x).
    pub fn speedup(&self) -> f64 {
        self.sw_total_s / self.hw_total_s
    }
}

/// Runs E5 for an `n x n` image (the paper uses `n = 512`).
///
/// One representative tile is simulated cycle-accurately (tile data does
/// not change control flow — the programs are straight-line — so every
/// block costs the same cycles; a debug assertion cross-checks that on a
/// second tile).
pub fn compare_512(flow: &FftFlow, n: usize) -> RuntimeReport {
    let image = Image::synthetic(n, n, 0x5eed);
    // Two representative tiles, simulated concurrently; the second only
    // cross-checks the cycle claim above.
    let sims = simulate_blocks(flow, vec![image.tile4(0, 0), image.tile4(4, 4)]);
    assemble_report(flow, &image, &sims[0], &sims[1])
}

/// [`compare_512`] plus wall-clock stage timings: returns the report
/// alongside a [`PerfReport`] with one `sim/partition{i}` stage per
/// temporal partition and a `sim/crosscheck` stage for the second tile.
pub fn compare_512_timed(flow: &FftFlow, n: usize) -> (RuntimeReport, PerfReport) {
    let image = Image::synthetic(n, n, 0x5eed);
    let (first, mut perf) = simulate_block_timed(flow, image.tile4(0, 0), SimConfig::new());
    let started = Instant::now();
    let second = simulate_block(flow, image.tile4(4, 4));
    perf.add_stage("sim/crosscheck", started.elapsed());
    (assemble_report(flow, &image, &first, &second), perf)
}

fn assemble_report(
    flow: &FftFlow,
    image: &Image,
    first: &BlockSim,
    second: &BlockSim,
) -> RuntimeReport {
    let blocks = image.num_tiles4() as u64;
    assert_eq!(
        first.stage_cycles, second.stage_cycles,
        "straight-line tasks must cost identical cycles per tile"
    );
    let cycles_per_block = first.total_cycles();
    let hw_compute_s = blocks as f64 * cycles_per_block as f64 / DESIGN_CLOCK_HZ;
    let hw_io_s = blocks as f64 * BYTES_PER_BLOCK / HOST_BANDWIDTH_BYTES_PER_S;
    let hw_reconfig_s = flow.result.num_stages() as f64 * RECONFIG_SECONDS;
    let sw_total_s = swmodel::fft2d_seconds(image.width());
    RuntimeReport {
        blocks,
        stage_cycles: first.stage_cycles.clone(),
        stage_kernel: first.stage_kernel.clone(),
        hw_compute_s,
        hw_io_s,
        hw_reconfig_s,
        hw_total_s: hw_compute_s + hw_io_s + hw_reconfig_s,
        sw_total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::run_fft_flow;

    #[test]
    fn e5_hardware_beats_the_pentium() {
        let flow = run_fft_flow().unwrap();
        let report = compare_512(&flow, 512);
        assert_eq!(report.blocks, 128 * 128);
        // Paper: 4.4 s hardware vs 6.8 s software, speedup ~1.55x. The
        // shape must hold: hardware wins, by a modest factor.
        assert!(
            report.hw_total_s < report.sw_total_s,
            "hw {:.2}s vs sw {:.2}s",
            report.hw_total_s,
            report.sw_total_s
        );
        let speedup = report.speedup();
        assert!(
            (1.0..=3.0).contains(&speedup),
            "speedup {speedup:.2} out of the paper's ballpark (1.55)"
        );
        // Hardware time lands near the measured 4.4 s.
        assert!(
            (3.0..=6.0).contains(&report.hw_total_s),
            "hw total {:.2}s",
            report.hw_total_s
        );
    }

    #[test]
    fn timed_comparison_matches_and_exposes_kernel_stats() {
        let flow = run_fft_flow().unwrap();
        let (timed, perf) = compare_512_timed(&flow, 128);
        assert_eq!(timed, compare_512(&flow, 128));
        assert_eq!(timed.stage_kernel.len(), timed.stage_cycles.len());
        for (stats, &cycles) in timed.stage_kernel.iter().zip(&timed.stage_cycles) {
            assert_eq!(stats.total_cycles(), cycles);
        }
        assert!(perf.stage("sim/partition0").is_some());
        assert!(perf.stage("sim/crosscheck").is_some());
    }

    #[test]
    fn smaller_images_scale_down() {
        let flow = run_fft_flow().unwrap();
        let big = compare_512(&flow, 512);
        let small = compare_512(&flow, 128);
        assert!(small.hw_total_s < big.hw_total_s);
        assert!(small.sw_total_s < big.sw_total_s);
        assert_eq!(small.blocks, 32 * 32);
    }
}
