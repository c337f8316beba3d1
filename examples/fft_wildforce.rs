//! The paper's Sec. 5 experiment end to end: the 4x4 2-D FFT taskgraph
//! partitioned and synthesized for the Annapolis Wildforce board, with
//! automatic arbiter insertion, design-rule analysis, concurrent
//! cycle-accurate simulation of independent tiles, numeric verification
//! against an exact FFT, and the hardware-vs-Pentium-150 runtime
//! comparison — instrumented with a [`PerfReport`].
//!
//! ```text
//! cargo run --example fft_wildforce
//! ```

use rcarb::fft::reference::{dft4x4, Complex};
use rcarb::prelude::*;

fn main() {
    let mut perf = PerfReport::new();

    let flow = perf.time("flow/partition+insert", || {
        run_fft_flow().expect("the shipped FFT flow partitions cleanly")
    });

    println!(
        "design: {} tasks, {} memory segments, board: {}",
        flow.graph.tasks().len(),
        flow.graph.segments().len(),
        flow.board.name()
    );
    println!();

    // The paper: "the tool produced three temporal partitions"; #0 holds
    // a 6-input and a 2-input arbiter (Fig. 11), #1 a 4-input, #2 none.
    for stage in &flow.result.stages {
        let tasks: Vec<&str> = stage.plan.graph.tasks().iter().map(|t| t.name()).collect();
        let arbs: Vec<String> = stage.plan.arbiters.iter().map(|a| a.name()).collect();
        println!(
            "temporal partition #{}: tasks [{}]",
            stage.index,
            tasks.join(", ")
        );
        if arbs.is_empty() {
            println!("  no arbitration required");
        }
        for a in &stage.plan.arbiters {
            println!(
                "  {} guards {} ({} CLBs, {:.1} MHz)",
                a.name(),
                a.resource,
                a.clbs,
                a.fmax_mhz
            );
        }
        // Fig. 11's wire labels: data lines + Request/Grant pairs per
        // off-chip connection, checked against each PE's off-chip budget.
        let ic = stage.interconnect(&flow.board);
        for edge in &ic.edges {
            println!("  wire: {edge}");
        }
        assert!(
            ic.over_board_budget(&flow.board).is_empty(),
            "off-chip wire budget overflow"
        );
    }

    // Static analysis of all three partitions.
    let analysis = perf.time("flow/analyze", || flow.analyze(&AnalyzeConfig::default()));
    assert!(analysis.is_clean(), "{}", analysis.render_text());
    println!(
        "\nanalysis: clean across {} partitions ({} finding(s))",
        flow.result.num_stages(),
        analysis.diagnostics().len()
    );

    // Simulate a few independent tiles concurrently — each runs all three
    // temporal partitions — and verify every output against the exact
    // reference FFT.
    let tiles: Vec<[[i64; 4]; 4]> = vec![
        [
            [12, 7, 3, 99],
            [0, 45, 81, 2],
            [9, 9, 9, 9],
            [1, 0, 255, 17],
        ],
        [
            [1, 2, 3, 4],
            [5, 6, 7, 8],
            [9, 10, 11, 12],
            [13, 14, 15, 16],
        ],
        [
            [255, 0, 255, 0],
            [0, 255, 0, 255],
            [7, 7, 7, 7],
            [0, 0, 0, 1],
        ],
    ];
    let sims = perf.time("flow/simulate-tiles", || {
        simulate_blocks(&flow, tiles.clone())
    });
    for (tile, sim) in tiles.iter().zip(&sims) {
        let expected = dft4x4(std::array::from_fn(|r| {
            std::array::from_fn(|c| Complex::real(tile[r][c]))
        }));
        assert_eq!(sim.output, expected, "hardware result must match the FFT");
    }
    println!(
        "\nblock simulation: {} tiles in parallel, cycles per partition {:?} (total {}), \
         outputs verified against exact FFT",
        sims.len(),
        sims[0].stage_cycles,
        sims[0].total_cycles()
    );

    // The 512x512 comparison (paper: 4.4 s hardware vs 6.8 s software).
    let report = perf.time("flow/compare-512", || compare_512(&flow, 512));
    println!("\n512x512 image, {} blocks:", report.blocks);
    println!(
        "  hardware: {:.2}s  (compute {:.2}s + host I/O {:.2}s + reconfig {:.2}s)",
        report.hw_total_s, report.hw_compute_s, report.hw_io_s, report.hw_reconfig_s
    );
    println!("  software: {:.2}s  (Pentium-150 model)", report.sw_total_s);
    println!(
        "  speedup:  {:.2}x  (paper reports 1.55x)",
        report.speedup()
    );

    // Observability: pool counters, synthesis-cache hit rate, stage
    // wall times.
    let mut perf = perf.with_pool(global_pool().stats());
    perf.add_cache("synthesis", rcarb::arb::generator::synthesis_cache_stats());
    println!("\n{}", perf.render_text());
}
