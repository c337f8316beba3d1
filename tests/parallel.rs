//! Workspace-level determinism guarantees of the parallel engine: every
//! parallel path must be byte-identical to its sequential reference, and
//! the synthesis cache must be invisible except in wall time and in its
//! hit/miss counters.

use rcarb::arb::characterize::{estimate_round_robin, Characterization};
use rcarb::arb::fifo::FifoArbiter;
use rcarb::arb::generator::{
    reset_synthesis_cache, synthesis_cache_stats, ArbiterGenerator, ArbiterSpec,
};
use rcarb::arb::policy::DEFAULT_PREEMPT_QUANTUM;
use rcarb::arb::preempt::preemptive_round_robin_fsm;
use rcarb::arb::priority::StaticPriorityArbiter;
use rcarb::arb::random::RandomArbiter;
use rcarb::arb::rr::round_robin_fsm;
use rcarb::board::device::SpeedGrade;
use rcarb::exec::CacheStats;
use rcarb::fft::flow::{run_fft_flow, simulate_block, simulate_blocks};
use rcarb::logic::netlist::Netlist;
use rcarb::logic::tools::SynthReport;
use rcarb::logic::{clb, timing};
use rcarb::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// Every test here reads or resets the process-wide synthesis cache, and
/// the counter tests assert exact deltas; they take this lock so that
/// the harness's threads do not interleave their lookups.
fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `(hits, misses)` added to the synthesis cache since `before`.
fn lookups_since(before: CacheStats) -> (u64, u64) {
    let now = synthesis_cache_stats();
    (now.hits - before.hits, now.misses - before.misses)
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let _cache = cache_lock();
    let par = Characterization::sweep_round_robin(2..=10, SpeedGrade::Minus3);
    let seq = Characterization::sweep_round_robin_seq(2..=10, SpeedGrade::Minus3);
    assert_eq!(par.rows(), seq.rows());
}

#[test]
fn parallel_fft_tile_simulation_is_byte_identical_to_sequential() {
    let _cache = cache_lock();
    let flow = run_fft_flow().expect("flow partitions");
    let tiles: Vec<[[i64; 4]; 4]> = (0..4)
        .map(|t| std::array::from_fn(|r| std::array::from_fn(|c| (t * 31 + r * 4 + c) as i64)))
        .collect();
    let par = simulate_blocks(&flow, tiles.clone());
    for (tile, p) in tiles.into_iter().zip(&par) {
        let s = simulate_block(&flow, tile);
        assert_eq!(p.output, s.output);
        assert_eq!(p.stage_cycles, s.stage_cycles);
    }
}

#[test]
fn synthesis_cache_hit_returns_an_identical_netlist() {
    let _cache = cache_lock();
    let spec = ArbiterSpec::round_robin(7).with_encoding(EncodingStyle::Compact);
    let arbiter = ArbiterGenerator::new().generate(&spec);
    let tool = ToolModel::fpga_express();
    reset_synthesis_cache();
    let miss = arbiter.synthesize(&tool); // cold: computed and stored
    let hit = arbiter.synthesize(&tool); // warm: served from the cache
    assert_eq!(miss, hit);
    assert_eq!(miss.netlist, hit.netlist);
    // A fresh cache recomputes the same report from scratch.
    reset_synthesis_cache();
    assert_eq!(arbiter.synthesize(&tool), miss);
}

#[test]
fn facade_simulation_is_deterministic_across_runs() {
    let _cache = cache_lock();
    let mut b = TaskGraphBuilder::new("det");
    let m1 = b.segment("M1", 256, 16);
    let m2 = b.segment("M2", 256, 16);
    b.task(
        "T1",
        Program::build(|p| p.mem_write(m1, Expr::lit(0), Expr::lit(9))),
    );
    b.task(
        "T2",
        Program::build(|p| {
            let _ = p.mem_read(m2, Expr::lit(0));
        }),
    );
    let graph = b.finish().unwrap();
    let planned = Design::new(graph, presets::duo_small()).plan().unwrap();
    let a = planned.simulate(SimConfig::new(), 10_000).unwrap();
    let b = planned.simulate(SimConfig::new(), 10_000).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.violations, b.violations);
    assert!(a.clean());
}

#[test]
fn warm_lookups_add_one_hit_each_and_no_misses() {
    let _cache = cache_lock();
    let grade = SpeedGrade::Minus3;
    let ns = 2..=7;
    reset_synthesis_cache();

    let before = synthesis_cache_stats();
    let cold = Characterization::sweep_round_robin(ns.clone(), grade);
    let rows = cold.rows().len() as u64;
    assert_eq!(rows, 6 * 3);
    assert_eq!(
        lookups_since(before),
        (0, rows),
        "a cold sweep misses once per row"
    );

    let before = synthesis_cache_stats();
    let warm = Characterization::sweep_round_robin(ns.clone(), grade);
    assert_eq!(warm.rows(), cold.rows());
    assert_eq!(
        lookups_since(before),
        (rows, 0),
        "a warm sweep hits once per row"
    );

    let before = synthesis_cache_stats();
    for n in ns.clone() {
        let row = cold.lookup(n, "synplify", EncodingStyle::OneHot).unwrap();
        assert_eq!(estimate_round_robin(n, grade), (row.clbs, row.fmax_mhz));
    }
    assert_eq!(lookups_since(before), (6, 0), "one hit per estimate");

    let backend = InProcessBackend::new();
    let before = synthesis_cache_stats();
    for n in ns.clone() {
        for include_vhdl in [false, true] {
            let resp = backend
                .synthesize(&SynthesizeRequest {
                    include_vhdl,
                    ..SynthesizeRequest::round_robin(n)
                })
                .unwrap();
            let row = cold.lookup(n, "synplify", EncodingStyle::OneHot).unwrap();
            assert_eq!(resp.clbs, u64::from(row.clbs));
            assert_eq!(resp.states, 2 * n as u64);
            assert_eq!(resp.vhdl.is_some(), include_vhdl);
        }
    }
    assert_eq!(
        lookups_since(before),
        (12, 0),
        "one hit per served synthesize, VHDL or not"
    );
}

#[test]
fn warm_reports_equal_the_uncached_pipeline() {
    let _cache = cache_lock();
    let grade = SpeedGrade::Minus2;
    let generator = ArbiterGenerator::new().with_grade(grade);
    reset_synthesis_cache();
    for n in [2, 5, 8] {
        for policy in PolicyKind::ALL {
            for encoding in [EncodingStyle::OneHot, EncodingStyle::Compact] {
                for tool in [ToolModel::synplify(), ToolModel::fpga_express()] {
                    let spec = ArbiterSpec::round_robin(n)
                        .with_policy(policy)
                        .with_encoding(encoding);
                    let cold = generator.synthesize(&spec, &tool);
                    let before = synthesis_cache_stats();
                    let warm = generator.synthesize(&spec, &tool);
                    assert_eq!(lookups_since(before), (1, 0));
                    assert!(Arc::ptr_eq(&cold, &warm), "a hit shares the stored report");

                    // Baselines pack and time their structural netlists
                    // at the generator's fixed 85 % packing efficiency.
                    let structural = |netlist: Netlist| SynthReport {
                        tool: tool.name(),
                        encoding_used: encoding,
                        clb: clb::pack(&netlist, 0.85),
                        timing: timing::analyze(&netlist, grade),
                        netlist,
                    };
                    let reference = match policy {
                        PolicyKind::RoundRobin | PolicyKind::PrefixRoundRobin => {
                            tool.synthesize_fsm(&round_robin_fsm(n), encoding, grade)
                        }
                        PolicyKind::PreemptiveRoundRobin => tool.synthesize_fsm(
                            &preemptive_round_robin_fsm(n, DEFAULT_PREEMPT_QUANTUM),
                            encoding,
                            grade,
                        ),
                        PolicyKind::Fifo => structural(FifoArbiter::structural_netlist(n)),
                        PolicyKind::Random => structural(RandomArbiter::structural_netlist(n)),
                        PolicyKind::StaticPriority => {
                            structural(StaticPriorityArbiter::structural_netlist(n))
                        }
                    };
                    assert_eq!(
                        *warm,
                        reference,
                        "{policy} n={n} {encoding} {}",
                        tool.name()
                    );
                }
            }
        }
    }
}

#[test]
fn specs_with_the_same_circuit_share_one_cache_entry() {
    let _cache = cache_lock();
    let grade = SpeedGrade::Minus1;
    let generator = ArbiterGenerator::new().with_grade(grade);
    reset_synthesis_cache();
    // Prefix round-robin changes only the resolution circuit of the
    // Fig. 5 FSM, so it synthesizes to the round-robin report.
    for n in [3, 6] {
        for tool in [ToolModel::synplify(), ToolModel::fpga_express()] {
            let rr = generator.synthesize(&ArbiterSpec::round_robin(n), &tool);
            let before = synthesis_cache_stats();
            let prefix = generator.synthesize(
                &ArbiterSpec::round_robin(n).with_policy(PolicyKind::PrefixRoundRobin),
                &tool,
            );
            assert_eq!(lookups_since(before), (1, 0), "prefix-rr n={n}");
            assert!(Arc::ptr_eq(&rr, &prefix), "prefix-rr n={n}");
        }
    }
    // Synplify forces one-hot, so every requested encoding of an FSM
    // policy is the one-hot circuit.
    let synplify = ToolModel::synplify();
    for policy in [PolicyKind::RoundRobin, PolicyKind::PreemptiveRoundRobin] {
        let spec = ArbiterSpec::round_robin(4).with_policy(policy);
        let one_hot = generator.synthesize(&spec, &synplify);
        for encoding in [EncodingStyle::Compact, EncodingStyle::Gray] {
            let before = synthesis_cache_stats();
            let forced = generator.synthesize(&spec.with_encoding(encoding), &synplify);
            assert_eq!(lookups_since(before), (1, 0), "{policy} {encoding}");
            assert!(Arc::ptr_eq(&one_hot, &forced), "{policy} {encoding}");
        }
    }
}
