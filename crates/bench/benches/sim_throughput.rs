//! Simulator throughput bench: cycles per second of the full system
//! simulator under saturated four-way contention, on both kernels (the
//! legacy reference that executes every cycle and the batched
//! production kernel), with and without gate-level arbiter
//! co-simulation. Not a paper figure — it bounds how large an
//! experiment the harness can afford, and its kernel axis reproduces the
//! batched kernel's speed-up over legacy (experiment A9).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rcarb_core::channel::ChannelMergePlan;
use rcarb_core::insertion::{insert_arbiters, InsertionConfig};
use rcarb_core::memmap::bind_segments;
use rcarb_sim::config::{KernelKind, SimConfig};
use rcarb_sim::engine::SystemBuilder;
use rcarb_taskgraph::builder::TaskGraphBuilder;
use rcarb_taskgraph::program::{Expr, Program};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut b = TaskGraphBuilder::new("throughput");
    let segs: Vec<_> = (0..4).map(|i| b.segment(format!("M{i}"), 64, 16)).collect();
    for (i, &s) in segs.iter().enumerate() {
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(64, |p| {
                    p.mem_write(s, Expr::lit(0), Expr::lit(1));
                });
            }),
        );
    }
    let graph = b.finish().expect("valid");
    let board = rcarb_board::presets::duo_small();
    let binding = bind_segments(graph.segments(), &board, &|_| None).expect("binds");
    let plan = insert_arbiters(
        &graph,
        &binding,
        &ChannelMergePlan::default(),
        &InsertionConfig::paper(),
    );

    let mut group = c.benchmark_group("sim_throughput");
    for kernel in [KernelKind::Legacy, KernelKind::BatchedSoa] {
        for (label, cosim) in [("behavioural", false), ("with_cosim", true)] {
            let config = SimConfig::new().with_cosim(cosim).with_kernel(kernel);
            let run = || {
                let mut sys =
                    SystemBuilder::from_plan(&plan, &binding, &ChannelMergePlan::default())
                        .with_config(config)
                        .try_build(&board)
                        .unwrap();
                sys.run(1_000_000)
            };
            // Cycle count is deterministic; measure it once for throughput.
            group.throughput(Throughput::Elements(run().cycles));
            group.bench_function(
                BenchmarkId::new(format!("saturated_4way/{kernel:?}"), label),
                |b| {
                    b.iter(|| {
                        let report = run();
                        debug_assert!(report.clean());
                        black_box(report.cycles)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
