//! Boards as data: the architecture model serializes to JSON, so a new
//! reconfigurable computer can be described in a file and targeted
//! without recompiling — the portability the paper claims for its
//! abstraction ("it becomes easier to port a design from one target
//! architecture to another").
//!
//! This example serializes the Wildforce description, edits it as plain
//! data (upgrading every FPGA to a larger part, as a board vendor might),
//! deserializes the result and flows the same design onto both.
//!
//! ```text
//! cargo run --example board_from_json
//! ```

use rcarb::arb::channel::ChannelMergePlan;
use rcarb::arb::insertion::{insert_arbiters, InsertionConfig};
use rcarb::arb::memmap::bind_segments;
use rcarb::board::board::Board;
use rcarb::board::presets;
use rcarb::json;
use rcarb::sim::engine::SystemBuilder;
use rcarb::taskgraph::builder::TaskGraphBuilder;
use rcarb::taskgraph::program::{Expr, Program};

fn main() {
    let wildforce = presets::wildforce();
    let mut doc = json::to_value(&wildforce);
    println!(
        "Wildforce as data ({} bytes of JSON); first PE:\n{}\n",
        doc.to_string().len(),
        doc["pes"][0].to_string_pretty()
    );

    // A board revision, edited as plain data: every XC4013E becomes an
    // XC4025E (1024 CLBs, 256 pins) and the banks double in depth.
    for pe in doc["pes"].as_array_mut().expect("pes array") {
        pe["device"]["name"] = "XC4025E".into();
        pe["device"]["clbs"] = 1024.into();
        pe["device"]["user_pins"] = 256.into();
    }
    for bank in doc["banks"].as_array_mut().expect("banks array") {
        let words = bank["words"].as_u64().unwrap();
        bank["words"] = (words * 2).into();
    }
    doc["name"] = "Wildforce-XL".into();
    let upgraded: Board = json::from_str(&doc.to_string()).expect("edited board deserializes");
    println!(
        "upgraded board: {} — {} CLBs total, {} memory bits\n",
        upgraded.name(),
        upgraded.total_clbs(),
        upgraded.total_memory_bits()
    );

    // The same design flows onto both without modification.
    let mut b = TaskGraphBuilder::new("portable");
    let segs: Vec<_> = (0..5)
        .map(|i| b.segment(format!("S{i}"), 512, 16))
        .collect();
    for (i, &s) in segs.iter().enumerate() {
        b.task(
            format!("T{i}"),
            Program::build(|p| {
                p.repeat(4, |p| {
                    p.mem_write(s, Expr::lit(0), Expr::lit(7));
                });
            }),
        );
    }
    let graph = b.finish().expect("valid design");
    for board in [&wildforce, &upgraded] {
        let binding = bind_segments(graph.segments(), board, &|_| None).expect("fits");
        let plan = insert_arbiters(
            &graph,
            &binding,
            &ChannelMergePlan::default(),
            &InsertionConfig::paper(),
        );
        let mut sys = SystemBuilder::from_plan(&plan, &binding, &ChannelMergePlan::default())
            .try_build(board)
            .unwrap();
        let report = sys.run(100_000);
        assert!(report.clean());
        println!(
            "{:<14} arbiters {:?}, {} cycles",
            board.name(),
            plan.arbiter_sizes(),
            report.cycles
        );
    }
}
