//! Arbitration-as-a-service, end to end in one process: boots a
//! [`rcarb_serve::Server`] over the in-memory transport (the identical
//! production loop the TCP/UDS daemon runs), then walks the whole
//! `Backend` API as a client — synthesize, sweep, plan, analyze,
//! simulate — against the shared contended-design fixture.
//!
//! ```text
//! cargo run --example serve_demo
//! ```
//!
//! The demo also shows the multi-tenant admission machinery (a tenant
//! with a zero quota is turned away with `QuotaExceeded` while other
//! tenants keep working), the deadline path (an already-expired
//! deadline is shed with `DeadlineExceeded` before the backend runs),
//! and the graceful drain (`shutdown()` returns a `DrainReport` after
//! answering everything in flight). The server's counters are printed
//! at the end.

mod common;

use rcarb::backend::{
    AnalyzeRequest, PlanRequest, SimulateOptions, SimulateRequest, SweepRequest, SynthesizeRequest,
};
use rcarb_serve::{Client, ErrorCode, RequestBody, ResponseBody, ServeConfig, Server};
use std::process;

fn main() {
    let board = rcarb::board::presets::duo_small();
    let design = common::contended_design(&board);
    let graph = design.graph().clone();

    let server = Server::in_process(ServeConfig::default().with_tenant_quota("freeloader", 0));
    let mut client = Client::in_memory(&server).with_tenant("demo");
    println!("serve demo: in-memory connection to the arbitration daemon");

    // Synthesize one arbiter.
    match client
        .call(RequestBody::Synthesize(SynthesizeRequest::round_robin(6)))
        .expect("transport")
    {
        ResponseBody::Synthesize(s) => println!(
            "  synthesize: Arb6 -> {} states, {} CLBs, {:.1} MHz ({})",
            s.states, s.clbs, s.fmax_mhz, s.encoding_used
        ),
        other => fail(&format!("unexpected synthesize answer: {other:?}")),
    }

    // Characterization sweep (the paper's Figs. 6-7 grid).
    match client
        .call(RequestBody::Sweep(SweepRequest {
            ns: vec![2, 4, 8, 16],
            grade: "-3".to_owned(),
        }))
        .expect("transport")
    {
        ResponseBody::Sweep(s) => println!("  sweep: {} characterization rows", s.rows.len()),
        other => fail(&format!("unexpected sweep answer: {other:?}")),
    }

    // Plan the contended design.
    match client
        .call(RequestBody::Plan(PlanRequest {
            graph: graph.clone(),
            board: board.clone(),
        }))
        .expect("transport")
    {
        ResponseBody::Plan(p) => println!(
            "  plan: {} arbiters ({} CLBs total), {} segments in {} banks",
            p.arbiters.len(),
            p.total_arbiter_clbs,
            p.bound_segments,
            p.used_banks
        ),
        other => fail(&format!("unexpected plan answer: {other:?}")),
    }

    // Analyze with witness replay.
    match client
        .call(RequestBody::Analyze(AnalyzeRequest {
            graph: graph.clone(),
            board: board.clone(),
            verified: true,
        }))
        .expect("transport")
    {
        ResponseBody::Analyze(a) => {
            println!(
                "  analyze: {} error(s), {} warning(s), clean={}, replays={:?}",
                a.errors, a.warnings, a.clean, a.replay_total
            );
            if !a.clean {
                fail("the contended design must analyze clean");
            }
        }
        other => fail(&format!("unexpected analyze answer: {other:?}")),
    }

    // Simulate.
    match client
        .call(RequestBody::Simulate(SimulateRequest {
            graph,
            board,
            max_cycles: 50_000,
            options: SimulateOptions::default(),
        }))
        .expect("transport")
    {
        ResponseBody::Simulate(s) => {
            println!(
                "  simulate: {} cycles, completed={}, {} skipped by the batched kernel",
                s.report.cycles, s.report.completed, s.kernel.skipped_cycles
            );
            if !s.report.clean() {
                fail("the contended design must simulate clean");
            }
        }
        other => fail(&format!("unexpected simulate answer: {other:?}")),
    }

    // Quotas: a zero-quota tenant is rejected, politely.
    let mut freeloader = Client::in_memory(&server).with_tenant("freeloader");
    match freeloader.call(RequestBody::Ping).expect("transport") {
        ResponseBody::Error(e) if e.code == ErrorCode::QuotaExceeded => {
            println!("  quota: freeloader rejected ({})", e.message)
        }
        other => fail(&format!("expected a quota rejection, got {other:?}")),
    }

    // Deadlines: an already-expired deadline is shed before the
    // backend ever sees the request.
    let mut hurried = client.with_deadline_ms(Some(0));
    match hurried
        .call(RequestBody::Synthesize(SynthesizeRequest::round_robin(8)))
        .expect("transport")
    {
        ResponseBody::Error(e) if e.code == ErrorCode::DeadlineExceeded => {
            println!("  deadline: expired request shed ({})", e.message)
        }
        other => fail(&format!("expected a deadline shed, got {other:?}")),
    }

    let stats = server.stats();
    println!(
        "  stats: {} served, {} errors, {} quota rejection(s), {} deadline shed(s), \
         max queue depth {}",
        stats.requests,
        stats.errors,
        stats.quota_rejections,
        stats.deadline_shed,
        stats.max_queue_depth
    );

    // Graceful drain: everything already answered, so the report is
    // all zeros except the bookkeeping that it ran.
    let report = server.shutdown();
    println!(
        "  drain: answered={} goaway={} aborted={}",
        report.answered, report.goaway, report.aborted
    );
    if report.aborted != 0 {
        fail("a quiet server must drain without aborting anything");
    }
    println!("serve demo: PASSED");
}

fn fail(msg: &str) -> ! {
    eprintln!("serve demo: FAILED — {msg}");
    process::exit(1);
}
