//! Backend-vs-facade parity through the public prelude.
//!
//! The `Backend` trait is the service surface the daemon exposes;
//! deprecated or not, the facade methods must keep answering exactly
//! what the request path answers, or served and embedded users of the
//! library would silently diverge.

use rcarb::prelude::*;

fn contended_graph() -> TaskGraph {
    let mut b = TaskGraphBuilder::new("parity");
    let m1 = b.segment("M1", 1024, 16);
    let m2 = b.segment("M2", 1024, 16);
    for (name, m) in [("T1", m1), ("T2", m2)] {
        b.task(
            name,
            Program::build(|p| {
                for i in 0..4 {
                    p.mem_write(m, Expr::lit(i), Expr::lit(i));
                }
            }),
        );
    }
    b.finish().unwrap()
}

#[test]
fn backend_simulate_equals_facade_simulate() {
    let backend = InProcessBackend::new();
    let resp = backend
        .simulate(&SimulateRequest {
            graph: contended_graph(),
            board: presets::duo_small(),
            max_cycles: 20_000,
            options: SimulateOptions::default(),
        })
        .unwrap();
    let planned = Design::new(contended_graph(), presets::duo_small())
        .plan()
        .unwrap();
    let (report, kernel) = planned
        .simulate_with_stats(SimConfig::new(), 20_000)
        .unwrap();
    assert_eq!(resp.report, report);
    assert_eq!(resp.kernel, kernel);
    assert!(resp.faults.is_none());
}

#[test]
fn backend_simulate_with_faults_equals_facade() {
    let plan = FaultPlan::seeded(11);
    let backend = InProcessBackend::new();
    let resp = backend
        .simulate(&SimulateRequest {
            graph: contended_graph(),
            board: presets::duo_small(),
            max_cycles: 20_000,
            options: SimulateOptions {
                grant_timeout: Some(64),
                faults: Some(plan.clone()),
                ..SimulateOptions::default()
            },
        })
        .unwrap();
    let planned = Design::new(contended_graph(), presets::duo_small())
        .plan()
        .unwrap();
    let config = SimConfig::new().with_watchdog(WatchdogConfig::none().with_grant_timeout(64));
    let (report, faults) = planned.simulate_with_faults(config, &plan, 20_000).unwrap();
    assert_eq!(resp.report, report);
    assert_eq!(resp.faults, Some(faults));
}

#[test]
fn backend_analyze_counts_match_facade_analyze_verified() {
    let backend = InProcessBackend::new();
    let resp = backend
        .analyze(&AnalyzeRequest {
            graph: contended_graph(),
            board: presets::duo_small(),
            verified: true,
        })
        .unwrap();
    let planned = Design::new(contended_graph(), presets::duo_small())
        .plan()
        .unwrap();
    let (report, outcomes) = planned.analyze_verified(&AnalyzeConfig::default()).unwrap();
    assert_eq!(resp.clean, report.is_clean());
    assert_eq!(resp.errors, report.num_errors() as u64);
    assert_eq!(resp.replay_total, Some(outcomes.len() as u64));
    // The embedded report document is the analyzer's own JSON layout.
    assert_eq!(resp.report, report.to_json());
}

#[test]
fn simulate_spec_is_the_single_execution_path() {
    let planned = Design::new(contended_graph(), presets::duo_small())
        .plan()
        .unwrap();
    let spec = SimulateSpec::new(SimConfig::new());
    let outcome = planned.simulate_spec(&spec, 20_000).unwrap();
    assert_eq!(
        outcome.report,
        planned.simulate(SimConfig::new(), 20_000).unwrap()
    );
    assert!(outcome.faults.is_none());

    // Wire options lower into the same spec the facade executes.
    let lowered = SimulateOptions::default().to_spec().unwrap();
    assert_eq!(lowered, spec);
}

#[test]
fn sweep_matches_direct_characterization() {
    let backend = InProcessBackend::new();
    let resp = backend
        .sweep(&SweepRequest {
            ns: vec![2, 4, 8],
            grade: "-3".to_owned(),
        })
        .unwrap();
    let table =
        Characterization::try_sweep_round_robin([2usize, 4, 8], SpeedGrade::Minus3).unwrap();
    assert_eq!(resp.rows.len(), table.rows().len());
    for (wire, row) in resp.rows.iter().zip(table.rows()) {
        assert_eq!(wire.n, row.n as u64);
        assert_eq!(wire.clbs, u64::from(row.clbs));
        assert_eq!(wire.fmax_mhz, row.fmax_mhz);
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One line per `Backend::synthesize` request with `include_vhdl` set:
/// `policy n encoding tool grade bytes json`, the last an FNV-1a
/// fingerprint of the JSON-encoded response (figures and VHDL text).
fn actual_synthesize_responses() -> Vec<String> {
    let backend = InProcessBackend::new();
    let mut lines = Vec::new();
    for (policy, ns) in [("round-robin", [2, 6, 11]), ("preemptive-rr", [2, 4, 10])] {
        for n in ns {
            for encoding in ["one-hot", "compact"] {
                for (tool, grade) in [("synplify", "-3"), ("fpga_express", "-1")] {
                    let resp = backend
                        .synthesize(&SynthesizeRequest {
                            n,
                            policy: policy.to_owned(),
                            encoding: encoding.to_owned(),
                            tool: tool.to_owned(),
                            grade: grade.to_owned(),
                            include_vhdl: true,
                        })
                        .unwrap();
                    let json = rcarb_json::to_string(&resp);
                    lines.push(format!(
                        "{policy} {n} {encoding} {tool} {grade} {} {:016x}",
                        json.len(),
                        fnv1a(json.as_bytes())
                    ));
                }
            }
        }
    }
    lines
}

/// Recorded from the eager generator; the cache-first path and lazily
/// rendered VHDL must answer every request byte for byte the same.
const EXPECTED_SYNTHESIZE: &[&str] = &[
    "round-robin 2 one-hot synplify -3 2230 09bc43c988413e7c",
    "round-robin 2 one-hot fpga_express -1 2230 56a106b759b88b19",
    "round-robin 2 compact synplify -3 2230 662f962db2a0f3b6",
    "round-robin 2 compact fpga_express -1 2230 b6c4983007f0dbd8",
    "round-robin 6 one-hot synplify -3 11865 f9f87f78396250c7",
    "round-robin 6 one-hot fpga_express -1 11866 e38bf46934bd7ad0",
    "round-robin 6 compact synplify -3 11865 7c6bb77c4edd45a5",
    "round-robin 6 compact fpga_express -1 11866 1f578f2bdf2f81db",
    "round-robin 11 one-hot synplify -3 45995 7845e0aeb97ee7dc",
    "round-robin 11 one-hot fpga_express -1 45994 f5e38c139e054aad",
    "round-robin 11 compact synplify -3 45995 06982959fd237be4",
    "round-robin 11 compact fpga_express -1 45994 3df2fe8ea72e91d7",
    "preemptive-rr 2 one-hot synplify -3 5178 ec82643e441df98e",
    "preemptive-rr 2 one-hot fpga_express -1 5178 ad28247fdb39bad4",
    "preemptive-rr 2 compact synplify -3 5178 ec82643e441df98e",
    "preemptive-rr 2 compact fpga_express -1 5176 83f6e7de0630bb83",
    "preemptive-rr 4 one-hot synplify -3 15709 c310fa4ce77ce798",
    "preemptive-rr 4 one-hot fpga_express -1 15711 2f3eeb7d2bbc0c95",
    "preemptive-rr 4 compact synplify -3 15709 c310fa4ce77ce798",
    "preemptive-rr 4 compact fpga_express -1 15711 b3a4362ceedf253f",
    "preemptive-rr 10 one-hot synplify -3 69756 b13b70707d31fd08",
    "preemptive-rr 10 one-hot fpga_express -1 69756 60bfe1a0d2d07b43",
    "preemptive-rr 10 compact synplify -3 69756 b13b70707d31fd08",
    "preemptive-rr 10 compact fpga_express -1 69755 5b9520ba5bd7c2eb",
];

#[test]
fn synthesize_responses_with_vhdl_match_the_recorded_golden() {
    let actual = actual_synthesize_responses();
    assert_eq!(actual, EXPECTED_SYNTHESIZE, "\n{}", actual.join("\n"));
}
