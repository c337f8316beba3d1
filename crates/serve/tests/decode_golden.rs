//! Golden request-decode corpus: every input below is run through
//! `decode_request`, and the outcome — `ok <FNV-1a of the frame's Debug
//! form>` or `err <message>` — must match `data/decode_golden.txt`
//! line for line.
//!
//! The expected file was recorded from the tree-walking decoder (parse
//! to a `Json` tree, then convert), so it pins the contract of any
//! decoder that replaces it: the same inputs accepted, the same values
//! decoded, and the same message for every input that carries a single
//! defect. The corpus holds valid FFT, simulate, synthesize and sweep
//! requests, every 97th-byte truncation of each, reordered, duplicated,
//! unknown and missing keys, wrong types, string escapes and number
//! edges. Nesting past the decoder's depth cap is covered in
//! `robustness.rs`, not here.
//!
//! To print the corpus (for example to re-record it after a deliberate
//! contract change): `cargo test -p rcarb-serve --test decode_golden --
//! --ignored --nocapture`.

use rcarb::backend::{
    AnalyzeRequest, PlanRequest, SimulateOptions, SimulateRequest, SweepRequest, SynthesizeRequest,
};
use rcarb::json::Json;
use rcarb_board::memory::BankId;
use rcarb_board::presets;
use rcarb_serve::{decode_request, RequestBody, RequestFrame};
use rcarb_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use rcarb_taskgraph::builder::TaskGraphBuilder;
use rcarb_taskgraph::graph::TaskGraph;
use rcarb_taskgraph::id::{ArbiterId, ChannelId, TaskId};
use rcarb_taskgraph::program::{Expr, Program};

const EXPECTED: &str = include_str!("data/decode_golden.txt");

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn frame(id: u64, deadline_ms: Option<u64>, body: RequestBody) -> String {
    rcarb::json::to_string(&RequestFrame {
        id,
        tenant: "c0".to_owned(),
        deadline_ms,
        body,
    })
}

/// A contended graph: `clients` tasks share one segment each in a
/// read-modify-write loop, the rest only compute.
fn contention_graph(tasks: usize, clients: usize, iters: u32, compute: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new("golden-sim");
    for t in 0..tasks {
        let program = if t < clients {
            let seg = b.segment(format!("S{t}"), iters, 16);
            Program::build(|p| {
                let i = p.let_(Expr::lit(0));
                p.repeat(iters, |p| {
                    p.compute(compute);
                    let v = p.mem_read(seg, Expr::var(i));
                    p.mem_write(
                        seg,
                        Expr::var(i),
                        Expr::add(Expr::var(v), Expr::lit(t as u64 + 1)),
                    );
                    p.set(i, Expr::add(Expr::var(i), Expr::lit(1)));
                });
            })
        } else {
            Program::build(|p| p.repeat(iters, |p| p.compute(compute)))
        };
        b.task(format!("T{t}"), program);
    }
    b.finish().unwrap()
}

fn fault_plan() -> FaultPlan {
    FaultPlan::seeded(42)
        .with_stuck_request(
            TaskId::new(0),
            ArbiterId::new(0),
            false,
            FaultWindow::new(10, 50),
        )
        .with_grant_glitch(ArbiterId::new(0), 1, 25)
        .with_fault(
            FaultKind::StuckGrant {
                arbiter: ArbiterId::new(0),
                port: 1,
                value: true,
            },
            FaultWindow::new(60, 70),
        )
        .with_fault(
            FaultKind::ChannelBitFlip {
                channel: ChannelId::new(0),
            },
            FaultWindow::new(5, 9),
        )
        .with_fault(
            FaultKind::BankReadError {
                bank: BankId::new(0),
                per_mille: 250,
            },
            FaultWindow::new(0, 40),
        )
        .with_fault(
            FaultKind::TaskHang {
                task: TaskId::new(1),
            },
            FaultWindow::new(80, 90),
        )
}

/// The valid requests, by name, as compact wire text.
fn valid_inputs() -> Vec<(String, String)> {
    let (fft, _) = rcarb::fft::build_fft_taskgraph();
    let wildforce = presets::wildforce();
    let mut out = vec![
        (
            "fft-plan".to_owned(),
            frame(
                7,
                None,
                RequestBody::Plan(PlanRequest {
                    graph: fft.clone(),
                    board: wildforce.clone(),
                }),
            ),
        ),
        (
            "fft-analyze".to_owned(),
            frame(
                8,
                None,
                RequestBody::Analyze(AnalyzeRequest {
                    graph: fft,
                    board: wildforce,
                    verified: false,
                }),
            ),
        ),
        ("ping".to_owned(), frame(1, None, RequestBody::Ping)),
    ];
    let policies = ["round-robin", "random", "fifo", "static-priority"];
    for (k, policy) in policies.iter().enumerate() {
        let tasks = 2 + k;
        let options = SimulateOptions {
            policy: (*policy).to_owned(),
            starvation_bound: (k % 2 == 0).then_some(400),
            grant_timeout: (k == 1).then_some(64),
            progress_bound: (k == 2).then_some(5000),
            fairness_m: (k == 3).then_some(2),
            faults: (k % 2 == 1).then(fault_plan),
            ..SimulateOptions::default()
        };
        out.push((
            format!("simulate-{k}"),
            frame(
                100 + k as u64,
                (k == 0).then_some(1500),
                RequestBody::Simulate(SimulateRequest {
                    graph: contention_graph(tasks, tasks.min(3), 8 + k as u32, 1 + 4 * k as u32),
                    board: presets::duo_small(),
                    max_cycles: 100_000,
                    options,
                }),
            ),
        ));
    }
    for (k, (encoding, tool, grade)) in [
        ("one-hot", "synplify", "-3"),
        ("compact", "fpga_express", "-4"),
        ("one-hot", "fpga_express", "-2"),
    ]
    .into_iter()
    .enumerate()
    {
        out.push((
            format!("synthesize-{k}"),
            frame(
                200 + k as u64,
                Some(250 * k as u64),
                RequestBody::Synthesize(SynthesizeRequest {
                    n: 3 + k as u64,
                    policy: policies[k].to_owned(),
                    encoding: encoding.to_owned(),
                    tool: tool.to_owned(),
                    grade: grade.to_owned(),
                    include_vhdl: k == 1,
                }),
            ),
        ));
    }
    for (k, ns) in [vec![2, 3], vec![2, 5, 8], vec![]].into_iter().enumerate() {
        out.push((
            format!("sweep-{k}"),
            frame(
                300 + k as u64,
                None,
                RequestBody::Sweep(SweepRequest {
                    ns,
                    grade: "-3".to_owned(),
                }),
            ),
        ));
    }
    out
}

fn doc(text: &str) -> Json {
    Json::parse(text).unwrap()
}

fn pairs(v: &mut Json) -> &mut Vec<(String, Json)> {
    match v {
        Json::Obj(pairs) => pairs,
        other => panic!("not an object: {other:?}"),
    }
}

/// Reverses the key order of every object in the document.
fn reorder(v: &mut Json) {
    match v {
        Json::Obj(pairs) => {
            pairs.reverse();
            pairs.iter_mut().for_each(|(_, v)| reorder(v));
        }
        Json::Arr(items) => items.iter_mut().for_each(reorder),
        _ => {}
    }
}

/// Follows a path of object keys and array indices.
fn at<'a>(v: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(v, |v, step| match step.parse::<usize>() {
        Ok(i) => &mut v.as_array_mut().expect("an array on the path")[i],
        Err(_) => v.get_mut(step).unwrap_or_else(|| panic!("no key {step}")),
    })
}

/// An edit of the document at `path`, rendered compactly.
fn edit(base: &str, path: &[&str], f: impl FnOnce(&mut Json)) -> String {
    let mut d = doc(base);
    f(at(&mut d, path));
    d.to_string()
}

/// Replaces the value at `path` with raw text.
fn splice(base: &str, path: &[&str], raw: &str) -> String {
    let text = edit(base, path, |v| *v = Json::from("@@SPLICE@@"));
    assert_eq!(text.matches("\"@@SPLICE@@\"").count(), 1);
    text.replace("\"@@SPLICE@@\"", raw)
}

fn insert(base: &str, path: &[&str], index: usize, key: &str, value: Json) -> String {
    edit(base, path, |v| {
        pairs(v).insert(index, (key.to_owned(), value))
    })
}

fn push(base: &str, path: &[&str], key: &str, value: Json) -> String {
    edit(base, path, |v| pairs(v).push((key.to_owned(), value)))
}

fn remove(base: &str, path: &[&str], key: &str) -> String {
    edit(base, path, |v| {
        let p = pairs(v);
        let before = p.len();
        p.retain(|(k, _)| k != key);
        assert_eq!(p.len() + 1, before, "no key {key}");
    })
}

/// Single-defect (and a few valid) variants of the valid inputs.
fn mutants(valid: &[(String, String)]) -> Vec<(String, String)> {
    let get = |name: &str| valid.iter().find(|(n, _)| n == name).unwrap().1.clone();
    let plan = get("fft-plan");
    let sim = get("simulate-1");
    let synth = get("synthesize-0");
    let sim_body = ["body", "Simulate"];
    let fault = [
        "body", "Simulate", "options", "faults", "faults", "2", "kind",
    ];
    let fault_body = [&fault[..], &["StuckGrant"]].concat();
    let task0 = ["body", "Simulate", "graph", "tasks", "0"];
    let clbs = ["body", "Plan", "board", "pes", "0", "device", "clbs"];
    let unknown = doc(r#"{"a":[1,{"b":null},-2.5e3],"c":"é\n","d":true}"#);
    // Reordered keys: every object's keys reversed.
    let mut named: Vec<(String, String)> = valid
        .iter()
        .map(|(name, text)| {
            let mut d = doc(text);
            reorder(&mut d);
            (format!("reordered-{name}"), d.to_string())
        })
        .collect();
    let mut out: Vec<(&str, String)> = Vec::new();
    let mut add = |name, text| out.push((name, text));

    // Duplicated keys: the first occurrence decides.
    add(
        "dup-id-valid-first",
        push(&sim, &[], "id", Json::from("seven")),
    );
    add(
        "dup-id-invalid-first",
        insert(&sim, &[], 0, "id", Json::from("seven")),
    );
    add(
        "dup-cycles-valid-first",
        push(&sim, &sim_body, "max_cycles", Json::Null),
    );
    add(
        "dup-cycles-invalid-first",
        insert(&sim, &sim_body, 0, "max_cycles", Json::Null),
    );
    add(
        "dup-port-valid-first",
        push(&sim, &fault_body, "port", Json::from(-1)),
    );
    add(
        "dup-name-valid-first",
        push(&sim, &task0, "name", Json::from(3u64)),
    );
    add(
        "dup-name-invalid-first",
        insert(&sim, &task0, 0, "name", Json::from(3u64)),
    );
    add(
        "dup-tenant-both-valid",
        push(&sim, &[], "tenant", Json::from("other")),
    );

    // Unknown keys: skipped wherever they appear, but an enum object
    // holds exactly one tag.
    add(
        "unknown-frame-first",
        insert(&sim, &[], 0, "zzz", unknown.clone()),
    );
    add(
        "unknown-frame-last",
        push(&sim, &[], "zzz", unknown.clone()),
    );
    add(
        "unknown-options",
        push(
            &sim,
            &["body", "Simulate", "options"],
            "zzz",
            unknown.clone(),
        ),
    );
    add("unknown-task", push(&sim, &task0, "zzz", unknown.clone()));
    add(
        "unknown-fault-body",
        push(&sim, &fault_body, "zzz", unknown.clone()),
    );
    add("second-body-tag", push(&sim, &["body"], "Ping", Json::Null));
    add(
        "unknown-fault-key",
        push(&sim, &fault[..6], "zzz", Json::Null),
    );
    add(
        "second-fault-kind-tag",
        push(&sim, &fault, "TaskHang", Json::Null),
    );

    // Missing fields.
    add("missing-id", remove(&sim, &[], "id"));
    add("missing-tenant", remove(&sim, &[], "tenant"));
    add("missing-body", remove(&sim, &[], "body"));
    add("missing-deadline", remove(&sim, &[], "deadline_ms"));
    add("missing-graph", remove(&sim, &sim_body, "graph"));
    add("missing-max-cycles", remove(&sim, &sim_body, "max_cycles"));
    add("missing-task-name", remove(&sim, &task0, "name"));
    add("missing-fault-port", remove(&sim, &fault_body, "port"));
    add(
        "missing-window-until",
        remove(
            &sim,
            &[
                "body", "Simulate", "options", "faults", "faults", "0", "window",
            ],
            "until",
        ),
    );
    add(
        "missing-pe-device",
        remove(&plan, &["body", "Plan", "board", "pes", "0"], "device"),
    );

    // Wrong types.
    add("type-id-string", splice(&sim, &["id"], r#""7""#));
    add("type-tenant-number", splice(&sim, &["tenant"], "5"));
    add("type-deadline-bool", splice(&sim, &["deadline_ms"], "true"));
    add("type-body-number", splice(&sim, &["body"], "5"));
    add("type-body-array", splice(&sim, &["body"], "[1]"));
    add("type-body-empty-object", splice(&sim, &["body"], "{}"));
    add(
        "type-body-unknown-name",
        splice(&sim, &["body"], r#""Pong""#),
    );
    add(
        "type-body-unknown-tag",
        splice(&sim, &["body"], r#"{"Launch":{}}"#),
    );
    add("type-body-ping", splice(&sim, &["body"], r#""Ping""#));
    add(
        "type-graph-number",
        splice(&sim, &["body", "Simulate", "graph"], "3"),
    );
    add(
        "type-board-array",
        splice(
            &sim,
            &["body", "Simulate", "board"],
            r#"[1,"two",{"x":null}]"#,
        ),
    );
    add(
        "type-options-string",
        splice(&sim, &["body", "Simulate", "options"], r#""fast""#),
    );
    add(
        "type-faults-number",
        splice(&sim, &["body", "Simulate", "options", "faults"], "3"),
    );
    add(
        "type-faults-null",
        splice(&sim, &["body", "Simulate", "options", "faults"], "null"),
    );
    add(
        "type-cycles-bool",
        splice(&sim, &["body", "Simulate", "max_cycles"], "true"),
    );
    add(
        "type-cycles-null",
        splice(&sim, &["body", "Simulate", "max_cycles"], "null"),
    );
    add(
        "type-kernel-number",
        splice(&sim, &["body", "Simulate", "options", "legacy_kernel"], "0"),
    );
    add(
        "type-tasks-object",
        splice(&sim, &["body", "Simulate", "graph", "tasks"], "{}"),
    );
    add("type-task-array", splice(&sim, &task0, "[]"));
    add("type-fault-kind-array", splice(&sim, &fault, "[1]"));
    add(
        "type-fault-kind-unknown",
        splice(&sim, &fault, r#"{"Meltdown":{"port":1}}"#),
    );
    add("type-fault-kind-empty", splice(&sim, &fault, "{}"));
    add("type-fault-body-number", splice(&sim, &fault_body, "4"));
    add(
        "type-fault-port-string",
        splice(&sim, &[&fault_body[..], &["port"]].concat(), r#""1""#),
    );
    add(
        "type-speed-grade",
        splice(
            &plan,
            &["body", "Plan", "board", "pes", "0", "device", "speed_grade"],
            r#""Minus9""#,
        ),
    );
    add(
        "type-speed-grade-number",
        splice(
            &plan,
            &["body", "Plan", "board", "pes", "0", "device", "speed_grade"],
            "3",
        ),
    );
    add(
        "type-attachment-number",
        splice(
            &plan,
            &["body", "Plan", "board", "banks", "0", "attachment"],
            "0",
        ),
    );
    add(
        "type-attachment-string",
        splice(
            &plan,
            &["body", "Plan", "board", "banks", "0", "attachment"],
            r#""Local""#,
        ),
    );
    add(
        "type-attachment-empty",
        splice(
            &plan,
            &["body", "Plan", "board", "banks", "0", "attachment"],
            "{}",
        ),
    );
    add(
        "type-attachment-extra",
        splice(
            &plan,
            &["body", "Plan", "board", "banks", "0", "attachment"],
            r#"{"x":1,"Local":1}"#,
        ),
    );
    add(
        "type-ns-string",
        splice(&get("sweep-1"), &["body", "Sweep", "ns"], r#""2,5""#),
    );
    add(
        "type-ns-element",
        splice(&get("sweep-1"), &["body", "Sweep", "ns", "1"], "[5]"),
    );

    // The task program's ops and expressions.
    let ops = ["body", "Simulate", "graph", "tasks", "0", "program", "ops"];
    let sim_doc = doc(&sim);
    let first_op = &sim_doc["body"]["Simulate"]["graph"]["tasks"][0]["program"]["ops"][0];
    assert!(
        first_op.get("Set").is_some(),
        "the program starts with a Set: {first_op:?}"
    );
    let set = [&ops[..], &["0", "Set"]].concat();
    add(
        "op-unknown-tag",
        splice(&sim, &[&ops[..], &["0"]].concat(), r#"{"Jump":{}}"#),
    );
    add(
        "op-not-object",
        splice(&sim, &[&ops[..], &["0"]].concat(), r#""Set""#),
    );
    add(
        "op-two-tags",
        push(
            &sim,
            &[&ops[..], &["0"]].concat(),
            "Compute",
            doc(r#"{"cycles":1}"#),
        ),
    );
    add("op-body-array", splice(&sim, &set, "[1,2]"));
    add("op-missing-value", remove(&sim, &set, "value"));
    add(
        "op-dst-string",
        splice(&sim, &[&set[..], &["dst"]].concat(), r#""v0""#),
    );
    add(
        "expr-unknown-tag",
        splice(&sim, &[&set[..], &["value"]].concat(), r#"{"Neg":1}"#),
    );
    add(
        "expr-not-object",
        splice(&sim, &[&set[..], &["value"]].concat(), "0"),
    );
    add(
        "expr-two-tags",
        splice(
            &sim,
            &[&set[..], &["value"]].concat(),
            r#"{"Lit":0,"Var":0}"#,
        ),
    );
    add(
        "expr-bin-pair",
        splice(
            &sim,
            &[&set[..], &["value"]].concat(),
            r#"{"Bin":["Add",{"Lit":1}]}"#,
        ),
    );
    add(
        "expr-bin-quad",
        splice(
            &sim,
            &[&set[..], &["value"]].concat(),
            r#"{"Bin":["Add",{"Lit":1},{"Lit":2},{"Lit":3}]}"#,
        ),
    );
    add(
        "expr-bin-object",
        splice(&sim, &[&set[..], &["value"]].concat(), r#"{"Bin":{}}"#),
    );
    add(
        "expr-binop-unknown",
        splice(
            &sim,
            &[&set[..], &["value"]].concat(),
            r#"{"Bin":["Pow",{"Lit":1},{"Lit":2}]}"#,
        ),
    );
    add(
        "expr-bin-valid",
        splice(
            &sim,
            &[&set[..], &["value"]].concat(),
            r#"{"Bin":["Add",{"Lit":1},{"Var":0}]}"#,
        ),
    );
    add(
        "expr-lit-negative",
        splice(&sim, &[&set[..], &["value"]].concat(), r#"{"Lit":-1}"#),
    );

    // String escapes in the tenant.
    for (name, raw) in [
        ("escape-all", r#""aé😀\n\t\r\b\f\"\\\/z""#),
        ("escape-utf8", "\"t\u{e9}n\u{1F600}nt\""),
        ("escape-lone-high", r#""\ud83d""#),
        ("escape-high-then-text", r#""\ud83dxy""#),
        ("escape-bad-low", r#""\ud83d\u0041""#),
        ("escape-lone-low", r#""\ude00""#),
        ("escape-unknown", r#""\q""#),
        ("escape-short-hex", r#""\u12""#),
        ("escape-bad-hex", r#""\u00g1""#),
        ("escape-raw-control", "\"a\u{1}b\""),
        ("escape-raw-tab", "\"a\tb\""),
        ("escape-trailing-backslash", "\"abc\\"),
    ] {
        add(name, splice(&synth, &["tenant"], raw));
    }

    // Number edges: the id is a u64, a device's CLB count a u32.
    for (name, raw) in [
        ("id-minus-zero", "-0"),
        ("id-float", "4.0"),
        ("id-exponent", "1e2"),
        ("id-negative", "-1"),
        ("id-u64-max", "18446744073709551615"),
        ("id-u64-max-plus-one", "18446744073709551616"),
        ("id-leading-zero", "07"),
        ("id-bare-minus", "-"),
        ("id-no-fraction-digit", "1."),
        ("id-no-exponent-digit", "1e+"),
        ("id-huge-exponent", "1e400"),
        ("id-i64-min", "-9223372036854775808"),
        ("id-i64-min-minus-one", "-9223372036854775809"),
    ] {
        add(name, splice(&synth, &["id"], raw));
    }
    for (name, raw) in [
        ("clbs-u32-max", "4294967295"),
        ("clbs-u32-max-plus-one", "4294967296"),
        ("clbs-minus-zero", "-0"),
        ("clbs-float", "576.0"),
    ] {
        add(name, splice(&plan, &clbs, raw));
    }
    add(
        "deadline-u64-max-plus-one",
        splice(&synth, &["deadline_ms"], "18446744073709551616"),
    );

    // Whole-document shape.
    for (name, text) in [
        ("empty", String::new()),
        ("whitespace", " \n\t ".to_owned()),
        ("null", "null".to_owned()),
        ("array", "[1,2,3]".to_owned()),
        ("bare-string", r#""Ping""#.to_owned()),
        ("trailing-garbage", format!("{synth} x")),
        ("trailing-whitespace", format!(" {synth} \n")),
        (
            "trailing-comma",
            format!("{},}}", &synth[..synth.len() - 1]),
        ),
        ("two-documents", format!("{synth}{synth}")),
        (
            "missing-colon",
            synth.replacen("\"tenant\":", "\"tenant\" ", 1),
        ),
        ("literal-typo", sim.replacen("null", "nul", 1)),
        ("single-quotes", synth.replacen("\"c0\"", "'c0'", 1)),
    ] {
        add(name, text);
    }
    named.extend(out.into_iter().map(|(n, t)| (n.to_owned(), t)));
    named
}

/// Every case's name and wire bytes, in corpus order.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let valid = valid_inputs();
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for (name, text) in &valid {
        out.push((name.clone(), text.clone().into_bytes()));
    }
    for (name, text) in &valid {
        for cut in (0..text.len()).step_by(97) {
            out.push((format!("{name}-cut{cut}"), text.as_bytes()[..cut].to_vec()));
        }
    }
    for (name, text) in mutants(&valid) {
        out.push((name, text.into_bytes()));
    }
    let synth = valid
        .iter()
        .find(|(n, _)| n == "synthesize-0")
        .unwrap()
        .1
        .clone();
    let mut latin1 = synth.into_bytes();
    latin1[10] = 0xE9;
    out.push(("not-utf8".to_owned(), latin1));
    out
}

fn outcome(bytes: &[u8]) -> String {
    match decode_request(bytes) {
        Ok(frame) => format!("ok {:016x}", fnv1a(format!("{frame:?}").as_bytes())),
        Err(e) => format!("err {:?}", e.to_string()),
    }
}

fn actual() -> Vec<String> {
    corpus()
        .iter()
        .map(|(name, bytes)| format!("{name}\t{}", outcome(bytes)))
        .collect()
}

#[test]
fn decode_outcomes_match_the_recorded_corpus() {
    let actual = actual();
    let expected: Vec<&str> = EXPECTED.lines().collect();
    let mut mismatches = Vec::new();
    for (i, line) in actual.iter().enumerate() {
        if expected.get(i) != Some(&line.as_str()) {
            mismatches.push(format!(
                "  want {}\n  got  {line}",
                expected.get(i).unwrap_or(&"<nothing>")
            ));
        }
    }
    assert!(
        mismatches.is_empty() && actual.len() == expected.len(),
        "{} of {} decode outcomes changed ({} expected):\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n")
    );
}

#[test]
fn the_corpus_covers_both_outcomes() {
    let actual = actual();
    let ok = actual.iter().filter(|l| l.contains("\tok ")).count();
    let err = actual.iter().filter(|l| l.contains("\terr ")).count();
    assert!(ok >= 30 && err >= 300, "{ok} accepted, {err} rejected");
}

#[test]
#[ignore = "prints the corpus for recording"]
fn print_corpus() {
    for line in actual() {
        println!("{line}");
    }
}
