//! `rcarb-fuzz` — the coverage-guided scenario fuzzer CLI.
//!
//! ```text
//! rcarb-fuzz run [--seconds S] [--max-scenarios N] [--seed-start K]
//!                [--corpus DIR] [--out DIR] [--stats FILE] [--no-tool-models]
//! rcarb-fuzz fleet --shards N --seeds-per-shard M [--seed-start K] [--stats FILE]
//! rcarb-fuzz replay <one-liner | @file.scn>
//! rcarb-fuzz corpus [DIR]
//! rcarb-fuzz gen <seed>
//! ```
//!
//! * `run` fuzzes until a budget expires; `--corpus DIR` pre-seeds
//!   coverage from checked-in entries, `--out DIR` saves newly
//!   interesting scenarios, `--stats FILE` writes a JSON summary.
//! * `fleet` shards seed ranges across the `rcarb-exec` pool.
//! * `replay` runs one scenario under every oracle and exits 1 on any
//!   finding — the bug-report workflow.
//! * `corpus` replays every entry in a directory (default
//!   `fuzz/corpus`) and verifies stored lines are canonical.
//! * `gen` prints the one-liner for a generator seed.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/decode errors.

use rcarb_fuzz::{
    decode, encode, fuzz_fleet, load_corpus, run_scenario, save_entry, Finding, FuzzConfig,
    FuzzStats, Fuzzer, RunConfig, Scenario,
};
use rcarb_json::{Json, Number};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        _ => {
            eprintln!(
                "usage: rcarb-fuzz <run|fleet|replay|corpus|gen> [options]\n\
                 see the module docs (crates/bench/src/bin/rcarb_fuzz.rs) for flags"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Pulls `--flag value` out of an option list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_u64(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("{flag} expects an unsigned integer, got `{v}`")),
    }
}

fn stats_json(stats: &FuzzStats, fuzzer: &Fuzzer) -> Json {
    let num = |v: u64| Json::Num(Number::Uint(v));
    Json::Obj(vec![
        ("scenarios".into(), num(stats.scenarios)),
        ("kept".into(), num(stats.kept)),
        ("findings".into(), num(stats.findings)),
        ("coverage_keys".into(), num(stats.coverage_keys as u64)),
        ("series".into(), num(stats.series as u64)),
        ("elapsed_ms".into(), num(stats.elapsed.as_millis() as u64)),
        (
            "scenarios_per_sec".into(),
            Json::Num(Number::Float(stats.scenarios_per_sec())),
        ),
        ("corpus_size".into(), num(fuzzer.corpus.len() as u64)),
    ])
}

fn write_stats(path: &str, stats: &FuzzStats, fuzzer: &Fuzzer) -> Result<(), String> {
    std::fs::write(path, stats_json(stats, fuzzer).to_string_pretty())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

fn print_findings(findings: &[Finding]) {
    for f in findings {
        eprintln!("FINDING [{}] {}", f.kind.key(), f.detail);
        eprintln!("  replay: rcarb-fuzz replay '{}'", encode(&f.scenario));
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let config = match run_config_from(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rcarb-fuzz run: {e}");
            return 2;
        }
    };
    let mut fuzzer = match preseed(args, &config.run) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("rcarb-fuzz run: {e}");
            return 2;
        }
    };
    let preseeded = fuzzer.corpus.len();
    let stats = fuzzer.run(&config);
    println!(
        "fuzzed {} scenarios in {:?}: {} kept ({} preseeded), {} coverage keys, {} series, {} findings",
        stats.scenarios,
        stats.elapsed,
        fuzzer.corpus.len(),
        preseeded,
        stats.coverage_keys,
        stats.series,
        stats.findings
    );
    if let Some(out) = flag_value(args, "--out") {
        let dir = Path::new(out);
        for (i, s) in fuzzer.corpus.iter().enumerate().skip(preseeded) {
            let note = format!("found by rcarb-fuzz run, step {i}");
            if let Err(e) = save_entry(dir, &format!("found-{i:04}"), s, &note) {
                eprintln!("rcarb-fuzz run: cannot save corpus entry: {e}");
                return 2;
            }
        }
    }
    if let Some(path) = flag_value(args, "--stats") {
        if let Err(e) = write_stats(path, &stats, &fuzzer) {
            eprintln!("rcarb-fuzz run: {e}");
            return 2;
        }
    }
    print_findings(&fuzzer.findings);
    i32::from(!fuzzer.findings.is_empty())
}

fn run_config_from(args: &[String]) -> Result<FuzzConfig, String> {
    let seconds = parse_u64(args, "--seconds")?;
    let max_scenarios = parse_u64(args, "--max-scenarios")?;
    let seed_start = parse_u64(args, "--seed-start")?.unwrap_or(0);
    if seconds.is_none() && max_scenarios.is_none() {
        return Err("pass --seconds and/or --max-scenarios".to_string());
    }
    Ok(FuzzConfig {
        time_budget: seconds.map(Duration::from_secs),
        max_scenarios,
        seed_start,
        run: RunConfig {
            check_tool_models: !has_flag(args, "--no-tool-models"),
            ..RunConfig::default()
        },
        shrink_findings: true,
    })
}

fn preseed(args: &[String], run: &RunConfig) -> Result<Fuzzer, String> {
    match flag_value(args, "--corpus") {
        None => Ok(Fuzzer::default()),
        Some(dir) => {
            let entries = load_corpus(Path::new(dir)).map_err(|e| e.to_string())?;
            Ok(Fuzzer::with_corpus(
                entries.into_iter().map(|e| e.scenario).collect(),
                run,
            ))
        }
    }
}

fn cmd_fleet(args: &[String]) -> i32 {
    let shards = match parse_u64(args, "--shards") {
        Ok(Some(n)) if n > 0 => n as usize,
        Ok(_) => {
            eprintln!("rcarb-fuzz fleet: pass --shards N (N > 0)");
            return 2;
        }
        Err(e) => {
            eprintln!("rcarb-fuzz fleet: {e}");
            return 2;
        }
    };
    let per_shard = match parse_u64(args, "--seeds-per-shard") {
        Ok(Some(n)) if n > 0 => n,
        Ok(_) => {
            eprintln!("rcarb-fuzz fleet: pass --seeds-per-shard M (M > 0)");
            return 2;
        }
        Err(e) => {
            eprintln!("rcarb-fuzz fleet: {e}");
            return 2;
        }
    };
    let seed_start = match parse_u64(args, "--seed-start") {
        Ok(v) => v.unwrap_or(0),
        Err(e) => {
            eprintln!("rcarb-fuzz fleet: {e}");
            return 2;
        }
    };
    let base = FuzzConfig {
        seed_start,
        run: RunConfig {
            check_tool_models: !has_flag(args, "--no-tool-models"),
            ..RunConfig::default()
        },
        ..FuzzConfig::default()
    };
    let (merged, shard_results) = fuzz_fleet(shards, per_shard, &base);
    let mut total = FuzzStats::default();
    for r in &shard_results {
        println!(
            "shard {}: {} scenarios, {} kept, {} findings, {:.1} scen/s",
            r.shard,
            r.stats.scenarios,
            r.stats.kept,
            r.stats.findings,
            r.stats.scenarios_per_sec()
        );
        total.scenarios += r.stats.scenarios;
        total.elapsed = total.elapsed.max(r.stats.elapsed);
    }
    total.findings = merged.findings.len() as u64;
    total.kept = merged.corpus.len() as u64;
    total.coverage_keys = merged.coverage.keys();
    total.series = merged.coverage.series();
    println!(
        "fleet total: {} scenarios, merged corpus {}, {} coverage keys, {} series, {} findings",
        total.scenarios,
        merged.corpus.len(),
        total.coverage_keys,
        total.series,
        total.findings
    );
    if let Some(path) = flag_value(args, "--stats") {
        if let Err(e) = write_stats(path, &total, &merged) {
            eprintln!("rcarb-fuzz fleet: {e}");
            return 2;
        }
    }
    print_findings(&merged.findings);
    i32::from(!merged.findings.is_empty())
}

fn cmd_replay(args: &[String]) -> i32 {
    let Some(input) = args.first() else {
        eprintln!("usage: rcarb-fuzz replay <one-liner | @file.scn>");
        return 2;
    };
    let line = if let Some(path) = input.strip_prefix('@') {
        match std::fs::read_to_string(path) {
            Ok(text) => match rcarb_fuzz::corpus::payload_line(&text) {
                Some(l) => l.to_string(),
                None => {
                    eprintln!("rcarb-fuzz replay: {path} has no payload line");
                    return 2;
                }
            },
            Err(e) => {
                eprintln!("rcarb-fuzz replay: cannot read {path}: {e}");
                return 2;
            }
        }
    } else {
        input.clone()
    };
    let scenario = match decode(&line) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rcarb-fuzz replay: {e}");
            return 2;
        }
    };
    replay_one(&scenario, "replay")
}

fn replay_one(scenario: &Scenario, label: &str) -> i32 {
    let outcome = run_scenario(scenario, &RunConfig::default());
    match outcome.observation {
        Some(obs) => println!(
            "{label}: {} cycles, completed={}, {} violations, {} metric series — identical under both kernels",
            obs.report.cycles,
            obs.report.completed,
            obs.report.violations.len(),
            obs.metrics.0.len()
        ),
        None => println!("{label}: scenario did not produce an observation"),
    }
    if outcome.findings.is_empty() {
        0
    } else {
        print_findings(&outcome.findings);
        1
    }
}

fn cmd_corpus(args: &[String]) -> i32 {
    let dir = args
        .first()
        .map_or_else(|| PathBuf::from("fuzz/corpus"), PathBuf::from);
    let entries = match load_corpus(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("rcarb-fuzz corpus: {e}");
            return 2;
        }
    };
    if entries.is_empty() {
        eprintln!("rcarb-fuzz corpus: {} has no .scn entries", dir.display());
        return 2;
    }
    let mut failures = 0;
    for entry in &entries {
        if encode(&entry.scenario) != entry.line {
            eprintln!(
                "rcarb-fuzz corpus: {} stores a non-canonical line",
                entry.path.display()
            );
            failures += 1;
            continue;
        }
        let name = entry
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if replay_one(&entry.scenario, &name) != 0 {
            failures += 1;
        }
    }
    println!(
        "corpus: {}/{} entries clean",
        entries.len() - failures,
        entries.len()
    );
    i32::from(failures > 0)
}

fn cmd_gen(args: &[String]) -> i32 {
    let Some(seed) = args.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("usage: rcarb-fuzz gen <seed>");
        return 2;
    };
    println!("{}", encode(&Scenario::generate(seed)));
    0
}
