//! `arbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints the run fingerprint and every
//! metric by name with its unit, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use arbbench::fingerprint::Fingerprint;
use arbbench::{parse_args, stats, workloads, END_TO_END, PER_LAYER};
use rcarb_json::Json;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arbbench: {e}");
            eprintln!("usage: arbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let fingerprint = Fingerprint::collect(&root, args.seed);
    let mut out = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("arbbench: {e}");
            std::process::exit(2);
        }
    };
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    }
    let failed_ratio = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.set("failed_ratio", failed_ratio);
    out.set("known_defect_failures", out.known_defect as f64);

    println!("{}", fingerprint.render());
    println!(
        "workload={} seconds={} trace={}",
        args.workload, args.seconds, args.trace
    );
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    println!(
        "failed_ratio: {failed_ratio:.6} ({} of {} operations; {} of them the known kernel defect)",
        out.failed, out.attempted, out.known_defect
    );

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name}: {value} {unit}");
        metrics.push((
            name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), Json::from(value)),
                ("unit".to_owned(), Json::from(unit)),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(out.correct())),
        ("attempted".to_owned(), Json::from(out.attempted)),
        ("failed".to_owned(), Json::from(out.failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{result}");
}
