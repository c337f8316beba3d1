//! Unit tests of the benchmark's pure functions. None of them times
//! anything.

use arbbench::calib::reference_work;
use arbbench::schedule::poisson_schedule;
use arbbench::spans::{
    attributed_ns, check_closure, chrome_document, self_by_name, self_times, Span, Tracer,
};
use arbbench::stats::{median, percentile_sorted, rank, tail, MIN_BEYOND};
use arbbench::workloads::metric_for_span;
use arbbench::{parse_args, PER_LAYER};

fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        op: 1,
        name: name.to_owned(),
        start_ns,
        end_ns,
    }
}

#[test]
fn nearest_rank_percentiles() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(rank(10, 50.0), 5);
    assert_eq!(percentile_sorted(&xs, 50.0), Some(5.0));
    assert_eq!(percentile_sorted(&xs, 90.0), Some(9.0));
    assert_eq!(percentile_sorted(&xs, 100.0), Some(10.0));
    assert_eq!(percentile_sorted(&xs, 0.0), Some(1.0));
    assert_eq!(percentile_sorted(&[], 50.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (0..100).map(f64::from).collect();
    let p90 = tail(&xs, 90.0);
    assert_eq!((p90.n, p90.beyond), (100, 10));
    assert_eq!(p90.value, Some(89.0));
    let p91 = tail(&xs, 91.0);
    assert_eq!(p91.beyond, 9);
    assert_eq!(p91.value, None, "nine samples beyond is too few");

    let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
    assert_eq!(tail(&thousand, 99.0).beyond, MIN_BEYOND);
    assert!(tail(&thousand, 99.0).value.is_some());
    assert!(tail(&thousand[..999], 99.0).value.is_none());
    assert!(tail(&[], 99.0).value.is_none());
}

#[test]
fn rendered_tails_carry_their_sample_count() {
    let xs: Vec<f64> = (0..20).map(f64::from).collect();
    assert_eq!(tail(&xs, 50.0).render("ms"), "9.0000 ms (n=20, beyond=10)");
    assert_eq!(
        tail(&xs, 99.0).render("ms"),
        "withheld (n=20, beyond=0 < 10)"
    );
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(2, Some(1), "a", 10, 30),
        span(3, Some(1), "b", 20, 50),
        span(4, Some(1), "c", 90, 120),
        span(5, Some(3), "d", 25, 35),
        span(1, None, "op/x", 0, 100),
    ];
    let st = self_times(&spans);
    // Parent: children cover [10, 50) and [90, 100) -> 50 of 100.
    assert_eq!(st[4], 50);
    assert_eq!(st[0], 20);
    // b: its child covers [25, 35) -> 30 - 10.
    assert_eq!(st[1], 20);
    assert_eq!(st[3], 10);
    let by_name = self_by_name(&spans);
    assert_eq!(by_name["op/x"], 50);
    assert_eq!(by_name["b"], 20);
}

#[test]
fn self_times_of_a_tree_sum_to_the_root() {
    let mut t = Tracer::new();
    for _ in 0..3 {
        t.op("w", |t| {
            t.span("x.a", |t| t.span("x.b", |_| std::hint::black_box(1 + 1)));
            t.span("x.c", |_| ());
        });
    }
    let spans = t.spans();
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    assert_eq!(self_times(spans).iter().sum::<u64>(), roots);
    assert_eq!(t.ops(), 3);
    // All spans of one operation share its id.
    for s in spans {
        let root = spans
            .iter()
            .find(|r| r.parent.is_none() && r.op == s.op)
            .expect("every op has a root");
        assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
    }
    let (_, summary) = chrome_document(spans).expect("valid trace");
    assert_eq!(summary.spans, spans.len());
}

#[test]
fn closure_accepts_within_tolerance_only() {
    assert_eq!(check_closure(1000, 1000, 0.05), Ok(1.0));
    assert_eq!(check_closure(960, 1000, 0.05), Ok(0.96));
    assert!(
        check_closure(940, 1000, 0.05).is_err(),
        "too much unattributed"
    );
    assert!(check_closure(1010, 1000, 0.05).is_err(), "double counted");
    assert!(check_closure(0, 0, 0.05).is_err());
}

#[test]
fn time_an_operation_spends_outside_every_layer_fails_the_closure() {
    // One operation of 100 ns whose only layer span covers 60 ns: the
    // other 40 ns are the root's self time and stay unattributed.
    let gap = vec![
        span(2, Some(1), "x.a", 0, 60),
        span(1, None, "op/x", 0, 100),
    ];
    assert_eq!(attributed_ns(&gap), 60);
    assert!(check_closure(attributed_ns(&gap), 100, 0.05).is_err());
    // Summed over every span, self times would hide the gap.
    assert_eq!(self_times(&gap).iter().sum::<u64>(), 100);

    let covered = vec![
        span(2, Some(1), "x.a", 0, 97),
        span(1, None, "op/x", 0, 100),
    ];
    assert_eq!(check_closure(attributed_ns(&covered), 100, 0.05), Ok(0.97));
}

#[test]
fn poisson_schedules_repeat_per_seed() {
    let a = poisson_schedule(42, 200.0, 10.0);
    assert_eq!(a, poisson_schedule(42, 200.0, 10.0));
    assert_ne!(a, poisson_schedule(43, 200.0, 10.0));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    // 2000 expected arrivals; a Poisson count is within 10% here.
    assert!((1800..=2200).contains(&a.len()), "{}", a.len());
}

#[test]
fn span_names_map_onto_catalogue_metrics() {
    assert_eq!(metric_for_span("logic.encode"), "logic.encode_ms");
    assert_eq!(
        metric_for_span("serve.backend.plan"),
        "serve.backend_ms.plan"
    );
    assert_eq!(
        metric_for_span("fuzz.observe.legacy"),
        "fuzz.observe_ms.legacy"
    );
    assert_eq!(metric_for_span("analyze"), "analyze.ms");
    for name in [
        "logic.encode",
        "logic.minimize",
        "logic.techmap",
        "logic.pack",
        "logic.timing",
        "core.generate",
        "core.bind",
        "core.insert",
        "sim.build",
        "sim.run",
        "analyze",
        "serve.decode",
        "serve.encode",
        "serve.frame",
        "serve.backend.synthesize",
        "fuzz.generate",
        "fuzz.materialize",
        "fuzz.observe.batched",
    ] {
        let metric = metric_for_span(name);
        assert!(
            PER_LAYER.iter().any(|&(m, _)| m == metric),
            "{metric} is not in the catalogue"
        );
    }
}

#[test]
fn arguments_parse_and_reject() {
    let args: Vec<String> = "--workload serve --seed 7 --seconds 12 --trace 1"
        .split(' ')
        .map(str::to_owned)
        .collect();
    let a = parse_args(&args).expect("valid");
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("serve", 7, 12.0, true)
    );
    let bad: Vec<String> = "--workload serve --seed x --seconds 12 --trace 1"
        .split(' ')
        .map(str::to_owned)
        .collect();
    assert!(parse_args(&bad).is_err());
    assert!(parse_args(&["--workload".to_owned()]).is_err());
}

#[test]
fn the_host_speed_reference_is_the_same_work_every_time() {
    // Seeded data, no input: every measurement times identical work.
    assert_eq!(reference_work(), reference_work());
}
