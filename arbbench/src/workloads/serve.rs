//! `serve`: an open loop of independent partitioner clients against an
//! in-process `rcarb-serve` daemon over a Unix socket.
//!
//! Each phase sends requests on a seeded Poisson schedule split over
//! two connections (one sender and one receiver thread each), whatever
//! the daemon's progress, and times every request from its scheduled
//! send. Phases: a fixed `low` rate, a fixed `high` rate, then a rate
//! ladder that stops at the first rate missing the latency limit.
//! Every response is compared byte for byte with an in-process
//! `dispatch` of the same body.

use crate::calib::Calibrator;
use crate::gen::serve_bodies;
use crate::schedule::poisson_schedule;
use crate::spans::{stage, Tracer};
use crate::stats::{self, tail};
use crate::{timed_setup, Args, Outcome};
use rcarb::backend::InProcessBackend;
use rcarb_core::generator::{reset_synthesis_cache, synthesis_cache_stats};
use rcarb_core::rng::{mix3, SplitMix64};
use rcarb_serve::{
    decode_request, dispatch, encode_response, read_frame, write_frame, RequestBody, RequestFrame,
    ResponseBody, ResponseFrame, ServeConfig, Server,
};
use std::io::Cursor;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Distinct request bodies per seed.
const BODIES: usize = 120;
/// Connections, each with one sender (generator) thread.
const CONNS: u64 = 2;
/// Requests per second of the fixed `low` and `high` phases. There is no
/// recorded partitioner traffic to take them from; they are set against
/// the in-process service rate of the body pool (about 1400 requests/s
/// on 2 vCPUs): `low` about 15 % of it, so latency is mostly service
/// time, and `high` about 30 %, so queueing behind the other connection
/// shows.
const LOW_RPS: f64 = 200.0;
const HIGH_RPS: f64 = 400.0;
/// Ladder rates, tried in order until one misses the limit: from about
/// 0.85 to 2 times the single-thread service rate, as the daemon has one
/// worker per core.
const LADDER_RPS: [f64; 4] = [1200.0, 1600.0, 2100.0, 2800.0];
/// The latency limit on the 99th percentile, timed from scheduled send.
const LIMIT_P99_MS: f64 = 50.0;
/// A rung whose last response arrives later than this after its
/// schedule ends has a growing backlog.
const MAX_DRAIN_MS: f64 = 250.0;
/// A send more than this late counts as late.
const LATE_MS: f64 = 1.0;
/// Longest wait for an outstanding response before it counts as lost.
const RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// Shares of the window: `low`, `high`, each ladder rung, and each of
/// the three in-process service slices (after `low`, after `high`, after
/// the ladder). At 20 s the `low` phase holds about 1200 requests,
/// enough for its p99 to have ten samples beyond it.
const LOW_SHARE: f64 = 0.3;
const HIGH_SHARE: f64 = 0.2;
const RUNG_SHARE: f64 = 0.06;
const SLICE_SHARE: f64 = 0.08;
/// Process CPU time between host-speed reference measurements in the
/// service slices (their requests take a tenth of a millisecond).
const CALIBRATE_EVERY_S: f64 = 0.02;

struct Setup {
    body_json: Vec<String>,
    expected_json: Vec<String>,
    server: Server,
    socket: PathBuf,
}

/// A fresh socket path per daemon, so a drained daemon never removes
/// its successor's socket.
fn socket_path(seed: u64) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(".bench_out").join(format!("serve-{}-{seed}-{n}.sock", std::process::id()))
}

/// A request frame's payload, spliced from the body's pre-encoded JSON.
fn frame_payload(id: u64, tenant: &str, body_json: &str) -> Vec<u8> {
    format!(r#"{{"id":{id},"tenant":"{tenant}","deadline_ms":null,"body":{body_json}}}"#)
        .into_bytes()
}

/// The expected response payload, spliced the same way.
fn response_payload(id: u64, body_json: &str) -> Vec<u8> {
    format!(r#"{{"id":{id},"body":{body_json}}}"#).into_bytes()
}

/// Builds the bodies, warms the synthesis cache by dispatching each
/// once in-process (those answers are the byte-identity reference),
/// and starts the daemon.
fn setup(seed: u64) -> Setup {
    reset_synthesis_cache();
    let bodies = serve_bodies(seed, BODIES);
    let body_json: Vec<String> = bodies.iter().map(rcarb_json::to_string).collect();
    let probe = RequestFrame {
        id: 7,
        tenant: "c0".to_owned(),
        deadline_ms: None,
        body: bodies[0].clone(),
    };
    assert_eq!(
        rcarb_json::to_string(&probe).into_bytes(),
        frame_payload(7, "c0", &body_json[0]),
        "request frames are spliced in the wire's own field order"
    );
    let backend = InProcessBackend::new();
    let expected: Vec<ResponseBody> = bodies.iter().map(|b| dispatch(&backend, b)).collect();
    let expected_json: Vec<String> = expected.iter().map(rcarb_json::to_string).collect();
    assert_eq!(
        encode_response(&ResponseFrame {
            id: 7,
            body: expected[0].clone()
        }),
        response_payload(7, &expected_json[0]),
        "responses are spliced in the wire's own field order"
    );
    // One worker per core, one job per queue visit (no head-of-line
    // blocking behind batch-mates); the default bounded queue; quotas
    // high enough never to refuse a request.
    let server = Server::in_process(ServeConfig {
        batch_max: 1,
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        default_quota: 1 << 20,
        ..ServeConfig::default()
    });
    let socket = socket_path(seed);
    std::fs::create_dir_all(".bench_out").expect("create .bench_out");
    let _ = std::fs::remove_file(&socket);
    server
        .listen_uds(&socket)
        .expect("bind the daemon's socket");
    Setup {
        body_json,
        expected_json,
        server,
        socket,
    }
}

fn teardown(s: &Setup) {
    s.server.shutdown();
    let _ = std::fs::remove_file(&s.socket);
}

/// One request of a phase.
#[derive(Debug, Clone)]
struct Sent {
    id: u64,
    body: usize,
    due_s: f64,
    lag_ms: f64,
    latency_ms: Option<f64>,
    ok: bool,
}

/// What one phase measured.
#[derive(Debug)]
struct PhaseResult {
    name: String,
    rate: f64,
    requests: Vec<Sent>,
    succeeded: u64,
    failed: u64,
    late: u64,
    drain_ms: f64,
    latencies: Vec<f64>,
}

impl PhaseResult {
    fn p(&self, p: f64) -> stats::Tail {
        tail(&self.latencies, p)
    }

    fn render(&self) -> String {
        let lags: Vec<f64> = self.requests.iter().map(|r| r.lag_ms).collect();
        format!(
            "phase {} @ {:.0} rps: sent={} succeeded={} failed={} late={} drain={:.1} ms gen_lag_p50={:.4} ms; p50 {}; p99 {}",
            self.name,
            self.rate,
            self.requests.len(),
            self.succeeded,
            self.failed,
            self.late,
            self.drain_ms,
            stats::median(&lags).unwrap_or(0.0),
            self.p(50.0).render("ms"),
            self.p(99.0).render("ms"),
        )
    }

    /// Meets the limit: p99 reportable and within it, no failures, no
    /// growing backlog.
    fn meets_slo(&self) -> bool {
        self.failed == 0
            && self.drain_ms <= MAX_DRAIN_MS
            && self.p(99.0).value.is_some_and(|v| v <= LIMIT_P99_MS)
    }
}

fn parse_id(payload: &[u8]) -> Option<u64> {
    let rest = payload.strip_prefix(br#"{"id":"#)?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// Runs one open-loop phase. Receivers compare each response with the
/// expected bytes as it arrives, so nothing but a verdict is kept.
fn phase(s: &Setup, seed: u64, index: u64, name: &str, rate: f64, secs: f64) -> PhaseResult {
    let mut per_conn: Vec<Vec<Sent>> = Vec::new();
    for c in 0..CONNS {
        let conn_seed = mix3(seed, index, c);
        let mut rng = SplitMix64::new(conn_seed ^ 0xB0D1);
        per_conn.push(
            poisson_schedule(conn_seed, rate / CONNS as f64, secs)
                .into_iter()
                .enumerate()
                .map(|(k, due_s)| Sent {
                    id: (index << 40) | (c << 32) | (k as u64 + 1),
                    body: rng.next_below(s.body_json.len() as u64) as usize,
                    due_s,
                    lag_ms: 0.0,
                    latency_ms: None,
                    ok: false,
                })
                .collect(),
        );
    }
    let start = Instant::now() + Duration::from_millis(20);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (c, mut reqs) in per_conn.into_iter().enumerate() {
            let results = &results;
            scope.spawn(move || {
                let stream = UnixStream::connect(&s.socket).expect("connect to the daemon");
                stream
                    .set_read_timeout(Some(RECV_TIMEOUT))
                    .expect("set read timeout");
                let mut reader = stream.try_clone().expect("clone the socket");
                let ids: Vec<(u64, usize)> = reqs.iter().map(|r| (r.id, r.body)).collect();
                let received = std::thread::scope(|inner| {
                    let rx = inner.spawn(move || {
                        let mut got = Vec::with_capacity(ids.len());
                        while got.len() < ids.len() {
                            let Ok(Some(payload)) = read_frame(&mut reader) else {
                                break;
                            };
                            let at = Instant::now();
                            let Some(id) = parse_id(&payload) else {
                                continue;
                            };
                            let k = (id & 0xffff_ffff).wrapping_sub(1) as usize;
                            if let Some(&(want, body)) = ids.get(k).filter(|(want, _)| *want == id)
                            {
                                let ok = payload == response_payload(want, &s.expected_json[body]);
                                got.push((k, at, ok));
                            }
                        }
                        got
                    });
                    let mut writer = &stream;
                    let tenant = format!("c{c}");
                    for r in reqs.iter_mut() {
                        let due = start + Duration::from_secs_f64(r.due_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        r.lag_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let payload = frame_payload(r.id, &tenant, &s.body_json[r.body]);
                        if write_frame(&mut writer, &payload).is_err() {
                            break;
                        }
                    }
                    rx.join().expect("receiver thread")
                });
                for (k, at, ok) in received {
                    let r = &mut reqs[k];
                    let due = start + Duration::from_secs_f64(r.due_s);
                    r.latency_ms = Some(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                    r.ok = ok;
                }
                results.lock().expect("results lock").extend(reqs);
            });
        }
    });
    let mut requests = results.into_inner().expect("results lock");
    requests.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));

    let mut out = PhaseResult {
        name: name.to_owned(),
        rate,
        requests: Vec::new(),
        succeeded: 0,
        failed: 0,
        late: 0,
        drain_ms: 0.0,
        latencies: Vec::new(),
    };
    let mut last_ms: f64 = 0.0;
    for r in &requests {
        if r.ok {
            out.succeeded += 1;
        } else {
            out.failed += 1;
        }
        if r.lag_ms > LATE_MS {
            out.late += 1;
        }
        if let Some(l) = r.latency_ms {
            out.latencies.push(l);
            last_ms = last_ms.max(r.due_s * 1e3 + l);
        }
    }
    out.drain_ms = (last_ms - secs * 1e3).max(0.0);
    out.requests = requests;
    out
}

/// The ladder's sustainable rate: the last passing rung, interpolated
/// toward the first failing one by where the limit falls between their
/// p99s (a failing rung without a reportable p99 counts as far over).
fn slo_rate(rungs: &[PhaseResult]) -> f64 {
    let Some(first_fail) = rungs.iter().position(|r| !r.meets_slo()) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    if first_fail == 0 {
        return 0.0;
    }
    let pass = &rungs[first_fail - 1];
    let fail = &rungs[first_fail];
    let p_pass = pass.p(99.0).value.unwrap_or(LIMIT_P99_MS);
    let p_fail = match fail.p(99.0).value {
        Some(v) if fail.failed == 0 && fail.drain_ms <= MAX_DRAIN_MS => v,
        _ => f64::INFINITY,
    };
    let frac = if p_fail.is_finite() && p_fail > p_pass {
        ((LIMIT_P99_MS - p_pass) / (p_fail - p_pass)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    pass.rate + frac * (fail.rate - pass.rate)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Each repetition starts a daemon; dropping an earlier one drains it.
    let (setup_s, s) = timed_setup(|| setup(args.seed));
    let secs = args.seconds;
    if args.trace {
        run_traced(args, &s, &mut out);
        teardown(&s);
        return out;
    }

    let backend = InProcessBackend::new();
    let mut service = Service {
        cpu_ms: Vec::new(),
        wall_ms: Vec::new(),
        calib: Calibrator::new(CALIBRATE_EVERY_S, 1),
    };
    let slice_s = secs * SLICE_SHARE;
    let low = phase(&s, args.seed, 1, "low", LOW_RPS, secs * LOW_SHARE);
    service_slice(&s, &backend, &mut out, &mut service, slice_s);
    let high = phase(&s, args.seed, 2, "high", HIGH_RPS, secs * HIGH_SHARE);
    service_slice(&s, &backend, &mut out, &mut service, slice_s);
    // Peak memory of setup and the fixed-rate phases. Past capacity the
    // ladder's backlog grows with how slow the host is at that moment,
    // and so would a peak taken after it.
    out.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    let mut rungs: Vec<PhaseResult> = Vec::new();
    for (i, &rate) in LADDER_RPS.iter().enumerate() {
        let rung = phase(
            &s,
            args.seed,
            3 + i as u64,
            &format!("ladder{i}"),
            rate,
            secs * RUNG_SHARE,
        );
        let pass = rung.meets_slo();
        rungs.push(rung);
        if !pass {
            break;
        }
    }
    service_slice(&s, &backend, &mut out, &mut service, slice_s);
    teardown(&s);

    for p in [&low, &high].into_iter().chain(rungs.iter()) {
        for _ in 0..p.succeeded {
            out.count(true, false);
        }
        for _ in 0..p.failed {
            out.count(false, false);
        }
        out.line(p.render());
    }

    // Gated: the in-process service figures, in CPU time. Latency over
    // the socket is reported below but not gated: on a 2-vCPU VM it is
    // mostly vCPU wake-up time, which moves with the host's other
    // tenants.
    let figures = |ms: &[f64]| {
        let p50 = stats::median(ms).unwrap_or(f64::NAN);
        (p50, ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3))
    };
    let (service_p50, service_rps) = figures(&service.cpu_ms);
    let (wall_p50, wall_rps) = figures(&service.wall_ms);
    let slo = slo_rate(&rungs);
    let scale = service.calib.factor();
    out.set("setup_s", setup_s);
    out.set("op_cpu_p50_ms", service_p50 * scale);
    out.set("throughput_per_cpu_s", service_rps / scale);
    out.line(service.calib.render());
    for p in [&low, &high] {
        out.line(format!(
            "serve_p50_ms.{}: {}",
            p.name,
            p.p(50.0).render("ms")
        ));
        out.line(format!(
            "serve_p99_ms.{}: {}",
            p.name,
            p.p(99.0).render("ms")
        ));
    }
    out.line(format!(
        "serve_slo_rps: {slo:.3} 1/s (p99 <= {LIMIT_P99_MS} ms, drain <= {MAX_DRAIN_MS} ms, no failures)"
    ));
    out.line(format!(
        "serve_service_rps: {wall_rps:.3} 1/s wall, {service_rps:.3} 1/s CPU; serve_service_p50_ms: {wall_p50:.4} ms wall, {service_p50:.4} ms CPU ({} requests in-process, one at a time, in whole passes over the body pool)",
        service.cpu_ms.len()
    ));
    out
}

/// Per-request CPU and wall times of the in-process service slices.
struct Service {
    cpu_ms: Vec<f64>,
    wall_ms: Vec<f64>,
    calib: Calibrator,
}

/// One slice of the in-process service measurement: whole passes over
/// the body pool until `budget_s` has gone by, one request at a time
/// through the daemon's own stages, each request timed on its own.
/// Slices run between phases, so the measurement samples the whole run.
fn service_slice(
    s: &Setup,
    backend: &InProcessBackend,
    out: &mut Outcome,
    service: &mut Service,
    budget_s: f64,
) {
    let bodies = s.body_json.len();
    let started = Instant::now();
    let mut k = 0;
    while k % bodies != 0 || started.elapsed().as_secs_f64() < budget_s {
        let id = k as u64 + 1;
        let payload = frame_payload(id, "c0", &s.body_json[k % bodies]);
        service.calib.tick();
        let (c0, t0) = (stats::cpu_s(), Instant::now());
        let got = serve_one(None, backend, &payload);
        service.cpu_ms.push((stats::cpu_s() - c0) * 1e3);
        service.wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.count(
            got == response_payload(id, &s.expected_json[k % bodies]),
            false,
        );
        k += 1;
    }
}

/// The traced run: the `high` phase against the untraced daemon for
/// latency, queue and generator figures, then every one of its request
/// bodies replayed in-process through frame -> decode -> dispatch ->
/// encode under spans, which splits service time from waiting.
fn run_traced(args: &Args, s: &Setup, out: &mut Outcome) {
    let stats0 = s.server.stats();
    let cache0 = synthesis_cache_stats();
    let high = phase(s, args.seed, 2, "high", HIGH_RPS, args.seconds * HIGH_SHARE);
    let stats1 = s.server.stats();
    let cache1 = synthesis_cache_stats();
    out.line(high.render());

    let backend = InProcessBackend::new();
    let payloads: Vec<Vec<u8>> = high
        .requests
        .iter()
        .map(|r| frame_payload(r.id, "c0", &s.body_json[r.body]))
        .collect();
    let t0 = Instant::now();
    let plain = replay(&payloads, &backend, None);
    let untraced_ns = t0.elapsed().as_nanos() as u64;
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let traced = replay(&payloads, &backend, Some(&mut tracer));
    let traced_ns = t0.elapsed().as_nanos() as u64;

    for ((r, got), again) in high.requests.iter().zip(&traced).zip(&plain) {
        let expected = response_payload(r.id, &s.expected_json[r.body]);
        out.count(got == &expected && again == &expected && r.ok, false);
    }

    super::layer_metrics(out, &tracer, traced_ns, untraced_ns);
    let ops = tracer.ops().max(1) as f64;
    let service_ms: f64 = crate::spans::self_by_name(tracer.spans())
        .iter()
        .filter(|(n, _)| n.starts_with("serve."))
        .map(|(_, &ns)| crate::ms(ns))
        .sum::<f64>()
        / ops;
    let mean_latency = high.latencies.iter().sum::<f64>() / high.latencies.len().max(1) as f64;
    let kb = payloads.iter().map(|p| p.len() as f64).sum::<f64>()
        / 1024.0
        / payloads.len().max(1) as f64;
    let lags: Vec<f64> = high.requests.iter().map(|r| r.lag_ms).collect();
    out.set("serve.request_kb", kb);
    out.set("serve.wait_ms", (mean_latency - service_ms).max(0.0));
    out.set("serve.max_queue_depth", stats1.max_queue_depth as f64);
    out.set("serve.batches", (stats1.batches - stats0.batches) as f64);
    out.set(
        "serve.gen_lag_ms",
        lags.iter().sum::<f64>() / lags.len().max(1) as f64,
    );
    let hits = cache1.hits - cache0.hits;
    let misses = cache1.misses - cache0.misses;
    out.set("exec.cache_hits", hits as f64);
    out.set("exec.cache_misses", misses as f64);
    out.set("exec.cache_hit_rate", super::ratio(hits, hits + misses));
    out.line(format!(
        "serve traced: {} requests replayed; mean latency {mean_latency:.3} ms = service {service_ms:.3} ms + wait",
        payloads.len()
    ));
    super::finish_trace(out, &tracer, traced_ns, args);
}

fn replay(
    payloads: &[Vec<u8>],
    backend: &InProcessBackend,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Vec<u8>> {
    payloads
        .iter()
        .map(|p| match tracer.as_deref_mut() {
            Some(t) => t.op("serve", |t| serve_one(Some(t), backend, p)),
            None => serve_one(None, backend, p),
        })
        .collect()
}

/// One request through the server's own stages: request frame written
/// and read back (length prefix and CRC), decode, dispatch, encode, and
/// the response frame written and read back.
fn serve_one(mut t: Option<&mut Tracer>, backend: &InProcessBackend, payload: &[u8]) -> Vec<u8> {
    let framed = stage(&mut t, "serve.frame", || round_trip(payload));
    let frame = stage(&mut t, "serve.decode", || decode_request(&framed)).expect("request decodes");
    let body = stage(&mut t, backend_span(&frame.body), || {
        dispatch(backend, &frame.body)
    });
    let bytes = stage(&mut t, "serve.encode", || {
        encode_response(&ResponseFrame { id: frame.id, body })
    });
    stage(&mut t, "serve.frame", || round_trip(&bytes))
}

/// The span a request's dispatch is recorded under.
fn backend_span(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Synthesize(_) => "serve.backend.synthesize",
        RequestBody::Sweep(_) => "serve.backend.sweep",
        RequestBody::Plan(_) => "serve.backend.plan",
        RequestBody::Analyze(_) => "serve.backend.analyze",
        RequestBody::Simulate(_) => "serve.backend.simulate",
        RequestBody::Ping => "serve.backend.ping",
    }
}

fn round_trip(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + 8);
    write_frame(&mut wire, payload).expect("in-memory write");
    read_frame(&mut Cursor::new(wire))
        .expect("in-memory read")
        .expect("one frame")
}
