//! Robustness suites for the serving stack: graceful drain, deadline
//! shedding, slow-loris defense, and the robust client's retry and
//! reconnect machinery.

use rcarb::backend::{
    AnalyzeRequest, AnalyzeResponse, Backend, InProcessBackend, PlanRequest, PlanResponse,
    RecordingBackend, SimulateRequest, SimulateResponse, SweepRequest, SweepResponse,
    SynthesizeRequest, SynthesizeResponse,
};
use rcarb_core::Error;
use rcarb_serve::chaos::{ChaosConfig, ChaosRates};
use rcarb_serve::{
    Client, ErrorCode, RequestBody, ResponseBody, RetryPolicy, RobustClient, ServeConfig, Server,
};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A backend whose synthesize calls take a configurable nap — how the
/// drain and deadline tests hold work in flight deterministically.
struct SlowBackend {
    inner: InProcessBackend,
    nap: Duration,
}

impl SlowBackend {
    fn new(nap: Duration) -> Self {
        Self {
            inner: InProcessBackend::new(),
            nap,
        }
    }
}

impl Backend for SlowBackend {
    fn synthesize(&self, req: &SynthesizeRequest) -> Result<SynthesizeResponse, Error> {
        std::thread::sleep(self.nap);
        self.inner.synthesize(req)
    }

    fn plan(&self, req: &PlanRequest) -> Result<PlanResponse, Error> {
        self.inner.plan(req)
    }

    fn analyze(&self, req: &AnalyzeRequest) -> Result<AnalyzeResponse, Error> {
        self.inner.analyze(req)
    }

    fn simulate(&self, req: &SimulateRequest) -> Result<SimulateResponse, Error> {
        self.inner.simulate(req)
    }

    fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, Error> {
        self.inner.sweep(req)
    }
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

/// The regression this PR exists for: a server with live listeners and
/// zero traffic must shut down in bounded time. The accept loops block
/// on the kernel; shutdown's self-connect nudge is what wakes them.
#[test]
fn zero_traffic_shutdown_completes_in_bounded_time() {
    let server = Server::in_process(ServeConfig::default());
    server.listen_tcp("127.0.0.1:0").unwrap();
    #[cfg(unix)]
    let path = {
        let path = std::env::temp_dir().join(format!(
            "rcarb-serve-idle-shutdown-{}.sock",
            std::process::id()
        ));
        server.listen_uds(&path).unwrap();
        path
    };
    let started = Instant::now();
    let report = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle shutdown took {:?} — an accept loop never woke",
        started.elapsed()
    );
    assert_eq!(report.answered, 0);
    assert_eq!(report.aborted, 0);
    #[cfg(unix)]
    assert!(!path.exists(), "socket file survived shutdown");
}

#[test]
fn shutdown_is_idempotent() {
    let server = Server::in_process(ServeConfig::default());
    let first = server.shutdown();
    let second = server.shutdown();
    assert_eq!(first, second);
}

/// Drain under load: every request sent before shutdown is answered —
/// either with its real response or with a typed `GoAway` — and none
/// is lost.
#[test]
fn drain_answers_everything_in_flight() {
    const N: u64 = 12;
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::new(SlowBackend::new(Duration::from_millis(50)), cfg);
    let mut client = Client::in_memory(&server);
    for id in 1..=N {
        client
            .send_with_id(
                id,
                RequestBody::Synthesize(SynthesizeRequest::round_robin(4)),
            )
            .unwrap();
    }
    // Let some of the burst reach the workers, then pull the plug.
    std::thread::sleep(Duration::from_millis(30));
    let report = server.shutdown();

    let mut answered = 0u64;
    let mut goaway = 0u64;
    for _ in 0..N {
        let frame = client.recv().expect("every request gets an answer");
        match frame.body {
            ResponseBody::Synthesize(_) => answered += 1,
            ResponseBody::Error(e) if e.code == ErrorCode::GoAway => {
                assert!(e.retryable, "GoAway must be retryable");
                goaway += 1;
            }
            other => panic!("unexpected drain outcome: {other:?}"),
        }
    }
    assert_eq!(answered + goaway, N, "a request was lost in the drain");
    let stats = server.stats();
    assert_eq!(stats.requests + stats.goaway, N);
    assert_eq!(stats.goaway, goaway);
    assert!(report.answered <= N);
    assert_eq!(report.aborted, 0, "a healthy drain sheds nothing");
}

/// A request arriving after the drain began is turned away with
/// `GoAway` — the connection machinery still answers, it just admits
/// nothing.
#[test]
fn draining_server_goaways_new_requests() {
    let server = Server::in_process(ServeConfig::default());
    let mut client = Client::in_memory(&server);
    client.ping().unwrap();
    server.shutdown();
    client.send(RequestBody::Ping).unwrap();
    let frame = client.recv().unwrap();
    match frame.body {
        ResponseBody::Error(e) => {
            assert_eq!(e.code, ErrorCode::GoAway);
            assert!(e.retryable);
        }
        other => panic!("expected GoAway, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

/// An already-expired deadline is shed at admission: typed error, zero
/// backend executions.
#[test]
fn expired_deadlines_are_shed_before_the_backend_runs() {
    let recorder = Arc::new(RecordingBackend::new(InProcessBackend::new()));
    let server = Server::new(Arc::clone(&recorder), ServeConfig::default());
    let mut client = Client::in_memory(&server).with_deadline_ms(Some(0));
    match client
        .call(RequestBody::Synthesize(SynthesizeRequest::round_robin(4)))
        .unwrap()
    {
        ResponseBody::Error(e) => {
            assert_eq!(e.code, ErrorCode::DeadlineExceeded);
            assert!(!e.retryable, "the budget is spent; a retry would be too");
            assert!(e.message.contains("admission"), "{}", e.message);
        }
        other => panic!("expected a deadline shed, got {other:?}"),
    }
    assert_eq!(recorder.calls(), 0, "the backend ran for dead work");
    assert_eq!(server.stats().deadline_shed, 1);
}

/// A deadline that expires while the request sits in the queue is shed
/// at worker pickup — again before the backend runs.
#[test]
fn queued_work_past_its_deadline_is_shed_at_pickup() {
    let recorder = Arc::new(RecordingBackend::new(SlowBackend::new(
        Duration::from_millis(100),
    )));
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::new(Arc::clone(&recorder), cfg);
    let mut client = Client::in_memory(&server);
    // Request 1: no deadline, occupies the single worker for 100 ms.
    client
        .send_with_id(
            1,
            RequestBody::Synthesize(SynthesizeRequest::round_robin(4)),
        )
        .unwrap();
    // Request 2: 30 ms budget — long dead by the time the worker frees.
    client.set_deadline_ms(Some(30));
    client
        .send_with_id(
            2,
            RequestBody::Synthesize(SynthesizeRequest::round_robin(5)),
        )
        .unwrap();
    let mut outcomes = std::collections::BTreeMap::new();
    for _ in 0..2 {
        let frame = client.recv().unwrap();
        outcomes.insert(frame.id, frame.body);
    }
    assert!(
        matches!(outcomes.get(&1), Some(ResponseBody::Synthesize(_))),
        "{outcomes:?}"
    );
    match outcomes.get(&2) {
        Some(ResponseBody::Error(e)) => {
            assert_eq!(e.code, ErrorCode::DeadlineExceeded);
            assert!(e.message.contains("queue"), "{}", e.message);
        }
        other => panic!("expected a queue-stage shed, got {other:?}"),
    }
    assert_eq!(recorder.calls(), 1, "the dead request reached the backend");
}

/// When the admission queue is full, a deadlined request waits only
/// until its deadline, then gives up with a typed error instead of
/// blocking forever.
#[test]
fn admission_wait_gives_up_at_the_deadline() {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::new(SlowBackend::new(Duration::from_millis(100)), cfg);
    let mut client = Client::in_memory(&server);
    // Job 1 executes (100 ms); job 2 fills the queue; job 3's admission
    // blocks on a full queue and must give up at its 30 ms deadline —
    // well before the queue frees at ~100 ms.
    for id in [1u64, 2] {
        client
            .send_with_id(
                id,
                RequestBody::Synthesize(SynthesizeRequest::round_robin(4)),
            )
            .unwrap();
    }
    client.set_deadline_ms(Some(30));
    let sent_at = Instant::now();
    client
        .send_with_id(
            3,
            RequestBody::Synthesize(SynthesizeRequest::round_robin(6)),
        )
        .unwrap();
    let mut outcomes = std::collections::BTreeMap::new();
    for _ in 0..3 {
        let frame = client.recv().unwrap();
        outcomes.insert(frame.id, frame.body);
    }
    match outcomes.get(&3) {
        Some(ResponseBody::Error(e)) => {
            assert_eq!(e.code, ErrorCode::DeadlineExceeded);
            assert!(!e.retryable);
        }
        other => panic!("expected a deadline give-up, got {other:?}"),
    }
    assert!(
        sent_at.elapsed() < Duration::from_secs(30),
        "the deadlined admission never gave up"
    );
    assert!(matches!(
        outcomes.get(&1),
        Some(ResponseBody::Synthesize(_))
    ));
    assert!(matches!(
        outcomes.get(&2),
        Some(ResponseBody::Synthesize(_))
    ));
}

// ---------------------------------------------------------------------------
// Hostile peers.
// ---------------------------------------------------------------------------

/// A peer that opens a frame and stops feeding it (slow-loris) is cut
/// off with a typed transport error once the read timeout fires.
#[test]
fn slow_loris_peers_get_a_typed_error_and_a_hangup() {
    let cfg = ServeConfig {
        read_timeout: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    };
    let server = Server::in_process(cfg);
    let stream = server.connect_in_memory();
    let (mut reader, mut writer) = stream.into_split();
    // Half a frame header, then silence.
    use std::io::Write as _;
    writer.write_all(&[16, 0, 0]).unwrap();
    let payload = rcarb_serve::read_frame(&mut reader).unwrap().unwrap();
    let frame: rcarb_serve::ResponseFrame =
        rcarb::json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(frame.id, 0);
    match frame.body {
        ResponseBody::Error(e) => {
            assert_eq!(e.code, ErrorCode::Transport);
            assert!(e.retryable, "nothing was parsed; a resend is safe");
        }
        other => panic!("expected a transport rejection, got {other:?}"),
    }
    // The server hung up: clean EOF.
    assert!(rcarb_serve::read_frame(&mut reader).unwrap().is_none());
}

/// Sends one raw payload on a fresh in-memory connection and returns the
/// server's answer.
fn exchange(server: &Server, payload: &[u8]) -> (Vec<u8>, rcarb_serve::PipeReader) {
    let (mut reader, mut writer) = server.connect_in_memory().into_split();
    rcarb_serve::write_frame(&mut writer, payload).unwrap();
    let answer = rcarb_serve::read_frame(&mut reader)
        .unwrap()
        .expect("an answer");
    (answer, reader)
}

/// The typed error a protocol-level rejection carries.
fn protocol_rejection(answer: &[u8]) -> rcarb_serve::WireError {
    let frame: rcarb_serve::ResponseFrame =
        rcarb::json::from_str(std::str::from_utf8(answer).unwrap()).unwrap();
    assert_eq!(frame.id, 0, "a rejected frame has no request id");
    match frame.body {
        ResponseBody::Error(e) => e,
        other => panic!("expected a rejection, got {other:?}"),
    }
}

/// A 100,000-deep nest of arrays in a CRC-valid frame used to overflow
/// the connection reader's stack inside the decoder and abort the whole
/// process. The decoder's depth cap turns it into a typed `BadRequest`
/// (whether the nest is the payload itself or sits under a key nobody
/// reads), the connection is closed, and the server keeps serving.
#[test]
fn deeply_nested_requests_get_a_typed_error_and_the_server_survives() {
    let server = Server::in_process(ServeConfig::default());
    let deep = "[".repeat(100_000);
    let frame = r#"{"id":1,"tenant":"t","body":"Ping","x":"#;
    // The first bracket past the cap: 128 levels of arrays, or the
    // frame's object and 127 arrays.
    let cases = [
        (deep.clone(), 128),
        (format!("{frame}{deep}"), frame.len() + 127),
    ];
    for (payload, at) in cases {
        let (answer, mut reader) = exchange(&server, payload.as_bytes());
        let e = protocol_rejection(&answer);
        assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}");
        assert!(!e.retryable);
        assert_eq!(
            e.message,
            format!("bad request frame: invalid JSON: nesting deeper than 128 at byte {at}")
        );
        // The server hung up on the bad frame.
        assert!(rcarb_serve::read_frame(&mut reader).unwrap().is_none());
    }
    let mut client = Client::in_memory(&server);
    client.ping().unwrap();
}

/// Seeded single-byte mutations of valid request payloads, re-framed
/// with a valid CRC so the frame layer passes them on. Each one is
/// answered with exactly the bytes an in-process decode and dispatch
/// produce, or — when it does not decode — with a typed `BadRequest`.
/// Nothing panics, and the server accepts the next connection.
#[test]
fn mutated_payloads_are_answered_exactly_or_rejected_as_bad_requests() {
    let graph = || {
        let mut b = rcarb_taskgraph::builder::TaskGraphBuilder::new("hostile");
        let m = b.segment("M", 64, 16);
        for t in 0..2u64 {
            b.task(
                format!("T{t}"),
                rcarb_taskgraph::program::Program::build(|p| {
                    p.repeat(4, |p| {
                        p.compute(3);
                        let v = p.mem_read(m, rcarb_taskgraph::program::Expr::lit(t));
                        p.mem_write(
                            m,
                            rcarb_taskgraph::program::Expr::lit(t),
                            rcarb_taskgraph::program::Expr::var(v),
                        );
                    });
                }),
            );
        }
        b.finish().unwrap()
    };
    let bodies = [
        RequestBody::Ping,
        RequestBody::Synthesize(SynthesizeRequest::round_robin(4)),
        RequestBody::Sweep(SweepRequest {
            ns: vec![2, 3],
            grade: "-3".to_owned(),
        }),
        RequestBody::Plan(PlanRequest {
            graph: graph(),
            board: rcarb_board::presets::duo_small(),
        }),
        RequestBody::Simulate(SimulateRequest {
            graph: graph(),
            board: rcarb_board::presets::duo_small(),
            max_cycles: 2000,
            options: rcarb::backend::SimulateOptions::default(),
        }),
    ];
    let payloads: Vec<Vec<u8>> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            rcarb::json::to_string(&rcarb_serve::RequestFrame {
                id: 10 + i as u64,
                tenant: "fuzz".to_owned(),
                deadline_ms: None,
                body,
            })
            .into_bytes()
        })
        .collect();
    let backend = InProcessBackend::new();
    let server = Server::in_process(ServeConfig::default());
    // SplitMix64.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let (mut answered, mut rejected) = (0, 0);
    for k in 0..400 {
        let mut payload = payloads[k % payloads.len()].clone();
        let at = (next() % payload.len() as u64) as usize;
        payload[at] = next() as u8;
        let (answer, _reader) = exchange(&server, &payload);
        match rcarb_serve::decode_request(&payload) {
            Ok(frame) => {
                let want = rcarb_serve::encode_response(&rcarb_serve::ResponseFrame {
                    id: frame.id,
                    body: rcarb_serve::dispatch(&backend, &frame.body),
                });
                assert_eq!(
                    answer,
                    want,
                    "mutant {k} ({:?})",
                    String::from_utf8_lossy(&payload)
                );
                answered += 1;
            }
            Err(_) => {
                let e = protocol_rejection(&answer);
                assert_eq!(e.code, ErrorCode::BadRequest, "mutant {k}: {e:?}");
                rejected += 1;
            }
        }
    }
    assert!(
        answered > 20 && rejected > 100,
        "{answered} answered, {rejected} rejected"
    );
    let mut client = Client::in_memory(&server);
    client.ping().unwrap();
}

/// A bank shared by 22 tasks needs a 22-input round-robin arbiter, and
/// its one-hot Synplify netlist does not fit the synthesizer's 64 cube
/// variables. Planning used to panic inside the arbiter estimate, which
/// killed the only worker: that request and every later one went
/// unanswered. Now Plan, Analyze and Simulate each get a non-retryable
/// `BadRequest`, and the worker still answers a ping. The client's
/// timeout turns a dead worker into a failure instead of a hang.
#[test]
fn designs_with_an_unsynthesizable_arbiter_get_a_bad_request_and_the_worker_survives() {
    use rcarb_taskgraph::program::{Expr, Program};
    // A short drain budget, so a server left with an unanswerable
    // request still shuts down promptly when the test fails.
    let server = Arc::new(Server::in_process(ServeConfig {
        workers: 1,
        drain_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    }));
    let server_for_connect = Arc::clone(&server);
    let mut client = RobustClient::new(
        move || Ok(Client::in_memory(&server_for_connect)),
        RetryPolicy::none(),
    )
    .with_timeout(Some(Duration::from_secs(10)));

    let mut b = rcarb_taskgraph::builder::TaskGraphBuilder::new("wide-bank");
    let m = b.segment("M", 64, 16);
    for t in 0..22u64 {
        b.task(
            format!("T{t}"),
            Program::build(|p| p.mem_write(m, Expr::lit(t), Expr::lit(1))),
        );
    }
    let graph = b.finish().unwrap();
    let board = rcarb_board::presets::duo_small();
    let requests = [
        RequestBody::Plan(PlanRequest {
            graph: graph.clone(),
            board: board.clone(),
        }),
        RequestBody::Analyze(AnalyzeRequest {
            graph: graph.clone(),
            board: board.clone(),
            verified: false,
        }),
        RequestBody::Simulate(SimulateRequest {
            graph,
            board,
            max_cycles: 10_000,
            options: rcarb::backend::SimulateOptions::default(),
        }),
    ];
    for body in requests {
        match client.call(body).expect("an answer before the timeout") {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}");
                assert!(!e.retryable);
                assert!(e.message.contains("22-input"), "{}", e.message);
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    assert_eq!(
        client.call(RequestBody::Ping).expect("the worker survives"),
        ResponseBody::Pong
    );
}

/// An idle connection is NOT a slow-loris: read timeouts between frames
/// just poll the drain flag, and the connection keeps working.
#[test]
fn idle_connections_survive_the_read_timeout() {
    let cfg = ServeConfig {
        read_timeout: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let server = Server::in_process(cfg);
    let mut client = Client::in_memory(&server);
    client.ping().unwrap();
    // Several idle-timeout periods pass...
    std::thread::sleep(Duration::from_millis(100));
    // ...and the connection still answers.
    client.ping().unwrap();
}

// ---------------------------------------------------------------------------
// The robust client.
// ---------------------------------------------------------------------------

/// A connection that dies on the first write is retried on a fresh
/// connection — same request id, exactly one backend-visible request.
#[test]
fn robust_client_reconnects_after_connection_loss() {
    let recorder = Arc::new(RecordingBackend::new(InProcessBackend::new()));
    let server = Arc::new(Server::new(Arc::clone(&recorder), ServeConfig::default()));
    let server_for_connect = Arc::clone(&server);
    let attempts = AtomicU64::new(0);
    let lethal = ChaosRates {
        corrupt_ppm: 0,
        disconnect_ppm: 1_000_000,
        stall_ppm: 0,
        delay_ppm: 0,
        nap: Duration::ZERO,
    };
    let mut client = RobustClient::new(
        move || {
            let n = attempts.fetch_add(1, Ordering::Relaxed);
            let (r, w) = server_for_connect.connect_in_memory().into_split();
            if n == 0 {
                // First connection: every write dies at byte 0 — the
                // frame never reaches the server.
                let (cr, cw) = ChaosConfig::new(7, lethal).wrap(r, w);
                Ok(Client::from_parts(cr, cw))
            } else {
                Ok(Client::from_parts(r, w))
            }
        },
        RetryPolicy::quick(11),
    );
    let resp = client
        .call(RequestBody::Synthesize(SynthesizeRequest::round_robin(4)))
        .unwrap();
    assert!(matches!(resp, ResponseBody::Synthesize(_)), "{resp:?}");
    let stats = client.stats();
    assert_eq!(stats.attempts, 2);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.reconnects, 1);
    assert_eq!(stats.transport_errors, 1);
    assert_eq!(recorder.calls(), 1, "the retry duplicated the execution");
}

/// Retryable server rejections are retried up to the policy, then the
/// typed error is returned — not an io failure.
#[test]
fn robust_client_exhausts_retries_on_persistent_rejection() {
    let server = Arc::new(Server::in_process(
        ServeConfig::default().with_tenant_quota("starved", 0),
    ));
    let server_for_connect = Arc::clone(&server);
    let mut client = RobustClient::new(
        move || Ok(Client::in_memory(&server_for_connect)),
        RetryPolicy::quick(5),
    )
    .with_tenant("starved");
    match client.call(RequestBody::Ping).unwrap() {
        ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::QuotaExceeded),
        other => panic!("expected the quota error back, got {other:?}"),
    }
    let stats = client.stats();
    assert_eq!(stats.attempts, 4, "quick policy = 4 attempts");
    assert_eq!(stats.retries, 3);
    assert_eq!(server.stats().quota_rejections, 4);
}

/// Non-retryable rejections are returned immediately: one attempt.
#[test]
fn robust_client_never_retries_non_retryable_errors() {
    let server = Arc::new(Server::in_process(ServeConfig::default()));
    let server_for_connect = Arc::clone(&server);
    let mut client = RobustClient::new(
        move || Ok(Client::in_memory(&server_for_connect)),
        RetryPolicy::quick(5),
    );
    let resp = client
        .call(RequestBody::Synthesize(SynthesizeRequest {
            policy: "lottery".to_owned(),
            ..SynthesizeRequest::round_robin(4)
        }))
        .unwrap();
    match resp {
        ResponseBody::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(!e.retryable);
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(client.stats().attempts, 1);
    assert_eq!(client.stats().retries, 0);
}

/// The robust client's per-request timeout turns an unreachable reply
/// into a bounded, typed failure instead of a hang.
#[test]
fn per_request_timeouts_bound_every_wait() {
    // A server whose backend naps far longer than the client waits.
    let server = Arc::new(Server::new(
        SlowBackend::new(Duration::from_millis(500)),
        ServeConfig::default(),
    ));
    let server_for_connect = Arc::clone(&server);
    let mut client = RobustClient::new(
        move || Ok(Client::in_memory(&server_for_connect)),
        RetryPolicy::none(),
    )
    .with_timeout(Some(Duration::from_millis(40)));
    let started = Instant::now();
    let err = client
        .call(RequestBody::Synthesize(SynthesizeRequest::round_robin(4)))
        .unwrap_err();
    assert!(
        matches!(
            err.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the timeout never fired"
    );
    // A read failure after a successful write is not auto-retried.
    assert_eq!(client.stats().retries, 0);
    assert_eq!(client.stats().transport_errors, 1);
}

// ---------------------------------------------------------------------------
// Every arbitration policy is servable.
// ---------------------------------------------------------------------------

/// Synthesize answers every policy at every size over the wire, with a
/// synthesis report or a typed `BadRequest`. Before
/// `GeneratedArbiter::try_fsm`, asking a structural policy (fifo, random,
/// static-priority) for its state count panicked a worker; a spec wider
/// than the synthesizer's 64 cube variables panicked it inside synthesis.
/// Either way the request never got a reply.
#[test]
fn synthesize_answers_every_policy_over_the_in_memory_transport() {
    let server = Arc::new(Server::in_process(ServeConfig::default()));
    let connect = Arc::clone(&server);
    let mut client =
        RobustClient::new(move || Ok(Client::in_memory(&connect)), RetryPolicy::none())
            .with_timeout(Some(Duration::from_secs(30)));
    // (policy, states per task, largest size that fits the synthesizer
    // under Synplify's forced one-hot encoding).
    let policies = [
        ("round-robin", 2, 21),
        ("prefix-rr", 2, 21),
        ("preemptive-rr", 5, 10),
        ("fifo", 0, 32),
        ("random", 0, 32),
        ("static-priority", 0, 32),
    ];
    for (policy, states_per_task, fits_up_to) in policies {
        for n in [1usize, 4, 11, 32] {
            let req = SynthesizeRequest {
                policy: policy.to_owned(),
                include_vhdl: true,
                ..SynthesizeRequest::round_robin(n)
            };
            match client.call(RequestBody::Synthesize(req)) {
                Ok(ResponseBody::Synthesize(s)) => {
                    assert!(n <= fits_up_to, "{policy} n={n}: answered past the ceiling");
                    assert_eq!(s.n, n as u64, "{policy} n={n}");
                    assert_eq!(
                        s.states,
                        states_per_task * n as u64,
                        "{policy} n={n}: states"
                    );
                    assert!(s.clbs > 0 && s.fmax_mhz > 0.0, "{policy} n={n}: {s:?}");
                    assert!(
                        s.vhdl.is_some_and(|v| v.contains("entity")),
                        "{policy} n={n}"
                    );
                }
                Ok(ResponseBody::Error(e)) => {
                    assert!(n > fits_up_to, "{policy} n={n}: rejected: {e:?}");
                    assert_eq!(e.code, ErrorCode::BadRequest, "{policy} n={n}: {e:?}");
                }
                other => panic!("{policy} n={n}: expected an answer, got {other:?}"),
            }
        }
    }
    let report = server.shutdown();
    assert_eq!(report.aborted, 0, "{report:?}");
}
