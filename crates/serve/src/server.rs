//! The long-lived arbitration server.
//!
//! One [`Server`] owns one [`Backend`] and a pool of batch-draining
//! worker threads behind a bounded admission queue. Connections —
//! TCP, Unix-socket, or [in-memory](crate::transport) — all run the
//! same loop: read request frames, admit them (enforcing per-tenant
//! in-flight quotas, blocking the connection's reader when the queue is
//! full rather than dropping work), and stream response frames back as
//! workers finish. Responses to pipelined requests may return out of
//! order; clients correlate by id.
//!
//! Robustness machinery, all of it exercised by the chaos suite:
//!
//! - **Deadlines.** A request carrying `deadline_ms` is shed with a
//!   typed [`ErrorCode::DeadlineExceeded`] the moment its budget
//!   elapses — at admission, while waiting for queue space (the wait
//!   gives up at the deadline instead of blocking forever), or at
//!   worker pickup — always *before* the backend runs.
//! - **Hostile peers.** Every connection reads under a timeout
//!   ([`ServeConfig::read_timeout`]): a peer that stalls mid-frame
//!   (slow-loris) is answered with a typed transport error and cut off;
//!   an idle timeout just polls the drain flag and keeps waiting.
//!   Damaged frames (CRC mismatch, truncation) get a retryable
//!   [`ErrorCode::Transport`] answer — the request inside was never
//!   parsed, so a resend cannot double-execute.
//! - **Graceful drain.** [`Server::shutdown`] stops admitting (new
//!   requests are answered [`ErrorCode::GoAway`] so clients fail over),
//!   answers everything already admitted, deterministically unblocks
//!   the TCP/UDS accept loops with a self-connect nudge, and returns a
//!   [`DrainReport`] of what happened — all in bounded time
//!   ([`ServeConfig::drain_timeout`]).
//!
//! Because the synthesis cache and the exec pool are process-wide,
//! every connection shares warm state automatically: the second tenant
//! asking for an `Arb4` gets the first tenant's cache hit.
//!
//! [`ErrorCode::DeadlineExceeded`]: crate::wire::ErrorCode::DeadlineExceeded
//! [`ErrorCode::Transport`]: crate::wire::ErrorCode::Transport
//! [`ErrorCode::GoAway`]: crate::wire::ErrorCode::GoAway

use crate::frame::{read_frame_event, write_frame, FrameEvent, DEFAULT_READ_TIMEOUT};
use crate::transport::{duplex, InMemoryStream, TimedRead};
use crate::wire::{
    decode_request, dispatch, encode_response, RequestFrame, ResponseBody, ResponseFrame, WireError,
};
use rcarb::backend::{Backend, InProcessBackend};
use rcarb_obs::{Obs, ObsConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Server tuning: admission, batching, quotas, robustness budgets,
/// observability.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum queued (admitted, not yet dispatched) requests. When the
    /// queue is full, connection readers block — backpressure, never
    /// silent drops (requests with deadlines give up at the deadline).
    pub queue_capacity: usize,
    /// Maximum requests one worker drains per queue visit. Batching
    /// amortizes lock traffic when thousands of small requests pile up.
    pub batch_max: usize,
    /// Worker threads executing requests.
    pub workers: usize,
    /// In-flight quota for tenants without an explicit entry.
    pub default_quota: usize,
    /// Per-tenant in-flight quotas; requests beyond the quota are
    /// answered with [`crate::wire::ErrorCode::QuotaExceeded`]
    /// immediately.
    pub tenant_quotas: BTreeMap<String, usize>,
    /// Per-connection read timeout. A timeout firing *mid-frame* is the
    /// slow-loris signature and closes the connection with a typed
    /// error; firing while idle merely polls the drain flag. `None`
    /// disables the defense (reads may park indefinitely).
    pub read_timeout: Option<Duration>,
    /// Upper bound on how long [`Server::shutdown`] waits for admitted
    /// work to finish before shedding the remaining queue with
    /// [`crate::wire::ErrorCode::GoAway`].
    pub drain_timeout: Duration,
    /// Observability: when enabled, every request runs under a
    /// `serve/<method>` span and the queue/tenant metrics are recorded.
    pub obs: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            batch_max: 16,
            workers: 4,
            default_quota: 1024,
            tenant_quotas: BTreeMap::new(),
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
            drain_timeout: Duration::from_secs(30),
            obs: ObsConfig::off(),
        }
    }
}

impl ServeConfig {
    /// Sets one tenant's in-flight quota.
    #[must_use]
    pub fn with_tenant_quota(mut self, tenant: impl Into<String>, quota: usize) -> Self {
        self.tenant_quotas.insert(tenant.into(), quota);
        self
    }

    /// Sets the per-connection read timeout (slow-loris defense).
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }
}

/// Monotonic counters the server keeps regardless of observability
/// configuration (cheap atomics; the loadgen report embeds them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests fully served (including error responses).
    pub requests: u64,
    /// Responses that carried a [`WireError`].
    pub errors: u64,
    /// Requests rejected at admission for quota.
    pub quota_rejections: u64,
    /// Requests shed because their deadline elapsed before dispatch
    /// (at admission, in the queue, or at worker pickup).
    pub deadline_shed: u64,
    /// Requests answered `GoAway` because the server was draining.
    pub goaway: u64,
    /// Worker queue visits that drained at least one request.
    pub batches: u64,
    /// Largest single batch drained.
    pub max_batch: u64,
    /// High-water mark of the admission queue.
    pub max_queue_depth: u64,
}

rcarb_json::impl_json_struct!(ServeStats {
    requests,
    errors,
    quota_rejections,
    deadline_shed,
    goaway,
    batches,
    max_batch,
    max_queue_depth,
});

/// What a graceful drain accomplished, returned by
/// [`Server::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Admitted requests answered normally after the drain began.
    pub answered: u64,
    /// Total `GoAway` rejections over the server's lifetime (requests
    /// arriving during the drain plus any shed from the queue).
    pub goaway: u64,
    /// Queued jobs shed with `GoAway` because the drain budget
    /// ([`ServeConfig::drain_timeout`]) elapsed first. Zero on every
    /// healthy drain.
    pub aborted: u64,
}

rcarb_json::impl_json_struct!(DrainReport {
    answered,
    goaway,
    aborted
});

/// One admitted request, waiting for a worker.
struct Job {
    id: u64,
    tenant: String,
    deadline: Option<Instant>,
    body: crate::wire::RequestBody,
    reply: mpsc::Sender<ResponseFrame>,
}

/// Queue state guarded by one mutex: the pending jobs, the per-tenant
/// in-flight counts (admitted-or-executing), the number of jobs
/// currently inside `execute`, and the drain flag.
#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    inflight: BTreeMap<String, usize>,
    executing: usize,
    draining: bool,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    errors: AtomicU64,
    quota_rejections: AtomicU64,
    deadline_shed: AtomicU64,
    goaway: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    max_queue_depth: AtomicU64,
    /// Jobs answered after the drain flag went up.
    drained: AtomicU64,
}

impl Stats {
    fn bump_max(slot: &AtomicU64, value: u64) {
        slot.fetch_max(value, Ordering::Relaxed);
    }
}

/// Where shutdown's self-connect nudge must knock to wake a blocked
/// accept loop.
enum NudgeTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

struct Inner {
    backend: Box<dyn Backend>,
    cfg: ServeConfig,
    state: Mutex<QueueState>,
    /// Workers wait here for jobs.
    ready: Condvar,
    /// Connection readers wait here for queue space.
    space: Condvar,
    /// Drain waits here for the queue to empty and executions to end.
    settled: Condvar,
    /// Mirrors `QueueState::draining` for lock-free reads in the
    /// connection loops.
    draining: AtomicBool,
    shutdown: AtomicBool,
    session: Option<Obs>,
    stats: Stats,
}

impl Inner {
    fn quota_for(&self, tenant: &str) -> usize {
        self.cfg
            .tenant_quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.cfg.default_quota)
    }

    fn reply_error(
        &self,
        id: u64,
        reply: &mpsc::Sender<ResponseFrame>,
        error: WireError,
        counter: &AtomicU64,
        series: &str,
    ) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(session) = &self.session {
            session.metrics().counter_add(series, 1);
        }
        let _ = reply.send(ResponseFrame {
            id,
            body: ResponseBody::Error(error),
        });
    }

    /// Admits one request: drain check, quota check, deadline check,
    /// then a deadline-bounded blocking enqueue.
    fn admit(
        &self,
        frame: RequestFrame,
        deadline: Option<Instant>,
        reply: &mpsc::Sender<ResponseFrame>,
    ) {
        let quota = self.quota_for(&frame.tenant);
        let mut st = self.state.lock().expect("server lock");
        if st.draining {
            drop(st);
            self.reply_error(
                frame.id,
                reply,
                WireError::goaway(),
                &self.stats.goaway,
                "serve/goaway",
            );
            return;
        }
        {
            let inflight = st.inflight.entry(frame.tenant.clone()).or_insert(0);
            if *inflight >= quota {
                drop(st);
                self.stats.quota_rejections.fetch_add(1, Ordering::Relaxed);
                if let Some(session) = &self.session {
                    session
                        .metrics()
                        .counter_add(&format!("serve/tenant/{}/rejected", frame.tenant), 1);
                }
                let _ = reply.send(ResponseFrame {
                    id: frame.id,
                    body: ResponseBody::Error(WireError::quota(&frame.tenant, quota)),
                });
                return;
            }
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            drop(st);
            self.reply_error(
                frame.id,
                reply,
                WireError::deadline("admission"),
                &self.stats.deadline_shed,
                "serve/deadline/shed_admission",
            );
            return;
        }
        *st.inflight.entry(frame.tenant.clone()).or_insert(0) += 1;
        while st.jobs.len() >= self.cfg.queue_capacity && !st.draining {
            match deadline {
                None => st = self.space.wait(st).expect("server lock"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        Self::release_tenant(&mut st, &frame.tenant);
                        drop(st);
                        self.reply_error(
                            frame.id,
                            reply,
                            WireError::deadline("queue"),
                            &self.stats.deadline_shed,
                            "serve/deadline/shed_queue",
                        );
                        return;
                    }
                    let (guard, _) = self.space.wait_timeout(st, d - now).expect("server lock");
                    st = guard;
                }
            }
        }
        if st.draining {
            Self::release_tenant(&mut st, &frame.tenant);
            drop(st);
            self.reply_error(
                frame.id,
                reply,
                WireError::goaway(),
                &self.stats.goaway,
                "serve/goaway",
            );
            return;
        }
        st.jobs.push_back(Job {
            id: frame.id,
            tenant: frame.tenant,
            deadline,
            body: frame.body,
            reply: reply.clone(),
        });
        let depth = st.jobs.len() as u64;
        drop(st);
        Stats::bump_max(&self.stats.max_queue_depth, depth);
        if let Some(session) = &self.session {
            session
                .metrics()
                .gauge_set("serve/queue_depth", depth as f64);
        }
        self.ready.notify_one();
    }

    fn release_tenant(st: &mut QueueState, tenant: &str) {
        if let Some(count) = st.inflight.get_mut(tenant) {
            *count = count.saturating_sub(1);
        }
    }

    /// One worker: drain up to `batch_max` jobs per queue visit,
    /// execute them, stream replies.
    fn worker_loop(&self) {
        loop {
            let batch: Vec<Job> = {
                let mut st = self.state.lock().expect("server lock");
                while st.jobs.is_empty() {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    st = self.ready.wait(st).expect("server lock");
                }
                let n = self.cfg.batch_max.min(st.jobs.len());
                let batch: Vec<Job> = st.jobs.drain(..n).collect();
                st.executing += batch.len();
                self.space.notify_all();
                if st.jobs.len() >= self.cfg.batch_max {
                    // More than a batch left: wake a sibling too.
                    self.ready.notify_one();
                }
                batch
            };
            self.stats.batches.fetch_add(1, Ordering::Relaxed);
            Stats::bump_max(&self.stats.max_batch, batch.len() as u64);
            if let Some(session) = &self.session {
                session
                    .metrics()
                    .observe("serve/batch_size", batch.len() as u64);
            }
            for job in batch {
                self.execute(job);
            }
        }
    }

    fn execute(&self, job: Job) {
        // Shed work whose deadline elapsed while it sat in the queue —
        // the backend never runs for an already-dead request.
        let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
        let body = if expired {
            self.stats.deadline_shed.fetch_add(1, Ordering::Relaxed);
            if let Some(session) = &self.session {
                session
                    .metrics()
                    .counter_add("serve/deadline/shed_queue", 1);
            }
            ResponseBody::Error(WireError::deadline("queue"))
        } else {
            if let (Some(d), Some(session)) = (job.deadline, &self.session) {
                let slack_ms = d.saturating_duration_since(Instant::now()).as_millis();
                session
                    .metrics()
                    .observe("serve/deadline/slack_ms", slack_ms as u64);
            }
            let _span = self
                .session
                .as_ref()
                .map(|s| s.span(&format!("serve/{}", job.body.method())));
            dispatch(self.backend.as_ref(), &job.body)
        };
        {
            let mut st = self.state.lock().expect("server lock");
            Self::release_tenant(&mut st, &job.tenant);
            st.executing = st.executing.saturating_sub(1);
            if st.executing == 0 && st.jobs.is_empty() {
                self.settled.notify_all();
            }
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if body.is_error() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        if self.draining.load(Ordering::Acquire) {
            self.stats.drained.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(session) = &self.session {
            let metrics = session.metrics();
            metrics.counter_add("serve/requests", 1);
            metrics.counter_add(&format!("serve/tenant/{}/requests", job.tenant), 1);
        }
        let _ = job.reply.send(ResponseFrame { id: job.id, body });
    }
}

/// Runs one connection against the server: a detached reader thread
/// feeding the admission queue and a writer thread streaming replies.
fn spawn_connection<R, W>(inner: Arc<Inner>, reader: R, writer: W)
where
    R: TimedRead + Send + 'static,
    W: Write + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<ResponseFrame>();
    let writer_handle = thread::spawn(move || {
        let mut writer = writer;
        // Exits when every sender (reader + in-flight jobs) is gone.
        while let Ok(frame) = rx.recv() {
            let payload = encode_response(&frame);
            if write_frame(&mut writer, &payload).is_err() {
                break;
            }
        }
    });
    thread::spawn(move || {
        let mut reader = reader;
        loop {
            match read_frame_event(&mut reader) {
                Ok(FrameEvent::Frame(payload)) => {
                    let arrival = Instant::now();
                    match decode_request(&payload) {
                        Ok(frame) => {
                            let deadline = frame
                                .deadline_ms
                                .map(|ms| arrival + Duration::from_millis(ms));
                            inner.admit(frame, deadline, &tx);
                        }
                        Err(e) => {
                            // Unparseable payload: the stream may be
                            // desynchronized, so answer once and hang up.
                            let _ = tx.send(protocol_error(WireError::bad_request(format!(
                                "bad request frame: {e}"
                            ))));
                            break;
                        }
                    }
                }
                Ok(FrameEvent::Eof) => break,
                Ok(FrameEvent::Idle) => {
                    // Idle poll: tell a quiet client the server is
                    // going away; otherwise just keep listening.
                    if inner.draining.load(Ordering::Acquire)
                        || inner.shutdown.load(Ordering::Acquire)
                    {
                        let _ = tx.send(protocol_error(WireError::goaway()));
                        break;
                    }
                }
                Err(e) => {
                    // Typed close. Every frame-layer failure — checksum
                    // mismatch, truncation, hostile length prefix, a
                    // mid-frame stall — means no request was parsed, so
                    // the rejection is a retryable transport fault.
                    // (Only an intact, CRC-valid frame with unparseable
                    // contents is the sender's problem, handled above.)
                    let _ = tx.send(protocol_error(WireError::transport(format!(
                        "bad frame: {e}"
                    ))));
                    break;
                }
            }
        }
        drop(tx);
        let _ = writer_handle.join();
    });
}

fn protocol_error(error: WireError) -> ResponseFrame {
    ResponseFrame {
        id: 0,
        body: ResponseBody::Error(error),
    }
}

/// The arbitration daemon: one backend, many tenants, any transport.
pub struct Server {
    inner: Arc<Inner>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    nudges: Mutex<Vec<NudgeTarget>>,
}

impl Server {
    /// Starts a server (worker threads launch immediately) over any
    /// [`Backend`].
    pub fn new<B: Backend + 'static>(backend: B, cfg: ServeConfig) -> Self {
        let session = cfg.obs.session();
        let inner = Arc::new(Inner {
            backend: Box::new(backend),
            cfg,
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            space: Condvar::new(),
            settled: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            session,
            stats: Stats::default(),
        });
        let mut threads = Vec::new();
        for _ in 0..inner.cfg.workers.max(1) {
            let worker = Arc::clone(&inner);
            threads.push(thread::spawn(move || worker.worker_loop()));
        }
        Self {
            inner,
            threads: Mutex::new(threads),
            nudges: Mutex::new(Vec::new()),
        }
    }

    /// Starts a server over the in-process facade backend.
    pub fn in_process(cfg: ServeConfig) -> Self {
        Self::new(InProcessBackend::new(), cfg)
    }

    /// Serves one already-connected transport (any `TimedRead`/`Write`
    /// pair). Returns immediately; the connection runs on its own
    /// threads until the peer hangs up. The caller is responsible for
    /// configuring the read timeout; the listener paths set
    /// [`ServeConfig::read_timeout`] automatically.
    pub fn serve_connection<R, W>(&self, reader: R, writer: W)
    where
        R: TimedRead + Send + 'static,
        W: Write + Send + 'static,
    {
        spawn_connection(Arc::clone(&self.inner), reader, writer);
    }

    /// Opens an in-memory connection: the returned stream is the client
    /// end; the server end runs the identical production loop.
    pub fn connect_in_memory(&self) -> InMemoryStream {
        let (client, server) = duplex();
        let (mut reader, writer) = server.into_split();
        reader
            .set_read_timeout(self.inner.cfg.read_timeout)
            .expect("pipe timeouts are infallible");
        self.serve_connection(reader, writer);
        client
    }

    /// Binds a TCP listener and accepts connections until
    /// [`shutdown`](Self::shutdown). Returns the bound address (bind to
    /// port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the bind/configure error.
    pub fn listen_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::clone(&self.inner);
        let handle = thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Checked *after* accept: shutdown's self-connect
                    // nudge is itself a connection, so a blocked accept
                    // always wakes deterministically.
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Err(e) = configure_tcp(&inner, stream) {
                        eprintln!("rcarb-serve: tcp connection setup failed: {e}");
                    }
                }
                Err(e) => {
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    eprintln!("rcarb-serve: tcp accept failed: {e}");
                    thread::sleep(Duration::from_millis(50));
                }
            }
        });
        self.threads.lock().expect("thread registry").push(handle);
        self.nudges
            .lock()
            .expect("nudge registry")
            .push(NudgeTarget::Tcp(local));
        Ok(local)
    }

    /// Binds a Unix-domain listener at `path` (removing a stale socket
    /// file first) and accepts connections until
    /// [`shutdown`](Self::shutdown).
    ///
    /// # Errors
    ///
    /// Returns the bind/configure error.
    #[cfg(unix)]
    pub fn listen_uds(&self, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let inner = Arc::clone(&self.inner);
        let handle = thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Err(e) = configure_uds(&inner, stream) {
                        eprintln!("rcarb-serve: uds connection setup failed: {e}");
                    }
                }
                Err(e) => {
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    eprintln!("rcarb-serve: uds accept failed: {e}");
                    thread::sleep(Duration::from_millis(50));
                }
            }
        });
        self.threads.lock().expect("thread registry").push(handle);
        self.nudges
            .lock()
            .expect("nudge registry")
            .push(NudgeTarget::Uds(path.to_path_buf()));
        Ok(())
    }

    /// The server's counters so far.
    pub fn stats(&self) -> ServeStats {
        let s = &self.inner.stats;
        ServeStats {
            requests: s.requests.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            quota_rejections: s.quota_rejections.load(Ordering::Relaxed),
            deadline_shed: s.deadline_shed.load(Ordering::Relaxed),
            goaway: s.goaway.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            max_batch: s.max_batch.load(Ordering::Relaxed),
            max_queue_depth: s.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// The observability session, when the config enabled one.
    pub fn session(&self) -> Option<&Obs> {
        self.inner.session.as_ref()
    }

    /// Gracefully drains and stops the server, in bounded time:
    ///
    /// 1. stops admitting — new requests are answered `GoAway`;
    /// 2. waits (up to [`ServeConfig::drain_timeout`]) for every
    ///    admitted request to be answered; on budget exhaustion the
    ///    remaining queue is shed with `GoAway`;
    /// 3. wakes blocked TCP/UDS accept loops with a self-connect nudge
    ///    and joins the worker and listener threads.
    ///
    /// Idempotent; subsequent calls return the same counters.
    pub fn shutdown(&self) -> DrainReport {
        let drain_deadline = Instant::now() + self.inner.cfg.drain_timeout;
        let mut aborted = 0u64;
        {
            let mut st = self.inner.state.lock().expect("server lock");
            st.draining = true;
            self.inner.draining.store(true, Ordering::Release);
            // Blocked admissions must observe the drain flag.
            self.inner.space.notify_all();
            while !(st.jobs.is_empty() && st.executing == 0) {
                let now = Instant::now();
                if now >= drain_deadline {
                    // Budget spent: shed what is still queued. Jobs
                    // already inside `execute` finish on their own.
                    while let Some(job) = st.jobs.pop_front() {
                        Inner::release_tenant(&mut st, &job.tenant);
                        self.inner.stats.goaway.fetch_add(1, Ordering::Relaxed);
                        aborted += 1;
                        let _ = job.reply.send(ResponseFrame {
                            id: job.id,
                            body: ResponseBody::Error(WireError::goaway()),
                        });
                    }
                    break;
                }
                let wait = (drain_deadline - now).min(Duration::from_millis(100));
                let (guard, _) = self
                    .inner
                    .settled
                    .wait_timeout(st, wait)
                    .expect("server lock");
                st = guard;
            }
        }
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.ready.notify_all();
        self.inner.space.notify_all();
        self.nudge_listeners();
        let mut threads = self.threads.lock().expect("thread registry");
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
        let mut report = DrainReport {
            answered: self.inner.stats.drained.load(Ordering::Relaxed),
            goaway: self.inner.stats.goaway.load(Ordering::Relaxed),
            aborted,
        };
        // Executions that were mid-flight during a budget-exhausted
        // drain have finished by now (the workers joined above).
        report.answered = self.inner.stats.drained.load(Ordering::Relaxed);
        report
    }

    /// Wakes every blocked accept loop by connecting to it, then
    /// removes Unix socket files. Connect failures are ignored — the
    /// listener may already have exited.
    fn nudge_listeners(&self) {
        let targets: Vec<NudgeTarget> = self
            .nudges
            .lock()
            .expect("nudge registry")
            .drain(..)
            .collect();
        for target in targets {
            match target {
                NudgeTarget::Tcp(mut addr) => {
                    if addr.ip().is_unspecified() {
                        addr.set_ip(match addr.ip() {
                            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                        });
                    }
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
                }
                #[cfg(unix)]
                NudgeTarget::Uds(path) => {
                    let _ = UnixStream::connect(&path);
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn configure_tcp(inner: &Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    TimedRead::set_read_timeout(&mut reader, inner.cfg.read_timeout)?;
    spawn_connection(Arc::clone(inner), reader, stream);
    Ok(())
}

#[cfg(unix)]
fn configure_uds(inner: &Arc<Inner>, stream: UnixStream) -> io::Result<()> {
    let mut reader = stream.try_clone()?;
    TimedRead::set_read_timeout(&mut reader, inner.cfg.read_timeout)?;
    spawn_connection(Arc::clone(inner), reader, stream);
    Ok(())
}
