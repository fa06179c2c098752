//! The network tier: a thread-per-core TCP server over [`PlanService`].
//!
//! ## Structure
//!
//! One **acceptor** thread accepts connections into a bounded queue
//! (full queue ⇒ the connection gets an `Overloaded` frame and is
//! closed — admission control starts at `accept`). A fixed pool of
//! **connection workers** each own one connection at a time: they read
//! frames, stamp every request with an absolute deadline on arrival,
//! shed requests that are already expired, and offer the rest to a
//! bounded execution queue (full ⇒ `Overloaded`). One **dispatcher**
//! thread drains that queue, coalesces same-size requests waiting
//! behind the one it popped into a single [`BatchExecutor`] dispatch,
//! sheds work whose deadline passed while queued, and posts outcomes to
//! per-request reply slots the workers block on.
//!
//! ## Failure policy
//!
//! * Protocol violations (torn/stalled/oversized frames) close the
//!   offending connection and count in `protocol_errors`; they never
//!   take a worker down.
//! * Execution failures become typed `Error` responses. A *runtime*
//!   fault (watchdog trip, worker panic, non-finite output — see
//!   [`spiral_smp::error::SpiralError::is_runtime_fault`]) additionally flips the server
//!   into **degraded mode**: all subsequent dispatches run the
//!   sequential per-transform plan on the dispatcher thread, trading
//!   parallel speed for availability. The flag is sticky — a pool that
//!   tripped its watchdog is not trusted again within the process.
//! * The dispatcher wraps execution in `catch_unwind`, so even a panic
//!   in the execution stack answers every in-flight request.
//!
//! ## Drain
//!
//! [`Server::shutdown`] stops the acceptor, answers queued-but-unserved
//! connections with `Overloaded`, lets in-flight requests finish,
//! persists wisdom (atomically — see [`crate::wisdom`]), and returns a
//! [`DrainReport`] with the final accounting. Connection workers notice
//! the drain flag within one read-timeout tick, so drain latency is
//! bounded by configuration, not by client behavior.

use crate::cache::PlanService;
use crate::metrics::{self, GaugeReadings, ServeMetrics};
use crate::overload::{BoundedQueue, CounterSnapshot, Push, ServeCounters};
use crate::wire::{self, ReadEvent, Request, Response, StatsKind, WireError, MAX_FRAME_BYTES};
use spiral_smp::topology;
use spiral_smp::trace::{Observer, SpanKind};
use spiral_spl::cplx::Cplx;
use spiral_trace::metrics::MetricsSnapshot;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. `Default` is sized for tests and small hosts;
/// production callers set `workers` to the machine's core count
/// explicitly.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Connection-worker threads (thread-per-core: one blocking
    /// connection each).
    pub workers: usize,
    /// Capacity of the accepted-connection queue.
    pub conn_backlog: usize,
    /// Capacity of the execution queue (requests admitted but not yet
    /// dispatched).
    pub queue_bound: usize,
    /// Per-frame payload ceiling in bytes.
    pub max_frame_bytes: usize,
    /// Socket read timeout: bounds how long a stalled client can hold a
    /// worker, and how long drain takes to be noticed.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Deadline budget applied when a request carries `deadline_ms = 0`.
    pub default_deadline: Duration,
    /// Maximum requests coalesced into one execution dispatch.
    pub max_coalesce: usize,
    /// SLO breach threshold as a fraction of a request's deadline
    /// budget: a request whose end-to-end latency exceeds
    /// `slo_fraction × budget` (or that is shed) marks a breach in the
    /// flight recorder.
    pub slo_fraction: f64,
    /// Where to persist the flight-recorder export on the *first* SLO
    /// breach (`None` = never persist; `SS01 dump` still works).
    pub flight_record_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: topology::processors().max(1),
            conn_backlog: 64,
            queue_bound: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(5),
            default_deadline: Duration::from_secs(1),
            max_coalesce: 8,
            slo_fraction: 1.0,
            flight_record_path: None,
        }
    }
}

/// Terminal outcome of one admitted, queued request.
enum JobOutcome {
    /// Execution succeeded; one output vector per input transform,
    /// concatenated back into the response by the worker.
    Ok(Vec<Cplx>),
    /// The deadline passed while the request was queued.
    Expired,
    /// Execution failed (message goes to the client verbatim).
    Error(String),
}

/// One-shot rendezvous between a connection worker and the dispatcher.
struct ReplySlot {
    done: Mutex<Option<JobOutcome>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> ReplySlot {
        ReplySlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn set(&self, outcome: JobOutcome) {
        *lock(&self.done) = Some(outcome);
        self.cv.notify_all();
    }

    /// Block until the dispatcher posts an outcome, or until `grace_by`
    /// — a hard fallback so a lost dispatcher (which the design rules
    /// out, but robustness code does not trust designs) cannot wedge a
    /// worker forever.
    fn wait(&self, grace_by: Instant) -> JobOutcome {
        let mut done = lock(&self.done);
        loop {
            if let Some(outcome) = done.take() {
                return outcome;
            }
            let now = Instant::now();
            if now >= grace_by {
                return JobOutcome::Error("dispatcher unresponsive".to_string());
            }
            let (g, _) = self
                .cv
                .wait_timeout(done, grace_by - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            done = g;
        }
    }
}

/// One accepted connection waiting for a worker (the enqueue timestamp
/// feeds the conn-queue-wait histogram).
struct ConnItem {
    stream: TcpStream,
    enqueued: Instant,
}

/// One admitted request on its way to the dispatcher.
struct ExecJob {
    n: usize,
    /// One vector per transform in the request's batch.
    inputs: Vec<Vec<Cplx>>,
    deadline: Instant,
    /// When the job entered the execution queue (feeds the
    /// exec-queue-wait histogram).
    enqueued: Instant,
    reply: Arc<ReplySlot>,
}

struct Shared {
    service: Arc<PlanService>,
    cfg: ServerConfig,
    counters: ServeCounters,
    metrics: ServeMetrics,
    conn_q: BoundedQueue<ConnItem>,
    exec_q: BoundedQueue<ExecJob>,
    draining: AtomicBool,
    degraded: AtomicBool,
}

/// Build the live metrics snapshot: counter/gauge views over the
/// accounting surface and queues, plus the recorded histograms.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    shared.metrics.snapshot(
        &shared.counters.snapshot(),
        &GaugeReadings {
            conn_queue_depth: shared.conn_q.depth() as u64,
            exec_queue_depth: shared.exec_q.depth() as u64,
            degraded: shared.degraded.load(Ordering::Relaxed),
        },
    )
}

/// Render the body of an `SS01` stats response.
fn stats_body(shared: &Shared, kind: StatsKind) -> String {
    match kind {
        StatsKind::Json => metrics_snapshot(shared).to_json(),
        StatsKind::Prom => metrics_snapshot(shared).to_prometheus(),
        StatsKind::Dump => shared.metrics.dump(),
    }
}

/// Final accounting returned by [`Server::shutdown`].
#[derive(Debug)]
pub struct DrainReport {
    /// Counter totals at drain completion (conservation must hold).
    pub counters: CounterSnapshot,
    /// High-water mark of the execution queue.
    pub exec_max_depth: u64,
    /// High-water mark of the connection queue.
    pub conn_max_depth: u64,
    /// Whether the server ended in degraded (sequential) mode.
    pub degraded: bool,
    /// Worker/dispatcher/acceptor threads that terminated by panic
    /// (must be zero; the chaos suite asserts it).
    pub thread_panics: usize,
    /// Error from the final wisdom save, if it failed.
    pub wisdom_error: Option<String>,
    /// The final metrics snapshot, taken after every thread joined. Its
    /// counter views read the same atomics as `counters`, so the two
    /// agree exactly — the live-vs-exact invariant the metrics tests
    /// pin.
    pub metrics: MetricsSnapshot,
}

/// A running server; dropping it without [`Server::shutdown`] detaches
/// the threads (tests should always drain).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor / worker / dispatcher threads, and
    /// start serving `service`.
    pub fn start(service: Arc<PlanService>, cfg: ServerConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            conn_q: BoundedQueue::new(cfg.conn_backlog),
            exec_q: BoundedQueue::new(cfg.queue_bound),
            service,
            metrics: ServeMetrics::new(workers),
            cfg,
            counters: ServeCounters::default(),
            draining: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };
        let mut worker_handles = Vec::with_capacity(workers);
        for wid in 0..workers {
            let shared = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("serve-conn-{wid}"))
                .spawn(move || conn_worker(wid, &shared))
                .map_err(|e| format!("cannot spawn worker {wid}: {e}"))?;
            worker_handles.push(h);
        }
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-dispatch".to_string())
                .spawn(move || dispatch_loop(&shared))
                .map_err(|e| format!("cannot spawn dispatcher: {e}"))?
        };

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    pub fn counters(&self) -> CounterSnapshot {
        self.shared.counters.snapshot()
    }

    /// Live metrics snapshot — the same view an `SS01` stats request
    /// gets over the wire.
    pub fn metrics(&self) -> MetricsSnapshot {
        metrics_snapshot(&self.shared)
    }

    /// Flight-recorder export (Perfetto JSON) — the same body an
    /// `SS01 dump` request gets over the wire.
    pub fn flight_dump(&self) -> String {
        self.shared.metrics.dump()
    }

    /// True once a runtime fault has flipped the server to the
    /// sequential (degraded) execution path.
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, turn queued connections away,
    /// finish in-flight requests, persist wisdom, join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        let mut thread_panics = 0;
        if let Some(h) = self.acceptor.take() {
            thread_panics += usize::from(h.join().is_err());
        }
        // No new connections can arrive; flush the queued ones through
        // the workers (they answer Overloaded while draining), then
        // release the workers.
        self.shared.conn_q.close();
        for h in self.workers.drain(..) {
            thread_panics += usize::from(h.join().is_err());
        }
        // Workers are gone, so no new jobs; let the dispatcher finish
        // the backlog and exit.
        self.shared.exec_q.close();
        if let Some(h) = self.dispatcher.take() {
            thread_panics += usize::from(h.join().is_err());
        }
        let wisdom_error = self.shared.service.save_wisdom().err();
        DrainReport {
            counters: self.shared.counters.snapshot(),
            exec_max_depth: self.shared.exec_q.max_depth(),
            conn_max_depth: self.shared.conn_q.max_depth(),
            degraded: self.shared.degraded.load(Ordering::Relaxed),
            thread_panics,
            wisdom_error,
            metrics: metrics_snapshot(&self.shared),
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            // Transient accept errors (EMFILE, aborted handshakes) must
            // not kill the acceptor.
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The shutdown self-connection (or a late client) — either
            // way, stop accepting.
            return;
        }
        let item = ConnItem {
            stream,
            enqueued: Instant::now(),
        };
        match shared.conn_q.push(item) {
            Push::Accepted => {}
            Push::Full(item) | Push::Closed(item) => {
                shared
                    .counters
                    .conns_rejected
                    .fetch_add(1, Ordering::Relaxed);
                reject_connection(item.stream, shared.cfg.read_timeout);
            }
        }
    }
}

/// Tell a turned-away connection it hit admission control, then close.
///
/// Closing with the client's request bytes still unread would send a
/// TCP RST, which can destroy the `Overloaded` frame before the client
/// reads it — the client would see a reset where the protocol promises
/// a typed reject. So after writing the frame the socket lingers on a
/// short detached thread, draining whatever the client sent until EOF
/// or `linger` expires, and only then closes.
fn reject_connection(mut stream: TcpStream, linger: Duration) {
    let frame = wire::encode_response(&Response::Overloaded { id: 0 });
    if wire::write_all(&mut stream, &frame).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = std::thread::Builder::new()
        .name("serve-reject".to_string())
        .spawn(move || {
            use std::io::Read as _;
            let _ = stream.set_read_timeout(Some(linger));
            let deadline = Instant::now() + linger;
            let mut sink = [0u8; 512];
            loop {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => return,
                    Ok(_) if Instant::now() >= deadline => return,
                    Ok(_) => {}
                }
            }
        });
}

fn conn_worker(wid: usize, shared: &Shared) {
    let mut request_seq: u32 = 0;
    while let Some(item) = shared.conn_q.pop() {
        if shared.draining.load(Ordering::SeqCst) {
            shared
                .counters
                .conns_rejected
                .fetch_add(1, Ordering::Relaxed);
            reject_connection(item.stream, shared.cfg.read_timeout);
            continue;
        }
        shared
            .counters
            .conns_accepted
            .fetch_add(1, Ordering::Relaxed);
        shared.metrics.record(
            metrics::CONN_QUEUE_WAIT_SECONDS,
            wid,
            item.enqueued.elapsed(),
        );
        serve_connection(wid, shared, item.stream, &mut request_seq);
    }
}

/// Serve one connection until EOF, drain, or a protocol violation.
fn serve_connection(wid: usize, shared: &Shared, mut stream: TcpStream, request_seq: &mut u32) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let read_start = Instant::now();
        let event = wire::read_request(&mut stream, shared.cfg.max_frame_bytes);
        let request = match event {
            Ok(ReadEvent::Request(r)) => r,
            Ok(ReadEvent::Stats(kind)) => {
                // Stats frames are observers, not requests: they skip
                // admission, deadlines, and the `requests` conservation
                // law entirely.
                let body = stats_body(shared, kind);
                let frame = wire::encode_stats_response(kind, &body);
                if wire::write_all(&mut stream, &frame).is_err() {
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                continue;
            }
            Ok(ReadEvent::Idle) => continue,
            Ok(ReadEvent::Eof) => return,
            Err(WireError::Io(_))
            | Err(WireError::Torn { .. })
            | Err(WireError::Stalled { .. })
            | Err(WireError::BadMagic)
            | Err(WireError::TooLarge { .. })
            | Err(WireError::Malformed(_)) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let arrival = Instant::now();
        if request.n == 0 || request.batch == 0 {
            // Structurally decodable but semantically void; treat as a
            // protocol violation rather than burdening the planner.
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        shared
            .metrics
            .record(metrics::PARSE_SECONDS, wid, arrival - read_start);
        let budget = if request.deadline_ms == 0 {
            shared.cfg.default_deadline
        } else {
            Duration::from_millis(u64::from(request.deadline_ms))
        };
        let seq = *request_seq;
        *request_seq = request_seq.wrapping_add(1);
        let response = handle_request(shared, request, arrival, seq);
        let finished = Instant::now();
        shared
            .metrics
            .record(metrics::REQUEST_SECONDS, wid, finished - arrival);
        observe_outcome(shared, wid, seq, arrival, finished, budget, &response);
        let frame = wire::encode_response(&response);
        if wire::write_all(&mut stream, &frame).is_err() {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Feed the flight recorder: record the request's span in the always-on
/// rings and, when the request was shed or blew `slo_fraction` of its
/// deadline budget, mark an SLO breach on the same lane — persisting
/// the recorder export on the first breach if configured.
fn observe_outcome(
    shared: &Shared,
    wid: usize,
    seq: u32,
    arrival: Instant,
    finished: Instant,
    budget: Duration,
    response: &Response,
) {
    let recorder = shared.metrics.recorder();
    recorder.span(wid, SpanKind::RequestServe, seq, arrival, finished);
    let shed = matches!(
        response,
        Response::Overloaded { .. } | Response::Expired { .. }
    );
    let over_budget = finished - arrival > budget.mul_f64(shared.cfg.slo_fraction.max(0.0));
    if (shed || over_budget) && recorder.breach(wid, seq, finished) {
        if let Some(path) = &shared.cfg.flight_record_path {
            let _ = std::fs::write(path, recorder.dump());
        }
    }
}

/// Admission, shedding, queueing, and the reply wait for one request.
/// Increments `requests` and exactly one terminal counter.
fn handle_request(shared: &Shared, request: Request, arrival: Instant, seq: u32) -> Response {
    let c = &shared.counters;
    c.requests.fetch_add(1, Ordering::Relaxed);
    let id = request.id;

    if shared.draining.load(Ordering::SeqCst) {
        c.overloaded.fetch_add(1, Ordering::Relaxed);
        return Response::Overloaded { id };
    }

    let budget = if request.deadline_ms == 0 {
        shared.cfg.default_deadline
    } else {
        Duration::from_millis(u64::from(request.deadline_ms))
    };
    #[cfg(feature = "faults")]
    let expire_injected =
        spiral_smp::faults::serve_at(spiral_smp::faults::ServeSite::ExpireDeadline, seq as usize);
    #[cfg(not(feature = "faults"))]
    let expire_injected = false;
    let _ = seq;
    let deadline = if expire_injected {
        arrival
    } else {
        arrival + budget
    };

    // Shed already-expired work before it costs anything.
    if Instant::now() >= deadline {
        c.expired.fetch_add(1, Ordering::Relaxed);
        c.shed_expired.fetch_add(1, Ordering::Relaxed);
        return Response::Expired { id };
    }

    let n = usize::try_from(request.n).expect("u32 fits usize");
    let batch = usize::try_from(request.batch).expect("u32 fits usize");
    let inputs: Vec<Vec<Cplx>> = request.data.chunks(n).map(<[Cplx]>::to_vec).collect();
    debug_assert_eq!(inputs.len(), batch);
    let reply = Arc::new(ReplySlot::new());
    let job = ExecJob {
        n,
        inputs,
        deadline,
        enqueued: Instant::now(),
        reply: Arc::clone(&reply),
    };
    match shared.exec_q.push(job) {
        Push::Accepted => {}
        Push::Full(_) | Push::Closed(_) => {
            c.overloaded.fetch_add(1, Ordering::Relaxed);
            return Response::Overloaded { id };
        }
    }
    // Grace: the dispatcher answers every job it pops (catch_unwind),
    // so this fallback only fires if the dispatcher itself is gone.
    let grace_by = deadline + Duration::from_secs(5).max(shared.cfg.default_deadline);
    match reply.wait(grace_by) {
        JobOutcome::Ok(data) => {
            c.ok.fetch_add(1, Ordering::Relaxed);
            Response::Ok { id, data }
        }
        JobOutcome::Expired => {
            c.expired.fetch_add(1, Ordering::Relaxed);
            Response::Expired { id }
        }
        JobOutcome::Error(message) => {
            c.errors.fetch_add(1, Ordering::Relaxed);
            Response::Error { id, message }
        }
    }
}

fn dispatch_loop(shared: &Shared) {
    let mut dispatch_seq: usize = 0;
    let mut dispatch_stage: u32 = 0;
    let lane = shared.metrics.dispatcher_lane();
    while let Some(job) = shared.exec_q.pop() {
        let n = job.n;
        // Coalesce same-size requests already waiting behind this one:
        // they ride the same pool dispatch instead of paying their own.
        let extra = shared
            .exec_q
            .drain_matching(|j| j.n == n, shared.cfg.max_coalesce.saturating_sub(1));
        if !extra.is_empty() {
            shared
                .counters
                .coalesced
                .fetch_add(extra.len() as u64, Ordering::Relaxed);
        }
        let mut group = Vec::with_capacity(1 + extra.len());
        group.push(job);
        group.extend(extra);
        shared
            .metrics
            .record_size(metrics::COALESCE_SIZE, lane, group.len() as u64);
        let popped = Instant::now();
        for j in &group {
            shared.metrics.record(
                metrics::EXEC_QUEUE_WAIT_SECONDS,
                lane,
                popped.saturating_duration_since(j.enqueued),
            );
        }

        // Shed what expired while queued.
        let now = Instant::now();
        let mut live = Vec::with_capacity(group.len());
        for j in group {
            if now >= j.deadline {
                shared.counters.shed_expired.fetch_add(1, Ordering::Relaxed);
                j.reply.set(JobOutcome::Expired);
            } else {
                live.push(j);
            }
        }
        if live.is_empty() {
            continue;
        }

        shared.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "faults")]
        if spiral_smp::faults::serve_at(spiral_smp::faults::ServeSite::BatchWedge, dispatch_seq) {
            // Model the pool watchdog tripping mid-dispatch: flip to the
            // degraded path and serve this group there.
            shared.degraded.store(true, Ordering::Relaxed);
        }
        dispatch_seq = dispatch_seq.wrapping_add(1);

        let exec_start = Instant::now();
        let answered = if shared.degraded.load(Ordering::Relaxed) {
            false
        } else {
            match run_batched(shared, n, &live) {
                BatchedResult::Answered => true,
                BatchedResult::Degrade => {
                    shared.degraded.store(true, Ordering::Relaxed);
                    false // Fall through: serve this group sequentially.
                }
            }
        };
        if !answered {
            shared
                .counters
                .degraded_dispatches
                .fetch_add(1, Ordering::Relaxed);
            run_degraded(shared, n, live);
        }
        let exec_end = Instant::now();
        shared
            .metrics
            .record(metrics::POOL_EXECUTE_SECONDS, lane, exec_end - exec_start);
        shared.metrics.recorder().span(
            lane,
            SpanKind::PoolExecute,
            dispatch_stage,
            exec_start,
            exec_end,
        );
        dispatch_stage = dispatch_stage.wrapping_add(1);
    }
}

enum BatchedResult {
    /// Every job in the group received its outcome.
    Answered,
    /// A runtime fault or panic: the pool is no longer trusted; the
    /// caller must serve the (still unanswered) group degraded.
    Degrade,
}

/// The fast path: one pooled batch dispatch for the whole group.
/// Inputs are cloned (not moved) so a degrade fallback can still serve
/// the same group sequentially.
fn run_batched(shared: &Shared, n: usize, group: &[ExecJob]) -> BatchedResult {
    let all_inputs: Vec<Vec<Cplx>> = group
        .iter()
        .flat_map(|j| j.inputs.iter().cloned())
        .collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.service.serve_batch(n, &all_inputs)
    }));
    match result {
        Ok(Ok(outputs)) => {
            let mut cursor = 0usize;
            for j in group {
                let count = j.inputs.len();
                let flat: Vec<Cplx> = outputs[cursor..cursor + count]
                    .iter()
                    .flat_map(|v| v.iter().copied())
                    .collect();
                cursor += count;
                j.reply.set(JobOutcome::Ok(flat));
            }
            BatchedResult::Answered
        }
        Ok(Err(e)) if e.is_runtime_fault() => BatchedResult::Degrade,
        Ok(Err(e)) => {
            for j in group {
                j.reply.set(JobOutcome::Error(e.to_string()));
            }
            BatchedResult::Answered
        }
        Err(_panic) => BatchedResult::Degrade,
    }
}

/// The degraded path: sequential per-transform execution on the
/// dispatcher thread. Slow, but it depends on nothing but the plan.
fn run_degraded(shared: &Shared, n: usize, group: Vec<ExecJob>) {
    let served = match shared.service.sequential_plan(n) {
        Ok(s) => s,
        Err(e) => {
            for j in &group {
                j.reply.set(JobOutcome::Error(e.to_string()));
            }
            return;
        }
    };
    for j in &group {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut flat = Vec::with_capacity(j.inputs.len() * n);
            for x in &j.inputs {
                flat.extend(served.plan.execute(x));
            }
            flat
        }));
        match result {
            Ok(flat) => j.reply.set(JobOutcome::Ok(flat)),
            Err(_) => j.reply.set(JobOutcome::Error(
                "sequential execution panicked".to_string(),
            )),
        }
    }
}
