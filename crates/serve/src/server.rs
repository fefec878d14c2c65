//! The `nscd` daemon: accept loop, per-connection protocol handling,
//! and the submission-order response stream.
//!
//! Every connection gets a reader (the connection thread itself) and a
//! writer thread joined by an `mpsc` channel of `(sequence, slot)`
//! pairs. `run` requests are fanned out on the **shared** pool — one
//! pool for the whole daemon, so ten clients submitting at once batch
//! across the same `NSC_JOBS` workers instead of oversubscribing the
//! machine. The writer holds responses in a reorder buffer and emits
//! them strictly in submission order, which is what makes `flush` a
//! drain barrier and keeps client-side correlation trivial.
//!
//! # Overload protection
//!
//! The daemon is explicitly overload-safe ([`ServeConfig`]):
//!
//! * **Connection semaphore** — at most `NSC_MAX_CONNS` live
//!   connections; the one-over connection gets a single typed
//!   `overloaded` line and is closed.
//! * **Bounded admission queue** — at most `NSC_QUEUE_CAP` admitted
//!   runs (queued + executing). The claim is a `fetch_add` followed by
//!   a check-and-undo, never a load-then-add, so two racing submits
//!   cannot both sneak past a full queue (the classic TOCTOU admission
//!   bug). Queue credit is returned by a drop guard, so every exit path
//!   from a job — completion, deadline shed, disconnect reap, panic
//!   unwind — gives the slot back.
//! * **Degraded mode** — when the queue is full, a run whose result is
//!   already in the result cache is still answered, inline on the
//!   connection thread; only cache *misses* (real simulations) are
//!   shed, with a `retry_after_ms` hint derived from the backlog and an
//!   EWMA of recent run wall times.
//! * **Deadlines** — `deadline_ms` on the wire (or the
//!   `NSC_DEADLINE_MS` default) is enforced at dequeue: a run whose
//!   budget expired while it waited is shed before simulating, and the
//!   shed is stamped into its span tree as a `deadline_exceeded` span.
//! * **Disconnect reaping** — the writer flips the connection's shared
//!   `alive` flag on the first failed write but keeps draining the
//!   reorder buffer, evaluating every slot (so worker metric shards are
//!   still absorbed in submission order) while discarding the bytes.
//!   Jobs that dequeue after the flag drops skip the simulation
//!   entirely and return their queue credit; dead connections also stop
//!   inserting into the bounded trace store.
//! * **Draining shutdown** — `shutdown` raises the daemon-wide flag
//!   *immediately* (not after the requesting connection unwinds), so
//!   new submits on any connection get a typed `shutting_down` response
//!   while already-admitted runs drain and deliver.
//!
//! `serve.shed`, `serve.deadline_exceeded`, `serve.conns_rejected`,
//! `serve.dedup_replays` and the `serve.queue_depth_hwm` gauge make all
//! of this observable through the `metrics` op.
//!
//! # Idempotent resubmission
//!
//! Completed run responses are kept in a bounded store keyed by
//! `request_id`. A client that lost a response (its connection died
//! after the run was admitted) can resubmit the same `request_id` on a
//! new connection and get the stored response back — marked
//! `"deduped":true`, with the correlation id rewritten — instead of
//! paying for a second simulation. Within one connection a duplicate is
//! still a typed error (it would corrupt trace-store keying).
//!
//! # Chaos under load
//!
//! When `NSC_FAULT_RATE` is set, every run executes under a
//! [`nsc_sim::fault::FaultPlan`] derived from the *request content*
//! (workload/size/mode), not from arrival order — so a resubmitted
//! request replays the identical fault schedule, the plan folds into
//! the result-cache key consistently, and completed results stay
//! bit-identical across retries. This is what the `nsc_load` soak
//! harness leans on.
//!
//! # Request tracing
//!
//! Each `run` carries a [`nsc_sim::span::SpanTrace`] from the moment
//! its line started arriving: `accept` and `parse` close on the
//! connection thread, `queue_wait`/`pool_dispatch`/`cache_probe`/
//! `simulate`/`encode` on the pool worker, and `reorder_hold`/`deliver`
//! inside the response slot, which the writer evaluates at delivery
//! time. That evaluation point is where the tree is sealed — so the
//! `latency` field embedded in the response and the copy kept in the
//! bounded per-daemon trace store (read by the `trace` op) are the
//! *same* tree, not two measurements. When the daemon runs with
//! `NSC_TRACE` armed, each run also records its simulator events into a
//! private ring that lands in the store next to the tree, which is what
//! lets `trace` with `"perfetto":true` render one combined timeline.
//!
//! Request lines are read through a bounded reader: a line longer than
//! [`MAX_LINE_BYTES`] is discarded up to its newline and answered with
//! a typed error, keeping the connection (and its ordering) alive.

use crate::json::Obj;
use crate::{
    error_obj, error_response, execute_spanned, inspect_body, run_response, shed_obj, Request,
    Response,
};
use near_stream::ExecMode;
use nsc_sim::cache;
use nsc_sim::fault::{self, FaultPlan};
use nsc_sim::log;
use nsc_sim::metrics::{self, Gauge, Hist, Metric, Registry};
use nsc_sim::span::{self, SpanTrace, SpanTree};
use nsc_sim::timeline::{self, SloConfig, Timeline};
use nsc_sim::trace::{self, RingRecorder, TraceEvent};
use nsc_sim::pool::ThreadPool;
use nsc_workloads::Size;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Longest accepted request line. Anything longer is discarded up to
/// its newline and answered with a typed error.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How many sealed request traces the daemon retains for the `trace`
/// op (oldest evicted first).
const TRACE_STORE_CAP: usize = 128;

/// How many completed run responses the daemon retains for idempotent
/// resubmission (oldest evicted first).
const COMPLETED_STORE_CAP: usize = 128;

/// Overload-protection knobs for [`serve_with`]. [`serve`] builds one
/// from the environment; tests construct their own so parallel tests in
/// one process never race on env vars.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads on the shared simulation pool.
    pub jobs: usize,
    /// Connection semaphore: live connections beyond this get one typed
    /// `overloaded` line and are closed (`NSC_MAX_CONNS`, default 64).
    pub max_conns: usize,
    /// Bounded admission queue: admitted-but-undelivered runs beyond
    /// this are shed (cache hits excepted) (`NSC_QUEUE_CAP`, default
    /// 128).
    pub queue_cap: usize,
    /// Default per-run deadline in ms applied when a request carries no
    /// `deadline_ms` of its own; 0 disables (`NSC_DEADLINE_MS`,
    /// default 0).
    pub deadline_ms: u64,
    /// Telemetry sampler interval in ms; 0 disables the sampler thread
    /// entirely — no thread is spawned and the timeline stays empty
    /// (`NSC_SAMPLE_MS`, default 1000).
    pub sample_ms: u64,
    /// Timeline ring capacity in frames; oldest frames are evicted
    /// beyond this (`NSC_TIMELINE_CAP`, default 900 — 15 minutes at the
    /// default interval).
    pub timeline_cap: usize,
}

impl ServeConfig {
    /// Reads the overload knobs from the environment.
    pub fn from_env(jobs: usize) -> ServeConfig {
        let num = |key: &str, default: u64| {
            std::env::var(key).ok().and_then(|v| v.trim().parse::<u64>().ok()).unwrap_or(default)
        };
        ServeConfig {
            jobs,
            max_conns: (num("NSC_MAX_CONNS", 64) as usize).max(1),
            queue_cap: (num("NSC_QUEUE_CAP", 128) as usize).max(1),
            deadline_ms: num("NSC_DEADLINE_MS", 0),
            sample_ms: num("NSC_SAMPLE_MS", timeline::DEFAULT_SAMPLE_MS),
            timeline_cap: (num("NSC_TIMELINE_CAP", timeline::DEFAULT_CAP as u64) as usize).max(1),
        }
    }
}

/// One request's sealed observability record.
struct StoredTrace {
    tree: SpanTree,
    events: Vec<TraceEvent>,
}

/// Bounded map of recent request traces, keyed by `request_id`.
struct TraceStore {
    order: VecDeque<u64>,
    map: HashMap<u64, StoredTrace>,
}

impl TraceStore {
    fn new() -> TraceStore {
        TraceStore { order: VecDeque::new(), map: HashMap::new() }
    }

    fn insert(&mut self, t: StoredTrace) {
        let rid = t.tree.request_id;
        if self.map.insert(rid, t).is_none() {
            self.order.push_back(rid);
        }
        while self.order.len() > TRACE_STORE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
    }
}

/// Bounded map of completed run responses, keyed by `request_id`, for
/// idempotent resubmission after a lost response.
struct CompletedStore {
    order: VecDeque<u64>,
    map: HashMap<u64, Obj>,
}

impl CompletedStore {
    fn new() -> CompletedStore {
        CompletedStore { order: VecDeque::new(), map: HashMap::new() }
    }

    fn insert(&mut self, rid: u64, resp: Obj) {
        if self.map.insert(rid, resp).is_none() {
            self.order.push_back(rid);
        }
        while self.order.len() > COMPLETED_STORE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
    }

    fn get(&self, rid: u64) -> Option<&Obj> {
        self.map.get(&rid)
    }
}

/// Daemon-wide shared state.
struct State {
    cfg: ServeConfig,
    pool: ThreadPool,
    served: AtomicU64,
    in_flight: AtomicU64,
    /// Live connections (the accept semaphore's counter).
    conns: AtomicU64,
    /// Admitted runs not yet delivered (the bounded queue's counter).
    queued: AtomicU64,
    /// EWMA of recent run wall times in µs; feeds `retry_after_ms`.
    run_ewma_us: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
    socket: PathBuf,
    traces: Mutex<TraceStore>,
    completed: Mutex<CompletedStore>,
    /// `(capacity, sample_every)` when `NSC_TRACE` arms per-run
    /// simulator event capture; `None` leaves the sim trace layer cold.
    sim_trace: Option<(usize, u64)>,
    /// Base chaos plan (`NSC_FAULT_RATE`); each run derives its own
    /// plan from the request content so replays are bit-identical.
    fault: Option<FaultPlan>,
    rid_seed: u64,
    rid_counter: AtomicU64,
    /// Periodic registry samples appended by the sampler thread; empty
    /// forever when `cfg.sample_ms == 0`.
    timeline: Mutex<Timeline>,
    /// SLO thresholds the `health` op evaluates against the timeline.
    slo: SloConfig,
}

impl State {
    fn new(cfg: ServeConfig, socket: PathBuf, rid_seed: u64) -> State {
        State {
            pool: ThreadPool::new(cfg.jobs),
            cfg,
            served: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            run_ewma_us: AtomicU64::new(0),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            socket,
            traces: Mutex::new(TraceStore::new()),
            completed: Mutex::new(CompletedStore::new()),
            sim_trace: sim_trace_from_env(),
            fault: FaultPlan::from_env(),
            rid_seed,
            rid_counter: AtomicU64::new(0),
            timeline: Mutex::new(Timeline::new(cfg.timeline_cap)),
            slo: SloConfig::from_env(),
        }
    }

    /// Mints a daemon-side request id for runs submitted without one.
    /// SplitMix64 over a per-daemon seed: unique within the daemon,
    /// never 0 (0 means "unset" on the wire).
    fn mint_rid(&self) -> u64 {
        let n = self.rid_counter.fetch_add(1, Ordering::Relaxed);
        let mut z = self.rid_seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z.max(1)
    }

    /// How long a shed client should wait before retrying: the current
    /// backlog per worker times the smoothed run wall time, clamped to
    /// [1ms, 10s].
    fn retry_after_hint(&self) -> u64 {
        let ewma_us = self.run_ewma_us.load(Ordering::Relaxed).max(1_000);
        let workers = (self.pool.workers() as u64).max(1);
        let backlog = self.queued.load(Ordering::Relaxed) / workers + 1;
        (backlog.saturating_mul(ewma_us) / 1_000).clamp(1, 10_000)
    }

    /// Folds a new run wall time into the EWMA (α = 1/8). Racy
    /// read-modify-write is fine: this feeds a backoff *hint*, not an
    /// accounting invariant.
    fn note_run_us(&self, us: u64) {
        let old = self.run_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (old.saturating_mul(7).saturating_add(us)) / 8 };
        self.run_ewma_us.store(new, Ordering::Relaxed);
    }

    /// The fault plan for one run, derived from the request content so
    /// the same request always replays the same schedule (and hashes to
    /// the same result-cache key) no matter when or how often it is
    /// submitted.
    fn plan_for(&self, workload: &str, size: Size, mode: ExecMode) -> Option<FaultPlan> {
        self.fault.as_ref().map(|base| base.for_run(request_digest(workload, size, mode)))
    }
}

/// FNV-1a over the run's identity tuple; seeds the per-run fault plan.
fn request_digest(workload: &str, size: Size, mode: ExecMode) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in workload
        .bytes()
        .chain(crate::size_label(size).bytes())
        .chain(mode.label().bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn sim_trace_from_env() -> Option<(usize, u64)> {
    let armed = std::env::var("NSC_TRACE").map(|v| v != "0" && !v.is_empty()).unwrap_or(false);
    if !armed {
        return None;
    }
    let cap = std::env::var("NSC_TRACE_CAP")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(4096);
    let every = std::env::var("NSC_TRACE_SAMPLE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(64);
    Some((cap.max(1), every.max(1)))
}

/// Binds `socket` and serves until a client sends `shutdown`, with
/// overload knobs read from the environment (see [`ServeConfig`]).
pub fn serve(socket: &Path, jobs: usize) -> io::Result<()> {
    serve_with(socket, ServeConfig::from_env(jobs))
}

/// Binds `socket` and serves until a client sends `shutdown`.
///
/// An existing socket file is removed first (a daemon that died without
/// cleanup would otherwise block the bind forever); it is removed again
/// on the way out.
pub fn serve_with(socket: &Path, cfg: ServeConfig) -> io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    let rid_seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ (std::process::id() as u64) << 32;
    let state = Arc::new(State::new(cfg, socket.to_owned(), rid_seed));
    log::info("nscd", || {
        format!(
            "serving on {} jobs={} cache={} sim_trace={} max_conns={} queue_cap={} deadline_ms={} chaos={} sample_ms={}",
            socket.display(),
            cfg.jobs,
            cache::enabled(),
            state.sim_trace.is_some(),
            cfg.max_conns,
            cfg.queue_cap,
            cfg.deadline_ms,
            state.fault.is_some(),
            cfg.sample_ms,
        )
    });
    // Telemetry sampler: one detached-by-join thread appending a frame
    // to the timeline ring every `sample_ms`. At 0 nothing is spawned —
    // the feature is fully off, not merely idle.
    let sampler = (cfg.sample_ms > 0).then(|| {
        let st = Arc::clone(&state);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let interval = st.cfg.sample_ms;
            // Sleep in short chunks so shutdown is observed promptly
            // even with a long sampling interval.
            let chunk = std::time::Duration::from_millis(interval.clamp(1, 100));
            let mut next = interval;
            while !st.shutdown.load(Ordering::SeqCst) {
                let now = t0.elapsed().as_millis() as u64;
                if now >= next {
                    let reg = metrics::global_snapshot();
                    st.timeline.lock().unwrap_or_else(|e| e.into_inner()).sample(now, &reg);
                    // Re-anchor instead of catching up: a stall produces
                    // one wide window, not a burst of zero-width frames.
                    next = now + interval;
                }
                std::thread::sleep(chunk);
            }
        })
    });
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        // Reap finished connection threads so a long-lived daemon does
        // not accumulate join handles without bound.
        conns.retain(|c| !c.is_finished());
        let st = Arc::clone(&state);
        conns.push(std::thread::spawn(move || handle_conn(&st, stream)));
    }
    for c in conns {
        let _ = c.join();
    }
    if let Some(s) = sampler {
        let _ = s.join();
    }
    let _ = std::fs::remove_file(socket);
    log::info("nscd", || {
        format!("shut down after {} served", state.served.load(Ordering::SeqCst))
    });
    Ok(())
    // `state`'s last Arc drops here; the pool's Drop drains any jobs
    // still queued before the workers exit (dead-connection jobs skip
    // their simulations via the `alive` check).
}

/// A response slot: either a line computed on a worker, or a thunk the
/// writer evaluates at delivery time — *after* every earlier response —
/// so `status` counters and `flush` acknowledgements observe all
/// preceding runs on the connection. A slot that returns an empty
/// string delivers nothing (used by reaped jobs whose client is gone).
type Slot = Box<dyn FnOnce() -> String + Send>;

/// Returns one admission-queue credit when dropped, whatever path the
/// job exits through.
struct QueueCredit(Arc<State>);

impl Drop for QueueCredit {
    fn drop(&mut self) {
        self.0.queued.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements the live-connection count when the connection thread
/// exits (including the over-limit reject path).
struct ConnCredit(Arc<State>);

impl Drop for ConnCredit {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One bounded line read.
enum ReadLine {
    /// A complete line (without its newline).
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; input was discarded up to
    /// (and including) the next newline.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one newline-terminated line with a hard size cap, so a
/// misbehaving client cannot buffer unbounded memory in the daemon. A
/// final unterminated chunk at EOF is returned as a line (it will fail
/// request parsing and get a typed error like any other bad line).
fn read_bounded_line(r: &mut impl BufRead) -> io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                ReadLine::Eof
            } else {
                ReadLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            if buf.len() > MAX_LINE_BYTES {
                return Ok(ReadLine::TooLong);
            }
            return Ok(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
        buf.extend_from_slice(chunk);
        let n = chunk.len();
        r.consume(n);
        if buf.len() > MAX_LINE_BYTES {
            buf.clear();
            skip_to_newline(r)?;
            return Ok(ReadLine::TooLong);
        }
    }
}

/// Discards input up to and including the next newline (or EOF).
fn skip_to_newline(r: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                r.consume(pos + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                r.consume(n);
            }
        }
    }
}

/// Everything one admitted run needs to execute and report, whichever
/// thread it lands on (pool worker, or the connection thread in
/// degraded mode).
struct RunJob {
    id: u64,
    rid: u64,
    workload: String,
    size: Size,
    mode: ExecMode,
    /// Effective deadline (request's own, else the config default); 0
    /// disables.
    deadline_ms: u64,
    /// When the request line started arriving (span-epoch µs) — the
    /// deadline's anchor.
    t0: u64,
    /// When the job was enqueued (span-epoch µs).
    t_enq: u64,
    spans: SpanTrace,
    seq: u64,
    /// Admission-queue credit, returned on drop. `None` on the degraded
    /// inline path (which never claimed a slot).
    credit: Option<QueueCredit>,
}

/// Executes one admitted run and sends its response slot: deadline
/// check, disconnect reap, fault-plan install, the simulation itself,
/// and the delivery-time sealing closure.
fn run_job(
    stc: &Arc<State>,
    alive: &Arc<AtomicBool>,
    tx: &mpsc::Sender<(u64, Slot)>,
    job: RunJob,
) {
    let RunJob { id, rid, workload, size, mode, deadline_ms, t0, t_enq, mut spans, seq, credit } =
        job;
    spans.push("queue_wait", t_enq, span::now_us());

    // Disconnect reap: the writer saw the client die, so simulating
    // would be pure waste. Return the queue credit (via `credit`'s
    // drop) and deliver nothing.
    if !alive.load(Ordering::SeqCst) {
        metrics::count_global(Metric::ServeShed, 1);
        log::debug("serve", || {
            format!("run rid={rid:016x} reaped: client disconnected before dequeue (id={id})")
        });
        drop(credit);
        let _ = tx.send((seq, Box::new(String::new) as Slot));
        return;
    }

    // Deadline check at dequeue: shed before paying for a simulation
    // whose answer nobody is waiting for.
    let waited_ms = span::now_us().saturating_sub(t0) / 1_000;
    if deadline_ms > 0 && waited_ms >= deadline_ms {
        metrics::count_global(Metric::ServeDeadlineExceeded, 1);
        log::warn("serve", || {
            format!(
                "run rid={rid:016x} shed: deadline {deadline_ms}ms expired after {waited_ms}ms queued (id={id})"
            )
        });
        let t = span::now_us();
        spans.push("deadline_exceeded", t, t);
        let resp = shed_obj(
            id,
            rid,
            "deadline_exceeded",
            &format!("deadline {deadline_ms}ms expired after {waited_ms}ms in queue"),
            0,
        );
        drop(credit);
        let stc = Arc::clone(stc);
        let alive = Arc::clone(alive);
        let t_sent = span::now_us();
        let slot = Box::new(move || {
            spans.push("reorder_hold", t_sent, span::now_us());
            let tree = spans.finish();
            let latency = tree.to_json();
            if alive.load(Ordering::SeqCst) {
                stc.traces
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(StoredTrace { tree, events: Vec::new() });
            }
            resp.str("latency", &latency).render()
        }) as Slot;
        let _ = tx.send((seq, slot));
        return;
    }

    let live = stc.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    metrics::gauge_global_max(Gauge::ServeInFlight, live as f64);
    // The run records into a thread-local shard; the shard is merged
    // into the daemon-global registry only at delivery time, inside the
    // per-connection reorder buffer, so merges land in submission
    // order.
    metrics::install(Registry::new());
    if let Some((cap, every)) = stc.sim_trace {
        trace::install(RingRecorder::new(cap), every);
    }
    // Chaos: the per-run plan is a pure function of the request
    // content, so replays (and the result-cache key it folds into) are
    // deterministic.
    let plan = stc.plan_for(&workload, size, mode);
    if let Some(p) = plan.clone() {
        fault::install(p);
    }
    let t_run = Instant::now();
    let outcome = execute_spanned(&workload, size, mode, &mut spans);
    let run_ms = t_run.elapsed().as_secs_f64() * 1e3;
    stc.note_run_us(t_run.elapsed().as_micros() as u64);
    if plan.is_some() {
        let _ = fault::uninstall();
    }
    metrics::count(Metric::ServeRequests);
    metrics::observe(Hist::ServeRunMs, run_ms);
    let mut store_resp = None;
    let resp = match outcome {
        Ok(out) => {
            metrics::count(Metric::ServeRuns);
            if out.cached {
                metrics::count(Metric::ServeRunsCached);
            }
            stc.served.fetch_add(1, Ordering::SeqCst);
            let r = spans.time("encode", || run_response(id, rid, &workload, mode, &out));
            store_resp = Some(());
            r
        }
        Err(e) => {
            metrics::count(Metric::ServeErrors);
            log::warn("serve", || format!("run rid={rid:016x} failed: {e}"));
            error_obj(id, &e).num("request_id", rid)
        }
    };
    let events = if stc.sim_trace.is_some() {
        trace::uninstall().map(|r| r.into_events().0).unwrap_or_default()
    } else {
        Vec::new()
    };
    let shard = metrics::uninstall();
    stc.in_flight.fetch_sub(1, Ordering::SeqCst);
    let t_sent = span::now_us();
    let stc = Arc::clone(stc);
    let alive = Arc::clone(alive);
    let slot = Box::new(move || {
        let t_eval = span::now_us();
        spans.push("reorder_hold", t_sent, t_eval);
        if let Some(shard) = &shard {
            metrics::absorb_global(shard);
        }
        spans.push("deliver", t_eval, span::now_us());
        let tree = spans.finish();
        metrics::observe_global(
            Hist::ServeQueueUs,
            tree.span("queue_wait").map_or(0.0, |s| s.dur_us as f64),
        );
        metrics::observe_global(Hist::ServeTotalUs, tree.wall_us as f64);
        log::info("serve", || {
            format!(
                "served rid={:016x} wall={}µs sim={}µs (id={id})",
                tree.request_id,
                tree.wall_us,
                tree.span("simulate").map_or(0, |s| s.dur_us),
            )
        });
        let latency = tree.to_json();
        let full = resp.str("latency", &latency);
        // Successful responses are kept for idempotent resubmission —
        // even (especially) when the client is already gone: that is
        // exactly the lost-response case a retry needs to dedup
        // against.
        if store_resp.is_some() {
            stc.completed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(rid, full.clone());
        }
        // Dead connections stop feeding the trace store (reap).
        if alive.load(Ordering::SeqCst) {
            stc.traces
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(StoredTrace { tree, events });
        }
        full.render()
    }) as Slot;
    let _ = tx.send((seq, slot));
    drop(credit);
}

/// One connection: read requests, dispatch, keep responses ordered.
fn handle_conn(st: &Arc<State>, mut stream: UnixStream) {
    let live_conns = st.conns.fetch_add(1, Ordering::SeqCst) + 1;
    let _conn_credit = ConnCredit(Arc::clone(st));
    // Connection semaphore: over-limit connections get one typed line
    // and are closed before a reader/writer pair is even set up.
    if live_conns as usize > st.cfg.max_conns {
        metrics::count_global(Metric::ServeConnsRejected, 1);
        log::warn("serve", || {
            format!("connection rejected: {live_conns} live > max_conns {}", st.cfg.max_conns)
        });
        let line = shed_obj(
            0,
            0,
            "overloaded",
            &format!("connection limit {} reached", st.cfg.max_conns),
            st.retry_after_hint(),
        )
        .render();
        let _ = writeln!(stream, "{line}").and_then(|()| stream.flush());
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let (tx, rx) = mpsc::channel::<(u64, Slot)>();
    let alive = Arc::new(AtomicBool::new(true));
    let writer = {
        let alive = Arc::clone(&alive);
        std::thread::spawn(move || write_ordered(stream, &rx, &alive))
    };
    let mut seq = 0u64;
    let mut want_shutdown = false;
    // request_ids already seen on this connection: a duplicate would
    // silently overwrite its predecessor in the trace store, so it is
    // rejected with a typed error instead. (Resubmission of a rid
    // *completed on an earlier connection* is the idempotent-retry
    // path and is answered from the completed store below.)
    let mut seen_rids: HashSet<u64> = HashSet::new();
    log::debug("serve", || "connection opened".to_owned());
    loop {
        // Start the request clock when the line's first byte is
        // available, not before the blocking read: a persistent
        // connection's idle time between requests is the client's, and
        // must count neither toward the request's spans nor against its
        // deadline.
        match reader.fill_buf() {
            Ok(buf) if !buf.is_empty() => {}
            _ => break,
        }
        let t_read0 = span::now_us();
        let line = match read_bounded_line(&mut reader) {
            Ok(ReadLine::Line(line)) => line,
            Ok(ReadLine::TooLong) => {
                log::warn("serve", || {
                    format!("request line over {MAX_LINE_BYTES} bytes discarded")
                });
                metrics::count_global(Metric::ServeErrors, 1);
                let resp =
                    error_response(0, &format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                let _ = tx.send((seq, Box::new(move || resp) as Slot));
                seq += 1;
                continue;
            }
            Ok(ReadLine::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let t_read1 = span::now_us();
        match Request::parse(&line) {
            Ok(Request::Run { id, request_id, workload, size, mode, deadline_ms }) => {
                let rid = if request_id == 0 { st.mint_rid() } else { request_id };
                if !seen_rids.insert(rid) {
                    log::warn("serve", || {
                        format!("duplicate request_id {rid:016x} rejected (id={id})")
                    });
                    metrics::count_global(Metric::ServeErrors, 1);
                    let resp = Response::Error {
                        id,
                        request_id: rid,
                        error: format!("duplicate request_id: {rid:016x}"),
                    }
                    .render();
                    let _ = tx.send((seq, Box::new(move || resp) as Slot));
                    seq += 1;
                    continue;
                }
                // Draining: reject new work immediately and typed, so
                // clients fail over instead of racing the accept loop.
                if st.shutdown.load(Ordering::SeqCst) {
                    metrics::count_global(Metric::ServeShed, 1);
                    log::info("serve", || {
                        format!("run rid={rid:016x} rejected: shutting down (id={id})")
                    });
                    let resp =
                        shed_obj(id, rid, "shutting_down", "daemon is draining for shutdown", 0)
                            .render();
                    let _ = tx.send((seq, Box::new(move || resp) as Slot));
                    seq += 1;
                    continue;
                }
                // Idempotent resubmission: a rid completed earlier (on
                // any connection) replays its stored response instead
                // of re-simulating.
                let replay = st
                    .completed
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get(rid)
                    .cloned();
                if let Some(prev) = replay {
                    metrics::count_global(Metric::ServeDedupReplays, 1);
                    log::info("serve", || {
                        format!("run rid={rid:016x} deduped: replaying stored response (id={id})")
                    });
                    let resp = prev.set_num("id", id).bool("deduped", true).render();
                    let _ = tx.send((seq, Box::new(move || resp) as Slot));
                    seq += 1;
                    continue;
                }
                let mut spans = SpanTrace::begin_at(rid, t_read0);
                spans.push("accept", t_read0, t_read1);
                spans.push("parse", t_read1, span::now_us());
                let effective_deadline =
                    if deadline_ms > 0 { deadline_ms } else { st.cfg.deadline_ms };
                // Bounded admission: claim first (fetch_add), check,
                // undo on failure — a load-then-add would let two racing
                // submits both pass a nearly-full queue.
                let q = st.queued.fetch_add(1, Ordering::SeqCst) + 1;
                if q as usize > st.cfg.queue_cap {
                    st.queued.fetch_sub(1, Ordering::SeqCst);
                    // Degraded mode: saturation only sheds *misses*;
                    // a result already in the cache is replayed inline
                    // on this connection thread, off the admission
                    // queue and off the pool.
                    let plan = st.plan_for(&workload, size, mode);
                    let hit = {
                        if let Some(p) = plan.clone() {
                            fault::install(p);
                        }
                        let hit = crate::cache_would_hit(&workload, size, mode);
                        if plan.is_some() {
                            let _ = fault::uninstall();
                        }
                        hit
                    };
                    if hit {
                        log::info("serve", || {
                            format!(
                                "run rid={rid:016x} degraded: queue full, serving from cache (id={id})"
                            )
                        });
                        let job = RunJob {
                            id,
                            rid,
                            workload,
                            size,
                            mode,
                            deadline_ms: effective_deadline,
                            t0: t_read0,
                            t_enq: span::now_us(),
                            spans,
                            seq,
                            credit: None,
                        };
                        run_job(st, &alive, &tx, job);
                    } else {
                        metrics::count_global(Metric::ServeShed, 1);
                        let hint = st.retry_after_hint();
                        log::warn("serve", || {
                            format!(
                                "run rid={rid:016x} shed: queue full ({q} > {}), retry_after={hint}ms (id={id})",
                                st.cfg.queue_cap
                            )
                        });
                        let resp = shed_obj(
                            id,
                            rid,
                            "overloaded",
                            &format!("admission queue full ({} runs)", st.cfg.queue_cap),
                            hint,
                        )
                        .render();
                        let _ = tx.send((seq, Box::new(move || resp) as Slot));
                    }
                    seq += 1;
                    continue;
                }
                metrics::gauge_global_max(Gauge::ServeQueueDepth, q as f64);
                log::debug("serve", || {
                    format!(
                        "run rid={rid:016x} workload={workload} mode={} queued={q} (id={id})",
                        mode.label()
                    )
                });
                // Simulate on the shared pool; the response re-enters
                // the ordered stream at this request's sequence slot.
                let tx = tx.clone();
                let stc = Arc::clone(st);
                let alive = Arc::clone(&alive);
                let job = RunJob {
                    id,
                    rid,
                    workload,
                    size,
                    mode,
                    deadline_ms: effective_deadline,
                    t0: t_read0,
                    t_enq: span::now_us(),
                    spans,
                    seq,
                    credit: Some(QueueCredit(Arc::clone(st))),
                };
                st.pool.spawn(move || run_job(&stc, &alive, &tx, job));
            }
            Ok(Request::Status { id }) => {
                let stc = Arc::clone(st);
                let slot = Box::new(move || {
                    let (hits, misses) = if cache::enabled() {
                        let s = cache::shared().stats();
                        (s.hits, s.misses)
                    } else {
                        (0, 0)
                    };
                    Response::Status {
                        id,
                        served: stc.served.load(Ordering::SeqCst),
                        cache_hits: hits,
                        cache_misses: misses,
                        jobs: stc.pool.workers() as u64,
                        cache_enabled: cache::enabled(),
                        uptime_ms: stc.started.elapsed().as_millis() as u64,
                        in_flight: stc.in_flight.load(Ordering::SeqCst),
                        queue_depth: stc.queued.load(Ordering::SeqCst),
                        queue_cap: stc.cfg.queue_cap as u64,
                        conns: stc.conns.load(Ordering::SeqCst),
                        max_conns: stc.cfg.max_conns as u64,
                    }
                    .render()
                }) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Metrics { id }) => {
                // Evaluated at delivery time, after every earlier run on
                // this connection has been absorbed into the global
                // registry — so a submit-then-metrics batch always sees
                // its own runs.
                let slot = Box::new(move || {
                    Response::Metrics {
                        id,
                        schema: metrics::SCHEMA.to_owned(),
                        snapshot: metrics::global_snapshot().to_json(),
                    }
                    .render()
                }) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Timeline { id, since }) => {
                let stc = Arc::clone(st);
                // Delivery-time read: the cursor answer reflects every
                // frame sampled up to the moment the response leaves the
                // reorder buffer.
                let slot = Box::new(move || {
                    let tl = stc.timeline.lock().unwrap_or_else(|e| e.into_inner());
                    Response::Timeline {
                        id,
                        count: tl.since(since).count() as u64,
                        latest_seq: tl.latest().map_or(0, |f| f.seq),
                        cap: tl.cap() as u64,
                        sample_ms: stc.cfg.sample_ms,
                        frames: tl.render_since(since),
                    }
                    .render()
                }) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Health { id }) => {
                let stc = Arc::clone(st);
                let slot = Box::new(move || {
                    let tl = stc.timeline.lock().unwrap_or_else(|e| e.into_inner());
                    let report = timeline::evaluate(&stc.slo, &tl);
                    Response::Health {
                        id,
                        verdict: report.verdict.label().to_owned(),
                        frames_seen: report.frames_seen,
                        rules: report.to_ndjson(),
                    }
                    .render()
                }) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Logs { id }) => {
                // Delivery-time drain: records logged by earlier runs on
                // this connection are already in the flight recorder.
                let slot = Box::new(move || {
                    let (recs, dropped) = log::drain();
                    let mut lines = String::new();
                    for r in &recs {
                        lines.push_str(&r.render());
                        lines.push('\n');
                    }
                    Response::Logs { id, count: recs.len() as u64, dropped, lines }.render()
                }) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Trace { id, request_id, perfetto }) => {
                let stc = Arc::clone(st);
                // Delivery-time lookup: a submit earlier in this batch
                // has sealed and stored its tree by the time this slot
                // is evaluated, so submit-then-trace always works.
                let slot = Box::new(move || {
                    let store = stc.traces.lock().unwrap_or_else(|e| e.into_inner());
                    match store.map.get(&request_id) {
                        Some(t) => Response::Trace {
                            id,
                            request_id,
                            wall_us: t.tree.wall_us,
                            spans: t.tree.spans.len() as u64,
                            sim_events: t.events.len() as u64,
                            tree: t.tree.to_json(),
                            perfetto: perfetto.then(|| {
                                trace::chrome::render_with_spans(t.events.iter(), &t.tree)
                            }),
                        }
                        .render(),
                        None => Response::Error {
                            id,
                            request_id,
                            error: format!("unknown request_id: {request_id:016x}"),
                        }
                        .render(),
                    }
                }) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Inspect { id, key }) => {
                // Delivery-time snapshot: earlier runs on this connection
                // have already stored their records, so a
                // submit-then-inspect batch sees its own hits and stores.
                let slot = Box::new(move || {
                    match inspect_body(cache::shared(), key.as_deref()) {
                        Ok(body) => Response::Inspect { id, body }.render(),
                        Err(msg) => {
                            metrics::count_global(Metric::ServeErrors, 1);
                            Response::Error { id, request_id: 0, error: msg }.render()
                        }
                    }
                }) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Flush { id }) => {
                // Ordered delivery IS the barrier: this slot leaves the
                // reorder buffer only after every earlier response.
                let slot =
                    Box::new(move || Response::Flush { id, flushed: seq }.render()) as Slot;
                let _ = tx.send((seq, slot));
            }
            Ok(Request::Shutdown { id }) => {
                log::info("serve", || format!("shutdown requested (id={id})"));
                // Raise the flag NOW: every connection's next submit is
                // rejected with `shutting_down` while admitted runs
                // drain through the ordered streams. (Racing accepts
                // against the drain was the old, buggy behavior.)
                st.shutdown.store(true, Ordering::SeqCst);
                let slot = Box::new(move || Response::Shutdown { id }.render()) as Slot;
                let _ = tx.send((seq, slot));
                want_shutdown = true;
                break;
            }
            Err((id, msg)) => {
                log::warn("serve", || format!("bad request line (id={id}): {msg}"));
                metrics::count_global(Metric::ServeErrors, 1);
                let resp = error_response(id, &msg);
                let _ = tx.send((seq, Box::new(move || resp) as Slot));
            }
        }
        seq += 1;
    }
    // In-flight pool jobs hold `tx` clones; the writer exits once they
    // have all reported and this original handle drops.
    drop(tx);
    let _ = writer.join();
    log::debug("serve", || format!("connection closed after {seq} requests"));
    if want_shutdown {
        // Wake the accept loop so it observes the (already-set) flag.
        let _ = UnixStream::connect(&st.socket);
    }
}

/// Drains `(sequence, slot)` pairs, evaluating and writing each slot in
/// sequence order.
///
/// On the first failed write the connection's `alive` flag drops —
/// that is the daemon's disconnect signal — but the drain continues:
/// every remaining slot is still *evaluated* in order (worker metric
/// shards must be absorbed exactly once, in submission order) and its
/// bytes discarded. Queued jobs observe the dropped flag at dequeue and
/// skip their simulations.
fn write_ordered(mut out: UnixStream, rx: &mpsc::Receiver<(u64, Slot)>, alive: &AtomicBool) {
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, Slot> = BTreeMap::new();
    for (seq, slot) in rx {
        pending.insert(seq, slot);
        while let Some(slot) = pending.remove(&next) {
            let line = slot();
            if alive.load(Ordering::SeqCst)
                && !line.is_empty()
                && writeln!(out, "{line}").and_then(|()| out.flush()).is_err()
            {
                alive.store(false, Ordering::SeqCst);
            }
            next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state() -> State {
        let cfg = ServeConfig {
            jobs: 1,
            max_conns: 4,
            queue_cap: 4,
            deadline_ms: 0,
            sample_ms: 0,
            timeline_cap: 16,
        };
        State::new(cfg, PathBuf::new(), 42)
    }

    #[test]
    fn bounded_reader_caps_and_recovers() {
        let long = "x".repeat(MAX_LINE_BYTES + 10);
        let input = format!("short\n{long}\nafter\ntail-no-newline");
        let mut r = BufReader::new(input.as_bytes());
        assert!(matches!(read_bounded_line(&mut r), Ok(ReadLine::Line(l)) if l == "short"));
        assert!(matches!(read_bounded_line(&mut r), Ok(ReadLine::TooLong)));
        assert!(matches!(read_bounded_line(&mut r), Ok(ReadLine::Line(l)) if l == "after"));
        assert!(
            matches!(read_bounded_line(&mut r), Ok(ReadLine::Line(l)) if l == "tail-no-newline")
        );
        assert!(matches!(read_bounded_line(&mut r), Ok(ReadLine::Eof)));
    }

    #[test]
    fn trace_store_evicts_oldest() {
        let mut s = TraceStore::new();
        for rid in 1..=(TRACE_STORE_CAP as u64 + 5) {
            let tree = SpanTrace::begin_at(rid, 0).finish();
            s.insert(StoredTrace { tree, events: Vec::new() });
        }
        assert_eq!(s.map.len(), TRACE_STORE_CAP);
        assert!(!s.map.contains_key(&1), "oldest entries must be evicted");
        assert!(s.map.contains_key(&(TRACE_STORE_CAP as u64 + 5)));
        // Re-inserting an existing rid must not grow the order queue.
        let tree = SpanTrace::begin_at(9, 0).finish();
        s.insert(StoredTrace { tree, events: Vec::new() });
        assert_eq!(s.order.len(), s.map.len());
    }

    #[test]
    fn completed_store_evicts_oldest() {
        let mut s = CompletedStore::new();
        for rid in 1..=(COMPLETED_STORE_CAP as u64 + 7) {
            s.insert(rid, Obj::new().num("request_id", rid));
        }
        assert_eq!(s.map.len(), COMPLETED_STORE_CAP);
        assert!(s.get(1).is_none(), "oldest entries must be evicted");
        assert!(s.get(COMPLETED_STORE_CAP as u64 + 7).is_some());
        // Re-inserting an existing rid must not grow the order queue.
        s.insert(20, Obj::new().num("request_id", 20));
        assert_eq!(s.order.len(), s.map.len());
    }

    #[test]
    fn minted_rids_are_unique_and_nonzero() {
        let st = test_state();
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let rid = st.mint_rid();
            assert_ne!(rid, 0);
            assert!(seen.insert(rid), "minted rid repeated");
        }
    }

    #[test]
    fn retry_hint_tracks_backlog_and_run_time() {
        let st = test_state();
        // Fresh daemon: minimal but non-zero hint.
        assert!(st.retry_after_hint() >= 1);
        st.note_run_us(8_000); // 8ms runs
        let quiet = st.retry_after_hint();
        st.queued.store(10, Ordering::SeqCst);
        let backed_up = st.retry_after_hint();
        assert!(
            backed_up > quiet,
            "a deeper backlog must raise the hint ({backed_up} vs {quiet})"
        );
        assert!(st.retry_after_hint() <= 10_000, "hint is clamped");
    }

    #[test]
    fn ewma_smooths_run_times() {
        let st = test_state();
        st.note_run_us(1_000);
        assert_eq!(st.run_ewma_us.load(Ordering::Relaxed), 1_000);
        st.note_run_us(9_000);
        let ewma = st.run_ewma_us.load(Ordering::Relaxed);
        assert!(ewma > 1_000 && ewma < 9_000, "ewma must sit between samples, got {ewma}");
    }

    #[test]
    fn request_digest_is_content_addressed() {
        let a = request_digest("histogram", Size::Tiny, ExecMode::Ns);
        let b = request_digest("histogram", Size::Tiny, ExecMode::Ns);
        assert_eq!(a, b, "same request content, same digest");
        assert_ne!(a, request_digest("bin_tree", Size::Tiny, ExecMode::Ns));
        assert_ne!(a, request_digest("histogram", Size::Small, ExecMode::Ns));
        assert_ne!(a, request_digest("histogram", Size::Tiny, ExecMode::Base));
    }

    #[test]
    fn config_from_env_defaults_are_sane() {
        // Only assert defaults when the env is clean (CI may arm them).
        if std::env::var_os("NSC_MAX_CONNS").is_none()
            && std::env::var_os("NSC_QUEUE_CAP").is_none()
            && std::env::var_os("NSC_DEADLINE_MS").is_none()
        {
            let cfg = ServeConfig::from_env(3);
            assert_eq!(cfg.jobs, 3);
            assert_eq!(cfg.max_conns, 64);
            assert_eq!(cfg.queue_cap, 128);
            assert_eq!(cfg.deadline_ms, 0);
        }
    }
}
