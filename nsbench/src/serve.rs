//! `serve_warm` and `serve_cold`: a live `nscd` driven over its socket.
//!
//! Each run spawns a private daemon (`--jobs 2`) on a fresh socket and
//! cache directory under `.bench_tmp/`, waits for a live `status` round
//! trip, and offers it an open-loop Poisson load over the 112 tiny keys
//! (14 workloads × 8 execution modes) from one thread over at most
//! `nproc` connections. Every request is timed from its *due* time, so a
//! stalled generator or daemon shows up in the latency, and the
//! generator's own lateness is reported as `loadgen.lag_p99_ms`. Every
//! response blob is compared bit for bit with an in-process
//! `nsc_serve::execute` reference computed (cache disarmed) before the
//! daemon starts.
//!
//! * `serve_warm`: the cache is warmed by one pass over all 112 keys
//!   (part of set-up), then a fixed 50 req/s Zipfian phase, then a
//!   doubling rate ladder (refined by bisection) that finds `max_rps`.
//! * `serve_cold`: the cache starts empty. Each key is touched for the
//!   first time at an evenly spread, seeded position of a 50 req/s
//!   stream; every other request repeats, Zipfian, a key first touched
//!   at least a second earlier.

use crate::stats::{median, num, Samples};
use crate::{Args, Fingerprint, Metrics, Report};
use near_stream::request;
use near_stream::ExecMode;
use nsc_bench::{Sweep, SweepTask};
use nsc_serve::{Request, Response};
use nsc_sim::fault::FaultStats;
use nsc_sim::json::{self, Json};
use nsc_sim::rng::Rng;
use nsc_workloads::Size;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon worker threads, and reference-computation workers.
const JOBS: usize = 2;
/// Daemon spawns per run; `setup_s` takes their median.
const SETUPS: usize = 5;
/// Offered rate of the fixed phase, req/s.
const RATE: f64 = 50.0;
/// Zipf exponent of the key popularity.
const ZIPF_THETA: f64 = 0.9;
/// The daemon's default `NSC_SLO_P99_US`, as the ladder's latency limit.
const SLO_P99_MS: f64 = 50.0;
/// A ladder step passes only with at most this share failed ...
const LADDER_MAX_FAIL: f64 = 0.01;
/// ... at least this share of sent requests completed ...
const LADDER_MIN_DONE: f64 = 0.95;
/// ... and the generator no later than this at p99, ms.
const LADDER_MAX_LAG_MS: f64 = 10.0;
const LADDER_START: f64 = 25.0;
const LADDER_CAP: f64 = 3200.0;
const LADDER_STEP: Duration = Duration::from_secs(2);
/// Bisection steps between the last passing and first failing rate.
const LADDER_REFINE: usize = 1;
/// How long a phase waits for responses after its last due time.
const DRAIN: Duration = Duration::from_secs(10);
const LADDER_DRAIN: Duration = Duration::from_secs(2);
/// `serve_cold` repeats only keys first touched this long ago.
const REPEAT_AFTER_US: u64 = 1_000_000;
/// Give up on a daemon that is not answering `status` after this.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Warm,
    Cold,
}

#[derive(Clone)]
struct Key {
    workload: &'static str,
    mode: ExecMode,
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Planned {
    due_us: u64,
    key: usize,
    first_touch: bool,
}

/// What became of one scheduled request.
struct Done {
    plan: Planned,
    id: u64,
    sent_us: Option<u64>,
    recv_us: Option<u64>,
    line: Option<String>,
}

/// A private `nscd`: its own socket and cache directory; killed and
/// cleaned up on drop, whatever path the benchmark leaves by.
struct Daemon {
    child: Child,
    dir: PathBuf,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns a daemon and waits for a live `status` round trip,
    /// returning it with the time that took.
    fn start(nscd: &Path, tag: &str) -> Result<(Daemon, Duration), String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("cache"))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let cache_dir = std::fs::canonicalize(dir.join("cache")).map_err(|e| e.to_string())?;
        let log = std::fs::File::create(dir.join("nscd.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(
            std::fs::canonicalize(nscd).map_err(|e| format!("{}: {e}", nscd.display()))?,
        );
        // The socket is named relative to the daemon's working directory,
        // which keeps it under the Unix socket path limit.
        cmd.args(["--socket", "nscd.sock", "--jobs", &JOBS.to_string()])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("NSC") {
                cmd.env_remove(k);
            }
        }
        cmd.env("NSC_CACHE_DIR", &cache_dir);
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", nscd.display()))?;
        let d = Daemon {
            child,
            sock: dir.join("nscd.sock"),
            dir,
        };
        loop {
            if let Ok(Response::Status { .. }) = d.control(&Request::Status { id: 1 }) {
                return Ok((d, t0.elapsed()));
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err(format!(
                    "nscd did not answer status within {READY_TIMEOUT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One request on a fresh connection, one response back.
    fn control(&self, req: &Request) -> Result<Response, String> {
        let mut s = UnixStream::connect(&self.sock).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        writeln!(s, "{}", req.render()).map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(s)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Response::parse(line.trim_end()).ok_or_else(|| format!("unparseable response {line:?}"))
    }

    /// The daemon's metrics-registry counters.
    fn counters(&self) -> Result<Json, String> {
        match self.control(&Request::Metrics { id: 1 })? {
            Response::Metrics { snapshot, .. } => {
                let doc = json::parse(&snapshot)?;
                doc.get("counters")
                    .cloned()
                    .ok_or_else(|| "snapshot without counters".to_owned())
            }
            other => Err(format!("unexpected metrics reply {other:?}")),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::vm_hwm_mb(self.child.id())
    }

    /// Graceful shutdown; the drop that follows kills a daemon that
    /// did not exit in time.
    fn stop(mut self) {
        let _ = self.control(&Request::Shutdown { id: 1 });
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
        let parent = Path::new(".bench_tmp");
        let _ = std::fs::remove_dir(parent);
    }
}

/// Counter deltas of a phase.
fn delta(before: &Json, after: &Json, name: &str) -> f64 {
    let get = |j: &Json| j.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    get(after) - get(before)
}

struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cum = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_THETA);
                total
            })
            .collect();
        Zipf { cum }
    }

    /// A rank in `0..n` (`n` at most the table size).
    fn sample(&self, rng: &mut Rng, n: usize) -> usize {
        let x = rng.gen_f64() * self.cum[n - 1];
        self.cum[..n].partition_point(|&c| c < x).min(n - 1)
    }
}

fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range_usize(i + 1));
    }
    v
}

/// Arrival times of a Poisson process at `rate` over `secs`, in µs
/// from phase start, conditioned on its expected count: exactly
/// `rate × secs` arrivals, placed uniformly at random and sorted. The
/// count is then the same for every seed; the gaps stay exponential.
fn arrivals(rng: &mut Rng, rate: f64, secs: f64) -> Vec<u64> {
    let n = (rate * secs).round() as usize;
    let mut out: Vec<u64> = (0..n)
        .map(|_| (rng.gen_f64() * secs * 1e6) as u64)
        .collect();
    out.sort_unstable();
    out
}

/// Zipfian traffic over every key (the warm mix).
fn zipf_plan(rng: &mut Rng, nkeys: usize, rate: f64, secs: f64) -> Vec<Planned> {
    let popularity = shuffled(nkeys, rng);
    let zipf = Zipf::new(nkeys);
    arrivals(rng, rate, secs)
        .into_iter()
        .map(|due_us| Planned {
            due_us,
            key: popularity[zipf.sample(rng, nkeys)],
            first_touch: false,
        })
        .collect()
}

/// First touches at evenly spread, seeded positions; Zipfian repeats of
/// keys first touched at least [`REPEAT_AFTER_US`] earlier. Arrivals
/// with no such key yet are not sent.
fn cold_plan(rng: &mut Rng, nkeys: usize, rate: f64, secs: f64) -> Vec<Planned> {
    let due = arrivals(rng, rate, secs);
    let touches = nkeys.min(due.len());
    let slot = due.len() as f64 / touches.max(1) as f64;
    let mut first_at: Vec<usize> = (0..touches)
        .map(|k| ((k as f64 + rng.gen_f64()) * slot) as usize)
        .collect();
    first_at.dedup();
    let order = shuffled(nkeys, rng);
    let zipf = Zipf::new(nkeys);
    let mut touched: Vec<(u64, usize)> = Vec::new();
    let mut next = 0;
    let mut plan = Vec::new();
    for (i, &due_us) in due.iter().enumerate() {
        if next < first_at.len() && first_at[next] == i {
            plan.push(Planned {
                due_us,
                key: order[next],
                first_touch: true,
            });
            touched.push((due_us, order[next]));
            next += 1;
            continue;
        }
        let eligible = touched.partition_point(|&(t, _)| t + REPEAT_AFTER_US <= due_us);
        if eligible > 0 {
            let key = touched[zipf.sample(rng, eligible)].1;
            plan.push(Planned {
                due_us,
                key,
                first_touch: false,
            });
        }
    }
    plan
}

/// Drives one phase from a single thread: `plan` is split round-robin
/// over `conns` connections; each request is written at its due time
/// and responses are read whenever a socket is readable in between.
/// Responses arrive in submission order per connection, which is how
/// they are matched to requests.
fn drive(
    d: &Daemon,
    keys: &[Key],
    plan: &[Planned],
    conns: usize,
    drain: Duration,
    next_rid: &mut u64,
) -> Vec<Done> {
    let mut done: Vec<Done> = Vec::with_capacity(plan.len());
    let mut lines: Vec<String> = Vec::with_capacity(plan.len());
    for (i, p) in plan.iter().enumerate() {
        let id = i as u64 + 1;
        let mut line = Request::Run {
            id,
            request_id: *next_rid,
            workload: keys[p.key].workload.to_owned(),
            size: Size::Tiny,
            mode: keys[p.key].mode,
            deadline_ms: 0,
        }
        .render();
        line.push('\n');
        *next_rid += 1;
        lines.push(line);
        done.push(Done {
            plan: *p,
            id,
            sent_us: None,
            recv_us: None,
            line: None,
        });
    }
    let Some(last_due) = plan.last().map(|p| p.due_us) else {
        return done;
    };
    let mut streams = Vec::new();
    for _ in 0..conns {
        match UnixStream::connect(&d.sock) {
            Ok(s) => {
                let _ = s.set_write_timeout(Some(Duration::from_secs(5)));
                streams.push(s);
            }
            Err(_) => return done,
        }
    }
    let mut fds: Vec<poll::PollFd> = streams.iter().map(poll::PollFd::readable).collect();
    let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns];
    let mut chunk = vec![0u8; 1 << 16];
    let start = Instant::now();
    let now_us = || start.elapsed().as_micros() as u64;
    let give_up = last_due + drain.as_micros() as u64;
    let (mut next_send, mut received) = (0, 0);
    while received < done.len() {
        let now = now_us();
        if next_send < done.len() && done[next_send].plan.due_us <= now {
            let c = next_send % conns;
            if fds[c].is_open() && streams[c].write_all(lines[next_send].as_bytes()).is_ok() {
                done[next_send].sent_us = Some(now);
                pending[c].push_back(next_send);
            }
            next_send += 1;
            continue;
        }
        if next_send == done.len() && (now >= give_up || pending.iter().all(VecDeque::is_empty)) {
            break;
        }
        let until = if next_send < done.len() {
            done[next_send].plan.due_us
        } else {
            give_up
        };
        if poll::wait(&mut fds, Duration::from_micros(until.saturating_sub(now))).is_err() {
            break;
        }
        for c in 0..conns {
            if !fds[c].ready() {
                continue;
            }
            match streams[c].read(&mut chunk) {
                Ok(0) | Err(_) => fds[c].close(),
                Ok(n) => {
                    let t = now_us();
                    bufs[c].extend_from_slice(&chunk[..n]);
                    while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                        let raw: Vec<u8> = bufs[c].drain(..=pos).collect();
                        if let Some(i) = pending[c].pop_front() {
                            done[i].recv_us = Some(t);
                            done[i].line = Some(String::from_utf8_lossy(&raw[..pos]).into_owned());
                            received += 1;
                        }
                    }
                }
            }
        }
    }
    done
}

/// A readiness wait with a sub-millisecond timeout. Socket read
/// timeouts are rounded to the kernel tick (4 ms at HZ=250), which
/// would make an open-loop generator send late; `ppoll` takes its
/// timeout on a high-resolution timer.
mod poll {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    const POLLIN: c_short = 0x1;
    const POLLERR: c_short = 0x8;
    const POLLHUP: c_short = 0x10;

    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    impl PollFd {
        pub fn readable(s: &impl AsRawFd) -> PollFd {
            PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }
        }

        pub fn ready(&self) -> bool {
            self.fd >= 0 && self.revents & (POLLIN | POLLERR | POLLHUP) != 0
        }

        pub fn is_open(&self) -> bool {
            self.fd >= 0
        }

        /// Stops polling this descriptor (`ppoll` skips negative fds).
        pub fn close(&mut self) {
            self.fd = -1;
        }
    }

    /// Waits until a descriptor in `fds` is readable, or `timeout`.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `fds.len()`
        // `struct pollfd`-layout records that outlives the call, `ts` is
        // a valid `struct timespec`, and a null mask leaves the signal
        // mask unchanged. The descriptors belong to sockets the caller
        // keeps open for the duration of the call.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// A phase's responses, checked and measured.
#[derive(Default)]
struct Tally {
    sent: usize,
    completed: usize,
    ok: usize,
    /// Errors, sheds, lost requests and blob mismatches.
    failed: usize,
    mismatched: usize,
    lat_ms: Samples,
    hit_ms: Samples,
    miss_ms: Samples,
    lag_ms: Samples,
    /// Server span durations (µs) by name, when traced.
    spans: Vec<(String, Samples)>,
    wire_us: Samples,
    traced: usize,
    /// Host time and simulated statistics of the runs that were not
    /// cache hits.
    sim_us: f64,
    sim: Fingerprint,
    last_recv_us: u64,
    late_repeats: usize,
}

impl Tally {
    fn span(&mut self, name: &str) -> &mut Samples {
        let i = match self.spans.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.spans.push((name.to_owned(), Samples::new()));
                self.spans.len() - 1
            }
        };
        &mut self.spans[i].1
    }

    fn span_pct(&mut self, name: &str, p: f64) -> f64 {
        self.span(name).pct(p)
    }

    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.sent.max(1) as f64
    }

    fn runs_per_s(&self) -> f64 {
        self.ok as f64 / (self.last_recv_us.max(1) as f64 / 1e6)
    }
}

fn check(results: &[Done], refs: &[String], traced: bool) -> Tally {
    let mut t = Tally {
        sent: results.len(),
        ..Tally::default()
    };
    for r in results {
        let (Some(line), Some(recv), Some(sent)) = (&r.line, r.recv_us, r.sent_us) else {
            t.failed += 1;
            continue;
        };
        t.completed += 1;
        t.last_recv_us = t.last_recv_us.max(recv);
        t.lag_ms
            .push(sent.saturating_sub(r.plan.due_us) as f64 / 1e3);
        let Some(Response::Run {
            id,
            cached,
            blob,
            latency,
            ..
        }) = Response::parse(line)
        else {
            t.failed += 1;
            continue;
        };
        if id != r.id || blob != refs[r.plan.key] {
            t.failed += 1;
            t.mismatched += 1;
            continue;
        }
        t.ok += 1;
        let ms = recv.saturating_sub(r.plan.due_us) as f64 / 1e3;
        t.lat_ms.push(ms);
        if cached {
            t.hit_ms.push(ms);
        } else if r.plan.first_touch {
            t.miss_ms.push(ms);
        } else {
            t.late_repeats += 1;
        }
        if !traced {
            continue;
        }
        let Some(tree) = latency.as_deref().and_then(|l| json::parse(l).ok()) else {
            continue;
        };
        t.traced += 1;
        let mut inside_us = 0.0;
        let mut sim_us = 0.0;
        for s in tree.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            let (Some(name), Some(dur)) = (
                s.get("name").and_then(Json::as_str),
                s.get("dur_us").and_then(Json::as_f64),
            ) else {
                continue;
            };
            // `accept` opens when the connection starts waiting for the
            // next line, so on a persistent connection it holds the
            // client's idle time, not daemon work.
            if name == "accept" {
                continue;
            }
            inside_us += dur;
            if name == "simulate" {
                sim_us = dur;
            }
            t.span(name).push(dur);
        }
        t.wire_us.push((recv - sent) as f64 - inside_us);
        if !cached {
            if let Some(run) = request::decode(&blob) {
                t.sim_us += sim_us;
                t.sim.add(&Fingerprint::of(&run.result));
            }
        }
    }
    t
}

/// One rate-ladder step.
struct Step {
    rate: f64,
    pass: bool,
    p99_ms: f64,
    fail: f64,
    done: f64,
    lag_p99_ms: f64,
    mismatched: usize,
}

fn ladder_step(
    d: &Daemon,
    keys: &[Key],
    refs: &[String],
    rng: &mut Rng,
    rate: f64,
    conns: usize,
    rid: &mut u64,
) -> Step {
    let plan = zipf_plan(rng, keys.len(), rate, LADDER_STEP.as_secs_f64());
    let mut t = check(
        &drive(d, keys, &plan, conns, LADDER_DRAIN, rid),
        refs,
        false,
    );
    // A failed request misses any latency limit.
    for _ in 0..t.failed {
        t.lat_ms.push(f64::INFINITY);
    }
    let p99_ms = t.lat_ms.pct(99.0);
    let fail = t.fail_ratio();
    let done = t.completed as f64 / t.sent.max(1) as f64;
    let lag_p99_ms = t.lag_ms.pct(99.0);
    Step {
        rate,
        pass: p99_ms <= SLO_P99_MS
            && fail <= LADDER_MAX_FAIL
            && done >= LADDER_MIN_DONE
            && lag_p99_ms <= LADDER_MAX_LAG_MS,
        p99_ms,
        fail,
        done,
        lag_p99_ms,
        mismatched: t.mismatched,
    }
}

/// Doubles the rate until a step fails, then bisects (geometrically)
/// between the last pass and the first failure.
fn ladder(
    d: &Daemon,
    keys: &[Key],
    refs: &[String],
    rng: &mut Rng,
    conns: usize,
    rid: &mut u64,
) -> (f64, Vec<Step>) {
    let mut steps = Vec::new();
    let (mut lo, mut hi) = (0.0, None);
    let mut rate = LADDER_START;
    while rate <= LADDER_CAP {
        let s = ladder_step(d, keys, refs, rng, rate, conns, rid);
        let pass = s.pass;
        steps.push(s);
        if !pass {
            hi = Some(rate);
            break;
        }
        lo = rate;
        rate *= 2.0;
    }
    if let (Some(mut hi), true) = (hi, lo > 0.0) {
        for _ in 0..LADDER_REFINE {
            let mid = (lo * hi).sqrt();
            let s = ladder_step(d, keys, refs, rng, mid, conns, rid);
            if s.pass {
                lo = mid;
            } else {
                hi = mid;
            }
            steps.push(s);
        }
    }
    (lo, steps)
}

fn steps_json(steps: &[Step]) -> String {
    let items: Vec<String> = steps
        .iter()
        .map(|s| {
            format!(
                "{{\"rate\":{},\"pass\":{},\"p99_ms\":{},\"fail\":{},\"done\":{},\"lag_p99_ms\":{}}}",
                num(s.rate),
                s.pass,
                num(s.p99_ms),
                num(s.fail),
                num(s.done),
                num(s.lag_p99_ms)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The measured part of one serve run.
struct Measured {
    tally: Tally,
    before: Json,
    after: Json,
    max_rps: f64,
    steps: Vec<Step>,
    peak_rss_mb: f64,
    setup_s: Vec<f64>,
    warmup: Option<Tally>,
}

impl Measured {
    /// `(attempted, failed, mismatched)`. The warm-up and the fixed
    /// phase count in all three; the ladder, whose last step is meant to
    /// breach, only in mismatches.
    fn counts(&self) -> (usize, usize, usize) {
        let phases = std::iter::once(&self.tally).chain(self.warmup.as_ref());
        let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
        for t in phases {
            attempted += t.sent;
            failed += t.failed;
            mismatched += t.mismatched;
        }
        let ladder: usize = self.steps.iter().map(|s| s.mismatched).sum();
        (attempted, failed, mismatched + ladder)
    }
}

/// Set-up, fixed phase and (warm) ladder against fresh daemons.
fn measure(
    args: &Args,
    kind: Kind,
    keys: &[Key],
    refs: &[String],
    traced: bool,
    conns: usize,
) -> Result<Measured, String> {
    let tag = if kind == Kind::Warm { "w" } else { "c" };
    let mut rid = (args.seed << 20) | 1;
    let mut spawn_s = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let (d, ready) = Daemon::start(&args.nscd, tag)?;
        spawn_s.push(ready.as_secs_f64());
        if i + 1 < SETUPS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("at least one set-up");
    let mut setup_s = spawn_s.clone();
    let warmup = if kind == Kind::Warm {
        let plan: Vec<Planned> = (0..keys.len())
            .map(|key| Planned {
                due_us: 0,
                key,
                first_touch: true,
            })
            .collect();
        let t0 = Instant::now();
        let res = drive(&d, keys, &plan, conns, DRAIN, &mut rid);
        let warm_s = t0.elapsed().as_secs_f64();
        setup_s = spawn_s.iter().map(|s| s + warm_s).collect();
        Some(check(&res, refs, false))
    } else {
        None
    };
    let mut rng = Rng::seed_from_u64(
        args.seed
            ^ if kind == Kind::Warm {
                0x5741_524d
            } else {
                0x434f_4c44
            },
    );
    let secs = args.seconds as f64;
    let plan = match kind {
        Kind::Warm => zipf_plan(&mut rng, keys.len(), RATE, secs),
        Kind::Cold => cold_plan(&mut rng, keys.len(), RATE, secs),
    };
    let before = d.counters()?;
    let results = drive(&d, keys, &plan, conns, DRAIN, &mut rid);
    let after = d.counters()?;
    let tally = check(&results, refs, traced);
    // Read before the ladder, whose last steps overload on purpose.
    let peak_rss_mb = d.peak_rss_mb();
    let (max_rps, steps) = match kind {
        Kind::Warm => ladder(&d, keys, refs, &mut rng, conns, &mut rid),
        Kind::Cold => (0.0, Vec::new()),
    };
    d.stop();
    Ok(Measured {
        tally,
        before,
        after,
        max_rps,
        steps,
        peak_rss_mb,
        setup_s,
        warmup,
    })
}

pub fn run(args: &Args, kind: Kind) -> Result<Report, String> {
    if !args.nscd.is_file() {
        return Err(format!(
            "nscd binary not found at {:?} (pass --nscd)",
            args.nscd
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = nproc.min(JOBS);
    let t_build = Instant::now();
    let names: Vec<&'static str> = nsc_workloads::all(Size::Tiny)
        .iter()
        .map(|w| w.name)
        .collect();
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
    let keys: Vec<Key> = names
        .iter()
        .flat_map(|&workload| ExecMode::ALL.map(|mode| Key { workload, mode }))
        .collect();

    // The reference: every key run in this process with the cache
    // disarmed, encoded exactly as the daemon encodes its responses.
    let sweep = Sweep::with_jobs(JOBS, None, None);
    let tasks: Vec<SweepTask<Result<String, String>>> = keys
        .iter()
        .map(|k| {
            let k = k.clone();
            Box::new(move || {
                nsc_serve::execute(k.workload, Size::Tiny, k.mode)
                    .map(|out| request::encode(&out.result, &FaultStats::default()))
            }) as SweepTask<_>
        })
        .collect();
    let t_ref = Instant::now();
    let refs: Vec<String> = sweep.run(tasks).into_iter().collect::<Result<_, _>>()?;
    let reference_s = t_ref.elapsed().as_secs_f64();
    drop(sweep);

    let plain = measure(args, kind, &keys, &refs, false, conns)?;
    let traced = if args.trace {
        Some(measure(args, kind, &keys, &refs, true, conns)?)
    } else {
        None
    };

    let mut rep = Report::default();
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    for m in std::iter::once(&plain).chain(traced.as_ref()) {
        let (a, f, x) = m.counts();
        attempted += a;
        failed += f;
        mismatched += x;
    }
    rep.attempted = attempted as u64;
    rep.failed = failed as u64;
    rep.correct = mismatched == 0;

    let mut p = plain;
    rep.e2e = vec![
        ("setup_s", median(&p.setup_s)),
        ("runs_per_s", p.tally.runs_per_s()),
        ("lat_p50_ms", p.tally.lat_ms.median()),
        ("peak_rss_mb", p.peak_rss_mb),
    ];
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    rep.detail("jobs", JOBS.to_string());
    rep.detail("conns", conns.to_string());
    rep.detail("rate", num(RATE));
    rep.detail("keys", keys.len().to_string());
    rep.detail("reference_s", num(reference_s));
    rep.detail("setup_s_samples", crate::json_list(&p.setup_s));
    rep.detail("sent", p.tally.sent.to_string());
    rep.detail("ok", p.tally.ok.to_string());
    rep.detail("mismatched", mismatched.to_string());
    rep.detail("fail_ratio", num(fail_ratio));
    rep.detail("lat_ms", p.tally.lat_ms.summary_json());
    rep.detail("hit_ms", p.tally.hit_ms.summary_json());
    rep.detail("miss_ms", p.tally.miss_ms.summary_json());
    rep.detail("late_repeats", p.tally.late_repeats.to_string());
    rep.detail("lag_ms", p.tally.lag_ms.summary_json());
    if kind == Kind::Warm {
        rep.detail("max_rps", num(p.max_rps));
        rep.detail("ladder", steps_json(&p.steps));
    }

    if let Some(mut t) = traced {
        let c = |name: &str| delta(&t.before, &t.after, name);
        let (hits, misses) = (c("result_cache.hits"), c("result_cache.misses"));
        let tt = &mut t.tally;
        let mut layers: Metrics = vec![
            ("workloads.build_ms", build_ms),
            ("core.simulate_ms", tt.sim_us / 1e3),
            (
                "core.host_ns_per_cycle",
                tt.sim_us * 1e3 / tt.sim.cycles.max(1) as f64,
            ),
            (
                "serve.pool_dispatch_us.p50",
                tt.span_pct("pool_dispatch", 50.0),
            ),
            (
                "serve.pool_dispatch_us.p99",
                tt.span_pct("pool_dispatch", 99.0),
            ),
            ("serve.cache_probe_us.p50", tt.span_pct("cache_probe", 50.0)),
            ("serve.simulate_us.p50", tt.span_pct("simulate", 50.0)),
            ("serve.queue_wait_us.p50", tt.span_pct("queue_wait", 50.0)),
            ("serve.queue_wait_us.p99", tt.span_pct("queue_wait", 99.0)),
            (
                "serve.reorder_hold_us.p99",
                tt.span_pct("reorder_hold", 99.0),
            ),
            ("serve.parse_us.p50", tt.span_pct("parse", 50.0)),
            ("serve.encode_us.p50", tt.span_pct("encode", 50.0)),
            ("serve.deliver_us.p50", tt.span_pct("deliver", 50.0)),
            ("serve.traced_requests", tt.traced as f64),
            ("serve.shed", c("serve.shed")),
            ("serve.errors", c("serve.errors")),
            ("client.wire_us.p50", tt.wire_us.median()),
            ("result_cache.hits", hits),
            ("result_cache.misses", misses),
            ("result_cache.stores", c("result_cache.stores")),
            ("result_cache.lookups", hits + misses),
            (
                "result_cache.hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            ),
            ("cache.cold.stores", c("cache.cold.stores")),
            ("loadgen.lag_p99_ms", tt.lag_ms.pct(99.0)),
            ("loadgen.sent", tt.sent as f64),
            ("loadgen.completed", tt.completed as f64),
            ("lat_p99_ms", tt.lat_ms.pct(99.0)),
            ("max_rps", t.max_rps),
            ("hit_p99_ms", tt.hit_ms.pct(99.0)),
            ("miss_p50_ms", tt.miss_ms.median()),
            ("fail_ratio", fail_ratio),
            (
                "trace.overhead_frac",
                tt.lat_ms.median() / p.tally.lat_ms.median() - 1.0,
            ),
        ];
        let mut spans: Vec<String> = Vec::new();
        for (name, s) in tt.spans.iter_mut() {
            spans.push(format!("\"{name}\":{}", s.summary_json()));
        }
        rep.detail("server_spans_us", format!("{{{}}}", spans.join(",")));
        rep.detail("wire_us", tt.wire_us.summary_json());
        let largest = tt
            .spans
            .iter_mut()
            .map(|(n, s)| (n.clone(), s.median()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(String::new(), |(n, _)| n);
        rep.detail("check_largest_server_span", format!("\"{largest}\""));
        if kind == Kind::Warm {
            rep.detail("traced_ladder", steps_json(&t.steps));
        }
        layers.extend(tt.sim.metrics());
        rep.layers = layers;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_have_a_fixed_count_and_repeat_per_seed() {
        let a = arrivals(&mut Rng::seed_from_u64(3), 50.0, 20.0);
        let b = arrivals(&mut Rng::seed_from_u64(3), 50.0, 20.0);
        let c = arrivals(&mut Rng::seed_from_u64(4), 50.0, 20.0);
        assert_eq!(a.len(), 1000);
        assert_eq!(c.len(), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 20_000_000);
    }

    #[test]
    fn cold_plan_touches_every_key_once_before_repeating_it() {
        let plan = cold_plan(&mut Rng::seed_from_u64(9), 112, 50.0, 20.0);
        let mut first_due = vec![None; 112];
        for p in &plan {
            if p.first_touch {
                assert!(
                    first_due[p.key].is_none(),
                    "key {} touched first twice",
                    p.key
                );
                first_due[p.key] = Some(p.due_us);
            } else {
                let t = first_due[p.key].expect("a repeat of an untouched key");
                assert!(
                    t + REPEAT_AFTER_US <= p.due_us,
                    "repeat too soon after first touch"
                );
            }
        }
        assert!(
            first_due.iter().all(Option::is_some),
            "every key is touched"
        );
        let repeats = plan.iter().filter(|p| !p.first_touch).count();
        assert!(
            repeats > 6 * 112,
            "about ten repeats per miss, got {repeats}"
        );
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(112);
        let mut rng = Rng::seed_from_u64(1);
        let mut counts = [0usize; 112];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng, 112)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[100]);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng, 3) < 3);
        }
    }
}
