//! Shared infrastructure for the figure/table reproduction harnesses.
//!
//! Every binary in this crate regenerates one of the paper's figures or
//! tables (see DESIGN.md §5 for the index). Common conventions:
//!
//! * `--tiny` / `--small` (default) / `--full` pick the input scale
//!   (`--full` is the paper's Table VI parameters);
//! * output is plain text with one row per workload/configuration, in the
//!   same order as the paper.

use near_stream::{ExecMode, RunRequest, RunResult, SystemConfig};
use nsc_compiler::{compile, CompiledProgram};
use nsc_ir::Memory;
use nsc_sim::cache;
use nsc_sim::fault::{self, FaultPlan};
use nsc_sim::json::{escape, fmt_f64};
use nsc_sim::metrics::{self, Registry};
use nsc_sim::pool::{self, run_ordered, ThreadPool};
use nsc_sim::trace::{self, chrome, RingRecorder};
use nsc_sim::{Histogram, SimError, StatsTable};
use nsc_workloads::{Size, Workload};
use std::cell::Cell;
use std::path::PathBuf;
use std::time::Instant;

pub mod cli;

pub use cli::{size_from_str, Args, Cli};

/// Parses the scale flag from `std::env::args`.
#[deprecated(since = "0.1.0", note = "use `Cli::new(..).parse().size` instead")]
pub fn parse_size() -> Size {
    for a in std::env::args() {
        match a.as_str() {
            "--tiny" => return Size::Tiny,
            "--full" | "--paper" => return Size::Paper,
            "--small" => return Size::Small,
            _ => {}
        }
    }
    Size::Small
}

/// The default evaluation system (paper Table V, OOO8).
///
/// At `--tiny`/`--small` scale the caches shrink with the inputs so the
/// offload-policy footprint heuristics see the same pressure the paper's
/// full-size runs do — but never below one cache line, which
/// `MemoryConfig::validate` rejects.
pub fn system_for(size: Size) -> SystemConfig {
    let line = nsc_mem::LINE_BYTES;
    match size {
        Size::Paper => SystemConfig::paper_ooo8(),
        Size::Small => {
            let mut cfg = SystemConfig::paper_ooo8();
            // Inputs are ~1/16 of Table VI, so caches shrink by the same
            // factor to preserve relative pressure.
            cfg.mem.l1.size_bytes = (cfg.mem.l1.size_bytes / 16).max(line);
            cfg.mem.l2.size_bytes = (cfg.mem.l2.size_bytes / 16).max(line);
            cfg.mem.l3_bank.size_bytes = (cfg.mem.l3_bank.size_bytes / 16).max(line);
            cfg
        }
        Size::Tiny => {
            let mut cfg = SystemConfig::small();
            cfg.mem.l1.size_bytes = (cfg.mem.l1.size_bytes / 2).max(line);
            cfg.mem.l2.size_bytes = (cfg.mem.l2.size_bytes / 2).max(line);
            cfg
        }
    }
}

/// A workload compiled once, runnable under many modes/configs.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its compiled form.
    pub compiled: CompiledProgram,
}

/// Compiles a workload.
pub fn prepare(workload: Workload) -> Prepared {
    let compiled = compile(&workload.program);
    Prepared { workload, compiled }
}

impl Prepared {
    /// The canonical [`RunRequest`] for this workload under one
    /// mode/config: the compiled program, parameters and initializer all
    /// come from the workload.
    pub fn request<'a>(&'a self, mode: ExecMode, cfg: &SystemConfig) -> RunRequest<'a> {
        RunRequest::new(&self.workload.program)
            .compiled(&self.compiled)
            .params(&self.workload.params)
            .mode(mode)
            .config(cfg)
            .init(self.workload.init.as_ref())
    }

    /// Runs under one mode, validating the result against the golden
    /// digest.
    ///
    /// # Panics
    ///
    /// Panics if the simulated execution computes a different result from
    /// the golden functional run.
    pub fn run_checked(&self, mode: ExecMode, cfg: &SystemConfig) -> RunResult {
        let (result, mem) = self.request(mode, cfg).run();
        let got = self.workload.digest(&mem);
        let want = self.workload.golden_digest();
        assert_eq!(
            got, want,
            "{} under {:?} diverged from the golden result",
            self.workload.name, mode
        );
        result
    }

    /// Runs under one mode without the (expensive) golden check.
    pub fn run_unchecked(&self, mode: ExecMode, cfg: &SystemConfig) -> (RunResult, Memory) {
        self.request(mode, cfg).run()
    }

    /// Runs under one mode through the result cache (see
    /// [`RunRequest::run_cached`]): with `NSC_CACHE=1` a repeat of an
    /// unchanged sweep replays stored records instead of simulating.
    /// Returns metrics only — harnesses that need the final memory image
    /// use [`Prepared::run_unchecked`].
    pub fn run_cached(&self, mode: ExecMode, cfg: &SystemConfig) -> RunResult {
        self.request(mode, cfg).run_cached()
    }
}

/// Short stable label for a workload scale.
pub fn size_label(size: Size) -> &'static str {
    match size {
        Size::Tiny => "tiny",
        Size::Small => "small",
        Size::Paper => "paper",
    }
}

/// Percentile summary of one histogram, as stored in a report.
///
/// Percentiles are `None` for an empty histogram and render as JSON
/// `null` — a 0 would be indistinguishable from a real zero-latency
/// measurement.
#[derive(Clone, Copy, Debug)]
struct HistSummary {
    count: u64,
    mean: f64,
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
}

impl HistSummary {
    fn of(h: &Histogram) -> HistSummary {
        HistSummary {
            count: h.summary().count(),
            mean: h.summary().mean(),
            p50: h.percentile_opt(50.0),
            p90: h.percentile_opt(90.0),
            p99: h.percentile_opt(99.0),
        }
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => fmt_f64(x),
        None => "null".to_owned(),
    }
}

/// Machine-readable companion to a harness's text output.
///
/// Each fig/tab binary builds one `Report` and calls [`Report::finish`],
/// which writes `results/<name>.json` (schema `nsc-bench-v1`, documented
/// in DESIGN.md §Observability) next to the harness's `.txt` output.
///
/// The report doubles as the tracing entry point: when the environment
/// variable `NSC_TRACE` is set, [`Report::new`] installs a trace recorder
/// and `finish` exports the captured events as Chrome trace-event JSON
/// (openable in Perfetto). `NSC_TRACE=1` writes
/// `results/<name>.trace.json`; any other value is used as the output
/// path. `NSC_TRACE_CAP` bounds the number of retained events (default
/// one million) and `NSC_TRACE_SAMPLE` sets the minimum cycle spacing of
/// occupancy counter samples (default 64). `NSC_RESULTS_DIR` relocates
/// the `results/` directory.
///
/// The report is also the chaos-testing entry point: setting
/// `NSC_FAULT_RATE` (a probability > 0, e.g. `0.001`) makes `Report::new`
/// arm a deterministic fault injector for the whole harness run;
/// `NSC_FAULT_SEED` picks the schedule (default `0xC0FFEE`). Injected
/// faults perturb timing and traffic only — every workload still computes
/// bit-identical results — and `finish` records the totals under
/// `fault.*` stats.
pub struct Report {
    name: String,
    size: Size,
    meta: Vec<(String, String)>,
    stats: StatsTable,
    histograms: Vec<(String, HistSummary)>,
    trace_path: Option<PathBuf>,
    trace_knobs: Option<(usize, u64)>,
    fault_armed: bool,
    started: Instant,
    sim_runs: u64,
    sweeper: Option<Sweep>,
}

/// One unit of sweep work: an independent simulation (or any other
/// closure) whose result is collected in submission order.
pub type SweepTask<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// Fans independent `(workload, mode, config)` runs across `NSC_JOBS`
/// worker threads with **bit-identical** results for any job count.
///
/// Three rules make parallelism unobservable:
///
/// 1. results return in *submission order* (never completion order),
/// 2. when chaos mode is armed, each run gets its own injector seeded
///    by [`FaultPlan::for_run`] from `(base seed, submission index)`,
/// 3. when tracing, each run records into its own recorder and the
///    recorders are absorbed back into the main-thread tracer in
///    submission order.
///
/// Harnesses normally reach this through [`Report::sweep`], which also
/// counts the runs for the `host.sim_runs` stat.
pub struct Sweep {
    pool: ThreadPool,
    fault_base: Option<FaultPlan>,
    trace_knobs: Option<(usize, u64)>,
    /// Submission index of the next run; advances across `run` calls so
    /// every run of a harness draws a distinct fault stream.
    next_run: Cell<u64>,
}

impl Sweep {
    /// Builds a sweep with `jobs` workers and explicit instrumentation
    /// (bypassing the environment): `fault_base` arms a per-run derived
    /// injector, `trace_knobs` is `(capacity, sample_every)` for
    /// per-run recorders.
    pub fn with_jobs(
        jobs: usize,
        fault_base: Option<FaultPlan>,
        trace_knobs: Option<(usize, u64)>,
    ) -> Sweep {
        Sweep {
            pool: ThreadPool::new(jobs),
            fault_base,
            trace_knobs,
            next_run: Cell::new(0),
        }
    }

    /// Number of worker threads.
    pub fn jobs(&self) -> usize {
        self.pool.workers()
    }

    /// Runs every task, returning results in submission order.
    ///
    /// Instrumentation (fault injector, tracer) is armed *per run* on
    /// whichever worker picks the task up, then merged back on the
    /// calling thread in submission order — see the type docs for why
    /// this makes the output independent of `NSC_JOBS`.
    pub fn run<T: Send + 'static>(&self, tasks: Vec<SweepTask<T>>) -> Vec<T> {
        /// A task result plus whatever per-run instrumentation it captured.
        type Instrumented<T> =
            (T, Option<fault::FaultStats>, Option<RingRecorder>, Option<Registry>);
        let first_run = self.next_run.get();
        self.next_run.set(first_run + tasks.len() as u64);
        // Whether workers should carry metrics shards is decided here on
        // the submitting thread, so the per-task closures behave the same
        // no matter which worker runs them.
        let metering = metrics::installed();
        let wrapped: Vec<SweepTask<Instrumented<T>>> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                let fault_plan = self.fault_base.as_ref().map(|p| p.for_run(first_run + i as u64));
                let trace_knobs = self.trace_knobs;
                Box::new(move || {
                    let faulting = fault_plan.is_some();
                    if let Some(plan) = fault_plan {
                        fault::install(plan);
                    }
                    if let Some((cap, every)) = trace_knobs {
                        trace::install(RingRecorder::new(cap), every);
                    }
                    if metering {
                        metrics::install(Registry::new());
                    }
                    let value = task();
                    let fstats = if faulting { fault::uninstall() } else { None };
                    let rec = if trace_knobs.is_some() { trace::uninstall() } else { None };
                    let shard = if metering { metrics::uninstall() } else { None };
                    (value, fstats, rec, shard)
                }) as SweepTask<_>
            })
            .collect();
        run_ordered(&self.pool, wrapped)
            .into_iter()
            .map(|(value, fstats, rec, shard)| {
                if let Some(fstats) = fstats {
                    fault::absorb(fstats);
                }
                if let Some(rec) = rec {
                    trace::absorb(rec);
                }
                if let Some(shard) = shard {
                    // Every merge op commutes and saturates, but absorbing
                    // in submission order anyway keeps the discipline
                    // uniform with faults/traces and byte-identical
                    // snapshots trivially independent of NSC_JOBS.
                    metrics::absorb(&shard);
                }
                value
            })
            .collect()
    }
}

fn results_dir() -> PathBuf {
    std::env::var_os("NSC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl Report {
    /// Starts a report for harness `name` at scale `size`, installing a
    /// tracer when `NSC_TRACE` requests one.
    pub fn new(name: &str, size: Size) -> Report {
        let mut trace_knobs = None;
        let trace_path = match std::env::var("NSC_TRACE") {
            Ok(v) if !v.is_empty() && v != "0" => {
                let path = if v == "1" {
                    results_dir().join(format!("{name}.trace.json"))
                } else {
                    PathBuf::from(v)
                };
                let cap = env_u64("NSC_TRACE_CAP", 1 << 20) as usize;
                let sample_every = env_u64("NSC_TRACE_SAMPLE", 64);
                trace::install(RingRecorder::new(cap), sample_every);
                trace_knobs = Some((cap, sample_every));
                Some(path)
            }
            _ => None,
        };
        let fault_armed = match FaultPlan::from_env() {
            Some(plan) => {
                eprintln!(
                    "chaos: fault injection armed (seed {:#x}, rate {})",
                    plan.seed, plan.noc_drop
                );
                fault::install(plan);
                true
            }
            None => false,
        };
        // Every harness run carries a live metrics registry: the counters
        // feed the report's `host.profile` block, and the cost when
        // nothing reads them is one relaxed atomic load per event.
        metrics::install(Registry::new());
        Report {
            name: name.to_owned(),
            size,
            meta: Vec::new(),
            stats: StatsTable::new(),
            histograms: Vec::new(),
            trace_path,
            trace_knobs,
            fault_armed,
            started: Instant::now(),
            sim_runs: 0,
            sweeper: None,
        }
    }

    /// Fans `tasks` across `NSC_JOBS` workers (default: available
    /// parallelism) and returns their results in submission order; see
    /// [`Sweep`] for the determinism contract. Also counts the tasks
    /// into the `host.sim_runs` stat.
    ///
    /// The worker pool and the per-run instrumentation base (the
    /// environment's fault plan and trace knobs, as armed by
    /// [`Report::new`]) are created on first use and reused across
    /// calls.
    pub fn sweep<T: Send + 'static>(&mut self, tasks: Vec<SweepTask<T>>) -> Vec<T> {
        self.sim_runs = self.sim_runs.saturating_add(tasks.len() as u64);
        if self.sweeper.is_none() {
            self.sweeper = Some(Sweep::with_jobs(
                pool::jobs_from_env(),
                if self.fault_armed { FaultPlan::from_env() } else { None },
                self.trace_knobs,
            ));
        }
        self.sweeper.as_ref().expect("sweeper built above").run(tasks)
    }

    /// Counts simulations executed outside [`Report::sweep`] into the
    /// `host.sim_runs` stat.
    pub fn note_sim_runs(&mut self, n: u64) {
        self.sim_runs = self.sim_runs.saturating_add(n);
    }

    /// Attaches a free-form metadata string (e.g. a config description).
    pub fn meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_owned(), value.to_owned()));
    }

    /// Sets one scalar stat.
    pub fn stat(&mut self, key: &str, value: f64) {
        self.stats.set(key, value);
    }

    /// Records a full simulation result under `runs.<workload>.<mode>.*`,
    /// including its NoC latency percentiles.
    pub fn run(&mut self, workload: &str, mode: &str, r: &RunResult) {
        let prefix = format!("runs.{workload}.{mode}");
        for (k, v) in r.to_table().iter() {
            self.stats.set(&format!("{prefix}.{k}"), v);
        }
        self.hist(&format!("{prefix}.noc_latency"), &r.noc_latency);
    }

    /// Records a histogram's percentile summary under `key`.
    pub fn hist(&mut self, key: &str, h: &Histogram) {
        self.histograms.push((key.to_owned(), HistSummary::of(h)));
    }

    fn render(&self) -> String {
        let mut out = String::from("{\"schema\":\"nsc-bench-v1\"");
        out.push_str(&format!(",\"name\":\"{}\"", escape(&self.name)));
        out.push_str(&format!(",\"size\":\"{}\"", size_label(self.size)));
        out.push_str(",\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
        }
        out.push_str("},\"stats\":");
        out.push_str(&self.stats.to_json());
        out.push_str(",\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                escape(k),
                h.count,
                fmt_f64(h.mean),
                fmt_opt(h.p50),
                fmt_opt(h.p90),
                fmt_opt(h.p99),
            ));
        }
        out.push('}');
        // Host-side observations (wall-clock, worker count, result-cache
        // hits) live in their own object, NOT under "stats": they
        // legitimately vary between otherwise bit-identical runs (a cold
        // and a warm cache produce the same science), so determinism
        // checks compare everything else and strip this one key.
        // A disabled cache reports zeros without touching the store.
        let (cache_hits, cache_misses) = if cache::enabled() {
            let s = cache::shared().stats();
            (s.hits, s.misses)
        } else {
            (0, 0)
        };
        let wall_ms = (self.started.elapsed().as_secs_f64() * 1e3 * 1e3).round() / 1e3;
        out.push_str(&format!(
            ",\"host\":{{\"jobs\":{},\"sim_runs\":{},\"cache_hits\":{},\"cache_misses\":{},\"wall_ms\":{},\"profile\":{}}}",
            self.sweeper.as_ref().map(Sweep::jobs).unwrap_or(0),
            self.sim_runs,
            cache_hits,
            cache_misses,
            fmt_f64(wall_ms),
            profile_json(&metrics::snapshot().unwrap_or_default(), wall_ms),
        ));
        out.push_str("}\n");
        out
    }

    /// Writes `results/<name>.json` (and the trace file, when tracing) and
    /// returns the stats path.
    pub fn finish(mut self) -> Result<PathBuf, SimError> {
        if self.fault_armed {
            if let Some(stats) = fault::uninstall() {
                self.stats.set("fault.injected", stats.total() as f64);
                for site in nsc_sim::fault::FaultSite::ALL {
                    self.stats
                        .set(&format!("fault.{}", site.label()), stats.count(site) as f64);
                }
            }
        }
        if let Some(path) = self.trace_path.take() {
            if let Some(rec) = trace::uninstall() {
                self.stats.set("trace.events", rec.len() as f64);
                self.stats.set("trace.dropped", rec.dropped() as f64);
                chrome::write_file(&path, rec.events())
                    .map_err(|e| SimError::io(path.display().to_string(), &e))?;
                eprintln!("trace: {}", path.display());
            }
        }
        let dir = results_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SimError::io(dir.display().to_string(), &e))?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.render())
            .map_err(|e| SimError::io(path.display().to_string(), &e))?;
        metrics::uninstall();
        Ok(path)
    }
}

/// Renders the event-loop self-profiler block for `host.profile`.
///
/// The simulator never reads wall clocks on the hot path; instead every
/// instrumented event records how many *simulated* cycles it accounted
/// for, and the profiler attributes the harness's measured wall time
/// proportionally to each event kind's share of those cycles
/// (`est_ms = wall_ms * cycles / total_cycles`). The cycle shares are
/// deterministic; only `wall_ms` (already a host-side stat) varies
/// between runs.
fn profile_json(reg: &Registry, wall_ms: f64) -> String {
    let (total_events, total_cycles) = reg.prof_total();
    let mut out = format!(
        "{{\"total_events\":{total_events},\"total_cycles\":{total_cycles},\"by_kind\":{{"
    );
    let mut first = true;
    for p in metrics::Prof::ALL {
        let slot = reg.prof(p);
        if slot.events == 0 && slot.cycles == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let est_ms = if total_cycles == 0 {
            0.0
        } else {
            wall_ms * (slot.cycles as f64 / total_cycles as f64)
        };
        out.push_str(&format!(
            "\"{}\":{{\"component\":\"{}\",\"events\":{},\"cycles\":{},\"est_ms\":{}}}",
            escape(p.label()),
            escape(p.component()),
            slot.events,
            slot.cycles,
            fmt_f64((est_ms * 1e3).round() / 1e3),
        ));
    }
    out.push_str("}}");
    out
}

/// Finishes a report, or reports the failure the way a command-line
/// tool should: the typed error goes to stderr and the process exits
/// non-zero. An unwritable results directory is an environment problem,
/// not a bug — so no panic, no backtrace.
pub fn finalize(rep: Report) -> PathBuf {
    match rep.finish() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a speedup column.
pub fn fmt_x(v: f64) -> String {
    format!("{v:6.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn size_parsing_defaults_small() {
        // No flags in the test harness args that match.
        #[allow(deprecated)]
        let s = parse_size();
        assert!(matches!(s, Size::Small | Size::Tiny | Size::Paper));
    }

    #[test]
    fn system_for_never_shrinks_below_one_line() {
        // Regression: the size scaling used integer division with no
        // floor, so configs whose caches were already near one line could
        // end up below it and fail `SystemConfig::validate`.
        for size in [Size::Tiny, Size::Small, Size::Paper] {
            let cfg = system_for(size);
            assert!(cfg.validate().is_ok(), "system_for({size:?}) must validate");
            assert!(cfg.mem.l1.size_bytes >= nsc_mem::LINE_BYTES);
            assert!(cfg.mem.l2.size_bytes >= nsc_mem::LINE_BYTES);
            assert!(cfg.mem.l3_bank.size_bytes >= nsc_mem::LINE_BYTES);
        }
    }

    #[test]
    fn run_checked_catches_nothing_on_correct_runs() {
        let p = prepare(nsc_workloads::histogram(Size::Tiny));
        let cfg = system_for(Size::Tiny);
        let r = p.run_checked(ExecMode::Base, &cfg);
        assert!(r.cycles > 0);
    }

    #[test]
    fn report_renders_schema_v1_json() {
        use nsc_sim::json::{parse, Json};
        let p = prepare(nsc_workloads::histogram(Size::Tiny));
        let cfg = system_for(Size::Tiny);
        let r = p.run_checked(ExecMode::Base, &cfg);

        let mut rep = Report::new("unit_report", Size::Tiny);
        rep.meta("modes", "base");
        rep.stat("geomean.speedup", 1.5);
        rep.run("histogram", "base", &r);
        let mut h = Histogram::new(8.0, 4);
        h.record(3.0);
        h.record(19.0);
        rep.hist("extra", &h);

        let doc = parse(&rep.render()).expect("report is valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("nsc-bench-v1"));
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("unit_report"));
        assert_eq!(doc.get("size").and_then(Json::as_str), Some("tiny"));
        let stats = doc.get("stats").and_then(Json::as_obj).unwrap();
        assert!(stats.contains_key("runs.histogram.base.cycles"));
        assert_eq!(stats.get("geomean.speedup").and_then(Json::as_f64), Some(1.5));
        let hists = doc.get("histograms").and_then(Json::as_obj).unwrap();
        let extra = hists.get("extra").unwrap();
        assert_eq!(extra.get("count").and_then(Json::as_f64), Some(2.0));
        assert!(extra.get("p99").and_then(Json::as_f64).unwrap() >= extra
            .get("p50")
            .and_then(Json::as_f64)
            .unwrap());
        assert!(hists.contains_key("runs.histogram.base.noc_latency"));
    }

    #[test]
    fn sweep_is_bit_identical_across_job_counts() {
        let outputs: Vec<Vec<u64>> = [1usize, 4, 8]
            .iter()
            .map(|&jobs| {
                let sweep = Sweep::with_jobs(jobs, Some(FaultPlan::uniform(9, 0.5)), None);
                let tasks: Vec<SweepTask<u64>> = (0..24u64)
                    .map(|i| {
                        Box::new(move || {
                            // Consume per-run injector draws so the test
                            // fails if runs ever share a PRNG stream.
                            let mut hits = 0u64;
                            for _ in 0..8 {
                                hits +=
                                    nsc_sim::fault::inject(nsc_sim::fault::FaultSite::MemError)
                                        as u64;
                            }
                            i * 100 + hits
                        }) as SweepTask<u64>
                    })
                    .collect();
                sweep.run(tasks)
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "jobs=1 vs jobs=4");
        assert_eq!(outputs[0], outputs[2], "jobs=1 vs jobs=8");
        // Submission order: index i's result starts at i*100.
        for (i, v) in outputs[0].iter().enumerate() {
            assert_eq!(v / 100, i as u64);
        }
    }

    #[test]
    fn report_renders_host_object() {
        use nsc_sim::json::{parse, Json};
        let mut rep = Report::new("unit_host", Size::Tiny);
        let vals = rep.sweep((0..3u64).map(|i| Box::new(move || i) as SweepTask<u64>).collect());
        assert_eq!(vals, vec![0, 1, 2]);
        rep.note_sim_runs(2);
        let doc = parse(&rep.render()).expect("report is valid JSON");
        let host = doc.get("host").and_then(Json::as_obj).unwrap();
        assert!(host.get("jobs").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(host.get("sim_runs").and_then(Json::as_f64), Some(5.0));
        assert!(host.get("wall_ms").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn report_renders_populated_host_profile() {
        use nsc_sim::json::{parse, Json};
        let mut rep = Report::new("unit_profile", Size::Tiny);
        let p = prepare(nsc_workloads::histogram(Size::Tiny));
        let cfg = system_for(Size::Tiny);
        // Run through the sweep so the profiler exercises the worker-shard
        // absorb path, not just the main-thread registry.
        let results = rep.sweep(vec![Box::new(move || {
            p.run_checked(ExecMode::Ns, &cfg).cycles
        }) as SweepTask<u64>]);
        assert!(results[0] > 0);
        let doc = parse(&rep.render()).expect("report is valid JSON");
        let profile = doc
            .get("host")
            .and_then(|h| h.get("profile"))
            .and_then(Json::as_obj)
            .expect("host.profile present");
        assert!(profile.get("total_events").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(profile.get("total_cycles").and_then(Json::as_f64).unwrap() > 0.0);
        let by_kind = profile.get("by_kind").and_then(Json::as_obj).unwrap();
        assert!(!by_kind.is_empty(), "a simulation must attribute some cycles");
        for (_, v) in by_kind.iter() {
            assert!(v.get("component").and_then(Json::as_str).is_some());
            assert!(v.get("events").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(v.get("est_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        }
    }

    #[test]
    fn empty_histogram_percentiles_render_null() {
        use nsc_sim::json::{parse, Json};
        let mut rep = Report::new("unit_empty_hist", Size::Tiny);
        rep.hist("empty", &Histogram::new(8.0, 4));
        let doc = parse(&rep.render()).expect("report is valid JSON");
        let hists = doc.get("histograms").and_then(Json::as_obj).unwrap();
        let e = hists.get("empty").unwrap();
        assert_eq!(e.get("count").and_then(Json::as_f64), Some(0.0));
        assert_eq!(e.get("p50"), Some(&Json::Null));
        assert_eq!(e.get("p90"), Some(&Json::Null));
        assert_eq!(e.get("p99"), Some(&Json::Null));
    }
}
