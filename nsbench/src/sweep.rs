//! `sim_sweep`: the paper-regeneration path, driven in process.
//!
//! All 14 Table VI workloads × {`Base`, `NS`} at `Size::Small`, fanned
//! across a two-worker [`Sweep`] with the result cache disarmed. Every
//! run's final memory is digested and compared against the workload's
//! golden (functional interpreter) digest. The simulated counters of
//! each pass are summed into a fingerprint that must repeat exactly from
//! pass to pass.
//!
//! The inputs are the paper's fixed workloads, submitted in Table VI
//! order every pass, so `--seed` does not change this workload: a seeded
//! order would only add a seed-dependent idle tail to the wall time.

use crate::stats::{median, Samples};
use crate::{Args, Fingerprint, Metrics, Report};
use near_stream::{ExecMode, SystemConfig};
use nsc_bench::{prepare, system_for, Prepared, Sweep, SweepTask};
use nsc_workloads::Size;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sweep workers (the reference box has two CPUs).
const JOBS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// fig09's headline pair.
const MODES: [ExecMode; 2] = [ExecMode::Base, ExecMode::Ns];

/// One simulated run, as a worker saw it.
struct RunOut {
    key: (usize, ExecMode),
    ok: bool,
    fp: Fingerprint,
    /// Host time from dequeue to a checked result, and queue wait.
    busy: Duration,
    queued: Duration,
    /// Traced split of `busy` (zero when untraced).
    simulate: Duration,
    golden: Duration,
}

fn run_one(
    prepared: &[Prepared],
    key: (usize, ExecMode),
    cfg: &SystemConfig,
    submitted: Instant,
    traced: bool,
) -> RunOut {
    let (p, mode) = (&prepared[key.0], key.1);
    let start = Instant::now();
    let (result, mem) = p.run_unchecked(mode, cfg);
    let t_sim = Instant::now();
    let ok = p.workload.digest(&mem) == p.workload.golden_digest();
    let end = Instant::now();
    let fp = Fingerprint::of(&result);
    let (simulate, golden) = if traced {
        (t_sim - start, end - t_sim)
    } else {
        (Duration::ZERO, Duration::ZERO)
    };
    RunOut {
        key,
        ok,
        fp,
        busy: end - start,
        queued: start - submitted,
        simulate,
        golden,
    }
}

/// The measured phase: whole passes over the 28 runs, at least two (so
/// the fingerprint's repetition is checked) and until `--seconds` have
/// elapsed.
struct Phase {
    runs: Vec<RunOut>,
    passes: usize,
    wall: Duration,
    fingerprint: Fingerprint,
    /// Every pass summed to the same fingerprint.
    repeatable: bool,
}

fn measure(
    sweep: &Sweep,
    prepared: &Arc<Vec<Prepared>>,
    cfg: &Arc<SystemConfig>,
    args: &Args,
    traced: bool,
) -> Phase {
    let order: Vec<(usize, ExecMode)> = (0..prepared.len())
        .flat_map(|w| MODES.map(|m| (w, m)))
        .collect();
    let window = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut runs: Vec<RunOut> = Vec::new();
    let mut fps: Vec<Fingerprint> = Vec::new();
    while fps.len() < 2 || t0.elapsed() < window {
        let pass_start = Instant::now();
        let tasks: Vec<SweepTask<RunOut>> = order
            .iter()
            .map(|&key| {
                let (p, cfg) = (Arc::clone(prepared), Arc::clone(cfg));
                Box::new(move || run_one(&p, key, &cfg, pass_start, traced)) as SweepTask<RunOut>
            })
            .collect();
        let outs = sweep.run(tasks);
        let mut fp = Fingerprint::default();
        for o in &outs {
            fp.add(&o.fp);
        }
        fps.push(fp);
        runs.extend(outs);
    }
    Phase {
        runs,
        passes: fps.len(),
        wall: t0.elapsed(),
        fingerprint: fps[0],
        repeatable: fps.iter().all(|f| *f == fps[0]),
    }
}

impl Phase {
    fn ok_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.ok).count()
    }

    fn runs_per_s(&self) -> f64 {
        self.ok_runs() as f64 / self.wall.as_secs_f64()
    }

    fn latencies_ms(&self) -> Samples {
        let mut s = Samples::new();
        for r in &self.runs {
            s.push(r.busy.as_secs_f64() * 1e3);
        }
        s
    }
}

pub fn run(args: &Args) -> Report {
    let cfg = Arc::new(system_for(Size::Small));
    let (mut setup_s, mut build_ms, mut compile_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let workloads = nsc_workloads::all(Size::Small);
        let t1 = Instant::now();
        prepared = workloads.into_iter().map(prepare).collect();
        build_ms.push((t1 - t0).as_secs_f64() * 1e3);
        compile_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let prepared = Arc::new(prepared);
    let sweep = Sweep::with_jobs(JOBS, None, None);

    let plain = measure(&sweep, &prepared, &cfg, args, false);
    let traced = args
        .trace
        .then(|| measure(&sweep, &prepared, &cfg, args, true));

    let mut rep = Report::default();
    let attempted = plain.runs.len() + traced.as_ref().map_or(0, |t| t.runs.len());
    let failed = attempted - plain.ok_runs() - traced.as_ref().map_or(0, Phase::ok_runs);
    rep.attempted = attempted as u64;
    rep.failed = failed as u64;
    rep.correct = failed == 0
        && plain.repeatable
        && traced
            .as_ref()
            .is_none_or(|t| t.repeatable && t.fingerprint == plain.fingerprint);

    let mut lat = plain.latencies_ms();
    rep.e2e = vec![
        ("setup_s", median(&setup_s)),
        ("runs_per_s", plain.runs_per_s()),
        ("lat_p50_ms", lat.median()),
        ("peak_rss_mb", crate::vm_hwm_mb(std::process::id())),
    ];
    rep.detail("jobs", JOBS.to_string());
    rep.detail("size", "\"small\"".to_owned());
    rep.detail("passes", plain.passes.to_string());
    rep.detail("runs_per_pass", (prepared.len() * MODES.len()).to_string());
    rep.detail("run_ms", lat.summary_json());
    rep.detail("setup_s_samples", crate::json_list(&setup_s));
    // The five longest runs of the first pass: they bound the idle tail.
    let mut first: Vec<&RunOut> = plain
        .runs
        .iter()
        .take(prepared.len() * MODES.len())
        .collect();
    first.sort_by_key(|r| std::cmp::Reverse(r.busy));
    let items: Vec<String> = first
        .iter()
        .take(5)
        .map(|r| {
            let name = prepared[r.key.0].workload.name;
            format!(
                "\"{name}/{}\":{}",
                r.key.1.label(),
                crate::stats::num(r.busy.as_secs_f64() * 1e3)
            )
        })
        .collect();
    rep.detail("slowest_run_ms", format!("{{{}}}", items.join(",")));
    rep.detail("fingerprint", plain.fingerprint.json());
    rep.detail("fingerprint_repeats", plain.repeatable.to_string());
    rep.detail(
        "fail_ratio",
        crate::stats::num(failed as f64 / attempted as f64),
    );

    if let Some(t) = traced {
        let fp = t.fingerprint;
        let per_pass = |f: fn(&RunOut) -> Duration| {
            t.runs.iter().map(|r| f(r).as_secs_f64()).sum::<f64>() * 1e3 / t.passes as f64
        };
        let sim_ms = per_pass(|r| r.simulate);
        let golden_ms = per_pass(|r| r.golden);
        let busy_ms = per_pass(|r| r.busy);
        let mut queued = Samples::new();
        for r in &t.runs {
            queued.push(r.queued.as_secs_f64() * 1e3);
        }
        let pass_wall_ms = t.wall.as_secs_f64() * 1e3 / t.passes as f64;
        let mut layers: Metrics = vec![
            ("workloads.build_ms", median(&build_ms)),
            ("compiler.compile_ms", median(&compile_ms)),
            ("ir.golden_ms", golden_ms),
            ("core.simulate_ms", sim_ms),
            (
                "core.host_ns_per_cycle",
                sim_ms * 1e6 / fp.cycles.max(1) as f64,
            ),
            ("sweep.queue_wait_ms", queued.median()),
            ("sweep.busy_frac", busy_ms / (JOBS as f64 * pass_wall_ms)),
            ("lat_p99_ms", t.latencies_ms().pct(99.0)),
            ("fail_ratio", failed as f64 / attempted as f64),
            (
                "trace.overhead_frac",
                plain.runs_per_s() / t.runs_per_s() - 1.0,
            ),
        ];
        layers.extend(fp.metrics());
        rep.layers = layers;
        rep.detail("queue_wait_ms", queued.summary_json());
        rep.detail(
            "check_simulate_share_of_busy",
            crate::stats::num(sim_ms / busy_ms),
        );
    }
    rep
}
