//! `nsbench` — the repository benchmark.
//!
//! ```text
//! nsbench --workload <sim_sweep|serve_warm|serve_cold> --seed N --seconds S
//!         --trace 0|1 --nscd PATH [--commit SHA]
//! ```
//!
//! Normally started through `nsbench/run.py`, which builds this binary
//! and `nscd` from the checkout first. Three workloads:
//!
//! * `sim_sweep` — the simulator stack in process (see [`sweep`]);
//! * `serve_warm` — a live `nscd` with a warmed result cache under an
//!   open-loop Poisson load, then a rate ladder (see [`serve`]);
//! * `serve_cold` — a live `nscd` starting empty, first touches mixed
//!   with repeats (see [`serve`]).
//!
//! Every output is checked: simulated runs against the golden digest,
//! daemon responses bit for bit against an in-process reference. The
//! last line of stdout is one JSON object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); the line before it is a `{"detail":{..}}` object with
//! sample counts, percentile summaries, the simulated-statistics
//! fingerprint, `nproc`, the daemon's `--jobs` and the commit. The exit
//! status is 1 when any output was wrong, 2 on a usage or environment
//! error.

mod serve;
mod stats;
mod sweep;

use near_stream::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("runs_per_s", "runs/s"),
    ("lat_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("workloads.build_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("ir.golden_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("core.host_ns_per_cycle", "ns/cycle"),
    ("core.sim_cycles", "cycles"),
    ("core.total_uops", "count"),
    ("core.offloaded_elems", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l3_misses", "count"),
    ("mem.dram_reads", "count"),
    ("noc.messages", "count"),
    ("noc.byte_hops", "count"),
    ("sweep.queue_wait_ms", "ms"),
    ("sweep.busy_frac", "fraction"),
    ("serve.pool_dispatch_us.p50", "us"),
    ("serve.pool_dispatch_us.p99", "us"),
    ("serve.cache_probe_us.p50", "us"),
    ("serve.simulate_us.p50", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.reorder_hold_us.p99", "us"),
    ("serve.parse_us.p50", "us"),
    ("serve.encode_us.p50", "us"),
    ("serve.deliver_us.p50", "us"),
    ("serve.traced_requests", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("client.wire_us.p50", "us"),
    ("result_cache.hits", "count"),
    ("result_cache.misses", "count"),
    ("result_cache.stores", "count"),
    ("result_cache.lookups", "count"),
    ("result_cache.hit_ratio", "fraction"),
    ("cache.cold.stores", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("lat_p99_ms", "ms"),
    ("max_rps", "req/s"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("fail_ratio", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nscd: PathBuf,
    pub commit: String,
}

/// Named metric values; units come from [`END_TO_END`] / [`PER_LAYER`].
pub type Metrics = Vec<(&'static str, f64)>;

/// What one workload measured.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    detail: Vec<(String, String)>,
}

impl Report {
    /// Adds a field to the detail line; `json` is a rendered JSON value.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_owned(), json));
    }
}

/// Exact simulated statistics, summed over runs: the fingerprint a
/// simulator-only speed-up must leave unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Fingerprint {
    pub cycles: u64,
    total_uops: f64,
    offloaded_elems: u64,
    l1_misses: u64,
    l3_misses: u64,
    dram_reads: u64,
    noc_messages: u64,
    noc_byte_hops: u64,
}

impl Fingerprint {
    pub fn of(r: &RunResult) -> Fingerprint {
        Fingerprint {
            cycles: r.cycles,
            total_uops: r.total_uops,
            offloaded_elems: r.offloaded_elems,
            l1_misses: r.mem.l1_misses,
            l3_misses: r.mem.l3_misses,
            dram_reads: r.mem.dram_reads,
            noc_messages: r.traffic.messages,
            noc_byte_hops: r.traffic.total(),
        }
    }

    pub fn add(&mut self, o: &Fingerprint) {
        self.cycles += o.cycles;
        self.total_uops += o.total_uops;
        self.offloaded_elems += o.offloaded_elems;
        self.l1_misses += o.l1_misses;
        self.l3_misses += o.l3_misses;
        self.dram_reads += o.dram_reads;
        self.noc_messages += o.noc_messages;
        self.noc_byte_hops += o.noc_byte_hops;
    }

    /// The per-layer metrics it feeds.
    pub fn metrics(&self) -> Metrics {
        vec![
            ("core.sim_cycles", self.cycles as f64),
            ("core.total_uops", self.total_uops),
            ("core.offloaded_elems", self.offloaded_elems as f64),
            ("mem.l1_misses", self.l1_misses as f64),
            ("mem.l3_misses", self.l3_misses as f64),
            ("mem.dram_reads", self.dram_reads as f64),
            ("noc.messages", self.noc_messages as f64),
            ("noc.byte_hops", self.noc_byte_hops as f64),
        ]
    }

    pub fn json(&self) -> String {
        let items: Vec<String> = self
            .metrics()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", stats::num(*v)))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// Renders `[a,b,..]`.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| stats::num(v)).collect();
    format!("[{}]", items.join(","))
}

/// Peak resident set (`VmHWM`) of a live process, in MB; 0 when
/// `/proc` cannot tell.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        nscd: PathBuf::new(),
        commit: "unknown".to_owned(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let val = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val:?}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => args.seconds = val.parse().map_err(bad)?,
            "--trace" => args.trace = val.parse::<u8>().map_err(bad)? != 0,
            "--nscd" => args.nscd = PathBuf::from(val),
            "--commit" => args.commit = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn render(table: &[(&str, &str)], values: &Metrics) -> Result<String, String> {
    let mut out = Vec::new();
    for (name, unit) in table {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        out.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            stats::num(v)
        ));
    }
    for (name, _) in values {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not declared"));
        }
    }
    Ok(out.join(","))
}

fn main() -> ExitCode {
    // The benchmark's own process must not inherit a result-cache or
    // chaos setting: the in-process references run with the cache
    // disarmed and no fault plan.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("NSC_") {
            std::env::remove_var(k);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "sim_sweep" => Ok(sweep::run(&args)),
        "serve_warm" => serve::run(&args, serve::Kind::Warm),
        "serve_cold" => serve::run(&args, serve::Kind::Cold),
        other => Err(format!(
            "unknown workload {other:?} (want sim_sweep|serve_warm|serve_cold)"
        )),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.detail("workload", format!("\"{}\"", args.workload));
    report.detail("seed", args.seed.to_string());
    report.detail("seconds", args.seconds.to_string());
    report.detail("nproc", nproc.to_string());
    report.detail(
        "commit",
        format!("\"{}\"", args.commit.replace(['"', '\\'], "")),
    );
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.e2e)
    };
    let metrics = match render(table, values) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let detail: Vec<String> = report
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"detail\":{{{}}}}}", detail.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("nsbench: some outputs were wrong; see the detail line");
        ExitCode::from(1)
    }
}
