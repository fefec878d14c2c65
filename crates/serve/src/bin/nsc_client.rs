//! `nsc-client` — CLI for the `nscd` simulation daemon.
//!
//! ```text
//! nsc-client submit [--socket PATH] [--size S] [--mode M] [--local] [--latency] WORKLOAD...
//! nsc-client status [--socket PATH]
//! nsc-client metrics [--socket PATH] [--prom] [--watch N]
//! nsc-client logs   [--socket PATH]
//! nsc-client trace  [--socket PATH] [--perfetto FILE] REQUEST_ID
//! nsc-client inspect [--socket PATH] [--key HEX] [--local]
//! nsc-client timeline [--socket PATH] [--since N] [--follow]
//! nsc-client health [--socket PATH]
//! nsc-client dashboard [--socket PATH] --out FILE
//! nsc-client flush  [--socket PATH]
//! nsc-client shutdown [--socket PATH]
//! ```
//!
//! `submit` mints a 64-bit request id per workload (printed as
//! `rid=<hex>`); `trace` takes that hex id back and prints the request's
//! span tree, optionally writing a combined Perfetto document (serve
//! spans + that run's simulator events) with `--perfetto`.

use near_stream::ExecMode;
use nsc_serve::client::{default_socket, roundtrip, roundtrip_retry, RetryPolicy};
use nsc_serve::{decode_response_blob, execute, inspect_body, InspectBody, Request, Response};
use nsc_sim::json::{parse, Json};
use nsc_workloads::Size;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "nsc-client — talk to the nscd simulation daemon

Usage:
  nsc-client submit [OPTIONS] WORKLOAD...   run workloads (one request each)
  nsc-client status [--socket PATH]         daemon + cache counters
  nsc-client metrics [--socket PATH]        live metrics-registry snapshot
  nsc-client logs   [--socket PATH]         drain the daemon's log flight recorder
  nsc-client trace  [OPTIONS] REQUEST_ID    one request's span tree (hex id from submit)
  nsc-client inspect [OPTIONS]              result-cache report (hits, misses, records on disk)
  nsc-client timeline [OPTIONS]             sampled telemetry frames as ndjson
  nsc-client health [--socket PATH]         SLO verdict (ok | degraded | failing)
  nsc-client dashboard --out FILE           self-contained HTML dashboard
  nsc-client flush  [--socket PATH]         wait for in-flight runs to finish
  nsc-client shutdown [--socket PATH]       graceful daemon shutdown

Options:
  --socket PATH    daemon socket (default $NSCD_SOCKET or /tmp/nscd.sock)
  --size S         tiny | small | full   (default small)
  --mode M         execution mode label, e.g. Base, NS, NS-decouple (default NS)
  --local          run in-process instead of contacting the daemon
  --latency        print each submit's per-span latency breakdown
  --deadline-ms N  per-request deadline; expired runs come back as typed sheds
  --retries N      retry budget for overloaded/shutting_down sheds
                   (default $NSC_RETRIES or 3; 0 disables)
  --retry-base-ms N  first backoff step, doubling per attempt (default 100)
  --retry-seed N   jitter seed — fixed seed, deterministic schedule
  --timeout-ms N   per-read socket timeout, 0 blocks forever (default 30000)
  --prom           render metrics in Prometheus text exposition format
  --watch N        clear + re-render metrics every N seconds, with counter deltas
  --perfetto FILE  (trace) also write a combined Perfetto trace document
  --key HEX        (inspect) probe one 32-hex-digit cache key's record
  --since N        (timeline) only frames with seq > N (cursor pagination)
  --follow         (timeline) keep polling and stream new frames as they land
  --out FILE       (dashboard) where to write the HTML document
  -h, --help       print this help

Retried submissions reuse their request id, so a run whose response was
lost is deduplicated by the daemon instead of simulated twice.";

struct Opts {
    socket: PathBuf,
    size: Size,
    mode: ExecMode,
    local: bool,
    latency: bool,
    deadline_ms: u64,
    retry: RetryPolicy,
    prom: bool,
    watch: Option<u64>,
    perfetto: Option<PathBuf>,
    key: Option<String>,
    since: u64,
    follow: bool,
    out: Option<PathBuf>,
    words: Vec<String>,
}

fn parse_opts(mut argv: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        socket: default_socket(),
        size: Size::Small,
        mode: ExecMode::Ns,
        local: false,
        latency: false,
        deadline_ms: 0,
        retry: RetryPolicy::from_env(),
        prom: false,
        watch: None,
        perfetto: None,
        key: None,
        since: 0,
        follow: false,
        out: None,
        words: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                exit(0);
            }
            "--socket" => o.socket = PathBuf::from(req_val(&mut argv, "--socket")),
            "--size" => {
                let v = req_val(&mut argv, "--size");
                o.size = nsc_bench::size_from_str(&v)
                    .unwrap_or_else(|| die(&format!("unknown size: {v}")));
            }
            "--mode" => {
                let v = req_val(&mut argv, "--mode");
                o.mode = ExecMode::parse(&v)
                    .unwrap_or_else(|| die(&format!("unknown mode: {v}")));
            }
            "--local" => o.local = true,
            "--latency" => o.latency = true,
            "--deadline-ms" => o.deadline_ms = req_num(&mut argv, "--deadline-ms"),
            "--retries" => o.retry.max_retries = req_num(&mut argv, "--retries") as u32,
            "--retry-base-ms" => o.retry.base_ms = req_num(&mut argv, "--retry-base-ms"),
            "--retry-seed" => o.retry.seed = req_num(&mut argv, "--retry-seed"),
            "--timeout-ms" => o.retry.read_timeout_ms = req_num(&mut argv, "--timeout-ms"),
            "--prom" => o.prom = true,
            "--watch" => {
                let v = req_val(&mut argv, "--watch");
                let n = v.parse::<u64>().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    die(&format!("--watch wants a positive integer, got {v:?}"))
                });
                o.watch = Some(n);
            }
            "--perfetto" => o.perfetto = Some(PathBuf::from(req_val(&mut argv, "--perfetto"))),
            "--key" => o.key = Some(req_val(&mut argv, "--key")),
            "--since" => o.since = req_num(&mut argv, "--since"),
            "--follow" => o.follow = true,
            "--out" => o.out = Some(PathBuf::from(req_val(&mut argv, "--out"))),
            w if w.starts_with('-') => die(&format!("unknown flag: {w}")),
            _ => o.words.push(a),
        }
    }
    o
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { die("missing subcommand") };
    match cmd.as_str() {
        "-h" | "--help" => println!("{USAGE}"),
        "submit" => submit(parse_opts(argv)),
        "metrics" => metrics_cmd(parse_opts(argv)),
        "logs" => logs_cmd(parse_opts(argv)),
        "trace" => trace_cmd(parse_opts(argv)),
        "inspect" => inspect_cmd(parse_opts(argv)),
        "timeline" => timeline_cmd(parse_opts(argv)),
        "health" => health_cmd(parse_opts(argv)),
        "dashboard" => dashboard_cmd(parse_opts(argv)),
        "status" | "flush" | "shutdown" => {
            let o = parse_opts(argv);
            if !o.words.is_empty() {
                die(&format!("{cmd} takes no positional arguments"));
            }
            let req = match cmd.as_str() {
                "status" => Request::Status { id: 0 },
                "flush" => Request::Flush { id: 0 },
                _ => Request::Shutdown { id: 0 },
            };
            match roundtrip(&o.socket, &[req]) {
                Ok(resps) => {
                    for r in &resps {
                        // The raw protocol line first (scripts grep it),
                        // then a human-oriented summary for `status`.
                        println!("{}", r.render());
                        if cmd == "status" && r.get_bool("ok") == Some(true) {
                            print_status_summary(r);
                        }
                    }
                }
                Err(e) => die(&format!("{}: {e}", o.socket.display())),
            }
        }
        other => die(&format!("unknown subcommand: {other}")),
    }
}

fn print_status_summary(r: &nsc_serve::json::Obj) {
    let uptime_s = r.get_num("uptime_ms").unwrap_or(0) as f64 / 1e3;
    eprintln!(
        "  uptime {uptime_s:.1}s, {} completed, {} in flight, cache {}/{} hit/miss ({}), {} workers",
        r.get_num("served").unwrap_or(0),
        r.get_num("in_flight").unwrap_or(0),
        r.get_num("cache_hits").unwrap_or(0),
        r.get_num("cache_misses").unwrap_or(0),
        if r.get_bool("cache_enabled") == Some(true) { "enabled" } else { "disabled" },
        r.get_num("jobs").unwrap_or(0),
    );
    eprintln!(
        "  queue {}/{}, connections {}/{}",
        r.get_num("queue_depth").unwrap_or(0),
        r.get_num("queue_cap").unwrap_or(0),
        r.get_num("conns").unwrap_or(0),
        r.get_num("max_conns").unwrap_or(0),
    );
}

/// `nsc-client metrics`: one status + one metrics request per poll; the
/// nested `nsc-metrics-v1` snapshot travels as an escaped string and is
/// re-parsed here with the full JSON parser.
///
/// Watch mode also fetches the daemon's latest timeline frame, so the
/// headline rates (req/s, shed/s, windowed p50/p99) are daemon-side
/// deltas — consistent for every watcher — instead of client-side
/// subtraction. The per-counter delta column is still client-side, but
/// a counter that goes *backwards* (daemon restarted mid-watch) renders
/// a `reset` marker instead of a bogus huge delta.
fn metrics_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("metrics takes no positional arguments");
    }
    // Previous tick's counter values, so watch mode can show deltas.
    let mut prev: Option<std::collections::BTreeMap<String, f64>> = None;
    let mut tick = 0u64;
    loop {
        let reqs = [Request::Status { id: 1 }, Request::Metrics { id: 2 }];
        let resps = match roundtrip(&o.socket, &reqs) {
            Ok(r) => r,
            Err(e) => die(&format!("{}: {e}", o.socket.display())),
        };
        let status = resps.first().filter(|r| r.get_bool("ok") == Some(true));
        let snap_line = resps
            .get(1)
            .filter(|r| r.get_bool("ok") == Some(true))
            .and_then(|r| r.get_str("snapshot"))
            .unwrap_or_else(|| die("daemon did not answer the metrics request"));
        let snap = parse(snap_line)
            .unwrap_or_else(|e| die(&format!("bad metrics snapshot from daemon: {e}")));
        let text = if o.prom {
            render_prom(status, &snap)
        } else {
            render_human(status, &snap, prev.as_ref())
        };
        match o.watch {
            Some(secs) => {
                // Clear + home, then redraw in place: under load the eye
                // stays on one position and the delta column shows what
                // moved this tick.
                tick += 1;
                print!("\x1b[2J\x1b[H");
                println!("nsc-client metrics --watch {secs}  (tick {tick}, ctrl-c to stop)");
                println!("{}", window_headline(&o));
                print!("{text}");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                prev = Some(counter_values(&snap));
                std::thread::sleep(std::time::Duration::from_secs(secs));
            }
            None => {
                print!("{text}");
                break;
            }
        }
    }
}

/// The daemon-side per-window rates headline for watch mode, from the
/// newest timeline frame (empty-signal fields render as `-`).
fn window_headline(o: &Opts) -> String {
    let resps = match roundtrip(&o.socket, &[Request::Timeline { id: 3, since: 0 }]) {
        Ok(r) => r,
        Err(_) => return "window: (timeline unavailable)".to_owned(),
    };
    let Some(resp) = resps.into_iter().next().filter(|r| r.get_bool("ok") == Some(true)) else {
        return "window: (timeline unavailable)".to_owned();
    };
    if resp.get_num("sample_ms") == Some(0) {
        return "window: (sampler disabled: NSC_SAMPLE_MS=0)".to_owned();
    }
    let Some(last) = resp.get_str("frames").unwrap_or("").lines().last().map(str::to_owned)
    else {
        return "window: (no frames yet)".to_owned();
    };
    let Ok(f) = parse(&last) else { return "window: (bad frame)".to_owned() };
    let num = |k: &str| f.get(k).and_then(Json::as_f64);
    let opt = |k: &str| num(k).map(fmt_stat).unwrap_or_else(|| "-".to_owned());
    format!(
        "window: {}ms  req/s {}  shed/s {}  p50 {}µs  p99 {}µs  hit {}",
        num("window_ms").unwrap_or(0.0),
        opt("req_s"),
        opt("shed_s"),
        opt("p50_us"),
        opt("p99_us"),
        opt("hit_rate"),
    )
}

/// Flattens the snapshot's counters object into name → value.
fn counter_values(snap: &Json) -> std::collections::BTreeMap<String, f64> {
    obj(snap, "counters")
        .into_iter()
        .flatten()
        .map(|(label, v)| (label.clone(), v.as_f64().unwrap_or(0.0)))
        .collect()
}

/// `noc.byte_hops` -> `nsc_noc_byte_hops` (Prometheus metric names allow
/// `[a-zA-Z0-9_:]` only).
fn prom_name(label: &str) -> String {
    let mut out = String::with_capacity(label.len() + 4);
    out.push_str("nsc_");
    for c in label.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

fn obj<'a>(doc: &'a Json, key: &str) -> Option<&'a std::collections::BTreeMap<String, Json>> {
    doc.get(key).and_then(Json::as_obj)
}

fn render_prom(status: Option<&nsc_serve::json::Obj>, snap: &Json) -> String {
    let mut out = String::new();
    if let Some(st) = status {
        for key in [
            "uptime_ms",
            "served",
            "in_flight",
            "queue_depth",
            "queue_cap",
            "conns",
            "max_conns",
            "cache_hits",
            "cache_misses",
            "jobs",
        ] {
            if let Some(v) = st.get_num(key) {
                let name = prom_name(&format!("daemon.{key}"));
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
        }
    }
    for (label, v) in obj(snap, "counters").into_iter().flatten() {
        let name = prom_name(label) + "_total";
        let v = v.as_f64().unwrap_or(0.0);
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (label, v) in obj(snap, "gauges").into_iter().flatten() {
        let name = prom_name(label);
        let v = v.as_f64().unwrap_or(0.0);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    for (label, h) in obj(snap, "histograms").into_iter().flatten() {
        let name = prom_name(label);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, key) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
            if let Some(v) = h.get(key).and_then(Json::as_f64) {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        out.push_str(&format!(
            "{name}_count {}\n",
            h.get("count").and_then(Json::as_f64).unwrap_or(0.0)
        ));
    }
    for (label, p) in obj(snap, "profile").into_iter().flatten() {
        let component = p.get("component").and_then(Json::as_str).unwrap_or("?");
        let sel = format!("{{kind=\"{label}\",component=\"{component}\"}}");
        out.push_str(&format!(
            "nsc_profile_events_total{sel} {}\n",
            p.get("events").and_then(Json::as_f64).unwrap_or(0.0)
        ));
        out.push_str(&format!(
            "nsc_profile_cycles_total{sel} {}\n",
            p.get("cycles").and_then(Json::as_f64).unwrap_or(0.0)
        ));
    }
    out
}

fn render_human(
    status: Option<&nsc_serve::json::Obj>,
    snap: &Json,
    prev: Option<&std::collections::BTreeMap<String, f64>>,
) -> String {
    let mut out = String::new();
    if let Some(st) = status {
        let uptime_s = st.get_num("uptime_ms").unwrap_or(0) as f64 / 1e3;
        out.push_str(&format!(
            "daemon: up {uptime_s:.1}s, {} completed, {} in flight, queue {}/{}, conns {}/{}, cache {}/{} hit/miss, {} workers\n",
            st.get_num("served").unwrap_or(0),
            st.get_num("in_flight").unwrap_or(0),
            st.get_num("queue_depth").unwrap_or(0),
            st.get_num("queue_cap").unwrap_or(0),
            st.get_num("conns").unwrap_or(0),
            st.get_num("max_conns").unwrap_or(0),
            st.get_num("cache_hits").unwrap_or(0),
            st.get_num("cache_misses").unwrap_or(0),
            st.get_num("jobs").unwrap_or(0),
        ));
    }
    out.push_str("counters:\n");
    for (label, v) in obj(snap, "counters").into_iter().flatten() {
        let v = v.as_f64().unwrap_or(0.0);
        if v != 0.0 {
            match prev {
                Some(p) => {
                    // A counter that went backwards means the daemon
                    // restarted (fresh registry) under our watch: mark
                    // the reset instead of printing a bogus negative
                    // (or, with `+`, nonsensical) delta.
                    let delta = v - p.get(label).copied().unwrap_or(0.0);
                    let cell = if delta < 0.0 { "reset".to_owned() } else { format!("+{delta}") };
                    out.push_str(&format!("  {label:40} {v:>12} {cell:>10}\n"));
                }
                None => out.push_str(&format!("  {label:40} {v}\n")),
            }
        }
    }
    out.push_str("gauges:\n");
    for (label, v) in obj(snap, "gauges").into_iter().flatten() {
        out.push_str(&format!("  {label:40} {}\n", v.as_f64().unwrap_or(0.0)));
    }
    out.push_str("histograms:\n");
    for (label, h) in obj(snap, "histograms").into_iter().flatten() {
        let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        if count == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "  {label:40} n={count} mean={:.2} p50={} p90={} p99={}\n",
            h.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
            fmt_q(h.get("p50")),
            fmt_q(h.get("p90")),
            fmt_q(h.get("p99")),
        ));
    }
    out.push_str("profile:\n");
    for (label, p) in obj(snap, "profile").into_iter().flatten() {
        let events = p.get("events").and_then(Json::as_f64).unwrap_or(0.0);
        if events == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "  {label:40} events={events} cycles={}\n",
            p.get("cycles").and_then(Json::as_f64).unwrap_or(0.0),
        ));
    }
    out
}

fn fmt_q(v: Option<&Json>) -> String {
    match v.and_then(Json::as_f64) {
        Some(x) => format!("{x:.1}"),
        None => "-".to_owned(),
    }
}

/// Mints client-side request ids: time- and pid-seeded so concurrent
/// clients against one daemon do not collide, never 0 (0 = "unset").
fn rid_minter() -> impl FnMut() -> u64 {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ (std::process::id() as u64).rotate_left(32);
    let mut rng = nsc_sim::rng::Rng::seed_from_u64(seed);
    move || loop {
        let rid = rng.next_u64();
        if rid != 0 {
            return rid;
        }
    }
}

fn submit(o: Opts) {
    if o.words.is_empty() {
        die("submit needs at least one workload name");
    }
    if o.local {
        for w in &o.words {
            match execute(w, o.size, o.mode) {
                Ok(out) => println!(
                    "{w:12} {:12} cycles={} cached={}",
                    o.mode.label(),
                    out.result.cycles,
                    out.cached
                ),
                Err(e) => die(&e),
            }
        }
        return;
    }
    let mut mint = rid_minter();
    let reqs: Vec<Request> = o
        .words
        .iter()
        .enumerate()
        .map(|(i, w)| Request::Run {
            id: i as u64 + 1,
            request_id: mint(),
            workload: w.clone(),
            size: o.size,
            mode: o.mode,
            deadline_ms: o.deadline_ms,
        })
        .collect();
    let outcome = match roundtrip_retry(&o.socket, &reqs, &o.retry) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    if outcome.retries > 0 {
        eprintln!("  {} request(s) resubmitted after typed sheds", outcome.retries);
    }
    let mut failed = false;
    for resp in &outcome.resps {
        if resp.get_bool("ok") == Some(true) {
            let cycles = decode_response_blob(resp)
                .map(|c| c.result.cycles)
                .or_else(|| resp.get_num("cycles"))
                .unwrap_or(0);
            println!(
                "{:12} {:12} cycles={cycles} cached={} rid={:016x}",
                resp.get_str("workload").unwrap_or("?"),
                resp.get_str("mode").unwrap_or("?"),
                resp.get_bool("cached").unwrap_or(false),
                resp.get_num("request_id").unwrap_or(0),
            );
            if o.latency {
                match resp.get_str("latency").map(parse) {
                    Some(Ok(tree)) => print!("{}", render_span_rows(&tree)),
                    _ => eprintln!("  (no latency breakdown in response)"),
                }
            }
        } else {
            failed = true;
            match resp.get_str("shed") {
                Some(reason) => eprintln!(
                    "request {} shed ({reason}): {}",
                    resp.get_num("id").unwrap_or(0),
                    resp.get_str("error").unwrap_or("unknown error"),
                ),
                None => eprintln!(
                    "request {} failed: {}",
                    resp.get_num("id").unwrap_or(0),
                    resp.get_str("error").unwrap_or("unknown error"),
                ),
            }
        }
    }
    if failed {
        exit(1);
    }
}

/// `nsc-client logs`: drain the daemon's flight recorder. Record lines
/// (one JSON object each) go to stdout; the drain summary to stderr.
fn logs_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("logs takes no positional arguments");
    }
    let resps = match roundtrip(&o.socket, &[Request::Logs { id: 1 }]) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let resp = resps
        .first()
        .filter(|r| r.get_bool("ok") == Some(true))
        .unwrap_or_else(|| die("daemon did not answer the logs request"));
    print!("{}", resp.get_str("lines").unwrap_or(""));
    eprintln!(
        "  {} records drained, {} dropped since last drain",
        resp.get_num("count").unwrap_or(0),
        resp.get_num("dropped").unwrap_or(0),
    );
}

/// `nsc-client inspect`: report the result cache. The raw protocol line
/// goes to stdout (scripts grep its flat fields); a one-row table goes to
/// stderr. `--key HEX` probes one key's record; `--local` reads this
/// process's cache instead of a daemon's.
fn inspect_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("inspect takes no positional arguments (use --key HEX to probe a key)");
    }
    let body = if o.local {
        let body = inspect_body(nsc_sim::cache::shared(), o.key.as_deref())
            .unwrap_or_else(|e| die(&e));
        println!("{}", Response::Inspect { id: 0, body: body.clone() }.render());
        body
    } else {
        let req = Request::Inspect { id: 1, key: o.key.clone() };
        let resps = match roundtrip(&o.socket, &[req]) {
            Ok(r) => r,
            Err(e) => die(&format!("{}: {e}", o.socket.display())),
        };
        let Some(resp) = resps.first() else { die("daemon did not answer the inspect request") };
        println!("{}", resp.render());
        match Response::from_obj(resp) {
            Some(Response::Inspect { body, .. }) => body,
            Some(Response::Error { error, .. }) => die(&error),
            _ => die("unexpected response to inspect"),
        }
    };
    print_inspect_summary(&body);
}

fn print_inspect_summary(b: &InspectBody) {
    eprintln!("  cache {}", if b.enabled { "enabled" } else { "disabled" });
    eprintln!(
        "  {:>9} {:>9} {:>9} {:>8} {:>11}",
        "hits", "misses", "stores", "entries", "bytes",
    );
    eprintln!(
        "  {:>9} {:>9} {:>9} {:>8} {:>11}",
        b.stats.hits, b.stats.misses, b.stats.stores, b.footprint.entries, b.footprint.bytes,
    );
    if let Some(k) = &b.key {
        eprintln!(
            "  key {}: {} bytes={}",
            k.key,
            if k.present { "present" } else { "absent" },
            k.bytes,
        );
    }
}

/// One `timeline` roundtrip: each frame as its raw wire line (printed
/// verbatim so byte order survives) plus its parsed document, oldest
/// first, with the response's cursor metadata `(latest_seq, sample_ms)`.
fn fetch_frames(o: &Opts, since: u64) -> (Vec<(String, Json)>, u64, u64) {
    let resps = match roundtrip(&o.socket, &[Request::Timeline { id: 1, since }]) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let resp = resps
        .first()
        .filter(|r| r.get_bool("ok") == Some(true))
        .unwrap_or_else(|| die("daemon did not answer the timeline request"));
    let frames = resp
        .get_str("frames")
        .unwrap_or("")
        .lines()
        .map(|l| {
            let doc = parse(l).unwrap_or_else(|e| die(&format!("bad frame from daemon: {e}")));
            (l.to_owned(), doc)
        })
        .collect();
    (frames, resp.get_num("latest_seq").unwrap_or(0), resp.get_num("sample_ms").unwrap_or(0))
}

/// `nsc-client timeline`: dump the daemon's sampled telemetry ring as
/// ndjson (one `nsc-timeline-v1` frame per line). `--since N` pages
/// from a cursor; `--follow` keeps polling at the daemon's sampling
/// interval and streams frames as they land.
fn timeline_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("timeline takes no positional arguments");
    }
    let mut cursor = o.since;
    loop {
        let (frames, latest, sample_ms) = fetch_frames(&o, cursor);
        // write!, not println!: this output exists to be piped (`| head`,
        // `| jq`), and the reader closing early is a normal exit, not a
        // broken-pipe panic.
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        for (line, _) in &frames {
            if writeln!(stdout, "{line}").is_err() {
                return;
            }
        }
        let _ = stdout.flush();
        drop(stdout);
        if !o.follow {
            if frames.is_empty() {
                eprintln!(
                    "  no frames{}",
                    if sample_ms == 0 { " (sampler disabled: NSC_SAMPLE_MS=0)" } else { "" }
                );
            }
            break;
        }
        cursor = cursor.max(latest);
        if sample_ms == 0 {
            die("cannot --follow: the daemon's sampler is disabled (NSC_SAMPLE_MS=0)");
        }
        std::thread::sleep(std::time::Duration::from_millis(sample_ms.max(100)));
    }
}

/// `nsc-client health`: the daemon's SLO verdict. Rule-evidence ndjson
/// goes to stdout (scripts parse it); a human summary to stderr. Exits
/// 0 whenever a verdict was obtained — the verdict itself is data, not
/// an error (watchdogs can grep for `failing`).
fn health_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("health takes no positional arguments");
    }
    let resps = match roundtrip(&o.socket, &[Request::Health { id: 1 }]) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let resp = resps
        .first()
        .filter(|r| r.get_bool("ok") == Some(true))
        .unwrap_or_else(|| die("daemon did not answer the health request"));
    print!("{}", resp.get_str("rules").unwrap_or(""));
    eprintln!(
        "  verdict: {} ({} frames of evidence)",
        resp.get_str("verdict").unwrap_or("?"),
        resp.get_num("frames_seen").unwrap_or(0),
    );
}

/// `nsc-client dashboard --out FILE`: render the daemon's timeline into
/// one self-contained HTML file — inline CSS, hand-rolled inline SVG
/// sparklines, zero external assets, works from file:// offline.
fn dashboard_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("dashboard takes no positional arguments");
    }
    let Some(out_path) = o.out.clone() else { die("dashboard requires --out FILE") };
    let reqs = [Request::Status { id: 1 }, Request::Health { id: 2 }];
    let resps = match roundtrip(&o.socket, &reqs) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let status = resps.first().filter(|r| r.get_bool("ok") == Some(true)).cloned();
    let health = resps.get(1).filter(|r| r.get_bool("ok") == Some(true)).cloned();
    let (frames, latest, sample_ms) = fetch_frames(&o, 0);
    let html = render_dashboard(status.as_ref(), health.as_ref(), &frames, latest, sample_ms);
    if let Err(e) = std::fs::write(&out_path, html) {
        die(&format!("writing {}: {e}", out_path.display()));
    }
    eprintln!("  wrote dashboard ({} frames) to {}", frames.len(), out_path.display());
}

/// Pulls one numeric series out of the parsed frames; `None` entries
/// are windows without signal (rendered as gaps).
fn series(frames: &[(String, Json)], key: &str) -> Vec<Option<f64>> {
    frames.iter().map(|(_, f)| f.get(key).and_then(Json::as_f64)).collect()
}

/// A hand-rolled inline SVG sparkline: one polyline per contiguous run
/// of present values, min/max labels, no external anything.
fn sparkline_svg(vals: &[Option<f64>], w: f64, h: f64) -> String {
    let present: Vec<f64> = vals.iter().filter_map(|v| *v).collect();
    if present.is_empty() {
        return format!(
            "<svg viewBox=\"0 0 {w} {h}\" class=\"spark\"><text x=\"{}\" y=\"{}\" \
             class=\"nodata\">no data</text></svg>",
            w / 2.0,
            h / 2.0,
        );
    }
    let (lo, hi) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = if (hi - lo).abs() < 1e-12 { 1.0 } else { hi - lo };
    let n = vals.len().max(2);
    let x = |i: usize| (i as f64 / (n - 1) as f64) * (w - 4.0) + 2.0;
    let y = |v: f64| h - 14.0 - ((v - lo) / span) * (h - 22.0);
    let mut polylines = String::new();
    let mut run: Vec<String> = Vec::new();
    let mut flush = |run: &mut Vec<String>| {
        match run.len() {
            0 => {}
            // An isolated point has no line to draw; mark it visibly.
            1 => polylines.push_str(&format!(
                "<circle cx=\"{}\" r=\"1.5\" class=\"pt\"/>",
                run[0].replace(',', "\" cy=\"")
            )),
            _ => polylines
                .push_str(&format!("<polyline points=\"{}\" class=\"line\"/>", run.join(" "))),
        }
        run.clear();
    };
    for (i, v) in vals.iter().enumerate() {
        match v {
            Some(v) => run.push(format!("{:.1},{:.1}", x(i), y(*v))),
            None => flush(&mut run),
        }
    }
    flush(&mut run);
    format!(
        "<svg viewBox=\"0 0 {w} {h}\" class=\"spark\">{polylines}\
         <text x=\"2\" y=\"{}\" class=\"lo\">{}</text>\
         <text x=\"2\" y=\"10\" class=\"hi\">{}</text></svg>",
        h - 2.0,
        fmt_stat(lo),
        fmt_stat(hi),
    )
}

/// Compact human number for tiles and sparkline min/max labels.
fn fmt_stat(v: f64) -> String {
    if v.abs() >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v.abs() >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn render_dashboard(
    status: Option<&nsc_serve::json::Obj>,
    health: Option<&nsc_serve::json::Obj>,
    frames: &[(String, Json)],
    latest_seq: u64,
    sample_ms: u64,
) -> String {
    let verdict = health.and_then(|h| h.get_str("verdict")).unwrap_or("unknown").to_owned();
    let mut tiles = String::new();
    let mut tile = |label: &str, value: String, class: &str| {
        tiles.push_str(&format!(
            "<div class=\"tile {class}\"><div class=\"v\">{value}</div>\
             <div class=\"l\">{label}</div></div>"
        ));
    };
    tile("health", verdict.clone(), &format!("verdict-{verdict}"));
    if let Some(st) = status {
        let uptime_s = st.get_num("uptime_ms").unwrap_or(0) as f64 / 1e3;
        tile("uptime", format!("{uptime_s:.0}s"), "");
        tile("completed", fmt_stat(st.get_num("served").unwrap_or(0) as f64), "");
        tile(
            "queue",
            format!(
                "{}/{}",
                st.get_num("queue_depth").unwrap_or(0),
                st.get_num("queue_cap").unwrap_or(0)
            ),
            "",
        );
        tile(
            "conns",
            format!(
                "{}/{}",
                st.get_num("conns").unwrap_or(0),
                st.get_num("max_conns").unwrap_or(0)
            ),
            "",
        );
        tile(
            "cache h/m",
            format!(
                "{}/{}",
                st.get_num("cache_hits").unwrap_or(0),
                st.get_num("cache_misses").unwrap_or(0)
            ),
            "",
        );
        tile("workers", st.get_num("jobs").unwrap_or(0).to_string(), "");
    }
    let mut charts = String::new();
    for (label, key) in [
        ("requests / s", "req_s"),
        ("p50 µs", "p50_us"),
        ("p99 µs", "p99_us"),
        ("p999 µs", "p999_us"),
        ("sheds / s", "shed_s"),
        ("cache hit rate", "hit_rate"),
        ("queue high-water", "queue_hwm"),
    ] {
        charts.push_str(&format!(
            "<div class=\"chart\"><h2>{label}</h2>{}</div>",
            sparkline_svg(&series(frames, key), 280.0, 64.0)
        ));
    }
    let rules = health.and_then(|h| h.get_str("rules")).unwrap_or("").to_owned();
    let mut rule_rows = String::new();
    for line in rules.lines() {
        let Ok(doc) = parse(line) else { continue };
        let Some(rule) = doc.get("rule").and_then(Json::as_str) else { continue };
        let breached = matches!(doc.get("breached"), Some(Json::Bool(true)));
        rule_rows.push_str(&format!(
            "<tr class=\"{}\"><td>{rule}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            if breached { "breach" } else { "pass" },
            doc.get("threshold").and_then(Json::as_f64).map(fmt_stat).unwrap_or_default(),
            doc.get("value").and_then(Json::as_f64).map(fmt_stat).unwrap_or_else(|| "–".into()),
            if breached { "breached" } else { "ok" },
            doc.get("streak").and_then(Json::as_f64).unwrap_or(0.0),
        ));
    }
    format!(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
<title>nscd dashboard</title>\n<style>\n\
body{{background:#14161a;color:#d8dce2;font:14px/1.4 ui-monospace,monospace;margin:24px}}\n\
h1{{font-size:18px;margin:0 0 4px}} h2{{font-size:12px;font-weight:normal;color:#8a93a0;margin:0 0 4px}}\n\
.sub{{color:#8a93a0;font-size:12px;margin-bottom:16px}}\n\
.tiles{{display:flex;flex-wrap:wrap;gap:12px;margin-bottom:20px}}\n\
.tile{{background:#1d2026;border:1px solid #2a2e36;border-radius:6px;padding:10px 16px;min-width:90px}}\n\
.tile .v{{font-size:20px}} .tile .l{{font-size:11px;color:#8a93a0}}\n\
.verdict-ok .v{{color:#5fd38a}} .verdict-degraded .v{{color:#e8c268}} .verdict-failing .v{{color:#e86868}}\n\
.charts{{display:flex;flex-wrap:wrap;gap:16px}}\n\
.chart{{background:#1d2026;border:1px solid #2a2e36;border-radius:6px;padding:10px}}\n\
.spark{{width:280px;height:64px}} .line{{fill:none;stroke:#6aa7e8;stroke-width:1.5}}\n\
.pt{{fill:#6aa7e8}} .lo,.hi,.nodata{{fill:#5c6470;font-size:9px}}\n\
table{{border-collapse:collapse;margin-top:20px}} td,th{{border:1px solid #2a2e36;padding:4px 12px;font-size:12px}}\n\
th{{color:#8a93a0;font-weight:normal;text-align:left}}\n\
.breach td{{color:#e86868}} .pass td:nth-child(4){{color:#5fd38a}}\n\
</style></head><body>\n\
<h1>nscd telemetry</h1>\n\
<div class=\"sub\">{n} frames · latest seq {latest_seq} · sampled every {sample_ms}ms · schema nsc-timeline-v1</div>\n\
<div class=\"tiles\">{tiles}</div>\n\
<div class=\"charts\">{charts}</div>\n\
<table><tr><th>SLO rule</th><th>threshold</th><th>value</th><th>state</th><th>streak</th></tr>{rule_rows}</table>\n\
</body></html>\n",
        n = frames.len(),
    )
}

/// `nsc-client trace REQUEST_ID`: print one request's span tree as
/// awk-friendly rows; `--perfetto FILE` additionally writes a combined
/// serve-spans + sim-events Chrome trace document.
fn trace_cmd(o: Opts) {
    let [rid_word] = o.words.as_slice() else {
        die("trace takes exactly one REQUEST_ID (the hex rid printed by submit)")
    };
    let rid = u64::from_str_radix(rid_word.trim_start_matches("0x"), 16)
        .unwrap_or_else(|_| die(&format!("bad REQUEST_ID (want hex): {rid_word:?}")));
    let req = Request::Trace { id: 1, request_id: rid, perfetto: o.perfetto.is_some() };
    let resps = match roundtrip(&o.socket, &[req]) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let Some(resp) = resps.first() else { die("daemon did not answer the trace request") };
    if resp.get_bool("ok") != Some(true) {
        die(resp.get_str("error").unwrap_or("trace request failed"));
    }
    let tree = resp
        .get_str("tree")
        .map(parse)
        .unwrap_or_else(|| die("trace response carried no tree"))
        .unwrap_or_else(|e| die(&format!("bad span tree from daemon: {e}")));
    println!(
        "request {rid:016x}: wall {}µs, {} spans, {} sim events",
        resp.get_num("wall_us").unwrap_or(0),
        resp.get_num("spans").unwrap_or(0),
        resp.get_num("sim_events").unwrap_or(0),
    );
    print!("{}", render_span_rows(&tree));
    if let Some(path) = &o.perfetto {
        let doc = resp
            .get_str("perfetto")
            .unwrap_or_else(|| die("daemon sent no perfetto document"));
        if let Err(e) = std::fs::write(path, doc) {
            die(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("  wrote combined Perfetto trace to {}", path.display());
    }
}

/// One indented `name start dur` row per span of a parsed
/// `nsc-span-v1` tree.
fn render_span_rows(tree: &Json) -> String {
    let mut out = String::new();
    for s in tree.get("spans").and_then(Json::as_arr).into_iter().flatten() {
        out.push_str(&format!(
            "  {:<14} {:>8}µs {:>8}µs\n",
            s.get("name").and_then(Json::as_str).unwrap_or("?"),
            s.get("start_us").and_then(Json::as_f64).unwrap_or(0.0),
            s.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0),
        ));
    }
    out
}

fn req_val(argv: &mut impl Iterator<Item = String>, flag: &str) -> String {
    argv.next().unwrap_or_else(|| die(&format!("{flag} requires a value")))
}

fn req_num(argv: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    let v = req_val(argv, flag);
    v.parse().unwrap_or_else(|_| die(&format!("{flag} wants an integer, got {v:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("nsc-client: {msg}\n\n{USAGE}");
    exit(2);
}
