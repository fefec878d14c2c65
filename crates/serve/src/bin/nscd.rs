//! `nscd` — the near-stream simulation daemon.
//!
//! ```text
//! nscd [--socket PATH] [--jobs N]
//! ```
//!
//! Listens on a Unix socket for newline-delimited JSON run requests
//! (see the `nsc_serve` crate docs for the protocol), batches them
//! across a shared worker pool, and consults the content-addressed
//! result cache before simulating. The cache is armed by default —
//! serving repeated requests from disk is the daemon's reason to exist
//! — set `NSC_CACHE=0` to force every request to simulate.
//!
//! Observability: the daemon logs at `info` unless `NSC_LOG` says
//! otherwise (the flight recorder is drained by `nsc-client logs`),
//! and `NSC_TRACE=1` arms per-request simulator event capture for
//! `nsc-client trace --perfetto`.
//!
//! Overload protection (see `nsc_serve::server`): `NSC_MAX_CONNS`
//! bounds live connections, `NSC_QUEUE_CAP` bounds admitted runs
//! (excess submits get typed `overloaded` sheds with a
//! `retry_after_ms` hint; cache hits are still answered in degraded
//! mode), and `NSC_DEADLINE_MS` sets a default per-run deadline
//! enforced at dequeue.
//!
//! Telemetry timeline (see `nsc_sim::timeline`): a sampler thread
//! snapshots the metrics registry every `NSC_SAMPLE_MS` (default
//! 1000 ms; 0 spawns no thread at all) into a `NSC_TIMELINE_CAP`-frame
//! ring served by the `timeline` op, and the `health` op evaluates it
//! against the `NSC_SLO_*` thresholds into an `ok`/`degraded`/
//! `failing` verdict.

use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "nscd — near-stream simulation daemon

Usage: nscd [--socket PATH] [--jobs N]

Options:
  --socket PATH  Unix socket to listen on (default $NSCD_SOCKET or /tmp/nscd.sock)
  --jobs N       worker threads (default $NSC_JOBS or all cores)
  -h, --help     print this help

Environment:
  NSC_MAX_CONNS    live-connection limit; excess connections get one
                   typed `overloaded` line and are closed (default 64)
  NSC_QUEUE_CAP    admitted-run limit; at saturation cache hits are
                   still served, cache misses are shed with a
                   retry_after_ms hint (default 128)
  NSC_DEADLINE_MS  default per-run deadline, enforced at dequeue;
                   0 disables (default 0)
  NSC_FAULT_RATE   arm deterministic chaos for every run (content-
                   derived plans: replays are bit-identical)
  NSC_SAMPLE_MS    telemetry sampling cadence for the `timeline` op;
                   0 disables the sampler thread entirely (default 1000)
  NSC_TIMELINE_CAP frames kept in the telemetry ring (default 900 —
                   15 minutes at the default cadence)
  NSC_SLO_P99_US   `health` threshold: windowed p99 above this breaches
                   (µs; 0 disables the rule; default 50000)
  NSC_SLO_SHED_RATE `health` threshold: window shed ratio above this
                   breaches (0 disables; default 0.05)
  NSC_SLO_HIT_RATE `health` threshold: window cache hit rate *below*
                   this breaches (default 0 = disabled)

Stop it with `nsc-client shutdown` (graceful: new submits are rejected
with typed `shutting_down` sheds while admitted runs drain).";

fn main() {
    let mut socket: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--socket" => socket = Some(PathBuf::from(req_val(&mut argv, "--socket"))),
            "--jobs" => match req_val(&mut argv, "--jobs").parse() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => die("--jobs wants a positive integer"),
            },
            other => die(&format!("unknown argument: {other}")),
        }
    }
    // The daemon arms the result cache unless the environment already
    // decided (NSC_CACHE=0 keeps it off).
    if std::env::var_os("NSC_CACHE").is_none() {
        std::env::set_var("NSC_CACHE", "1");
    }
    // A daemon without logs is a black box: default the flight recorder
    // to info when NSC_LOG is unset (libraries default to off).
    nsc_sim::log::init(Some(nsc_sim::log::Level::Info));
    let socket = socket.unwrap_or_else(nsc_serve::client::default_socket);
    let jobs = jobs.unwrap_or_else(nsc_sim::pool::jobs_from_env);
    let cfg = nsc_serve::server::ServeConfig::from_env(jobs);
    let cache = if nsc_sim::cache::enabled() {
        // Latches the cache directory from the environment now, so the
        // banner names exactly the directory the serving path uses.
        format!("on ({})", nsc_sim::cache::shared().root().display())
    } else {
        "off".to_owned()
    };
    eprintln!(
        "nscd: listening on {} ({jobs} worker{}, cache {cache}, max_conns {}, queue_cap {})",
        socket.display(),
        if jobs == 1 { "" } else { "s" },
        cfg.max_conns,
        cfg.queue_cap,
    );
    if let Err(e) = nsc_serve::server::serve_with(&socket, cfg) {
        eprintln!("nscd: {e}");
        exit(1);
    }
    eprintln!("nscd: shut down");
}

fn req_val(argv: &mut impl Iterator<Item = String>, flag: &str) -> String {
    argv.next().unwrap_or_else(|| {
        die(&format!("{flag} requires a value"));
    })
}

fn die(msg: &str) -> ! {
    eprintln!("nscd: {msg}\n\n{USAGE}");
    exit(2);
}
