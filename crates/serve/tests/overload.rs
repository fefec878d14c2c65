//! Overload behavior against live daemons: bounded admission with
//! typed sheds, deadline enforcement at dequeue, draining shutdown,
//! idempotent resubmission, and the client retry loop. Each test runs
//! its own daemon on its own socket with an explicit [`ServeConfig`]
//! (never env vars — tests in one binary run in parallel threads).

use near_stream::ExecMode;
use nsc_serve::client::{roundtrip, roundtrip_retry, RetryPolicy};
use nsc_serve::server::ServeConfig;
use nsc_serve::Request;
use nsc_sim::json::{parse, Json};
use nsc_workloads::Size;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_socket(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("nscd-load-{tag}-{}.sock", std::process::id()));
    // A stale socket file (earlier panicked run + recycled pid) would
    // satisfy `wait_for` before the daemon binds; clear it first so the
    // path can only reappear as a live listener.
    let _ = std::fs::remove_file(&path);
    path
}

fn wait_for(socket: &Path) {
    // Wait for a live listener, not just the socket file: `exists()`
    // can win the race against the daemon thread between its `bind`
    // and the accept loop coming up, and a stale file would satisfy it
    // with no listener behind it at all. The probe connection is
    // dropped unused; the daemon sees it end at EOF.
    let mut last = None;
    for _ in 0..400 {
        match UnixStream::connect(socket) {
            Ok(_) => return,
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon never came up on {} (last error: {last:?})", socket.display());
}

fn start_daemon(
    tag: &str,
    cfg: ServeConfig,
) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
    let socket = temp_socket(tag);
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || nsc_serve::server::serve_with(&socket, cfg))
    };
    wait_for(&socket);
    (socket, server)
}

/// Polls `status` until the daemon has admitted at least one run
/// (queued, simulating or served).
fn wait_admitted(socket: &Path) {
    for _ in 0..400 {
        let resps = roundtrip(socket, &[Request::Status { id: 1 }]).expect("status");
        let n = |field| resps[0].get_num(field).unwrap_or(0);
        if n("queue_depth") + n("served") > 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon never admitted the run");
}

fn shutdown(socket: &Path, server: std::thread::JoinHandle<std::io::Result<()>>) {
    let resps = roundtrip(socket, &[Request::Shutdown { id: 99 }]).expect("shutdown");
    assert_eq!(resps[0].get_bool("ok"), Some(true));
    server.join().expect("server thread").expect("serve() result");
}

fn run(id: u64, rid: u64, workload: &str, deadline_ms: u64) -> Request {
    Request::Run {
        id,
        request_id: rid,
        workload: workload.to_owned(),
        size: Size::Tiny,
        mode: ExecMode::Ns,
        deadline_ms,
    }
}

#[test]
fn full_admission_queue_sheds_with_retry_hint() {
    // One worker, one queue slot: the first run occupies both; every
    // further cold submit must shed immediately with a typed
    // `overloaded` response and a retry_after_ms hint — never queue.
    let cfg = ServeConfig { jobs: 1, max_conns: 8, queue_cap: 1, deadline_ms: 0, sample_ms: 0, timeline_cap: 16 };
    let (socket, server) = start_daemon("admission", cfg);
    let resps = roundtrip(
        &socket,
        &[run(1, 0, "histogram", 0), run(2, 0, "bin_tree", 0), run(3, 0, "hash_join", 0)],
    )
    .expect("round trip");
    assert_eq!(resps.len(), 3, "every request gets a terminal response");
    assert_eq!(resps[0].get_bool("ok"), Some(true), "got {}", resps[0].render());
    for shed in &resps[1..] {
        assert_eq!(shed.get_bool("ok"), Some(false), "got {}", shed.render());
        assert_eq!(shed.get_str("shed"), Some("overloaded"), "got {}", shed.render());
        assert!(
            shed.get_num("retry_after_ms").unwrap_or(0) >= 1,
            "shed must carry a backoff hint: {}",
            shed.render()
        );
        assert!(nsc_serve::is_retryable_shed(shed));
    }
    // The shed slots were returned: the daemon accepts work again.
    let resps = roundtrip(&socket, &[run(1, 0, "bin_tree", 0)]).expect("after sheds");
    assert_eq!(resps[0].get_bool("ok"), Some(true), "got {}", resps[0].render());
    shutdown(&socket, server);
}

#[test]
fn expired_deadline_sheds_at_dequeue_with_span() {
    // One worker: the second run waits behind the first, its 1ms budget
    // expires in the queue, and it is shed *before* simulating — with
    // the deadline stamped into its span tree.
    let cfg = ServeConfig { jobs: 1, max_conns: 8, queue_cap: 32, deadline_ms: 0, sample_ms: 0, timeline_cap: 16 };
    let (socket, server) = start_daemon("deadline", cfg);
    let resps = roundtrip(
        &socket,
        &[run(1, 0, "histogram", 0), run(2, 0, "bin_tree", 1), run(3, 0, "sssp", 0)],
    )
    .expect("round trip");
    assert_eq!(resps.len(), 3);
    assert_eq!(resps[0].get_bool("ok"), Some(true), "got {}", resps[0].render());
    let shed = &resps[1];
    assert_eq!(shed.get_bool("ok"), Some(false), "got {}", shed.render());
    assert_eq!(shed.get_str("shed"), Some("deadline_exceeded"), "got {}", shed.render());
    assert!(
        !nsc_serve::is_retryable_shed(shed),
        "an expired deadline is terminal, not retryable"
    );
    let latency = shed.get_str("latency").expect("deadline sheds carry their span tree");
    let tree = parse(latency).expect("latency parses");
    let spans = tree.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(
        spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("deadline_exceeded")),
        "deadline_exceeded span missing: {latency}"
    );
    assert!(
        spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("queue_wait")),
        "queue_wait span missing: {latency}"
    );
    // A run with no deadline behind the shed one still completes.
    assert_eq!(resps[2].get_bool("ok"), Some(true), "got {}", resps[2].render());
    shutdown(&socket, server);
}

#[test]
fn shutdown_rejects_new_submits_while_draining() {
    let cfg = ServeConfig { jobs: 1, max_conns: 8, queue_cap: 32, deadline_ms: 0, sample_ms: 0, timeline_cap: 16 };
    let (socket, server) = start_daemon("drain", cfg);
    // Connection A stays interactive: submit one run, leave the
    // connection open.
    let mut a = UnixStream::connect(&socket).expect("conn a");
    writeln!(a, "{}", run(1, 0, "histogram", 0).render()).expect("submit run 1");
    a.flush().expect("flush");
    // Shut down only once run 1 is admitted (or done): the point is that
    // admitted work drains, so the shutdown must not race its admission.
    wait_admitted(&socket);
    // Connection B requests shutdown and sees it acknowledged.
    let resps = roundtrip(&socket, &[Request::Shutdown { id: 1 }]).expect("shutdown");
    assert_eq!(resps[0].get_bool("ok"), Some(true));
    // Back on A: a submit *after* the shutdown ack must be rejected
    // typed — the flag is global and immediate, not racing the drain.
    writeln!(a, "{}", run(2, 0, "bin_tree", 0).render()).expect("submit run 2");
    a.flush().expect("flush");
    a.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut lines = Vec::new();
    for line in BufReader::new(a).lines() {
        lines.push(line.expect("read"));
    }
    assert_eq!(lines.len(), 2, "both submits get terminal responses: {lines:?}");
    // The in-flight run drained and delivered...
    assert!(lines[0].contains("\"ok\":true"), "run 1 must complete: {}", lines[0]);
    // ...while the post-shutdown submit was refused, typed.
    assert!(lines[1].contains("\"ok\":false"), "got: {}", lines[1]);
    assert!(lines[1].contains("\"shed\":\"shutting_down\""), "got: {}", lines[1]);
    server.join().expect("server thread").expect("serve() result");
    assert!(!socket.exists(), "socket removed on shutdown");
}

#[test]
fn resubmitted_request_id_replays_without_resimulating() {
    let cfg = ServeConfig { jobs: 2, max_conns: 8, queue_cap: 32, deadline_ms: 0, sample_ms: 0, timeline_cap: 16 };
    let (socket, server) = start_daemon("dedup", cfg);
    let rid = 0xFACE;
    let first = roundtrip(&socket, &[run(7, rid, "histogram", 0)]).expect("first submit");
    assert_eq!(first[0].get_bool("ok"), Some(true), "got {}", first[0].render());
    assert_eq!(first[0].get_bool("deduped"), None);
    let blob = first[0].get_str("blob").expect("blob").to_owned();

    // Same rid on a NEW connection — the lost-response retry shape.
    let second = roundtrip(&socket, &[run(31, rid, "histogram", 0)]).expect("resubmit");
    let replay = &second[0];
    assert_eq!(replay.get_bool("ok"), Some(true), "got {}", replay.render());
    assert_eq!(replay.get_bool("deduped"), Some(true), "got {}", replay.render());
    assert_eq!(replay.get_num("id"), Some(31), "correlation id rewritten for the new batch");
    assert_eq!(replay.get_str("blob"), Some(blob.as_str()), "replayed result is bit-identical");

    // The dedup is observable in the global registry.
    let metrics = roundtrip(&socket, &[Request::Metrics { id: 1 }]).expect("metrics");
    let snap = parse(metrics[0].get_str("snapshot").expect("snapshot")).expect("snapshot json");
    let replays = snap
        .get("counters")
        .and_then(Json::as_obj)
        .and_then(|c| c.get("serve.dedup_replays"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(replays >= 1.0, "serve.dedup_replays must count the replay, got {replays}");

    // Within ONE connection the same rid is still a duplicate error
    // (same-batch duplicates are bugs, not retries).
    let batch =
        roundtrip(&socket, &[run(1, 0xB0B, "bin_tree", 0), run(2, 0xB0B, "bin_tree", 0)])
            .expect("dup batch");
    assert_eq!(batch[0].get_bool("ok"), Some(true));
    assert_eq!(batch[1].get_bool("ok"), Some(false));
    assert!(
        batch[1].get_str("error").unwrap_or("").contains("duplicate request_id"),
        "got {}",
        batch[1].render()
    );
    shutdown(&socket, server);
}

#[test]
fn client_retry_drains_through_an_overloaded_daemon() {
    // Saturate a one-worker, one-slot daemon, then let the retry loop
    // (deterministic seed, tight backoff) carry every request to a
    // terminal success.
    let cfg = ServeConfig { jobs: 1, max_conns: 8, queue_cap: 1, deadline_ms: 0, sample_ms: 0, timeline_cap: 16 };
    let (socket, server) = start_daemon("retry", cfg);
    let reqs =
        [run(1, 0xA1, "histogram", 0), run(2, 0xA2, "bin_tree", 0), run(3, 0xA3, "sssp", 0)];
    let policy = RetryPolicy {
        max_retries: 10,
        base_ms: 10,
        cap_ms: 200,
        jitter_pct: 20,
        seed: 7,
        read_timeout_ms: 30_000,
    };
    let outcome = roundtrip_retry(&socket, &reqs, &policy).expect("retry roundtrip");
    assert_eq!(outcome.resps.len(), 3);
    assert!(
        outcome.retries >= 1,
        "a saturated daemon must force at least one retry (retries={})",
        outcome.retries
    );
    for (req, resp) in reqs.iter().zip(&outcome.resps) {
        assert_eq!(
            resp.get_bool("ok"),
            Some(true),
            "request {} must converge to success, got {}",
            req.id(),
            resp.render()
        );
    }
    shutdown(&socket, server);
}

#[test]
fn idle_time_on_a_persistent_connection_is_not_charged_to_the_next_request() {
    // The request clock starts when a line's first byte arrives. A client
    // that sits idle on an open connection for longer than its next
    // run's deadline must still be served, and that run's span tree must
    // not contain the idle time.
    let cfg = ServeConfig { jobs: 1, max_conns: 8, queue_cap: 32, deadline_ms: 0, sample_ms: 0, timeline_cap: 16 };
    let (socket, server) = start_daemon("idle", cfg);
    let idle = Duration::from_millis(600);
    let mut conn = UnixStream::connect(&socket).expect("connect");
    std::thread::sleep(idle);
    let submitted = Instant::now();
    writeln!(conn, "{}", run(1, 0x1D1E, "histogram", 200).render()).expect("submit");
    conn.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line).expect("response");
    let client_us = submitted.elapsed().as_micros() as f64;
    let resp = nsc_serve::json::Obj::parse(line.trim_end()).expect("response parses");
    assert_eq!(resp.get_bool("ok"), Some(true), "idle time was charged to the deadline: {line}");
    let tree = parse(resp.get_str("latency").expect("latency")).expect("latency parses");
    let wall_us = tree.get("wall_us").and_then(Json::as_f64).expect("wall_us");
    // The daemon's clock must start after the client wrote the line, so
    // its wall fits inside the client's submit-to-response interval; a
    // wall that counted the idle gap would exceed it by ~600 ms. This
    // holds however long the simulation itself takes on a loaded host.
    assert!(
        wall_us <= client_us,
        "span tree wall {wall_us}µs exceeds the client's {client_us}µs since submit: \
         it includes the {idle:?} idle gap"
    );
    drop(conn);
    shutdown(&socket, server);
}
