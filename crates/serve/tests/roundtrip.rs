//! End-to-end daemon test: a real Unix socket, a real server thread,
//! and the acceptance-gate property — a run submitted through `nscd`
//! returns the same `RunResult` as an in-process `RunRequest::run()`.

use near_stream::request::encode;
use near_stream::ExecMode;
use nsc_serve::client::roundtrip;
use nsc_serve::Request;
use nsc_sim::fault::FaultStats;
use nsc_workloads::Size;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_socket(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("nscd-test-{tag}-{}.sock", std::process::id()));
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

#[test]
fn daemon_roundtrip_matches_in_process() {
    let socket = temp_socket("roundtrip");
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || nsc_serve::server::serve(&socket, 2))
    };
    wait_for(&socket);

    let run = |id, name: &str| Request::Run {
        id,
        request_id: 0, // daemon mints one
        workload: name.to_owned(),
        size: Size::Tiny,
        mode: ExecMode::Ns,
        deadline_ms: 0,
    };
    let reqs = [
        run(1, "histogram"),
        run(2, "bin_tree"),
        run(3, "nope-not-a-workload"),
        Request::Status { id: 4 },
        Request::Metrics { id: 5 },
        Request::Flush { id: 6 },
        Request::Shutdown { id: 7 },
    ];
    let resps = roundtrip(&socket, &reqs).expect("daemon round trip");
    assert_eq!(resps.len(), reqs.len(), "one response per request");
    // Submission order survives the pool: response i answers request i.
    for (req, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.get_num("id"), Some(req.id()), "got {}", resp.render());
    }

    // The headline property: the daemon's result is the in-process
    // result, bit for bit (compared through the exact codec).
    for (resp, name) in [(&resps[0], "histogram"), (&resps[1], "bin_tree")] {
        assert_eq!(resp.get_bool("ok"), Some(true), "got {}", resp.render());
        let daemon = nsc_serve::decode_response_blob(resp).expect("blob decodes").result;
        let w = nsc_workloads::by_name(name, Size::Tiny).unwrap();
        let p = nsc_bench::prepare(w);
        let cfg = nsc_bench::system_for(Size::Tiny);
        let (local, _mem) = p.request(ExecMode::Ns, &cfg).run();
        assert_eq!(
            encode(&daemon, &FaultStats::default()),
            encode(&local, &FaultStats::default()),
            "{name}: daemon result differs from in-process run"
        );
    }

    let bad = &resps[2];
    assert_eq!(bad.get_bool("ok"), Some(false));
    assert!(bad.get_str("error").unwrap_or("").contains("unknown workload"));

    let status = &resps[3];
    assert_eq!(status.get_bool("ok"), Some(true));
    assert!(status.get_num("served") >= Some(2), "got {}", status.render());
    assert!(status.get_num("jobs").is_some());
    assert!(status.get_num("uptime_ms").is_some(), "got {}", status.render());
    assert!(status.get_num("in_flight").is_some(), "got {}", status.render());

    // The metrics snapshot rides the same ordered stream, so by delivery
    // time both earlier runs have been absorbed into the global registry.
    let metrics = &resps[4];
    assert_eq!(metrics.get_bool("ok"), Some(true), "got {}", metrics.render());
    assert_eq!(metrics.get_str("schema"), Some("nsc-metrics-v1"));
    let snap = nsc_sim::json::parse(metrics.get_str("snapshot").expect("snapshot field"))
        .expect("snapshot is valid JSON");
    assert_eq!(
        snap.get("schema").and_then(nsc_sim::json::Json::as_str),
        Some("nsc-metrics-v1")
    );
    let counters = snap
        .get("counters")
        .and_then(nsc_sim::json::Json::as_obj)
        .expect("counters section");
    let count = |label: &str| {
        counters.get(label).and_then(nsc_sim::json::Json::as_f64).unwrap_or_else(|| {
            panic!("counter {label} missing from snapshot")
        })
    };
    assert!(count("serve.requests") >= 3.0, "all three runs counted");
    assert!(count("serve.runs") >= 2.0, "successful runs counted");
    assert!(count("serve.errors") >= 1.0, "the bad workload counted");
    assert!(count("engine.iterations") > 0.0, "simulations fed the registry");
    assert!(count("mem.l1.hits") > 0.0, "memory system fed the registry");

    assert_eq!(resps[5].get_bool("ok"), Some(true), "flush");
    assert_eq!(resps[6].get_bool("ok"), Some(true), "shutdown");

    // `shutdown` was honored: the serve loop returns and unlinks the
    // socket.
    server.join().expect("server thread").expect("serve() result");
    assert!(!socket.exists(), "socket removed on shutdown");
}

#[test]
fn daemon_survives_disconnect_without_shutdown() {
    let socket = temp_socket("disconnect");
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || nsc_serve::server::serve(&socket, 1))
    };
    wait_for(&socket);

    // A connection that never says shutdown must not stop the daemon.
    let resps = roundtrip(&socket, &[Request::Status { id: 1 }]).expect("first connection");
    assert_eq!(resps.len(), 1);
    // A second connection still works, and shuts the daemon down.
    let resps =
        roundtrip(&socket, &[Request::Shutdown { id: 2 }]).expect("second connection");
    assert_eq!(resps[0].get_bool("ok"), Some(true));
    server.join().expect("server thread").expect("serve() result");
}
