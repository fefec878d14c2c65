//! `nsc_perf` — the pinned-workload performance-regression harness.
//!
//! Runs a fixed set of workloads that exercise every layer of the stack
//! (calendar-queue microbench, expression-evaluation storm, tiny
//! fig09/fig12 subsets, result-cache warm replay, an `nscd` daemon round
//! trip) and writes `results/BENCH_<label>.json` (schema `nsc-perf-v1`):
//! per-workload wall-clock milliseconds plus key *simulated* counters.
//! The sim counters are bit-deterministic, so a comparison can demand
//! exact equality on them while allowing a generous tolerance on wall
//! time:
//!
//! ```text
//! nsc_perf --tiny --label baseline          # write BENCH_baseline.json
//! nsc_perf --compare results/BENCH_baseline.json results/BENCH_current.json
//! nsc_perf --tiny --only expr_storm         # run a single leg
//! ```
//!
//! `--compare` exits non-zero when any sim counter differs or any
//! workload's wall time exceeds `base * tol` (`--wall-tol`, default
//! 2.0). Workloads may also carry a `series` object of *toleranced*
//! floats (serving throughput, tail latency, speedups — quantities
//! derived from host timing that can never be exact); those get a
//! direction-aware factor band (`--serve-tol`, default 3.0). `nsc_load
//! --bench-out` emits a compatible file so serving regressions ride the
//! same gate. Regenerate the committed baseline with `scripts/ci.sh`'s
//! reference recipe (see README "Perf baseline").

use near_stream::ExecMode;
use nsc_bench::{prepare, system_for, Cli};
use nsc_sim::json::{escape, fmt_f64, parse, Json};
use nsc_sim::rng::Rng;
use nsc_sim::cache;
use nsc_sim::{Cycle, EventQueue};
use nsc_workloads::Size;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::time::Instant;

/// One pinned workload's measurements: host wall time plus deterministic
/// simulated counters, plus optional *toleranced* float series (host-
/// timing-derived quantities like throughput that can never be exact).
struct Measurement {
    name: &'static str,
    wall_ms: f64,
    counters: Vec<(String, u64)>,
    /// Toleranced series: keys ending `_rps` / `_x` are higher-is-better,
    /// everything else lower-is-better (see `--serve-tol`).
    series: Vec<(&'static str, f64)>,
}

fn main() {
    // The result cache latches NSC_CACHE on its first query, so the
    // environment must be pinned before anything touches it: cache ON,
    // in a private scratch directory, so the warm-replay workload is
    // reproducible no matter what the caller's environment says.
    let scratch = std::env::temp_dir().join(format!("nsc-perf-cache-{}", std::process::id()));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        std::process::exit(compare_cmd(&argv[1..]));
    }
    std::env::set_var("NSC_CACHE", "1");
    std::env::set_var("NSC_CACHE_DIR", &scratch);

    let cli = Cli::new("nsc_perf", "pinned-workload perf harness (see --compare)")
        .opt("label", "L", "output label: results/BENCH_<L>.json (default current)")
        .opt("only", "NAME", "run only the named workload leg")
        .opt("compare", "BASE NEW", "compare two BENCH files (use as first argument)");
    let args = cli.parse();
    let size = args.size;
    let label = args.opt("label").unwrap_or("current").to_owned();
    let only = args.opt("only").map(str::to_owned);

    type Leg = fn(Size) -> Measurement;
    let legs: [(&str, Leg); 6] = [
        ("calendar_queue", calendar_queue),
        ("expr_storm", expr_storm),
        ("fig09_tiny", fig09_subset),
        ("fig12_tiny", fig12_subset),
        ("cache_warm", cache_warm_replay),
        ("nscd_roundtrip", nscd_roundtrip),
    ];
    if let Some(name) = &only {
        assert!(
            legs.iter().any(|(n, _)| n == name),
            "--only {name}: no such leg (have: {})",
            legs.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
        );
    }
    let mut runs = Vec::new();
    for (name, work) in legs {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        let m = work(size);
        eprintln!("nsc_perf: {:18} {:9.2} ms, {} counters", m.name, m.wall_ms, m.counters.len());
        runs.push(m);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let path = write_bench(&label, size, &runs);
    println!("{}", path.display());
}

/// Calendar-queue microbench: a deterministic push/pop storm through the
/// ring, the same-day tie path and the overflow heap.
fn calendar_queue(size: Size) -> Measurement {
    let events: u64 = match size {
        Size::Tiny => 200_000,
        Size::Small => 1_000_000,
        Size::Paper => 4_000_000,
    };
    let t0 = Instant::now();
    let mut rng = Rng::seed_from_u64(0x9E3779B97F4A7C15);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now = 0u64;
    let mut pushed = 0u64;
    let mut popped = 0u64;
    let mut checksum = 0u64;
    while popped < events {
        if pushed < events && (q.is_empty() || !rng.next_u64().is_multiple_of(3)) {
            // Mostly near-future, occasionally far-future (overflow path).
            let delta = match rng.next_u64() % 16 {
                0 => rng.next_u64() % 100_000,
                1..=5 => 0,
                _ => rng.next_u64() % 96,
            };
            q.push(Cycle(now + delta), pushed);
            pushed += 1;
        } else {
            let (t, seq) = q.pop().expect("queue drained early");
            now = t.0;
            popped += 1;
            checksum = checksum
                .wrapping_mul(0x100000001B3)
                .wrapping_add(t.0 ^ seq);
        }
    }
    Measurement {
        name: "calendar_queue",
        wall_ms: ms(t0),
        counters: vec![
            ("events".into(), events),
            // Masked to 32 bits: counters round-trip through f64 JSON
            // numbers, which are only exact below 2^53.
            ("checksum".into(), checksum & 0xFFFF_FFFF),
            ("final_cycle".into(), now),
        ],
        series: Vec::new(),
    }
}

/// Deep random expression trees evaluated by the tree walker and by the
/// compiled register bytecode (`ExprCode`): pins bit-identity between
/// the two evaluators *and* tracks the compiled path's speedup as a
/// toleranced series. Exp is excluded from the op mix so the checksum
/// stays libm-independent; everything else is IEEE-exact.
fn expr_storm(size: Size) -> Measurement {
    use nsc_ir::{Expr, ExprCode, Scalar, VarId};
    const N_LOCALS: usize = 6;
    const N_PARAMS: u64 = 4;
    let (n_trees, evals) = match size {
        Size::Tiny => (64u64, 2_000u64),
        Size::Small => (128, 8_000),
        Size::Paper => (256, 32_000),
    };

    const BINOPS: [nsc_ir::BinOp; 16] = {
        use nsc_ir::BinOp::*;
        [Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shr, Shl, Lt, Le, Eq, Ne]
    };
    const UNOPS: [nsc_ir::UnOp; 4] = {
        use nsc_ir::UnOp::*;
        [Neg, Not, Abs, Sqrt]
    };
    fn gen_expr(rng: &mut Rng, depth: u32) -> Expr {
        if depth == 0 || rng.gen_range_u64(8) == 0 {
            return match rng.gen_range_u64(4) {
                0 => Expr::imm(rng.next_u64() as i64 % 1_000),
                1 => Expr::immf((rng.gen_f64() - 0.5) * 64.0),
                2 => Expr::param(rng.gen_range_u64(N_PARAMS) as u32),
                _ => Expr::var(VarId(rng.gen_range_u64(N_LOCALS as u64) as u16)),
            };
        }
        match rng.gen_range_u64(10) {
            0 => Expr::un(UNOPS[rng.gen_range_usize(UNOPS.len())], gen_expr(rng, depth - 1)),
            1 => Expr::select(
                gen_expr(rng, depth - 1),
                gen_expr(rng, depth - 1),
                gen_expr(rng, depth - 1),
            ),
            _ => Expr::bin(
                BINOPS[rng.gen_range_usize(BINOPS.len())],
                gen_expr(rng, depth - 1),
                gen_expr(rng, depth - 1),
            ),
        }
    }
    fn locals_for(i: u64) -> [Scalar; N_LOCALS] {
        let mut out = [Scalar::I64(0); N_LOCALS];
        for (j, l) in out.iter_mut().enumerate() {
            let x = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            *l = if j % 2 == 0 {
                Scalar::I64((x as i64) >> 16)
            } else {
                Scalar::F64(((x >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0)
            };
        }
        out
    }
    fn mix(cs: u64, v: Scalar) -> u64 {
        let bits = match v {
            Scalar::I64(x) => x as u64,
            Scalar::F64(x) => x.to_bits(),
        };
        cs.rotate_left(7).wrapping_mul(0x100000001B3) ^ bits
    }

    let t0 = Instant::now();
    let mut rng = Rng::seed_from_u64(0x5DEE_CE66_D5DE_ECE6);
    let trees: Vec<Expr> = (0..n_trees).map(|_| gen_expr(&mut rng, 7)).collect();
    let params = [Scalar::I64(3), Scalar::F64(1.5), Scalar::I64(-7), Scalar::I64(1 << 20)];
    let nodes: u64 = trees.iter().map(|e| e.uops() as u64).sum();

    // Pass 1 — tree walker.
    let t_tree = Instant::now();
    let mut cs_tree = 0u64;
    for i in 0..evals {
        let locals = locals_for(i);
        for e in &trees {
            cs_tree = mix(cs_tree, e.eval(&locals, &params));
        }
    }
    let tree_ms = ms(t_tree);

    // Pass 2 — compiled bytecode (compile + bind amortized inside the
    // timed region, as the plan pass amortizes it over a kernel run).
    let t_bc = Instant::now();
    let mut codes: Vec<(ExprCode, Vec<Scalar>)> = trees
        .iter()
        .map(|e| {
            let c = ExprCode::compile(e, N_LOCALS as u16);
            let mut regs = Vec::new();
            c.bind(&params, &mut regs);
            (c, regs)
        })
        .collect();
    let bc_ops: u64 = codes.iter().map(|(c, _)| c.op_count() as u64).sum();
    let mut cs_bc = 0u64;
    for i in 0..evals {
        let locals = locals_for(i);
        for (c, regs) in &mut codes {
            cs_bc = mix(cs_bc, c.eval(&locals, regs));
        }
    }
    let bc_ms = ms(t_bc);
    assert_eq!(
        cs_tree, cs_bc,
        "bytecode and tree walker diverged over {n_trees} trees x {evals} evals"
    );
    let speedup = tree_ms / bc_ms.max(1e-6);
    eprintln!("nsc_perf: expr_storm tree {tree_ms:.2} ms, bytecode {bc_ms:.2} ms ({speedup:.2}x)");
    Measurement {
        name: "expr_storm",
        wall_ms: ms(t0),
        counters: vec![
            ("trees".into(), n_trees),
            ("evals".into(), evals),
            ("nodes".into(), nodes),
            ("bc_ops".into(), bc_ops),
            ("checksum".into(), cs_tree & 0xFFFF_FFFF),
        ],
        series: vec![("speedup_x", (speedup * 1e3).round() / 1e3)],
    }
}

/// The first workloads of the figure-9 sweep under Base and NS: an
/// end-to-end engine + memory + NoC regression anchor.
fn fig09_subset(size: Size) -> Measurement {
    let cfg = system_for(size);
    let t0 = Instant::now();
    let mut counters = Vec::new();
    for w in nsc_workloads::all(size).into_iter().take(3) {
        let p = prepare(w);
        for mode in [ExecMode::Base, ExecMode::Ns] {
            let (r, _mem) = p.run_unchecked(mode, &cfg);
            let tag = format!("{}.{}", p.workload.name, mode.label());
            counters.push((format!("{tag}.cycles"), r.cycles));
            counters.push((format!("{tag}.dram_reads"), r.mem.dram_reads));
            counters.push((format!("{tag}.l1_hits"), r.mem.l1_hits));
        }
    }
    Measurement { name: "fig09_tiny", wall_ms: ms(t0), counters, series: Vec::new() }
}

/// A figure-12 style traffic subset: byte×hop totals under NS and
/// NS-decouple pin the NoC accounting.
fn fig12_subset(size: Size) -> Measurement {
    let cfg = system_for(size);
    let t0 = Instant::now();
    let mut counters = Vec::new();
    for w in nsc_workloads::all(size).into_iter().take(2) {
        let p = prepare(w);
        for mode in [ExecMode::Ns, ExecMode::NsDecouple] {
            let (r, _mem) = p.run_unchecked(mode, &cfg);
            let tag = format!("{}.{}", p.workload.name, mode.label());
            counters.push((format!("{tag}.byte_hops"), r.traffic.total()));
            counters.push((format!("{tag}.messages"), r.traffic.messages));
        }
    }
    Measurement { name: "fig12_tiny", wall_ms: ms(t0), counters, series: Vec::new() }
}

/// Result-cache warm replay: one cold run that stores, one warm run that
/// must replay from the cache.
fn cache_warm_replay(size: Size) -> Measurement {
    assert!(cache::enabled(), "nsc_perf pins NSC_CACHE=1 before first use");
    let store = cache::shared();
    store.purge().expect("purge scratch cache");
    store.reset_stats();
    let cfg = system_for(size);
    let w = nsc_workloads::all(size).into_iter().next().expect("at least one workload");
    let p = prepare(w);
    let t0 = Instant::now();
    let cold = p.run_cached(ExecMode::Ns, &cfg);
    let warm = p.run_cached(ExecMode::Ns, &cfg);
    let s = store.stats();
    let (hits, misses) = (s.hits, s.misses);
    assert_eq!(cold.cycles, warm.cycles, "replay must be exact");
    Measurement {
        name: "cache_warm",
        wall_ms: ms(t0),
        counters: vec![
            ("cycles".into(), cold.cycles),
            ("cache_hits".into(), hits),
            ("cache_misses".into(), misses),
        ],
        series: Vec::new(),
    }
}

/// Full daemon round trip: spawn the sibling `nscd` binary on a scratch
/// socket, submit two runs (the second replays from the shared cache),
/// and read the metrics snapshot back.
fn nscd_roundtrip(size: Size) -> Measurement {
    let nscd = std::env::current_exe()
        .expect("own path")
        .with_file_name("nscd");
    assert!(
        nscd.exists(),
        "{} not found — build the full workspace first (cargo build --release)",
        nscd.display()
    );
    let socket = std::env::temp_dir().join(format!("nsc-perf-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let t0 = Instant::now();
    let mut child = std::process::Command::new(&nscd)
        .arg("--socket")
        .arg(&socket)
        // One worker: the two identical runs serialize, so the second
        // deterministically replays the first from the result cache —
        // with two workers they race and `warm_cached` would flap.
        .arg("--jobs")
        .arg("1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn nscd");
    // Poll by *connecting*, not by the socket file's existence — the
    // path can be visible a beat before the daemon listens, and a
    // single connect() then gets ECONNREFUSED.
    let mut conn = None;
    for _ in 0..400 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(&socket) {
            conn = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let sz = match size {
        Size::Tiny => "tiny",
        Size::Small => "small",
        Size::Paper => "full",
    };
    let lines = [
        format!("{{\"op\":\"run\",\"id\":1,\"workload\":\"bin_tree\",\"size\":\"{sz}\",\"mode\":\"NS\"}}"),
        format!("{{\"op\":\"run\",\"id\":2,\"workload\":\"bin_tree\",\"size\":\"{sz}\",\"mode\":\"NS\"}}"),
        "{\"op\":\"metrics\",\"id\":3}".to_owned(),
        "{\"op\":\"shutdown\",\"id\":4}".to_owned(),
    ];
    let mut stream = conn.unwrap_or_else(|| {
        let _ = child.kill();
        panic!("nscd never accepted on {}", socket.display())
    });
    stream
        .write_all((lines.join("\n") + "\n").as_bytes())
        .expect("send requests");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut resps = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.expect("read response");
        if !line.trim().is_empty() {
            resps.push(line);
        }
    }
    let _ = child.wait();
    let _ = std::fs::remove_file(&socket);
    assert_eq!(resps.len(), 4, "one response per request: {resps:?}");

    // Responses are flat protocol JSON; the generic parser reads them
    // fine, and the metrics snapshot is a nested document inside a
    // string field.
    let run1 = parse(&resps[0]).expect("run response parses");
    let cycles = run1.get("cycles").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    // Every live run now carries a per-request latency breakdown; count
    // its spans (deterministic — the span *names* are fixed even though
    // their durations are not).
    let latency_spans = run1
        .get("latency")
        .and_then(Json::as_str)
        .and_then(|s| parse(s).ok())
        .and_then(|t| t.get("spans").and_then(Json::as_arr).map(|s| s.len()))
        .unwrap_or(0) as u64;
    assert!(latency_spans >= 6, "run response latency has {latency_spans} spans, want ≥6");
    let run2 = parse(&resps[1]).expect("second run parses");
    let warm_cached = run2.get("cached") == Some(&Json::Bool(true));
    let snap_doc = parse(&resps[2]).expect("metrics response parses");
    let snap = parse(snap_doc.get("snapshot").and_then(Json::as_str).expect("snapshot field"))
        .expect("snapshot parses");
    let counter = |label: &str| {
        snap.get("counters")
            .and_then(|c| c.get(label))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    Measurement {
        name: "nscd_roundtrip",
        wall_ms: ms(t0),
        counters: vec![
            ("cycles".into(), cycles),
            ("warm_cached".into(), warm_cached as u64),
            ("latency_spans".into(), latency_spans),
            ("serve_runs".into(), counter("serve.runs")),
            ("serve_runs_cached".into(), counter("serve.runs_cached")),
            ("result_cache_hits".into(), counter("result_cache.hits")),
        ],
        series: Vec::new(),
    }
}

fn ms(t0: Instant) -> f64 {
    (t0.elapsed().as_secs_f64() * 1e3 * 1e3).round() / 1e3
}

fn results_dir() -> PathBuf {
    std::env::var_os("NSC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

fn write_bench(label: &str, size: Size, runs: &[Measurement]) -> PathBuf {
    let mut out = String::from("{\"schema\":\"nsc-perf-v1\"");
    let _ = write!(out, ",\"label\":\"{}\"", escape(label));
    let _ = write!(out, ",\"size\":\"{}\"", nsc_bench::size_label(size));
    out.push_str(",\"workloads\":{");
    for (i, m) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"wall_ms\":{},\"counters\":{{", m.name, fmt_f64(m.wall_ms));
        for (j, (k, v)) in m.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape(k));
        }
        out.push('}');
        if !m.series.is_empty() {
            out.push_str(",\"series\":{");
            for (j, (k, v)) in m.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", escape(k), fmt_f64(*v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("}}\n");
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("BENCH_{label}.json"));
    std::fs::write(&path, out).expect("write bench file");
    path
}

/// `--compare BASE NEW [--wall-tol X] [--serve-tol Y]`: exact equality
/// on every sim counter, `new.wall_ms <= base.wall_ms * X` on wall time,
/// and a direction-aware factor-`Y` band on every `series` entry — keys
/// ending `_rps` / `_x` are higher-is-better (regress when
/// `new < base / Y`), everything else lower-is-better (regress when
/// `new > base * Y`). Returns the process exit code.
fn compare_cmd(rest: &[String]) -> i32 {
    let mut paths = Vec::new();
    let mut wall_tol = 2.0f64;
    let mut serve_tol = 3.0f64;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--wall-tol" => {
                let v = it.next().expect("--wall-tol requires a value");
                wall_tol = v.parse().expect("--wall-tol wants a number");
            }
            "--serve-tol" => {
                let v = it.next().expect("--serve-tol requires a value");
                serve_tol = v.parse().expect("--serve-tol wants a number");
            }
            p => paths.push(p.to_owned()),
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: nsc_perf --compare BASE NEW [--wall-tol X] [--serve-tol Y]");
        return 2;
    }
    let load = |p: &str| -> Json {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| panic!("read {p}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("parse {p}: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("nsc-perf-v1"),
            "{p}: not an nsc-perf-v1 file"
        );
        doc
    };
    let base = load(&paths[0]);
    let new = load(&paths[1]);
    let base_w = base.get("workloads").and_then(Json::as_obj).expect("base workloads");
    let new_w = new.get("workloads").and_then(Json::as_obj).expect("new workloads");

    let mut regressions = 0u32;
    for (name, bw) in base_w {
        let Some(nw) = new_w.get(name) else {
            eprintln!("REGRESSION {name}: missing from {}", paths[1]);
            regressions += 1;
            continue;
        };
        let b_ms = bw.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let n_ms = nw.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let limit = b_ms * wall_tol;
        if n_ms > limit {
            eprintln!(
                "REGRESSION {name}: wall {n_ms:.2} ms > {limit:.2} ms ({b_ms:.2} ms base x{wall_tol})"
            );
            regressions += 1;
        } else {
            println!("ok {name}: wall {n_ms:.2} ms (base {b_ms:.2} ms, limit {limit:.2} ms)");
        }
        let b_ctr = bw.get("counters").and_then(Json::as_obj).cloned().unwrap_or_default();
        let n_ctr = nw.get("counters").and_then(Json::as_obj).cloned().unwrap_or_default();
        for (k, bv) in &b_ctr {
            let bv = bv.as_f64().unwrap_or(0.0);
            match n_ctr.get(k).and_then(Json::as_f64) {
                Some(nv) if nv == bv => {}
                Some(nv) => {
                    eprintln!("REGRESSION {name}.{k}: sim counter {nv} != baseline {bv}");
                    regressions += 1;
                }
                None => {
                    eprintln!("REGRESSION {name}.{k}: counter missing from {}", paths[1]);
                    regressions += 1;
                }
            }
        }
        for k in n_ctr.keys() {
            if !b_ctr.contains_key(k) {
                eprintln!(
                    "note: {name}.{k} is new (absent from baseline; regenerate the baseline)"
                );
            }
        }
        // Toleranced series: float quantities derived from host timing
        // (throughput, latency, speedups) can never be exact, so they
        // get a direction-aware factor band instead of equality.
        let b_s = bw.get("series").and_then(Json::as_obj).cloned().unwrap_or_default();
        let n_s = nw.get("series").and_then(Json::as_obj).cloned().unwrap_or_default();
        for (k, bv) in &b_s {
            let bv = bv.as_f64().unwrap_or(0.0);
            let Some(nv) = n_s.get(k).and_then(Json::as_f64) else {
                eprintln!("REGRESSION {name}.{k}: series missing from {}", paths[1]);
                regressions += 1;
                continue;
            };
            let higher_better = k.ends_with("_rps") || k.ends_with("_x");
            let (bad, bound) = if higher_better {
                (nv < bv / serve_tol, bv / serve_tol)
            } else {
                (nv > bv * serve_tol, bv * serve_tol)
            };
            if bad {
                let dir = if higher_better { "<" } else { ">" };
                eprintln!(
                    "REGRESSION {name}.{k}: series {nv:.3} {dir} {bound:.3} (base {bv:.3} tol x{serve_tol})"
                );
                regressions += 1;
            } else {
                println!("ok {name}.{k}: series {nv:.3} (base {bv:.3}, tol x{serve_tol})");
            }
        }
    }
    if regressions > 0 {
        eprintln!("nsc_perf: {regressions} regression(s) vs {}", paths[0]);
        1
    } else {
        println!("nsc_perf: no regressions vs {}", paths[0]);
        0
    }
}
