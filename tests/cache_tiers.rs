//! The result store under the cached run path: a warm sweep replays
//! every point byte-for-byte with zero misses, a record that fails to
//! decode is a miss that gets overwritten, and a shared store is
//! worker-count invariant. These tests arm the cache through `NSC_CACHE`
//! and drive private [`ResultCache`] instances (never the process-wide
//! handle), so they live alone in their own test binary: env mutation in
//! a multi-threaded harness would race other test binaries' latched
//! cache state.

use near_stream::request::encode;
use near_stream::{ExecMode, RunRequest, SystemConfig};
use nsc_compiler::compile;
use nsc_ir::build::KernelBuilder;
use nsc_ir::{ElemType, Expr, Program};
use nsc_sim::cache::{CacheStats, ResultCache};
use nsc_sim::fault::FaultStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Arms cache consultation before the first `enabled()` call latches.
/// Every test calls this first; re-setting the same value is idempotent.
fn arm() {
    std::env::set_var("NSC_CACHE", "1");
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nsc-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A minimal one-kernel program; `imm` lands in an instruction
/// immediate, so each value yields a distinct cache key.
fn probe_program(imm: i64) -> Program {
    let mut p = Program::new("store_probe");
    let a = p.array("a", ElemType::I64, 64);
    let out = p.array("out", ElemType::I64, 64);
    let mut k = KernelBuilder::new("k", 64);
    let i = k.outer_var();
    let v = k.load(a, Expr::var(i));
    k.store(out, Expr::var(i), Expr::var(v) + Expr::imm(imm));
    p.push_kernel(k.finish());
    p
}

/// Runs one request per `imm` through the cached path against `store`
/// and returns each result re-encoded in the record codec, so passes
/// can be compared byte-for-byte.
fn sweep_bytes(store: &ResultCache, imms: &[i64]) -> Vec<String> {
    imms.iter()
        .map(|&imm| {
            let p = probe_program(imm);
            let c = compile(&p);
            let cfg = SystemConfig::small();
            let r = RunRequest::new(&p)
                .compiled(&c)
                .mode(ExecMode::Ns)
                .config(&cfg)
                .try_run_cached_in(store)
                .expect("cached run");
            encode(&r, &FaultStats::default())
        })
        .collect()
}

/// A warm pass over a populated store reproduces the cold pass
/// byte-for-byte, answering every lookup from the store: no misses, no
/// stores.
#[test]
fn warm_sweep_replays_every_point_from_the_store() {
    arm();
    let store = ResultCache::at(fresh_dir("warm"));
    let imms = [11, 12, 13];
    let cold = sweep_bytes(&store, &imms);
    assert_eq!(store.stats(), CacheStats { hits: 0, misses: 3, stores: 3 });
    store.reset_stats();
    let warm = sweep_bytes(&store, &imms);
    assert_eq!(cold, warm, "warm replay diverged from the cold run");
    assert_eq!(
        store.stats(),
        CacheStats { hits: imms.len() as u64, misses: 0, stores: 0 },
        "a fully warm pass reports zero misses"
    );
}

/// A record file that does not decode (garbage, or a format this build
/// cannot read) must count as a miss, not a hit: the run simulates and
/// overwrites it, and the next lookup hits the rewritten record.
#[test]
fn undecodable_record_is_a_miss_and_is_rewritten() {
    arm();
    let store = ResultCache::at(fresh_dir("garbage"));
    let p = probe_program(31);
    let c = compile(&p);
    let cfg = SystemConfig::small();
    let req = RunRequest::new(&p).compiled(&c).mode(ExecMode::Ns).config(&cfg);
    store.store(&req.key(), "not a cache record\n").unwrap();
    store.reset_stats();

    let first = req.try_run_cached_in(&store).expect("run over a garbage record");
    assert_eq!(
        store.stats(),
        CacheStats { hits: 0, misses: 1, stores: 1 },
        "an undecodable record must be a miss that simulates and stores"
    );
    let again = req.try_run_cached_in(&store).expect("replay of the rewritten record");
    assert_eq!(store.stats(), CacheStats { hits: 1, misses: 1, stores: 1 });
    assert_eq!(
        encode(&first, &FaultStats::default()),
        encode(&again, &FaultStats::default()),
        "the rewritten record replays the simulated result"
    );
}

/// Runs the sweep with `jobs` workers racing over one shared store,
/// collecting results by submission index.
fn sweep_with_workers(dir: &Path, jobs: usize, imms: &[i64]) -> Vec<String> {
    let store = ResultCache::at(dir.to_path_buf());
    let out: Vec<Mutex<Option<String>>> = imms.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= imms.len() {
                    break;
                }
                let p = probe_program(imms[i]);
                let c = compile(&p);
                let cfg = SystemConfig::small();
                let r = RunRequest::new(&p)
                    .compiled(&c)
                    .mode(ExecMode::Ns)
                    .config(&cfg)
                    .try_run_cached_in(&store)
                    .expect("cached run");
                *out[i].lock().unwrap() = Some(encode(&r, &FaultStats::default()));
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("every index ran"))
        .collect()
}

/// `NSC_JOBS`-style determinism: the same sweep through one worker and
/// through eight racing workers (each pass on a fresh store, so the
/// lookup/store interleaving differs) yields identical result bytes per
/// request.
#[test]
fn shared_store_results_are_worker_count_invariant() {
    arm();
    let imms: Vec<i64> = (21..=28).collect();
    let serial = sweep_with_workers(&fresh_dir("jobs1"), 1, &imms);
    let racy = sweep_with_workers(&fresh_dir("jobs8"), 8, &imms);
    assert_eq!(serial, racy, "worker count leaked into replayed record bytes");
}
