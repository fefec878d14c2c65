//! The `nscd` backend's request → key memo: a memoized key equals a
//! fresh recompute under every workload, mode and armed fault plan; one
//! named workload builds exactly as the full list does; a run costs one
//! result-cache lookup; and the degraded-mode probe agrees with the run
//! path about what is cached.

use near_stream::request::encode;
use near_stream::ExecMode;
use nsc_bench::{prepare, system_for};
use nsc_serve::{cache_would_hit, execute, request_key};
use nsc_sim::cache::{self, CacheStore};
use nsc_sim::fault::{self, FaultPlan, FaultStats};
use nsc_workloads::{all, by_name, names, Size};
use std::sync::Once;

/// Arms the shared result cache on a private, empty directory. The
/// cache reads its environment once per process, so this must run
/// before anything consults it.
fn arm_cache() {
    static ARM: Once = Once::new();
    ARM.call_once(|| {
        let dir = std::env::temp_dir().join(format!("nsc-serve-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("NSC_CACHE_DIR", &dir);
        std::env::set_var("NSC_CACHE", "1");
    });
}

/// Lookups the shared store has answered, hit or miss, either tier.
fn lookups() -> u64 {
    let s = cache::shared().stats();
    s.hits() + s.misses()
}

#[test]
fn by_name_reproduces_all_in_order() {
    let listed = all(Size::Tiny);
    assert_eq!(listed.len(), names().len());
    for (w, name) in listed.iter().zip(names()) {
        let one = by_name(name, Size::Tiny).expect("listed name builds");
        assert_eq!(one.name, w.name);
        assert_eq!(format!("{:?}", one.program), format!("{:?}", w.program), "{name}");
    }
}

#[test]
fn memoized_keys_match_a_fresh_recompute() {
    let cfg = system_for(Size::Tiny);
    let base = FaultPlan::uniform(5, 1e-3);
    for (i, name) in names().into_iter().enumerate() {
        let p = prepare(by_name(name, Size::Tiny).expect("listed name builds"));
        for mode in ExecMode::ALL {
            for plan in [None, Some(base.for_run(i as u64))] {
                if let Some(plan) = plan.clone() {
                    fault::install(plan);
                }
                let fresh = p.request(mode, &cfg).key();
                // The first call may fill the memo; the second reads it.
                let first = request_key(name, Size::Tiny, mode);
                let memoized = request_key(name, Size::Tiny, mode);
                if plan.is_some() {
                    let _ = fault::uninstall();
                }
                assert_eq!(first, Some(fresh), "{name} {mode:?} plan={}", plan.is_some());
                assert_eq!(memoized, Some(fresh), "{name} {mode:?} plan={}", plan.is_some());
            }
        }
    }
    assert_eq!(request_key("not-a-workload", Size::Tiny, ExecMode::Ns), None);
}

#[test]
fn a_run_costs_one_lookup_and_the_probe_agrees_with_it() {
    arm_cache();
    for plan in [None, Some(FaultPlan::uniform(9, 1e-3).for_run(2))] {
        if let Some(plan) = plan.clone() {
            fault::install(plan);
        }
        let (w, mode) = ("histogram", ExecMode::Ns);

        // A fresh key: the probe reports a miss and the run simulates.
        assert!(!cache_would_hit(w, Size::Tiny, mode));
        let before = lookups();
        let cold = execute(w, Size::Tiny, mode).expect("cold run");
        assert!(!cold.cached);
        assert_eq!(lookups(), before + 1, "a miss is one lookup");

        // The warmed key: the probe reports a hit and the run replays it.
        assert!(cache_would_hit(w, Size::Tiny, mode));
        let before = lookups();
        let warm = execute(w, Size::Tiny, mode).expect("warm run");
        assert!(warm.cached);
        assert_eq!(lookups(), before + 1, "a hit is one lookup");
        assert_eq!(
            encode(&warm.result, &FaultStats::default()),
            encode(&cold.result, &FaultStats::default()),
            "the replay is the stored run, bit for bit"
        );

        if plan.is_some() {
            let _ = fault::uninstall();
        }
    }
}
