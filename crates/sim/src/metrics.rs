//! Live metrics: a dependency-free sharded registry of monotonic
//! counters, high-water gauges, fixed-geometry histograms and a
//! cycle-bucketed self-profiler.
//!
//! The registry follows the same zero-cost-when-disabled discipline as
//! [`crate::trace`] and [`crate::fault`]: a process-wide activation
//! count ([`ACTIVE`]) gates a thread-local [`Registry`] shard. When no
//! registry is installed anywhere, every recording call is a single
//! relaxed atomic load and performs **no allocation** (the no-op path is
//! covered by an allocation-counting regression test). When a shard is
//! installed, recording indexes fixed arrays by enum discriminant —
//! still no allocation, no hashing, no string formatting on the hot
//! path.
//!
//! Determinism contract: parallel sweeps install one fresh shard per
//! run on the worker, then merge the shards on the submitting thread
//! **in submission order** (the same discipline as [`crate::trace::absorb`]
//! and [`crate::fault::absorb`]). All merge operations commute and
//! saturate, so a merged snapshot is byte-identical for any `NSC_JOBS`.
//!
//! Long-running services (the `nscd` daemon) additionally keep a
//! process-global registry fed via [`absorb_global`]; that one is meant
//! for live introspection, not for report determinism.
//!
//! Snapshots serialize with [`Registry::to_json`] under schema
//! `nsc-metrics-v1` (see DESIGN.md §6.10).
//!
//! # Examples
//!
//! ```
//! use nsc_sim::metrics::{self, Metric, Registry};
//!
//! metrics::install(Registry::new());
//! metrics::count(Metric::MemL1Hits);
//! metrics::add(Metric::NocBytes, 64);
//! let snap = metrics::uninstall().unwrap();
//! assert_eq!(snap.count(Metric::MemL1Hits), 1);
//! assert_eq!(snap.count(Metric::NocBytes), 64);
//! assert!(snap.to_json().starts_with("{\"schema\":\"nsc-metrics-v1\""));
//! ```

use crate::stats::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Schema identifier embedded in every serialized snapshot.
pub const SCHEMA: &str = "nsc-metrics-v1";

/// Monotonic event counters, one per instrumented event in the stack.
///
/// Labels are dotted `component.event` paths; the numeric discriminant
/// doubles as the index into [`Registry`]'s counter array, so recording
/// is a bounds-check-free array add.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Engine iterations executed (event-loop pops).
    EngineIterations,
    /// Elements dispatched in-core as plain accesses.
    DispatchCoreAccess,
    /// Elements dispatched in-core with prefetch assist.
    DispatchCorePrefetch,
    /// Elements dispatched as in-core float loads.
    DispatchFloatLoad,
    /// Elements offloaded to the near-stream substrate.
    DispatchNearStream,
    /// Iterations offloaded wholesale (per-iteration style).
    DispatchPerIteration,
    /// Cache lines walked by chained-line offloads.
    DispatchChainedLine,
    /// Offload handshake retries (NACK + backoff).
    OffloadRetries,
    /// Offloads that fell back to in-core execution.
    OffloadFallbacks,
    /// Alias-filter flushes (mis-speculation drains).
    AliasFlushes,
    /// Prefetch-element-buffer flushes.
    PebFlushes,
    /// Range-sync drain-and-replay events.
    RangeSyncReplays,
    /// L1 hits.
    MemL1Hits,
    /// L1 misses.
    MemL1Misses,
    /// L2 hits.
    MemL2Hits,
    /// L2 misses.
    MemL2Misses,
    /// L3 hits.
    MemL3Hits,
    /// L3 misses.
    MemL3Misses,
    /// DRAM read accesses.
    MemDramReads,
    /// DRAM writebacks.
    MemDramWritebacks,
    /// Coherence invalidations sent to private caches.
    MemInvalidations,
    /// Dirty private-cache lines written back on invalidation.
    MemPrivateWritebacks,
    /// Prefetch fills installed into the cache.
    MemPrefetchFills,
    /// Demand accesses satisfied by an earlier prefetch.
    MemPrefetchHits,
    /// Atomic read-modify-writes executed at the L3 banks.
    MemL3Atomics,
    /// Transient read-error retries (fault injection).
    MemReadRetries,
    /// Data-class messages routed on the mesh.
    NocMsgsData,
    /// Control-class messages routed on the mesh.
    NocMsgsControl,
    /// Offloaded-class messages routed on the mesh.
    NocMsgsOffloaded,
    /// Payload bytes injected into the mesh.
    NocBytes,
    /// Payload bytes × hops travelled (the paper's traffic metric).
    NocByteHops,
    /// Timeout retransmissions after injected drops.
    NocRetransmits,
    /// Result-cache lookups that hit.
    ResultCacheHits,
    /// Result-cache lookups that missed.
    ResultCacheMisses,
    /// Result-cache records stored (`result_cache.stores`).
    ResultCacheWrites,
    /// Jobs submitted to the shared thread pool.
    PoolJobs,
    /// Faults fired by the deterministic injector.
    FaultsInjected,
    /// Requests parsed by the nscd daemon.
    ServeRequests,
    /// Run requests completed by the daemon.
    ServeRuns,
    /// Daemon runs served from the result cache.
    ServeRunsCached,
    /// Daemon requests answered with an error.
    ServeErrors,
    /// Run requests shed by overload protection (admission queue full
    /// with a cold cache, draining for shutdown, or client gone before
    /// dequeue). Deadline sheds are counted separately.
    ServeShed,
    /// Run requests shed because their deadline expired before the
    /// simulation started.
    ServeDeadlineExceeded,
    /// Connections refused at accept because `NSC_MAX_CONNS` live
    /// connections already existed.
    ServeConnsRejected,
    /// Resubmitted `request_id`s answered by replaying the stored
    /// response instead of re-simulating.
    ServeDedupReplays,
    /// Result-cache lookups answered from the record store
    /// (process-global; `result_cache.hits` is the per-run view).
    CacheColdHits,
    /// Result-cache lookups the store could not answer (the run had to
    /// simulate).
    CacheColdMisses,
    /// Records written into the store.
    CacheColdStores,
}

impl Metric {
    /// Every counter, in declaration (= index) order.
    pub const ALL: [Metric; 48] = [
        Metric::EngineIterations,
        Metric::DispatchCoreAccess,
        Metric::DispatchCorePrefetch,
        Metric::DispatchFloatLoad,
        Metric::DispatchNearStream,
        Metric::DispatchPerIteration,
        Metric::DispatchChainedLine,
        Metric::OffloadRetries,
        Metric::OffloadFallbacks,
        Metric::AliasFlushes,
        Metric::PebFlushes,
        Metric::RangeSyncReplays,
        Metric::MemL1Hits,
        Metric::MemL1Misses,
        Metric::MemL2Hits,
        Metric::MemL2Misses,
        Metric::MemL3Hits,
        Metric::MemL3Misses,
        Metric::MemDramReads,
        Metric::MemDramWritebacks,
        Metric::MemInvalidations,
        Metric::MemPrivateWritebacks,
        Metric::MemPrefetchFills,
        Metric::MemPrefetchHits,
        Metric::MemL3Atomics,
        Metric::MemReadRetries,
        Metric::NocMsgsData,
        Metric::NocMsgsControl,
        Metric::NocMsgsOffloaded,
        Metric::NocBytes,
        Metric::NocByteHops,
        Metric::NocRetransmits,
        Metric::ResultCacheHits,
        Metric::ResultCacheMisses,
        Metric::ResultCacheWrites,
        Metric::PoolJobs,
        Metric::FaultsInjected,
        Metric::ServeRequests,
        Metric::ServeRuns,
        Metric::ServeRunsCached,
        Metric::ServeErrors,
        Metric::ServeShed,
        Metric::ServeDeadlineExceeded,
        Metric::ServeConnsRejected,
        Metric::ServeDedupReplays,
        Metric::CacheColdHits,
        Metric::CacheColdMisses,
        Metric::CacheColdStores,
    ];

    /// Dotted metric name, e.g. `"mem.l1.hits"`.
    pub fn label(self) -> &'static str {
        match self {
            Metric::EngineIterations => "engine.iterations",
            Metric::DispatchCoreAccess => "engine.dispatch.core_access",
            Metric::DispatchCorePrefetch => "engine.dispatch.core_prefetch",
            Metric::DispatchFloatLoad => "engine.dispatch.float_load",
            Metric::DispatchNearStream => "engine.dispatch.near_stream",
            Metric::DispatchPerIteration => "engine.dispatch.per_iteration",
            Metric::DispatchChainedLine => "engine.dispatch.chained_line",
            Metric::OffloadRetries => "engine.offload.retries",
            Metric::OffloadFallbacks => "engine.offload.fallbacks",
            Metric::AliasFlushes => "engine.alias_flushes",
            Metric::PebFlushes => "engine.peb_flushes",
            Metric::RangeSyncReplays => "engine.rangesync_replays",
            Metric::MemL1Hits => "mem.l1.hits",
            Metric::MemL1Misses => "mem.l1.misses",
            Metric::MemL2Hits => "mem.l2.hits",
            Metric::MemL2Misses => "mem.l2.misses",
            Metric::MemL3Hits => "mem.l3.hits",
            Metric::MemL3Misses => "mem.l3.misses",
            Metric::MemDramReads => "mem.dram.reads",
            Metric::MemDramWritebacks => "mem.dram.writebacks",
            Metric::MemInvalidations => "mem.coherence.invalidations",
            Metric::MemPrivateWritebacks => "mem.coherence.private_writebacks",
            Metric::MemPrefetchFills => "mem.prefetch.fills",
            Metric::MemPrefetchHits => "mem.prefetch.hits",
            Metric::MemL3Atomics => "mem.l3.atomics",
            Metric::MemReadRetries => "mem.read_retries",
            Metric::NocMsgsData => "noc.msgs.data",
            Metric::NocMsgsControl => "noc.msgs.control",
            Metric::NocMsgsOffloaded => "noc.msgs.offloaded",
            Metric::NocBytes => "noc.bytes",
            Metric::NocByteHops => "noc.byte_hops",
            Metric::NocRetransmits => "noc.retransmits",
            Metric::ResultCacheHits => "result_cache.hits",
            Metric::ResultCacheMisses => "result_cache.misses",
            Metric::ResultCacheWrites => "result_cache.stores",
            Metric::PoolJobs => "pool.jobs",
            Metric::FaultsInjected => "fault.injected",
            Metric::ServeRequests => "serve.requests",
            Metric::ServeRuns => "serve.runs",
            Metric::ServeRunsCached => "serve.runs_cached",
            Metric::ServeErrors => "serve.errors",
            Metric::ServeShed => "serve.shed",
            Metric::ServeDeadlineExceeded => "serve.deadline_exceeded",
            Metric::ServeConnsRejected => "serve.conns_rejected",
            Metric::ServeDedupReplays => "serve.dedup_replays",
            Metric::CacheColdHits => "cache.cold.hits",
            Metric::CacheColdMisses => "cache.cold.misses",
            Metric::CacheColdStores => "cache.cold.stores",
        }
    }

    /// Index into the registry's counter array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// High-water-mark gauges. Merging takes the max, which commutes, so
/// gauges keep the determinism contract as long as the recorded values
/// themselves are deterministic (e.g. submitted batch sizes rather than
/// racy live queue lengths).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Largest batch of jobs outstanding on the shared pool.
    PoolQueueDepth,
    /// Most daemon runs simultaneously in flight.
    ServeInFlight,
    /// Deepest the daemon's bounded admission queue ever got (admitted
    /// runs not yet delivered; capped by `NSC_QUEUE_CAP`).
    ServeQueueDepth,
}

impl Gauge {
    /// Every gauge, in declaration (= index) order.
    pub const ALL: [Gauge; 3] = [Gauge::PoolQueueDepth, Gauge::ServeInFlight, Gauge::ServeQueueDepth];

    /// Dotted gauge name.
    pub fn label(self) -> &'static str {
        match self {
            Gauge::PoolQueueDepth => "pool.queue_depth_hwm",
            Gauge::ServeInFlight => "serve.in_flight_hwm",
            Gauge::ServeQueueDepth => "serve.queue_depth_hwm",
        }
    }

    /// Index into the registry's gauge array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Distribution metrics with fixed per-variant bucket geometry (so any
/// two shards of the same variant merge bucket-by-bucket).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Mesh message latency in cycles.
    NocLatencyCycles,
    /// Daemon per-run wall time in milliseconds.
    ServeRunMs,
    /// Daemon per-request pool queue wait in microseconds (from the
    /// request's `queue_wait` span).
    ServeQueueUs,
    /// Daemon per-request total wall time in microseconds (the span
    /// tree's root duration).
    ServeTotalUs,
}

impl Hist {
    /// Every histogram, in declaration (= index) order.
    pub const ALL: [Hist; 4] = [
        Hist::NocLatencyCycles,
        Hist::ServeRunMs,
        Hist::ServeQueueUs,
        Hist::ServeTotalUs,
    ];

    /// Dotted histogram name.
    pub fn label(self) -> &'static str {
        match self {
            Hist::NocLatencyCycles => "noc.latency_cycles",
            Hist::ServeRunMs => "serve.run_ms",
            Hist::ServeQueueUs => "serve.queue_us",
            Hist::ServeTotalUs => "serve.total_us",
        }
    }

    /// `(bucket_width, buckets)` — fixed per variant.
    pub fn geometry(self) -> (f64, usize) {
        match self {
            Hist::NocLatencyCycles => (8.0, 64),
            Hist::ServeRunMs => (10.0, 64),
            Hist::ServeQueueUs => (50.0, 64),
            Hist::ServeTotalUs => (500.0, 64),
        }
    }

    /// Index into the registry's histogram array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    fn new_hist(self) -> Histogram {
        let (w, n) = self.geometry();
        Histogram::new(w, n)
    }
}

/// Self-profiler attribution kinds: where the event loop spends its
/// simulated cycles, per event kind and per component.
///
/// The profiler deliberately accounts in **cycles** (the deterministic
/// currency of the timing models), not host wall clocks — reports later
/// scale the per-kind cycle share by the harness's measured wall time
/// to estimate host milliseconds without ever reading a clock on the
/// sim path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Prof {
    /// In-core element accesses.
    EngineCoreAccess,
    /// In-core accesses with prefetch assist.
    EngineCorePrefetch,
    /// In-core float loads.
    EngineFloatLoad,
    /// Near-stream offloaded elements.
    EngineNearStream,
    /// Whole-iteration offloads.
    EnginePerIteration,
    /// Chained-line offload walks.
    EngineChainedLine,
    /// L1 service time.
    MemL1,
    /// L2 service time.
    MemL2,
    /// L3 service time.
    MemL3,
    /// DRAM service time.
    MemDram,
    /// Mesh latency, data class.
    NocData,
    /// Mesh latency, control class.
    NocControl,
    /// Mesh latency, offloaded class.
    NocOffloaded,
    /// Synchronization-boundary waits.
    SyncBoundary,
    /// Near-cache (SE_L3) compute occupancy.
    ScmCompute,
}

impl Prof {
    /// Every profiler kind, in declaration (= index) order.
    pub const ALL: [Prof; 15] = [
        Prof::EngineCoreAccess,
        Prof::EngineCorePrefetch,
        Prof::EngineFloatLoad,
        Prof::EngineNearStream,
        Prof::EnginePerIteration,
        Prof::EngineChainedLine,
        Prof::MemL1,
        Prof::MemL2,
        Prof::MemL3,
        Prof::MemDram,
        Prof::NocData,
        Prof::NocControl,
        Prof::NocOffloaded,
        Prof::SyncBoundary,
        Prof::ScmCompute,
    ];

    /// Event-kind label, e.g. `"engine.near_stream"`.
    pub fn label(self) -> &'static str {
        match self {
            Prof::EngineCoreAccess => "engine.core_access",
            Prof::EngineCorePrefetch => "engine.core_prefetch",
            Prof::EngineFloatLoad => "engine.float_load",
            Prof::EngineNearStream => "engine.near_stream",
            Prof::EnginePerIteration => "engine.per_iteration",
            Prof::EngineChainedLine => "engine.chained_line",
            Prof::MemL1 => "mem.l1",
            Prof::MemL2 => "mem.l2",
            Prof::MemL3 => "mem.l3",
            Prof::MemDram => "mem.dram",
            Prof::NocData => "noc.data",
            Prof::NocControl => "noc.control",
            Prof::NocOffloaded => "noc.offloaded",
            Prof::SyncBoundary => "sync.boundary",
            Prof::ScmCompute => "scm.compute",
        }
    }

    /// Component the kind belongs to (`engine`/`mem`/`noc`/`sync`/`scm`).
    pub fn component(self) -> &'static str {
        match self {
            Prof::EngineCoreAccess
            | Prof::EngineCorePrefetch
            | Prof::EngineFloatLoad
            | Prof::EngineNearStream
            | Prof::EnginePerIteration
            | Prof::EngineChainedLine => "engine",
            Prof::MemL1 | Prof::MemL2 | Prof::MemL3 | Prof::MemDram => "mem",
            Prof::NocData | Prof::NocControl | Prof::NocOffloaded => "noc",
            Prof::SyncBoundary => "sync",
            Prof::ScmCompute => "scm",
        }
    }

    /// Index into the registry's profiler array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One self-profiler accumulator: how many events of a kind fired and
/// how many simulated cycles they accounted for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfSlot {
    /// Number of events attributed to this kind.
    pub events: u64,
    /// Simulated cycles attributed to this kind.
    pub cycles: u64,
}

/// A metrics shard: fixed arrays indexed by the enum discriminants
/// above. Cloneable, mergeable, and serializable as `nsc-metrics-v1`.
#[derive(Clone, Debug, PartialEq)]
pub struct Registry {
    counters: [u64; Metric::ALL.len()],
    gauges: [f64; Gauge::ALL.len()],
    hists: [Histogram; Hist::ALL.len()],
    prof: [ProfSlot; Prof::ALL.len()],
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an all-zero registry.
    pub fn new() -> Registry {
        Registry {
            counters: [0; Metric::ALL.len()],
            gauges: [0.0; Gauge::ALL.len()],
            hists: std::array::from_fn(|i| Hist::ALL[i].new_hist()),
            prof: [ProfSlot::default(); Prof::ALL.len()],
        }
    }

    /// Current value of a counter.
    pub fn count(&self, m: Metric) -> u64 {
        self.counters[m.index()]
    }

    /// Current high-water value of a gauge.
    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges[g.index()]
    }

    /// The histogram behind `h`.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h.index()]
    }

    /// The profiler slot for `p`.
    pub fn prof(&self, p: Prof) -> ProfSlot {
        self.prof[p.index()]
    }

    /// Total `(events, cycles)` across every profiler kind.
    pub fn prof_total(&self) -> (u64, u64) {
        self.prof.iter().fold((0u64, 0u64), |(e, c), s| {
            (e.saturating_add(s.events), c.saturating_add(s.cycles))
        })
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0.0)
            && self.hists.iter().all(|h| h.summary().count() == 0)
            && self.prof.iter().all(|s| s.events == 0 && s.cycles == 0)
    }

    #[inline]
    fn record_count(&mut self, m: Metric, n: u64) {
        let c = &mut self.counters[m.index()];
        *c = c.saturating_add(n);
    }

    #[inline]
    fn record_gauge_max(&mut self, g: Gauge, v: f64) {
        let slot = &mut self.gauges[g.index()];
        if v > *slot {
            *slot = v;
        }
    }

    #[inline]
    fn record_observe(&mut self, h: Hist, v: f64) {
        self.hists[h.index()].record(v);
    }

    #[inline]
    fn record_profile(&mut self, p: Prof, cycles: u64) {
        let s = &mut self.prof[p.index()];
        s.events = s.events.saturating_add(1);
        s.cycles = s.cycles.saturating_add(cycles);
    }

    /// Merges `other` into `self`. Counters and profiler slots add
    /// (saturating), gauges take the max, histograms add bucket-wise —
    /// all operations commute, so any merge order yields the same
    /// registry (the sweep engine still merges in submission order for
    /// uniformity with trace/fault absorption).
    pub fn merge(&mut self, other: &Registry) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            if *b > *a {
                *a = *b;
            }
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
        for (a, b) in self.prof.iter_mut().zip(other.prof.iter()) {
            a.events = a.events.saturating_add(b.events);
            a.cycles = a.cycles.saturating_add(b.cycles);
        }
    }

    /// Serializes the registry as a single-line `nsc-metrics-v1` JSON
    /// object. Every known metric appears (zeros included) in sorted
    /// key order, so two equal registries always render byte-identically
    /// and the key set is stable across runs.
    pub fn to_json(&self) -> String {
        let fmt = crate::json::fmt_f64;
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"counters\":{");
        let counters: BTreeMap<&str, u64> =
            Metric::ALL.iter().map(|&m| (m.label(), self.count(m))).collect();
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        let gauges: BTreeMap<&str, f64> =
            Gauge::ALL.iter().map(|&g| (g.label(), self.gauge(g))).collect();
        for (i, (k, v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{}", fmt(*v)));
        }
        out.push_str("},\"histograms\":{");
        let hists: BTreeMap<&str, &Histogram> =
            Hist::ALL.iter().map(|&h| (h.label(), self.hist(h))).collect();
        for (i, (k, h)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.summary();
            let opt = |p: Option<f64>| p.map_or_else(|| "null".to_owned(), fmt);
            out.push_str(&format!(
                "\"{k}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                s.count(),
                fmt(s.mean()),
                opt(h.percentile_opt(50.0)),
                opt(h.percentile_opt(90.0)),
                opt(h.percentile_opt(99.0)),
            ));
        }
        out.push_str("},\"profile\":{");
        let prof: BTreeMap<&str, (Prof, ProfSlot)> =
            Prof::ALL.iter().map(|&p| (p.label(), (p, self.prof(p)))).collect();
        for (i, (k, (p, s))) in prof.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{k}\":{{\"component\":\"{}\",\"events\":{},\"cycles\":{}}}",
                p.component(),
                s.events,
                s.cycles,
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Count of threads with an installed registry. Zero means the fast
/// paths below return after one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static REGISTRY: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Installs `reg` as this thread's metrics shard, replacing (and
/// discarding) any previous shard without double-counting the
/// activation.
pub fn install(reg: Registry) {
    let prev = REGISTRY.with(|r| r.borrow_mut().replace(reg));
    if prev.is_none() {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
}

/// Removes and returns this thread's shard, if one is installed.
pub fn uninstall() -> Option<Registry> {
    let prev = REGISTRY.with(|r| r.borrow_mut().take());
    if prev.is_some() {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
    prev
}

/// True when **this thread** has a shard installed (the sweep engine
/// uses this on the submitting thread to decide whether workers should
/// shard).
pub fn installed() -> bool {
    REGISTRY.with(|r| r.borrow().is_some())
}

/// True when any thread in the process has a shard installed. This is a
/// hint: recording calls still no-op on threads without their own shard.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Merges `shard` into this thread's registry; a no-op when none is
/// installed. Sweeps call this on the submitting thread in submission
/// order.
pub fn absorb(shard: &Registry) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            reg.merge(shard);
        }
    });
}

/// A clone of this thread's current shard, if any (reports snapshot
/// without uninstalling so rendering stays side-effect free).
pub fn snapshot() -> Option<Registry> {
    REGISTRY.with(|r| r.borrow().clone())
}

/// Bumps counter `m` by one.
#[inline]
pub fn count(m: Metric) {
    add(m, 1);
}

/// Bumps counter `m` by `n`.
#[inline]
pub fn add(m: Metric, n: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    add_slow(m, n);
}

#[cold]
fn add_slow(m: Metric, n: u64) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            reg.record_count(m, n);
        }
    });
}

/// Raises gauge `g` to `v` if `v` is higher (high-water semantics).
#[inline]
pub fn gauge_max(g: Gauge, v: f64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    gauge_slow(g, v);
}

#[cold]
fn gauge_slow(g: Gauge, v: f64) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            reg.record_gauge_max(g, v);
        }
    });
}

/// Records sample `v` into histogram `h`.
#[inline]
pub fn observe(h: Hist, v: f64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    observe_slow(h, v);
}

#[cold]
fn observe_slow(h: Hist, v: f64) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            reg.record_observe(h, v);
        }
    });
}

/// Attributes one event of kind `p` costing `cycles` simulated cycles
/// to the self-profiler.
#[inline]
pub fn profile(p: Prof, cycles: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    profile_slow(p, cycles);
}

#[cold]
fn profile_slow(p: Prof, cycles: u64) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            reg.record_profile(p, cycles);
        }
    });
}

/// Process-global registry for long-running services (nscd). Separate
/// from the thread-local shards: always on, fed explicitly.
static GLOBAL: OnceLock<Mutex<Registry>> = OnceLock::new();

fn global() -> &'static Mutex<Registry> {
    GLOBAL.get_or_init(|| Mutex::new(Registry::new()))
}

/// Merges a worker shard into the process-global registry. The daemon
/// calls this at response-delivery time, i.e. in submission order per
/// connection.
pub fn absorb_global(shard: &Registry) {
    global().lock().unwrap().merge(shard);
}

/// Bumps a counter directly in the process-global registry (for
/// connection-level events recorded outside any run shard).
pub fn count_global(m: Metric, n: u64) {
    global().lock().unwrap().record_count(m, n);
}

/// High-water update directly on the process-global registry.
pub fn gauge_global_max(g: Gauge, v: f64) {
    global().lock().unwrap().record_gauge_max(g, v);
}

/// Records a sample directly into a process-global histogram.
pub fn observe_global(h: Hist, v: f64) {
    global().lock().unwrap().record_observe(h, v);
}

/// A clone of the process-global registry.
pub fn global_snapshot() -> Registry {
    global().lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_declaration_order() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{}", m.label());
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i, "{}", g.label());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i, "{}", h.label());
        }
        for (i, p) in Prof::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{}", p.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in Metric::ALL {
            assert!(seen.insert(m.label()), "duplicate {}", m.label());
        }
        for g in Gauge::ALL {
            assert!(seen.insert(g.label()), "duplicate {}", g.label());
        }
        for h in Hist::ALL {
            assert!(seen.insert(h.label()), "duplicate {}", h.label());
        }
        let mut prof = std::collections::BTreeSet::new();
        for p in Prof::ALL {
            assert!(prof.insert(p.label()), "duplicate {}", p.label());
        }
    }

    #[test]
    fn record_requires_install() {
        assert!(uninstall().is_none());
        count(Metric::MemL1Hits); // no registry: must be a no-op
        install(Registry::new());
        count(Metric::MemL1Hits);
        add(Metric::NocBytes, 10);
        gauge_max(Gauge::PoolQueueDepth, 3.0);
        gauge_max(Gauge::PoolQueueDepth, 2.0); // lower: ignored
        observe(Hist::NocLatencyCycles, 12.0);
        profile(Prof::EngineNearStream, 100);
        profile(Prof::EngineNearStream, 50);
        let snap = uninstall().unwrap();
        assert!(uninstall().is_none());
        assert_eq!(snap.count(Metric::MemL1Hits), 1);
        assert_eq!(snap.count(Metric::NocBytes), 10);
        assert_eq!(snap.gauge(Gauge::PoolQueueDepth), 3.0);
        assert_eq!(snap.hist(Hist::NocLatencyCycles).summary().count(), 1);
        assert_eq!(snap.prof(Prof::EngineNearStream), ProfSlot { events: 2, cycles: 150 });
        assert_eq!(snap.prof_total(), (2, 150));
    }

    #[test]
    fn merge_commutes_and_saturates() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.record_count(Metric::MemL1Hits, u64::MAX - 1);
        b.record_count(Metric::MemL1Hits, 5);
        a.record_gauge_max(Gauge::ServeInFlight, 2.0);
        b.record_gauge_max(Gauge::ServeInFlight, 7.0);
        a.record_observe(Hist::ServeRunMs, 5.0);
        b.record_observe(Hist::ServeRunMs, 25.0);
        a.record_profile(Prof::MemL3, u64::MAX - 10);
        b.record_profile(Prof::MemL3, 100);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(Metric::MemL1Hits), u64::MAX); // saturated
        assert_eq!(ab.gauge(Gauge::ServeInFlight), 7.0);
        assert_eq!(ab.hist(Hist::ServeRunMs).summary().count(), 2);
        assert_eq!(ab.prof(Prof::MemL3).cycles, u64::MAX); // saturated
        assert_eq!(ab.prof(Prof::MemL3).events, 2);
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn json_is_stable_and_parses() {
        let mut r = Registry::new();
        r.record_count(Metric::NocByteHops, 4096);
        r.record_observe(Hist::NocLatencyCycles, 17.0);
        r.record_profile(Prof::NocData, 17);
        let json = r.to_json();
        assert_eq!(json, r.clone().to_json());
        let doc = crate::json::parse(&json).expect("snapshot parses");
        let obj = doc.as_obj().unwrap();
        assert_eq!(
            obj.get("schema").and_then(crate::json::Json::as_str),
            Some(SCHEMA)
        );
        let counters = obj.get("counters").and_then(crate::json::Json::as_obj).unwrap();
        assert_eq!(counters.len(), Metric::ALL.len());
        assert_eq!(
            counters.get("noc.byte_hops").and_then(crate::json::Json::as_f64),
            Some(4096.0)
        );
        let prof = obj.get("profile").and_then(crate::json::Json::as_obj).unwrap();
        assert_eq!(prof.len(), Prof::ALL.len());
    }

    #[test]
    fn absorb_into_local_shard() {
        let mut shard = Registry::new();
        shard.record_count(Metric::ResultCacheHits, 3);
        install(Registry::new());
        absorb(&shard);
        absorb(&shard);
        let snap = uninstall().unwrap();
        assert_eq!(snap.count(Metric::ResultCacheHits), 6);
    }

    #[test]
    fn global_registry_accumulates() {
        let before = global_snapshot().count(Metric::ServeRequests);
        count_global(Metric::ServeRequests, 2);
        let mut shard = Registry::new();
        shard.record_count(Metric::ServeRequests, 1);
        absorb_global(&shard);
        let after = global_snapshot().count(Metric::ServeRequests);
        assert_eq!(after - before, 3);
    }
}
