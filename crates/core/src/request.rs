//! Canonical run requests: one builder type that names a simulation
//! point completely, and is therefore hashable (for the content-addressed
//! result cache) and serializable (for the `nscd` batch service).
//!
//! [`RunRequest`] is the one front door to the simulator (the historical
//! 6-positional-argument `run(...)` free functions are gone):
//!
//! ```
//! use near_stream::{ExecMode, RunRequest, SystemConfig};
//! use nsc_ir::build::KernelBuilder;
//! use nsc_ir::{ElemType, Expr, Program};
//!
//! let mut p = Program::new("memset");
//! let a = p.array("a", ElemType::I64, 4096);
//! let mut k = KernelBuilder::new("set", 4096);
//! let i = k.outer_var();
//! k.store(a, Expr::var(i), Expr::var(i) * Expr::imm(3));
//! p.push_kernel(k.finish());
//!
//! let cfg = SystemConfig::small();
//! let (result, mem) = RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).run();
//! assert!(result.cycles > 0);
//! assert_eq!(mem.read_index(a, 5), nsc_ir::Scalar::I64(15));
//! ```
//!
//! # Content addressing
//!
//! [`RunRequest::key`] digests everything the simulation depends on: the
//! program and its compilation, the parameter vector, the execution mode,
//! the full [`SystemConfig`], any armed fault plan, and the *initialized
//! memory image* (init closures cannot be hashed, so the cache addresses
//! their effect instead). A schema-version string is folded in first, so
//! bumping [`SCHEMA`] invalidates every previously stored entry at once.
//!
//! [`RunRequest::run_cached`] consults [`nsc_sim::cache`] under that key:
//! hits decode the stored record into a [`RunResult`] whose stats table
//! is byte-identical to the one the original miss produced (the record
//! stores every `f64` by bit pattern, because a decimal round-trip through
//! the report JSON cannot guarantee ULP-exactness); misses simulate and
//! store. A record that fails to decode counts as a miss and is
//! overwritten by the re-simulated result. Each consultation emits a
//! [`TraceEvent::ResultCache`](nsc_sim::trace::TraceEvent::ResultCache)
//! on the observability tracks and bumps the store's hit/miss/store
//! [`cache::CacheStats`](nsc_sim::cache::CacheStats).
//!
//! A cached record also carries the per-run fault-injection delta; a hit
//! replays it into the live injector accounting via `fault::absorb`, so a
//! warm sweep reports the same fault totals as the cold one. Caveat: a
//! *shared* injector's RNG stream does not advance on a hit, so mixing
//! hits and misses under one installed plan shifts which later runs see
//! faults — per-run plans (`FaultPlan::for_run`, what `nsc_bench::Sweep`
//! installs) are immune, since their schedule is a pure function of the
//! submission index.

use crate::config::{ExecMode, SystemConfig};
use crate::engine::RoleCounters;
use crate::system::{simulate, RunResult, TrafficSnapshot};
use nsc_compiler::{compile, CompiledProgram};
use nsc_ir::types::Scalar;
use nsc_ir::{ArrayId, Memory, Program};
use nsc_mem::MemStats;
use nsc_sim::cache::{self, Key, ResultCache};
use nsc_sim::error::SimError;
use nsc_sim::fault::{self, FaultStats};
use nsc_sim::trace::{self, TraceEvent};
use nsc_sim::{Cycle, Histogram, Summary};
use std::collections::HashMap;

/// Cache-record schema version, folded into every digest. Bump this when
/// the digest contents, the record encoding, or the simulator's observable
/// behavior changes in a way that should invalidate stored results.
pub const SCHEMA: &str = "nsc-run-v1";

/// A complete, canonical description of one simulation point.
///
/// Construct with [`RunRequest::new`], refine with the builder methods
/// (each defaults sensibly: no parameters, [`ExecMode::Base`], the
/// paper's default [`SystemConfig`], zero-initialized memory, compile on
/// demand), then execute with [`run`](RunRequest::run) /
/// [`try_run`](RunRequest::try_run) (returns the final memory too) or
/// [`run_cached`](RunRequest::run_cached) /
/// [`try_run_cached`](RunRequest::try_run_cached) (metrics only, served
/// from the result cache when armed).
///
/// `Clone` is cheap (the borrows are copied, only `params` and the
/// config are duplicated), so one partially-built request can fan out
/// into several modes.
#[derive(Clone)]
pub struct RunRequest<'a> {
    program: &'a Program,
    compiled: Option<&'a CompiledProgram>,
    params: Vec<Scalar>,
    mode: ExecMode,
    cfg: SystemConfig,
    init: Option<&'a dyn Fn(&mut Memory)>,
}

impl<'a> RunRequest<'a> {
    /// Starts a request for `program` with default settings.
    pub fn new(program: &'a Program) -> RunRequest<'a> {
        RunRequest {
            program,
            compiled: None,
            params: Vec::new(),
            mode: ExecMode::Base,
            cfg: SystemConfig::default(),
            init: None,
        }
    }

    /// Uses an existing compilation instead of compiling on demand
    /// (sweeps compile once and run many modes).
    pub fn compiled(mut self, compiled: &'a CompiledProgram) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// Sets the kernel parameter vector.
    pub fn params(mut self, params: &[Scalar]) -> Self {
        self.params = params.to_vec();
        self
    }

    /// Sets the execution mode (default [`ExecMode::Base`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the system configuration (default [`SystemConfig::default`]).
    pub fn config(mut self, cfg: &SystemConfig) -> Self {
        self.cfg = cfg.clone();
        self
    }

    /// Sets the input initializer, run on zeroed memory before simulation.
    pub fn init(mut self, init: &'a dyn Fn(&mut Memory)) -> Self {
        self.init = init_some(init);
        self
    }

    /// The execution mode this request will run under.
    pub fn mode_of(&self) -> ExecMode {
        self.mode
    }

    fn with_compiled<R>(&self, f: impl FnOnce(&CompiledProgram) -> R) -> R {
        match self.compiled {
            Some(c) => f(c),
            None => f(&compile(self.program)),
        }
    }

    fn init_memory(&self) -> Memory {
        let mut m = Memory::for_program(self.program);
        if let Some(init) = self.init {
            init(&mut m);
        }
        m
    }

    /// The content-address of this request (see the module docs for what
    /// it covers).
    pub fn key(&self) -> Key {
        let data = self.init_memory();
        self.with_compiled(|ck| self.digest(ck, &data))
    }

    /// Folds a [`CompiledProgram`] into `d` field by field, skipping its
    /// `HashMap`s (`stmt_stream`, `site_costs`): their `Debug` iteration
    /// order is per-process random, and their content is mirrored exactly
    /// by the dense `stream_vec` / `site_cost_vec` tables folded here.
    fn fold_compiled(d: &mut cache::Digest, compiled: &CompiledProgram) {
        d.u64(compiled.kernels.len() as u64);
        for k in &compiled.kernels {
            d.str(&k.name);
            d.str(&format!("{:?}", k.streams));
            d.str(&format!("{:?}", k.offloadable));
            d.str(&format!("{:?}", k.site_cost_vec));
            d.str(&format!("{:?}", k.stream_vec));
            d.u64(k.sync_free as u64);
            d.u64(k.fully_decoupled as u64);
            d.u64(k.vector_width as u64);
            // `k.plan` is deliberately NOT folded: bytecode vs tree-walker
            // execution is bit-identical, so NSC_COMPILE=0/1 must hit the
            // same cache records.
        }
    }

    fn digest(&self, compiled: &CompiledProgram, data: &Memory) -> Key {
        let mut d = cache::Digest::new(SCHEMA);
        // The `Debug` renderings of the program, its compilation and the
        // configuration are exact (f64 prints shortest-round-trip) and
        // change whenever a field is added, which is precisely the
        // invalidation we want; SCHEMA guards deliberate format changes.
        d.str("program");
        d.str(&format!("{:?}", self.program));
        d.str("compiled");
        Self::fold_compiled(&mut d, compiled);
        d.str("params");
        d.u64(self.params.len() as u64);
        for p in &self.params {
            match *p {
                Scalar::I64(v) => {
                    d.u64(0);
                    d.u64(v as u64);
                }
                Scalar::F64(v) => {
                    d.u64(1);
                    d.f64(v);
                }
            }
        }
        d.str("mode");
        d.str(self.mode.label());
        d.str("config");
        d.str(&format!("{:?}", self.cfg));
        d.str("fault");
        match fault::current_plan() {
            None => d.u64(0),
            Some(p) => {
                d.u64(1);
                d.u64(p.seed);
                d.f64(p.noc_drop);
                d.f64(p.noc_duplicate);
                d.f64(p.noc_delay);
                d.u64(p.noc_delay_cycles);
                d.f64(p.bank_stall);
                d.u64(p.bank_stall_cycles);
                d.f64(p.offload_nack);
                d.f64(p.mem_error);
                d.u64(p.mem_retry_cycles);
                d.f64(p.alias_false_positive);
            }
        }
        d.str("init");
        d.u64(data.n_arrays() as u64);
        for i in 0..data.n_arrays() {
            let raw = data.raw(ArrayId(i as u32));
            d.u64(raw.len() as u64);
            d.bytes(raw);
        }
        d.finish()
    }

    /// Runs the simulation, returning the result and final data memory.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or wedged simulation; use
    /// [`try_run`](RunRequest::try_run) for a typed [`SimError`].
    pub fn run(&self) -> (RunResult, Memory) {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`run`](RunRequest::run).
    pub fn try_run(&self) -> Result<(RunResult, Memory), SimError> {
        let data = self.init_memory();
        self.with_compiled(|ck| {
            simulate(self.program, ck, &self.params, self.mode, &self.cfg, data)
        })
    }

    /// Like [`run`](RunRequest::run) but consults the result cache and
    /// returns metrics only (a cached record does not include the final
    /// memory image; callers that need memory for correctness checks use
    /// the uncached path).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or wedged simulation.
    pub fn run_cached(&self) -> RunResult {
        match self.try_run_cached() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`run_cached`](RunRequest::run_cached).
    ///
    /// With the cache disarmed this is exactly
    /// [`try_run`](RunRequest::try_run) minus the memory; armed, a hit
    /// replays the stored record (byte-identical stats table, fault delta
    /// absorbed) and a miss simulates and stores.
    pub fn try_run_cached(&self) -> Result<RunResult, SimError> {
        self.try_run_cached_in(cache::shared())
    }

    /// [`try_run_cached`](RunRequest::try_run_cached) against an explicit
    /// [`ResultCache`] instead of the process-wide [`cache::shared`]
    /// handle (tests point private stores at scratch directories).
    pub fn try_run_cached_in(&self, store: &ResultCache) -> Result<RunResult, SimError> {
        if !cache::enabled() {
            return self.try_run().map(|(r, _)| r);
        }
        let data = self.init_memory();
        let key = self.with_compiled(|ck| self.digest(ck, &data));
        match lookup_cached(store, &key) {
            Some(result) => Ok(result),
            None => self.simulate_and_store(store, &key, data),
        }
    }

    /// The miss half of [`try_run_cached_in`](RunRequest::try_run_cached_in)
    /// for a caller that already holds this request's [`key`](RunRequest::key)
    /// and saw [`lookup_cached`] miss: simulates, then stores the record
    /// under `key`. `key` must be this request's own key, computed under
    /// the same armed fault plan; it is not recomputed here.
    pub fn try_run_and_store_in(
        &self,
        store: &ResultCache,
        key: &Key,
    ) -> Result<RunResult, SimError> {
        self.simulate_and_store(store, key, self.init_memory())
    }

    fn simulate_and_store(
        &self,
        store: &ResultCache,
        key: &Key,
        data: Memory,
    ) -> Result<RunResult, SimError> {
        let fault_mark = fault::snapshot();
        let (result, _mem) = self.with_compiled(|ck| {
            simulate(self.program, ck, &self.params, self.mode, &self.cfg, data)
        })?;
        let faults = fault::snapshot().since(&fault_mark);
        // A failed store degrades to an ordinary miss next time; the run
        // itself already succeeded.
        let _ = store.store(key, &encode(&result, &faults));
        Ok(result)
    }
}

/// The hit half of [`RunRequest::try_run_cached_in`]: one counted lookup
/// of a precomputed `key`. A hit decodes the record and replays its fault
/// delta into the live accounting; `None` (absent or undecodable) means
/// the caller must simulate and store. Either way a
/// [`TraceEvent::ResultCache`] records the outcome. Needs no program,
/// compilation or memory image, so a caller that remembers a request's
/// key can replay it without building the request at all.
pub fn lookup_cached(store: &ResultCache, key: &Key) -> Option<RunResult> {
    let rec = store.lookup(key, decode);
    trace::emit(|| TraceEvent::ResultCache {
        at: Cycle::ZERO,
        key: key.hi(),
        hit: rec.is_some(),
    });
    rec.map(|rec| {
        fault::absorb(rec.faults);
        rec.result
    })
}

// Free fn (not a method) so the builder's `init` setter can coerce the
// reference to the trait-object lifetime without naming it twice.
fn init_some(f: &dyn Fn(&mut Memory)) -> Option<&dyn Fn(&mut Memory)> {
    Some(f)
}

/// A decoded cache record: the run's metrics plus its fault-injection
/// delta (replayed into the live accounting on a hit).
///
/// Public because the `nscd` wire protocol ships run results as cache
/// records: the daemon [`encode`]s, the client [`decode`]s, and the
/// bit-pattern codec guarantees the round trip is exact.
pub struct CachedRun {
    /// The run's metrics, bit-exact.
    pub result: RunResult,
    /// Faults injected during the recorded run.
    pub faults: FaultStats,
}

fn push_u64s(out: &mut String, key: &str, vals: impl IntoIterator<Item = u64>) {
    out.push_str(key);
    out.push('=');
    let mut first = true;
    for v in vals {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// Encodes a run record as line-oriented `key=comma-separated-u64s`.
///
/// Every `f64` is stored by bit pattern: the record must replay a stats
/// table *byte-identical* to the miss that produced it, and a decimal
/// round-trip cannot promise that.
pub fn encode(r: &RunResult, faults: &FaultStats) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("schema=");
    out.push_str(SCHEMA);
    out.push('\n');
    out.push_str("mode=");
    out.push_str(r.mode.label());
    out.push('\n');
    push_u64s(&mut out, "cycles", [r.cycles]);
    push_u64s(
        &mut out,
        "traffic",
        [r.traffic.data, r.traffic.control, r.traffic.offloaded, r.traffic.messages],
    );
    let m = &r.mem;
    push_u64s(
        &mut out,
        "mem",
        [
            m.l1_hits,
            m.l1_misses,
            m.l2_hits,
            m.l2_misses,
            m.l3_hits,
            m.l3_misses,
            m.dram_reads,
            m.dram_writebacks,
            m.invalidations,
            m.private_writebacks,
            m.prefetch_fills,
            m.prefetch_hits,
            m.l3_atomics,
            m.read_retries,
        ],
    );
    push_u64s(
        &mut out,
        "uops",
        [bits(r.uops_core), bits(r.uops_se), bits(r.uops_scm), bits(r.total_uops)],
    );
    push_u64s(&mut out, "roles.assoc", r.roles.assoc.iter().map(|&v| bits(v)));
    push_u64s(&mut out, "roles.offloaded", r.roles.offloaded.iter().map(|&v| bits(v)));
    push_u64s(
        &mut out,
        "elems",
        [
            r.lock_acquisitions,
            r.lock_conflicts,
            r.alias_flushes,
            r.peb_flushes,
            r.offloaded_elems,
            r.stream_elems,
            r.dram_accesses,
        ],
    );
    push_u64s(&mut out, "noc.width", [bits(r.noc_latency.bucket_width())]);
    push_u64s(&mut out, "noc.counts", r.noc_latency.bucket_counts().iter().copied());
    let s = r.noc_latency.summary();
    push_u64s(
        &mut out,
        "noc.summary",
        [
            s.count(),
            bits(s.sum()),
            bits(s.min().unwrap_or(f64::INFINITY)),
            bits(s.max().unwrap_or(f64::NEG_INFINITY)),
        ],
    );
    push_u64s(
        &mut out,
        "recovery",
        [r.faults_injected, r.offload_retries, r.offload_fallbacks, r.rangesync_replays],
    );
    push_u64s(&mut out, "faults", faults.counts());
    out
}

/// Decodes a record produced by [`encode`]; `None` on any mismatch
/// (truncated file, wrong schema, stray field), which the caller treats
/// as a miss and overwrites.
pub fn decode(blob: &str) -> Option<CachedRun> {
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for line in blob.lines() {
        let (k, v) = line.split_once('=')?;
        fields.insert(k, v);
    }
    if fields.get("schema") != Some(&SCHEMA) {
        return None;
    }
    let mode = ExecMode::parse(fields.get("mode")?)?;
    let u64s = |key: &str| -> Option<Vec<u64>> {
        fields
            .get(key)?
            .split(',')
            .map(|t| t.parse::<u64>().ok())
            .collect()
    };
    let fixed = |key: &str, n: usize| -> Option<Vec<u64>> {
        let v = u64s(key)?;
        (v.len() == n).then_some(v)
    };

    let cycles = fixed("cycles", 1)?[0];
    let t = fixed("traffic", 4)?;
    let m = fixed("mem", 14)?;
    let u = fixed("uops", 4)?;
    let ra = fixed("roles.assoc", 5)?;
    let ro = fixed("roles.offloaded", 5)?;
    let e = fixed("elems", 7)?;
    let width = f64::from_bits(fixed("noc.width", 1)?[0]);
    let counts = u64s("noc.counts")?;
    let ns = fixed("noc.summary", 4)?;
    let rec = fixed("recovery", 4)?;
    let fc = fixed("faults", 7)?;
    if width.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || counts.is_empty() {
        return None;
    }

    let summary = Summary::from_parts(
        ns[0],
        f64::from_bits(ns[1]),
        f64::from_bits(ns[2]),
        f64::from_bits(ns[3]),
    );
    let mut roles = RoleCounters::default();
    for i in 0..5 {
        roles.assoc[i] = f64::from_bits(ra[i]);
        roles.offloaded[i] = f64::from_bits(ro[i]);
    }
    let result = RunResult {
        mode,
        cycles,
        traffic: TrafficSnapshot {
            data: t[0],
            control: t[1],
            offloaded: t[2],
            messages: t[3],
        },
        mem: MemStats {
            l1_hits: m[0],
            l1_misses: m[1],
            l2_hits: m[2],
            l2_misses: m[3],
            l3_hits: m[4],
            l3_misses: m[5],
            dram_reads: m[6],
            dram_writebacks: m[7],
            invalidations: m[8],
            private_writebacks: m[9],
            prefetch_fills: m[10],
            prefetch_hits: m[11],
            l3_atomics: m[12],
            read_retries: m[13],
        },
        uops_core: f64::from_bits(u[0]),
        uops_se: f64::from_bits(u[1]),
        uops_scm: f64::from_bits(u[2]),
        total_uops: f64::from_bits(u[3]),
        roles,
        lock_acquisitions: e[0],
        lock_conflicts: e[1],
        alias_flushes: e[2],
        peb_flushes: e[3],
        offloaded_elems: e[4],
        stream_elems: e[5],
        dram_accesses: e[6],
        noc_latency: Histogram::from_parts(width, counts, summary),
        faults_injected: rec[0],
        offload_retries: rec[1],
        offload_fallbacks: rec[2],
        rangesync_replays: rec[3],
    };
    let mut counts7 = [0u64; 7];
    counts7.copy_from_slice(&fc);
    Some(CachedRun {
        result,
        faults: FaultStats::from_counts(counts7),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_ir::build::KernelBuilder;
    use nsc_ir::{ElemType, Expr};

    fn memset_program(n: u64) -> Program {
        let mut p = Program::new("memset");
        let a = p.array("a", ElemType::I64, n);
        let mut k = KernelBuilder::new("set", n);
        let i = k.outer_var();
        k.store(a, Expr::var(i), Expr::var(i) * Expr::imm(3));
        k.sync_free();
        p.push_kernel(k.finish());
        p
    }

    #[test]
    fn precompiled_matches_compile_on_demand() {
        let p = memset_program(4096);
        let compiled = compile(&p);
        let cfg = SystemConfig::small();
        let (pre, _) = RunRequest::new(&p).compiled(&compiled).mode(ExecMode::Ns).config(&cfg).run();
        let (lazy, _) = RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).run();
        assert_eq!(pre.to_table().to_json(), lazy.to_table().to_json());
    }

    #[test]
    fn key_is_stable_and_perturbation_sensitive() {
        let p = memset_program(1024);
        let cfg = SystemConfig::small();
        let base = RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).key();
        assert_eq!(base, RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).key());
        // Mode.
        assert_ne!(base, RunRequest::new(&p).mode(ExecMode::Base).config(&cfg).key());
        // Config knob.
        let mut cfg2 = cfg.clone();
        cfg2.se.runahead_elems += 1;
        assert_ne!(base, RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg2).key());
        // Params.
        assert_ne!(
            base,
            RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).params(&[Scalar::I64(1)]).key()
        );
        // Init image.
        let init = |m: &mut Memory| m.write_index(ArrayId(0), 0, Scalar::I64(9));
        assert_ne!(base, RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).init(&init).key());
    }

    #[test]
    fn key_covers_fault_plan() {
        let p = memset_program(1024);
        let cfg = SystemConfig::small();
        let clean = RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).key();
        fault::install(fault::FaultPlan::uniform(7, 0.01));
        let faulty7 = RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).key();
        fault::uninstall();
        fault::install(fault::FaultPlan::uniform(8, 0.01));
        let faulty8 = RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).key();
        fault::uninstall();
        assert_ne!(clean, faulty7);
        assert_ne!(faulty7, faulty8);
    }

    #[test]
    fn record_roundtrip_is_byte_identical() {
        let p = memset_program(8192);
        let cfg = SystemConfig::small();
        let (res, _) = RunRequest::new(&p).mode(ExecMode::Ns).config(&cfg).run();
        let faults = FaultStats::from_counts([1, 0, 2, 0, 0, 3, 0]);
        let blob = encode(&res, &faults);
        let rec = decode(&blob).expect("well-formed record decodes");
        assert_eq!(rec.result.to_table().to_json(), res.to_table().to_json());
        assert_eq!(rec.faults.counts(), [1, 0, 2, 0, 0, 3, 0]);
        // Re-encoding the decoded record reproduces the blob exactly.
        assert_eq!(encode(&rec.result, &rec.faults), blob);
    }

    #[test]
    fn decode_rejects_malformed_records() {
        assert!(decode("").is_none());
        assert!(decode("schema=other\n").is_none());
        let p = memset_program(64);
        let (res, _) = RunRequest::new(&p).config(&SystemConfig::small()).run();
        let blob = encode(&res, &FaultStats::default());
        // Truncation and field corruption are both rejected.
        let half = &blob[..blob.len() / 2];
        assert!(decode(half).is_none());
        assert!(decode(&blob.replace("mode=Base", "mode=Nope")).is_none());
    }
}
