//! Deep-dive probe for one workload: compiled streams plus Base / NS /
//! NS-decouple timing, traffic and memory-system counters.
//!
//! Usage: `probe_workload [workload] [--tiny|--small|--full] [--nocontention]`

use near_stream::ExecMode;
use nsc_bench::{finalize, prepare, system_for, Cli, Report};

fn main() {
    let args = Cli::new("probe_workload", "Deep-dive probe for one workload")
        .flag("nocontention", "disable NoC contention modelling")
        .positional("workload", "workload name (default pathfinder)")
        .parse();
    let name = args.positional().unwrap_or("pathfinder").to_string();
    let size = args.size;
    let mut cfg = system_for(size);
    if args.flag("nocontention") {
        cfg.mesh.contention = false;
    }
    let w = nsc_workloads::by_name(&name, size).unwrap_or_else(|| {
        panic!("unknown workload {name:?} (known: {})", nsc_workloads::names().join(", "))
    });
    let p = prepare(w);
    let mut rep = Report::new("probe_workload", size);
    rep.meta("workload", &name);
    for k in &p.compiled.kernels[..1] {
        for s in &k.streams { println!("  {s}"); }
        println!("  vw={} decoupled={}", k.vector_width, k.fully_decoupled);
    }
    for mode in [ExecMode::Base, ExecMode::Ns, ExecMode::NsDecouple] {
        let r = p.run_cached(mode, &cfg);
        rep.run(&name, mode.label(), &r);
        println!("{:12} cyc={:9} d/c/o={:>10}/{:>10}/{:>10} msgs={:8} dram={:7} l3h={:8} l3m={:7} l1h={} l1m={} inval={} wb={}",
            mode.label(), r.cycles, r.traffic.data, r.traffic.control, r.traffic.offloaded,
            r.traffic.messages, r.dram_accesses, r.mem.l3_hits, r.mem.l3_misses,
            r.mem.l1_hits, r.mem.l1_misses, r.mem.invalidations, r.mem.private_writebacks);
    }
    finalize(rep);
}
