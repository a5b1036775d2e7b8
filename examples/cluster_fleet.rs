//! Simulating a datacenter of annealers: workloads, policies, metrics.
//!
//! Builds a *heterogeneous* 4-QPU fleet (DW2X- and Vesuvius-class devices
//! alternating, each with its own fault map) whose warm-embedding caches
//! are bounded at 2 topologies per device, generates a bursty stream of
//! repeated-topology jobs, and compares the three scheduling policies on
//! identical seeds — then shows what the eviction policy changes.  Run
//! with:
//!
//! ```text
//! cargo run --release --example cluster_fleet
//! ```

use split_exec::SplitExecConfig;
use sx_cluster::prelude::*;

fn main() {
    let seed = 42;
    let capacity = 2;
    let workload = WorkloadSpec::bursty(120, 1.5, 6, seed).generate();
    println!(
        "workload: {} jobs over {} distinct topologies (max lps {})\n",
        workload.len(),
        workload.distinct_topologies(),
        workload.max_lps()
    );

    for policy in SchedulerSpec::all() {
        // Same fleet seed per policy: identical fault maps, fair comparison.
        // Each device holds at most `capacity` warm embeddings (LRU).
        let fleet = Fleet::new(
            FleetConfig::heterogeneous(4, seed).with_cache(capacity, EvictionPolicyKind::Lru),
            SplitExecConfig::with_seed(seed),
        );
        let mut scheduler = policy.build();
        let report = simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default());
        println!("{report}");
        for qpu in &report.per_qpu {
            println!(
                "  qpu {}: {} jobs, {:.0}% util, {} warm hits / {} cold embeds, \
                 {} evictions, {}/{} topologies cached",
                qpu.qpu,
                qpu.jobs,
                100.0 * qpu.utilization,
                qpu.warm_hits,
                qpu.cold_misses,
                qpu.evictions,
                qpu.warm_topologies,
                capacity,
            );
        }
        // The same summary shape a batch run produces:
        println!("{}\n", report.batch_summary());
    }

    // The eviction policy matters once the cache is tight: cost-aware
    // eviction keeps the topologies that are expensive to re-embed.
    println!("eviction policy at capacity 2 (FIFO scheduling):");
    for eviction in EvictionPolicyKind::all() {
        let fleet = Fleet::new(
            FleetConfig::heterogeneous(4, seed).with_cache(2, eviction),
            SplitExecConfig::with_seed(seed),
        );
        // FIFO routes blind to warmth, so the caches churn and the
        // eviction choice is what separates the two runs.
        let mut scheduler = SchedulerSpec::Fifo.build();
        let report = simulate(fleet, &workload, scheduler.as_mut(), SimConfig::default());
        println!(
            "  {:>10}: mean latency {:.3}s, hit rate {:.0}%, {} evictions",
            eviction.name(),
            report.latency.mean,
            100.0 * report.hit_rate(),
            report.evictions()
        );
    }
}
