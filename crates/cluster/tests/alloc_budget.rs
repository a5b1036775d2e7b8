//! The dispatch loop's allocation budget, pinned by a counting global
//! allocator.
//!
//! The hot-path contract (docs/ARCHITECTURE.md) has three enforcement
//! layers: `sx_lint`'s A-rules prove *statically* that no allocating
//! construct is reachable from a hot root, this test proves *dynamically*
//! that the engine's steady state performs **zero allocations per event**,
//! and `benches/dispatch.rs` watches the resulting throughput.
//!
//! The dynamic form of "zero per event" used here: the total number of
//! heap allocations in a full `simulate_with_telemetry` call is the same
//! at `N` jobs and at `2N` jobs.  Every buffer the loop writes into is
//! pre-sized in `SimScratch::for_run` (one allocation each, regardless of
//! capacity), the cost-model memo misses once per *distinct* topology size
//! (the repeated-topology workload has the same four sizes at any N), and
//! the report assembly pre-sizes its filtered collections — so doubling
//! the event count must not add a single allocation.  If this test fails
//! after an engine change, something started allocating per event; run
//! `sx_lint` to find it, or hoist the buffer into `SimScratch`.
//!
//! Counts are kept per thread: the test harness runs tests on parallel
//! threads (and spawns the next test's thread while one is mid-window),
//! and a process-wide count would charge their allocations to whichever
//! window happens to be open.  Every counted window here runs on the test's
//! own thread — the sweep tests use `threads = 1`, the serial oracle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use split_exec::SplitExecConfig;
use sx_cluster::prelude::*;

/// Counts every allocation and reallocation on the allocating thread;
/// frees are not interesting (a free can't grow the heap, and counting it
/// would double-charge buffer growth).
struct CountingAllocator;

thread_local! {
    /// This thread's allocation count.  Const-initialized and drop-free,
    /// so bumping it from inside the allocator never allocates itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's final deallocations-turned-reallocations can
    // run after its thread-locals are torn down; those go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has performed so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations performed by one full simulate call (everything else —
/// workload generation, fleet construction, scheduler build — happens
/// outside the counted window).
fn allocations_for(policy: &SchedulerSpec, jobs: usize) -> usize {
    // The cache is bounded (with room for every distinct topology) so its
    // buffers are pre-sized at construction: an *unbounded* warm cache
    // grows with the distinct topologies each device happens to see, and
    // which device sees which topology depends on the dispatch pattern.
    let fleet = Fleet::new(
        FleetConfig {
            qpus: 4,
            seed: 11,
            cache_capacity: Some(8),
            ..FleetConfig::default()
        },
        SplitExecConfig::with_seed(11),
    );
    let workload = WorkloadSpec::repeated_topologies(jobs, 2.0, 11).generate();
    // Pre-warm every device's cost memo for every topology size in the
    // workload: a memo miss walks the full ASPEN prediction pipeline
    // (explicitly off the per-event path — see the hot-exempt boundary on
    // `predict_stage1`), and which (device, size) pairs miss depends on
    // the dispatch pattern, not the event count.
    for device in &fleet.devices {
        for lps in [24, 28, 30, 36] {
            device.cost.costs(lps).expect("workload sizes cost cleanly");
        }
    }
    let mut scheduler = policy.build();
    let mut sink = NullSink;
    let before = allocations();
    let report = simulate_with_telemetry(
        fleet,
        &workload,
        scheduler.as_mut(),
        &mut AdmitAll,
        SimConfig::default(),
        &mut sink,
        None,
    );
    let after = allocations();
    assert_eq!(
        report.records.len(),
        jobs,
        "every job must complete under AdmitAll on an open workload"
    );
    after - before
}

/// One throwaway run so lazily-initialized process state (allocator
/// internals, thread-locals) is paid for before any counted window opens.
fn warmup() {
    let _ = allocations_for(&SchedulerSpec::Fifo, 20);
}

fn assert_constant_in_n(policy: &SchedulerSpec) {
    warmup();
    let at_n = allocations_for(policy, 200);
    let at_2n = allocations_for(policy, 400);
    assert_eq!(
        at_n, at_2n,
        "{policy:?}: allocation count must not depend on the event count \
         (got {at_n} at 200 jobs vs {at_2n} at 400 jobs) — something \
         allocates per event",
    );
}

#[test]
fn fifo_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::Fifo);
}

#[test]
fn wfq_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::WeightedFair {
        weights: Vec::new(),
        lane_order: LaneOrder::default(),
    });
}

#[test]
fn edf_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::EarliestDeadlineFirst);
}

#[test]
fn affinity_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::CacheAffinity);
}

#[test]
fn spjf_dispatch_loop_allocates_independently_of_event_count() {
    assert_constant_in_n(&SchedulerSpec::ShortestPredictedFirst {
        aging_weight: sx_cluster::scheduler::DEFAULT_AGING_WEIGHT,
    });
}

#[test]
fn allocation_count_is_deterministic_run_to_run() {
    warmup();
    let first = allocations_for(&SchedulerSpec::Fifo, 200);
    let second = allocations_for(&SchedulerSpec::Fifo, 200);
    assert_eq!(
        first, second,
        "identical runs must perform identical allocation sequences"
    );
}

// --- the sweep runner's allocation budget ------------------------------
//
// `run_sweep`'s per-cell body (`sweep::run_cell`, around
// `RunSpec::simulate`, marked hot-root for sx_lint's A-rules) wraps the
// same engine the tests above budget.  Its
// contract: the runner adds NOTHING per cell beyond the cell body itself —
// collection and merging are per-sweep constants — so the per-cell
// steady-state allocation count is unchanged under the sweep runner.
//
// **Thread-spawn exemption**: these tests measure at `threads = 1`, the
// serial oracle, where the compat rayon facade spawns no threads.  At
// `threads > 1` the facade pays one scoped-thread spawn per worker per
// *sweep* — a per-sweep constant owned by `std::thread`, not a per-event
// or per-cell cost — and runs the bit-identical per-cell body (pinned by
// tests/sweep_determinism.rs), so exempting spawn cost loses nothing.

use std::sync::Arc;

/// A self-contained sweep cell mirroring `allocations_for`'s setup: bounded
/// cache (pre-sized buffers) and the repeated-topology mix.
fn sweep_cell(jobs: usize) -> CellSpec {
    CellSpec {
        label: "alloc-budget".to_string(),
        sample_interval: 5.0,
        run: RunSpec {
            seed: 11,
            fleet: FleetConfig {
                qpus: 4,
                seed: 11,
                cache_capacity: Some(8),
                ..FleetConfig::default()
            },
            scheduler: SchedulerSpec::Fifo,
            admission: AdmissionSpec::AdmitAll,
            config: SimConfig::default(),
            workload: Arc::new(WorkloadSpec::repeated_topologies(jobs, 2.0, 11).generate()),
        },
    }
}

fn allocations_for_sweep(cells: &[CellSpec]) -> usize {
    let before = allocations();
    let outcome = run_sweep(cells, 1);
    let after = allocations();
    assert_eq!(outcome.cells.len(), cells.len());
    after - before
}

#[test]
fn sweep_runner_adds_constant_overhead_and_nothing_per_cell() {
    warmup();
    // Identical cells (one shared workload): every per-cell quantity —
    // dispatch pattern, memo misses, sketch bucket spans, registry sample
    // counts — is identical, so allocation counts must be exactly linear
    // in the cell count.  A super-linear term means the runner itself
    // started allocating per cell beyond the cell body.
    let cell = sweep_cell(200);
    let one = vec![cell.clone()];
    let two = vec![cell.clone(), cell.clone()];
    let three = vec![cell.clone(), cell.clone(), cell.clone()];
    // Throwaway sweep: pays one-time lazy state (thread-local init, first
    // merge growth patterns) before any counted window opens.
    let _ = run_sweep(&one, 1);
    let c1 = allocations_for_sweep(&one);
    let c2 = allocations_for_sweep(&two);
    let c3 = allocations_for_sweep(&three);
    assert_eq!(
        c2 - c1,
        c3 - c2,
        "per-cell marginal allocation cost must be constant under the sweep \
         runner (got {c1}/{c2}/{c3} for 1/2/3 identical cells)"
    );
}

#[test]
fn sweep_cell_body_matches_direct_execution() {
    warmup();
    let cell = sweep_cell(200);
    let _ = run_sweep(std::slice::from_ref(&cell), 1);

    // The cell body run directly, outside the runner.
    let mut sink = NullSink;
    let before = allocations();
    let direct_result = sx_cluster::sweep::run_cell(0, &cell, &mut sink);
    let direct = allocations() - before;

    // The same cell as the marginal cost of one more cell in a sweep: the
    // merged sketches already span the (identical) cell's bucket range
    // after the first cell, so the second cell's merge allocates nothing
    // and the marginal cost is exactly the cell body.
    let one = vec![cell.clone()];
    let two = vec![cell.clone(), cell.clone()];
    let c1 = allocations_for_sweep(&one);
    let c2 = allocations_for_sweep(&two);
    assert_eq!(
        c2 - c1,
        direct,
        "a cell inside run_sweep must allocate exactly what the cell body \
         allocates directly ({direct}) — the runner adds nothing per cell"
    );
    assert_eq!(direct_result.report.records.len(), 200);
}
