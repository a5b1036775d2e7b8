//! The two `sx_cluster` workloads: open Poisson arrivals replayed against a
//! heterogeneous 4-QPU fleet under the `fifo`, `affinity` and `wfq`
//! policies, each cell from a fresh fleet.
//!
//! * `cluster_overload` — the two-tenant aggressor/victim mix of
//!   `cluster_sim --mode bench` at 1.5× warm capacity with unbounded
//!   caches: the dispatch queue grows for the whole run.
//! * `cluster_churn` — a single-tenant MaxCut-cycle mix of eight
//!   topologies at load 0.6, with every device's cache bounded at two
//!   entries under cost-aware eviction: the queue stays at tens of jobs
//!   and the caches keep evicting.

use crate::probe::{
    log_log_slope, median, peak_rss_mb, quantile, timed, Cores, TimedScheduler, TimedSink,
};
use crate::{Args, Outcome};
use split_exec::SplitExecConfig;
use std::time::Instant;
use sx_cluster::{
    simulate_with_telemetry, AdmitAll, ArrivalProcess, CacheAffinity, DeadlinePolicy,
    EvictionPolicyKind, FamilySpec, Fifo, Fleet, FleetConfig, MetricsRegistry, MultiTenantSpec,
    NullSink, PercentileMode, RateCalibration, Scheduler, SimConfig, SimReport, StreamingHistogram,
    WeightedFairQueue, Workload, WorkloadMode, WorkloadSpec,
};

/// Virtual-time sampling cadence of each cell's metrics registry (the
/// sweep runner's default).
const SAMPLE_INTERVAL: f64 = 5.0;
/// Independent workload instances per run, each drawn from `--seed` and
/// set up once (so `setup_s` is a median of eight set-ups).  Every
/// end-to-end metric is the median over the instances: under overload the
/// cost of the `affinity` policy alone varies by about 2x from one arrival
/// stream to the next, and a median of eight keeps the run's figure steady.
const INSTANCES: usize = 8;
/// Seed of the fleet (device fault maps and the devices' application
/// configuration).  The fleet is the program's hardware, not its workload,
/// so it stays fixed and `--seed` varies only the job streams.
const FLEET_SEED: u64 = 7;
/// The policies every round runs, in order.
const POLICIES: [&str; 3] = ["fifo", "affinity", "wfq"];
/// Job-count fractions of the prefixes the traced run fits its scaling
/// exponent over.
const PREFIXES: [f64; 3] = [0.25, 0.5, 1.0];

/// One cluster workload.
pub struct Shape {
    /// Jobs per cell.
    jobs: usize,
    /// Offered warm work as a fraction of fleet capacity.
    load: f64,
    /// Topology sizes (logical spins) the arrival rate is calibrated over.
    calibration_sizes: &'static [usize],
    fleet: fn() -> FleetConfig,
    workload: fn(usize, f64, u64) -> Workload,
}

pub const OVERLOAD: Shape = Shape {
    jobs: 6_000,
    // At 1.1 the `affinity` cell's cost varies up to 20x from one arrival
    // stream to the next; at 1.5 the backlog dominates and it varies ~2x.
    load: 1.5,
    calibration_sizes: &[16, 20, 24],
    fleet: || FleetConfig::heterogeneous(4, FLEET_SEED),
    workload: |jobs, rate_hz, seed| {
        // As in `cluster_sim --mode bench`: the aggressor submits 3x the
        // victim's jobs at 3x its rate.
        let asymmetry = 3.0;
        let victim_rate_hz = rate_hz / (1.0 + asymmetry);
        MultiTenantSpec::aggressor_victim(jobs / 4, victim_rate_hz, asymmetry, 1.0, seed).generate()
    },
};

const CHURN_SIZES: &[usize] = &[8, 10, 12, 14, 16, 18, 20, 22];

pub const CHURN: Shape = Shape {
    jobs: 20_000,
    // High enough that jobs wait, so latency percentiles are not one fixed
    // service time; low enough that the queue stays at tens of jobs.
    load: 0.6,
    calibration_sizes: CHURN_SIZES,
    fleet: || {
        FleetConfig::heterogeneous(4, FLEET_SEED).with_cache(2, EvictionPolicyKind::CostAware)
    },
    workload: |jobs, rate_hz, seed| {
        WorkloadSpec {
            jobs,
            seed,
            arrivals: ArrivalProcess::Poisson { rate_hz },
            mix: vec![(
                1.0,
                FamilySpec::MaxCutCycle {
                    sizes: CHURN_SIZES.to_vec(),
                },
            )],
            deadlines: DeadlinePolicy::None,
        }
        .generate()
    },
};

fn sim_config() -> SimConfig {
    SimConfig {
        mode: WorkloadMode::Open,
        percentiles: PercentileMode::Sketch,
    }
}

fn scheduler(policy: &str, workload: &Workload) -> Box<dyn Scheduler> {
    match policy {
        "fifo" => Box::new(Fifo),
        "affinity" => Box::new(CacheAffinity),
        _ => Box::new(WeightedFairQueue::for_workload(workload)),
    }
}

fn new_fleet(config: &FleetConfig) -> Fleet {
    Fleet::new(config.clone(), SplitExecConfig::with_seed(FLEET_SEED))
}

/// One workload instance, set up, with its phase timings.
struct Setup {
    fleet: FleetConfig,
    workload: Workload,
    /// `RateCalibration` plus `Fleet::new`.
    fleet_s: f64,
    generate_s: f64,
}

fn setup(shape: &Shape, seed: u64) -> Setup {
    let config = (shape.fleet)();
    let (calibration, calibrate_s) = timed(|| {
        RateCalibration::for_fleet(&config, shape.calibration_sizes)
            .expect("every calibration size fits the fleet")
    });
    let rate_hz = calibration.rate_hz(1.0, shape.load, config.qpus);
    let (workload, generate_s) = timed(|| (shape.workload)(shape.jobs, rate_hz, seed));
    let (_fleet, build_s) = timed(|| new_fleet(&config));
    Setup {
        fleet: config,
        workload,
        fleet_s: calibrate_s + build_s,
        generate_s,
    }
}

/// One simulated cell.
struct Cell {
    report: SimReport,
    sketch: StreamingHistogram,
    /// Host seconds inside `simulate_with_telemetry`.
    call_s: f64,
}

/// What a round keeps of each cell.
#[derive(Clone, Copy)]
struct Timing {
    instance: usize,
    /// Index into [`POLICIES`].
    policy: usize,
    call_s: f64,
    jobs: usize,
    events: usize,
}

/// Per-cell counters the traced pass reads off the wrappers.
#[derive(Default)]
struct CellTrace {
    scheduler_s: f64,
    calls: u64,
    dispatches: u64,
    queue_sum: u64,
    records: u64,
    sink_s: f64,
}

fn run_cell(
    fleet: &FleetConfig,
    workload: &Workload,
    policy: &str,
    trace: Option<&mut CellTrace>,
) -> Cell {
    let fleet = new_fleet(fleet);
    let mut policy = scheduler(policy, workload);
    let mut registry = MetricsRegistry::new(SAMPLE_INTERVAL);
    let (report, call_s) = match trace {
        None => timed(|| {
            simulate_with_telemetry(
                fleet,
                workload,
                policy.as_mut(),
                &mut AdmitAll,
                sim_config(),
                &mut NullSink,
                Some(&mut registry),
            )
        }),
        Some(out) => {
            let mut scheduler = TimedScheduler::new(policy.as_mut());
            let mut sink = TimedSink::new(NullSink);
            let timed_call = timed(|| {
                simulate_with_telemetry(
                    fleet,
                    workload,
                    &mut scheduler,
                    &mut AdmitAll,
                    sim_config(),
                    &mut sink,
                    Some(&mut registry),
                )
            });
            *out = CellTrace {
                scheduler_s: scheduler.self_time.as_secs_f64(),
                calls: scheduler.calls,
                dispatches: scheduler.dispatches,
                queue_sum: scheduler.queue_sum,
                records: sink.records,
                sink_s: sink.self_time.as_secs_f64(),
            };
            timed_call
        }
    };
    let sketch = registry
        .histogram("latency_seconds")
        .cloned()
        .unwrap_or_default();
    Cell {
        report,
        sketch,
        call_s,
    }
}

/// Run rounds (every instance under every policy) until `seconds` have
/// passed (at least one round), or exactly `rounds` rounds when given.
/// Every cell is checked for conservation and its sketch count, and
/// against the first round's cell of the same instance and policy
/// (`reference`, filled by the first round ever run) for identical
/// outputs.
#[allow(clippy::too_many_arguments)]
fn run_rounds(
    setups: &[Setup],
    seconds: f64,
    rounds: Option<usize>,
    mut traces: Option<&mut Vec<CellTrace>>,
    reference: &mut Vec<Cell>,
    cores: &mut Cores,
    out: &mut Outcome,
    label: &str,
) -> Vec<Timing> {
    let start = Instant::now();
    let mut timings = Vec::new();
    let mut round = 0;
    let (mut bad_conservation, mut bad_sketch, mut bad_identity) = (0, 0, 0);
    loop {
        cores.rotate();
        for (instance, setup) in setups.iter().enumerate() {
            for (policy, name) in POLICIES.iter().enumerate() {
                let mut trace = CellTrace::default();
                let cell = run_cell(
                    &setup.fleet,
                    &setup.workload,
                    name,
                    traces.is_some().then_some(&mut trace),
                );
                let r = &cell.report;
                bad_conservation += usize::from(r.completed + r.shed + r.rejected != r.jobs);
                bad_sketch += usize::from(cell.sketch.count() as usize != r.completed);
                timings.push(Timing {
                    instance,
                    policy,
                    call_s: cell.call_s,
                    jobs: r.jobs,
                    events: r.events,
                });
                if let Some(t) = traces.as_deref_mut() {
                    t.push(trace);
                }
                let slot = instance * POLICIES.len() + policy;
                if reference.len() == slot {
                    reference.push(cell);
                } else {
                    let want = &reference[slot];
                    bad_identity +=
                        usize::from(want.report != cell.report || want.sketch != cell.sketch);
                }
            }
        }
        round += 1;
        let done = match rounds {
            Some(n) => round >= n,
            None => start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
    }
    let cells = timings.len();
    out.gate(
        format!("{label} conservation"),
        bad_conservation == 0,
        format!("completed+shed+rejected != jobs in {bad_conservation} of {cells} cells"),
    );
    out.gate(
        format!("{label} sketch count"),
        bad_sketch == 0,
        format!("latency-sketch count != completed in {bad_sketch} of {cells} cells"),
    );
    out.gate(
        format!("{label} identical outputs"),
        bad_identity == 0,
        format!("{bad_identity} of {cells} cells differ from the first untraced round"),
    );
    timings
}

/// The median over instances of `f` applied to each instance's timings and
/// reference cells.
fn per_instance(
    timings: &[Timing],
    reference: &[Cell],
    f: impl Fn(&[&Timing], &[Cell]) -> f64,
) -> f64 {
    let values: Vec<f64> = (0..INSTANCES)
        .map(|k| {
            let mine: Vec<&Timing> = timings.iter().filter(|t| t.instance == k).collect();
            f(
                &mine,
                &reference[k * POLICIES.len()..(k + 1) * POLICIES.len()],
            )
        })
        .collect();
    median(&values)
}

pub fn run(shape: &Shape, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut cores = Cores::allowed();
    let setups: Vec<Setup> = (0..INSTANCES)
        .map(|k| {
            cores.rotate();
            setup(
                shape,
                args.seed
                    .wrapping_mul(INSTANCES as u64)
                    .wrapping_add(k as u64),
            )
        })
        .collect();
    let setup_s = median(
        &setups
            .iter()
            .map(|s| s.fleet_s + s.generate_s)
            .collect::<Vec<_>>(),
    );
    out.note(format!(
        "{INSTANCES} instances of {} jobs over {} topologies; policies {}",
        shape.jobs,
        setups[0].workload.distinct_topologies(),
        POLICIES.join(",")
    ));

    let mut reference = Vec::new();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_rounds(
        &setups,
        budget,
        None,
        None,
        &mut reference,
        &mut cores,
        &mut out,
        "untraced",
    );
    let rounds = untraced.len() / reference.len();
    let call_s: f64 = untraced.iter().map(|t| t.call_s).sum();
    out.attempted = reference.iter().map(|c| c.report.jobs as u64).sum();
    out.failed = reference
        .iter()
        .map(|c| (c.report.shed + c.report.rejected) as u64)
        .sum();
    out.note(format!(
        "untraced: {rounds} rounds, {} cells, {call_s:.3} s in simulate calls",
        untraced.len()
    ));
    out.note(cores.note());
    let round_s: Vec<String> = untraced
        .chunks(reference.len())
        .map(|round| format!("{:.3}", round.iter().map(|t| t.call_s).sum::<f64>()))
        .collect();
    out.note(format!("seconds per round: {}", round_s.join(" ")));
    for (slot, cell) in reference.iter().enumerate() {
        let (instance, policy) = (slot / POLICIES.len(), slot % POLICIES.len());
        let times: Vec<f64> = untraced
            .iter()
            .filter(|t| t.instance == instance && t.policy == policy)
            .map(|t| t.call_s)
            .collect();
        let r = &cell.report;
        out.note(format!(
            "instance {instance} {}: median {:.4} s per cell, {} events, max queue {}, \
             hit rate {:.3}, {} evictions, p99 {:.1} s",
            POLICIES[policy],
            median(&times),
            r.events,
            r.max_queue_depth(),
            r.hit_rate(),
            r.evictions(),
            cell.sketch.p99()
        ));
    }

    if !args.trace {
        // Each cell's host time is its fastest round: rounds are spread
        // over the whole run, so a slow spell of the shared host has to
        // cover every round of a cell to move it.
        let fastest: Vec<Timing> = (0..reference.len())
            .map(|slot| {
                *untraced
                    .iter()
                    .filter(|t| t.instance * POLICIES.len() + t.policy == slot)
                    .min_by(|a, b| a.call_s.total_cmp(&b.call_s))
                    .expect("every round runs every cell")
            })
            .collect();
        let jobs_per_s = per_instance(&fastest, &reference, |t, _| {
            t.iter().map(|t| t.jobs).sum::<usize>() as f64 / t.iter().map(|t| t.call_s).sum::<f64>()
        });
        let job_ms = |q: f64| {
            per_instance(&fastest, &reference, |t, _| {
                let ms: Vec<f64> = t.iter().map(|t| 1e3 * t.call_s / t.jobs as f64).collect();
                quantile(&ms, q)
            })
        };
        // Exact percentiles from the per-job records: the sketch's buckets
        // would quantize them.
        let latency = |q: f64| {
            per_instance(&untraced, &reference, |_, cells| {
                let latencies: Vec<f64> = cells
                    .iter()
                    .flat_map(|c| c.report.records.iter().map(|r| r.finish - r.arrival))
                    .collect();
                quantile(&latencies, q)
            })
        };
        let warm_share = per_instance(&untraced, &reference, |_, cells| {
            let warm: usize = cells.iter().map(|c| c.report.warm_hits()).sum();
            let completed: usize = cells.iter().map(|c| c.report.completed).sum();
            warm as f64 / completed.max(1) as f64
        });
        out.note(format!(
            "each metric is the median over {INSTANCES} instances; a cell's host time is the \
             fastest of its {rounds} rounds; job_ms is host ms per simulated job, one sample per cell"
        ));
        out.metric("setup_s", setup_s, "s");
        out.metric("jobs_per_s", jobs_per_s, "jobs/s");
        out.metric("job_ms_p50", job_ms(0.5), "ms");
        out.metric("job_ms_p90", job_ms(0.9), "ms");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("sim_p50_s", latency(0.5), "s");
        out.metric("sim_p99_s", latency(0.99), "s");
        out.metric("optimal_frac", warm_share, "ratio");
        return out;
    }

    // The traced pass: the same rounds, scheduler and sink wrapped.
    let mut traces = Vec::new();
    let traced = run_rounds(
        &setups,
        0.0,
        Some(rounds),
        Some(&mut traces),
        &mut reference,
        &mut cores,
        &mut out,
        "traced",
    );
    let cells = traced.len() as f64;
    let traced_call_s: f64 = traced.iter().map(|t| t.call_s).sum();
    let sum = |f: fn(&CellTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let scheduler_s = sum(|t| t.scheduler_s);
    let sink_s = sum(|t| t.sink_s);
    let calls = sum(|t| t.calls as f64);
    let policy_self_s = |policy: usize| {
        let picked: Vec<f64> = traced
            .iter()
            .zip(&traces)
            .filter(|(t, _)| t.policy == policy)
            .map(|(_, c)| c.scheduler_s)
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let per_cell = |f: fn(&SimReport) -> usize| {
        reference.iter().map(|c| f(&c.report)).sum::<usize>() as f64 / reference.len() as f64
    };
    let hits = per_cell(SimReport::warm_hits);
    let misses = per_cell(SimReport::cold_misses);
    let events: usize = untraced.iter().map(|t| t.events).sum();
    let median_of = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    // Scaling: untraced calls on growing prefixes of the same arrivals.
    let mut points = Vec::new();
    for fraction in PREFIXES {
        let (mut call, mut prefix_events) = (0.0, 0usize);
        for setup in &setups {
            let take = ((setup.workload.len() as f64 * fraction) as usize).max(1);
            let prefix = Workload {
                jobs: setup.workload.jobs[..take].to_vec(),
                tenants: setup.workload.tenants.clone(),
            };
            for policy in POLICIES {
                let cell = run_cell(&setup.fleet, &prefix, policy, None);
                call += cell.call_s;
                prefix_events += cell.report.events;
            }
        }
        out.note(format!(
            "prefix {fraction}: {prefix_events} events in {call:.4} s"
        ));
        points.push((prefix_events as f64, call));
    }

    out.note(format!(
        "traced: {} cells, {traced_call_s:.3} s in simulate calls; \
         times and counts below are per cell unless a ratio",
        traced.len()
    ));
    out.metric("workload.generate_s", median_of(|s| s.generate_s), "s");
    out.metric("fleet.build_s", median_of(|s| s.fleet_s), "s");
    out.metric("sim.call_s", traced_call_s / cells, "s");
    out.metric(
        "sim.self_s",
        (traced_call_s - scheduler_s - sink_s) / cells,
        "s",
    );
    out.metric("sim.ns_per_event", 1e9 * call_s / events as f64, "ns");
    out.metric("sim.events", events as f64 / untraced.len() as f64, "count");
    out.metric(
        "sim.queue_depth_max",
        per_cell(SimReport::max_queue_depth),
        "count",
    );
    out.metric("sim.scaling_exponent", log_log_slope(&points), "ratio");
    out.metric("scheduler.fifo.self_s", policy_self_s(0), "s");
    out.metric("scheduler.affinity.self_s", policy_self_s(1), "s");
    out.metric("scheduler.wfq.self_s", policy_self_s(2), "s");
    out.metric("scheduler.calls", calls / cells, "count");
    out.metric(
        "scheduler.dispatch_ratio",
        sum(|t| t.dispatches as f64) / calls,
        "ratio",
    );
    out.metric(
        "scheduler.queue_per_call",
        sum(|t| t.queue_sum as f64) / calls,
        "count",
    );
    out.metric(
        "telemetry.records",
        sum(|t| t.records as f64) / cells,
        "count",
    );
    out.metric("telemetry.sink_self_s", sink_s / cells, "s");
    out.metric("cache.hit_rate", hits / (hits + misses), "ratio");
    out.metric("cache.evictions", per_cell(SimReport::evictions), "count");
    out.metric(
        "cache.bypassed",
        per_cell(SimReport::cache_bypassed),
        "count",
    );
    crate::pipeline::zero_layers(&mut out);
    out.metric("trace.overhead", call_s / traced_call_s, "ratio");
    out
}

/// The cluster layers, reported as zero by workloads that do not run them.
pub fn zero_layers(out: &mut Outcome) {
    for (name, unit) in [
        ("fleet.build_s", "s"),
        ("sim.call_s", "s"),
        ("sim.self_s", "s"),
        ("sim.ns_per_event", "ns"),
        ("sim.events", "count"),
        ("sim.queue_depth_max", "count"),
        ("sim.scaling_exponent", "ratio"),
        ("scheduler.fifo.self_s", "s"),
        ("scheduler.affinity.self_s", "s"),
        ("scheduler.wfq.self_s", "s"),
        ("scheduler.calls", "count"),
        ("scheduler.dispatch_ratio", "ratio"),
        ("scheduler.queue_per_call", "count"),
        ("telemetry.records", "count"),
        ("telemetry.sink_self_s", "s"),
        ("cache.hit_rate", "ratio"),
        ("cache.evictions", "count"),
        ("cache.bypassed", "count"),
    ] {
        out.metric(name, 0.0, unit);
    }
}
