//! The two `split_exec` workloads: one client in a closed loop, each job
//! an even weighted MaxCut cycle with fresh weights, executed through the
//! whole pipeline.
//!
//! * `pipeline_cold` — `Pipeline::execute`: every job runs the CMR
//!   minor-embedding heuristic (stage 1).
//! * `pipeline_warm` — the same jobs through `Pipeline::execute_cached`
//!   with an `EmbeddingCache` filled during set-up: stage 1 becomes a
//!   lookup and stage-2 sampling dominates.
//!
//! An even cycle is bipartite, so with positive weights its maximum cut is
//! the total edge weight: every job's optimum is known.

use crate::probe::{median, peak_rss_mb, quantile, timed, Cores};
use crate::{Args, Outcome};
use chimera_graph::generators;
use quantum_anneal::SimulatedQpu;
use qubo_ising::prelude::{spins_to_bits, MaxCut};
use qubo_ising::{qubo_to_ising, Qubo};
use split_exec::prelude::{execute_stage1_cached, execute_stage2_with_backend, execute_stage3};
use split_exec::{
    EmbeddingCache, ExecutionReport, Pipeline, PipelineError, SolutionSummary, SplitExecConfig,
    SplitMachine,
};
use std::sync::Arc;
use std::time::Instant;

/// Cycle sizes; every block of `SIZES.len()` consecutive jobs holds each
/// size once, in a seeded order, so the size mix does not vary by seed.
const SIZES: [usize; 5] = [8, 10, 12, 14, 16];
/// Jobs per run, each size 20 times.  The run executes the list in passes
/// until its time is up, and a job's host time is its fastest pass: the
/// passes are spread over the whole run, so a slow spell of the shared
/// host has to cover every pass of a job to move it.
const JOBS: usize = 100;
/// Set-ups timed per run, at least and at most; between the two, set-up
/// repeats until [`SETUP_SECONDS`] have passed.  `setup_s` is the median.
const SETUPS: (usize, usize) = (5, 50);
const SETUP_SECONDS: f64 = 1.0;
/// Jobs of a warm run re-executed cold to check the two paths agree (a
/// cold run re-executes all of its jobs warm).
const WARM_CROSS_CHECK: usize = 15;
/// Seed of the pipeline's own configuration (CMR embedding and stage-2
/// sampling).  It is part of the program set-up, not of the workload, and
/// stays fixed so that `--seed` varies only the job stream: a CMR draw
/// per cycle size would otherwise set every job's stage-1 cost.
const CONFIG_SEED: u64 = 11;
/// Fewest latency samples a p90 may rest on.
const MIN_P90_SAMPLES: usize = 100;

#[derive(Clone, Copy)]
pub enum Mode {
    Cold,
    Warm,
}

struct Job {
    maxcut: MaxCut,
    qubo: Qubo,
    /// The known maximum cut: the total edge weight.
    optimum: f64,
}

/// SplitMix64: a small seeded generator for the job stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn generate_jobs(seed: u64) -> Vec<Job> {
    let mut state = seed;
    let mut order = SIZES;
    (0..JOBS)
        .map(|i| {
            if i % SIZES.len() == 0 {
                for k in (1..order.len()).rev() {
                    order.swap(k, (next(&mut state) % (k as u64 + 1)) as usize);
                }
            }
            let graph = generators::cycle(order[i % SIZES.len()]);
            let weights: Vec<((usize, usize), f64)> = graph
                .edges()
                .map(|e| (e, 0.5 + 1.5 * unit(&mut state)))
                .collect();
            let maxcut = MaxCut::weighted(graph, &weights);
            Job {
                qubo: maxcut.to_qubo(),
                optimum: maxcut.total_weight(),
                maxcut,
            }
        })
        .collect()
}

/// An embedding cache holding every size's topology.
fn filled_cache(pipeline: &Pipeline, jobs: &[Job]) -> Result<EmbeddingCache, PipelineError> {
    let cache = EmbeddingCache::new();
    for n in SIZES {
        if let Some(job) = jobs.iter().find(|j| j.qubo.num_variables() == n) {
            let interaction = qubo_to_ising(&job.qubo).ising.interaction_graph();
            cache.get_or_compute(&interaction, &pipeline.machine, &pipeline.config)?;
        }
    }
    Ok(cache)
}

struct Setup {
    pipeline: Pipeline,
    jobs: Vec<Job>,
    cache: Option<EmbeddingCache>,
    generate_s: f64,
    setup_s: f64,
}

fn setup(mode: Mode, seed: u64) -> Result<Setup, PipelineError> {
    let start = Instant::now();
    let config = SplitExecConfig::with_seed(CONFIG_SEED);
    // Stage-2 reads run serially: the samples equal the default fan-out's,
    // and the figures do not hinge on a second core being free.
    let serial_sa = SimulatedQpu {
        parallel: false,
        ..SimulatedQpu::with_schedule(config.schedule)
    };
    let pipeline =
        Pipeline::new(SplitMachine::paper_default(), config).with_backend(Arc::new(serial_sa));
    let (jobs, generate_s) = timed(|| generate_jobs(seed));
    let cache = match mode {
        Mode::Warm => Some(filled_cache(&pipeline, &jobs)?),
        Mode::Cold => None,
    };
    Ok(Setup {
        pipeline,
        jobs,
        cache,
        generate_s,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// One executed job, over all its passes.
struct Done {
    index: usize,
    /// The fastest pass's host seconds.
    seconds: f64,
    /// The least `ExecutionReport::total_seconds` (measured classical work
    /// plus the modelled QPU constants) over the passes.
    modeled_s: f64,
    /// The first pass's solution; every later pass must return it again.
    solution: SolutionSummary,
}

/// The passes of one untraced run.
struct Passes {
    /// Every job that executed at least once, in job order.
    done: Vec<Done>,
    /// Complete passes over the job list.
    passes: usize,
    /// Host seconds in all `execute` calls.
    busy_s: f64,
    /// Successful executions.
    executions: usize,
    /// Executions whose solution differs from the job's first.
    unrepeated: usize,
}

/// Execute `jobs` in passes, at least one, until `budget` seconds have
/// passed.
fn run_passes(
    pipeline: &Pipeline,
    jobs: &[Job],
    cache: Option<&EmbeddingCache>,
    budget: f64,
    cores: &mut Cores,
    out: &mut Outcome,
) -> Passes {
    let start = Instant::now();
    let mut slots: Vec<Option<Done>> = (0..jobs.len()).map(|_| None).collect();
    let (mut passes, mut busy_s, mut executions, mut unrepeated) = (0, 0.0, 0, 0);
    let mut first_error = None;
    'run: loop {
        cores.rotate();
        for (index, job) in jobs.iter().enumerate() {
            if passes > 0 && start.elapsed().as_secs_f64() >= budget {
                break 'run;
            }
            out.attempted += 1;
            match timed(|| execute(pipeline, job, cache)) {
                (Ok(report), seconds) => {
                    busy_s += seconds;
                    executions += 1;
                    let modeled_s = report.total_seconds();
                    match &mut slots[index] {
                        Some(d) => {
                            d.seconds = d.seconds.min(seconds);
                            d.modeled_s = d.modeled_s.min(modeled_s);
                            unrepeated += usize::from(d.solution != report.solution);
                        }
                        slot => {
                            *slot = Some(Done {
                                index,
                                seconds,
                                modeled_s,
                                solution: report.solution,
                            })
                        }
                    }
                }
                (Err(err), _) => {
                    out.failed += 1;
                    first_error.get_or_insert(err);
                }
            }
        }
        passes += 1;
    }
    if let Some(err) = first_error {
        out.note(format!("first execute error: {err}"));
    }
    Passes {
        done: slots.into_iter().flatten().collect(),
        passes,
        busy_s,
        executions,
        unrepeated,
    }
}

fn execute(
    pipeline: &Pipeline,
    job: &Job,
    cache: Option<&EmbeddingCache>,
) -> Result<ExecutionReport, PipelineError> {
    match cache {
        Some(cache) => pipeline.execute_cached(&job.qubo, cache),
        None => pipeline.execute(&job.qubo),
    }
}

/// Per-stage record of one traced job.
struct StageTrace {
    total_s: f64,
    stage1_s: f64,
    stage2_s: f64,
    stage3_s: f64,
    dijkstra_calls: u64,
    edge_relaxations: u64,
    tries_used: usize,
    stage1_measured_s: f64,
    stage1_predicted_s: f64,
    spin_updates: u64,
    sort_ops: u64,
    chain_breaks: usize,
}

/// The body of `Pipeline::execute_impl`, called stage by stage from
/// outside with each stage timed.
fn execute_traced(
    pipeline: &Pipeline,
    job: &Job,
    cache: Option<&EmbeddingCache>,
) -> Result<(SolutionSummary, StageTrace), PipelineError> {
    let (machine, config) = (&pipeline.machine, &pipeline.config);
    let start = Instant::now();
    let (stage1, stage1_s) = timed(|| execute_stage1_cached(machine, config, &job.qubo, cache));
    let stage1 = stage1?;
    let (stage2, stage2_s) = timed(|| {
        let backend = pipeline.backend();
        execute_stage2_with_backend(machine, config, &stage1.embedded.physical, backend.as_ref())
    });
    let stage2 = stage2?;
    let (stage3, stage3_s) = timed(|| {
        execute_stage3(
            machine,
            &stage1.embedded.embedding,
            &stage1.logical,
            &stage2.samples,
        )
    });
    let stage3 = stage3?;
    let assignment = spins_to_bits(&stage3.best_spins);
    let solution = SolutionSummary {
        qubo_energy: job.qubo.energy(&assignment),
        ising_energy: stage3.best_energy,
        distinct_solutions: stage3.ranked.len(),
        assignment,
    };
    let total_s = start.elapsed().as_secs_f64();
    let predicted = pipeline.predict(stage1.lps)?;
    Ok((
        solution,
        StageTrace {
            total_s,
            stage1_s,
            stage2_s,
            stage3_s,
            dijkstra_calls: stage1.embedding_stats.dijkstra_calls,
            edge_relaxations: stage1.embedding_stats.edge_relaxations,
            tries_used: stage1.embedding_stats.tries_used,
            stage1_measured_s: stage1.total_seconds,
            stage1_predicted_s: predicted.stage1.total_seconds,
            spin_updates: stage2.access.updates,
            sort_ops: stage3.sort_operations,
            chain_breaks: stage3.chain_breaks,
        },
    ))
}

pub fn run(mode: Mode, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut cores = Cores::allowed();
    let start = Instant::now();
    let (mut setup_times, mut generate_times) = (Vec::new(), Vec::new());
    let mut first = None;
    while setup_times.len() < SETUPS.0
        || (setup_times.len() < SETUPS.1 && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        cores.rotate();
        match setup(mode, args.seed) {
            Ok(s) => {
                setup_times.push(s.setup_s);
                generate_times.push(s.generate_s);
                first.get_or_insert(s);
            }
            Err(err) => {
                out.gate("setup", false, format!("set-up failed: {err}"));
                return out;
            }
        }
    }
    let setup_s = median(&setup_times);
    let generate_s = median(&generate_times);
    let Setup {
        pipeline,
        jobs,
        cache,
        ..
    } = first.expect("at least one set-up");
    let cache = cache.as_ref();

    // The untraced pass.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let Passes {
        done,
        passes,
        busy_s,
        executions,
        unrepeated,
    } = run_passes(&pipeline, &jobs, cache, budget, &mut cores, &mut out);
    out.note(cores.note());
    out.gate(
        "executed",
        !done.is_empty(),
        format!("{} jobs executed in {passes} passes", done.len()),
    );
    out.gate(
        "repeats identical",
        unrepeated == 0,
        format!("{unrepeated} of {executions} executions differ from their job's first"),
    );
    let cut = |d: &Done| jobs[d.index].maxcut.cut_value(&d.solution.assignment);
    let over = done
        .iter()
        .filter(|d| cut(d) > jobs[d.index].optimum * (1.0 + 1e-12))
        .count();
    out.gate(
        "cut <= optimum",
        over == 0,
        format!("{over} of {} cuts exceed the known optimum", done.len()),
    );

    // Cold and warm paths must return the same assignment job for job.
    let (checked, mismatched) = match mode {
        Mode::Cold => match filled_cache(&pipeline, &jobs) {
            Ok(warm) => cross_check(&pipeline, &jobs, &done, Some(&warm), done.len()),
            Err(err) => {
                out.note(format!("cross-check cache fill failed: {err}"));
                (0, 1)
            }
        },
        Mode::Warm => cross_check(&pipeline, &jobs, &done, None, WARM_CROSS_CHECK),
    };
    out.gate(
        "cold == warm assignments",
        mismatched == 0,
        format!("{mismatched} of {checked} jobs differ between execute and execute_cached"),
    );

    if !args.trace {
        let ms: Vec<f64> = done.iter().map(|d| 1e3 * d.seconds).collect();
        let jobs_per_s = done.len() as f64 / done.iter().map(|d| d.seconds).sum::<f64>();
        let modeled: Vec<f64> = done.iter().map(|d| d.modeled_s).collect();
        let is_optimal =
            |d: &&Done| (cut(d) - jobs[d.index].optimum).abs() <= 1e-9 * jobs[d.index].optimum;
        let optimal = done.iter().filter(is_optimal).count();
        let by_size: Vec<String> = SIZES
            .iter()
            .map(|&n| {
                let (mut seen, mut hit) = (0, 0);
                for d in done
                    .iter()
                    .filter(|d| jobs[d.index].qubo.num_variables() == n)
                {
                    seen += 1;
                    hit += usize::from(is_optimal(&d));
                }
                format!("{n}:{:.2}", hit as f64 / f64::from(seen.max(1)))
            })
            .collect();
        out.note(format!(
            "optimal share by cycle size: {}",
            by_size.join(" ")
        ));
        out.gate(
            "p90 samples",
            done.len() >= MIN_P90_SAMPLES,
            format!(
                "{} latency samples, at least {MIN_P90_SAMPLES} needed",
                done.len()
            ),
        );
        out.note(format!(
            "{executions} executions of {} jobs in {busy_s:.3} s of execute calls; a job's host \
             time is its fastest of {passes} or more passes; sim_* is the modelled time-to-solution",
            done.len()
        ));
        out.metric("setup_s", setup_s, "s");
        out.metric("jobs_per_s", jobs_per_s, "jobs/s");
        out.metric("job_ms_p50", quantile(&ms, 0.5), "ms");
        out.metric("job_ms_p90", quantile(&ms, 0.9), "ms");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("sim_p50_s", quantile(&modeled, 0.5), "s");
        out.metric("sim_p99_s", quantile(&modeled, 0.99), "s");
        out.metric(
            "optimal_frac",
            optimal as f64 / done.len().max(1) as f64,
            "ratio",
        );
        return out;
    }

    // The traced pass: the same jobs, stage by stage.
    let before = cache.map(EmbeddingCache::stats);
    let mut traces = Vec::with_capacity(done.len());
    let mut differ = 0;
    for d in &done {
        match execute_traced(&pipeline, &jobs[d.index], cache) {
            Ok((solution, trace)) => {
                differ += usize::from(solution != d.solution);
                traces.push(trace);
            }
            Err(_) => differ += 1,
        }
    }
    out.gate(
        "traced == untraced solutions",
        differ == 0,
        format!("{differ} of {} traced solutions differ", done.len()),
    );
    let hit_ratio = match (before, cache.map(EmbeddingCache::stats)) {
        (Some(a), Some(b)) => {
            let hits = (b.hits - a.hits) as f64;
            hits / (hits + (b.misses - a.misses) as f64).max(1.0)
        }
        _ => 0.0,
    };
    let n = traces.len().max(1) as f64;
    let mean = |f: fn(&StageTrace) -> f64| traces.iter().map(f).sum::<f64>() / n;
    let traced_s = mean(|t| t.total_s);
    out.note(format!(
        "traced {} jobs; times and counts below are per job unless a ratio",
        traces.len()
    ));
    crate::cluster::zero_layers(&mut out);
    out.metric("workload.generate_s", generate_s, "s");
    out.metric("stage1.self_s", mean(|t| t.stage1_s), "s");
    out.metric("stage1.share", mean(|t| t.stage1_s) / traced_s, "ratio");
    out.metric(
        "embedding.dijkstra_calls",
        mean(|t| t.dijkstra_calls as f64),
        "count",
    );
    out.metric(
        "embedding.edge_relaxations",
        mean(|t| t.edge_relaxations as f64),
        "count",
    );
    out.metric(
        "embedding.tries_used",
        mean(|t| t.tries_used as f64),
        "count",
    );
    out.metric(
        "stage1.model_ratio",
        mean(|t| t.stage1_measured_s) / mean(|t| t.stage1_predicted_s),
        "ratio",
    );
    out.metric("offline_cache.hit_ratio", hit_ratio, "ratio");
    out.metric("stage2.self_s", mean(|t| t.stage2_s), "s");
    out.metric(
        "stage2.spin_updates",
        mean(|t| t.spin_updates as f64),
        "count",
    );
    out.metric("stage3.self_s", mean(|t| t.stage3_s), "s");
    out.metric("stage3.sort_ops", mean(|t| t.sort_ops as f64), "count");
    out.metric(
        "stage3.chain_breaks",
        mean(|t| t.chain_breaks as f64),
        "count",
    );
    out.metric(
        "trace.overhead",
        busy_s / executions as f64 / traced_s,
        "ratio",
    );
    out
}

/// Re-execute the first `limit` done jobs through the other path (warm
/// when `cache` is given, cold otherwise) and count assignments that
/// differ.  Returns `(checked, mismatched)`.
fn cross_check(
    pipeline: &Pipeline,
    jobs: &[Job],
    done: &[Done],
    cache: Option<&EmbeddingCache>,
    limit: usize,
) -> (usize, usize) {
    let checked = &done[..limit.min(done.len())];
    let mismatched = checked
        .iter()
        .filter(|d| {
            execute(pipeline, &jobs[d.index], cache)
                .map_or(true, |r| r.solution.assignment != d.solution.assignment)
        })
        .count();
    (checked.len(), mismatched)
}

/// The pipeline layers, reported as zero by workloads that do not run them.
pub fn zero_layers(out: &mut Outcome) {
    for (name, unit) in [
        ("stage1.self_s", "s"),
        ("stage1.share", "ratio"),
        ("embedding.dijkstra_calls", "count"),
        ("embedding.edge_relaxations", "count"),
        ("embedding.tries_used", "count"),
        ("stage1.model_ratio", "ratio"),
        ("offline_cache.hit_ratio", "ratio"),
        ("stage2.self_s", "s"),
        ("stage2.spin_updates", "count"),
        ("stage3.self_s", "s"),
        ("stage3.sort_ops", "count"),
        ("stage3.chain_breaks", "count"),
    ] {
        out.metric(name, 0.0, unit);
    }
}
