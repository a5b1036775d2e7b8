//! The repository benchmark: end-to-end and per-layer numbers for the
//! cluster simulator (`sx_cluster`) and the executable split-execution
//! pipeline (`split_exec`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cluster_overload|cluster_churn|pipeline_cold|pipeline_warm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs an untraced
//! pass and a traced pass over the same inputs, checks that both produce
//! identical outputs, and prints the per-layer metrics.  The last line of
//! standard output is one JSON object; every line before it starts with
//! `#`.  The exit code is 0 only when every correctness gate passed.  See
//! `perfbench/README.md` for the workloads, metrics and layer map.

mod cluster;
mod pipeline;
mod probe;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// A seed never used while the benchmark or a change is tuned; claims are
/// re-checked on it.
const HELD_OUT_SEED: u64 = 90_217;

const USAGE: &str = "usage: perfbench --workload <cluster_overload|cluster_churn|pipeline_cold|\
pipeline_warm> --seed <n> --seconds <s> --trace <0|1>";

/// The command line, checked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(gate, passed, detail)`.
    pub gates: Vec<(String, bool, String)>,
    /// Operations attempted (jobs submitted or executed).
    pub attempted: u64,
    /// Operations that failed (shed, rejected or errored jobs).
    pub failed: u64,
    /// Free-form `# ` lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn gate(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.gates.push((name.into(), passed, detail.into()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Facts about the host a result was measured on.
fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "nproc={nproc} cpu={cpu:?} rustc={:?} commit={}",
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cluster_overload" => cluster::run(&cluster::OVERLOAD, &args),
        "cluster_churn" => cluster::run(&cluster::CHURN, &args),
        "pipeline_cold" => pipeline::run(pipeline::Mode::Cold, &args),
        "pipeline_warm" => pipeline::run(pipeline::Mode::Warm, &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", host_facts());
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut correct = true;
    for (gate, passed, detail) in &outcome.gates {
        correct &= passed;
        let verdict = if *passed { "ok" } else { "FAIL" };
        println!("# gate {gate}: {verdict} ({detail})");
    }
    let mut json = String::new();
    for (name, value, unit) in &outcome.metrics {
        println!("# metric {name} = {value} {unit}");
        if !value.is_finite() {
            println!("# gate finite {name}: FAIL");
            correct = false;
            continue;
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
