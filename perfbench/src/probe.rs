//! Outside-in instrumentation and the small statistics the benchmark needs.
//!
//! The wrappers here time calls into the program's public trait objects
//! without changing what those calls do: they delegate every call to the
//! wrapped value and return its answer unchanged, so a traced run must
//! reproduce the untraced run bit for bit (the benchmark checks this).

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use sx_cluster::{Fleet, Job, Scheduler, TraceRecord, TraceSink};

/// A [`Scheduler`] that delegates to `inner`, counting and timing every
/// `next_assignment` call.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    /// Time spent inside the wrapped scheduler's `next_assignment`.
    pub self_time: Duration,
    /// `next_assignment` calls.
    pub calls: u64,
    /// Calls that returned an assignment.
    pub dispatches: u64,
    /// Sum over calls of the queue length handed in.
    pub queue_sum: u64,
}

impl<'a> TimedScheduler<'a> {
    pub fn new(inner: &'a mut dyn Scheduler) -> Self {
        Self {
            inner,
            self_time: Duration::ZERO,
            calls: 0,
            dispatches: 0,
            queue_sum: 0,
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_assignment(
        &mut self,
        queue: &[Job],
        fleet: &Fleet,
        now: f64,
    ) -> Option<(usize, usize)> {
        let start = Instant::now();
        let choice = self.inner.next_assignment(queue, fleet, now);
        self.self_time += start.elapsed();
        self.calls += 1;
        self.dispatches += u64::from(choice.is_some());
        self.queue_sum += queue.len() as u64;
        choice
    }
}

/// A [`TraceSink`] that delegates to `inner`, counting and timing every
/// record.
pub struct TimedSink<S: TraceSink> {
    inner: S,
    /// Time spent inside the wrapped sink's `on_record`.
    pub self_time: Duration,
    /// Records observed.
    pub records: u64,
}

impl<S: TraceSink> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            self_time: Duration::ZERO,
            records: 0,
        }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn on_record(&mut self, record: &TraceRecord, vclock: f64) {
        let start = Instant::now();
        self.inner.on_record(record, vclock);
        self.self_time += start.elapsed();
        self.records += 1;
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Moves the benchmark's thread from core to core, so that the repeats of
/// a unit of work land on every core the process may use.
///
/// The host shares each core with other tenants, and one core can run
/// ~1.7x slower than the other for a minute or more while the other stays
/// fast.  A unit's fastest repeat then comes from whichever core was fast.
/// The benchmark runs on its main thread only, so pinning the process
/// (`taskset -p`) pins all of its work.
pub struct Cores {
    cpus: Vec<usize>,
    next: usize,
    /// Successful moves so far.
    pub moves: usize,
}

impl Cores {
    /// The cores in this process's `Cpus_allowed_list`; none (so that
    /// [`Cores::rotate`] does nothing) where it cannot be read.
    pub fn allowed() -> Cores {
        let list = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|rest| rest.trim().to_string())
            })
            .unwrap_or_default();
        Cores {
            cpus: parse_cpu_list(&list),
            next: 0,
            moves: 0,
        }
    }

    /// Pin the process to the next core.  With one core, or where
    /// pinning fails, the run stays where the kernel puts it.
    pub fn rotate(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let pinned = Command::new("taskset")
            .args(["-pc", &cpu.to_string(), &std::process::id().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|status| status.success());
        self.moves += usize::from(pinned);
    }

    /// A `# ` note line on what the rotation did.
    pub fn note(&self) -> String {
        format!(
            "repeats rotated over cores {:?}: {} of {} moves succeeded",
            self.cpus, self.moves, self.next
        )
    }
}

/// Parse a kernel CPU list such as `0-3,8,10-11`; an unparsable entry
/// makes the whole list empty.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let range = match part.split_once('-') {
            Some((lo, hi)) => lo.parse().ok().zip(hi.parse().ok()),
            None => part.parse::<usize>().ok().map(|cpu| (cpu, cpu)),
        };
        match range {
            Some((lo, hi)) if lo <= hi => cpus.extend(lo..=hi),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Least-squares slope of `ln y` against `ln x`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let var: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    cov / var
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7"), [0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert!(parse_cpu_list("").is_empty());
        assert!(parse_cpu_list("2-1").is_empty());
        assert!(parse_cpu_list("x").is_empty());
    }

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0].iter().map(|&x| (x, 3.0 * x * x)).collect();
        assert!((log_log_slope(&pts) - 2.0).abs() < 1e-12);
    }
}
