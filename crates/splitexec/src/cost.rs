//! A reusable analytic cost oracle over the paper's three stage models.
//!
//! The stage predictions ([`predict_stage1`]
//! etc.) walk an ASPEN listing each call, which is cheap but not free, and
//! every consumer that wants "what would this job cost?" has so far
//! re-assembled the three calls by hand.  [`CostModel`] packages them behind
//! one memoized interface: ask for the per-stage costs of a logical problem
//! size and get a [`StageCosts`] splitting stage 1 into its *embedding*
//! share (amortizable via the offline embedding cache) and its residual
//! *overhead* (data initialization, parameter setting, processor
//! programming — paid by every job, warm or cold).
//!
//! The cluster simulator (`sx_cluster`) uses this as the service-time
//! distribution of its queueing model: a job arriving at a QPU whose
//! embedding cache already holds the job's interaction topology pays
//! [`StageCosts::stage1_warm_seconds`]; a cold job pays
//! [`StageCosts::stage1_cold_seconds`].  Schedulers use
//! [`CostModel::costs`] as the prediction oracle for
//! shortest-predicted-job-first ordering.

use crate::config::SplitExecConfig;
use crate::error::PipelineError;
use crate::machine::SplitMachine;
use crate::stage1::predict_stage1;
use crate::stage2::predict_stage2;
use crate::stage3::predict_stage3;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Predicted per-stage costs for one logical problem size, with stage 1
/// split into its cache-amortizable and always-paid parts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCosts {
    /// Logical problem size the costs were predicted for.
    pub lps: usize,
    /// Stage-1 seconds attributable to the minor-embedding computation —
    /// the part an embedding cache amortizes away.
    pub stage1_embed_seconds: f64,
    /// Stage-1 seconds paid regardless of caching: logical-Ising
    /// construction, parameter setting and processor programming.
    pub stage1_overhead_seconds: f64,
    /// Stage-2 (quantum execution) seconds.
    pub stage2_seconds: f64,
    /// Stage-3 (post-processing) seconds.
    pub stage3_seconds: f64,
}

impl StageCosts {
    /// Stage-1 seconds for a job whose embedding must be computed in-line.
    pub fn stage1_cold_seconds(&self) -> f64 {
        self.stage1_embed_seconds + self.stage1_overhead_seconds
    }

    /// Stage-1 seconds for a job whose embedding is served from a cache.
    pub fn stage1_warm_seconds(&self) -> f64 {
        self.stage1_overhead_seconds
    }

    /// End-to-end seconds for a cold job.
    pub fn total_cold_seconds(&self) -> f64 {
        self.stage1_cold_seconds() + self.stage2_seconds + self.stage3_seconds
    }

    /// End-to-end seconds for a warm (cache-served) job.
    pub fn total_warm_seconds(&self) -> f64 {
        self.stage1_warm_seconds() + self.stage2_seconds + self.stage3_seconds
    }
}

/// A memoized analytic cost oracle for one machine/configuration pair.
///
/// Thread-safe and lock-free: the memo is a dense table with one
/// [`OnceLock`] slot per logical problem size, sized once at construction
/// to cover every size up to the machine's physical qubit count (a logical
/// problem never has more spins than the hardware has qubits).  A size is
/// predicted on its first query and served from its slot thereafter, so
/// schedulers can query the oracle in hot loops; a hit is one indexed load.
/// Sizes past the table are predicted afresh on every query, unmemoized.
#[derive(Debug)]
pub struct CostModel {
    machine: SplitMachine,
    config: SplitExecConfig,
    /// `memo[lps]`: the prediction for `lps` spins, once computed.
    memo: Box<[OnceLock<StageCosts>]>,
}

impl CostModel {
    /// A cost model over the given machine and application configuration.
    pub fn new(machine: SplitMachine, config: SplitExecConfig) -> Self {
        let sizes = machine.qpu.qubits() + 1;
        Self {
            memo: (0..sizes).map(|_| OnceLock::new()).collect(),
            machine,
            config,
        }
    }

    /// The machine the model predicts for.
    pub fn machine(&self) -> &SplitMachine {
        &self.machine
    }

    /// The application configuration the model predicts for.
    pub fn config(&self) -> &SplitExecConfig {
        &self.config
    }

    /// Predicted per-stage costs for a logical problem of `lps` spins
    /// (memoized for every size up to the machine's qubit count; a failed
    /// prediction is not memoized and is retried on the next query).
    pub fn costs(&self, lps: usize) -> Result<StageCosts, PipelineError> {
        let Some(slot) = self.memo.get(lps) else {
            return self.predict_uncached(lps);
        };
        if let Some(found) = slot.get() {
            return Ok(*found);
        }
        let costs = self.predict_uncached(lps)?;
        Ok(*slot.get_or_init(|| costs))
    }

    /// The three stage predictions for `lps` spins, computed afresh.
    fn predict_uncached(&self, lps: usize) -> Result<StageCosts, PipelineError> {
        let stage1 = predict_stage1(&self.machine, lps)?;
        let stage2 = predict_stage2(
            &self.machine,
            self.config.accuracy,
            self.config.success_probability,
        )?;
        let stage3 = predict_stage3(
            &self.machine,
            lps,
            self.config.accuracy,
            self.config.success_probability,
        )?;
        Ok(StageCosts {
            lps,
            stage1_embed_seconds: stage1.embed_seconds,
            stage1_overhead_seconds: stage1.total_seconds - stage1.embed_seconds,
            stage2_seconds: stage2.total_seconds,
            stage3_seconds: stage3.total_seconds,
        })
    }

    /// Predicted seconds of the amortizable embedding share alone — what a
    /// bounded embedding cache saves by keeping a topology of `lps` spins
    /// warm, and what a cost-aware eviction policy weighs entries by.
    pub fn embed_seconds(&self, lps: usize) -> Result<f64, PipelineError> {
        Ok(self.costs(lps)?.stage1_embed_seconds)
    }

    /// Number of distinct problem sizes memoized so far.
    pub fn memoized_sizes(&self) -> usize {
        self.memo.iter().filter(|slot| slot.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::QpuModel;

    // Fleets, and the oracles inside them, are built and run on sweep
    // worker threads; the memo must stay sound under `&self` from any thread.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CostModel>();
    };

    fn model() -> CostModel {
        CostModel::new(SplitMachine::paper_default(), SplitExecConfig::with_seed(1))
    }

    #[test]
    fn costs_match_the_underlying_stage_predictions() {
        let m = model();
        let costs = m.costs(30).unwrap();
        let s1 = predict_stage1(m.machine(), 30).unwrap();
        let s2 = predict_stage2(m.machine(), 0.99, 0.7).unwrap();
        let s3 = predict_stage3(m.machine(), 30, 0.99, 0.7).unwrap();
        assert!((costs.stage1_cold_seconds() - s1.total_seconds).abs() < 1e-12);
        assert!((costs.stage1_embed_seconds - s1.embed_seconds).abs() < 1e-12);
        assert!((costs.stage2_seconds - s2.total_seconds).abs() < 1e-12);
        assert!((costs.stage3_seconds - s3.total_seconds).abs() < 1e-12);
    }

    #[test]
    fn warm_jobs_skip_only_the_embedding_share() {
        let costs = model().costs(40).unwrap();
        assert!(costs.stage1_warm_seconds() < costs.stage1_cold_seconds());
        assert!(
            (costs.total_cold_seconds() - costs.total_warm_seconds() - costs.stage1_embed_seconds)
                .abs()
                < 1e-12
        );
        // The embedding is the dominant share — the paper's headline.
        assert!(costs.stage1_embed_seconds > 10.0 * costs.stage2_seconds);
    }

    #[test]
    fn memoization_serves_repeat_queries() {
        let m = model();
        let a = m.costs(20).unwrap();
        let b = m.costs(20).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.memoized_sizes(), 1);
        m.costs(21).unwrap();
        assert_eq!(m.memoized_sizes(), 2);
    }

    #[test]
    fn every_size_in_and_past_the_table_matches_a_fresh_prediction() {
        // The smaller generation keeps the sweep short: its table covers
        // sizes 0..=512.
        let machine = || SplitMachine::new(QpuModel::Vesuvius);
        let config = SplitExecConfig::with_seed(3);
        let memoized = CostModel::new(machine(), config);
        let bound = memoized.memo.len();
        assert_eq!(bound, QpuModel::Vesuvius.qubits() + 1);
        let mut fresh_ok = 0;
        for lps in 0..bound + 8 {
            let fresh = CostModel::new(machine(), config).predict_uncached(lps);
            fresh_ok += usize::from(fresh.is_ok() && lps < bound);
            // First query fills the slot, the second is served from it.
            assert_eq!(memoized.costs(lps), fresh, "lps {lps}, first query");
            assert_eq!(memoized.costs(lps), fresh, "lps {lps}, memoized query");
        }
        // Only successful in-table sizes are memoized.
        assert_eq!(memoized.memoized_sizes(), fresh_ok);
        assert!(fresh_ok > 0);
    }

    #[test]
    fn sizes_past_the_table_are_not_memoized() {
        let m = model();
        let past = m.memo.len();
        let first = m.costs(past).unwrap();
        assert_eq!(m.costs(past).unwrap(), first);
        assert_eq!(m.memoized_sizes(), 0);
    }

    #[test]
    fn costs_grow_with_problem_size() {
        let m = model();
        let small = m.costs(10).unwrap();
        let large = m.costs(50).unwrap();
        assert!(large.stage1_embed_seconds > small.stage1_embed_seconds);
        assert!(large.total_cold_seconds() > small.total_cold_seconds());
    }

    #[test]
    fn embed_seconds_is_the_amortizable_share() {
        let m = model();
        assert_eq!(
            m.embed_seconds(30).unwrap(),
            m.costs(30).unwrap().stage1_embed_seconds
        );
        // Larger topologies are dearer to re-embed — the ordering cost-aware
        // eviction relies on.
        assert!(m.embed_seconds(40).unwrap() > m.embed_seconds(10).unwrap());
    }
}
