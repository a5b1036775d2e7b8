//! The Cai–Macready–Roy (CMR) randomized minor-embedding heuristic.
//!
//! This is the algorithm the paper selects for its Stage-1 programming model
//! ("a non-deterministic technique recently proposed by Cai, Macready, and
//! Roy ... employs Dijkstra's algorithm to construct the minimum path between
//! randomly distributed subtrees", Sec. 2.2).  The implementation follows the
//! published heuristic:
//!
//! 1. Logical vertices are processed in random order.  Each vertex is given a
//!    *vertex model* (chain) grown from a root qubit chosen to minimize the
//!    total weighted shortest-path distance to the chains of its
//!    already-embedded neighbors; the connecting paths are absorbed into the
//!    chain.
//! 2. Qubits already used by other chains carry an exponentially growing
//!    weight, discouraging (but initially permitting) overlap.
//! 3. Improvement passes re-embed every vertex with the rest held fixed until
//!    the embedding is overlap-free and the total chain length stops
//!    shrinking, or the pass budget is exhausted.
//!
//! The worst-case operation count assumed by the paper's Stage-1 ASPEN model
//! is `(E_G + N_G log N_G) · 2 E_H · N_H · N_G`; the per-call statistics
//! returned in [`CmrStats`] expose the measured analogue (Dijkstra calls and
//! edge relaxations) so the model and the implementation can be compared
//! directly, which is exactly the comparison of Fig. 9(a).
//!
//! The hot loop runs on the hardware's [`Csr`] adjacency, built once per
//! [`find_embedding`] call and shared by every try.  Each try owns the
//! buffers its searches and chain trims reuse, and each vertex embedding
//! fills one qubit entry-cost table for all of its searches, so the loop
//! allocates nothing once those buffers have grown.  The searches are
//! [`multi_source_dijkstra_csr`], tested bit for bit against the
//! closure-based oracle in [`crate::dijkstra`].

use crate::dijkstra::{multi_source_dijkstra_csr, Frontier, ShortestPaths};
use crate::types::{EmbedError, Embedding};
use chimera_graph::csr::Csr;
use chimera_graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of the CMR heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmrConfig {
    /// Maximum number of improvement passes after the construction pass.
    pub max_passes: usize,
    /// Number of independent randomized restarts; the best (fewest qubits)
    /// successful try wins.
    pub tries: usize,
    /// Base RNG seed; try `i` uses `seed + i`.
    pub seed: u64,
    /// Run restarts in parallel with Rayon.
    pub parallel_tries: bool,
    /// Base of the exponential penalty applied to qubits already used by
    /// other chains.
    pub overlap_penalty_base: f64,
}

impl Default for CmrConfig {
    fn default() -> Self {
        Self {
            max_passes: 10,
            tries: 4,
            seed: 0,
            parallel_tries: false,
            overlap_penalty_base: 64.0,
        }
    }
}

impl CmrConfig {
    /// Convenience constructor fixing only the seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Work counters recorded while running the heuristic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CmrStats {
    /// Number of (multi-source) Dijkstra invocations.
    pub dijkstra_calls: u64,
    /// Total edge relaxations across all Dijkstra invocations.
    pub edge_relaxations: u64,
    /// Most improvement passes executed by any one try.
    pub passes_used: usize,
    /// Number of restarts attempted.
    pub tries_used: usize,
}

impl CmrStats {
    fn absorb(&mut self, other: &CmrStats) {
        self.dijkstra_calls += other.dijkstra_calls;
        self.edge_relaxations += other.edge_relaxations;
        self.passes_used = self.passes_used.max(other.passes_used);
        self.tries_used += other.tries_used;
    }
}

/// A successful embedding together with its work counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmrOutcome {
    /// The overlap-free embedding.
    pub embedding: Embedding,
    /// Work performed (aggregated over all tries).
    pub stats: CmrStats,
}

/// Find a minor embedding of `input` into `hardware` using the CMR heuristic.
///
/// Returns an error if the input is larger than the hardware, if the input
/// has isolated structure the hardware cannot host, or if no overlap-free
/// embedding is found within the configured budget.
pub fn find_embedding(
    input: &Graph,
    hardware: &Graph,
    config: &CmrConfig,
) -> Result<CmrOutcome, EmbedError> {
    let n = input.vertex_count();
    if n == 0 {
        return Err(EmbedError::DegenerateInput(
            "input graph has no vertices".into(),
        ));
    }
    let usable: Vec<usize> = if hardware.edge_count() == 0 {
        hardware.vertices().collect()
    } else {
        hardware.non_isolated_vertices().collect()
    };
    if usable.len() < n {
        return Err(EmbedError::HardwareTooSmall {
            required: n,
            available: usable.len(),
        });
    }

    let csr = Csr::from_graph(hardware);
    let mut usable_mask = vec![false; hardware.vertex_count()];
    for &q in &usable {
        usable_mask[q] = true;
    }

    let tries = config.tries.max(1);
    let run_try = |t: usize| -> (Option<Embedding>, CmrStats) {
        let mut stats = CmrStats {
            tries_used: 1,
            ..CmrStats::default()
        };
        let embedding = single_try(
            input,
            &csr,
            &usable_mask,
            config,
            config.seed.wrapping_add(t as u64),
            &mut stats,
        );
        (embedding, stats)
    };

    let results: Vec<(Option<Embedding>, CmrStats)> = if config.parallel_tries {
        (0..tries).into_par_iter().map(run_try).collect()
    } else {
        (0..tries).map(run_try).collect()
    };

    let mut total_stats = CmrStats::default();
    let mut best: Option<Embedding> = None;
    for (embedding, stats) in &results {
        total_stats.absorb(stats);
        if let Some(e) = embedding {
            let better = match &best {
                None => true,
                Some(b) => e.qubits_used() < b.qubits_used(),
            };
            if better {
                best = Some(e.clone());
            }
        }
    }
    match best {
        Some(embedding) => Ok(CmrOutcome {
            embedding,
            stats: total_stats,
        }),
        None => Err(EmbedError::NoEmbeddingFound {
            passes: config.max_passes,
        }),
    }
}

/// Buffers one try reuses for every vertex it embeds.
struct Scratch {
    /// Entry cost of every qubit while one vertex is embedded.
    weight: Vec<f64>,
    /// Already-embedded logical neighbors of that vertex.
    neighbors: Vec<usize>,
    /// One search per entry of `neighbors`, in the same order.
    searches: Vec<ShortestPaths>,
    frontier: Frontier,
    /// Qubits of the chain being trimmed, minus the one under test.
    member: Vec<bool>,
    /// Qubits reached by the trim's connectivity walk.
    seen: Vec<bool>,
    /// The walk's visit order, which is also its work list.
    visited: Vec<usize>,
}

impl Scratch {
    fn new(nh: usize) -> Self {
        Self {
            weight: Vec::with_capacity(nh),
            neighbors: Vec::new(),
            searches: Vec::new(),
            frontier: Frontier::default(),
            member: vec![false; nh],
            seen: vec![false; nh],
            visited: Vec::new(),
        }
    }
}

/// One randomized construction + improvement attempt.
fn single_try(
    input: &Graph,
    hardware: &Csr,
    usable: &[bool],
    config: &CmrConfig,
    seed: u64,
    stats: &mut CmrStats,
) -> Option<Embedding> {
    let n = input.vertex_count();
    let nh = hardware.vertex_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut scratch = Scratch::new(nh);

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);

    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut usage: Vec<u32> = vec![0; nh];

    // Construction pass.
    for &x in &order {
        embed_vertex(
            x,
            input,
            hardware,
            usable,
            config,
            &mut rng,
            &mut chains,
            &mut usage,
            stats,
            &mut scratch,
        );
    }

    // Improvement passes: re-embed every vertex with the others held fixed,
    // in a freshly shuffled order each pass, until the embedding is
    // overlap-free and stops shrinking.  Because later passes can temporarily
    // re-introduce overlaps, the best overlap-free snapshot seen at the end
    // of any pass is kept.
    let mut previous_total = total_length(&chains);
    let mut passes = 0;
    let mut best_valid: Option<Vec<Vec<usize>>> = snapshot_if_valid(&chains, &usage);
    for _ in 0..config.max_passes {
        passes += 1;
        order.shuffle(&mut rng);
        for &x in &order {
            remove_chain(&chains[x], &mut usage);
            chains[x].clear();
            embed_vertex(
                x,
                input,
                hardware,
                usable,
                config,
                &mut rng,
                &mut chains,
                &mut usage,
                stats,
                &mut scratch,
            );
        }
        let overlap_free = usage.iter().all(|&u| u <= 1);
        let total = total_length(&chains);
        if overlap_free {
            let better = match &best_valid {
                None => true,
                Some(best) => total < best.iter().map(Vec::len).sum::<usize>(),
            };
            if better {
                best_valid = snapshot_if_valid(&chains, &usage);
            }
            if total >= previous_total {
                break;
            }
        }
        previous_total = total;
    }
    stats.passes_used = stats.passes_used.max(passes);

    best_valid.map(Embedding::from_chains)
}

/// Return a copy of the chains when they form a complete, overlap-free
/// assignment.
fn snapshot_if_valid(chains: &[Vec<usize>], usage: &[u32]) -> Option<Vec<Vec<usize>>> {
    let overlap_free = usage.iter().all(|&u| u <= 1);
    let all_assigned = chains.iter().all(|c| !c.is_empty());
    if overlap_free && all_assigned {
        Some(chains.to_vec())
    } else {
        None
    }
}

fn total_length(chains: &[Vec<usize>]) -> usize {
    chains.iter().map(Vec::len).sum()
}

fn remove_chain(chain: &[usize], usage: &mut [u32]) {
    for &q in chain {
        usage[q] = usage[q].saturating_sub(1);
    }
}

fn add_chain(chain: &[usize], usage: &mut [u32]) {
    for &q in chain {
        usage[q] += 1;
    }
}

/// Grow the vertex model for logical vertex `x`, whose chain is empty,
/// given the current chains of all other vertices.
#[allow(clippy::too_many_arguments)]
fn embed_vertex(
    x: usize,
    input: &Graph,
    hardware: &Csr,
    usable: &[bool],
    config: &CmrConfig,
    rng: &mut ChaCha8Rng,
    chains: &mut [Vec<usize>],
    usage: &mut [u32],
    stats: &mut CmrStats,
    scratch: &mut Scratch,
) {
    let nh = hardware.vertex_count();
    let Scratch {
        weight,
        neighbors,
        searches,
        frontier,
        member,
        seen,
        visited,
    } = scratch;
    neighbors.clear();
    neighbors.extend(input.neighbors(x).filter(|&y| !chains[y].is_empty()));

    if neighbors.is_empty() {
        // No constraints yet: take the least-used usable qubit, breaking ties
        // randomly.
        let min_usage = (0..nh)
            .filter(|&q| usable[q])
            .map(|q| usage[q])
            .min()
            .unwrap_or(0);
        let is_candidate = |q: &usize| usable[*q] && usage[*q] == min_usage;
        let pick = rng.gen_range(0..(0..nh).filter(is_candidate).count());
        let choice = (0..nh)
            .filter(is_candidate)
            .nth(pick)
            .expect("pick is below the candidate count");
        chains[x].push(choice);
        add_chain(&chains[x], usage);
        return;
    }

    // Usage is fixed while x's searches run, so one table of qubit entry
    // costs serves all of them.
    weight.clear();
    weight.extend((0..nh).map(|q| {
        if usable[q] {
            config.overlap_penalty_base.powi(usage[q] as i32)
        } else {
            f64::INFINITY
        }
    }));

    // One weighted Dijkstra per embedded neighbor, rooted at that neighbor's
    // chain.
    if searches.len() < neighbors.len() {
        searches.resize_with(neighbors.len(), ShortestPaths::default);
    }
    let searches = &mut searches[..neighbors.len()];
    for (&y, sp) in neighbors.iter().zip(searches.iter_mut()) {
        multi_source_dijkstra_csr(hardware, &chains[y], weight, frontier, sp);
        stats.dijkstra_calls += 1;
        stats.edge_relaxations += sp.relaxations;
    }

    // Root selection: cheapest total distance to all neighbor chains.
    let mut best_root = None;
    let mut best_cost = f64::INFINITY;
    for (q, &q_usable) in usable.iter().enumerate() {
        if !q_usable {
            continue;
        }
        let mut total = weight[q];
        let mut reachable = true;
        for sp in searches.iter() {
            if sp.cost[q].is_finite() {
                total += sp.cost[q];
            } else {
                reachable = false;
                break;
            }
        }
        if reachable && total < best_cost {
            best_cost = total;
            best_root = Some(q);
        }
    }
    let Some(root) = best_root else {
        // Hardware is disconnected relative to the neighbor chains; fall back
        // to an arbitrary usable qubit so the try can fail gracefully later.
        let fallback = (0..nh).find(|&q| usable[q]).unwrap_or(0);
        chains[x].push(fallback);
        add_chain(&chains[x], usage);
        return;
    };

    // Absorb the connecting paths (excluding the neighbor-chain endpoints)
    // into x's chain, walking each search's predecessors back from the root.
    let mut chain = std::mem::take(&mut chains[x]);
    chain.push(root);
    for (&y, sp) in neighbors.iter().zip(searches.iter()) {
        let mut q = root;
        loop {
            if !chains[y].contains(&q) && !chain.contains(&q) {
                chain.push(q);
            }
            q = sp.predecessor[q];
            if q == usize::MAX {
                break;
            }
        }
    }
    chain.sort_unstable();
    chain.dedup();
    // Trim qubits that are not needed for connectivity to any neighbor chain
    // or for keeping the chain itself connected; unions of shortest paths
    // routinely contain such redundant branches.
    trim_chain(
        &mut chain, hardware, neighbors, chains, member, seen, visited,
    );
    chains[x] = chain;
    add_chain(&chains[x], usage);
}

/// Remove redundant qubits from a freshly built, sorted chain.
///
/// A qubit can be dropped when (a) the remaining chain is still connected in
/// the hardware graph and (b) every embedded logical neighbor still has at
/// least one hardware coupler into the remaining chain.  Leaves are examined
/// repeatedly until no further removal is possible.
///
/// `member`, `seen` and `visited` are scratch: the masks are all `false` on
/// entry and are left that way.
fn trim_chain(
    chain: &mut Vec<usize>,
    hardware: &Csr,
    embedded_neighbors: &[usize],
    chains: &[Vec<usize>],
    member: &mut [bool],
    seen: &mut [bool],
    visited: &mut Vec<usize>,
) {
    if chain.len() <= 1 {
        return;
    }
    let touches_chain = |q: usize, other: &[usize]| -> bool {
        hardware
            .neighbors(q)
            .iter()
            .any(|&n| other.binary_search(&(n as usize)).is_ok())
    };
    for &q in chain.iter() {
        member[q] = true;
    }
    loop {
        let mut removed = false;
        let mut idx = 0;
        while idx < chain.len() {
            if chain.len() == 1 {
                break;
            }
            let q = chain[idx];
            member[q] = false;
            let still_connected =
                connected_members(hardware, chain, chain.len() - 1, member, seen, visited);
            let still_covers = embedded_neighbors.iter().all(|&y| {
                chain
                    .iter()
                    .any(|&c| member[c] && touches_chain(c, &chains[y]))
            });
            if still_connected && still_covers {
                chain.remove(idx);
                removed = true;
            } else {
                member[q] = true;
                idx += 1;
            }
        }
        if !removed {
            break;
        }
    }
    for &q in chain.iter() {
        member[q] = false;
    }
}

/// Whether the `count` qubits of `chain` marked in `member` form one
/// connected subgraph of `hardware`.  Leaves `seen` all `false`.
fn connected_members(
    hardware: &Csr,
    chain: &[usize],
    count: usize,
    member: &[bool],
    seen: &mut [bool],
    visited: &mut Vec<usize>,
) -> bool {
    let start = *chain
        .iter()
        .find(|&&q| member[q])
        .expect("at least one chain qubit is marked");
    visited.clear();
    visited.push(start);
    seen[start] = true;
    let mut next = 0;
    while next < visited.len() {
        let v = visited[next];
        next += 1;
        for &u in hardware.neighbors(v) {
            let u = u as usize;
            if member[u] && !seen[u] {
                seen[u] = true;
                visited.push(u);
            }
        }
    }
    for &v in visited.iter() {
        seen[v] = false;
    }
    visited.len() == count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_embedding;
    use chimera_graph::{generators, Chimera, FaultModel};

    fn embed_ok(input: &Graph, hardware: &Graph, seed: u64) -> CmrOutcome {
        let config = CmrConfig {
            seed,
            ..CmrConfig::default()
        };
        let out = find_embedding(input, hardware, &config).expect("embedding should exist");
        verify_embedding(input, hardware, &out.embedding).expect("embedding should verify");
        out
    }

    #[test]
    fn embeds_single_vertex() {
        let input = Graph::new(1);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let out = embed_ok(&input, &hw, 1);
        assert_eq!(out.embedding.qubits_used(), 1);
    }

    #[test]
    fn embeds_single_edge() {
        let input = generators::path(2);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let out = embed_ok(&input, &hw, 2);
        assert!(out.embedding.qubits_used() >= 2);
        assert!(out.stats.dijkstra_calls >= 1);
    }

    #[test]
    fn embeds_triangle_into_single_cell() {
        // K3 does not fit natively in a bipartite K4,4 cell, so at least one
        // chain must have length 2.
        let input = generators::complete(3);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let out = embed_ok(&input, &hw, 3);
        assert!(out.embedding.max_chain_length() >= 2);
    }

    #[test]
    fn embeds_k6_into_2x2_chimera() {
        let input = generators::complete(6);
        let hw = Chimera::new(2, 2, 4).into_graph();
        let out = embed_ok(&input, &hw, 4);
        assert!(out.embedding.qubits_used() <= hw.vertex_count());
    }

    #[test]
    fn embeds_k10_into_dw2x_subregion() {
        // Mid-size cliques are the hard case for the CMR heuristic (the
        // paper's own measured line stops near K12); give it a healthy
        // restart budget so the test exercises success, not luck.
        let input = generators::complete(10);
        let hw = Chimera::new(4, 4, 4).into_graph();
        let config = CmrConfig {
            seed: 5,
            tries: 32,
            ..CmrConfig::default()
        };
        let out = find_embedding(&input, &hw, &config).expect("embedding should exist");
        verify_embedding(&input, &hw, &out.embedding).expect("embedding should verify");
    }

    #[test]
    fn embeds_cycle_and_grid_inputs() {
        let hw = Chimera::new(3, 3, 4).into_graph();
        embed_ok(&generators::cycle(12), &hw, 6);
        embed_ok(&generators::grid(3, 4), &hw, 7);
    }

    #[test]
    fn embeds_random_graph_on_faulted_hardware() {
        let chimera = Chimera::new(4, 4, 4);
        let faults = FaultModel::exact_dead_qubits(chimera.graph(), 6, 99);
        let hw = faults.apply(chimera.graph());
        let input = generators::gnp(10, 0.3, 17);
        embed_ok(&input, &hw, 8);
    }

    #[test]
    fn rejects_oversized_input() {
        let input = generators::complete(20);
        let hw = Chimera::new(1, 1, 4).into_graph();
        let err = find_embedding(&input, &hw, &CmrConfig::default()).unwrap_err();
        assert!(matches!(err, EmbedError::HardwareTooSmall { .. }));
    }

    #[test]
    fn rejects_empty_input() {
        let hw = Chimera::new(1, 1, 4).into_graph();
        let err = find_embedding(&Graph::new(0), &hw, &CmrConfig::default()).unwrap_err();
        assert!(matches!(err, EmbedError::DegenerateInput(_)));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let input = generators::gnp(8, 0.4, 3);
        let hw = Chimera::new(3, 3, 4).into_graph();
        let config = CmrConfig::with_seed(42);
        let a = find_embedding(&input, &hw, &config).unwrap();
        let b = find_embedding(&input, &hw, &config).unwrap();
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parallel_tries_match_serial_success() {
        let input = generators::complete(5);
        let hw = Chimera::new(2, 2, 4).into_graph();
        let serial = find_embedding(
            &input,
            &hw,
            &CmrConfig {
                seed: 9,
                parallel_tries: false,
                ..CmrConfig::default()
            },
        )
        .unwrap();
        let parallel = find_embedding(
            &input,
            &hw,
            &CmrConfig {
                seed: 9,
                parallel_tries: true,
                ..CmrConfig::default()
            },
        )
        .unwrap();
        // Each try is seeded identically, so the chosen best embedding agrees.
        assert_eq!(serial.embedding, parallel.embedding);
    }

    #[test]
    fn work_counters_grow_with_problem_size() {
        // K4 and K6 both embed reliably from any seed; K6 must cost more.
        let hw = Chimera::new(4, 4, 4).into_graph();
        let small = embed_ok(&generators::complete(4), &hw, 10).stats;
        let large = embed_ok(&generators::complete(6), &hw, 10).stats;
        assert!(large.dijkstra_calls > small.dijkstra_calls);
        assert!(large.edge_relaxations > small.edge_relaxations);
    }

    /// Embeddings and work counters recorded before the search moved onto
    /// the CSR fast path; any change to pop order, tie-breaking, float sums
    /// or RNG use shows here.  Each line is `calls relaxations passes tries |
    /// chain,chain,...` with a chain's qubits separated by spaces.
    #[test]
    fn embeddings_and_stats_match_the_golden_record() {
        let golden = [
            "112 71008 2 4 | 36,0 4 32,12,11,14,6,2,34",
            "112 71008 2 4 | 121,89,57,25 28,27,31,23,16 48 80 112 117 125",
            "112 71008 2 4 | 96,100,97,1 33 65,7,15,8 40 72 104 109,101",
            "192 121728 3 4 | 78 86,82,50,18 20,12,11,43 75,77,69,66,65 68,70",
            "192 121728 3 4 | 78 86,82,50,18 20,12,11,43 75,77,69,66,65 68,70",
            "192 121728 3 4 | 53,32 37 45,0,4,12 20,16,48 80,85,81,84,82,50",
            "352 223168 3 4 | 82,51 52 83 84,49,81,85,48 80,53,50,18,4 12 20,0,5,1 33 65,71,79,87",
            "352 223168 3 4 | 2 34 66 98 101,6,0,7 8 15,12,1 4,33,65 68 76,84,92,88 120 127,119,103 111,96,100,97",
            "352 223168 3 4 | 100,96,101 109 117 120 125,88,12 20 24 28 56,8,14,6,0,4,1,7 15 23,18,50 82 114,119,97 103 111",
            "320 202880 3 4 | 33 39 47,41,32,7 8 15 38 40 46,0,1 6,37,2 5 34,3 35 36 44,4",
            "180 28800 1 4 | 12,11 15,8,0 4 5 6 7 16 20 24 28,10 14,9 13",
        ];
        let chimera = Chimera::new(4, 4, 4);
        let faulted = FaultModel::exact_dead_qubits(chimera.graph(), 6, 99).apply(chimera.graph());
        let mut cases = Vec::new();
        for n in [8, 12, 16] {
            for seed in 0..3 {
                cases.push((generators::cycle(n), faulted.clone(), seed));
            }
        }
        cases.push((generators::gnp(10, 0.4, 3), faulted, 5));
        cases.push((
            generators::complete(6),
            Chimera::new(2, 2, 4).into_graph(),
            4,
        ));
        assert_eq!(cases.len(), golden.len());
        for ((input, hw, seed), expected) in cases.iter().zip(golden) {
            let out = find_embedding(input, hw, &CmrConfig::with_seed(*seed))
                .expect("every golden case embeds");
            let s = out.stats;
            let chains: Vec<String> = out
                .embedding
                .iter()
                .map(|(_, c)| c.iter().map(usize::to_string).collect::<Vec<_>>().join(" "))
                .collect();
            let rendered = format!(
                "{} {} {} {} | {}",
                s.dijkstra_calls,
                s.edge_relaxations,
                s.passes_used,
                s.tries_used,
                chains.join(",")
            );
            assert_eq!(rendered, expected, "seed {seed}");
        }
    }

    #[test]
    fn disconnected_input_embeds_too() {
        let mut input = generators::path(3);
        input.add_vertex(); // isolated logical vertex
        let hw = Chimera::new(2, 2, 4).into_graph();
        embed_ok(&input, &hw, 12);
    }
}
