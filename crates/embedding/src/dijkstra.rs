//! Weighted multi-source Dijkstra search used by the CMR embedding heuristic.
//!
//! The Cai–Macready–Roy heuristic grows vertex models by repeatedly finding
//! cheapest paths from candidate root qubits to the existing chains of
//! already-embedded neighbors.  Costs live on *vertices* (a qubit already
//! used by other chains is exponentially more expensive to reuse), so the
//! search accumulates the weight of every vertex on the path, excluding the
//! source set.
//!
//! [`multi_source_dijkstra_csr`] is the search the heuristic runs.  It walks
//! the hardware graph's [`Csr`] adjacency, reads entry costs from a table
//! with one weight per vertex, and refills a caller-owned [`Frontier`] and
//! [`ShortestPaths`], so once those buffers have grown a search allocates
//! nothing.  Its slow, obviously correct twin is the closure-based
//! `multi_source_dijkstra`, compiled only for tests: both pop vertices in the
//! same `(cost, vertex)` order and relax with the same strict `<`, and the
//! tests require bit-equal costs, predecessors and relaxation counts.

use chimera_graph::csr::Csr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a multi-source shortest-path computation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShortestPaths {
    /// Accumulated cost to reach each vertex (`f64::INFINITY` if unreachable).
    pub cost: Vec<f64>,
    /// Predecessor vertex on a cheapest path (`usize::MAX` for sources and
    /// unreachable vertices).
    pub predecessor: Vec<usize>,
    /// Number of edge relaxations performed (for resource accounting).
    pub relaxations: u64,
}

impl ShortestPaths {
    /// Reconstruct the path from a source to `target`, inclusive of both the
    /// first reached source vertex and the target.  Returns `None` when the
    /// target is unreachable.
    pub fn path_to(&self, target: usize) -> Option<Vec<usize>> {
        if !self.cost[target].is_finite() {
            return None;
        }
        let mut path = vec![target];
        let mut current = target;
        while self.predecessor[current] != usize::MAX {
            current = self.predecessor[current];
            path.push(current);
        }
        path.reverse();
        Some(path)
    }
}

/// The priority queue of a search, kept between searches so that its
/// allocation is reused.
///
/// An entry packs `(cost, vertex)` into one integer whose order is the
/// [`f64::total_cmp`] order of the cost, then the vertex: the oracle's
/// `HeapEntry` order, compared as a single integer.
#[derive(Debug, Default)]
pub struct Frontier {
    heap: BinaryHeap<Reverse<u128>>,
}

impl Frontier {
    fn push_entry(&mut self, cost: f64, vertex: usize) {
        // Inverting a negative and setting the sign bit of a non-negative
        // makes unsigned order equal `total_cmp` order; `pop_min` undoes it.
        let bits = cost.to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        self.heap
            .push(Reverse(u128::from(key) << 64 | vertex as u128));
    }

    fn pop_min(&mut self) -> Option<(f64, usize)> {
        let Reverse(entry) = self.heap.pop()?;
        let key = (entry >> 64) as u64;
        let bits = if key >> 63 == 1 {
            key & !(1 << 63)
        } else {
            !key
        };
        Some((f64::from_bits(bits), entry as u64 as usize))
    }
}

/// Multi-source Dijkstra over a CSR graph with a per-vertex entry-cost table.
///
/// * `weight[v]` is the cost of *entering* vertex `v`; source vertices cost
///   nothing.  Vertices with non-finite weight are forbidden.
/// * Sources outside the graph are ignored.
/// * `out` is overwritten; `frontier` only lends its allocation.
///
/// # Panics
/// Panics if `weight` does not hold one entry per vertex of `graph`.
pub fn multi_source_dijkstra_csr(
    graph: &Csr,
    sources: &[usize],
    weight: &[f64],
    frontier: &mut Frontier,
    out: &mut ShortestPaths,
) {
    let num_vertices = graph.vertex_count();
    assert_eq!(weight.len(), num_vertices, "one entry cost per vertex");
    let cost = &mut out.cost;
    let predecessor = &mut out.predecessor;
    cost.clear();
    cost.resize(num_vertices, f64::INFINITY);
    predecessor.clear();
    predecessor.resize(num_vertices, usize::MAX);
    frontier.heap.clear();
    let mut relaxations: u64 = 0;
    for &s in sources {
        if s < num_vertices {
            cost[s] = 0.0;
            frontier.push_entry(0.0, s);
        }
    }
    while let Some((c, v)) = frontier.pop_min() {
        if c > cost[v] {
            continue;
        }
        let neighbors = graph.neighbors(v);
        // Every neighbor counts as a relaxation, forbidden ones included.
        relaxations += neighbors.len() as u64;
        for &u in neighbors {
            let u = u as usize;
            let w = weight[u];
            if !w.is_finite() {
                continue;
            }
            let candidate = c + w;
            if candidate < cost[u] {
                cost[u] = candidate;
                predecessor[u] = v;
                frontier.push_entry(candidate, u);
            }
        }
    }
    out.relaxations = relaxations;
}

/// The slow, obviously correct twin of [`multi_source_dijkstra_csr`], the
/// reference the tests compare it against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::ShortestPaths;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug, PartialEq)]
    struct HeapEntry {
        cost: f64,
        vertex: usize,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse ordering: BinaryHeap is a max-heap, we want the min cost.
            other
                .cost
                .total_cmp(&self.cost)
                .then_with(|| other.vertex.cmp(&self.vertex))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Multi-source Dijkstra over a graph given as an adjacency closure.
    ///
    /// * `neighbors(v)` must yield the neighbors of `v`.
    /// * `vertex_weight(v)` is the cost of *entering* vertex `v`; source vertices
    ///   cost nothing.
    /// * Vertices with non-finite weight are treated as forbidden.
    pub(crate) fn multi_source_dijkstra<N, I, W>(
        num_vertices: usize,
        sources: &[usize],
        mut neighbors: N,
        mut vertex_weight: W,
    ) -> ShortestPaths
    where
        N: FnMut(usize) -> I,
        I: IntoIterator<Item = usize>,
        W: FnMut(usize) -> f64,
    {
        let mut cost = vec![f64::INFINITY; num_vertices];
        let mut predecessor = vec![usize::MAX; num_vertices];
        let mut heap = BinaryHeap::new();
        let mut relaxations: u64 = 0;
        for &s in sources {
            if s < num_vertices {
                cost[s] = 0.0;
                heap.push(HeapEntry {
                    cost: 0.0,
                    vertex: s,
                });
            }
        }
        while let Some(HeapEntry { cost: c, vertex: v }) = heap.pop() {
            if c > cost[v] {
                continue;
            }
            for u in neighbors(v) {
                relaxations += 1;
                let w = vertex_weight(u);
                if !w.is_finite() {
                    continue;
                }
                let candidate = c + w;
                if candidate < cost[u] {
                    cost[u] = candidate;
                    predecessor[u] = v;
                    heap.push(HeapEntry {
                        cost: candidate,
                        vertex: u,
                    });
                }
            }
        }
        ShortestPaths {
            cost,
            predecessor,
            relaxations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::multi_source_dijkstra;
    use super::*;
    use chimera_graph::{generators, Chimera, FaultModel, Graph};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run(graph: &Graph, sources: &[usize]) -> ShortestPaths {
        multi_source_dijkstra(
            graph.vertex_count(),
            sources,
            |v| graph.neighbors(v).collect::<Vec<_>>(),
            |_| 1.0,
        )
    }

    #[test]
    fn single_source_unit_weights_match_bfs() {
        let g = generators::path(6);
        let sp = run(&g, &[0]);
        for (v, &c) in sp.cost.iter().enumerate() {
            assert_eq!(c, v as f64);
        }
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = generators::path(7);
        let sp = run(&g, &[0, 6]);
        assert_eq!(sp.cost[3], 3.0);
        assert_eq!(sp.cost[5], 1.0);
        assert_eq!(sp.cost[6], 0.0);
    }

    #[test]
    fn path_reconstruction() {
        let g = generators::path(5);
        let sp = run(&g, &[0]);
        let path = sp.path_to(4).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3, 4]);
        assert_eq!(sp.path_to(0).unwrap(), vec![0]);
    }

    #[test]
    fn unreachable_targets_return_none() {
        let mut g = generators::path(3);
        g.add_vertex();
        let sp = run(&g, &[0]);
        assert!(sp.path_to(3).is_none());
        assert!(!sp.cost[3].is_finite());
    }

    #[test]
    fn vertex_weights_steer_the_path() {
        // Square 0-1-2-3-0; make vertex 1 very expensive so the path 0 -> 2
        // goes through 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let sp = multi_source_dijkstra(
            4,
            &[0],
            |v| g.neighbors(v).collect::<Vec<_>>(),
            |v| if v == 1 { 100.0 } else { 1.0 },
        );
        assert_eq!(sp.path_to(2).unwrap(), vec![0, 3, 2]);
        assert_eq!(sp.cost[2], 2.0);
    }

    #[test]
    fn forbidden_vertices_block_paths() {
        let g = generators::path(4);
        let sp = multi_source_dijkstra(
            4,
            &[0],
            |v| g.neighbors(v).collect::<Vec<_>>(),
            |v| if v == 2 { f64::INFINITY } else { 1.0 },
        );
        assert!(sp.path_to(3).is_none());
        assert!(sp.path_to(1).is_some());
    }

    #[test]
    fn relaxation_counter_grows_with_graph_size() {
        let small = run(&generators::complete(5), &[0]).relaxations;
        let large = run(&generators::complete(20), &[0]).relaxations;
        assert!(large > small);
        assert!(small > 0);
    }

    #[test]
    fn out_of_range_sources_are_ignored() {
        let g = generators::path(3);
        let sp = run(&g, &[99]);
        assert!(sp.cost.iter().all(|c| !c.is_finite()));
    }

    /// Entry-cost tables the CMR heuristic can produce: all ones (the most
    /// ties), `64^usage` overlap penalties, and either with forbidden
    /// (`INFINITY`) vertices.
    fn weight_tables(n: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
        let unit = vec![1.0; n];
        let penalties: Vec<f64> = (0..n)
            .map(|_| 64f64.powi(rng.gen_range(0u32..4) as i32))
            .collect();
        let forbid = |table: &[f64], rng: &mut ChaCha8Rng| -> Vec<f64> {
            table
                .iter()
                .map(|&w| {
                    if rng.gen_range(0u32..5) == 0 {
                        f64::INFINITY
                    } else {
                        w
                    }
                })
                .collect()
        };
        let unit_forbidden = forbid(&unit, rng);
        let penalties_forbidden = forbid(&penalties, rng);
        vec![unit, penalties, unit_forbidden, penalties_forbidden]
    }

    /// Source sets: a single vertex, a random multi-vertex set, that set
    /// with vertices outside the graph added, and an outside vertex alone.
    fn source_sets(n: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<usize>> {
        let single = vec![rng.gen_range(0..n)];
        let mut multi: Vec<usize> = (0..4).map(|_| rng.gen_range(0..n)).collect();
        multi.sort_unstable();
        multi.dedup();
        let mut out_of_range = multi.clone();
        out_of_range.extend([n, n + 7]);
        vec![single, multi, out_of_range, vec![n + 1]]
    }

    #[test]
    fn csr_fast_path_matches_the_closure_oracle_bit_for_bit() {
        let mut graphs: Vec<Graph> = (0..6)
            .map(|seed| generators::gnp(12 + 6 * seed as usize, 0.25, seed))
            .collect();
        for (m, dead, seed) in [(2, 3, 1), (3, 8, 2), (4, 12, 3)] {
            let chimera = Chimera::new(m, m, 4);
            let faults = FaultModel::exact_dead_qubits(chimera.graph(), dead, seed);
            graphs.push(faults.apply(chimera.graph()));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(2016);
        // One frontier and one result buffer for every case, so stale state
        // from an earlier search would show as a mismatch.
        let mut frontier = Frontier::default();
        let mut fast = ShortestPaths::default();
        let mut cases = 0;
        for graph in &graphs {
            let n = graph.vertex_count();
            let csr = Csr::from_graph(graph);
            for weight in weight_tables(n, &mut rng) {
                for sources in source_sets(n, &mut rng) {
                    let oracle = multi_source_dijkstra(
                        n,
                        &sources,
                        |v| graph.neighbors(v).collect::<Vec<_>>(),
                        |v| weight[v],
                    );
                    multi_source_dijkstra_csr(&csr, &sources, &weight, &mut frontier, &mut fast);
                    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fast.cost), bits(&oracle.cost), "n={n} {sources:?}");
                    assert_eq!(fast.predecessor, oracle.predecessor, "n={n} {sources:?}");
                    assert_eq!(fast.relaxations, oracle.relaxations, "n={n} {sources:?}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, graphs.len() * 16);
    }
}
