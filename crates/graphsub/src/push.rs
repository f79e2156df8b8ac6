//! Appendix A.2 — local clustering via randomized push propagation.
//!
//! Wang et al.'s approximate graph propagation (KDD'21) computes random-walk
//! probability mass by *pushing* particles along out-edges; each push at `u`
//! samples every out-neighbor `v` independently with probability
//! `A_uv / d_out(u)` — a `(1,0)` PSS query on `u`'s out-edges, which is why a
//! dynamic graph needs DPSS (one edge update at `u` rescales all of `u`'s
//! push probabilities).
//!
//! The three-phase local-clustering pipeline (Andersen–Chung–Lang style):
//!
//! 1. [`ppr_monte_carlo`] estimates the personalized PageRank (PPR) vector
//!    from a seed node with α-terminating randomized pushes;
//! 2. nodes are ranked by `π(s,u) / d(u)`;
//! 3. [`sweep_cut`] scans prefixes of the ranking and returns the prefix with
//!    the lowest conductance.

// HashMap/HashSet sanctioned: they are this module's public types. Walking
// `current` in `randomized_push` does set the order of the neighbourhood
// queries, but each node draws from its own context, so the visit counts do
// not depend on it; `sweep_cut` breaks score ties by node id, so its ranking
// does not depend on the order of `scores`; and the sums over `adj` and
// `set` are exact integers, so their order cannot show.
#![allow(clippy::disallowed_types)]

use crate::graph::{DynGraph, NodeId};
use rand::Rng;
use rand::RngCore;
use std::collections::HashMap;
use std::collections::HashSet;

/// Level-synchronous randomized push. Starts `particles` particles at
/// `seed_node`; at each of `levels` steps every particle at `u` forwards one
/// copy to each out-neighbor sampled by the `(1,0)` PSS query (expected
/// fan-out exactly 1). Returns total visit counts per node — an unbiased
/// estimator of the cumulative random-walk propagation mass.
pub fn randomized_push(
    g: &mut DynGraph,
    seed_node: NodeId,
    particles: u32,
    levels: u32,
) -> HashMap<NodeId, u64> {
    let mut visits: HashMap<NodeId, u64> = HashMap::new();
    let mut current: HashMap<NodeId, u64> = HashMap::from([(seed_node, particles as u64)]);
    *visits.entry(seed_node).or_default() += particles as u64;
    for _ in 0..levels {
        let mut next: HashMap<NodeId, u64> = HashMap::new();
        for (&u, &count) in &current {
            for _ in 0..count {
                for v in g.sample_out_neighbors(u) {
                    *next.entry(v).or_default() += 1;
                }
            }
        }
        for (&v, &c) in &next {
            *visits.entry(v).or_default() += c;
        }
        if next.is_empty() {
            break;
        }
        current = next;
    }
    visits
}

/// Monte-Carlo personalized PageRank from `seed`: each of `particles`
/// particles performs an α-terminating walk (termination probability
/// `alpha_permille/1000` per step, hop cap `max_hops`), stepping via the
/// subset-sampling push (when the PSS query returns several neighbors one is
/// chosen uniformly — an unbiased single-neighbor weighted step). Returns the
/// normalized visit distribution of walk *endpoints*, the standard MC-PPR
/// estimator.
pub fn ppr_monte_carlo<R: RngCore>(
    g: &mut DynGraph,
    seed: NodeId,
    particles: u32,
    alpha_permille: u32,
    max_hops: u32,
    rng: &mut R,
) -> HashMap<NodeId, f64> {
    assert!(alpha_permille > 0 && alpha_permille <= 1000, "alpha out of range");
    let mut endpoint_counts: HashMap<NodeId, u64> = HashMap::new();
    for _ in 0..particles {
        let mut u = seed;
        for _ in 0..max_hops {
            if rng.gen_range(0u32..1000) < alpha_permille {
                break; // terminate: u is this walk's endpoint
            }
            // One weighted step: resample the out-neighborhood until the PSS
            // query is non-empty, then pick uniformly among the subset — the
            // subset contains each v with p ∝ A_uv, so the uniform pick is a
            // weighted neighbor choice in expectation.
            let mut stepped = false;
            for _ in 0..64 {
                let t = g.sample_out_neighbors(u);
                if !t.is_empty() {
                    u = t[rng.gen_range(0..t.len())];
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                break; // dangling node (or pathologically unlucky): stop here
            }
        }
        *endpoint_counts.entry(u).or_default() += 1;
    }
    endpoint_counts.into_iter().map(|(v, c)| (v, c as f64 / particles as f64)).collect()
}

/// An undirected weighted view of an edge list, used by conductance and
/// sweep-cut computations (local clustering is defined on undirected
/// volumes; directed inputs are symmetrized by summing both directions).
#[derive(Debug, Clone)]
pub struct UndirectedView {
    /// Symmetrized adjacency: `adj[u]` lists `(v, w)` with `w = w_uv + w_vu`.
    adj: Vec<Vec<(NodeId, u64)>>,
    /// Total volume `Σ_u deg_w(u)` (= 2 × total symmetrized edge weight).
    volume: u128,
}

impl UndirectedView {
    /// Builds the symmetrized view from directed `(u, v, w)` edges.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId, u64)>) -> Self {
        let mut pair: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        for (u, v, w) in edges {
            assert!((u as usize) < n && (v as usize) < n, "node id out of range");
            if u == v {
                continue; // self-loops contribute nothing to cuts
            }
            let key = if u < v { (u, v) } else { (v, u) };
            *pair.entry(key).or_default() += w;
        }
        let mut adj: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];
        let mut volume = 0u128;
        for ((u, v), w) in pair {
            adj[u as usize].push((v, w));
            adj[v as usize].push((u, w));
            volume += 2 * u128::from(w);
        }
        UndirectedView { adj, volume }
    }

    /// Builds the view from a [`DynGraph`]'s current edges.
    pub fn from_graph(g: &DynGraph) -> Self {
        Self::from_edges(g.n_nodes(), g.edges())
    }

    /// Weighted degree of `u`.
    pub fn degree(&self, u: NodeId) -> u128 {
        self.adj[u as usize].iter().map(|&(_, w)| u128::from(w)).sum()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Total volume `Σ_u deg_w(u)`.
    pub fn volume(&self) -> u128 {
        self.volume
    }

    /// Conductance `φ(S) = cut(S, S̄) / min(vol(S), vol(S̄))` of a node set.
    /// Returns `None` when either side has zero volume (φ undefined).
    pub fn conductance(&self, set: &HashSet<NodeId>) -> Option<f64> {
        let mut cut = 0u128;
        let mut vol_s = 0u128;
        for &u in set {
            for &(v, w) in &self.adj[u as usize] {
                vol_s += u128::from(w);
                if !set.contains(&v) {
                    cut += u128::from(w);
                }
            }
        }
        let vol_rest = self.volume - vol_s;
        let denom = vol_s.min(vol_rest);
        if denom == 0 {
            return None;
        }
        Some(cut as f64 / denom as f64)
    }
}

/// Result of a sweep cut.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCut {
    /// The best prefix set found.
    pub cluster: Vec<NodeId>,
    /// Its conductance.
    pub conductance: f64,
}

/// Scans prefixes of `scores` ranked by `score(u)/deg(u)` and returns the
/// prefix with minimum conductance — phase 3 of local clustering. Nodes with
/// zero score or zero degree are ignored. Returns `None` when no prefix has
/// defined conductance.
pub fn sweep_cut(view: &UndirectedView, scores: &HashMap<NodeId, f64>) -> Option<SweepCut> {
    let mut ranked: Vec<(NodeId, f64)> = scores
        .iter()
        .filter_map(|(&u, &s)| {
            let d = view.degree(u);
            (s > 0.0 && d > 0).then(|| (u, s / d as f64))
        })
        .collect();
    // Ties go to the lower node id: `scores` iterates in hasher order.
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });

    // Incremental conductance over growing prefixes.
    let mut set: HashSet<NodeId> = HashSet::new();
    let mut cut = 0i128;
    let mut vol_s = 0u128;
    let mut best: Option<(usize, f64)> = None;
    for (i, &(u, _)) in ranked.iter().enumerate() {
        // Adding u: new cut edges = deg(u) − 2·w(u, S).
        let mut to_set = 0u128;
        for &(v, w) in &view.adj[u as usize] {
            if set.contains(&v) {
                to_set += u128::from(w);
            }
        }
        let deg = view.degree(u);
        cut += deg as i128 - 2 * to_set as i128;
        vol_s += deg;
        set.insert(u);
        let vol_rest = view.volume - vol_s;
        let denom = vol_s.min(vol_rest);
        if denom == 0 {
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if best.is_none_or(|(_, b)| phi < b) {
            best = Some((i, phi));
        }
    }
    best.map(|(i, phi)| SweepCut {
        cluster: ranked[..=i].iter().map(|&(u, _)| u).collect(),
        conductance: phi,
    })
}

/// The full local-clustering pipeline: MC-PPR from `seed`, rank by
/// `π/deg`, sweep. Returns `None` on a degenerate graph.
pub fn local_cluster<R: RngCore>(
    g: &mut DynGraph,
    seed: NodeId,
    particles: u32,
    alpha_permille: u32,
    rng: &mut R,
) -> Option<SweepCut> {
    let ppr = ppr_monte_carlo(g, seed, particles, alpha_permille, 64, rng);
    let view = UndirectedView::from_graph(g);
    sweep_cut(&view, &ppr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two 6-cliques joined by a single light bridge.
    fn two_communities(seed: u64) -> DynGraph {
        let mut g: DynGraph = DynGraph::new(12, seed);
        for base in [0u32, 6] {
            for i in 0..6u32 {
                for j in 0..6u32 {
                    if i != j {
                        g.add_edge(base + i, base + j, 8);
                    }
                }
            }
        }
        g.add_edge(5, 6, 1);
        g.add_edge(6, 5, 1);
        g
    }

    #[test]
    fn push_conserves_mass_on_cycle() {
        // Directed cycle with single out-edges: every push forwards exactly
        // one particle (p = w/w = 1), so visits = particles × (levels + 1).
        let mut g: DynGraph = DynGraph::new(5, 7);
        for v in 0..5u32 {
            g.add_edge(v, (v + 1) % 5, 3);
        }
        let visits = randomized_push(&mut g, 0, 10, 5);
        let total: u64 = visits.values().sum();
        assert_eq!(total, 10 * 6);
    }

    #[test]
    fn push_splits_mass_across_branches() {
        // 0 → {1 (w=1), 2 (w=3)}: expected visit fractions 1/4 and 3/4.
        let mut g: DynGraph = DynGraph::new(3, 8);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 3);
        let visits = randomized_push(&mut g, 0, 40_000, 1);
        let v1 = *visits.get(&1).unwrap_or(&0) as f64;
        let v2 = *visits.get(&2).unwrap_or(&0) as f64;
        assert!((v1 / 40_000.0 - 0.25).abs() < 0.02, "v1 = {v1}");
        assert!((v2 / 40_000.0 - 0.75).abs() < 0.02, "v2 = {v2}");
    }

    #[test]
    fn ppr_mass_sums_to_one() {
        let mut g = two_communities(1);
        let mut rng = SmallRng::seed_from_u64(1);
        let ppr = ppr_monte_carlo(&mut g, 0, 5000, 200, 64, &mut rng);
        let total: f64 = ppr.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "PPR mass {total}");
    }

    #[test]
    fn ppr_concentrates_near_seed() {
        let mut g = two_communities(2);
        let mut rng = SmallRng::seed_from_u64(2);
        let ppr = ppr_monte_carlo(&mut g, 0, 8000, 200, 64, &mut rng);
        let mass_a: f64 = (0..6).map(|v| ppr.get(&v).copied().unwrap_or(0.0)).sum();
        assert!(mass_a > 0.85, "community-A mass {mass_a}");
    }

    #[test]
    fn ppr_dangling_seed_keeps_all_mass() {
        let mut g: DynGraph = DynGraph::new(3, 3);
        g.add_edge(1, 2, 1); // seed 0 has no out-edges
        let mut rng = SmallRng::seed_from_u64(3);
        let ppr = ppr_monte_carlo(&mut g, 0, 500, 100, 16, &mut rng);
        assert_eq!(ppr.len(), 1);
        assert!((ppr[&0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_view_symmetrizes_and_merges() {
        let view = UndirectedView::from_edges(3, [(0u32, 1u32, 3u64), (1, 0, 2), (1, 2, 5)]);
        assert_eq!(view.degree(0), 5); // 3 + 2 merged
        assert_eq!(view.degree(1), 10);
        assert_eq!(view.degree(2), 5);
        assert_eq!(view.volume(), 20);
    }

    #[test]
    fn self_loops_are_dropped() {
        let view = UndirectedView::from_edges(2, [(0u32, 0u32, 9u64), (0, 1, 1)]);
        assert_eq!(view.degree(0), 1);
        assert_eq!(view.volume(), 2);
    }

    #[test]
    fn conductance_of_perfect_community_is_low() {
        let g = two_communities(4);
        let view = UndirectedView::from_graph(&g);
        let a: HashSet<NodeId> = (0..6).collect();
        let phi = view.conductance(&a).unwrap();
        // Community A volume: 30 internal symmetrized edges ×16 + bridge 2;
        // cut = 2 (bridge both directions merged: 1+1).
        assert!(phi < 0.01, "φ(A) = {phi}");
        let whole: HashSet<NodeId> = (0..12).collect();
        assert!(view.conductance(&whole).is_none(), "φ(V) undefined");
    }

    #[test]
    fn conductance_of_random_half_is_high() {
        let g = two_communities(5);
        let view = UndirectedView::from_graph(&g);
        // A deliberately bad set: half of each community.
        let bad: HashSet<NodeId> = [0, 1, 2, 6, 7, 8].into_iter().collect();
        let phi_bad = view.conductance(&bad).unwrap();
        let good: HashSet<NodeId> = (0..6).collect();
        let phi_good = view.conductance(&good).unwrap();
        assert!(phi_bad > 10.0 * phi_good, "bad {phi_bad} vs good {phi_good}");
    }

    #[test]
    fn sweep_cut_recovers_the_community() {
        let mut g = two_communities(6);
        let mut rng = SmallRng::seed_from_u64(6);
        let cut = local_cluster(&mut g, 2, 8000, 150, &mut rng).expect("cut found");
        let cluster: HashSet<NodeId> = cut.cluster.iter().copied().collect();
        let expect: HashSet<NodeId> = (0..6).collect();
        assert_eq!(cluster, expect, "sweep found {cluster:?}");
        assert!(cut.conductance < 0.01, "φ = {}", cut.conductance);
    }

    #[test]
    fn sweep_cut_incremental_matches_direct_conductance() {
        // The incremental cut maintenance inside sweep_cut must agree with
        // UndirectedView::conductance for its returned cluster.
        let mut g = two_communities(7);
        let mut rng = SmallRng::seed_from_u64(7);
        let ppr = ppr_monte_carlo(&mut g, 0, 4000, 150, 64, &mut rng);
        let view = UndirectedView::from_graph(&g);
        let cut = sweep_cut(&view, &ppr).unwrap();
        let set: HashSet<NodeId> = cut.cluster.iter().copied().collect();
        let direct = view.conductance(&set).unwrap();
        assert!(
            (direct - cut.conductance).abs() < 1e-12,
            "incremental {} vs direct {}",
            cut.conductance,
            direct
        );
    }

    #[test]
    fn sweep_cut_empty_scores_is_none() {
        let g = two_communities(8);
        let view = UndirectedView::from_graph(&g);
        assert!(sweep_cut(&view, &HashMap::new()).is_none());
    }

    #[test]
    fn local_cluster_adapts_to_dynamic_rewiring() {
        // Strengthening the bridge into a full merge should raise the best
        // conductance the sweep can find (communities blur together).
        let mut g = two_communities(9);
        let mut rng = SmallRng::seed_from_u64(9);
        let before = local_cluster(&mut g, 0, 6000, 150, &mut rng).unwrap();
        // Densely connect the two communities.
        for i in 0..6u32 {
            for j in 6..12u32 {
                g.add_edge(i, j, 8);
                g.add_edge(j, i, 8);
            }
        }
        let after = local_cluster(&mut g, 0, 6000, 150, &mut rng).unwrap();
        assert!(
            after.conductance > 5.0 * before.conductance,
            "before φ={} after φ={}",
            before.conductance,
            after.conductance
        );
    }
}
