//! Appendix A.1 — influence maximization via reverse-reachable (RR) sets.
//!
//! The reverse-influence-sampling (RIS) pipeline the paper's appendix cites
//! (Guo et al., SIGMOD'20 / TODS'22):
//!
//! 1. sample `R` RR sets — each is the set of nodes that could have activated
//!    a uniformly random root under the weighted independent-cascade model;
//! 2. pick `k` seeds greedily maximizing RR-set coverage;
//! 3. the influence estimate of the chosen seeds is `n · covered / R`.
//!
//! Every cascade step at node `v` samples each in-neighbor `u` independently
//! with probability `A_uv / Σ A_·v` — exactly a PSS query with `(α,β)=(1,0)`
//! on `v`'s in-edges, so a dynamic graph needs DPSS (a single edge update at
//! `v` moves *all* of `v`'s in-probabilities).

use crate::graph::{DynGraph, NodeId};
use rand::Rng;
use rand::RngCore;
use std::collections::BTreeSet;

/// One reverse-reachable (RR) set from `root` under the weighted
/// independent-cascade model. `max_size` caps runaway cascades.
///
/// Allocates only the returned `Vec` once the contexts of the nodes it
/// visits are warm: seen marks, frontier and query buffers are the
/// graph's, reused from set to set.
pub fn rr_set(g: &mut DynGraph, root: NodeId, max_size: usize) -> Vec<NodeId> {
    g.rr_set(root, max_size)
}

/// The reverse cascade's reusable state, shared by [`DynGraph`] and
/// [`crate::NaiveDynGraph`]: epoch-stamped seen marks, one `u32` per node,
/// plus the frontier, activation and neighbour buffers, all of which keep
/// their capacity from set to set.
///
/// A node is in the current set iff its mark equals the current stamp, so
/// starting a set costs one increment rather than a clear of every mark
/// (the marks are cleared once per 2^32 − 1 sets, when the stamp wraps).
#[derive(Debug)]
pub(crate) struct Cascade {
    seen: Vec<u32>,
    stamp: u32,
    frontier: Vec<NodeId>,
    activated: Vec<NodeId>,
    nbrs: Vec<NodeId>,
}

impl Cascade {
    /// State for a graph of `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        Cascade {
            seen: vec![0; n],
            stamp: 0,
            frontier: Vec::new(),
            activated: Vec::new(),
            nbrs: Vec::new(),
        }
    }

    /// Runs one RR set from `root`: pops the frontier depth first, has
    /// `sample_in(v, nbrs)` append a sample of `v`'s in-neighbours to
    /// `nbrs`, and activates the ones not seen yet, until the frontier
    /// empties or `max_size` nodes are active. Returns the activated nodes
    /// in activation order, `root` first, in a `Vec` of exactly their
    /// number: the only allocation a warm run makes.
    pub(crate) fn rr_set(
        &mut self,
        root: NodeId,
        max_size: usize,
        mut sample_in: impl FnMut(NodeId, &mut Vec<NodeId>),
    ) -> Vec<NodeId> {
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.seen[root as usize] = stamp;
        self.activated.clear();
        self.activated.push(root);
        self.frontier.clear();
        self.frontier.push(root);
        while let Some(v) = self.frontier.pop() {
            if self.activated.len() >= max_size {
                break;
            }
            self.nbrs.clear();
            sample_in(v, &mut self.nbrs);
            for &u in &self.nbrs {
                let mark = &mut self.seen[u as usize];
                if *mark != stamp {
                    *mark = stamp;
                    self.activated.push(u);
                    self.frontier.push(u);
                }
            }
        }
        self.activated.clone()
    }
}

/// Greedy maximum coverage: repeatedly picks the node contained in the most
/// still-uncovered RR sets, `k` times. Returns `(seeds, covered_sets)`.
///
/// This is the standard `(1 − 1/e)`-approximate selection step of RIS-based
/// influence maximization, implemented with the usual inverted index +
/// lazy subtraction so a full selection runs in
/// `O(Σ|RR| + k·n)` time.
pub fn greedy_max_coverage(
    rr_sets: &[Vec<NodeId>],
    k: usize,
    n_nodes: usize,
) -> (Vec<NodeId>, usize) {
    // Inverted index: node → RR-set indices containing it.
    let mut appears_in: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
    for (i, rr) in rr_sets.iter().enumerate() {
        for &v in rr {
            appears_in[v as usize].push(i as u32);
        }
    }
    let mut gain: Vec<usize> = appears_in.iter().map(Vec::len).collect();
    let mut covered = vec![false; rr_sets.len()];
    let mut seeds = Vec::with_capacity(k);
    let mut total_covered = 0usize;
    for _ in 0..k.min(n_nodes) {
        // Recompute the true gain of the current arg-max lazily.
        let Some(best) = (0..n_nodes).max_by_key(|&v| gain[v]) else {
            break;
        };
        if gain[best] == 0 {
            break; // everything coverable is covered
        }
        seeds.push(best as NodeId);
        for &si in &appears_in[best] {
            if !covered[si as usize] {
                covered[si as usize] = true;
                total_covered += 1;
                // Decrement the gain of every other member of this set.
                for &v in &rr_sets[si as usize] {
                    gain[v as usize] -= 1;
                }
            }
        }
        debug_assert_eq!(gain[best], 0);
    }
    (seeds, total_covered)
}

/// The full RIS influence-maximization pipeline over a dynamic graph.
#[derive(Debug)]
pub struct InfluenceMaximizer {
    /// Cached RR sets (regenerated on demand after updates).
    rr_sets: Vec<Vec<NodeId>>,
    /// Cap on individual cascade size.
    max_cascade: usize,
}

/// Result of a seed-selection round.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSelection {
    /// Chosen seed nodes, in greedy order.
    pub seeds: Vec<NodeId>,
    /// Number of RR sets covered by the seeds.
    pub covered: usize,
    /// Influence estimate: `n · covered / R`.
    pub influence_estimate: f64,
}

impl InfluenceMaximizer {
    /// Creates an empty pipeline; `max_cascade` bounds each RR set's size.
    pub fn new(max_cascade: usize) -> Self {
        InfluenceMaximizer { rr_sets: Vec::new(), max_cascade }
    }

    /// Number of cached RR sets.
    pub fn n_rr_sets(&self) -> usize {
        self.rr_sets.len()
    }

    /// Sum of cached RR-set sizes (the output-sensitive work measure).
    pub fn total_rr_nodes(&self) -> usize {
        self.rr_sets.iter().map(Vec::len).sum()
    }

    /// Discards cached RR sets. Call after graph updates: cached sets were
    /// drawn from the *old* cascade distribution.
    pub fn invalidate(&mut self) {
        self.rr_sets.clear();
    }

    /// *Approximate* incremental maintenance after an edge update `(·, v)`:
    /// regenerates (from their original roots) only the cached RR sets that
    /// contain `v`, and returns how many were regenerated. Far cheaper than
    /// [`InfluenceMaximizer::invalidate`] + full resampling when `v` appears
    /// in few sets.
    ///
    /// **Bias note.** Trajectories avoiding `v` have identical probability
    /// before and after the update (a reverse cascade consults `v`'s
    /// in-neighborhood only when `v` is activated), so one might hope this is
    /// exact. It is not: a refreshed slot is redrawn from the *unconditional*
    /// new law and can land back in the "avoids `v`" region, so the pool's
    /// fraction of `v`-containing sets ends at `q²` instead of the correct
    /// `q = P[RR ∋ v]` — an `O(q(1−q))` under-representation of exactly the
    /// sets the update touched. This is the standard practical trade-off in
    /// dynamic RR-index maintenance; the bias is negligible when `q` is small
    /// (the common case: one node among `n`) and is characterized empirically
    /// by the `refresh_bias_is_directional_and_bounded` test. For exact
    /// results after large-impact updates, call `invalidate()` instead.
    pub fn refresh_for_node(&mut self, g: &mut DynGraph, v: NodeId) -> usize {
        let mut refreshed = 0;
        for i in 0..self.rr_sets.len() {
            if self.rr_sets[i].contains(&v) {
                let root = self.rr_sets[i][0];
                self.rr_sets[i] = rr_set(g, root, self.max_cascade);
                refreshed += 1;
            }
        }
        refreshed
    }

    /// Samples RR sets until `r_target` are cached (uniform random roots).
    pub fn ensure_rr_sets<R: RngCore>(&mut self, g: &mut DynGraph, r_target: usize, rng: &mut R) {
        let n = g.n_nodes() as u32;
        assert!(n > 0, "graph has no nodes");
        while self.rr_sets.len() < r_target {
            let root = rng.gen_range(0..n);
            let rr = rr_set(g, root, self.max_cascade);
            self.rr_sets.push(rr);
        }
    }

    /// Greedily selects `k` seeds from the cached RR sets.
    ///
    /// # Panics
    /// Panics if no RR sets are cached.
    pub fn select_seeds(&self, g: &DynGraph, k: usize) -> SeedSelection {
        assert!(!self.rr_sets.is_empty(), "call ensure_rr_sets first");
        let (seeds, covered) = greedy_max_coverage(&self.rr_sets, k, g.n_nodes());
        let influence_estimate = g.n_nodes() as f64 * covered as f64 / self.rr_sets.len() as f64;
        SeedSelection { seeds, covered, influence_estimate }
    }

    /// Convenience: sample `r` RR sets and select `k` seeds in one call.
    pub fn run<R: RngCore>(
        &mut self,
        g: &mut DynGraph,
        r: usize,
        k: usize,
        rng: &mut R,
    ) -> SeedSelection {
        self.ensure_rr_sets(g, r, rng);
        self.select_seeds(g, k)
    }
}

/// Monte-Carlo forward-cascade influence of a seed set: runs `trials`
/// independent weighted-IC cascades from `seeds` and returns the mean number
/// of activated nodes. The ground-truth check for [`InfluenceMaximizer`]'s
/// RIS estimate (they must agree in expectation).
pub fn forward_influence(g: &mut DynGraph, seeds: &[NodeId], trials: u32) -> f64 {
    // Forward direction: u activates each out-neighbor v with probability
    // A_uv / Σ_x A_xv (v's in-normalized weight), so the coin must be flipped
    // from v's perspective: sample v's in-neighborhood and test membership of
    // u. Out-adjacency is snapshotted once — cascades don't mutate edges —
    // in `edges()` order, which fixes the order of the neighbourhood
    // queries and with it the estimate.
    let mut out_adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.n_nodes()];
    for (u, v, _) in g.edges() {
        out_adj[u as usize].push(v);
    }
    let mut total = 0u64;
    for _ in 0..trials {
        let mut active: BTreeSet<NodeId> = seeds.iter().copied().collect();
        let mut frontier: Vec<NodeId> = seeds.to_vec();
        while let Some(u) = frontier.pop() {
            for &v in &out_adj[u as usize] {
                if active.contains(&v) {
                    continue;
                }
                if g.sample_in_neighbors(v).contains(&u) {
                    active.insert(v);
                    frontier.push(v);
                }
            }
        }
        total += active.len() as u64;
    }
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rr_sets_respect_reachability() {
        // 0 → 1 → 2 chain: RR(0) = {0}; RR(2) ⊆ {2, 1, 0}.
        let mut g: DynGraph = DynGraph::new(3, 4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        for _ in 0..100 {
            assert_eq!(rr_set(&mut g, 0, 100), vec![0]);
            let rr2 = rr_set(&mut g, 2, 100);
            assert!(rr2.starts_with(&[2]));
            assert!(rr2.len() <= 3);
        }
    }

    #[test]
    fn rr_set_deterministic_single_edge() {
        // Single in-edge: weighted-cascade probability = w/w = 1.
        let mut g: DynGraph = DynGraph::new(2, 5);
        g.add_edge(0, 1, 42);
        for _ in 0..50 {
            assert_eq!(rr_set(&mut g, 1, 10).len(), 2);
        }
    }

    #[test]
    fn rr_set_max_size_is_respected() {
        // Long deterministic chain, tight cap.
        let mut g: DynGraph = DynGraph::new(50, 6);
        for v in 1..50u32 {
            g.add_edge(v - 1, v, 1);
        }
        for _ in 0..20 {
            assert!(rr_set(&mut g, 49, 10).len() <= 10);
        }
    }

    #[test]
    fn greedy_coverage_picks_obvious_hub() {
        // Node 7 is in all sets; others in one each.
        let rr: Vec<Vec<NodeId>> = vec![vec![7, 1], vec![7, 2], vec![7, 3], vec![7, 4]];
        let (seeds, covered) = greedy_max_coverage(&rr, 1, 10);
        assert_eq!(seeds, vec![7]);
        assert_eq!(covered, 4);
    }

    #[test]
    fn greedy_coverage_is_submodular_greedy() {
        // Sets: {0,1}, {0,2}, {3}, {3}, {3}. k=2 → first 3 (covers 3 sets),
        // then 0 (covers remaining 2).
        let rr: Vec<Vec<NodeId>> = vec![vec![0, 1], vec![0, 2], vec![3], vec![3], vec![3]];
        let (seeds, covered) = greedy_max_coverage(&rr, 2, 5);
        assert_eq!(seeds, vec![3, 0]);
        assert_eq!(covered, 5);
    }

    #[test]
    fn greedy_coverage_stops_when_everything_covered() {
        let rr: Vec<Vec<NodeId>> = vec![vec![1], vec![1]];
        let (seeds, covered) = greedy_max_coverage(&rr, 5, 3);
        assert_eq!(seeds.len(), 1, "no zero-gain seeds should be added");
        assert_eq!(covered, 2);
    }

    #[test]
    fn greedy_coverage_empty_inputs() {
        let (seeds, covered) = greedy_max_coverage(&[], 3, 5);
        assert!(seeds.is_empty());
        assert_eq!(covered, 0);
        let rr = vec![vec![0u32]];
        let (seeds, covered) = greedy_max_coverage(&rr, 0, 5);
        assert!(seeds.is_empty());
        assert_eq!(covered, 0);
    }

    #[test]
    fn maximizer_finds_the_influencer() {
        // Star: node 0 points at everyone with heavy weight; every RR set
        // from any root therefore contains 0 (p = w0 / Σ ≈ 1 with only one
        // in-edge per node, exactly 1 here).
        let mut g: DynGraph = DynGraph::new(16, 7);
        for v in 1..16u32 {
            g.add_edge(0, v, 9);
        }
        let mut im = InfluenceMaximizer::new(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let sel = im.run(&mut g, 200, 1, &mut rng);
        assert_eq!(sel.seeds, vec![0]);
        assert_eq!(sel.covered, 200, "hub must cover every RR set");
        assert!((sel.influence_estimate - 16.0).abs() < 1e-9);
    }

    #[test]
    fn maximizer_influence_estimate_tracks_forward_cascades() {
        // Two-community graph: seeds = 1 should recover a sizable estimate
        // and the RIS estimate must match Monte-Carlo forward influence.
        let mut g: DynGraph = DynGraph::new(12, 8);
        for u in 0..6u32 {
            for v in 0..6u32 {
                if u != v {
                    g.add_edge(u, v, 4);
                }
            }
        }
        for u in 6..12u32 {
            for v in 6..12u32 {
                if u != v {
                    g.add_edge(u, v, 4);
                }
            }
        }
        let mut im = InfluenceMaximizer::new(1024);
        let mut rng = SmallRng::seed_from_u64(2);
        let sel = im.run(&mut g, 3000, 1, &mut rng);
        let fwd = forward_influence(&mut g, &sel.seeds, 1500);
        let rel = (sel.influence_estimate - fwd).abs() / fwd.max(1.0);
        assert!(rel < 0.15, "RIS {} vs forward {} (rel err {rel})", sel.influence_estimate, fwd);
    }

    #[test]
    fn edges_and_forward_influence_are_reproducible() {
        // Two graphs built by the same updates, churn included, list their
        // edges in the same order and so estimate the same influence.
        let build = || {
            let mut g: DynGraph = DynGraph::new(12, 8);
            for &(u, v, w) in &crate::gen::uniform_digraph(12, 60, 9, 31) {
                g.add_edge(u, v, w);
            }
            for u in 0..6u32 {
                g.remove_edge(u, (u + 1) % 12);
                g.add_edge(u, (u + 7) % 12, 5);
            }
            g
        };
        let (mut a, mut b) = (build(), build());
        let ea: Vec<_> = a.edges().collect();
        assert_eq!(ea, b.edges().collect::<Vec<_>>());
        assert_eq!(ea.len(), a.n_edges());
        assert!(ea.windows(2).all(|w| w[0].0 <= w[1].0), "edges() must run by source node");
        let fa = forward_influence(&mut a, &[0, 5], 200);
        assert_eq!(fa, forward_influence(&mut b, &[0, 5], 200));
    }

    #[test]
    fn refresh_for_node_touches_only_affected_sets() {
        // Two disconnected stars: updating an edge into node 1 (component A)
        // must not regenerate RR sets living entirely in component B.
        let mut g: DynGraph = DynGraph::new(8, 20);
        g.add_edge(0, 1, 5);
        g.add_edge(4, 5, 5);
        let mut im = InfluenceMaximizer::new(16);
        let mut rng = SmallRng::seed_from_u64(21);
        im.ensure_rr_sets(&mut g, 400, &mut rng);
        let contains_1 = im.rr_sets.iter().filter(|rr| rr.contains(&1)).count();
        g.add_edge(2, 1, 50); // new in-edge at node 1
        let refreshed = im.refresh_for_node(&mut g, 1);
        assert_eq!(refreshed, contains_1);
        assert_eq!(im.n_rr_sets(), 400, "pool size preserved");
    }

    #[test]
    fn refresh_bias_is_directional_and_bounded() {
        // The documented bias: after refresh_for_node(v), v-containing sets
        // are under-represented (fraction q² instead of q), so the mean RR
        // size sits *below* the fully regenerated pool's — but within the
        // O(q(1−q)) envelope, not wildly off.
        let mut g1 = DynGraph::new(10, 22);
        let mut g2 = DynGraph::new(10, 22);
        for g in [&mut g1, &mut g2] {
            for v in 1..10u32 {
                g.add_edge(v - 1, v, 4);
                g.add_edge(v, v - 1, 4);
            }
        }
        let mut rng = SmallRng::seed_from_u64(23);
        let mut inc = InfluenceMaximizer::new(64);
        inc.ensure_rr_sets(&mut g1, 4000, &mut rng);
        // Update: heavy new in-edge at node 5 in both graphs.
        g1.add_edge(0, 5, 100);
        g2.add_edge(0, 5, 100);
        inc.refresh_for_node(&mut g1, 5);
        let mut full = InfluenceMaximizer::new(64);
        full.ensure_rr_sets(&mut g2, 4000, &mut rng);
        let mean_inc = inc.total_rr_nodes() as f64 / inc.n_rr_sets() as f64;
        let mean_full = full.total_rr_nodes() as f64 / full.n_rr_sets() as f64;
        assert!(
            mean_inc < mean_full + 0.1,
            "bias direction: incremental {mean_inc} must not exceed full {mean_full}"
        );
        assert!(
            (mean_full - mean_inc) < 1.0,
            "bias magnitude out of envelope: {mean_inc} vs {mean_full}"
        );
    }

    #[test]
    fn invalidate_after_update_changes_selection() {
        // Start: hub 0. After rewiring to hub 5, a fresh run must pick 5.
        let mut g: DynGraph = DynGraph::new(8, 9);
        for v in 1..8u32 {
            g.add_edge(0, v, 5);
        }
        let mut im = InfluenceMaximizer::new(64);
        let mut rng = SmallRng::seed_from_u64(3);
        let s1 = im.run(&mut g, 150, 1, &mut rng);
        assert_eq!(s1.seeds, vec![0]);
        for v in 1..8u32 {
            g.remove_edge(0, v);
        }
        for v in 0..8u32 {
            if v != 5 {
                g.add_edge(5, v, 5);
            }
        }
        im.invalidate();
        assert_eq!(im.n_rr_sets(), 0);
        let s2 = im.run(&mut g, 150, 1, &mut rng);
        assert_eq!(s2.seeds, vec![5]);
    }
}
