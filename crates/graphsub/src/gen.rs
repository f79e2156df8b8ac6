//! Synthetic graph generators for the application experiments (E9/E10).

// HashSet sanctioned: the generators only test membership in it; edges are
// emitted in the order the seeded RNG proposes them.
#![allow(clippy::disallowed_types)]

use crate::graph::{DynGraph, NaiveDynGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform random digraph: `m` distinct edges, weights in `[1, w_max]`.
pub fn uniform_digraph(n: usize, m: usize, w_max: u64, seed: u64) -> Vec<(NodeId, NodeId, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && seen.insert((u, v)) {
            edges.push((u, v, rng.gen_range(1..=w_max)));
        }
    }
    edges
}

/// Power-law-ish digraph via preferential target selection: up to `m`
/// edges whose targets are drawn proportional to current in-degree + 1.
pub fn power_law_digraph(n: usize, m: usize, w_max: u64, seed: u64) -> Vec<(NodeId, NodeId, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut targets: Vec<NodeId> = (0..n as u32).collect(); // degree-biased pool
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::with_capacity(m);
    let mut attempts = 0usize;
    while edges.len() < m && attempts < m * 20 {
        attempts += 1;
        let u = rng.gen_range(0..n as u32);
        let v = targets[rng.gen_range(0..targets.len())];
        if u != v && seen.insert((u, v)) {
            edges.push((u, v, rng.gen_range(1..=w_max)));
            targets.push(v); // preferential attachment
        }
    }
    edges
}

/// Planted two-community digraph: nodes `0..n/2` and `n/2..n`; an ordered
/// pair within a community gets an edge with probability `p_in_permille`,
/// across communities with `p_out_permille`. Intra-community edges carry
/// weight `w_in`, bridges carry `w_out`. The E10 clustering workload.
pub fn two_community_digraph(
    n: usize,
    p_in_permille: u32,
    p_out_permille: u32,
    w_in: u64,
    w_out: u64,
    seed: u64,
) -> Vec<(NodeId, NodeId, u64)> {
    assert!(n >= 4 && n.is_multiple_of(2), "need an even node count >= 4");
    let mut rng = SmallRng::seed_from_u64(seed);
    let half = (n / 2) as u32;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u == v {
                continue;
            }
            let same = (u < half) == (v < half);
            let (p, w) = if same { (p_in_permille, w_in) } else { (p_out_permille, w_out) };
            if rng.gen_range(0u32..1000) < p {
                edges.push((u, v, w));
            }
        }
    }
    edges
}

/// Bidirectional ring lattice: every node connects to its `k` nearest
/// neighbors on each side with unit weight. A deterministic, well-understood
/// workload for propagation tests.
pub fn ring_lattice(n: usize, k: usize) -> Vec<(NodeId, NodeId, u64)> {
    assert!(n > 2 * k, "ring too small for k = {k}");
    let mut edges = Vec::with_capacity(2 * n * k);
    for u in 0..n as u32 {
        for d in 1..=k as u32 {
            let v = (u + d) % n as u32;
            edges.push((u, v, 1));
            edges.push((v, u, 1));
        }
    }
    edges
}

/// Loads edges into a [`DynGraph`].
pub fn build_dpss_graph(n: usize, edges: &[(NodeId, NodeId, u64)], seed: u64) -> DynGraph {
    let mut g: DynGraph = DynGraph::new(n, seed);
    for &(u, v, w) in edges {
        g.add_edge(u, v, w);
    }
    g
}

/// Loads edges into a [`NaiveDynGraph`].
pub fn build_naive_graph(n: usize, edges: &[(NodeId, NodeId, u64)], seed: u64) -> NaiveDynGraph {
    let mut g = NaiveDynGraph::new(n, seed);
    for &(u, v, w) in edges {
        g.add_edge(u, v, w);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_shapes() {
        let e1 = uniform_digraph(50, 200, 9, 11);
        assert_eq!(e1.len(), 200);
        assert!(e1.iter().all(|&(u, v, w)| u != v && (1..=9).contains(&w)));
        let e2 = power_law_digraph(50, 200, 9, 12);
        assert!(e2.len() >= 150, "power-law generator fell far short");
        let mut deg = [0u32; 50];
        for &(_, v, _) in &e2 {
            deg[v as usize] += 1;
        }
        assert!(*deg.iter().max().unwrap() >= 8, "no hub emerged");
    }

    #[test]
    fn two_community_statistics() {
        let n = 60;
        let edges = two_community_digraph(n, 400, 20, 8, 1, 14);
        let half = (n / 2) as u32;
        let (mut within, mut across) = (0usize, 0usize);
        for &(u, v, w) in &edges {
            if (u < half) == (v < half) {
                within += 1;
                assert_eq!(w, 8);
            } else {
                across += 1;
                assert_eq!(w, 1);
            }
        }
        assert!(within > 5 * across, "within {within} across {across}");
    }

    #[test]
    fn ring_lattice_degrees_are_uniform() {
        let n = 20;
        let edges = ring_lattice(n, 2);
        assert_eq!(edges.len(), 2 * n * 2);
        let g = build_dpss_graph(n, &edges, 15);
        for u in 0..n as u32 {
            assert_eq!(g.out_degree(u), 4, "node {u}");
            assert_eq!(g.in_degree(u), 4, "node {u}");
        }
    }

    #[test]
    fn builders_agree_on_edge_counts() {
        let edges = uniform_digraph(30, 120, 50, 9);
        let a = build_dpss_graph(30, &edges, 10);
        let b = build_naive_graph(30, &edges, 10);
        assert_eq!(a.n_edges(), b.n_edges());
        assert_eq!(a.n_edges(), 120);
    }
}
