//! Dynamic weighted digraph substrates.
//!
//! [`DynGraph`] attaches a [`DpssSampler`] pair (in-edges / out-edges) to
//! every node, so edge updates are O(1) while every incident sampling
//! probability implicitly rescales — the DPSS property the appendix
//! applications rely on. [`NaiveDynGraph`] is the linear-scan comparator.

// HashMap sanctioned: the edge map is only ever looked up by `(u, v)`, never
// iterated, so its hasher cannot reach a sample order; `DynGraph::edges`
// walks the slot tables instead.
#![allow(clippy::disallowed_types)]

use crate::rrset::Cascade;
use dpss::{DpssSampler, Ratio};
use pss_core::{Handle, PssBackend, QueryCtx, SeedableBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Node identifier.
pub type NodeId = u32;

/// A slot-table entry whose sampler slot holds no edge.
const NO_NODE: NodeId = NodeId::MAX;

/// Per-node sampling state.
///
/// The two neighbour tables are indexed by sampler slot
/// ([`PssBackend::slot`]): entry `s` of `in_nbr` is the source of the
/// in-edge whose item sits in slot `s` of `in_sampler`, or [`NO_NODE`] when
/// that slot holds no edge. A sampled handle turns into its neighbour with
/// one array read, and the tables cost one `u32` per sampler slot — the
/// samplers recycle freed slots, so that is about one per edge.
///
/// Most nodes of a sparse graph have a few dozen edges at most, and a HALT
/// sampler that small (flat, at most `dpss::sampler::SCAN_SLOTS` slots)
/// answers a neighbourhood query by one exact coin per edge in slot order
/// rather than through its level-1 buckets, and appends the sample to the
/// graph's handle buffer. Its state in the node's context is then the
/// cached plan (`W` and its accelerators); the item buffer a level-1 query
/// fills is never allocated.
#[derive(Debug)]
struct NodeState<B> {
    /// Sampler over in-edges; item = edge, weight = A_uv.
    in_sampler: B,
    /// Sampler over out-edges.
    out_sampler: B,
    /// `in_sampler` slot → source node.
    in_nbr: Vec<NodeId>,
    /// `out_sampler` slot → target node.
    out_nbr: Vec<NodeId>,
    /// Query context for this node's two samplers. Per-node (rather than one
    /// graph-wide context) so that each sampler's plan/table state survives
    /// round-robin sampling over arbitrarily many nodes — a shared context's
    /// bounded state area would thrash above its entry cap. It also makes a
    /// node's draws independent of the order in which other nodes are
    /// queried. This persistence is also what makes edge churn cheap: at the
    /// node's next sample the context's cached read-path state revalidates
    /// against the backend's change journal instead of rebuilding. A HALT
    /// plan cache reads only the journal's version, in O(1) however many
    /// edges moved, and refreshes its one plan in place unless the sampler
    /// rebuilt; a baseline's materialization replays the deltas through
    /// `ChangeJournal::catch_up` in O(deltas touched).
    ctx: QueryCtx,
}

impl<B: SeedableBackend> NodeState<B> {
    fn new(seed: u64) -> Self {
        NodeState {
            in_sampler: B::with_seed(seed),
            out_sampler: B::with_seed(seed ^ 0x9E37_79B9_7F4A_7C15),
            in_nbr: Vec::new(),
            out_nbr: Vec::new(),
            ctx: QueryCtx::new(seed ^ 0x6A09_E667_F3BC_C909),
        }
    }
}

impl<B: PssBackend> NodeState<B> {
    /// Queries the in-sampler (`inward`) or the out-sampler through
    /// `handles` and yields the sampled neighbours, in sample order.
    fn sample<'a>(
        &'a mut self,
        inward: bool,
        (alpha, beta): &(Ratio, Ratio),
        handles: &'a mut Vec<Handle>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let (sampler, table) = if inward {
            (&self.in_sampler, &self.in_nbr)
        } else {
            (&self.out_sampler, &self.out_nbr)
        };
        handles.clear();
        sampler.query_into(&mut self.ctx, alpha, beta, handles);
        handles.iter().map(move |&h| table[sampler.slot(h)])
    }
}

/// Points entry `slot` of a neighbour table at `node`, growing the table
/// with empty entries as its sampler's slots grow.
fn link(table: &mut Vec<NodeId>, slot: usize, node: NodeId) {
    if slot >= table.len() {
        table.resize(slot + 1, NO_NODE);
    }
    table[slot] = node;
}

/// One edge's record in the edge map.
#[derive(Clone, Copy, Debug)]
struct EdgeRec {
    /// The edge's item in its source's out-sampler.
    out_item: Handle,
    /// The edge's item in its target's in-sampler.
    in_item: Handle,
    weight: u64,
}

/// The edge map's key: the ordered pair packed into one word.
fn pair(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Builds the edge map's [`PairHasher`]s, keyed from the graph's seed.
#[derive(Clone, Copy, Debug)]
struct PairHash {
    key: u64,
}

impl BuildHasher for PairHash {
    type Hasher = PairHasher;

    fn build_hasher(&self) -> PairHasher {
        PairHasher { key: self.key, h: 0 }
    }
}

/// Multiply-xorshift hash of a packed node pair: two multiplies and two
/// shifts per edge-map probe where SipHash runs its rounds. The high bits
/// (the map's control tags) and the low bits (its bucket index) both depend
/// on every key bit. The key varies placement from graph to graph; it is no
/// defence against someone who knows the seed and picks colliding pairs.
#[derive(Debug)]
struct PairHasher {
    key: u64,
    h: u64,
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = (self.h ^ x ^ self.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 32;
        z = z.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.h = z ^ (z >> 32);
    }

    fn finish(&self) -> u64 {
        self.h
    }
}

/// A dynamic directed weighted graph with O(1) edge updates and
/// output-sensitive neighborhood subset sampling at every node.
///
/// Generic over the sampling backend: any [`PssBackend`] from the workspace
/// roster works (the default is HALT, the paper's structure). The backend is
/// driven exclusively through the `pss-core` facade, so swapping in a
/// baseline — or a future sharded/batched backend — is a type parameter, not
/// a rewrite.
///
/// The state around the samplers is dense and reused:
/// - each node maps sampled handles to neighbours through slot-indexed
///   tables (see `NodeState`), not per-node hash maps;
/// - the `(u, v)` edge map hashes the packed pair with a multiply-xorshift
///   keyed from the graph's seed, not SipHash;
/// - RR sets mark visited nodes with epoch stamps (one `u32` per node,
///   bumped per set instead of cleared), and the frontier, the activation
///   list and the handle buffer the samplers write into keep their capacity
///   from call to call. [`crate::rr_set`],
///   [`DynGraph::sample_in_neighbors`] and
///   [`DynGraph::sample_out_neighbors`] allocate only the `Vec` they
///   return once the contexts they query are warm.
#[derive(Debug)]
pub struct DynGraph<B: PssBackend = DpssSampler> {
    nodes: Vec<NodeState<B>>,
    edges: HashMap<u64, EdgeRec, PairHash>,
    /// The neighbourhood queries' `(α, β) = (1, 0)`, built once: a `Ratio`
    /// holds its parts on the heap.
    params: (Ratio, Ratio),
    /// The RR loop's stamps and buffers.
    cascade: Cascade,
    /// The buffer every neighbourhood query writes its handles into.
    handles: Vec<Handle>,
}

impl<B: SeedableBackend> DynGraph<B> {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize, seed: u64) -> Self {
        DynGraph {
            nodes: (0..n)
                .map(|i| NodeState::new(seed.wrapping_add(i as u64 * 2654435761)))
                .collect(),
            edges: HashMap::with_hasher(PairHash {
                key: (seed ^ 0xBB67_AE85_84CA_A73B).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }),
            params: (Ratio::one(), Ratio::zero()),
            cascade: Cascade::new(n),
            handles: Vec::new(),
        }
    }
}

impl<B: PssBackend> DynGraph<B> {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff the edge exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains_key(&pair(u, v))
    }

    /// Weight of an edge.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<u64> {
        self.edges.get(&pair(u, v)).map(|e| e.weight)
    }

    /// Iterates over all edges as `(u, v, w)`, by source node id and then
    /// in the order of the source's out-sampler slots. The order depends
    /// only on the sequence of updates the graph has taken, so two graphs
    /// built by the same updates list their edges identically, in any
    /// process.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.nodes.iter().zip(0..).flat_map(move |(st, u)| {
            st.out_nbr
                .iter()
                .filter(|&&v| v != NO_NODE)
                .map(move |&v| (u, v, self.edges[&pair(u, v)].weight))
        })
    }

    /// Inserts (or replaces) edge `(u, v)` with weight `w ≥ 1`. O(1).
    /// Replacing an existing edge reweights it in place (`set_weight`), so
    /// its sampler items keep their handles.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u64) {
        assert!(w >= 1, "edge weights must be positive");
        assert!((u as usize) < self.nodes.len() && (v as usize) < self.nodes.len());
        if let Some(e) = self.edges.get_mut(&pair(u, v)) {
            // `set_weight` may re-issue the handle on backends without native
            // in-place reweighting; adopt whatever comes back. The old slot
            // is cleared before the new one is linked: they may coincide.
            let src = &mut self.nodes[u as usize];
            let new_out = src.out_sampler.set_weight(e.out_item, w).expect("edge desync");
            if new_out != e.out_item {
                src.out_nbr[src.out_sampler.slot(e.out_item)] = NO_NODE;
                link(&mut src.out_nbr, src.out_sampler.slot(new_out), v);
            }
            let dst = &mut self.nodes[v as usize];
            let new_in = dst.in_sampler.set_weight(e.in_item, w).expect("edge desync");
            if new_in != e.in_item {
                dst.in_nbr[dst.in_sampler.slot(e.in_item)] = NO_NODE;
                link(&mut dst.in_nbr, dst.in_sampler.slot(new_in), u);
            }
            *e = EdgeRec { out_item: new_out, in_item: new_in, weight: w };
            return;
        }
        let src = &mut self.nodes[u as usize];
        let out_item = src.out_sampler.insert(w);
        link(&mut src.out_nbr, src.out_sampler.slot(out_item), v);
        let dst = &mut self.nodes[v as usize];
        let in_item = dst.in_sampler.insert(w);
        link(&mut dst.in_nbr, dst.in_sampler.slot(in_item), u);
        self.edges.insert(pair(u, v), EdgeRec { out_item, in_item, weight: w });
    }

    /// Removes edge `(u, v)` if present. O(1).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(e) = self.edges.remove(&pair(u, v)) else {
            return false;
        };
        let src = &mut self.nodes[u as usize];
        src.out_sampler.delete(e.out_item);
        src.out_nbr[src.out_sampler.slot(e.out_item)] = NO_NODE;
        let dst = &mut self.nodes[v as usize];
        dst.in_sampler.delete(e.in_item);
        dst.in_nbr[dst.in_sampler.slot(e.in_item)] = NO_NODE;
        true
    }

    /// Samples a subset of `v`'s in-neighbors, each included independently
    /// with probability `A_uv / Σ_u A_uv` (weighted-cascade probabilities —
    /// the Appendix A.1 PSS query with `(α,β) = (1,0)`). The sampler itself
    /// is queried on `&self` through the shared-read surface; only the
    /// node's context keeps this method `&mut`.
    pub fn sample_in_neighbors(&mut self, v: NodeId) -> Vec<NodeId> {
        self.nodes[v as usize].sample(true, &self.params, &mut self.handles).collect()
    }

    /// Samples a subset of `u`'s out-neighbors, each included independently
    /// with probability `A_uv / d_out(u)` (the Appendix A.2 push probability).
    pub fn sample_out_neighbors(&mut self, u: NodeId) -> Vec<NodeId> {
        self.nodes[u as usize].sample(false, &self.params, &mut self.handles).collect()
    }

    /// The body of [`crate::rr_set`]: each activated node's in-neighbours
    /// are sampled in turn, depth first, until the frontier empties or
    /// `max_size` nodes are active.
    pub(crate) fn rr_set(&mut self, root: NodeId, max_size: usize) -> Vec<NodeId> {
        let (nodes, params, handles) = (&mut self.nodes, &self.params, &mut self.handles);
        self.cascade.rr_set(root, max_size, |v, nbrs| {
            nbrs.extend(nodes[v as usize].sample(true, params, handles));
        })
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.nodes[v as usize].in_sampler.len()
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.nodes[u as usize].out_sampler.len()
    }

    /// Total weight of `u`'s out-edges.
    pub fn out_weight(&self, u: NodeId) -> u128 {
        self.nodes[u as usize].out_sampler.total_weight()
    }

    /// Total weight of `v`'s in-edges.
    pub fn in_weight(&self, v: NodeId) -> u128 {
        self.nodes[v as usize].in_sampler.total_weight()
    }
}

/// Baseline graph with identical semantics but linear-scan sampling and
/// per-node `Vec` edge lists (the E9/E10 comparator). Its RR sets run the
/// same stamped-mark loop as [`crate::rr_set`], so E9 compares the
/// neighbourhood sampling and nothing else.
#[derive(Debug)]
pub struct NaiveDynGraph {
    in_adj: Vec<Vec<(NodeId, u64)>>,
    out_adj: Vec<Vec<(NodeId, u64)>>,
    rng: SmallRng,
    n_edges: usize,
    cascade: Cascade,
}

impl NaiveDynGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize, seed: u64) -> Self {
        NaiveDynGraph {
            in_adj: vec![Vec::new(); n],
            out_adj: vec![Vec::new(); n],
            rng: SmallRng::seed_from_u64(seed),
            n_edges: 0,
            cascade: Cascade::new(n),
        }
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Inserts (or replaces) edge `(u, v)` with weight `w ≥ 1`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u64) {
        self.remove_edge(u, v);
        self.out_adj[u as usize].push((v, w));
        self.in_adj[v as usize].push((u, w));
        self.n_edges += 1;
    }

    /// Removes edge `(u, v)` if present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let out = &mut self.out_adj[u as usize];
        let Some(i) = out.iter().position(|&(t, _)| t == v) else {
            return false;
        };
        out.swap_remove(i);
        let inn = &mut self.in_adj[v as usize];
        let j = inn.iter().position(|&(s, _)| s == u).expect("in/out desync");
        inn.swap_remove(j);
        self.n_edges -= 1;
        true
    }

    /// Linear-scan in-neighbor sampling (f64 coins; E9 baseline).
    pub fn sample_in_neighbors(&mut self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        scan_sample(&self.in_adj[v as usize], &mut self.rng, &mut out);
        out
    }

    /// Linear-scan out-neighbor sampling (f64 coins; E10 baseline).
    pub fn sample_out_neighbors(&mut self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        scan_sample(&self.out_adj[u as usize], &mut self.rng, &mut out);
        out
    }

    /// Linear-scan RR set with identical cascade semantics.
    pub fn rr_set(&mut self, root: NodeId, max_size: usize) -> Vec<NodeId> {
        let (in_adj, rng) = (&self.in_adj, &mut self.rng);
        self.cascade.rr_set(root, max_size, |v, nbrs| scan_sample(&in_adj[v as usize], rng, nbrs))
    }
}

/// One linear-scan neighbourhood sample: flips an f64 coin with probability
/// `w / Σw` per listed neighbour and appends the winners to `out`.
fn scan_sample(adj: &[(NodeId, u64)], rng: &mut SmallRng, out: &mut Vec<NodeId>) {
    let total: u128 = adj.iter().map(|&(_, w)| w as u128).sum();
    if total == 0 {
        return;
    }
    for &(x, w) in adj {
        if rng.gen::<f64>() < w as f64 / total as f64 {
            out.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randvar::stats::binomial_z;

    #[test]
    fn edge_crud() {
        let mut g: DynGraph = DynGraph::new(4, 1);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 1, 10);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.out_degree(0), 1);
        g.add_edge(0, 1, 7); // replace keeps counts consistent
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(7));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn weight_accounting() {
        let mut g: DynGraph = DynGraph::new(3, 6);
        g.add_edge(0, 2, 5);
        g.add_edge(1, 2, 7);
        assert_eq!(g.in_weight(2), 12);
        assert_eq!(g.out_weight(0), 5);
        g.remove_edge(0, 2);
        assert_eq!(g.in_weight(2), 7);
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let mut g: DynGraph = DynGraph::new(4, 13);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 3);
        g.add_edge(2, 3, 4);
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1, 2), (1, 2, 3), (2, 3, 4)]);
    }

    #[test]
    fn in_neighbor_sampling_marginals() {
        // Node 3 has in-edges with weights 1, 3, 4 → probabilities 1/8, 3/8, 1/2.
        let mut g: DynGraph = DynGraph::new(4, 2);
        g.add_edge(0, 3, 1);
        g.add_edge(1, 3, 3);
        g.add_edge(2, 3, 4);
        let trials = 30_000u64;
        let mut hits = [0u64; 3];
        for _ in 0..trials {
            for u in g.sample_in_neighbors(3) {
                hits[u as usize] += 1;
            }
        }
        for (u, p) in [(0usize, 0.125), (1, 0.375), (2, 0.5)] {
            let z = binomial_z(hits[u], trials, p);
            assert!(z.abs() < 5.0, "node {u}: z = {z}");
        }
    }

    #[test]
    fn dynamic_update_shifts_all_probabilities() {
        // Adding a heavy in-edge must reduce every other in-probability — the
        // core DPSS property.
        let mut g: DynGraph = DynGraph::new(3, 3);
        g.add_edge(0, 2, 10);
        g.add_edge(1, 2, 10);
        let trials = 20_000u64;
        let count_before: u64 = (0..trials)
            .map(|_| g.sample_in_neighbors(2).iter().filter(|&&u| u == 0).count() as u64)
            .sum();
        g.add_edge(1, 2, 80); // replaces (1,2): p of edge (0,2) drops 1/2 → 1/9
        let count_after: u64 = (0..trials)
            .map(|_| g.sample_in_neighbors(2).iter().filter(|&&u| u == 0).count() as u64)
            .sum();
        let zb = binomial_z(count_before, trials, 0.5);
        let za = binomial_z(count_after, trials, 1.0 / 9.0);
        assert!(zb.abs() < 5.0, "before: z = {zb}");
        assert!(za.abs() < 5.0, "after: z = {za}");
    }

    #[test]
    fn naive_out_sampling_marginals() {
        let mut g = NaiveDynGraph::new(3, 17);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 3);
        let trials = 30_000u64;
        let mut hits = [0u64; 3];
        for _ in 0..trials {
            for v in g.sample_out_neighbors(0) {
                hits[v as usize] += 1;
            }
        }
        assert!(binomial_z(hits[1], trials, 0.25).abs() < 5.0);
        assert!(binomial_z(hits[2], trials, 0.75).abs() < 5.0);
    }

    #[test]
    fn isolated_nodes_sample_empty() {
        let mut g: DynGraph = DynGraph::new(2, 21);
        assert!(g.sample_in_neighbors(0).is_empty());
        assert!(g.sample_out_neighbors(1).is_empty());
        let mut ng = NaiveDynGraph::new(2, 21);
        assert!(ng.sample_in_neighbors(0).is_empty());
        assert!(ng.sample_out_neighbors(1).is_empty());
    }
}
