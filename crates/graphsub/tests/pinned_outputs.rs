//! Pins what the graph layer draws, bit for bit.
//!
//! A seeded 2^10-node power-law graph takes edge churn (a removal, a fresh
//! edge and a reweight) between draws; the test hashes 2,000 `rr_set`
//! outputs and 50 `randomized_push` visit maps (sorted by node). The graph
//! layer may change how it stores neighbours or marks visited nodes, but not
//! which queries it makes, in what order, or on which context: any such
//! change moves the hash.

use graphsub::{gen, randomized_push, rr_set, DynGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const N: usize = 1 << 10;

/// FNV-1a over 32-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One churn step: remove a random live edge, insert a fresh one and
/// reweight another, keeping `live` in step with the graph.
fn churn(g: &mut DynGraph, live: &mut Vec<(NodeId, NodeId)>, rng: &mut SmallRng) {
    let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
    assert!(g.remove_edge(u, v));
    loop {
        let (u, v) = (rng.gen_range(0..N as u32), rng.gen_range(0..N as u32));
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, rng.gen_range(1..=100));
            live.push((u, v));
            break;
        }
    }
    let (u, v) = live[rng.gen_range(0..live.len())];
    g.add_edge(u, v, rng.gen_range(1..=100));
}

fn pinned_hash() -> u64 {
    let edges = gen::power_law_digraph(N, 8 * N, 100, 0x5EED);
    let mut g = gen::build_dpss_graph(N, &edges, 0xD1CE);
    let mut live: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut h = Fnv::new();
    for i in 0..2000 {
        if i % 4 == 0 {
            churn(&mut g, &mut live, &mut rng);
        }
        let root = rng.gen_range(0..N as u32);
        let set = rr_set(&mut g, root, 300);
        h.word(set.len() as u64);
        set.iter().for_each(|&x| h.word(u64::from(x)));
    }
    for _ in 0..50 {
        churn(&mut g, &mut live, &mut rng);
        let seed = rng.gen_range(0..N as u32);
        let mut visits: Vec<(NodeId, u64)> =
            randomized_push(&mut g, seed, 64, 4).into_iter().collect();
        visits.sort_unstable();
        h.word(visits.len() as u64);
        for (x, c) in visits {
            h.word(u64::from(x));
            h.word(c);
        }
    }
    h.0
}

#[test]
fn rr_sets_and_push_visits_are_pinned() {
    assert_eq!(pinned_hash(), 10_714_847_459_611_466_070, "graph-layer outputs moved");
}
