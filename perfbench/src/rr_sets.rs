//! `rr_sets`: reverse-reachable sets (the paper's Appendix A.1) on a
//! power-law digraph with 2^15 nodes and 2^18 edges of weight 1..=100,
//! built through `DynGraph::add_edge`. One op is one `graphsub::rr_set`
//! from a seeded root (cap 2000); every 16 sets one edge is removed and one
//! new edge inserted.

use crate::gen::{power_law_digraph, splitmix, Edge, Rng};
use crate::harness::{
    peak_rss_mb, report_layers, run_phase, setup_median, timed, Config, LayerExtras, Phase, Report,
    FAST_END_OF_LONG_WINDOWS,
};
use crate::trace::{Kind, SpanId, Tracer};
use dpss::{DpssSampler, Ratio};
use graphsub::{rr_set, DynGraph};
use pss_core::{Handle, PssBackend, QueryCtx, Replay as Catchup, SeedableBackend, SpaceUsage};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

const NODES: usize = 1 << 15;
const EDGES: usize = 1 << 18;
const W_EDGE_MAX: u64 = 100;
const CAP: usize = 2000;
const CHURN_EVERY: u64 = 16;
const SETUP_REPS: usize = 5;

/// The seeds `DynGraph::new(_, seed)` gives node `i`'s in-sampler and its
/// query context, so mirrors of a node sample exactly as the node does.
fn node_seeds(graph_seed: u64, i: usize) -> (u64, u64) {
    let s = graph_seed.wrapping_add(i as u64 * 2_654_435_761);
    (s, s ^ 0x6A09_E667_F3BC_C909)
}

fn build(edges: &[Edge], seed: u64) -> DynGraph {
    let mut g: DynGraph = DynGraph::new(NODES, seed);
    for &(u, v, w) in edges {
        g.add_edge(u, v, w);
    }
    g
}

/// The benchmark's record of the edge set, for churn and the final check.
struct Shadow {
    live: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    in_degree: Vec<usize>,
    /// At least the largest in-degree: raised by inserts, never lowered.
    max_in_degree: usize,
}

impl Shadow {
    fn new(edges: &[Edge]) -> Self {
        let mut in_degree = vec![0; NODES];
        edges.iter().for_each(|&(_, v, _)| in_degree[v as usize] += 1);
        Shadow {
            live: edges.iter().map(|&(u, v, _)| (u, v)).collect(),
            present: edges.iter().map(|&(u, v, _)| (u, v)).collect(),
            max_in_degree: in_degree.iter().copied().max().unwrap_or(0),
            in_degree,
        }
    }

    /// Draws the next churn step: a live edge to remove and a new edge.
    fn churn(&mut self, rng: &mut Rng) -> ((u32, u32), Edge) {
        let gone = self.live.swap_remove(rng.below(self.live.len() as u64) as usize);
        self.present.remove(&gone);
        self.in_degree[gone.1 as usize] -= 1;
        let (u, v) = loop {
            let (u, v) = (rng.below(NODES as u64) as u32, rng.below(NODES as u64) as u32);
            if u != v && !self.present.contains(&(u, v)) {
                break (u, v);
            }
        };
        self.live.push((u, v));
        self.present.insert((u, v));
        self.in_degree[v as usize] += 1;
        self.max_in_degree = self.max_in_degree.max(self.in_degree[v as usize]);
        (gone, (u, v, rng.range(1, W_EDGE_MAX)))
    }

    /// An RR set from `root` holds `root` first, no node twice, and at most
    /// `CAP − 1` nodes plus the in-neighbours of the last node expanded.
    fn valid_rr(&self, root: u32, set: &[u32], buf: &mut Vec<u32>) -> bool {
        buf.clear();
        buf.extend_from_slice(set);
        buf.sort_unstable();
        set.first() == Some(&root)
            && set.len() < CAP + self.max_in_degree
            && buf.windows(2).all(|w| w[0] != w[1])
    }
}

/// Mirrors of the graph's in-samplers, driven through the facade (context
/// `a`) and through `query_in` (context `b`) with the seeds the graph uses.
struct InMirror {
    samplers: Vec<DpssSampler>,
    ctx_a: Vec<QueryCtx>,
    ctx_b: Vec<QueryCtx>,
    handle: HashMap<(u32, u32), Handle>,
    source: HashMap<(u32, u64), u32>,
    seen_epoch: Vec<u64>,
    queries: u64,
    items: u64,
    deltas: u64,
}

impl InMirror {
    fn new(graph_seed: u64) -> Self {
        let seeds: Vec<(u64, u64)> = (0..NODES).map(|i| node_seeds(graph_seed, i)).collect();
        InMirror {
            samplers: seeds.iter().map(|&(s, _)| DpssSampler::with_seed(s)).collect(),
            ctx_a: seeds.iter().map(|&(_, c)| QueryCtx::new(c)).collect(),
            ctx_b: seeds.iter().map(|&(_, c)| QueryCtx::new(c)).collect(),
            handle: HashMap::new(),
            source: HashMap::new(),
            seen_epoch: vec![0; NODES],
            queries: 0,
            items: 0,
            deltas: 0,
        }
    }

    fn insert(&mut self, tr: &mut Tracer, parent: SpanId, (u, v, w): Edge) {
        let s = &mut self.samplers[v as usize];
        let (h, _) = tr.span(Kind::FacadeUpdate, Some(parent), |_, _| PssBackend::insert(s, w));
        self.handle.insert((u, v), h);
        self.source.insert((v, h.raw()), u);
    }

    /// Returns whether the sampler held the edge.
    fn delete(&mut self, tr: &mut Tracer, parent: SpanId, (u, v): (u32, u32)) -> bool {
        let Some(h) = self.handle.remove(&(u, v)) else { return false };
        self.source.remove(&(v, h.raw()));
        let s = &mut self.samplers[v as usize];
        tr.span(Kind::FacadeUpdate, Some(parent), |_, _| PssBackend::delete(s, h)).0
    }

    /// The layers under `sample_in_neighbors(v)`: the facade query and
    /// `query_in` on node `v`'s mirror, and the journal catch-up its
    /// context performs. Returns whether both agree with `nbrs`.
    fn sample_in(&mut self, tr: &mut Tracer, parent: SpanId, v: u32, nbrs: &[u32]) -> bool {
        let (one, zero) = (Ratio::one(), Ratio::zero());
        let vi = v as usize;
        let s = &self.samplers[vi];
        let (ctx_a, ctx_b) = (&mut self.ctx_a[vi], &mut self.ctx_b[vi]);
        let (a, f) = tr
            .span(Kind::FacadeQuery, Some(parent), |_, _| PssBackend::query(s, ctx_a, &one, &zero));
        let (b, q) = tr.span(Kind::SamplerQueryIn, Some(f), |_, _| s.query_in(ctx_b, &one, &zero));
        let seen = &mut self.seen_epoch[vi];
        let (deltas, _) = tr.span(Kind::JournalCatchUp, Some(q), |_, _| {
            let d = match s.journal().catch_up(*seen) {
                Catchup::Deltas(d) => d.len(),
                _ => 0,
            };
            *seen = s.journal().epoch();
            d
        });
        self.queries += 1;
        self.items += a.len() as u64;
        self.deltas += deltas as u64;
        let mapped = a.iter().map(|h| self.source.get(&(v, h.raw())).copied());
        a.iter().map(|h| h.raw()).eq(b.iter().map(|id| id.raw()))
            && mapped.eq(nbrs.iter().map(|&u| Some(u)))
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let edges = power_law_digraph(&mut Rng::new(cfg.seed, 6), NODES, EDGES, W_EDGE_MAX);
    let graph_seed = splitmix(cfg.seed ^ 7);
    let mut shadow = Shadow::new(&edges);
    let mut roots = Rng::new(cfg.seed, 8);
    let mut churn_rng = Rng::new(cfg.seed, 9);
    let mut x = LayerExtras::default();
    let mut tr = Tracer::new();
    let mut traced = Phase::new(FAST_END_OF_LONG_WINDOWS);
    let mut buf = Vec::new();

    let (setup_s, mut g) = if cfg.trace {
        (0.0, DynGraph::new(NODES, graph_seed))
    } else {
        setup_median(SETUP_REPS, || {
            let t = Instant::now();
            let g = build(&edges, graph_seed);
            (t.elapsed(), g)
        })
    };

    if cfg.trace {
        // Set-up, traced: each `add_edge` on the graph, with the facade
        // insert into the in-sampler mirror below it. The second graph
        // replays each RR set with `sample_in_neighbors` in spans.
        let mut m = InMirror::new(graph_seed);
        tr.set_setup(true);
        for &(u, v, w) in &edges {
            let (_, a) = tr.span(Kind::GraphAddEdge, None, |_, _| g.add_edge(u, v, w));
            m.insert(&mut tr, a, (u, v, w));
            tr.end_op();
        }
        tr.set_setup(false);
        for (i, s) in m.samplers.iter().enumerate() {
            m.seen_epoch[i] = s.journal().epoch();
        }
        let mut g2 = build(&edges, graph_seed);
        run_phase(cfg.phase(), &mut traced, |i, ph| {
            if i > 0 && i % CHURN_EVERY == 0 {
                let (gone, new) = shadow.churn(&mut churn_rng);
                let (removed, a) =
                    tr.span(Kind::GraphRemoveEdge, None, |_, _| g.remove_edge(gone.0, gone.1));
                let held = m.delete(&mut tr, a, gone);
                g2.remove_edge(gone.0, gone.1);
                let (_, a) =
                    tr.span(Kind::GraphAddEdge, None, |_, _| g.add_edge(new.0, new.1, new.2));
                m.insert(&mut tr, a, new);
                g2.add_edge(new.0, new.1, new.2);
                ph.failed += u64::from(!removed);
                x.mirror_mismatches += u64::from(!held);
            }
            let root = roots.below(NODES as u64) as u32;
            let (set, rs) = tr.span(Kind::GraphRrSet, None, |_, _| rr_set(&mut g, root, CAP));
            // `rr_set`'s loop, replayed on the second graph.
            let mut activated = vec![root];
            let mut seen = HashSet::from([root]);
            let mut frontier = vec![root];
            while let Some(v) = frontier.pop() {
                if activated.len() >= CAP {
                    break;
                }
                let (nbrs, si) =
                    tr.span(Kind::GraphSampleIn, Some(rs), |_, _| g2.sample_in_neighbors(v));
                x.mirror_mismatches += u64::from(!m.sample_in(&mut tr, si, v, &nbrs));
                for u in nbrs {
                    if seen.insert(u) {
                        activated.push(u);
                        frontier.push(u);
                    }
                }
            }
            x.mirror_mismatches += u64::from(activated != set);
            ph.note(tr.dur(rs), set.len());
            tr.end_op();
        });
        let plan = m.samplers.iter().zip(&m.ctx_a).map(|(s, c)| s.plan_cache_stats_in(c));
        x.plan = plan.fold((0, 0, 0), |a, p| (a.0 + p.0, a.1 + p.1, a.2 + p.2));
        x.rebuilds = m.samplers.iter().map(|s| s.rebuild_count()).sum();
        x.deltas_per_query = m.deltas as f64 / m.queries.max(1) as f64;
        let words: u64 = m.ctx_a.iter().map(|c| c.words_consumed()).sum();
        x.words_per_query = words as f64 / m.queries.max(1) as f64;
        x.words_per_item = words as f64 / m.items.max(1) as f64;
        let space: usize = m.samplers.iter().map(|s| s.space_words()).sum();
        let items: usize = m.samplers.iter().map(|s| s.len()).sum();
        x.space_words_per_item = space as f64 / items.max(1) as f64;
    }

    let mut ph = Phase::new(FAST_END_OF_LONG_WINDOWS);
    let mut churn_failed = 0u64;
    run_phase(cfg.phase(), &mut ph, |i, ph| {
        if i > 0 && i % CHURN_EVERY == 0 {
            let (gone, (u, v, w)) = shadow.churn(&mut churn_rng);
            let removed = timed(|| g.remove_edge(gone.0, gone.1));
            let added = timed(|| g.add_edge(u, v, w));
            churn_failed += u64::from(removed.out != Some(true) || added.out.is_none());
        }
        let root = roots.below(NODES as u64) as u32;
        let t = timed(|| rr_set(&mut g, root, CAP));
        let set = t.out.as_deref().unwrap_or_default();
        let ok = shadow.valid_rr(root, set, &mut buf);
        ph.record(&t, set.len(), ok);
    });

    r.attempted = ph.ops;
    r.failed += ph.failed + traced.failed + churn_failed;
    r.check(g.n_edges() == shadow.live.len(), || {
        format!("n_edges {} != shadow {}", g.n_edges(), shadow.live.len())
    });
    if cfg.trace {
        report_layers(&mut r, &tr, &x, &ph, &traced);
    } else {
        r.metric("setup_s", setup_s, "s");
        ph.report_end_to_end(&mut r);
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    r.trace = cfg.trace.then_some(tr);
    r
}
