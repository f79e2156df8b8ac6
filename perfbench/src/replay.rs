//! Algorithm 1 replayed on a `Level1` mirror through the `dpss::query`
//! functions, so each level of the query hierarchy gets its own span.
//!
//! The replay repeats `DpssSampler::query_in` step for step: the same
//! per-`(α, β)` plan cache (capacity, FIFO eviction and invalidation on a
//! change of `(Σw, n⁺)`), the same calls in the same order, and the same
//! random stream when driven by a context seeded like the sampler's. It
//! therefore returns the same items, which the traced runs check.

use crate::trace::{Kind, SpanId, Tracer};
use bignum::BigUint;
use dpss::lookup::LookupTable;
use dpss::query::{
    extract_items, query_certain, query_final, query_insignificant, thresholds, QueryAccel,
    QueryFrame, Thresholds,
};
use dpss::structure::{Level1, NodeView};
use dpss::{DpssSampler, FinalLevelMode, ItemId, Ratio};
use pss_core::{ChangeJournal, CtxRng, Handle, PssBackend, QueryCtx, Replay as Catchup};
use wordram::BitsetList;

/// Plan-cache capacity of `DpssSampler` (its `PLAN_CACHE`).
const PLAN_CACHE: usize = 32;

#[derive(Debug)]
struct Plan {
    alpha: Ratio,
    beta: Ratio,
    w: Ratio,
    accel: QueryAccel,
    th: Thresholds,
    p0: Ratio,
    valid: bool,
}

#[derive(Debug)]
pub struct Replay {
    pub level1: Level1,
    table: LookupTable,
    plans: Vec<Plan>,
    snapshot: (u128, usize),
    /// Significant groups visited at levels 1 and 2, over all queries.
    pub sig_groups: u64,
}

/// `(g₁, g₂)` for a structure sized for `n` items, as `DpssSampler` derives
/// them (`n₀ = max(n, 16)`).
pub fn widths(n: usize) -> (u32, u32) {
    let ceil_log2 = |x: u64| 64 - (x - 1).leading_zeros();
    let g1 = ceil_log2(n.max(16) as u64).max(2);
    (g1, ceil_log2(g1 as u64).max(2))
}

/// The non-empty significant groups of a level (the sampler's private
/// `for_significant_groups`).
fn significant_groups(groups: &BitsetList, th: &Thresholds) -> Vec<usize> {
    let lo = (th.j_insig_max + 1).max(0) as usize;
    if groups.universe() == 0 || th.j_cert_min <= lo as i64 {
        return Vec::new();
    }
    let hi = ((th.j_cert_min - 1) as usize).min(groups.universe() - 1);
    groups.range(lo, hi).collect()
}

impl Replay {
    /// A mirror of `DpssSampler::from_weights(weights, _)`.
    pub fn from_weights(weights: &[u64]) -> (Self, Vec<ItemId>) {
        let (g1, g2) = widths(weights.len());
        let mut level1 = Level1::new(g1, g2);
        let ids = level1.insert_many(weights);
        let snapshot = (level1.total_weight, level1.n_positive);
        let replay = Replay {
            level1,
            table: LookupTable::new(g2),
            plans: Vec::new(),
            snapshot,
            sig_groups: 0,
        };
        (replay, ids)
    }

    /// The index of the valid plan for `(α, β)`, building or refreshing it
    /// inside a `plan_build` span when the sampler would.
    fn plan(&mut self, tr: &mut Tracer, parent: SpanId, alpha: &Ratio, beta: &Ratio) -> usize {
        let now = (self.level1.total_weight, self.level1.n_positive);
        if now != self.snapshot {
            self.plans.iter_mut().for_each(|p| p.valid = false);
            self.snapshot = now;
        }
        let found = self.plans.iter().position(|p| p.alpha == *alpha && p.beta == *beta);
        if let Some(i) = found.filter(|&i| self.plans[i].valid) {
            return i;
        }
        let l1 = &self.level1;
        let (plan, _) = tr.span(Kind::SamplerPlanBuild, Some(parent), |_, _| {
            let w = alpha.mul_big(&BigUint::from_u128(l1.total_weight)).add(beta);
            let n = l1.n_positive.max(1);
            let th = thresholds(&w, n, l1.group_width);
            let p0 = Ratio::from_u128s(1, (n as u128) * (n as u128));
            let accel = QueryAccel::new(&w, true);
            Plan { alpha: alpha.clone(), beta: beta.clone(), w, accel, th, p0, valid: true }
        });
        match found {
            Some(i) => {
                self.plans[i] = plan;
                i
            }
            None => {
                if self.plans.len() >= PLAN_CACHE {
                    self.plans.remove(0);
                }
                self.plans.push(plan);
                self.plans.len() - 1
            }
        }
    }

    /// One PSS query, spans under `parent`; `rng` must be the stream the
    /// mirrored `query_in` draws from.
    pub fn query(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        rng: &mut CtxRng,
        alpha: &Ratio,
        beta: &Ratio,
    ) -> Vec<ItemId> {
        let i = self.plan(tr, parent, alpha, beta);
        let plan = &self.plans[i];
        let l1 = &self.level1;
        let mut frame = QueryFrame {
            rng,
            w: &plan.w,
            accel: plan.accel,
            table: &mut self.table,
            final_mode: FinalLevelMode::Lookup,
        };
        let mut groups = 0u64;
        let (out, _) = tr.span(Kind::QueryLevel1, Some(parent), |tr, s1| {
            if l1.n_positive == 0 {
                return Vec::new();
            }
            let f = &mut frame;
            let mut out =
                query_insignificant(l1, f.rng, f.w, &f.accel, plan.th.i_insig_top, &plan.p0);
            out.extend(query_certain(l1, plan.th.i_cert_bottom));
            let sig = significant_groups(&l1.nonempty_groups, &plan.th);
            groups += sig.len() as u64;
            for j in sig {
                let child = l1.child_view(j).expect("non-empty group without child");
                let (ty, _) = tr.span(Kind::QueryLevel2, Some(s1), |tr, s2| {
                    query_node(tr, s2, &child, f, &mut groups)
                });
                let (items, _) = tr.span(Kind::QueryExtract, Some(s1), |_, _| {
                    extract_items(l1, f.rng, f.w, &f.accel, &ty)
                });
                out.extend(items);
            }
            out
        });
        self.sig_groups += groups;
        out
    }
}

/// The layers below `PssBackend::query` on a HALT sampler, each driven on
/// a mirror built from the same weights: `query_in` on a second sampler,
/// `ChangeJournal::catch_up` on a journal fed the same deltas, and the
/// Algorithm 1 replay on a `Level1`, with contexts seeded like the
/// facade's. Each layer gets its own copy, so that no call finds the cache
/// warmed by the call before it on the same data.
#[derive(Debug)]
pub struct QueryMirror {
    pub s2: DpssSampler,
    pub replay: Replay,
    pub journal: ChangeJournal,
    ctx_b: QueryCtx,
    ctx_c: QueryCtx,
    seen: u64,
    pub queries: u64,
    pub deltas: u64,
}

impl QueryMirror {
    pub fn new(weights: &[u64], sampler_seed: u64, ctx_seed: u64) -> Self {
        let journal = ChangeJournal::new();
        QueryMirror {
            s2: DpssSampler::from_weights(weights, sampler_seed).0,
            replay: Replay::from_weights(weights).0,
            seen: journal.epoch(),
            journal,
            ctx_b: QueryCtx::new(ctx_seed),
            ctx_c: QueryCtx::new(ctx_seed),
            queries: 0,
            deltas: 0,
        }
    }

    /// One traced query: `PssBackend::query` on `s` with `ctx`, then the
    /// layers below on the mirrors (or the mirrors first, when
    /// `bottom_up`). Returns the facade's output and span, and whether
    /// every layer returned the same items.
    pub fn query(
        &mut self,
        tr: &mut Tracer,
        bottom_up: bool,
        (s, ctx): (&DpssSampler, &mut QueryCtx),
        alpha: &Ratio,
        beta: &Ratio,
    ) -> (Vec<Handle>, SpanId, bool) {
        let ((a, f), (b, c, q)) = tr.ordered(
            bottom_up,
            |tr| tr.span(Kind::FacadeQuery, None, |_, _| PssBackend::query(s, ctx, alpha, beta)),
            |tr| {
                let (b, q) = tr.span(Kind::SamplerQueryIn, None, |_, _| {
                    self.s2.query_in(&mut self.ctx_b, alpha, beta)
                });
                let (journal, seen) = (&self.journal, &mut self.seen);
                let (d, _) = tr.span(Kind::JournalCatchUp, Some(q), |_, _| {
                    let d = match journal.catch_up(*seen) {
                        Catchup::Deltas(d) => d.len(),
                        _ => 0,
                    };
                    *seen = journal.epoch();
                    d
                });
                self.deltas += d as u64;
                let c = self.replay.query(tr, q, self.ctx_c.rng(), alpha, beta);
                (b, c, q)
            },
        );
        tr.set_parent(q, f);
        self.queries += 1;
        let same = a.iter().map(|h| h.raw()).eq(b.iter().map(|id| id.raw())) && b == c;
        (a, f, same)
    }
}

/// `dpss::query::query_node` with its level-3 calls and its extraction in
/// spans of their own.
fn query_node(
    tr: &mut Tracer,
    parent: SpanId,
    view: &NodeView<'_>,
    f: &mut QueryFrame<'_, CtxRng>,
    groups: &mut u64,
) -> Vec<u16> {
    let n = view.node.n_members;
    if n == 0 {
        return Vec::new();
    }
    let th = thresholds(f.w, n, view.node.group_width);
    let p0 = Ratio::from_u128s(1, (n as u128) * (n as u128));
    let mut out = query_insignificant(view, f.rng, f.w, &f.accel, th.i_insig_top, &p0);
    out.extend(query_certain(view, th.i_cert_bottom));
    let sig = significant_groups(&view.node.nonempty_groups, &th);
    *groups += sig.len() as u64;
    for l in sig {
        let child = view.child(l).expect("non-empty group without child");
        let (tz, _) = tr.span(Kind::QueryLevel3, Some(parent), |_, _| query_final(&child, f));
        let (items, _) = tr.span(Kind::QueryExtract, Some(parent), |_, _| {
            extract_items(view, f.rng, f.w, &f.accel, &tz)
        });
        out.extend(items);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpss::DpssSampler;
    use pss_core::QueryCtx;

    #[test]
    fn replay_matches_query_in_item_for_item() {
        let weights: Vec<u64> = (0..4096u64).map(|i| 1 + (i * 2_654_435_761) % (1 << 30)).collect();
        let (s, _) = DpssSampler::from_weights(&weights, 1);
        let (mut r, _) = Replay::from_weights(&weights);
        let (mut a, mut b) = (QueryCtx::new(9), QueryCtx::new(9));
        let mut tr = Tracer::new();
        let total = s.total_weight();
        for (k, mu) in [1u128, 4, 16, 64, 256].iter().cycle().take(60).enumerate() {
            let alpha = Ratio::from_u64s(1, 2);
            let beta = Ratio::from_u128s(total / (2 * mu) + k as u128 % 3, 1);
            let want = s.query_in(&mut a, &alpha, &beta);
            let (_, q) = tr.span(Kind::SamplerQueryIn, None, |_, _| ());
            let got = r.query(&mut tr, q, b.rng(), &alpha, &beta);
            tr.end_op();
            assert_eq!(want, got, "query {k}");
        }
        assert!(tr.totals[Kind::QueryLevel2 as usize].calls > 0);
        // 15 distinct (α, β) keys: one plan build each, then cache hits.
        assert_eq!(tr.totals[Kind::SamplerPlanBuild as usize].calls, 15);
        assert_eq!(s.plan_cache_stats_in(&a), (45, 15, 0));
    }
}
