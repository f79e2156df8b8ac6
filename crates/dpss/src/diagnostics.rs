//! Structure introspection and cost accounting.
//!
//! [`StructureStats`] is a full snapshot of the three-level hierarchy
//! (bucket/group occupancy per level, proxy counts, space), collected in
//! O(capacity) by [`DpssSampler::stats`]. The E4 space experiment uses it,
//! and the invariants tests assert the hierarchy's *shape* with it, not
//! just its behaviour.
//!
//! The §3 randomness-cost accounting needs no sampler hook: every query
//! draws from the caller's `QueryCtx`, whose stream counts each word it
//! emits (`QueryCtx::words_consumed`). The tests below assert the
//! O(1)-expected-randomness claims through it (queries draw O(1 + μ) words;
//! updates draw none).

use crate::sampler::DpssSampler;
use crate::structure::{Level1, NodePool, NO_NODE};
use wordram::SpaceUsage;

/// Occupancy snapshot of one hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Items (level 1) or proxy members (levels 2–3) stored at this level.
    pub n_members: usize,
    /// Non-empty buckets across all nodes of this level.
    pub nonempty_buckets: usize,
    /// Non-empty groups across all nodes of this level (0 for level 3,
    /// which has no grouping).
    pub nonempty_groups: usize,
    /// Number of `BG-Str` nodes at this level (1 for level 1).
    pub n_nodes: usize,
    /// Largest single bucket at this level.
    pub max_bucket_len: usize,
}

/// A full structural snapshot of a [`DpssSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureStats {
    /// Live items, including zero-weight ones.
    pub n_items: usize,
    /// Items with `w = 0` (stored but never sampled).
    pub n_zero: usize,
    /// Exact Σw.
    pub total_weight: u128,
    /// Level-1 group width `g₁`.
    pub group_width_l1: u32,
    /// Level-2 group width `g₂` (also the lookup-table modulus `m`).
    pub group_width_l2: u32,
    /// Per-level occupancy (index 0 = level 1). When `g₁` exceeds
    /// [`IN_PLACE_BUCKETS`] every non-empty level-k bucket has one
    /// level-(k+1) proxy, so `levels[1].n_members == levels[0].nonempty_buckets`
    /// and `levels[2].n_members == levels[1].nonempty_buckets`. Otherwise the
    /// sampler is flat and builds no nodes: `levels[1]` and `levels[2]` are
    /// all zero.
    ///
    /// [`IN_PLACE_BUCKETS`]: crate::structure::IN_PLACE_BUCKETS
    pub levels: [LevelStats; 3],
    /// Total space in words (the model's measure, not RSS).
    pub space_words: usize,
    /// Words carved by the level-1 item arena (live + parked blocks) — the
    /// piece shrink-rebuild compaction reclaims.
    pub item_arena_words: usize,
    /// Words carved by the shared proxy-bucket arena of the node pool.
    pub proxy_arena_words: usize,
    /// Residency split of the item arena: live vs parked (free-listed) vs
    /// reserved-but-uncarved words. `parked + slack` is the fragmentation
    /// the beyond-L2 bench tier tracks alongside its timing curves.
    pub item_arena_residency: wordram::ArenaResidency,
    /// Residency split of the shared proxy-bucket arena.
    pub proxy_arena_residency: wordram::ArenaResidency,
}

impl StructureStats {
    /// Space per item in words — the E4 "O(n) space" ratio. Uses
    /// `max(n_items, 1)` so empty samplers report their fixed overhead.
    pub fn words_per_item(&self) -> f64 {
        self.space_words as f64 / self.n_items.max(1) as f64
    }
}

/// Accumulates one pooled node's occupancy into `stats`, recursing to
/// children.
fn collect_node(pool: &NodePool, idx: u32, l2: &mut LevelStats, l3: &mut LevelStats) {
    let node = pool.node(idx);
    let stats = if node.level == 2 { &mut *l2 } else { &mut *l3 };
    stats.n_nodes += 1;
    stats.n_members += node.n_members;
    stats.nonempty_buckets += node.nonempty_buckets.len();
    stats.nonempty_groups += node.nonempty_groups.len();
    for b in node.nonempty_buckets.iter() {
        stats.max_bucket_len = stats.max_bucket_len.max(node.buckets.len_of(b));
    }
    for &child in &node.children {
        if child != NO_NODE {
            collect_node(pool, child, l2, l3);
        }
    }
}

fn collect_level1(l1: &Level1) -> [LevelStats; 3] {
    let mut s1 = LevelStats { n_nodes: 1, ..Default::default() };
    s1.n_members = l1.n_positive;
    s1.nonempty_buckets = l1.nonempty_buckets.len();
    s1.nonempty_groups = l1.nonempty_groups.len();
    for b in l1.nonempty_buckets.iter() {
        s1.max_bucket_len = s1.max_bucket_len.max(l1.buckets().len_of(b));
    }
    let mut s2 = LevelStats::default();
    let mut s3 = LevelStats::default();
    for &child in &l1.children {
        if child != NO_NODE {
            collect_node(&l1.pool, child, &mut s2, &mut s3);
        }
    }
    [s1, s2, s3]
}

impl DpssSampler {
    /// The level-1 structure, read-only: the item buckets, their non-empty
    /// bucket and group bitsets, and the node pool below them.
    pub fn level1(&self) -> &Level1 {
        &self.level1
    }

    /// Collects a full structural snapshot in O(capacity).
    pub fn stats(&self) -> StructureStats {
        StructureStats {
            n_items: self.len(),
            n_zero: self.level1.n_zero,
            total_weight: self.level1.total_weight,
            group_width_l1: self.level1.group_width,
            group_width_l2: self.level1.l2_group_width,
            levels: collect_level1(&self.level1),
            space_words: self.space_words(),
            item_arena_words: self.level1.item_arena.space_words(),
            proxy_arena_words: self.level1.pool.arena.space_words(),
            item_arena_residency: self.level1.item_arena.residency(),
            proxy_arena_residency: self.level1.pool.arena.residency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::Ratio;
    use pss_core::QueryCtx;

    #[test]
    fn equal_weights_occupy_one_bucket() {
        let (s, _) = DpssSampler::from_weights(&[8; 100], 1);
        let st = s.stats();
        assert_eq!(st.n_items, 100);
        assert_eq!(st.levels[0].nonempty_buckets, 1);
        assert_eq!(st.levels[0].nonempty_groups, 1);
        assert_eq!(st.levels[0].max_bucket_len, 100);
        // One level-1 bucket ⇒ one level-2 proxy ⇒ one level-3 proxy.
        assert_eq!(st.levels[1].n_members, 1);
        assert_eq!(st.levels[2].n_members, 1);
    }

    #[test]
    fn power_weights_spread_buckets() {
        let weights: Vec<u64> = (0..32).map(|e| 1u64 << e).collect();
        let (s, _) = DpssSampler::from_weights(&weights, 2);
        let st = s.stats();
        assert_eq!(st.levels[0].nonempty_buckets, 32);
        assert_eq!(st.levels[0].max_bucket_len, 1);
        // Every non-empty level-1 bucket has exactly one level-2 proxy.
        assert_eq!(st.levels[1].n_members, 32);
    }

    #[test]
    fn proxy_counts_match_bucket_counts() {
        // Structural identity: level-(k+1) members == non-empty level-k buckets.
        let weights: Vec<u64> = (1..200u64).map(|i| i.wrapping_mul(0x9E3779B9) | 1).collect();
        let (s, _) = DpssSampler::from_weights(&weights, 3);
        let st = s.stats();
        assert_eq!(st.levels[1].n_members, st.levels[0].nonempty_buckets);
        assert_eq!(st.levels[2].n_members, st.levels[1].nonempty_buckets);
        assert_eq!(st.levels[0].n_members, 199);
    }

    #[test]
    fn zero_weight_items_counted_but_not_bucketed() {
        let (s, _) = DpssSampler::from_weights(&[0, 0, 5], 4);
        let st = s.stats();
        assert_eq!(st.n_items, 3);
        assert_eq!(st.n_zero, 2);
        assert_eq!(st.levels[0].n_members, 1);
    }

    #[test]
    fn stats_track_updates() {
        let mut s = DpssSampler::new(5);
        let a = s.insert(7);
        let _b = s.insert(1 << 20);
        let st = s.stats();
        assert_eq!(st.levels[0].nonempty_buckets, 2);
        s.delete(a);
        let st = s.stats();
        assert_eq!(st.levels[0].nonempty_buckets, 1);
        assert_eq!(st.total_weight, 1 << 20);
    }

    #[test]
    fn words_per_item_bounded() {
        // Small n is dominated by the fixed hierarchy overhead (empty bucket
        // vectors, bitsets); the per-item ratio must flatten as n grows.
        let ratio_at = |n: usize| {
            let weights: Vec<u64> = (0..n as u64).map(|i| i * 37 + 1).collect();
            let (s, _) = DpssSampler::from_weights(&weights, 6);
            s.stats().words_per_item()
        };
        let small = ratio_at(100);
        let large = ratio_at(10_000);
        assert!(small < 256.0, "n=100: {small} words/item");
        assert!(large < 32.0, "n=10000: {large} words/item");
        assert!(large < small, "ratio must shrink as fixed overhead amortizes");
    }

    #[test]
    fn counting_sampler_updates_draw_no_randomness() {
        let mut s = DpssSampler::new(7);
        let mut ctx = QueryCtx::new(7);
        let first = s.insert(1);
        let _ = s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero());
        let drawn = ctx.words_consumed();
        let ids: Vec<_> = (2..100u64).map(|w| s.insert(w)).collect();
        for id in ids {
            s.delete(id);
        }
        assert_eq!(ctx.words_consumed(), drawn, "updates must not consume randomness");
        assert_eq!(s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()), vec![first]);
    }

    #[test]
    fn counting_sampler_query_words_scale_with_output() {
        let mut s = DpssSampler::new(8);
        let mut ctx = QueryCtx::new(8);
        for _ in 0..4096 {
            s.insert(1024);
        }
        // μ ≈ 1 queries: words per query should be modest and flat.
        ctx.reset_word_count();
        let q = 200u64;
        for _ in 0..q {
            let _ = s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero());
        }
        let per_query_small = ctx.words_consumed() as f64 / q as f64;
        // μ ≈ 512: words grow with μ, not with n.
        ctx.reset_word_count();
        for _ in 0..q {
            let _ = s.query_in(&mut ctx, &Ratio::from_u64s(1, 512), &Ratio::zero());
        }
        let per_query_large = ctx.words_consumed() as f64 / q as f64;
        assert!(
            per_query_large > 8.0 * per_query_small,
            "output-sensitivity: μ=1 → {per_query_small} words, μ=512 → {per_query_large}"
        );
        assert!(per_query_small < 200.0, "μ≈1 query used {per_query_small} words");
    }
}
