//! Bit-identity of the radix-partitioned bulk build against the per-item
//! insert loop, on both HALT backends.
//!
//! The bulk build (`from_weights` / `insert_many`) classifies a whole batch
//! by `⌊log₂ w⌋` in one pass, carves every level-1 bucket at its final size,
//! fills them linearly, and derives the level-2/3 proxy hierarchy per class —
//! instead of running n incremental update cascades. The contract this suite
//! pins is that the shortcut is *structurally invisible*: same handles, same
//! bucket contents in the same canonical order at every level (queries are
//! position-sensitive stride walks, so order equality is what makes the next
//! assertion meaningful), and therefore the same samples from the same
//! `QueryCtx` seed — including after a forced growth rebuild and after a
//! shrink-compaction rebuild, both of which are themselves partitions now.
//!
//! What is *not* compared: node counts and space. The per-item loop "keeps
//! warm" level-3 nodes that a proxy transit allocated and later emptied;
//! the bulk derive never visits those. Queries cannot observe them (the
//! bitset-driven traversal skips empty groups), so they are layout slack,
//! not structure.
//!
//! The per-item oracle is `insert_many_per_op` (cargo feature
//! `per-op-reference`, enabled by this crate): the same one-shot up-front
//! sizing, then the historical `level1.insert` loop — a plain `insert()`
//! loop would fire its own mid-batch rebuilds and measure the sizing policy,
//! not the build path.

use bignum::Ratio;
use dpss::{DeamortizedDpss, DpssSampler};
use proptest::prelude::*;
use proptest::test_runner::Config;
use pss_core::{PssBackend, QueryCtx};

/// Mixed-magnitude weights: zeros (stored, never sampled), powers of two
/// (bucket boundaries), small and mid-range values — every classifier edge.
fn weight() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        2 => (0u32..40).prop_map(|e| 1u64 << e),
        4 => 1u64..1000,
        4 => 1u64..(1 << 30),
    ]
}

/// Structure equality at the resolution queries can observe: counts, widths,
/// totals, and per-level occupancy — but not `n_nodes`/space (warm nodes).
fn assert_same_shape(a: &DpssSampler, b: &DpssSampler) {
    a.validate();
    b.validate();
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sa.n_items, sb.n_items);
    assert_eq!(sa.n_zero, sb.n_zero);
    assert_eq!(sa.total_weight, sb.total_weight);
    assert_eq!(sa.group_width_l1, sb.group_width_l1);
    assert_eq!(sa.group_width_l2, sb.group_width_l2);
    for lvl in 0..3 {
        assert_eq!(sa.levels[lvl].n_members, sb.levels[lvl].n_members, "level {lvl} members");
        assert_eq!(
            sa.levels[lvl].nonempty_buckets, sb.levels[lvl].nonempty_buckets,
            "level {lvl} buckets"
        );
        assert_eq!(
            sa.levels[lvl].nonempty_groups, sb.levels[lvl].nonempty_groups,
            "level {lvl} groups"
        );
        assert_eq!(
            sa.levels[lvl].max_bucket_len, sb.levels[lvl].max_bucket_len,
            "level {lvl} max bucket"
        );
    }
}

/// Pinned-stream equality: same `QueryCtx` seed ⇒ same samples, across a
/// spread of (α, β) hitting subsets of the bucket range. Position-sensitive:
/// any within-bucket order divergence at any level shows up here.
fn assert_same_samples(a: &DpssSampler, b: &DpssSampler, seed: u64) {
    let mut ca = QueryCtx::new(seed);
    let mut cb = QueryCtx::new(seed);
    for i in 0..12u64 {
        let alpha = Ratio::from_u64s(1, 1 + i * 3);
        let beta = if i % 3 == 0 { Ratio::from_int(i * 7) } else { Ratio::zero() };
        assert_eq!(
            a.query_in(&mut ca, &alpha, &beta),
            b.query_in(&mut cb, &alpha, &beta),
            "samples diverged at (1/{}, {})",
            1 + i * 3,
            i * 7
        );
    }
}

/// Deterministic packed-layout case: a load wide enough to populate many
/// weight classes across several level-1 groups, so the locality-packed
/// derive (one pass, each group's proxy blocks carved contiguously at their
/// final classes) runs its full multi-group walk — then bit-identity against
/// the per-op oracle, and against a snapshot round-trip (whose load
/// re-derives the hierarchy through the same packed derive).
#[test]
fn packed_layout_matches_per_op_and_snapshot_roundtrip() {
    // 4096 weights spread over classes 0..=47, plus zeros and exact powers.
    let weights: Vec<u64> = (0..4096u64)
        .map(|i| match i % 8 {
            0 => 0,
            1 => 1u64 << (i % 48),
            _ => (i * 2654435761).wrapping_mul(i | 1) % (1u64 << (8 + i % 40)) + 1,
        })
        .collect();
    let (a, ids_a) = DpssSampler::from_weights(&weights, 21);
    let mut b = DpssSampler::with_capacity_seed(weights.len(), 21);
    let ids_b = b.insert_many_per_op(&weights);
    assert_eq!(ids_a, ids_b, "packed bulk load must issue identical handles");
    assert_same_shape(&a, &b);
    assert_same_samples(&a, &b, 51);

    // Snapshot load rebuilds the hierarchy via the same packed derive.
    use pss_core::Snapshottable;
    let img = a.snapshot();
    let c = DpssSampler::from_snapshot(&img).expect("snapshot round-trip");
    assert_same_shape(&a, &c);
    assert_same_samples(&a, &c, 52);
}

proptest! {
    #![proptest_config(Config::with_cases(24))]

    /// Fresh load, warm second batch across a forced growth rebuild, then a
    /// churn driving both samplers through the same shrink-compaction — the
    /// bulk-built sampler must stay indistinguishable throughout.
    #[test]
    fn bulk_build_matches_per_op_reference(
        first in proptest::collection::vec(weight(), 1..400),
        second in proptest::collection::vec(weight(), 200..1200),
    ) {
        let (mut a, ids_a) = DpssSampler::from_weights(&first, 9);
        let mut b = DpssSampler::with_capacity_seed(first.len(), 9);
        let ids_b = b.insert_many_per_op(&first);
        prop_assert_eq!(&ids_a, &ids_b, "fresh load must issue identical handles");
        assert_same_shape(&a, &b);
        assert_same_samples(&a, &b, 31);

        // Second batch into warm structure; `second` is big enough relative
        // to `first` that many cases cross the growth band, so both paths
        // re-partition up front (same `reserve_for`), then diverge into bulk
        // derive vs. per-item cascade — and must land identically.
        let more_a = a.insert_many(&second);
        let more_b = b.insert_many_per_op(&second);
        prop_assert_eq!(&more_a, &more_b, "warm batch must issue identical handles");
        prop_assert_eq!(a.rebuild_count(), b.rebuild_count());
        assert_same_shape(&a, &b);
        assert_same_samples(&a, &b, 32);

        // Drain until the shrink-compaction fires (identical delete streams,
        // so it fires at the same step on both); compaction re-partitions
        // the survivors through the same carve-and-fill plan. 7/8 leaves
        // ≤ n/8 live against an n₀ ≥ n/2, safely past the shrink band.
        let all: Vec<_> = ids_a.iter().chain(&more_a).copied().collect();
        let r0 = a.rebuild_count();
        for id in all.iter().take(all.len() * 7 / 8) {
            prop_assert_eq!(a.delete(*id).is_some(), b.delete(*id).is_some());
        }
        prop_assert!(a.rebuild_count() > r0, "7/8 drain must cross the shrink band");
        prop_assert_eq!(a.rebuild_count(), b.rebuild_count());
        assert_same_shape(&a, &b);
        assert_same_samples(&a, &b, 33);
    }

    /// De-amortized HALT, in band: a settled instance taking one bulk batch
    /// must be bit-identical to a twin taking the same items one at a time
    /// (`step()` is a no-op while settled and inside the trigger band, so
    /// skipping it is not observable).
    #[test]
    fn deamortized_in_band_bulk_matches_per_item(
        base in proptest::collection::vec(weight(), 64..400),
        batch_frac in 1usize..4,
    ) {
        let mut x = DeamortizedDpss::new(17);
        let mut y = DeamortizedDpss::new(17);
        let hx = x.insert_many(&base);
        let hy = y.insert_many(&base);
        prop_assert_eq!(&hx, &hy, "identical bulk loads must issue identical handles");
        prop_assert!(!x.migrating(), "a bulk load from empty re-baselines as settled");

        // A batch of ≤ base/4 keeps n inside [2/3·base, 3/2·base].
        let batch: Vec<u64> = base.iter().copied().take(base.len() * batch_frac / 8).collect();
        let bx = x.insert_many(&batch);
        let by: Vec<_> = batch.iter().map(|&w| y.insert(w)).collect();
        prop_assert_eq!(&bx, &by, "in-band bulk must match the per-item loop");
        x.validate();
        y.validate();
        prop_assert_eq!(x.len(), y.len());
        prop_assert_eq!(x.total_weight(), y.total_weight());
        let mut cx = QueryCtx::new(41);
        let mut cy = QueryCtx::new(41);
        let (alpha, beta) = (Ratio::from_u64s(1, 5), Ratio::zero());
        prop_assert_eq!(
            PssBackend::query(&x, &mut cx, &alpha, &beta),
            PssBackend::query(&y, &mut cy, &alpha, &beta)
        );
    }

    /// De-amortized HALT, band-crossing: bulk re-baselines instead of
    /// migrating (the O(batch) batch contract). Bitwise identity with the
    /// per-item loop is explicitly *not* promised here — the loop would
    /// start a migration — so the pinned property is determinism plus full
    /// validation: two identical runs agree exactly, and every handle lives.
    #[test]
    fn deamortized_band_crossing_bulk_is_deterministic(
        base in proptest::collection::vec(weight(), 32..128),
        surge in proptest::collection::vec(weight(), 500..1500),
    ) {
        let run = |seed: u64| {
            let mut d = DeamortizedDpss::new(seed);
            let h0 = d.insert_many(&base);
            let h1 = d.insert_many(&surge);
            d.validate();
            let mut ctx = QueryCtx::new(seed ^ 0xABCD);
            let sample = PssBackend::query(&d, &mut ctx, &Ratio::from_u64s(1, 9), &Ratio::zero());
            (h0, h1, d.len(), d.total_weight(), sample)
        };
        let first_run = run(23);
        prop_assert_eq!(&run(23), &first_run, "identical runs must agree bit-for-bit");
        prop_assert_eq!(first_run.2, base.len() + surge.len());
        let expect: u128 = base.iter().chain(&surge).map(|&w| w as u128).sum();
        prop_assert_eq!(first_run.3, expect);
    }
}
