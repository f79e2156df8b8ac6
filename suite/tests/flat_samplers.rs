//! Flat samplers: a HALT sampler whose level-1 groups are no wider than
//! `IN_PLACE_BUCKETS` (every sampler at the size floor, g₁ = 4) opens every
//! group in place at query time, so it builds no level-2/3 node at all.
//! Above the floor every non-empty group owns its level-2 child again.
//!
//! These tests drive the rule through every path that builds a hierarchy:
//! per-op growth across the grow rebuild and back across the shrink
//! rebuild, the bulk build, a snapshot round trip, and the young half of
//! the de-amortized sampler.

use bignum::Ratio;
use dpss::structure::IN_PLACE_BUCKETS;
use dpss::{DeamortizedDpss, DpssSampler, ItemId};
use pss_core::{PssBackend, QueryCtx, Snapshottable, FORMAT_VERSION, MAGIC};

/// Weights spread over many level-1 buckets, so groups hold several of
/// them.
fn weight(i: u64) -> u64 {
    let z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (z >> (i % 50)) | 1
}

/// The exact rule: flat (g₁ ≤ `IN_PLACE_BUCKETS`) ⇒ no hierarchy at all,
/// so no live node and no child link; otherwise every non-empty group has
/// its level-2 child. Returns whether the sampler is flat.
fn check_shape(s: &DpssSampler) -> bool {
    let l1 = s.level1();
    let flat = l1.group_width as usize <= IN_PLACE_BUCKETS;
    assert_eq!(l1.is_flat(), flat);
    if flat {
        assert!(
            l1.hierarchy().is_none(),
            "flat sampler (g₁ = {}) holds a hierarchy",
            l1.group_width
        );
        let st = s.stats();
        assert_eq!((st.levels[1].n_nodes, st.levels[2].n_nodes), (0, 0));
    } else {
        for j in l1.nonempty_groups.iter() {
            assert!(l1.child_view(j).is_some(), "g₁ = {}: group {j} has no child", l1.group_width);
        }
    }
    flat
}

/// A query at (α, β) = (1, 0) returns live, distinct items.
fn check_query(s: &DpssSampler, seed: u64) {
    let mut ctx = QueryCtx::new(seed);
    let out = s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero());
    assert!(out.iter().all(|&id| s.contains(id)));
    let mut sorted = out.clone();
    sorted.sort_unstable_by_key(|id| id.raw());
    sorted.dedup();
    assert_eq!(sorted.len(), out.len(), "duplicate items in a sample");
}

#[test]
fn per_op_growth_and_shrink_follow_the_rule() {
    let mut s = DpssSampler::new(1);
    let mut ids: Vec<ItemId> = Vec::new();
    assert!(check_shape(&s));
    for i in 0..40u64 {
        ids.push(s.insert(weight(i)));
        s.validate();
        let flat = check_shape(&s);
        // The size floor holds g₁ = 4 until the grow rebuild at 33 items.
        assert_eq!(flat, ids.len() <= 32, "{} items", ids.len());
        check_query(&s, i);
    }
    assert!(s.rebuild_count() >= 1, "no grow rebuild");
    assert!(!s.level1().nonempty_groups.is_empty());
    let grown = s.rebuild_count();
    while ids.len() > 3 {
        let id = ids.swap_remove(ids.len() / 2);
        assert!(s.delete(id).is_some());
        s.validate();
        check_shape(&s);
        check_query(&s, ids.len() as u64);
    }
    assert!(s.rebuild_count() > grown, "no shrink rebuild");
    assert!(check_shape(&s), "the shrink rebuild returns to the floor");
}

#[test]
fn bulk_builds_follow_the_rule() {
    let weights: Vec<u64> = (0..40).map(weight).collect();
    for n in 0..=weights.len() {
        let (s, _) = DpssSampler::from_weights(&weights[..n], 2);
        s.validate();
        // Sized for max(n, 16) items: g₁ = 4 up to 16, then 5 and 6.
        assert_eq!(check_shape(&s), n <= 16, "n = {n}");
        check_query(&s, n as u64);
    }
}

#[test]
fn snapshot_round_trip_keeps_flat_samplers_flat() {
    // The image carries the items and the sizing, not the hierarchy, so a
    // flat hierarchy changes neither the format (version 3, the version that
    // added store slot generations) nor a byte of the image.
    assert_eq!(FORMAT_VERSION, 3);
    let mut flat = DpssSampler::new(3);
    let ids: Vec<ItemId> = (0..12).map(|i| flat.insert(weight(i))).collect();
    flat.delete(ids[4]);
    let (built, _) = DpssSampler::from_weights(&(0..40).map(weight).collect::<Vec<_>>(), 3);
    for (s, want_flat) in [(&flat, true), (&built, false)] {
        let bytes = s.snapshot();
        assert_eq!(&bytes[..MAGIC.len()], MAGIC);
        assert_eq!(bytes[MAGIC.len()..MAGIC.len() + 2], FORMAT_VERSION.to_le_bytes());
        let restored = DpssSampler::from_snapshot(&bytes).expect("valid image");
        restored.validate();
        assert_eq!(check_shape(&restored), want_flat);
        assert_eq!(restored.snapshot(), bytes, "save → load → save moved a byte");
        for seed in 0..16 {
            let (a, b) = (Ratio::one(), Ratio::zero());
            let got = restored.query_in(&mut QueryCtx::new(seed), &a, &b);
            assert_eq!(got, s.query_in(&mut QueryCtx::new(seed), &a, &b), "seed {seed}");
        }
    }
}

#[test]
fn deamortized_young_half_follows_the_rule() {
    // An epoch opens a young half sized for the live count at that moment
    // (at least 16), so it is flat exactly when it opens at 16 items or
    // fewer. A bulk load of 26 items baselines the band at 26, so deleting
    // down to 16 opens a flat young half; growing back past 24 opens a
    // built one (g₁ = 5).
    let mut d = DeamortizedDpss::new(4);
    let mut handles = d.insert_many(&(0..26).map(weight).collect::<Vec<_>>());
    let mut young = Vec::new();
    let mut observe = |d: &DeamortizedDpss| {
        d.validate();
        if let Some(y) = d.young() {
            young.push((d.len(), check_shape(y)));
        }
    };
    while handles.len() > 3 {
        let h = handles.swap_remove(handles.len() / 2);
        assert!(d.delete(h));
        observe(&d);
    }
    for i in 26..64u64 {
        handles.push(d.insert(weight(i)));
        observe(&d);
    }
    assert!(young.contains(&(15, true)), "no flat young half: {young:?}");
    assert!(young.contains(&(25, false)), "no built young half: {young:?}");
}
