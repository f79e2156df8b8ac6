//! Scan samplers: a flat HALT sampler (g₁ ≤ `IN_PLACE_BUCKETS`) whose slab
//! holds at most `SCAN_SLOTS` slots answers a query by one exact
//! `Ber(min(1, w_x/W))` coin per positive item, in slot order, instead of
//! running the level-1 machinery.
//!
//! These tests check the law of that path where it differs from a plain
//! coin loop — zero-weight items, clamped items (`w ≥ W`), holes left by
//! deletes, an external total (`query_with_total_in`) and the two halves of
//! a migrating `DeamortizedDpss` — with the product-law χ² of
//! `crates/dpss/tests/joint_distribution.rs`, on the fast path and in
//! force-exact mode. They pin the path itself by its word count: off the
//! few-word sliver, a fast scan draws exactly one word per positive item
//! on every query, a count a level-1 query does not hold query after query.
//! A flat sampler whose slab outgrew the bound keeps the hierarchy, and its
//! law is checked too.

use bignum::Ratio;
use dpss::sampler::SCAN_SLOTS;
use dpss::{DeamortizedDpss, DpssSampler, ItemId};
use pss_core::{Handle, PssBackend, QueryCtx};
use randvar::stats::chi_square_test;

/// Debug builds run 10× fewer trials (the χ² test stays valid, with less
/// power); release runs the full count.
fn scaled(trials: u64) -> u64 {
    if cfg!(debug_assertions) {
        trials / 10
    } else {
        trials
    }
}

/// The product law over all 2^k subsets (bit `i` of a cell's index: item
/// `i` is in the subset) of items included independently with `probs`.
fn product_law(probs: &[f64]) -> Vec<f64> {
    let k = probs.len();
    (0..1usize << k)
        .map(|mask| {
            (0..k).map(|i| if mask >> i & 1 == 1 { probs[i] } else { 1.0 - probs[i] }).product()
        })
        .collect()
}

/// `min(1, w/W)` for each weight, as `f64`.
fn probs_under(weights: &[u64], total: f64) -> Vec<f64> {
    weights.iter().map(|&w| (w as f64 / total).min(1.0)).collect()
}

/// How often each subset of `keys` came out of `trials` runs of `query`,
/// which returns the raw keys it sampled.
fn subset_counts(keys: &[u64], trials: u64, mut query: impl FnMut() -> Vec<u64>) -> Vec<u64> {
    assert!(keys.len() <= 10);
    let mut counts = vec![0u64; 1 << keys.len()];
    for _ in 0..trials {
        let mut mask = 0usize;
        for key in query() {
            let i = keys.iter().position(|&k| k == key).expect("sampled an unknown item");
            assert_eq!(mask >> i & 1, 0, "item {i} sampled twice");
            mask |= 1 << i;
        }
        counts[mask] += 1;
    }
    counts
}

/// Asserts the counts fit the product law of `probs`.
fn assert_law(what: &str, counts: &[u64], probs: &[f64], trials: u64) {
    let fit = chi_square_test(counts, &product_law(probs), trials);
    assert!(fit.p_value > 1e-4, "{what}: rejected the exact law: {fit:?}");
}

fn raw(ids: &[ItemId]) -> Vec<u64> {
    ids.iter().map(|id| id.raw()).collect()
}

/// `true` iff the sample lists its items in increasing slot order.
fn in_slot_order(s: &DpssSampler, sample: &[ItemId]) -> bool {
    let slot = |id: &ItemId| PssBackend::slot(s, Handle::from_raw(id.raw()));
    sample.windows(2).all(|w| slot(&w[0]) < slot(&w[1]))
}

/// Checks one scan sampler at `(α, β)` over its live `ids` (`weights` in
/// the same order): the sampler scans (flat, within the slot bound, one
/// word per positive item per fast query, samples in slot order), and
/// fast and force-exact queries both fit the product law.
fn check_scan(
    s: &mut DpssSampler,
    ids: &[ItemId],
    weights: &[u64],
    (alpha, beta): (Ratio, Ratio),
    seed: u64,
) {
    assert!(s.level1().is_flat(), "fixture is not flat");
    assert!(s.level1().slab.slot_count() <= SCAN_SLOTS, "fixture is over the slot bound");
    let positive = weights.iter().filter(|&&w| w > 0).count() as u64;
    let total = s.param_weight(&alpha, &beta).to_f64_lossy();
    let probs = probs_under(weights, total);
    let trials = scaled(200_000);
    for force_exact in [false, true] {
        s.set_force_exact(force_exact);
        let mut ctx = QueryCtx::new(seed);
        let counts = subset_counts(&raw(ids), trials, || {
            let before = ctx.words_consumed();
            let got = s.query_in(&mut ctx, &alpha, &beta);
            if !force_exact {
                assert_eq!(ctx.words_consumed() - before, positive, "not one word per item");
            }
            assert!(in_slot_order(s, &got), "sample out of slot order: {got:?}");
            raw(&got)
        });
        assert_law(&format!("force_exact = {force_exact}"), &counts, &probs, trials);
    }
    s.set_force_exact(false);
}

#[test]
fn zero_weight_and_clamped_items() {
    // Σw = 1,580. At (α, β) = (1/2, 0), W = 790 and the item of weight
    // 1,000 is clamped (p = 1), still drawing its one word on the fast
    // path; the zero weights draw no word and never come back. At (1,
    // 6,000) every probability is small and most samples are empty.
    let weights = [0, 30, 60, 0, 90, 400, 1000];
    let (mut s, ids) = DpssSampler::from_weights(&weights, 1);
    check_scan(&mut s, &ids, &weights, (Ratio::from_u64s(1, 2), Ratio::zero()), 11);
    check_scan(&mut s, &ids, &weights, (Ratio::one(), Ratio::from_int(6_000)), 12);
}

#[test]
fn clamped_items_under_an_external_total() {
    // `query_with_total_in` at W = 500: the items of weight 500 and 2,000
    // have w ≥ W and must come back every time, each still drawing its
    // one word on the fast path.
    let weights = [0, 50, 125, 250, 500, 2000];
    let (mut s, ids) = DpssSampler::from_weights(&weights, 2);
    let w = Ratio::from_int(500);
    let probs = probs_under(&weights, 500.0);
    let trials = scaled(200_000);
    for force_exact in [false, true] {
        s.set_force_exact(force_exact);
        let mut ctx = QueryCtx::new(21);
        let counts = subset_counts(&raw(&ids), trials, || {
            let before = ctx.words_consumed();
            let got = s.query_with_total_in(&mut ctx, &w);
            if !force_exact {
                assert_eq!(ctx.words_consumed() - before, 5, "not one word per positive item");
            }
            assert!(in_slot_order(&s, &got));
            raw(&got)
        });
        assert_law(&format!("force_exact = {force_exact}"), &counts, &probs, trials);
    }
    // Power: fast counts reject a law in which the item of weight 250
    // (p = 1/2) comes back 5% more often.
    s.set_force_exact(false);
    let mut ctx = QueryCtx::new(22);
    let counts = subset_counts(&raw(&ids), trials, || raw(&s.query_with_total_in(&mut ctx, &w)));
    let mut biased = probs.clone();
    biased[3] *= 1.05;
    let off = chi_square_test(&counts, &product_law(&biased), trials);
    assert!(off.p_value < 1e-6, "missed a 5% bias on one item: {off:?}");
}

#[test]
fn holes_left_by_deletes() {
    // Twenty items, fourteen deleted from scattered slots and two
    // inserted into recycled ones: the scan walks the holes and draws
    // nothing for them.
    let mut s = DpssSampler::new(3);
    let ids: Vec<ItemId> = (1..=20).map(|i| s.insert(i * 7)).collect();
    let keep = [1, 4, 9, 13, 18, 19];
    for (i, &id) in ids.iter().enumerate() {
        if !keep.contains(&i) {
            s.delete(id).unwrap();
        }
    }
    let mut live: Vec<ItemId> = keep.iter().map(|&i| ids[i]).collect();
    live.push(s.insert(40));
    live.push(s.insert(0));
    assert_eq!(s.level1().slab.slot_count(), 20, "inserts must reuse holes");
    let weights: Vec<u64> = live.iter().map(|&id| s.weight(id).unwrap()).collect();
    check_scan(&mut s, &live, &weights, (Ratio::one(), Ratio::zero()), 31);
}

#[test]
fn the_largest_scan_sampler() {
    // SCAN_SLOTS positive items inserted one by one keep the floor sizing
    // (a bulk build of as many would size for them and leave the floor):
    // the largest sampler that scans. The law is checked over the first
    // eight items (each sample's other items are marginalised out).
    let weights: Vec<u64> = (0..SCAN_SLOTS as u64).map(|i| 1 + (i * 37) % 97).collect();
    let mut s = DpssSampler::new(4);
    let ids: Vec<ItemId> = weights.iter().map(|&w| s.insert(w)).collect();
    assert!(s.level1().is_flat() && s.level1().slab.slot_count() == SCAN_SLOTS);
    let (alpha, beta) = (Ratio::one(), Ratio::zero());
    let mut ctx = QueryCtx::new(41);
    let trials = scaled(200_000);
    let watched = raw(&ids[..8]);
    let counts = subset_counts(&watched, trials, || {
        let before = ctx.words_consumed();
        let got = s.query_in(&mut ctx, &alpha, &beta);
        assert_eq!(ctx.words_consumed() - before, SCAN_SLOTS as u64);
        raw(&got).into_iter().filter(|k| watched.contains(k)).collect()
    });
    let total = s.total_weight() as f64;
    assert_law("first eight of SCAN_SLOTS", &counts, &probs_under(&weights[..8], total), trials);
}

/// Fast and force-exact queries of a de-amortized sampler fit the product
/// law over the `watched` `(handle, weight)` pairs (other sampled items
/// are marginalised out); a fast query draws `words` words when that is
/// `Some`.
fn check_deamortized(
    s: &mut DeamortizedDpss,
    watched: &[(Handle, u64)],
    words: Option<u64>,
    seed: u64,
) {
    let keys: Vec<u64> = watched.iter().map(|&(h, _)| h.raw()).collect();
    let weights: Vec<u64> = watched.iter().map(|&(_, w)| w).collect();
    let probs = probs_under(&weights, s.total_weight() as f64);
    let (alpha, beta) = (Ratio::one(), Ratio::zero());
    let trials = scaled(200_000);
    for force_exact in [false, true] {
        s.set_force_exact(force_exact);
        let mut ctx = QueryCtx::new(seed);
        let counts = subset_counts(&keys, trials, || {
            let before = ctx.words_consumed();
            let got = s.query(&mut ctx, &alpha, &beta);
            if let (false, Some(words)) = (force_exact, words) {
                assert_eq!(ctx.words_consumed() - before, words, "not one word per item");
            }
            got.into_iter().map(Handle::raw).filter(|h| keys.contains(h)).collect()
        });
        assert_law(&format!("force_exact = {force_exact}"), &counts, &probs, trials);
    }
    s.set_force_exact(false);
}

#[test]
fn deamortized_sampler_at_the_floor() {
    // Ten items, one of weight 0, never leave the first half (an epoch
    // opens above 24): the whole structure is one scan sampler.
    let mut s = DeamortizedDpss::new(5);
    let live: Vec<(Handle, u64)> =
        [0, 12, 25, 37, 50, 62, 75, 87, 100, 300].into_iter().map(|w| (s.insert(w), w)).collect();
    assert!(!s.migrating());
    check_deamortized(&mut s, &live, Some(9), 51);
}

#[test]
fn both_halves_of_a_migrating_deamortized_sampler_scan() {
    // A bulk load of 26 items keeps the first half at the floor sizing
    // (26 slots) and sets the shrink trigger at 17 items. Deleting down to
    // 16 opens an epoch whose successor is sized at the floor too, and the
    // opening delete moves a few items into it. Mid-migration both halves
    // scan, each under the union's W, so a fast query draws one word per
    // live item. The watched items are the young half's and six of the old
    // half's.
    let mut s = DeamortizedDpss::new(6);
    let weights: Vec<u64> = (0..26u64).map(|i| 10 + i * 13).collect();
    let handles = s.insert_many(&weights);
    let mut live: Vec<(Handle, u64)> = handles.into_iter().zip(weights).collect();
    while !s.migrating() {
        let (h, _) = live.remove(0);
        assert!(s.delete(h));
    }
    let young = s.young().expect("migrating");
    assert!(young.level1().is_flat() && young.level1().slab.slot_count() <= SCAN_SLOTS);
    let young_weights: Vec<u64> = young.iter().map(|(_, w)| w).collect();
    let (mut watched, in_old): (Vec<_>, Vec<_>) =
        live.iter().partition(|&&(_, w)| young_weights.contains(&w));
    assert!(!watched.is_empty() && watched.len() <= 4, "young half: {watched:?}");
    assert!(in_old.len() >= 6, "old half: {in_old:?}");
    watched.extend(&in_old[..6]);
    check_deamortized(&mut s, &watched, Some(live.len() as u64), 61);
}

#[test]
fn a_flat_sampler_over_the_slot_bound_keeps_the_hierarchy() {
    // Grown past 2^10 items and deleted back to ten: the shrink rebuilds
    // return it to the floor sizing (flat), but its slab keeps its
    // high-water mark of slots, so a scan would cost O(slots), not O(1).
    // It must answer through the hierarchy, and exactly.
    let mut s = DpssSampler::new(6);
    let ids: Vec<ItemId> = (0..1100u64).map(|i| s.insert(1 + (i * 53) % 200)).collect();
    let keep: Vec<ItemId> = ids.iter().copied().step_by(110).collect();
    for id in &ids {
        if !keep.contains(id) {
            s.delete(*id).unwrap();
        }
    }
    s.validate();
    assert_eq!(s.len(), 10);
    assert!(s.level1().is_flat(), "g₁ = {}", s.level1().group_width);
    assert!(s.level1().slab.slot_count() > SCAN_SLOTS);
    let weights: Vec<u64> = keep.iter().map(|&id| s.weight(id).unwrap()).collect();
    let (alpha, beta) = (Ratio::one(), Ratio::zero());
    let probs = probs_under(&weights, s.total_weight() as f64);
    let trials = scaled(300_000);
    let mut ctx = QueryCtx::new(61);
    let mut other_counts = 0u64;
    let counts = subset_counts(&raw(&keep), trials, || {
        let before = ctx.words_consumed();
        let got = s.query_in(&mut ctx, &alpha, &beta);
        other_counts += u64::from(ctx.words_consumed() - before != 10);
        raw(&got)
    });
    assert!(other_counts > trials / 2, "queries drew one word per item: a scan");
    assert_law("over the slot bound", &counts, &probs, trials);
}
