//! Joint-distribution exactness: for small item sets, the probability of
//! *every subset outcome* must equal `Π_{x∈T} p_x · Π_{x∉T} (1−p_x)` — this
//! verifies independence across items, which marginal tests cannot see.

// HashMap/HashSet sanctioned: test-side bookkeeping only; no iteration order reaches an assertion or a sample.
#![allow(clippy::disallowed_types)]

mod common;

use common::level1_sampler;
use dpss::query::thresholds;
use dpss::structure::IN_PLACE_BUCKETS;
use dpss::{DpssSampler, ItemId, QueryCtx, Ratio};
use randvar::stats::{chi_square, chi_square_test};
use std::collections::HashMap;

/// Debug builds run 10× fewer trials (χ² thresholds remain valid, with less
/// statistical power); release/CI runs the full count.
fn scaled(trials: u64) -> u64 {
    if cfg!(debug_assertions) {
        trials / 10
    } else {
        trials
    }
}

/// Each item's exact inclusion probability at `(α, β)`, as `f64`.
fn inclusion_probs(s: &DpssSampler, ids: &[ItemId], alpha: &Ratio, beta: &Ratio) -> Vec<f64> {
    ids.iter().map(|&id| s.inclusion_prob(id, alpha, beta).unwrap().to_f64_lossy()).collect()
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

/// How often each of the 2^k subsets of `ids` came out of `trials` queries.
fn subset_counts(
    s: &DpssSampler,
    ids: &[ItemId],
    (alpha, beta): (&Ratio, &Ratio),
    trials: u64,
    seed: u64,
) -> Vec<u64> {
    assert!(ids.len() <= 12);
    let mut ctx = QueryCtx::new(seed);
    let index: HashMap<ItemId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut counts = vec![0u64; 1 << ids.len()];
    for _ in 0..trials {
        let mut mask = 0usize;
        for id in s.query_in(&mut ctx, alpha, beta) {
            mask |= 1 << index[&id];
        }
        counts[mask] += 1;
    }
    counts
}

/// Runs `trials` queries of the sampler `(s, ids)` and chi-squares the
/// empirical joint distribution over all 2^k subsets of `ids` against the
/// exact product law. The tests that target a level-1 path build their
/// sampler with [`level1_sampler`], so it does not answer by the slot scan
/// of a small flat sampler.
fn joint_check(
    (s, ids): (DpssSampler, Vec<ItemId>),
    alpha: Ratio,
    beta: Ratio,
    trials: u64,
    seed: u64,
) -> f64 {
    let trials = scaled(trials);
    let counts = subset_counts(&s, &ids, (&alpha, &beta), trials, seed);
    chi_square(&counts, &product_law(&inclusion_probs(&s, &ids, &alpha, &beta)), trials)
}

#[test]
fn joint_two_items() {
    // p = (1/3, 2/3): 4 outcomes, df ≤ 3; 0.9999 quantile ≈ 21.1.
    let s = joint_check(
        DpssSampler::from_weights(&[10, 20], 1),
        Ratio::one(),
        Ratio::zero(),
        300_000,
        1,
    );
    assert!(s < 21.1, "chi2 = {s}");
}

#[test]
fn joint_four_items_mixed_buckets() {
    // Weights across distinct buckets: 16 outcomes.
    let s = joint_check(level1_sampler(&[1, 2, 4, 8], 2), Ratio::one(), Ratio::zero(), 400_000, 2);
    assert!(s < 37.7, "chi2 = {s}"); // df≤15
}

#[test]
fn joint_six_items_same_bucket() {
    // All items share one bucket — stresses the within-bucket B-Geo walk,
    // where a dependence bug would be most likely.
    let s = joint_check(level1_sampler(&[7; 6], 3), Ratio::one(), Ratio::zero(), 500_000, 3);
    assert!(s < 120.0, "chi2 = {s}"); // df≤63, 0.9999 quantile ≈ 103.4 + slack
}

#[test]
fn joint_with_certain_and_tiny_items() {
    // One certain item (p=1), one dominating, two tiny: exercises all three
    // instance types in one query.
    let s = joint_check(
        level1_sampler(&[1, 2, 1000, 100_000], 4),
        Ratio::zero(),
        Ratio::from_int(50_000),
        400_000,
        4,
    );
    assert!(s < 37.7, "chi2 = {s}");
}

#[test]
fn joint_under_beta_scaling() {
    // β pushes everything into the insignificant instance.
    let s = joint_check(
        level1_sampler(&[3, 5, 7, 11], 5),
        Ratio::zero(),
        Ratio::from_int(1000),
        600_000,
        5,
    );
    assert!(s < 37.7, "chi2 = {s}");
}

#[test]
fn joint_after_updates() {
    // Same check, but after a delete + reinsert cycle shuffles bucket
    // positions (catches position-dependent correlations).
    let (mut s, ids) = level1_sampler(&[9, 9, 9, 9, 50], 6);
    s.delete(ids[1]).unwrap();
    s.delete(ids[3]).unwrap();
    let a = s.insert(9);
    let b = s.insert(9);
    let live = [ids[0], ids[2], ids[4], a, b];
    let (alpha, beta) = (Ratio::one(), Ratio::zero());
    let trials = scaled(400_000u64);
    let counts = subset_counts(&s, &live, (&alpha, &beta), trials, 6);
    let exact = product_law(&inclusion_probs(&s, &live, &alpha, &beta));
    let stat = chi_square(&counts, &exact, trials);
    assert!(stat < 75.0, "chi2 = {stat}"); // df≤31, 0.9999 quantile ≈ 61.1 + slack
}

#[test]
fn joint_across_dense_sparse_and_clamped_groups() {
    // Sized for 2^10 items (g₁ = 10), with a rebuild band wide enough that
    // seven inserts keep that sizing. At (α, β) = (1, 0), W = 2^22 − 2^15:
    // - group 1 (buckets 10..=19) holds buckets 15..=19, more than
    //   IN_PLACE_BUCKETS, so its buckets are sampled through its level-2
    //   child;
    // - group 2 (buckets 20..=29) holds buckets 20 and 21, so it is opened
    //   in place: bucket 21 is clamped (2^22 ≥ W) and runs the plain coin,
    //   bucket 20 is not (2^21 < W) and walks from a B-Geo first index.
    let weights = [1 << 21, 1 << 20, 1 << 19, 1 << 18, 1 << 17, 1 << 16, 1 << 15];
    let mut s = DpssSampler::with_capacity_seed(1 << 10, 8);
    s.set_rebuild_factor(64);
    let ids: Vec<ItemId> = weights.iter().map(|&w| s.insert(w)).collect();
    assert_eq!(s.rebuild_count(), 0, "the inserts must keep the 2^10 sizing");
    let (alpha, beta) = (Ratio::one(), Ratio::zero());
    let w = Ratio::from_u128s(s.total_weight(), 1);

    // The path each group takes, from the level-1 bitsets.
    let l1 = s.level1();
    let g = l1.group_width as usize;
    assert!(g > IN_PLACE_BUCKETS, "g₁ = {g} leaves no room for a dense group");
    let th = thresholds(&w, weights.len(), l1.group_width);
    let significant: Vec<usize> = l1
        .nonempty_groups
        .iter()
        .filter(|&j| j as i64 > th.j_insig_max && (j as i64) < th.j_cert_min)
        .collect();
    assert_eq!(significant, [1, 2], "W = {w:?}, thresholds {th:?}");
    let buckets = |j: usize| l1.nonempty_buckets.range(j * g, (j + 1) * g - 1).collect::<Vec<_>>();
    assert!(buckets(1).len() > IN_PLACE_BUCKETS, "group 1 must recurse: {:?}", buckets(1));
    assert_eq!(buckets(2), [20, 21], "group 2 must open in place");
    let total = s.total_weight();
    assert!(1 << 22 >= total && 1 << 21 < total, "bucket 21 clamped, bucket 20 not");

    let trials = scaled(400_000);
    let counts = subset_counts(&s, &ids, (&alpha, &beta), trials, 8);
    let probs = inclusion_probs(&s, &ids, &alpha, &beta);
    let fit = chi_square_test(&counts, &product_law(&probs), trials);
    assert!(fit.p_value > 1e-4, "rejected the exact law: {fit:?}");
    // Power: the same counts reject a law in which the item walked in
    // place (w = 2^20, p ≈ 1/4) is included ε = 10% more often.
    let mut biased = probs.clone();
    biased[1] *= 1.1;
    let off = chi_square_test(&counts, &product_law(&biased), trials);
    assert!(off.p_value < 1e-6, "missed a 10% bias on one item: {off:?}");
}
