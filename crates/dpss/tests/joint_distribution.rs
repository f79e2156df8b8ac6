//! Joint-distribution exactness: for small item sets, the probability of
//! *every subset outcome* must equal `Π_{x∈T} p_x · Π_{x∉T} (1−p_x)` — this
//! verifies independence across items, which marginal tests cannot see.

// HashMap/HashSet sanctioned: test-side bookkeeping only; no iteration order reaches an assertion or a sample.
#![allow(clippy::disallowed_types)]

use dpss::{DpssSampler, ItemId, QueryCtx, Ratio};
use randvar::stats::chi_square;
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

/// Runs `trials` queries and chi-squares the empirical joint distribution over
/// all 2^k subsets against the exact product law.
fn joint_check(weights: &[u64], alpha: Ratio, beta: Ratio, trials: u64, seed: u64) -> f64 {
    let trials = scaled(trials);
    let k = weights.len();
    assert!(k <= 12);
    let (s, ids) = DpssSampler::from_weights(weights, seed);
    let mut ctx = QueryCtx::new(seed);
    let index: HashMap<ItemId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let probs: Vec<f64> =
        ids.iter().map(|&id| s.inclusion_prob(id, &alpha, &beta).unwrap().to_f64_lossy()).collect();
    // Exact subset probabilities.
    let exact: Vec<f64> = (0..1usize << k)
        .map(|mask| {
            (0..k).map(|i| if mask >> i & 1 == 1 { probs[i] } else { 1.0 - probs[i] }).product()
        })
        .collect();
    let mut counts = vec![0u64; 1 << k];
    for _ in 0..trials {
        let mut mask = 0usize;
        for id in s.query_in(&mut ctx, &alpha, &beta) {
            mask |= 1 << index[&id];
        }
        counts[mask] += 1;
    }
    chi_square(&counts, &exact, trials)
}

#[test]
fn joint_two_items() {
    // p = (1/3, 2/3): 4 outcomes, df ≤ 3; 0.9999 quantile ≈ 21.1.
    let s = joint_check(&[10, 20], Ratio::one(), Ratio::zero(), 300_000, 1);
    assert!(s < 21.1, "chi2 = {s}");
}

#[test]
fn joint_four_items_mixed_buckets() {
    // Weights across distinct buckets: 16 outcomes.
    let s = joint_check(&[1, 2, 4, 8], Ratio::one(), Ratio::zero(), 400_000, 2);
    assert!(s < 37.7, "chi2 = {s}"); // df≤15
}

#[test]
fn joint_six_items_same_bucket() {
    // All items share one bucket — stresses the within-bucket B-Geo walk,
    // where a dependence bug would be most likely.
    let s = joint_check(&[7, 7, 7, 7, 7, 7], Ratio::one(), Ratio::zero(), 500_000, 3);
    assert!(s < 120.0, "chi2 = {s}"); // df≤63, 0.9999 quantile ≈ 103.4 + slack
}

#[test]
fn joint_with_certain_and_tiny_items() {
    // One certain item (p=1), one dominating, two tiny: exercises all three
    // instance types in one query.
    let s = joint_check(&[1, 2, 1000, 100_000], Ratio::zero(), Ratio::from_int(50_000), 400_000, 4);
    assert!(s < 37.7, "chi2 = {s}");
}

#[test]
fn joint_under_beta_scaling() {
    // β pushes everything into the insignificant instance.
    let s = joint_check(&[3, 5, 7, 11], Ratio::zero(), Ratio::from_int(1000), 600_000, 5);
    assert!(s < 37.7, "chi2 = {s}");
}

#[test]
fn joint_after_updates() {
    // Same check, but after a delete + reinsert cycle shuffles bucket
    // positions (catches position-dependent correlations).
    let (mut s, ids) = DpssSampler::from_weights(&[9, 9, 9, 9, 50], 6);
    let mut ctx = QueryCtx::new(6);
    s.delete(ids[1]).unwrap();
    s.delete(ids[3]).unwrap();
    let a = s.insert(9);
    let b = s.insert(9);
    let live = [ids[0], ids[2], ids[4], a, b];
    let alpha = Ratio::one();
    let probs: Vec<f64> = live
        .iter()
        .map(|&id| s.inclusion_prob(id, &alpha, &Ratio::zero()).unwrap().to_f64_lossy())
        .collect();
    let index: HashMap<ItemId, usize> = live.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let k = live.len();
    let exact: Vec<f64> = (0..1usize << k)
        .map(|mask| {
            (0..k).map(|i| if mask >> i & 1 == 1 { probs[i] } else { 1.0 - probs[i] }).product()
        })
        .collect();
    let trials = scaled(400_000u64);
    let mut counts = vec![0u64; 1 << k];
    for _ in 0..trials {
        let mut mask = 0usize;
        for id in s.query_in(&mut ctx, &alpha, &Ratio::zero()) {
            mask |= 1 << index[&id];
        }
        counts[mask] += 1;
    }
    let stat = chi_square(&counts, &exact, trials);
    assert!(stat < 75.0, "chi2 = {stat}"); // df≤31, 0.9999 quantile ≈ 61.1 + slack
}
