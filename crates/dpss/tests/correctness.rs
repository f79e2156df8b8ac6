//! End-to-end exactness tests for the HALT sampler (the test form of
//! `exp v1`):
//! empirical inclusion frequencies must match the exact `p_x(α,β)` for every
//! item, across weight regimes, parameter regimes, and dynamic updates.

// HashMap/HashSet sanctioned: test-side bookkeeping only; no iteration order reaches an assertion or a sample.
#![allow(clippy::disallowed_types)]

mod common;

use common::level1_sampler;
use dpss::{DpssSampler, FinalLevelMode, ItemId, QueryCtx, Ratio};
use randvar::stats::binomial_z;
use std::collections::HashMap;

/// Runs `trials` queries and asserts each item's empirical inclusion frequency
/// is within `z_bound` standard deviations of its exact probability.
fn assert_marginals(
    s: &DpssSampler,
    ctx: &mut QueryCtx,
    alpha: &Ratio,
    beta: &Ratio,
    trials: u64,
    z_bound: f64,
    label: &str,
) {
    let probs: HashMap<ItemId, f64> = s
        .iter()
        .map(|(id, _)| {
            let p = s.inclusion_prob(id, alpha, beta).unwrap();
            (id, p.to_f64_lossy())
        })
        .collect();
    let mut hits: HashMap<ItemId, u64> = probs.keys().map(|&id| (id, 0)).collect();
    for _ in 0..trials {
        for id in s.query_in(ctx, alpha, beta) {
            *hits.get_mut(&id).expect("sampled unknown item") += 1;
        }
    }
    for (&id, &p) in &probs {
        let h = hits[&id];
        if p == 0.0 {
            assert_eq!(h, 0, "{label}: item {id:?} with p=0 sampled");
        } else if p == 1.0 {
            assert_eq!(h, trials, "{label}: item {id:?} with p=1 missed");
        } else {
            let z = binomial_z(h, trials, p);
            assert!(
                z.abs() < z_bound,
                "{label}: item {id:?} p={p:.6} freq={:.6} z={z:.2}",
                h as f64 / trials as f64
            );
        }
    }
}

#[test]
fn uniform_weights_alpha_one() {
    let weights = vec![5u64; 20];
    let (s, _) = DpssSampler::from_weights(&weights, 1);
    let mut ctx = QueryCtx::new(1);
    // α=1, β=0: p_x = 5/100 = 1/20 each.
    assert_marginals(&s, &mut ctx, &Ratio::one(), &Ratio::zero(), 40_000, 4.8, "uniform");
}

#[test]
fn geometric_weights_span_buckets() {
    // Weights 1, 2, 4, …, 2^19 hit 20 distinct buckets.
    let weights: Vec<u64> = (0..20).map(|i| 1u64 << i).collect();
    let (s, _) = DpssSampler::from_weights(&weights, 2);
    let mut ctx = QueryCtx::new(2);
    assert_marginals(&s, &mut ctx, &Ratio::one(), &Ratio::zero(), 40_000, 4.8, "geometric");
}

#[test]
fn mixed_magnitude_weights() {
    let weights = vec![1, 1, 3, 7, 100, 1000, 12345, 1 << 30, (1 << 40) + 17, 2];
    let (s, _) = DpssSampler::from_weights(&weights, 3);
    let mut ctx = QueryCtx::new(3);
    assert_marginals(&s, &mut ctx, &Ratio::one(), &Ratio::zero(), 40_000, 4.8, "mixed");
}

#[test]
fn beta_scales_probabilities_down() {
    // β ≫ Σw: all probabilities tiny — exercises the insignificant path.
    let (s, _) = level1_sampler(&[10, 20, 40, 80, 160], 4);
    let mut ctx = QueryCtx::new(4);
    let beta = Ratio::from_int(1_000_000);
    assert_marginals(&s, &mut ctx, &Ratio::zero(), &beta, 60_000, 4.8, "big-beta");
}

#[test]
fn alpha_below_one_creates_certain_items() {
    // α = 1/100: heavy items get p = 1 (certain path), light ones p < 1.
    let (s, _) = level1_sampler(&[1, 2, 3, 50, 60, 100_000, 200_000], 5);
    let mut ctx = QueryCtx::new(5);
    let alpha = Ratio::from_u64s(1, 100);
    assert_marginals(&s, &mut ctx, &alpha, &Ratio::zero(), 30_000, 4.8, "certain-mix");
}

#[test]
fn fractional_alpha_beta() {
    let weights = vec![9u64, 17, 33, 65, 129, 257, 513];
    let (s, _) = DpssSampler::from_weights(&weights, 6);
    let mut ctx = QueryCtx::new(6);
    let alpha = Ratio::from_u64s(3, 7);
    let beta = Ratio::from_u64s(22, 5);
    assert_marginals(&s, &mut ctx, &alpha, &beta, 40_000, 4.8, "fractional");
}

#[test]
fn zero_weight_items_never_sampled() {
    let (s, ids) = DpssSampler::from_weights(&[0, 5, 0, 7, 0], 7);
    let mut ctx = QueryCtx::new(7);
    for _ in 0..2000 {
        let t = s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero());
        assert!(!t.contains(&ids[0]) && !t.contains(&ids[2]) && !t.contains(&ids[4]));
    }
}

#[test]
fn w_zero_convention_returns_all_positive() {
    let (s, ids) = DpssSampler::from_weights(&[0, 5, 7], 8);
    let mut ctx = QueryCtx::new(8);
    let t = s.query_in(&mut ctx, &Ratio::zero(), &Ratio::zero());
    assert_eq!(t.len(), 2);
    assert!(t.contains(&ids[1]) && t.contains(&ids[2]));
}

#[test]
fn empty_and_single_item() {
    let mut s = DpssSampler::new(9);
    let mut ctx = QueryCtx::new(9);
    assert!(s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()).is_empty());
    let id = s.insert(42);
    // Single item, α=1: p = 1.
    for _ in 0..50 {
        assert_eq!(s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()), vec![id]);
    }
    // α=2: p = 1/2.
    let mut hits = 0u64;
    let trials = 20_000;
    for _ in 0..trials {
        hits += s.query_in(&mut ctx, &Ratio::from_int(2), &Ratio::zero()).len() as u64;
    }
    let z = binomial_z(hits, trials, 0.5);
    assert!(z.abs() < 4.8, "z = {z}");
}

#[test]
fn marginals_survive_dynamic_updates() {
    let (mut s, ids) = DpssSampler::from_weights(&[1, 2, 4, 8, 16, 32, 64, 128], 10);
    let mut ctx = QueryCtx::new(10);
    // Delete a few, insert others — including a dominating weight.
    s.delete(ids[0]).unwrap();
    s.delete(ids[5]).unwrap();
    s.insert(1000);
    s.insert(3);
    s.insert(1 << 35);
    assert_marginals(&s, &mut ctx, &Ratio::one(), &Ratio::zero(), 40_000, 4.8, "post-update");
    assert_marginals(
        &s,
        &mut ctx,
        &Ratio::from_u64s(1, 3),
        &Ratio::from_int(10),
        40_000,
        4.8,
        "post-update-2",
    );
}

#[test]
fn marginals_survive_rebuild() {
    // Grow from 4 to 300 items (several rebuilds), then shrink to 30.
    let (mut s, _) = DpssSampler::from_weights(&[3, 5, 9, 11], 11);
    let mut ctx = QueryCtx::new(11);
    let mut ids: Vec<ItemId> = Vec::new();
    for i in 0..296u64 {
        ids.push(s.insert((i * 7919) % 1000 + 1));
    }
    assert!(s.rebuild_count() > 0, "growth must have triggered rebuilds");
    for id in ids.drain(..).take(270) {
        s.delete(id).unwrap();
    }
    s.validate();
    assert_marginals(&s, &mut ctx, &Ratio::one(), &Ratio::zero(), 30_000, 4.8, "post-rebuild");
}

#[test]
fn direct_final_mode_matches() {
    // 96 items, four in each of 24 weight classes: g₁ = 7 > IN_PLACE_BUCKETS,
    // and the heavy groups hold more non-empty buckets than open in place,
    // so queries descend through levels 2 and 3 to the final level.
    let weights: Vec<u64> = (0..96u64).map(|i| (1u64 << (8 + i % 24)) + i).collect();
    let (mut s, _) = DpssSampler::from_weights(&weights, 12);
    assert!(!s.level1().is_flat(), "g₁ = {}", s.level1().group_width);
    // The Lookup-mode twin at the same weights and parameters reaches the
    // final level: it materializes lookup-table rows.
    let mut lookup_ctx = QueryCtx::new(12);
    for _ in 0..100 {
        s.query_in(&mut lookup_ctx, &Ratio::one(), &Ratio::zero());
    }
    assert!(s.lookup_rows_built(&lookup_ctx) > 0, "queries never reached the final level");
    s.set_final_mode(FinalLevelMode::Direct);
    let mut ctx = QueryCtx::new(12);
    assert_marginals(&s, &mut ctx, &Ratio::one(), &Ratio::zero(), 40_000, 4.8, "direct-mode");
    assert_eq!(s.lookup_rows_built(&ctx), 0, "Direct mode consulted the lookup table");
}

#[test]
fn pairwise_independence_spot_check() {
    // Two equal-weight items: P[both] must be p² (independence), not shared.
    let (s, ids) = DpssSampler::from_weights(&[100, 100, 100, 100], 13);
    let mut ctx = QueryCtx::new(13);
    let (a, b) = (ids[0], ids[1]);
    let trials = 60_000u64;
    let (mut ha, mut hb, mut hab) = (0u64, 0u64, 0u64);
    for _ in 0..trials {
        let t = s.query_in(&mut ctx, &Ratio::one(), &Ratio::zero()); // p = 1/4 each
        let ia = t.contains(&a);
        let ib = t.contains(&b);
        ha += ia as u64;
        hb += ib as u64;
        hab += (ia && ib) as u64;
    }
    let (fa, fb, fab) =
        (ha as f64 / trials as f64, hb as f64 / trials as f64, hab as f64 / trials as f64);
    assert!((fab - fa * fb).abs() < 0.006, "cov = {}", fab - fa * fb);
}

#[test]
fn query_size_matches_mu() {
    let weights: Vec<u64> = (1..=100).collect();
    let (s, _) = DpssSampler::from_weights(&weights, 14);
    let mut ctx = QueryCtx::new(14);
    let alpha = Ratio::from_u64s(1, 10); // μ = Σ min(10·w/Σw, 1)
    let mu = s.expected_sample_size(&alpha, &Ratio::zero());
    let trials = 5_000u64;
    let total: u64 =
        (0..trials).map(|_| s.query_in(&mut ctx, &alpha, &Ratio::zero()).len() as u64).sum();
    let mean = total as f64 / trials as f64;
    assert!((mean - mu).abs() < 0.35, "mean sample size {mean} vs expected {mu}");
}

#[test]
fn determinism_with_same_seed() {
    let weights = vec![1u64, 10, 100, 1000];
    let (s1, _) = DpssSampler::from_weights(&weights, 99);
    let mut s1_ctx = QueryCtx::new(99);
    let (s2, _) = DpssSampler::from_weights(&weights, 99);
    let mut s2_ctx = QueryCtx::new(99);
    for _ in 0..200 {
        assert_eq!(
            s1.query_in(&mut s1_ctx, &Ratio::one(), &Ratio::zero()),
            s2.query_in(&mut s2_ctx, &Ratio::one(), &Ratio::zero())
        );
    }
}

#[test]
fn huge_weights_near_word_boundary() {
    let weights = vec![u64::MAX, u64::MAX - 1, 1, 2, u64::MAX / 2];
    let (s, _) = DpssSampler::from_weights(&weights, 15);
    let mut ctx = QueryCtx::new(15);
    s.validate();
    assert_marginals(&s, &mut ctx, &Ratio::one(), &Ratio::zero(), 30_000, 4.8, "huge");
}

#[test]
fn alpha_zero_beta_small_all_certain() {
    // β < min weight: every item certain.
    let (s, ids) = level1_sampler(&[10, 20, 30], 16);
    let mut ctx = QueryCtx::new(16);
    let t = s.query_in(&mut ctx, &Ratio::zero(), &Ratio::from_int(5));
    assert_eq!(t.len(), 3);
    for id in ids {
        assert!(t.contains(&id));
    }
}
