//! Fast-vs-exact agreement: the word-RAM query fast path must sample the
//! *same law* as the all-exact implementation.
//!
//! The fast path is exactness-preserving by construction (a two-sided word
//! test whose sliver falls back to the exact comparison conditioned on the
//! drawn word), so identical workloads driven through a fast sampler and a
//! `force_exact` sampler must produce per-item hit counts that agree
//! distributionally — and both must match the theoretical inclusion
//! probabilities `min(w/W, 1)`. Seeded proptest over weights and `(α, β)`.

use bignum::Ratio;
use dpss::{DpssSampler, ItemId, QueryCtx};
use proptest::prelude::*;
use randvar::stats::binomial_z;

/// Per-item hit counts over `trials` repeated queries.
fn hit_counts(
    s: &DpssSampler,
    ctx: &mut QueryCtx,
    ids: &[ItemId],
    alpha: &Ratio,
    beta: &Ratio,
    trials: u64,
) -> Vec<u64> {
    let mut hits = vec![0u64; ids.len()];
    for _ in 0..trials {
        for id in s.query_in(ctx, alpha, beta) {
            let slot = ids.iter().position(|&x| x == id).expect("query returned unknown id");
            hits[slot] += 1;
        }
    }
    hits
}

/// Two-sample binomial z-statistic for equal proportions.
fn two_sample_z(a: u64, b: u64, n: u64) -> f64 {
    let (fa, fb, nf) = (a as f64 / n as f64, b as f64 / n as f64, n as f64);
    let pooled = (a + b) as f64 / (2.0 * nf);
    if pooled == 0.0 || pooled == 1.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (fa - fb) / (pooled * (1.0 - pooled) * 2.0 / nf).sqrt()
}

fn check_agreement(weights: &[u64], a: (u64, u64), b: (u64, u64), seed: u64, trials: u64) {
    let alpha = Ratio::from_u64s(a.0, a.1);
    let beta = Ratio::from_u64s(b.0, b.1);

    let (fast, fast_ids) = DpssSampler::from_weights(weights, seed);
    let mut fast_ctx = QueryCtx::new(seed);
    let (mut exact, exact_ids) = DpssSampler::from_weights(weights, seed ^ 0xE0);
    let mut exact_ctx = QueryCtx::new(seed ^ 0xE0);
    exact.set_force_exact(true);
    assert!(exact.force_exact() && !fast.force_exact());

    // Identical deterministic state regardless of path.
    assert_eq!(fast.len(), exact.len());
    assert_eq!(fast.total_weight(), exact.total_weight());

    let fast_hits = hit_counts(&fast, &mut fast_ctx, &fast_ids, &alpha, &beta, trials);
    let exact_hits = hit_counts(&exact, &mut exact_ctx, &exact_ids, &alpha, &beta, trials);

    let w_total = fast.param_weight(&alpha, &beta);
    for (i, (&fh, &eh)) in fast_hits.iter().zip(&exact_hits).enumerate() {
        // (1) The two implementations agree with each other.
        let z2 = two_sample_z(fh, eh, trials);
        assert!(
            z2.abs() < 5.5,
            "item {i} (w={}): fast {fh} vs exact {eh} over {trials} trials, z = {z2}",
            weights[i]
        );
        // (2) The fast path matches the exact inclusion probability.
        let p = fast.inclusion_prob(fast_ids[i], &alpha, &beta).unwrap().to_f64_lossy();
        if p == 0.0 {
            assert_eq!(fh, 0, "item {i}: zero-probability item sampled");
            continue;
        }
        if p >= 1.0 {
            assert_eq!(fh, trials, "item {i}: certain item missed (W={w_total})");
            continue;
        }
        let z1 = binomial_z(fh, trials, p);
        assert!(z1.abs() < 5.5, "item {i}: fast freq vs p={p}: z = {z1}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn fast_and_exact_sample_the_same_law(
        weights in proptest::collection::vec(1u64..1 << 20, 6..28),
        a_den in 2u64..32,
        b_num in 0u64..6,
        seed in 0u64..1 << 30,
    ) {
        check_agreement(&weights, (1, a_den), (b_num, 1), seed, 2500);
    }
}

#[test]
fn agreement_on_heavy_tail_with_updates() {
    // A fixed heavy-tailed instance with interleaved updates between the
    // measurement phases: both paths must track the new distribution.
    let weights: Vec<u64> = (0..24).map(|i| 1u64 << (i % 17)).collect();
    check_agreement(&weights, (1, 4), (0, 1), 99, 4000);

    let (mut fast, ids) = DpssSampler::from_weights(&weights, 7);
    let mut fast_ctx = QueryCtx::new(7);
    let (mut exact, ids_e) = DpssSampler::from_weights(&weights, 8);
    let mut exact_ctx = QueryCtx::new(8);
    exact.set_force_exact(true);
    // Same deterministic mutations on both.
    for (f, e) in ids.iter().zip(&ids_e).take(6) {
        fast.delete(*f);
        exact.delete(*e);
    }
    let hf = fast.insert(1 << 19);
    let he = exact.insert(1 << 19);
    assert_eq!(fast.total_weight(), exact.total_weight());
    let alpha = Ratio::from_u64s(1, 3);
    let beta = Ratio::zero();
    let trials = 4000u64;
    let (mut f_hits, mut e_hits) = (0u64, 0u64);
    for _ in 0..trials {
        f_hits += u64::from(fast.query_in(&mut fast_ctx, &alpha, &beta).contains(&hf));
        e_hits += u64::from(exact.query_in(&mut exact_ctx, &alpha, &beta).contains(&he));
    }
    let z = two_sample_z(f_hits, e_hits, trials);
    assert!(z.abs() < 5.0, "post-update agreement: {f_hits} vs {e_hits}, z = {z}");
}

#[test]
fn plan_cache_reuse_does_not_change_the_law() {
    // Alternating between two parameter pairs exercises cache hits; a fresh
    // sampler issuing the same pair-sequence must agree distributionally.
    let weights: Vec<u64> = (1..=20).map(|i| i * i).collect();
    let (cached, ids) = DpssSampler::from_weights(&weights, 21);
    let mut cached_ctx = QueryCtx::new(21);
    let (mut fresh, ids_f) = DpssSampler::from_weights(&weights, 22);
    let mut fresh_ctx = QueryCtx::new(22);
    let p1 = (Ratio::from_u64s(1, 2), Ratio::zero());
    let p2 = (Ratio::from_u64s(1, 9), Ratio::from_u64s(5, 1));
    let trials = 3000u64;
    let (mut c_hits, mut f_hits) = (vec![0u64; 20], vec![0u64; 20]);
    for t in 0..trials {
        let (a, b) = if t % 2 == 0 { &p1 } else { &p2 };
        for id in cached.query_in(&mut cached_ctx, a, b) {
            c_hits[ids.iter().position(|&x| x == id).unwrap()] += 1;
        }
        // The fresh sampler is rebuilt every 500 queries: its plans never
        // survive long enough to matter.
        if t % 500 == 0 {
            fresh = DpssSampler::from_weights(&weights, 23 + t).0;
            fresh_ctx = QueryCtx::new(23 + t);
        }
        for id in fresh.query_in(&mut fresh_ctx, a, b) {
            f_hits[ids_f.iter().position(|&x| x == id).unwrap()] += 1;
        }
    }
    for i in 0..20 {
        let z = two_sample_z(c_hits[i], f_hits[i], trials);
        assert!(z.abs() < 5.5, "item {i}: cached {} vs fresh {}, z = {z}", c_hits[i], f_hits[i]);
    }
}
