//! Integration tests asserting the *asymptotic shapes* of Theorem 1.1 as
//! machine-checkable properties (coarse factors, so they are robust to CI
//! noise): build linearity, query independence from n at fixed μ, update
//! flatness, and space linearity.

// Wall-clock timing is sanctioned here: this is measurement/driver code, not serving-path library code.
#![allow(clippy::disallowed_types)]

use bignum::Ratio;
use dpss::{DpssSampler, QueryCtx, SpaceUsage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn random_weights(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(1..=1u64 << 40)).collect()
}

/// Build time per item must not grow more than 8× from n=2^12 to n=2^18.
#[test]
fn build_is_roughly_linear() {
    let per_item = |n: usize| {
        let w = random_weights(n, 1);
        // best of 3 to dampen noise
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(DpssSampler::from_weights(&w, 7));
                t.elapsed().as_secs_f64() / n as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let small = per_item(1 << 12);
    let large = per_item(1 << 18);
    assert!(large < small * 8.0, "per-item build cost grew {small:.2e} → {large:.2e}");
}

/// Query time at μ≈1 must not grow more than 8× from n=2^12 to n=2^18.
#[test]
fn query_is_independent_of_n_at_fixed_mu() {
    let per_query = |n: usize| {
        let w = random_weights(n, 2);
        let (s, _) = DpssSampler::from_weights(&w, 9);
        let mut ctx = QueryCtx::new(9);
        let alpha = Ratio::one();
        let t = Instant::now();
        for _ in 0..300 {
            std::hint::black_box(s.query_in(&mut ctx, &alpha, &Ratio::zero()));
        }
        t.elapsed().as_secs_f64() / 300.0
    };
    let small = per_query(1 << 12);
    let large = per_query(1 << 18);
    assert!(large < small * 8.0, "μ=1 query cost grew {small:.2e} → {large:.2e}");
}

/// Steady-state update time must not grow more than 20× from 2^12 to 2^18.
///
/// The factor is deliberately coarse: with the allocation-free cascade an
/// update is a few dozen ns at small n, so at n=2^18 the measurement is
/// dominated by DRAM misses on the random slab/bucket accesses rather than
/// by structure work. A genuine Θ(n) regression over this range would show
/// as ≈64×; Θ(log n) with a word-op constant stays far below the bound.
#[test]
fn updates_are_roughly_constant() {
    let per_update = |n: usize| {
        let w = random_weights(n, 3);
        let (mut s, mut ids) = DpssSampler::from_weights(&w, 11);
        let mut rng = SmallRng::seed_from_u64(5);
        // best of 3 to dampen scheduler/cache noise from parallel tests
        (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..4000 {
                    let i = rng.gen_range(0..ids.len());
                    let victim = ids.swap_remove(i);
                    s.delete(victim).unwrap();
                    ids.push(s.insert(rng.gen_range(1..=1u64 << 40)));
                }
                t.elapsed().as_secs_f64() / 8000.0
            })
            .fold(f64::INFINITY, f64::min)
    };
    let small = per_update(1 << 12);
    let large = per_update(1 << 18);
    assert!(large < small * 20.0, "update cost grew {small:.2e} → {large:.2e}");
}

/// Space per item must be bounded by a fixed constant at every scale.
#[test]
fn space_is_linear_with_small_constant() {
    for exp in [12u32, 14, 16] {
        let n = 1usize << exp;
        let (s, _) = DpssSampler::from_weights(&random_weights(n, 4), 13);
        let per = s.space_words() as f64 / n as f64;
        assert!(per < 40.0, "n=2^{exp}: {per:.1} words/item");
    }
}

/// Space is linear at small n too: `space_words() ≤ 32·n + 512` for every
/// n ≤ 64, built one insert at a time (rebuilds and warm nodes included)
/// and in bulk, with narrow and full-range weights. The offset is a few
/// hundred words because every hierarchy node stores only the bucket window
/// its group can reach; full-universe nodes made a 4-item sampler report
/// 1,604 words.
///
/// Up to n = 32 the bound is also at most `SMALL_N_WORDS`: a sampler built
/// one insert at a time stays at the size floor (g₁ = 4) and builds no
/// level-2/3 node, and a bulk build of 17..=32 items (g₁ = 5) has the
/// largest footprint, 534 words at n = 32. The level-1 bucket window spans
/// only the non-empty bucket range; the full 64-handle vector read 585
/// words there, and floor-sized samplers that keep a node per non-empty
/// group up to 1,090.
#[test]
fn space_is_linear_at_small_n() {
    /// 10% over the largest footprint measured for n ≤ 32: 534 words,
    /// counting the sampler's 44-word inline struct (542 words while that
    /// struct took 68).
    const SMALL_N_WORDS: usize = 587;
    let mut rng = SmallRng::seed_from_u64(0x5A11);
    for hi in [100u64, u64::MAX] {
        for n in 1..=64usize {
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=hi)).collect();
            let mut per_op = DpssSampler::new(1);
            for &w in &weights {
                per_op.insert(w);
            }
            let (bulk, _) = DpssSampler::from_weights(&weights, 1);
            for (name, s) in [("per-op", &per_op), ("bulk", &bulk)] {
                let words = s.space_words();
                let linear = 32 * n + 512;
                let bound = if n <= 32 { SMALL_N_WORDS.min(linear) } else { linear };
                assert!(words <= bound, "{name}, weights ≤ {hi}, n = {n}: {words} words");
            }
        }
    }
}

/// Beyond-L2 flatness: per-op insert and μ≈1 query cost at n=2^20 must stay
/// within a coarse constant of their n=2^14 cost. This is the cache-regime
/// counterpart of the small-n flatness tests above — at 2^20 the working set
/// has left L2, so the ratio measures how well the locality-packed layout
/// and prefetched walks hold the O(1)/O(1+μ) bounds against DRAM latency,
/// not just against instruction counts.
///
/// A wall-clock test, so it only runs when `PSS_SLOW_TESTS=1` is set: CI's
/// release-build query checks set it for this one test.
#[test]
fn beyond_l2_insert_and_query_stay_flat() {
    if std::env::var_os("PSS_SLOW_TESTS").is_none() {
        eprintln!("skipping beyond_l2_insert_and_query_stay_flat (set PSS_SLOW_TESTS=1)");
        return;
    }
    let measure = |n: usize| {
        let w = random_weights(n, 6);
        // Insert: per-item bulk-load cost (best of 3).
        let ins = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(DpssSampler::from_weights(&w, 17));
                t.elapsed().as_secs_f64() / n as f64
            })
            .fold(f64::INFINITY, f64::min);
        // Query: μ≈1 cost on the built structure.
        let (s, _) = DpssSampler::from_weights(&w, 17);
        let mut ctx = QueryCtx::new(17);
        let alpha = Ratio::one();
        let t = Instant::now();
        for _ in 0..300 {
            std::hint::black_box(s.query_in(&mut ctx, &alpha, &Ratio::zero()));
        }
        (ins, t.elapsed().as_secs_f64() / 300.0)
    };
    let (ins_small, q_small) = measure(1 << 14);
    let (ins_large, q_large) = measure(1 << 20);
    // Coarse bounds: a Θ(n) regression would show as ≈64×; DRAM-latency
    // inflation of an O(1) op stays well under these factors.
    assert!(
        ins_large < ins_small * 10.0,
        "per-item insert cost grew {ins_small:.2e} → {ins_large:.2e} from 2^14 to 2^20"
    );
    assert!(
        q_large < q_small * 10.0,
        "μ=1 query cost grew {q_small:.2e} → {q_large:.2e} from 2^14 to 2^20"
    );
}

/// Query cost must scale with μ, not n: at n=2^16, a μ=64 query must cost
/// less than 40× a μ≈1 query (it would cost ~n/2 times more if it scanned).
#[test]
fn query_cost_tracks_mu() {
    let n = 1usize << 16;
    let w = vec![1000u64; n];
    let (s, _) = DpssSampler::from_weights(&w, 15);
    let mut ctx = QueryCtx::new(15);
    let beta = Ratio::zero();
    let time_at = |s: &DpssSampler, ctx: &mut QueryCtx, alpha: &Ratio, reps: usize| {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(s.query_in(ctx, alpha, &beta));
        }
        t.elapsed().as_secs_f64() / reps as f64
    };
    let t_mu1 = time_at(&s, &mut ctx, &Ratio::one(), 300);
    let alpha64 = Ratio::from_u64s(1, 64); // μ = 64
    let t_mu64 = time_at(&s, &mut ctx, &alpha64, 100);
    assert!(t_mu64 < t_mu1 * 40.0, "μ=64 at {t_mu64:.2e}s vs μ=1 at {t_mu1:.2e}s");
}
