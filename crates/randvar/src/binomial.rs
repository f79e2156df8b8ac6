//! Exact Binomial sampling via bounded-geometric skipping.
//!
//! `Binomial(n, p)` counts the successes among `n` independent `Ber(p)`
//! flips. Rather than flipping `n` coins, the sampler walks the success
//! *positions* with `B-Geo(p, ·)` strides — the same skip technique the
//! subset-sampling algorithms use (Algorithm 2/5) — so the expected cost is
//! `O(1 + n·p)`: output-sensitive, exact, and independent of `n` when
//! `n·p` is small.
//!
//! This is exactly the "how many items did the insignificant instance
//! sample?" subproblem, packaged as a standalone exact variate generator.
//! One [`GeoDesc`] per call serves every stride.

use crate::geo::GeoDesc;
use bignum::Ratio;
use rand::RngCore;
use std::cmp::Ordering;

/// Draws `Binomial(n, p)` exactly in `O(1 + n·p)` expected time.
///
/// `p` is an exact rational in `[0, 1]`; `n < 2^62`.
pub fn binomial<R: RngCore>(rng: &mut R, p: &Ratio, n: u64) -> u64 {
    assert!(n < 1 << 62, "binomial range out of bounds");
    if n == 0 || p.is_zero() {
        return 0;
    }
    if p.cmp_int(1) != Ordering::Less {
        return n;
    }
    let d = GeoDesc::from_ratio(p, n + 1);
    let mut count = 0u64;
    let mut pos = d.bgeo(rng, n + 1);
    while pos <= n {
        count += 1;
        pos += d.bgeo(rng, n + 1);
    }
    count
}

/// The success *positions* themselves (sorted): the subset of `{1..=n}` where
/// each index is included independently with probability `p`. This is the
/// vanilla static subset-sampling primitive on equal probabilities.
pub fn binomial_positions<R: RngCore>(rng: &mut R, p: &Ratio, n: u64) -> Vec<u64> {
    assert!(n < 1 << 62, "binomial range out of bounds");
    let mut out = Vec::new();
    if n == 0 || p.is_zero() {
        return out;
    }
    if p.cmp_int(1) != Ordering::Less {
        return (1..=n).collect();
    }
    let d = GeoDesc::from_ratio(p, n + 1);
    let mut pos = d.bgeo(rng, n + 1);
    while pos <= n {
        out.push(pos);
        pos += d.bgeo(rng, n + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{binomial_z, chi_square_test};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn binom_pmf(n: u64, p: f64) -> Vec<f64> {
        // Iterative pmf: C(n,k) p^k (1-p)^{n-k}.
        let mut pmf = Vec::with_capacity(n as usize + 1);
        let mut v = (1.0 - p).powi(n as i32);
        pmf.push(v);
        for k in 0..n {
            v *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
            pmf.push(v);
        }
        pmf
    }

    #[test]
    fn edge_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(binomial(&mut rng, &Ratio::from_u64s(1, 2), 0), 0);
        assert_eq!(binomial(&mut rng, &Ratio::zero(), 100), 0);
        assert_eq!(binomial(&mut rng, &Ratio::one(), 100), 100);
        assert_eq!(binomial_positions(&mut rng, &Ratio::one(), 4), vec![1, 2, 3, 4]);
        assert!(binomial_positions(&mut rng, &Ratio::zero(), 4).is_empty());
    }

    #[test]
    fn distribution_matches_pmf() {
        let mut rng = SmallRng::seed_from_u64(2);
        let p = Ratio::from_u64s(3, 10);
        let n = 12u64;
        let trials = 60_000u64;
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..trials {
            counts[binomial(&mut rng, &p, n) as usize] += 1;
        }
        let r = chi_square_test(&counts, &binom_pmf(n, 0.3), trials);
        assert!(r.p_value > 1e-4, "{r:?}");
    }

    #[test]
    fn sparse_regime_mean() {
        // n·p = 0.5 ≪ n: cost is O(1) and the mean must be n·p.
        let mut rng = SmallRng::seed_from_u64(3);
        let p = Ratio::from_u64s(1, 2_000_000);
        let n = 1_000_000u64;
        let trials = 40_000u64;
        let total: u64 = (0..trials).map(|_| binomial(&mut rng, &p, n)).sum();
        let z = binomial_z(total, trials * n, 1.0 / 2_000_000.0);
        assert!(z.abs() < 5.0, "z = {z}");
    }

    #[test]
    fn positions_are_sorted_distinct_in_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let p = Ratio::from_u64s(1, 3);
        for _ in 0..200 {
            let pos = binomial_positions(&mut rng, &p, 30);
            assert!(pos.windows(2).all(|w| w[0] < w[1]), "not strictly sorted: {pos:?}");
            assert!(pos.iter().all(|&i| (1..=30).contains(&i)));
        }
    }

    #[test]
    fn positions_marginals_are_uniform() {
        // Every position has the same inclusion probability p.
        let mut rng = SmallRng::seed_from_u64(5);
        let p = Ratio::from_u64s(1, 4);
        let n = 8u64;
        let trials = 40_000u64;
        let mut hits = vec![0u64; n as usize];
        for _ in 0..trials {
            for i in binomial_positions(&mut rng, &p, n) {
                hits[(i - 1) as usize] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let z = binomial_z(h, trials, 0.25);
            assert!(z.abs() < 5.0, "position {i}: z = {z}");
        }
    }

    #[test]
    fn count_equals_positions_len_in_law() {
        // Same seed ⇒ the two functions consume the same coins and agree.
        let p = Ratio::from_u64s(2, 7);
        for seed in 0..50 {
            let mut r1 = SmallRng::seed_from_u64(seed);
            let mut r2 = SmallRng::seed_from_u64(seed);
            assert_eq!(binomial(&mut r1, &p, 40), binomial_positions(&mut r2, &p, 40).len() as u64);
        }
    }
}
