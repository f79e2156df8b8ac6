//! Bounded geometric variates `B-Geo(p, n) = min{n, Geo(p)}` in O(1) expected
//! time (Fact 3, after Bringmann–Friedrich).
//!
//! `Geo(p)` takes value `i ∈ {1, 2, …}` with probability `p(1−p)^{i−1}`; the
//! bounded version clamps at `n`:
//! `Pr[i] = p(1−p)^{i−1}` for `i < n` and `Pr[n] = (1−p)^{n−1}`.
//!
//! Algorithm (block decomposition): pick a power-of-two block length `t` with
//! `t·p ∈ [1, 2)` (capped at the smallest power of two `≥ n`, so at most O(1)
//! blocks ever matter). Repeatedly flip `Ber((1−p)^t)` — "the whole next block
//! fails" — which succeeds the block with constant probability `≥ 1 − e^{-1}`
//! when `t ≥ 1/p`. Within the first non-failing block, the success position is
//! drawn by uniform proposal + `Ber((1−p)^{r−1})` acceptance, which accepts
//! with constant probability `(1−(1−p)^t)/(t·p) ≥ (1−e^{-1})/2`. All Bernoulli
//! trials are exact (rational or lazy-oracle), so the sampler is exact.
//!
//! The generators are methods of a [`GeoDesc`], whose power table makes
//! the bracket of every block and position coin `popcount(k)` fixed-point
//! products; [`bgeo`] and [`ber_pow_one_minus`] wrap one descriptor per
//! call.

use crate::bernoulli::{ber_rational_from_word, ber_rational_parts};
use crate::fast::{ber_bits_with, fast_path_enabled};
use crate::geo::{block_exp, GeoDesc};
use crate::lazy::{ber_oracle, ber_oracle_from_word};
use crate::oracles::PowOneMinusOracle;
use bignum::{BigUint, Ratio};
use rand::RngCore;
use wordram::bits;

/// The exact `(1−p)^k` Bernoulli parts when they stay O(1) words.
fn small_exact_parts(p: &Ratio, k: u64) -> Option<(BigUint, BigUint)> {
    if k == 1 {
        return Some((p.den().sub(p.num()), p.den().clone()));
    }
    // Exact small power: (den−num)^k / den^k stays ≤ 8 words.
    (k <= 4 && p.num().word_len() <= 2 && p.den().word_len() <= 2)
        .then(|| (p.den().sub(p.num()).pow(k), p.den().pow(k)))
}

fn pow_one_minus_exact<R: RngCore>(rng: &mut R, p: &Ratio, k: u64) -> bool {
    if let Some((num, den)) = small_exact_parts(p, k) {
        return ber_rational_parts(rng, &num, &den);
    }
    let mut oracle = PowOneMinusOracle::from_ratio(p, k);
    ber_oracle(rng, &mut oracle)
}

fn pow_one_minus_exact_from_word<R: RngCore>(rng: &mut R, p: &Ratio, k: u64, u0: u64) -> bool {
    if let Some((num, den)) = small_exact_parts(p, k) {
        return ber_rational_from_word(rng, &num, &den, u0);
    }
    let mut oracle = PowOneMinusOracle::from_ratio(p, k);
    ber_oracle_from_word(rng, &mut oracle, u0)
}

impl GeoDesc<'_> {
    /// Draws `Ber((1−p)^k)` exactly.
    ///
    /// Hot path: one uniform word against the certified bracket of
    /// `(1−p)^k` from the descriptor's power table; only a draw inside the
    /// ulp-wide sliver (probability ≈ 2⁻⁵⁰) builds the exact `p` and runs
    /// the rational / interval-oracle machinery, conditioned on the drawn
    /// word — the distribution is identical to the all-exact code.
    pub fn ber_pow_one_minus<R: RngCore>(&self, rng: &mut R, k: u64) -> bool {
        if k == 0 {
            return true;
        }
        if fast_path_enabled() {
            return ber_bits_with(rng, &self.pow_bits(k), |rng, u| {
                pow_one_minus_exact_from_word(rng, self.ratio(), k, u)
            });
        }
        pow_one_minus_exact(rng, self.ratio(), k)
    }

    /// Draws `B-Geo(p, n) = min{n, Geo(p)}` exactly in O(1) expected time.
    ///
    /// Requires `1 ≤ n < 2^63`.
    pub fn bgeo<R: RngCore>(&self, rng: &mut R, n: u64) -> u64 {
        assert!((1..(1 << 63)).contains(&n), "bgeo cap out of range");
        let t: u64 = bits::pow2_64(block_exp(self.floor_log2(), n));

        let mut blocks_done: u64 = 0; // number of fully-failed blocks
        loop {
            if blocks_done.saturating_mul(t) >= n {
                return n; // Geo(p) > n already
            }
            if self.ber_pow_one_minus(rng, t) {
                blocks_done += 1;
                continue;
            }
            // Success somewhere in block (blocks_done·t, blocks_done·t + t].
            // Conditional position R: Pr[R = r] ∝ (1−p)^{r−1}, r ∈ [1, t].
            let r = loop {
                let cand = (rng.next_u64() & (t - 1)) + 1;
                if self.ber_pow_one_minus(rng, cand - 1) {
                    break cand;
                }
            };
            return (blocks_done * t + r).min(n);
        }
    }
}

/// Draws `Ber((1−p)^k)` exactly for an exact rational `p ∈ (0, 1)` — one
/// [`GeoDesc`] for the call, then [`GeoDesc::ber_pow_one_minus`].
pub fn ber_pow_one_minus<R: RngCore>(rng: &mut R, p: &Ratio, k: u64) -> bool {
    if k == 0 {
        return true;
    }
    GeoDesc::from_ratio(p, k.saturating_add(1)).ber_pow_one_minus(rng, k)
}

/// Draws `B-Geo(p, n) = min{n, Geo(p)}` exactly in O(1) expected time.
///
/// Requires `0 < p < 1` (as an exact rational) and `1 ≤ n < 2^63`. Builds
/// one [`GeoDesc`] for the call; callers drawing many variates at one `p`
/// build it once themselves and call [`GeoDesc::bgeo`].
pub fn bgeo<R: RngCore>(rng: &mut R, p: &Ratio, n: u64) -> u64 {
    GeoDesc::from_ratio(p, n).bgeo(rng, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::chi_square;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bgeo_pmf(p: f64, n: u64) -> Vec<f64> {
        (1..=n)
            .map(|i| {
                if i < n {
                    p * (1.0 - p).powi(i as i32 - 1)
                } else {
                    (1.0 - p).powi(n as i32 - 1)
                }
            })
            .collect()
    }

    fn run_chi_square(p: Ratio, pf: f64, n: u64, trials: u64, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            let v = bgeo(&mut rng, &p, n);
            assert!((1..=n).contains(&v));
            counts[v as usize - 1] += 1;
        }
        let probs = bgeo_pmf(pf, n);
        chi_square(&counts, &probs, trials)
    }

    #[test]
    fn pmf_large_p() {
        // p = 1/2, n = 10: 9 df; χ² < 33.7 is the 0.9999 quantile.
        let s = run_chi_square(Ratio::from_u64s(1, 2), 0.5, 10, 200_000, 1);
        assert!(s < 33.7, "chi2 = {s}");
    }

    #[test]
    fn pmf_small_p() {
        // p = 1/50, n = 8: exercises the capped-block path (t ≥ n).
        let s = run_chi_square(Ratio::from_u64s(1, 50), 0.02, 8, 200_000, 2);
        assert!(s < 29.9, "chi2 = {s}"); // df=7, 0.9999 quantile ≈ 29.9
    }

    #[test]
    fn pmf_moderate_p_long_range() {
        // p = 1/10, n = 60: multiple blocks of length 16.
        let s = run_chi_square(Ratio::from_u64s(1, 10), 0.1, 60, 300_000, 3);
        assert!(s < 120.0, "chi2 = {s}"); // df=59, 0.9999 quantile ≈ 104; slack
    }

    #[test]
    fn tiny_p_always_caps() {
        // p = 2^-60: Pr[uncapped] ≈ n·p ≈ 2^-50 — must return n every time.
        let p = Ratio::new(bignum::BigUint::one(), bignum::BigUint::pow2(60));
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..500 {
            assert_eq!(bgeo(&mut rng, &p, 1024), 1024);
        }
    }

    #[test]
    fn n_one_is_constant() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(bgeo(&mut rng, &Ratio::from_u64s(1, 3), 1), 1);
        }
    }

    #[test]
    fn expected_words_constant_across_regimes() {
        use crate::rng::CountingRng;
        // Words per variate must not grow with n or 1/p.
        let mut per = Vec::new();
        for (num, den, n) in [(1u64, 4u64, 16u64), (1, 1 << 20, 1 << 16), (1, 1 << 30, 1 << 30)] {
            let p = Ratio::from_u64s(num, den);
            let mut rng = CountingRng::new(SmallRng::seed_from_u64(6));
            let trials = 2_000;
            for _ in 0..trials {
                let _ = bgeo(&mut rng, &p, n);
            }
            per.push(rng.words_consumed() as f64 / trials as f64);
        }
        for (i, w) in per.iter().enumerate() {
            assert!(*w < 24.0, "regime {i}: words/variate = {w}");
        }
    }

    #[test]
    fn mean_matches_geometric() {
        // E[B-Geo(p, n)] = (1 − (1−p)^n)/p; check p = 1/8, n = 200.
        let p = Ratio::from_u64s(1, 8);
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 200_000u64;
        let sum: u64 = (0..trials).map(|_| bgeo(&mut rng, &p, 200)).sum();
        let mean = sum as f64 / trials as f64;
        let expect = (1.0 - 0.875f64.powi(200)) / 0.125;
        // σ of mean ≈ sqrt(Var/n) ≈ 7.4/447 ≈ 0.017
        assert!((mean - expect).abs() < 0.1, "mean={mean} expect={expect}");
    }
}
