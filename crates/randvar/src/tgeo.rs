//! Truncated geometric variates `T-Geo(p, n)` in O(1) expected time —
//! **Theorem 1.3**, the paper's third main result.
//!
//! `T-Geo(p, n)` takes value `i ∈ {1, …, n}` with probability
//! `p(1−p)^{i−1} / (1 − (1−p)^n)` — the distribution of the *smallest sampled
//! index* when every index in `[1, n]` is sampled independently with
//! probability `p`, conditioned on at least one being sampled.
//!
//! The three cases of the paper's proof:
//! - **Case 1** (`n ≤ 2`): closed form; `n = 2` reduces to `Ber((1−p)/(2−p)) + 1`.
//! - **Case 2.1** (`n ≥ 3`, `n·p ≥ 1`): rejection from `B-Geo(p, n+1)` until the
//!   value lands in `[1, n]`; each trial succeeds w.p. `1 − (1−p)^n > 1 − 1/e`.
//! - **Case 2.2** (`n ≥ 3`, `n·p < 1`): uniform proposal on `[1, n]` accepted by
//!   `Ber((1−p)^{i−1})`; the output is exactly `∝ (1−p)^{i−1}` and the
//!   per-trial acceptance rate is `Σ_i (1−p)^{i−1}/n = p* ≥ 1 − 1/e`, so O(1)
//!   expected trials.
//!
//! **Erratum note.** The paper's Case 2.2 pseudocode scans `[1, n]` with
//! `B-Geo(2/n, n+1)` strides and returns the *first* index accepted by
//! `Ber((1−p)^{i−1})` and `Ber(1/(2p*))`. Each index's acceptance event indeed
//! fires with marginal probability exactly `pmf(i)` (the paper's correctness
//! computation), but returning the *first* firing index distributes as
//! `pmf(i)·Π_{j<i}(1−pmf(j))` — biased toward small `i` by up to a factor `e`.
//! [`tgeo_paper_literal`] reproduces that pseudocode verbatim; the V2/E6
//! experiments demonstrate the bias empirically. [`tgeo`] uses the exact
//! rejection scheme above, which keeps every bound claimed by Theorem 1.3.

use crate::bernoulli::{ber_rational_from_word, ber_rational_parts};
use crate::fast::{ber_bits_with, fast_path_enabled};
use crate::geo::GeoDesc;
use crate::lazy::ber_oracle;
use crate::oracles::HalfRecipPStarOracle;
use crate::rng::uniform_below;
use bignum::{BigUint, Ratio};
use rand::RngCore;

/// Exact parts of `(1−p)/(2−p) = (b−a)/(2b−a)` for `p = a/b`.
fn n2_parts(p: &Ratio) -> (BigUint, BigUint) {
    (p.den().sub(p.num()), p.den().mul_u64(2).sub(p.num()))
}

impl GeoDesc<'_> {
    /// Case 1, `n = 2`: `Ber((1−p)/(2−p))` picks index 2.
    fn tgeo_two<R: RngCore>(&self, rng: &mut R) -> u64 {
        let second = if fast_path_enabled() {
            ber_bits_with(rng, &self.n2_bits(), |rng, u| {
                let (num, den) = n2_parts(self.ratio());
                ber_rational_from_word(rng, &num, &den, u)
            })
        } else {
            let (num, den) = n2_parts(self.ratio());
            ber_rational_parts(rng, &num, &den)
        };
        if second {
            2
        } else {
            1
        }
    }

    /// Draws `T-Geo(p, n)` exactly in O(1) expected time (Theorem 1.3).
    ///
    /// Requires `1 ≤ n < 2^62`.
    pub fn tgeo<R: RngCore>(&self, rng: &mut R, n: u64) -> u64 {
        assert!((1..(1 << 62)).contains(&n), "tgeo range out of bounds");

        // Case 1: n ≤ 2.
        if n == 1 {
            return 1;
        }
        if n == 2 {
            return self.tgeo_two(rng);
        }

        if self.np_at_least_one(n) {
            // Case 2.1: n·p ≥ 1 — rejection from B-Geo(p, n+1).
            loop {
                let i = self.bgeo(rng, n + 1);
                if i <= n {
                    return i;
                }
            }
        }

        // Case 2.2: n·p < 1 — uniform proposal + Ber((1−p)^{i−1}) acceptance.
        // P[return i] ∝ (1/n)·(1−p)^{i−1} ∝ pmf(i); acceptance rate p* ≥ 1 − 1/e.
        loop {
            let i = 1 + uniform_below(rng, n);
            if self.ber_pow_one_minus(rng, i - 1) {
                return i;
            }
        }
    }
}

/// Draws `T-Geo(p, n)` exactly in O(1) expected time (Theorem 1.3).
///
/// Requires `0 < p < 1` (exact rational) and `1 ≤ n < 2^62`. Builds one
/// [`GeoDesc`] for the call.
pub fn tgeo<R: RngCore>(rng: &mut R, p: &Ratio, n: u64) -> u64 {
    GeoDesc::from_ratio(p, n.saturating_add(1)).tgeo(rng, n)
}

/// The paper's Case 2.2 pseudocode, verbatim — **biased**; kept only to
/// demonstrate the erratum (see module docs). Cases 1 and 2.1 are unchanged.
pub fn tgeo_paper_literal<R: RngCore>(rng: &mut R, p: &Ratio, n: u64) -> u64 {
    assert!((1..(1 << 62)).contains(&n), "tgeo range out of bounds");
    let d = GeoDesc::from_ratio(p, n.saturating_add(1));
    if n <= 2 || d.np_at_least_one(n) {
        return d.tgeo(rng, n);
    }
    let stride = Ratio::from_u64s(2, n); // n ≥ 3 so 2/n < 1
    let stride = GeoDesc::from_ratio(&stride, n + 1);
    let mut final_accept = HalfRecipPStarOracle::new(p, n);
    loop {
        let mut i: u64 = 0;
        while i <= n {
            i += stride.bgeo(rng, n + 1);
            if i <= n && d.ber_pow_one_minus(rng, i - 1) && ber_oracle(rng, &mut final_accept) {
                return i;
            }
        }
        // Start over from i = 0.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::chi_square;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tgeo_pmf(p: f64, n: u64) -> Vec<f64> {
        let z = 1.0 - (1.0 - p).powi(n as i32);
        (1..=n).map(|i| p * (1.0 - p).powi(i as i32 - 1) / z).collect()
    }

    fn run_chi_square(p: Ratio, pf: f64, n: u64, trials: u64, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            let v = tgeo(&mut rng, &p, n);
            assert!((1..=n).contains(&v), "out of range: {v}");
            counts[v as usize - 1] += 1;
        }
        chi_square(&counts, &tgeo_pmf(pf, n), trials)
    }

    #[test]
    fn case1_n1() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(tgeo(&mut rng, &Ratio::from_u64s(1, 7), 1), 1);
        }
    }

    #[test]
    fn case1_n2_distribution() {
        // p = 1/3: Pr[1] = 1/(2−p) = 3/5, Pr[2] = 2/5.
        let mut rng = SmallRng::seed_from_u64(2);
        let trials = 200_000;
        let mut ones = 0u64;
        for _ in 0..trials {
            if tgeo(&mut rng, &Ratio::from_u64s(1, 3), 2) == 1 {
                ones += 1;
            }
        }
        let f = ones as f64 / trials as f64;
        assert!((f - 0.6).abs() < 0.006, "Pr[1] = {f}");
    }

    #[test]
    fn case21_np_ge_1() {
        // p = 1/2, n = 10.
        let s = run_chi_square(Ratio::from_u64s(1, 2), 0.5, 10, 200_000, 3);
        assert!(s < 33.7, "chi2 = {s}"); // df=9
    }

    #[test]
    fn case21_boundary_np_equals_1() {
        // p = 1/10, n = 10 (np = 1 exactly → Case 2.1).
        let s = run_chi_square(Ratio::from_u64s(1, 10), 0.1, 10, 200_000, 4);
        assert!(s < 33.7, "chi2 = {s}");
    }

    #[test]
    fn case22_np_lt_1() {
        // p = 1/25, n = 10 (np = 0.4 → Case 2.2, the novel algorithm).
        let s = run_chi_square(Ratio::from_u64s(1, 25), 0.04, 10, 300_000, 5);
        assert!(s < 33.7, "chi2 = {s}");
    }

    #[test]
    fn case22_very_small_np() {
        // p = 1/10000, n = 20: near-uniform conditional distribution.
        let s = run_chi_square(Ratio::from_u64s(1, 10_000), 1e-4, 20, 300_000, 6);
        assert!(s < 56.0, "chi2 = {s}"); // df=19, 0.99999 quantile ≈ 56
    }

    #[test]
    fn case22_larger_n() {
        // p = 1/1000, n = 100.
        let s = run_chi_square(Ratio::from_u64s(1, 1000), 1e-3, 100, 400_000, 7);
        assert!(s < 190.0, "chi2 = {s}"); // df=99 generous bound
    }

    #[test]
    fn expected_words_constant_across_regimes() {
        use crate::rng::CountingRng;
        // O(1) expected randomness regardless of n and p — Theorem 1.3's bound.
        for (num, den, n, seed) in [
            (1u64, 2u64, 100u64, 8u64),
            (1, 1 << 20, 1 << 10, 9),
            (1, 1 << 40, 1 << 20, 10),
            (1, 1 << 50, 1 << 30, 11),
        ] {
            let p = Ratio::from_u64s(num, den);
            let mut rng = CountingRng::new(SmallRng::seed_from_u64(seed));
            let trials = 1_000;
            for _ in 0..trials {
                let _ = tgeo(&mut rng, &p, n);
            }
            let per = rng.words_consumed() as f64 / trials as f64;
            assert!(per < 80.0, "p=1/{den}, n={n}: words/variate = {per}");
        }
    }

    #[test]
    fn paper_literal_case22_is_biased_toward_small_indices() {
        // Demonstrates the erratum: the paper's Case 2.2 pseudocode returns
        // index 1 far more often than pmf(1). Theory: P[1] ≈ pmf(1)/(1−Π(1−pmf_j)).
        let p = Ratio::from_u64s(1, 25); // n=10, np=0.4 → Case 2.2
        let n = 10u64;
        let mut rng = SmallRng::seed_from_u64(99);
        let trials = 60_000u64;
        let mut ones = 0u64;
        for _ in 0..trials {
            if tgeo_paper_literal(&mut rng, &p, n) == 1 {
                ones += 1;
            }
        }
        let pmf1 = tgeo_pmf(0.04, n)[0];
        let z = crate::stats::binomial_z(ones, trials, pmf1);
        assert!(
            z > 10.0,
            "expected strong bias toward index 1; z-score = {z}, freq = {}",
            ones as f64 / trials as f64
        );
    }

    #[test]
    fn paper_literal_matches_exact_in_cases_1_and_21() {
        // The literal variant only differs in Case 2.2.
        let mut rng = SmallRng::seed_from_u64(100);
        let p = Ratio::from_u64s(1, 2);
        let trials = 100_000;
        let mut counts = vec![0u64; 6];
        for _ in 0..trials {
            counts[tgeo_paper_literal(&mut rng, &p, 6) as usize - 1] += 1;
        }
        let s = chi_square(&counts, &tgeo_pmf(0.5, 6), trials);
        assert!(s < 25.7, "chi2 = {s}"); // df=5
    }

    #[test]
    fn huge_range_tiny_p_stays_in_range() {
        let p = Ratio::new(bignum::BigUint::one(), bignum::BigUint::pow2(45));
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..50 {
            let v = tgeo(&mut rng, &p, 1 << 40);
            assert!((1..=1 << 40).contains(&v));
        }
    }
}
