//! Certified-bracket oracles for the probabilities the DPSS algorithms need.
//!
//! Three families (paper §3.1):
//! - type (ii): `p* = (1 − (1−q)^n) / (n·q)` with rational `q`, `n·q ≤ 1`
//!   ([`PStarOracle`], Lemma 3.3);
//! - type (iii): `1/(2p*)` ([`HalfRecipPStarOracle`], Lemma 3.4);
//! - powers `(1 − p)^k` for rational `p` ([`PowOneMinusOracle`]), needed by the
//!   bounded-geometric block decomposition (Fact 3) and by Case 2.2 of the
//!   truncated-geometric algorithm (Theorem 1.3).
//!
//! Every oracle evaluates its expression in dyadic **interval arithmetic**
//! ([`bignum::Interval`]) at a working precision chosen from a static error
//! estimate, then *verifies* the certified width and retries with doubled
//! precision if the bracket is too wide. Correctness therefore never depends
//! on the error estimate; only speed does. This realizes the poly(i)-time
//! *i*-bit approximations of Lemmas 3.3 and 3.4.

use crate::fast::{ber_bits_with, fast_path_enabled, mul_down, mul_up, Bits64};
use crate::geo::{u64_f64_bounds, GeoDesc};
use crate::lazy::{ber_oracle, ber_oracle_from_word, ProbOracle};
use bignum::{BigUint, Interval, Ratio};
use rand::RngCore;
use wordram::bits::ceil_log2_u64;

/// Largest precision the retry loop will attempt before panicking; reaching it
/// would indicate a bug in the static error analysis, not bad luck.
const MAX_PREC: u64 = 1 << 20;

fn bracket_with_retry(bits: u64, mut prec: u64, eval: impl Fn(u64) -> Interval) -> Interval {
    loop {
        let iv = eval(prec);
        if iv.width_le_pow2(-(bits as i64)) {
            return iv;
        }
        prec *= 2;
        assert!(prec <= MAX_PREC, "interval evaluation failed to converge");
    }
}

/// Oracle for `(1 − num/den)^k`, `0 ≤ num ≤ den`, any `k ≥ 0`.
#[derive(Debug, Clone)]
pub struct PowOneMinusOracle {
    base_num: BigUint, // = den − num
    den: BigUint,
    k: u64,
}

impl PowOneMinusOracle {
    /// Creates the oracle for `(1 − p)^k` with `p = num/den ∈ [0, 1]`.
    pub fn new(num: &BigUint, den: &BigUint, k: u64) -> Self {
        assert!(!den.is_zero());
        assert!(num.cmp(den) != std::cmp::Ordering::Greater, "p must be ≤ 1");
        PowOneMinusOracle { base_num: den.sub(num), den: den.clone(), k }
    }

    /// Creates the oracle for `(1 − p)^k` from a [`Ratio`].
    pub fn from_ratio(p: &Ratio, k: u64) -> Self {
        Self::new(p.num(), p.den(), k)
    }
}

impl ProbOracle for PowOneMinusOracle {
    fn bracket(&mut self, bits: u64) -> Interval {
        if self.k == 0 {
            return Interval::from_u64(1, bits + 2);
        }
        // Relative error after ≤ 2·log2(k) interval multiplications of values
        // in (0,1] at precision P is ≈ (2 log2 k + 1)·2^{1−P}; the value is
        // ≤ 1, so absolute error is bounded by the same. Add slack.
        let guard = 2 * ceil_log2_u64(self.k + 2) as u64 + 8;
        let start = bits + guard;
        bracket_with_retry(bits, start, |p| {
            Interval::from_ratio(&self.base_num, &self.den, p).pow(self.k)
        })
    }
}

/// Oracle for `p* = (1 − (1−q)^n)/(n·q)` with rational `q = num/den`,
/// `n ≥ 1`, and `n·q ≤ 1` (type (ii), Lemma 3.3).
#[derive(Debug, Clone)]
pub struct PStarOracle {
    q_num: BigUint,
    q_den: BigUint,
    n: u64,
    /// `−⌊log2(n·q)⌋ ≥ 0`: extra precision needed because the cancellation in
    /// `1 − (1−q)^n` loses ≈ log2(1/(nq)) leading bits.
    cancel_bits: u64,
}

impl PStarOracle {
    /// Creates the oracle; panics unless `0 < q`, `n ≥ 1`, `n·q ≤ 1`.
    pub fn new(q: &Ratio, n: u64) -> Self {
        assert!(n >= 1);
        assert!(!q.is_zero(), "q must be positive");
        let nq = q.mul_big(&BigUint::from_u64(n));
        assert!(nq.cmp_int(1) != std::cmp::Ordering::Greater, "p* requires n·q ≤ 1");
        let cancel_bits = (-nq.floor_log2()).max(0) as u64;
        PStarOracle { q_num: q.num().clone(), q_den: q.den().clone(), n, cancel_bits }
    }

    fn eval(&self, prec: u64) -> Interval {
        let one = Interval::from_u64(1, prec);
        let q = Interval::from_ratio(&self.q_num, &self.q_den, prec);
        let pow = one.sub(&q).pow(self.n);
        let numerator = one.sub(&pow); // 1 − (1−q)^n ∈ [0, n·q]
        let nq_num = self.q_num.mul_u64(self.n);
        let denominator = Interval::from_ratio(&nq_num, &self.q_den, prec);
        numerator.div(&denominator)
    }
}

impl ProbOracle for PStarOracle {
    fn bracket(&mut self, bits: u64) -> Interval {
        let guard = 2 * ceil_log2_u64(self.n + 2) as u64 + self.cancel_bits + 16;
        bracket_with_retry(bits, bits + guard, |p| self.eval(p))
    }
}

impl GeoDesc<'_> {
    /// Certified `f64` bracket of `p* = (1 − (1−p)^n)/(n·p)` (the type (ii)
    /// probability), from the descriptor's words only. Degenerate inputs
    /// (underflowing `n·p`) return the trivial `[0, 1]`, which routes the
    /// caller to the exact oracle.
    pub(crate) fn pstar_bounds(&self, n: u64) -> (f64, f64) {
        let (pow_lo, pow_hi) = self.pow_f64_bounds(n);
        let num_lo = (1.0 - pow_hi).next_down().max(0.0);
        let num_hi = (1.0 - pow_lo).next_up().clamp(0.0, 1.0);
        let (q_lo, q_hi) = self.p_f64_bounds();
        let (n_lo, n_hi) = u64_f64_bounds(n);
        let den_lo = mul_down(n_lo, q_lo);
        let den_hi = mul_up(n_hi, q_hi);
        if den_lo <= 0.0 || !den_hi.is_finite() {
            return (0.0, 1.0);
        }
        let lo = (num_lo / den_hi).next_down().max(0.0);
        let hi = (num_hi / den_lo).next_up().min(1.0);
        (lo, hi)
    }

    /// Draws `Ber(p*)` for `p* = (1−(1−p)^n)/(n·p)` — the promising-bucket
    /// coin of Theorem 3.1 — through the two-sided fast path: one uniform
    /// word against [`GeoDesc::pstar_bounds`], with the interval oracle
    /// (conditioned on the drawn word) only inside the ulp-wide sliver.
    /// Requires `n ≥ 1` and `n·p ≤ 1` ([`PStarOracle::new`]); the fast
    /// branch never even constructs the oracle.
    pub fn ber_pstar<R: RngCore>(&self, rng: &mut R, n: u64) -> bool {
        if fast_path_enabled() {
            let (lo, hi) = self.pstar_bounds(n);
            return ber_bits_with(rng, &Bits64::from_f64_bounds(lo, hi), |rng, u| {
                let mut oracle = PStarOracle::new(self.ratio(), n);
                ber_oracle_from_word(rng, &mut oracle, u)
            });
        }
        let mut oracle = PStarOracle::new(self.ratio(), n);
        ber_oracle(rng, &mut oracle)
    }
}

/// Draws `Ber(p*)` for `p* = (1−(1−q)^n)/(n·q)` — one [`GeoDesc`] for the
/// call, then [`GeoDesc::ber_pstar`]. Same preconditions as
/// [`PStarOracle::new`], with `q < 1`.
pub fn ber_pstar<R: RngCore>(rng: &mut R, q: &Ratio, n: u64) -> bool {
    GeoDesc::from_ratio(q, n.saturating_add(1)).ber_pstar(rng, n)
}

/// Oracle for `1/(2·p*)` (type (iii), Lemma 3.4). Well-defined because
/// `p* ≥ 1 − 1/e > 1/2` whenever `n·q ≤ 1`, so the value lies in `(1/2, 1)`.
#[derive(Debug, Clone)]
pub struct HalfRecipPStarOracle {
    inner: PStarOracle,
}

impl HalfRecipPStarOracle {
    /// Creates the oracle; same preconditions as [`PStarOracle::new`].
    pub fn new(q: &Ratio, n: u64) -> Self {
        HalfRecipPStarOracle { inner: PStarOracle::new(q, n) }
    }
}

impl ProbOracle for HalfRecipPStarOracle {
    fn bracket(&mut self, bits: u64) -> Interval {
        let guard = 2 * ceil_log2_u64(self.inner.n + 2) as u64 + self.inner.cancel_bits + 20;
        bracket_with_retry(bits, bits + guard, |p| {
            let pstar = self.inner.eval(p);
            if pstar.lo().is_zero() {
                // Not yet separated from zero: return the trivial bracket
                // [0, 1] so the retry loop raises precision.
                return Interval::hull(bignum::Dyadic::zero(), bignum::Dyadic::one(), p);
            }
            let one = Interval::from_u64(1, p);
            let two = Interval::from_u64(2, p);
            one.div(&pstar.mul(&two))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn assert_bracket_contains(iv: &Interval, truth: f64, label: &str) {
        let lo = iv.lo().to_f64_lossy();
        let hi = iv.hi().to_f64_lossy();
        assert!(
            lo <= truth + 1e-12 && truth <= hi + 1e-12,
            "{label}: [{lo}, {hi}] should contain {truth}"
        );
    }

    #[test]
    fn pow_one_minus_brackets_truth() {
        // (1 − 1/7)^20
        let mut o = PowOneMinusOracle::new(&BigUint::from_u64(1), &BigUint::from_u64(7), 20);
        let iv = o.bracket(60);
        assert!(iv.width_le_pow2(-60));
        assert_bracket_contains(&iv, (6f64 / 7f64).powi(20), "pow");
    }

    #[test]
    fn pow_one_minus_k_zero_and_huge_k() {
        let mut o0 = PowOneMinusOracle::new(&BigUint::from_u64(1), &BigUint::from_u64(2), 0);
        let iv = o0.bracket(32);
        assert_eq!(iv.lo().cmp(iv.hi()), Ordering::Equal);
        // (1 − 2^-40)^(2^39) ≈ e^{-1/2}
        let mut oh = PowOneMinusOracle::new(&BigUint::from_u64(1), &BigUint::pow2(40), 1u64 << 39);
        let iv = oh.bracket(50);
        assert!(iv.width_le_pow2(-50));
        assert_bracket_contains(&iv, (-0.5f64).exp(), "huge-k pow");
    }

    #[test]
    fn pstar_brackets_truth() {
        // q = 1/100, n = 50 (nq = 1/2): p* = (1 − 0.99^50)/0.5
        let q = Ratio::from_u64s(1, 100);
        let mut o = PStarOracle::new(&q, 50);
        let iv = o.bracket(60);
        assert!(iv.width_le_pow2(-60));
        let truth = (1.0 - 0.99f64.powi(50)) / 0.5;
        assert_bracket_contains(&iv, truth, "p*");
    }

    #[test]
    fn pstar_tiny_nq_cancellation() {
        // q = 1/2^40, n = 4: heavy cancellation; p* ≈ 1 − 3/2·2^-40.
        let q = Ratio::new(BigUint::one(), BigUint::pow2(40));
        let mut o = PStarOracle::new(&q, 4);
        let iv = o.bracket(80);
        assert!(iv.width_le_pow2(-80));
        // p* ∈ (1 − 2^-38, 1)
        assert!(iv.lo().to_f64_lossy() > 1.0 - 2f64.powi(-38));
        assert!(iv.hi().to_f64_lossy() <= 1.0 + 1e-12);
    }

    #[test]
    fn half_recip_pstar_in_half_one() {
        let q = Ratio::from_u64s(1, 100);
        for n in [1u64, 10, 50, 100] {
            let mut o = HalfRecipPStarOracle::new(&q, n);
            let iv = o.bracket(50);
            assert!(iv.width_le_pow2(-50), "n={n}");
            let p_star = {
                let q = 0.01f64;
                (1.0 - (1.0 - q).powi(n as i32)) / (n as f64 * q)
            };
            assert_bracket_contains(&iv, 1.0 / (2.0 * p_star), &format!("n={n}"));
            assert!(iv.lo().to_f64_lossy() >= 0.5 - 1e-9);
            assert!(iv.hi().to_f64_lossy() <= 1.0 + 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn pstar_rejects_nq_above_one() {
        let q = Ratio::from_u64s(1, 3);
        let _ = PStarOracle::new(&q, 4);
    }
}
