//! Exact non-negative rationals with multi-word numerator/denominator.
//!
//! The paper's query parameters `(α, β)`, the parameterized total weight
//! `W_S(α,β)`, and every acceptance probability in the HALT query algorithms are
//! non-negative rationals whose numerator and denominator fit in O(1) words
//! (§2.2). [`Ratio`] implements them exactly; `floor_log2`/`ceil_log2` implement
//! Claim 4.3.

use crate::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// An exact non-negative rational number `num / den` with `den != 0`.
///
/// Ratios are *not* kept normalized by default (normalization is an explicit
/// [`Ratio::reduce`]); all operations are exact regardless.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ratio {
    num: BigUint,
    den: BigUint,
}

impl Ratio {
    /// Creates `num / den`. Panics if `den == 0`.
    pub fn new(num: BigUint, den: BigUint) -> Self {
        assert!(!den.is_zero(), "Ratio with zero denominator");
        Ratio { num, den }
    }

    /// Creates `num / den` from machine integers. Panics if `den == 0`.
    pub fn from_u64s(num: u64, den: u64) -> Self {
        Self::new(BigUint::from_u64(num), BigUint::from_u64(den))
    }

    /// Creates `num / den` from 128-bit integers. Panics if `den == 0`.
    pub fn from_u128s(num: u128, den: u128) -> Self {
        Self::new(BigUint::from_u128(num), BigUint::from_u128(den))
    }

    /// The integer `v`.
    pub fn from_int(v: u64) -> Self {
        Ratio { num: BigUint::from_u64(v), den: BigUint::one() }
    }

    /// 0.
    pub fn zero() -> Self {
        Self::from_int(0)
    }

    /// 1.
    pub fn one() -> Self {
        Self::from_int(1)
    }

    /// Numerator.
    #[inline]
    pub fn num(&self) -> &BigUint {
        &self.num
    }

    /// Denominator (never zero).
    #[inline]
    pub fn den(&self) -> &BigUint {
        &self.den
    }

    /// `true` iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Reduces to lowest terms.
    pub fn reduce(&self) -> Self {
        if self.num.is_zero() {
            return Self::zero();
        }
        let g = self.num.gcd(&self.den);
        if g.is_one() {
            return self.clone();
        }
        Ratio { num: self.num.div_rem(&g).0, den: self.den.div_rem(&g).0 }
    }

    /// Exact addition.
    pub fn add(&self, other: &Self) -> Self {
        Ratio {
            num: self.num.mul(&other.den).add(&other.num.mul(&self.den)),
            den: self.den.mul(&other.den),
        }
    }

    /// Exact subtraction; panics if the result would be negative.
    pub fn sub(&self, other: &Self) -> Self {
        let a = self.num.mul(&other.den);
        let b = other.num.mul(&self.den);
        Ratio { num: a.sub(&b), den: self.den.mul(&other.den) }
    }

    /// Exact multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        Ratio { num: self.num.mul(&other.num), den: self.den.mul(&other.den) }
    }

    /// Multiplication by a [`BigUint`].
    pub fn mul_big(&self, v: &BigUint) -> Self {
        Ratio { num: self.num.mul(v), den: self.den.clone() }
    }

    /// Exact division; panics if `other == 0`.
    pub fn div(&self, other: &Self) -> Self {
        assert!(!other.is_zero(), "Ratio division by zero");
        Ratio { num: self.num.mul(&other.den), den: self.den.mul(&other.num) }
    }

    /// Reciprocal; panics if zero.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "Ratio::recip of zero");
        Ratio { num: self.den.clone(), den: self.num.clone() }
    }

    /// Exact comparison (cross multiplication).
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, other: &Self) -> Ordering {
        self.num.mul(&other.den).cmp(&other.num.mul(&self.den))
    }

    /// Compares with the integer `v`.
    pub fn cmp_int(&self, v: u64) -> Ordering {
        self.num.cmp(&self.den.mul_u64(v))
    }

    /// Compares with `2^k` for `k ≥ 0`.
    pub fn cmp_pow2(&self, k: u64) -> Ordering {
        self.num.cmp(&self.den.shl(k))
    }

    /// Compares with `2^k` for any integer `k` (negative allowed).
    pub fn cmp_pow2_signed(&self, k: i64) -> Ordering {
        if k >= 0 {
            self.cmp_pow2(k as u64)
        } else {
            self.num.shl((-k) as u64).cmp(&self.den)
        }
    }

    /// `min(self, 1)` — the truncation used by `p_x(α,β)`.
    pub fn min_one(&self) -> Self {
        if self.cmp_int(1) == Ordering::Greater {
            Self::one()
        } else {
            self.clone()
        }
    }

    /// `⌊log2(self)⌋` (Claim 4.3). Panics if zero.
    ///
    /// Works in O(1) word operations: compare the candidate derived from the
    /// bit lengths of numerator and denominator, then adjust by at most one.
    pub fn floor_log2(&self) -> i64 {
        assert!(!self.is_zero(), "log2 of zero");
        let a = self.num.bit_len() as i64;
        let b = self.den.bit_len() as i64;
        let k0 = a - b; // floor_log2 ∈ {k0 - 1, k0}
        if self.cmp_pow2_signed(k0) == Ordering::Less {
            k0 - 1
        } else {
            k0
        }
    }

    /// `⌈log2(self)⌉` (Claim 4.3). Panics if zero.
    pub fn ceil_log2(&self) -> i64 {
        let f = self.floor_log2();
        if self.cmp_pow2_signed(f) == Ordering::Equal {
            f
        } else {
            f + 1
        }
    }

    /// Lossy `f64` value (diagnostics only).
    pub fn to_f64_lossy(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // Scale to keep both operands in f64 range.
        let shift = (self.num.bit_len() as i64 - 900).max(0).max(self.den.bit_len() as i64 - 900);
        let n = self.num.shr(shift as u64).to_f64_lossy();
        let d = self.den.shr(shift as u64).to_f64_lossy();
        n / d
    }

    /// `⌊self⌋` as a `BigUint`.
    pub fn floor(&self) -> BigUint {
        self.num.div_rem(&self.den).0
    }

    /// The `(num, den)` pair as machine `u128`s when both fit — the "u128
    /// fast form" that lets callers drop to word arithmetic for O(1)-word
    /// rationals. Returns `None` if either part needs more than two words.
    pub fn to_u128_parts(&self) -> Option<(u128, u128)> {
        Some((self.num.to_u128()?, self.den.to_u128()?))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(Ord::cmp(self, other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        Ratio::cmp(self, other)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u64, d: u64) -> Ratio {
        Ratio::from_u64s(n, d)
    }

    #[test]
    fn arithmetic() {
        let x = r(1, 3).add(&r(1, 6));
        assert_eq!(x.reduce(), r(1, 2).reduce());
        assert_eq!(r(3, 4).mul(&r(2, 3)).reduce(), r(1, 2));
        assert_eq!(r(3, 4).sub(&r(1, 4)).reduce(), r(1, 2));
        assert_eq!(r(3, 4).div(&r(3, 2)).reduce(), r(1, 2));
    }

    #[test]
    fn comparisons() {
        assert_eq!(r(2, 3).cmp(&r(3, 4)), Ordering::Less);
        assert_eq!(r(10, 5).cmp_int(2), Ordering::Equal);
        assert_eq!(r(9, 5).cmp_int(2), Ordering::Less);
        assert_eq!(r(11, 5).cmp_int(2), Ordering::Greater);
        assert_eq!(r(8, 1).cmp_pow2(3), Ordering::Equal);
        assert_eq!(r(1, 8).cmp_pow2_signed(-3), Ordering::Equal);
        assert_eq!(r(1, 9).cmp_pow2_signed(-3), Ordering::Less);
    }

    #[test]
    fn min_one() {
        assert_eq!(r(3, 2).min_one(), Ratio::one());
        assert_eq!(r(2, 3).min_one(), r(2, 3));
        assert_eq!(r(5, 5).min_one(), r(5, 5));
    }

    #[test]
    fn floor_ceil_log2_exact_powers() {
        for k in 0..20i64 {
            let x = Ratio::from_int(1u64 << k);
            assert_eq!(x.floor_log2(), k);
            assert_eq!(x.ceil_log2(), k);
            let inv = r(1, 1u64 << k);
            assert_eq!(inv.floor_log2(), -k);
            assert_eq!(inv.ceil_log2(), -k);
        }
    }

    #[test]
    fn floor_ceil_log2_general() {
        // 5/3 ∈ (2^0, 2^1)
        assert_eq!(r(5, 3).floor_log2(), 0);
        assert_eq!(r(5, 3).ceil_log2(), 1);
        // 7/2 ∈ (2^1, 2^2)
        assert_eq!(r(7, 2).floor_log2(), 1);
        assert_eq!(r(7, 2).ceil_log2(), 2);
        // 1/5 ∈ (2^-3, 2^-2)
        assert_eq!(r(1, 5).floor_log2(), -3);
        assert_eq!(r(1, 5).ceil_log2(), -2);
        // Large cross-check against f64.
        for (n, d) in [(123456789u64, 7u64), (3, 999999937), (1 << 50, 3)] {
            let x = r(n, d);
            let f = (n as f64 / d as f64).log2();
            assert_eq!(x.floor_log2(), f.floor() as i64, "{n}/{d}");
            assert_eq!(x.ceil_log2(), f.ceil() as i64, "{n}/{d}");
        }
    }

    #[test]
    fn floor_of_ratio() {
        assert_eq!(r(7, 2).floor().to_u64().unwrap(), 3);
        assert_eq!(r(8, 2).floor().to_u64().unwrap(), 4);
        assert_eq!(r(1, 2).floor().to_u64().unwrap(), 0);
    }

    #[test]
    fn reduce_big() {
        let x = Ratio::new(BigUint::pow2(100), BigUint::pow2(98).mul_u64(3));
        let red = x.reduce();
        assert_eq!(red.num().to_u64().unwrap(), 4);
        assert_eq!(red.den().to_u64().unwrap(), 3);
    }

    #[test]
    fn recip_and_zero() {
        assert!(Ratio::zero().is_zero());
        assert_eq!(r(2, 5).recip().reduce(), r(5, 2));
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Ratio::from_u64s(1, 0);
    }
}
