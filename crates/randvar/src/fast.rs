//! The exactness-preserving word-RAM fast path for Bernoulli decisions.
//!
//! Every coin in the HALT query algorithms is `Ber(p)` for some exact
//! probability `p`, realized by comparing a lazily-extended uniform bit
//! stream `U ∈ [0, 1)` against the binary expansion of `p`. The observation
//! behind this module (the same one that makes ODSS-style samplers fast) is
//! that the comparison almost always resolves inside the *first* 64-bit word
//! of `U` — and that resolving it there only requires a certified *bracket*
//! of `p`, not `p` itself:
//!
//! - if `u + 1 ≤ ⌊p_lo·2^64⌋` the draw is a **certain accept** (`U < p` no
//!   matter what the remaining bits of `U` or the remaining bits of `p` are);
//! - if `u ≥ ⌈p_hi·2^64⌉` it is a **certain reject**;
//! - otherwise the draw landed in the **sliver** between the two thresholds
//!   and the decision is delegated to the exact machinery ([`crate::ber_rational_from_word`]
//!   / [`crate::ber_oracle_from_word`]) *conditioned on the word already
//!   drawn* — so the output distribution is bit-for-bit identical to the
//!   all-exact implementation, for any bracket.
//!
//! Brackets come from certified `f64` interval arithmetic
//! ([`bignum::Ratio::to_f64_bounds`] plus directed-rounded products), so the
//! sliver is a few ulps wide and the exact fallback runs with probability
//! ≈ 2⁻⁵⁰ per coin: the BigUint multiplies leave the hot path entirely while
//! the sampling law stays exact.
//!
//! [`exact_mode_guard`] suspends the fast path on the current thread (the
//! `force_exact` mode of the samplers); the agreement test suite uses it to
//! check the two implementations against each other.

use rand::RngCore;
use std::cell::Cell;

thread_local! {
    /// Nesting depth of [`exact_mode_guard`]s on this thread.
    static EXACT_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Number of fast decisions that fell through to the exact sliver.
    static SLIVER_HITS: Cell<u64> = const { Cell::new(0) };
}

/// `true` iff fast two-sided decisions are enabled on this thread (no
/// [`exact_mode_guard`] is alive).
#[inline]
pub fn fast_path_enabled() -> bool {
    EXACT_DEPTH.with(|d| d.get()) == 0
}

/// Number of fast decisions on this thread that landed in the uncertainty
/// sliver and were resolved by the exact fallback (diagnostics/tests).
pub fn sliver_hits() -> u64 {
    SLIVER_HITS.with(|c| c.get())
}

/// RAII guard that disables the fast path on the current thread for its
/// lifetime (nestable). While one is alive every variate is generated by the
/// original all-exact code paths — the `force_exact` mode the fast-vs-exact
/// agreement tests compare against.
#[derive(Debug)]
pub struct ExactModeGuard(());

impl Drop for ExactModeGuard {
    fn drop(&mut self) {
        EXACT_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Disables the fast path on this thread until the returned guard is dropped.
pub fn exact_mode_guard() -> ExactModeGuard {
    EXACT_DEPTH.with(|d| d.set(d.get() + 1));
    ExactModeGuard(())
}

/// A two-sided 64-bit threshold bracket of a probability `p`:
/// `lo ≤ p·2^64` and `hi + 1 ≥ p·2^64`.
///
/// Equivalently `lo ≤ ⌊p·2^64⌋ ≤ hi` whenever `p < 1`; a uniform word `u`
/// certainly accepts below `lo`, certainly rejects above `hi`, and lands in
/// the *sliver* in between ([`Bits64::certain`]). With exact thresholds
/// ([`Bits64::from_ratio_parts`]) the sliver is the single word `⌊p·2^64⌋`
/// (probability 2⁻⁶⁴); with `f64`-derived thresholds it is a few ulps wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bits64 {
    lo: u64,
    hi: u64,
}

/// 2^64 as `f64` (exact).
const SCALE_64: f64 = 18446744073709551616.0;

impl Bits64 {
    /// Builds a bracket from certified `f64` probability bounds
    /// `p_lo ≤ p ≤ p_hi` (clamping handles `p_lo < 0`, `p_hi > 1`, and ±∞
    /// conservatively — out-of-range inputs only widen the sliver, never
    /// break exactness).
    pub fn from_f64_bounds(p_lo: f64, p_hi: f64) -> Self {
        debug_assert!(p_lo <= p_hi, "inverted bracket [{p_lo}, {p_hi}]");
        // Scaling by 2^64 is exact; `as u64` truncates toward zero (= floor
        // for non-negatives) and saturates, which keeps both invariants:
        // a saturated `lo` means p_lo·2^64 ≥ u64::MAX, and a saturated `hi`
        // merely disables certain rejection.
        let lo = (p_lo.max(0.0) * SCALE_64) as u64;
        let hi_scaled = p_hi.max(0.0) * SCALE_64;
        let hi = if hi_scaled.is_finite() { hi_scaled.ceil() as u64 } else { u64::MAX };
        Bits64 { lo, hi }
    }

    /// Builds the *exact* bracket of `p = num/den` (one multi-word division;
    /// worthwhile when the bracket is reused across many coins). The sliver
    /// shrinks to the single word `⌊p·2^64⌋`.
    pub fn from_ratio_parts(num: &bignum::BigUint, den: &bignum::BigUint) -> Self {
        assert!(!den.is_zero(), "Bits64 with zero denominator");
        if num.cmp(den) != std::cmp::Ordering::Less {
            // p ≥ 1: certain accept for every u except the (resolved-exactly)
            // top word, which the fallback accepts immediately anyway.
            return Bits64 { lo: u64::MAX, hi: u64::MAX };
        }
        // pss-lint: allow(no-panic-paths) — num < den is asserted on entry, so num·2^64/den < 2^64
        let t = num.shl(64).div_rem(den).0.to_u64().expect("num < den ⟹ quotient < 2^64");
        Bits64 { lo: t, hi: t }
    }

    /// The *exact* bracket of a [`bignum::Ratio`], taking the division-free
    /// u128 fast form when both parts fit in machine words
    /// ([`bignum::Ratio::to_u128_parts`]) and falling back to the multi-word
    /// division of [`Bits64::from_ratio_parts`] otherwise.
    pub fn from_ratio(p: &bignum::Ratio) -> Self {
        if let Some((num, den)) = p.to_u128_parts() {
            if num >= den {
                return Bits64 { lo: u64::MAX, hi: u64::MAX };
            }
            if num < 1 << 64 {
                // num·2^64 fits u128, so ⌊num·2^64/den⌋ is one word division.
                let t = ((num << 64) / den) as u64;
                return Bits64 { lo: t, hi: t };
            }
        }
        Self::from_ratio_parts(p.num(), p.den())
    }

    /// The bracket of `v` from a 63-bit fixed-point bracket
    /// `lo ≤ v·2^63 ≤ hi`: doubling lands on the 64-bit grid (a saturated
    /// `hi` only disables certain rejection).
    pub(crate) fn from_fixed63(lo: u64, hi: u64) -> Self {
        Bits64 { lo: lo.saturating_mul(2), hi: hi.saturating_mul(2) }
    }

    /// The trivial bracket `[0, 1]`: every word is a sliver (exact fallback
    /// always runs). Used to express "no usable bounds".
    pub fn trivial() -> Self {
        Bits64 { lo: 0, hi: u64::MAX }
    }

    /// Widens the bracket by `slack` words on each side (saturating). Test
    /// hook: inflating the sliver makes the exact fallback fire often enough
    /// to measure, without changing the sampled distribution.
    pub fn widened(self, slack: u64) -> Self {
        Bits64 { lo: self.lo.saturating_sub(slack), hi: self.hi.saturating_add(slack) }
    }

    /// The certain-accept threshold word `lo` (tests: an exact bracket's
    /// `lo` is `⌊p·2^64⌋`).
    #[cfg(test)]
    pub(crate) fn lo_word(&self) -> u64 {
        self.lo
    }

    /// The decision an already-drawn word forces whatever the bits after
    /// it: `Some(true)` accept, `Some(false)` reject, `None` when it lands
    /// in the sliver and the exact comparison has to finish the decision.
    #[inline]
    pub fn certain(&self, u: u64) -> Option<bool> {
        if self.lo <= u && u <= self.hi {
            None
        } else {
            Some(u < self.lo)
        }
    }

    /// Debug-only soundness check: asserts the bracket really contains
    /// `⌊(num/den)·2^64⌋` (with `num/den` clamped to 1). Compiled away in
    /// release builds; the query layer calls this next to every fast coin so
    /// the test suite exercises the certification of every bound it builds.
    pub fn debug_validate(&self, num: &bignum::BigUint, den: &bignum::BigUint) {
        if cfg!(debug_assertions) {
            self.debug_validate_threshold(Self::from_ratio_parts(num, den).lo);
        }
    }

    /// [`Bits64::debug_validate`] for a caller that already has the exact
    /// threshold `⌊p·2^64⌋` in a word (power-of-two denominators: a shift,
    /// no multi-word division).
    pub fn debug_validate_threshold(&self, exact: u64) {
        if cfg!(debug_assertions) {
            assert!(
                self.lo <= exact && exact <= self.hi,
                "Bits64 bracket [{}, {}] does not contain exact threshold {exact}",
                self.lo,
                self.hi,
            );
        }
    }
}

/// Draws `Ber(p)` through a precomputed bracket of `p`: one uniform word
/// decides unless it lands in the sliver, where `exact` — which must resolve
/// `[U < p]` *conditioned on the drawn word* (the `*_from_word`
/// continuations) — finishes the decision. The distribution is identical to
/// the all-exact implementation; the exact parts of `p` are only ever
/// materialized inside the closure.
#[inline]
pub fn ber_bits_with<R: RngCore>(
    rng: &mut R,
    bits: &Bits64,
    exact: impl FnOnce(&mut R, u64) -> bool,
) -> bool {
    let u = rng.next_u64();
    decide_word(rng, bits, u, exact)
}

/// [`ber_bits_with`] for a word `u` the caller has already drawn.
#[inline]
pub(crate) fn decide_word<R: RngCore>(
    rng: &mut R,
    bits: &Bits64,
    u: u64,
    exact: impl FnOnce(&mut R, u64) -> bool,
) -> bool {
    match bits.certain(u) {
        Some(accept) => accept,
        None => {
            SLIVER_HITS.with(|c| c.set(c.get() + 1));
            exact(rng, u)
        }
    }
}

/// Draws `Ber(min(1, num/den))` through a precomputed bracket
/// ([`ber_bits_with`] with the exact-rational continuation).
pub fn ber_bits_rational<R: RngCore>(
    rng: &mut R,
    bits: &Bits64,
    num: &bignum::BigUint,
    den: &bignum::BigUint,
) -> bool {
    ber_bits_with(rng, bits, |rng, u| crate::ber_rational_from_word(rng, num, den, u))
}

/// Certified product bound: the largest `f64` known to be `≤ x·y` given
/// `x_lo ≤ x` and `y_lo ≤ y` (non-negative operands).
#[inline]
pub fn mul_down(x_lo: f64, y_lo: f64) -> f64 {
    (x_lo * y_lo).next_down().max(0.0)
}

/// Certified product bound: a `f64` known to be `≥ x·y` given `x ≤ x_hi`,
/// `y ≤ y_hi` (non-negative operands).
#[inline]
pub fn mul_up(x_hi: f64, y_hi: f64) -> f64 {
    let p = x_hi * y_hi;
    if p.is_finite() {
        p.next_up()
    } else {
        f64::INFINITY
    }
}

/// Certified quotient bound: the largest `f64` known to be `≤ x/y` given
/// `x_lo ≤ x` and `y ≤ y_hi` (non-negative numerator, positive denominator).
#[inline]
pub fn div_down(x_lo: f64, y_hi: f64) -> f64 {
    (x_lo / y_hi).next_down().max(0.0)
}

/// Certified quotient bound: a `f64` known to be `≥ x/y` given `x ≤ x_hi`
/// and `y_lo ≤ y` (non-negative numerator, positive denominator).
#[inline]
pub fn div_up(x_hi: f64, y_lo: f64) -> f64 {
    let q = x_hi / y_lo;
    if q.is_finite() {
        q.next_up()
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::{BigUint, Ratio};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_bracket_matches_long_division_word() {
        // p = 1/3: first 64 expansion bits are ⌊2^64/3⌋.
        let b = Bits64::from_ratio_parts(&BigUint::from_u64(1), &BigUint::from_u64(3));
        let t = (u128::from(u64::MAX) + 1) / 3;
        assert_eq!(b.certain(t as u64 - 1), Some(true));
        assert_eq!(b.certain(t as u64 + 1), Some(false));
        assert_eq!(b.certain(t as u64), None);
        // p ≥ 1 never certainly rejects.
        let one = Bits64::from_ratio_parts(&BigUint::from_u64(7), &BigUint::from_u64(5));
        assert_eq!(one.certain(0), Some(true));
        assert_eq!(one.certain(u64::MAX), None);
    }

    #[test]
    fn from_ratio_u128_form_matches_multiword_division() {
        for (a, b) in [(1u64, 3u64), (2, 7), (7, 5), (u64::MAX - 1, u64::MAX), (1, u64::MAX)] {
            let r = Ratio::from_u64s(a, b);
            let parts = Bits64::from_ratio_parts(&BigUint::from_u64(a), &BigUint::from_u64(b));
            assert_eq!(Bits64::from_ratio(&r), parts, "{a}/{b}");
        }
        // Two-word numerators (≥ 2^64) and beyond-u128 parts fall back to the
        // multi-word division.
        for r in [
            Ratio::from_u128s((1 << 100) + 1, 1 << 120),
            Ratio::new(BigUint::pow2(130).add(&BigUint::one()), BigUint::pow2(131)),
        ] {
            assert_eq!(Bits64::from_ratio(&r), Bits64::from_ratio_parts(r.num(), r.den()));
        }
    }

    #[test]
    fn div_bounds_bracket_the_exact_quotient() {
        for (x, y) in [(1.0f64, 3.0f64), (4096.0, 10.0), (0.0, 7.0), (1e-300, 1e300), (64.0, 1.0)] {
            let (lo, hi) = (div_down(x, y), div_up(x, y));
            let q = x / y;
            assert!(lo <= q && q <= hi, "bracket misses {x}/{y}");
            assert!(lo >= 0.0, "negative lower bound for {x}/{y}");
        }
        assert_eq!(div_up(1.0, 0.0), f64::INFINITY);
        assert_eq!(div_down(0.0, 5.0), 0.0);
    }

    #[test]
    fn f64_bracket_contains_exact_threshold() {
        for (a, b) in [(1u64, 3u64), (2, 7), (999, 1000), (1, 1000), (1 << 40, (1 << 62) + 3)] {
            let r = Ratio::from_u64s(a, b);
            let (lo, hi) = r.to_f64_bounds();
            let bits = Bits64::from_f64_bounds(lo, hi);
            bits.debug_validate(&BigUint::from_u64(a), &BigUint::from_u64(b));
        }
    }

    #[test]
    fn widened_sliver_is_exercised_and_distribution_is_preserved() {
        // Inflate the sliver to ≈ 1/16 of the word space: the exact fallback
        // must fire often, and the overall frequency must still match p
        // (the two-sided construction is distribution-preserving for ANY
        // bracket containing p).
        let (a, b) = (2u64, 7u64);
        let (num, den) = (BigUint::from_u64(a), BigUint::from_u64(b));
        let bits = Bits64::from_ratio_parts(&num, &den).widened(1 << 60);
        let mut rng = SmallRng::seed_from_u64(77);
        let before = sliver_hits();
        let trials = 200_000u64;
        let mut hits = 0u64;
        for _ in 0..trials {
            if ber_bits_rational(&mut rng, &bits, &num, &den) {
                hits += 1;
            }
        }
        let fallbacks = sliver_hits() - before;
        // Sliver width 2·2^60/2^64 = 1/8 ⇒ ≈ 25k fallbacks expected.
        assert!(fallbacks > 10_000, "sliver exercised only {fallbacks} times");
        let p = a as f64 / b as f64;
        let z = crate::stats::binomial_z(hits, trials, p);
        assert!(z.abs() < 5.0, "freq drifted: z = {z} (fallbacks = {fallbacks})");
    }

    #[test]
    fn trivial_bracket_always_falls_back_and_stays_exact() {
        let (num, den) = (BigUint::from_u64(3), BigUint::from_u64(8));
        let bits = Bits64::trivial();
        let mut rng = SmallRng::seed_from_u64(5);
        let before = sliver_hits();
        let trials = 100_000u64;
        let mut hits = 0u64;
        for _ in 0..trials {
            if ber_bits_rational(&mut rng, &bits, &num, &den) {
                hits += 1;
            }
        }
        assert_eq!(sliver_hits() - before, trials);
        let z = crate::stats::binomial_z(hits, trials, 0.375);
        assert!(z.abs() < 5.0, "z = {z}");
    }

    #[test]
    fn exact_mode_guard_nests() {
        assert!(fast_path_enabled());
        {
            let _g1 = exact_mode_guard();
            assert!(!fast_path_enabled());
            {
                let _g2 = exact_mode_guard();
                assert!(!fast_path_enabled());
            }
            assert!(!fast_path_enabled());
        }
        assert!(fast_path_enabled());
    }

    #[test]
    fn saturation_edges() {
        // p ≥ 1 from f64 bounds: lo saturates, hi disables rejection.
        let b = Bits64::from_f64_bounds(1.0, 2.0);
        assert_eq!(b.certain(0), Some(true));
        assert_eq!(b.certain(u64::MAX - 1), Some(true));
        assert_eq!(b.certain(u64::MAX), None);
        // p = 0.
        let z = Bits64::from_f64_bounds(0.0, 0.0);
        assert_eq!(z.certain(0), None);
        assert_eq!(z.certain(1), Some(false));
    }
}
