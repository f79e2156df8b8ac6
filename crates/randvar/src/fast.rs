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
//! - if `u > ⌊p_hi·2^64⌋` it is a **certain reject**;
//! - otherwise the draw landed in the **sliver** between the two thresholds
//!   and the decision is delegated to the exact machinery ([`crate::ber_rational_from_word`]
//!   / [`crate::ber_oracle_from_word`]) *conditioned on the word already
//!   drawn* — so the output distribution is bit-for-bit identical to the
//!   all-exact implementation, for any bracket.
//!
//! Brackets are integers: a [`WordBracket`] holds a floor and a ceiling
//! mantissa of one word under one exact binary exponent, formed from the
//! exact parts' words (`1/W` from `W`'s limbs, a weight, a count times a
//! power of two) by products and quotients rounded outward, and put on the
//! `2^-64` grid of a uniform word by one shift ([`WordBracket::bits64`]).
//! A bracket keeps 62 or more significant bits, so the sliver is a few
//! units of `2^-62·p` wide and the exact fallback runs with probability
//! about `2^-60` per coin: the BigUint multiplies leave the hot path
//! entirely while the sampling law stays exact.
//!
//! [`exact_mode_guard`] suspends the fast path on the current thread (the
//! `force_exact` mode of the samplers); the agreement test suite uses it to
//! check the two implementations against each other.

use rand::RngCore;
use std::cell::Cell;
use std::ops::{Div, Mul};
use wordram::bits;

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
/// (probability 2⁻⁶⁴); from a [`WordBracket`] it is a few words wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bits64 {
    lo: u64,
    hi: u64,
}

impl Bits64 {
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
            let exact = Self::from_ratio_parts(num, den).lo;
            assert!(
                self.lo <= exact && exact <= self.hi,
                "Bits64 bracket [{}, {}] does not contain exact threshold {exact}",
                self.lo,
                self.hi,
            );
        }
    }
}

/// A certified bracket `lo·2^exp ≤ v ≤ hi·2^exp` of a value `v ≥ 0`: a
/// floor and a ceiling mantissa of one word each under one exact binary
/// exponent.
///
/// Every fast coin's probability takes this form before it meets a uniform
/// word: `1/W` from `W`'s limbs, a weight (a word, or a count times a power
/// of two), and their products and quotients. Each operation rounds the
/// floor down and the ceiling up to at most 63 significant bits, so the
/// bracket stays certified and within a few units of its 62nd bit; a
/// power-of-two factor only moves the exponent. [`WordBracket::bits64`]
/// puts the bracket on the `2^-64` grid of a uniform word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordBracket {
    lo: u64,
    hi: u64,
    exp: i64,
}

impl WordBracket {
    /// The exact value `m·2^exp`.
    #[inline]
    pub const fn exact(m: u64, exp: i64) -> Self {
        WordBracket { lo: m, hi: m, exp }
    }

    /// The bracket `[lo, hi]·2^exp` (`lo ≤ hi`).
    pub fn new(lo: u64, hi: u64, exp: i64) -> Self {
        debug_assert!(lo <= hi, "inverted bracket [{lo}, {hi}]");
        WordBracket { lo, hi, exp }
    }

    /// `[lo, hi]·2^exp` with two-word mantissas, rounded outward to at most
    /// 63 bits each, so the rounded-up ceiling still fits a word.
    #[inline]
    fn narrow(lo: u128, hi: u128, exp: i64) -> Self {
        let s = u64::from((128 - hi.leading_zeros()).saturating_sub(63));
        let hi = bits::shr128(hi, s) + u128::from(hi & bits::low_mask128(s) != 0);
        WordBracket { lo: bits::shr128(lo, s) as u64, hi: hi as u64, exp: exp + s as i64 }
    }

    /// The bracket of the integer with little-endian `limbs`: exact within
    /// a word, otherwise its top two words rounded outward, with one unit
    /// more on the ceiling when a word below them is non-zero.
    fn of_limbs(limbs: &[u64]) -> Self {
        let len = limbs.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
        match limbs.get(..len).unwrap_or_default() {
            [] => Self::exact(0, 0),
            &[w] => Self::exact(w, 0),
            [rest @ .., lo, hi] => {
                let top = u128::from(*hi) << 64 | u128::from(*lo);
                let b = Self::narrow(top, top, 64 * rest.len() as i64);
                WordBracket { hi: b.hi + u64::from(rest.iter().any(|&l| l != 0)), ..b }
            }
        }
    }

    /// The bracket of a two-word integer.
    #[inline]
    fn of_u128(v: u128) -> Self {
        Self::of_limbs(&[v as u64, (v >> 64) as u64])
    }

    /// The bracket of `num/den` (`den > 0`) from the parts' limbs: no
    /// allocation, two word divisions.
    pub fn ratio(num: &bignum::BigUint, den: &bignum::BigUint) -> Self {
        Self::of_limbs(num.limbs()) / Self::of_limbs(den.limbs())
    }

    /// [`WordBracket::ratio`] of two-word parts.
    pub fn ratio_u128(num: u128, den: u128) -> Self {
        Self::of_u128(num) / Self::of_u128(den)
    }

    /// The bracket of `v·2^e`: the exponent moves, the mantissas do not.
    #[inline]
    pub fn mul_pow2(self, e: i64) -> Self {
        WordBracket { exp: self.exp + e, ..self }
    }

    /// `(⌊lo·2^(exp+g)⌋, ⌊hi·2^(exp+g)⌋)`: both ends on the grid `2^-g`,
    /// saturating at `u64::MAX`.
    #[inline]
    pub(crate) fn floors(self, g: i64) -> (u64, u64) {
        let sh = self.exp + g;
        let at = |m: u64| {
            if sh <= 0 {
                bits::shr64(m, sh.unsigned_abs())
            } else if m == 0 || sh <= i64::from(m.leading_zeros()) {
                bits::shl64(m, sh.unsigned_abs())
            } else {
                u64::MAX
            }
        };
        (at(self.lo), at(self.hi))
    }

    /// The [`Bits64`] of the bracket: both ends floored onto the `2^-64`
    /// grid by one shift. The floor of the ceiling suffices, since it is
    /// still at least `⌊v·2^64⌋`; so an exact `v` leaves a one-word sliver.
    #[inline]
    pub fn bits64(self) -> Bits64 {
        let (lo, hi) = self.floors(64);
        Bits64 { lo, hi }
    }
}

impl Mul for WordBracket {
    type Output = Self;

    /// The bracket of the product: one `64×64→128` multiply per end.
    #[inline]
    fn mul(self, other: Self) -> Self {
        let lo = u128::from(self.lo) * u128::from(other.lo);
        let hi = u128::from(self.hi) * u128::from(other.hi);
        Self::narrow(lo, hi, self.exp + other.exp)
    }
}

impl Div for WordBracket {
    type Output = Self;

    /// The bracket of the quotient `self / d` (`d > 0`). Both mantissas are
    /// normalized first, so each end is one `128/64` division whose
    /// quotient keeps at least 62 significant bits. A divisor whose floor
    /// is 0 leaves the ceiling unbounded.
    fn div(self, d: Self) -> Self {
        let (zn, zd) = (u64::from(self.hi.leading_zeros()), u64::from(d.hi.leading_zeros()));
        let n_lo = u128::from(bits::shl64(self.lo, zn)) << 63;
        let n_hi = u128::from(bits::shl64(self.hi, zn)) << 63;
        let (d_lo, d_hi) = (u128::from(bits::shl64(d.lo, zd)), u128::from(bits::shl64(d.hi, zd)));
        let lo = n_lo.checked_div(d_hi).unwrap_or(0);
        // Exact operands have a quotient below lo + 1; otherwise round up
        // `n_hi/d_lo` (no overflow: n_hi < 2^127 and d_lo < 2^64).
        let hi = if self.lo == self.hi && d.lo == d.hi {
            lo + 1
        } else {
            (n_hi + d_lo).checked_sub(1).and_then(|n| n.checked_div(d_lo)).unwrap_or(u128::MAX)
        };
        Self::narrow(lo, hi, self.exp - d.exp - zn as i64 + zd as i64 - 63)
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

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::{BigUint, Ratio};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::cmp::Ordering;

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
        // p ≥ 1: lo saturates, hi disables rejection.
        let b = WordBracket::new(1, 2, 0).bits64();
        assert_eq!(b.certain(0), Some(true));
        assert_eq!(b.certain(u64::MAX - 1), Some(true));
        assert_eq!(b.certain(u64::MAX), None);
        // p = 0.
        let z = WordBracket::exact(0, 0).bits64();
        assert_eq!(z.certain(0), None);
        assert_eq!(z.certain(1), Some(false));
        // Far below the grid, and a zero divisor's unbounded ceiling.
        assert_eq!(WordBracket::exact(u64::MAX, -200).bits64(), Bits64 { lo: 0, hi: 0 });
        let q = (WordBracket::exact(1, 0) / WordBracket::new(0, 1, 0)).bits64();
        assert_eq!(q.hi, u64::MAX);
    }

    #[test]
    fn div_bounds_bracket_the_exact_quotient() {
        // `m·2^e` as the fraction `num/den`.
        let frac = |m: u64, e: i64| {
            let m = BigUint::from_u64(m);
            if e >= 0 {
                (m.shl(e as u64), BigUint::one())
            } else {
                (m, BigUint::pow2(e.unsigned_abs()))
            }
        };
        let exact = [
            ((1, 0), (3, 0)),
            ((4096, 0), (10, 0)),
            ((0, 0), (7, 0)),
            ((1, -1000), (1, 1000)),
            ((64, 0), (1, 0)),
            ((u64::MAX, 0), (3, 5)),
            ((1 << 40, 0), ((1 << 62) + 3, 0)),
        ];
        let mut cases: Vec<_> = exact
            .iter()
            .map(|&((a, ea), (b, eb))| (WordBracket::exact(a, ea), WordBracket::exact(b, eb)))
            .collect();
        cases.push((WordBracket::new(5, 9, -3), WordBracket::new(2, 3, 1)));
        cases.push((WordBracket::new(u64::MAX - 2, u64::MAX, 0), WordBracket::new(7, 8, -64)));
        cases.push((WordBracket::new(1, 1 << 63, 7), WordBracket::new(3, 1 << 40, -9)));
        for (x, y) in cases {
            let q = x / y;
            // The floor is at most the least quotient `x.lo/y.hi`, the
            // ceiling at least the greatest `x.hi/y.lo`.
            let ((xn, xd), (yn, yd)) = (frac(x.lo, x.exp), frac(y.hi, y.exp));
            assert!(
                cmp_scaled(q.lo, q.exp, &xn.mul(&yd), &xd.mul(&yn)) != Ordering::Greater,
                "{q:?} floor above {x:?}/{y:?}"
            );
            let ((xn, xd), (yn, yd)) = (frac(x.hi, x.exp), frac(y.lo, y.exp));
            assert!(
                cmp_scaled(q.hi, q.exp, &xn.mul(&yd), &xd.mul(&yn)) != Ordering::Less,
                "{q:?} ceiling below {x:?}/{y:?}"
            );
            assert!(q.lo <= q.hi && q.hi < 1 << 63, "{q:?}");
            // Exact non-zero operands leave a sliver of a few units.
            if x.lo == x.hi && y.lo == y.hi && x.lo != 0 {
                assert!(q.hi - q.lo <= 2 && q.hi >= 1 << 61, "{q:?} is loose");
            }
        }
        // A zero numerator floors at 0; a zero divisor floor leaves the
        // ceiling unbounded.
        assert_eq!((WordBracket::exact(0, 0) / WordBracket::exact(5, 0)).lo, 0);
        let q = (WordBracket::exact(1, 0) / WordBracket::new(0, 1, 0)).bits64();
        assert_eq!(q.hi, u64::MAX);
    }

    /// A positive 1–4-limb integer with a run of zero low bits.
    fn integer() -> impl Strategy<Value = BigUint> {
        (prop::collection::vec(any::<u64>(), 1..=4), 0u64..130).prop_map(|(limbs, sh)| {
            let v = BigUint::from_limbs(limbs);
            if v.is_zero() { BigUint::one() } else { v }.shl(sh)
        })
    }

    /// `m·2^exp` against `num/den`, exactly.
    fn cmp_scaled(m: u64, exp: i64, num: &BigUint, den: &BigUint) -> Ordering {
        let lhs = den.mul_u64(m);
        if exp >= 0 {
            lhs.shl(exp as u64).cmp(num)
        } else {
            lhs.cmp(&num.shl(exp.unsigned_abs()))
        }
    }

    /// `true` iff `b` brackets `num/den`.
    fn brackets(b: WordBracket, num: &BigUint, den: &BigUint) -> bool {
        cmp_scaled(b.lo, b.exp, num, den) != Ordering::Greater
            && cmp_scaled(b.hi, b.exp, num, den) != Ordering::Less
    }

    /// `true` iff `bits` holds the exact threshold `⌊min(1, num/den)·2^64⌋`.
    fn holds_threshold(bits: Bits64, num: &BigUint, den: &BigUint) -> bool {
        let t = Bits64::from_ratio_parts(num, den).lo;
        bits.lo <= t && t <= bits.hi
    }

    /// An item weight `m·2^e`: a level-1 word or a level-2/3 proxy
    /// `c·2^{idx+1}`.
    fn weight() -> impl Strategy<Value = (u64, i64)> {
        prop_oneof![
            (any::<u64>(), 0u32..64).prop_map(|(w, sh)| ((w >> sh).max(1), 0)),
            (1u64..=1 << 20, 1i64..=161).prop_map(|(c, e)| (c, e)),
        ]
    }

    /// `W = num/den` from 1–4-limb parts, with a denominator that is often
    /// a word-sized fraction of the numerator so `w/W` spans `(0, 1)`.
    fn total() -> impl Strategy<Value = (BigUint, BigUint)> {
        (integer(), integer(), any::<u64>(), 0u32..64, any::<bool>()).prop_map(
            |(num, den, k, sh, scaled)| {
                if scaled {
                    (den.mul_u64((k >> sh).max(1)).add(&num.low_bits(64)), den)
                } else {
                    (num, den)
                }
            },
        )
    }

    proptest! {
        #[test]
        fn word_bracket_of_integer_contains_it(v in integer(), w in any::<u128>()) {
            let b = WordBracket::of_limbs(v.limbs());
            prop_assert!(brackets(b, &v, &BigUint::one()), "{:?} misses {}", b, v);
            // A word is exact; wider values keep 62 or more bits.
            if v.bit_len() <= 64 {
                prop_assert_eq!(b.lo, b.hi);
            } else {
                prop_assert!(b.hi - b.lo <= 2 && b.lo >= 1 << 61, "{:?}", b);
            }
            prop_assert_eq!(
                WordBracket::of_u128(w),
                WordBracket::of_limbs(BigUint::from_u128(w).limbs())
            );
        }

        #[test]
        fn word_bracket_ratio_contains_the_rational(num in integer(), den in integer()) {
            let b = WordBracket::ratio(&num, &den);
            prop_assert!(brackets(b, &num, &den), "{:?} misses {}/{}", b, num, den);
            prop_assert!(b.hi - b.lo <= 8 && b.hi >= 1 << 61, "{:?} is loose", b);
            if let (Some(n), Some(d)) = (num.to_u128(), den.to_u128()) {
                prop_assert_eq!(WordBracket::ratio_u128(n, d), b);
            }
        }

        #[test]
        fn word_bracket_contains_exact_threshold(
            (num, den) in total(), (m, e) in weight(), shift in 0u64..200,
        ) {
            // The plain coin `w/W`: the weight times the bracket of `1/W`.
            let w = BigUint::from_u64(m).shl(e as u64);
            let bits = (WordBracket::ratio(&den, &num) * WordBracket::exact(m, e)).bits64();
            prop_assert!(holds_threshold(bits, &w.mul(&den), &num), "{:?}", bits);
            // The open-bucket coin `w/2^shift` (`w < 2^shift`): an exact
            // shift, whose sliver is the single threshold word.
            let shift = w.bit_len() + shift % 70;
            let bits = WordBracket::exact(m, e).mul_pow2(-(shift as i64)).bits64();
            prop_assert_eq!(bits, Bits64::from_ratio_parts(&w, &BigUint::pow2(shift)));
        }

        #[test]
        fn word_bracket_thinning_contains_exact_threshold(
            (num, den) in total(), (m, e) in weight(), n in 1u64..=1 << 32, small in 2u64..=64,
            last in any::<bool>(),
        ) {
            // The thinning coin `(w/W)/p0` with `p0 = 1/N²` or `2/m²`.
            let (a, b) = if last { (2, u128::from(small * small)) } else { (1, u128::from(n) * u128::from(n)) };
            let w = BigUint::from_u64(m).shl(e as u64);
            let winv = WordBracket::ratio(&den, &num);
            let bits = (winv * WordBracket::exact(m, e) * WordBracket::ratio_u128(b, a)).bits64();
            let (t_num, t_den) = (w.mul(&den).mul(&BigUint::from_u128(b)), num.mul_u64(a as u64));
            prop_assert!(holds_threshold(bits, &t_num, &t_den), "{:?}", bits);
        }

        #[test]
        fn word_bracket_pstar_contains_exact_threshold(
            (num, den) in total(), s in any::<u64>(), n in 1u64..=12,
        ) {
            // The promising-bucket coin on `p = 2^s/W < 1`, built the way the
            // query layer builds it.
            let ceil_log2 = Ratio::new(num.clone(), den.clone()).ceil_log2();
            prop_assume!(ceil_log2 > 1);
            let s = s % ((ceil_log2 - 1).min(400) as u64);
            let p = Ratio::new(den.shl(s), num.clone());
            let fl = p.floor_log2();
            prop_assume!(fl + 1 + i64::from(64 - (n - 1).leading_zeros()) <= 0); // n·p ≤ 1
            let bracket = WordBracket::ratio(&den, &num).mul_pow2(s as i64);
            let d = crate::GeoDesc::new(&den, &num, s, bracket, fl, n + 1);
            // p* = (D^n − (D − N)^n) / (n·N·D^{n−1}) for p = N/D.
            let (big_n, big_d) = (p.num(), p.den());
            let t_num = big_d.pow(n).sub(&big_d.sub(big_n).pow(n));
            let t_den = big_n.mul_u64(n).mul(&big_d.pow(n - 1));
            prop_assert!(holds_threshold(d.pstar_bits(n), &t_num, &t_den));
        }
    }
}
