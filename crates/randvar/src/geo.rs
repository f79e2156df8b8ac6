//! Per-probability geometric descriptors: everything the geometric-family
//! generators need to know about a probability `p ∈ (0, 1)`, held in words.
//!
//! The bounded- and truncated-geometric generators and the promising-bucket
//! coin test uniform words against certified brackets of `(1−p)^k` for many
//! `k` per call: one block coin and one position coin per `B-Geo` stride,
//! and a `B-Geo` stride per sampled item. A [`GeoDesc`] is built once per
//! probability and serves all of them:
//!
//! - the certified `f64` bracket of `p` (supplied by the caller, who often
//!   has it for free — the query layer scales its cached `1/W` bracket by a
//!   power of two);
//! - `⌊log2 p⌋`, exact, which fixes the `B-Geo` block length;
//! - the brackets of `(1−p)^{2^i}` for every `i` up to the block exponent,
//!   so a bracket of `(1−p)^k` is `popcount(k)` directed-rounded products.
//!
//! A caller that draws many strides at one `p` (the query layer's
//! open-bucket walk) also fills a [`StrideTable`] from those squares: 65
//! brackets of `(1−p)^{j·2^s}` cutting the block `2^top` into 64 steps. A
//! position coin then decides its word table-first: one comparison against
//! the two entries around its `k` settles all but about `t·p/64 ≤ 1/32` of
//! the coins, and only those build the `popcount(k)`-product bracket (and,
//! more rarely still, reach the sliver).
//!
//! The power table is kept in 63-bit fixed point (`v` as an integer bracket
//! of `v·2^63`): a directed-rounded product is one `64×64→128` multiply and
//! a shift, and the bracket lands directly on the 64-bit word grid the
//! [`Bits64`] test compares against. Each product adds a unit of `2^-63`
//! to the bracket's width and each squaring at most doubles it, so a
//! `(1−p)^k` bracket is `O(k)` units wide: for the `k ≤ n` a cap-`n`
//! generator asks for, a sliver of order `n·2^-63` per coin.
//!
//! The exact value `p` — `num·2^shift/den` by reference, or `num/den` in
//! two words each — is only materialized as a [`Ratio`] when a coin lands
//! in the ulp-wide sliver (or in exact mode). Every decision stays a
//! function of the drawn words and the exact `p`: a tighter or looser
//! bracket only moves how often the sliver fallback runs, never what is
//! returned or which words are drawn.

use crate::fast::{div_down, div_up, mul_down, mul_up, Bits64};
use bignum::{BigUint, Ratio};
use std::cell::OnceCell;
use std::cmp::Ordering;
use wordram::{bits, narrow};

/// Largest `B-Geo` block exponent: blocks stay at most `2^62` long.
const MAX_BLOCK_EXP: u64 = 62;

/// Power-table length: one entry per exponent `0..=MAX_BLOCK_EXP`.
const TABLE: usize = MAX_BLOCK_EXP as usize + 1;

/// `log2` of the steps a [`StrideTable`] cuts its block into.
const STRIDE_STEPS_LOG2: usize = 6;

/// [`StrideTable`] length: one entry per step boundary `j = 0..=64`.
const STRIDE_ENTRIES: usize = 65;

/// `1` in the power table's 63-bit fixed point.
const ONE: u64 = 1 << 63;

/// `2^63` as `f64` (exact).
const SCALE_63: f64 = 9223372036854775808.0;

/// `⌊a·b/2^63⌋`: a certified lower bound of the fixed-point product of
/// lower bounds (`a, b ≤ 2^63`, so the product fits 126 bits).
#[inline]
fn fx_mul_down(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) >> 63) as u64
}

/// `⌈a·b/2^63⌉`: a certified upper bound of the fixed-point product of
/// upper bounds (`a, b ≤ 2^63`, so the result stays `≤ 2^63`).
#[inline]
fn fx_mul_up(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b) + u128::from(ONE - 1)) >> 63) as u64
}

/// The largest `f64` that is `≤ x·2^-63`.
fn fx_to_f64_down(x: u64) -> f64 {
    let f = x as f64; // round to nearest; ≤ 2^63, so `f as u64` is exact
    let f = if f as u64 > x { f.next_down() } else { f };
    f / SCALE_63
}

/// The smallest `f64` that is `≥ x·2^-63`.
fn fx_to_f64_up(x: u64) -> f64 {
    let f = x as f64;
    let f = if (f as u64) < x { f.next_up() } else { f };
    f / SCALE_63
}

/// The exact parts of a descriptor's `p`.
#[derive(Debug)]
enum Parts<'a> {
    /// `num·2^shift/den`, borrowed.
    Scaled { num: &'a BigUint, den: &'a BigUint, shift: u64 },
    /// `num/den`, in words.
    Words { num: u128, den: u128 },
}

/// Word-level descriptor of a probability `p ∈ (0, 1)` for the
/// geometric-family generators ([`GeoDesc::bgeo`], [`GeoDesc::tgeo`],
/// [`GeoDesc::ber_pstar`], [`GeoDesc::ber_pow_one_minus`]).
#[derive(Debug)]
pub struct GeoDesc<'a> {
    parts: Parts<'a>,
    /// `p` as a [`Ratio`], built on first exact use.
    exact: OnceCell<Ratio>,
    p_lo: f64,
    p_hi: f64,
    floor_log2: i64,
    /// `sq_lo[i] ≤ (1−p)^{2^i}·2^63 ≤ sq_hi[i]` for `i ≤ top`.
    sq_lo: [u64; TABLE],
    sq_hi: [u64; TABLE],
    top: usize,
}

/// `B-Geo` block exponent for `p` with `⌊log2 p⌋ = floor_log2` and cap
/// `n ≥ 1`: `min(⌈log2 1/p⌉, ⌈log2 n⌉, 62)`, so that either `t·p ≥ 1`
/// (constant per-block success probability) or `t ≥ n` (at most one block
/// before the cap).
#[inline]
pub(crate) fn block_exp(floor_log2: i64, n: u64) -> u64 {
    let s_p = floor_log2.saturating_neg().max(0) as u64; // ⌈log2 1/p⌉ = −⌊log2 p⌋
    let s_n = 64 - u64::from((n - 1).leading_zeros()); // ⌈log2 n⌉ for n ≥ 1
    s_p.min(s_n).min(MAX_BLOCK_EXP)
}

/// Certified `f64` bracket of a word `n` (exact below 2^53).
#[inline]
pub(crate) fn u64_f64_bounds(n: u64) -> (f64, f64) {
    let nf = n as f64;
    if n <= 1 << 53 {
        (nf, nf)
    } else {
        (nf.next_down(), nf.next_up())
    }
}

/// Certified `f64` bracket of a two-word `n`.
#[inline]
fn u128_f64_bounds(n: u128) -> (f64, f64) {
    let limbs = [n as u64, (n >> 64) as u64];
    bignum::f64_bounds_from_limbs(&limbs, u64::from(128 - n.leading_zeros()))
}

/// `⌊log2(a/b)⌋` for machine-word `a, b > 0`, without allocating.
fn floor_log2_u128(a: u128, b: u128) -> i64 {
    let k0 = i64::from(b.leading_zeros()) - i64::from(a.leading_zeros());
    // Both shifts keep the shifted operand at the other's bit length.
    let below = if k0 >= 0 {
        a < bits::shl128(b, k0.unsigned_abs())
    } else {
        bits::shl128(a, k0.unsigned_abs()) < b
    };
    k0 - i64::from(below)
}

impl<'a> GeoDesc<'a> {
    /// The descriptor of `p = num·2^shift/den`, given a certified bracket
    /// `p_lo ≤ p ≤ p_hi` and the exact `⌊log2 p⌋`. `range ≥ 1` is the
    /// largest cap or exponent the caller will pass: the power table is
    /// filled up to that cap's block exponent, and larger arguments stay
    /// correct, only slower.
    ///
    /// Requires `0 < p < 1`. The bracket and the logarithm are trusted:
    /// debug builds only check them against each other, in words.
    pub fn new(
        num: &'a BigUint,
        den: &'a BigUint,
        shift: u64,
        bounds: (f64, f64),
        floor_log2: i64,
        range: u64,
    ) -> Self {
        Self::with_parts(Parts::Scaled { num, den, shift }, bounds, floor_log2, range)
    }

    /// The descriptor of `p = num/den ∈ (0, 1)` given in words: bracket,
    /// logarithm and power table without touching the heap. The exact `p`
    /// is only built on a sliver or in exact mode. `range` as in
    /// [`GeoDesc::new`].
    pub fn from_words(num: u128, den: u128, range: u64) -> GeoDesc<'static> {
        assert!(0 < num && num < den, "geometric descriptor needs 0 < p < 1");
        let ((n_lo, n_hi), (d_lo, d_hi)) = (u128_f64_bounds(num), u128_f64_bounds(den));
        let bounds = (div_down(n_lo, d_hi), div_up(n_hi, d_lo).min(1.0));
        GeoDesc::with_parts(Parts::Words { num, den }, bounds, floor_log2_u128(num, den), range)
    }

    /// The descriptor of `p` given by `parts`, its bracket and `⌊log2 p⌋`.
    fn with_parts(parts: Parts<'a>, (p_lo, p_hi): (f64, f64), floor_log2: i64, range: u64) -> Self {
        debug_assert!(0.0 <= p_lo && p_lo <= p_hi && p_lo < 1.0, "bad bracket [{p_lo}, {p_hi}]");
        debug_assert!(
            floor_log2 < -1000
                || (2f64.powi(narrow::i32_of_i64(floor_log2)) <= p_hi
                    && p_lo < 2f64.powi(narrow::i32_of_i64(floor_log2) + 1)),
            "⌊log2 p⌋ = {floor_log2} disagrees with the bracket [{p_lo}, {p_hi}]"
        );
        let top = block_exp(floor_log2, range.max(1)) as usize;
        let mut d = GeoDesc {
            parts,
            exact: OnceCell::new(),
            p_lo,
            p_hi,
            floor_log2,
            sq_lo: [0; TABLE],
            sq_hi: [0; TABLE],
            top,
        };
        // 1−p in fixed point: scaling by 2^63 is exact, `as u64` floors
        // and saturates, so ⌊p_lo·2^63⌋ ≤ p·2^63 ≤ ⌈p_hi·2^63⌉.
        let p_lo_fx = (p_lo * SCALE_63) as u64;
        let p_hi_fx = ((p_hi * SCALE_63).ceil() as u64).min(ONE);
        let (mut b_lo, mut b_hi) = (ONE - p_hi_fx, ONE - p_lo_fx);
        for (lo, hi) in d.sq_lo.iter_mut().zip(d.sq_hi.iter_mut()).take(top + 1) {
            (*lo, *hi) = (b_lo, b_hi);
            b_lo = fx_mul_down(b_lo, b_lo);
            b_hi = fx_mul_up(b_hi, b_hi);
        }
        d
    }

    /// The descriptor of an exact rational `p ∈ (0, 1)`: one certified
    /// bracket and one exact logarithm, allocation-free when both parts fit
    /// in two words. `range` as in [`GeoDesc::new`].
    pub fn from_ratio(p: &'a Ratio, range: u64) -> Self {
        assert!(!p.is_zero(), "geometric descriptor needs p > 0");
        assert!(p.num().cmp(p.den()) == Ordering::Less, "geometric descriptor needs p < 1");
        match p.to_u128_parts() {
            Some((num, den)) => GeoDesc::from_words(num, den, range),
            None => Self::new(p.num(), p.den(), 0, p.to_f64_bounds(), p.floor_log2(), range),
        }
    }

    /// The exact `p` (built on first use: sliver fallbacks and exact mode).
    pub(crate) fn ratio(&self) -> &Ratio {
        self.exact.get_or_init(|| match self.parts {
            Parts::Scaled { num, den, shift } => Ratio::new(num.shl(shift), den.clone()),
            Parts::Words { num, den } => Ratio::from_u128s(num, den),
        })
    }

    /// The certified bracket `(p_lo, p_hi)` of `p`.
    pub(crate) fn p_f64_bounds(&self) -> (f64, f64) {
        (self.p_lo, self.p_hi)
    }

    /// `⌊log2 p⌋`, exact.
    pub(crate) fn floor_log2(&self) -> i64 {
        self.floor_log2
    }

    /// Fixed-point bracket `(lo, hi)` of `(1−p)^k·2^63`: the product of the
    /// table's squares over the set bits of `k`. Bits above the table
    /// continue by squaring its top entry.
    pub(crate) fn pow_fixed(&self, k: u64) -> (u64, u64) {
        let (mut lo, mut hi) = (ONE, ONE);
        let mut low = k & bits::low_mask64(self.top as u64 + 1);
        while low != 0 {
            let i = low.trailing_zeros() as usize;
            let (Some(&b_lo), Some(&b_hi)) = (self.sq_lo.get(i), self.sq_hi.get(i)) else {
                break; // unreachable: i ≤ top < TABLE
            };
            lo = fx_mul_down(lo, b_lo);
            hi = fx_mul_up(hi, b_hi);
            low &= low - 1;
        }
        let mut high = bits::shr64(k, self.top as u64 + 1);
        if high != 0 {
            let (Some(&t_lo), Some(&t_hi)) = (self.sq_lo.get(self.top), self.sq_hi.get(self.top))
            else {
                return (0, ONE); // unreachable: top < TABLE
            };
            let (mut b_lo, mut b_hi) = (t_lo, t_hi);
            while high != 0 {
                (b_lo, b_hi) = (fx_mul_down(b_lo, b_lo), fx_mul_up(b_hi, b_hi));
                if high & 1 == 1 {
                    (lo, hi) = (fx_mul_down(lo, b_lo), fx_mul_up(hi, b_hi));
                }
                high >>= 1;
            }
        }
        (lo, hi)
    }

    /// The [`Bits64`] bracket of `(1−p)^k`.
    #[inline]
    pub(crate) fn pow_bits(&self, k: u64) -> Bits64 {
        let (lo, hi) = self.pow_fixed(k);
        Bits64::from_fixed63(lo, hi)
    }

    /// The [`Bits64`] bracket of `(1−p)/(2−p) = q/(1+q)` (`q = 1−p`),
    /// increasing in `q`: one fixed-point division per side.
    pub(crate) fn n2_bits(&self) -> Bits64 {
        let (q_lo, q_hi) = self.pow_fixed(1);
        let (one, q_lo, q_hi) = (u128::from(ONE), u128::from(q_lo), u128::from(q_hi));
        let lo = (q_lo << 63) / (one + q_lo);
        let hi = ((q_hi << 63) + one + q_hi - 1) / (one + q_hi);
        Bits64::from_fixed63(lo as u64, hi as u64)
    }

    /// Certified `f64` bracket of `(1−p)^k`.
    pub(crate) fn pow_f64_bounds(&self, k: u64) -> (f64, f64) {
        let (lo, hi) = self.pow_fixed(k);
        (fx_to_f64_down(lo), fx_to_f64_up(hi))
    }

    /// The [`StrideTable`] of this descriptor's block, or `None` when the
    /// block is shorter than its 64 steps (block exponent below 6).
    ///
    /// It fills 64 entries by doubling from the power table: round `r`
    /// multiplies each of the entries `0..2^r` by `(1−p)^{2^{s+r}}`, so each
    /// round's multiplies are independent of each other.
    pub fn stride_table(&self) -> Option<StrideTable<'_, 'a>> {
        let shift = self.top.checked_sub(STRIDE_STEPS_LOG2)?;
        let (mut lo, mut hi) = ([ONE; STRIDE_ENTRIES], [ONE; STRIDE_ENTRIES]);
        let squares = self.sq_lo.iter().zip(&self.sq_hi).skip(shift);
        for (r, (&b_lo, &b_hi)) in squares.take(STRIDE_STEPS_LOG2 + 1).enumerate() {
            let done = bits::pow2_usize(r as u64);
            let (lo_done, lo_next) = lo.split_at_mut(done);
            let (hi_done, hi_next) = hi.split_at_mut(done);
            for ((next, &prev), (next_hi, &prev_hi)) in
                lo_next.iter_mut().zip(&*lo_done).zip(hi_next.iter_mut().zip(&*hi_done))
            {
                (*next, *next_hi) = (fx_mul_down(prev, b_lo), fx_mul_up(prev_hi, b_hi));
            }
        }
        Some(StrideTable { desc: self, lo, hi, shift: shift as u64, top: self.top as u64 })
    }

    /// `n·p ≥ m` on the bracket alone: `false` whenever the bracket cannot
    /// show it, even if the exact `n·p` reaches `m`. For cost decisions
    /// only, which never change a result.
    pub fn np_surely_at_least(&self, n: u64, m: f64) -> bool {
        mul_down(u64_f64_bounds(n).0, self.p_lo) >= m
    }

    /// `n·p ≥ 1`, decided on the bracket and settled exactly only when the
    /// bracket straddles 1.
    pub fn np_at_least_one(&self, n: u64) -> bool {
        let (n_lo, n_hi) = u64_f64_bounds(n);
        if mul_down(n_lo, self.p_lo) >= 1.0 {
            return true;
        }
        if mul_up(n_hi, self.p_hi) < 1.0 {
            return false;
        }
        match self.parts {
            Parts::Scaled { num, den, shift } => {
                num.mul_u64(n).shl(shift).cmp(den) != Ordering::Less
            }
            // An overflowing product exceeds any two-word denominator.
            Parts::Words { num, den } => num.checked_mul(u128::from(n)).is_none_or(|v| v >= den),
        }
    }
}

/// Certified fixed-point brackets of `(1−p)^{j·2^s}` for `j = 0..=64`, where
/// `2^s` is a 64th of a descriptor's block `t = 2^top` (built by
/// [`GeoDesc::stride_table`]).
///
/// A `B-Geo` position coin `Ber((1−p)^k)` has `k < t`, so with `j = k >> s`
/// its exact value lies between entries `j+1` and `j`: a word below the
/// first certainly accepts and one above the second certainly rejects. Only
/// a word between them (a share of about `t·p/64 ≤ 1/32` of the coins)
/// needs the `popcount(k)`-product bracket of `(1−p)^k`, and from there the
/// sliver. Any certified bracket gives the same decision from the same
/// words, so [`StrideTable::bgeo`] draws exactly what [`GeoDesc::bgeo`]
/// draws; it only spends fewer multiplies. Filling it costs 64 multiply
/// pairs, which a caller spends when it expects many strides at one `p`.
#[derive(Debug)]
pub struct StrideTable<'d, 'a> {
    pub(crate) desc: &'d GeoDesc<'a>,
    lo: [u64; STRIDE_ENTRIES],
    hi: [u64; STRIDE_ENTRIES],
    /// `s = top − 6`: entry `j` is `(1−p)^{j·2^s}`.
    shift: u64,
    /// The block exponent the table cuts into 64 steps.
    pub(crate) top: u64,
}

impl StrideTable<'_, '_> {
    /// The entry bracket that holds `(1−p)^k`, as the [`Bits64`] from
    /// `(1−p)^{(j+1)·2^s}` up to `(1−p)^{j·2^s}`, `j = k >> s`: entry `j`
    /// alone when `k = j·2^s` (the block coin's `k = 2^top` among them), and
    /// `None` for `k > 2^top`.
    #[inline]
    pub(crate) fn coarse_bits(&self, k: u64) -> Option<Bits64> {
        let j = bits::shr64(k, self.shift) as usize;
        let below = j + usize::from(k & bits::low_mask64(self.shift) != 0);
        Some(Bits64::from_fixed63(*self.lo.get(below)?, *self.hi.get(j)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::ProbOracle;
    use crate::oracles::{PStarOracle, PowOneMinusOracle};
    use crate::rng::CountingRng;
    use bignum::Dyadic;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// `p = num·2^shift/den ∈ (0, 1)` from one of the families the samplers
    /// meet: a two-word rational, `2^s/W` with `W` a power of two, `2^s/W`
    /// with `W` a multi-limb integer, `p` near 1, and `p` near `2^-60`.
    fn family(kind: u32, a: u64, b: u64) -> (BigUint, BigUint, u64) {
        match kind {
            0 => {
                let den = b.max(2);
                (BigUint::from_u64(1 + a % (den - 1)), BigUint::from_u64(den), 0)
            }
            1 => {
                let e = 2 + a % 120;
                (BigUint::one(), BigUint::pow2(e), b % (e - 1))
            }
            2 => {
                let w = BigUint::from_u64(a | 1).mul(&BigUint::from_u64(b | 1 << 63)).shl(a % 64);
                (BigUint::one(), w.clone(), b % (w.bit_len() - 1))
            }
            3 => {
                let d = 2 + a % (u64::MAX - 2);
                (BigUint::from_u64(d - 1), BigUint::from_u64(d), 0)
            }
            _ => (BigUint::from_u64(1 + a % 3), BigUint::pow2(60 + b % 8), 0),
        }
    }

    /// The exact `p` of a family member.
    fn exact(num: &BigUint, den: &BigUint, shift: u64) -> Ratio {
        Ratio::new(num.shl(shift), den.clone())
    }

    /// The descriptor the query layer would build: the bracket of
    /// `num/den` scaled exactly by `2^shift`, and the exact `⌊log2 p⌋`.
    fn scaled_desc<'a>(num: &'a BigUint, den: &'a BigUint, shift: u64, range: u64) -> GeoDesc<'a> {
        let (lo, hi) = Ratio::f64_bounds_parts(num, den);
        let sc = 2f64.powi(shift as i32);
        let fl = exact(num, den, shift).floor_log2();
        GeoDesc::new(num, den, shift, (lo * sc, hi * sc), fl, range)
    }

    /// `x·2^-63` as an exact dyadic.
    fn fx(x: u64) -> Dyadic {
        Dyadic::new(BigUint::from_u64(x), -63)
    }

    /// Exact comparison of a finite `x ≥ 0` with `num/den`.
    fn cmp_f64_ratio(x: f64, num: &BigUint, den: &BigUint) -> Ordering {
        let bits = x.to_bits();
        let (exp, frac) = ((bits >> 52) & 0x7FF, bits & ((1 << 52) - 1));
        // x = m·2^e exactly (subnormals have exponent field 0).
        let (m, e) = if exp == 0 { (frac, -1074) } else { (frac | 1 << 52, exp as i64 - 1075) };
        let lhs = den.mul_u64(m);
        if e >= 0 {
            lhs.shl(e as u64).cmp(num)
        } else {
            lhs.cmp(&num.shl(e.unsigned_abs()))
        }
    }

    /// A finite `x ≥ 0` as an exact dyadic.
    fn dyadic_of(x: f64) -> Dyadic {
        let bits = x.to_bits();
        let (exp, frac) = ((bits >> 52) & 0x7FF, bits & ((1 << 52) - 1));
        let (m, e) = if exp == 0 { (frac, -1074) } else { (frac | 1 << 52, exp as i64 - 1075) };
        Dyadic::new(BigUint::from_u64(m), e)
    }

    proptest! {
        #[test]
        fn pow_bracket_contains_exact_power(
            kind in 0u32..5, a in any::<u64>(), b in any::<u64>(),
            k_small in 0u64..=64, k_big in 65u64..(1 << 40), range in 1u64..(1 << 40),
        ) {
            let (num, den, shift) = family(kind, a, b);
            let d = scaled_desc(&num, &den, shift, range);
            let p = exact(&num, &den, shift);
            // k ≤ 64: against the exact rational (den − num)^k / den^k.
            let base = p.den().sub(p.num());
            for k in [0, 1, 2, 3, k_small] {
                let (lo, hi) = d.pow_fixed(k);
                let (v_num, v_den) = (base.pow(k).shl(63), p.den().pow(k));
                prop_assert!(v_den.mul_u64(lo).cmp(&v_num) != Ordering::Greater, "lo, k = {}", k);
                prop_assert!(v_den.mul_u64(hi).cmp(&v_num) != Ordering::Less, "hi, k = {}", k);
                // The word bracket holds the exact threshold ⌊v·2^64⌋.
                let t = Bits64::from_ratio_parts(&base.pow(k), &v_den);
                prop_assert_eq!(d.pow_bits(k).certain(t.lo_word()), None);
            }
            // Large k: against a 200-bit interval of the power.
            let iv = PowOneMinusOracle::new(p.num(), p.den(), k_big).bracket(200);
            let (lo, hi) = d.pow_fixed(k_big);
            prop_assert!(fx(lo).cmp(iv.lo()) != Ordering::Greater);
            prop_assert!(fx(hi).cmp(iv.hi()) != Ordering::Less);
        }

        #[test]
        fn stride_table_brackets_contain_exact_powers(
            kind in 0u32..5, a in any::<u64>(), b in any::<u64>(), range in 1u64..(1 << 40),
        ) {
            let (num, den, shift) = family(kind, a, b);
            let d = scaled_desc(&num, &den, shift, range);
            let p = exact(&num, &den, shift);
            let table = d.stride_table();
            prop_assert_eq!(table.is_some(), d.top >= STRIDE_STEPS_LOG2, "top = {}", d.top);
            prop_assume!(table.is_some());
            let Some(table) = table else { unreachable!() };
            prop_assert_eq!(table.shift, (d.top - STRIDE_STEPS_LOG2) as u64);
            prop_assert_eq!((table.lo[0], table.hi[0]), (ONE, ONE));
            for j in 1..STRIDE_ENTRIES as u64 {
                // Against a 200-bit interval of (1−p)^{j·2^s}.
                let iv = PowOneMinusOracle::new(p.num(), p.den(), j << table.shift).bracket(200);
                let (lo, hi) = (table.lo[j as usize], table.hi[j as usize]);
                prop_assert!(fx(lo).cmp(iv.lo()) != Ordering::Greater, "lo, j = {}", j);
                prop_assert!(fx(hi).cmp(iv.hi()) != Ordering::Less, "hi, j = {}", j);
            }
        }

        #[test]
        fn stride_table_bgeo_draws_like_bgeo(
            kind in 0u32..5, a in any::<u64>(), b in any::<u64>(),
            n in 1u64..(1 << 20), seed in any::<u64>(),
        ) {
            // Same variates and words as the power-table `bgeo`, and as the
            // all-exact one; a cap of another block takes `bgeo` itself.
            let (num, den, shift) = family(kind, a, b);
            let d = scaled_desc(&num, &den, shift, n);
            let table = d.stride_table();
            prop_assume!(table.is_some());
            let Some(table) = table else { unreachable!() };
            let mut r1 = CountingRng::new(SmallRng::seed_from_u64(seed));
            let mut r2 = CountingRng::new(SmallRng::seed_from_u64(seed));
            let mut r3 = CountingRng::new(SmallRng::seed_from_u64(seed));
            for cap in [n, n, n, n, n / 2 + 1, n, 1] {
                let v = table.bgeo(&mut r1, cap);
                prop_assert_eq!(v, d.bgeo(&mut r2, cap), "cap {}", cap);
                let _exact = crate::exact_mode_guard();
                prop_assert_eq!(v, d.bgeo(&mut r3, cap), "cap {}, exact mode", cap);
            }
            prop_assert_eq!(r1.words_consumed(), r2.words_consumed());
            prop_assert_eq!(r1.words_consumed(), r3.words_consumed());
        }

        #[test]
        fn pstar_bracket_contains_pstar(
            kind in 0u32..5, a in any::<u64>(), b in any::<u64>(), n in any::<u64>(),
            n_small in 1u64..=64,
        ) {
            let (num, den, shift) = family(kind, a, b);
            let p = exact(&num, &den, shift);
            // n ≤ 2^{−⌊log2 p⌋−1} keeps n·p < 1 (capped at 2^40 + 1).
            let cap = 1u64 << (-1 - p.floor_log2()).min(40);
            let (n, n_small) = (1 + n % cap, 1 + (n_small - 1) % cap);
            // Small n: against the exact rational
            // p* = (den^n − (den − num)^n) / (n·num·den^{n−1}).
            let d = scaled_desc(&num, &den, shift, n_small + 1);
            let (lo, hi) = d.pstar_bounds(n_small);
            let s_num = p.den().pow(n_small).sub(&p.den().sub(p.num()).pow(n_small));
            let s_den = p.num().mul_u64(n_small).mul(&p.den().pow(n_small - 1));
            prop_assert!(cmp_f64_ratio(lo, &s_num, &s_den) != Ordering::Greater, "n = {}", n_small);
            prop_assert!(cmp_f64_ratio(hi, &s_num, &s_den) != Ordering::Less, "n = {}", n_small);
            // Any n: against a 200-bit interval of p*.
            let d = scaled_desc(&num, &den, shift, n + 1);
            let (lo, hi) = d.pstar_bounds(n);
            if n > 64 {
                let iv = PStarOracle::new(&p, n).bracket(200);
                prop_assert!(dyadic_of(lo).cmp(iv.lo()) != Ordering::Greater, "n = {}", n);
                prop_assert!(dyadic_of(hi).cmp(iv.hi()) != Ordering::Less, "n = {}", n);
            }
        }

        #[test]
        fn wrappers_draw_like_scaled_descriptors(
            kind in 0u32..5, a in any::<u64>(), b in any::<u64>(),
            n in 1u64..(1 << 20), seed in any::<u64>(),
        ) {
            // The `&Ratio` wrappers and a descriptor built the query layer's
            // way — from `num/den` and a shift — consume the same words and
            // return the same variates.
            let (num, den, shift) = family(kind, a, b);
            let p = exact(&num, &den, shift);
            let d = scaled_desc(&num, &den, shift, n + 1);
            let mut r1 = CountingRng::new(SmallRng::seed_from_u64(seed));
            let mut r2 = CountingRng::new(SmallRng::seed_from_u64(seed));
            prop_assert_eq!(crate::bgeo(&mut r1, &p, n + 1), d.bgeo(&mut r2, n + 1));
            prop_assert_eq!(crate::tgeo(&mut r1, &p, n), d.tgeo(&mut r2, n));
            prop_assert_eq!(
                crate::ber_pow_one_minus(&mut r1, &p, n),
                d.ber_pow_one_minus(&mut r2, n)
            );
            if !d.np_at_least_one(n) {
                prop_assert_eq!(crate::ber_pstar(&mut r1, &p, n), d.ber_pstar(&mut r2, n));
            }
            prop_assert_eq!(r1.words_consumed(), r2.words_consumed());
        }
    }

    proptest! {
        #[test]
        fn word_descriptors_draw_like_ratio_descriptors(
            num in 1u128.., den in any::<u128>(), sh in 0u32..127,
            n in 1u64..(1 << 20), seed in any::<u64>(),
        ) {
            // A descriptor built from words and one holding `BigUint`
            // parts describe the same `p`: same variates, same words.
            let den = (den >> sh).max(2);
            let num = 1 + (num - 1) % (den - 1);
            let (num_big, den_big) = (BigUint::from_u128(num), BigUint::from_u128(den));
            let a = GeoDesc::from_words(num, den, n + 1);
            let b = scaled_desc(&num_big, &den_big, 0, n + 1);
            prop_assert_eq!(a.floor_log2(), b.floor_log2());
            prop_assert_eq!(a.np_at_least_one(n), b.np_at_least_one(n));
            let mut r1 = CountingRng::new(SmallRng::seed_from_u64(seed));
            let mut r2 = CountingRng::new(SmallRng::seed_from_u64(seed));
            prop_assert_eq!(a.bgeo(&mut r1, n + 1), b.bgeo(&mut r2, n + 1));
            prop_assert_eq!(a.tgeo(&mut r1, n), b.tgeo(&mut r2, n));
            prop_assert_eq!(r1.words_consumed(), r2.words_consumed());
        }
    }

    #[test]
    fn floor_log2_u128_matches_ratio() {
        for (a, b) in [
            (1u128, 1u128),
            (1, 2),
            (3, 2),
            (1, 3),
            (5, 1 << 90),
            (u128::MAX, 1),
            (1, u128::MAX),
            (1 << 127, (1 << 127) + 1),
            ((1 << 100) + 7, 3),
        ] {
            let want = Ratio::new(BigUint::from_u128(a), BigUint::from_u128(b)).floor_log2();
            assert_eq!(floor_log2_u128(a, b), want, "{a}/{b}");
        }
    }

    #[test]
    fn block_exp_matches_definition() {
        assert_eq!(block_exp(-3, 1), 0);
        assert_eq!(block_exp(-3, 5), 3);
        assert_eq!(block_exp(-3, 4), 2);
        assert_eq!(block_exp(-1, 1 << 40), 1);
        assert_eq!(block_exp(-200, 1 << 63), MAX_BLOCK_EXP);
    }

    #[test]
    fn np_test_settles_straddles_exactly() {
        // p = 2^5/2^17 = 2^-12: n·p ≥ 1 ⟺ n ≥ 4096, including the exact
        // boundary where the nudged bracket straddles 1.
        let (num, den) = (BigUint::one(), BigUint::pow2(17));
        let d = scaled_desc(&num, &den, 5, 1);
        assert!(!d.np_at_least_one(4095));
        assert!(d.np_at_least_one(4096));
        assert!(d.np_at_least_one(1 << 60));
        assert!(!d.np_at_least_one(1));
    }
}
