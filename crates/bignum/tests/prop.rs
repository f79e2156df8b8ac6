//! Property-based tests for exact arithmetic: every operation is cross-checked
//! against `u128` semantics or algebraic identities on random multi-limb values.

use bignum::{BigUint, Dyadic, Interval, Ratio};
use proptest::prelude::*;
use std::cmp::Ordering;

fn big(limbs: &[u64]) -> BigUint {
    BigUint::from_limbs(limbs.to_vec())
}

fn hash(v: &BigUint) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The normalized limbs of `hi·2^128 + lo`.
fn limbs_of(lo: u128, hi: u64) -> Vec<u64> {
    let mut v = vec![lo as u64, (lo >> 64) as u64, hi];
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

// The inline/heap boundary: a value of at most two limbs is held inline and
// a longer one on the heap. Each result below is checked against `u128`
// arithmetic with an explicit third limb, and a result that comes back
// under 128 bits must equal (`==`, hash, order) the value built directly
// — which fails if it stayed in the heap form.
proptest! {
    #[test]
    fn add_then_sub_crosses_two_limbs_and_back(gap in 0u128..(1 << 80), b in 1u128..) {
        let a = u128::MAX - gap;
        let (x, y) = (BigUint::from_u128(a), BigUint::from_u128(b));
        let s = x.add(&y);
        let (lo, carry) = a.overflowing_add(b);
        prop_assert_eq!(s.limbs(), &limbs_of(lo, u64::from(carry))[..]);
        let back = s.sub(&y);
        prop_assert_eq!(&back, &x);
        prop_assert_eq!(hash(&back), hash(&x));
        prop_assert_eq!(s.sub(&x), y);
    }

    #[test]
    fn mul_crosses_two_limbs_and_divides_back(a in 1u128.., m in 2u64..) {
        let x = BigUint::from_u128(a);
        let p = x.mul_u64(m);
        prop_assert_eq!(&p, &x.mul(&BigUint::from_u64(m)));
        // a·m = a₀·m + (a₁·m)·2^64, limb by limb.
        let t0 = u128::from(a as u64) * u128::from(m);
        let t1 = (a >> 64) * u128::from(m);
        let (mid, c) = (t0 >> 64).overflowing_add(t1 & u128::from(u64::MAX));
        let lo = (t0 & u128::from(u64::MAX)) | (mid << 64);
        let top = (t1 >> 64) as u64 + u64::from(c) + (mid >> 64) as u64;
        prop_assert_eq!(p.limbs(), &limbs_of(lo, top)[..]);
        let (q, r) = p.div_rem_u64(m);
        prop_assert_eq!(r, 0);
        prop_assert_eq!(&q, &x);
        let (q, r) = p.div_rem(&BigUint::from_u64(m));
        prop_assert_eq!((q, r), (x, BigUint::zero()));
    }

    #[test]
    fn shl_then_shr_crosses_two_limbs_and_back(a in 1u128.., k in 0u64..200) {
        let x = BigUint::from_u128(a);
        let y = x.shl(k);
        prop_assert_eq!(y.bit_len(), x.bit_len() + k);
        prop_assert_eq!(y.word_len() as u64, (x.bit_len() + k).div_ceil(64));
        let back = y.shr(k);
        prop_assert_eq!(&back, &x);
        prop_assert_eq!(hash(&back), hash(&x));
        // Truncating the shifted value to its low 128 bits lands inline.
        let low = y.low_bits(128);
        let want = if k < 128 { a << k } else { 0 };
        prop_assert_eq!(low, BigUint::from_u128(want));
    }

    #[test]
    fn equal_values_compare_and_hash_alike_whichever_path(a in any::<u128>(),
                                                          pad in 0usize..3,
                                                          b in 1u128..) {
        let direct = BigUint::from_u128(a);
        // Trailing zero limbs are trimmed, so the value lands inline.
        let mut limbs = vec![a as u64, (a >> 64) as u64];
        limbs.extend(std::iter::repeat_n(0, pad));
        let padded = BigUint::from_limbs(limbs);
        // Through a three-or-more-limb intermediate and back.
        let spill = BigUint::pow2(128).mul(&BigUint::from_u128(b));
        let through = direct.add(&spill);
        prop_assert!(through.word_len() >= 3);
        let round = through.sub(&spill);
        let shifted = direct.shl(130).shr(130);
        for v in [&padded, &round, &shifted] {
            prop_assert_eq!(v, &direct);
            prop_assert_eq!(v.cmp(&direct), Ordering::Equal);
            prop_assert_eq!(hash(v), hash(&direct));
            prop_assert_eq!(v.limbs(), direct.limbs());
        }
        // Across the boundary the shorter value is the smaller one.
        prop_assert_eq!(direct.cmp(&through), Ordering::Less);
        prop_assert_eq!(through.cmp(&direct), Ordering::Greater);
        prop_assert_ne!(&through, &direct);
    }
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let s = BigUint::from_u64(a).add(&BigUint::from_u64(b));
        prop_assert_eq!(s.to_u128().unwrap(), a as u128 + b as u128);
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        prop_assert_eq!(p.to_u128().unwrap(), a as u128 * b as u128);
    }

    #[test]
    fn add_sub_roundtrip(a in proptest::collection::vec(any::<u64>(), 0..6),
                         b in proptest::collection::vec(any::<u64>(), 0..6)) {
        let x = big(&a);
        let y = big(&b);
        let s = x.add(&y);
        prop_assert_eq!(s.sub(&y), x.clone());
        prop_assert_eq!(s.sub(&x), y);
    }

    #[test]
    fn mul_commutes_and_distributes(a in proptest::collection::vec(any::<u64>(), 0..4),
                                    b in proptest::collection::vec(any::<u64>(), 0..4),
                                    c in proptest::collection::vec(any::<u64>(), 0..4)) {
        let (x, y, z) = (big(&a), big(&b), big(&c));
        prop_assert_eq!(x.mul(&y), y.mul(&x));
        prop_assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
    }

    #[test]
    fn div_rem_reconstructs(a in proptest::collection::vec(any::<u64>(), 0..8),
                            d in proptest::collection::vec(any::<u64>(), 1..5)) {
        let x = big(&a);
        let mut den = big(&d);
        if den.is_zero() { den = BigUint::one(); }
        let (q, r) = x.div_rem(&den);
        prop_assert_eq!(q.mul(&den).add(&r), x);
        prop_assert!(r.cmp(&den) == Ordering::Less);
    }

    #[test]
    fn shl_shr_inverse(a in proptest::collection::vec(any::<u64>(), 0..5), k in 0u64..300) {
        let x = big(&a);
        prop_assert_eq!(x.shl(k).shr(k), x.clone());
        // shr then shl only loses low bits
        let y = x.shr(k).shl(k);
        prop_assert!(y.cmp(&x) != Ordering::Greater);
        prop_assert!(x.sub(&y).bit_len() <= k);
    }

    #[test]
    fn low_bits_is_mod_pow2(a in proptest::collection::vec(any::<u64>(), 0..5), k in 0u64..300) {
        let x = big(&a);
        let (_, r) = x.div_rem(&BigUint::pow2(k));
        prop_assert_eq!(x.low_bits(k), r);
    }

    #[test]
    fn gcd_divides_both(a in 1u64.., b in 1u64..) {
        let g = BigUint::from_u64(a).gcd(&BigUint::from_u64(b));
        let gv = g.to_u64().unwrap();
        prop_assert_eq!(a % gv, 0);
        prop_assert_eq!(b % gv, 0);
        // Matches Euclid on u64.
        let (mut x, mut y) = (a, b);
        while y != 0 { let t = x % y; x = y; y = t; }
        prop_assert_eq!(gv, x);
    }

    #[test]
    fn bit_len_is_log2_floor_plus1(a in 1u64..) {
        prop_assert_eq!(BigUint::from_u64(a).bit_len(), 64 - a.leading_zeros() as u64);
    }

    #[test]
    fn ratio_log2_matches_f64(n in 1u64.., d in 1u64..) {
        let x = Ratio::from_u64s(n, d);
        let f = (n as f64).log2() - (d as f64).log2();
        let fl = x.floor_log2();
        let cl = x.ceil_log2();
        // f64 log2 is accurate to far better than 0.5 here.
        prop_assert!((fl as f64) <= f + 1e-9, "floor {fl} vs {f}");
        prop_assert!((fl as f64) >= f - 1.0 - 1e-9);
        prop_assert!(cl == fl || cl == fl + 1);
        // Defining inequalities, exactly.
        prop_assert!(x.cmp_pow2_signed(fl) != Ordering::Less);
        prop_assert!(x.cmp_pow2_signed(fl + 1) == Ordering::Less);
        prop_assert!(x.cmp_pow2_signed(cl) != Ordering::Greater);
    }

    #[test]
    fn ratio_field_axioms(an in 0u64.., ad in 1u64.., bn in 0u64.., bd in 1u64..) {
        let a = Ratio::from_u64s(an, ad);
        let b = Ratio::from_u64s(bn, bd);
        prop_assert_eq!(a.add(&b).cmp(&b.add(&a)), Ordering::Equal);
        prop_assert_eq!(a.mul(&b).cmp(&b.mul(&a)), Ordering::Equal);
        prop_assert_eq!(a.add(&b).sub(&b).cmp(&a), Ordering::Equal);
        if bn != 0 {
            prop_assert_eq!(a.div(&b).mul(&b).cmp(&a), Ordering::Equal);
        }
    }

    #[test]
    fn interval_ratio_contains_truth(n in 1u64.., d in 1u64.., prec in 16u64..128) {
        let i = Interval::from_ratio(&BigUint::from_u64(n), &BigUint::from_u64(d), prec);
        // lo·d ≤ n ≤ hi·d
        let dd = Dyadic::from_u64(d);
        let nn = Dyadic::from_u64(n);
        prop_assert!(i.lo().mul(&dd).cmp(&nn) != Ordering::Greater);
        prop_assert!(i.hi().mul(&dd).cmp(&nn) != Ordering::Less);
        prop_assert!(i.width_le_pow2((n as f64 / d as f64).log2().ceil() as i64 - prec as i64 + 2));
    }

    #[test]
    fn interval_pow_contains_truth(n in 2u64..40, k in 1u64..20) {
        // ((n-1)/n)^k bracketed.
        let base = Interval::from_ratio(&BigUint::from_u64(n - 1), &BigUint::from_u64(n), 128);
        let p = base.pow(k);
        let num = Dyadic::new(BigUint::from_u64(n - 1).pow(k), 0);
        let den = Dyadic::new(BigUint::from_u64(n).pow(k), 0);
        prop_assert!(p.lo().mul(&den).cmp(&num) != Ordering::Greater);
        prop_assert!(p.hi().mul(&den).cmp(&num) != Ordering::Less);
    }

    #[test]
    fn dyadic_round_brackets(m in 1u64.., e in -100i64..100, p in 1u64..64) {
        let x = Dyadic::new(BigUint::from_u64(m), e);
        let d = x.round_down(p);
        let u = x.round_up(p);
        prop_assert!(d.cmp(&x) != Ordering::Greater);
        prop_assert!(u.cmp(&x) != Ordering::Less);
        prop_assert!(d.mantissa().bit_len() <= p);
        prop_assert!(u.mantissa().bit_len() <= p + 1);
    }
}
