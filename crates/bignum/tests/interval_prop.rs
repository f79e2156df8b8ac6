//! Property tests for the certified interval arithmetic (S2, Def. 3.2):
//! every operation must *bracket* the exact rational result — the soundness
//! property the lazy-Bernoulli framework (Fact 2) relies on for exactness.

use bignum::{BigUint, Dyadic, Interval};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Compares the dyadic `m·2^e` against the rational `a/b` exactly.
fn cmp_dyadic_ratio(d: &Dyadic, a: u64, b: u64) -> Ordering {
    // m·2^e ⋛ a/b  ⟺  m·b·2^e ⋛ a  (b > 0)
    let mb = d.mantissa().mul(&BigUint::from_u64(b));
    let e = d.exp();
    if e >= 0 {
        mb.shl(e as u64).cmp(&BigUint::from_u64(a))
    } else {
        mb.cmp(&BigUint::from_u64(a).shl((-e) as u64))
    }
}

/// Asserts `iv` brackets `a/b`.
fn assert_brackets(iv: &Interval, a: u64, b: u64, what: &str) {
    assert_ne!(cmp_dyadic_ratio(iv.lo(), a, b), Ordering::Greater, "{what}: lo > {a}/{b}");
    assert_ne!(cmp_dyadic_ratio(iv.hi(), a, b), Ordering::Less, "{what}: hi < {a}/{b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_ratio_brackets_the_rational(a in 0u64..1 << 40, b in 1u64..1 << 40, prec in 8u64..160) {
        let iv = Interval::from_ratio(&BigUint::from_u64(a), &BigUint::from_u64(b), prec);
        assert_brackets(&iv, a, b, "from_ratio");
        // And the bracket is tight: width ≤ 2^(⌈log2(a/b)⌉ − prec + 2).
        if a > 0 {
            let mag = (a as f64 / b as f64).log2().ceil() as i64;
            prop_assert!(iv.width_le_pow2(mag - prec as i64 + 2),
                "width too large at prec {prec}");
        }
    }

    #[test]
    fn add_brackets_exact_sum(
        a1 in 0u64..1 << 20, b1 in 1u64..1 << 20,
        a2 in 0u64..1 << 20, b2 in 1u64..1 << 20,
        prec in 16u64..128,
    ) {
        let x = Interval::from_ratio(&BigUint::from_u64(a1), &BigUint::from_u64(b1), prec);
        let y = Interval::from_ratio(&BigUint::from_u64(a2), &BigUint::from_u64(b2), prec);
        // x + y ⊇ a1/b1 + a2/b2 = (a1·b2 + a2·b1) / (b1·b2).
        let num = a1 * b2 + a2 * b1;
        let den = b1 * b2;
        assert_brackets(&x.add(&y), num, den, "add");
    }

    #[test]
    fn mul_brackets_exact_product(
        a1 in 0u64..1 << 20, b1 in 1u64..1 << 20,
        a2 in 0u64..1 << 20, b2 in 1u64..1 << 20,
        prec in 16u64..128,
    ) {
        let x = Interval::from_ratio(&BigUint::from_u64(a1), &BigUint::from_u64(b1), prec);
        let y = Interval::from_ratio(&BigUint::from_u64(a2), &BigUint::from_u64(b2), prec);
        assert_brackets(&x.mul(&y), a1 * a2, b1 * b2, "mul");
    }

    #[test]
    fn sub_brackets_exact_difference(
        a1 in 0u64..1 << 20, b1 in 1u64..1 << 20,
        a2 in 0u64..1 << 20, b2 in 1u64..1 << 20,
        prec in 16u64..128,
    ) {
        // Only meaningful when x ≥ y (sub saturates at zero).
        prop_assume!(u128::from(a1) * u128::from(b2) >= u128::from(a2) * u128::from(b1));
        let x = Interval::from_ratio(&BigUint::from_u64(a1), &BigUint::from_u64(b1), prec);
        let y = Interval::from_ratio(&BigUint::from_u64(a2), &BigUint::from_u64(b2), prec);
        let num = a1 * b2 - a2 * b1;
        let den = b1 * b2;
        assert_brackets(&x.sub(&y), num, den, "sub");
    }

    #[test]
    fn div_brackets_exact_quotient(
        a1 in 0u64..1 << 20, b1 in 1u64..1 << 20,
        a2 in 1u64..1 << 20, b2 in 1u64..1 << 20,
        prec in 16u64..128,
    ) {
        let x = Interval::from_ratio(&BigUint::from_u64(a1), &BigUint::from_u64(b1), prec);
        let y = Interval::from_ratio(&BigUint::from_u64(a2), &BigUint::from_u64(b2), prec);
        // (a1/b1) / (a2/b2) = a1·b2 / (b1·a2).
        assert_brackets(&x.div(&y), a1 * b2, b1 * a2, "div");
    }

    #[test]
    fn pow_brackets_exact_power(a in 0u64..50, b in 1u64..50, k in 0u64..6, prec in 32u64..160) {
        let x = Interval::from_ratio(&BigUint::from_u64(a), &BigUint::from_u64(b), prec);
        // a^k / b^k fits u64 for a,b < 50, k < 6 (50^5 < 2^34).
        assert_brackets(&x.pow(k), a.pow(k as u32), b.pow(k as u32), "pow");
    }

    #[test]
    fn rounding_orders_correctly(m in 1u64..=u64::MAX, e in -200i64..200, p in 1u64..128) {
        let d = Dyadic::new(BigUint::from_u64(m), e);
        let down = d.round_down(p);
        let up = d.round_up(p);
        prop_assert_ne!(down.cmp(&d), Ordering::Greater, "round_down must not increase");
        prop_assert_ne!(up.cmp(&d), Ordering::Less, "round_up must not decrease");
        prop_assert_ne!(down.cmp(&up), Ordering::Greater);
        // Mantissas shrink to ≤ p+1 bits.
        prop_assert!(down.mantissa().bit_len() <= p + 1);
        prop_assert!(up.mantissa().bit_len() <= p + 1);
    }

    #[test]
    fn dyadic_cmp_matches_f64_when_comfortable(
        m1 in 1u64..1 << 50, e1 in -20i64..20,
        m2 in 1u64..1 << 50, e2 in -20i64..20,
    ) {
        let d1 = Dyadic::new(BigUint::from_u64(m1), e1);
        let d2 = Dyadic::new(BigUint::from_u64(m2), e2);
        let f1 = m1 as f64 * (e1 as f64).exp2();
        let f2 = m2 as f64 * (e2 as f64).exp2();
        // Only check when f64 can represent both sides distinguishably.
        prop_assume!((f1 - f2).abs() > f1.max(f2) * 1e-9);
        let expect = f1.partial_cmp(&f2).unwrap();
        prop_assert_eq!(d1.cmp(&d2), expect);
    }
}
