//! Golden variate streams: pins, as constants, what the geometric,
//! promising-bucket and binomial generators return from fixed seeds and how
//! many random words they draw, on the fast path and in exact mode.
//!
//! The property suites check each generator's law and compare two code
//! paths inside one build; these constants catch a change in the stream
//! itself from one version to the next (a bracket that now resolves a coin
//! with a different number of words, a reordered draw).

use bignum::{BigUint, Ratio};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use randvar::{
    ber_pow_one_minus, ber_pstar, bgeo, binomial, binomial_positions, exact_mode_guard, tgeo,
    CountingRng,
};

/// Probabilities across the regimes the samplers meet: small rationals,
/// p near 0 and near 1, multi-limb parts, and 2^s/W with W both a power of
/// two and not.
fn probabilities() -> Vec<Ratio> {
    let big_w = BigUint::from_u128(0x1_0000_0000_0000_0001_2345_6789).mul_u64(0xFFFF_FFFB);
    vec![
        Ratio::from_u64s(1, 2),
        Ratio::from_u64s(1, 3),
        Ratio::from_u64s(2, 7),
        Ratio::from_u64s(1, 1000),
        Ratio::from_u64s(999, 1000),
        Ratio::new(BigUint::one(), BigUint::pow2(60)),
        Ratio::new(BigUint::pow2(130).add(&BigUint::one()), BigUint::pow2(131)),
        Ratio::new(BigUint::pow2(70), big_w.clone()),
        Ratio::new(BigUint::pow2(90), big_w),
        Ratio::new(BigUint::pow2(5), BigUint::pow2(17)),
    ]
}

const CAPS: [u64; 5] = [1, 2, 3, 40, 1 << 20];

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
}

/// `(hash, words)` of a fixed schedule of draws over every `(p, n)` pair.
fn stream(seed: u64) -> (u64, u64) {
    let mut rng = CountingRng::new(SmallRng::seed_from_u64(seed));
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for p in probabilities() {
        for n in CAPS {
            for _ in 0..8 {
                fnv(&mut hash, bgeo(&mut rng, &p, n));
                fnv(&mut hash, tgeo(&mut rng, &p, n));
                fnv(&mut hash, u64::from(ber_pow_one_minus(&mut rng, &p, n)));
                if p.mul_big(&BigUint::from_u64(n)).cmp_int(1).is_le() {
                    fnv(&mut hash, u64::from(ber_pstar(&mut rng, &p, n)));
                }
            }
            fnv(&mut hash, binomial(&mut rng, &p, n.min(4096)));
            for pos in binomial_positions(&mut rng, &p, n.min(4096)) {
                fnv(&mut hash, pos);
            }
        }
    }
    (hash, rng.words_consumed())
}

#[test]
fn golden_variates_fast_path() {
    assert_eq!(stream(0x601D), (0x9143_4cf4_0140_553d, 84_065));
}

#[test]
fn golden_variates_exact_mode() {
    let _exact = exact_mode_guard();
    assert_eq!(stream(0x601D), (0x9143_4cf4_0140_553d, 84_065));
}
