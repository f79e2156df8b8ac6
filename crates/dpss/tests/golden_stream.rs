//! Golden sample stream: pins, as constants, what a seeded query sequence
//! returns and how many random words it draws.
//!
//! The other bit-identity suites compare two samplers inside one build, so
//! a change that shifts the stream of *both* (say, a coin that now draws an
//! extra word) passes them. This test pins the stream itself: an FNV-1a
//! hash of the returned ids plus `QueryCtx::words_consumed()`, for fixed
//! weights and seeds, on the fast path and in force-exact mode, with both
//! final-level strategies, at target sample sizes μ ∈ {1, 4, 16, 64, 256}.
//! Any change to the order or number of words a query consumes, or to what
//! it returns, moves a constant.

use bignum::Ratio;
use dpss::{DpssSampler, FinalLevelMode};
use pss_core::QueryCtx;

const N: usize = 2048;
const QUERIES: u64 = 100;
const MUS: [u64; 5] = [1, 4, 16, 64, 256];

/// Deterministic heavy-tailed weights (SplitMix64 words shaped into a
/// spread of magnitudes from 1 to ~2^40), independent of any RNG crate.
fn weights() -> Vec<u64> {
    let mut s = 0x005E_ED0F_601D_u64;
    (0..N)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bits = 1 + z % 40;
            (z >> 24) & ((1u64 << bits) - 1) | 1
        })
        .collect()
}

/// FNV-1a over the raw id bits.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
}

/// `(id hash, words drawn, items returned)` of `QUERIES` queries at
/// `α = 1/μ, β = 0` — `W = Σw/μ`, so about μ items per query.
fn stream(force_exact: bool, mode: FinalLevelMode, mu: u64) -> (u64, u64, u64) {
    let (mut s, _) = DpssSampler::from_weights(&weights(), 17);
    s.set_force_exact(force_exact);
    s.set_final_mode(mode);
    let alpha = Ratio::from_u64s(1, mu);
    let beta = Ratio::zero();
    let mut ctx = QueryCtx::new(0x601D ^ mu);
    let (mut hash, mut items) = (0xCBF2_9CE4_8422_2325u64, 0u64);
    for q in 0..QUERIES {
        // Every fourth query uses a fresh β, so plan misses are covered too.
        let beta = if q % 4 == 3 { Ratio::from_u64s(q, 3) } else { beta.clone() };
        let out = s.query_in(&mut ctx, &alpha, &beta);
        items += out.len() as u64;
        fnv(&mut hash, out.len() as u64);
        for id in out {
            fnv(&mut hash, id.raw());
        }
    }
    (hash, ctx.words_consumed(), items)
}

/// `(force_exact, mode, μ, hash, words, items)`.
type Golden = (bool, FinalLevelMode, u64, u64, u64, u64);

const GOLDEN: &[Golden] = &[
    (false, FinalLevelMode::Lookup, 1, 0xbbbe8778fc0b59ef, 3881, 100),
    (false, FinalLevelMode::Lookup, 4, 0x42e15a84f28895bb, 7119, 397),
    (false, FinalLevelMode::Lookup, 16, 0x47885c7918b85040, 17359, 1592),
    (false, FinalLevelMode::Lookup, 64, 0xcd5193dd792e7557, 33206, 6488),
    (false, FinalLevelMode::Lookup, 256, 0xde7b171682ba65a8, 43229, 14465),
    (false, FinalLevelMode::Direct, 1, 0x559b3ab4c1c0845d, 3769, 106),
    (false, FinalLevelMode::Direct, 4, 0x7d6c23707decf01d, 6803, 394),
    (false, FinalLevelMode::Direct, 16, 0x22420f3b1fd07ebc, 16939, 1605),
    (false, FinalLevelMode::Direct, 64, 0xa6c25e8dd5db40c9, 32182, 6286),
    (false, FinalLevelMode::Direct, 256, 0x3d2eef933680b668, 43251, 14523),
    (true, FinalLevelMode::Lookup, 1, 0xbbbe8778fc0b59ef, 3881, 100),
    (true, FinalLevelMode::Lookup, 4, 0x342f5d08fcfaaebd, 7069, 406),
    (true, FinalLevelMode::Lookup, 16, 0x5ed3493f3ce24609, 17328, 1648),
    (true, FinalLevelMode::Lookup, 64, 0xa5f6c8004f30dd5f, 31181, 6278),
    (true, FinalLevelMode::Lookup, 256, 0x42a67c800ae053a0, 35144, 14559),
    (true, FinalLevelMode::Direct, 1, 0x559b3ab4c1c0845d, 3769, 106),
    (true, FinalLevelMode::Direct, 4, 0xf58971dd08109550, 6677, 410),
    (true, FinalLevelMode::Direct, 16, 0x8a608fc9ccd3ad4d, 16508, 1559),
    (true, FinalLevelMode::Direct, 64, 0x8cb15bb7a477aef8, 30890, 6304),
    (true, FinalLevelMode::Direct, 256, 0xacd7f652a5372972, 34215, 14474),
];

fn check(force_exact: bool) {
    let mut bad = Vec::new();
    for mode in [FinalLevelMode::Lookup, FinalLevelMode::Direct] {
        for mu in MUS {
            let got = stream(force_exact, mode, mu);
            let want = GOLDEN
                .iter()
                .find(|g| g.0 == force_exact && g.1 == mode && g.2 == mu)
                .map(|g| (g.3, g.4, g.5));
            if want != Some(got) {
                bad.push(format!(
                    "({force_exact}, FinalLevelMode::{mode:?}, {mu}, {:#018x}, {}, {}),",
                    got.0, got.1, got.2
                ));
            }
        }
    }
    assert!(bad.is_empty(), "stream moved; got:\n{}", bad.join("\n"));
}

#[test]
fn golden_stream_fast_path() {
    check(false);
}

#[test]
fn golden_stream_force_exact() {
    check(true);
}
