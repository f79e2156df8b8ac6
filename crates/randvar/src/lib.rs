//! # randvar — exact random variate generation in the Word RAM model
//!
//! Implements §3 of *Optimal Dynamic Parameterized Subset Sampling* (PODS
//! 2024): every random variate the HALT data structure consumes, generated
//! **exactly** (no floating-point approximation anywhere in the sampling path)
//! in O(1) expected time:
//!
//! - [`ber_rational`] / [`ber_rational_parts`]: `Ber(a/b)` for exact rationals
//!   (Fact 1, type (i));
//! - [`ber_oracle`] + [`ProbOracle`]: the lazy-approximation framework (Fact 2)
//!   with the concrete oracles [`PStarOracle`] (type (ii)),
//!   [`HalfRecipPStarOracle`] (type (iii)) — Theorem 3.1 — and
//!   [`PowOneMinusOracle`] for `(1−p)^k`;
//! - [`bgeo`]: bounded geometric `B-Geo(p, n)` (Fact 3);
//! - [`tgeo`]: truncated geometric `T-Geo(p, n)` (**Theorem 1.3**);
//! - [`binomial()`]: exact `Binomial(n, p)` in O(1 + n·p) expected time via
//!   `B-Geo` skipping (the static equal-probability subset-sampling
//!   primitive);
//! - [`naive`]: the linear-scan and `f64`-inversion comparators the E6/E8
//!   benches race against;
//! - [`CountingRng`] and [`stats`]: randomness accounting and a full
//!   goodness-of-fit framework (χ² with exact p-values via regularized
//!   incomplete gamma, Kolmogorov–Smirnov, binomial z) for the exactness
//!   experiments (V2, E6, E8);
//! - [`Bits64`], [`WordBracket`] and the `*_from_word` continuations: the
//!   exactness-preserving word-RAM **fast path** — every coin first tests
//!   one uniform 64-bit word against certified certain-accept/certain-reject
//!   thresholds and only invokes the exact multi-word machinery on the
//!   few-word sliver between them, conditioned on the drawn word, so the
//!   output distribution is bit-for-bit unchanged. The thresholds come from
//!   integer brackets (one-word floor and ceiling mantissas under one exact
//!   binary exponent), never from floating point. [`exact_mode_guard`]
//!   restores the all-exact behavior for agreement testing;
//! - [`GeoDesc`]: the per-probability **geometric descriptor** the
//!   geometric-family generators run on. Built once per `p` in words — a
//!   certified bracket of `p`, the exact `⌊log2 p⌋`, and a fixed-point
//!   table of `(1−p)^{2^i}` brackets — it turns each `(1−p)^k` coin into
//!   `popcount(k)` integer multiplies and keeps the exact `p` unbuilt until
//!   a word lands in a sliver. A caller walking many strides at one `p`
//!   adds a [`StrideTable`] of 65 brackets `(1−p)^{j·2^s}`: a `B-Geo`
//!   position coin then compares its word with the two entries around its
//!   `k` first, and only the ≤ ~1/32 of words between them pay for the
//!   `popcount(k)` products. [`bgeo`], [`tgeo`], [`ber_pstar`] and
//!   [`ber_pow_one_minus`] wrap one descriptor per call; callers drawing
//!   many variates at one `p` (the query walk, [`binomial()`]) build it
//!   once. A bracket only decides how often the sliver fallback runs, never
//!   a result or the words drawn, so every generator's stream is the same
//!   whichever bracket it was given.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernoulli;
mod bgeo;
pub mod binomial;
mod fast;
mod geo;
mod lazy;
pub mod naive;
mod oracles;
mod rng;
pub mod stats;
mod tgeo;

pub use bernoulli::{ber_rational, ber_rational_from_word, ber_rational_parts, ber_u64};
pub use bgeo::{ber_pow_one_minus, bgeo};
pub use binomial::{binomial, binomial_positions};
pub use fast::{
    ber_bits_rational, ber_bits_with, exact_mode_guard, fast_path_enabled, sliver_hits, Bits64,
    ExactModeGuard, WordBracket,
};
pub use geo::{GeoDesc, StrideTable};
pub use lazy::{ber_oracle, ber_oracle_from_word, ProbOracle, RatioOracle};
pub use naive::{bgeo_naive_scan, geo_f64, tgeo_inversion_f64, tgeo_naive_scan};
pub use oracles::{ber_pstar, HalfRecipPStarOracle, PStarOracle, PowOneMinusOracle};
pub use rng::{uniform_below, uniform_below_u128, CountingRng};
pub use tgeo::{tgeo, tgeo_paper_literal};
