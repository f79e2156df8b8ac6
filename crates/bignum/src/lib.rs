//! # bignum — exact multi-word arithmetic for the Word RAM model
//!
//! Substrate crate for the reproduction of *Optimal Dynamic Parameterized
//! Subset Sampling* (PODS 2024). The paper works in the Word RAM model where
//! "every long integer is represented by an array of words" (§2.1), query
//! parameters and probabilities are exact rationals (§2.2), and random variate
//! generation relies on certified *i*-bit approximations (Definition 3.2).
//!
//! Three layers:
//! - [`BigUint`]: exact arbitrary-precision unsigned integers (see the README's crate table);
//! - [`Ratio`]: exact non-negative rationals with `floor_log2`/`ceil_log2`
//!   implementing Claim 4.3; the query fast path brackets them from their
//!   parts' limbs in integer words (`randvar::WordBracket`), never in floating
//!   point;
//! - [`Dyadic`] / [`Interval`]: certified outward-rounded interval arithmetic
//!   used to produce *i*-bit approximations of probabilities such as
//!   `p* = (1-(1-q)^n)/(nq)` (Lemmas 3.3 and 3.4) in poly(i) time (S2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dyadic;
mod rational;
mod uint;

pub use dyadic::{Dyadic, Interval};
pub use rational::Ratio;
pub use uint::BigUint;
