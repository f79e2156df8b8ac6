//! # workloads — benchmark and test workload generation for DPSS
//!
//! The paper evaluates DPSS by its theorems rather than by datasets, so every
//! experiment in this reproduction is driven by *synthetic* workloads whose
//! statistical shape is controlled precisely. This crate centralises the three
//! ingredients every experiment needs:
//!
//! * [`weights`] — item-weight distributions (uniform, Zipf/power-law,
//!   bimodal, equal, power-of-two adversarial, heavy-hitter),
//! * [`updates`] — update streams (insert-only, delete-only, mixed,
//!   sliding-window, rebuild-adversarial oscillation),
//! * [`params`] — `(α, β)` query-parameter construction targeting a chosen
//!   expected sample size `μ`, plus exact `μ` computation.
//!
//! Everything is deterministic given a seed, so experiments are reproducible
//! run-to-run and machine-to-machine.
//!
//! ```
//! use workloads::weights::WeightDist;
//! use workloads::params::{alpha_for_mu, mu_exact_f64};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let w = WeightDist::Zipf { s_num: 3, s_den: 2, w_max: 1 << 20 }.generate(1000, &mut rng);
//! let (alpha, beta) = alpha_for_mu(16, 1); // target μ = 16
//! let mu = mu_exact_f64(&w, &alpha, &beta);
//! assert!((mu - 16.0).abs() < 1e-9); // exact when no item clamps at p = 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod params;
pub mod updates;
pub mod weights;

pub use drive::{replay_stream, replay_stream_timed, ReplayReport, ReplayTiming};
pub use params::{alpha_for_mu, beta_for_mu, mu_exact_f64, mu_exact_ratio};
pub use updates::{scale_weight, Op, StreamKind, UpdateStream};
pub use weights::WeightDist;
