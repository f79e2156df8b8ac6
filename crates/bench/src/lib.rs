//! Shared workload generators, timing helpers, and table reporting for the
//! experiment harness (`exp` binary), plus the `bench_core` JSON schema.

#![forbid(unsafe_code)]
// Wall-clock timing is sanctioned here: this is measurement/driver code, not serving-path library code.
#![allow(clippy::disallowed_types)]

pub mod schema;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wordram::bits;

/// Weight distributions used across experiments (E1/E2/E3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightDist {
    /// All weights equal to 1000.
    Uniform,
    /// `w ≈ 10^9/rank^0.8` heavy tail (zipf-ish).
    Zipf,
    /// Half weight-1 items, half weight-2^40 items.
    Bimodal,
    /// Uniform random in `[1, 2^40]`.
    Random,
}

impl WeightDist {
    /// All distributions, for sweeps.
    pub const ALL: [WeightDist; 4] =
        [WeightDist::Uniform, WeightDist::Zipf, WeightDist::Bimodal, WeightDist::Random];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            WeightDist::Uniform => "uniform",
            WeightDist::Zipf => "zipf",
            WeightDist::Bimodal => "bimodal",
            WeightDist::Random => "random",
        }
    }

    /// Generates `n` weights.
    pub fn weights(self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match self {
                WeightDist::Uniform => 1000,
                WeightDist::Zipf => {
                    let rank = (i + 1) as f64;
                    (1e9 / rank.powf(0.8)) as u64 + 1
                }
                WeightDist::Bimodal => {
                    if i % 2 == 0 {
                        1
                    } else {
                        1 << 40
                    }
                }
                WeightDist::Random => rng.gen_range(1..=1u64 << 40),
            })
            .collect()
    }
}

/// LSD radix sort on `u64` keys (8 passes × 8 bits) — the "fast integer
/// sorting in practice" comparator for the E7 experiment. O(N) time with a
/// word-size constant, exactly the regime Theorem 1.2's reduction targets.
pub fn radix_sort_u64(values: &[u64]) -> Vec<u64> {
    let mut src = values.to_vec();
    let mut dst = vec![0u64; src.len()];
    for pass in 0..8u32 {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &v in &src {
            counts[(bits::shr64(v, u64::from(shift)) & 0xFF) as usize] += 1;
        }
        let mut pos = [0usize; 256];
        let mut acc = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            pos[i] = acc;
            acc += c;
        }
        for &v in &src {
            let b = (bits::shr64(v, u64::from(shift)) & 0xFF) as usize;
            dst[pos[b]] = v;
            pos[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Times `f`, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times `f` run `reps` times, returning seconds per repetition.
pub fn time_per<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Formats seconds with an adaptive unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header (with separator line).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_generators_shapes() {
        for d in WeightDist::ALL {
            let w = d.weights(100, 1);
            assert_eq!(w.len(), 100);
            assert!(w.iter().all(|&x| x >= 1), "{}", d.label());
        }
        assert!(WeightDist::Zipf.weights(10, 1)[0] > WeightDist::Zipf.weights(10, 1)[9]);
        let b = WeightDist::Bimodal.weights(4, 1);
        assert_eq!(b, vec![1, 1 << 40, 1, 1 << 40]);
    }

    #[test]
    fn radix_sort_matches_std_sort() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [0usize, 1, 2, 100, 4096] {
            let vals: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut expect = vals.clone();
            expect.sort_unstable();
            assert_eq!(radix_sort_u64(&vals), expect, "n = {n}");
        }
        // Duplicates and extremes.
        let vals = vec![u64::MAX, 0, 5, 5, 5, u64::MAX, 1];
        let mut expect = vals.clone();
        expect.sort_unstable();
        assert_eq!(radix_sort_u64(&vals), expect);
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_secs(2.0).ends_with(" s"));
        assert!(fmt_secs(2e-3).ends_with(" ms"));
        assert!(fmt_secs(2e-6).ends_with(" µs"));
        assert!(fmt_secs(2e-9).ends_with(" ns"));
    }
}
