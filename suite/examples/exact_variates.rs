//! The §3 exact variate generators, demonstrated and verified on the spot.
//!
//! Draws truncated-geometric, bounded-geometric, and binomial variates with
//! the paper's O(1)-expected-time algorithms, checks each empirical
//! distribution against its exact pmf with a χ² test, and demonstrates the
//! bias of the paper's verbatim Case-2.2 pseudocode (`tgeo_paper_literal`)
//! that the `randvar::tgeo` module docs record as an erratum (`exp e6` prints
//! it as table E6b).
//!
//! Run with: `cargo run --release --example exact_variates`

use bignum::Ratio;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use randvar::stats::{binomial_z, chi_square_test};
use randvar::{bgeo, binomial, tgeo, tgeo_paper_literal};

fn tgeo_pmf(p: f64, n: u64) -> Vec<f64> {
    let denom = 1.0 - (1.0 - p).powi(n as i32);
    (1..=n).map(|i| p * (1.0 - p).powi(i as i32 - 1) / denom).collect()
}

fn bgeo_pmf(p: f64, n: u64) -> Vec<f64> {
    let mut pmf: Vec<f64> = (1..n).map(|i| p * (1.0 - p).powi(i as i32 - 1)).collect();
    pmf.push((1.0 - p).powi(n as i32 - 1)); // the absorbing tail at n
    pmf
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(2024);
    let trials = 200_000u64;

    // --- T-Geo(1/10, 12): Theorem 1.3, Case 2.2 (n·p > 1 is Case 2.1). ---
    let p = Ratio::from_u64s(1, 10);
    let n = 12u64;
    let mut counts = vec![0u64; n as usize];
    for _ in 0..trials {
        counts[(tgeo(&mut rng, &p, n) - 1) as usize] += 1;
    }
    let r = chi_square_test(&counts, &tgeo_pmf(0.1, n), trials);
    println!("T-Geo(1/10, 12)   χ² = {:>7.2} (df {:>2})  p-value = {:.3}", r.stat, r.df, r.p_value);

    // --- B-Geo(1/3, 8): Fact 3. ---
    let p = Ratio::from_u64s(1, 3);
    let n = 8u64;
    let mut counts = vec![0u64; n as usize];
    for _ in 0..trials {
        counts[(bgeo(&mut rng, &p, n) - 1) as usize] += 1;
    }
    let r = chi_square_test(&counts, &bgeo_pmf(1.0 / 3.0, n), trials);
    println!("B-Geo(1/3, 8)     χ² = {:>7.2} (df {:>2})  p-value = {:.3}", r.stat, r.df, r.p_value);

    // --- Binomial(20, 1/4) via B-Geo skipping. ---
    let p = Ratio::from_u64s(1, 4);
    let mut hits = 0u64;
    for _ in 0..trials {
        hits += binomial(&mut rng, &p, 20);
    }
    let z = binomial_z(hits, trials * 20, 0.25);
    println!("Binomial(20, 1/4) mean/np z-score = {z:+.2}");

    // --- The documented erratum: the paper-literal T-Geo is biased. ---
    println!("\nErratum demo — Pr[T-Geo(1/25, 10) = 1], 60k draws each:");
    let p = Ratio::from_u64s(1, 25);
    let n = 10u64;
    let pmf1 = tgeo_pmf(1.0 / 25.0, n)[0];
    for (name, f) in [
        ("exact (ours)", tgeo as fn(&mut SmallRng, &Ratio, u64) -> u64),
        ("paper-literal", tgeo_paper_literal),
    ] {
        let draws = 60_000u64;
        let ones = (0..draws).filter(|_| f(&mut rng, &p, n) == 1).count() as u64;
        let z = binomial_z(ones, draws, pmf1);
        println!(
            "  {name:>13}: freq = {:.4}  exact pmf = {pmf1:.4}  z = {z:+.1}{}",
            ones as f64 / draws as f64,
            if z.abs() > 6.0 { "  ← biased, as the erratum predicts" } else { "" }
        );
    }
}
