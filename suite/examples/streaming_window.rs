//! Sliding-window stream sampling with worst-case-bounded updates.
//!
//! A stream of weighted events (think: flow records scored by anomaly
//! weight) is kept in a fixed-size sliding window; every arrival evicts the
//! oldest event once the window is full. Each tick we draw a PSS sample with
//! `μ = 8` expected events for downstream inspection — heavier (more
//! anomalous) events are proportionally more likely to be picked, exactly
//! the E2 parameterization `α = 1/μ, β = 0`.
//!
//! The window uses [`DeamortizedDpss`], so no single arrival ever pays a
//! rebuild burst — the latency histogram printed at the end is the point.
//!
//! Run with: `cargo run --release --example streaming_window`

// Wall-clock timing is sanctioned here: this is measurement/driver code, not serving-path library code.
#![allow(clippy::disallowed_types)]

use dpss::{DeamortizedDpss, PssBackend, QueryCtx, Ratio};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const WINDOW: usize = 4096;
const EVENTS: usize = 200_000;
const SAMPLE_EVERY: usize = 10_000;

fn main() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut window = DeamortizedDpss::new(7);
    let mut ctx = QueryCtx::new(7);
    let mut fifo = VecDeque::with_capacity(WINDOW + 1);
    let alpha = Ratio::from_u64s(1, 8); // μ = 8 when nothing clamps
    let beta = Ratio::zero();

    let mut max_ns = 0u128;
    let mut total_ns = 0u128;
    for t in 0..EVENTS {
        // Heavy-tailed anomaly scores: mostly small, occasionally huge.
        let score: u64 = if rng.gen_range(0u32..1000) < 5 {
            rng.gen_range(1 << 20..1 << 30)
        } else {
            rng.gen_range(1..1024)
        };
        let t0 = std::time::Instant::now();
        fifo.push_back(window.insert(score));
        if fifo.len() > WINDOW {
            window.delete(fifo.pop_front().expect("window non-empty"));
        }
        let dt = t0.elapsed().as_nanos();
        total_ns += dt;
        max_ns = max_ns.max(dt);

        if (t + 1) % SAMPLE_EVERY == 0 {
            let picked = window.query(&mut ctx, &alpha, &beta);
            let heavy =
                picked.iter().filter(|&&h| window.weight(h).unwrap_or(0) >= 1 << 20).count();
            println!(
                "t={:>6}  window={:>4}  sampled {:>2} events ({} heavy)  Σw={}",
                t + 1,
                window.len(),
                picked.len(),
                heavy,
                window.total_weight()
            );
        }
    }
    println!("\nupdate latency over {EVENTS} arrivals (insert + evict):");
    println!("  mean: {:>7} ns", total_ns / EVENTS as u128);
    println!(
        "  max : {:>7} ns  (structure work is O(1)/op — §4.5 de-amortized;\n\
         \x20                 residual spikes are allocator/OS noise, not rebuilds)",
        max_ns
    );
    println!("  epochs completed: {}", window.epochs_completed());
}
