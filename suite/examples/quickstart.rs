//! Quickstart: build a sampler, query it with on-the-fly parameters, update it.
//!
//! Run with: `cargo run --release --example quickstart`

use dpss::{DpssSampler, QueryCtx, Ratio, SpaceUsage};

fn main() {
    // A small catalog of items with integer weights.
    let weights = [1u64, 2, 4, 8, 16, 512, 100, 7];
    let (mut sampler, ids) = DpssSampler::from_weights(&weights, 42);
    // Queries draw their randomness (and cached query plans) from a
    // caller-owned context; the sampler itself is only read.
    let mut ctx = QueryCtx::new(42);
    println!("built sampler over {} items, Σw = {}", sampler.len(), sampler.total_weight());

    // A PSS query is parameterized *at query time*: p_x = min(w_x/(α·Σw+β), 1).
    let alpha = Ratio::from_u64s(1, 2); // α = 1/2
    let beta = Ratio::from_int(10); // β = 10
    println!(
        "\nquery (α=1/2, β=10): W = {}, expected sample size μ = {:.3}",
        sampler.param_weight(&alpha, &beta),
        sampler.expected_sample_size(&alpha, &beta)
    );
    for trial in 0..5 {
        let t = sampler.query_in(&mut ctx, &alpha, &beta);
        let ws: Vec<u64> = t.iter().map(|&id| sampler.weight(id).unwrap()).collect();
        println!("  sample {trial}: {} items, weights {ws:?}", t.len());
    }

    // Different parameters, same structure, no rebuilding:
    let t = sampler.query_in(&mut ctx, &Ratio::zero(), &Ratio::from_int(1_000_000));
    println!("\nquery (α=0, β=10^6): {} items (probabilities ≈ w/10^6)", t.len());
    let t = sampler.query_in(&mut ctx, &Ratio::zero(), &Ratio::one());
    println!("query (α=0, β=1):    {} items (every w ≥ 1 is certain)", t.len());

    // O(1) dynamic updates: deleting the heavy item boosts everyone else.
    let p_before = sampler.inclusion_prob(ids[0], &Ratio::one(), &Ratio::zero()).unwrap();
    sampler.delete(ids[5]).unwrap(); // the weight-512 item
    let p_after = sampler.inclusion_prob(ids[0], &Ratio::one(), &Ratio::zero()).unwrap();
    println!(
        "\nafter deleting the weight-512 item, p(item₀ | α=1, β=0): {} → {}",
        p_before, p_after
    );

    let heavy = sampler.insert(u64::MAX / 2);
    let t = sampler.query_in(&mut ctx, &Ratio::one(), &Ratio::zero());
    println!(
        "after inserting a near-2^63 item, it appears in the (1,0) sample: {}",
        t.contains(&heavy)
    );

    println!("\nstructure space: {} words for {} items", sampler.space_words(), sampler.len());
    let stats = sampler.stats();
    let (ir, pr) = (stats.item_arena_residency, stats.proxy_arena_residency);
    println!(
        "item arena residency:  {} live / {} parked / {} slack words",
        ir.live_words, ir.parked_words, ir.slack_words
    );
    println!(
        "proxy arena residency: {} live / {} parked / {} slack words",
        pr.live_words, pr.parked_words, pr.slack_words
    );
}
