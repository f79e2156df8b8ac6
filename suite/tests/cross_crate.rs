//! Integration tests spanning crates: HALT vs the exact naive baseline on
//! identical distributions, the applications end-to-end, and the sorting
//! reduction — the workspace-level "does the whole system hang together" suite.

use baselines::{Handle, NaiveExact, PssBackend, QueryCtx};
use bignum::Ratio;
use dpss::{DpssSampler, SpaceUsage};
use floatdpss::sort_via_dpss;
use graphsub::{gen, randomized_push, rr_set};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use randvar::stats::binomial_z;

/// HALT and the exact naive baseline must produce statistically identical
/// inclusion frequencies on the same weight multiset and parameters.
#[test]
fn halt_and_naive_exact_agree_distributionally() {
    let weights: Vec<u64> = vec![1, 3, 9, 27, 81, 243, 729, 2187, 6561, 19683];
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    let alpha = Ratio::from_u64s(1, 3);
    let beta = Ratio::from_int(100);
    let wf = total / 3.0 + 100.0;
    let trials = 60_000u64;

    for (name, mut backend) in [
        ("halt", Box::new(DpssSampler::new(5)) as Box<dyn PssBackend>),
        ("naive", Box::new(NaiveExact::new(5)) as Box<dyn PssBackend>),
    ] {
        let mut ctx = QueryCtx::new(5);
        let handles: Vec<Handle> = weights.iter().map(|&w| backend.insert(w)).collect();
        let mut hits = vec![0u64; weights.len()];
        for _ in 0..trials {
            for h in backend.query(&mut ctx, &alpha, &beta) {
                hits[handles.iter().position(|&x| x == h).unwrap()] += 1;
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            let p = (w as f64 / wf).min(1.0);
            let z = binomial_z(hits[i], trials, p);
            assert!(z.abs() < 5.0, "{name}: item {i} z = {z}");
        }
    }
}

/// A long mixed workload keeps every invariant and never loses an item.
#[test]
fn long_mixed_workload_end_to_end() {
    let mut s = DpssSampler::new(11);
    let mut ctx = QueryCtx::new(11);
    let mut rng = SmallRng::seed_from_u64(13);
    let mut live = Vec::new();
    let mut sampled_total = 0usize;
    for step in 0..12_000 {
        match rng.gen_range(0..10) {
            0..=4 => live.push(s.insert(rng.gen_range(0..=1u64 << 50))),
            5..=7 => {
                if !live.is_empty() {
                    let i = rng.gen_range(0..live.len());
                    let id = live.swap_remove(i);
                    assert!(s.delete(id).is_some(), "step {step}");
                }
            }
            _ => {
                let alpha = Ratio::from_u64s(rng.gen_range(0..4), rng.gen_range(1..4));
                let beta = Ratio::from_int(rng.gen_range(0..1000));
                let t = s.query_in(&mut ctx, &alpha, &beta);
                sampled_total += t.len();
                for id in t {
                    assert!(s.contains(id), "step {step}: dead item sampled");
                }
            }
        }
        if step % 2000 == 0 {
            s.validate();
        }
    }
    s.validate();
    assert_eq!(s.len(), live.len());
    assert!(sampled_total > 0, "workload should have sampled something");
    // Space stays linear after all the churn, with a fixed offset of a few
    // thousand words (window-sized nodes; no universe-sized skeleton).
    assert!(s.space_words() < 64 * live.len().max(1) + 4096);
}

/// RR sets + edge churn + push on the same graph, end to end.
#[test]
fn graph_applications_end_to_end() {
    let edges = gen::power_law_digraph(500, 3000, 20, 17);
    let mut g = gen::build_dpss_graph(500, &edges, 19);
    let mut rng = SmallRng::seed_from_u64(23);
    let mut total_rr = 0usize;
    for round in 0..30 {
        for _ in 0..20 {
            let u = rng.gen_range(0..500u32);
            let v = rng.gen_range(0..500u32);
            if u != v {
                if rng.gen_bool(0.3) {
                    g.remove_edge(u, v);
                } else {
                    g.add_edge(u, v, rng.gen_range(1..=20));
                }
            }
        }
        let root = rng.gen_range(0..500u32);
        let rr = rr_set(&mut g, root, 200);
        assert!(!rr.is_empty() && rr[0] == root, "round {round}");
        assert!(rr.len() <= 201);
        total_rr += rr.len();
    }
    assert!(total_rr >= 30);
    let visits = randomized_push(&mut g, 7, 500, 3);
    assert!(*visits.get(&7).unwrap() >= 500);
}

/// The Theorem 1.2 reduction sorts, cross-validated against std.
#[test]
fn sorting_reduction_cross_validated() {
    let mut rng = SmallRng::seed_from_u64(29);
    for case in 0..3 {
        let n = 64 << case;
        let mut vals: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> rng.gen_range(0..50)).collect();
        let ours = sort_via_dpss(&vals, case as u64);
        vals.sort_unstable();
        assert_eq!(ours, vals, "case {case}");
    }
}

/// Same seed ⇒ bit-identical behavior across the whole stack.
#[test]
fn determinism_across_the_stack() {
    let run = || {
        let weights: Vec<u64> = (1..=200).map(|i| i * 31).collect();
        let (s, _) = DpssSampler::from_weights(&weights, 4242);
        let mut ctx = QueryCtx::new(4242);
        let mut out = Vec::new();
        for k in 1..6u64 {
            out.push(
                s.query_in(&mut ctx, &Ratio::from_u64s(1, k), &Ratio::from_int(k))
                    .iter()
                    .map(|id| id.raw())
                    .sum::<u64>(),
            );
        }
        out
    };
    assert_eq!(run(), run());
}

/// Every weight representable in a word round-trips through the sampler.
#[test]
fn weight_extremes_round_trip() {
    let weights = [0u64, 1, 2, 3, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
    let (s, ids) = DpssSampler::from_weights(&weights, 31);
    let mut ctx = QueryCtx::new(31);
    for (i, &w) in weights.iter().enumerate() {
        assert_eq!(s.weight(ids[i]), Some(w));
    }
    s.validate();
    // β=1: all positive weights certain.
    let t = s.query_in(&mut ctx, &Ratio::zero(), &Ratio::one());
    assert_eq!(t.len(), weights.iter().filter(|&&w| w > 0).count());
}
