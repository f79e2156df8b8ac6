//! Criterion benches for the design-choice ablations (A1/A2/A3).

use bench::WeightDist;
use bignum::Ratio;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpss::{DpssSampler, FinalLevelMode, QueryCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_final_mode(c: &mut Criterion) {
    // A1: final-level lookup table vs direct Bernoulli sampling.
    let mut g = c.benchmark_group("a1_final_mode");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.sample_size(20);
    let n = 1usize << 16;
    let weights = WeightDist::Zipf.weights(n, 9);
    let alpha = Ratio::one();
    for (mode, label) in [(FinalLevelMode::Lookup, "lookup"), (FinalLevelMode::Direct, "direct")] {
        let (mut s, _) = DpssSampler::from_weights(&weights, 91);
        let mut ctx = QueryCtx::new(91);
        s.set_final_mode(mode);
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| s.query_in(&mut ctx, &alpha, &Ratio::zero()));
        });
    }
    g.finish();
}

fn bench_rebuild_factor(c: &mut Criterion) {
    // A2: growth workload under different rebuild thresholds.
    let mut g = c.benchmark_group("a2_rebuild_factor");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.sample_size(10);
    for k in [2usize, 4, 8] {
        g.bench_function(BenchmarkId::from_parameter(format!("k={k}")), |b| {
            b.iter(|| {
                let mut s = DpssSampler::new(97);
                s.set_rebuild_factor(k);
                let mut rng = SmallRng::seed_from_u64(101);
                for _ in 0..(1usize << 14) {
                    s.insert(rng.gen_range(1..=1u64 << 40));
                }
                s.rebuild_count()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_final_mode, bench_rebuild_factor);
criterion_main!(benches);
