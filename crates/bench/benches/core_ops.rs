//! Criterion benches for the HALT core: build (E1), query across μ (E2),
//! update (E3).

use bench::WeightDist;
use bignum::Ratio;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpss::{DpssSampler, QueryCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("build");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.sample_size(10);
    for exp in [12u32, 16, 20] {
        let n = 1usize << exp;
        let weights = WeightDist::Random.weights(n, 1);
        g.bench_with_input(BenchmarkId::from_parameter(format!("n=2^{exp}")), &weights, |b, w| {
            b.iter(|| DpssSampler::from_weights(w, 7));
        });
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("query");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.sample_size(20);
    let n = 1usize << 18;
    let weights = WeightDist::Uniform.weights(n, 2);
    let (s, _) = DpssSampler::from_weights(&weights, 9);
    let mut ctx = QueryCtx::new(9);
    for mu in [1u64, 16, 256] {
        let alpha = Ratio::from_u64s(n as u64, mu * n as u64);
        g.bench_with_input(BenchmarkId::from_parameter(format!("mu={mu}")), &alpha, |b, a| {
            b.iter(|| s.query_in(&mut ctx, a, &Ratio::zero()));
        });
    }
    g.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("update");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    for exp in [12u32, 16, 20] {
        let n = 1usize << exp;
        let weights = WeightDist::Random.weights(n, 3);
        let (mut s, ids) = DpssSampler::from_weights(&weights, 11);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pool = ids;
        g.bench_function(BenchmarkId::from_parameter(format!("n=2^{exp}")), |b| {
            b.iter(|| {
                let i = rng.gen_range(0..pool.len());
                let victim = pool.swap_remove(i);
                s.delete(victim).unwrap();
                pool.push(s.insert(0x9E37_79B9));
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_query, bench_update);
criterion_main!(benches);
