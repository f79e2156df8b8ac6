//! Sliver telemetry under load (ROADMAP item): the query fast path decides
//! each coin from an integer word bracket (`randvar::WordBracket`: one-word
//! floor and ceiling mantissas under one exact exponent, 62 or more
//! significant bits), falling back to the exact rational machinery only
//! when the drawn word lands in the sliver between certain-accept and
//! certain-reject (`randvar::sliver_hits` counts these). The bracket
//! quality is what keeps queries fast — if a refactor widened the
//! brackets, every coin would silently degrade to the old all-exact speed
//! without failing anything. This long-running seeded stress asserts a hard
//! upper bound on sliver hits per query so bracket regressions fail loudly.
//!
//! With correct brackets a sliver hit needs the uniform word to land in a
//! window a few units of `2^-62·p` wide (a single word for the open-bucket
//! coin, whose bracket is an exact shift), so across a few hundred thousand
//! coins the expected count is ≈ 0; the bounds below (≤ 2 per query, ≤ 8
//! per 10k queries) leave generous room while sitting orders of magnitude
//! under a degraded-bracket regime (which would hit the sliver on a
//! constant fraction of coins).

use bignum::Ratio;
use dpss::{DpssSampler, ItemId, QueryCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use randvar::sliver_hits;

#[test]
fn sliver_rate_stays_negligible_under_load() {
    let mut rng = SmallRng::seed_from_u64(0x51_1FE2);
    let n = 2048usize;
    let weights: Vec<u64> = (0..n)
        .map(|i| {
            // Zipf-ish head + uniform tail: wide spread of bucket indices.
            let base = (1u64 << 30) / (i as u64 + 1);
            base.max(1) + rng.gen_range(0..=i as u64)
        })
        .collect();
    let (mut s, mut ids) = DpssSampler::from_weights(&weights, 0xBEEF);
    let mut ctx = QueryCtx::new(0xBEEF);

    let rounds = 50usize;
    let queries_per_round = 40usize;
    let mut total_queries = 0u64;
    let mut total_hits = 0u64;
    let mut worst_per_query = 0u64;
    for round in 0..rounds {
        // Churn between query bursts so the brackets face a moving
        // structure (fresh plans every round — the epoch advances).
        for _ in 0..64 {
            let j = rng.gen_range(0..ids.len());
            let id: ItemId = ids[j];
            s.delete(id).unwrap();
            ids[j] = s.insert(rng.gen_range(1..=1u64 << 30));
            let k = rng.gen_range(0..ids.len());
            s.set_weight(ids[k], rng.gen_range(1..=1u64 << 30)).unwrap();
        }
        for q in 0..queries_per_round {
            let mu = 1 + ((round * queries_per_round + q) % 64) as u64;
            let before = sliver_hits();
            let _ = s.query_in(&mut ctx, &Ratio::from_u64s(1, mu), &Ratio::zero());
            let hits = sliver_hits() - before;
            worst_per_query = worst_per_query.max(hits);
            assert!(hits <= 2, "round {round} query {q} (μ={mu}): {hits} sliver fallbacks");
            total_hits += hits;
            total_queries += 1;
        }
    }
    assert_eq!(total_queries, (rounds * queries_per_round) as u64);
    assert!(
        total_hits * 10_000 <= total_queries * 8,
        "{total_hits} sliver fallbacks across {total_queries} queries \
         (worst query: {worst_per_query}) — brackets have degraded"
    );
}
