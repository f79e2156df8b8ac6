//! Index determinism of `query_many` batches.
//!
//! `PssBackend::query_many` runs query `i` of batch `b` on an RNG stream
//! derived from `(ctx seed, b, i)` alone. The contract this suite pins: on
//! both HALT backends, after a seeded mixed workload (inserts, deletes and
//! in-place reweights), a batch's answers equal per-index `query` calls on
//! any context built from the same seed that selects the `(b, i)` streams
//! itself — cold or warm, in reverse order, across update epochs, and split
//! into chunks on the caller's own threads. Neither cached plans nor a
//! query's position in the batch may show in the output.

use bignum::Ratio;
use dpss::{DeamortizedDpss, DpssSampler};
use pss_core::{boxed, Handle, PssBackend, QueryCtx, SeedableBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::drive::replay_stream;
use workloads::updates::{StreamKind, UpdateStream};
use workloads::weights::WeightDist;

const SEED: u64 = 0x5AAD;

/// Loads a backend with a seeded mixed workload (churn + reweights).
fn loaded<B: SeedableBackend + 'static>() -> Box<dyn PssBackend> {
    let mut backend = boxed::<B>(17);
    let mut rng = SmallRng::seed_from_u64(23);
    let stream = UpdateStream::generate(
        StreamKind::Decayed { insert_permille: 650, scale_every: 150, num: 3, den: 4 },
        256,
        1_200,
        WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 28 },
        &mut rng,
    );
    let mut ctx = QueryCtx::new(29);
    replay_stream(backend.as_mut(), &mut ctx, &stream, None);
    backend
}

/// A mixed parameter batch: duplicates (plan-cache hits), heavy-β pairs, and
/// a spread of μ targets.
fn param_batch(len: u64) -> Vec<(Ratio, Ratio)> {
    (0..len)
        .map(|i| match i % 4 {
            0 => (Ratio::from_u64s(1, 8), Ratio::zero()),
            1 => (Ratio::from_u64s(1, 2 + i % 7), Ratio::from_int(i)),
            2 => (Ratio::zero(), Ratio::from_int(1 + i * 100)),
            _ => (Ratio::from_u64s(1, 64), Ratio::one()),
        })
        .collect()
}

/// Answers `params[range]` as indices `range` of batch `batch` on `ctx`,
/// last index first.
fn answer_reversed(
    backend: &dyn PssBackend,
    ctx: &mut QueryCtx,
    batch: u64,
    params: &[(Ratio, Ratio)],
    range: std::ops::Range<usize>,
) -> Vec<Vec<Handle>> {
    let mut out = vec![Vec::new(); range.len()];
    for i in range.clone().rev() {
        ctx.select_stream(batch, i as u64);
        out[i - range.start] = backend.query(ctx, &params[i].0, &params[i].1);
    }
    out
}

#[test]
fn query_many_matches_reversed_per_index_queries_on_both_halt_backends() {
    for backend in [loaded::<DpssSampler>(), loaded::<DeamortizedDpss>()] {
        let backend = backend.as_ref();
        let params = param_batch(37);

        // Warm every plan with single queries, which leave the batch
        // counter at 0, then run two consecutive batches on the warm
        // context.
        let mut warm = QueryCtx::new(SEED);
        for (a, b) in &params {
            let _ = backend.query(&mut warm, a, b);
        }
        let seq0 = backend.query_many(&mut warm, &params);
        let seq1 = backend.query_many(&mut warm, &params);
        assert_ne!(seq0, seq1, "{}: batches must draw fresh randomness", backend.name());

        let mut fresh = QueryCtx::new(SEED);
        for (batch, seq) in [(0u64, &seq0), (1, &seq1)] {
            assert_eq!(
                &answer_reversed(backend, &mut fresh, batch, &params, 0..params.len()),
                seq,
                "{}: batch {batch}",
                backend.name()
            );
        }
    }
}

#[test]
fn batch_answers_hold_across_update_epochs() {
    // Mutating the backend between batches invalidates every context's plan
    // cache; both contexts must re-derive to the same answers.
    let mut backend = loaded::<DpssSampler>();
    let params = param_batch(16);
    let mut seq_ctx = QueryCtx::new(SEED);
    let mut rev_ctx = QueryCtx::new(SEED);
    let mut rng = SmallRng::seed_from_u64(41);
    for round in 0..4u64 {
        let seq = backend.query_many(&mut seq_ctx, &params);
        let rev = answer_reversed(backend.as_ref(), &mut rev_ctx, round, &params, 0..params.len());
        assert_eq!(rev, seq, "round {round}");
        for _ in 0..32 {
            backend.insert(rng.gen_range(1..=1u64 << 20));
        }
    }
}

#[test]
fn batch_answers_split_over_caller_threads() {
    // Ragged contiguous chunks, each answered on its own same-seeded context
    // on its own scoped thread over the shared backend: chunk boundaries
    // shift with the split, the answers must not.
    let backend = loaded::<DpssSampler>();
    let backend = backend.as_ref();
    for len in [1u64, 2, 5, 23, 64] {
        let params = param_batch(len);
        let seq = backend.query_many(&mut QueryCtx::new(SEED ^ len), &params);
        for parts in [2usize, 3] {
            let chunk = params.len().div_ceil(parts);
            let split: Vec<Vec<Handle>> = std::thread::scope(|scope| {
                let joins: Vec<_> = (0..params.len())
                    .step_by(chunk)
                    .map(|start| {
                        let range = start..(start + chunk).min(params.len());
                        let params = &params;
                        scope.spawn(move || {
                            let mut ctx = QueryCtx::new(SEED ^ len);
                            answer_reversed(backend, &mut ctx, 0, params, range)
                        })
                    })
                    .collect();
                joins.into_iter().flat_map(|j| j.join().expect("worker panicked")).collect()
            });
            assert_eq!(split, seq, "len {len} split {parts} ways");
        }
    }
}
