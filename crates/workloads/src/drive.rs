//! Replaying generated workloads into any [`PssBackend`].
//!
//! [`UpdateStream::replay`](crate::updates::UpdateStream::replay) is
//! callback-based and handle-type-generic; this module adds the one layer
//! every consumer was re-implementing by hand: applying a stream to a
//! `dyn PssBackend` while tracking live handles *and their weights*,
//! optionally interleaving queries, and reporting what happened. It is the
//! piece that lets the bench harness and the integration suite drive *every*
//! sampler — HALT, de-amortized HALT, and all baselines — through one code
//! path.
//!
//! Queries run through the shared-read surface: the caller supplies the
//! [`QueryCtx`] (owning the RNG stream and any cached read-path state), so
//! one driver invocation is deterministic in `(stream, ctx seed)` for every
//! backend.

// Wall-clock timing is sanctioned here: this is measurement/driver code, not serving-path library code.
#![allow(clippy::disallowed_types)]

use crate::updates::{scale_weight, LiveSet, Op, UpdateStream};
use bignum::Ratio;
use pss_core::{Handle, PssBackend, QueryCtx};
use std::time::{Duration, Instant};

/// Outcome of [`replay_stream`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Items inserted (initial load + stream inserts).
    pub inserts: u64,
    /// Items deleted.
    pub deletes: u64,
    /// Individual `set_weight` calls issued by [`Op::ScaleAllWeights`]
    /// (each scale op reweights every live item).
    pub reweights: u64,
    /// Queries issued (0 unless a query cadence was requested).
    pub queries: u64,
    /// Query batches issued (one `query_many` call per cadence tick).
    pub batches: u64,
    /// Total items returned across all queries.
    pub sampled: u64,
}

/// Wall-clock split of one [`replay_stream_timed`] run.
///
/// Kept separate from [`ReplayReport`] on purpose: reports are compared
/// across backends for semantic agreement (`PartialEq`), and wall-clock
/// times must never participate in that comparison.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayTiming {
    /// Time spent in the initial bulk load (`insert_many` of
    /// `stream.initial`) before the first stream op runs.
    pub setup: Duration,
    /// Time spent replaying the update/query ops.
    pub ops: Duration,
}

/// Replays `stream` into `backend`: initial load (batched through
/// [`PssBackend::insert_many`], so journaled backends version it once), then
/// every update op.
///
/// If `query_every` is `Some((k, params))`, the whole parameter batch is
/// issued through [`PssBackend::query_many`] (on `ctx`) after every `k`-th
/// update op — backends with per-parameter setup (HALT's plan cache) amortize
/// it across the batch. [`Op::ReweightAt`] reweights one live item in place.
/// [`Op::ScaleAllWeights`] first offers the backend one native
/// [`PssBackend::scale_all_weights`] call (handles stay put, one journal
/// entry); backends without it get every live item reweighted through
/// `set_weight`, adopting whatever handle comes back (the handle-churning
/// default re-issues them; native in-place backends don't). Either way the
/// report counts one reweight per live item — that is the semantic work a
/// decay performs. Panics if the backend rejects a delete or reweight of a
/// handle the stream believes is live — that is a backend bug, and the
/// agreement suite relies on it being loud.
pub fn replay_stream(
    backend: &mut dyn PssBackend,
    ctx: &mut QueryCtx,
    stream: &UpdateStream,
    query_every: Option<(usize, &[(Ratio, Ratio)])>,
) -> ReplayReport {
    replay_stream_timed(backend, ctx, stream, query_every).0
}

/// [`replay_stream`] plus a wall-clock split: how long the initial bulk load
/// took versus the op replay. The bench harness reports the two phases
/// separately so a backend's bulk-build speed never hides inside (or
/// pollutes) its steady-state op rate.
pub fn replay_stream_timed(
    backend: &mut dyn PssBackend,
    ctx: &mut QueryCtx,
    stream: &UpdateStream,
    query_every: Option<(usize, &[(Ratio, Ratio)])>,
) -> (ReplayReport, ReplayTiming) {
    let mut live: LiveSet<(Handle, u64)> = LiveSet::new();
    let mut report = ReplayReport::default();
    let t0 = Instant::now();
    for (h, &w) in backend.insert_many(&stream.initial).into_iter().zip(&stream.initial) {
        live.insert((h, w));
        report.inserts += 1;
    }
    let setup = t0.elapsed();
    let t1 = Instant::now();
    for (step, op) in stream.ops.iter().enumerate() {
        match *op {
            Op::Insert(w) => {
                live.insert((backend.insert(w), w));
                report.inserts += 1;
            }
            Op::DeleteAt(i) => {
                let (h, _) = live.remove_at(i);
                assert!(
                    backend.delete(h),
                    "{}: delete of live handle {h} rejected at step {step}",
                    backend.name()
                );
                report.deletes += 1;
            }
            Op::DeleteOldest => {
                let (h, _) = live.remove_oldest();
                assert!(
                    backend.delete(h),
                    "{}: FIFO delete of live handle {h} rejected at step {step}",
                    backend.name()
                );
                report.deletes += 1;
            }
            Op::ReweightAt { index, weight } => {
                let entry = &mut live.handles_mut()[index];
                let (h, _) = *entry;
                let nh = backend.set_weight(h, weight).unwrap_or_else(|| {
                    panic!(
                        "{}: reweight of live handle {h} rejected at step {step}",
                        backend.name()
                    )
                });
                *entry = (nh, weight);
                report.reweights += 1;
            }
            Op::ScaleAllWeights { num, den } => {
                if backend.scale_all_weights(num, den) {
                    // Native decay: handles are untouched; mirror the floors
                    // into the tracked weights with the shared definition.
                    for entry in live.handles_mut() {
                        entry.1 = scale_weight(entry.1, num, den);
                        report.reweights += 1;
                    }
                } else {
                    for entry in live.handles_mut() {
                        let (h, w) = *entry;
                        let scaled = scale_weight(w, num, den);
                        let nh = backend.set_weight(h, scaled).unwrap_or_else(|| {
                            panic!(
                                "{}: reweight of live handle {h} rejected at step {step}",
                                backend.name()
                            )
                        });
                        *entry = (nh, scaled);
                        report.reweights += 1;
                    }
                }
            }
        }
        if let Some((k, params)) = query_every {
            if k > 0 && (step + 1) % k == 0 && !params.is_empty() {
                report.batches += 1;
                report.queries += params.len() as u64;
                report.sampled +=
                    backend.query_many(ctx, params).iter().map(|s| s.len() as u64).sum::<u64>();
            }
        }
    }
    let ops = t1.elapsed();
    assert_eq!(backend.len(), live.len(), "{}: live-set drift", backend.name());
    let tracked: u128 = live.handles().iter().map(|&(_, w)| w as u128).sum();
    assert_eq!(backend.total_weight(), tracked, "{}: weight drift", backend.name());
    (report, ReplayTiming { setup, ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updates::StreamKind;
    use crate::weights::WeightDist;
    use pss_core::OpError;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A trivial in-test backend so this crate's tests stay independent of
    /// the sampler crates above it in the dependency graph.
    #[derive(Debug, Default)]
    struct CountingBackend {
        store: pss_core::Store,
        /// Support the native one-op decay (exercises the driver's fast arm).
        native_scale: bool,
        scale_calls: u64,
    }

    impl pss_core::SpaceUsage for CountingBackend {
        fn space_words(&self) -> usize {
            self.store.space_words()
        }
    }

    impl PssBackend for CountingBackend {
        fn try_insert(&mut self, weight: u64) -> Result<Handle, OpError> {
            Ok(self.store.insert(weight))
        }
        fn try_delete(&mut self, handle: Handle) -> Result<bool, OpError> {
            Ok(self.store.delete(handle))
        }
        fn query_into(
            &self,
            _ctx: &mut QueryCtx,
            _alpha: &Ratio,
            _beta: &Ratio,
            out: &mut Vec<Handle>,
        ) {
            out.extend(self.store.iter_live().map(|(h, _)| h));
        }
        fn slot(&self, handle: Handle) -> usize {
            pss_core::Store::slot(handle)
        }
        fn len(&self) -> usize {
            self.store.len()
        }
        fn total_weight(&self) -> u128 {
            self.store.total()
        }
        fn name(&self) -> &'static str {
            "counting"
        }
        fn try_set_weight(
            &mut self,
            handle: Handle,
            new_weight: u64,
        ) -> Result<Option<Handle>, OpError> {
            Ok(self.store.set_weight(handle, new_weight).map(|_| handle))
        }
        fn scale_all_weights(&mut self, num: u32, den: u32) -> bool {
            if !self.native_scale {
                return false;
            }
            self.store.scale_all(num, den);
            self.scale_calls += 1;
            true
        }
    }

    #[test]
    fn replay_tracks_backend_state() {
        let mut rng = SmallRng::seed_from_u64(5);
        let stream = UpdateStream::generate(
            StreamKind::Mixed { insert_permille: 600 },
            32,
            500,
            WeightDist::Uniform { lo: 1, hi: 100 },
            &mut rng,
        );
        let mut backend = CountingBackend::default();
        let mut ctx = QueryCtx::new(5);
        let params = [(Ratio::one(), Ratio::zero()), (Ratio::from_u64s(1, 2), Ratio::zero())];
        let report = replay_stream(&mut backend, &mut ctx, &stream, Some((10, &params)));
        assert_eq!(report.inserts - report.deletes, backend.len() as u64);
        assert_eq!(report.batches, (stream.ops.len() / 10) as u64);
        assert_eq!(report.queries, report.batches * params.len() as u64);
        // The counting backend returns everything live on each query.
        assert!(report.sampled >= report.queries);
    }

    #[test]
    fn timed_replay_reports_identical_semantics() {
        let mut rng = SmallRng::seed_from_u64(77);
        let stream = UpdateStream::generate(
            StreamKind::Mixed { insert_permille: 500 },
            64,
            300,
            WeightDist::Uniform { lo: 1, hi: 100 },
            &mut rng,
        );
        let mut plain = CountingBackend::default();
        let mut timed = CountingBackend::default();
        let mut ctx = QueryCtx::new(77);
        let a = replay_stream(&mut plain, &mut ctx, &stream, None);
        let (b, timing) = replay_stream_timed(&mut timed, &mut ctx, &stream, None);
        assert_eq!(a, b, "the timed variant is the same replay, split by phase");
        assert_eq!(plain.len(), timed.len());
        // 300 ops did run, so the op phase cannot be a literal zero reading.
        assert!(timing.ops > Duration::ZERO);
    }

    #[test]
    fn replay_fifo_stream_hits_backend_in_order() {
        let mut rng = SmallRng::seed_from_u64(21);
        let stream = UpdateStream::generate(
            StreamKind::Fifo { window: 32 },
            0,
            400,
            WeightDist::Uniform { lo: 1, hi: 50 },
            &mut rng,
        );
        let mut backend = CountingBackend::default();
        let mut ctx = QueryCtx::new(21);
        let report = replay_stream(&mut backend, &mut ctx, &stream, None);
        assert_eq!(report.inserts, 400);
        assert_eq!(report.deletes, 400 - backend.len() as u64);
        assert!(backend.len() <= 32, "window must cap the live size");
        assert!(report.deletes > 300, "steady state must be delete-dominated");
    }

    #[test]
    fn replay_without_queries() {
        let mut rng = SmallRng::seed_from_u64(9);
        let stream = UpdateStream::generate(
            StreamKind::InsertOnly,
            0,
            200,
            WeightDist::Equal { w: 3 },
            &mut rng,
        );
        let mut backend = CountingBackend::default();
        let mut ctx = QueryCtx::new(9);
        let report = replay_stream(&mut backend, &mut ctx, &stream, None);
        assert_eq!(report.inserts, 200);
        assert_eq!(report.queries, 0);
        assert_eq!(backend.len(), 200);
        assert_eq!(backend.total_weight(), 600);
    }

    #[test]
    fn replay_mixed_regime_tracks_reweights() {
        let mut rng = SmallRng::seed_from_u64(41);
        let stream = UpdateStream::generate(
            StreamKind::MixedRegime { insert_permille: 250, reweight_permille: 500 },
            32,
            600,
            WeightDist::Uniform { lo: 1, hi: 1000 },
            &mut rng,
        );
        let mut backend = CountingBackend::default();
        let mut ctx = QueryCtx::new(41);
        let params = [(Ratio::one(), Ratio::zero())];
        let report = replay_stream(&mut backend, &mut ctx, &stream, Some((1, &params)));
        assert!(report.reweights > 150, "reweight-dominated stream");
        assert_eq!(report.queries, stream.ops.len() as u64, "one query per round");
        // The driver's own exit assertions already proved exact weight
        // tracking across every reweight.
        assert_eq!(report.inserts - report.deletes, backend.len() as u64);
    }

    #[test]
    fn replay_decayed_uses_the_native_scale_arm_when_offered() {
        let mut rng = SmallRng::seed_from_u64(51);
        let stream = UpdateStream::generate(
            StreamKind::Decayed { insert_permille: 700, scale_every: 50, num: 1, den: 2 },
            16,
            300,
            WeightDist::Equal { w: 1024 },
            &mut rng,
        );
        let scale_ops =
            stream.ops.iter().filter(|op| matches!(op, Op::ScaleAllWeights { .. })).count() as u64;
        assert!(scale_ops >= 4);
        let mut native = CountingBackend { native_scale: true, ..Default::default() };
        let mut fallback = CountingBackend::default();
        let mut ctx = QueryCtx::new(51);
        let rep_native = replay_stream(&mut native, &mut ctx, &stream, None);
        let rep_fallback = replay_stream(&mut fallback, &mut ctx, &stream, None);
        assert_eq!(native.scale_calls, scale_ops, "one native call per decay op");
        assert_eq!(fallback.scale_calls, 0);
        // Same semantic work, same exact totals, either arm (the driver's
        // weight-drift assertion checked each backend against its tracker;
        // this pins the two arms against each other).
        assert_eq!(rep_native, rep_fallback);
        assert_eq!(native.total_weight(), fallback.total_weight());
    }

    #[test]
    fn replay_decayed_stream_scales_every_live_weight() {
        let mut rng = SmallRng::seed_from_u64(31);
        let stream = UpdateStream::generate(
            StreamKind::Decayed { insert_permille: 700, scale_every: 50, num: 1, den: 2 },
            16,
            300,
            WeightDist::Equal { w: 1024 },
            &mut rng,
        );
        let scale_ops =
            stream.ops.iter().filter(|op| matches!(op, Op::ScaleAllWeights { .. })).count();
        assert!(scale_ops >= 4, "expected periodic scale ops, got {scale_ops}");
        let mut backend = CountingBackend::default();
        let mut ctx = QueryCtx::new(31);
        let report = replay_stream(&mut backend, &mut ctx, &stream, None);
        assert!(report.reweights > 0, "scale ops must fan out into reweights");
        // Every weight started at 1024 and was halved ≥ once for any item
        // that survived a scale; the driver's weight-drift assertion already
        // proved the backend total matches the tracked total exactly.
        assert!(backend.total_weight() < 1024 * (backend.len() as u128));
    }
}
