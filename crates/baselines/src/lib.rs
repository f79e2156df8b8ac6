//! # baselines — comparison samplers for the DPSS experiments
//!
//! Four baselines against which the HALT sampler is evaluated (experiment E5,
//! `exp e5`), all implementing the [`PssBackend`] facade that lives in
//! `pss-core` (re-exported here for compatibility):
//!
//! - [`NaiveExact`]: O(n) per query — one exact rational Bernoulli per item.
//!   The correctness gold standard: trivially exact, no data structure.
//! - [`NaiveFloat`]: O(n) per query with `f64` coins — the "what you'd write
//!   in an afternoon" baseline; *inexact* (double-rounding bias ≈ 2^-53, plus
//!   `Σw` rounding at scale).
//! - [`OdssStyle`]: a Yi-et-al.-style *Dynamic Subset Sampling* structure,
//!   driven **incrementally** under DPSS semantics: its weight-bucketed
//!   materialization ([`DeltaDss`]) catches up through the epoch-delta
//!   change journal in O(deltas) per query, falling back to a Θ(n) rebuild
//!   only when the journal's ring has wrapped. This is the fair
//!   maintained-under-updates comparison the ODSS line of work implies.
//! - [`OdssUnderDpss`] (`odss-dss`): the same structure driven with
//!   *absolute* materialized probabilities, which no delta replay can save —
//!   it deliberately re-materializes in Θ(n) whenever `W` moves, measuring
//!   the exact gap the paper's introduction identifies ("the existing
//!   optimal ODSS algorithm requires Ω(n) time to support an update in the
//!   DPSS setup").
//!
//! ## One body, four query strategies
//!
//! All four are one generic [`Baseline<Q>`]. It owns the slot [`Store`], a
//! [`ChangeJournal`] and the instance id that keys its per-context state,
//! and implements every update, the journal, seeding, snapshots and space
//! accounting once. A baseline differs only in its [`QueryStrategy`]: its
//! name, its snapshot kind, whether its journal keeps a delta ring, its
//! query body, the space of its materialization and its own counters.
//!
//! Every baseline journals. Only [`OdssStyle`] keeps a delta ring, because
//! its catch-up replays deltas; the others keep a version alone
//! ([`ChangeJournal::ringless_at`]). Store handles are generational, so a
//! stale handle — one whose slot was reissued included — is rejected by
//! every update instead of reaching the slot's new occupant.
//!
//! ## Shared-read queries
//!
//! Queries take `&self` plus a caller-owned [`QueryCtx`]: the naive samplers
//! draw their coins from the context's stream, and the ODSS-style structures
//! park their materializations *in the context* (keyed by backend instance
//! and journal-revalidated) instead of mutating the structure, so any
//! backend in this roster can serve several contexts at once. Rebuild/replay
//! accounting lives in atomic counters so `&self` queries can still report
//! the costs E5 charges.
//!
//! The HALT samplers themselves implement [`PssBackend`] in the `dpss` crate;
//! [`all_backends`] assembles the full comparison roster (HALT, de-amortized
//! HALT, and every baseline) as trait objects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod odss;

pub use odss::{AbsoluteBuckets, DeltaBuckets, DeltaDss, OdssDss, OdssStyle, OdssUnderDpss};
pub use pss_core::{
    boxed, recover, Handle, PssBackend, QueryCtx, RecoverError, SeedableBackend, SnapshotError,
    Snapshottable, SpaceUsage, Store,
};

use bignum::{BigUint, Ratio};
use dpss::{DeamortizedDpss, DpssSampler};
use pss_core::{kind, ChangeJournal, Delta, Enc, OpError, SnapshotReader, SnapshotWriter};
use rand::Rng;
use randvar::ber_rational_parts;

/// Section tag for the [`Store`] payload inside every baseline snapshot.
const TAG_STORE: u32 = 1;
/// Section tag for the journal watermark inside every baseline snapshot.
const TAG_META: u32 = 2;

// ---------------------------------------------------------------------------
// The shared body
// ---------------------------------------------------------------------------

/// What one baseline adds to the shared [`Baseline`] body: everything but
/// the store, the journal and the updates.
pub trait QueryStrategy: Default + std::fmt::Debug + Send + Sync + 'static {
    /// Display name ([`PssBackend::name`]).
    const NAME: &'static str;
    /// Snapshot kind ([`pss_core::kind`]).
    const KIND: u16;
    /// Whether the journal keeps a delta ring: only a strategy whose
    /// per-context state replays deltas needs one.
    const DELTA_RING: bool;

    /// The query body ([`PssBackend::query_into`]).
    fn query_into(
        base: &Baseline<Self>,
        ctx: &mut QueryCtx,
        alpha: &Ratio,
        beta: &Ratio,
        out: &mut Vec<Handle>,
    );

    /// Words of one image of the per-context materialization a query needs
    /// to exist somewhere (charged to the backend so space comparisons stay
    /// honest); 0 for a scan.
    fn materialization_words(_store: &Store) -> usize {
        0
    }
}

/// A [`Store`]-backed baseline: the store, its change journal and the
/// instance id keying per-context state, with the query strategy `Q` and
/// its counters.
#[derive(Debug)]
pub struct Baseline<Q> {
    store: Store,
    /// Every update appends to it; a ring only if `Q::DELTA_RING`.
    journal: ChangeJournal,
    /// Keys this structure's state inside any [`QueryCtx`].
    instance: u64,
    /// The strategy's own counters (atomic: queries run on `&self`).
    strategy: Q,
}

impl<Q: QueryStrategy> Baseline<Q> {
    /// Creates an empty sampler. The seed is accepted for the uniform
    /// [`SeedableBackend`] surface; query randomness is owned by the
    /// caller's [`QueryCtx`], so nothing here consumes it.
    pub fn new(_seed: u64) -> Self {
        Self::resumed(Store::default(), 0)
    }

    /// A baseline over `store` whose journal resumes at `watermark` with no
    /// retained delta. Process-local state is not durable: the instance id
    /// is fresh (contexts build anew) and the counters start at zero.
    fn resumed(store: Store, watermark: u64) -> Self {
        let journal = if Q::DELTA_RING {
            ChangeJournal::resumed_at(watermark)
        } else {
            ChangeJournal::ringless_at(watermark)
        };
        Baseline { store, journal, instance: pss_core::fresh_backend_id(), strategy: Q::default() }
    }
}

impl<Q: QueryStrategy> SpaceUsage for Baseline<Q> {
    fn space_words(&self) -> usize {
        // The store, the journal, one materialization image, the instance id
        // and the strategy's counters.
        self.store.space_words()
            + self.journal.space_words()
            + Q::materialization_words(&self.store)
            + 1
            + std::mem::size_of::<Q>().div_ceil(8)
    }
}

impl<Q: QueryStrategy> PssBackend for Baseline<Q> {
    // Store updates are single-step: a baseline never poisons and has no
    // failpoints, so every update succeeds.

    fn try_insert(&mut self, weight: u64) -> Result<Handle, OpError> {
        let h = self.store.insert(weight);
        self.journal.record(Delta::Inserted { handle: h, weight });
        Ok(h)
    }

    fn try_insert_many(&mut self, weights: &[u64]) -> Result<Vec<Handle>, OpError> {
        // One journal epoch for the whole batch: a bulk load must not wrap
        // the ring out from under every observing context.
        let handles: Vec<Handle> = weights.iter().map(|&w| self.store.insert(w)).collect();
        self.journal.record_batch(
            handles.iter().zip(weights).map(|(&h, &w)| Delta::Inserted { handle: h, weight: w }),
        );
        Ok(handles)
    }

    fn try_delete(&mut self, handle: Handle) -> Result<bool, OpError> {
        if self.store.delete(handle) {
            self.journal.record(Delta::Deleted { handle });
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn query_into(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio, out: &mut Vec<Handle>) {
        Q::query_into(self, ctx, alpha, beta, out);
    }

    fn slot(&self, handle: Handle) -> usize {
        Store::slot(handle)
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn total_weight(&self) -> u128 {
        self.store.total()
    }

    fn name(&self) -> &'static str {
        Q::NAME
    }

    fn try_set_weight(
        &mut self,
        handle: Handle,
        new_weight: u64,
    ) -> Result<Option<Handle>, OpError> {
        // Native in-place reweighting: the slot — and the handle — is stable.
        let Some(old) = self.store.set_weight(handle, new_weight) else {
            return Ok(None);
        };
        if old != new_weight {
            self.journal.record(Delta::Reweighted { handle, old, new: new_weight });
        }
        // pss-lint: allow(journal-completeness) — equal-weight re-set is a semantic no-op (store value unchanged); every actual change records above
        Ok(Some(handle))
    }

    fn scale_all_weights(&mut self, num: u32, den: u32) -> bool {
        // One journal entry for the whole decay — replayers re-derive the
        // floors themselves (Delta::ScaledAll), so the op stays inside a
        // replay window instead of flooding it with n reweights.
        self.store.scale_all(num, den);
        self.journal.record(Delta::ScaledAll { num, den });
        true
    }

    fn journal(&self) -> Option<&ChangeJournal> {
        Some(&self.journal)
    }
}

impl<Q: QueryStrategy> SeedableBackend for Baseline<Q> {
    fn with_seed(seed: u64) -> Self {
        Self::new(seed)
    }
}

impl<Q: QueryStrategy> Snapshottable for Baseline<Q> {
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new(Q::KIND);
        let mut enc = Enc::new();
        self.store.write_snapshot_payload(&mut enc);
        w.section(TAG_STORE, enc);
        let mut meta = Enc::new();
        meta.put_u64(self.journal.epoch());
        w.section(TAG_META, meta);
        w.finish(out);
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let r = SnapshotReader::new(bytes, Q::KIND)?;
        let mut dec = r.section(TAG_STORE)?;
        let store = Store::from_snapshot_payload(&mut dec)?;
        dec.finish()?;
        let mut meta = r.section(TAG_META)?;
        let watermark = meta.get_u64()?;
        meta.finish()?;
        // The journal resumes at the saved watermark with nothing retained:
        // recovery replays a durable journal's suffix from here, and the
        // first post-restore query in any context builds from scratch.
        Ok(Self::resumed(store, watermark))
    }
}

// ---------------------------------------------------------------------------
// The naive scans
// ---------------------------------------------------------------------------

/// O(n)-per-query baseline with exact rational coins. Stateless on the query
/// path — all randomness comes from the caller's context.
pub type NaiveExact = Baseline<ExactScan>;

/// O(n)-per-query baseline with `f64` coins (inexact; speed reference only).
pub type NaiveFloat = Baseline<FloatScan>;

/// [`NaiveExact`]'s strategy: one exact `Ber(min(w/W, 1))` per live item.
#[derive(Debug, Default)]
pub struct ExactScan;

impl QueryStrategy for ExactScan {
    const NAME: &'static str = "naive-exact";
    const KIND: u16 = kind::NAIVE_EXACT;
    const DELTA_RING: bool = false;

    fn query_into(
        base: &Baseline<Self>,
        ctx: &mut QueryCtx,
        alpha: &Ratio,
        beta: &Ratio,
        out: &mut Vec<Handle>,
    ) {
        let w = base.store.param_weight(alpha, beta);
        let rng = ctx.rng();
        for (h, wx) in base.store.iter_live() {
            if wx == 0 {
                continue;
            }
            let keep = if w.is_zero() {
                true
            } else {
                let num = BigUint::from_u64(wx).mul(w.den());
                ber_rational_parts(rng, &num, w.num())
            };
            if keep {
                out.push(h);
            }
        }
    }
}

/// [`NaiveFloat`]'s strategy: one `f64` coin per live item.
#[derive(Debug, Default)]
pub struct FloatScan;

impl QueryStrategy for FloatScan {
    const NAME: &'static str = "naive-float";
    const KIND: u16 = kind::NAIVE_FLOAT;
    const DELTA_RING: bool = false;

    fn query_into(
        base: &Baseline<Self>,
        ctx: &mut QueryCtx,
        alpha: &Ratio,
        beta: &Ratio,
        out: &mut Vec<Handle>,
    ) {
        let w = base.store.param_weight(alpha, beta).to_f64_lossy();
        let rng = ctx.rng();
        for (h, wx) in base.store.iter_live() {
            if wx == 0 {
                continue;
            }
            // pss-lint: allow(float-taint) — NaiveFloat IS the deliberately-inexact f64 control the exact samplers are measured against
            let p = if w == 0.0 { 1.0 } else { (wx as f64 / w).min(1.0) };
            // pss-lint: allow(float-taint) — same: the raw f64 coin is the point of this baseline
            if rng.gen::<f64>() < p {
                out.push(h);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The full comparison roster
// ---------------------------------------------------------------------------

/// Every backend, in a fixed report order (HALT first, then the de-amortized
/// variant, then the baselines).
pub fn all_backends(seed: u64) -> Vec<Box<dyn PssBackend>> {
    vec![
        boxed::<DpssSampler>(seed),
        boxed::<DeamortizedDpss>(seed),
        boxed::<NaiveExact>(seed),
        boxed::<NaiveFloat>(seed),
        boxed::<OdssStyle>(seed),
        boxed::<OdssUnderDpss>(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use randvar::stats::binomial_z;

    fn marginal_check(backend: &mut dyn PssBackend, seed_weights: &[u64], trials: u64) {
        let handles: Vec<Handle> = seed_weights.iter().map(|&w| backend.insert(w)).collect();
        let total: u128 = seed_weights.iter().map(|&w| w as u128).sum();
        assert_eq!(backend.total_weight(), total, "{}", backend.name());
        let alpha = Ratio::one();
        let beta = Ratio::zero();
        let mut ctx = QueryCtx::new(0xC01);
        let mut hits = vec![0u64; handles.len()];
        for _ in 0..trials {
            for h in backend.query(&mut ctx, &alpha, &beta) {
                let idx = handles.iter().position(|&x| x == h).unwrap();
                hits[idx] += 1;
            }
        }
        for (i, &w) in seed_weights.iter().enumerate() {
            let p = (w as f64 / total as f64).min(1.0);
            if p == 0.0 {
                assert_eq!(hits[i], 0);
                continue;
            }
            let z = binomial_z(hits[i], trials, p);
            assert!(z.abs() < 5.0, "{}: item {i} z={z}", backend.name());
        }
    }

    #[test]
    fn noop_mutations_journal_nothing() {
        // Replayers must not see phantom deltas: a miss-delete and an
        // equal-weight re-set leave the journal epoch untouched, while the
        // real mutations advance it (the journal-completeness contract the
        // lint proves structurally).
        let mut backends: Vec<Box<dyn PssBackend>> =
            vec![Box::new(OdssStyle::new(9)), Box::new(crate::odss::OdssUnderDpss::new(10))];
        for b in &mut backends {
            let h = b.insert(5);
            let stale = Handle::from_raw(h.raw() + 1_000_000);
            let e0 = b.journal().expect("journaled backend").epoch();
            assert!(!b.delete(stale), "{}", b.name());
            assert_eq!(b.set_weight(h, 5), Some(h), "{}", b.name());
            assert_eq!(b.journal().unwrap().epoch(), e0, "{}: no-ops journaled", b.name());
            assert_eq!(b.set_weight(h, 7), Some(h));
            assert!(b.delete(h));
            assert!(b.journal().unwrap().epoch() > e0, "{}: real ops silent", b.name());
        }
    }

    #[test]
    fn naive_exact_marginals() {
        marginal_check(&mut NaiveExact::new(1), &[1, 5, 25, 125, 625], 40_000);
    }

    #[test]
    fn naive_float_marginals() {
        marginal_check(&mut NaiveFloat::new(2), &[1, 5, 25, 125, 625], 40_000);
    }

    #[test]
    fn odss_style_marginals() {
        marginal_check(&mut OdssStyle::new(3), &[1, 5, 25, 125, 625], 40_000);
    }

    #[test]
    fn halt_backend_marginals() {
        marginal_check(&mut DpssSampler::new(4), &[1, 5, 25, 125, 625], 40_000);
    }

    #[test]
    fn deamortized_backend_marginals() {
        marginal_check(&mut DeamortizedDpss::new(8), &[1, 5, 25, 125, 625], 40_000);
    }

    #[test]
    fn odss_marginals_with_extreme_skew() {
        // Exercises deep probability buckets (p down to ~2^-40).
        marginal_check(&mut OdssStyle::new(6), &[1, 1 << 20, 1 << 40], 60_000);
    }

    #[test]
    fn odss_patches_updates_instead_of_rematerializing() {
        // The epoch-delta rewrite: one Θ(n) build per context, then every
        // update is an O(deltas) patch — not the Θ(n) rebuild the old
        // all-or-nothing epoch forced.
        let mut o = OdssStyle::new(5);
        let mut ctx = QueryCtx::new(5);
        let a = Ratio::one();
        let b = Ratio::zero();
        let h = PssBackend::insert(&mut o, 10);
        PssBackend::insert(&mut o, 20);
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!((o.rebuilds(), o.replays()), (1, 0), "first query builds");
        let _ = o.query(&mut ctx, &a, &b); // same state, same ctx: pure reuse
        assert_eq!((o.rebuilds(), o.replays()), (1, 0));
        PssBackend::insert(&mut o, 30);
        let _ = o.query(&mut ctx, &a, &b); // one insert = one-delta replay
        assert_eq!((o.rebuilds(), o.replays()), (1, 1));
        assert_eq!(o.patched(), 1);
        PssBackend::delete(&mut o, h);
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!((o.rebuilds(), o.replays()), (1, 2));
        // New parameters are not even a replay: buckets are W-independent.
        let _ = o.query(&mut ctx, &Ratio::from_int(2), &b);
        assert_eq!((o.rebuilds(), o.replays()), (1, 2));
        let h40 = PssBackend::insert(&mut o, 40);
        let h2 = PssBackend::set_weight(&mut o, h40, 50).unwrap();
        let _ = o.query(&mut ctx, &Ratio::from_int(2), &b); // insert + reweight replay
        assert_eq!((o.rebuilds(), o.replays()), (1, 3));
        assert_eq!(o.patched(), 1 + 1 + 2);
        assert!(PssBackend::delete(&mut o, h2));
        assert_eq!(o.fallbacks(), 0, "nothing wrapped the ring");
    }

    #[test]
    fn odss_falls_back_when_the_ring_wraps() {
        let mut o = OdssStyle::new(6);
        let mut ctx = QueryCtx::new(6);
        let a = Ratio::one();
        let b = Ratio::zero();
        let mut handles: Vec<Handle> = (1..=8u64).map(|w| PssBackend::insert(&mut o, w)).collect();
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!((o.rebuilds(), o.fallbacks()), (1, 0));
        // More deltas than the journal retains: the context's window is gone.
        for i in 0..(pss_core::DEFAULT_JOURNAL_CAPACITY as u64 + 50) {
            let j = (i % 8) as usize;
            handles[j] =
                PssBackend::set_weight(&mut o, handles[j], (i % 100) + 1).expect("live handle");
        }
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!((o.rebuilds(), o.fallbacks()), (2, 1), "wrap forces the Θ(n) path");
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!((o.rebuilds(), o.fallbacks()), (2, 1), "and the rebuilt state is warm again");
    }

    #[test]
    fn odss_scale_all_is_one_native_op_and_one_delta() {
        let mut o = OdssStyle::new(7);
        let mut ctx = QueryCtx::new(7);
        let a = Ratio::one();
        let b = Ratio::zero();
        for w in [7u64, 64, 1000] {
            PssBackend::insert(&mut o, w);
        }
        let _ = o.query(&mut ctx, &a, &b);
        let epoch = PssBackend::journal(&o).unwrap().epoch();
        assert!(o.scale_all_weights(1, 2), "store-backed decay is native");
        assert_eq!(PssBackend::journal(&o).unwrap().epoch(), epoch + 1, "one delta, not n");
        assert_eq!(PssBackend::total_weight(&o), 3 + 32 + 500);
        let _ = o.query(&mut ctx, &a, &b);
        assert_eq!(o.rebuilds(), 1, "the decay replayed, it did not rebuild");
        assert_eq!(o.replays(), 1);
    }

    #[test]
    fn odss_fresh_context_rematerializes_independently() {
        // Materializations are per-context: a second context pays its own
        // Θ(n) pass, the first context's stays warm.
        let mut o = OdssStyle::new(7);
        PssBackend::insert(&mut o, 10);
        PssBackend::insert(&mut o, 20);
        let a = Ratio::one();
        let b = Ratio::zero();
        let mut c1 = QueryCtx::new(1);
        let mut c2 = QueryCtx::new(2);
        let _ = o.query(&mut c1, &a, &b);
        assert_eq!(o.rebuilds(), 1);
        let _ = o.query(&mut c2, &a, &b);
        assert_eq!(o.rebuilds(), 2);
        let _ = o.query(&mut c1, &a, &b);
        let _ = o.query(&mut c2, &a, &b);
        assert_eq!(o.rebuilds(), 2, "both contexts warm");
    }

    #[test]
    fn delete_semantics_uniform() {
        for backend in all_backends(9).iter_mut() {
            let h = backend.insert(5);
            assert_eq!(backend.len(), 1);
            assert!(backend.delete(h), "{}", backend.name());
            assert!(!backend.delete(h), "{}: double delete", backend.name());
            assert_eq!(backend.len(), 0);
            // Recycle the slot: the stale handle must not reach the new item.
            let fresh = backend.insert(7);
            assert_eq!(backend.slot(fresh), backend.slot(h), "{}: slot recycled", backend.name());
            assert!(!backend.delete(h), "{}: stale delete accepted", backend.name());
            assert_eq!(backend.set_weight(h, 9), None, "{}: stale set_weight", backend.name());
            assert_eq!(backend.len(), 1, "{}", backend.name());
            assert_eq!(backend.total_weight(), 7, "{}: new item reweighted", backend.name());
            let mut ctx = QueryCtx::new(9);
            let t = backend.query(&mut ctx, &Ratio::zero(), &Ratio::one());
            assert_eq!(t, vec![fresh], "{}: query must return the new handle", backend.name());
        }
    }

    #[test]
    fn zero_weight_items_skipped_by_all() {
        let mut ctx = QueryCtx::new(3);
        for backend in all_backends(11).iter_mut() {
            let z = backend.insert(0);
            backend.insert(7);
            for _ in 0..50 {
                let t = backend.query(&mut ctx, &Ratio::one(), &Ratio::zero());
                assert!(!t.contains(&z), "{}", backend.name());
            }
        }
    }

    #[test]
    fn set_weight_agrees_across_roster() {
        for backend in all_backends(13).iter_mut() {
            let h = backend.insert(5);
            backend.insert(11);
            let h2 = backend.set_weight(h, 9).expect("live handle reweights");
            assert_eq!(backend.total_weight(), 20, "{}", backend.name());
            assert_eq!(backend.len(), 2, "{}", backend.name());
            assert!(backend.set_weight(h2, 1).is_some(), "{}", backend.name());
            assert_eq!(backend.total_weight(), 12, "{}", backend.name());
        }
    }

    #[test]
    fn set_weight_is_handle_stable_on_store_backends() {
        // The Store-backed roster routes set_weight through the native
        // in-place path: handles must survive, stale handles must fail.
        for mut backend in [
            Box::new(NaiveExact::new(1)) as Box<dyn PssBackend>,
            Box::new(NaiveFloat::new(2)) as Box<dyn PssBackend>,
            Box::new(OdssStyle::new(3)) as Box<dyn PssBackend>,
            Box::new(OdssUnderDpss::new(4)) as Box<dyn PssBackend>,
        ] {
            let h = backend.insert(5);
            let other = backend.insert(7);
            let h2 = backend.set_weight(h, 50).expect("live handle");
            assert_eq!(h, h2, "{}: set_weight must keep the handle", backend.name());
            assert_eq!(backend.total_weight(), 57, "{}", backend.name());
            // Reweighting must not have disturbed the other slot.
            let o2 = backend.set_weight(other, 7).expect("live handle");
            assert_eq!(other, o2, "{}", backend.name());
            assert!(backend.delete(h));
            assert!(
                backend.set_weight(h, 1).is_none(),
                "{}: stale handle must be rejected",
                backend.name()
            );
            assert_eq!(backend.total_weight(), 7, "{}", backend.name());
        }
    }

    #[test]
    fn space_accounting_is_positive_and_grows() {
        for backend in all_backends(15).iter_mut() {
            let empty = backend.space_words();
            for w in 1..=256u64 {
                backend.insert(w);
            }
            assert!(backend.space_words() > empty, "{}: space must grow with n", backend.name());
        }
    }
}
