//! # baselines — comparison samplers for the DPSS experiments
//!
//! Three baselines against which the HALT sampler is evaluated (experiment E5,
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

pub use odss::{DeltaDss, OdssDss, OdssUnderDpss};
pub use pss_core::{
    boxed, recover, Handle, PssBackend, QueryCtx, RecoverError, SeedableBackend, SnapshotError,
    Snapshottable, SpaceUsage, Store,
};

use bignum::{BigUint, Ratio};
use dpss::{DeamortizedDpss, DpssSampler};
use pss_core::{kind, ChangeJournal, Delta, Enc, Replay, SnapshotReader, SnapshotWriter};
use rand::Rng;
use randvar::ber_rational_parts;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// The one definition of a journaled bulk load for [`Store`]-backed
/// backends: insert every weight, then record the whole batch under a
/// single journal epoch (a bulk load must not wrap the ring out from under
/// every observing context).
pub(crate) fn store_insert_many(
    store: &mut Store,
    journal: &mut ChangeJournal,
    weights: &[u64],
) -> Vec<Handle> {
    let handles: Vec<Handle> = weights.iter().map(|&w| store.insert(w)).collect();
    journal.record_batch(
        handles.iter().zip(weights).map(|(&h, &w)| Delta::Inserted { handle: h, weight: w }),
    );
    handles
}

/// Section tag for the [`Store`] payload inside every baseline snapshot.
pub(crate) const TAG_STORE: u32 = 1;
/// Section tag for journaled baselines' scalar metadata (journal watermark).
pub(crate) const TAG_META: u32 = 2;

// ---------------------------------------------------------------------------
// NaiveExact
// ---------------------------------------------------------------------------

/// O(n)-per-query baseline with exact rational coins. Stateless on the query
/// path — all randomness comes from the caller's context.
#[derive(Debug, Default)]
pub struct NaiveExact {
    store: Store,
}

impl NaiveExact {
    /// Creates an empty sampler. The seed is accepted for the uniform
    /// [`SeedableBackend`] surface; query randomness is owned by the
    /// caller's [`QueryCtx`], so nothing here consumes it.
    pub fn new(_seed: u64) -> Self {
        NaiveExact { store: Store::default() }
    }
}

impl SpaceUsage for NaiveExact {
    fn space_words(&self) -> usize {
        self.store.space_words() + 4
    }
}

impl PssBackend for NaiveExact {
    fn insert(&mut self, weight: u64) -> Handle {
        self.store.insert(weight)
    }

    fn delete(&mut self, handle: Handle) -> bool {
        self.store.delete(handle)
    }

    fn query(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> Vec<Handle> {
        let w = self.store.param_weight(alpha, beta);
        let rng = ctx.rng();
        let mut out = Vec::new();
        for (h, wx) in self.store.iter_live() {
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
        out
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn total_weight(&self) -> u128 {
        self.store.total()
    }

    fn name(&self) -> &'static str {
        "naive-exact"
    }

    fn set_weight(&mut self, handle: Handle, new_weight: u64) -> Option<Handle> {
        // Native in-place reweighting: the slot — and the handle — is stable.
        self.store.set_weight(handle, new_weight).map(|_| handle)
    }
}

impl SeedableBackend for NaiveExact {
    fn with_seed(seed: u64) -> Self {
        NaiveExact::new(seed)
    }
}

impl Snapshottable for NaiveExact {
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new(kind::NAIVE_EXACT);
        let mut enc = Enc::new();
        self.store.write_snapshot_payload(&mut enc);
        w.section(TAG_STORE, enc);
        w.finish(out);
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let r = SnapshotReader::new(bytes, kind::NAIVE_EXACT)?;
        let mut dec = r.section(TAG_STORE)?;
        let store = Store::from_snapshot_payload(&mut dec)?;
        dec.finish()?;
        Ok(NaiveExact { store })
    }
}

// ---------------------------------------------------------------------------
// NaiveFloat
// ---------------------------------------------------------------------------

/// O(n)-per-query baseline with `f64` coins (inexact; speed reference only).
#[derive(Debug, Default)]
pub struct NaiveFloat {
    store: Store,
}

impl NaiveFloat {
    /// Creates an empty sampler (see [`NaiveExact::new`] on the seed).
    pub fn new(_seed: u64) -> Self {
        NaiveFloat { store: Store::default() }
    }
}

impl SpaceUsage for NaiveFloat {
    fn space_words(&self) -> usize {
        self.store.space_words() + 4
    }
}

impl PssBackend for NaiveFloat {
    fn insert(&mut self, weight: u64) -> Handle {
        self.store.insert(weight)
    }

    fn delete(&mut self, handle: Handle) -> bool {
        self.store.delete(handle)
    }

    fn query(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> Vec<Handle> {
        let w = self.store.param_weight(alpha, beta).to_f64_lossy();
        let rng = ctx.rng();
        let mut out = Vec::new();
        for (h, wx) in self.store.iter_live() {
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
        out
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn total_weight(&self) -> u128 {
        self.store.total()
    }

    fn name(&self) -> &'static str {
        "naive-float"
    }

    fn set_weight(&mut self, handle: Handle, new_weight: u64) -> Option<Handle> {
        self.store.set_weight(handle, new_weight).map(|_| handle)
    }
}

impl SeedableBackend for NaiveFloat {
    fn with_seed(seed: u64) -> Self {
        NaiveFloat::new(seed)
    }
}

impl Snapshottable for NaiveFloat {
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new(kind::NAIVE_FLOAT);
        let mut enc = Enc::new();
        self.store.write_snapshot_payload(&mut enc);
        w.section(TAG_STORE, enc);
        w.finish(out);
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let r = SnapshotReader::new(bytes, kind::NAIVE_FLOAT)?;
        let mut dec = r.section(TAG_STORE)?;
        let store = Store::from_snapshot_payload(&mut dec)?;
        dec.finish()?;
        Ok(NaiveFloat { store })
    }
}

// ---------------------------------------------------------------------------
// OdssStyle
// ---------------------------------------------------------------------------

/// A DSS structure in the style of Yi et al.'s ODSS, driven **incrementally**
/// under DPSS semantics through the epoch-delta change journal.
///
/// The materialization — a weight-bucketed [`DeltaDss`] with the shared
/// denominator `W(α, β)` factored out — lives in the caller's [`QueryCtx`],
/// keyed by this structure's instance id and stamped with the journal epoch
/// it reflects. A query first catches the context up
/// ([`pss_core::ChangeJournal::catch_up`]):
///
/// - no movement → the structure is reused as-is;
/// - a delta replay → only the items the deltas name are re-bucketed,
///   **O(deltas)** instead of the Θ(n) rebuild every update used to force
///   (the mixed update+query regime this closes is the ROADMAP's
///   "ODSS mixed-regime foil" item);
/// - a lost window (ring wrap) → Θ(n) fallback rebuild, counted in
///   [`OdssStyle::fallbacks`].
///
/// Parameter changes are no longer rebuilds at all: the bucketing is
/// `W`-independent, so new `(α, β)` just recomputes one rational. Queries
/// stay output-sensitive (`B-Geo` jumps inside each non-empty weight
/// bucket) and exact — each item is included with probability exactly
/// `min(w_x/W, 1)`, see [`DeltaDss::sample`].
#[derive(Debug)]
pub struct OdssStyle {
    store: Store,
    /// The epoch-delta change log every update appends to.
    journal: ChangeJournal,
    /// Keys this structure's materialization inside any [`QueryCtx`].
    instance: u64,
    /// Θ(n) materializations performed across all contexts (first builds +
    /// fallbacks; atomic because queries run on `&self`).
    pub rebuild_count: AtomicU64,
    /// Θ(n) rebuilds forced by a lost replay window (ring wrap) — the
    /// subset of [`OdssStyle::rebuild_count`] the journal failed to save.
    pub fallback_count: AtomicU64,
    /// Delta catch-ups applied (each one replaced a would-be Θ(n) rebuild).
    pub replay_count: AtomicU64,
    /// Items whose bucket was recomputed by full materializations.
    pub items_rematerialized: AtomicU64,
    /// Item slots touched by delta patches (the O(deltas) work).
    pub items_patched: AtomicU64,
}

/// One context's materialization slot for an [`OdssStyle`]: `None` until
/// the first query builds it (an explicit option, not an epoch sentinel).
#[derive(Debug, Default)]
struct OdssMat {
    built: Option<OdssBuilt>,
}

/// A built materialization: the weight-bucketed structure plus the cached
/// denominator of the most recent parameters.
#[derive(Debug)]
struct OdssBuilt {
    /// Journal epoch the structure reflects.
    journal_epoch: u64,
    /// Parameters `w` was computed for.
    params: (Ratio, Ratio),
    /// `W(α, β)` at `journal_epoch` — the only parameter-dependent state.
    w: Ratio,
    dss: DeltaDss,
}

impl OdssStyle {
    /// Creates an empty sampler (see [`NaiveExact::new`] on the seed).
    pub fn new(_seed: u64) -> Self {
        OdssStyle {
            store: Store::default(),
            journal: ChangeJournal::new(),
            instance: pss_core::fresh_backend_id(),
            rebuild_count: AtomicU64::new(0),
            fallback_count: AtomicU64::new(0),
            replay_count: AtomicU64::new(0),
            items_rematerialized: AtomicU64::new(0),
            items_patched: AtomicU64::new(0),
        }
    }

    /// Θ(n) materializations performed so far (first builds + fallbacks).
    pub fn rebuilds(&self) -> u64 {
        self.rebuild_count.load(AtomicOrdering::Relaxed)
    }

    /// Θ(n) fallbacks forced by a lost replay window.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_count.load(AtomicOrdering::Relaxed)
    }

    /// Delta catch-ups applied so far.
    pub fn replays(&self) -> u64 {
        self.replay_count.load(AtomicOrdering::Relaxed)
    }

    /// Items recomputed by full materializations so far.
    pub fn rematerialized(&self) -> u64 {
        self.items_rematerialized.load(AtomicOrdering::Relaxed)
    }

    /// Item slots touched by delta patches so far.
    pub fn patched(&self) -> u64 {
        self.items_patched.load(AtomicOrdering::Relaxed)
    }

    /// A clone of this structure's materialization inside `ctx`, if that
    /// context has built one (test/diagnostic hook — the churn suite
    /// compares a delta-patched context's structure bit-for-bit against a
    /// from-scratch one).
    pub fn materialization(&self, ctx: &QueryCtx) -> Option<DeltaDss> {
        ctx.state_ref::<OdssMat>(self.instance)
            .and_then(|m| m.built.as_ref())
            .map(|b| b.dss.clone())
    }

    /// Validates `ctx`'s materialization (bucket layout, weights, liveness,
    /// canonical order) against the backing store; panics on violation, or
    /// if the context has none. Test hook.
    pub fn validate_materialization(&self, ctx: &QueryCtx) {
        let mat = ctx
            .state_ref::<OdssMat>(self.instance)
            .and_then(|m| m.built.as_ref())
            .expect("context has no materialization to validate");
        mat.dss.validate(&self.store);
    }

    /// Brings `mat` to the journal's current epoch: reuse, O(deltas) patch,
    /// or Θ(n) fallback — then refreshes the cached denominator if either
    /// the structure or the parameters moved.
    fn catch_up_mat(&self, mat: &mut OdssMat, alpha: &Ratio, beta: &Ratio) {
        let epoch = self.journal.epoch();
        let rebuilt = match &mut mat.built {
            None => {
                mat.built = Some(self.build_mat(alpha, beta, epoch));
                true
            }
            Some(built) => match self.journal.catch_up(built.journal_epoch) {
                Replay::UpToDate => false,
                Replay::Deltas(deltas) => {
                    let mut touched = 0u64;
                    for delta in deltas {
                        touched += built.dss.apply(delta);
                    }
                    self.replay_count.fetch_add(1, AtomicOrdering::Relaxed);
                    self.items_patched.fetch_add(touched, AtomicOrdering::Relaxed);
                    built.journal_epoch = epoch;
                    // The item set moved, so the cached denominator did too.
                    built.w = self.store.param_weight(alpha, beta);
                    built.params = (alpha.clone(), beta.clone());
                    return;
                }
                Replay::TooOld => {
                    self.fallback_count.fetch_add(1, AtomicOrdering::Relaxed);
                    mat.built = Some(self.build_mat(alpha, beta, epoch));
                    true
                }
            },
        };
        if rebuilt {
            return;
        }
        let built = mat.built.as_mut().expect("checked above");
        if built.params.0 != *alpha || built.params.1 != *beta {
            // New parameters are *not* a rebuild: the weight buckets are
            // W-independent — one rational recomputation suffices.
            built.w = self.store.param_weight(alpha, beta);
            built.params = (alpha.clone(), beta.clone());
        }
    }

    /// Θ(n) from-scratch materialization (first build or fallback).
    fn build_mat(&self, alpha: &Ratio, beta: &Ratio, epoch: u64) -> OdssBuilt {
        self.rebuild_count.fetch_add(1, AtomicOrdering::Relaxed);
        let (dss, built) = DeltaDss::build_from(&self.store);
        self.items_rematerialized.fetch_add(built, AtomicOrdering::Relaxed);
        OdssBuilt {
            journal_epoch: epoch,
            params: (alpha.clone(), beta.clone()),
            w: self.store.param_weight(alpha, beta),
            dss,
        }
    }
}

impl SpaceUsage for OdssStyle {
    fn space_words(&self) -> usize {
        // The materialized structure lives in caller contexts; the structure
        // itself is the store, the journal, plus scalars. One n-slot
        // materialization image (weights + liveness + bucket entries) is
        // charged here so the E4-style space comparison stays honest about
        // what a query needs to exist somewhere.
        self.store.space_words()
            + self.journal.space_words()
            + self.store.slot_count() * 2
            + self.store.len().div_ceil(2)
            + 8
    }
}

impl PssBackend for OdssStyle {
    fn insert(&mut self, weight: u64) -> Handle {
        let h = self.store.insert(weight);
        self.journal.record(Delta::Inserted { handle: h, weight });
        h
    }

    fn insert_many(&mut self, weights: &[u64]) -> Vec<Handle> {
        store_insert_many(&mut self.store, &mut self.journal, weights)
    }

    fn delete(&mut self, handle: Handle) -> bool {
        if self.store.delete(handle) {
            self.journal.record(Delta::Deleted { handle });
            true
        } else {
            false
        }
    }

    fn query(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> Vec<Handle> {
        let (rng, mat) = ctx.state(self.instance, OdssMat::default);
        self.catch_up_mat(mat, alpha, beta);
        let built = mat.built.as_ref().expect("caught up above");
        built.dss.sample(rng, &built.w).into_iter().map(|s| Handle::from_raw(s as u64)).collect()
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn total_weight(&self) -> u128 {
        self.store.total()
    }

    fn name(&self) -> &'static str {
        "odss-style"
    }

    fn set_weight(&mut self, handle: Handle, new_weight: u64) -> Option<Handle> {
        let old = self.store.set_weight(handle, new_weight)?;
        if old != new_weight {
            self.journal.record(Delta::Reweighted { handle, old, new: new_weight });
        }
        // pss-lint: allow(journal-completeness) — equal-weight re-set is a semantic no-op (store value unchanged); every actual change records above
        Some(handle)
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

impl SeedableBackend for OdssStyle {
    fn with_seed(seed: u64) -> Self {
        OdssStyle::new(seed)
    }
}

impl Snapshottable for OdssStyle {
    fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new(kind::ODSS_STYLE);
        let mut enc = Enc::new();
        self.store.write_snapshot_payload(&mut enc);
        w.section(TAG_STORE, enc);
        let mut meta = Enc::new();
        meta.put_u64(self.journal.epoch());
        w.section(TAG_META, meta);
        w.finish(out);
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let r = SnapshotReader::new(bytes, kind::ODSS_STYLE)?;
        let mut dec = r.section(TAG_STORE)?;
        let store = Store::from_snapshot_payload(&mut dec)?;
        dec.finish()?;
        let mut meta = r.section(TAG_META)?;
        let watermark = meta.get_u64()?;
        meta.finish()?;
        Ok(OdssStyle {
            store,
            // The journal resumes at the saved watermark with an empty ring:
            // recovery replays a durable journal's suffix from here; the
            // first post-restore query in any context is a Θ(n) first build.
            journal: ChangeJournal::resumed_at(watermark),
            // Process-local identity is deliberately not durable: a restored
            // structure keys fresh per-context materializations.
            instance: pss_core::fresh_backend_id(),
            // Cost counters describe work done by *this* process's structure,
            // so a restored copy starts its accounting from zero.
            rebuild_count: AtomicU64::new(0),
            fallback_count: AtomicU64::new(0),
            replay_count: AtomicU64::new(0),
            items_rematerialized: AtomicU64::new(0),
            items_patched: AtomicU64::new(0),
        })
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
