//! [`PssBackend`] for the amortized HALT sampler, [`DpssSampler`].
//!
//! The facade trait lives at the bottom of the workspace (`pss-core`) so that
//! `workloads`, `graphsub`, `bench`, and the integration suite can drive any
//! sampler without depending on this crate's concrete types. The
//! de-amortized [`crate::DeamortizedDpss`] implements it in its own module,
//! directly on [`Handle`]s; [`DpssSampler`] keeps its own `ItemId`-typed
//! inherent updates, and this impl forwards the trait's `try_*` ops to
//! them. Its reweight is native, so a handle survives it.
//!
//! Queries go through the shared-read surface (`&self` + [`QueryCtx`]):
//! the trait's `query_into` runs the same body as
//! [`DpssSampler::query_in`], appending the sample to the caller's buffer
//! (from the context's item buffer, or from a stack buffer for a small flat
//! sampler that scans its slots), so one shared sampler can serve many
//! contexts, one per caller thread if need be.
//!
//! Handles are the sampler's own ids re-wrapped as the opaque
//! [`pss_core::Handle`]; both directions are free (`raw`/`from_raw`). A
//! handle's `slot` is its slab index, the low 32 bits of its id.

use crate::item::ItemId;
use crate::sampler::DpssSampler;
use bignum::Ratio;
use pss_core::{ChangeJournal, Handle, OpError, PssBackend, QueryCtx, SeedableBackend};

impl PssBackend for DpssSampler {
    fn try_insert(&mut self, weight: u64) -> Result<Handle, OpError> {
        DpssSampler::try_insert(self, weight).map(|id| Handle::from_raw(id.raw()))
    }

    fn try_insert_many(&mut self, weights: &[u64]) -> Result<Vec<Handle>, OpError> {
        // Native batch: one journal epoch for the whole load.
        DpssSampler::try_insert_many(self, weights)
            .map(|ids| ids.into_iter().map(|id| Handle::from_raw(id.raw())).collect())
    }

    fn try_delete(&mut self, handle: Handle) -> Result<bool, OpError> {
        DpssSampler::try_delete(self, ItemId::from_raw(handle.raw())).map(|w| w.is_some())
    }

    fn try_set_weight(
        &mut self,
        handle: Handle,
        new_weight: u64,
    ) -> Result<Option<Handle>, OpError> {
        // Native O(1) reweighting keeps the handle stable.
        DpssSampler::try_set_weight(self, ItemId::from_raw(handle.raw()), new_weight)
            .map(|old| old.map(|_| handle))
    }

    fn query_into(&self, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio, out: &mut Vec<Handle>) {
        self.sample(ctx, &self.param_weight(alpha, beta), out, |id| Handle::from_raw(id.raw()));
    }

    fn slot(&self, handle: Handle) -> usize {
        ItemId::from_raw(handle.raw()).idx()
    }

    // `query_many` uses the trait's default batch-stream loop: the
    // per-context plan cache keyed on `W` already gives batches their
    // cross-query reuse, so an override would duplicate the default.

    fn len(&self) -> usize {
        DpssSampler::len(self)
    }

    fn total_weight(&self) -> u128 {
        DpssSampler::total_weight(self)
    }

    fn name(&self) -> &'static str {
        "halt"
    }

    fn prefetch_handle(&self, handle: Handle) {
        // Advisory: bounds-checked inside the slab, safe on stale handles.
        self.level1.slab.prefetch_slot(ItemId::from_raw(handle.raw()).idx());
    }

    fn journal(&self) -> Option<&ChangeJournal> {
        Some(DpssSampler::journal(self))
    }

    fn poisoned(&self) -> bool {
        DpssSampler::poisoned(self)
    }
}

impl SeedableBackend for DpssSampler {
    fn with_seed(seed: u64) -> Self {
        DpssSampler::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeamortizedDpss;
    use bignum::Ratio;
    use pss_core::boxed;

    #[test]
    fn both_halt_variants_work_as_trait_objects() {
        let mut ctx = QueryCtx::new(11);
        for mut backend in [boxed::<DpssSampler>(7), boxed::<DeamortizedDpss>(7)] {
            let h1 = backend.insert(10);
            let h2 = backend.insert(30);
            assert_eq!(backend.len(), 2);
            assert_eq!(backend.total_weight(), 40);
            assert!(backend.space_words() > 0);
            let t = backend.query(&mut ctx, &Ratio::one(), &Ratio::zero());
            assert!(t.iter().all(|h| *h == h1 || *h == h2));
            assert!(backend.delete(h1));
            assert!(!backend.delete(h1), "{}: stale delete", backend.name());
            assert_eq!(backend.len(), 1);
        }
    }

    #[test]
    fn shared_receiver_queries_share_one_sampler() {
        // The point of the redesign: two contexts, one `&` sampler.
        let mut s = DpssSampler::new(3);
        for w in [1u64, 2, 4, 8, 1 << 20] {
            PssBackend::insert(&mut s, w);
        }
        let shared = &s;
        let mut a = QueryCtx::new(1);
        let mut b = QueryCtx::new(2);
        let ta = shared.query(&mut a, &Ratio::one(), &Ratio::zero());
        let tb = shared.query(&mut b, &Ratio::one(), &Ratio::zero());
        assert!(ta.iter().chain(&tb).all(|h| s.contains(crate::ItemId::from_raw(h.raw()))));
        // Same seed, same call sequence ⇒ same bits.
        let mut c = QueryCtx::new(1);
        assert_eq!(shared.query(&mut c, &Ratio::one(), &Ratio::zero()), ta);
    }

    #[test]
    fn set_weight_keeps_halt_handle_stable() {
        let mut s = DpssSampler::new(3);
        let h = PssBackend::insert(&mut s, 5);
        let h2 = PssBackend::set_weight(&mut s, h, 50).expect("live handle");
        assert_eq!(h, h2);
        assert_eq!(PssBackend::total_weight(&s), 50);
        // Stale handles are rejected.
        assert!(PssBackend::delete(&mut s, h));
        assert!(PssBackend::set_weight(&mut s, h, 1).is_none());
    }

    #[test]
    fn deamortized_default_set_weight_reweights() {
        let mut s = DeamortizedDpss::new(5);
        let h = PssBackend::insert(&mut s, 5);
        let _ = PssBackend::insert(&mut s, 7);
        let h2 = PssBackend::set_weight(&mut s, h, 50).expect("live handle");
        assert_eq!(PssBackend::total_weight(&s), 57);
        assert!(PssBackend::delete(&mut s, h2));
        assert_eq!(PssBackend::total_weight(&s), 7);
    }
}
