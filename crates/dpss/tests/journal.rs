//! Journal-driven plan-cache revalidation and batch-insert semantics.
//!
//! The journal's version replaced the coarse "any mutation stales
//! everything" epoch: these tests pin the three revalidation regimes
//! (weight-only churn → in-place refresh, weight-neutral churn → plans stay
//! valid, structural rebuild → full clear), that a sampler's journal keeps
//! a delta ring only when one is attached and its plans never depend on
//! it, and that the batched insert path is structurally bit-identical to
//! the per-op loop.

use bignum::Ratio;
use dpss::DpssSampler;
use pss_core::{PssBackend, QueryCtx, Replay, DEFAULT_JOURNAL_CAPACITY};

fn batch() -> Vec<(Ratio, Ratio)> {
    (0..8u64).map(|i| (Ratio::from_u64s(1, 8 + i), Ratio::zero())).collect()
}

#[test]
fn insert_many_matches_per_op_inserts_bit_for_bit() {
    let weights: Vec<u64> = (0..300u64).map(|i| (i * 2654435761) % (1 << 30) + 1).collect();
    let mut a = DpssSampler::new(7);
    let mut b = DpssSampler::new(7);
    let ids_a = a.insert_many(&weights);
    let ids_b: Vec<_> = weights.iter().map(|&w| b.insert(w)).collect();
    assert_eq!(ids_a, ids_b, "batch insert must issue the same handles");
    a.validate();
    b.validate();
    assert_eq!(a.total_weight(), b.total_weight());
    // Identical structures + identical ctx seeds ⇒ identical samples.
    let mut ca = QueryCtx::new(3);
    let mut cb = QueryCtx::new(3);
    for (alpha, beta) in batch() {
        assert_eq!(a.query_in(&mut ca, &alpha, &beta), b.query_in(&mut cb, &alpha, &beta));
    }
    // The batch sizes the structure once up front (a single rebuild, since a
    // fresh sampler is far below 300 items) and journals one epoch; the
    // per-item loop walks the whole doubling chain and journals every insert.
    assert_eq!(a.rebuild_count(), 1, "bulk sizes once up front");
    assert_eq!(b.rebuild_count(), 4, "per-item loop pays the doubling chain");
    assert_eq!(a.journal().epoch(), a.rebuild_count() + 1, "batch bumps the version once");
    assert_eq!(b.journal().epoch(), weights.len() as u64 + b.rebuild_count());
}

#[test]
fn weight_only_churn_refreshes_plans_in_place() {
    let weights: Vec<u64> = (1..=256u64).collect();
    let (mut s, ids) = DpssSampler::from_weights(&weights, 5);
    let params = batch();
    let mut ctx = QueryCtx::new(9);
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    let (h0, m0, r0) = s.plan_cache_stats_in(&ctx);
    assert_eq!((h0, m0, r0), (0, 8, 0), "first batch is all misses");
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    assert_eq!(s.plan_cache_stats_in(&ctx), (8, 8, 0), "repeat is all hits");

    // A reweight moves Σw: entries refresh in place instead of missing.
    assert_eq!(s.set_weight(ids[0], 12345), Some(1));
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    assert_eq!(s.plan_cache_stats_in(&ctx), (8, 8, 8), "churned batch refreshes");
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    assert_eq!(s.plan_cache_stats_in(&ctx), (16, 8, 8), "refreshed entries hit again");
}

#[test]
fn weight_neutral_churn_keeps_plans_valid() {
    let weights: Vec<u64> = (1..=200u64).map(|i| i * 3).collect();
    let (mut s, ids) = DpssSampler::from_weights(&weights, 5);
    let params = batch();
    let mut ctx = QueryCtx::new(11);
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    // Delete + reinsert at the same weight: Σw and n⁺ are unchanged, so the
    // cached plans are still exactly right — no refresh, no miss.
    let w = s.weight(ids[10]).unwrap();
    assert!(s.delete(ids[10]).is_some());
    let _ = s.insert(w);
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    assert_eq!(s.plan_cache_stats_in(&ctx), (8, 8, 0), "weight-neutral churn: all hits");
    // A no-op set_weight journals nothing at all.
    let epoch = s.journal().epoch();
    let id = s.iter().next().unwrap().0;
    let keep = s.weight(id).unwrap();
    assert_eq!(s.set_weight(id, keep), Some(keep));
    assert_eq!(s.journal().epoch(), epoch, "no-op reweight is not a version");
}

#[test]
fn structural_rebuild_clears_plans() {
    let (mut s, _) = DpssSampler::from_weights(&(1..=64u64).collect::<Vec<_>>(), 5);
    let params = batch();
    let mut ctx = QueryCtx::new(13);
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    let r0 = s.rebuild_count();
    // Grow far enough to force a global rebuild (a structural journal entry).
    for i in 0..1000u64 {
        let _ = s.insert(i + 1);
    }
    assert!(s.rebuild_count() > r0, "growth must have rebuilt");
    for (a, b) in &params {
        let _ = s.query_in(&mut ctx, a, b);
    }
    let (h, m, r) = s.plan_cache_stats_in(&ctx);
    assert_eq!((h, m, r), (0, 16, 0), "post-rebuild batch re-misses, never refreshes");
}

#[test]
fn ring_wrap_falls_back_for_slow_observers() {
    let (mut s, ids) = DpssSampler::from_weights(&(1..=32u64).collect::<Vec<_>>(), 5);
    s.attach_journal_ring(DEFAULT_JOURNAL_CAPACITY);
    let mut ctx = QueryCtx::new(17);
    let (a, b) = (Ratio::from_u64s(1, 4), Ratio::zero());
    let _ = s.query_in(&mut ctx, &a, &b);
    let synced = s.journal().epoch();
    // More reweights than the ring retains (no rebuild triggers: the size
    // never moves).
    for k in 0..3000u64 {
        let id = ids[(k % 32) as usize];
        let _ = s.set_weight(id, (k % 96) + 1);
    }
    assert_eq!(s.journal().len(), DEFAULT_JOURNAL_CAPACITY, "the ring is full");
    assert!(matches!(s.journal().catch_up(synced), Replay::TooOld), "ring must have wrapped");
    assert!(
        matches!(s.journal().catch_up(s.journal().epoch() - 1), Replay::Deltas(d) if d.len() == 1),
        "an observer inside the window replays"
    );
    // The plan cache reads the version, not the ring: the wrap costs the
    // stale context an in-place refresh, never a fresh miss.
    let t = s.query_in(&mut ctx, &a, &b);
    assert!(t.iter().all(|&id| s.contains(id)));
    assert_eq!(s.plan_cache_stats_in(&ctx), (0, 1, 1), "wrapped ring: refresh, no miss");
}

#[test]
fn ringless_sampler_refreshes_plans_until_a_rebuild() {
    let (mut s, ids) = DpssSampler::from_weights(&(1..=32u64).collect::<Vec<_>>(), 5);
    assert_eq!((s.journal().capacity(), s.journal().heap_words()), (0, 0), "no ring by default");
    let mut ctx = QueryCtx::new(17);
    let (a, b) = (Ratio::from_u64s(1, 4), Ratio::zero());
    let _ = s.query_in(&mut ctx, &a, &b);
    let synced = s.journal().epoch();
    let mut moved = 0;
    for k in 0..3000u64 {
        let (id, w) = (ids[(k % 32) as usize], (k % 96) + 1);
        moved += u64::from(s.set_weight(id, w) != Some(w));
    }
    assert_eq!(s.journal().epoch(), synced + moved, "every real reweight is a version");
    assert!(matches!(s.journal().catch_up(synced), Replay::TooOld), "no tail is held");
    assert_eq!(s.journal().heap_words(), 0);
    // The lagging context refreshes its plan in place: no miss.
    let t = s.query_in(&mut ctx, &a, &b);
    assert!(t.iter().all(|&id| s.contains(id)));
    assert_eq!(s.plan_cache_stats_in(&ctx), (0, 1, 1), "lag without a rebuild: refresh");
    // A growth rebuild is structural: the next query misses.
    let r0 = s.rebuild_count();
    for i in 0..64u64 {
        let _ = s.insert(i + 1);
    }
    assert!(s.rebuild_count() > r0, "growth must have rebuilt");
    let _ = s.query_in(&mut ctx, &a, &b);
    assert_eq!(s.plan_cache_stats_in(&ctx), (0, 2, 1), "post-rebuild query misses");
}

#[test]
fn journal_is_exposed_through_the_backend_facade() {
    let mut s = DpssSampler::new(1);
    let h = PssBackend::insert(&mut s, 5);
    assert!(PssBackend::delete(&mut s, h));
    let j = PssBackend::journal(&s).expect("halt keeps a journal");
    assert_eq!(j.epoch(), 2);
    let mut d = DpssSampler::new(1);
    assert!(PssBackend::journal(&d).is_some());
    let _ = PssBackend::insert_many(&mut d, &[1, 2, 3]);
    assert_eq!(PssBackend::journal(&d).unwrap().epoch(), 1, "facade batch is one version");
    // The de-amortized union journal batches bulk loads the same way.
    let mut dm = dpss::DeamortizedDpss::new(1);
    let hs = PssBackend::insert_many(&mut dm, &[5, 6, 7, 8]);
    assert_eq!(hs.len(), 4);
    assert_eq!(PssBackend::journal(&dm).unwrap().epoch(), 1, "deam batch is one version");
    assert!(PssBackend::delete(&mut dm, hs[0]));
    assert_eq!(PssBackend::journal(&dm).unwrap().epoch(), 2);
}
