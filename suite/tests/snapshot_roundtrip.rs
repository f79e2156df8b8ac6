//! Snapshot determinism + corruption robustness, feature-independent (the
//! fault shim is not needed: corruption here is plain byte surgery on the
//! encoded image).
//!
//! Three contracts, over every [`Snapshottable`] backend in the roster:
//!
//! 1. **Determinism** — `snapshot()` is a pure function of logical state
//!    (two calls byte-identical), and `save → load → save` reproduces the
//!    exact bytes (the image captures everything the encoder reads).
//! 2. **Corruption robustness** — every single-byte flip and every
//!    truncation boundary of a valid image yields a *typed* [`SnapshotError`]
//!    from `from_snapshot`: never a panic, never a silent load.
//! 3. **Resync contract** — when the durable journal no longer reaches the
//!    snapshot's watermark (ring wrap, a structural rebuild after the save,
//!    or a HALT journal that keeps no ring), [`recover`] refuses with
//!    [`RecoverError::NeedsResync`] instead of patching partially; and every
//!    `Replay::TooOld` consumer in the workspace falls back to a full Θ(n)
//!    rebuild, never a partial patch. HALT journals keep deltas only once a
//!    ring is attached, so the replay tests below attach one.

use baselines::{NaiveExact, NaiveFloat, OdssStyle, OdssUnderDpss};
use bignum::Ratio;
use dpss::{DeamortizedDpss, DpssSampler};
use proptest::prelude::*;
use pss_core::{
    recover, PssBackend, QueryCtx, RecoverError, SeedableBackend, SnapshotError, Snapshottable,
    DEFAULT_JOURNAL_CAPACITY, FORMAT_VERSION, MAGIC,
};

/// SplitMix64 — deterministic weight streams.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a backend with a mixed history: a bulk load (one journal batch),
/// singles across many weight classes (including zero), deletes (so the free
/// list is non-trivial), and reweights where the backend supports them.
fn seeded<B: PssBackend + SeedableBackend>(seed: u64, n: usize) -> B {
    let mut s = B::with_seed(seed);
    let bulk: Vec<u64> = (0..n as u64).map(|i| splitmix(seed ^ i) >> 33).collect();
    let hs = s.insert_many(&bulk);
    s.insert(0);
    s.insert(1 << 40);
    s.delete(hs[1]);
    s.delete(hs[n / 2]);
    s.set_weight(hs[0], 123);
    s
}

/// Contract 1: determinism and save→load→save byte-identity, plus restored
/// pinned-stream samples matching the original's.
fn assert_stable<B: Snapshottable + PssBackend + SeedableBackend>() {
    let s = seeded::<B>(42, 24);
    let a = s.snapshot();
    assert_eq!(a, s.snapshot(), "{}: snapshot() is not deterministic", s.name());
    let restored = B::from_snapshot(&a).expect("valid image loads");
    assert_eq!(restored.snapshot(), a, "{}: save→load→save not byte-identical", s.name());
    assert_eq!(restored.len(), s.len());
    assert_eq!(restored.total_weight(), s.total_weight());
    let alpha = Ratio::from_u64s(1, 3);
    let beta = Ratio::from_u64s(2, 1);
    let mut ca = QueryCtx::new(0xAB);
    let mut cb = QueryCtx::new(0xAB);
    for _ in 0..4 {
        assert_eq!(
            s.query(&mut ca, &alpha, &beta),
            restored.query(&mut cb, &alpha, &beta),
            "{}: restored pinned-stream samples diverge",
            s.name()
        );
    }
}

#[test]
fn snapshots_are_deterministic_across_the_roster() {
    assert_stable::<DpssSampler>();
    assert_stable::<DeamortizedDpss>();
    assert_stable::<NaiveExact>();
    assert_stable::<NaiveFloat>();
    assert_stable::<OdssStyle>();
    assert_stable::<OdssUnderDpss>();
}

#[test]
fn snapshot_is_stable_mid_migration() {
    // The de-amortized sampler mid-epoch: halves, rosters, and migration
    // counters must all be captured. Grow past the 3/2 trigger, then stop
    // partway through the incremental migration.
    let mut s = DeamortizedDpss::new(9);
    for i in 0..40u64 {
        DeamortizedDpss::insert(&mut s, splitmix(i) >> 33 | 1);
    }
    assert!(s.migrating() || s.epochs_completed() > 0, "workload never triggered migration");
    let a = s.snapshot();
    let restored = DeamortizedDpss::from_snapshot(&a).expect("mid-migration image loads");
    assert_eq!(restored.snapshot(), a);
    assert_eq!(restored.migrating(), s.migrating());
    assert_eq!(restored.epochs_completed(), s.epochs_completed());
}

/// Contract 2: the exhaustive sweep. Every truncation boundary and every
/// single-byte flip (all 8 bit positions) must produce `Err(_)` — the decode
/// path has no panicking arm and no silent-accept arm.
fn corruption_sweep<B: Snapshottable + PssBackend + SeedableBackend>() {
    let s = seeded::<B>(7, 16);
    let good = s.snapshot();
    let name = s.name();
    for cut in 0..good.len() {
        assert!(
            B::from_snapshot(&good[..cut]).is_err(),
            "{name}: truncation at byte {cut}/{} loaded",
            good.len()
        );
    }
    for i in 0..good.len() {
        for bit in 0..8u8 {
            let mut c = good.clone();
            c[i] ^= 1 << bit;
            assert!(
                B::from_snapshot(&c).is_err(),
                "{name}: flip of byte {i} bit {bit} loaded silently"
            );
        }
    }
    // And the pristine image still loads after all that surgery on clones.
    assert!(B::from_snapshot(&good).is_ok());
}

#[test]
fn every_flip_and_truncation_is_rejected_halt() {
    corruption_sweep::<DpssSampler>();
}

#[test]
fn every_flip_and_truncation_is_rejected_deamortized() {
    corruption_sweep::<DeamortizedDpss>();
}

#[test]
fn every_flip_and_truncation_is_rejected_baselines() {
    corruption_sweep::<NaiveExact>();
    corruption_sweep::<NaiveFloat>();
    corruption_sweep::<OdssStyle>();
    corruption_sweep::<OdssUnderDpss>();
}

#[test]
fn wrong_backend_kind_is_a_typed_error() {
    let s = seeded::<NaiveExact>(3, 8);
    let img = s.snapshot();
    match DpssSampler::from_snapshot(&img) {
        Err(SnapshotError::WrongBackend { .. }) => {}
        other => panic!("expected WrongBackend, got {other:?}"),
    }
}

/// A version field one off the codec's, in either direction, is refused by
/// name: `UnsupportedVersion` carrying the version found, not some other
/// typed error. The field is the `u16` right after the magic; the header
/// carries no checksum, so the patched image passes every earlier check.
fn assert_version_gated<B: Snapshottable + PssBackend + SeedableBackend>() {
    let img = seeded::<B>(5, 16).snapshot();
    let at = MAGIC.len();
    for v in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
        let mut bad = img.clone();
        bad[at..at + 2].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            B::from_snapshot(&bad).err(),
            Some(SnapshotError::UnsupportedVersion(v)),
            "version {v} must be refused as unsupported"
        );
    }
}

#[test]
fn off_by_one_format_version_is_refused() {
    assert_version_gated::<DpssSampler>();
    assert_version_gated::<DeamortizedDpss>();
    assert_version_gated::<NaiveExact>();
}

proptest! {
    /// Randomized double-check of the sweep on a larger image: any byte,
    /// any non-zero XOR mask, any truncation point — typed error, always.
    #[test]
    fn random_corruption_never_loads(seed in 0u64..1024, pos in 0usize..100_000, mask in 1u8..=255) {
        let s = seeded::<DpssSampler>(seed, 40);
        let good = s.snapshot();
        let mut c = good.clone();
        let i = pos % c.len();
        c[i] ^= mask;
        prop_assert!(DpssSampler::from_snapshot(&c).is_err());
        prop_assert!(DpssSampler::from_snapshot(&good[..i]).is_err());
    }
}

// ---------------------------------------------------------------------------
// Contract 3: resync instead of partial patch.
// ---------------------------------------------------------------------------

#[test]
fn wrapped_ring_mid_recovery_forces_full_resync() {
    let mut s = DpssSampler::new(9);
    s.attach_journal_ring(DEFAULT_JOURNAL_CAPACITY);
    let ids = DpssSampler::insert_many(&mut s, &(1..=40u64).collect::<Vec<_>>());
    let snap = s.snapshot();
    let watermark = DpssSampler::journal(&s).epoch();
    // Wrap the ring without moving n (reweights never trigger a rebuild):
    // more single-op records than the ring retains.
    for k in 0..1100u64 {
        DpssSampler::set_weight(&mut s, ids[(k % 40) as usize], k + 1);
    }
    match recover::<DpssSampler>(&snap, DpssSampler::journal(&s)) {
        Err(RecoverError::NeedsResync { watermark: w, journal_epoch }) => {
            assert_eq!(w, watermark);
            assert_eq!(journal_epoch, DpssSampler::journal(&s).epoch());
        }
        other => panic!("wrapped ring must force a resync, got {other:?}"),
    }
    // The resync path: a *current* snapshot recovers with zero replay.
    let fresh = s.snapshot();
    let r: DpssSampler = recover(&fresh, DpssSampler::journal(&s)).expect("current image");
    assert_eq!(r.snapshot(), fresh);
}

#[test]
fn rebuild_after_snapshot_forces_full_resync() {
    // A structural rebuild raises the journal floor past the watermark:
    // group widths moved, so no delta replay can reproduce the hierarchy.
    let mut s = DpssSampler::new(5);
    s.attach_journal_ring(DEFAULT_JOURNAL_CAPACITY);
    DpssSampler::insert_many(&mut s, &(1..=48u64).collect::<Vec<_>>());
    let snap = s.snapshot();
    // n₀ = 48 after the bulk load; 60 more singles cross n > 2·n₀ = 96 and
    // fire the geometric rebuild (which clears the ring and raises the floor).
    for i in 0..60u64 {
        DpssSampler::insert(&mut s, i + 1);
    }
    match recover::<DpssSampler>(&snap, DpssSampler::journal(&s)) {
        Err(RecoverError::NeedsResync { .. }) => {}
        other => panic!("post-snapshot rebuild must force a resync, got {other:?}"),
    }
}

#[test]
fn in_band_journal_tail_recovers_exactly() {
    // The positive control for the two tests above: a tail that stays inside
    // the ring band replays to the exact current state.
    let mut s = DpssSampler::new(5);
    s.attach_journal_ring(DEFAULT_JOURNAL_CAPACITY);
    let ids = DpssSampler::insert_many(&mut s, &(1..=48u64).collect::<Vec<_>>());
    let snap = s.snapshot();
    for k in 0..100u64 {
        DpssSampler::set_weight(&mut s, ids[(k % 48) as usize], k * 3 + 1);
    }
    let r: DpssSampler = recover(&snap, DpssSampler::journal(&s)).expect("in-band tail");
    assert_eq!(r.snapshot(), s.snapshot(), "replayed state must equal the live original");
}

#[test]
fn ringless_journal_forces_a_resync_at_any_lag() {
    // A sampler without an attached ring counts versions but holds no tail:
    // recovery across even one op must resync, never replay nothing.
    let mut s = DpssSampler::new(5);
    let ids = DpssSampler::insert_many(&mut s, &(1..=48u64).collect::<Vec<_>>());
    let snap = s.snapshot();
    let watermark = DpssSampler::journal(&s).epoch();
    let r: DpssSampler = recover(&snap, DpssSampler::journal(&s)).expect("lag 0 is up to date");
    assert_eq!(r.snapshot(), snap);
    for k in 0..3u64 {
        DpssSampler::set_weight(&mut s, ids[k as usize], 1000 + k);
        match recover::<DpssSampler>(&snap, DpssSampler::journal(&s)) {
            Err(RecoverError::NeedsResync { watermark: w, journal_epoch }) => {
                assert_eq!((w, journal_epoch), (watermark, watermark + k + 1));
            }
            other => {
                panic!("lag {}: a ring-less journal must force a resync, got {other:?}", k + 1)
            }
        }
    }
    // The restored sampler is ring-less too, and resumes the same version.
    let restored = DpssSampler::from_snapshot(&s.snapshot()).expect("current image");
    assert_eq!(DpssSampler::journal(&restored).epoch(), DpssSampler::journal(&s).epoch());
    assert_eq!(DpssSampler::journal(&restored).heap_words(), 0);
}

#[test]
fn odss_style_falls_back_to_full_rebuild_on_wrap() {
    // `Replay::TooOld` consumer #1: OdssStyle's per-context materialization.
    let mut s = OdssStyle::new(1);
    let hs = PssBackend::insert_many(&mut s, &(1..=32u64).collect::<Vec<_>>());
    // α=0, β=1 ⇒ p_x = min(w_x/1, 1) = 1 for every positive weight: the
    // query must return the full item set, which pins the fallback-built
    // materialization to the store exactly.
    let alpha = Ratio::zero();
    let beta = Ratio::from_u64s(1, 1);
    let mut ctx = QueryCtx::new(5);
    let _ = s.query(&mut ctx, &alpha, &beta);
    assert_eq!(s.rebuilds(), 1, "first query materializes");
    assert_eq!(s.fallbacks(), 0);
    // In-band churn is a delta patch, not a rebuild.
    PssBackend::set_weight(&mut s, hs[0], 99);
    let _ = s.query(&mut ctx, &alpha, &beta);
    assert_eq!(s.replays(), 1);
    assert_eq!(s.fallbacks(), 0);
    // Wrap the ring: the next catch-up must be a full Θ(n) fallback — a
    // partial patch over a lost window would silently serve stale state.
    for k in 0..1100u64 {
        PssBackend::set_weight(&mut s, hs[(k % 32) as usize], k + 1);
    }
    let t = s.query(&mut ctx, &alpha, &beta);
    assert_eq!(s.fallbacks(), 1, "wrapped ring must force the fallback rebuild");
    assert_eq!(t.len(), 32, "alpha=1, beta=0 includes every item with p=1");
    s.validate_materialization(&ctx);
}

#[test]
fn halt_plan_state_survives_a_wrapped_ring() {
    // Not a `Replay::TooOld` consumer: the HALT per-context plan cache never
    // reads the journal, so a wrapped ring means nothing to it; its stamp
    // drops the plan once Σw moved, and the samples stay those of the
    // current items.
    let mut s = DpssSampler::new(2);
    s.attach_journal_ring(DEFAULT_JOURNAL_CAPACITY);
    let ids = DpssSampler::insert_many(&mut s, &(1..=48u64).collect::<Vec<_>>());
    let alpha = Ratio::from_u64s(1, 2);
    let beta = Ratio::from_u64s(1, 1);
    let mut ctx = QueryCtx::new(7);
    let _ = s.query_in(&mut ctx, &alpha, &beta);
    for k in 0..1100u64 {
        DpssSampler::set_weight(&mut s, ids[(k % 48) as usize], k % 17 + 1);
    }
    let t = s.query_in(&mut ctx, &alpha, &beta);
    for id in &t {
        assert!(s.contains(*id), "stale-plan sample after a wrapped ring");
    }
    s.validate();
}

#[test]
fn odss_under_dpss_rematerializes_fully_on_any_movement() {
    // `Replay::TooOld` consumer #2 (degenerate): the absolute-probability
    // adapter treats *any* journal movement as a full rematerialization —
    // its fallback contract is "always resync", by construction.
    let mut s = OdssUnderDpss::new(4);
    let hs = PssBackend::insert_many(&mut s, &(1..=16u64).collect::<Vec<_>>());
    let alpha = Ratio::from_u64s(1, 1);
    let beta = Ratio::zero();
    let mut ctx = QueryCtx::new(3);
    let _ = s.query(&mut ctx, &alpha, &beta);
    let after_first = s.rebuilds();
    assert_eq!(after_first, 1);
    PssBackend::set_weight(&mut s, hs[0], 77);
    let _ = s.query(&mut ctx, &alpha, &beta);
    let after_move = s.rebuilds();
    assert_eq!(after_move, 2, "any W movement must rematerialize in full");
}

#[test]
fn recovery_composes_with_baseline_backends() {
    // recover() is generic over Snapshottable + PssBackend: prove the
    // baseline impls compose with journal replay, not just the HALT ones.
    let mut s = OdssStyle::new(11);
    let hs = PssBackend::insert_many(&mut s, &[5, 6, 7, 8]);
    let snap = s.snapshot();
    PssBackend::insert(&mut s, 9);
    PssBackend::delete(&mut s, hs[2]);
    PssBackend::set_weight(&mut s, hs[0], 50);
    let journal = PssBackend::journal(&s).expect("journaled baseline");
    let r: OdssStyle = recover(&snap, journal).expect("replay over the baseline");
    assert_eq!(r.len(), s.len());
    assert_eq!(r.total_weight(), s.total_weight());
    assert_eq!(r.snapshot(), s.snapshot());
}
