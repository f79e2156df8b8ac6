//! Crash–recovery harness: for every failpoint [`Site`], run a seeded mixed
//! workload, kill the backend exactly there, recover from the last snapshot
//! plus the journal that outlived the crash, and prove the recovered sampler
//! equals an uncrashed twin — byte-identical snapshot image *and* identical
//! pinned-stream samples.
//!
//! The durability model under test: the snapshot is a write-once image taken
//! at some journal watermark; the change journal is the write-ahead log that
//! survives the crash. [`pss_core::recover`] composes `from_snapshot` with a
//! `catch_up(watermark)` replay through the backend's public ops. Because
//! every op journals atomically (one record per op, whichever side of the
//! mutation the append lands on), the recovered state is exactly "the op
//! prefix the journal reached" — which is what the epoch-counted twin
//! reproduces without ever crashing. HALT journals keep no deltas by
//! default, so the crashing run attaches a ring to serve as that log
//! ([`Logged`]); the twin and the restored samplers stay ring-less, like
//! every sampler built by `with_seed` or restored from a snapshot.
//!
//! Build with `--features fault-injection`; the whole file compiles away
//! otherwise (the shim is a no-op and nothing can be armed).
#![cfg(feature = "fault-injection")]

use bignum::Ratio;
use dpss::{DeamortizedDpss, DpssSampler, OpError};
use pss_core::fault::{self, Action, Site};
use pss_core::{
    recover, Handle, PssBackend, QueryCtx, RecoverError, SeedableBackend, SnapshotError,
    Snapshottable,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The failpoint registry is process-global; every test in this binary takes
/// this lock so armed sites never leak across concurrently-run tests.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // An injected unwind inside a previous test poisons the mutex by design;
    // the guarded state is the (always-valid) global registry.
    FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// SplitMix64 — the workload stream generator (deterministic by seed).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One op of the post-snapshot tail. `Delete`/`SetWeight` pick a live handle
/// by index so the crashed run and the twin (which maintain identical live
/// vectors over identical prefixes) always name the same item.
#[derive(Clone, Debug)]
enum TailOp {
    Insert(u64),
    Delete(usize),
    SetWeight(usize, u64),
    Bulk(Vec<u64>),
}

/// A deterministic mixed tail that keeps the live count inside the
/// no-rebuild band around `live0` (rebuilds clear the journal ring, which
/// would — correctly — force a resync instead of a replay; the one test
/// that *wants* that lives in `snapshot_roundtrip.rs`).
fn mixed_tail(seed: u64, len: usize, live0: usize, with_set_weight: bool) -> Vec<TailOp> {
    let mut ops = Vec::with_capacity(len);
    let mut live = live0;
    let mut z = seed;
    for _ in 0..len {
        z = splitmix(z);
        let w = (z >> 33) | 1;
        let kinds = if with_set_weight { 3 } else { 2 };
        if z.is_multiple_of(kinds) || live <= live0 / 2 + 2 {
            ops.push(TailOp::Insert(w));
            live += 1;
        } else if z % kinds == 1 {
            ops.push(TailOp::Delete((z >> 17) as usize));
            live -= 1;
        } else {
            ops.push(TailOp::SetWeight((z >> 17) as usize, w));
        }
    }
    ops
}

/// Applies one tail op through the public (panicking) facade, mirroring it
/// into `live`. An injected unwind escapes to the caller's `catch_unwind`.
fn apply<B: PssBackend>(s: &mut B, live: &mut Vec<Handle>, op: &TailOp) {
    match op {
        TailOp::Insert(w) => {
            let h = s.insert(*w);
            live.push(h);
        }
        TailOp::Delete(i) => {
            let h = live.remove(i % live.len());
            assert!(s.delete(h), "journaled workload deleted a stale handle");
        }
        TailOp::SetWeight(i, w) => {
            let h = live[i % live.len()];
            assert_eq!(s.set_weight(h, *w), Some(h), "reweight must be handle-stable");
        }
        TailOp::Bulk(ws) => {
            live.extend(s.insert_many(ws));
        }
    }
}

/// Structural + behavioral equality: identical snapshot bytes (the strongest
/// structural check — it covers the slab verbatim, the sizing scalars, the
/// derived-stream seed, and the journal epoch) and identical samples from
/// twin contexts pinned to one seed.
fn assert_twin_equal<B: Snapshottable + PssBackend>(recovered: &B, twin: &B) {
    assert_eq!(recovered.len(), twin.len());
    assert_eq!(recovered.total_weight(), twin.total_weight());
    assert_eq!(recovered.snapshot(), twin.snapshot(), "recovered snapshot bytes diverge from twin");
    let alpha = Ratio::from_u64s(1, 2);
    let beta = Ratio::from_u64s(3, 1);
    let mut ca = QueryCtx::new(0x5EED);
    let mut cb = QueryCtx::new(0x5EED);
    for _ in 0..6 {
        assert_eq!(
            recovered.query(&mut ca, &alpha, &beta),
            twin.query(&mut cb, &alpha, &beta),
            "pinned-stream samples diverge"
        );
    }
}

/// Ring depth of the write-ahead log: deeper than any tail below.
const WAL_CAPACITY: usize = 1024;

/// A backend whose own journal doubles as the write-ahead log: built like
/// `with_seed`, with a delta ring attached.
trait Logged: Snapshottable + PssBackend + SeedableBackend {
    fn logged(seed: u64) -> Self;
}

impl Logged for DpssSampler {
    fn logged(seed: u64) -> Self {
        let mut s = DpssSampler::with_seed(seed);
        s.attach_journal_ring(WAL_CAPACITY);
        s
    }
}

impl Logged for DeamortizedDpss {
    fn logged(seed: u64) -> Self {
        let mut s = DeamortizedDpss::with_seed(seed);
        s.attach_journal_ring(WAL_CAPACITY);
        s
    }
}

/// The harness: seeded prelude → snapshot → arm `site` (nth hit) → run the
/// tail until the injected unwind kills the backend → recover from snapshot
/// + surviving journal → compare against an uncrashed epoch-counted twin.
fn crash_and_recover<B: Logged>(site: Site, nth: u64, tail: &[TailOp], expect_poisoned: bool) {
    let _g = lock();
    fault::clear();
    let seed = 0xC0FF_EE00 ^ nth;
    let prelude: Vec<u64> = (0..48u64).map(|i| splitmix(seed ^ i) >> 33).collect();

    // The run that will crash, its journal the write-ahead log.
    let mut s = B::logged(seed);
    let mut live: Vec<Handle> = s.insert_many(&prelude);
    let snap = s.snapshot();
    // Count hits from the tail only, then arm the kill.
    fault::clear();
    fault::arm_nth(site, nth, Action::Panic);
    let mut crashed = false;
    for op in tail {
        if catch_unwind(AssertUnwindSafe(|| apply(&mut s, &mut live, op))).is_err() {
            crashed = true;
            break;
        }
    }
    assert!(crashed, "{}: tail never reached the armed site", site);
    assert!(fault::hits(site) > nth, "{}: hit counter did not advance", site);
    fault::clear();
    assert_eq!(
        s.poisoned(),
        expect_poisoned,
        "{}: poisoning contract (entry sites fire before any mutation)",
        site
    );

    // Recovery: the snapshot bytes plus the journal that outlived the crash.
    let durable = s.journal().expect("both HALT samplers are journaled");
    let crashed_epoch = durable.epoch();
    let recovered: B =
        recover(&snap, durable).unwrap_or_else(|e| panic!("{site}: recovery failed: {e}"));
    assert!(!recovered.poisoned(), "{}: recovery must clear poisoning", site);

    // The uncrashed twin: same seed, same stream, stopped at the same
    // journal epoch. Per-op atomic journaling puts that boundary on an op
    // boundary regardless of where the mutation/append order crashed.
    let mut twin = B::with_seed(seed);
    let mut twin_live: Vec<Handle> = twin.insert_many(&prelude);
    let mut i = 0;
    while twin.journal().expect("journaled").epoch() < crashed_epoch {
        apply(&mut twin, &mut twin_live, &tail[i]);
        i += 1;
    }
    assert_twin_equal(&recovered, &twin);
}

#[test]
fn halt_recovers_at_every_update_site() {
    let tail = mixed_tail(11, 24, 48, true);
    let mut bulk_tail = mixed_tail(13, 6, 48, false);
    bulk_tail.push(TailOp::Bulk((0..9u64).map(|i| splitmix(77 ^ i) >> 34 | 1).collect()));
    // Pure single inserts: crosses n > 2·n₀ and fires the armed rebuild.
    let grow_tail: Vec<TailOp> =
        (0..80u64).map(|i| TailOp::Insert(splitmix(99 ^ i) >> 34 | 1)).collect();
    // (site, nth tail hit, tail, poisoned after the unwind?)
    let cases: [(Site, u64, &[TailOp], bool); 9] = [
        (Site::InsertEntry, 2, &tail, false),
        (Site::InsertCascade, 2, &tail, true),
        (Site::DeleteEntry, 1, &tail, false),
        (Site::DeleteCascade, 1, &tail, true),
        (Site::SetWeightEntry, 1, &tail, false),
        (Site::SetWeightCascade, 1, &tail, true),
        (Site::BulkEntry, 0, &bulk_tail, false),
        (Site::BulkFill, 0, &bulk_tail, true),
        (Site::RebuildMid, 0, &grow_tail, true),
    ];
    for (site, nth, t, poisons) in cases {
        crash_and_recover::<DpssSampler>(site, nth, t, poisons);
    }
}

#[test]
fn deamortized_recovers_at_update_sites() {
    // No native set_weight (the trait default is delete+insert, which hits
    // the delete/insert sites) and the frozen half-migration sub-ops are
    // deliberately failpoint-free, so the de-amortized surface is the five
    // op-level sites.
    let tail = mixed_tail(21, 24, 48, false);
    let mut bulk_tail = mixed_tail(23, 6, 48, false);
    bulk_tail.push(TailOp::Bulk((0..9u64).map(|i| splitmix(177 ^ i) >> 34 | 1).collect()));
    let cases: [(Site, u64, &[TailOp], bool); 5] = [
        (Site::InsertEntry, 2, &tail, false),
        (Site::InsertCascade, 2, &tail, true),
        (Site::DeleteEntry, 1, &tail, false),
        (Site::DeleteCascade, 1, &tail, true),
        (Site::BulkEntry, 0, &bulk_tail, false),
    ];
    for (site, nth, t, poisons) in cases {
        crash_and_recover::<DeamortizedDpss>(site, nth, t, poisons);
    }
}

#[test]
fn poisoned_sampler_refuses_updates_until_recovered() {
    let _g = lock();
    fault::clear();
    let mut s = DpssSampler::new(3);
    let ids = DpssSampler::insert_many(&mut s, &[4, 8, 15, 16, 23, 42]);
    let snap = s.snapshot();
    fault::arm(Site::InsertCascade, Action::Panic);
    assert!(catch_unwind(AssertUnwindSafe(|| {
        DpssSampler::insert(&mut s, 9);
    }))
    .is_err());
    fault::clear();
    assert!(DpssSampler::poisoned(&s));
    // Every subsequent update is refused with the typed poison error...
    assert_eq!(s.try_insert(5).err(), Some(OpError::Poisoned));
    assert_eq!(s.try_delete(ids[0]).err(), Some(OpError::Poisoned));
    assert_eq!(s.try_set_weight(ids[1], 99).err(), Some(OpError::Poisoned));
    assert_eq!(s.try_insert_many(&[1, 2]).err(), Some(OpError::Poisoned));
    // ...but the journal stays readable, which is exactly what recovery needs.
    let recovered: DpssSampler = recover(&snap, DpssSampler::journal(&s)).expect("recover");
    assert!(!DpssSampler::poisoned(&recovered));
    assert_eq!(recovered.len(), 6);
}

#[test]
fn entry_faults_are_clean_typed_errors() {
    let _g = lock();
    fault::clear();
    let mut s = DpssSampler::new(7);
    let ids = DpssSampler::insert_many(&mut s, &[10, 20, 30]);
    for site in [Site::InsertEntry, Site::DeleteEntry, Site::SetWeightEntry, Site::BulkEntry] {
        fault::arm(site, Action::Error);
        let err = match site {
            Site::InsertEntry => s.try_insert(5).err(),
            Site::DeleteEntry => s.try_delete(ids[0]).err(),
            Site::SetWeightEntry => s.try_set_weight(ids[1], 7).err(),
            Site::BulkEntry => s.try_insert_many(&[1]).err(),
            _ => unreachable!("only entry sites in this table"),
        };
        match err {
            Some(OpError::Fault(f)) => assert_eq!(f.site, site),
            other => panic!("{site}: expected a typed fault, got {other:?}"),
        }
        // Entry sites fire before any mutation: unpoisoned and fully usable.
        assert!(!DpssSampler::poisoned(&s), "{site}: entry fault must not poison");
    }
    fault::clear();
    let id = s.try_insert(5).expect("disarmed sampler accepts updates");
    assert_eq!(s.try_delete(id).expect("live handle"), Some(5));
    assert_eq!(s.len(), 3);
}

#[test]
fn snapshot_encode_corruption_never_loads() {
    let _g = lock();
    fault::clear();
    let mut s = DpssSampler::new(5);
    DpssSampler::insert_many(
        &mut s,
        &(0..24u64).map(|i| splitmix(i) >> 40 | 1).collect::<Vec<_>>(),
    );
    let good = s.snapshot();
    for seed in 0..32u64 {
        fault::arm(Site::SnapshotEncode, Action::FlipByte(seed));
        let flipped = s.snapshot();
        assert!(
            DpssSampler::from_snapshot(&flipped).is_err(),
            "flip seed {seed}: corrupted image loaded silently"
        );
        fault::arm(Site::SnapshotEncode, Action::Truncate(seed));
        let cut = s.snapshot();
        assert!(cut.len() < good.len(), "truncate seed {seed}: image not shortened");
        assert!(
            DpssSampler::from_snapshot(&cut).is_err(),
            "truncate seed {seed}: torn image loaded silently"
        );
    }
    assert!(fault::hits(Site::SnapshotEncode) >= 64);
    fault::clear();
    // Disarmed, the same sampler round-trips cleanly.
    assert_eq!(s.snapshot(), good);
    assert!(DpssSampler::from_snapshot(&good).is_ok());
}

#[test]
fn snapshot_decode_fault_is_typed() {
    let _g = lock();
    fault::clear();
    let mut s = DeamortizedDpss::new(5);
    DeamortizedDpss::insert_many(&mut s, &[3, 1, 4, 1, 5, 9, 2, 6]);
    let good = s.snapshot();
    fault::arm(Site::SnapshotDecode, Action::Error);
    assert_eq!(
        DeamortizedDpss::from_snapshot(&good).err(),
        Some(SnapshotError::Invalid("injected decode fault"))
    );
    // One-shot: the next load succeeds.
    let restored = DeamortizedDpss::from_snapshot(&good).expect("disarmed load");
    assert_eq!(restored.snapshot(), good);
}

#[test]
fn recover_from_corrupt_snapshot_is_a_typed_snapshot_error() {
    let _g = lock();
    fault::clear();
    let mut s = DpssSampler::new(4);
    DpssSampler::insert_many(&mut s, &[7, 7, 7]);
    fault::arm(Site::SnapshotEncode, Action::FlipByte(1));
    let bad = s.snapshot();
    fault::clear();
    match recover::<DpssSampler>(&bad, DpssSampler::journal(&s)) {
        Err(RecoverError::Snapshot(_)) => {}
        other => panic!("expected RecoverError::Snapshot, got {other:?}"),
    }
}

#[test]
fn refused_replay_is_a_typed_recover_error() {
    // The journal tail holds one insert; the restored sampler refuses it at
    // its entry failpoint, and recovery reports which delta and why.
    let _g = lock();
    fault::clear();
    let mut s = DpssSampler::logged(6);
    DpssSampler::insert_many(&mut s, &[5, 6, 7]);
    let snap = s.snapshot();
    DpssSampler::insert(&mut s, 9);
    fault::arm(Site::InsertEntry, Action::Error);
    let outcome =
        catch_unwind(AssertUnwindSafe(|| recover::<DpssSampler>(&snap, DpssSampler::journal(&s))));
    fault::clear();
    match outcome.expect("a refused replay must not panic") {
        Err(RecoverError::Refused { index: 0, error: OpError::Fault(f) }) => {
            assert_eq!(f.site, Site::InsertEntry);
        }
        other => panic!("expected RecoverError::Refused at delta 0, got {other:?}"),
    }
}
