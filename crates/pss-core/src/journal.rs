//! [`ChangeJournal`] — the epoch-delta change log a backend keeps on its
//! update path: always a version, and a ring of deltas when the backend's
//! readers patch from them.
//!
//! ## Why a journal
//!
//! Before this module, `pss-core` exposed only a coarse mutation epoch:
//! read-path state parked in a [`crate::QueryCtx`] (the ODSS baselines'
//! materialized probability buckets) could ask *whether* the backend
//! changed, but never *how* — so every update forced the most pessimistic
//! answer ("everything is stale") and per-context materializations paid
//! Θ(n) rebuilds for single-item weight moves.
//!
//! The journal replaces that protocol with a version and an optional
//! bounded, epoch-stamped ring of fine-grained [`Delta`]s. Backends record
//! one entry per `&mut self` update (or one *epoch* per batch — see
//! [`ChangeJournal::record_batch`]); context state remembers the epoch it
//! last observed and calls [`ChangeJournal::catch_up`] at query time:
//!
//! - [`Replay::UpToDate`] — nothing moved, reuse everything;
//! - [`Replay::Deltas`] — patch forward in O(deltas), not Θ(n);
//! - [`Replay::TooOld`] — the ring wrapped past the observer, a structural
//!   [`Delta::Rebuilt`] entry intervened, or the journal keeps no ring:
//!   rebuild from scratch.
//!
//! The fallback is what keeps the ring *bounded*: a journal never grows with
//! the update rate, it only trades replay reach for space. A `Rebuilt` entry
//! additionally clears the ring outright — no replay crosses a structural
//! rebuild, so retaining pre-rebuild deltas would be dead weight.
//!
//! ## Version without a ring
//!
//! A reader that never patches from deltas needs only the version. Some
//! readers need not even that: HALT's plan caches depend on `(Σw, n⁺)`,
//! the group width and the fast-path flag, not on which items moved, and
//! check those values themselves. So a HALT sampler keeps a ring-less
//! journal ([`ChangeJournal::ringless_at`]) unless its owner attaches one
//! ([`ChangeJournal::attach_ring`]), for instance to serve as a
//! write-ahead log for [`crate::recover`]. A ring-less journal bumps its
//! epoch exactly like a ring-ful one, so snapshot watermarks do not depend
//! on the choice, and it answers [`ChangeJournal::catch_up`] with
//! [`Replay::TooOld`] for any lag: it never claims a tail it does not
//! hold.
//!
//! ## Epoch discipline
//!
//! Epochs are the journal's version numbers: `epoch()` is the version an
//! observer synchronizes to, and every retained entry is stamped with the
//! epoch at which it was applied. Stamps are monotone but **not necessarily
//! unique** — [`ChangeJournal::record_batch`] stamps a whole update batch
//! with a single bumped epoch, which is what lets a backend amortize the
//! version bump over a batch insert without changing per-op semantics
//! (observers replay whole batches or nothing; there is no "halfway through
//! a batch" state to observe).

use crate::Handle;

/// Default ring capacity of [`ChangeJournal::new`]: deep enough that a
/// query-interleaved update stream (the mixed regimes the ring exists for)
/// replays instead of falling back. At 40 bytes per entry a full ring holds
/// 40 KiB, which dominates a small structure's footprint — one ring per
/// sampler is what a graph of tiny samplers cannot afford, and why HALT
/// samplers keep none unless asked ([`ChangeJournal::ringless_at`]).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// One fine-grained backend mutation, as observed by read-path state.
///
/// Weight payloads are carried on the delta (not re-read from the backend)
/// so a replayer can patch its own bookkeeping without holding a borrow of
/// the structure that emitted the entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delta {
    /// An item was inserted with the given weight.
    Inserted {
        /// Handle of the new item.
        handle: Handle,
        /// Its weight at insertion.
        weight: u64,
    },
    /// A live item was deleted.
    Deleted {
        /// Handle of the removed item.
        handle: Handle,
    },
    /// A live item's weight changed in place (handle preserved).
    Reweighted {
        /// Handle of the reweighted item.
        handle: Handle,
        /// Weight before the change.
        old: u64,
        /// Weight after the change.
        new: u64,
    },
    /// Every live weight was scaled to `⌊w·num/den⌋` in one operation (the
    /// decayed-weight discount — see [`crate::scale_weight`] for the one
    /// shared definition of the floor arithmetic).
    ScaledAll {
        /// Numerator of the decay factor (`1 ≤ num ≤ den`).
        num: u32,
        /// Denominator of the decay factor (`≥ 1`).
        den: u32,
    },
    /// A structural rebuild: handles survive but derived layout (group
    /// widths, bucket carving, baked query modes) may not. Recording this
    /// clears the ring — no replay crosses it.
    Rebuilt,
}

/// One retained journal entry: the delta plus the epoch that applied it.
#[derive(Clone, Copy, Debug)]
struct Entry {
    epoch: u64,
    delta: Delta,
}

/// The bounded delta ring of a [`ChangeJournal`] that keeps one.
#[derive(Clone, Debug)]
struct Ring {
    /// Physical ring storage (`entries.len() ≤ cap` during fill-up).
    entries: Vec<Entry>,
    cap: usize,
    /// Physical index of the logically oldest entry.
    head: usize,
    /// Number of live entries.
    len: usize,
    /// Observers strictly below this epoch lost deltas: the ring wrapped
    /// past them, or it was attached after they synchronized.
    floor: u64,
}

impl Ring {
    fn new(capacity: usize, floor: u64) -> Self {
        assert!(capacity >= 1, "journal capacity must be at least 1");
        Ring { entries: Vec::new(), cap: capacity, head: 0, len: 0, floor }
    }

    #[inline]
    fn push(&mut self, entry: Entry) {
        // Invariant: either the ring is still filling (`head == 0`,
        // `entries.len() == len`) or it is physically full and wrapped
        // (`entries.len() == cap == len`); `clear` returns to the filling
        // state.
        if self.entries.len() < self.cap {
            debug_assert_eq!(self.head, 0);
            self.entries.push(entry);
            self.len += 1;
        } else {
            // Evict the oldest entry: observers older than it fall back.
            // (Conditional wrap, not `%`: the capacity is a runtime value,
            // and an integer division per update would dominate the append.)
            // pss-lint: allow(no-bare-index) — the ring is full here (len == cap == entries.len()) and head < cap
            self.floor = self.floor.max(self.entries[self.head].epoch);
            // pss-lint: allow(no-bare-index) — the ring is full here (len == cap == entries.len()) and head < cap
            self.entries[self.head] = entry;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// Drops every entry, keeping the allocation: the ring refills from
    /// index 0.
    fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Entry at logical index `i` (0 = oldest).
    #[inline]
    fn entry(&self, i: usize) -> &Entry {
        debug_assert!(i < self.len);
        let mut p = self.head + i;
        if p >= self.cap {
            p -= self.cap;
        }
        // pss-lint: allow(no-bare-index) — p = (head + i) mod cap with i < len ≤ cap = entries.len()
        &self.entries[p]
    }

    /// First logical index whose epoch exceeds `since`.
    fn partition_point(&self, since: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.entry(mid).epoch <= since {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A backend's version plus, optionally, its bounded epoch-delta ring (see
/// the module docs).
///
/// All operations are O(1) except [`ChangeJournal::catch_up`], which is
/// O(log cap) to locate the replay suffix plus O(1) per delta yielded.
#[derive(Clone, Debug)]
pub struct ChangeJournal {
    /// Current version.
    epoch: u64,
    /// Epoch of the last structural rebuild, or the watermark a journal
    /// resumed at: observers strictly below it must fully rebuild.
    rebuilt: u64,
    /// The delta ring; `None` for a version-only journal.
    ring: Option<Box<Ring>>,
}

impl Default for ChangeJournal {
    fn default() -> Self {
        ChangeJournal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl ChangeJournal {
    /// Creates an empty journal retaining at most `capacity ≥ 1` deltas.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::resumed_with_capacity(0, capacity)
    }

    /// Creates an empty journal with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty journal resuming at `epoch` — the snapshot-restore
    /// constructor. Both the epoch and the replay floor start at the
    /// watermark: a restored journal retains no deltas, so an observer from
    /// a previous life that is *behind* the watermark must fall back
    /// ([`Replay::TooOld`]) rather than replay through a gap, while
    /// observers at the watermark are up to date.
    pub fn resumed_at(epoch: u64) -> Self {
        Self::resumed_with_capacity(epoch, DEFAULT_JOURNAL_CAPACITY)
    }

    /// [`ChangeJournal::resumed_at`] with an explicit ring capacity — the
    /// durable-log constructor. A write-ahead log that must bridge a
    /// snapshot to the present is typically retained far deeper than the
    /// in-memory observer ring (whose only job is saving per-context
    /// catch-ups): a [`crate::recover`] caller sizes it to the longest
    /// journal tail it intends to replay.
    pub fn resumed_with_capacity(epoch: u64, capacity: usize) -> Self {
        ChangeJournal { epoch, rebuilt: epoch, ring: Some(Box::new(Ring::new(capacity, epoch))) }
    }

    /// A version-only journal at `epoch`: it counts versions and rebuilds
    /// like any other, retains no delta, and answers every
    /// [`ChangeJournal::catch_up`] that lags with [`Replay::TooOld`]. For
    /// owners whose readers read no deltas: a snapshot watermark, or a
    /// [`crate::recover`] caller that attaches a ring when it needs one.
    pub fn ringless_at(epoch: u64) -> Self {
        ChangeJournal { epoch, rebuilt: epoch, ring: None }
    }

    /// Starts retaining up to `capacity ≥ 1` deltas from the current epoch
    /// on, replacing any ring held before. Observers behind the current
    /// epoch cannot replay (the deltas that moved them were not kept).
    pub fn attach_ring(&mut self, capacity: usize) {
        self.ring = Some(Box::new(Ring::new(capacity, self.epoch)));
    }

    /// The current version. Context state stores this after building or
    /// catching up, and passes it back as `since` next time.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` iff an observer synchronized at `since` must rebuild its
    /// derived state from scratch: a structural rebuild (or the resumption
    /// this journal started from) lies after it, or `since` is an epoch
    /// this journal never issued. The ring plays no part.
    #[inline]
    fn rebuilt_since(&self, since: u64) -> bool {
        since < self.rebuilt || since > self.epoch
    }

    /// Retained entries (diagnostics; 0 without a ring).
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.len)
    }

    /// `true` iff no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum retained entries (0 without a ring).
    pub fn capacity(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.cap)
    }

    /// Words of storage charged to the journal: its inline struct plus
    /// [`ChangeJournal::heap_words`].
    pub fn space_words(&self) -> usize {
        std::mem::size_of::<Self>().div_ceil(8) + self.heap_words()
    }

    /// Words of heap the journal holds, for owners that account for the
    /// inline struct themselves: nothing without a ring, else the boxed
    /// ring and its entries at their allocated capacity (an epoch word plus
    /// a four-word delta each).
    pub fn heap_words(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| {
            std::mem::size_of::<Ring>().div_ceil(8)
                + r.entries.capacity() * std::mem::size_of::<Entry>().div_ceil(8)
        })
    }

    /// Appends one delta under a freshly bumped epoch; returns the new
    /// epoch. [`Delta::Rebuilt`] takes the structural path (ring cleared,
    /// replay floor raised) — identical to [`ChangeJournal::record_rebuilt`].
    #[inline]
    pub fn record(&mut self, delta: Delta) -> u64 {
        if matches!(delta, Delta::Rebuilt) {
            return self.record_rebuilt();
        }
        self.epoch += 1;
        if let Some(ring) = &mut self.ring {
            ring.push(Entry { epoch: self.epoch, delta });
        }
        self.epoch
    }

    /// Appends a batch of deltas under **one** bumped epoch; returns it.
    /// Observers replay the whole batch or none of it, so stamping the batch
    /// with a single version keeps per-op semantics while doing one epoch
    /// bump per batch instead of one per item. An empty batch records
    /// nothing and leaves the epoch untouched.
    ///
    /// # Panics
    /// Panics on a [`Delta::Rebuilt`] inside a batch — a structural rebuild
    /// is a version boundary of its own, never part of a batch.
    pub fn record_batch(&mut self, deltas: impl IntoIterator<Item = Delta>) -> u64 {
        let mut iter = deltas.into_iter().peekable();
        if iter.peek().is_none() {
            return self.epoch;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        for delta in iter {
            assert!(
                !matches!(delta, Delta::Rebuilt),
                "Delta::Rebuilt is a version boundary, not a batch member"
            );
            if let Some(ring) = &mut self.ring {
                ring.push(Entry { epoch, delta });
            }
        }
        self.epoch
    }

    /// Records a structural rebuild: bumps the epoch, raises the rebuild
    /// floor to it, and clears the ring (no replay crosses a rebuild, so
    /// retained entries are dead weight). Returns the new epoch.
    pub fn record_rebuilt(&mut self) -> u64 {
        self.epoch += 1;
        self.rebuilt = self.epoch;
        if let Some(ring) = &mut self.ring {
            ring.clear();
        }
        self.epoch
    }

    /// How an observer last synchronized at `since` gets back to
    /// [`ChangeJournal::epoch`]: nothing to do, a delta replay, or a full
    /// rebuild (ring wrapped / structural rebuild / unknown future epoch /
    /// no ring at all).
    pub fn catch_up(&self, since: u64) -> Replay<'_> {
        if since == self.epoch {
            return Replay::UpToDate;
        }
        // A future epoch means the observer synchronized against some other
        // journal life; treat it like a wrap.
        if self.rebuilt_since(since) {
            return Replay::TooOld;
        }
        match &self.ring {
            Some(ring) if since >= ring.floor => {
                // Entries with epoch > since form a suffix (stamps are
                // monotone).
                Replay::Deltas(DeltaReplay { ring, next: ring.partition_point(since) })
            }
            _ => Replay::TooOld,
        }
    }
}

/// Result of [`ChangeJournal::catch_up`].
#[derive(Debug)]
pub enum Replay<'a> {
    /// The observer already sits at the journal's epoch.
    UpToDate,
    /// The observer can patch forward by applying these deltas in order.
    Deltas(DeltaReplay<'a>),
    /// The window is gone (ring wrap, structural rebuild, or no ring): the
    /// observer must rebuild its state from the backend and re-synchronize
    /// at [`ChangeJournal::epoch`].
    TooOld,
}

/// Iterator over the replay suffix, oldest first.
#[derive(Debug)]
pub struct DeltaReplay<'a> {
    ring: &'a Ring,
    next: usize,
}

impl DeltaReplay<'_> {
    /// Deltas remaining in the replay.
    pub fn len(&self) -> usize {
        self.ring.len - self.next
    }

    /// `true` iff nothing remains (an observer can be behind on *epoch*
    /// while the delta suffix is empty only when epochs advanced without
    /// retained entries, which `record`/`record_batch` never produce).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> Iterator for DeltaReplay<'a> {
    type Item = &'a Delta;

    fn next(&mut self) -> Option<&'a Delta> {
        if self.next >= self.ring.len {
            return None;
        }
        let delta = &self.ring.entry(self.next).delta;
        self.next += 1;
        Some(delta)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

impl ExactSizeIterator for DeltaReplay<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(raw: u64, w: u64) -> Delta {
        Delta::Inserted { handle: Handle::from_raw(raw), weight: w }
    }

    fn collect(replay: Replay<'_>) -> Vec<Delta> {
        match replay {
            Replay::Deltas(iter) => iter.copied().collect(),
            other => panic!("expected Deltas, got {other:?}"),
        }
    }

    #[test]
    fn record_and_catch_up_roundtrip() {
        let mut j = ChangeJournal::with_capacity(8);
        assert!(matches!(j.catch_up(0), Replay::UpToDate));
        let e1 = j.record(ins(1, 10));
        let e2 = j.record(Delta::Deleted { handle: Handle::from_raw(1) });
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(j.epoch(), 2);
        assert!(matches!(j.catch_up(2), Replay::UpToDate));
        assert_eq!(
            collect(j.catch_up(0)),
            vec![ins(1, 10), Delta::Deleted { handle: Handle::from_raw(1) }]
        );
        assert_eq!(collect(j.catch_up(1)), vec![Delta::Deleted { handle: Handle::from_raw(1) }]);
    }

    #[test]
    fn wrap_falls_back_to_too_old() {
        let mut j = ChangeJournal::with_capacity(4);
        for i in 0..10u64 {
            j.record(ins(i, 1));
        }
        // Entries 7..=10 retained; observers at ≤ 5 lost entry 6.
        assert!(matches!(j.catch_up(5), Replay::TooOld));
        assert!(matches!(j.catch_up(0), Replay::TooOld));
        assert_eq!(collect(j.catch_up(6)).len(), 4);
        assert_eq!(collect(j.catch_up(9)).len(), 1);
        assert!(matches!(j.catch_up(10), Replay::UpToDate));
    }

    #[test]
    fn rebuilt_clears_the_ring_and_raises_the_floor() {
        let mut j = ChangeJournal::with_capacity(8);
        j.record(ins(1, 1));
        j.record(ins(2, 2));
        let e = j.record(Delta::Rebuilt);
        assert_eq!(e, 3);
        assert!(j.is_empty(), "no replay crosses a rebuild");
        assert!(matches!(j.catch_up(2), Replay::TooOld));
        assert!(matches!(j.catch_up(0), Replay::TooOld));
        assert!(matches!(j.catch_up(3), Replay::UpToDate));
        // Post-rebuild deltas replay normally.
        j.record(ins(3, 3));
        assert_eq!(collect(j.catch_up(3)), vec![ins(3, 3)]);
        assert!(matches!(j.catch_up(2), Replay::TooOld));
    }

    #[test]
    fn batch_shares_one_epoch() {
        let mut j = ChangeJournal::with_capacity(8);
        let e = j.record_batch([ins(1, 1), ins(2, 2), ins(3, 3)]);
        assert_eq!(e, 1, "one bump for the whole batch");
        assert_eq!(j.len(), 3);
        // All-or-nothing: an observer is either before or after the batch.
        assert_eq!(collect(j.catch_up(0)).len(), 3);
        assert!(matches!(j.catch_up(1), Replay::UpToDate));
        // Empty batches record nothing.
        assert_eq!(j.record_batch([]), 1);
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn batch_larger_than_capacity_wraps_itself() {
        let mut j = ChangeJournal::with_capacity(2);
        j.record(ins(0, 1));
        let e = j.record_batch((1..=5u64).map(|i| ins(i, i)));
        assert_eq!(e, 2);
        // The batch evicted its own head: observers at epoch 1 lost part of
        // epoch 2's batch and must fall back.
        assert!(matches!(j.catch_up(1), Replay::TooOld));
        assert!(matches!(j.catch_up(2), Replay::UpToDate));
    }

    #[test]
    fn future_epochs_are_too_old() {
        let mut j = ChangeJournal::with_capacity(4);
        j.record(ins(1, 1));
        assert!(matches!(j.catch_up(99), Replay::TooOld));
    }

    #[test]
    fn replay_is_exact_size() {
        let mut j = ChangeJournal::with_capacity(16);
        for i in 0..6u64 {
            j.record(ins(i, i));
        }
        match j.catch_up(2) {
            Replay::Deltas(iter) => {
                assert_eq!(iter.len(), 4);
                assert!(!iter.is_empty());
                assert_eq!(iter.count(), 4);
            }
            other => panic!("expected Deltas, got {other:?}"),
        }
    }

    #[test]
    fn reuse_after_rebuilt_keeps_physical_capacity() {
        let mut j = ChangeJournal::with_capacity(4);
        for i in 0..4u64 {
            j.record(ins(i, i));
        }
        j.record_rebuilt();
        for i in 0..3u64 {
            j.record(ins(10 + i, i));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(collect(j.catch_up(5)).len(), 3);
        assert!(matches!(j.catch_up(4), Replay::TooOld), "pre-rebuild observer");
    }

    #[test]
    fn resumed_journal_floors_at_the_watermark() {
        let mut j = ChangeJournal::resumed_at(42);
        assert_eq!(j.epoch(), 42);
        assert!(j.is_empty());
        assert!(matches!(j.catch_up(42), Replay::UpToDate));
        assert!(matches!(j.catch_up(41), Replay::TooOld), "pre-watermark observers fall back");
        assert!(matches!(j.catch_up(0), Replay::TooOld));
        // Recording resumes normally above the watermark.
        j.record(ins(1, 5));
        assert_eq!(j.epoch(), 43);
        assert_eq!(collect(j.catch_up(42)), vec![ins(1, 5)]);
        assert!(matches!(j.catch_up(41), Replay::TooOld));
    }

    #[test]
    fn space_words_positive() {
        let mut j = ChangeJournal::with_capacity(4);
        j.record(ins(1, 1));
        assert!(j.space_words() > 0);
    }

    #[test]
    fn ringless_journal_is_too_old_at_any_lag() {
        let mut j = ChangeJournal::ringless_at(0);
        assert!(matches!(j.catch_up(0), Replay::UpToDate));
        for i in 0..5u64 {
            assert_eq!(j.record(ins(i, i + 1)), i + 1, "every record is a version");
        }
        assert!(matches!(j.catch_up(5), Replay::UpToDate), "lag 0 is up to date");
        for since in 0..5 {
            assert!(matches!(j.catch_up(since), Replay::TooOld), "lag {} holds no tail", 5 - since);
        }
        assert!(matches!(j.catch_up(6), Replay::TooOld), "future epochs too");
        assert!(!j.rebuilt_since(0), "no rebuild yet");
        assert_eq!((j.len(), j.capacity()), (0, 0));
    }

    #[test]
    fn ringless_journal_holds_no_heap() {
        let mut j = ChangeJournal::ringless_at(7);
        for i in 0..3000u64 {
            j.record(Delta::Reweighted { handle: Handle::from_raw(i % 4), old: i, new: i + 1 });
        }
        assert_eq!(j.heap_words(), 0);
        assert_eq!(j.space_words(), std::mem::size_of::<ChangeJournal>().div_ceil(8));
        assert!(ChangeJournal::with_capacity(4).heap_words() > 0, "the boxed ring is charged");
    }

    #[test]
    fn ringless_batch_bumps_the_epoch_once() {
        let mut j = ChangeJournal::ringless_at(0);
        assert_eq!(j.record_batch([ins(1, 1), ins(2, 2), ins(3, 3)]), 1);
        assert_eq!(j.record_batch([]), 1, "an empty batch is no version");
        assert!(j.is_empty());
        assert!(matches!(j.catch_up(1), Replay::UpToDate));
        assert!(matches!(j.catch_up(0), Replay::TooOld));
    }

    #[test]
    fn ringless_rebuild_raises_the_floor() {
        let mut j = ChangeJournal::ringless_at(10);
        assert!(j.rebuilt_since(9), "observers before the resumption fall back");
        assert!(!j.rebuilt_since(10));
        j.record(ins(1, 1));
        assert!(!j.rebuilt_since(10), "a plain record is no rebuild");
        assert_eq!(j.record(Delta::Rebuilt), 12);
        assert!(j.rebuilt_since(11));
        assert!(!j.rebuilt_since(12));
        j.record(ins(2, 2));
        assert!(!j.rebuilt_since(12), "post-rebuild observers keep their state");
        assert!(j.rebuilt_since(14), "an epoch never issued");
    }

    #[test]
    fn attached_ring_replays_from_the_attach_epoch() {
        let mut j = ChangeJournal::ringless_at(0);
        j.record(ins(1, 1));
        j.attach_ring(8);
        assert_eq!(j.capacity(), 8);
        j.record(ins(2, 2));
        assert_eq!(collect(j.catch_up(1)), vec![ins(2, 2)]);
        assert!(matches!(j.catch_up(0), Replay::TooOld), "deltas before the attach are gone");
    }
}
