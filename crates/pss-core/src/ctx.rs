//! [`QueryCtx`] — caller-owned read-path state for shared-read PSS queries.
//!
//! The HALT structure answers each PSS query without mutating anything but
//! the RNG and its per-`(α, β)` plan cache. Baking that mutability into the
//! sampler (`query(&mut self, …)`) is what blocked running independent
//! queries in parallel over one structure. This module moves every piece of
//! query-time mutable state into an explicit context owned by the *caller*:
//!
//! - the **RNG stream** ([`CtxRng`], xoshiro256++ behind a drawn-word counter
//!   so the §3 randomness-cost accounting keeps working);
//! - a keyed, type-erased **state area** where a backend parks whatever
//!   read-path scratch it wants to reuse across queries (HALT stores its
//!   `(α, β) → (W, thresholds, accelerators)` plan cache and its memoized
//!   lookup-table rows; the ODSS-style baselines store their materialized
//!   probability buckets). Entries are keyed by the backend's
//!   [`instance id`](fresh_backend_id) so one context can serve many
//!   backends without cross-talk.
//!
//! With that split, `PssBackend::query` takes `&self` + `&mut QueryCtx`:
//! many threads can each hold their own context and query one shared `&B`
//! concurrently — the door [`crate::ShardedQuery`] walks through.
//!
//! ## Batch stream discipline
//!
//! `query_many` does **not** thread one RNG stream through the batch.
//! Instead the context derives an independent stream per query *index*
//! (seeded from `(ctx seed, batch counter, index)` — see
//! [`QueryCtx::select_stream`]). Because the derivation depends only on
//! values every worker can compute, a batch partitioned across any number of
//! threads reproduces the sequential result bit for bit. Backend overrides
//! of `query_many` must preserve this discipline (hoisting *deterministic,
//! RNG-free* setup out of the loop is fine; reordering or skipping
//! `select_stream` is not).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use wordram::narrow;

/// Per-context cap on distinct backend state entries. One context driving
/// more than this many backends round-robin (e.g. a graph with thousands of
/// per-node samplers) evicts oldest-first and re-derives on the next query —
/// an efficiency matter only, never a correctness one: evicted state is
/// memoized/derived data, and the sampled distribution does not depend on it.
const STATE_CAP: usize = 128;

/// Process-wide backend instance counter (see [`fresh_backend_id`]).
static NEXT_BACKEND_ID: AtomicU64 = AtomicU64::new(1);

/// Issues a process-unique id for one backend instance. Backends call this at
/// construction time and use the id as their [`QueryCtx::state`] key, so two
/// structures never read each other's cached plans out of a shared context.
pub fn fresh_backend_id() -> u64 {
    NEXT_BACKEND_ID.fetch_add(1, Ordering::Relaxed)
}

/// SplitMix64 finalizer — the avalanche used to derive per-query stream
/// seeds (and the same mixer the `rand` shim uses to expand `u64` seeds).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the derived RNG stream for query `index` of batch `batch`
/// under context seed `seed`. Pure function of its arguments — this is what
/// makes sharded batches bit-identical to sequential ones.
pub fn stream_seed(seed: u64, batch: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(batch ^ 0xA076_1D64_78BD_642F) ^ splitmix(index))
}

/// The context's random stream: xoshiro256++ (via the `rand` shim's
/// [`SmallRng`]) behind a counter of 64-bit words drawn, so the paper's
/// "O(1) random words per variate" claims stay machine-checkable after the
/// RNG moved out of the samplers.
#[derive(Clone, Debug)]
pub struct CtxRng {
    inner: SmallRng,
    words: u64,
}

impl CtxRng {
    fn seeded(seed: u64) -> Self {
        CtxRng { inner: SmallRng::seed_from_u64(seed), words: 0 }
    }

    /// Number of 64-bit words drawn since construction or the last
    /// [`CtxRng::reset_word_count`]. Survives [`QueryCtx::select_stream`]
    /// reseeding (the counter is cumulative over the context's lifetime).
    pub fn words_consumed(&self) -> u64 {
        self.words
    }

    /// Resets the drawn-word counter.
    pub fn reset_word_count(&mut self) {
        self.words = 0;
    }
}

impl RngCore for CtxRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        narrow::lo32(self.next_u64())
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

/// One keyed state entry (backend instance id → type-erased scratch).
type StateEntry = (u64, Box<dyn Any + Send + Sync>);

/// Caller-owned query context: the RNG stream plus the per-backend read-path
/// scratch (plan caches, memoized tables, materializations).
///
/// Construction is deterministic from a `u64` seed; two contexts with the
/// same seed driven through the same call sequence produce bit-identical
/// query results on the same backend state.
pub struct QueryCtx {
    seed: u64,
    rng: CtxRng,
    next_batch: u64,
    state: Vec<StateEntry>,
}

impl Default for QueryCtx {
    fn default() -> Self {
        QueryCtx::new(0)
    }
}

impl std::fmt::Debug for QueryCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCtx")
            .field("seed", &self.seed)
            .field("next_batch", &self.next_batch)
            .field("state_entries", &self.state.len())
            .field("words_consumed", &self.rng.words)
            .finish()
    }
}

impl QueryCtx {
    /// Creates a context whose main stream is seeded from `seed` (the
    /// SplitMix64 expansion the samplers used before the RNG moved here, so
    /// older pinned streams carry over bit for bit).
    pub fn new(seed: u64) -> Self {
        QueryCtx { seed, rng: CtxRng::seeded(seed), next_batch: 0, state: Vec::new() }
    }

    /// The construction seed (base of every derived batch stream).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The context's random stream.
    pub fn rng(&mut self) -> &mut CtxRng {
        &mut self.rng
    }

    /// 64-bit words drawn through this context so far (diagnostics).
    pub fn words_consumed(&self) -> u64 {
        self.rng.words_consumed()
    }

    /// Resets the drawn-word counter (diagnostics).
    pub fn reset_word_count(&mut self) {
        self.rng.reset_word_count()
    }

    /// Claims the next batch number. `query_many` implementations call this
    /// once per batch; [`crate::ShardedQuery`] keeps its own counter in
    /// lockstep so parallel and sequential batches derive identical streams.
    pub fn begin_batch(&mut self) -> u64 {
        let b = self.next_batch;
        self.next_batch += 1;
        b
    }

    /// Reseeds the stream to the derived `(seed, batch, index)` stream —
    /// the per-query step of the batch discipline (see module docs). The
    /// drawn-word counter is preserved.
    pub fn select_stream(&mut self, batch: u64, index: u64) {
        self.rng.inner = SmallRng::seed_from_u64(stream_seed(self.seed, batch, index));
    }

    /// The state entry for backend `key`, created by `init` on first use,
    /// returned together with the RNG so a backend can hold both mutably at
    /// once. The entry's *type* is part of the identity: a key re-used with
    /// a different `T` gets a fresh entry rather than a panic.
    ///
    /// At most [`STATE_CAP`] entries are kept (oldest evicted first).
    pub fn state<T: Any + Send + Sync>(
        &mut self,
        key: u64,
        init: impl FnOnce() -> T,
    ) -> (&mut CtxRng, &mut T) {
        let pos = self.state.iter().position(|(k, s)| *k == key && s.is::<T>());
        let pos = match pos {
            Some(p) => p,
            None => {
                if self.state.len() >= STATE_CAP {
                    self.state.remove(0);
                }
                self.state.push((key, Box::new(init())));
                self.state.len() - 1
            }
        };
        // pss-lint: allow(no-panic-paths) — pos was found by matching TypeId two lines up, so the downcast cannot fail
        // pss-lint: allow(no-bare-index) — pos was returned by position() over state
        let entry = self.state[pos].1.downcast_mut::<T>().expect("state type checked above");
        (&mut self.rng, entry)
    }

    /// Read-only view of backend `key`'s state entry, if one exists with the
    /// requested type (observability hooks: plan-cache statistics, lookup
    /// rows built).
    pub fn state_ref<T: Any + Send + Sync>(&self, key: u64) -> Option<&T> {
        self.state.iter().find(|(k, s)| *k == key && s.is::<T>()).and_then(|(_, s)| {
            let any: &(dyn Any + Send + Sync) = s.as_ref();
            any.downcast_ref::<T>()
        })
    }

    /// Drops backend `key`'s state entries (all types). Backends are not
    /// required to call this — stale entries age out FIFO — but explicit
    /// teardown keeps long-lived contexts tidy.
    pub fn evict(&mut self, key: u64) {
        self.state.retain(|(k, _)| *k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = QueryCtx::new(42);
        let mut b = QueryCtx::new(42);
        for _ in 0..20 {
            assert_eq!(a.rng().next_u64(), b.rng().next_u64());
        }
        assert_eq!(a.words_consumed(), 20);
    }

    #[test]
    fn derived_streams_are_index_deterministic_and_distinct() {
        // The stream for (batch, index) does not depend on what was drawn
        // before select_stream — only on (seed, batch, index).
        let mut a = QueryCtx::new(7);
        let _ = a.rng().next_u64(); // perturb the main stream
        a.select_stream(3, 5);
        let wa = a.rng().next_u64();

        let mut b = QueryCtx::new(7);
        b.select_stream(3, 5);
        assert_eq!(wa, b.rng().next_u64());

        b.select_stream(3, 6);
        assert_ne!(wa, b.rng().next_u64(), "neighboring indices must differ");
        b.select_stream(4, 5);
        assert_ne!(wa, b.rng().next_u64(), "neighboring batches must differ");
    }

    #[test]
    fn batch_counter_advances() {
        let mut ctx = QueryCtx::new(1);
        assert_eq!(ctx.begin_batch(), 0);
        assert_eq!(ctx.begin_batch(), 1);
    }

    #[test]
    fn word_counter_survives_reseeding() {
        let mut ctx = QueryCtx::new(9);
        let _ = ctx.rng().next_u64();
        ctx.select_stream(0, 0);
        let _ = ctx.rng().next_u64();
        assert_eq!(ctx.words_consumed(), 2);
        ctx.reset_word_count();
        assert_eq!(ctx.words_consumed(), 0);
    }

    #[test]
    fn state_is_keyed_and_typed() {
        let mut ctx = QueryCtx::new(3);
        {
            let (_, v) = ctx.state::<Vec<u32>>(10, Vec::new);
            v.push(7);
        }
        {
            let (_, v) = ctx.state::<Vec<u32>>(10, Vec::new);
            assert_eq!(v, &vec![7], "state persists per key");
        }
        {
            let (_, v) = ctx.state::<Vec<u32>>(11, Vec::new);
            assert!(v.is_empty(), "different key, different entry");
        }
        {
            let (_, s) = ctx.state::<String>(10, String::new);
            assert!(s.is_empty(), "different type under the same key is separate");
        }
        assert_eq!(ctx.state_ref::<Vec<u32>>(10), Some(&vec![7]));
        assert_eq!(ctx.state_ref::<Vec<u32>>(99), None);
        ctx.evict(10);
        assert_eq!(ctx.state_ref::<Vec<u32>>(10), None);
    }

    #[test]
    fn state_cap_evicts_oldest() {
        let mut ctx = QueryCtx::new(4);
        for key in 0..(STATE_CAP as u64 + 4) {
            let _ = ctx.state::<u64>(key, || key);
        }
        assert_eq!(ctx.state_ref::<u64>(0), None, "oldest entry evicted");
        assert!(ctx.state_ref::<u64>(STATE_CAP as u64 + 3).is_some());
    }

    #[test]
    fn backend_ids_are_unique() {
        let a = fresh_backend_id();
        let b = fresh_backend_id();
        assert_ne!(a, b);
    }
}
