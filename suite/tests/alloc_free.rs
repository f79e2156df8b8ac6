//! Proof that the HALT update cascade is allocation-free in steady state,
//! and that a warm query allocates nothing but the `Vec` it returns.
//!
//! The arena/pool memory layout exists so that `insert`/`delete`/`set_weight`
//! never touch the global allocator once the structure has warmed up to its
//! high-water size. This test installs a counting `GlobalAlloc` and asserts
//! the allocation counter does not move across a 100k-op churn loop (plus a
//! 50k-op `set_weight` storm) on both HALT backends. On the query side, a
//! release-build `query_in` that hits its plan makes exactly one allocation
//! when it samples something — the returned `Vec` — and none when it
//! samples nothing, at every μ and however many strides the walk takes.
//!
//! The counting allocator is the workspace's one sanctioned use of `unsafe`
//! (see the workspace lint table): `GlobalAlloc` is an unsafe trait, and
//! delegating to `System` verbatim adds no behavior beyond the counter.
#![allow(unsafe_code)]

use bignum::Ratio;
use dpss::{DeamortizedDpss, DpssSampler, ItemId};
use pss_core::QueryCtx;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap requests made by this thread (alloc/realloc/alloc_zeroed; frees
    /// don't count — a free on the measured path would imply a matching
    /// allocation elsewhere). Per thread, so the tests in this binary can
    /// run concurrently without seeing each other's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also serves threads whose locals are
    // already torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const N: usize = 4096;
const WARMUP: usize = 60_000;
const CHURN: usize = 100_000;
const SET_WEIGHT: usize = 50_000;

/// Weights uniform over 16 weight buckets `[2^k, 2^{k+1})`, `k < 16`: each
/// bucket's occupancy concentrates around `N/16 = 256` — itself a power of
/// two, so proxies *constantly* cross a structural boundary (the slow
/// cascade path stays exercised) while the next boundaries (128, 512) sit
/// ≈ 8σ from the mean, far past anything a finite random walk reaches. That
/// makes "warmup visits every reachable configuration" a sound premise; an
/// unbounded weight range would instead have a vanishing-but-nonzero rate
/// of first-ever block carves forever (fresh tail configurations), which is
/// a property of the workload's tail, not of the update path.
fn weight(rng: &mut SmallRng) -> u64 {
    let k = rng.gen_range(0..16u32);
    (1u64 << k) + rng.gen_range(0..1u64 << k)
}

#[test]
fn steady_state_updates_do_not_allocate() {
    // ---- Amortized HALT sampler -------------------------------------------
    let mut rng = SmallRng::seed_from_u64(0xA110C);
    let mut s = DpssSampler::new(7);
    let mut ids: Vec<ItemId> = Vec::with_capacity(2 * N);
    // Overshoot to 2N then shrink back, so every bucket's high-water block
    // class comfortably exceeds anything the measured loop can reach.
    for _ in 0..2 * N {
        ids.push(s.insert(weight(&mut rng)));
    }
    while ids.len() > N {
        let j = rng.gen_range(0..ids.len());
        let id = ids.swap_remove(j);
        s.delete(id).unwrap();
    }
    // Warm the churn path itself (slab/roster free-list high-water, arena
    // block recycling, epoch settling).
    for _ in 0..WARMUP {
        let j = rng.gen_range(0..ids.len());
        let id = ids[j];
        s.delete(id).unwrap();
        ids[j] = s.insert(weight(&mut rng));
        let k = rng.gen_range(0..ids.len());
        s.set_weight(ids[k], weight(&mut rng)).unwrap();
    }

    let before = allocs();
    for _ in 0..CHURN {
        let j = rng.gen_range(0..ids.len());
        let id = ids[j];
        s.delete(id).unwrap();
        ids[j] = s.insert(weight(&mut rng));
    }
    for _ in 0..SET_WEIGHT {
        let k = rng.gen_range(0..ids.len());
        s.set_weight(ids[k], weight(&mut rng)).unwrap();
    }
    let halt_allocs = allocs() - before;
    assert_eq!(
        halt_allocs, 0,
        "halt: {halt_allocs} heap allocations across {CHURN} churn + {SET_WEIGHT} set_weight ops"
    );
    s.validate();

    // ---- De-amortized HALT ------------------------------------------------
    let mut rng = SmallRng::seed_from_u64(0xA110D);
    let mut d = DeamortizedDpss::new(9);
    let mut hs: Vec<u64> = Vec::with_capacity(2 * N);
    for _ in 0..2 * N {
        hs.push(d.insert(weight(&mut rng)));
    }
    while hs.len() > N {
        let j = rng.gen_range(0..hs.len());
        let h = hs.swap_remove(j);
        d.delete(h).unwrap();
    }
    // Constant-size churn cannot open a migration epoch, but the shrink
    // above may have left one in flight — drain it during warmup.
    for _ in 0..WARMUP {
        let j = rng.gen_range(0..hs.len());
        let h = hs[j];
        d.delete(h).unwrap();
        hs[j] = d.insert(weight(&mut rng));
    }
    assert!(!d.migrating(), "warmup must drain any open migration epoch");

    let before = allocs();
    for _ in 0..CHURN {
        let j = rng.gen_range(0..hs.len());
        let h = hs[j];
        d.delete(h).unwrap();
        hs[j] = d.insert(weight(&mut rng));
    }
    let deam_allocs = allocs() - before;
    assert_eq!(
        deam_allocs, 0,
        "halt-deam: {deam_allocs} heap allocations across {CHURN} churn ops"
    );
    d.validate();
}

/// Warm queries at `(α, β)`: after warm-up queries have built the plan and
/// the lookup-table rows, runs `QUERIES` queries and returns the mean
/// sample size and the number of queries whose allocation count was not
/// exactly one for a non-empty result and zero for an empty one.
fn query_allocs(s: &DpssSampler, ctx: &mut QueryCtx, alpha: &Ratio, beta: &Ratio) -> (f64, u64) {
    const QUERIES: u64 = 400;
    for _ in 0..64 {
        s.query_in(ctx, alpha, beta);
    }
    let (mut items, mut off) = (0, 0);
    for _ in 0..QUERIES {
        let before = allocs();
        let got = s.query_in(ctx, alpha, beta).len();
        off += u64::from(allocs() - before != u64::from(got > 0));
        items += got;
    }
    (items as f64 / QUERIES as f64, off)
}

#[test]
fn open_bucket_walk_does_not_allocate_per_stride() {
    // Two sets of 2^14 weights. In [2^10, 2^14): four level-1 buckets, none
    // of which clamps at these μ, so a larger μ is more strides through the
    // same buckets. Over 30 octaves: level 1 has a significant group of
    // tiny buckets, so the level-2 and level-3 insignificant instances and
    // their thinning coins run.
    let mut rng = SmallRng::seed_from_u64(0x0A11_0C0E);
    let narrow: Vec<u64> = (0..1 << 14).map(|_| rng.gen_range(1 << 10..1 << 14)).collect();
    let wide: Vec<u64> = (0..1 << 14)
        .map(|_| {
            let k = rng.gen_range(0..30u32);
            (1u64 << k) + rng.gen_range(0..1u64 << k)
        })
        .collect();
    for (name, weights) in [("narrow", narrow), ("wide", wide)] {
        let (s, _) = DpssSampler::from_weights(&weights, 5);
        let mut ctx = QueryCtx::new(11);
        // μ ∈ {256, 16, 4, 1} (α = 1/μ, β = 0), then μ ≈ 0 (W = 2^20·Σw).
        // Largest μ first: its warm-up grows the context's buffers to a
        // capacity the later passes never exceed.
        let total = s.total_weight();
        let params = [256, 16, 4, 1]
            .map(|mu| (Ratio::from_u64s(1, mu), Ratio::zero()))
            .into_iter()
            .chain([(Ratio::one(), Ratio::from_u128s(total << 20, 1))]);
        for ((alpha, beta), mu) in params.zip([256.0, 16.0, 4.0, 1.0, 0.0]) {
            let (items, off) = query_allocs(&s, &mut ctx, &alpha, &beta);
            assert!((mu * 0.75..=mu * 1.25 + 0.1).contains(&items), "{name}: μ ≈ {mu}, {items}");
            // Debug builds check every coin's bracket against the exact
            // BigUint threshold, which allocates; only release builds
            // answer a warm query from the context's buffers alone.
            #[cfg(not(debug_assertions))]
            assert_eq!(off, 0, "{name}, μ ≈ {mu}: {off} queries allocated more than their result");
            #[cfg(debug_assertions)]
            let _ = off;
        }
    }
}
