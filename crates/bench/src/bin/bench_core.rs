//! `bench_core` — machine-readable core-operation benchmark.
//!
//! Writes `BENCH_core.json` (see `--out`) and validates it against schema
//! [`SCHEMA_VERSION`] right after writing, so a shape drift fails the run.
//! It measures what neither perfbench nor `exp` does:
//!
//! - the backend roster: insert / churn-pair / delete / set_weight /
//!   μ≈16 query / 16-pair `query_many` / mixed-round rates for every
//!   backend through the `dyn PssBackend` facade;
//! - `fifo_window` and `decayed`: update throughput of the exact-FIFO
//!   sliding-window replay and of the decayed-weight replay (periodic
//!   `ScaleAllWeights`), each with its initial-load time as `setup_ms`;
//! - `bulk_load`: the radix-partitioned bulk build at n = 2^14 and 2^20
//!   against the per-item insert loop, plus one shrink-compaction rebuild;
//! - `snapshot`: image size and save/load/recover times at n = 2^20, gated
//!   on the recovered sampler re-encoding byte-identical to the live one;
//! - `scaling`: HALT at n ∈ {2^14, 2^17, 2^20, 2^23} (2^20 only under
//!   `--quick`) with per-point space telemetry and flatness ratios.
//!
//! Human-readable numbers go to stdout as they are produced.
//!
//! Usage: `cargo run --release -p bench --bin bench_core [-- --out PATH
//! --n ITEMS --quick]`.

use baselines::all_backends;
use bench::schema::{validate_bench_core, SCHEMA_VERSION};
use bench::{fmt_secs, time, time_per};
use bignum::Ratio;
use dpss::DpssSampler;
use pss_core::{recover, ChangeJournal, Delta, Handle, PssBackend, QueryCtx, Snapshottable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workloads::drive::replay_stream_timed;
use workloads::updates::{StreamKind, UpdateStream};
use workloads::weights::WeightDist;

/// One backend's measurements, in operations per second.
struct Row {
    name: &'static str,
    insert_ops: f64,
    churn_ops: f64,
    delete_ops: f64,
    set_weight_ops: f64,
    query_mu16_ops: f64,
    query_batch16_ops: f64,
    mixed_round_ops: f64,
    space_words: usize,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The fastest of three timed passes: preemption on a shared host only
/// ever slows a pass down, so the minimum is the stable reading.
fn best_of_three(mut pass: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

fn measure(seed: u64, n: usize, quick: bool) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let weights = WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 }.generate(n, &mut rng);
    // α chosen for μ ≈ 16 under (α, 0): p_x = w_x/(α·Σw) with α = n/(16·n).
    let alpha = Ratio::from_u64s(1, 16);
    let beta = Ratio::zero();
    let mut rows = Vec::new();

    for backend in all_backends(seed ^ 0xB0C4).iter_mut() {
        let name = backend.name();
        let linear_per_query = name.starts_with("naive") || name.starts_with("odss");
        // One caller-owned context per backend: all query randomness and
        // cached read-path state (plan caches, materializations) live here.
        let mut ctx = QueryCtx::new(seed ^ 0xC0FE);

        // Insert: time loading the full item set, keeping the handles.
        let mut handles: Vec<Handle> = Vec::with_capacity(n);
        let mut i = 0usize;
        let per_insert = time_per(n, || {
            handles.push(backend.insert(weights[i % n]));
            i += 1;
        });

        // Churn: time delete+reinsert *pairs* (the size stays at n); the
        // reported number is per pair, not per delete.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let del_reps = if quick { (n / 8).max(1) } else { n };
        let per_churn = time_per(del_reps, || {
            let j = rng.gen_range(0..handles.len());
            assert!(backend.delete(handles[j]), "{name}: live handle rejected");
            handles[j] = backend.insert(rng.gen_range(1..=1u64 << 30));
        });

        // Delete: time draining random handles (half the set, so the number
        // reflects steady-state delete cost, not the empty-structure tail),
        // then restore the size untimed.
        let del_n = if quick { (n / 8).max(1) } else { (n / 2).max(1) };
        let per_delete = time_per(del_n, || {
            let j = rng.gen_range(0..handles.len());
            let h = handles.swap_remove(j);
            assert!(backend.delete(h), "{name}: live handle rejected in delete phase");
        });
        while handles.len() < n {
            handles.push(backend.insert(rng.gen_range(1..=1u64 << 30)));
        }

        // set_weight: in-place reweighting where the backend supports it
        // (HALT and every Store-backed baseline), delete+reinsert otherwise —
        // always adopting the returned handle, exactly like a caller must.
        let sw_reps = if quick { (n / 8).max(1) } else { n };
        let per_set_weight = time_per(sw_reps, || {
            let j = rng.gen_range(0..handles.len());
            let w = rng.gen_range(1..=1u64 << 30);
            handles[j] = backend.set_weight(handles[j], w).expect("live handle");
        });

        // Query at fixed parameters (μ ≈ 16), best of three passes like
        // the batched column below. The DSS-style backends materialize
        // once, then answer output-sensitively — that warm cost is real but
        // belongs to the mixed-round number below.
        let _ = backend.query(&mut ctx, &alpha, &beta);
        let q_reps = if quick {
            20
        } else if linear_per_query {
            60
        } else {
            2_000
        };
        let per_query =
            best_of_three(|| time_per(q_reps, || backend.query(&mut ctx, &alpha, &beta).len()));

        // Batched queries through the `query_many` facade entry point: 16
        // parameter pairs per call, reported per query. HALT's plan cache
        // (living in the context) amortizes W/threshold/accelerator setup
        // across the batch.
        let batch: Vec<(Ratio, Ratio)> =
            (0..16u64).map(|i| (Ratio::from_u64s(1, 8 + i), Ratio::zero())).collect();
        let b_reps = if quick {
            2
        } else if linear_per_query {
            8
        } else {
            200
        };
        let _ = backend.query_many(&mut ctx, &batch); // warm
        let per_batch_query = best_of_three(|| {
            time_per(b_reps, || {
                backend.query_many(&mut ctx, &batch).iter().map(Vec::len).sum::<usize>()
            })
        }) / batch.len() as f64;

        // Mixed round: one update + one fresh-parameter query — the regime
        // where DSS-under-DPSS pays its Θ(n) re-materialization.
        let m_reps = if quick {
            10
        } else if linear_per_query {
            30
        } else {
            500
        };
        let mut k = 2u64;
        let per_round = time_per(m_reps, || {
            let j = rng.gen_range(0..handles.len());
            backend.delete(handles[j]);
            handles[j] = backend.insert(rng.gen_range(1..=1u64 << 30));
            k = if k >= 64 { 2 } else { k + 1 };
            backend.query(&mut ctx, &Ratio::from_u64s(1, k), &beta).len()
        });

        println!(
            "{name:>12}: insert {}/op  churn-pair {}/op  delete {}/op  set_weight {}/op  \
             query(μ16) {}/op  batch16 {}/query  mixed {}/op",
            fmt_secs(per_insert),
            fmt_secs(per_churn),
            fmt_secs(per_delete),
            fmt_secs(per_set_weight),
            fmt_secs(per_query),
            fmt_secs(per_batch_query),
            fmt_secs(per_round),
        );

        rows.push(Row {
            name,
            insert_ops: 1.0 / per_insert,
            churn_ops: 1.0 / per_churn,
            delete_ops: 1.0 / per_delete,
            set_weight_ops: 1.0 / per_set_weight,
            query_mu16_ops: 1.0 / per_query,
            query_batch16_ops: 1.0 / per_batch_query,
            mixed_round_ops: 1.0 / per_round,
            space_words: backend.space_words(),
        });
    }
    rows
}

/// Replays the exact-FIFO sliding-window stream (insert at head, delete at
/// tail) into a fresh HALT sampler — the first scenario whose steady state
/// is dominated by delete throughput — and reports update ops per second
/// plus the (empty-initial, so near-zero) setup time in ms.
fn fifo_window_probe(seed: u64, n: usize, quick: bool) -> (usize, f64, f64) {
    let window = (n / 4).max(16);
    let ops = if quick { n } else { 4 * n };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF1F0);
    let dist = WeightDist::Uniform { lo: 1, hi: 1 << 30 };
    let stream = UpdateStream::generate(StreamKind::Fifo { window }, 0, ops, dist, &mut rng);
    let mut backend = DpssSampler::new(seed ^ 0xF1F1);
    let mut ctx = QueryCtx::new(seed ^ 0xF1F2);
    let (report, timing) = replay_stream_timed(&mut backend, &mut ctx, &stream, None);
    let ops_per_sec = (report.inserts + report.deletes) as f64 / timing.ops.as_secs_f64();
    (window, ops_per_sec, timing.setup.as_secs_f64() * 1e3)
}

/// Replays the decayed-weight stream (mixed churn + periodic
/// `ScaleAllWeights` halving every live weight) into a fresh HALT sampler
/// and reports update ops per second (inserts + deletes + individual
/// reweights) — the end-to-end scenario where `set_weight` cost dominates —
/// plus the bulk initial-load time in ms.
fn decayed_probe(seed: u64, n: usize, quick: bool) -> (usize, f64, f64) {
    let scale_every = (n / 16).max(16);
    let ops = if quick { n } else { 4 * n };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDECA);
    let dist = WeightDist::Uniform { lo: 1 << 10, hi: 1 << 30 };
    let kind = StreamKind::Decayed { insert_permille: 520, scale_every, num: 1, den: 2 };
    let stream = UpdateStream::generate(kind, n / 4, ops, dist, &mut rng);
    let mut backend = DpssSampler::new(seed ^ 0xDECB);
    let mut ctx = QueryCtx::new(seed ^ 0xDECC);
    let (report, timing) = replay_stream_timed(&mut backend, &mut ctx, &stream, None);
    // Count only op-phase work: the initial load's inserts belong to setup.
    let sem_ops = report.inserts - stream.initial.len() as u64 + report.deletes + report.reweights;
    (scale_every, sem_ops as f64 / timing.ops.as_secs_f64(), timing.setup.as_secs_f64() * 1e3)
}

/// Outcome of [`bulk_load_probe`].
struct BulkLoad {
    n_small: usize,
    small_items_per_sec: f64,
    n_large: usize,
    large_items_per_sec: f64,
    per_op_items_per_sec: f64,
    speedup: f64,
    rebuild_ms: f64,
}

/// Measures the radix-partitioned bulk build at two fixed sizes (2^14 and
/// 2^20, independent of `--n` so the trajectory stays diffable): items/s
/// through `from_weights`, the per-op insert rate at 2^20 (the reference the
/// bulk build's ≥3× bar compares against — the facade insert loop, exactly
/// the methodology behind the roster's insert column and exactly what a
/// caller without `insert_many` pays: handle bookkeeping, journal
/// traffic, and the whole doubling chain of rebuilds), and `rebuild_ms`, the
/// wall time of the single delete that crosses the shrink threshold at
/// n = 2^19 and fires a full shrink-compaction rebuild (itself a radix
/// partition now).
///
/// Both paths are measured **warm**: one untimed build per path pre-faults
/// the allocator arenas first, so the numbers compare the algorithms rather
/// than first-touch kernel page zeroing (which is identical for both, and
/// whose share of a single cold run varies with the allocator's mmap
/// threshold state — the dominant source of run-to-run noise at 32 MB
/// working sets).
fn bulk_load_probe(seed: u64) -> BulkLoad {
    let n_small = 1usize << 14;
    let n_large = 1usize << 20;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB01D);
    let dist = WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 };
    let small = dist.generate(n_small, &mut rng);
    let large = dist.generate(n_large, &mut rng);

    // A 32 MiB scratch allocation, touched and immediately freed: its free
    // caps glibc's dynamic mmap threshold, so the repeated ~16 MiB block
    // requests below are served from (and returned to) the main arena
    // instead of cycling through fresh mmaps. Without it, which path pays
    // the kernel's first-touch page zeroing depends on allocation order,
    // not on the algorithms being compared.
    let scratch = vec![1u8; 32 << 20];
    std::hint::black_box(&scratch);
    drop(scratch);

    // Untimed warmups: one build per path, dropped, so every timed run
    // below draws pre-faulted blocks from the allocator.
    let _ = std::hint::black_box(DpssSampler::from_weights(&large, seed ^ 0xB05D));
    let _ = std::hint::black_box({
        let mut b = baselines::boxed::<DpssSampler>(seed ^ 0xB06D);
        let mut hs: Vec<Handle> = Vec::with_capacity(n_large);
        for &w in &large {
            hs.push(b.insert(w));
        }
        hs.len()
    });

    // Every rate below is the best of three runs: on a box this size the
    // scheduler can take the (only) core mid-measurement, and preemption
    // only ever slows a run down, so the minimum is the consistent
    // estimator of the uncontended rate.
    const RUNS: usize = 3;

    // Per-op reference first (while the warm blocks are free to reuse).
    let mut p_secs = f64::INFINITY;
    let mut per_op_len = 0;
    for r in 0..RUNS {
        let (len, secs) = time(|| {
            let mut b = baselines::boxed::<DpssSampler>(seed ^ 0xB04D ^ r as u64);
            let mut hs: Vec<Handle> = Vec::with_capacity(n_large);
            for &w in &large {
                hs.push(b.insert(w));
            }
            hs.len()
        });
        p_secs = p_secs.min(secs);
        per_op_len = len;
    }

    let mut s_secs = f64::INFINITY;
    for r in 0..RUNS {
        let (built, secs) = time(|| DpssSampler::from_weights(&small, seed ^ 0xB02D ^ r as u64));
        std::hint::black_box(&built);
        s_secs = s_secs.min(secs);
    }
    let mut l_secs = f64::INFINITY;
    let mut kept = None;
    for r in 0..RUNS {
        let (built, secs) = time(|| DpssSampler::from_weights(&large, seed ^ 0xB03D ^ r as u64));
        l_secs = l_secs.min(secs);
        kept = Some(built);
    }
    let (mut sampler, mut ids) = kept.expect("RUNS > 0");
    assert_eq!(per_op_len, sampler.len());

    // Drain to one item above the shrink threshold (n0 = 2^20 halves at
    // n < 2^19), then time the one delete that triggers the compaction.
    let r0 = sampler.rebuild_count();
    while sampler.len() > n_large / 2 {
        let id = ids.pop().expect("enough handles to drain");
        sampler.delete(id).expect("live handle");
    }
    assert_eq!(sampler.rebuild_count(), r0, "drain must stop short of the shrink threshold");
    let id = ids.pop().expect("one more handle");
    let (_, rebuild_secs) = time(|| sampler.delete(id).expect("live handle"));
    assert_eq!(sampler.rebuild_count(), r0 + 1, "threshold delete must have compacted");

    let large_rate = n_large as f64 / l_secs;
    let per_op_rate = n_large as f64 / p_secs;
    BulkLoad {
        n_small,
        small_items_per_sec: n_small as f64 / s_secs,
        n_large,
        large_items_per_sec: large_rate,
        per_op_items_per_sec: per_op_rate,
        speedup: large_rate / per_op_rate,
        rebuild_ms: rebuild_secs * 1e3,
    }
}

/// Outcome of [`snapshot_probe`].
struct SnapshotStats {
    n: usize,
    bytes: usize,
    journal_tail: usize,
    save_ms: f64,
    load_ms: f64,
    recover_ms: f64,
    load_items_per_sec: f64,
}

/// Measures the durability path on a 2^20-item HALT sampler (fixed size,
/// independent of `--n`, so the trajectory stays diffable): `save_ms` times
/// `snapshot()` (slab-verbatim encode + per-section CRCs), `load_ms` times
/// `from_snapshot` (decode + the classify→carve→fill→derive bulk rebuild —
/// the same engine `from_weights` runs, which is why the acceptance bar
/// holds `load_items_per_sec` to within 2× of `bulk_load`'s rate), and
/// `recover_ms` times `pss_core::recover` replaying a 4096-reweight journal
/// tail from a durable log on top of the image. The durable log starts at
/// the image's watermark epoch and is sized to hold the whole tail — the
/// sampler's own ring keeps only the last 1024 deltas, which is exactly the
/// situation `ChangeJournal::resumed_with_capacity` exists for. Every
/// timing is the best of three runs (same preemption argument as
/// [`bulk_load_probe`], which also pre-warmed the allocator arenas), and no
/// number is recorded until the recovered sampler re-encodes byte-identical
/// to the live one.
fn snapshot_probe(seed: u64) -> SnapshotStats {
    let n = 1usize << 20;
    let tail = 4096usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A9);
    let weights = WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 }.generate(n, &mut rng);
    let (mut s, ids) = DpssSampler::from_weights(&weights, seed ^ 0x5AA);

    const RUNS: usize = 3;
    let mut save_secs = f64::INFINITY;
    let mut img = Vec::new();
    for _ in 0..RUNS {
        let (bytes, secs) = time(|| s.snapshot());
        save_secs = save_secs.min(secs);
        img = bytes;
    }

    let mut load_secs = f64::INFINITY;
    for _ in 0..RUNS {
        let (restored, secs) = time(|| DpssSampler::from_snapshot(&img).expect("pristine image"));
        std::hint::black_box(&restored);
        load_secs = load_secs.min(secs);
    }

    // Run the tail past the snapshot, mirroring every delta into the
    // durable log. Reweights keep n fixed, so no rebuild can raise the
    // journal floor mid-tail.
    let mut durable = ChangeJournal::resumed_with_capacity(s.journal().epoch(), 2 * tail);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5AB);
    for _ in 0..tail {
        let j = rng.gen_range(0..ids.len());
        let w = rng.gen_range(1..=1u64 << 30);
        let old = DpssSampler::set_weight(&mut s, ids[j], w).expect("live handle");
        durable.record(Delta::Reweighted { handle: Handle::from_raw(ids[j].raw()), old, new: w });
    }

    let mut recover_secs = f64::INFINITY;
    let mut recovered = None;
    for _ in 0..RUNS {
        let (r, secs) =
            time(|| recover::<DpssSampler>(&img, &durable).expect("snapshot + in-band tail"));
        recover_secs = recover_secs.min(secs);
        recovered = Some(r);
    }
    assert_eq!(
        recovered.expect("RUNS > 0").snapshot(),
        s.snapshot(),
        "recovered sampler diverged from the live one"
    );

    SnapshotStats {
        n,
        bytes: img.len(),
        journal_tail: tail,
        save_ms: save_secs * 1e3,
        load_ms: load_secs * 1e3,
        recover_ms: recover_secs * 1e3,
        load_items_per_sec: n as f64 / load_secs,
    }
}

/// One size point of the cache-regime scaling curve.
struct ScalingPoint {
    n: usize,
    insert_ops: f64,
    churn_pair_ops: f64,
    query_mu16_ops: f64,
    bulk_items_per_sec: f64,
    space_words: usize,
    live_words: usize,
    parked_words: usize,
    slack_words: usize,
}

impl ScalingPoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"n\": {}, \"insert_ops\": {:.1}, \"churn_pair_ops\": {:.1}, \
             \"query_mu16_ops\": {:.1}, \"bulk_items_per_sec\": {:.1}, \
             \"space_words\": {}, \"live_words\": {}, \"parked_words\": {}, \
             \"slack_words\": {}}}",
            self.n,
            self.insert_ops,
            self.churn_pair_ops,
            self.query_mu16_ops,
            self.bulk_items_per_sec,
            self.space_words,
            self.live_words,
            self.parked_words,
            self.slack_words
        )
    }
}

/// Walks HALT across the cache hierarchy: at each size, bulk-build rate
/// (best of three, warm allocator — same argument as [`bulk_load_probe`]),
/// then per-op insert, churn-pair, and μ≈16 query rates on the built
/// structure, plus space telemetry (total words and the live/parked/slack
/// arena residency split summed over the item and proxy arenas). Full runs
/// cover n ∈ {2^14, 2^17, 2^20, 2^23} — from L2-resident to ~40× beyond
/// L2 on this class of host; `--quick` keeps just the 2^20 beyond-L2 point
/// for the CI smoke.
fn scaling_probe(seed: u64, quick: bool) -> Vec<ScalingPoint> {
    let sizes: &[usize] = if quick { &[1 << 20] } else { &[1 << 14, 1 << 17, 1 << 20, 1 << 23] };
    let dist = WeightDist::Zipf { s_num: 2, s_den: 1, w_max: 1 << 30 };
    let mut points = Vec::new();
    for &n in sizes {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5CA1 ^ n as u64);
        let weights = dist.generate(n, &mut rng);

        // Bulk build: one untimed warmup pre-faults the arenas, then best
        // of three timed builds (preemption only slows a run down).
        let _ = std::hint::black_box(DpssSampler::from_weights(&weights, seed ^ 0x5CA2));
        let mut b_secs = f64::INFINITY;
        let mut kept = None;
        for r in 0..3u64 {
            let (built, secs) = time(|| DpssSampler::from_weights(&weights, seed ^ 0x5CA3 ^ r));
            b_secs = b_secs.min(secs);
            kept = Some(built);
        }
        let (mut s, mut ids) = kept.expect("at least one run");

        let stats = s.stats();
        let (ir, pr) = (stats.item_arena_residency, stats.proxy_arena_residency);

        // Per-op rates on the built structure, best of three timed passes
        // each (this host's run-to-run noise dwarfs the effects under
        // measurement otherwise). reps ≤ n/8 keeps the live count inside
        // the rebuild band in both directions.
        let reps = (n / 8).clamp(1024, 1 << 17);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5CA4 ^ n as u64);
        let per_insert = best_of_three(|| {
            let t = time_per(reps, || {
                ids.push(s.insert(rng.gen_range(1..=1u64 << 30)));
            });
            // Restore the size untimed (stays above the shrink band).
            for _ in 0..reps {
                let id = ids.pop().expect("just inserted");
                s.delete(id).expect("live handle");
            }
            t
        });
        // Churn pairs run the suite's recommended pipelined idiom: the next
        // victim is drawn one pair ahead and its record hinted through
        // `PssBackend::prefetch_handle` (the journal-replay pattern) before
        // the insert, so the insert's work is the prefetch distance covering
        // the next delete's first dependent miss. The hint never lands on
        // the id pushed afterwards, so every hinted index stays valid.
        let mut next_j = rng.gen_range(0..ids.len());
        let per_churn = best_of_three(|| {
            time_per(reps, || {
                let victim = ids.swap_remove(next_j);
                s.delete(victim).expect("live handle");
                next_j = rng.gen_range(0..ids.len());
                PssBackend::prefetch_handle(&s, Handle::from_raw(ids[next_j].raw()));
                ids.push(s.insert(rng.gen_range(1..=1u64 << 30)));
            })
        });
        let alpha = Ratio::from_u64s(1, 16);
        let beta = Ratio::zero();
        // The kept sampler is the last build, seeded `seed ^ 0x5CA3 ^ 2`.
        let mut ctx = QueryCtx::new(seed ^ 0x5CA3 ^ 2);
        let _ = s.query_in(&mut ctx, &alpha, &beta); // warm the plan cache
        let q_reps = if quick { 50 } else { 300 };
        let per_query =
            best_of_three(|| time_per(q_reps, || s.query_in(&mut ctx, &alpha, &beta).len()));

        println!(
            "scaling n=2^{:02}: bulk {:.1}M items/s  insert {}/op  churn-pair {}/op  \
             query(μ16) {}/op  space {} words ({} live / {} parked / {} slack)",
            n.trailing_zeros(),
            n as f64 / b_secs / 1e6,
            fmt_secs(per_insert),
            fmt_secs(per_churn),
            fmt_secs(per_query),
            stats.space_words,
            ir.live_words + pr.live_words,
            ir.parked_words + pr.parked_words,
            ir.slack_words + pr.slack_words,
        );
        points.push(ScalingPoint {
            n,
            insert_ops: 1.0 / per_insert,
            churn_pair_ops: 1.0 / per_churn,
            query_mu16_ops: 1.0 / per_query,
            bulk_items_per_sec: n as f64 / b_secs,
            space_words: stats.space_words,
            live_words: ir.live_words + pr.live_words,
            parked_words: ir.parked_words + pr.parked_words,
            slack_words: ir.slack_words + pr.slack_words,
        });
    }
    points
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_core.json".to_string();
    let mut n = 1usize << 14;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out PATH").clone(),
            "--n" => {
                n = it.next().expect("--n ITEMS").parse().expect("integer n");
                assert!(n >= 1, "--n must be at least 1");
            }
            "--quick" => quick = true,
            other => panic!("unknown argument {other} (expected --out/--n/--quick)"),
        }
    }

    println!("\nscaling tier:");
    let points = scaling_probe(42, quick);
    // Flatness: per-op cost at the largest n over the smallest n (ops are
    // rates, so the cost ratio is small_ops/large_ops). ≈1 means the O(1)
    // story holds beyond L2; a single-point --quick run reports 1.
    let (first, last) = (points.first().expect("≥1 point"), points.last().expect("≥1 point"));
    let insert_ratio = first.insert_ops / last.insert_ops;
    let churn_ratio = first.churn_pair_ops / last.churn_pair_ops;
    let query_ratio = first.query_mu16_ops / last.query_mu16_ops;
    println!(
        "flatness 2^{:02}→2^{:02}: insert {insert_ratio:.2}x  churn {churn_ratio:.2}x  \
         query {query_ratio:.2}x",
        first.n.trailing_zeros(),
        last.n.trailing_zeros()
    );

    println!("# bench_core: n = {n}, roster driven via dyn PssBackend\n");
    let rows = measure(42, n, quick);

    let (fifo_window, fifo_ops, fifo_setup) = fifo_window_probe(42, n, quick);
    println!(
        "fifo window (w={fifo_window}): {fifo_ops:.0} update ops/s on halt \
         (setup {fifo_setup:.2} ms)"
    );
    let (scale_every, decayed_ops, decayed_setup) = decayed_probe(42, n, quick);
    println!(
        "decayed weights (scale_every={scale_every}): {decayed_ops:.0} update ops/s on halt \
         (setup {decayed_setup:.2} ms)"
    );
    let bl = bulk_load_probe(42);
    println!(
        "bulk load: {:.1}M items/s at 2^14, {:.1}M items/s at 2^20 vs \
         {:.1}M items/s per-op — {:.2}x; shrink-compaction rebuild {:.2} ms",
        bl.small_items_per_sec / 1e6,
        bl.large_items_per_sec / 1e6,
        bl.per_op_items_per_sec / 1e6,
        bl.speedup,
        bl.rebuild_ms
    );
    let sn = snapshot_probe(42);
    println!(
        "snapshot: {:.1} MiB image at 2^20 — save {:.2} ms, load {:.2} ms \
         ({:.1}M items/s), recover {:.2} ms with a {}-delta journal tail",
        sn.bytes as f64 / (1 << 20) as f64,
        sn.save_ms,
        sn.load_ms,
        sn.load_items_per_sec / 1e6,
        sn.recover_ms,
        sn.journal_tail
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
    json.push_str(&format!("  \"n_items\": {n},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"unit\": \"ops_per_sec\",\n");
    json.push_str(&format!(
        "  \"fifo_window\": {{\"window\": {fifo_window}, \"ops_per_sec\": {fifo_ops:.1}, \
         \"setup_ms\": {fifo_setup:.3}}},\n"
    ));
    json.push_str(&format!(
        "  \"decayed\": {{\"scale_every\": {scale_every}, \"ops_per_sec\": {decayed_ops:.1}, \
         \"setup_ms\": {decayed_setup:.3}}},\n"
    ));
    json.push_str(&format!(
        "  \"bulk_load\": {{\"n_small\": {}, \"small_items_per_sec\": {:.1}, \
         \"n_large\": {}, \"large_items_per_sec\": {:.1}, \
         \"per_op_items_per_sec\": {:.1}, \"speedup\": {:.3}, \
         \"rebuild_ms\": {:.3}}},\n",
        bl.n_small,
        bl.small_items_per_sec,
        bl.n_large,
        bl.large_items_per_sec,
        bl.per_op_items_per_sec,
        bl.speedup,
        bl.rebuild_ms
    ));
    json.push_str(&format!(
        "  \"snapshot\": {{\"n\": {}, \"bytes\": {}, \"journal_tail\": {}, \
         \"save_ms\": {:.3}, \"load_ms\": {:.3}, \"recover_ms\": {:.3}, \
         \"load_items_per_sec\": {:.1}}},\n",
        sn.n,
        sn.bytes,
        sn.journal_tail,
        sn.save_ms,
        sn.load_ms,
        sn.recover_ms,
        sn.load_items_per_sec
    ));
    json.push_str("  \"scaling\": {\"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str("      ");
        json.push_str(&p.to_json());
        json.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"flatness\": {{\"insert_ratio\": {insert_ratio:.3}, \
         \"churn_ratio\": {churn_ratio:.3}, \"query_ratio\": {query_ratio:.3}}}}},\n"
    ));
    json.push_str("  \"backends\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"insert\": {:.1}, \"churn_pair\": {:.1}, \
             \"delete\": {:.1}, \"set_weight\": {:.1}, \
             \"query_mu16\": {:.1}, \"query_batch16\": {:.1}, \"mixed_round\": {:.1}, \
             \"space_words\": {}}}{}\n",
            json_escape(r.name),
            r.insert_ops,
            r.churn_ops,
            r.delete_ops,
            r.set_weight_ops,
            r.query_mu16_ops,
            r.query_batch16_ops,
            r.mixed_round_ops,
            r.space_words,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_core.json");
    // Self-validate the snapshot so a shape regression fails the run (and
    // CI's --quick smoke step) instead of silently breaking the trajectory.
    validate_bench_core(&json)
        .unwrap_or_else(|e| panic!("emitted snapshot violates schema v{SCHEMA_VERSION}: {e}"));
    println!("\nwrote {out_path} (schema v{SCHEMA_VERSION} OK)");
}
