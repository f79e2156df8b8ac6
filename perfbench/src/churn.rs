//! `churn_stream`: the `query_mix` build under a generated update stream —
//! 60% `set_weight` (new weights uniform in [1, 2^30]), 20% delete, 20%
//! insert (Zipf weights, like the build's), so the size holds at n and no
//! rebuild fires — with one μ≈4
//! query after every 64 updates, cycling 16 `(α, β)` pairs. Every query
//! finds the total weight moved, so its plan refreshes through the journal.

use crate::gen::{splitmix, zipf_weights, Rng, Zipf};
use crate::harness::{
    peak_rss_mb, report_layers, run_phase, setup_median, timed, Config, LayerExtras, Phase, Report,
    FASTEST_SHORT_WINDOW,
};
use crate::query_mix::{live_and_distinct, N, W_MAX, ZIPF_S};
use crate::replay::QueryMirror;
use crate::trace::{Kind, Tracer};
use dpss::item::Slab;
use dpss::{DpssSampler, ItemId, Ratio};
use pss_core::{Delta, Handle, PssBackend, QueryCtx};
use std::time::Instant;

const SETUP_REPS: usize = 11;
const UPDATES_PER_QUERY: u64 = 64;
const PAIRS: u64 = 16;
const WARMUP_UPDATES: u64 = 1 << 23;

#[derive(Clone, Copy, Debug)]
enum Update {
    SetWeight { idx: usize, w: u64 },
    Delete { idx: usize },
    Insert { w: u64 },
}

/// The seeded update stream.
struct Stream {
    rng: Rng,
    zipf: Zipf,
}

impl Stream {
    /// 60% `set_weight` to a weight uniform in [1, 2^30]; the other 40%
    /// delete when the size is n and insert a Zipf weight, like the build's,
    /// when it is n − 1. The size thus never passes n. Inserting build-like
    /// weights leaves a quarter of the items with them, which keeps every
    /// large weight class's count between two powers of two; with uniform
    /// inserts the top classes would hover at exactly 2^19, 2^18, …, and
    /// whether a bucket block doubled, and so `peak_rss_mb`, would be down
    /// to chance.
    fn next(&mut self, live: usize) -> Update {
        let idx = self.rng.below(live as u64) as usize;
        if self.rng.below(10) < 6 {
            Update::SetWeight { idx, w: self.rng.range(1, W_MAX) }
        } else if live == N {
            Update::Delete { idx }
        } else {
            Update::Insert { w: self.zipf.draw(&mut self.rng) }
        }
    }
}

/// The benchmark's own record of the item set: live handles with their
/// weights, and the exact total.
struct Shadow {
    live: Vec<(Handle, u64)>,
    total: u128,
}

impl Shadow {
    /// Applies `u` after the program accepted it; `inserted` is the handle
    /// an insert returned.
    fn apply(&mut self, u: Update, inserted: Option<Handle>) {
        match u {
            Update::SetWeight { idx, w } => {
                self.total = self.total - self.live[idx].1 as u128 + w as u128;
                self.live[idx].1 = w;
            }
            Update::Delete { idx } => self.total -= self.live.swap_remove(idx).1 as u128,
            Update::Insert { w } => {
                self.live.push((inserted.expect("insert returns a handle"), w));
                self.total += w as u128;
            }
        }
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let weights = zipf_weights(&mut Rng::new(cfg.seed, 1), N, ZIPF_S, W_MAX);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (setup_s, (mut s, ids)) = setup_median(reps, || {
        let t = Instant::now();
        let built = DpssSampler::from_weights(&weights, cfg.seed);
        (t.elapsed(), built)
    });
    let total0 = s.total_weight();
    let mut shadow = Shadow {
        live: ids.iter().zip(&weights).map(|(id, &w)| (Handle::from_raw(id.raw()), w)).collect(),
        total: total0,
    };
    // α_k = k/64 and β_k = (16 − k)/64 · Σw₀, so W = Σw₀/4 at the start.
    let pairs: Vec<(Ratio, Ratio)> = (0..PAIRS)
        .map(|k| (Ratio::from_u64s(k, 64), Ratio::from_u128s(total0 / 64 * (16 - k) as u128, 1)))
        .collect();
    let mut stream = Stream { rng: Rng::new(cfg.seed, 4), zipf: Zipf::new(ZIPF_S, W_MAX) };
    let ctx_seed = splitmix(cfg.seed ^ 5);
    let mut ctx = QueryCtx::new(ctx_seed);
    let mut x = LayerExtras::default();
    let mut tr = Tracer::new();
    let mut traced = Phase::new(FASTEST_SHORT_WINDOW);
    let mut buf = Vec::new();

    if cfg.trace {
        // Mirrors of every layer below the facade, built from the same
        // weights; the `Slab` is the one layer `QueryMirror` lacks.
        let mut m = QueryMirror::new(&weights, cfg.seed, ctx_seed);
        let mut slab = Slab::new();
        for &w in &weights {
            slab.insert(w);
        }
        run_phase(cfg.phase(), &mut traced, |i, ph| {
            let bottom_up = (i / (UPDATES_PER_QUERY + 1)) % 2 == 1;
            if i % (UPDATES_PER_QUERY + 1) == UPDATES_PER_QUERY {
                let (alpha, beta) = &pairs[(m.queries % PAIRS) as usize];
                let (out, f, same) = m.query(&mut tr, bottom_up, (&s, &mut ctx), alpha, beta);
                ph.note(tr.dur(f), out.len());
                x.mirror_mismatches += u64::from(!same);
            } else {
                let u = stream.next(shadow.live.len());
                let mirrors = (&mut m, &mut slab);
                let (inserted, ok, ns) =
                    traced_update(&mut tr, i % 2 == 1, u, &shadow, &mut s, mirrors);
                ph.note(ns, 0);
                x.mirror_mismatches += u64::from(!ok);
                shadow.apply(u, inserted);
            }
            tr.end_op();
        });
        x.deltas_per_query = m.deltas as f64 / m.queries.max(1) as f64;
        x.sig_groups_per_query = m.replay.sig_groups as f64 / m.queries.max(1) as f64;
        let lens = [s.len(), m.s2.len(), m.replay.level1.slab.len(), slab.len()];
        let totals = [s.total_weight(), m.s2.total_weight(), m.replay.level1.total_weight];
        x.mirror_mismatches += u64::from(lens.iter().any(|&l| l != lens[0]));
        x.mirror_mismatches += u64::from(totals.iter().any(|&t| t != totals[0]));
    }
    drop(weights);

    if !cfg.trace {
        // The stream moves the weights from the Zipf build to its own mix;
        // after 2^23 updates all but ~1% of the build's weights are gone.
        // Running that first keeps the measured phase from mixing the two
        // regimes in a share set by how many updates the host manages. The
        // traced run starts from the build, since its mirrors would have to
        // take the warm-up too.
        let mut warm = Phase::new(FASTEST_SHORT_WINDOW);
        for _ in 0..WARMUP_UPDATES {
            facade_update(&mut s, &mut shadow, &mut stream, &mut warm);
        }
        r.check(warm.failed == 0, || format!("warm-up: {} updates failed", warm.failed));
    }

    let mut ph = Phase::new(FASTEST_SHORT_WINDOW);
    let (mut queries, mut q_items) = (0u64, 0u64);
    let words0 = ctx.words_consumed();
    run_phase(cfg.phase(), &mut ph, |i, ph| {
        if i % (UPDATES_PER_QUERY + 1) == UPDATES_PER_QUERY {
            let (alpha, beta) = &pairs[(queries % PAIRS) as usize];
            queries += 1;
            let t = timed(|| PssBackend::query(&s, &mut ctx, alpha, beta));
            let out = t.out.as_deref().unwrap_or_default();
            let ok = live_and_distinct(&s, out, &mut buf);
            q_items += out.len() as u64;
            ph.record(&t, out.len(), ok);
        } else {
            facade_update(&mut s, &mut shadow, &mut stream, ph);
        }
    });
    let words = ctx.words_consumed() - words0;

    r.check(s.len() == shadow.live.len(), || {
        format!("len {} != shadow {}", s.len(), shadow.live.len())
    });
    r.check(s.total_weight() == shadow.total, || {
        format!("total weight {} != shadow {}", s.total_weight(), shadow.total)
    });
    r.attempted = ph.ops;
    r.failed += ph.failed;
    r.notes.push(format!("queries {queries}, items {q_items}, final size {}", shadow.live.len()));
    if cfg.trace {
        x.plan = s.plan_cache_stats_in(&ctx);
        x.rebuilds = s.rebuild_count();
        x.words_per_query = words as f64 / queries.max(1) as f64;
        x.words_per_item = words as f64 / q_items.max(1) as f64;
        x.space_words_per_item = s.stats().words_per_item();
        report_layers(&mut r, &tr, &x, &ph, &traced);
    } else {
        r.metric("setup_s", setup_s, "s");
        ph.report_end_to_end(&mut r);
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    r.trace = cfg.trace.then_some(tr);
    r
}

/// The next update of the stream through the facade on `s`, timed into
/// `ph`; the shadow takes it when the program accepted it as expected.
fn facade_update(s: &mut DpssSampler, shadow: &mut Shadow, stream: &mut Stream, ph: &mut Phase) {
    let u = stream.next(shadow.live.len());
    let (ok, inserted) = match u {
        Update::SetWeight { idx, w } => {
            let h = shadow.live[idx].0;
            let t = timed(|| PssBackend::set_weight(s, h, w));
            let ok = t.out == Some(Some(h));
            ph.record(&t, 0, ok);
            (ok, None)
        }
        Update::Delete { idx } => {
            let t = timed(|| PssBackend::delete(s, shadow.live[idx].0));
            let ok = t.out == Some(true);
            ph.record(&t, 0, ok);
            (ok, None)
        }
        Update::Insert { w } => {
            let t = timed(|| PssBackend::insert(s, w));
            ph.record(&t, 0, t.out.is_some());
            (t.out.is_some(), t.out)
        }
    };
    if ok {
        shadow.apply(u, inserted);
    }
}

/// One update through the facade on `s`, and down the layers on the
/// mirrors (first, when `bottom_up`), each in its span. Returns the
/// inserted handle, whether every layer agreed with the facade, and the
/// facade call's duration.
fn traced_update(
    tr: &mut Tracer,
    bottom_up: bool,
    u: Update,
    shadow: &Shadow,
    s: &mut DpssSampler,
    (m, slab): (&mut QueryMirror, &mut Slab),
) -> (Option<Handle>, bool, u64) {
    let (s2, l1, journal) = (&mut m.s2, &mut m.replay.level1, &mut m.journal);
    let (inserted, ok, f) = match u {
        Update::SetWeight { idx, w } => {
            let (h, old) = shadow.live[idx];
            let id = ItemId::from_raw(h.raw());
            let ((a, f), (b, c, su)) = tr.ordered(
                bottom_up,
                |tr| tr.span(Kind::FacadeUpdate, None, |_, _| PssBackend::set_weight(s, h, w)),
                |tr| {
                    let (b, su) = tr.span(Kind::SamplerUpdate, None, |_, _| s2.set_weight(id, w));
                    tr.span(Kind::JournalRecord, Some(su), |_, _| {
                        journal.record(Delta::Reweighted { handle: h, old, new: w })
                    });
                    // `Slab` has no public `set_weight`: no slab span here.
                    let (c, _) =
                        tr.span(Kind::StructureUpdate, Some(su), |_, _| l1.set_weight(id, w));
                    (b, c, su)
                },
            );
            tr.set_parent(su, f);
            (None, a == Some(h) && b == Some(old) && c == Some(old), f)
        }
        Update::Delete { idx } => {
            let h = shadow.live[idx].0;
            let id = ItemId::from_raw(h.raw());
            let ((a, f), (b, c, d, su)) = tr.ordered(
                bottom_up,
                |tr| tr.span(Kind::FacadeUpdate, None, |_, _| PssBackend::delete(s, h)),
                |tr| {
                    let (b, su) = tr.span(Kind::SamplerUpdate, None, |_, _| s2.delete(id));
                    tr.span(Kind::JournalRecord, Some(su), |_, _| {
                        journal.record(Delta::Deleted { handle: h })
                    });
                    let (c, st) = tr.span(Kind::StructureUpdate, Some(su), |_, _| l1.delete(id));
                    let (d, _) = tr.span(Kind::ItemSlab, Some(st), |_, _| slab.remove(id));
                    (b, c, d, su)
                },
            );
            tr.set_parent(su, f);
            // The slab mirror never saw a `set_weight`, so only its removal,
            // not the weight it returns, is compared.
            (None, a && b.is_some() && c == b && d.is_some(), f)
        }
        Update::Insert { w } => {
            let ((h, f), (b, c, d, su)) = tr.ordered(
                bottom_up,
                |tr| tr.span(Kind::FacadeUpdate, None, |_, _| PssBackend::insert(s, w)),
                |tr| {
                    let (b, su) = tr.span(Kind::SamplerUpdate, None, |_, _| s2.insert(w));
                    let handle = Handle::from_raw(b.raw());
                    tr.span(Kind::JournalRecord, Some(su), |_, _| {
                        journal.record(Delta::Inserted { handle, weight: w })
                    });
                    let (c, st) = tr.span(Kind::StructureUpdate, Some(su), |_, _| l1.insert(w));
                    let (d, _) = tr.span(Kind::ItemSlab, Some(st), |_, _| slab.insert(w));
                    (b, c, d, su)
                },
            );
            tr.set_parent(su, f);
            (Some(h), b.raw() == h.raw() && c == b && d == b, f)
        }
    };
    (inserted, ok, tr.dur(f))
}
