//! `query_mix`: a static HALT sampler over 2^20 Zipf weights answering a
//! pre-generated `PssBackend::query` sequence that cycles six `(α, β)`
//! pairs, calibrated to expected sample sizes μ ∈ {≈0, 1, 4, 16, 64, 256}.
//! One query in eight (drawn by the seed) carries a fresh β, so the plan
//! cache misses.

use crate::gen::{splitmix, zipf_weights, Rng};
use crate::harness::{
    report_layers, run_phase, setup_median, timed, Config, LayerExtras, Phase, Report,
    FASTEST_SHORT_WINDOW,
};
use crate::replay::QueryMirror;
use crate::stats::{fit_line, Hist};
use crate::trace::Tracer;
use dpss::{DpssSampler, ItemId, Ratio};
use pss_core::{Handle, PssBackend, QueryCtx};
use randvar::stats::binomial_z;
use std::time::Instant;

pub const N: usize = 1 << 20;
pub const W_MAX: u64 = 1 << 30;
pub const ZIPF_S: u32 = 2;
/// Target μ of each class; the first stands for "≈ 0".
const MUS: [f64; 6] = [1.0 / 1024.0, 1.0, 4.0, 16.0, 64.0, 256.0];
const FRESH_ONE_IN: u64 = 8;
const SEQ_LEN: usize = 1 << 17;
const SETUP_REPS: usize = 11;
/// Equal-weight items whose pooled inclusion count is z-tested.
const FIXED: usize = 64;
/// A |z| beyond this fails a law check (two-sided rate ≈ 2·10⁻⁹).
pub const Z_LIMIT: f64 = 6.0;

struct Query {
    class: usize,
    /// `Some` for a query with a fresh β; `None` uses the class's pair.
    beta: Option<Ratio>,
}

/// `(α, β)` with `α·Σw + β ≈ Σw/μ`, half from each term.
pub fn class_pair(total: u128, mu: f64) -> (Ratio, u128) {
    let alpha = Ratio::from_u64s(1024, (2048.0 * mu).round() as u64);
    (alpha, (total as f64 / (2.0 * mu)) as u128)
}

/// Handles are live and pairwise distinct.
pub fn live_and_distinct(s: &DpssSampler, out: &[Handle], buf: &mut Vec<u64>) -> bool {
    buf.clear();
    buf.extend(out.iter().map(|h| h.raw()));
    buf.sort_unstable();
    buf.windows(2).all(|w| w[0] != w[1]) && buf.iter().all(|&raw| s.contains(ItemId::from_raw(raw)))
}

#[derive(Default)]
struct Class {
    queries: u64,
    items: u64,
    fixed_hits: u64,
    lat_sum_ns: f64,
    lat: Hist,
}

pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let weights = zipf_weights(&mut Rng::new(cfg.seed, 1), N, ZIPF_S, W_MAX);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (setup_s, (s, ids)) = setup_median(reps, || {
        let t = Instant::now();
        let built = DpssSampler::from_weights(&weights, cfg.seed);
        (t.elapsed(), built)
    });

    let total = s.total_weight();
    let (alphas, beta_ints): (Vec<Ratio>, Vec<u128>) =
        MUS.iter().map(|&mu| class_pair(total, mu)).unzip();
    let betas: Vec<Ratio> = beta_ints.iter().map(|&b| Ratio::from_u128s(b, 1)).collect();
    let mut rng = Rng::new(cfg.seed, 2);
    let seq: Vec<Query> = (0..SEQ_LEN)
        .map(|i| {
            let class = i % MUS.len();
            let fresh = rng.below(FRESH_ONE_IN) == 0;
            let beta = fresh.then(|| {
                let b = beta_ints[class];
                Ratio::from_u128s(b + 1 + rng.below((b / 64) as u64) as u128, 1)
            });
            Query { class, beta }
        })
        .collect();

    // Calibration and the exact law of each class, for the z-checks.
    let fixed: Vec<ItemId> =
        ids.iter().copied().filter(|&id| s.weight(id) == Some(W_MAX)).take(FIXED).collect();
    let mut fixed_raw: Vec<u64> = fixed.iter().map(|id| id.raw()).collect();
    fixed_raw.sort_unstable();
    let mut law = Vec::new();
    for c in 0..MUS.len() {
        let mu = s.expected_sample_size(&alphas[c], &betas[c]);
        let w = s.param_weight(&alphas[c], &betas[c]).to_f64_lossy();
        let var: f64 =
            weights.iter().map(|&x| (x as f64 / w).min(1.0)).map(|p| p * (1.0 - p)).sum();
        let p_fixed =
            s.inclusion_prob(fixed[0], &alphas[c], &betas[c]).expect("live").to_f64_lossy();
        r.notes.push(format!("class {c}: target mu {} calibrated mu {mu:.6}", MUS[c]));
        law.push((mu, var, p_fixed));
    }
    drop(weights);

    let ctx_seed = splitmix(cfg.seed ^ 3);
    let mut ctx = QueryCtx::new(ctx_seed);
    let mut traced = Phase::new(FASTEST_SHORT_WINDOW);
    let mut x = LayerExtras::default();
    let mut tr = Tracer::new();
    if cfg.trace {
        let weights = zipf_weights(&mut Rng::new(cfg.seed, 1), N, ZIPF_S, W_MAX);
        let mut m = QueryMirror::new(&weights, cfg.seed, ctx_seed);
        drop(weights);
        run_phase(cfg.phase(), &mut traced, |i, ph| {
            let q = &seq[i as usize % SEQ_LEN];
            let (alpha, beta) = (&alphas[q.class], q.beta.as_ref().unwrap_or(&betas[q.class]));
            let (out, f, same) = m.query(&mut tr, i % 2 == 1, (&s, &mut ctx), alpha, beta);
            ph.note(tr.dur(f), out.len());
            x.mirror_mismatches += u64::from(!same);
            tr.end_op();
        });
        x.deltas_per_query = m.deltas as f64 / m.queries.max(1) as f64;
        x.sig_groups_per_query = m.replay.sig_groups as f64 / m.queries.max(1) as f64;
    }

    let mut ph = Phase::new(FASTEST_SHORT_WINDOW);
    let mut classes: Vec<Class> = (0..MUS.len()).map(|_| Class::default()).collect();
    let mut buf = Vec::new();
    let words0 = ctx.words_consumed();
    run_phase(cfg.phase(), &mut ph, |i, ph| {
        let q = &seq[i as usize % SEQ_LEN];
        let beta = q.beta.as_ref().unwrap_or(&betas[q.class]);
        let t = timed(|| PssBackend::query(&s, &mut ctx, &alphas[q.class], beta));
        let out = t.out.as_deref().unwrap_or_default();
        let ok = live_and_distinct(&s, out, &mut buf);
        ph.record(&t, out.len(), ok);
        if q.beta.is_none() {
            let c = &mut classes[q.class];
            c.queries += 1;
            c.items += out.len() as u64;
            c.lat.record(t.ns);
            c.lat_sum_ns += t.ns as f64;
            c.fixed_hits +=
                out.iter().filter(|h| fixed_raw.binary_search(&h.raw()).is_ok()).count() as u64;
        }
    });
    let words = ctx.words_consumed() - words0;

    // The sampling law: per class, the total sample size against μ and the
    // pooled inclusion count of the fixed equal-weight items against their
    // exact inclusion probability.
    for (c, (cl, &(mu, var, p))) in classes.iter().zip(&law).enumerate() {
        let n = cl.queries as f64;
        if n * mu >= 10.0 {
            let z = (cl.items as f64 - n * mu) / (n * var).sqrt();
            r.notes.push(format!("class {c}: sample-size z {z:.3} over {} queries", cl.queries));
            r.check(z.abs() <= Z_LIMIT, || format!("class {c} sample-size z {z:.2}"));
        }
        let trials = cl.queries * FIXED as u64;
        if trials as f64 * p >= 10.0 {
            let z = binomial_z(cl.fixed_hits, trials, p);
            r.notes
                .push(format!("class {c}: fixed-item inclusion z {z:.3} ({} hits)", cl.fixed_hits));
            r.check(z.abs() <= Z_LIMIT, || format!("class {c} fixed-item z {z:.2}"));
        }
    }

    r.attempted = ph.ops;
    r.failed += ph.failed;
    if cfg.trace {
        x.plan = s.plan_cache_stats_in(&ctx);
        x.rebuilds = s.rebuild_count();
        for (slot, cl) in x.mu_p50_us.iter_mut().zip(&classes) {
            *slot = cl.lat.quantile(0.5) / 1e3;
        }
        let pts: Vec<(f64, f64)> = classes
            .iter()
            .filter(|c| c.queries > 0)
            .map(|c| (c.items as f64 / c.queries as f64, c.lat_sum_ns / c.queries as f64))
            .collect();
        x.fit = fit_line(&pts);
        x.words_per_query = words as f64 / ph.ops.max(1) as f64;
        x.words_per_item = words as f64 / ph.items.max(1) as f64;
        x.space_words_per_item = s.stats().words_per_item();
        report_layers(&mut r, &tr, &x, &ph, &traced);
    } else {
        r.metric("setup_s", setup_s, "s");
        ph.report_end_to_end(&mut r);
        r.metric("peak_rss_mb", crate::harness::peak_rss_mb(), "MB");
    }
    r.trace = cfg.trace.then_some(tr);
    r
}
