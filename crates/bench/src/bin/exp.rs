//! `exp` — the experiment harness for the paper's claims. Prints every
//! theorem-derived table: E1–E10, the V1–V2 exactness checks and the A1–A4
//! ablations (the paper has no empirical tables; each experiment checks the
//! *shape* claimed by a theorem — see the README's "Paper → module map" for
//! the code each one drives).
//!
//! Usage: `cargo run --release -p bench --bin exp -- [e1|…|e10|e3b|e9b|e10b|v1|v2|a1|…|a4|all]`
//! (default `all`); an unknown name lists the valid ones and exits non-zero.

// Wall-clock timing is sanctioned here: this is measurement/driver code, not serving-path library code.
#![allow(clippy::disallowed_types)]

use baselines::all_backends;
use bench::{fmt_secs, header, radix_sort_u64, row, time, time_per, WeightDist};
use bignum::Ratio;
use dpss::{DpssSampler, FinalLevelMode, QueryCtx, SpaceUsage};
use floatdpss::sort_via_dpss;
use graphsub::{gen, randomized_push, rr_set};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use randvar::stats::{binomial_z, chi_square};
use randvar::{
    ber_oracle, ber_u64, bgeo, tgeo, tgeo_paper_literal, CountingRng, GeoDesc,
    HalfRecipPStarOracle, PStarOracle,
};
use std::process::ExitCode;
use wordram::bits;

/// One experiment: its command-line name and the function printing its table.
type Experiment = (&'static str, fn());

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("e1", e1_build),
    ("e2", e2_query),
    ("e3", e3_update),
    ("e3b", e3b_streams),
    ("e4", e4_space),
    ("e5", e5_baselines),
    ("e6", e6_tgeo),
    ("e7", e7_sorting),
    ("e8", e8_bernoulli),
    ("e9", e9_rr_sets),
    ("e9b", e9b_seed_selection),
    ("e10", e10_push),
    ("e10b", e10b_sweep_cut),
    ("v1", v1_marginals),
    ("v2", v2_variates),
    ("a1", a1_final_mode),
    ("a2", a2_rebuild_factor),
    ("a3", a3_lookup_laziness),
    ("a4", a4_set_weight),
];

/// The experiments `name` selects: the whole table for `all`, else the one
/// entry so named; `None` for an unknown name.
fn select(name: &str) -> Option<&'static [Experiment]> {
    if name == "all" {
        return Some(EXPERIMENTS);
    }
    EXPERIMENTS.iter().find(|(n, _)| *n == name).map(std::slice::from_ref)
}

fn main() -> ExitCode {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let Some(selected) = select(&which) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("exp: unknown experiment `{which}`; expected one of: {} all", names.join(" "));
        return ExitCode::FAILURE;
    };
    for (_, run) in selected {
        run();
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------

fn e1_build() {
    println!("\n## E1 — Theorem 1.1 preprocessing: O(n) build (ns/item should be flat)\n");
    header(&["n", "uniform", "zipf", "bimodal", "random"]);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = bits::pow2_usize(u64::from(exp));
        let mut cells = vec![format!("2^{exp}")];
        for d in WeightDist::ALL {
            let w = d.weights(n, 1);
            let (_, secs) = time(|| DpssSampler::from_weights(&w, 7));
            cells.push(format!("{:.0} ns/item", secs / n as f64 * 1e9));
        }
        row(&cells);
    }
}

fn e2_query() {
    println!("\n## E2 — Theorem 1.1 query: O(1+μ) expected time\n");
    println!("Fixed n = 2^18 (uniform weights), sweeping μ via α = n/μ:\n");
    header(&["target μ", "measured μ", "time/query", "time/(1+μ)"]);
    let n = 1usize << 18;
    let weights = WeightDist::Uniform.weights(n, 2);
    let (s, _) = DpssSampler::from_weights(&weights, 9);
    let mut ctx = QueryCtx::new(9);
    let beta = Ratio::zero();
    for mu in [0.25f64, 1.0, 16.0, 256.0, 4096.0] {
        // uniform weights: p = 1/(α·n) each → μ = 1/α.
        let alpha = Ratio::from_u64s(n as u64 * 1000, (mu * n as f64 * 1000.0) as u64);
        let reps = (20_000.0 / (1.0 + mu)).ceil() as usize + 20;
        let mut total = 0usize;
        let per = {
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                total += s.query_in(&mut ctx, &alpha, &beta).len();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        };
        let measured = total as f64 / reps as f64;
        row(&[
            format!("{mu}"),
            format!("{measured:.2}"),
            fmt_secs(per),
            fmt_secs(per / (1.0 + measured)),
        ]);
    }
    println!("\nFixed μ = 1, sweeping n (flatness in n):\n");
    header(&["n", "time/query (μ=1)"]);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = bits::pow2_usize(u64::from(exp));
        let weights = WeightDist::Random.weights(n, 3);
        let (s, _) = DpssSampler::from_weights(&weights, 11);
        let mut ctx = QueryCtx::new(11);
        let alpha = Ratio::one();
        let per = time_per(3000, || s.query_in(&mut ctx, &alpha, &Ratio::zero()));
        row(&[format!("2^{exp}"), fmt_secs(per)]);
    }
}

fn e3_update() {
    println!("\n## E3 — Theorem 1.1 update: O(1) per insert/delete (flat in n)\n");
    header(&["n", "ns/update (steady)", "max single op", "rebuilds"]);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = bits::pow2_usize(u64::from(exp));
        let weights = WeightDist::Random.weights(n, 4);
        let (mut s, mut ids) = DpssSampler::from_weights(&weights, 13);
        let mut rng = SmallRng::seed_from_u64(5);
        let ops = 20_000usize;
        let mut max_op = 0.0f64;
        let t0 = std::time::Instant::now();
        for _ in 0..ops {
            let t1 = std::time::Instant::now();
            // Steady state: one delete + one insert.
            let i = rng.gen_range(0..ids.len());
            let victim = ids.swap_remove(i);
            s.delete(victim).unwrap();
            ids.push(s.insert(rng.gen_range(1..=1u64 << 40)));
            max_op = max_op.max(t1.elapsed().as_secs_f64());
        }
        let per = t0.elapsed().as_secs_f64() / (2 * ops) as f64;
        row(&[
            format!("2^{exp}"),
            format!("{:.0}", per * 1e9),
            fmt_secs(max_op),
            format!("{}", s.rebuild_count()),
        ]);
    }
}

fn e4_space() {
    println!("\n## E4 — Theorem 1.1 space: O(n) words (words/item should flatten)\n");
    header(&["n", "after build", "after churn", "words/item"]);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = bits::pow2_usize(u64::from(exp));
        let weights = WeightDist::Random.weights(n, 6);
        let (mut s, mut ids) = DpssSampler::from_weights(&weights, 17);
        let w_build = s.space_words();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..n / 2 {
            let i = rng.gen_range(0..ids.len());
            let victim = ids.swap_remove(i);
            s.delete(victim).unwrap();
            ids.push(s.insert(rng.gen_range(1..=1u64 << 40)));
        }
        let w_churn = s.space_words();
        row(&[
            format!("2^{exp}"),
            format!("{w_build}"),
            format!("{w_churn}"),
            format!("{:.1}", w_churn as f64 / n as f64),
        ]);
    }
}

fn e5_baselines() {
    println!("\n## E5 — HALT vs baselines (n = 2^16)\n");
    let n = 1usize << 16;
    let weights = WeightDist::Random.weights(n, 8);
    println!("Query-only (same parameters, μ ≈ 16):\n");
    header(&["backend", "time/query", "vs halt"]);
    let alpha = Ratio::from_u64s(1, 16);
    let mut base = None;
    for backend in all_backends(19).iter_mut() {
        let mut ctx = pss_core::QueryCtx::new(19);
        for &w in &weights {
            backend.insert(w);
        }
        let _ = backend.query(&mut ctx, &alpha, &Ratio::zero()); // warm (odss materializes)
        let reps = if backend.name().starts_with("naive") { 60 } else { 2000 };
        let per = time_per(reps, || backend.query(&mut ctx, &alpha, &Ratio::zero()));
        let b = *base.get_or_insert(per);
        row(&[backend.name().into(), fmt_secs(per), format!("{:.1}x", per / b)]);
    }
    println!("\nMixed workload (update + fresh-parameter query per round):\n");
    header(&["backend", "time/round", "vs halt"]);
    let mut base = None;
    for backend in all_backends(23).iter_mut() {
        let mut ctx = pss_core::QueryCtx::new(23);
        let mut handles: Vec<pss_core::Handle> =
            weights.iter().map(|&w| backend.insert(w)).collect();
        let mut rng = SmallRng::seed_from_u64(29);
        let reps = if backend.name().starts_with("halt") { 500 } else { 30 };
        let per = time_per(reps, || {
            let i = rng.gen_range(0..handles.len());
            backend.delete(handles[i]);
            handles[i] = backend.insert(rng.gen_range(1..=1u64 << 40));
            let alpha = Ratio::from_u64s(1, rng.gen_range(2..64));
            backend.query(&mut ctx, &alpha, &Ratio::zero()).len()
        });
        let b = *base.get_or_insert(per);
        row(&[backend.name().into(), fmt_secs(per), format!("{:.1}x", per / b)]);
    }
}

fn e6_tgeo() {
    println!("\n## E6 — Theorem 1.3: T-Geo(p, n) in O(1) expected time\n");
    println!("ns/variate across regimes (flat in both n and 1/p):\n");
    header(&["p", "n=2^8", "n=2^16", "n=2^24", "n=2^30"]);
    let mut rng = SmallRng::seed_from_u64(31);
    for (num, den) in [(1u64, 2u64), (1, 1 << 10), (1, 1 << 25), (1, 1 << 40)] {
        let p = Ratio::from_u64s(num, den);
        let mut cells = vec![format!("{num}/{den}")];
        for nexp in [8u32, 16, 24, 30] {
            let n = bits::pow2_64(u64::from(nexp));
            let per = time_per(2000, || tgeo(&mut rng, &p, n));
            cells.push(fmt_secs(per));
        }
        row(&cells);
    }
    println!("\nBaselines at n = 2^16 (naive loop is Θ(min(n, 1/p)); f64 inversion is inexact):\n");
    header(&["p", "exact T-Geo", "naive loop", "f64 inversion"]);
    for (num, den) in [(1u64, 8u64), (1, 1 << 12), (1, 1 << 20)] {
        let p = Ratio::from_u64s(num, den);
        let n = 1u64 << 16;
        let t_exact = time_per(2000, || tgeo(&mut rng, &p, n));
        // Naive: flip Ber(p) left to right until success, restart if none.
        let t_naive = time_per(20, || loop {
            for i in 1..=n {
                if ber_u64(&mut rng, num, den) {
                    return i;
                }
            }
        });
        let pf = num as f64 / den as f64;
        let t_f64 = time_per(100_000, || {
            let z = 1.0 - (1.0 - pf).powi(n as i32);
            let u: f64 = rng.gen::<f64>() * z;
            ((1.0 - u).ln() / (1.0 - pf).ln()).floor() as u64 + 1
        });
        row(&[format!("{num}/{den}"), fmt_secs(t_exact), fmt_secs(t_naive), fmt_secs(t_f64)]);
    }
    e6b_literal_bias();
}

fn e6b_literal_bias() {
    println!("\n### E6b — erratum: the paper-literal Case 2.2 pseudocode is biased\n");
    println!("n = 10, p = 1/25 (Case 2.2), 10^5 draws; z-scores of Pr[i = 1]:\n");
    header(&["variant", "freq(i=1)", "exact pmf(1)", "z-score"]);
    let p = Ratio::from_u64s(1, 25);
    let pmf1 = {
        let pf = 0.04f64;
        pf / (1.0 - (1.0 - pf).powi(10))
    };
    let trials = 100_000u64;
    for (name, literal) in [("tgeo (ours, exact)", false), ("tgeo_paper_literal", true)] {
        let mut rng = SmallRng::seed_from_u64(37);
        let mut ones = 0u64;
        for _ in 0..trials {
            let v =
                if literal { tgeo_paper_literal(&mut rng, &p, 10) } else { tgeo(&mut rng, &p, 10) };
            ones += (v == 1) as u64;
        }
        let z = binomial_z(ones, trials, pmf1);
        row(&[
            name.into(),
            format!("{:.4}", ones as f64 / trials as f64),
            format!("{pmf1:.4}"),
            format!("{z:+.1}"),
        ]);
    }
}

fn e7_sorting() {
    println!("\n## E7 — Theorem 1.2: Integer Sorting via deletion-only float DPSS\n");
    header(&["N", "dpss-sort", "std sort", "radix sort", "ratio", "correct"]);
    let mut rng = SmallRng::seed_from_u64(41);
    for exp in [8u32, 10, 12, 14] {
        let n = bits::pow2_usize(u64::from(exp));
        let vals: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let (ours, t_ours) = time(|| sort_via_dpss(&vals, 43));
        let mut std_sorted = vals.clone();
        let (_, t_std) = time(|| std_sorted.sort_unstable());
        let (radix, t_radix) = time(|| radix_sort_u64(&vals));
        row(&[
            format!("2^{exp}"),
            fmt_secs(t_ours),
            fmt_secs(t_std),
            fmt_secs(t_radix),
            format!("{:.0}x", t_ours / t_std.max(1e-9)),
            format!("{}", ours == std_sorted && radix == std_sorted),
        ]);
    }
    println!("\n(The growing ratio, dpss-sort over std sort, is the point: our float-weight");
    println!("structure pays O(log N)+bignum per op; an optimal one would sort in O(N),");
    println!("as the LSD radix sort does — open.)");
}

fn e8_bernoulli() {
    println!("\n## E8 — Theorem 3.1 / Fact 1: exact Bernoulli generation\n");
    header(&["variate", "ns/draw", "random words/draw"]);
    let mut crng = CountingRng::new(SmallRng::seed_from_u64(47));
    let reps = 50_000usize;
    e8_row("type (i): Ber(355/1130)", &mut crng, reps, |r| ber_u64(r, 355, 1130));
    let q = Ratio::from_u64s(1, 1 << 20);
    let mut o2 = PStarOracle::new(&q, 1 << 18);
    e8_row("type (ii): Ber(p*), q=2^-20, n=2^18", &mut crng, reps / 10, |r| ber_oracle(r, &mut o2));
    let mut o3 = HalfRecipPStarOracle::new(&q, 1 << 18);
    e8_row("type (iii): Ber(1/2p*), q=2^-20, n=2^18", &mut crng, reps / 10, |r| {
        ber_oracle(r, &mut o3)
    });
    for (label, p, n) in [
        ("B-Geo(1/1000, 2^20) (Fact 3)", Ratio::from_u64s(1, 1000), 1 << 20),
        ("B-Geo(1/2, 2^16)", Ratio::from_u64s(1, 2), 1 << 16),
        ("B-Geo(2^-20, 2^16)", Ratio::from_u64s(1, 1 << 20), 1 << 16),
    ] {
        e8_row(label, &mut crng, reps / 5, |r| bgeo(r, &p, n));
    }
    // The rows above build a descriptor per draw; the open-bucket walk
    // reuses one per bucket, and decides its strides on a stride table
    // when it expects at least a batch of items.
    let n = 1 << 20;
    let d = GeoDesc::from_words(1, 1 << 11, n);
    e8_row("B-Geo stride, reused descriptor, p=2^-11, n=2^20", &mut crng, reps * 4, |r| {
        d.bgeo(r, n)
    });
    let table = d.stride_table().expect("a 2^11 block has 64 steps");
    e8_row("  same, strides on a stride table", &mut crng, reps * 4, |r| table.bgeo(r, n));
    e8_row("  stride table fill (64 multiply pairs)", &mut crng, reps * 4, |_| d.stride_table());
}

/// One E8 row: ns/draw and random words/draw of `draw` over `reps` draws.
fn e8_row<R: RngCore, T>(
    label: &str,
    crng: &mut CountingRng<R>,
    reps: usize,
    mut draw: impl FnMut(&mut CountingRng<R>) -> T,
) {
    crng.reset_count();
    let per = time_per(reps, || draw(crng));
    let words = crng.words_consumed() as f64 / reps as f64;
    row(&[label.into(), format!("{:.0}", per * 1e9), format!("{words:.2}")]);
}

/// `mean ± standard error` of a sample of set sizes.
fn mean_se(sizes: &[usize]) -> String {
    let n = sizes.len() as f64;
    let mean = sizes.iter().sum::<usize>() as f64 / n;
    let var = sizes.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0);
    format!("{mean:.2} ± {:.2}", (var / n).sqrt())
}

fn e9_rr_sets() {
    println!("\n## E9 — Appendix A.1: RR-set generation under edge churn\n");
    let n = 20_000usize;
    let m = 100_000usize;
    let edges = gen::power_law_digraph(n, m, 100, 53);
    println!(
        "power-law digraph: {n} nodes, {} edges; per round: 10 edge updates + 20 RR sets\n",
        edges.len()
    );
    header(&["graph backend", "time/round", "mean RR size ± SE"]);
    // DPSS-backed.
    {
        let mut g = gen::build_dpss_graph(n, &edges, 59);
        let mut rng = SmallRng::seed_from_u64(61);
        let mut sizes = Vec::with_capacity(50 * 20);
        let per = time_per(50, || {
            for _ in 0..10 {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(1..=100));
                }
            }
            for _ in 0..20 {
                let root = rng.gen_range(0..n as u32);
                sizes.push(rr_set(&mut g, root, 500).len());
            }
        });
        row(&["dpss (HALT per node)".into(), fmt_secs(per), mean_se(&sizes)]);
    }
    // Naive linear-scan.
    {
        let mut g = gen::build_naive_graph(n, &edges, 59);
        let mut rng = SmallRng::seed_from_u64(61);
        let mut sizes = Vec::with_capacity(50 * 20);
        let per = time_per(50, || {
            for _ in 0..10 {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(1..=100));
                }
            }
            for _ in 0..20 {
                let root = rng.gen_range(0..n as u32);
                sizes.push(g.rr_set(root, 500).len());
            }
        });
        row(&["naive (linear scan)".into(), fmt_secs(per), mean_se(&sizes)]);
    }
    println!("\nHub stress (one node with 10^5 in-edges; RR sets rooted at the hub):");
    println!("this is the regime the output-sensitive bound targets — μ stays O(1)");
    println!("while the naive scan pays Θ(d_in) per activation.\n");
    header(&["graph backend", "time/RR set (hub root)"]);
    let hub_n = 100_001usize;
    let hub_edges: Vec<(u32, u32, u64)> =
        (1..hub_n as u32).map(|u| (u, 0u32, ((u as u64) % 97) + 1)).collect();
    {
        let mut g = gen::build_dpss_graph(hub_n, &hub_edges, 73);
        let per = time_per(300, || rr_set(&mut g, 0, 50).len());
        row(&["dpss (HALT per node)".into(), fmt_secs(per)]);
    }
    {
        let mut g = gen::build_naive_graph(hub_n, &hub_edges, 73);
        let per = time_per(50, || g.rr_set(0, 50).len());
        row(&["naive (linear scan)".into(), fmt_secs(per)]);
    }
}

/// Sorts `lat` and returns `(p99, p99.9, max)`.
fn percentiles(lat: &mut [f64]) -> (f64, f64, f64) {
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| lat[((lat.len() as f64 * q) as usize).min(lat.len() - 1)];
    (pick(0.99), pick(0.999), lat[lat.len() - 1])
}

fn e3b_streams() {
    use dpss::DeamortizedDpss;
    use workloads::updates::{StreamKind, UpdateStream};
    use workloads::weights::WeightDist as WDist;
    println!("\n## E3b — §4.5 de-amortization: worst-case update latency under streams\n");
    println!("60k ops per stream. De-amortization shows up in the tail: the");
    println!("amortized variant pays O(n) rebuild bursts, the de-amortized one");
    println!("never exceeds O(MIGRATION_BATCH) structure work (raw max is OS-noisy):\n");
    header(&["stream", "backend", "total", "p99", "p99.9", "max"]);
    let dist = WDist::Uniform { lo: 1, hi: 1 << 40 };
    let streams = [
        ("oscillate", StreamKind::Oscillate { lo: 1 << 12, hi: 5 << 12 }),
        ("window", StreamKind::SlidingWindow { window: 1 << 12 }),
        ("mixed", StreamKind::Mixed { insert_permille: 500 }),
    ];
    for (label, kind) in streams {
        let mut rng = SmallRng::seed_from_u64(83);
        let stream = UpdateStream::generate(kind, 1 << 12, 60_000, dist, &mut rng);
        let rows = [
            ("halt (amortized)", timed_replay(DpssSampler::new(5), &stream)),
            ("de-amortized", timed_replay(DeamortizedDpss::new(5), &stream)),
        ];
        for (backend, [total, p99, p999, mx]) in rows {
            row(&[label.into(), backend.into(), total, p99, p999, mx]);
        }
    }
}

/// Loads `stream`'s initial items into `s`, then replays its ops timing each
/// one; returns the formatted total, p99, p99.9 and max. Generic, not `dyn`,
/// so the per-op timing includes no vtable call.
fn timed_replay<B: pss_core::PssBackend>(
    mut s: B,
    stream: &workloads::updates::UpdateStream,
) -> [String; 4] {
    use workloads::updates::{LiveSet, Op};
    let mut live = LiveSet::new();
    for &w in &stream.initial {
        live.insert(s.insert(w));
    }
    let mut lat = Vec::with_capacity(stream.ops.len());
    let (_, total) = time(|| {
        for op in &stream.ops {
            let t0 = std::time::Instant::now();
            match *op {
                Op::Insert(w) => live.insert(s.insert(w)),
                Op::DeleteAt(i) => {
                    s.delete(live.remove_at(i));
                }
                Op::DeleteOldest => {
                    s.delete(live.remove_oldest());
                }
                Op::ReweightAt { .. } => unreachable!("e3b streams never reweight"),
                Op::ScaleAllWeights { .. } => unreachable!("e3b streams never scale"),
            }
            lat.push(t0.elapsed().as_secs_f64());
        }
    });
    let (p99, p999, mx) = percentiles(&mut lat);
    [fmt_secs(total), fmt_secs(p99), fmt_secs(p999), fmt_secs(mx)]
}

fn e9b_seed_selection() {
    use graphsub::{forward_influence, InfluenceMaximizer};
    println!("\n## E9b — Appendix A.1: full RIS influence maximization\n");
    let n = 5_000usize;
    let edges = gen::power_law_digraph(n, 40_000, 100, 91);
    let mut g = gen::build_dpss_graph(n, &edges, 93);
    let mut rng = SmallRng::seed_from_u64(97);
    header(&["R (RR sets)", "k", "select time", "RIS estimate", "forward MC", "rel err"]);
    for (r, k) in [(2_000usize, 5usize), (8_000, 10)] {
        let mut im = InfluenceMaximizer::new(2_000);
        im.ensure_rr_sets(&mut g, r, &mut rng);
        let (sel, secs) = time(|| im.select_seeds(&g, k));
        let fwd = forward_influence(&mut g, &sel.seeds, 60);
        let rel = (sel.influence_estimate - fwd).abs() / fwd.max(1.0);
        row(&[
            format!("{r}"),
            format!("{k}"),
            fmt_secs(secs),
            format!("{:.1}", sel.influence_estimate),
            format!("{fwd:.1}"),
            format!("{:.1}%", rel * 100.0),
        ]);
    }
}

fn e10b_sweep_cut() {
    use graphsub::local_cluster;
    println!("\n## E10b — Appendix A.2: local clustering (PPR push + sweep cut)\n");
    println!("Planted two-community digraphs; the sweep should recover the seed's half:\n");
    header(&["n", "time", "|cluster|", "φ(cluster)", "recovered"]);
    for n in [100usize, 400, 1000] {
        let edges = gen::two_community_digraph(n, (20_000 / n).min(900) as u32 + 60, 4, 8, 1, 101);
        let mut g = gen::build_dpss_graph(n, &edges, 103);
        let mut rng = SmallRng::seed_from_u64(107);
        let (cut, secs) = time(|| local_cluster(&mut g, 0, 20_000, 150, &mut rng));
        let Some(cut) = cut else {
            row(&[format!("{n}"), fmt_secs(secs), "-".into(), "-".into(), "no cut".into()]);
            continue;
        };
        let half = (n / 2) as u32;
        let in_a = cut.cluster.iter().filter(|&&v| v < half).count();
        let recovered = in_a as f64 / cut.cluster.len().max(1) as f64;
        row(&[
            format!("{n}"),
            fmt_secs(secs),
            format!("{}", cut.cluster.len()),
            format!("{:.4}", cut.conductance),
            format!("{:.0}% in seed half", recovered * 100.0),
        ]);
    }
}

fn e10_push() {
    println!("\n## E10 — Appendix A.2: randomized push throughput\n");
    let n = 5_000usize;
    let edges = gen::uniform_digraph(n, 40_000, 50, 67);
    let mut g = gen::build_dpss_graph(n, &edges, 71);
    header(&["workload", "time", "nodes reached"]);
    for (particles, levels) in [(1_000u32, 4u32), (10_000, 6), (50_000, 8)] {
        let (visits, secs) = time(|| randomized_push(&mut g, 0, particles, levels));
        row(&[
            format!("{particles} particles × {levels} levels"),
            fmt_secs(secs),
            format!("{}", visits.len()),
        ]);
    }
}

fn a4_set_weight() {
    println!("\n## A4 — ablation: in-place reweight vs delete + insert\n");
    println!("n = 2^16; 100k reweights each; cross-bucket moves pay two cascades,");
    println!("same-bucket moves touch only the slab and Σw:\n");
    header(&["operation", "ns/op"]);
    let n = 1usize << 16;
    let weights = WeightDist::Random.weights(n, 14);
    let reps = 100_000usize;

    // set_weight, same bucket (w and w|1 share ⌊log2⌋ for w ≥ 2).
    {
        let (mut s, ids) = DpssSampler::from_weights(&weights, 15);
        let mut rng = SmallRng::seed_from_u64(16);
        let per = time_per(reps, || {
            let i = rng.gen_range(0..ids.len());
            let w = s.weight(ids[i]).unwrap().max(2);
            s.set_weight(ids[i], w ^ 1).unwrap();
        });
        row(&["set_weight (same bucket)".into(), format!("{:.0}", per * 1e9)]);
    }
    // set_weight, forced cross-bucket (toggle between 2^10 and 2^40 scale).
    {
        let (mut s, ids) = DpssSampler::from_weights(&weights, 17);
        let mut rng = SmallRng::seed_from_u64(18);
        let per = time_per(reps, || {
            let i = rng.gen_range(0..ids.len());
            let w = s.weight(ids[i]).unwrap();
            let new_w = if w > 1 << 25 { rng.gen_range(1..1 << 10) } else { 1 << 40 };
            s.set_weight(ids[i], new_w).unwrap();
        });
        row(&["set_weight (cross bucket)".into(), format!("{:.0}", per * 1e9)]);
    }
    // delete + insert (handle churn).
    {
        let (mut s, mut ids) = DpssSampler::from_weights(&weights, 19);
        let mut rng = SmallRng::seed_from_u64(20);
        let per = time_per(reps, || {
            let i = rng.gen_range(0..ids.len());
            let id = ids.swap_remove(i);
            s.delete(id).unwrap();
            ids.push(s.insert(rng.gen_range(1..=1u64 << 40)));
        });
        row(&["delete + insert".into(), format!("{:.0}", per * 1e9)]);
    }
}

fn v1_marginals() {
    println!("\n## V1 — Theorem 4.7 exactness: empirical vs exact inclusion probabilities\n");
    println!(
        "50 items, 2·10^5 queries per configuration; max |z| over items (should stay < ~4.5):\n"
    );
    header(&["weights", "(α, β)", "max |z|", "items at p=1 ok", "items at p≈0 ok"]);
    let configs: Vec<(&str, Vec<u64>)> = vec![
        ("uniform", vec![100; 50]),
        ("geometric", (0..50).map(|i| bits::pow2_64((i % 40) as u64)).collect()),
        ("adversarial", {
            let mut v = vec![1u64; 25];
            v.extend(vec![u64::MAX / 64; 25]);
            v
        }),
    ];
    for (label, weights) in configs {
        for (a, b) in [((1u64, 1u64), (0u64, 1u64)), ((1, 30), (0, 1)), ((0, 1), (1 << 20, 1))] {
            let alpha = Ratio::from_u64s(a.0, a.1);
            let beta = Ratio::from_u64s(b.0, b.1);
            let (s, ids) = DpssSampler::from_weights(&weights, 73);
            let mut ctx = QueryCtx::new(73);
            let probs: Vec<f64> = ids
                .iter()
                .map(|&id| s.inclusion_prob(id, &alpha, &beta).unwrap().to_f64_lossy())
                .collect();
            let trials = 200_000u64;
            let mut hits = vec![0u64; ids.len()];
            for _ in 0..trials {
                for id in s.query_in(&mut ctx, &alpha, &beta) {
                    hits[ids.iter().position(|&x| x == id).unwrap()] += 1;
                }
            }
            let mut max_z = 0.0f64;
            let mut ones_ok = true;
            let mut zeros_ok = true;
            for (i, &p) in probs.iter().enumerate() {
                if p >= 1.0 {
                    ones_ok &= hits[i] == trials;
                } else if p < 1e-12 {
                    zeros_ok &= hits[i] == 0;
                } else {
                    max_z = max_z.max(binomial_z(hits[i], trials, p).abs());
                }
            }
            row(&[
                label.into(),
                format!("({}/{}, {}/{})", a.0, a.1, b.0, b.1),
                format!("{max_z:.2}"),
                format!("{ones_ok}"),
                format!("{zeros_ok}"),
            ]);
        }
    }
}

fn v2_variates() {
    println!("\n## V2 — §3 exactness: χ² goodness of fit for the variate generators\n");
    header(&["generator", "cells (df)", "χ²", "0.9999 quantile"]);
    let trials = 300_000u64;
    // Ber(2/7) as a 2-cell test.
    {
        let mut rng = SmallRng::seed_from_u64(79);
        let mut hits = 0u64;
        for _ in 0..trials {
            hits += ber_u64(&mut rng, 2, 7) as u64;
        }
        let p = 2.0 / 7.0;
        let stat = chi_square(&[hits, trials - hits], &[p, 1.0 - p], trials);
        row(&["Ber(2/7)".into(), "2 (1)".into(), format!("{stat:.2}"), "15.1".into()]);
    }
    // B-Geo(1/6, 20).
    {
        let mut rng = SmallRng::seed_from_u64(83);
        let p = Ratio::from_u64s(1, 6);
        let mut counts = vec![0u64; 20];
        for _ in 0..trials {
            counts[bgeo(&mut rng, &p, 20) as usize - 1] += 1;
        }
        let pf: f64 = 1.0 / 6.0;
        let probs: Vec<f64> = (1..=20)
            .map(|i| if i < 20 { pf * (1.0 - pf).powi(i - 1) } else { (1.0 - pf).powi(19) })
            .collect();
        let stat = chi_square(&counts, &probs, trials);
        row(&["B-Geo(1/6, 20)".into(), "20 (19)".into(), format!("{stat:.2}"), "55.6".into()]);
    }
    // T-Geo in both non-trivial cases.
    for (num, den, n, label) in [
        (1u64, 3u64, 12u64, "T-Geo(1/3, 12) [case 2.1]"),
        (1, 40, 12, "T-Geo(1/40, 12) [case 2.2]"),
    ] {
        let mut rng = SmallRng::seed_from_u64(89);
        let p = Ratio::from_u64s(num, den);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            counts[tgeo(&mut rng, &p, n) as usize - 1] += 1;
        }
        let pf = num as f64 / den as f64;
        let z = 1.0 - (1.0 - pf).powi(n as i32);
        let probs: Vec<f64> = (1..=n as i32).map(|i| pf * (1.0 - pf).powi(i - 1) / z).collect();
        let stat = chi_square(&counts, &probs, trials);
        row(&[label.into(), format!("{n} ({})", n - 1), format!("{stat:.2}"), "44.1".into()]);
    }
}

fn a1_final_mode() {
    println!("\n## A1 — ablation: final-level lookup table vs direct Bernoulli\n");
    header(&["n", "lookup table", "direct", "rows built"]);
    for exp in [14u32, 18] {
        let n = bits::pow2_usize(u64::from(exp));
        let weights = WeightDist::Zipf.weights(n, 9);
        let alpha = Ratio::one();
        let (mut s, _) = DpssSampler::from_weights(&weights, 91);
        let mut ctx = QueryCtx::new(91);
        let t_lookup = time_per(3000, || s.query_in(&mut ctx, &alpha, &Ratio::zero()));
        let rows = s.lookup_rows_built(&ctx);
        s.set_final_mode(FinalLevelMode::Direct);
        let t_direct = time_per(3000, || s.query_in(&mut ctx, &alpha, &Ratio::zero()));
        row(&[format!("2^{exp}"), fmt_secs(t_lookup), fmt_secs(t_direct), format!("{rows}")]);
    }
}

fn a2_rebuild_factor() {
    println!("\n## A2 — ablation: rebuild threshold factor (growth workload, n 2^12→2^17)\n");
    header(&["factor k", "total time", "rebuilds", "max single insert"]);
    for k in [2usize, 4, 8] {
        let mut s = DpssSampler::new(97);
        s.set_rebuild_factor(k);
        let mut rng = SmallRng::seed_from_u64(101);
        let mut max_op = 0f64;
        let (_, secs) = time(|| {
            for _ in 0..(1usize << 17) {
                let t = std::time::Instant::now();
                s.insert(rng.gen_range(1..=1u64 << 40));
                max_op = max_op.max(t.elapsed().as_secs_f64());
            }
        });
        row(&[format!("{k}"), fmt_secs(secs), format!("{}", s.rebuild_count()), fmt_secs(max_op)]);
    }
}

fn a3_lookup_laziness() {
    println!("\n## A3 — ablation: lazy vs eager lookup-table construction\n");
    let n = 1usize << 16;
    let weights = WeightDist::Zipf.weights(n, 10);
    header(&["mode", "prep time", "first-100-query time", "rows materialized"]);
    // Lazy (default).
    {
        let ((s, _), t_build) = time(|| DpssSampler::from_weights(&weights, 103));
        let mut ctx = QueryCtx::new(103);
        let alpha = Ratio::one();
        let (_, t_first) = time(|| {
            for _ in 0..100 {
                std::hint::black_box(s.query_in(&mut ctx, &alpha, &Ratio::zero()));
            }
        });
        row(&[
            "lazy rows (default)".into(),
            fmt_secs(t_build),
            fmt_secs(t_first),
            format!("{}", s.lookup_rows_built(&ctx)),
        ]);
    }
    // Eager: materialize every configuration of the dimension actually used.
    {
        let ((s, _), t_build0) = time(|| DpssSampler::from_weights(&weights, 103));
        let mut ctx = QueryCtx::new(103);
        let (_, t_eager) = time(|| s.eager_lookup(&mut ctx, 8));
        let alpha = Ratio::one();
        let (_, t_first) = time(|| {
            for _ in 0..100 {
                std::hint::black_box(s.query_in(&mut ctx, &alpha, &Ratio::zero()));
            }
        });
        row(&[
            "eager rows (paper mode)".into(),
            format!("{} + {}", fmt_secs(t_build0), fmt_secs(t_eager)),
            fmt_secs(t_first),
            format!("{}", s.lookup_rows_built(&ctx)),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_resolve() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate experiment name in {names:?}");
        for name in [
            "e1", "e2", "e3", "e3b", "e4", "e5", "e6", "e7", "e8", "e9", "e9b", "e10", "e10b",
            "v1", "v2", "a1", "a2", "a3", "a4",
        ] {
            let picked = select(name).unwrap_or_else(|| panic!("`{name}` does not resolve"));
            assert_eq!(picked.len(), 1);
            assert_eq!(picked[0].0, name);
        }
        assert_eq!(select("all").map(<[_]>::len), Some(EXPERIMENTS.len()));
        for unknown in ["nonsense", "", "E1", "e11", "all "] {
            assert!(select(unknown).is_none(), "`{unknown}` resolved");
        }
    }
}
