//! What every workload shares: the run configuration, the timed call, the
//! op-phase accounting, the per-layer metric table and the result line.

use crate::alloc;
use crate::stats::{median, Hist};
use crate::trace::{Tracer, ALL};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// Length of one measured phase. A traced run splits its time between a
    /// traced phase and an untraced one, for the tracing overhead.
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(if self.trace { self.seconds / 2.0 } else { self.seconds })
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that are not single ops (law tests, final state).
    pub failed_checks: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// The traced run's spans, written out at exit.
    pub trace: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failed_checks.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object with the keys `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The outcome of one timed call into the program.
pub struct Timed<T> {
    /// `None` when the call panicked.
    pub out: Option<T>,
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Times one call into the program, counting its heap requests. A panic is
/// caught and returned as `out: None`, to be counted as a failed op.
#[inline]
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let (a0, b0) = alloc::totals();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    let ns = t0.elapsed().as_nanos() as u64;
    let (a1, b1) = alloc::totals();
    Timed { out, ns, allocs: a1 - a0, bytes: b1 - b0 }
}

/// How a measured phase is cut into windows and where over the windows the
/// end-to-end metrics are read. Rates and percentiles are taken per window
/// and read from the fast end: on a shared host other tenants slow this
/// process down by up to 40% for spans of tens of milliseconds to minutes,
/// and only ever slow it down. On a 2-vCPU cloud guest the median over
/// 1.5 s windows moved by 20–35% between runs of the same code.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub window: Duration,
    /// Share of the windows, counted from the fast end, at which a metric
    /// is read (nearest rank, so 0 reads the fastest window).
    pub fast_share: f64,
}

/// For ops whose cost varies little between windows (`query_mix` cycles its
/// classes, `churn_stream`'s updates are alike): the fastest 20 ms window.
/// Quiet spells on a busy host are short, so short windows catch them; the
/// fastest one moved by 2–9% between runs where the median moved by 17–22%.
pub const FASTEST_SHORT_WINDOW: Reading =
    Reading { window: Duration::from_millis(20), fast_share: 0.0 };

/// For ops with a heavy-tailed cost (`rr_sets`, up to the cap): the fastest
/// short window is one that held no large set, so 100 ms windows read at
/// 5% from the fast end (the 95th-percentile rate, the 5th-percentile
/// latency).
pub const FAST_END_OF_LONG_WINDOWS: Reading =
    Reading { window: Duration::from_millis(100), fast_share: 0.05 };

/// What one window of a phase measured.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub ops_per_s: f64,
    pub items_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Accounting for one measured op phase.
#[derive(Debug)]
pub struct Phase {
    reading: Reading,
    /// Latencies of the current window.
    lat: Hist,
    win_ops: u64,
    win_items: u64,
    pub windows: Vec<Window>,
    pub ops: u64,
    pub items: u64,
    pub failed: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Phase {
    pub fn new(reading: Reading) -> Phase {
        Phase {
            reading,
            lat: Hist::default(),
            win_ops: 0,
            win_items: 0,
            windows: Vec::new(),
            ops: 0,
            items: 0,
            failed: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    /// Counts one op that took `ns` and returned `items` items.
    pub fn note(&mut self, ns: u64, items: usize) {
        self.lat.record(ns);
        self.ops += 1;
        self.win_ops += 1;
        self.items += items as u64;
        self.win_items += items as u64;
    }

    pub fn record<T>(&mut self, t: &Timed<T>, items: usize, ok: bool) {
        self.note(t.ns, items);
        self.failed += u64::from(!ok || t.out.is_none());
        self.allocs += t.allocs;
        self.alloc_bytes += t.bytes;
    }

    /// Ends the current window, which lasted `wall`.
    fn close_window(&mut self, wall: Duration) {
        let secs = wall.as_secs_f64();
        self.windows.push(Window {
            ops_per_s: self.win_ops as f64 / secs,
            items_per_s: self.win_items as f64 / secs,
            p50_ns: self.lat.quantile(0.50),
            p99_ns: self.lat.quantile(0.99),
        });
        self.lat.clear();
        self.win_ops = 0;
        self.win_items = 0;
    }

    /// `f` over the windows at the reading's share from the fast end:
    /// counted from the largest value when `higher_is_faster`, else from
    /// the smallest. 0 when no window closed.
    fn fast_end(&self, f: impl Fn(&Window) -> f64, higher_is_faster: bool) -> f64 {
        let mut v: Vec<f64> = self.windows.iter().map(f).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        if higher_is_faster {
            v.reverse();
        }
        // Nearest rank, as in `Hist::quantile`.
        let rank = ((self.reading.fast_share * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn ops_per_s(&self) -> f64 {
        self.fast_end(|w| w.ops_per_s, true)
    }

    pub fn items_per_s(&self) -> f64 {
        self.fast_end(|w| w.items_per_s, true)
    }

    pub fn p50_us(&self) -> f64 {
        self.fast_end(|w| w.p50_ns, false) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.fast_end(|w| w.p99_ns, false) / 1e3
    }

    /// Adds the end-to-end metrics this phase measures to `r`.
    pub fn report_end_to_end(&self, r: &mut Report) {
        r.metric("ops_per_s", self.ops_per_s(), "1/s");
        r.metric("op_p50_us", self.p50_us(), "us");
        r.metric("op_p99_us", self.p99_us(), "us");
        r.metric("items_per_s", self.items_per_s(), "1/s");
        r.notes.push(format!(
            "ops {}, items {}, read at {}% from the fast end of {} windows of {:?}",
            self.ops,
            self.items,
            self.reading.fast_share * 100.0,
            self.windows.len(),
            self.reading.window
        ));
    }
}

/// Runs `op(i)` for `i = 0, 1, …` until `len` has passed, closing a window
/// every window of `ph`'s reading. `op` does its own timing and accounting.
pub fn run_phase(len: Duration, ph: &mut Phase, mut op: impl FnMut(u64, &mut Phase)) {
    let start = Instant::now();
    let win_len = ph.reading.window.min(len);
    let mut win_start = Duration::ZERO;
    let mut i = 0u64;
    loop {
        op(i, ph);
        i += 1;
        if i.is_multiple_of(8) {
            let now = start.elapsed();
            if now >= win_start + win_len {
                ph.close_window(now - win_start);
                win_start = now;
                if now >= len {
                    break;
                }
            }
        }
    }
}

/// Median time of `reps` set-ups, each produced by `build` (which returns
/// its own duration and the built state); keeps the last state.
pub fn setup_median<T>(reps: usize, mut build: impl FnMut() -> (Duration, T)) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<T> = None;
    for _ in 0..reps {
        // Drop the previous state first, so one state is alive at a time.
        drop(last.take());
        let (d, state) = build();
        times.push(d.as_secs_f64());
        last = Some(state);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Workload-specific per-layer figures; anything a workload does not
/// measure stays 0.
#[derive(Debug, Default)]
pub struct LayerExtras {
    pub plan: (u64, u64, u64),
    pub rebuilds: u64,
    pub deltas_per_query: f64,
    pub sig_groups_per_query: f64,
    pub mu_p50_us: [f64; 6],
    pub fit: (f64, f64),
    pub words_per_query: f64,
    pub words_per_item: f64,
    pub space_words_per_item: f64,
    pub mirror_mismatches: u64,
}

/// The μ classes of `query_mix`, as named in the per-layer metrics.
pub const MU_NAMES: [&str; 6] = ["mu0", "mu1", "mu4", "mu16", "mu64", "mu256"];

/// Every per-layer metric: per span kind its mean self time, calls per
/// measured op and allocations per call, then the counts, fits and the
/// tracing overhead: traced minus untraced `ops_per_s` and `op_p50_us`.
/// A traced op also drives the mirrors, so the `ops_per_s` difference
/// holds their work; the traced `op_p50_us` times the top call's span alone.
pub fn report_layers(
    r: &mut Report,
    tr: &Tracer,
    x: &LayerExtras,
    untraced: &Phase,
    traced: &Phase,
) {
    for k in ALL {
        let t = tr.totals[k as usize];
        let (allocs, _) = alloc::by_kind(k as usize);
        let per_call = |v: f64| if t.calls == 0 { 0.0 } else { v / t.calls as f64 };
        r.metric(format!("{}.self_ns", k.name()), per_call(t.self_ns), "ns");
        r.metric(
            format!("{}.calls_per_op", k.name()),
            t.op_calls as f64 / tr.ops.max(1) as f64,
            "count",
        );
        r.metric(format!("{}.allocs_per_call", k.name()), per_call(allocs as f64), "count");
    }
    let (hits, misses, refreshes) = x.plan;
    let lookups = hits + misses + refreshes;
    r.metric("dpss.sampler.plan_hits", hits as f64, "count");
    r.metric("dpss.sampler.plan_misses", misses as f64, "count");
    r.metric("dpss.sampler.plan_refreshes", refreshes as f64, "count");
    r.metric(
        "dpss.sampler.plan_hit_ratio",
        if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        "ratio",
    );
    r.metric("dpss.sampler.rebuilds", x.rebuilds as f64, "count");
    r.metric("pss_core.journal.deltas_per_query", x.deltas_per_query, "count");
    r.metric("dpss.query.sig_groups_per_query", x.sig_groups_per_query, "count");
    for (name, v) in MU_NAMES.iter().zip(x.mu_p50_us) {
        r.metric(format!("dpss.query.{name}_p50_us"), v, "us");
    }
    r.metric("dpss.query.fixed_ns", x.fit.0, "ns");
    r.metric("dpss.query.per_item_ns", x.fit.1, "ns");
    r.metric("randvar.words_per_query", x.words_per_query, "count");
    r.metric("randvar.words_per_item", x.words_per_item, "count");
    let ops = untraced.ops.max(1) as f64;
    r.metric("alloc.per_op", untraced.allocs as f64 / ops, "count");
    r.metric("alloc.bytes_per_op", untraced.alloc_bytes as f64 / ops, "B");
    r.metric("dpss.structure.space_words_per_item", x.space_words_per_item, "count");
    r.metric("dpss.query.mirror_mismatches", x.mirror_mismatches as f64, "count");
    r.metric("trace.span_cost_ns", tr.cost.nested, "ns");
    let rate = Phase::ops_per_s;
    let p50_us = Phase::p50_us;
    r.metric("trace.ops_per_s_delta", rate(traced) - rate(untraced), "1/s");
    r.metric("trace.op_p50_us_delta", p50_us(traced) - p50_us(untraced), "us");
    r.notes.push(format!(
        "tracing overhead: untraced {:.1} ops/s, p50 {:.3} us; traced {:.1} ops/s, p50 {:.3} us",
        rate(untraced),
        p50_us(untraced),
        rate(traced),
        p50_us(traced)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_windows_do_not_move_the_fast_end() {
        // 40 windows: the fastest (8 ops of 100 ns), one of 6 ops of 110 ns,
        // and 38 slowed ones of 2 ops of 5 µs. At 5% of 40 the reading is
        // the second window from the fast end, whichever way round.
        let mut ph = Phase::new(FAST_END_OF_LONG_WINDOWS);
        let windows = [(100, 8, 1)].into_iter().chain([(110, 6, 1), (5000, 2, 38)]);
        for (ns, ops, times) in windows {
            for _ in 0..times {
                for _ in 0..ops {
                    ph.note(ns, 3);
                }
                ph.close_window(Duration::from_secs(1));
            }
        }
        assert_eq!((ph.ops, ph.items), (90, 270));
        assert_eq!(ph.ops_per_s(), 6.0);
        assert_eq!(ph.items_per_s(), 18.0);
        // The p50 of the six 110 ns ops is rank 3 of 6 inside their 1 ns
        // bucket, 110 + 2.5/6.
        assert_eq!(ph.p50_us(), (110.0 + 2.5 / 6.0) / 1e3);
        ph.reading = FASTEST_SHORT_WINDOW;
        assert_eq!(ph.ops_per_s(), 8.0);
        assert_eq!(ph.p50_us(), (100.0 + 3.5 / 8.0) / 1e3);
        assert_eq!(Phase::new(FASTEST_SHORT_WINDOW).ops_per_s(), 0.0);
    }
}
