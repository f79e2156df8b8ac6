//! Latency histograms, percentile selection, medians and the μ-sweep fit.

/// Values below this are counted in exact 1 ns buckets.
const EXACT: u64 = 2048;
/// Sub-buckets per power of two above [`EXACT`] (relative width 2^-10).
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = EXACT as usize + (64 - 11) * SUB;

/// Log-bucket latency histogram in nanoseconds: exact below 2 µs, then 1024
/// buckets per power of two, so any percentile it reports is within 0.1% of
/// a recorded value. Its size does not grow with the number of samples,
/// which keeps the benchmark's own memory out of `peak_rss_mb`.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], n: 0 }
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    EXACT as usize + (e as usize - 11) * SUB + sub
}

/// `(lower bound, width)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    if i < EXACT as usize {
        return (i as f64, 1.0);
    }
    let e = 11 + (i - EXACT as usize) / SUB;
    let sub = (i - EXACT as usize) % SUB;
    let width = (1u64 << (e - SUB_BITS as usize)) as f64;
    ((SUB + sub) as f64 * width, width)
}

impl Hist {
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`): the value of rank
    /// `⌈q·n⌉` in sorted order, placed inside its bucket by linear
    /// interpolation over the bucket's samples. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= rank {
                let (lo, width) = bucket_range(i);
                return lo + width * ((rank - before) as f64 - 0.5) / c as f64;
            }
            before += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

/// Median of `v` (mean of the two middle values for even length); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Least-squares line `y = a + b·x` through `points`: returns `(a, b)`, or
/// `(mean y, 0)` when the `x` values do not vary.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let b = sxy / sxx;
    (my - b * mx, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_exact_buckets() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record(v);
        }
        // Rank ⌈0.5·100⌉ = 50 holds the value 50; ⌈0.99·100⌉ = 99 holds 99.
        // A lone sample in a 1 ns bucket reads as the bucket's midpoint.
        assert_eq!(h.quantile(0.5), 50.5);
        assert_eq!(h.quantile(0.99), 99.5);
        assert_eq!(h.quantile(1.0), 100.5);
        assert_eq!(h.quantile(0.001), 1.5);
    }

    #[test]
    fn quantile_picks_the_right_mode() {
        let mut h = Hist::default();
        for _ in 0..90 {
            h.record(300);
        }
        for _ in 0..10 {
            h.record(5_000_000);
        }
        assert!((300.0..301.0).contains(&h.quantile(0.9)));
        let p99 = h.quantile(0.91);
        assert!((p99 - 5e6).abs() / 5e6 < 1e-3, "p91 {p99}");
    }

    #[test]
    fn log_buckets_stay_within_a_thousandth() {
        for v in [2048u64, 3000, 123_456, 98_765_432, 1 << 40, u64::MAX >> 1] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5);
            assert!((got - v as f64).abs() / v as f64 <= 1.0 / 1024.0, "{v} read as {got}");
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0;
        for e in 0..63 {
            for v in [1u64 << e, (1u64 << e) + (1u64 << e) / 3, (2u64 << e) - 1] {
                let b = bucket(v);
                assert!(b >= last && b < BUCKETS, "{v} -> {b}");
                last = b;
            }
        }
    }

    #[test]
    fn empty_hist_and_median() {
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        let mut h = Hist::default();
        h.record(7);
        h.clear();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fit_recovers_intercept_and_slope() {
        // Latency = 1300 ns + 2000 ns per item, across the μ classes.
        let pts: Vec<(f64, f64)> =
            [0.0, 1.0, 4.0, 16.0, 64.0, 256.0].iter().map(|&m| (m, 1300.0 + 2000.0 * m)).collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 1300.0).abs() < 1e-6 && (b - 2000.0).abs() < 1e-9, "{a} {b}");
        // Degenerate x: flat line through the mean.
        assert_eq!(fit_line(&[(1.0, 2.0), (1.0, 4.0)]), (3.0, 0.0));
        assert_eq!(fit_line(&[]), (0.0, 0.0));
    }
}
