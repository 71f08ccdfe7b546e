//! A log2-bucketed latency histogram for the serve layer and the
//! timed simulator's per-processor synchronization waits.
//!
//! Latencies span five orders of magnitude (a cache-hit reply is
//! microseconds, a cold IRIW exploration is seconds), so linear buckets
//! are useless and exact reservoirs allocate. Power-of-two buckets give
//! ≤2× relative error on any percentile with a fixed 64-slot footprint,
//! no allocation on the record path, and a lossless `merge` for folding
//! per-worker histograms into a service-wide one.
//!
//! Values are unitless `u64`s — the serve layer records microseconds,
//! the simulator cycles.
//! Percentile reads return the *upper bound* of the bucket holding the
//! requested rank, so reported numbers are conservative (never under-
//! state a latency) and byte-stable across runs that land in the same
//! buckets.

/// Fixed-footprint log2 histogram. `Default` is the empty histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts values `v` with `bit_width(v) == i`, i.e.
    /// bucket 0 holds only 0, bucket i (i ≥ 1) holds `2^(i-1) ..= 2^i - 1`.
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[(u64::BITS - value.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 on an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (0.0 on an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (in `0.0..=100.0`), reported as the
    /// upper bound of the bucket containing that rank — clamped to the
    /// exact observed `max` so `percentile(100.0) == max()`. Returns 0
    /// on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based: p50 of 4 samples is
        // the 2nd, p100 the 4th. ceil() keeps ranks in 1..=count for
        // p in (0, 100].
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `(p50, p95, p99)` triple the latency tables print.
    pub fn quantile_summary(&self) -> (u64, u64, u64) {
        (self.percentile(50.0), self.percentile(95.0), self.percentile(99.0))
    }

    /// Folds the distribution into `reg` under the `ns.` prefix: the
    /// sample count as a counter, min/mean/p50/p95/p99/max as gauges.
    /// Empty histograms contribute only the zero count, so a dump does
    /// not invent quantiles for data that never arrived.
    pub fn export_metrics(&self, ns: &str, reg: &mut crate::MetricsRegistry) {
        reg.counter(format!("{ns}.count"), self.count());
        if self.is_empty() {
            return;
        }
        let (p50, p95, p99) = self.quantile_summary();
        reg.gauge(format!("{ns}.min"), self.min() as f64);
        reg.gauge(format!("{ns}.mean"), self.mean());
        reg.gauge(format!("{ns}.p50"), p50 as f64);
        reg.gauge(format!("{ns}.p95"), p95 as f64);
        reg.gauge(format!("{ns}.p99"), p99 as f64);
        reg.gauge(format!("{ns}.max"), self.max() as f64);
    }
}

impl std::fmt::Display for Histogram {
    /// One summary line: `n=… mean=… p50=… p95=… p99=… max=…`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p50, p95, p99) = self.quantile_summary();
        write!(
            f,
            "n={} mean={:.1} p50={p50} p95={p95} p99={p99} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn export_metrics_writes_count_and_quantile_gauges() {
        let mut reg = crate::MetricsRegistry::new();
        Histogram::new().export_metrics("lat", &mut reg);
        assert_eq!(reg.get("lat.count"), 0);
        assert_eq!(reg.get_gauge("lat.p50"), None, "no quantiles without samples");
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        h.export_metrics("lat", &mut reg);
        assert_eq!(reg.get("lat.count"), 3);
        assert_eq!(reg.get_gauge("lat.min"), Some(10.0));
        assert_eq!(reg.get_gauge("lat.max"), Some(30.0));
        assert!(reg.get_gauge("lat.p95").is_some());
    }

    #[test]
    fn percentiles_are_conservative_within_a_power_of_two() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // p50 lands in the 256..=511 bucket → reported as 511: an
        // upper bound within 2× of the true 500.
        let p50 = h.percentile(50.0);
        assert!((500..=511).contains(&p50), "{p50}");
        // p100 is exact.
        assert_eq!(h.percentile(100.0), 1000);
        // Monotone in p.
        assert!(h.percentile(95.0) <= h.percentile(99.0));
        assert!(h.percentile(50.0) <= h.percentile(95.0));
    }

    #[test]
    fn zero_and_extremes_have_homes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), 0, "the first rank is the zero");
        assert_eq!(h.percentile(100.0), u64::MAX);
    }

    #[test]
    fn small_samples_sum_and_average_exactly() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 4, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!((h.min(), h.max(), h.sum()), (0, 9, 16));
        assert!((h.mean() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn an_outlier_moves_only_the_top_percentile() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1000);
        // Ranks 1..=99 are `4`s, in the 4..=7 bucket → reported as 7.
        assert_eq!(h.quantile_summary(), (7, 7, 7));
        assert_eq!(h.percentile(100.0), 1000);
    }

    #[test]
    fn all_zero_samples_read_zero() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn display_prints_one_summary_line() {
        let mut h = Histogram::new();
        h.record(4);
        h.record(8);
        assert_eq!(h.to_string(), "n=2 mean=6.0 p50=7 p95=8 p99=8 max=8");
    }

    #[test]
    fn single_value_reports_itself_at_every_percentile() {
        let mut h = Histogram::new();
        h.record(42);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 42, "p{p}");
        }
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 900, 17, 0, 250_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [5u64, 12_000, 7] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        let (p50, p95, p99) = a.quantile_summary();
        assert!(p50 <= p95 && p95 <= p99);
    }
}
