//! Counters, gauges, and log-bucketed histograms behind one registry.
//!
//! Metrics are keyed by `(name, labels)` where `labels` is a
//! pre-rendered Prometheus-style label string (see [`labels`]), so the
//! registry itself needs no label schema. Histograms use power-of-two
//! buckets (`le = 1, 2, 4, …, 2^62, +Inf`): with nanosecond latencies
//! and cell/byte sizes spanning nine orders of magnitude, a fixed
//! log₂ layout gives ≤2× relative quantile error at a constant 64
//! words of state, needs no a-priori range, and merges exactly.
//!
//! The registry is internally locked; callers touch it at batch
//! boundaries (folding spans, exporting), not per cell, so contention
//! is irrelevant.

use std::collections::BTreeMap;
use std::sync::Mutex;

const BUCKETS: usize = 64;

/// A power-of-two-bucketed histogram with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Upper bound (inclusive) of bucket `i`; the last bucket is open.
    pub fn bucket_upper(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` (bucket-exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean. Edge cases are explicit rather than emergent:
    /// an empty histogram returns 0.0, and because the running sum is
    /// *saturating*, a sum that has hit `u64::MAX` would make the raw
    /// `sum/count` drift below values actually observed — so the mean
    /// is clamped into the observed `[min, max]` range. (E.g. two
    /// `u64::MAX` observations saturate the sum at `u64::MAX`; the raw
    /// mean would be `u64::MAX / 2`, the clamped mean is `u64::MAX`.)
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let raw = self.sum as f64 / self.count as f64;
        raw.clamp(self.min as f64, self.max as f64)
    }

    /// Estimated `q`-quantile: the upper bound of the bucket holding
    /// the rank-`ceil(q·count)` observation, clamped to the observed
    /// `[min, max]` range. Edge cases, explicitly:
    /// * empty histogram → 0 (there is no observation to bracket);
    /// * `q` outside `[0, 1]` (or NaN) → clamped to that range, so
    ///   `q <= 0` reports the min bucket and `q >= 1` the max;
    /// * all mass in the open top bucket (`upper = u64::MAX`) → the
    ///   `[min, max]` clamp keeps the estimate at the observed max
    ///   instead of the meaningless open bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Cumulative `(upper_bound, count)` pairs for exposition, ending
    /// with the open bucket; trailing all-zero buckets are elided.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut acc = 0u64;
        (0..=last)
            .map(|i| {
                acc += self.counts[i];
                (Self::bucket_upper(i), acc)
            })
            .collect()
    }
}

/// Renders label pairs as a canonical Prometheus label body, e.g.
/// `backend="simd",kind="local",stage="kernel"`. Values are escaped
/// per the text exposition format. Pass pairs pre-sorted if a stable
/// key is needed — the function preserves order.
pub fn labels(pairs: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

type Key = (&'static str, String);

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, Histogram>,
}

/// An immutable copy of the registry contents, keyed by
/// `(metric name, rendered label body)` in sorted order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<Key, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<Key, f64>,
    /// Histograms.
    pub hists: BTreeMap<Key, Histogram>,
}

/// Thread-safe registry of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `v` to the counter `name{labels}`.
    pub fn inc(&self, name: &'static str, labels: String, v: u64) {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        *g.counters.entry((name, labels)).or_insert(0) += v;
    }

    /// Sets the gauge `name{labels}` to `v`.
    pub fn set_gauge(&self, name: &'static str, labels: String, v: f64) {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        g.gauges.insert((name, labels), v);
    }

    /// Adjusts the gauge `name{labels}` by `delta` (negative to
    /// decrement), creating it at 0 first, and returns the new value.
    /// This is the API for *level* gauges — queue depth, in-flight
    /// bytes, window occupancy — where concurrent holders each add
    /// their share and release it later, so no single caller knows the
    /// absolute value ([`MetricsRegistry::set_gauge`] would race).
    pub fn add_gauge(&self, name: &'static str, labels: String, delta: f64) -> f64 {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        let v = g.gauges.entry((name, labels)).or_insert(0.0);
        *v += delta;
        *v
    }

    /// Records `v` into the histogram `name{labels}`.
    pub fn observe(&self, name: &'static str, labels: String, v: u64) {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        g.hists.entry((name, labels)).or_default().observe(v);
    }

    /// Pre-registers the histogram `name{labels}` so it appears in
    /// snapshots and expositions with zero counts before the first
    /// observation — a cold scrape then exposes the full stable key
    /// set instead of an empty page. No-op if it already exists.
    pub fn ensure_histogram(&self, name: &'static str, labels: String) {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        g.hists.entry((name, labels)).or_default();
    }

    /// Copies out the full registry contents.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            hists: g.hists.clone(),
        }
    }

    /// Merges every histogram called `name` whose label body contains
    /// `label_filter` (empty filter matches all) into one histogram —
    /// e.g. the all-backend kernel latency distribution.
    pub fn merged_histogram(&self, name: &str, label_filter: &str) -> Histogram {
        let g = self.inner.lock().expect("metrics registry poisoned");
        let mut out = Histogram::new();
        for ((n, l), h) in g.hists.iter() {
            if *n == name && l.contains(label_filter) {
                out.merge(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        for (v, b) in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10)] {
            assert_eq!(Histogram::bucket_of(v), b, "value {v}");
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper(3), 8);
        assert_eq!(Histogram::bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        // Rank 500 sits in bucket (256, 512]; log₂ buckets guarantee
        // the estimate is within 2× of the true median.
        assert!((500..=1000).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) >= p50);
        assert_eq!(h.quantile(1.0), 1000);
        assert!(Histogram::new().quantile(0.5) == 0);
    }

    #[test]
    fn empty_histogram_edge_cases_are_explicit() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn saturated_top_bucket_stays_in_observed_range() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        // The sum saturates; the mean and every quantile must still
        // report the observed value, not an artifact of the overflow
        // or the open bucket's u64::MAX upper bound.
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.mean(), u64::MAX as f64);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.min(), u64::MAX);
    }

    #[test]
    fn quantile_clamps_q_to_unit_range() {
        let mut h = Histogram::new();
        for v in [10u64, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn ensure_histogram_pre_registers_zero_series() {
        let reg = MetricsRegistry::new();
        let l = labels(&[("verb", "score")]);
        reg.ensure_histogram("anyseq_serve_request_us", l.clone());
        let snap = reg.snapshot();
        let h = &snap.hists[&("anyseq_serve_request_us", l.clone())];
        assert_eq!(h.count(), 0);
        // Observing after pre-registration uses the same series.
        reg.observe("anyseq_serve_request_us", l.clone(), 7);
        assert_eq!(
            reg.snapshot().hists[&("anyseq_serve_request_us", l)].count(),
            1
        );
    }

    #[test]
    fn merge_matches_combined_stream() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 17, 170, 9000] {
            a.observe(v);
            both.observe(v);
        }
        for v in [1u64, 2, 40_000_000] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn cumulative_buckets_end_open() {
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(100);
        let buckets = h.cumulative_buckets();
        assert_eq!(*buckets.last().unwrap(), (128, 2));
        assert!(buckets.windows(2).all(|p| p[0].1 <= p[1].1));
    }

    #[test]
    fn registry_round_trip() {
        let reg = MetricsRegistry::new();
        let l = labels(&[("backend", "simd"), ("kind", "local")]);
        assert_eq!(l, r#"backend="simd",kind="local""#);
        reg.inc("anyseq_batches_total", String::new(), 1);
        reg.inc("anyseq_batches_total", String::new(), 2);
        reg.set_gauge("anyseq_cache_bytes", String::new(), 42.0);
        reg.observe("anyseq_stage_duration_ns", l.clone(), 100);
        reg.observe("anyseq_stage_duration_ns", l.clone(), 200);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[&("anyseq_batches_total", String::new())], 3);
        assert_eq!(snap.gauges[&("anyseq_cache_bytes", String::new())], 42.0);
        assert_eq!(snap.hists[&("anyseq_stage_duration_ns", l)].count(), 2);
        let merged = reg.merged_histogram("anyseq_stage_duration_ns", "backend=\"simd\"");
        assert_eq!(merged.count(), 2);
        assert_eq!(
            reg.merged_histogram("anyseq_stage_duration_ns", "backend=\"gpu\"")
                .count(),
            0
        );
    }

    #[test]
    fn add_gauge_accumulates_and_interoperates_with_set() {
        let reg = MetricsRegistry::new();
        assert_eq!(
            reg.add_gauge("anyseq_queue_bytes", String::new(), 64.0),
            64.0
        );
        assert_eq!(
            reg.add_gauge("anyseq_queue_bytes", String::new(), 32.0),
            96.0
        );
        assert_eq!(
            reg.add_gauge("anyseq_queue_bytes", String::new(), -96.0),
            0.0
        );
        // set_gauge overrides the accumulated level; add resumes from it.
        reg.set_gauge("anyseq_queue_bytes", String::new(), 10.0);
        assert_eq!(
            reg.add_gauge("anyseq_queue_bytes", String::new(), 5.0),
            15.0
        );
        let snap = reg.snapshot();
        assert_eq!(snap.gauges[&("anyseq_queue_bytes", String::new())], 15.0);
    }

    #[test]
    fn labels_escape_quotes() {
        assert_eq!(labels(&[("k", "a\"b\\c")]), r#"k="a\"b\\c""#);
    }
}
