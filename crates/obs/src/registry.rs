//! Unified metrics registry: counters, gauges, log-bucketed latency
//! histograms, and per-actor series, with a deterministic JSON
//! exposition path.
//!
//! Every merge operation is **commutative and associative** — counters
//! add, gauges take the max, histograms add bucket-wise, series add
//! element-wise — so merging a set of per-node snapshots produces the
//! same result regardless of order or partitioning. This is what makes
//! the aggregate of a parallel (or lane-sharded) run well-defined, and
//! it is property-tested in `tests/`.
//!
//! ## Determinism convention
//!
//! Metric names with the prefix `wall_` are *wall-clock* measurements
//! (real elapsed time on the host). They are informative for the perf
//! trajectory but inherently non-deterministic, so
//! [`MetricsSnapshot::deterministic_json`] excludes them. Everything
//! else — counts, and sim-time-derived latencies — must be a pure
//! function of the seed, and the determinism gate compares that subset
//! byte-for-byte across runs.

use std::collections::BTreeMap;

use crate::json::Json;

/// Number of log2 buckets: bucket `i` holds values `v` with
/// `bit_width(v) == i`, i.e. `[2^(i-1), 2^i)` for `i >= 1` and `{0}`
/// for `i == 0`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Constant-size, allocation-free on the observe path, and mergeable by
/// bucket-wise addition. `sum` keeps exact totals so `mean()` is not
/// quantized by the buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket covering `value`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (the largest value it holds).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of all observed samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the q-th sample. Resolution is a factor of 2,
    /// which is plenty for stage-latency breakdowns.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Renders as a JSON object. Buckets are emitted sparsely as
    /// `[index, count]` pairs so empty histograms stay small.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::U64(i as u64), Json::U64(n)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::U64(self.count)),
            (
                "sum".into(),
                Json::U64(self.sum.min(u64::MAX as u128) as u64),
            ),
            ("mean".into(), Json::F64(self.mean())),
            ("p50".into(), Json::U64(self.quantile(0.50))),
            ("p99".into(), Json::U64(self.quantile(0.99))),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }
}

/// The unified registry. Collection sites call `counter` / `gauge` /
/// `histogram` / `series`; exposition goes through [`Self::snapshot`].
///
/// Names are flat, dot-separated strings (`"wal.fsyncs"`,
/// `"trace.confirmed_to_checkpointed_ns"`). `BTreeMap` keeps exposition ordering
/// sorted and therefore deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<u64>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a monotonically increasing counter.
    pub fn counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets a gauge; merge takes the max, so record peak values.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let slot = self
            .gauges
            .entry(name.to_string())
            .or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Records a sample into a named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Merges a whole histogram into a named slot.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Adds a whole indexed series (e.g. per-actor drop counts) into a
    /// named slot element-wise; the slot grows to fit `values`.
    pub fn series_merge(&mut self, name: &str, values: &[u64]) {
        let s = self.series.entry(name.to_string()).or_default();
        if s.len() < values.len() {
            s.resize(values.len(), 0);
        }
        for (slot, v) in s.iter_mut().zip(values.iter()) {
            *slot += v;
        }
    }

    /// Merges another registry into this one. Commutative and
    /// associative: counters add, gauges max, histograms add
    /// bucket-wise, series add element-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            self.gauge(name, v);
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
        for (name, s) in &other.series {
            self.series_merge(name, s);
        }
    }

    /// Current value of a counter. Panics on a name no collection site
    /// has written: a mistyped name must not read as a passing `== 0`.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.counters.get(name) {
            Some(&v) => v,
            None => panic!("no counter named {name:?} in the registry"),
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn series(&self, name: &str) -> Option<&[u64]> {
        self.series.get(name).map(|s| s.as_slice())
    }

    /// Freezes the current state into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            registry: self.clone(),
        }
    }
}

/// Anything that can dump its counters into the registry. Implemented
/// by each counter struct in its home crate; every registry name is
/// written by exactly one impl (counters add, so a second writer would
/// double the value).
pub trait SnapshotInto {
    fn snapshot_into(&self, registry: &mut MetricsRegistry);
}

/// An immutable, mergeable view of a registry with the one JSON
/// exposition path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    registry: MetricsRegistry,
}

impl MetricsSnapshot {
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Value of the named counter, merged across everything snapshotted
    /// in. Panics on an unknown name (see
    /// [`MetricsRegistry::counter_value`]).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter_value(name)
    }

    /// Merges another snapshot (same commutative semantics as the
    /// registry merge).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.registry.merge(&other.registry);
    }

    fn json_value(&self, include_wall: bool) -> Json {
        let keep = |name: &str| include_wall || !is_wall_metric(name);
        let counters: Vec<(String, Json)> = self
            .registry
            .counters
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, &v)| (k.clone(), Json::U64(v)))
            .collect();
        let gauges: Vec<(String, Json)> = self
            .registry
            .gauges
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, &v)| (k.clone(), Json::F64(v)))
            .collect();
        let histograms: Vec<(String, Json)> = self
            .registry
            .histograms
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        let series: Vec<(String, Json)> = self
            .registry
            .series
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::Arr(s.iter().map(|&v| Json::U64(v)).collect()),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
            ("series".into(), Json::Obj(series)),
        ])
    }

    /// Full exposition, including `wall_*` metrics.
    pub fn to_json(&self) -> Json {
        self.json_value(true)
    }

    /// Deterministic subset only: excludes `wall_*` metrics. Two
    /// same-seed sim runs must render this byte-identically.
    pub fn deterministic_json(&self) -> String {
        self.json_value(false).render()
    }
}

/// True when a metric name denotes a wall-clock (non-deterministic)
/// measurement: the final dot-separated segment starts with `wall_`.
pub fn is_wall_metric(name: &str) -> bool {
    name.rsplit('.')
        .next()
        .is_some_and(|leaf| leaf.starts_with("wall_"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_u64() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.0).abs() < 1e-9);
        // p50 lands in the bucket of 20 ([16,31] → upper bound 31).
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsRegistry::new();
        a.counter("x", 3);
        a.gauge("g", 1.5);
        a.observe("h", 100);
        a.series_merge("s", &[0, 0, 7]);

        let mut b = MetricsRegistry::new();
        b.counter("x", 4);
        b.counter("y", 1);
        b.gauge("g", 0.5);
        b.observe("h", 5);
        b.series_merge("s", &[2]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter_value("x"), 7);
        assert_eq!(ab.snapshot().counter("y"), 1);
        assert_eq!(ab.series("s"), Some(&[2, 0, 7][..]));
        assert_eq!(
            ab.snapshot().deterministic_json(),
            ba.snapshot().deterministic_json()
        );
    }

    #[test]
    #[should_panic(expected = "no counter named \"no.such.name\"")]
    fn reading_an_unknown_counter_panics() {
        let mut r = MetricsRegistry::new();
        r.counter("known", 0);
        assert_eq!(r.snapshot().counter("known"), 0);
        r.snapshot().counter("no.such.name");
    }

    #[test]
    fn wall_metrics_excluded_from_deterministic_json() {
        let mut r = MetricsRegistry::new();
        r.counter("node.wall_flush_ns", 1234);
        r.counter("node.committed", 10);
        r.gauge("wall_elapsed_s", 3.5);
        let snap = r.snapshot();
        let full = snap.to_json().render();
        let det = snap.deterministic_json();
        assert!(full.contains("wall_flush_ns"));
        assert!(det.contains("node.committed"));
        assert!(!det.contains("wall_flush_ns"));
        assert!(!det.contains("wall_elapsed_s"));
        assert!(is_wall_metric("pipeline.wall_exec_ns"));
        assert!(!is_wall_metric("pipeline.exec_ns"));
        assert!(!is_wall_metric("firewall_drops"));
    }
}
