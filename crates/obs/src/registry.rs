//! The metrics registry: named counters, gauges, and log2 histograms.
//!
//! Registration (cold path) interns the metric name and hands back a cheap
//! cloneable handle wrapping an `Arc`'d atomic cell. Updates (hot path) are a
//! single relaxed atomic operation — no allocation, no lock, no string
//! hashing. The directory itself sits behind a mutex that is only taken at
//! registration and snapshot time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of histogram buckets: one for zero plus one per power of two
/// (`floor(log2(v)) + 1` for `v > 0`), so `u64::MAX` lands in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; `add` is a relaxed atomic add.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (stored as raw bits).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket log2 histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. Recording is two relaxed atomic adds plus a
/// `leading_zeros` — no allocation.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Bucket index for `value`: 0 for zero, else `floor(log2(value)) + 1`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (`u64::MAX` for the last).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            i if i >= 64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &self.inner;
        inner.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in [0, 1]).
    ///
    /// Returns 0 when empty. This is a bucket-resolution estimate: the true
    /// quantile lies at or below the returned bound.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Adds every sample `local` recorded, as [`Histogram::record`] would
    /// have one by one, and empties it.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        let inner = &self.inner;
        for (shared, n) in inner.buckets.iter().zip(&mut local.buckets) {
            if *n > 0 {
                shared.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        inner
            .count
            .fetch_add(std::mem::take(&mut local.count), Ordering::Relaxed);
        inner
            .sum
            .fetch_add(std::mem::take(&mut local.sum), Ordering::Relaxed);
    }
}

/// Samples recorded by one owner without atomics, for a hot loop that would
/// otherwise pay [`Histogram::record`]'s three atomic adds per sample; the
/// owner moves them into the shared histogram with [`Histogram::absorb`]
/// before anyone reads it.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHistogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }
}

/// Kind of a registered metric (for mismatch diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge.
    Gauge,
    /// Log2 histogram.
    Histogram,
}

/// A handle to any registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A counter handle.
    Counter(Counter),
    /// A gauge handle.
    Gauge(Gauge),
    /// A histogram handle.
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Default)]
struct Directory {
    /// Registration-ordered entries; iteration order is therefore
    /// deterministic for a fixed registration sequence.
    entries: Vec<(&'static str, Metric)>,
    index: HashMap<&'static str, usize>,
}

/// The metric directory. One per [`crate::Obs`] hub.
///
/// Names are interned to `&'static str` on first registration (dynamic names
/// leak one small allocation each, bounded by the metric population);
/// re-registering a name returns a handle to the existing metric.
#[derive(Default)]
pub struct Registry {
    dir: Mutex<Directory>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = self.dir.lock();
        f.debug_struct("Registry")
            .field("metrics", &dir.entries.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut dir = self.dir.lock();
        if let Some(&i) = dir.index.get(name) {
            let existing = dir.entries[i].1.clone();
            let want = make().kind();
            assert!(
                existing.kind() == want,
                "metric {name:?} already registered as {:?}, requested {:?}",
                existing.kind(),
                want
            );
            return existing;
        }
        let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let metric = make();
        let slot = dir.entries.len();
        dir.index.insert(interned, slot);
        dir.entries.push((interned, metric.clone()));
        metric
    }

    /// Registers (or looks up) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or looks up) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or looks up) a histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.dir.lock().entries.len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every metric in registration order.
    pub fn visit(&self, mut f: impl FnMut(&'static str, &Metric)) {
        let dir = self.dir.lock();
        for (name, metric) in &dir.entries {
            f(name, metric);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same cell.
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn gauge_last_value_wins() {
        let reg = Registry::new();
        let g = reg.gauge("g");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("dup");
        reg.gauge("dup");
    }

    /// Satellite: histogram bucketing edge values — 0, 1, `u64::MAX`.
    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);

        let reg = Registry::new();
        let h = reg.histogram("h");
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[64], 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0); // 0 + 1 + u64::MAX wraps to 0.
    }

    #[test]
    fn histogram_bucket_bounds_partition_u64() {
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        // Every bucket's bound is the largest value mapping to that bucket.
        for i in 0..HIST_BUCKETS {
            let hi = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(hi), i);
            if hi < u64::MAX {
                assert_eq!(Histogram::bucket_index(hi + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("q");
        assert_eq!(h.quantile_upper_bound(0.5), 0, "empty histogram");
        for v in [1u64, 2, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(0.5), 3); // bucket [2,3]
        assert_eq!(h.quantile_upper_bound(1.0), 127); // bucket [64,127]
    }

    #[test]
    fn absorbed_samples_read_as_recorded_ones() {
        let reg = Registry::new();
        let (direct, absorbed) = (reg.histogram("direct"), reg.histogram("absorbed"));
        let mut local = LocalHistogram::default();
        for (i, v) in [0u64, 1, 7, 7, 300, u64::MAX, 2].into_iter().enumerate() {
            direct.record(v);
            local.record(v);
            if i == 3 {
                absorbed.absorb(&mut local);
            }
        }
        absorbed.absorb(&mut local);
        absorbed.absorb(&mut local); // emptied: adds nothing
        assert_eq!(absorbed.bucket_counts(), direct.bucket_counts());
        assert_eq!(
            (absorbed.count(), absorbed.sum()),
            (direct.count(), direct.sum())
        );
    }

    #[test]
    fn visit_preserves_registration_order() {
        let reg = Registry::new();
        reg.counter("b");
        reg.gauge("a");
        reg.histogram("c");
        let mut names = Vec::new();
        reg.visit(|name, _| names.push(name));
        assert_eq!(names, ["b", "a", "c"]);
    }
}
