//! Metrics registry: named counters and log2-bucket histograms.
//!
//! Handles are `Arc`'d atomics — acquire them once at init, then update
//! from the hot path without locking or allocating. `detached()`
//! constructors give unregistered handles so call sites on a disabled
//! [`crate::Telemetry`] can update unconditionally.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Histogram,
}

impl MetricKind {
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Point-in-time reading of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    pub name: &'static str,
    pub kind: MetricKind,
    /// Counter: running total. Histogram: observation count.
    pub value: f64,
    /// Histogram only: sum of all recorded values.
    pub sum: f64,
    /// Histogram only: `(inclusive upper bound, count)` for each
    /// non-empty log2 bucket.
    pub buckets: Vec<(u64, u64)>,
}

/// Monotonically increasing u64.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry; it still counts locally.
    pub fn detached() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Bucket count: one per possible bit length of a u64 (0..=64).
const HIST_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log2-bucket histogram of u64 observations (e.g. durations in µs).
/// Bucket `i` holds values of bit length `i`, so bounds double each
/// bucket — constant memory, no configuration, good enough resolution
/// for latency distributions.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    pub fn detached() -> Histogram {
        Histogram {
            core: Arc::new(HistogramCore::new()),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// `(inclusive upper bound, count)` for non-empty buckets, ascending.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        (0..HIST_BUCKETS)
            .filter_map(|i| {
                let n = self.core.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect()
    }
}

fn bucket_upper_bound(idx: usize) -> u64 {
    match idx {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << idx) - 1,
    }
}

/// Registered metrics, deduplicated by name within each kind; snapshots
/// preserve registration order so serialized output is deterministic.
pub struct MetricsRegistry {
    counters: Mutex<Vec<(&'static str, Counter)>>,
    histograms: Mutex<Vec<(&'static str, Histogram)>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
        }
    }

    pub fn counter(&self, name: &'static str) -> Counter {
        let mut v = self.counters.lock().expect("metrics lock");
        if let Some((_, c)) = v.iter().find(|(n, _)| *n == name) {
            return c.clone();
        }
        let c = Counter::detached();
        v.push((name, c.clone()));
        c
    }

    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut v = self.histograms.lock().expect("metrics lock");
        if let Some((_, h)) = v.iter().find(|(n, _)| *n == name) {
            return h.clone();
        }
        let h = Histogram::detached();
        v.push((name, h.clone()));
        h
    }

    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for (name, c) in self.counters.lock().expect("metrics lock").iter() {
            out.push(MetricSample {
                name,
                kind: MetricKind::Counter,
                value: c.get() as f64,
                sum: 0.0,
                buckets: Vec::new(),
            });
        }
        for (name, h) in self.histograms.lock().expect("metrics lock").iter() {
            out.push(MetricSample {
                name,
                kind: MetricKind::Histogram,
                value: h.count() as f64,
                sum: h.sum() as f64,
                buckets: h.nonempty_buckets(),
            });
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dedupes_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("ticks");
        let b = r.counter("ticks");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::detached();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let b = h.nonempty_buckets();
        // 0 → bound 0; 1 → bound 1; 2,3 → bound 3; 1000 → bound 1023.
        assert_eq!(b, vec![(0, 1), (1, 1), (3, 2), (1023, 1)]);
    }

    #[test]
    fn snapshot_orders_by_registration() {
        let r = MetricsRegistry::new();
        r.counter("b");
        r.counter("a");
        r.histogram("z");
        let names: Vec<&str> = r.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b", "a", "z"]);
    }
}
