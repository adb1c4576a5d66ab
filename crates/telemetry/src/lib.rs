//! Unified observability for the SMapReduce reproduction: a span/event
//! tracer with a preallocated ring-buffer recorder, a metrics registry
//! (counters and log2-bucket histograms), and a Chrome-trace
//! (Perfetto) JSON exporter.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — telemetry observes the simulation, never feeds
//!    back into it. No telemetry state influences any simulated decision.
//! 2. **Near-zero cost when disabled** — a disabled [`Telemetry`] handle
//!    is a `None`; every recording call is a single branch, performs no
//!    heap allocation and takes no clock reading (verified by the
//!    `telemetry_alloc` test in the workspace root).
//! 3. **No hot-path allocation when enabled** — spans and counter samples
//!    go into ring buffers preallocated at construction; names are
//!    `&'static str`; argument values ([`ArgValue`]) are `Copy`. Only
//!    rich instant events (heartbeat-rate decision records, lifecycle
//!    mirrors) allocate, and they are off the per-tick path.

mod chrome;
pub mod dashboard;
mod metrics;
mod recorder;

pub use chrome::export_chrome_trace;
pub use dashboard::{render_dashboard, DashboardSpec};
pub use metrics::{Counter, Histogram, MetricKind, MetricSample, MetricsRegistry};
pub use recorder::{CounterSample, InstantEvent, Recorder, SpanRecord};

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default span-ring capacity: ~260k spans ≈ 14 MB. Long runs wrap and
/// keep the most recent spans (the exporter reports the dropped count).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 18;

/// Default counter-sample ring capacity.
pub const DEFAULT_COUNTER_CAPACITY: usize = 1 << 18;

/// A copyable argument value attached to instant events. Strings are
/// restricted to `&'static str` so building argument lists never
/// allocates at the call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'static str),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

struct Inner {
    epoch: Instant,
    recorder: Mutex<Recorder>,
    metrics: MetricsRegistry,
}

/// Cheap, cloneable handle to one telemetry session (or to nothing at
/// all: [`Telemetry::disabled`] handles are a `None` and record-calls are
/// a single branch).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A handle that records nothing. Every call is a branch on `None`.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A recording handle with default ring capacities.
    pub fn enabled() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_SPAN_CAPACITY, DEFAULT_COUNTER_CAPACITY)
    }

    /// A recording handle with explicit span / counter-sample ring
    /// capacities (each entry is a few dozen bytes; memory is allocated
    /// up front so recording never allocates).
    pub fn with_capacity(span_capacity: usize, counter_capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                recorder: Mutex::new(Recorder::new(span_capacity, counter_capacity)),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this session's epoch — the span clock. Returns 0
    /// without reading the clock when disabled.
    #[inline]
    pub fn clock_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Record a completed span that started at `start_us` (from
    /// [`Telemetry::clock_us`]) and ends now. No-op when disabled; never
    /// allocates when enabled (ring overwrite on overflow).
    #[inline]
    pub fn record_span(&self, cat: &'static str, name: &'static str, start_us: u64, sim_ms: u64) {
        if let Some(inner) = &self.inner {
            let end = inner.epoch.elapsed().as_micros() as u64;
            inner
                .recorder
                .lock()
                .expect("recorder lock")
                .push_span(SpanRecord {
                    cat,
                    name,
                    start_us,
                    dur_us: end.saturating_sub(start_us),
                    sim_ms,
                });
        }
    }

    /// Record one sample of a named counter series (rendered as a Chrome
    /// trace counter track). No-op when disabled; never allocates.
    #[inline]
    pub fn counter_sample(&self, name: &'static str, sim_ms: u64, value: f64) {
        if let Some(inner) = &self.inner {
            let ts_us = inner.epoch.elapsed().as_micros() as u64;
            inner
                .recorder
                .lock()
                .expect("recorder lock")
                .push_counter(CounterSample {
                    name,
                    ts_us,
                    sim_ms,
                    value,
                });
        }
    }

    /// Record a rich instant event (decision records, lifecycle mirrors).
    /// Allocates the argument vector when enabled — keep off the per-tick
    /// path. No-op (and allocation-free) when disabled.
    pub fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        sim_ms: u64,
        args: &[(&'static str, ArgValue)],
    ) {
        if let Some(inner) = &self.inner {
            let ts_us = inner.epoch.elapsed().as_micros() as u64;
            inner
                .recorder
                .lock()
                .expect("recorder lock")
                .push_instant(InstantEvent {
                    cat,
                    name,
                    ts_us,
                    sim_ms,
                    args: args.to_vec(),
                });
        }
    }

    /// Counter handle. Disabled handles return a detached counter so call
    /// sites can increment unconditionally; acquire handles once at init,
    /// not per tick.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => Counter::detached(),
        }
    }

    /// Log2-bucket histogram handle. See [`Telemetry::counter`].
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Bytes currently committed to recorder storage (ring buffers at
    /// their preallocated capacity plus instant-event storage) — the
    /// "peak recorder memory" of perf summaries.
    pub fn memory_bytes(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.recorder.lock().expect("recorder lock").memory_bytes(),
            None => 0,
        }
    }

    /// Spans dropped to ring wrap-around so far.
    pub fn dropped_spans(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .recorder
                .lock()
                .expect("recorder lock")
                .dropped_spans(),
            None => 0,
        }
    }

    /// Counter samples dropped to ring wrap-around so far.
    pub fn dropped_counter_samples(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .recorder
                .lock()
                .expect("recorder lock")
                .dropped_counter_samples(),
            None => 0,
        }
    }

    /// Render everything recorded so far as Chrome-trace (Perfetto) JSON.
    /// Returns `None` when disabled.
    pub fn chrome_trace(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let recorder = inner.recorder.lock().expect("recorder lock");
        Some(export_chrome_trace(&recorder, &inner.metrics.snapshot()))
    }

    /// Run `f` over the recorded spans (in recording order).
    pub fn with_spans<R>(
        &self,
        f: impl FnOnce(&mut dyn Iterator<Item = &SpanRecord>) -> R,
    ) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let recorder = inner.recorder.lock().expect("recorder lock");
        let result = f(&mut recorder.spans());
        Some(result)
    }

    /// Number of instant events recorded so far.
    pub fn instant_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner
                .recorder
                .lock()
                .expect("recorder lock")
                .instant_count(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.clock_us(), 0);
        t.record_span("c", "n", 0, 0);
        t.counter_sample("x", 0, 1.0);
        t.instant("c", "n", 0, &[("k", ArgValue::U64(1))]);
        let c = t.counter("x");
        c.inc();
        assert_eq!(c.get(), 1, "detached counters still count locally");
        assert!(t.chrome_trace().is_none());
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn spans_and_counters_are_recorded() {
        let t = Telemetry::with_capacity(16, 16);
        let start = t.clock_us();
        t.record_span("engine", "tick", start, 100);
        t.counter_sample("map_slots", 100, 12.0);
        t.instant("audit", "decision", 100, &[("f", ArgValue::F64(1.5))]);
        let names: Vec<&str> = t.with_spans(|it| it.map(|s| s.name).collect()).unwrap();
        assert_eq!(names, vec!["tick"]);
        assert_eq!(t.instant_count(), 1);
        let json = t.chrome_trace().unwrap();
        assert!(json.contains("\"tick\""));
        assert!(json.contains("map_slots"));
        assert!(json.contains("decision"));
    }

    #[test]
    fn span_ring_wraps_without_growing() {
        let t = Telemetry::with_capacity(4, 4);
        let before = t.memory_bytes();
        for i in 0..100u64 {
            t.record_span("c", "s", i, i);
        }
        assert_eq!(t.memory_bytes(), before, "ring must not grow");
        assert_eq!(t.dropped_spans(), 96);
        assert_eq!(t.dropped_counter_samples(), 0, "only the span ring wrapped");
        for i in 0..9u64 {
            t.counter_sample("c", i, i as f64);
        }
        assert_eq!(t.dropped_counter_samples(), 5);
        let n = t.with_spans(|it| it.count()).unwrap();
        assert_eq!(n, 4);
        // The survivors are the most recent four.
        let last = t
            .with_spans(|it| it.map(|s| s.sim_ms).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(last, vec![96, 97, 98, 99]);
    }

    #[test]
    fn clone_shares_the_recorder() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.counter_sample("x", 0, 1.0);
        let c = t.counter("ticks");
        t.counter("ticks").add(2);
        assert_eq!(c.get(), 2, "same registry through clones");
    }
}
