//! The traced run's own spans and its per-layer table.
//!
//! Spans are recorded from the benchmark's side of each public call
//! (name, start, end, parent, op id), kept in memory and written out when
//! the run ends. A layer's self time is its span's duration minus the
//! part its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use telemetry::Telemetry;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals of a trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Time `f` as a leaf span; returns its result and duration (ns).
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name, op);
        let out = f();
        let ns = self.exit(id);
        (out, ns)
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// One row of the per-layer table: a value, or the reason there is none.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Result<f64, String>,
}

impl Layer {
    pub fn ok(name: &'static str, unit: &'static str, value: f64) -> Layer {
        Layer {
            name,
            unit,
            value: Ok(value),
        }
    }
}

/// Sums of a span kind the program records per step or per call.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanMean {
    pub count: u64,
    pub total_us: u64,
}

impl SpanMean {
    pub fn add(&mut self, dur_us: u64) {
        self.count += 1;
        self.total_us += dur_us;
    }

    pub fn mean_us(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_us as f64 / self.count as f64)
    }
}

/// Program spans have a 1 µs clock; a mean below this many µs is too
/// close to the resolution to report.
pub const SPAN_FLOOR_US: f64 = 10.0;

/// A program-span mean as a layer value: resolved only when far above
/// the span clock's resolution.
pub fn span_layer(name: &'static str, mean: &SpanMean, scale: f64) -> Layer {
    let value = match mean.mean_us() {
        None => Err("no spans recorded on this workload".to_string()),
        Some(us) if us < SPAN_FLOOR_US => Err(format!(
            "mean span {us:.2} µs over {} spans is within 10x of the 1 µs span clock",
            mean.count
        )),
        Some(us) => Ok(us * scale),
    };
    Layer {
        name,
        unit: "us",
        value,
    }
}

/// Means of the spans the program itself records, folded from a fresh
/// sink per op.
#[derive(Default)]
pub struct ProgramSpans {
    allocate_nodes: SpanMean,
    network_allocate: SpanMean,
    event_horizon: SpanMean,
    advance_maps: SpanMean,
    advance_reduces: SpanMean,
    heartbeat: SpanMean,
    sample: SpanMean,
    smr_decide: SpanMean,
    yarn_decide: SpanMean,
}

impl ProgramSpans {
    /// Fold one op's sink; `system` attributes the policy's spans.
    pub fn absorb(&mut self, telem: &Telemetry, system: &str) {
        telem.with_spans(|spans| {
            for s in spans {
                let slot = match (s.cat, s.name) {
                    ("step", "allocate_nodes") => &mut self.allocate_nodes,
                    ("step", "network_allocate") => &mut self.network_allocate,
                    ("step", "event_horizon") => &mut self.event_horizon,
                    ("step", "advance_maps") => &mut self.advance_maps,
                    ("step", "advance_reduces") => &mut self.advance_reduces,
                    ("engine", "heartbeat_round") => &mut self.heartbeat,
                    ("engine", "sample") => &mut self.sample,
                    ("heartbeat", "policy_decide") => match system {
                        "SMapReduce" => &mut self.smr_decide,
                        "YARN" => &mut self.yarn_decide,
                        _ => continue,
                    },
                    _ => continue,
                };
                slot.add(s.dur_us);
            }
        });
    }

    /// One layer per span kind, timings scaled by `scale`.
    pub fn layers(&self, scale: f64) -> Vec<Layer> {
        vec![
            span_layer("simgrid.allocate_nodes_us", &self.allocate_nodes, scale),
            span_layer("simgrid.network_allocate_us", &self.network_allocate, scale),
            span_layer("simgrid.event_horizon_us", &self.event_horizon, scale),
            span_layer("mapreduce.advance_maps_us", &self.advance_maps, scale),
            span_layer("mapreduce.advance_reduces_us", &self.advance_reduces, scale),
            span_layer("mapreduce.heartbeat_us", &self.heartbeat, scale),
            span_layer("mapreduce.sample_us", &self.sample, scale),
            span_layer("smapreduce.policy_decide_us", &self.smr_decide, scale),
            span_layer("yarn.policy_decide_us", &self.yarn_decide, scale),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::default();
        let op = t.enter("op", 1);
        let (_, a) = t.leaf("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, b) = t.leaf("b", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let total = t.exit(op);
        let totals = t.totals();
        let o = totals["op"];
        assert_eq!(o.count, 1);
        assert_eq!(o.total_ns, total);
        assert_eq!(o.self_ns, total - a - b);
        assert_eq!(totals["a"].self_ns, a);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"name\":\"b\"") && lines.contains("\"parent\":0"));
    }

    #[test]
    fn spans_near_the_clock_resolution_are_unresolved() {
        let mut m = SpanMean::default();
        assert!(span_layer("x", &m, 1.0).value.is_err());
        m.add(3);
        m.add(4);
        assert!(span_layer("x", &m, 1.0).value.is_err());
        m.add(200);
        assert_eq!(span_layer("x", &m, 0.5).value, Ok(207.0 / 3.0 * 0.5));
    }
}
