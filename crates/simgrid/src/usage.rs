//! Per-node utilization sampling.
//!
//! The engine's allocate phase already computes, per step, how much CPU,
//! disk and NIC bandwidth every node is actually granted — but until now
//! that information died with the step. [`NodeUsageSampler`] accumulates it
//! as *time-weighted integrals* between sample boundaries, so the recorded
//! utilization of a window is exact regardless of how the adaptive stepper
//! partitioned it into steps (one 30 s macro-step and thirty 1 s ticks
//! integrate to the same number). At each sample boundary every node's
//! window means — normalized by the integrated step time, so the stamp's
//! grid alignment doesn't matter — are appended as one row to a single
//! row store; [`NodeUsageSampler::report`] rebuilds the per-node
//! [`TimeSeries`] once, thinned to a bounded point count, keeping report
//! size independent of run length. Windows in which a node integrated no
//! time (it was down, or the run hadn't started) produce no row: a gap in
//! the timeline *is* the downtime.

use crate::metrics::{thinning_stride, TimeSeries};
use crate::node::NodeSpec;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Per-node window accumulators: integrals of rate × seconds, plus the
/// seconds integrated.
const CHANNELS: usize = 6;
const CPU: usize = 0;
const DISK: usize = 1;
const NIC: usize = 2;
const MAP_OCC: usize = 3;
const REDUCE_OCC: usize = 4;
const DT: usize = 5;

/// Upper bound on points kept per exported series (see
/// [`NodeUsageSampler::report`]).
pub const MAX_UTILIZATION_POINTS: usize = 512;

/// Exported series per node, in [`NodeUtilization::series_mut`] order.
const SERIES: usize = 5;

/// Exported utilization timelines of one node. Utilizations are fractions
/// of the node's capacity in `[0, 1]`; occupancies are slot counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeUtilization {
    pub node: usize,
    /// Granted CPU ÷ cores, per sample window.
    pub cpu: TimeSeries,
    /// Granted disk bandwidth ÷ `disk_bw`.
    pub disk: TimeSeries,
    /// Fabric traffic ÷ `nic_bw` (the busier direction of the full-duplex
    /// link, so 1.0 means one direction is saturated).
    pub nic: TimeSeries,
    /// Mean occupied map slots over the window.
    pub map_occupied: TimeSeries,
    /// Mean occupied reduce slots over the window.
    pub reduce_occupied: TimeSeries,
}

impl NodeUtilization {
    fn with_capacity(node: usize, points: usize) -> NodeUtilization {
        NodeUtilization {
            node,
            cpu: TimeSeries::with_capacity(points),
            disk: TimeSeries::with_capacity(points),
            nic: TimeSeries::with_capacity(points),
            map_occupied: TimeSeries::with_capacity(points),
            reduce_occupied: TimeSeries::with_capacity(points),
        }
    }

    /// The series in row order: cpu, disk, nic, map and reduce occupancy.
    fn series_mut(&mut self) -> [&mut TimeSeries; SERIES] {
        [
            &mut self.cpu,
            &mut self.disk,
            &mut self.nic,
            &mut self.map_occupied,
            &mut self.reduce_occupied,
        ]
    }
}

/// One node's window means at one sample instant.
#[derive(Debug, Clone, Copy)]
struct Row {
    at: SimTime,
    node: u32,
    means: [f64; SERIES],
}

/// Accumulates per-node resource grants between sample boundaries.
///
/// Usage per step: call [`NodeUsageSampler::accumulate_all`] once (the
/// engine does), or [`NodeUsageSampler::accumulate`] once per live node,
/// with the step's granted *rates* and the step length, then
/// [`NodeUsageSampler::sample`] at each sample boundary. All per-step work
/// is flat array arithmetic — no allocation — and a sample appends to one
/// row store, so it allocates only when that store doubles, and not at
/// all when it samples into a [`RowStore`] an earlier, equal run grew
/// ([`NodeUsageSampler::lend_rows`]).
///
/// Serialized as the per-node series tree the sampler has always had
/// (`caps`, `acc`, `series`), so capsules keep their bytes; the row
/// store is converted at that boundary only.
#[derive(Debug, Clone)]
pub struct NodeUsageSampler {
    /// `(cores, disk_bw, nic_bw)` per node.
    caps: Vec<(f64, f64, f64)>,
    /// Window integrals per node.
    acc: Vec<[f64; CHANNELS]>,
    /// Every closed window with integrated time, in `(at, node)` order.
    rows: Vec<Row>,
}

/// The serialized form of [`NodeUsageSampler`].
#[derive(Serialize, Deserialize)]
struct SamplerWire {
    caps: Vec<(f64, f64, f64)>,
    acc: Vec<[f64; CHANNELS]>,
    series: Vec<NodeUtilization>,
}

impl Serialize for NodeUsageSampler {
    fn to_value(&self) -> serde::Value {
        SamplerWire {
            caps: self.caps.clone(),
            acc: self.acc.clone(),
            series: self.per_node(0),
        }
        .to_value()
    }
}

impl Deserialize for NodeUsageSampler {
    /// Rejects a sampler whose per-node arrays disagree in length, whose
    /// series are labelled out of node order, or whose node's five series
    /// differ in length or timestamps or run backwards in time.
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = SamplerWire::deserialize(v)?;
        let nodes = wire.caps.len();
        if wire.acc.len() != nodes || wire.series.len() != nodes {
            return Err(serde::Error::new(format!(
                "usage sampler covers {nodes} nodes but has {} accumulators and {} series",
                wire.acc.len(),
                wire.series.len()
            )));
        }
        let mut rows = Vec::new();
        for (i, mut u) in wire.series.into_iter().enumerate() {
            if u.node != i {
                return Err(serde::Error::new(format!(
                    "usage series {i} is labelled node {}",
                    u.node
                )));
            }
            let node = i as u32;
            let [cpu, rest @ ..] = u.series_mut();
            let times = cpu.points();
            if rest.iter().any(|ts| {
                ts.len() != times.len() || ts.points().iter().zip(times).any(|(p, q)| p.0 != q.0)
            }) {
                return Err(serde::Error::new(format!(
                    "usage series of node {i} disagree in length or timestamps"
                )));
            }
            if times.windows(2).any(|w| w[1].0 < w[0].0) {
                return Err(serde::Error::new(format!(
                    "usage series of node {i} run backwards in time"
                )));
            }
            for (k, &(at, cpu)) in times.iter().enumerate() {
                let mut means = [cpu; SERIES];
                for (m, ts) in means[1..].iter_mut().zip(&rest) {
                    *m = ts.points()[k].1;
                }
                rows.push(Row { at, node, means });
            }
        }
        // stable: a node's rows keep their order
        rows.sort_by_key(|r| (r.at, r.node));
        Ok(NodeUsageSampler {
            caps: wire.caps,
            acc: wire.acc,
            rows,
        })
    }
}

/// The backing allocation of a sampler's row store, kept between runs so
/// a run that samples from its start appends into the capacity an earlier
/// run grew instead of regrowing a store by doubling. Holds no rows.
#[derive(Debug, Default)]
pub struct RowStore(Vec<Row>);

impl RowStore {
    /// Backing bytes held.
    pub fn approx_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<Row>()
    }
}

impl NodeUsageSampler {
    pub fn new(specs: &[NodeSpec]) -> NodeUsageSampler {
        NodeUsageSampler {
            caps: specs
                .iter()
                .map(|s| (s.cores, s.disk_bw, s.nic_bw))
                .collect(),
            acc: vec![[0.0; CHANNELS]; specs.len()],
            rows: Vec::new(),
        }
    }

    pub fn nodes(&self) -> usize {
        self.caps.len()
    }

    /// Start a sampler that has closed no window yet on `store`'s
    /// allocation, leaving its own empty one in `store`, and return
    /// `true`. A sampler holding rows keeps them and returns `false`.
    pub fn lend_rows(&mut self, store: &mut RowStore) -> bool {
        if !self.rows.is_empty() {
            return false;
        }
        debug_assert!(store.0.is_empty(), "a row store holds rows");
        std::mem::swap(&mut self.rows, &mut store.0);
        true
    }

    /// Hand the row allocation back to `store`, cleared, once the rows
    /// have been reported: the inverse of a lend that returned `true`.
    /// The sampler keeps `store`'s empty allocation and no rows.
    pub fn return_rows(&mut self, store: &mut RowStore) {
        self.rows.clear();
        std::mem::swap(&mut self.rows, &mut store.0);
    }

    /// Fold one step's grants for `node` into the current window:
    /// `cpu_cores` cores' worth of CPU, `disk_rate` MB/s of disk bandwidth,
    /// `nic_rate` MB/s on the busier NIC direction, and the node's current
    /// slot occupancies, all sustained for `dt` seconds.
    // one scalar per channel: a parameter struct would just rename the
    // channels without removing any
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn accumulate(
        &mut self,
        node: usize,
        dt: f64,
        cpu_cores: f64,
        disk_rate: f64,
        nic_rate: f64,
        map_occupied: usize,
        reduce_occupied: usize,
    ) {
        let a = &mut self.acc[node];
        a[CPU] += cpu_cores * dt;
        a[DISK] += disk_rate * dt;
        a[NIC] += nic_rate * dt;
        a[MAP_OCC] += map_occupied as f64 * dt;
        a[REDUCE_OCC] += reduce_occupied as f64 * dt;
        a[DT] += dt;
    }

    /// Fold one step's grants for every node at once — equivalent to one
    /// [`NodeUsageSampler::accumulate`] call per up node, but as a single
    /// pass over dense per-node arrays (the engine's step scratch), cheap
    /// enough for the innermost loop. `nic_in`/`nic_out` are folded to the
    /// busier direction here so callers can hand over raw per-direction
    /// totals.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn accumulate_all(
        &mut self,
        dt: f64,
        up: &[bool],
        cpu: &[f64],
        disk: &[f64],
        nic_in: &[f64],
        nic_out: &[f64],
        map_occupied: &[usize],
        reduce_occupied: &[usize],
    ) {
        let n = self.acc.len();
        assert!(
            up.len() == n
                && cpu.len() == n
                && disk.len() == n
                && nic_in.len() == n
                && nic_out.len() == n
                && map_occupied.len() == n
                && reduce_occupied.len() == n,
            "per-node arrays must cover all {n} nodes"
        );
        for i in 0..n {
            if !up[i] {
                continue;
            }
            let a = &mut self.acc[i];
            a[CPU] += cpu[i] * dt;
            a[DISK] += disk[i] * dt;
            a[NIC] += nic_in[i].max(nic_out[i]) * dt;
            a[MAP_OCC] += map_occupied[i] as f64 * dt;
            a[REDUCE_OCC] += reduce_occupied[i] as f64 * dt;
            a[DT] += dt;
        }
    }

    /// Close the window, appending each node's normalized window means
    /// as a row stamped `now`. Nodes that integrated no time this window
    /// get no row.
    pub fn sample(&mut self, now: SimTime) {
        for (n, a) in self.acc.iter_mut().enumerate() {
            let dt = a[DT];
            if dt <= 0.0 {
                continue;
            }
            let (cores, disk_bw, nic_bw) = self.caps[n];
            self.rows.push(Row {
                at: now,
                node: n as u32,
                means: [
                    a[CPU] / dt / cores.max(1e-9),
                    a[DISK] / dt / disk_bw.max(1e-9),
                    a[NIC] / dt / nic_bw.max(1e-9),
                    a[MAP_OCC] / dt,
                    a[REDUCE_OCC] / dt,
                ],
            });
            *a = [0.0; CHANNELS];
        }
    }

    /// Every node's timelines, each series thinned to at most
    /// [`MAX_UTILIZATION_POINTS`] points (plus its last) so report size is
    /// bounded no matter how long the run was.
    pub fn report(&self) -> Vec<NodeUtilization> {
        self.per_node(MAX_UTILIZATION_POINTS)
    }

    /// The rows regrouped per node, each series thinned as
    /// [`TimeSeries::thinned`] thins it (`max_points == 0` keeps all).
    fn per_node(&self, max_points: usize) -> Vec<NodeUtilization> {
        let nodes = self.caps.len();
        let mut count = vec![0usize; nodes];
        let mut last = vec![0usize; nodes];
        for (i, r) in self.rows.iter().enumerate() {
            count[r.node as usize] += 1;
            last[r.node as usize] = i;
        }
        let stride: Vec<usize> = count
            .iter()
            .map(|&c| thinning_stride(c, max_points))
            .collect();
        let mut out: Vec<NodeUtilization> = (0..nodes)
            .map(|n| NodeUtilization::with_capacity(n, count[n].div_ceil(stride[n]) + 1))
            .collect();
        let mut seen = vec![0usize; nodes];
        for r in &self.rows {
            let n = r.node as usize;
            if seen[n].is_multiple_of(stride[n]) {
                for (ts, &v) in out[n].series_mut().into_iter().zip(&r.means) {
                    ts.push(r.at, v);
                }
            }
            seen[n] += 1;
        }
        // thinning keeps each series' endpoint
        for n in (0..nodes).filter(|&n| stride[n] > 1) {
            let r = &self.rows[last[n]];
            for (ts, &v) in out[n].series_mut().into_iter().zip(&r.means) {
                if ts.last() != Some((r.at, v)) {
                    ts.push(r.at, v);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(nodes: usize) -> NodeUsageSampler {
        let specs: Vec<NodeSpec> = (0..nodes).map(|_| NodeSpec::paper_worker()).collect();
        NodeUsageSampler::new(&specs)
    }

    #[test]
    fn window_means_are_time_weighted() {
        let mut s = sampler(1);
        // 8 cores for 1s, then 16 cores for 3s → mean 14 cores = 0.875
        s.accumulate(0, 1.0, 8.0, 0.0, 0.0, 2, 1);
        s.accumulate(0, 3.0, 16.0, 110.0, 62.5, 3, 1);
        s.sample(SimTime::from_secs(4));
        let rep = s.report();
        let u = &rep[0];
        let (_, cpu) = u.cpu.last().unwrap();
        assert!((cpu - 14.0 / 16.0).abs() < 1e-12);
        let (_, disk) = u.disk.last().unwrap();
        assert!((disk - (110.0 * 3.0 / 4.0) / 220.0).abs() < 1e-12);
        let (_, occ) = u.map_occupied.last().unwrap();
        assert!((occ - (2.0 + 3.0 * 3.0) / 4.0).abs() < 1e-12);
        let (_, nic) = u.nic.last().unwrap();
        assert!((nic - (62.5 * 3.0 / 4.0) / 125.0).abs() < 1e-12);
    }

    #[test]
    fn partition_invariance_across_steps() {
        // one macro-step vs many micro-steps of the same rates integrate
        // to identical window means — the property that makes sampling
        // correct under adaptive stepping
        let mut coarse = sampler(2);
        let mut fine = sampler(2);
        coarse.accumulate(1, 10.0, 4.0, 50.0, 20.0, 1, 2);
        for _ in 0..1000 {
            fine.accumulate(1, 0.01, 4.0, 50.0, 20.0, 1, 2);
        }
        coarse.sample(SimTime::from_secs(10));
        fine.sample(SimTime::from_secs(10));
        let (coarse, fine) = (coarse.report(), fine.report());
        let (a, b) = (&coarse[1], &fine[1]);
        for (x, y) in [
            (&a.cpu, &b.cpu),
            (&a.disk, &b.disk),
            (&a.nic, &b.nic),
            (&a.reduce_occupied, &b.reduce_occupied),
        ] {
            let (_, xv) = x.last().unwrap();
            let (_, yv) = y.last().unwrap();
            assert!((xv - yv).abs() < 1e-9, "{xv} vs {yv}");
        }
        // node 0 never integrated time: no points at all
        assert!(coarse[0].cpu.is_empty());
    }

    #[test]
    fn empty_window_yields_no_point() {
        let mut s = sampler(1);
        s.sample(SimTime::from_secs(1)); // nothing integrated yet
        assert!(s.report()[0].cpu.is_empty());
        s.accumulate(0, 1.0, 16.0, 0.0, 0.0, 0, 0);
        s.sample(SimTime::from_secs(2));
        s.sample(SimTime::from_secs(3)); // empty again: gap, not a zero
        assert_eq!(s.report()[0].cpu.len(), 1);
    }

    #[test]
    fn report_is_bounded_and_ordered() {
        let mut s = sampler(1);
        for sec in 1..=2000u64 {
            s.accumulate(0, 1.0, 1.0, 0.0, 0.0, 1, 0);
            s.sample(SimTime::from_secs(sec));
        }
        let rep = s.report();
        assert_eq!(rep.len(), 1);
        assert!(rep[0].cpu.len() <= MAX_UTILIZATION_POINTS + 1);
        assert_eq!(rep[0].node, 0);
        // endpoints survive thinning
        assert_eq!(rep[0].cpu.last().unwrap().0, SimTime::from_secs(2000));
    }

    /// The per-node series as the retired sampler kept them: five
    /// `TimeSeries` per node, pushed at every sample.
    fn reference_series(samples: &[(u64, Vec<Option<[f64; SERIES]>>)]) -> Vec<NodeUtilization> {
        let nodes = samples[0].1.len();
        let mut out: Vec<NodeUtilization> = (0..nodes)
            .map(|n| NodeUtilization::with_capacity(n, 0))
            .collect();
        for (at, per_node) in samples {
            for (n, means) in per_node.iter().enumerate() {
                if let Some(means) = means {
                    for (ts, &v) in out[n].series_mut().into_iter().zip(means) {
                        ts.push(SimTime::from_millis(*at), v);
                    }
                }
            }
        }
        out
    }

    fn bits(u: &[NodeUtilization]) -> Vec<Vec<(u64, u64)>> {
        u.iter()
            .flat_map(|n| [&n.cpu, &n.disk, &n.nic, &n.map_occupied, &n.reduce_occupied])
            .map(|ts| {
                ts.points()
                    .iter()
                    .map(|&(t, v)| (t.as_millis(), v.to_bits()))
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        /// The row store reports and serializes exactly what per-node
        /// series would have held, thinned or not, gaps included, and the
        /// serialized tree loads back to the same sampler.
        #[test]
        fn row_store_matches_per_node_series(
            windows in proptest::collection::vec(
                proptest::collection::vec((0usize..4, 0.0f64..16.0, 0.0f64..2.0), 0..6),
                1..1200,
            ),
        ) {
            let nodes = 3;
            let mut s = sampler(nodes);
            let mut samples = Vec::new();
            for (w, grants) in windows.iter().enumerate() {
                let mut per_node = vec![None; nodes];
                for &(n, cores, dt) in grants {
                    if n < nodes && dt > 0.0 {
                        s.accumulate(n, dt, cores, cores * 10.0, cores * 5.0, n, 1);
                    }
                }
                for (n, slot) in per_node.iter_mut().enumerate() {
                    let a = s.acc[n];
                    if a[DT] > 0.0 {
                        let (cores, disk_bw, nic_bw) = s.caps[n];
                        *slot = Some([
                            a[CPU] / a[DT] / cores.max(1e-9),
                            a[DISK] / a[DT] / disk_bw.max(1e-9),
                            a[NIC] / a[DT] / nic_bw.max(1e-9),
                            a[MAP_OCC] / a[DT],
                            a[REDUCE_OCC] / a[DT],
                        ]);
                    }
                }
                let at = 1000 * (w as u64 + 1);
                s.sample(SimTime::from_millis(at));
                samples.push((at, per_node));
            }
            let whole = reference_series(&samples);
            proptest::prop_assert_eq!(bits(&s.per_node(0)), bits(&whole));
            let thinned: Vec<NodeUtilization> = whole
                .iter()
                .map(|u| {
                    let mut t = NodeUtilization::with_capacity(u.node, 0);
                    for (dst, src) in t.series_mut().into_iter().zip([&u.cpu, &u.disk, &u.nic, &u.map_occupied, &u.reduce_occupied]) {
                        for (at, v) in src.thinned(MAX_UTILIZATION_POINTS) {
                            dst.push(at, v);
                        }
                    }
                    t
                })
                .collect();
            proptest::prop_assert_eq!(bits(&s.report()), bits(&thinned));
            let wire = s.to_value();
            let legacy = SamplerWire { caps: s.caps.clone(), acc: s.acc.clone(), series: whole }.to_value();
            proptest::prop_assert_eq!(&wire, &legacy);
            let back = NodeUsageSampler::deserialize(&wire).unwrap();
            proptest::prop_assert_eq!(bits(&back.report()), bits(&s.report()));
            proptest::prop_assert_eq!(back.to_value(), wire);
        }
    }

    /// `v` with `f` applied to the array under object key `key`.
    fn edited(v: &serde::Value, key: &str, f: impl Fn(&mut Vec<serde::Value>)) -> serde::Value {
        let mut v = v.clone();
        let mut field = v.get(key).expect("field present").clone();
        if let serde::Value::Array(items) = &mut field {
            f(items);
        }
        v.set(key, field);
        v
    }

    #[test]
    fn mis_sized_samplers_are_rejected() {
        let mut s = sampler(3);
        for sec in 1..=3u64 {
            s.accumulate(0, 1.0, 4.0, 10.0, 5.0, 1, 1);
            s.accumulate(2, 1.0, 4.0, 10.0, 5.0, 1, 1);
            s.sample(SimTime::from_secs(sec));
        }
        let good = s.to_value();
        assert!(NodeUsageSampler::deserialize(&good).is_ok());
        let short_acc = edited(&good, "acc", |a| {
            a.pop();
        });
        let short_series = edited(&good, "series", |a| {
            a.pop();
        });
        // node 0's disk series loses its last point
        let ragged = edited(&good, "series", |a| {
            let mut disk = a[0].get("disk").unwrap().clone();
            disk.set("points", {
                let mut pts = disk.get("points").unwrap().clone();
                if let serde::Value::Array(p) = &mut pts {
                    p.pop();
                }
                pts
            });
            a[0].set("disk", disk);
        });
        // node 2's nic series is stamped a second late
        let skewed = edited(&good, "series", |a| {
            let mut nic = a[2].get("nic").unwrap().clone();
            let mut pts = nic.get("points").unwrap().clone();
            if let serde::Value::Array(p) = &mut pts {
                if let serde::Value::Array(pt) = &mut p[0] {
                    pt[0] = SimTime::from_millis(1500).to_value();
                }
            }
            nic.set("points", pts);
            a[2].set("nic", nic);
        });
        for (case, v) in [
            ("truncated acc", short_acc),
            ("short series", short_series),
            ("ragged channel", ragged),
            ("skewed channel", skewed),
        ] {
            assert!(NodeUsageSampler::deserialize(&v).is_err(), "{case} loads");
        }
    }
}
