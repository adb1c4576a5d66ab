//! The node half of the allocate phase, carried from step to step.
//!
//! Every step needs each running task's contention scale (its share of
//! its node's CPU and disk, times the node's management-stall factor),
//! each node's granted CPU and disk and its slot occupancy for the usage
//! sampler, and the cluster's offered and granted CPU for the run's
//! integrals. Those depend only on which tasks run where, each reduce's
//! phase, each node's stall and up state, and whether any job is active.
//! Tasks start and end a few at a time and the slot manager retargets a
//! node only at heartbeats, so most steps change none of that, and most
//! others change it on one or two nodes.
//!
//! [`NodeAlloc`] therefore keeps the last step's allocation and
//! recomputes only the nodes marked since ([`NodeAlloc::mark`]). The
//! engine marks a node when a slot launches or releases on it (every
//! stage and retirement on the task tables comes with one), when a reduce
//! on it changes phase, when its stall starts or decays, and when it
//! crashes or rejoins ([`NodeAlloc::mark_up_flip`], which also makes the
//! offered capacity stale). A stepping call starts with every node marked,
//! and a full recompute is the same code with every node marked.
//!
//! Every float comes from the same operations in the same order as a
//! recompute from scratch: an unmarked node's tasks take their scales
//! from its cached shares by the one formula, a marked node's sums start
//! from 0 and add its tasks in row order, and `granted` is summed again
//! over the cached per-task contributions in node order, then row order.

use super::EngineState;
use crate::arena::{reset_filled, vec_bytes};
use crate::job::JobProfile;
use simgrid::cluster::NodeId;
use simgrid::node::{NodeScales, TaskDemand};

/// One task of a node's list.
#[derive(Debug, Clone, Copy)]
struct NodeTask {
    /// The task's scale-table index; current only while its node is
    /// marked, since other nodes' launches and retirements shift it.
    row: usize,
    demand: TaskDemand,
    /// The CPU cores it was granted.
    cpu: f64,
}

/// The node allocation of the last step, and the nodes marked since.
#[derive(Debug, Default)]
pub(crate) struct NodeAlloc {
    /// Per-row scale table: one entry per map row, then one per reduce
    /// row, including the stall factor; a task on a down node scores 0.
    /// Lent to the step's rates and handed back after integrate.
    pub(crate) scales: Vec<f64>,
    /// Per node: granted CPU cores and disk MB/s, and the slot occupancy
    /// when the node was last recomputed (a down node keeps the value it
    /// had when it went down; the usage sampler skips down nodes).
    pub(crate) node_cpu: Vec<f64>,
    pub(crate) node_disk: Vec<f64>,
    pub(crate) occ_map: Vec<usize>,
    pub(crate) occ_reduce: Vec<usize>,
    /// Per node: its CPU and disk shares and the factor on every task
    /// scale there: the stall factor, or 0 while the node is down.
    shares: Vec<(NodeScales, f64)>,
    /// Per node: its tasks in row order, as of its last recompute; a down
    /// node lists none.
    tasks: Vec<Vec<NodeTask>>,
    demands: Vec<TaskDemand>,
    marked: Vec<bool>,
    /// The marked nodes, in marking order.
    dirty: Vec<usize>,
    granted: f64,
    offered: f64,
    /// The "any job active" value `offered` was summed for; `None` once a
    /// node's up state has flipped since.
    offered_for: Option<bool>,
}

impl NodeAlloc {
    /// Size every per-node buffer for a `workers`-node run and mark every
    /// node. Returns `true` when a backing allocation had to grow.
    pub(crate) fn reset(&mut self, workers: usize) -> bool {
        let before = self.approx_bytes();
        self.scales.clear();
        reset_filled(&mut self.node_cpu, workers, 0.0);
        reset_filled(&mut self.node_disk, workers, 0.0);
        reset_filled(&mut self.occ_map, workers, 0);
        reset_filled(&mut self.occ_reduce, workers, 0);
        reset_filled(&mut self.shares, workers, (NodeScales::default(), 1.0));
        for list in &mut self.tasks {
            list.clear();
        }
        self.tasks.resize_with(workers, Vec::new);
        self.demands.clear();
        self.marked.clear();
        self.dirty.clear();
        self.marked.resize(workers, false);
        self.mark_all();
        self.approx_bytes() > before
    }

    /// Backing bytes of every buffer, the nested lists' included.
    pub(crate) fn approx_bytes(&self) -> usize {
        vec_bytes(&self.scales)
            + vec_bytes(&self.node_cpu)
            + vec_bytes(&self.node_disk)
            + vec_bytes(&self.occ_map)
            + vec_bytes(&self.occ_reduce)
            + vec_bytes(&self.shares)
            + vec_bytes(&self.tasks)
            + self.tasks.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.demands)
            + vec_bytes(&self.marked)
            + vec_bytes(&self.dirty)
    }

    /// Recompute `node` at the next step.
    pub(super) fn mark(&mut self, node: NodeId) {
        if !self.marked[node.0] {
            self.marked[node.0] = true;
            self.dirty.push(node.0);
        }
    }

    /// `node` crashed or rejoined: recompute it and the offered capacity.
    pub(super) fn mark_up_flip(&mut self, node: NodeId) {
        self.mark(node);
        self.offered_for = None;
    }

    /// Recompute every node and the offered capacity at the next step.
    pub(super) fn mark_all(&mut self) {
        for n in 0..self.marked.len() {
            self.mark(NodeId(n));
        }
        self.offered_for = None;
    }

    /// Cluster CPU granted (cores) and offered (cores, while any job is
    /// active) by the current allocation.
    pub(super) fn totals(&self) -> (f64, f64) {
        (self.granted, self.offered)
    }

    /// Bring the allocation up to date with `st`, recomputing only the
    /// marked nodes: with no mark the scale table and totals stand as
    /// they are; otherwise one walk over the rows writes the unmarked
    /// nodes' task scales from their cached shares and gathers the marked
    /// nodes' demands. In fixed mode a stall is amortised across the tick
    /// it partly covers; the adaptive stepper freezes the node outright
    /// and lets the horizon cut the step at stall expiry instead.
    pub(super) fn update(
        &mut self,
        st: &EngineState,
        profiles: &[JobProfile],
        fixed: bool,
        any_active: bool,
    ) {
        if self.offered_for != Some(any_active) {
            let mut offered = 0.0;
            if any_active {
                for (n, &up) in st.node_up.iter().enumerate() {
                    if up {
                        offered += st.config.cluster.node_spec(NodeId(n)).cores;
                    }
                }
            }
            self.offered = offered;
            self.offered_for = Some(any_active);
        }
        if self.dirty.is_empty() {
            return;
        }
        for &n in &self.dirty {
            self.tasks[n].clear();
        }
        self.scales.clear();
        for (id, t) in st.running_maps.rows() {
            self.place(t.node.0, profiles[id.task.job.0].map_demand());
        }
        for (id, t) in st.running_reduces.rows() {
            self.place(t.node.0, t.demand(&profiles[id.job.0]));
        }
        let tick_ms = st.config.tick.tick.as_millis() as f64;
        for &n in &self.dirty {
            self.marked[n] = false;
            let tasks = &mut self.tasks[n];
            self.node_cpu[n] = 0.0;
            self.node_disk[n] = 0.0;
            if !st.node_up[n] {
                // a dead node offers no CPU; its tasks freeze at scale 0
                // (the walk wrote 0) until the expiry interval declares
                // them lost
                self.shares[n].1 = 0.0;
                tasks.clear();
                continue;
            }
            let tr = &st.trackers[n];
            self.occ_map[n] = tr.map_slots.occupied();
            self.occ_reduce[n] = tr.reduce_slots.occupied();
            if tasks.is_empty() {
                continue;
            }
            self.demands.clear();
            self.demands.extend(tasks.iter().map(|t| t.demand));
            let scales = NodeScales::of(st.config.cluster.node_spec(NodeId(n)), &self.demands);
            let stall_factor = if fixed {
                1.0 - tr.stall_ms.min(tick_ms as u64) as f64 / tick_ms
            } else if tr.stall_ms > 0 {
                0.0
            } else {
                1.0
            };
            self.shares[n] = (scales, stall_factor);
            for t in tasks.iter_mut() {
                let d = t.demand;
                let s = scales.task(&d);
                t.cpu = d.cpu_cores * s * stall_factor;
                self.node_cpu[n] += t.cpu;
                self.node_disk[n] += (d.disk_read + d.disk_write) * s * stall_factor;
                self.scales[t.row] = s * stall_factor;
            }
        }
        self.dirty.clear();
        self.granted = 0.0;
        for t in self.tasks.iter().flatten() {
            self.granted += t.cpu;
        }
    }

    /// Append the scale-table row of a task with demand `d` on node `n`:
    /// from the node's cached shares when it is unmarked (a down node's
    /// factor of 0 gives the 0 its tasks score), else a placeholder its
    /// recompute overwrites.
    #[inline]
    fn place(&mut self, n: usize, d: TaskDemand) {
        let scale = if self.marked[n] {
            self.tasks[n].push(NodeTask {
                row: self.scales.len(),
                demand: d,
                cpu: 0.0,
            });
            0.0
        } else {
            let (scales, factor) = self.shares[n];
            scales.task(&d) * factor
        };
        self.scales.push(scale);
    }

    /// Every output of the allocation as bits, in one fixed order: the
    /// scale table, granted and offered CPU, then per node CPU, disk and
    /// both occupancies.
    pub(super) fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        fn floats(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
            v.iter().map(|x| x.to_bits())
        }
        floats(&self.scales)
            .chain([self.granted.to_bits(), self.offered.to_bits()])
            .chain(floats(&self.node_cpu))
            .chain(floats(&self.node_disk))
            .chain(self.occ_map.iter().map(|&o| o as u64))
            .chain(self.occ_reduce.iter().map(|&o| o as u64))
    }
}
