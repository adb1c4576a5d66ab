//! Switched-fabric network model.
//!
//! Nodes are connected through a non-blocking switch (the paper's testbed:
//! one 16-port GbE switch), so the only capacity constraints are the NICs:
//! each node has an egress cap and an ingress cap of `nic_bw` MB/s.
//! Bandwidth is divided among active [`Flow`]s by **max-min fairness**
//! (progressive filling / water-filling): repeatedly find the most
//! constrained port, give every unfrozen flow through it an equal share,
//! freeze those flows, subtract, and continue. Flows may also carry a finite
//! demand cap (a shuffle fetch cannot consume more than the data remaining).
//!
//! **Incast**: when many senders converge on one receiver, TCP throughput
//! collapses below the link rate. The paper mitigates (not eliminates) this
//! by lowering `RTO_min` from 200 ms to 1 ms; we model the residual effect
//! as a receiver-side efficiency factor that decays gently with the number
//! of concurrent incoming flows. This is what makes "too many reduce slots
//! jam the network" true in the reproduction, exactly the behaviour §III-B3
//! relies on.

use crate::cluster::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Recycled dense scratch for [`Fabric::allocate_into`]: cluster-sized
/// slabs indexed by `NodeId` plus the call's port lists and a flow-sized
/// worklist. Reset is O(1) via epoch stamps — slabs are never cleared, only
/// re-stamped — so a warm scratch makes the whole allocate phase
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FabricScratch {
    /// Remaining egress capacity per node (valid where `cap_eg_stamp` is
    /// the current epoch).
    egress_cap: Vec<f64>,
    /// Remaining ingress capacity per node.
    ingress_cap: Vec<f64>,
    cap_eg_stamp: Vec<u64>,
    cap_in_stamp: Vec<u64>,
    /// Total incoming flows per receiver (drives the incast model).
    incoming: Vec<u32>,
    /// Unfrozen flows per port, counted each round and zeroed again as
    /// the round reads them, so every count is zero between calls.
    eg_users: Vec<u32>,
    in_users: Vec<u32>,
    /// Each port's fair share this round: remaining capacity ÷ users,
    /// taken before any flow freezes.
    eg_share: Vec<f64>,
    in_share: Vec<f64>,
    /// The call's distinct sender and receiver ports, in first-seen
    /// order; each holds at most one entry per node.
    eg_ports: Vec<usize>,
    in_ports: Vec<usize>,
    /// Sorted worklist of unfrozen flow indices.
    active: Vec<usize>,
    /// Bumped once per allocate call; stamps cap/incoming validity.
    epoch: u64,
}

impl FabricScratch {
    pub fn new() -> FabricScratch {
        FabricScratch::default()
    }

    /// Grow every node slab, and the port lists' capacity, to at least
    /// `nodes` entries (never shrinks).
    fn ensure(&mut self, nodes: usize) {
        if self.egress_cap.len() < nodes {
            self.egress_cap.resize(nodes, 0.0);
            self.ingress_cap.resize(nodes, 0.0);
            self.cap_eg_stamp.resize(nodes, 0);
            self.cap_in_stamp.resize(nodes, 0);
            self.incoming.resize(nodes, 0);
            self.eg_users.resize(nodes, 0);
            self.in_users.resize(nodes, 0);
            self.eg_share.resize(nodes, 0.0);
            self.in_share.resize(nodes, 0.0);
            self.eg_ports.reserve(nodes);
            self.in_ports.reserve(nodes);
        }
    }

    /// Approximate resident bytes across all slabs and lists (peak-RSS
    /// proxy); monotonic, so arenas can detect growth by comparing
    /// snapshots.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let node = self.egress_cap.capacity();
        node * (4 * size_of::<f64>() + 3 * size_of::<u32>() + 2 * size_of::<u64>())
            + (self.eg_ports.capacity() + self.in_ports.capacity() + self.active.capacity())
                * size_of::<usize>()
    }
}

/// Identifier of a flow within one allocation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// One point-to-point transfer competing for bandwidth this tick.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    pub id: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Upper bound on useful rate (MB/s); `f64::INFINITY` for "as fast as
    /// the network allows".
    pub demand: f64,
}

/// Fabric-wide parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Per-node NIC bandwidth in each direction (MB/s).
    pub nic_bw: f64,
    /// Incast decay coefficient per concurrent incoming flow beyond
    /// `incast_free_flows`. With the paper's 1 ms `RTO_min` tuning this is
    /// mild; set higher to model an untuned network.
    pub incast_coeff: f64,
    /// Number of concurrent incoming flows a receiver sustains at full
    /// efficiency.
    pub incast_free_flows: f64,
    /// Per-flow protocol efficiency cap (TCP never achieves 100% of line
    /// rate; headers, ACK clocking).
    pub protocol_eff: f64,
}

impl FabricConfig {
    /// The paper's testbed: 1 GbE per node, `RTO_min` = 1 ms (mild incast).
    pub fn paper_gbe() -> FabricConfig {
        FabricConfig {
            nic_bw: 125.0,
            // Residual incast after the RTO_min=1 ms tuning: mild around
            // the default 2-reducers-per-node regime (~10 incoming flows),
            // but heavy fan-in (5+ reducers × 5 fetchers converging on one
            // port) still collapses badly — the "network jam" §III-B3
            // guards against.
            incast_coeff: 0.08,
            incast_free_flows: 10.0,
            protocol_eff: 0.94,
        }
    }

    /// Effective ingress capacity of a receiver with `n` concurrent
    /// incoming flows.
    pub fn ingress_capacity(&self, n: usize) -> f64 {
        let n = n as f64;
        let eff = if n <= self.incast_free_flows {
            1.0
        } else {
            1.0 / (1.0 + self.incast_coeff * (n - self.incast_free_flows))
        };
        self.nic_bw * self.protocol_eff * eff
    }

    /// Egress capacity of a sender (no incast on the send side).
    pub fn egress_capacity(&self) -> f64 {
        self.nic_bw * self.protocol_eff
    }
}

/// The fabric allocator. Stateless between rounds; kept as a struct so the
/// engine can hold one with its config.
///
/// ```
/// use simgrid::network::{Fabric, FabricConfig, Flow, FlowId};
/// use simgrid::cluster::NodeId;
///
/// let fabric = Fabric::new(FabricConfig::paper_gbe());
/// // two flows into one receiver: the NIC is shared max-min fairly
/// let flows = vec![
///     Flow { id: FlowId(0), src: NodeId(1), dst: NodeId(0), demand: f64::INFINITY },
///     Flow { id: FlowId(1), src: NodeId(2), dst: NodeId(0), demand: f64::INFINITY },
/// ];
/// let rates = fabric.allocate(&flows);
/// assert!((rates[&FlowId(0)] - rates[&FlowId(1)]).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    pub config: FabricConfig,
}

/// Result of one allocation round: rate per flow (MB/s).
pub type FlowRates = HashMap<FlowId, f64>;

impl Fabric {
    pub fn new(config: FabricConfig) -> Fabric {
        Fabric { config }
    }

    /// Max-min fair allocation of the given flows.
    ///
    /// Convenience wrapper over [`Fabric::allocate_into`] with a private
    /// scratch; callers in a step loop should hold a [`FabricScratch`] and
    /// a rate buffer instead and call `allocate_into` directly.
    pub fn allocate(&self, flows: &[Flow]) -> FlowRates {
        let nodes = flows
            .iter()
            .map(|f| f.src.0.max(f.dst.0) + 1)
            .max()
            .unwrap_or(0);
        let mut scratch = FabricScratch::new();
        let mut rates = Vec::new();
        self.allocate_into(flows, nodes, &mut scratch, &mut rates);
        flows.iter().zip(&rates).map(|(f, &r)| (f.id, r)).collect()
    }

    /// Max-min fair allocation over dense per-node slabs.
    ///
    /// `rates[i]` receives the rate of `flows[i]` (positional — callers
    /// that need `FlowId` keys zip against their own flow list). Every
    /// endpoint must be a valid dense index below `nodes`. The scratch is
    /// reset in place via epoch stamps, so a warm call allocates nothing.
    ///
    /// The fill works per port: the first pass lists the call's distinct
    /// sender and receiver ports, and each round counts the ports' users
    /// in one pass over the unfrozen flows, then takes one quotient per
    /// port for both the bottleneck share and the bottleneck test. The
    /// freeze passes walk the flows in index order, so every port is
    /// debited in the same order by the same amounts as a per-flow fill.
    ///
    /// Guarantees (checked by unit and property tests, plus a differential
    /// proptest against the retired `HashMap` reference implementation):
    /// * no flow exceeds its demand;
    /// * per-port totals respect ingress/egress capacities;
    /// * the allocation is max-min fair: a flow's rate can only be below
    ///   the fair share of every port it crosses if its demand caps it;
    /// * bit-identical results to the reference implementation.
    pub fn allocate_into(
        &self,
        flows: &[Flow],
        nodes: usize,
        s: &mut FabricScratch,
        rates: &mut Vec<f64>,
    ) {
        rates.clear();
        rates.resize(flows.len(), 0.0);
        if flows.is_empty() {
            return;
        }
        s.ensure(nodes);
        s.epoch += 1;
        let epoch = s.epoch;

        // Pass 1: validate endpoints, list each distinct port once, count
        // incoming flows per receiver and stamp fresh egress capacities.
        // Ports are (node, direction).
        s.eg_ports.clear();
        s.in_ports.clear();
        for f in flows {
            let src = f.src.slot(nodes);
            let dst = f.dst.slot(nodes);
            if s.cap_eg_stamp[src] != epoch {
                s.cap_eg_stamp[src] = epoch;
                s.egress_cap[src] = self.config.egress_capacity();
                s.eg_ports.push(src);
            }
            if s.cap_in_stamp[dst] != epoch {
                s.cap_in_stamp[dst] = epoch;
                s.incoming[dst] = 0;
                s.in_ports.push(dst);
            }
            s.incoming[dst] += 1;
        }
        // Ingress capacity depends on the *total* incoming count (incast),
        // so it is set once per receiver after pass 1.
        for &dst in &s.in_ports {
            s.ingress_cap[dst] = self.config.ingress_capacity(s.incoming[dst] as usize);
        }

        // Unfrozen flow indices; kept sorted by construction (forward
        // compaction preserves order), which fixes the freeze order and
        // hence bit-exact determinism.
        s.active.clear();
        s.active.extend(0..flows.len());

        // Progressive filling: at each step compute the bottleneck fair
        // share; freeze demand-limited flows below it first.
        while !s.active.is_empty() {
            // Count unfrozen flows per port and find the smallest demand.
            // `f64::min` skips NaN, so a NaN demand never compares below
            // the share, and with only NaN demands `min_demand` stays NaN.
            let mut min_demand = f64::NAN;
            for &i in &s.active {
                s.eg_users[flows[i].src.0] += 1;
                s.in_users[flows[i].dst.0] += 1;
                min_demand = min_demand.min(flows[i].demand);
            }
            // Bottleneck share = min over the ports still in use of
            // remaining/users: one quotient per port, kept for the
            // bottleneck test below. A port's count is zeroed as it is
            // read, ready for the next round.
            let mut share = f64::INFINITY;
            for &p in &s.eg_ports {
                let users = std::mem::take(&mut s.eg_users[p]);
                if users > 0 {
                    s.eg_share[p] = s.egress_cap[p] / users as f64;
                    share = share.min(s.eg_share[p]);
                }
            }
            for &p in &s.in_ports {
                let users = std::mem::take(&mut s.in_users[p]);
                if users > 0 {
                    s.in_share[p] = s.ingress_cap[p] / users as f64;
                    share = share.min(s.in_share[p]);
                }
            }
            // Guard against accumulated float error driving a port's
            // remaining capacity a hair below zero.
            let share_floor = share.max(0.0);

            // Flows whose demand is at or below the share freeze at
            // demand. Membership depends only on (demand, share), so the
            // scan and the freeze can share one forward pass.
            if min_demand <= share + 1e-12 {
                let mut kept = 0;
                for k in 0..s.active.len() {
                    let i = s.active[k];
                    if flows[i].demand <= share + 1e-12 {
                        let r = flows[i].demand.max(0.0);
                        rates[i] = r;
                        s.egress_cap[flows[i].src.0] -= r;
                        s.ingress_cap[flows[i].dst.0] -= r;
                    } else {
                        s.active[kept] = i;
                        kept += 1;
                    }
                }
                s.active.truncate(kept);
                continue; // recompute shares with capacity released
            }

            // Otherwise freeze every flow crossing a bottleneck port: one
            // whose share, taken before any capacity is subtracted, is
            // the round's share.
            let mut kept = 0;
            let mut froze_any = false;
            for k in 0..s.active.len() {
                let i = s.active[k];
                let (src, dst) = (flows[i].src.0, flows[i].dst.0);
                if (s.eg_share[src] - share).abs() < 1e-9 || (s.in_share[dst] - share).abs() < 1e-9
                {
                    rates[i] = share_floor;
                    s.egress_cap[src] -= share_floor;
                    s.ingress_cap[dst] -= share_floor;
                    froze_any = true;
                } else {
                    s.active[kept] = i;
                    kept += 1;
                }
            }
            s.active.truncate(kept);
            debug_assert!(froze_any, "progressive filling must progress");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows_of(specs: &[(u64, usize, usize, f64)]) -> Vec<Flow> {
        specs
            .iter()
            .map(|&(id, s, d, dem)| Flow {
                id: FlowId(id),
                src: NodeId(s),
                dst: NodeId(d),
                demand: dem,
            })
            .collect()
    }

    fn fabric() -> Fabric {
        Fabric::new(FabricConfig::paper_gbe())
    }

    /// The retired `HashMap`-keyed water-filling, kept verbatim as the
    /// differential reference: the dense implementation must reproduce it
    /// bit for bit on every topology, including crash-masked ones.
    fn reference_allocate(fabric: &Fabric, flows: &[Flow]) -> FlowRates {
        let mut rates: FlowRates = HashMap::with_capacity(flows.len());
        if flows.is_empty() {
            return rates;
        }
        let mut egress_cap: HashMap<NodeId, f64> = HashMap::new();
        let mut ingress_cap: HashMap<NodeId, f64> = HashMap::new();
        let mut incoming_count: HashMap<NodeId, usize> = HashMap::new();
        for f in flows {
            *incoming_count.entry(f.dst).or_insert(0) += 1;
        }
        for f in flows {
            egress_cap
                .entry(f.src)
                .or_insert_with(|| fabric.config.egress_capacity());
            ingress_cap
                .entry(f.dst)
                .or_insert_with(|| fabric.config.ingress_capacity(incoming_count[&f.dst]));
        }
        let mut active: Vec<usize> = (0..flows.len()).collect();
        while !active.is_empty() {
            let mut eg_users: HashMap<NodeId, usize> = HashMap::new();
            let mut in_users: HashMap<NodeId, usize> = HashMap::new();
            for &i in &active {
                *eg_users.entry(flows[i].src).or_insert(0) += 1;
                *in_users.entry(flows[i].dst).or_insert(0) += 1;
            }
            let mut share = f64::INFINITY;
            for (n, &u) in &eg_users {
                share = share.min(egress_cap[n] / u as f64);
            }
            for (n, &u) in &in_users {
                share = share.min(ingress_cap[n] / u as f64);
            }
            let share_floor = share.max(0.0);
            let demand_limited: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| flows[i].demand <= share + 1e-12)
                .collect();
            if !demand_limited.is_empty() {
                for i in demand_limited {
                    let r = flows[i].demand.max(0.0);
                    rates.insert(flows[i].id, r);
                    *egress_cap.get_mut(&flows[i].src).expect("src port") -= r;
                    *ingress_cap.get_mut(&flows[i].dst).expect("dst port") -= r;
                    active.retain(|&a| a != i);
                }
                continue;
            }
            let mut bottleneck_ports_eg: Vec<NodeId> = Vec::new();
            let mut bottleneck_ports_in: Vec<NodeId> = Vec::new();
            for (n, &u) in &eg_users {
                if (egress_cap[n] / u as f64 - share).abs() < 1e-9 {
                    bottleneck_ports_eg.push(*n);
                }
            }
            for (n, &u) in &in_users {
                if (ingress_cap[n] / u as f64 - share).abs() < 1e-9 {
                    bottleneck_ports_in.push(*n);
                }
            }
            let frozen: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| {
                    bottleneck_ports_eg.contains(&flows[i].src)
                        || bottleneck_ports_in.contains(&flows[i].dst)
                })
                .collect();
            debug_assert!(!frozen.is_empty(), "progressive filling must progress");
            for i in frozen {
                rates.insert(flows[i].id, share_floor);
                *egress_cap.get_mut(&flows[i].src).expect("src port") -= share_floor;
                *ingress_cap.get_mut(&flows[i].dst).expect("dst port") -= share_floor;
                active.retain(|&a| a != i);
            }
        }
        rates
    }

    /// Bit-exact comparison of the dense allocator (through a deliberately
    /// dirty, reused scratch) against the reference.
    fn assert_matches_reference(f: &Fabric, flows: &[Flow], nodes: usize, s: &mut FabricScratch) {
        let mut rates = Vec::new();
        f.allocate_into(flows, nodes, s, &mut rates);
        let reference = reference_allocate(f, flows);
        assert_eq!(rates.len(), flows.len());
        for (fl, r) in flows.iter().zip(&rates) {
            assert_eq!(
                r.to_bits(),
                reference[&fl.id].to_bits(),
                "flow {:?}: dense {} != reference {}",
                fl.id,
                r,
                reference[&fl.id]
            );
        }
    }

    #[test]
    fn empty_is_empty() {
        assert!(fabric().allocate(&[]).is_empty());
    }

    #[test]
    fn single_flow_gets_line_rate() {
        let f = fabric();
        let r = f.allocate(&flows_of(&[(1, 0, 1, f64::INFINITY)]));
        let line = f.config.egress_capacity();
        assert!((r[&FlowId(1)] - line).abs() < 1e-9);
    }

    #[test]
    fn demand_cap_respected() {
        let f = fabric();
        let r = f.allocate(&flows_of(&[(1, 0, 1, 10.0)]));
        assert!((r[&FlowId(1)] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn two_flows_share_receiver_equally() {
        let f = fabric();
        let r = f.allocate(&flows_of(&[
            (1, 0, 2, f64::INFINITY),
            (2, 1, 2, f64::INFINITY),
        ]));
        assert!((r[&FlowId(1)] - r[&FlowId(2)]).abs() < 1e-9);
        let total = r[&FlowId(1)] + r[&FlowId(2)];
        assert!(total <= f.config.ingress_capacity(2) + 1e-9);
        assert!(
            total >= f.config.ingress_capacity(2) - 1e-6,
            "work-conserving"
        );
    }

    #[test]
    fn small_demand_releases_capacity_to_others() {
        let f = fabric();
        let r = f.allocate(&flows_of(&[(1, 0, 2, 5.0), (2, 1, 2, f64::INFINITY)]));
        let cap = f.config.ingress_capacity(2);
        assert!((r[&FlowId(1)] - 5.0).abs() < 1e-12);
        assert!((r[&FlowId(2)] - (cap - 5.0)).abs() < 1e-6);
    }

    #[test]
    fn sender_side_bottleneck() {
        let f = fabric();
        // one sender fanning out to two receivers: egress is the bottleneck
        let r = f.allocate(&flows_of(&[
            (1, 0, 1, f64::INFINITY),
            (2, 0, 2, f64::INFINITY),
        ]));
        let eg = f.config.egress_capacity();
        assert!((r[&FlowId(1)] + r[&FlowId(2)] - eg).abs() < 1e-6);
    }

    #[test]
    fn incast_degrades_aggregate_ingress() {
        let f = fabric();
        // 30 senders into one receiver: aggregate below line rate
        let flows: Vec<Flow> = (0..30)
            .map(|i| Flow {
                id: FlowId(i),
                src: NodeId(i as usize + 1),
                dst: NodeId(0),
                demand: f64::INFINITY,
            })
            .collect();
        let r = f.allocate(&flows);
        let total: f64 = r.values().sum();
        assert!(total < f.config.nic_bw * f.config.protocol_eff - 1.0);
        assert!((total - f.config.ingress_capacity(30)).abs() < 1e-6);
    }

    #[test]
    fn capacities_never_exceeded() {
        let f = fabric();
        let flows = flows_of(&[
            (1, 0, 3, f64::INFINITY),
            (2, 1, 3, 40.0),
            (3, 2, 3, f64::INFINITY),
            (4, 0, 4, 80.0),
            (5, 2, 4, f64::INFINITY),
        ]);
        let r = f.allocate(&flows);
        check_feasible(&f, &flows, &r);
    }

    fn check_feasible(f: &Fabric, flows: &[Flow], rates: &FlowRates) {
        let mut eg: HashMap<NodeId, f64> = HashMap::new();
        let mut ing: HashMap<NodeId, f64> = HashMap::new();
        let mut cnt: HashMap<NodeId, usize> = HashMap::new();
        for fl in flows {
            *cnt.entry(fl.dst).or_insert(0) += 1;
        }
        for fl in flows {
            let r = rates[&fl.id];
            assert!(r >= 0.0);
            assert!(r <= fl.demand + 1e-9, "flow exceeds demand");
            *eg.entry(fl.src).or_insert(0.0) += r;
            *ing.entry(fl.dst).or_insert(0.0) += r;
        }
        for (_, v) in eg {
            assert!(v <= f.config.egress_capacity() + 1e-6);
        }
        for (n, v) in ing {
            assert!(v <= f.config.ingress_capacity(cnt[&n]) + 1e-6);
        }
    }

    #[test]
    fn deterministic_allocation() {
        let f = fabric();
        let flows = flows_of(&[
            (1, 0, 3, f64::INFINITY),
            (2, 1, 3, 40.0),
            (3, 2, 3, f64::INFINITY),
        ]);
        let a = f.allocate(&flows);
        let b = f.allocate(&flows);
        for (k, v) in &a {
            assert_eq!(v.to_bits(), b[k].to_bits());
        }
    }

    #[test]
    fn zero_demand_flow_gets_zero() {
        let f = fabric();
        let r = f.allocate(&flows_of(&[(1, 0, 1, 0.0), (2, 0, 1, f64::INFINITY)]));
        assert_eq!(r[&FlowId(1)], 0.0);
        assert!(r[&FlowId(2)] > 0.0);
    }

    /// The max-min criterion: every flow is either capped by its own
    /// demand, or crosses at least one *saturated* port on which no other
    /// flow holds a strictly larger rate (so its rate cannot be raised
    /// without lowering an equal-or-smaller flow).
    fn check_max_min(f: &Fabric, flows: &[Flow], rates: &FlowRates) {
        let mut eg_used: HashMap<NodeId, f64> = HashMap::new();
        let mut in_used: HashMap<NodeId, f64> = HashMap::new();
        let mut cnt: HashMap<NodeId, usize> = HashMap::new();
        for fl in flows {
            *cnt.entry(fl.dst).or_insert(0) += 1;
        }
        for fl in flows {
            *eg_used.entry(fl.src).or_insert(0.0) += rates[&fl.id];
            *in_used.entry(fl.dst).or_insert(0.0) += rates[&fl.id];
        }
        for fl in flows {
            let r = rates[&fl.id];
            if r >= fl.demand - 1e-6 {
                continue; // demand-capped
            }
            let eg_sat = eg_used[&fl.src] >= f.config.egress_capacity() - 1e-6;
            let in_sat = in_used[&fl.dst] >= f.config.ingress_capacity(cnt[&fl.dst]) - 1e-6;
            assert!(
                eg_sat || in_sat,
                "flow {:?} below demand but crosses no saturated port",
                fl.id
            );
            // the flow must be maximal on at least one of its saturated
            // ports (that port is its bottleneck: raising the flow would
            // require lowering an equal-or-smaller co-flow there)
            let max_on = |same_port: &dyn Fn(&Flow) -> bool| {
                flows
                    .iter()
                    .filter(|o| o.id != fl.id && same_port(o))
                    .all(|o| rates[&o.id] <= r + 1e-6)
            };
            let eg_bottleneck = eg_sat && max_on(&|o: &Flow| o.src == fl.src);
            let in_bottleneck = in_sat && max_on(&|o: &Flow| o.dst == fl.dst);
            assert!(
                eg_bottleneck || in_bottleneck,
                "flow {:?} ({r}) is not maximal on any saturated port it crosses",
                fl.id
            );
        }
    }

    #[test]
    fn max_min_criterion_on_fixed_topology() {
        let f = fabric();
        let flows = flows_of(&[
            (1, 0, 3, f64::INFINITY),
            (2, 1, 3, 40.0),
            (3, 2, 3, f64::INFINITY),
            (4, 0, 4, 80.0),
            (5, 2, 4, f64::INFINITY),
            (6, 5, 6, 3.0),
        ]);
        let rates = f.allocate(&flows);
        check_max_min(&f, &flows, &rates);
    }

    proptest::proptest! {
        /// Full max-min fairness on random topologies.
        #[test]
        fn prop_max_min_fair(
            specs in proptest::collection::vec(
                (0u64..1000, 0usize..6, 0usize..6, 0f64..300.0), 1..25)
        ) {
            let mut seen = std::collections::HashSet::new();
            let flows: Vec<Flow> = specs.iter()
                .filter(|(id, s, d, _)| *s != *d && seen.insert(*id))
                .map(|&(id, s, d, dem)| Flow {
                    id: FlowId(id), src: NodeId(s), dst: NodeId(d), demand: dem,
                })
                .collect();
            let f = fabric();
            let rates = f.allocate(&flows);
            check_max_min(&f, &flows, &rates);
        }

        #[test]
        fn prop_feasible_and_demand_capped(
            specs in proptest::collection::vec(
                (0u64..1000, 0usize..8, 0usize..8, 0f64..200.0), 1..40)
        ) {
            // de-duplicate flow ids and drop self-flows
            let mut seen = std::collections::HashSet::new();
            let flows: Vec<Flow> = specs.iter()
                .filter(|(id, s, d, _)| *s != *d && seen.insert(*id))
                .map(|&(id, s, d, dem)| Flow {
                    id: FlowId(id), src: NodeId(s), dst: NodeId(d), demand: dem,
                })
                .collect();
            let f = fabric();
            let rates = f.allocate(&flows);
            proptest::prop_assert_eq!(rates.len(), flows.len());
            check_feasible(&f, &flows, &rates);
        }

        /// Differential pinning: the dense slab allocator reproduces the
        /// retired HashMap reference bit for bit, with the scratch
        /// deliberately reused dirty between cases. Every case holds a
        /// fan-in of 11 or more flows into one receiver, so incast
        /// applies; its demands are zero, the first round's exact share,
        /// a staircase that needs one round per step and then unbounded.
        /// Beside it run up to 40 random flows on 10 nodes, with random
        /// crash masks applied the way the engine applies them (flows
        /// touching a down node are never built), or up to 300 on 64
        /// nodes, or none, so that the fan-in's shares stay exact. The
        /// random flows' demands include zero, unbounded and exact
        /// egress and fan-in shares.
        #[test]
        fn prop_dense_matches_hashmap_reference(
            specs in proptest::collection::vec(
                (0usize..64, 0usize..64, 0u8..8, 0f64..300.0), 1..300),
            shape in (0u8..3, 0usize..64, 11usize..30, 0u32..1024),
        ) {
            let (size, hot, fan_in, down_mask) = shape;
            let (nodes, others) = match size {
                0 => (10, 40),
                1 => (64, 300),
                _ => (64, 0),
            };
            let f = fabric();
            let hot = hot % nodes;
            // one step per round: the zero and the exact first-round
            // share freeze in round 1, each later step lies between the
            // share it is frozen at and the one before
            let cap = f.config.ingress_capacity(fan_in);
            let share1 = cap / fan_in as f64;
            let share2 = (cap - share1) / (fan_in - 2) as f64;
            let step2 = (share1 + share2) / 2.0;
            let share3 = (cap - share1 - step2) / (fan_in - 3) as f64;
            let stairs = [0.0, share1, step2, (share2 + share3) / 2.0];
            let mut flows = Vec::new();
            let mut push = |src: usize, dst: usize, demand: f64| {
                let id = FlowId(flows.len() as u64);
                flows.push(Flow { id, src: NodeId(src), dst: NodeId(dst), demand });
            };
            for j in 0..fan_in {
                let src = (hot + 1 + j % (nodes - 1)) % nodes;
                push(src, hot, stairs.get(j).copied().unwrap_or(f64::INFINITY));
            }
            for &(src, dst, pick, x) in specs.iter().take(others) {
                let (src, dst) = (src % nodes, dst % nodes);
                if src == dst {
                    continue;
                }
                let demand = match pick {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    2 => f.config.egress_capacity() / (1 + x as usize % 4) as f64,
                    3 => share1,
                    _ => x,
                };
                push(src, dst, demand);
            }
            if size == 0 {
                flows.retain(|f| [f.src, f.dst].iter().all(|n| down_mask & (1 << n.0) == 0));
            }
            let mut scratch = FabricScratch::new();
            // dirty the scratch with an unrelated allocation first: the
            // epoch-stamped reset must make the second call independent
            let mut junk = Vec::new();
            let decoy = flows_of(&[(999, 0, 9, 17.0), (998, 9, 0, f64::INFINITY)]);
            f.allocate_into(&decoy, 10, &mut scratch, &mut junk);
            assert_matches_reference(&f, &flows, nodes, &mut scratch);
            // and again with the now-warm scratch, same flows
            assert_matches_reference(&f, &flows, nodes, &mut scratch);
            if size == 2 {
                // alone, every step of the staircase froze at its demand
                let rates = f.allocate(&flows);
                for (j, &step) in stairs.iter().enumerate() {
                    proptest::prop_assert_eq!(rates[&FlowId(j as u64)].to_bits(), step.to_bits());
                }
            }
        }

        #[test]
        fn prop_work_conserving_single_receiver(n in 1usize..25) {
            // all-infinite demands into one receiver must saturate it
            let flows: Vec<Flow> = (0..n).map(|i| Flow {
                id: FlowId(i as u64), src: NodeId(i + 1), dst: NodeId(0),
                demand: f64::INFINITY,
            }).collect();
            let f = fabric();
            let total: f64 = f.allocate(&flows).values().sum();
            let cap = f.config.ingress_capacity(n);
            proptest::prop_assert!((total - cap).abs() < 1e-6);
        }
    }
}
