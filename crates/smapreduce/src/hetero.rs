//! Heterogeneous-cluster extension (the paper's §VII future work).
//!
//! "Currently, SMapReduce only considers the case where the cluster is
//! homogeneous … We are working to extend SMapReduce to the heterogeneous
//! environment, which may be a common setting in some small clusters."
//!
//! The uniform slot manager issues one slot target for every tracker; on a
//! mixed cluster that is wrong in both directions — the target that
//! saturates the strong machines thrashes the weak ones, and the target
//! that is safe for the weak ones starves the strong ones. (The detector
//! sees only the *aggregate* map rate, so climbing keeps paying off on the
//! strong half while quietly degrading the weak half.)
//!
//! [`HeteroSlotManagerPolicy`] keeps the paper's decision loop intact —
//! balance factor, thrashing detection, slow start, tail switching — and
//! adds one step: the uniform target is interpreted as *per reference
//! core* and scaled to each tracker's capacity:
//!
//! ```text
//! target_i = clamp(round(uniform_target × cores_i / reference_cores), 1, …)
//! ```
//!
//! so an 8-core node gets half the slots of a 16-core node. This is the
//! minimal capacity-proportional extension; per-node detectors would be
//! the next step.

use crate::config::SmrConfig;
use crate::slot_manager::SlotManagerPolicy;
use mapreduce::policy::{PolicyContext, PolicyDecisionRecord, SlotDirective, SlotPolicy};

/// Capacity-proportional wrapper around the paper's slot manager.
pub struct HeteroSlotManagerPolicy {
    inner: SlotManagerPolicy,
    /// Core count the uniform target is expressed against (the strongest
    /// machine class; defaults to the testbed's 16).
    reference_cores: f64,
}

impl HeteroSlotManagerPolicy {
    pub fn new(cfg: SmrConfig, reference_cores: f64) -> HeteroSlotManagerPolicy {
        assert!(reference_cores > 0.0);
        HeteroSlotManagerPolicy {
            inner: SlotManagerPolicy::new(cfg),
            reference_cores,
        }
    }

    /// Default configuration against the paper's 16-core workers.
    pub fn paper_default() -> HeteroSlotManagerPolicy {
        HeteroSlotManagerPolicy::new(SmrConfig::default(), 16.0)
    }

    /// Scale a uniform target to a tracker with `cores` cores.
    pub fn scaled(&self, uniform: usize, cores: f64) -> usize {
        let t = (uniform as f64 * cores / self.reference_cores).round() as usize;
        t.max(1)
    }

    /// Access the wrapped uniform manager (its decision log and targets).
    pub fn inner(&self) -> &SlotManagerPolicy {
        &self.inner
    }
}

impl SlotPolicy for HeteroSlotManagerPolicy {
    fn name(&self) -> &'static str {
        "SMapReduce-hetero"
    }

    fn directive_overhead_ms(&self) -> u64 {
        self.inner.directive_overhead_ms()
    }

    fn attach_telemetry(&mut self, telem: &telemetry::Telemetry) {
        self.inner.attach_telemetry(telem);
    }

    fn decision_records(&self) -> Vec<PolicyDecisionRecord> {
        self.inner.decision_records()
    }

    // reference_cores is configuration; the mutable state is all the
    // wrapped uniform manager's
    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.inner.restore_state(state)
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Vec<SlotDirective> {
        // run the paper's decision loop; its own (uniform) directives are
        // discarded in favour of the capacity-scaled ones
        let _ = self.inner.decide(ctx);
        let Some((map_uniform, reduce_uniform)) = self.inner.current_targets() else {
            return Vec::new();
        };
        ctx.trackers
            .iter()
            .filter_map(|t| {
                let map_slots = self.scaled(map_uniform, t.cores);
                let reduce_slots = self.scaled(reduce_uniform, t.cores);
                (t.map_target != map_slots || t.reduce_target != reduce_slots).then_some(
                    SlotDirective {
                        node: t.node,
                        map_slots,
                        reduce_slots,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::policy::TrackerSnapshot;
    use mapreduce::stats::ClusterStats;
    use simgrid::cluster::NodeId;
    use simgrid::time::{SimDuration, SimTime};

    fn policy() -> HeteroSlotManagerPolicy {
        HeteroSlotManagerPolicy::new(
            SmrConfig {
                balance_window: SimDuration::ZERO,
                ..SmrConfig::default()
            },
            16.0,
        )
    }

    #[test]
    fn scaling_is_capacity_proportional() {
        let p = policy();
        assert_eq!(p.scaled(4, 16.0), 4);
        assert_eq!(p.scaled(4, 8.0), 2);
        assert_eq!(p.scaled(6, 8.0), 3);
        assert_eq!(p.scaled(3, 8.0), 2); // rounds
        assert_eq!(p.scaled(1, 4.0), 1); // floor at one slot
    }

    fn mixed_trackers() -> Vec<TrackerSnapshot> {
        // two 16-core and two 8-core trackers, all at the initial 3/2
        (0..4)
            .map(|i| TrackerSnapshot {
                node: NodeId(i),
                cores: if i < 2 { 16.0 } else { 8.0 },
                map_target: 3,
                map_occupied: 3,
                reduce_target: 2,
                reduce_occupied: 2,
            })
            .collect()
    }

    #[test]
    fn weak_nodes_get_proportionally_fewer_slots() {
        let mut p = policy();
        // a clear map-heavy signal past slow start
        let stats = ClusterStats {
            total_maps: 200,
            completed_maps: 40,
            pending_maps: 100,
            running_maps: 60,
            total_reduces: 30,
            running_reduces: 30,
            shuffling_reduces: 30,
            map_input_rate: 500.0,
            map_output_rate: 100.0,
            shuffle_rate: 100.0,
            ..ClusterStats::default()
        };
        let tr = mixed_trackers();
        let ctx = PolicyContext {
            now: SimTime::from_secs(30),
            stats: &stats,
            trackers: &tr,
            init_map_slots: 3,
            init_reduce_slots: 2,
        };
        let ds = p.decide(&ctx);
        // uniform target went 3 -> 4; strong nodes get 4, weak get 2
        let by_node = |n: usize| ds.iter().find(|d| d.node == NodeId(n)).expect("directive");
        assert_eq!(by_node(0).map_slots, 4);
        assert_eq!(by_node(1).map_slots, 4);
        assert_eq!(by_node(2).map_slots, 2);
        assert_eq!(by_node(3).map_slots, 2);
        assert_eq!(by_node(2).reduce_slots, 1);
    }

    #[test]
    fn no_targets_before_first_decision_context() {
        let p = policy();
        assert_eq!(p.name(), "SMapReduce-hetero");
        assert_eq!(
            p.directive_overhead_ms(),
            SmrConfig::default().directive_overhead_ms
        );
    }

    /// A run's report carries the wrapped manager's audited decisions,
    /// as it does for the uniform manager.
    #[test]
    fn reports_carry_the_wrapped_managers_decisions() {
        use mapreduce::{Engine, EngineConfig, JobProfile, JobSpec};
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let mut p = HeteroSlotManagerPolicy::paper_default();
        let report = Engine::new(EngineConfig::small_test(4, 7))
            .run(vec![job], &mut p)
            .unwrap();
        assert!(report.slot_changes > 0, "the manager moved slots");
        assert!(!report.decisions.is_empty(), "decisions reported");
        assert_eq!(report.decisions, p.inner().decision_records());
    }

    #[test]
    #[should_panic]
    fn zero_reference_cores_rejected() {
        let _ = HeteroSlotManagerPolicy::new(SmrConfig::default(), 0.0);
    }
}
