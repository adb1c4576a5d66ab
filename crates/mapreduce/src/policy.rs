//! The slot-policy interface: who decides how many slots each tracker has.
//!
//! The engine calls [`SlotPolicy::decide`] once per heartbeat round with the
//! aggregated [`ClusterStats`] and a per-tracker snapshot; the policy
//! returns slot-target directives which the job tracker sends to the
//! trackers in its heartbeat responses (and the trackers apply lazily).
//!
//! * HadoopV1 ⇒ [`StaticSlotPolicy`] (never changes anything);
//! * YARN ⇒ `yarn::CapacityPolicy` (flexible container budget,
//!   map-priority);
//! * SMapReduce ⇒ `smapreduce::SlotManagerPolicy` (the paper).

use crate::stats::ClusterStats;
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;
use simgrid::time::SimTime;

/// Per-tracker state visible to policies.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrackerSnapshot {
    pub node: NodeId,
    /// CPU cores of this tracker's machine (policies that scale targets to
    /// node capacity — the heterogeneous extension — read this; the
    /// paper's uniform policies ignore it).
    pub cores: f64,
    pub map_target: usize,
    pub map_occupied: usize,
    pub reduce_target: usize,
    pub reduce_occupied: usize,
}

/// Everything a policy may consult when deciding.
#[derive(Debug, Clone)]
pub struct PolicyContext<'a> {
    pub now: SimTime,
    pub stats: &'a ClusterStats,
    pub trackers: &'a [TrackerSnapshot],
    /// Initial (user-configured) slot counts, the baseline the paper's
    /// slot manager starts from.
    pub init_map_slots: usize,
    pub init_reduce_slots: usize,
}

/// A slot-target command for one tracker, delivered via its next heartbeat
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotDirective {
    pub node: NodeId,
    pub map_slots: usize,
    pub reduce_slots: usize,
}

/// One policy decision, in policy-neutral form, for the run's flight
/// recorder. Adaptive policies (SMapReduce's slot manager) translate their
/// internal audit records into these so the engine can embed them in the
/// [`crate::RunReport`] and the dashboard can attribute every slot
/// reassignment to the signals that drove it. Static policies record
/// nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyDecisionRecord {
    pub at: SimTime,
    /// Stable snake_case decision label (e.g. `increment_maps`).
    pub decision: String,
    /// Per-node slot targets after the decision.
    pub map_target: usize,
    pub reduce_target: usize,
    /// The paper's utilisation function f, when computable this round.
    pub f: Option<f64>,
    /// Shuffle rate Rs (MB/s) observed this round.
    pub rs: f64,
    /// Map output rate Rm (MB/s) observed this round.
    pub rm: f64,
}

/// A slot-management policy. Policies are `Send`: a resident
/// [`crate::Run`] carries its bound policy to whichever pool worker steps
/// it next.
pub trait SlotPolicy: Send {
    /// Stable display name ("HadoopV1", "YARN", "SMapReduce").
    fn name(&self) -> &'static str;

    /// Called once per heartbeat round. Returning an empty vec leaves all
    /// targets unchanged.
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Vec<SlotDirective>;

    /// Per-decision bookkeeping overhead in equivalent milliseconds of
    /// engine stall, charged once per *applied* directive. Models the small
    /// management cost the paper observes on Terasort. Zero by default.
    fn directive_overhead_ms(&self) -> u64 {
        0
    }

    /// Give the policy a telemetry handle to emit decision-audit events
    /// through. Called by the engine before a run starts; policies without
    /// observability needs ignore it.
    fn attach_telemetry(&mut self, _telem: &telemetry::Telemetry) {}

    /// Decision records accumulated over the run, drained by the engine at
    /// report time and embedded in the [`crate::RunReport`]. Policies with
    /// no audit trail return nothing.
    fn decision_records(&self) -> Vec<PolicyDecisionRecord> {
        Vec::new()
    }

    /// Serialize the policy's *mutable* run state for a checkpoint capsule.
    /// Configuration is not included — a restored policy is constructed
    /// fresh (with its configuration) and then handed this value. Stateless
    /// policies return [`serde::Value::Null`].
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restore run state captured by [`SlotPolicy::snapshot_state`] into a
    /// freshly constructed policy. `Null` means "fresh" and must be
    /// accepted by every implementation (it is what a capsule taken before
    /// the first decision carries).
    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), serde::Error> {
        Ok(())
    }
}

/// HadoopV1: statically configured slots, never adjusted at runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticSlotPolicy;

impl SlotPolicy for StaticSlotPolicy {
    fn name(&self) -> &'static str {
        "HadoopV1"
    }

    fn decide(&mut self, _ctx: &PolicyContext<'_>) -> Vec<SlotDirective> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_never_directs() {
        let stats = ClusterStats::default();
        let trackers = [TrackerSnapshot {
            node: NodeId(0),
            cores: 16.0,
            map_target: 3,
            map_occupied: 1,
            reduce_target: 2,
            reduce_occupied: 0,
        }];
        let ctx = PolicyContext {
            now: SimTime::from_secs(10),
            stats: &stats,
            trackers: &trackers,
            init_map_slots: 3,
            init_reduce_slots: 2,
        };
        let mut p = StaticSlotPolicy;
        assert!(p.decide(&ctx).is_empty());
        assert_eq!(p.name(), "HadoopV1");
        assert_eq!(p.directive_overhead_ms(), 0);
        assert!(p.decision_records().is_empty());
    }
}
