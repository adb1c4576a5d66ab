//! [`EngineState`] between steps: binding to a policy, captures, the run
//! report, job and fault injection, and the read-only observation frames.

use super::{fold_hash, fresh_namenode, Derived, EngineConfig, EngineState};
use crate::arena::Scratch;
use crate::counters::{Counter, CounterLedger};
use crate::job::{JobId, JobProfile, JobSpec};
use crate::policy::SlotPolicy;
use crate::report::{JobReport, RunReport};
use crate::scheduler::JobInProgress;
use dfs::NameNode;
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;
use simgrid::error::SimError;
use simgrid::time::SimTime;

impl EngineState {
    /// Bind this state to the policy that will step it: validate the
    /// config, check the policy is the one the state was captured under,
    /// hand it the captured policy state, and derive what stepping needs.
    /// Every stepping call binds first, so no state steps under a policy
    /// that never saw its state.
    pub(super) fn bind(&mut self, policy: &mut dyn SlotPolicy) -> Result<Derived, SimError> {
        self.config.validate()?;
        if policy.name() != self.policy_name {
            return Err(SimError::InvalidConfig(format!(
                "capsule was captured under policy {} but resume got {}",
                self.policy_name,
                policy.name()
            )));
        }
        let workers = self.config.cluster.workers;
        if self.trackers.len() != workers
            || self.node_up.len() != workers
            || self.usage.nodes() != workers
        {
            return Err(SimError::InvalidConfig(format!(
                "capsule cluster size mismatch: {} trackers / {} node states / {} sampled \
                 nodes for {workers} workers",
                self.trackers.len(),
                self.node_up.len(),
                self.usage.nodes()
            )));
        }
        if let Some(job) = self
            .jobs
            .iter()
            .find(|j| j.pending_map_blocks.iter().any(|b| b >= j.total_maps()))
        {
            return Err(SimError::InvalidConfig(format!(
                "capsule queues a block job {} does not have",
                job.spec.id.0
            )));
        }
        // the derived source sets hold one set per partition
        for job in &self.jobs {
            JobSpec::check_shape(job.spec.input_mb, job.total_reduces())?;
            if job.shuffle.num_reduces() != job.total_reduces() {
                return Err(SimError::InvalidConfig(format!(
                    "capsule job {} shuffles {} partitions for {} reduces",
                    job.spec.id.0,
                    job.shuffle.num_reduces(),
                    job.total_reduces()
                )));
            }
        }
        // the step indexes jobs, blocks, partitions and nodes by the
        // running rows without checks
        let off_cluster = |n: NodeId| n.0 >= workers;
        if let Some((rid, _)) = self.running_reduces.rows().iter().find(|(rid, t)| {
            off_cluster(t.node)
                || self
                    .jobs
                    .get(rid.job.0)
                    .is_none_or(|j| rid.partition >= j.total_reduces())
        }) {
            return Err(SimError::InvalidConfig(format!(
                "capsule runs reduce {} of job {} on a node or partition it does not have",
                rid.partition, rid.job.0
            )));
        }
        if let Some((aid, _)) = self.running_maps.rows().iter().find(|(aid, t)| {
            aid.attempt > 1
                || off_cluster(t.node)
                || t.remote_src.is_some_and(off_cluster)
                || self
                    .jobs
                    .get(aid.task.job.0)
                    .is_none_or(|j| aid.task.index >= j.total_maps())
        }) {
            return Err(SimError::InvalidConfig(format!(
                "capsule runs attempt {} of map {} of job {} on a node, job or block it does \
                 not have",
                aid.attempt, aid.task.index, aid.task.job.0
            )));
        }
        // a failure point leaves with its attempt
        if let Some((aid, _)) = self
            .failure_points
            .rows()
            .iter()
            .find(|(aid, _)| !self.running_maps.contains_key(aid))
        {
            return Err(SimError::InvalidConfig(format!(
                "capsule holds a failure point for attempt {} of map {} of job {}, which is not \
                 running",
                aid.attempt, aid.task.index, aid.task.job.0
            )));
        }
        let captured = std::mem::replace(&mut self.policy_state, serde::Value::Null);
        policy
            .restore_state(&captured)
            .map_err(|e| SimError::InvalidConfig(format!("capsule policy state: {e}")))?;
        Ok(Derived::of(self))
    }

    pub(super) fn all_finished(&self) -> bool {
        self.jobs.iter().all(|j| j.is_finished())
    }

    /// Lend the task tables the arena's staging buffers, or take them
    /// back: the exchange is its own inverse.
    pub(super) fn swap_staging(&mut self, scratch: &mut Scratch) {
        self.running_maps.swap_staging(&mut scratch.map_staging);
        self.running_reduces
            .swap_staging(&mut scratch.reduce_staging);
        self.failure_points.swap_staging(&mut scratch.point_staging);
    }

    /// A capsule of this state as driven by `policy`: a clone with the
    /// policy's current run state.
    pub(super) fn capture(&self, policy: &dyn SlotPolicy) -> EngineState {
        let mut capsule = self.clone();
        capsule.policy_state = policy.snapshot_state();
        capsule
    }

    /// The run report as of this instant, under the policy driving it.
    pub(super) fn report(&self, policy: &dyn SlotPolicy) -> RunReport {
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobReport {
                job: j.spec.id,
                name: j.spec.profile.name.clone(),
                submit_at: j.spec.submit_at,
                started_at: j.first_launch.expect("finished job must have started"),
                maps_done_at: j.maps_done_at.expect("finished job crossed the barrier"),
                finished_at: j.finished_at.expect("job finished"),
                input_mb: j.spec.input_mb,
                shuffle_mb: j.shuffle.total_output_mb(),
                num_maps: j.total_maps(),
                num_reduces: j.total_reduces(),
                progress: j.progress.clone(),
                map_task_durations: simgrid::metrics::Summary::of(&j.map_durations),
                reduce_task_durations: simgrid::metrics::Summary::of(&j.reduce_durations),
                local_map_fraction: {
                    let c = &self.job_counters[i];
                    let total = c.get(Counter::TotalLaunchedMaps);
                    if total <= 0.0 {
                        1.0
                    } else {
                        c.get(Counter::DataLocalMaps) / total
                    }
                },
                counters: self.job_counters[i].clone(),
            })
            .collect();
        RunReport {
            policy: policy.name().to_string(),
            jobs,
            map_slot_series: self.map_slot_series.clone(),
            reduce_slot_series: self.reduce_slot_series.clone(),
            slot_changes: self.slot_changes,
            events: self.events.clone(),
            speculative_attempts: self.speculative_attempts,
            speculative_wins: self.speculative_wins,
            map_failures: self.map_failures,
            cpu_utilisation: if self.cpu_offered_core_s > 0.0 {
                self.cpu_granted_core_s / self.cpu_offered_core_s
            } else {
                0.0
            },
            network_mb: self.network_mb,
            steps: self.steps,
            node_crashes: self.node_crashes,
            crash_task_kills: self.crash_task_kills,
            lost_map_outputs: self.lost_map_outputs,
            trackers_blacklisted: self.trackers_blacklisted,
            map_input_processed_mb: self.map_input_processed_mb,
            counters: {
                let mut all = CounterLedger::new();
                for c in &self.job_counters {
                    all.merge(c);
                }
                all
            },
            node_utilization: self.usage.report(),
            decisions: policy.decision_records(),
        }
    }

    /// The simulated instant the capture was taken at.
    pub fn at(&self) -> SimTime {
        self.now
    }

    /// Name of the policy that was driving the captured run.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// The rolling per-step state digest as of the capture instant.
    pub fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// The configuration the captured run was started with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Bind the capsule to the policy a run resumes under — how a
    /// [`Engine::prepare`](crate::Engine::prepare)d state gets its policy. Only sound for capsules
    /// captured before the first heartbeat (the policy had no state yet);
    /// the bound state is reset to fresh.
    pub fn override_policy(&mut self, name: &str) -> Result<(), SimError> {
        if self.now != SimTime::ZERO || self.heartbeat_round != 0 {
            return Err(SimError::InvalidConfig(format!(
                "cannot re-bind policy at t={} ms: the captured policy already ran",
                self.now.as_millis()
            )));
        }
        self.policy_name = name.to_string();
        self.policy_state = serde::Value::Null;
        Ok(())
    }

    /// Submit a new job into the captured run at its capture instant.
    ///
    /// The DFS placement is decided by **deterministic NameNode replay**:
    /// the NameNode's RNG position is a pure function of the files created
    /// so far, so re-creating every existing job's file in submission
    /// order leaves the placement stream exactly where the live run left
    /// it — the injected job's blocks land where they would have landed
    /// had it been in the original submission list. Replicas placed on
    /// currently-down nodes are pruned at injection (mirroring the crash
    /// path); a block left with no live replica rejects the submission.
    ///
    /// The submission is folded into the rolling state digest so two runs
    /// that differ only in an injected command diverge immediately.
    pub fn inject_job(
        &mut self,
        profile: JobProfile,
        input_mb: f64,
        num_reduces: usize,
    ) -> Result<JobId, SimError> {
        let mut namenode = self.replay_namenode();
        self.inject_job_placed(&mut namenode, profile, input_mb, num_reduces)
    }

    /// The DFS name node as it stands after this run's files: a fresh one
    /// that re-creates every job's file in submission order.
    pub(super) fn replay_namenode(&self) -> NameNode {
        let mut namenode = fresh_namenode(&self.config);
        for j in &self.jobs {
            namenode.create_file(j.spec.input_mb);
        }
        namenode
    }

    /// [`EngineState::inject_job`] with the file placed by `namenode`,
    /// which must stand after this run's files. It then stands after the
    /// new one too; a rejected submission leaves it where it was.
    pub(super) fn inject_job_placed(
        &mut self,
        namenode: &mut NameNode,
        profile: JobProfile,
        input_mb: f64,
        num_reduces: usize,
    ) -> Result<JobId, SimError> {
        JobSpec::check_layout(input_mb, num_reduces, self.config.block_mb)?;
        let workers = self.config.cluster.workers;
        let before = namenode.clone();
        let mut layout = namenode.create_file(input_mb);
        let live = self.node_up.iter().filter(|&&u| u).count();
        let desired = self.replication.min(live);
        let ji = self.jobs.len();
        // validate every block before mutating any shared state, so a
        // rejected submission leaves the capsule exactly as it was
        for (bi, block) in layout.blocks.iter_mut().enumerate() {
            block.replicas.retain(|&n| self.node_up[n.0]);
            if block.replicas.is_empty() {
                *namenode = before;
                return Err(SimError::InvalidConfig(format!(
                    "injected job rejected: block {bi} has no replica on a live node"
                )));
            }
        }
        for (bi, block) in layout.blocks.iter().enumerate() {
            if self.config.rereplication_rate > 0.0
                && block.replicas.len() < desired
                && !self.rerep_queue.contains(&(ji, bi))
            {
                self.rerep_queue.push_back((ji, bi));
            }
        }
        let spec = JobSpec::new(ji, profile, input_mb, num_reduces, self.now);
        self.jobs.push(JobInProgress::new(spec, layout, workers));
        self.job_counters.push(CounterLedger::new());
        self.state_hash = fold_hash(
            fold_hash(fold_hash(self.state_hash, ji as u64), input_mb.to_bits()),
            num_reduces as u64,
        );
        Ok(JobId(ji))
    }

    /// Schedule a node fault into the captured run. The fault instant must
    /// lie strictly after the capture instant: transitions at or before
    /// `now` are already marked applied and would never fire. The extended
    /// plan is re-validated before it is committed.
    pub fn inject_fault(&mut self, fault: simgrid::fault::NodeFault) -> Result<(), SimError> {
        if fault.node.0 >= self.config.cluster.workers {
            return Err(SimError::InvalidConfig(format!(
                "fault node {} out of range for {} workers",
                fault.node.0, self.config.cluster.workers
            )));
        }
        if fault.at <= self.now {
            return Err(SimError::InvalidConfig(format!(
                "fault at {} ms must be strictly after the capture instant {} ms",
                fault.at.as_millis(),
                self.now.as_millis()
            )));
        }
        let mut cfg = self.config.clone();
        cfg.fault_plan.push(fault);
        cfg.validate()?;
        self.config = cfg;
        self.state_hash = fold_hash(
            fold_hash(self.state_hash, fault.at.as_millis() ^ (1 << 63)),
            fault.node.0 as u64,
        );
        Ok(())
    }

    /// Project the capsule into a serializable observation frame: sim
    /// clock, per-job progress, and per-node slot split / occupancy /
    /// liveness. Strictly read-only — observing never perturbs the run.
    pub fn observe(&self) -> EngineObservation {
        let jobs = self
            .jobs
            .iter()
            .map(|j| JobObservation {
                id: j.spec.id.0,
                name: j.spec.profile.name.clone(),
                submit_at_ms: j.spec.submit_at.as_millis(),
                finished: j.is_finished(),
                completed_maps: j.completed_maps,
                total_maps: j.total_maps(),
                completed_reduces: j.completed_reduces,
                total_reduces: j.total_reduces(),
                progress_pct: j.progress.last().map(|(_, v)| v).unwrap_or(0.0),
            })
            .collect();
        let nodes = self
            .trackers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let target = t.map_slots.target() + t.reduce_slots.target();
                let occupied = t.map_slots.occupied() + t.reduce_slots.occupied();
                NodeObservation {
                    up: self.node_up[i],
                    map_target: t.map_slots.target(),
                    map_occupied: t.map_slots.occupied(),
                    reduce_target: t.reduce_slots.target(),
                    reduce_occupied: t.reduce_slots.occupied(),
                    utilization: if target > 0 {
                        occupied as f64 / target as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        EngineObservation {
            at_ms: self.now.as_millis(),
            steps: self.steps,
            state_hash: self.state_hash,
            heartbeat_rounds: self.heartbeat_round,
            slot_changes: self.slot_changes,
            all_finished: self.all_finished(),
            jobs,
            nodes,
        }
    }
}

/// A read-only projection of one [`EngineState`] for live observers (the
/// realtime service's observation frames are built from these).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineObservation {
    /// Sim clock of the projected instant (ms).
    pub at_ms: u64,
    /// Integration steps executed so far.
    pub steps: u64,
    /// Rolling per-step state digest at this instant.
    pub state_hash: u64,
    /// Heartbeat rounds executed so far.
    pub heartbeat_rounds: u64,
    /// Cumulative slot-change commands applied by the policy.
    pub slot_changes: u64,
    /// Every job has finished (the run is idle).
    pub all_finished: bool,
    pub jobs: Vec<JobObservation>,
    pub nodes: Vec<NodeObservation>,
}

/// One job's progress inside an [`EngineObservation`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobObservation {
    pub id: usize,
    pub name: String,
    pub submit_at_ms: u64,
    pub finished: bool,
    pub completed_maps: usize,
    pub total_maps: usize,
    pub completed_reduces: usize,
    pub total_reduces: usize,
    /// Last recorded progress sample: map% + reduce% in `[0, 200]`.
    pub progress_pct: f64,
}

/// One node's slot split and occupancy inside an [`EngineObservation`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeObservation {
    pub up: bool,
    pub map_target: usize,
    pub map_occupied: usize,
    pub reduce_target: usize,
    pub reduce_occupied: usize,
    /// Occupied fraction of the current slot targets, both kinds pooled.
    pub utilization: f64,
}
