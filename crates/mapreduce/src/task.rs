//! Task state machines.
//!
//! A **map task** processes one input block: `work = input + spill_weight ×
//! output` equivalent-MB, consumed at the profile's nominal rate scaled by
//! node contention (and by the remote-read flow when its block is not
//! local). On completion its output becomes fetchable by every reduce.
//!
//! A **reduce task** walks shuffle → sort → reduce. The shuffle phase
//! overlaps running maps (it can only fetch output of *finished* maps) and
//! cannot complete before the job's last map does — the synchronisation
//! barrier of §II-A.

use crate::job::{JobId, JobProfile};
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;
use simgrid::node::TaskDemand;
use simgrid::time::SimTime;

/// Identifier of a map task within its job (block index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MapTaskId {
    pub job: JobId,
    pub index: usize,
}

/// Identifier of one execution attempt of a map task. Attempt 0 is the
/// original; attempt 1 is a speculative backup launched for a straggler
/// (Hadoop's speculative execution). The first attempt to finish delivers
/// the block; its sibling is killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MapAttemptId {
    pub task: MapTaskId,
    pub attempt: u8,
}

impl MapAttemptId {
    /// The original (non-speculative) attempt of a task.
    pub fn original(task: MapTaskId) -> MapAttemptId {
        MapAttemptId { task, attempt: 0 }
    }

    /// The speculative backup of a task.
    pub fn backup(task: MapTaskId) -> MapAttemptId {
        MapAttemptId { task, attempt: 1 }
    }

    /// The other attempt of the same task.
    pub(crate) fn sibling(self) -> MapAttemptId {
        MapAttemptId {
            task: self.task,
            attempt: 1 - self.attempt,
        }
    }
}

/// Identifier of a reduce task within its job (partition index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ReduceTaskId {
    pub job: JobId,
    pub partition: usize,
}

/// A running map task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapTask {
    pub id: MapTaskId,
    /// Tracker node executing the task.
    pub node: NodeId,
    /// Input block size (MB).
    pub input_mb: f64,
    /// Output it will produce on completion (MB).
    pub output_mb: f64,
    /// Equivalent-MB of work remaining (input + weighted spill).
    pub work_remaining: f64,
    /// Total work at start (for progress reporting).
    pub work_total: f64,
    /// Input MB not yet consumed (drives the input-rate meter).
    pub input_remaining: f64,
    /// `None` when the block is node-local; `Some(src)` when input streams
    /// from a remote replica holder over the fabric.
    pub remote_src: Option<NodeId>,
    pub started_at: SimTime,
}

impl MapTask {
    /// Equivalent seconds of fixed per-map-task overhead (JVM launch, task
    /// setup/commit) folded into the task's work at its nominal rate.
    pub const MAP_SETUP_S: f64 = 1.0;

    /// Build a task for a block of `input_mb`, applying the deterministic
    /// per-task service-time `jitter` factor (≥ 0; 1.0 = nominal). The
    /// [`MapTask::MAP_SETUP_S`] overhead is added on top of the data work.
    pub fn new(
        id: MapTaskId,
        node: NodeId,
        profile: &JobProfile,
        input_mb: f64,
        remote_src: Option<NodeId>,
        jitter: f64,
        now: SimTime,
    ) -> MapTask {
        let output_mb = input_mb * profile.map_selectivity;
        let work = (input_mb + profile.spill_weight * output_mb) * jitter.max(0.05)
            + profile.map_rate * Self::MAP_SETUP_S;
        MapTask {
            id,
            node,
            input_mb,
            output_mb,
            work_remaining: work,
            work_total: work,
            input_remaining: input_mb,
            remote_src,
            started_at: now,
        }
    }

    /// Fraction complete in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.work_total <= 0.0 {
            1.0
        } else {
            1.0 - self.work_remaining / self.work_total
        }
    }

    pub fn is_done(&self) -> bool {
        self.work_remaining <= 1e-9
    }

    /// Effective work rate (equivalent-MB/s) at node contention `scale`
    /// given `read_rate` MB/s of granted remote-read bandwidth: compute
    /// and input delivery proceed in lockstep, so a remote map runs at
    /// whichever is slower. This is the piecewise-constant rate the
    /// adaptive stepper integrates until the next event.
    pub fn effective_work_rate(&self, profile: &JobProfile, scale: f64, read_rate: f64) -> f64 {
        let compute = profile.map_rate * scale;
        if self.remote_src.is_some() && self.input_remaining > 1e-9 && self.input_mb > 0.0 {
            compute.min(read_rate * self.work_total / self.input_mb)
        } else {
            compute
        }
    }

    /// Seconds until this task completes at a constant `work_rate`
    /// (equivalent-MB/s); `None` when stalled (rate ≈ 0).
    pub fn time_to_completion(&self, work_rate: f64) -> Option<f64> {
        (work_rate > 1e-9).then(|| self.work_remaining.max(0.0) / work_rate)
    }

    /// True once cumulative progress has reached the `frac` threshold.
    /// This is the *exact complement* of [`MapTask::time_to_progress`]
    /// returning `None` for a running task: both compare the same
    /// work-units expression against the same epsilon, so a failure point
    /// the stepper stops proposing is guaranteed to have fired. (Comparing
    /// `progress() >= frac` instead divides by `work_total` first and can
    /// land a hair *below* the threshold the undivided form already
    /// considers reached — the event is then skipped forever.)
    pub fn reached_progress(&self, frac: f64) -> bool {
        frac * self.work_total - (self.work_total - self.work_remaining) <= 1e-9
    }

    /// Seconds until cumulative progress crosses `frac` at a constant
    /// `work_rate`; `None` when stalled or already past the threshold
    /// (used to schedule injected failure points as discrete events).
    pub fn time_to_progress(&self, frac: f64, work_rate: f64) -> Option<f64> {
        if work_rate <= 1e-9 {
            return None;
        }
        let work_to_go = frac * self.work_total - (self.work_total - self.work_remaining);
        (work_to_go > 1e-9).then(|| work_to_go / work_rate)
    }

    /// Advance by `work_mb` equivalent-MB of processing; returns the
    /// `(input, output)` MB attributable to this step, for the tracker's
    /// rate meters. Input and output are spread proportionally over the
    /// work so the meters see the cluster's true production *rate* (a
    /// 48-task simulated wave would otherwise turn completion-credited
    /// output into meter bursts far lumpier than a real cluster's
    /// thousands of desynchronised tasks).
    pub fn advance(&mut self, work_mb: f64) -> (f64, f64) {
        let step = work_mb.min(self.work_remaining);
        self.work_remaining -= step;
        let frac = if self.work_total > 0.0 {
            step / self.work_total
        } else {
            0.0
        };
        let consumed = (frac * self.input_mb).min(self.input_remaining);
        self.input_remaining -= consumed;
        let produced = frac * self.output_mb;
        (consumed, produced)
    }
}

/// Phase of a reduce task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReducePhase {
    /// Fetching map-output partitions; overlaps the map waves.
    Shuffle,
    /// Merging/sorting fetched data (after the barrier).
    Sort,
    /// Applying the reduce function and writing output.
    Reduce,
    Done,
}

/// A running reduce task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReduceTask {
    pub id: ReduceTaskId,
    pub node: NodeId,
    pub phase: ReducePhase,
    /// MB fetched so far, per source node (indexed by `NodeId.0`).
    pub fetched_by_src: Vec<f64>,
    /// Total MB fetched.
    pub fetched_mb: f64,
    /// Work remaining in the current post-shuffle phase (MB).
    pub phase_remaining: f64,
    /// Total work of the current post-shuffle phase (MB), for progress.
    pub phase_total: f64,
    /// Fixed overhead added to the sort phase (MB-equivalent).
    pub sort_setup_mb: f64,
    /// Fixed overhead added to the reduce phase (MB-equivalent).
    pub reduce_setup_mb: f64,
    /// Size of this task's full partition; fixed once the last map finishes.
    pub partition_mb: Option<f64>,
    /// Per-task service jitter applied to sort/reduce work.
    pub jitter: f64,
    pub started_at: SimTime,
    /// Instant the shuffle phase completed (barrier + fetch complete).
    pub shuffle_done_at: Option<SimTime>,
}

impl ReduceTask {
    /// Equivalent seconds of fixed overhead per post-shuffle phase
    /// (merge-file open/close, output commit) at the phase's nominal rate.
    pub const PHASE_SETUP_S: f64 = 0.7;

    pub fn new(id: ReduceTaskId, node: NodeId, workers: usize, jitter: f64, now: SimTime) -> Self {
        ReduceTask {
            id,
            node,
            phase: ReducePhase::Shuffle,
            fetched_by_src: vec![0.0; workers],
            fetched_mb: 0.0,
            phase_remaining: 0.0,
            phase_total: 0.0,
            sort_setup_mb: 0.0,
            reduce_setup_mb: 0.0,
            partition_mb: None,
            jitter: jitter.max(0.05),
            started_at: now,
            shuffle_done_at: None,
        }
    }

    /// A task whose sort/reduce phases carry the profile's fixed setup
    /// overheads (what the engine constructs).
    pub fn with_profile_overheads(
        id: ReduceTaskId,
        node: NodeId,
        workers: usize,
        profile: &JobProfile,
        jitter: f64,
        now: SimTime,
    ) -> Self {
        let mut t = ReduceTask::new(id, node, workers, jitter, now);
        t.sort_setup_mb = profile.sort_rate * Self::PHASE_SETUP_S;
        t.reduce_setup_mb = profile.reduce_rate * Self::PHASE_SETUP_S;
        t
    }

    /// Record `mb` fetched from `src`.
    pub fn record_fetch(&mut self, src: NodeId, mb: f64) {
        debug_assert!(mb >= 0.0);
        self.fetched_by_src[src.0] += mb;
        self.fetched_mb += mb;
    }

    /// Hadoop-style progress in `[0, 1]`: shuffle, sort and reduce each
    /// contribute one third.
    pub fn progress(&self) -> f64 {
        match self.phase {
            ReducePhase::Shuffle => match self.partition_mb {
                Some(total) if total > 0.0 => (self.fetched_mb / total).min(1.0) / 3.0,
                Some(_) => 1.0 / 3.0,
                // before the barrier the full partition size is unknown;
                // report optimistically against what is fetchable
                None => 0.0_f64.max((self.fetched_mb / (self.fetched_mb + 1.0)) / 3.0),
            },
            ReducePhase::Sort => {
                let total = self.phase_total.max(1e-9);
                1.0 / 3.0 + (1.0 - self.phase_remaining / total).clamp(0.0, 1.0) / 3.0
            }
            ReducePhase::Reduce => {
                let total = self.phase_total.max(1e-9);
                2.0 / 3.0 + (1.0 - self.phase_remaining / total).clamp(0.0, 1.0) / 3.0
            }
            ReducePhase::Done => 1.0,
        }
    }

    /// Called when the barrier is crossed *and* all fetches for this task
    /// have completed: fixes the partition size and enters the sort phase.
    pub fn finish_shuffle(&mut self, partition_mb: f64, now: SimTime) {
        debug_assert_eq!(self.phase, ReducePhase::Shuffle);
        self.partition_mb = Some(partition_mb);
        self.phase = ReducePhase::Sort;
        self.phase_total = partition_mb * self.jitter + self.sort_setup_mb;
        self.phase_remaining = self.phase_total;
        self.shuffle_done_at = Some(now);
    }

    /// Advance the current sort/reduce phase by `work_mb`; transitions
    /// phases when they complete. Returns `true` if the task just finished.
    pub fn advance_compute(&mut self, work_mb: f64) -> bool {
        match self.phase {
            ReducePhase::Sort => {
                self.phase_remaining -= work_mb;
                if self.phase_remaining <= 1e-9 {
                    self.phase = ReducePhase::Reduce;
                    self.phase_total = self.partition_mb.expect("sort implies barrier")
                        * self.jitter
                        + self.reduce_setup_mb;
                    self.phase_remaining = self.phase_total;
                    // nothing to do at all finishes instantly
                    if self.phase_remaining <= 1e-9 {
                        self.phase = ReducePhase::Done;
                        return true;
                    }
                }
                false
            }
            ReducePhase::Reduce => {
                self.phase_remaining -= work_mb;
                if self.phase_remaining <= 1e-9 {
                    self.phase = ReducePhase::Done;
                    return true;
                }
                false
            }
            ReducePhase::Shuffle | ReducePhase::Done => false,
        }
    }

    /// Demand this task places on its node in its current phase.
    pub fn demand(&self, profile: &JobProfile) -> TaskDemand {
        match self.phase {
            ReducePhase::Shuffle => profile.shuffle_demand(),
            ReducePhase::Sort | ReducePhase::Reduce => profile.reduce_demand(),
            ReducePhase::Done => TaskDemand::IDLE,
        }
    }

    /// Nominal processing rate of the current compute phase (MB/s).
    pub fn phase_rate(&self, profile: &JobProfile) -> f64 {
        match self.phase {
            ReducePhase::Sort => profile.sort_rate,
            ReducePhase::Reduce => profile.reduce_rate,
            _ => 0.0,
        }
    }

    /// Seconds until the current sort/reduce phase completes at a constant
    /// effective `rate` MB/s; `None` when stalled or not in a compute
    /// phase. Phase completion must be a step boundary for the adaptive
    /// stepper: [`ReduceTask::advance_compute`] discards work overshooting
    /// a transition, so landing exactly on it loses nothing.
    pub fn time_to_phase_completion(&self, rate: f64) -> Option<f64> {
        match self.phase {
            ReducePhase::Sort | ReducePhase::Reduce => {
                (rate > 1e-9).then(|| self.phase_remaining.max(0.0) / rate)
            }
            ReducePhase::Shuffle | ReducePhase::Done => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid() -> MapTaskId {
        MapTaskId {
            job: JobId(0),
            index: 0,
        }
    }

    fn rid() -> ReduceTaskId {
        ReduceTaskId {
            job: JobId(0),
            partition: 0,
        }
    }

    #[test]
    fn map_task_work_includes_spill_and_setup() {
        let p = JobProfile::synthetic_reduce_heavy(); // selectivity 1, spill 0.5
        let t = MapTask::new(mid(), NodeId(0), &p, 128.0, None, 1.0, SimTime::ZERO);
        let expected = 128.0 * 1.5 + p.map_rate * MapTask::MAP_SETUP_S;
        assert!((t.work_total - expected).abs() < 1e-9);
        assert!((t.output_mb - 128.0).abs() < 1e-9);
    }

    #[test]
    fn map_task_advance_and_progress() {
        let p = JobProfile::synthetic_map_heavy();
        let mut t = MapTask::new(mid(), NodeId(0), &p, 100.0, None, 1.0, SimTime::ZERO);
        assert_eq!(t.progress(), 0.0);
        let (consumed, produced) = t.advance(t.work_total / 2.0);
        assert!((t.progress() - 0.5).abs() < 1e-9);
        assert!((consumed - 50.0).abs() < 1e-9, "half the input consumed");
        assert!((produced - t.output_mb / 2.0).abs() < 1e-9);
        // setup overhead is part of the work
        assert!(t.work_total > 100.0 + p.spill_weight * 100.0 * p.map_selectivity);
        assert!(!t.is_done());
        t.advance(f64::INFINITY);
        assert!(t.is_done());
        assert!((t.progress() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn map_task_input_consumption_conserved() {
        let p = JobProfile::synthetic_reduce_heavy();
        let mut t = MapTask::new(mid(), NodeId(0), &p, 128.0, None, 1.0, SimTime::ZERO);
        let (mut total_in, mut total_out) = (0.0, 0.0);
        while !t.is_done() {
            let (i, o) = t.advance(10.0);
            total_in += i;
            total_out += o;
        }
        assert!((total_in - 128.0).abs() < 1e-6);
        assert!((total_out - t.output_mb).abs() < 1e-6, "output conserved");
    }

    #[test]
    fn jitter_scales_work() {
        let p = JobProfile::synthetic_map_heavy();
        let fast = MapTask::new(mid(), NodeId(0), &p, 100.0, None, 0.9, SimTime::ZERO);
        let slow = MapTask::new(mid(), NodeId(0), &p, 100.0, None, 1.1, SimTime::ZERO);
        assert!(fast.work_total < slow.work_total);
    }

    #[test]
    fn reduce_phases_walk_in_order() {
        let p = JobProfile::synthetic_reduce_heavy();
        let mut r = ReduceTask::new(rid(), NodeId(1), 4, 1.0, SimTime::ZERO);
        assert_eq!(r.phase, ReducePhase::Shuffle);
        r.record_fetch(NodeId(0), 60.0);
        r.record_fetch(NodeId(2), 40.0);
        assert_eq!(r.fetched_mb, 100.0);
        r.finish_shuffle(100.0, SimTime::from_secs(10));
        assert_eq!(r.phase, ReducePhase::Sort);
        assert!(!r.advance_compute(50.0));
        assert_eq!(r.phase, ReducePhase::Sort);
        assert!(!r.advance_compute(50.0)); // sort done -> reduce begins
        assert_eq!(r.phase, ReducePhase::Reduce);
        assert!(r.advance_compute(100.0));
        assert_eq!(r.phase, ReducePhase::Done);
        let _ = p;
    }

    #[test]
    fn reduce_progress_monotone_through_phases() {
        let mut r = ReduceTask::new(rid(), NodeId(0), 2, 1.0, SimTime::ZERO);
        let mut last = r.progress();
        r.record_fetch(NodeId(0), 30.0);
        assert!(r.progress() >= last);
        last = r.progress();
        r.finish_shuffle(30.0, SimTime::from_secs(1));
        assert!(r.progress() >= last - 1e-9);
        while r.phase != ReducePhase::Done {
            r.advance_compute(5.0);
            assert!(r.progress() >= last - 1e-9);
            last = r.progress();
        }
        assert_eq!(r.progress(), 1.0);
    }

    #[test]
    fn zero_partition_reduce_completes_immediately() {
        let mut r = ReduceTask::new(rid(), NodeId(0), 2, 1.0, SimTime::ZERO);
        r.finish_shuffle(0.0, SimTime::ZERO);
        // sort of nothing transitions straight through
        assert!(r.advance_compute(0.0) || r.phase == ReducePhase::Done);
        assert_eq!(r.phase, ReducePhase::Done);
    }

    #[test]
    fn profile_overheads_lengthen_phases() {
        let p = JobProfile::synthetic_reduce_heavy();
        let mut bare = ReduceTask::new(rid(), NodeId(0), 2, 1.0, SimTime::ZERO);
        let mut heavy =
            ReduceTask::with_profile_overheads(rid(), NodeId(0), 2, &p, 1.0, SimTime::ZERO);
        bare.finish_shuffle(100.0, SimTime::ZERO);
        heavy.finish_shuffle(100.0, SimTime::ZERO);
        assert!(heavy.phase_remaining > bare.phase_remaining);
        // even a zero partition takes the setup time with overheads
        let mut zero =
            ReduceTask::with_profile_overheads(rid(), NodeId(0), 2, &p, 1.0, SimTime::ZERO);
        zero.finish_shuffle(0.0, SimTime::ZERO);
        assert!(!zero.advance_compute(1.0), "setup keeps it busy briefly");
        assert!(!zero.advance_compute(1e9), "reduce-phase setup remains");
        assert!(zero.advance_compute(1e9));
        assert_eq!(zero.phase, ReducePhase::Done);
    }

    #[test]
    fn completion_time_queries_match_integration() {
        let p = JobProfile::synthetic_map_heavy();
        let mut t = MapTask::new(mid(), NodeId(0), &p, 100.0, None, 1.0, SimTime::ZERO);
        let rate = 25.0;
        let eta = t.time_to_completion(rate).unwrap();
        // integrating for exactly eta finishes the task
        t.advance(rate * eta);
        assert!(t.is_done());
        assert_eq!(t.time_to_completion(0.0), None, "stalled task never ends");
        // progress-crossing query: crossing 0.5 takes half the completion time
        let t2 = MapTask::new(mid(), NodeId(0), &p, 100.0, None, 1.0, SimTime::ZERO);
        let half = t2.time_to_progress(0.5, rate).unwrap();
        assert!((half * 2.0 - eta).abs() < 1e-9);
        assert_eq!(t2.time_to_progress(-0.1, rate), None, "already past");
    }

    #[test]
    fn failure_point_exactly_at_progress_is_reached() {
        let p = JobProfile::synthetic_map_heavy();
        let mut t = MapTask::new(mid(), NodeId(0), &p, 100.0, None, 1.0, SimTime::ZERO);
        let rate = 25.0;
        let fail_at = 0.37;
        let eta = t.time_to_progress(fail_at, rate).expect("not yet reached");
        t.advance(rate * eta);
        // integrating to exactly the crossing instant can leave progress()
        // an ulp below fail_at; the undivided check must still report the
        // threshold reached the moment the query stops proposing it
        assert!(t.reached_progress(fail_at));
        assert_eq!(t.time_to_progress(fail_at, rate), None);
    }

    #[test]
    fn effective_rate_caps_remote_reads_only() {
        let p = JobProfile::synthetic_map_heavy();
        let local = MapTask::new(mid(), NodeId(0), &p, 100.0, None, 1.0, SimTime::ZERO);
        let remote = MapTask::new(
            mid(),
            NodeId(0),
            &p,
            100.0,
            Some(NodeId(1)),
            1.0,
            SimTime::ZERO,
        );
        // local maps ignore the read rate entirely
        assert_eq!(
            local.effective_work_rate(&p, 1.0, 0.0),
            p.map_rate,
            "local map at full speed"
        );
        // a starved remote map is delivery-bound
        assert_eq!(remote.effective_work_rate(&p, 1.0, 0.0), 0.0);
        let slow = remote.effective_work_rate(&p, 1.0, 1.0);
        assert!((slow - remote.work_total / 100.0).abs() < 1e-9);
        // ample bandwidth: compute-bound again
        assert_eq!(remote.effective_work_rate(&p, 0.5, 1e9), p.map_rate * 0.5);
    }

    #[test]
    fn reduce_phase_completion_query_matches_integration() {
        let p = JobProfile::synthetic_reduce_heavy();
        let mut r = ReduceTask::with_profile_overheads(rid(), NodeId(0), 2, &p, 1.0, SimTime::ZERO);
        assert_eq!(r.time_to_phase_completion(10.0), None, "shuffling");
        r.finish_shuffle(100.0, SimTime::ZERO);
        let rate = 40.0;
        let eta = r.time_to_phase_completion(rate).unwrap();
        assert!(!r.advance_compute(rate * eta * 0.999), "just short");
        assert_eq!(r.phase, ReducePhase::Sort);
        // the remainder lands the transition exactly
        let eta2 = r.time_to_phase_completion(rate).unwrap();
        r.advance_compute(rate * eta2);
        assert_eq!(r.phase, ReducePhase::Reduce);
        assert_eq!(r.time_to_phase_completion(0.0), None, "stalled");
    }

    #[test]
    fn demand_tracks_phase() {
        let p = JobProfile::synthetic_reduce_heavy();
        let mut r = ReduceTask::new(rid(), NodeId(0), 2, 1.0, SimTime::ZERO);
        assert_eq!(r.demand(&p).threads, p.shuffle_fetchers);
        r.finish_shuffle(10.0, SimTime::ZERO);
        assert_eq!(r.demand(&p).cpu_cores, p.reduce_cpu);
        assert_eq!(r.phase_rate(&p), p.sort_rate);
        while !r.advance_compute(5.0) {}
        assert_eq!(r.phase_rate(&p), 0.0);
    }

    proptest::proptest! {
        /// Work conservation of the piecewise-constant integrator: at a
        /// constant rate, advancing a map task over `dt` consumes and
        /// produces exactly the same bytes whether taken as one macro-step
        /// or as any partition into sub-steps. This is the property that
        /// lets the adaptive stepper replace N fixed ticks with one step.
        #[test]
        fn prop_map_advance_is_partition_invariant(
            input_mb in 1.0f64..2048.0,
            rate in 0.5f64..500.0,
            jitter in 0.5f64..2.0,
            splits in proptest::collection::vec(0.01f64..1.0, 1..40),
        ) {
            let p = JobProfile::synthetic_reduce_heavy();
            let dt_total: f64 = splits.iter().sum();
            let mut whole = MapTask::new(mid(), NodeId(0), &p, input_mb, None, jitter, SimTime::ZERO);
            let (wc, wp) = whole.advance(rate * dt_total);
            let mut parts = MapTask::new(mid(), NodeId(0), &p, input_mb, None, jitter, SimTime::ZERO);
            let (mut pc, mut pp) = (0.0, 0.0);
            for dt in &splits {
                let (c, o) = parts.advance(rate * dt);
                pc += c;
                pp += o;
            }
            let tol = 1e-6 * input_mb.max(1.0);
            proptest::prop_assert!((wc - pc).abs() < tol, "consumed {wc} vs {pc}");
            proptest::prop_assert!((wp - pp).abs() < tol, "produced {wp} vs {pp}");
            proptest::prop_assert!((whole.work_remaining - parts.work_remaining).abs() < tol);
            proptest::prop_assert!((whole.input_remaining - parts.input_remaining).abs() < tol);
            proptest::prop_assert_eq!(whole.is_done(), parts.is_done());
        }

        /// `time_to_progress` and `reached_progress` are complements: for
        /// a running task, either the stepper still has an ETA to the
        /// threshold (and integrating that long reaches it), or the
        /// threshold is already reached. No third state where the event is
        /// silently dropped.
        #[test]
        fn prop_progress_threshold_never_skipped(
            input_mb in 1.0f64..2048.0,
            rate in 0.5f64..500.0,
            jitter in 0.5f64..2.0,
            frac in 0.0f64..1.0,
            adv in 0.0f64..1.5,
        ) {
            let p = JobProfile::synthetic_map_heavy();
            let mut t = MapTask::new(mid(), NodeId(0), &p, input_mb, None, jitter, SimTime::ZERO);
            t.advance(t.work_total * adv);
            match t.time_to_progress(frac, rate) {
                None => proptest::prop_assert!(t.reached_progress(frac)),
                Some(eta) => {
                    proptest::prop_assert!(!t.reached_progress(frac));
                    t.advance(rate * eta);
                    proptest::prop_assert!(t.reached_progress(frac));
                }
            }
        }

        /// The same partition invariance for a reduce task's sort+reduce
        /// phases: total work to Done is independent of step sizes (phase
        /// transitions discard overshoot, so sub-steps can only ever need
        /// *more* work, never less — bounded by one extra step per phase).
        #[test]
        fn prop_reduce_compute_partition_invariant(
            partition_mb in 0.0f64..512.0,
            jitter in 0.5f64..2.0,
            chunk in 0.5f64..64.0,
        ) {
            let p = JobProfile::synthetic_reduce_heavy();
            let mk = || {
                let mut r = ReduceTask::with_profile_overheads(
                    rid(), NodeId(0), 2, &p, jitter, SimTime::ZERO);
                r.finish_shuffle(partition_mb, SimTime::ZERO);
                r
            };
            // exact phase-boundary stepping (what the adaptive loop does)
            let mut exact = mk();
            let mut exact_work = 0.0;
            while exact.phase != ReducePhase::Done {
                let w = exact.phase_remaining;
                exact.advance_compute(w);
                exact_work += w;
            }
            // fixed chunks (what the fixed-tick loop does)
            let mut chunked = mk();
            let mut chunked_work = 0.0;
            let mut steps = 0;
            while chunked.phase != ReducePhase::Done {
                chunked.advance_compute(chunk);
                chunked_work += chunk;
                steps += 1;
                proptest::prop_assert!(steps < 1_000_000, "diverged");
            }
            // chunked stepping overshoots each of the two transitions by
            // less than one chunk; it can never finish with less work
            proptest::prop_assert!(chunked_work + 1e-9 >= exact_work);
            proptest::prop_assert!(chunked_work <= exact_work + 2.0 * chunk + 1e-9);
        }
    }
}
