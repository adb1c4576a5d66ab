//! The task lifecycle (Hadoop's `TaskInProgress`): one body each for a map
//! launch, a map's retirement on completion, failure or kill, and a
//! reduce's retirement, plus the settles that apply them to the tables.

use super::Sim;
use crate::counters::Counter;
use crate::events::Event;
use crate::task::{MapAttemptId, MapTask, ReduceTaskId};
use simgrid::cluster::NodeId;
use simgrid::time::SimTime;

impl<'r> Sim<'r> {
    /// Apply the launches and retirements pending on the map table and
    /// the failure points, which follow their attempts.
    pub(super) fn settle_maps(&mut self) {
        self.st.running_maps.settle(&mut self.scratch.map_spare);
        self.st.failure_points.settle(&mut self.scratch.point_spare);
        debug_assert!(
            self.st
                .failure_points
                .rows()
                .iter()
                .all(|(aid, _)| self.st.running_maps.contains_key(aid)),
            "a failure point outlived its attempt"
        );
    }

    /// Apply the launches and retirements pending on the reduce table.
    pub(super) fn settle_reduces(&mut self) {
        self.st
            .running_reduces
            .settle(&mut self.scratch.reduce_spare);
    }

    /// Launch map attempt `aid` on tracker `i`, reading `input_mb` from
    /// `remote_src` (`None` if local): draw its service time, take a slot,
    /// count and log the launch, roll its failure point and stage it.
    pub(super) fn launch_map(
        &mut self,
        i: usize,
        aid: MapAttemptId,
        input_mb: f64,
        remote_src: Option<NodeId>,
    ) {
        let (node, ji) = (self.st.trackers[i].node, aid.task.job.0);
        let jitter = self.draw_map_jitter();
        let task = MapTask::new(
            aid.task,
            node,
            &self.derived.profiles[ji],
            input_mb,
            remote_src,
            jitter,
            self.st.now,
        );
        self.st.trackers[i].map_slots.launch();
        self.scratch.nodes.mark(node);
        let c = &mut self.st.job_counters[ji];
        c.inc(Counter::TotalLaunchedMaps);
        if remote_src.is_some() {
            c.inc(Counter::RemoteMaps);
        } else {
            c.inc(Counter::DataLocalMaps);
        }
        self.st.events.push(Event::MapLaunched {
            at: self.st.now,
            id: aid.task,
            node,
            remote_read: remote_src.is_some(),
        });
        self.maybe_inject_failure(aid);
        self.st.running_maps.stage(aid, task);
    }

    /// Kill a failed attempt and re-queue its block (Hadoop task retry).
    pub(super) fn fail_map(&mut self, aid: MapAttemptId) {
        let node = self.remove_map_attempt(aid);
        self.st.map_failures += 1;
        self.st.job_counters[aid.task.job.0].inc(Counter::FailedMaps);
        self.st.events.push(Event::MapFailed {
            at: self.st.now,
            id: aid.task,
            node,
        });
        self.charge_tracker_failure(node);
    }

    /// Kill a running attempt (a speculative race's loser, or one a crash
    /// stranded); its block is re-queued unless done or still covered.
    pub(super) fn kill_map(&mut self, aid: MapAttemptId) {
        let node = self.remove_map_attempt(aid);
        self.st.job_counters[aid.task.job.0].inc(Counter::KilledAttempts);
        self.st.events.push(Event::MapKilled {
            at: self.st.now,
            id: aid.task,
            node,
        });
    }

    /// Retire a running attempt that did not complete, and re-queue its
    /// block unless a sibling attempt still covers it. Returns the
    /// attempt's node. Shared by the retry and kill paths.
    fn remove_map_attempt(&mut self, aid: MapAttemptId) -> NodeId {
        let node = self.retire_map(aid).node;
        let ji = aid.task.job.0;
        let job = &mut self.st.jobs[ji];
        if !job.completed_blocks[aid.task.index]
            && !self.st.running_maps.contains_key(&aid.sibling())
        {
            self.derived.map_cache.requeue(ji, job, aid.task.index);
        }
        node
    }

    /// Retire a running attempt however it ended: drop it and its failure
    /// point, free its slot and take it off its job's running count.
    fn retire_map(&mut self, aid: MapAttemptId) -> MapTask {
        let task = self
            .st
            .running_maps
            .retire(&aid, MapTask::clone)
            .expect("retiring unknown map attempt");
        self.st.failure_points.retire(&aid, |_| ());
        self.st.trackers[task.node.0].map_slots.release();
        self.scratch.nodes.mark(task.node);
        self.st.jobs[aid.task.job.0].running_maps -= 1;
        task
    }

    /// Count an attempt failure against its tracker; enough of them get
    /// the tracker blacklisted (Hadoop's `mapred.max.tracker.failures`).
    /// Crash kills are not charged — the tracker is already dead.
    pub(super) fn charge_tracker_failure(&mut self, node: NodeId) {
        let tr = &mut self.st.trackers[node.0];
        tr.attempt_failures += 1;
        if !tr.blacklisted && tr.attempt_failures >= self.st.config.blacklist_threshold {
            tr.blacklisted = true;
            self.st.trackers_blacklisted += 1;
            self.st.events.push(Event::TrackerBlacklisted {
                at: self.st.now,
                node,
            });
        }
    }

    /// Service-time factor for a new map attempt: base jitter, possibly
    /// multiplied by the degraded-path slowdown.
    fn draw_map_jitter(&mut self) -> f64 {
        let mut j = self.st.rng.jitter(self.st.config.jitter_amp);
        if self.st.config.straggler_rate > 0.0 && self.st.rng.unit() < self.st.config.straggler_rate
        {
            j *= self.st.config.straggler_slowdown;
        }
        j
    }

    /// Roll the dice for an attempt's injected failure.
    fn maybe_inject_failure(&mut self, aid: MapAttemptId) {
        if self.st.config.map_failure_rate > 0.0
            && self.st.rng.unit() < self.st.config.map_failure_rate
        {
            // die somewhere in the middle of the run
            let fail_at = 0.1 + 0.8 * self.st.rng.unit();
            self.st.failure_points.stage(aid, fail_at);
        }
    }

    pub(super) fn complete_map(&mut self, aid: MapAttemptId) {
        let task = self.retire_map(aid);
        let id = aid.task;
        let job = &mut self.st.jobs[id.job.0];
        if job.completed_blocks[id.index] {
            // a sibling attempt finished in this same step and delivered
            // the block first; this one's work is discarded
            self.st.job_counters[id.job.0].inc(Counter::DiscardedMaps);
            self.st.events.push(Event::MapDiscarded {
                at: self.st.now,
                id,
                node: task.node,
            });
            return;
        }
        job.completed_blocks[id.index] = true;
        if aid.attempt > 0 {
            self.st.speculative_wins += 1;
        }
        // §IV-B: the MapTask records its output size upon completion; both
        // the meter and the shuffle availability are credited here. (The
        // slot manager averages the resulting lumpy rate over its balance
        // window — crediting production *continuously* instead would make
        // R_m lead R_s by a full task duration after every slot increase
        // and fake a shuffle lag.)
        self.st.trackers[task.node.0]
            .meters
            .map_output
            .record(task.output_mb);
        job.shuffle.on_map_complete(task.node, task.output_mb);
        self.derived.source_sets[id.job.0].map_completed(task.node);
        let c = &mut self.st.job_counters[id.job.0];
        c.add(Counter::MapOutputMb, task.output_mb);
        c.add(Counter::SpilledRecords, task.output_mb);
        // remember where the output landed: if that node crashes while a
        // reducer still needs the data, the map is re-executed
        job.block_output_node[id.index] = Some(task.node);
        job.completed_maps += 1;
        job.map_durations
            .push(self.st.now.since(task.started_at).as_secs_f64());
        self.st.events.push(Event::MapCompleted {
            at: self.st.now,
            id,
            node: task.node,
            output_mb: task.output_mb,
        });
        // kill the losing sibling attempt, if any. A sibling that has
        // finished too is in this step's completions, after this one: it
        // is not killed but completes and is discarded
        let sibling = aid.sibling();
        if self
            .st
            .running_maps
            .get(&sibling)
            .is_some_and(|t| !t.is_done())
        {
            self.kill_map(sibling);
        }
        let job = &mut self.st.jobs[id.job.0];
        if job.all_maps_done() {
            job.maps_done_at.get_or_insert(self.st.now);
            job.shuffle.set_maps_all_done();
            self.st.events.push(Event::BarrierCrossed {
                at: self.st.now,
                job: id.job,
            });
        }
    }

    pub(super) fn complete_reduce(&mut self, rid: ReduceTaskId) {
        let (node, started_at) = self.retire_reduce(rid);
        let job = &mut self.st.jobs[rid.job.0];
        job.completed_reduces += 1;
        job.reduce_durations
            .push(self.st.now.since(started_at).as_secs_f64());
        self.st.events.push(Event::ReduceCompleted {
            at: self.st.now,
            id: rid,
            node,
        });
        if job.completed_reduces == job.total_reduces() && job.all_maps_done() {
            job.finished_at.get_or_insert(self.st.now);
            self.st.events.push(Event::JobFinished {
                at: self.st.now,
                job: rid.job,
            });
        }
    }

    /// Retire a running reduce on completion or node loss: free its slot
    /// and take it off its job's running count. Returns node and start.
    pub(super) fn retire_reduce(&mut self, rid: ReduceTaskId) -> (NodeId, SimTime) {
        let (node, started_at) = self
            .st
            .running_reduces
            .retire(&rid, |t| (t.node, t.started_at))
            .expect("retiring unknown reduce");
        self.st.trackers[node.0].reduce_slots.release();
        self.scratch.nodes.mark(node);
        self.st.jobs[rid.job.0].running_reduces -= 1;
        (node, started_at)
    }
}
