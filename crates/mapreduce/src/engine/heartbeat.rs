//! The heartbeat round (Hadoop's `JobTracker.heartbeat`): aggregate the
//! trackers' statistics, let the slot policy retarget the live trackers'
//! slots, and offer free slots to the scheduler and speculative backups.

use super::Sim;
use crate::counters::Counter;
use crate::events::Event;
use crate::policy::{PolicyContext, TrackerSnapshot};
use crate::stats::ClusterStats;
use crate::task::{MapAttemptId, ReducePhase, ReduceTask};
use simgrid::cluster::NodeId;

impl<'r> Sim<'r> {
    #[inline(never)]
    pub(super) fn heartbeat_round(&mut self) {
        let sim_ms = self.st.now.as_millis();
        let stats = self.span("heartbeat", "aggregate_stats", sim_ms, |s| {
            s.aggregate_stats()
        });
        // dead and blacklisted trackers are invisible to the policy: slot
        // targets are recomputed over the live set only, so every policy
        // (SMapReduce included) is fault-aware without its own crash logic.
        // The snapshot list is a recycled cluster-sized buffer, so the
        // heartbeat fan-in stops allocating once it has seen a full round.
        let mut snapshots = std::mem::take(&mut self.scratch.snapshots);
        snapshots.clear();
        snapshots.extend(
            self.st
                .trackers
                .iter()
                .filter(|t| self.st.node_up[t.node.0] && !t.blacklisted)
                .map(|t| TrackerSnapshot {
                    node: t.node,
                    cores: self.st.config.cluster.node_spec(t.node).cores,
                    map_target: t.map_slots.target(),
                    map_occupied: t.map_slots.occupied(),
                    reduce_target: t.reduce_slots.target(),
                    reduce_occupied: t.reduce_slots.occupied(),
                }),
        );
        let ctx = PolicyContext {
            now: self.st.now,
            stats: &stats,
            trackers: &snapshots,
            init_map_slots: self.st.config.init_map_slots,
            init_reduce_slots: self.st.config.init_reduce_slots,
        };
        let directives = self.span("heartbeat", "policy_decide", sim_ms, |s| {
            s.policy.decide(&ctx)
        });
        self.scratch.snapshots = snapshots;
        let overhead = self.policy.directive_overhead_ms();
        for d in directives {
            let tr = &mut self.st.trackers[d.node.0];
            let mut changed = tr.map_slots.set_target(d.map_slots);
            changed |= tr.reduce_slots.set_target(d.reduce_slots);
            if changed {
                self.st.slot_changes += 1;
                if overhead > 0 {
                    if tr.stall_ms == 0 {
                        self.scratch.stalled.push(d.node);
                    }
                    tr.stall_ms += overhead;
                    self.scratch.nodes.mark(d.node);
                }
                self.st.events.push(Event::SlotTargetsChanged {
                    at: self.st.now,
                    node: d.node,
                    map_slots: d.map_slots,
                    reduce_slots: d.reduce_slots,
                });
            }
        }
        self.span("heartbeat", "assign_tasks", sim_ms, |s| {
            s.assign_tasks(&stats);
            s.settle_maps();
            s.settle_reduces();
            if s.st.config.speculative_maps {
                s.launch_speculative_backups();
            }
        });
        self.st.heartbeat_round += 1;
        self.heartbeat_counter.inc();
    }

    /// Harvest every tracker's meters and aggregate active-job state.
    fn aggregate_stats(&mut self) -> ClusterStats {
        let mut s = ClusterStats {
            now: self.st.now,
            ..ClusterStats::default()
        };
        for i in 0..self.st.trackers.len() {
            let up = self.st.node_up[i];
            let tr = &mut self.st.trackers[i];
            // harvest everyone (keeps meter windows aligned), but a dead
            // node's slots are not part of the cluster's configured capacity
            let hb = tr.meters.harvest(self.st.now);
            s.map_input_rate += hb.map_input_rate;
            s.map_output_rate += hb.map_output_rate;
            s.shuffle_rate += hb.shuffle_rate;
            if up {
                s.map_slot_target += tr.map_slots.target();
                s.reduce_slot_target += tr.reduce_slots.target();
            }
        }
        for (rid, r) in self.st.running_reduces.rows() {
            if r.phase == ReducePhase::Shuffle && self.st.jobs[rid.job.0].is_active(self.st.now) {
                s.shuffling_reduces += 1;
            }
        }
        let now = self.st.now;
        for job in self.st.jobs.iter().filter(|j| j.is_active(now)) {
            s.total_maps += job.total_maps();
            s.pending_maps += job.pending_map_blocks.len();
            s.running_maps += job.running_maps;
            s.completed_maps += job.completed_maps;
            s.total_reduces += job.total_reduces();
            s.pending_reduces += job.pending_reduce_parts.len();
            if job.reduces_eligible(self.st.config.reduce_slowstart) {
                s.eligible_pending_reduces += job.pending_reduce_parts.len();
            }
            s.running_reduces += job.running_reduces;
            s.completed_reduces += job.completed_reduces;
            s.map_output_mb += job.shuffle.total_output_mb();
            s.est_shuffle_total_mb += job.spec.expected_shuffle_mb();
        }
        if s.total_reduces > 0 {
            s.est_shuffle_per_reduce_mb = s.est_shuffle_total_mb / s.total_reduces as f64;
        }
        s
    }

    /// Offer free slots to the scheduler, rotating the starting tracker
    /// each round so assignment pressure spreads evenly.
    fn assign_tasks(&mut self, stats: &ClusterStats) {
        let workers = self.st.trackers.len();
        // a round launches at most one task per free slot and per pending
        // task (the round's stats count those): size the staging buffers
        // for that once, rather than regrowing them launch by launch (a
        // 1024-node cell's first round stages 2,048 maps)
        let (mut free_maps, mut free_reduces) = (0, 0);
        for tr in &self.st.trackers {
            free_maps += tr.map_slots.free();
            free_reduces += tr.reduce_slots.free();
        }
        self.st
            .running_maps
            .reserve_staging(stats.pending_maps.min(free_maps));
        self.st
            .running_reduces
            .reserve_staging(stats.eligible_pending_reduces.min(free_reduces));
        let start = (self.st.heartbeat_round as usize) % workers;
        for k in 0..workers {
            let i = (start + k) % workers;
            if !self.st.node_up[i] || self.st.trackers[i].blacklisted {
                continue; // dead or blacklisted trackers get no work
            }
            let node = self.st.trackers[i].node;
            while self.st.trackers[i].map_slots.free() > 0 {
                let Some(a) = self.st.sched.pick_map(
                    &mut self.st.jobs,
                    &mut self.derived.map_cache,
                    node,
                    self.st.now,
                ) else {
                    break;
                };
                self.launch_map(i, MapAttemptId::original(a.id), a.input_mb, a.remote_src);
            }
            while self.st.trackers[i].reduce_slots.free() > 0 {
                let Some(rid) = self.st.sched.pick_reduce(&mut self.st.jobs, self.st.now) else {
                    break;
                };
                let jitter = self.st.rng.jitter(self.st.config.jitter_amp);
                let task = ReduceTask::with_profile_overheads(
                    rid,
                    node,
                    workers,
                    &self.derived.profiles[rid.job.0],
                    jitter,
                    self.st.now,
                );
                self.derived.source_sets[rid.job.0]
                    .rebuild(&self.st.jobs[rid.job.0].shuffle, &task);
                self.st.trackers[i].reduce_slots.launch();
                self.scratch.nodes.mark(node);
                self.st.job_counters[rid.job.0].inc(Counter::TotalLaunchedReduces);
                self.st.events.push(Event::ReduceLaunched {
                    at: self.st.now,
                    id: rid,
                    node,
                });
                self.st.running_reduces.stage(rid, task);
            }
        }
    }

    /// Hadoop-style speculative execution: once a job has no pending maps,
    /// idle map slots may run backup attempts of its slowest running maps.
    fn launch_speculative_backups(&mut self) {
        let now = self.st.now;
        let min_rt = self.st.config.speculation_min_runtime;
        for j in 0..self.st.jobs.len() {
            let job = &self.st.jobs[j];
            if !job.is_active(now) || !job.pending_map_blocks.is_empty() || job.all_maps_done() {
                continue;
            }
            // LATE-style trigger: an original attempt is a straggler when
            // it has already run longer than the job's completed tasks
            // typically take (by the configured gap) yet is still short of
            // done. Comparing against *completed* durations (not the
            // running mean) keeps the trigger alive in the last wave,
            // where only stragglers remain running.
            if job.map_durations.len() < 5 {
                continue; // not enough history to call anyone slow
            }
            let mean_dur: f64 =
                job.map_durations.iter().sum::<f64>() / job.map_durations.len() as f64;
            let overdue = mean_dur * (1.0 + self.st.config.speculation_gap);
            let mut stragglers: Vec<(MapAttemptId, f64)> = self
                .st
                .running_maps
                .rows()
                .iter()
                .filter(|(a, t)| {
                    a.task.job.0 == j
                        && a.attempt == 0
                        && now.since(t.started_at) >= min_rt
                        && now.since(t.started_at).as_secs_f64() > overdue
                        && t.progress() < 0.95
                        && !self
                            .st
                            .running_maps
                            .contains_key(&MapAttemptId::backup(a.task))
                        && !self.st.jobs[j].completed_blocks[a.task.index]
                })
                .map(|(a, t)| (*a, t.progress()))
                .collect();
            stragglers.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite progress"));
            for (aid, _) in stragglers {
                let origin = self.st.running_maps.get(&aid).expect("straggler").node;
                // pick the tracker with the most free map slots, avoiding
                // the straggler's own (possibly overloaded) node
                let Some(i) = (0..self.st.trackers.len())
                    .filter(|&i| {
                        self.st.node_up[i]
                            && !self.st.trackers[i].blacklisted
                            && self.st.trackers[i].map_slots.free() > 0
                            && NodeId(i) != origin
                    })
                    .max_by_key(|&i| self.st.trackers[i].map_slots.free())
                else {
                    break; // no free slots anywhere else
                };
                let node = self.st.trackers[i].node;
                let (block_mb, remote_src) = {
                    let block = &self.st.jobs[j].layout.blocks[aid.task.index];
                    let src = if block.is_local_to(node) {
                        None
                    } else {
                        match block.replicas.first() {
                            Some(&s) => Some(s),
                            // every replica died with its node; the original
                            // attempt already has the data streamed/local
                            None => continue,
                        }
                    };
                    (block.size_mb, src)
                };
                self.launch_map(i, MapAttemptId::backup(aid.task), block_mb, remote_src);
                // the scheduler's pick counts an original as running
                self.st.jobs[j].running_maps += 1;
                self.st.speculative_attempts += 1;
                self.st.job_counters[j].inc(Counter::SpeculativeMaps);
            }
            // the next job's straggler scan walks the table
            self.settle_maps();
        }
    }
}
