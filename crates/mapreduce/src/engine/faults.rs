//! Faults and recovery: the fault plan's crash and rejoin transitions,
//! heartbeat-expiry detection, the job tracker's node-loss recovery and
//! the DFS's re-replication of lost replicas.

use super::Sim;
use crate::counters::Counter;
use crate::events::Event;
use crate::slots::SlotSet;
use crate::stats::TrackerMeters;
use crate::task::{MapAttemptId, MapTaskId, ReducePhase, ReduceTaskId};
use simgrid::cluster::NodeId;
use simgrid::error::SimError;
use simgrid::time::SimTime;

impl<'r> Sim<'r> {
    /// Apply every fault-plan transition with an instant in
    /// `(faults_done_until, now]`. In adaptive mode the horizon lands each
    /// step exactly on the next transition; in fixed mode an off-grid
    /// instant is picked up by the first later tick. Crashes sort before
    /// rejoins at the same instant so a zero-gap schedule still cycles.
    #[inline(never)]
    pub(super) fn process_fault_transitions(&mut self) -> Result<(), SimError> {
        if self.st.config.fault_plan.is_empty() {
            return Ok(());
        }
        let mut transitions: Vec<(SimTime, bool, NodeId)> = Vec::new();
        for f in self.st.config.fault_plan.faults() {
            if f.at > self.st.faults_done_until && f.at <= self.st.now {
                transitions.push((f.at, false, f.node));
            }
            if let Some(r) = f.rejoin_at() {
                if r > self.st.faults_done_until && r <= self.st.now {
                    transitions.push((r, true, f.node));
                }
            }
        }
        self.st.faults_done_until = self.st.now;
        transitions.sort_by_key(|&(t, rejoin, n)| (t, rejoin, n.0));
        for (_, rejoin, node) in transitions {
            if rejoin {
                self.rejoin_node(node)?;
            } else {
                self.crash_node(node);
            }
        }
        Ok(())
    }

    /// The physical half of a crash, applied at the crash instant: the
    /// node stops offering CPU and bandwidth (its tasks freeze in place),
    /// remote readers streaming input *from* it lose their source
    /// immediately, and its DFS replicas are gone. The *scheduler's*
    /// reaction waits for heartbeat-timeout detection or re-registration.
    fn crash_node(&mut self, d: NodeId) {
        if !self.st.node_up[d.0] {
            return; // overlapping faults: already down
        }
        self.st.node_up[d.0] = false;
        self.scratch.nodes.mark_up_flip(d);
        self.st.node_crashes += 1;
        self.node_crash_counter.inc();
        let tr = &mut self.st.trackers[d.0];
        tr.down_since = Some(self.st.now);
        tr.lost_handled = false;
        self.st.events.push(Event::NodeCrashed {
            at: self.st.now,
            node: d,
        });
        let readers: Vec<MapAttemptId> = self
            .st
            .running_maps
            .rows()
            .iter()
            .filter(|(_, t)| t.node != d && t.remote_src == Some(d) && t.input_remaining > 1e-9)
            .map(|(a, _)| *a)
            .collect();
        for aid in readers {
            self.kill_map(aid);
            self.st.crash_task_kills += 1;
        }
        self.settle_maps();
        self.lose_replicas(d);
    }

    /// Drop the dead node from every unfinished job's replica lists and
    /// queue under-replicated blocks for re-replication (survivors first).
    /// The per-node postings say exactly which blocks held a replica on
    /// `d`, so the scan is O(blocks on d), not O(all blocks × replicas).
    fn lose_replicas(&mut self, d: NodeId) {
        let live = self.st.node_up.iter().filter(|&&u| u).count();
        for (ji, job) in self.st.jobs.iter_mut().enumerate() {
            let mut posted = std::mem::take(&mut self.derived.replica_postings[ji][d.0]);
            if job.is_finished() {
                continue; // stale postings of a finished job are never read
            }
            // re-replication appends out of block order; restore the
            // ascending-block queueing order of the old full scan
            posted.sort_unstable();
            for &bi in &posted {
                let bi = bi as usize;
                let block = &mut job.layout.blocks[bi];
                let before = block.replicas.len();
                block.replicas.retain(|&n| n != d);
                debug_assert!(block.replicas.len() < before, "posting without replica");
                let desired = self.st.replication.min(live);
                if self.st.config.rereplication_rate > 0.0
                    && !block.replicas.is_empty()
                    && block.replicas.len() < desired
                    && !self.st.rerep_queue.contains(&(ji, bi))
                {
                    self.st.rerep_queue.push_back((ji, bi));
                }
            }
        }
    }

    /// A transiently-failed node comes back: it re-registers as a fresh
    /// tracker — empty slots at the initial targets, no map output, no
    /// replicas, clean failure record. If it returns before the expiry
    /// interval fired, re-registration itself reveals the loss.
    fn rejoin_node(&mut self, d: NodeId) -> Result<(), SimError> {
        if !self.st.config.fault_plan.is_up(d, self.st.now) {
            return Ok(()); // another overlapping fault still holds it down
        }
        if !self.st.trackers[d.0].lost_handled {
            self.handle_node_loss(d)?;
        }
        let tr = &mut self.st.trackers[d.0];
        tr.down_since = None;
        tr.stall_ms = 0;
        self.scratch.stalled.retain(|&n| n != d);
        tr.attempt_failures = 0;
        tr.blacklisted = false;
        tr.map_slots = SlotSet::new(self.st.config.init_map_slots);
        tr.reduce_slots = SlotSet::new(self.st.config.init_reduce_slots);
        tr.meters = TrackerMeters::new(self.st.now);
        self.st.node_up[d.0] = true;
        self.scratch.nodes.mark_up_flip(d);
        self.st.events.push(Event::NodeRejoined {
            at: self.st.now,
            node: d,
        });
        Ok(())
    }

    /// Heartbeat-timeout death detection: a tracker silent for
    /// [`EngineConfig::heartbeat_timeout`](super::EngineConfig) is
    /// declared lost. Runs on heartbeat boundaries only, so fixed and
    /// adaptive stepping detect on identical instants.
    pub(super) fn check_expired_trackers(&mut self) -> Result<(), SimError> {
        if self.st.config.fault_plan.is_empty() {
            return Ok(());
        }
        for i in 0..self.st.trackers.len() {
            let Some(since) = self.st.trackers[i].down_since else {
                continue;
            };
            if self.st.trackers[i].lost_handled {
                continue;
            }
            if self.st.now.since(since) >= self.st.config.heartbeat_timeout {
                self.handle_node_loss(NodeId(i))?;
            }
        }
        Ok(())
    }

    /// The scheduler's reaction to a confirmed tracker loss: kill and
    /// requeue its in-flight attempts, drain its map output from every
    /// shuffle, and re-execute completed maps whose output reducers still
    /// need — reopening the map barrier if it had been crossed. With
    /// recovery disabled, stranded work surfaces [`SimError::NodeLost`]
    /// instead (before any state is mutated).
    fn handle_node_loss(&mut self, d: NodeId) -> Result<(), SimError> {
        self.st.trackers[d.0].lost_handled = true;
        let map_victims: Vec<MapAttemptId> = self
            .st
            .running_maps
            .rows()
            .iter()
            .filter(|(_, t)| t.node == d)
            .map(|(a, _)| *a)
            .collect();
        let reduce_victims: Vec<ReduceTaskId> = self
            .st
            .running_reduces
            .rows()
            .iter()
            .filter(|(_, t)| t.node == d)
            .map(|(r, _)| *r)
            .collect();
        if !self.st.config.fault_recovery {
            let needed: usize = (0..self.st.jobs.len())
                .filter(|&ji| !self.st.jobs[ji].is_finished() && self.job_needs_map_output(ji))
                .map(|ji| {
                    let job = &self.st.jobs[ji];
                    job.block_output_node
                        .iter()
                        .filter(|&&n| n == Some(d))
                        .count()
                })
                .sum();
            let lost_inputs = self.st.jobs.iter().any(|j| {
                !j.is_finished()
                    && j.pending_map_blocks
                        .iter()
                        .any(|b| j.layout.blocks[b].replicas.is_empty())
            });
            if !map_victims.is_empty() || !reduce_victims.is_empty() || needed > 0 || lost_inputs {
                return Err(SimError::NodeLost {
                    node: d,
                    at: self.st.trackers[d.0].down_since.unwrap_or(self.st.now),
                    pending_work: format!(
                        "{} running maps, {} running reduces, {} completed map outputs \
                         (fault recovery disabled)",
                        map_victims.len(),
                        reduce_victims.len(),
                        needed
                    ),
                });
            }
        }
        for aid in map_victims {
            self.kill_map(aid);
            self.st.crash_task_kills += 1;
        }
        for rid in reduce_victims {
            self.retire_reduce(rid);
            let job = &mut self.st.jobs[rid.job.0];
            job.pending_reduce_parts.push(rid.partition);
            job.pending_reduce_parts.sort_unstable();
            self.st.crash_task_kills += 1;
            let c = &mut self.st.job_counters[rid.job.0];
            c.inc(Counter::KilledAttempts);
            c.inc(Counter::KilledReduces);
            self.st.events.push(Event::ReduceKilled {
                at: self.st.now,
                id: rid,
                node: d,
            });
        }
        self.settle_maps();
        self.settle_reduces();
        // lost map output: drain the dead node's availability from every
        // shuffle; maps whose output reducers still need are re-executed
        for ji in 0..self.st.jobs.len() {
            if self.st.jobs[ji].is_finished() {
                continue;
            }
            let needs = self.job_needs_map_output(ji);
            let job = &mut self.st.jobs[ji];
            let lost_mb = job.shuffle.on_node_lost(d);
            self.st.job_counters[ji].add(Counter::LostMapOutputMb, lost_mb);
            let lost: Vec<usize> = (0..job.block_output_node.len())
                .filter(|&b| job.block_output_node[b] == Some(d))
                .collect();
            for &b in &lost {
                job.block_output_node[b] = None;
            }
            if !needs || lost.is_empty() {
                continue;
            }
            let reopen = job.shuffle.maps_all_done();
            for &b in &lost {
                debug_assert!(job.completed_blocks[b]);
                job.completed_blocks[b] = false;
                job.completed_maps -= 1;
                job.pending_map_blocks.push(b);
                self.st.lost_map_outputs += 1;
                self.lost_output_counter.inc();
                self.st.job_counters[ji].inc(Counter::ReexecutedMaps);
                self.st.events.push(Event::MapOutputLost {
                    at: self.st.now,
                    id: MapTaskId {
                        job: job.spec.id,
                        index: b,
                    },
                    node: d,
                });
            }
            // the sort re-keys the queue: the cache rebuilds the job's lists
            self.derived.map_cache.resort(ji, job);
            if reopen {
                // the barrier reopens; complete_map re-stamps it when the
                // re-executed maps land
                job.shuffle.clear_maps_all_done();
                job.maps_done_at = None;
            }
        }
        // unrecoverable data loss: a pending block with no replica left
        // anywhere can never be scheduled again
        for job in &self.st.jobs {
            if job.is_finished() {
                continue;
            }
            if let Some(b) = job
                .pending_map_blocks
                .iter()
                .find(|&b| job.layout.blocks[b].replicas.is_empty())
            {
                return Err(SimError::NodeLost {
                    node: d,
                    at: self.st.now,
                    pending_work: format!(
                        "input block {} of job '{}' lost its last replica",
                        b, job.spec.profile.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Does any reduce of job `ji` still need to fetch map output —
    /// pending (will start a fresh shuffle), or running and still in its
    /// shuffle phase?
    fn job_needs_map_output(&self, ji: usize) -> bool {
        !self.st.jobs[ji].pending_reduce_parts.is_empty()
            || self
                .st
                .running_reduces
                .rows()
                .iter()
                .any(|(r, t)| r.job.0 == ji && t.phase == ReducePhase::Shuffle)
    }

    /// Spend this step's re-replication budget restoring lost replicas
    /// onto surviving nodes, front of the queue first. The budget grows
    /// linearly in `dt`, so fixed and adaptive stepping accumulate
    /// identical amounts between heartbeat boundaries (where replica
    /// state is next read).
    pub(super) fn advance_rereplication(&mut self, dt: f64) {
        if self.st.config.rereplication_rate <= 0.0 || self.st.rerep_queue.is_empty() {
            return;
        }
        self.st.rerep_progress += self.st.config.rereplication_rate * dt;
        while let Some(&(ji, bi)) = self.st.rerep_queue.front() {
            let live = self.st.node_up.iter().filter(|&&u| u).count();
            let desired = self.st.replication.min(live);
            let (finished, nreps, size) = {
                let job = &self.st.jobs[ji];
                let b = &job.layout.blocks[bi];
                (job.is_finished(), b.replicas.len(), b.size_mb)
            };
            // stale entries cost no budget: job done, source lost, or
            // already back at the desired replica count
            if finished || nreps == 0 || nreps >= desired {
                self.st.rerep_queue.pop_front();
                continue;
            }
            if self.st.rerep_progress < size {
                return;
            }
            let target = {
                let reps = &self.st.jobs[ji].layout.blocks[bi].replicas;
                (0..self.st.node_up.len())
                    .map(NodeId)
                    .find(|n| self.st.node_up[n.0] && !reps.contains(n))
            };
            let Some(target) = target else {
                self.st.rerep_queue.pop_front();
                continue;
            };
            self.st.rerep_progress -= size;
            self.st.network_mb += size;
            self.st.jobs[ji].layout.blocks[bi].replicas.push(target);
            self.derived.replica_postings[ji][target.0].push(bi as u32);
            self.derived.map_cache.replica_gained(ji, bi, target);
            self.st.rerep_queue.pop_front();
            if nreps + 1 < desired {
                self.st.rerep_queue.push_back((ji, bi));
            }
        }
        if self.st.rerep_queue.is_empty() {
            self.st.rerep_progress = 0.0;
        }
    }
}
