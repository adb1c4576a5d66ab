//! Job bookkeeping and the FIFO task scheduler.
//!
//! The job tracker holds one [`JobInProgress`] per submitted job and
//! assigns tasks to trackers on heartbeats: map tasks prefer a data-local
//! block (HDFS replica on the requesting node), reduce tasks start once the
//! job has passed its *reduce slow-start* fraction of completed maps
//! (Hadoop's `mapred.reduce.slowstart.completed.maps`, default 0.05 —
//! distinct from the slot manager's own 10 % slow start). Jobs are served
//! in submission order (the FIFO scheduler used in the paper's multi-job
//! experiments).
//!
//! A free map slot takes its block from [`MapCache`], Hadoop 1.0.4's
//! per-node `nonRunningMapCache`: the heartbeat reads the head of the
//! requesting node's list of pending local blocks instead of scanning
//! the job's queue.

use crate::job::JobSpec;
use crate::shuffle::ShuffleState;
use crate::task::{MapTaskId, ReduceTaskId};
use dfs::FileLayout;
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;
use simgrid::metrics::TimeSeries;
use simgrid::time::SimTime;

/// Marks a taken key in a [`MapQueue`] (and a block with no key in a
/// [`MapCache`]).
const TAKEN: usize = usize::MAX;

/// The pending-map queue of one job: block indices in the order the
/// scheduler offers them.
///
/// Taking a block tombstones its entry instead of shifting the tail, so
/// an entry's index is a stable **queue key**: keys ascend in queue
/// order, a block re-queued at the back gets a fresh key above every
/// other, and only a sort ([`MapCache::resort`]) re-keys the queue.
/// [`MapCache`] indexes blocks by these keys. Serialized as the plain
/// list of pending blocks in queue order, the form the capsule has always
/// had.
#[derive(Debug, Clone)]
pub struct MapQueue {
    /// Block per key; [`TAKEN`] once the block was scheduled.
    slots: Vec<usize>,
    /// Every key below `head` is taken.
    head: usize,
    /// Keys not taken.
    live: usize,
}

impl MapQueue {
    /// Blocks `0..blocks`, in block order.
    pub fn new(blocks: usize) -> MapQueue {
        MapQueue {
            slots: (0..blocks).collect(),
            head: 0,
            live: blocks,
        }
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Pending blocks in queue order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.keyed().map(|(_, b)| b)
    }

    /// `(key, block)` of every pending block, in queue order.
    fn keyed(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.head..self.slots.len())
            .map(|k| (k, self.slots[k]))
            .filter(|&(_, b)| b != TAKEN)
    }

    /// The pending block at `key`, if it has not been taken.
    fn at(&self, key: usize) -> Option<usize> {
        self.slots.get(key).copied().filter(|&b| b != TAKEN)
    }

    /// Re-queue `block` at the back; returns its key.
    pub fn push(&mut self, block: usize) -> usize {
        debug_assert!(
            self.iter().all(|b| b != block),
            "block {block} queued twice"
        );
        self.slots.push(block);
        self.live += 1;
        self.slots.len() - 1
    }

    /// Re-key the pending blocks in ascending block order.
    fn sort(&mut self) {
        let mut blocks: Vec<usize> = self.iter().collect();
        blocks.sort_unstable();
        *self = MapQueue {
            live: blocks.len(),
            slots: blocks,
            head: 0,
        };
    }

    /// Take the pending block at `key` out of the queue.
    fn take(&mut self, key: usize) -> usize {
        let block = std::mem::replace(&mut self.slots[key], TAKEN);
        debug_assert_ne!(block, TAKEN, "key {key} taken twice");
        self.live -= 1;
        while self.head < self.slots.len() && self.slots[self.head] == TAKEN {
            self.head += 1;
        }
        block
    }
}

impl Serialize for MapQueue {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|b| b.to_value()).collect())
    }
}

impl Deserialize for MapQueue {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let slots: Vec<usize> = Deserialize::deserialize(v)?;
        if slots.contains(&TAKEN) {
            return Err(serde::Error::new("pending block index out of range"));
        }
        Ok(MapQueue {
            live: slots.len(),
            slots,
            head: 0,
        })
    }
}

/// Job-tracker-side state of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobInProgress {
    pub spec: JobSpec,
    pub layout: FileLayout,
    /// Block indices of maps not yet launched, in the order they are
    /// offered.
    pub pending_map_blocks: MapQueue,
    /// Which blocks have been delivered by a finished attempt (guards
    /// against double-counting when speculative attempts race).
    pub completed_blocks: Vec<bool>,
    /// For each completed block, the node holding the winning attempt's
    /// map output. A node crash turns every `Some(dead)` entry into a
    /// candidate for lost-output re-execution.
    pub block_output_node: Vec<Option<NodeId>>,
    pub running_maps: usize,
    pub completed_maps: usize,
    /// Partition indices of reduces not yet launched.
    pub pending_reduce_parts: Vec<usize>,
    pub running_reduces: usize,
    pub completed_reduces: usize,
    pub shuffle: ShuffleState,
    /// First task launch (job start for timing purposes).
    pub first_launch: Option<SimTime>,
    /// Barrier instant: the last map finished.
    pub maps_done_at: Option<SimTime>,
    pub finished_at: Option<SimTime>,
    /// Progress percentage over time (0–200: map% + reduce%).
    pub progress: TimeSeries,
    /// Completed map-task durations (s), winning attempts only.
    pub map_durations: Vec<f64>,
    /// Completed reduce-task durations (s).
    pub reduce_durations: Vec<f64>,
}

impl JobInProgress {
    pub fn new(spec: JobSpec, layout: FileLayout, workers: usize) -> JobInProgress {
        let num_maps = layout.num_blocks();
        assert!(
            num_maps > 0,
            "job {} has no input blocks",
            spec.profile.name
        );
        let num_reduces = spec.num_reduces;
        JobInProgress {
            shuffle: ShuffleState::new(workers, num_reduces),
            pending_map_blocks: MapQueue::new(num_maps),
            completed_blocks: vec![false; num_maps],
            block_output_node: vec![None; num_maps],
            pending_reduce_parts: (0..num_reduces).collect(),
            spec,
            layout,
            running_maps: 0,
            completed_maps: 0,
            running_reduces: 0,
            completed_reduces: 0,
            first_launch: None,
            maps_done_at: None,
            finished_at: None,
            progress: TimeSeries::new(),
            map_durations: Vec::new(),
            reduce_durations: Vec::new(),
        }
    }

    pub fn total_maps(&self) -> usize {
        self.layout.num_blocks()
    }

    pub fn total_reduces(&self) -> usize {
        self.spec.num_reduces
    }

    pub fn is_submitted(&self, now: SimTime) -> bool {
        self.spec.submit_at <= now
    }

    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Active = submitted and not yet finished.
    pub fn is_active(&self, now: SimTime) -> bool {
        self.is_submitted(now) && !self.is_finished()
    }

    pub fn all_maps_done(&self) -> bool {
        self.completed_maps == self.total_maps()
    }

    /// Whether reduces may start (slow-start fraction of maps completed).
    pub fn reduces_eligible(&self, slowstart: f64) -> bool {
        let needed = (slowstart * self.total_maps() as f64).ceil() as usize;
        self.completed_maps >= needed.min(self.total_maps())
    }
}

/// Job-ordering discipline of the task scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SchedKind {
    /// Hadoop's default: jobs served strictly in submission order.
    #[default]
    Fifo,
    /// The Hadoop Fair Scheduler, simplified to equal shares: each free
    /// slot goes to the active job furthest *below* its fair share of
    /// running tasks (ties broken by submission order). Small jobs stop
    /// starving behind a monster job.
    Fair,
}

/// The task scheduler of the job tracker (paper: FIFO; the Fair variant is
/// provided for the multi-tenancy extension experiments).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FifoScheduler {
    /// Reduce slow-start fraction of completed maps.
    pub reduce_slowstart: f64,
    /// Job-ordering discipline.
    pub kind: SchedKind,
}

impl Default for FifoScheduler {
    fn default() -> Self {
        FifoScheduler {
            reduce_slowstart: 0.05,
            kind: SchedKind::Fifo,
        }
    }
}

/// A map-task assignment decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapAssignment {
    pub id: MapTaskId,
    pub block_index: usize,
    pub input_mb: f64,
    /// `None` if the block is local to the requesting node, else the
    /// replica node the input will stream from.
    pub remote_src: Option<NodeId>,
}

/// Hadoop's `nonRunningMapCache`: per job and node, the queue keys (see
/// [`MapQueue`]) of the pending blocks with a replica on that node, in
/// queue order.
///
/// Derived from the queues and layouts, never serialized. A key goes
/// stale when its block is taken (from any node's list) or the node
/// loses its replica; a pick prunes stale keys from the front of the
/// list it reads, so it costs O(1) amortized instead of a queue scan.
/// Keys join a list in ascending order: the build walks the queue in
/// order and a re-queued block's key is the largest yet. Only a block
/// re-replicated onto a node is inserted at its place. Sorting a queue
/// re-keys it, so [`MapCache::resort`] rebuilds the job's lists with it.
#[derive(Debug, Default)]
pub struct MapCache {
    jobs: Vec<JobMapCache>,
    /// Job-order buffer reused by every [`FifoScheduler::pick_map`].
    order: Vec<usize>,
}

#[derive(Debug)]
struct JobMapCache {
    /// `local[node]`: the node's keys; the live ones start at `head`.
    local: Vec<LocalKeys>,
    /// Queue key of each pending block, [`TAKEN`] for the others.
    key_of: Vec<usize>,
}

#[derive(Debug, Clone, Default)]
struct LocalKeys {
    keys: Vec<usize>,
    head: usize,
}

impl MapCache {
    /// Index every job's pending blocks over `workers` nodes.
    pub fn build(jobs: &[JobInProgress], workers: usize) -> MapCache {
        let mut cache = MapCache::default();
        cache.extend(jobs, workers);
        cache
    }

    /// Index the jobs submitted since the cache was built.
    pub fn extend(&mut self, jobs: &[JobInProgress], workers: usize) {
        for job in &jobs[self.jobs.len()..] {
            self.jobs.push(JobMapCache::build(job, workers));
        }
    }

    /// Re-queue `block` of job `ji` at the back of its queue.
    pub fn requeue(&mut self, ji: usize, job: &mut JobInProgress, block: usize) {
        let key = job.pending_map_blocks.push(block);
        let jc = &mut self.jobs[ji];
        jc.key_of[block] = key;
        for n in &job.layout.blocks[block].replicas {
            jc.local[n.0].keys.push(key);
        }
    }

    /// Sort job `ji`'s queue into block order and rebuild its lists.
    pub fn resort(&mut self, ji: usize, job: &mut JobInProgress) {
        job.pending_map_blocks.sort();
        let workers = self.jobs[ji].local.len();
        self.jobs[ji] = JobMapCache::build(job, workers);
    }

    /// `block` of job `ji` gained a replica on `node`.
    pub fn replica_gained(&mut self, ji: usize, block: usize, node: NodeId) {
        let jc = &mut self.jobs[ji];
        let key = jc.key_of[block];
        if key == TAKEN {
            return; // running or done: a re-queue will list it
        }
        let list = &mut jc.local[node.0];
        let at = list.head + list.keys[list.head..].partition_point(|&k| k < key);
        list.keys.insert(at, key);
    }
}

impl JobMapCache {
    fn build(job: &JobInProgress, workers: usize) -> JobMapCache {
        let mut jc = JobMapCache {
            local: vec![LocalKeys::default(); workers],
            key_of: vec![TAKEN; job.total_maps()],
        };
        for (key, b) in job.pending_map_blocks.keyed() {
            jc.key_of[b] = key;
            for n in &job.layout.blocks[b].replicas {
                jc.local[n.0].keys.push(key);
            }
        }
        jc
    }

    /// Key of `job`'s first pending block in queue order with a replica
    /// on `node`, pruning the stale keys in front of it.
    fn first_local(&mut self, job: &JobInProgress, node: NodeId) -> Option<usize> {
        let list = &mut self.local[node.0];
        while let Some(&key) = list.keys.get(list.head) {
            let pending = job.pending_map_blocks.at(key);
            if pending.is_some_and(|b| job.layout.blocks[b].is_local_to(node)) {
                return Some(key);
            }
            list.head += 1;
        }
        list.keys.clear(); // every key was stale
        list.head = 0;
        None
    }
}

/// Launch `block_index` of `job` on `node`: count the running map and
/// say where its input streams from.
fn launch_map(
    job: &mut JobInProgress,
    block_index: usize,
    node: NodeId,
    now: SimTime,
) -> MapAssignment {
    let block = &job.layout.blocks[block_index];
    let remote_src = if block.is_local_to(node) {
        None
    } else {
        // stream from the first replica holder (HDFS picks the
        // "closest"; on one rack any holder is equivalent)
        Some(block.replicas[0])
    };
    job.running_maps += 1;
    job.first_launch.get_or_insert(now);
    MapAssignment {
        id: MapTaskId {
            job: job.spec.id,
            index: block_index,
        },
        block_index,
        input_mb: block.size_mb,
        remote_src,
    }
}

impl FifoScheduler {
    /// Fill `order` with the jobs offered a free slot, in offer order.
    /// FIFO: submission (vector) order. Fair: ascending load, so the most
    /// under-served job goes first.
    fn job_order(
        &self,
        jobs: &[JobInProgress],
        now: SimTime,
        order: &mut Vec<usize>,
        eligible: impl Fn(&JobInProgress) -> bool,
        load: impl Fn(&JobInProgress) -> usize,
    ) {
        order.clear();
        order.extend((0..jobs.len()).filter(|&i| jobs[i].is_active(now) && eligible(&jobs[i])));
        if self.kind == SchedKind::Fair {
            order.sort_by_key(|&i| (load(&jobs[i]), i));
        }
    }

    /// Pick the next map task for a free map slot on `node`: a job's
    /// first pending block in queue order with a replica on `node`, else
    /// its first pending block with any replica (read remotely). Jobs
    /// are offered the slot per [`SchedKind`]. `cache` must index `jobs`.
    pub fn pick_map(
        &self,
        jobs: &mut [JobInProgress],
        cache: &mut MapCache,
        node: NodeId,
        now: SimTime,
    ) -> Option<MapAssignment> {
        let MapCache {
            jobs: caches,
            order,
        } = cache;
        self.job_order(
            jobs,
            now,
            order,
            |j| !j.pending_map_blocks.is_empty(),
            |j| j.running_maps,
        );
        for &ji in order.iter() {
            let job = &mut jobs[ji];
            // A crash can leave a pending block with no replicas at all;
            // it stays queued until re-replication restores a copy (or
            // the run errors out on unrecoverable data loss).
            let Some(key) = caches[ji].first_local(job, node).or_else(|| {
                let queue = &job.pending_map_blocks;
                queue
                    .keyed()
                    .find(|&(_, b)| !job.layout.blocks[b].replicas.is_empty())
                    .map(|(key, _)| key)
            }) else {
                continue;
            };
            let block_index = job.pending_map_blocks.take(key);
            caches[ji].key_of[block_index] = TAKEN;
            return Some(launch_map(job, block_index, node, now));
        }
        None
    }

    /// Pick the next reduce task for a free reduce slot (reduces have no
    /// locality preference): the first eligible job per [`SchedKind`].
    pub fn pick_reduce(&self, jobs: &mut [JobInProgress], now: SimTime) -> Option<ReduceTaskId> {
        let slowstart = self.reduce_slowstart;
        let mut eligible = (0..jobs.len()).filter(|&i| {
            let j = &jobs[i];
            j.is_active(now) && !j.pending_reduce_parts.is_empty() && j.reduces_eligible(slowstart)
        });
        let ji = match self.kind {
            SchedKind::Fifo => eligible.next(),
            SchedKind::Fair => eligible.min_by_key(|&i| (jobs[i].running_reduces, i)),
        }?;
        let job = &mut jobs[ji];
        let partition = job.pending_reduce_parts.remove(0);
        job.running_reduces += 1;
        job.first_launch.get_or_insert(now);
        Some(ReduceTaskId {
            job: job.spec.id,
            partition,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobProfile;
    use dfs::NameNode;
    use simgrid::cluster::ClusterSpec;
    use simgrid::rng::SimRng;

    fn job(id: usize, input_mb: f64, submit: u64) -> JobInProgress {
        let mut nn = NameNode::paper_default(ClusterSpec::small(4), SimRng::new(id as u64 + 1));
        let layout = nn.create_file(input_mb);
        JobInProgress::new(
            JobSpec::new(
                id,
                JobProfile::synthetic_map_heavy(),
                input_mb,
                4,
                SimTime::from_secs(submit),
            ),
            layout,
            4,
        )
    }

    /// One pick through a cache built from the jobs as they stand.
    fn pick(
        sched: &FifoScheduler,
        jobs: &mut [JobInProgress],
        node: NodeId,
        now: SimTime,
    ) -> Option<MapAssignment> {
        let mut cache = MapCache::build(jobs, 4);
        sched.pick_map(jobs, &mut cache, node, now)
    }

    #[test]
    fn new_job_counts() {
        let j = job(0, 1024.0, 0);
        assert_eq!(j.total_maps(), 8);
        assert_eq!(j.pending_map_blocks.len(), 8);
        assert_eq!(j.total_reduces(), 4);
        assert!(!j.all_maps_done());
        assert!(j.is_active(SimTime::ZERO));
    }

    #[test]
    fn submission_time_respected() {
        let j = job(0, 128.0, 10);
        assert!(!j.is_submitted(SimTime::from_secs(9)));
        assert!(j.is_submitted(SimTime::from_secs(10)));
    }

    #[test]
    fn fifo_prefers_local_blocks() {
        let mut jobs = vec![job(0, 2048.0, 0)];
        let sched = FifoScheduler::default();
        // node 0: first assignment should be a block with a replica on 0
        // if one exists in the pending list
        let has_local = jobs[0]
            .layout
            .blocks
            .iter()
            .any(|b| b.is_local_to(NodeId(0)));
        let a = pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO).expect("work available");
        if has_local {
            assert!(a.remote_src.is_none(), "should have picked a local block");
        }
        assert_eq!(jobs[0].running_maps, 1);
        assert_eq!(jobs[0].pending_map_blocks.len(), 15);
        assert_eq!(jobs[0].first_launch, Some(SimTime::ZERO));
    }

    #[test]
    fn remote_assignment_names_a_replica_holder() {
        let mut jobs = vec![job(0, 2048.0, 0)];
        let sched = FifoScheduler::default();
        // Drain every task from node 3's perspective; remote ones must
        // stream from an actual replica holder.
        loop {
            match pick(&sched, &mut jobs, NodeId(3), SimTime::ZERO) {
                None => break,
                Some(a) => {
                    let block = &jobs[0].layout.blocks[a.block_index];
                    match a.remote_src {
                        None => assert!(block.is_local_to(NodeId(3))),
                        Some(src) => {
                            assert!(block.replicas.contains(&src));
                            assert!(!block.is_local_to(NodeId(3)));
                        }
                    }
                }
            }
        }
        assert_eq!(jobs[0].running_maps, 16);
    }

    #[test]
    fn replica_less_blocks_are_not_scheduled() {
        let mut jobs = vec![job(0, 256.0, 0)]; // 2 blocks
        for b in &mut jobs[0].layout.blocks {
            b.replicas.clear();
        }
        let sched = FifoScheduler::default();
        assert!(pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO).is_none());
        assert_eq!(jobs[0].pending_map_blocks.len(), 2, "nothing was dequeued");
        assert_eq!(jobs[0].running_maps, 0);
        // restoring one replica makes exactly that block schedulable
        jobs[0].layout.blocks[1].replicas.push(NodeId(2));
        let a = pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO)
            .expect("restored block is schedulable");
        assert_eq!(a.block_index, 1);
        assert_eq!(a.remote_src, Some(NodeId(2)));
        assert!(pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO).is_none());
    }

    #[test]
    fn fifo_serves_earlier_job_first() {
        let mut jobs = vec![job(0, 256.0, 0), job(1, 256.0, 0)];
        let sched = FifoScheduler::default();
        let a = pick(&sched, &mut jobs, NodeId(1), SimTime::ZERO).unwrap();
        assert_eq!(a.id.job.0, 0);
        // drain job 0, then job 1 is served
        while !jobs[0].pending_map_blocks.is_empty() {
            pick(&sched, &mut jobs, NodeId(1), SimTime::ZERO).unwrap();
        }
        let b = pick(&sched, &mut jobs, NodeId(1), SimTime::ZERO).unwrap();
        assert_eq!(b.id.job.0, 1);
    }

    #[test]
    fn unsubmitted_job_not_scheduled() {
        let mut jobs = vec![job(0, 256.0, 100)];
        let sched = FifoScheduler::default();
        assert!(pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO).is_none());
        assert!(pick(&sched, &mut jobs, NodeId(0), SimTime::from_secs(100)).is_some());
    }

    #[test]
    fn reduces_wait_for_slowstart() {
        let mut jobs = vec![job(0, 2048.0, 0)]; // 16 maps
        let sched = FifoScheduler {
            reduce_slowstart: 0.25,
            kind: SchedKind::Fifo,
        };
        assert!(sched.pick_reduce(&mut jobs, SimTime::ZERO).is_none());
        jobs[0].completed_maps = 3;
        assert!(sched.pick_reduce(&mut jobs, SimTime::ZERO).is_none());
        jobs[0].completed_maps = 4; // 25% of 16
        let r = sched.pick_reduce(&mut jobs, SimTime::ZERO).unwrap();
        assert_eq!(r.partition, 0);
        assert_eq!(jobs[0].running_reduces, 1);
        let r2 = sched.pick_reduce(&mut jobs, SimTime::ZERO).unwrap();
        assert_eq!(r2.partition, 1);
    }

    #[test]
    fn zero_slowstart_still_requires_no_maps() {
        let mut jobs = vec![job(0, 256.0, 0)];
        let sched = FifoScheduler {
            reduce_slowstart: 0.0,
            kind: SchedKind::Fifo,
        };
        // ceil(0 * n) = 0 completed needed: eligible immediately
        assert!(sched.pick_reduce(&mut jobs, SimTime::ZERO).is_some());
    }

    #[test]
    fn fair_scheduler_serves_underserved_job_first() {
        let mut jobs = vec![job(0, 512.0, 0), job(1, 512.0, 0)];
        let sched = FifoScheduler {
            reduce_slowstart: 0.05,
            kind: SchedKind::Fair,
        };
        // give job 0 a head start of two running maps
        jobs[0].running_maps = 2;
        let a = pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO).unwrap();
        assert_eq!(a.id.job.0, 1, "fair share: job 1 is behind, serve it");
        // now both have... job1 has 1 running vs job0 2: job1 again
        let b = pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO).unwrap();
        assert_eq!(b.id.job.0, 1);
        // 2 vs 2: tie breaks to the earlier job
        let c = pick(&sched, &mut jobs, NodeId(0), SimTime::ZERO).unwrap();
        assert_eq!(c.id.job.0, 0);
    }

    #[test]
    fn fifo_vs_fair_reduce_ordering() {
        let mut jobs = vec![job(0, 512.0, 0), job(1, 512.0, 0)];
        jobs[0].completed_maps = 4;
        jobs[1].completed_maps = 4;
        jobs[0].running_reduces = 3;
        let fair = FifoScheduler {
            reduce_slowstart: 0.05,
            kind: SchedKind::Fair,
        };
        let r = fair.pick_reduce(&mut jobs, SimTime::ZERO).unwrap();
        assert_eq!(r.job.0, 1, "fair: job 1 has fewer running reduces");
        let fifo = FifoScheduler::default();
        let r = fifo.pick_reduce(&mut jobs, SimTime::ZERO).unwrap();
        assert_eq!(r.job.0, 0, "fifo: submission order regardless of load");
    }

    #[test]
    fn reduce_pool_exhausts() {
        let mut jobs = vec![job(0, 256.0, 0)];
        jobs[0].completed_maps = 2;
        let sched = FifoScheduler::default();
        for _ in 0..4 {
            assert!(sched.pick_reduce(&mut jobs, SimTime::ZERO).is_some());
        }
        assert!(sched.pick_reduce(&mut jobs, SimTime::ZERO).is_none());
    }

    #[test]
    fn map_queue_keys_follow_queue_order_and_serialize_as_a_list() {
        let mut q = MapQueue::new(5);
        assert_eq!(q.take(2), 2);
        assert_eq!(q.take(0), 0);
        assert_eq!(q.push(0), 5, "a re-queued block's key is the largest yet");
        assert_eq!(q.iter().collect::<Vec<_>>(), [1, 3, 4, 0]);
        assert_eq!(q.len(), 4);
        let wire = q.to_value();
        assert_eq!(wire, vec![1usize, 3, 4, 0].to_value());
        let back = MapQueue::deserialize(&wire).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), [1, 3, 4, 0]);
        q.sort();
        assert_eq!(
            q.keyed().collect::<Vec<_>>(),
            [(0, 0), (1, 1), (2, 3), (3, 4)]
        );
        assert!(MapQueue::deserialize(&vec![usize::MAX].to_value()).is_err());
    }

    /// The retired queue scan [`FifoScheduler::pick_map`] replaced, over
    /// plain `Vec` queues: the first local block by position, else the
    /// first block with a replica, taken with `Vec::remove`.
    fn reference_pick(
        sched: &FifoScheduler,
        jobs: &mut [JobInProgress],
        queues: &mut [Vec<usize>],
        node: NodeId,
        now: SimTime,
    ) -> Option<MapAssignment> {
        let mut order: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].is_active(now) && !queues[i].is_empty())
            .collect();
        if sched.kind == SchedKind::Fair {
            order.sort_by_key(|&i| (jobs[i].running_maps, i));
        }
        for ji in order {
            let job = &mut jobs[ji];
            let queue = &mut queues[ji];
            let Some(pos) = queue
                .iter()
                .position(|&b| job.layout.is_local(dfs::BlockId(b), node))
                .or_else(|| {
                    queue
                        .iter()
                        .position(|&b| !job.layout.blocks[b].replicas.is_empty())
                })
            else {
                continue;
            };
            let block_index = queue.remove(pos);
            return Some(launch_map(job, block_index, node, now));
        }
        None
    }

    const WORKERS: usize = 6;

    fn cluster_jobs(shape: &[(usize, u64)]) -> Vec<JobInProgress> {
        let mut nn = NameNode::paper_default(ClusterSpec::small(WORKERS), SimRng::new(3));
        shape
            .iter()
            .enumerate()
            .map(|(id, &(blocks, submit))| {
                let input_mb = blocks as f64 * 128.0;
                let spec = JobSpec::new(
                    id,
                    JobProfile::synthetic_map_heavy(),
                    input_mb,
                    2,
                    SimTime::from_secs(submit),
                );
                JobInProgress::new(spec, nn.create_file(input_mb), WORKERS)
            })
            .collect()
    }

    proptest::proptest! {
        /// The cache picks exactly what the retired scan picks through
        /// every way the engine changes a queue or a replica list:
        /// back-of-queue re-queues, lost-output pushes followed by the
        /// sort, replica losses and re-replication, with jobs submitted
        /// later and under both job orders.
        #[test]
        fn cache_picks_match_the_retired_scan(
            fair in 0usize..2,
            shape in proptest::collection::vec((1usize..12, 0u64..3), 1..4),
            ops in proptest::collection::vec((0usize..9, 0usize..64, 0usize..64), 1..160),
        ) {
            let sched = FifoScheduler {
                reduce_slowstart: 0.05,
                kind: if fair == 1 { SchedKind::Fair } else { SchedKind::Fifo },
            };
            let mut jobs = cluster_jobs(&shape);
            let mut cache = MapCache::build(&jobs, WORKERS);
            let mut ref_jobs = cluster_jobs(&shape);
            let mut ref_queues: Vec<Vec<usize>> =
                ref_jobs.iter().map(|j| (0..j.total_maps()).collect()).collect();
            let mut running: Vec<(usize, usize)> = Vec::new();
            let mut done: Vec<(usize, usize)> = Vec::new();
            let mut now = SimTime::ZERO;
            for (kind, a, b) in ops {
                match kind {
                    0..=2 => {
                        let node = NodeId(a % WORKERS);
                        let got = sched.pick_map(&mut jobs, &mut cache, node, now);
                        let want = reference_pick(&sched, &mut ref_jobs, &mut ref_queues, node, now);
                        proptest::prop_assert_eq!(got, want);
                        if let Some(x) = got {
                            running.push((x.id.job.0, x.block_index));
                        }
                    }
                    3 | 4 if !running.is_empty() => {
                        let (ji, bi) = running.remove(a % running.len());
                        jobs[ji].running_maps -= 1;
                        ref_jobs[ji].running_maps -= 1;
                        if kind == 3 {
                            // a failed or killed attempt goes to the back
                            cache.requeue(ji, &mut jobs[ji], bi);
                            ref_queues[ji].push(bi);
                        } else {
                            done.push((ji, bi));
                        }
                    }
                    5 => {
                        // a node loss re-queues lost outputs, then sorts
                        let ji = a % jobs.len();
                        let mut lost = Vec::new();
                        done.retain(|&(j, bi)| {
                            let take = j == ji && lost.len() <= b % 3;
                            if take {
                                lost.push(bi);
                            }
                            !take
                        });
                        for &bi in &lost {
                            jobs[ji].pending_map_blocks.push(bi);
                            ref_queues[ji].push(bi);
                        }
                        cache.resort(ji, &mut jobs[ji]);
                        ref_queues[ji].sort_unstable();
                    }
                    6 => {
                        let dead = NodeId(a % WORKERS);
                        for j in jobs.iter_mut().chain(ref_jobs.iter_mut()) {
                            for block in &mut j.layout.blocks {
                                block.replicas.retain(|&n| n != dead);
                            }
                        }
                    }
                    7 => {
                        let ji = a % jobs.len();
                        let bi = b % jobs[ji].total_maps();
                        let target = NodeId((a + b) % WORKERS);
                        if !jobs[ji].layout.blocks[bi].is_local_to(target) {
                            jobs[ji].layout.blocks[bi].replicas.push(target);
                            ref_jobs[ji].layout.blocks[bi].replicas.push(target);
                            cache.replica_gained(ji, bi, target);
                        }
                    }
                    _ => now += simgrid::time::SimDuration::from_secs(1),
                }
            }
            for (ji, job) in jobs.iter().enumerate() {
                let queue: Vec<usize> = job.pending_map_blocks.iter().collect();
                proptest::prop_assert_eq!(&queue, &ref_queues[ji]);
                proptest::prop_assert_eq!(job.running_maps, ref_jobs[ji].running_maps);
            }
        }
    }
}
