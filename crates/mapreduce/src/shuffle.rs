//! Map-output availability and shuffle accounting for one job.
//!
//! Each finished map task leaves its output on the node that ran it, split
//! uniformly across the job's reduce partitions (the same uniformity
//! assumption the paper's slot manager makes when estimating `R_m`,
//! §IV-A3). A reduce task may fetch, from source node `s`, one `1/R` share
//! of all map output produced on `s` so far. The shuffle of a reduce can
//! only *complete* once the job's last map has finished — the
//! synchronisation barrier.

use crate::task::ReduceTask;
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;

/// Shuffle-side state of one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShuffleState {
    /// Map output MB accumulated on each worker node (by `NodeId.0`).
    avail_by_src: Vec<f64>,
    /// Total map output so far (MB).
    total_output_mb: f64,
    num_reduces: usize,
    maps_all_done: bool,
}

impl ShuffleState {
    pub fn new(workers: usize, num_reduces: usize) -> ShuffleState {
        assert!(num_reduces > 0);
        ShuffleState {
            avail_by_src: vec![0.0; workers],
            total_output_mb: 0.0,
            num_reduces,
            maps_all_done: false,
        }
    }

    /// Record a finished map's output on `node`.
    pub fn on_map_complete(&mut self, node: NodeId, output_mb: f64) {
        debug_assert!(output_mb >= 0.0);
        self.avail_by_src[node.0] += output_mb;
        self.total_output_mb += output_mb;
    }

    /// Mark the barrier: no more map output will appear.
    pub fn set_maps_all_done(&mut self) {
        self.maps_all_done = true;
    }

    /// Re-open the barrier after a node loss forces completed maps back
    /// into the pending queue. Reduces already past their shuffle keep
    /// going; reduces still shuffling wait for the re-executed output.
    pub fn clear_maps_all_done(&mut self) {
        self.maps_all_done = false;
    }

    /// Drop all map output stored on `node` (the node crashed). Reducers
    /// see their fetch sources dry up — `remaining_from(node)` clamps to
    /// zero even for partially-fetched shares — and the lost MB leaves the
    /// partition totals until the maps are re-executed elsewhere. Returns
    /// the MB lost.
    pub fn on_node_lost(&mut self, node: NodeId) -> f64 {
        let lost = std::mem::take(&mut self.avail_by_src[node.0]);
        self.total_output_mb -= lost;
        lost
    }

    pub fn maps_all_done(&self) -> bool {
        self.maps_all_done
    }

    pub fn total_output_mb(&self) -> f64 {
        self.total_output_mb
    }

    /// The final size of each reduce partition; `None` until the barrier.
    pub fn partition_mb(&self) -> Option<f64> {
        if self.maps_all_done {
            Some(self.total_output_mb / self.num_reduces as f64)
        } else {
            None
        }
    }

    /// MB still fetchable *right now* by `reduce` from source node `src`.
    pub fn remaining_from(&self, reduce: &ReduceTask, src: NodeId) -> f64 {
        let share = self.avail_by_src[src.0] / self.num_reduces as f64;
        (share - reduce.fetched_by_src[src.0]).max(0.0)
    }

    /// Total MB still fetchable right now by `reduce` across all sources:
    /// the full sum that the early exit of
    /// [`ShuffleState::shuffle_complete`] must agree with.
    #[cfg(test)]
    fn remaining_total(&self, reduce: &ReduceTask) -> f64 {
        (0..self.avail_by_src.len())
            .map(|s| self.remaining_from(reduce, NodeId(s)))
            .sum()
    }

    /// True when `reduce` has fetched its entire partition *and* the
    /// barrier has been crossed — the conditions for leaving the shuffle
    /// phase.
    ///
    /// Sums the per-source remainders in source order but stops at the
    /// first partial sum past the threshold: every term is non-negative and
    /// adding one never makes a float sum smaller, so the full sum would
    /// be past it too.
    pub fn shuffle_complete(&self, reduce: &ReduceTask) -> bool {
        let mut total = 0.0;
        self.maps_all_done
            && (0..self.avail_by_src.len()).all(|s| {
                total += self.remaining_from(reduce, NodeId(s));
                total <= 1e-6
            })
    }

    /// Source nodes with data still fetchable by `reduce`, largest backlog
    /// first, at most `max_sources` of them (the parallel-copies limit),
    /// written into a caller-owned (recycled) buffer so the per-step flow
    /// build allocates nothing.
    ///
    /// One ascending pass over the nodes keeps the `max_sources` largest
    /// backlogs in order. A source goes after every kept one with an equal
    /// backlog, and a full list rejects a source that only ties its last
    /// entry, so equal backlogs go to the lower node id.
    pub fn fetch_sources_into(
        &self,
        reduce: &ReduceTask,
        max_sources: usize,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        out.clear();
        if max_sources == 0 {
            return;
        }
        for s in 0..self.avail_by_src.len() {
            let rem = self.remaining_from(reduce, NodeId(s));
            let full = out.len() == max_sources;
            if rem <= 1e-9 || (full && rem <= out[max_sources - 1].1) {
                continue;
            }
            if full {
                out.pop();
            }
            let mut at = out.len();
            while at > 0 && out[at - 1].1 < rem {
                at -= 1;
            }
            out.insert(at, (NodeId(s), rem));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::task::ReduceTaskId;
    use simgrid::time::SimTime;

    /// The retired selection, kept as the differential reference: every
    /// source with data, sorted largest backlog first with ties to the
    /// lower node id, truncated to `max_sources`.
    fn reference_sources(
        sh: &ShuffleState,
        reduce: &ReduceTask,
        max_sources: usize,
    ) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = (0..sh.avail_by_src.len())
            .filter_map(|s| {
                let rem = sh.remaining_from(reduce, NodeId(s));
                (rem > 1e-9).then_some((NodeId(s), rem))
            })
            .collect();
        out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0 .0.cmp(&b.0 .0)));
        out.truncate(max_sources);
        out
    }

    fn sources(sh: &ShuffleState, reduce: &ReduceTask, max_sources: usize) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        sh.fetch_sources_into(reduce, max_sources, &mut out);
        out
    }

    fn reduce(node: usize, workers: usize) -> ReduceTask {
        ReduceTask::new(
            ReduceTaskId {
                job: JobId(0),
                partition: 0,
            },
            NodeId(node),
            workers,
            1.0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn availability_accrues_per_source() {
        let mut sh = ShuffleState::new(4, 2);
        sh.on_map_complete(NodeId(1), 100.0);
        sh.on_map_complete(NodeId(1), 60.0);
        sh.on_map_complete(NodeId(3), 40.0);
        let r = reduce(0, 4);
        assert!((sh.remaining_from(&r, NodeId(1)) - 80.0).abs() < 1e-12);
        assert!((sh.remaining_from(&r, NodeId(3)) - 20.0).abs() < 1e-12);
        assert_eq!(sh.remaining_from(&r, NodeId(0)), 0.0);
        assert!((sh.remaining_total(&r) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn fetch_reduces_remaining() {
        let mut sh = ShuffleState::new(2, 2);
        sh.on_map_complete(NodeId(0), 100.0);
        let mut r = reduce(1, 2);
        r.record_fetch(NodeId(0), 30.0);
        assert!((sh.remaining_from(&r, NodeId(0)) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_gates_completion() {
        let mut sh = ShuffleState::new(2, 1);
        sh.on_map_complete(NodeId(0), 10.0);
        let mut r = reduce(1, 2);
        r.record_fetch(NodeId(0), 10.0);
        // everything fetched, but maps not done: not complete
        assert!(!sh.shuffle_complete(&r));
        assert_eq!(sh.partition_mb(), None);
        sh.set_maps_all_done();
        assert!(sh.shuffle_complete(&r));
        assert_eq!(sh.partition_mb(), Some(10.0));
    }

    #[test]
    fn incomplete_fetch_blocks_completion_after_barrier() {
        let mut sh = ShuffleState::new(2, 1);
        sh.on_map_complete(NodeId(0), 10.0);
        sh.set_maps_all_done();
        let r = reduce(1, 2);
        assert!(!sh.shuffle_complete(&r));
    }

    #[test]
    fn fetch_sources_ordered_and_truncated() {
        let mut sh = ShuffleState::new(5, 1);
        sh.on_map_complete(NodeId(0), 10.0);
        sh.on_map_complete(NodeId(2), 50.0);
        sh.on_map_complete(NodeId(4), 30.0);
        let r = reduce(1, 5);
        let srcs = sources(&sh, &r, 2);
        assert_eq!(srcs.len(), 2);
        assert_eq!(srcs[0].0, NodeId(2));
        assert_eq!(srcs[1].0, NodeId(4));
    }

    #[test]
    fn deterministic_tiebreak_by_node_id() {
        let mut sh = ShuffleState::new(3, 1);
        sh.on_map_complete(NodeId(2), 10.0);
        sh.on_map_complete(NodeId(0), 10.0);
        let r = reduce(1, 3);
        let srcs = sources(&sh, &r, 3);
        assert_eq!(srcs[0].0, NodeId(0));
        assert_eq!(srcs[1].0, NodeId(2));
    }

    proptest::proptest! {
        /// Conservation: however fetches interleave, the total a reduce can
        /// ever fetch equals its exact partition share, and remaining never
        /// goes negative.
        #[test]
        fn prop_fetch_conservation(
            outputs in proptest::collection::vec((0usize..4, 0.0f64..500.0), 1..20),
            fetch_fracs in proptest::collection::vec(0.0f64..1.5, 1..40),
        ) {
            let workers = 4;
            let reduces = 3;
            let mut sh = ShuffleState::new(workers, reduces);
            for &(node, mb) in &outputs {
                sh.on_map_complete(NodeId(node), mb);
            }
            let mut r = reduce(0, workers);
            // greedy fetches in arbitrary fractional steps
            for (i, frac) in fetch_fracs.into_iter().enumerate() {
                let src = NodeId(i % workers);
                let rem = sh.remaining_from(&r, src);
                let step = (rem * frac).min(rem);
                if step > 0.0 {
                    r.record_fetch(src, step);
                }
                proptest::prop_assert!(sh.remaining_from(&r, src) >= -1e-9);
            }
            // drain completely
            for w in 0..workers {
                let rem = sh.remaining_from(&r, NodeId(w));
                if rem > 0.0 {
                    r.record_fetch(NodeId(w), rem);
                }
            }
            let total_out: f64 = outputs.iter().map(|(_, mb)| mb).sum();
            let share = total_out / reduces as f64;
            proptest::prop_assert!((r.fetched_mb - share).abs() < 1e-6,
                "fetched {} vs share {}", r.fetched_mb, share);
            sh.set_maps_all_done();
            proptest::prop_assert!(sh.shuffle_complete(&r));
        }

        /// The one-pass top-k choice returns exactly the sources, in
        /// exactly the order and with exactly the backlog bits, of the
        /// retired sort + truncate, and the early-exit completion test
        /// agrees with the full sum, for every parallel-copies limit from 1
        /// to 8 (above the candidate count on small clusters). Availability
        /// and fetch fractions come from small palettes so equal backlogs
        /// are common, and the tiny entries straddle both thresholds.
        #[test]
        fn prop_top_k_sources_match_sort_reference(
            cells in proptest::collection::vec((0usize..6, 0usize..4), 1..65),
            num_reduces in 1usize..=3,
            node in 0usize..64,
            barrier in 0u8..2,
        ) {
            const AVAIL_MB: [f64; 6] = [0.0, 3e-9, 2e-7, 7.5, 15.0, 30.0];
            const FETCHED: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
            let workers = cells.len();
            let mut sh = ShuffleState::new(workers, num_reduces);
            let mut r = reduce(node % workers, workers);
            for (s, &(a, f)) in cells.iter().enumerate() {
                sh.on_map_complete(NodeId(s), AVAIL_MB[a]);
                let fetched = AVAIL_MB[a] / num_reduces as f64 * FETCHED[f];
                if fetched > 0.0 {
                    r.record_fetch(NodeId(s), fetched);
                }
            }
            let barrier = barrier == 1;
            if barrier {
                sh.set_maps_all_done();
            }
            let bits = |v: &[(NodeId, f64)]| -> Vec<(usize, u64)> {
                v.iter().map(|&(n, rem)| (n.0, rem.to_bits())).collect()
            };
            for max_sources in 1..=8 {
                let want = reference_sources(&sh, &r, max_sources);
                let got = sources(&sh, &r, max_sources);
                proptest::prop_assert_eq!(bits(&got), bits(&want), "max_sources {}", max_sources);
            }
            proptest::prop_assert_eq!(
                sh.shuffle_complete(&r),
                barrier && sh.remaining_total(&r) <= 1e-6
            );
        }
    }

    #[test]
    fn node_loss_drains_source_and_reopens_barrier() {
        let mut sh = ShuffleState::new(3, 2);
        sh.on_map_complete(NodeId(0), 100.0);
        sh.on_map_complete(NodeId(1), 60.0);
        sh.set_maps_all_done();
        let mut r = reduce(2, 3);
        r.record_fetch(NodeId(0), 20.0);
        let lost = sh.on_node_lost(NodeId(0));
        assert!((lost - 100.0).abs() < 1e-12);
        assert!((sh.total_output_mb() - 60.0).abs() < 1e-12);
        // the partially fetched share clamps to zero, it does not go negative
        assert_eq!(sh.remaining_from(&r, NodeId(0)), 0.0);
        sh.clear_maps_all_done();
        assert!(!sh.maps_all_done());
        assert_eq!(sh.partition_mb(), None);
        // the re-executed map lands on a survivor and is fetchable again
        sh.on_map_complete(NodeId(1), 100.0);
        sh.set_maps_all_done();
        assert!((sh.total_output_mb() - 160.0).abs() < 1e-12);
        // losing an empty source is a no-op
        assert_eq!(sh.on_node_lost(NodeId(2)), 0.0);
    }

    #[test]
    fn partitions_split_uniformly() {
        let mut sh = ShuffleState::new(2, 4);
        sh.on_map_complete(NodeId(0), 100.0);
        sh.set_maps_all_done();
        assert_eq!(sh.partition_mb(), Some(25.0));
        let r = reduce(1, 2);
        assert!((sh.remaining_from(&r, NodeId(0)) - 25.0).abs() < 1e-12);
    }
}
