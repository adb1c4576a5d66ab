//! Map-output availability and shuffle accounting for one job.
//!
//! Each finished map task leaves its output on the node that ran it, split
//! uniformly across the job's reduce partitions (the same uniformity
//! assumption the paper's slot manager makes when estimating `R_m`,
//! §IV-A3). A reduce task may fetch, from source node `s`, one `1/R` share
//! of all map output produced on `s` so far. The shuffle of a reduce can
//! only *complete* once the job's last map has finished — the
//! synchronisation barrier.
//!
//! Which sources a reduce can still fetch from is event-fed, as a Hadoop
//! reducer's `ReduceCopier` learns its map locations from task-completion
//! events instead of asking every tracker: [`SourceSets`] keeps one
//! bitset over source nodes per reduce, and the source choice and the
//! completion test walk only its set bits.

use crate::task::ReduceTask;
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;

/// Shuffle-side state of one job.
#[derive(Debug, Clone)]
pub struct ShuffleState {
    /// Map output MB accumulated on each worker node (by `NodeId.0`).
    avail_by_src: Vec<f64>,
    /// One reduce's share of each source, `avail_by_src[s] / num_reduces`,
    /// updated with `avail_by_src` so the per-step walks do not divide.
    /// Never serialized: deserializing recomputes it.
    share_by_src: Vec<f64>,
    /// Total map output so far (MB).
    total_output_mb: f64,
    num_reduces: usize,
    maps_all_done: bool,
}

/// The serialized form of [`ShuffleState`]: everything but the shares.
#[derive(Serialize, Deserialize)]
struct ShuffleWire {
    avail_by_src: Vec<f64>,
    total_output_mb: f64,
    num_reduces: usize,
    maps_all_done: bool,
}

impl Serialize for ShuffleState {
    fn to_value(&self) -> serde::Value {
        ShuffleWire {
            avail_by_src: self.avail_by_src.clone(),
            total_output_mb: self.total_output_mb,
            num_reduces: self.num_reduces,
            maps_all_done: self.maps_all_done,
        }
        .to_value()
    }
}

impl Deserialize for ShuffleState {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = ShuffleWire::deserialize(v)?;
        let reduces = wire.num_reduces as f64;
        Ok(ShuffleState {
            share_by_src: wire.avail_by_src.iter().map(|a| a / reduces).collect(),
            avail_by_src: wire.avail_by_src,
            total_output_mb: wire.total_output_mb,
            num_reduces: wire.num_reduces,
            maps_all_done: wire.maps_all_done,
        })
    }
}

impl ShuffleState {
    pub fn new(workers: usize, num_reduces: usize) -> ShuffleState {
        assert!(num_reduces > 0);
        ShuffleState {
            avail_by_src: vec![0.0; workers],
            share_by_src: vec![0.0; workers],
            total_output_mb: 0.0,
            num_reduces,
            maps_all_done: false,
        }
    }

    /// Record a finished map's output on `node`.
    pub fn on_map_complete(&mut self, node: NodeId, output_mb: f64) {
        debug_assert!(output_mb >= 0.0);
        self.avail_by_src[node.0] += output_mb;
        self.share_by_src[node.0] = self.avail_by_src[node.0] / self.num_reduces as f64;
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
        self.share_by_src[node.0] = self.avail_by_src[node.0] / self.num_reduces as f64;
        self.total_output_mb -= lost;
        lost
    }

    pub fn maps_all_done(&self) -> bool {
        self.maps_all_done
    }

    pub fn num_reduces(&self) -> usize {
        self.num_reduces
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
        (self.share_by_src[src.0] - reduce.fetched_by_src[src.0]).max(0.0)
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
    /// phase. `sources` must be the job's [`SourceSets`].
    ///
    /// Sums the per-source remainders in source order but stops at the
    /// first partial sum past the threshold: every term is non-negative and
    /// adding one never makes a float sum smaller, so the full sum would
    /// be past it too. Only sources in the reduce's set are visited; every
    /// other remainder is exactly 0, and adding 0.0 leaves each partial
    /// sum as it was, so the test agrees bit for bit with a sum over every
    /// source.
    pub fn shuffle_complete(&self, reduce: &ReduceTask, sources: &SourceSets) -> bool {
        debug_assert!(sources.covers(self, reduce), "{:?}", reduce.id);
        let mut total = 0.0;
        self.maps_all_done
            && sources.of(reduce).all(|s| {
                total += self.remaining_from(reduce, s);
                total <= 1e-6
            })
    }

    /// Source nodes with data still fetchable by `reduce`, largest backlog
    /// first, at most `max_sources` of them (the parallel-copies limit),
    /// written into a caller-owned (recycled) buffer so the per-step flow
    /// build allocates nothing. `sources` must be the job's
    /// [`SourceSets`].
    ///
    /// One ascending pass over the reduce's set keeps the `max_sources`
    /// largest backlogs in order. A source goes after every kept one with
    /// an equal backlog, and a full list rejects a source that only ties
    /// its last entry, so equal backlogs go to the lower node id. The set
    /// holds every source with data, in ascending order, so the pass sees
    /// the same candidates in the same order as one over every node.
    ///
    /// A backlog must beat `cut`: 1e-9 until the list is full, then the
    /// last kept backlog. It is the unclamped `share - fetched`: a negative
    /// or NaN one is cut as the clamp's 0 was, and a kept one equals
    /// [`ShuffleState::remaining_from`].
    pub fn fetch_sources_into(
        &self,
        reduce: &ReduceTask,
        sources: &SourceSets,
        max_sources: usize,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        debug_assert!(sources.covers(self, reduce), "{:?}", reduce.id);
        out.clear();
        if max_sources == 0 {
            return;
        }
        let mut cut = 1e-9;
        for s in sources.of(reduce) {
            let rem = self.share_by_src[s.0] - reduce.fetched_by_src[s.0];
            if rem <= cut || rem.is_nan() {
                continue;
            }
            if out.len() == max_sources {
                out.pop();
            }
            let mut at = out.len();
            while at > 0 && out[at - 1].1 < rem {
                at -= 1;
            }
            out.insert(at, (s, rem));
            if out.len() == max_sources {
                cut = out[max_sources - 1].1;
            }
        }
    }
}

/// The fetch sources of one job's running reduces: per reduce partition, a
/// bitset over source nodes holding every source its reduce can still
/// fetch from (a strictly positive [`ShuffleState::remaining_from`]). A
/// set may also hold drained sources — it is a superset, never a subset —
/// and it is walked in ascending node order.
///
/// Remainders grow only when a map completes, which sets that node's bit
/// in every partition's set, and shrink when a reduce fetches, which
/// clears the bit once the remainder reaches 0. A node loss zeroes its
/// remainders and may leave bits set. A partition's set is rebuilt from
/// its reduce's remainders when the reduce launches and when a stepping
/// call derives the sets over reduces already running.
///
/// Derived from the state and never serialized. The words are allocated
/// when the job's first reduce launches; until then map completions skip
/// the job.
#[derive(Debug, Clone, Default)]
pub struct SourceSets {
    /// 64-bit words per partition's set.
    stride: usize,
    /// `num_reduces × stride` words, partition-major.
    words: Vec<u64>,
}

impl SourceSets {
    /// Rebuild the set of `reduce`, running in the job `shuffle` belongs
    /// to, from its remainders.
    pub fn rebuild(&mut self, shuffle: &ShuffleState, reduce: &ReduceTask) {
        if self.words.is_empty() {
            self.stride = shuffle.avail_by_src.len().div_ceil(64);
            self.words = vec![0; shuffle.num_reduces * self.stride];
        }
        let at = reduce.id.partition * self.stride;
        let set = &mut self.words[at..at + self.stride];
        set.fill(0);
        for s in 0..shuffle.avail_by_src.len() {
            if shuffle.remaining_from(reduce, NodeId(s)) > 0.0 {
                set[s / 64] |= 1 << (s % 64);
            }
        }
    }

    /// A map's output landed on `node`: every partition may fetch from it.
    pub fn map_completed(&mut self, node: NodeId) {
        if self.words.is_empty() {
            return; // no reduce has launched: each builds its set then
        }
        let bit = 1 << (node.0 % 64);
        for set in self.words.chunks_exact_mut(self.stride) {
            set[node.0 / 64] |= bit;
        }
    }

    /// `reduce` fetched from `src`: drop `src` from its set once nothing is
    /// left to fetch there.
    pub fn fetched(&mut self, shuffle: &ShuffleState, reduce: &ReduceTask, src: NodeId) {
        if shuffle.remaining_from(reduce, src) <= 0.0 {
            self.words[reduce.id.partition * self.stride + src.0 / 64] &= !(1 << (src.0 % 64));
        }
    }

    /// The sources in `reduce`'s set, ascending.
    fn of(&self, reduce: &ReduceTask) -> Ones<'_> {
        let at = reduce.id.partition * self.stride;
        Ones::new(&self.words[at..at + self.stride])
    }

    /// Whether `reduce`'s set holds every source with a positive remainder
    /// (the invariant the walks above rely on).
    fn covers(&self, shuffle: &ShuffleState, reduce: &ReduceTask) -> bool {
        (0..shuffle.avail_by_src.len()).all(|s| {
            let at = reduce.id.partition * self.stride + s / 64;
            shuffle.remaining_from(reduce, NodeId(s)) <= 0.0
                || self.words.get(at).is_some_and(|w| w >> (s % 64) & 1 == 1)
        })
    }
}

/// The set bits of a bitset, ascending, as node ids.
struct Ones<'a> {
    rest: std::slice::Iter<'a, u64>,
    /// Node id of bit 0 of `word`.
    base: usize,
    /// The not-yet-visited bits of the current word.
    word: u64,
}

impl<'a> Ones<'a> {
    fn new(words: &'a [u64]) -> Ones<'a> {
        let mut rest = words.iter();
        let word = rest.next().copied().unwrap_or(0);
        Ones {
            rest,
            base: 0,
            word,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.word == 0 {
            self.word = *self.rest.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(NodeId(self.base + bit))
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

    /// The retired full scan, kept as the differential reference for the
    /// set walk: one ascending pass over every node keeping the
    /// `max_sources` largest backlogs.
    fn full_scan_sources(
        sh: &ShuffleState,
        reduce: &ReduceTask,
        max_sources: usize,
    ) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = Vec::new();
        if max_sources == 0 {
            return out;
        }
        for s in 0..sh.avail_by_src.len() {
            let rem = sh.remaining_from(reduce, NodeId(s));
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
        out
    }

    /// The retired full-scan completion test, kept as the reference: the
    /// early-exit sum over every source.
    fn full_scan_complete(sh: &ShuffleState, reduce: &ReduceTask) -> bool {
        let mut total = 0.0;
        sh.maps_all_done
            && (0..sh.avail_by_src.len()).all(|s| {
                total += sh.remaining_from(reduce, NodeId(s));
                total <= 1e-6
            })
    }

    /// `reduce`'s sets, built as a launch builds them.
    fn sets_of(sh: &ShuffleState, reduce: &ReduceTask) -> SourceSets {
        let mut sets = SourceSets::default();
        sets.rebuild(sh, reduce);
        sets
    }

    fn sources(sh: &ShuffleState, reduce: &ReduceTask, max_sources: usize) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        sh.fetch_sources_into(reduce, &sets_of(sh, reduce), max_sources, &mut out);
        out
    }

    fn complete(sh: &ShuffleState, reduce: &ReduceTask) -> bool {
        sh.shuffle_complete(reduce, &sets_of(sh, reduce))
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
        assert!(!complete(&sh, &r));
        assert_eq!(sh.partition_mb(), None);
        sh.set_maps_all_done();
        assert!(complete(&sh, &r));
        assert_eq!(sh.partition_mb(), Some(10.0));
    }

    #[test]
    fn incomplete_fetch_blocks_completion_after_barrier() {
        let mut sh = ShuffleState::new(2, 1);
        sh.on_map_complete(NodeId(0), 10.0);
        sh.set_maps_all_done();
        let r = reduce(1, 2);
        assert!(!complete(&sh, &r));
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
            proptest::prop_assert!(complete(&sh, &r));
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
                complete(&sh, &r),
                barrier && sh.remaining_total(&r) <= 1e-6
            );
        }
    }

    proptest::proptest! {
        /// Event-fed sets against the retired full scans. A random
        /// sequence of map completions (outputs from a palette with zeros,
        /// sub-threshold crumbs and ties), partial and exactly draining
        /// fetches, node losses (which kill the reduces on the node) and
        /// reduce (re)launches drives one job over up to 130 nodes, so a
        /// set spans up to three words. After every operation, for every
        /// running reduce: the set holds every source with a positive
        /// remainder, the selection equals the full scan's (node ids,
        /// order and backlog bits) for every limit from 1 to 8, and the
        /// completion test equals the full scan's and the full sum's.
        #[test]
        fn prop_event_fed_sets_match_full_scan(
            workers in 1usize..131,
            num_reduces in 1usize..4,
            ops in proptest::collection::vec((0u8..12, 0usize..130, 0usize..6), 1..120),
        ) {
            const OUTPUT_MB: [f64; 6] = [0.0, 3e-9, 7.5, 7.5, 15.0, 30.0];
            const FETCH_FRAC: [f64; 6] = [0.25, 0.5, 1.0 / 3.0, 1.0, 1.0, 1.0];
            let mut sh = ShuffleState::new(workers, num_reduces);
            let mut sets = SourceSets::default();
            let mut running: Vec<Option<ReduceTask>> = vec![None; num_reduces];
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                let node = NodeId(a % workers);
                let part = b % num_reduces;
                match kind {
                    // a map completes on `node`
                    0..=3 => {
                        sh.on_map_complete(node, OUTPUT_MB[b]);
                        sets.map_completed(node);
                    }
                    // a reduce fetches part or all of what `node` holds for it
                    4..=7 => {
                        if let Some(r) = running[part].as_mut() {
                            let rem = sh.remaining_from(r, node);
                            let mb = if FETCH_FRAC[b] == 1.0 { rem } else { rem * FETCH_FRAC[b] };
                            if mb > 0.0 {
                                r.record_fetch(node, mb);
                                sets.fetched(&sh, r, node);
                            }
                        }
                    }
                    // `node` is lost with its output and its reduces
                    8 => {
                        sh.on_node_lost(node);
                        for slot in running.iter_mut() {
                            if slot.as_ref().is_some_and(|r| r.node == node) {
                                *slot = None;
                            }
                        }
                    }
                    // the barrier opens or closes
                    9 => {
                        if sh.maps_all_done() {
                            sh.clear_maps_all_done();
                        } else {
                            sh.set_maps_all_done();
                        }
                    }
                    // partition `part` (re)launches on `node`
                    _ => {
                        let mut r = reduce(node.0, workers);
                        r.id.partition = part;
                        sets.rebuild(&sh, &r);
                        running[part] = Some(r);
                    }
                }
                for r in running.iter().flatten() {
                    proptest::prop_assert!(sets.covers(&sh, r), "op {} partition {}", i, r.id.partition);
                    let bits = |v: &[(NodeId, f64)]| -> Vec<(usize, u64)> {
                        v.iter().map(|&(n, rem)| (n.0, rem.to_bits())).collect()
                    };
                    let mut got = Vec::new();
                    for max_sources in 1..=8 {
                        sh.fetch_sources_into(r, &sets, max_sources, &mut got);
                        let want = full_scan_sources(&sh, r, max_sources);
                        proptest::prop_assert_eq!(bits(&got), bits(&want), "op {} max_sources {}", i, max_sources);
                    }
                    let done = sh.shuffle_complete(r, &sets);
                    proptest::prop_assert_eq!(done, full_scan_complete(&sh, r), "op {}", i);
                    proptest::prop_assert_eq!(
                        done,
                        sh.maps_all_done() && sh.remaining_total(r) <= 1e-6,
                        "op {}", i
                    );
                }
            }
        }
    }

    #[test]
    fn sets_cross_word_boundaries_and_drop_drained_sources() {
        let workers = 130;
        let mut sh = ShuffleState::new(workers, 2);
        let mut sets = SourceSets::default();
        let mut r = reduce(0, workers);
        sets.rebuild(&sh, &r);
        for s in [129, 5, 64, 63, 127, 128] {
            sh.on_map_complete(NodeId(s), 10.0);
            sets.map_completed(NodeId(s));
        }
        let walked: Vec<usize> = sets.of(&r).map(|n| n.0).collect();
        assert_eq!(walked, [5, 63, 64, 127, 128, 129], "ascending across words");
        r.record_fetch(NodeId(64), 5.0);
        sets.fetched(&sh, &r, NodeId(64));
        r.record_fetch(NodeId(63), 2.0);
        sets.fetched(&sh, &r, NodeId(63));
        let walked: Vec<usize> = sets.of(&r).map(|n| n.0).collect();
        assert_eq!(
            walked,
            [5, 63, 127, 128, 129],
            "the drained source left the set"
        );
        // a launch rebuilds from the reduce's own remainders
        let mut other = reduce(1, workers);
        other.id.partition = 1;
        other.record_fetch(NodeId(5), 5.0);
        sets.rebuild(&sh, &other);
        let walked: Vec<usize> = sets.of(&other).map(|n| n.0).collect();
        assert_eq!(walked, [63, 64, 127, 128, 129]);
        assert!(sets.covers(&sh, &r) && sets.covers(&sh, &other));
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
    fn shares_stay_out_of_capsules_and_are_recomputed() {
        let mut sh = ShuffleState::new(5, 3);
        sh.on_map_complete(NodeId(1), 100.0);
        sh.on_map_complete(NodeId(4), 0.7);
        sh.on_node_lost(NodeId(4));
        sh.on_map_complete(NodeId(2), 1e-3);
        let v = sh.to_value();
        let serde::Value::Object(fields) = &v else {
            panic!("a shuffle state serializes as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "avail_by_src",
                "total_output_mb",
                "num_reduces",
                "maps_all_done"
            ]
        );
        let back = ShuffleState::deserialize(&v).unwrap();
        let bits = |sh: &ShuffleState| -> Vec<u64> {
            sh.share_by_src.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&back), bits(&sh), "the same division, redone");
        assert_eq!(back.to_value(), v);
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
