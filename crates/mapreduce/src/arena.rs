//! Reusable per-cell engine allocations for batched sweeps.
//!
//! Each simulated cell needs a fixed family of scratch buffers: the node
//! allocation the allocate phase carries from step to step, the per-node
//! NIC arrays, the flow/purpose lists handed to the fabric, and the usage
//! sampler's row store. A thread-per-cell sweep pays for all of them on
//! every cell; a pool worker driving thousands of cells should pay once.
//!
//! [`EngineArena`] owns that family between cells as one `Scratch`
//! value. Every stepping call checks it out (reset **in place**: cleared
//! and re-sized into the existing backing allocation, never
//! reconstructed), steps with it, and checks it back in when the call
//! returns. The arena counts **growth events** —
//! any checkout or run that had to enlarge a backing allocation — so the
//! steady state is testable: after one warm-up cell of a given shape,
//! subsequent same-shape cells must report zero growth.
//!
//! Reset-in-place invariants (what makes recycled buffers bit-safe):
//!
//! * every checked-out buffer is cleared and refilled to exactly the
//!   length a fresh `vec![fill; n]` would have, so reads never observe a
//!   previous cell's values;
//! * spare *capacity* beyond that length is invisible to the engine: all
//!   consumers iterate by length, never by capacity;
//! * no pointer, index, or id derived from a previous cell survives in
//!   the arena — only raw allocations do.
//!
//! Consequently a run produces byte-identical reports whether its scratch
//! came from a fresh allocation or a recycled arena; the determinism
//! suite in `tests/sweep_determinism.rs` holds this to the letter.

use crate::engine::{FetchPost, FlowPurpose, NodeAlloc};
use crate::policy::TrackerSnapshot;
use crate::task::{MapAttemptId, MapTask, ReduceTask, ReduceTaskId};
use simgrid::cluster::NodeId;
use simgrid::network::{FabricScratch, Flow, FlowId};
use simgrid::usage::RowStore;

/// The number of distinct buffer families an arena recycles (used to size
/// the footprint snapshot taken at checkout).
const FAMILIES: usize = 24;

/// Reusable scratch allocations for one engine run at a time.
///
/// An arena is owned by one pool worker (or one sequential loop) and
/// passed to every stepping call ([`crate::Engine::resume_in`],
/// [`crate::Engine::advance_until_in`], [`crate::Run::advance_until`]);
/// it is not shareable across concurrent runs.
#[derive(Debug, Default)]
pub struct EngineArena {
    scratch: Scratch,
    /// Byte footprint of the family currently checked out, recorded so
    /// check-in can detect growth that happened *during* the run.
    handed: [usize; FAMILIES],
    growth_events: u64,
    cells: u64,
}

/// The scratch family one run threads through its step loop, checked out
/// of an [`EngineArena`] and returned to it when the stepping call ends.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The node allocation carried from step to step (the per-row scale
    /// table, per-node granted CPU, disk and occupancy, and the totals),
    /// with the nodes marked since the last step.
    pub(crate) nodes: NodeAlloc,
    /// The bits of each step's allocation, which debug builds compare
    /// with a recompute of every node to check the marks; never grown in
    /// release builds, and not counted as a family.
    pub(crate) nodes_check: Vec<u64>,
    /// The trackers with a management stall, each listed once, so the
    /// stall decay and the horizon visit only these.
    pub(crate) stalled: Vec<NodeId>,
    /// Per-node fabric rates (MB/s per direction) rewritten by every
    /// allocate phase and read by the following integrate.
    pub(crate) nic_in: Vec<f64>,
    pub(crate) nic_out: Vec<f64>,
    /// Flow list (and the purpose tags indexing its grants) handed to the
    /// fabric each step.
    pub(crate) flows: Vec<Flow>,
    pub(crate) purposes: Vec<(FlowId, FlowPurpose)>,
    /// Dense water-filling state and the positional rate vector the
    /// fabric writes grants into.
    pub(crate) fabric: FabricScratch,
    pub(crate) rates: Vec<f64>,
    /// Backing stores of the allocate phase's per-row rates, swapped out
    /// at allocate and back after integrate.
    pub(crate) read_rates: Vec<f64>,
    pub(crate) fetch_posts: Vec<FetchPost>,
    /// Staging buffers lent to the running-map, running-reduce and
    /// failure-point tables for the length of a stepping call, and the
    /// merge buffers of their settles; all empty between settles.
    pub(crate) map_staging: Vec<(MapAttemptId, MapTask)>,
    pub(crate) reduce_staging: Vec<(ReduceTaskId, ReduceTask)>,
    pub(crate) point_staging: Vec<(MapAttemptId, f64)>,
    pub(crate) map_spare: Vec<(MapAttemptId, MapTask)>,
    pub(crate) reduce_spare: Vec<(ReduceTaskId, ReduceTask)>,
    pub(crate) point_spare: Vec<(MapAttemptId, f64)>,
    /// Per-reduce fetch-source list rebuilt by every flow build.
    pub(crate) sources: Vec<(NodeId, f64)>,
    /// Live-tracker snapshots rebuilt by every heartbeat fan-in.
    pub(crate) snapshots: Vec<TrackerSnapshot>,
    /// The attempts and reduces a step's integrate finishes or fails,
    /// retired after its walk; empty between steps.
    pub(crate) maps_done: Vec<MapAttemptId>,
    pub(crate) maps_failed: Vec<MapAttemptId>,
    pub(crate) reduces_done: Vec<ReduceTaskId>,
    /// Per-job running map and reduce progress summed by every sample.
    pub(crate) map_progress: Vec<f64>,
    pub(crate) reduce_progress: Vec<f64>,
    /// The usage sampler's row store, lent to a run that samples from its
    /// start and returned, cleared, once its report is built.
    pub(crate) usage_rows: RowStore,
}

/// Backing bytes of one buffer, sized by its own element type.
pub(crate) fn vec_bytes<T>(vec: &Vec<T>) -> usize {
    vec.capacity() * std::mem::size_of::<T>()
}

impl Scratch {
    /// Backing bytes per buffer family. The nested task lists fold their
    /// inner buffers in, so a run that grew any per-node list shows.
    fn footprint(&self) -> [usize; FAMILIES] {
        [
            self.nodes.approx_bytes(),
            vec_bytes(&self.stalled),
            vec_bytes(&self.nic_in),
            vec_bytes(&self.nic_out),
            vec_bytes(&self.flows),
            vec_bytes(&self.purposes),
            self.fabric.approx_bytes(),
            vec_bytes(&self.rates),
            vec_bytes(&self.read_rates),
            vec_bytes(&self.fetch_posts),
            vec_bytes(&self.map_staging),
            vec_bytes(&self.reduce_staging),
            vec_bytes(&self.point_staging),
            vec_bytes(&self.map_spare),
            vec_bytes(&self.reduce_spare),
            vec_bytes(&self.point_spare),
            vec_bytes(&self.sources),
            vec_bytes(&self.snapshots),
            vec_bytes(&self.maps_done),
            vec_bytes(&self.maps_failed),
            vec_bytes(&self.reduces_done),
            vec_bytes(&self.map_progress),
            vec_bytes(&self.reduce_progress),
            self.usage_rows.approx_bytes(),
        ]
    }

    /// Reset every buffer in place for a `workers`-node run. Returns how
    /// many families had to grow.
    fn reset(&mut self, workers: usize) -> u64 {
        let mut grew = 0u64;
        grew += u64::from(self.nodes.reset(workers));
        self.nodes_check.clear();
        // a node is listed at most once, so the list never regrows
        grew += u64::from(self.stalled.capacity() < workers);
        self.stalled.clear();
        self.stalled.reserve(workers);
        grew += u64::from(reset_filled(&mut self.nic_in, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.nic_out, workers, 0.0));
        self.flows.clear();
        self.purposes.clear();
        // the fabric scratch needs no reset: its slabs are epoch-stamped,
        // so stale lanes are invisible to the next allocation
        self.rates.clear();
        self.read_rates.clear();
        self.fetch_posts.clear();
        self.map_staging.clear();
        self.reduce_staging.clear();
        self.point_staging.clear();
        self.map_spare.clear();
        self.reduce_spare.clear();
        self.point_spare.clear();
        self.sources.clear();
        self.snapshots.clear();
        debug_assert!(
            self.maps_done.is_empty()
                && self.maps_failed.is_empty()
                && self.reduces_done.is_empty(),
            "a step's retirement lists outlived it"
        );
        grew
    }
}

/// Clear `vec` and refill it in place to `len` copies of `fill`.
/// Returns `true` when the backing allocation had to grow.
pub(crate) fn reset_filled<T: Clone>(vec: &mut Vec<T>, len: usize, fill: T) -> bool {
    let grew = vec.capacity() < len;
    vec.clear();
    vec.resize(len, fill);
    grew
}

impl EngineArena {
    pub fn new() -> EngineArena {
        EngineArena::default()
    }

    /// Cells whose scratch came out of recycled buffers — every checkout
    /// after this arena's first, which had to allocate fresh.
    pub fn cells_recycled(&self) -> u64 {
        self.cells.saturating_sub(1)
    }

    /// Total cells this arena has served, the fresh first one included.
    pub fn cells_served(&self) -> u64 {
        self.cells
    }

    /// Buffer-family growths observed so far: resizes at checkout plus
    /// any in-run growth detected at check-in. Constant across a
    /// steady-state loop of same-shape cells after the first.
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }

    /// Approximate resident bytes held by the recycled buffer families —
    /// the scale bench's peak-memory proxy. Counts backing capacity, not
    /// live length, because capacity is what the process actually keeps.
    pub fn approx_bytes(&self) -> usize {
        self.scratch.footprint().iter().sum()
    }

    /// Reset the family in place for a `workers`-node cell and hand it
    /// out. The caller returns it via [`EngineArena::check_in`].
    pub(crate) fn checkout(&mut self, workers: usize) -> Scratch {
        self.growth_events += self.scratch.reset(workers);
        self.handed = self.scratch.footprint();
        std::mem::take(&mut self.scratch)
    }

    /// Take the family back after a run, folding in-run growth into the
    /// growth counter.
    pub(crate) fn check_in(&mut self, scratch: Scratch) {
        let grown = self.handed.iter().zip(scratch.footprint());
        self.growth_events += grown.filter(|(before, after)| after > *before).count() as u64;
        self.scratch = scratch;
        self.cells += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_resets_lengths_and_counts_first_growth() {
        let mut arena = EngineArena::new();
        let s = arena.checkout(4);
        assert_eq!(s.nodes.node_cpu, vec![0.0; 4]);
        assert_eq!(s.nodes.occ_map, vec![0; 4]);
        assert_eq!(s.nic_in, vec![0.0; 4]);
        let first_growth = arena.growth_events();
        assert!(first_growth > 0, "cold checkout must allocate");
        arena.check_in(s);
        assert_eq!(arena.cells_served(), 1);
        assert_eq!(arena.cells_recycled(), 0, "first cell allocated fresh");

        // same shape again: everything fits in place, zero growth
        let s = arena.checkout(4);
        arena.check_in(s);
        assert_eq!(arena.growth_events(), first_growth);
        assert_eq!(arena.cells_served(), 2);
        assert_eq!(arena.cells_recycled(), 1);
    }

    #[test]
    fn checkout_scrubs_previous_cell_contents() {
        let mut arena = EngineArena::new();
        let mut s = arena.checkout(2);
        s.nodes.node_cpu[0] = 7.5;
        s.nodes.occ_map[1] = 3;
        s.nodes.scales.push(0.5);
        s.stalled.push(NodeId(1));
        arena.check_in(s);

        let s = arena.checkout(2);
        assert_eq!(s.nodes.node_cpu, vec![0.0; 2]);
        assert_eq!(s.nodes.occ_map, vec![0; 2]);
        assert!(s.nodes.scales.is_empty() && s.stalled.is_empty());
        arena.check_in(s);
    }

    #[test]
    fn in_run_growth_is_detected_at_check_in() {
        let mut arena = EngineArena::new();
        let s = arena.checkout(2);
        arena.check_in(s);
        let before = arena.growth_events();
        let mut s = arena.checkout(2);
        s.flows.reserve(1024); // a run that outgrew its flow list
        arena.check_in(s);
        assert!(arena.growth_events() > before);
    }

    #[test]
    fn approx_bytes_sizes_each_family_by_its_element_type() {
        let mut arena = EngineArena::new();
        let s = arena.checkout(2);
        arena.check_in(s);
        let before = arena.approx_bytes();
        let mut s = arena.checkout(2);
        s.maps_done.reserve_exact(10);
        s.read_rates.reserve_exact(3);
        arena.check_in(s);
        let grown = 10 * std::mem::size_of::<MapAttemptId>() + 3 * std::mem::size_of::<f64>();
        assert_eq!(arena.approx_bytes() - before, grown);
    }

    #[test]
    fn wider_cluster_grows_then_stabilises() {
        let mut arena = EngineArena::new();
        for workers in [2usize, 8, 8, 8] {
            let s = arena.checkout(workers);
            arena.check_in(s);
        }
        let after_wide = arena.growth_events();
        // shrinking back re-uses the wide allocation: no growth
        let s = arena.checkout(4);
        arena.check_in(s);
        assert_eq!(arena.growth_events(), after_wide);
    }
}
