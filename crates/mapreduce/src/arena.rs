//! Reusable per-cell engine allocations for batched sweeps.
//!
//! Each simulated cell needs a fixed family of scratch buffers: per-node
//! rate arrays rewritten by every allocate phase, the per-node task lists
//! and demand vector the node allocator walks, and the flow/purpose lists
//! handed to the fabric. A thread-per-cell sweep pays for all of them on
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

use crate::engine::{FetchPost, FlowPurpose, TaskRef};
use crate::policy::TrackerSnapshot;
use crate::task::MapAttemptId;
use simgrid::cluster::NodeId;
use simgrid::network::{FabricScratch, Flow, FlowId};
use simgrid::node::TaskDemand;

/// The number of distinct buffer families an arena recycles (used to size
/// the footprint snapshot taken at checkout).
const FAMILIES: usize = 17;

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
    /// Per-node rates rewritten by every allocate phase and read by the
    /// following integrate: granted CPU cores, disk MB/s and NIC MB/s per
    /// direction, plus the step-start slot occupancy.
    pub(crate) node_cpu: Vec<f64>,
    pub(crate) node_disk: Vec<f64>,
    pub(crate) nic_in: Vec<f64>,
    pub(crate) nic_out: Vec<f64>,
    pub(crate) occ_map: Vec<usize>,
    pub(crate) occ_reduce: Vec<usize>,
    /// Per-node task lists (each task's scale-table index and demand) and
    /// the flattened demand vector the node allocator walks.
    pub(crate) node_tasks: Vec<Vec<(usize, TaskDemand)>>,
    pub(crate) demands: Vec<TaskDemand>,
    /// Flow list (and the purpose tags indexing its grants) handed to the
    /// fabric each step.
    pub(crate) flows: Vec<Flow>,
    pub(crate) purposes: Vec<(FlowId, FlowPurpose)>,
    /// Dense water-filling state and the positional rate vector the
    /// fabric writes grants into.
    pub(crate) fabric: FabricScratch,
    pub(crate) rates: Vec<f64>,
    /// Backing stores of the allocate phase's rate indexes, swapped out
    /// at allocate and back after integrate.
    pub(crate) scales: Vec<(TaskRef, f64)>,
    pub(crate) map_posts: Vec<(MapAttemptId, f64)>,
    pub(crate) fetch_posts: Vec<FetchPost>,
    /// Per-reduce fetch-source list rebuilt by every flow build.
    pub(crate) sources: Vec<(NodeId, f64)>,
    /// Live-tracker snapshots rebuilt by every heartbeat fan-in.
    pub(crate) snapshots: Vec<TrackerSnapshot>,
}

/// Backing bytes of one buffer, sized by its own element type.
fn vec_bytes<T>(vec: &Vec<T>) -> usize {
    vec.capacity() * std::mem::size_of::<T>()
}

impl Scratch {
    /// Backing bytes per buffer family. The nested task lists fold their
    /// inner buffers in, so a run that grew any per-node list shows.
    fn footprint(&self) -> [usize; FAMILIES] {
        [
            vec_bytes(&self.node_cpu),
            vec_bytes(&self.node_disk),
            vec_bytes(&self.nic_in),
            vec_bytes(&self.nic_out),
            vec_bytes(&self.occ_map),
            vec_bytes(&self.occ_reduce),
            vec_bytes(&self.node_tasks) + self.node_tasks.iter().map(vec_bytes).sum::<usize>(),
            vec_bytes(&self.demands),
            vec_bytes(&self.flows),
            vec_bytes(&self.purposes),
            self.fabric.approx_bytes(),
            vec_bytes(&self.rates),
            vec_bytes(&self.scales),
            vec_bytes(&self.map_posts),
            vec_bytes(&self.fetch_posts),
            vec_bytes(&self.sources),
            vec_bytes(&self.snapshots),
        ]
    }

    /// Reset every buffer in place for a `workers`-node run. Returns how
    /// many families had to grow.
    fn reset(&mut self, workers: usize) -> u64 {
        let mut grew = 0u64;
        grew += u64::from(reset_filled(&mut self.node_cpu, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.node_disk, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.nic_in, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.nic_out, workers, 0.0));
        grew += u64::from(reset_filled(&mut self.occ_map, workers, 0));
        grew += u64::from(reset_filled(&mut self.occ_reduce, workers, 0));
        grew += u64::from(self.node_tasks.capacity() < workers);
        for tasks in &mut self.node_tasks {
            tasks.clear();
        }
        self.node_tasks.resize_with(workers, Vec::new);
        self.demands.clear();
        self.flows.clear();
        self.purposes.clear();
        // the fabric scratch needs no reset: its slabs are epoch-stamped,
        // so stale lanes are invisible to the next allocation
        self.rates.clear();
        self.scales.clear();
        self.map_posts.clear();
        self.fetch_posts.clear();
        self.sources.clear();
        self.snapshots.clear();
        grew
    }
}

/// Clear `vec` and refill it in place to `len` copies of `fill`.
/// Returns `true` when the backing allocation had to grow.
fn reset_filled<T: Clone>(vec: &mut Vec<T>, len: usize, fill: T) -> bool {
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
        assert_eq!(s.node_cpu, vec![0.0; 4]);
        assert_eq!(s.occ_map, vec![0; 4]);
        assert_eq!(s.node_tasks.len(), 4);
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
        s.node_cpu[0] = 7.5;
        s.occ_map[1] = 3;
        s.demands.push(TaskDemand {
            cpu_cores: 1.0,
            threads: 1,
            mem_mb: 1.0,
            disk_read: 1.0,
            disk_write: 1.0,
        });
        arena.check_in(s);

        let s = arena.checkout(2);
        assert_eq!(s.node_cpu, vec![0.0; 2]);
        assert_eq!(s.occ_map, vec![0; 2]);
        assert!(s.demands.is_empty());
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
        s.node_tasks[0].reserve_exact(10);
        s.scales.reserve_exact(3);
        arena.check_in(s);
        let grown = 10 * std::mem::size_of::<(usize, TaskDemand)>()
            + 3 * std::mem::size_of::<(TaskRef, f64)>();
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
