//! Batched-sweep determinism guarantees: the bounded worker pool is an
//! execution strategy, not a semantic change. The same grid must produce
//! byte-identical per-cell reports at every worker count and match the
//! legacy sequential path cell for cell, and the arena recycling that
//! makes the pool allocation-free must never leak one cell's state into
//! the next cell run in the same slot.

use harness::runner::run_once;
use harness::{run_cells_with, CellRequest, System};
use mapreduce::{EngineArena, EngineConfig, JobSpec};
use proptest::proptest;
use simgrid::cluster::NodeId;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};
use sweepengine::SweepCell;
use workloads::Puma;

fn job(input_mb: f64) -> JobSpec {
    Puma::Grep.job(0, input_mb, 8, SimTime::ZERO)
}

/// A mixed grid of (config, input MB, system, seed) cells: all three
/// systems, three loads, several seeds, and one faulted cell per system —
/// every dispatch shape the drivers use.
fn cell_specs() -> Vec<(EngineConfig, f64, System, u64)> {
    let cfg = EngineConfig::small_test(4, 0);
    let mut faulted = cfg.clone();
    faulted.fault_plan = FaultPlan::new(vec![NodeFault::transient(
        NodeId(1),
        SimTime::from_secs(30),
        SimDuration::from_secs(90),
    )]);
    let mut cells = Vec::new();
    for (i, sys) in System::all().into_iter().enumerate() {
        cells.push((cfg.clone(), 512.0, sys.clone(), i as u64 + 1));
        cells.push((cfg.clone(), 1536.0, sys.clone(), i as u64 + 100));
        cells.push((cfg.clone(), 1024.0, sys.clone(), 9));
        cells.push((faulted.clone(), 1024.0, sys, 9));
    }
    cells
}

fn grid() -> Vec<CellRequest> {
    cell_specs()
        .into_iter()
        .map(|(cfg, mb, sys, seed)| CellRequest::cold(cfg, vec![job(mb)], sys, seed))
        .collect()
}

fn fingerprints(cells: &[CellRequest], workers: usize) -> Vec<String> {
    run_cells_with(workers, cells)
        .reports
        .iter()
        .map(|r| serde_json::to_string(r.as_ref().expect("cell completes")).unwrap())
        .collect()
}

#[test]
fn per_cell_reports_are_identical_across_worker_counts() {
    let cells = grid();
    let one = fingerprints(&cells, 1);
    let two = fingerprints(&cells, 2);
    let many = fingerprints(
        &cells,
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );
    assert_eq!(one.len(), cells.len());
    for (i, a) in one.iter().enumerate() {
        assert_eq!(a, &two[i], "cell {i}: 1 vs 2 workers");
        assert_eq!(a, &many[i], "cell {i}: 1 vs available_parallelism workers");
    }
}

#[test]
fn pooled_reports_match_the_legacy_sequential_path() {
    let pooled = fingerprints(&grid(), 3);
    let legacy: Vec<_> = cell_specs()
        .iter()
        .map(|(cfg, mb, sys, seed)| run_once(cfg, vec![job(*mb)], sys, *seed).unwrap())
        .collect();
    assert_eq!(pooled.len(), legacy.len());
    for (i, want) in legacy.iter().enumerate() {
        assert_eq!(
            pooled[i],
            serde_json::to_string(want).unwrap(),
            "cell {i} diverged from the legacy path"
        );
    }
}

proptest! {
    /// Arena reset-in-place leaks nothing: whatever cell A left behind in
    /// the recycled buffers, cell B run after it in the same arena slot is
    /// byte-identical to cell B run in a fresh arena.
    #[test]
    fn arena_recycling_leaks_no_state_between_cells(
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
        load_a in 0usize..3,
        load_b in 0usize..3,
        sys_pick in 0usize..9,
    ) {
        let loads = [512.0, 1024.0, 1536.0];
        let systems = System::all();
        let sys_a = &systems[sys_pick % 3];
        let sys_b = &systems[sys_pick / 3];
        // cells deliberately differ in shape so A's leftovers would be
        // the wrong size for B if reset-in-place ever missed a buffer
        let cfg_a = EngineConfig::small_test(4, seed_a);
        let cfg_b = EngineConfig::small_test(3, seed_b);

        let cell_a = CellRequest::cold(cfg_a, vec![job(loads[load_a])], sys_a.clone(), seed_a);
        let cell_b = CellRequest::cold(cfg_b, vec![job(loads[load_b])], sys_b.clone(), seed_b);

        let mut shared = EngineArena::new();
        let _a = cell_a.run(&mut shared).expect("cell A completes");
        let recycled = cell_b.run(&mut shared).expect("cell B completes recycled");

        let fresh = cell_b.run(&mut EngineArena::new()).expect("cell B completes fresh");

        assert_eq!(
            serde_json::to_string(&recycled).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "recycled arena changed cell B's result"
        );
        assert_eq!(shared.cells_served(), 2);
        assert_eq!(shared.cells_recycled(), 1, "cell B recycled A's arena");
    }
}
