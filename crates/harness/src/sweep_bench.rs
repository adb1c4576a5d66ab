//! `reproduce sweep-bench` — throughput benchmark of the batched sweep
//! executor. Drives a 1000+ cell grid — policy × fault plan × load ×
//! seed — through [`sweepengine::BatchedSweep`] and reports cells/sec,
//! peak resident cells and arena recycling counters, written to
//! `BENCH_sweep.json`. A sampled subset of cells is re-run sequentially
//! through [`run_once`] and byte-compared, so the throughput number is
//! only reported alongside proof the pooled results are identical.

use crate::runner::{run_cells, run_once, trial_seed, CellRequest, System};
use crate::scale::Scale;
use mapreduce::{EngineConfig, JobSpec};
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};
use workloads::Puma;

/// The benchmark's measurements (the `BENCH_sweep.json` payload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepBench {
    /// Cells in the grid (policy × fault variant × load × seed).
    pub cells: usize,
    /// Pool workers the sweep ran on.
    pub workers: usize,
    /// Wall-clock seconds inside the pool (the equivalence re-runs
    /// excluded).
    pub wall_seconds: f64,
    pub cells_per_sec: f64,
    /// Most cells ever in flight at once — bounded by `workers`, unlike
    /// the old thread-per-cell fan-out where this equalled the grid size.
    pub peak_resident_cells: usize,
    /// Arena buffer regrowths after a cell was handed its scratch; flat
    /// after warm-up when recycling works.
    pub arena_growth_events: u64,
    /// Cells that drew scratch from a recycled arena (each pool worker's
    /// fresh first cell excluded).
    pub arena_cells_recycled: u64,
    /// Cells re-run sequentially through `run_once` for comparison.
    pub equivalence_sample: usize,
    /// Sampled cells whose pooled report differed byte-wise (must be 0).
    pub equivalence_mismatches: usize,
}

/// Seeds per (fault, load) grid point: 3 fault variants + fault-free, 4
/// loads, 3 systems × 21 seeds = 1008 cells.
const SEEDS: usize = 21;

/// Every `SAMPLE_STRIDE`-th cell is re-run sequentially and byte-compared.
const SAMPLE_STRIDE: usize = 43;

/// Input sizes (MB, before [`Scale`]) — the load axis.
const LOADS_MB: [f64; 4] = [512.0, 1024.0, 1536.0, 2048.0];

/// The fault-plan axis: fault-free plus three crash bursts of increasing
/// severity. Crash instants sit on the 3 s heartbeat grid and spare node
/// 0; downtimes are transient and past the 30 s expiry interval, so the
/// full detect → recover cycle runs in the cells the burst reaches.
fn fault_variants(workers: usize) -> Vec<FaultPlan> {
    let crash = |k: usize, secs: u64| {
        NodeFault::transient(
            NodeId(1 + (k % (workers - 1))),
            SimTime::from_secs(secs),
            SimDuration::from_secs(120),
        )
    };
    vec![
        FaultPlan::none(),
        FaultPlan::new(vec![crash(0, 60)]),
        FaultPlan::new(vec![crash(0, 30), crash(1, 60)]),
        FaultPlan::new(vec![crash(0, 15), crash(1, 30), crash(2, 45)]),
    ]
}

fn run_grid(scale: Scale, seeds: usize, stride: usize) -> SweepBench {
    let workers = 4usize;
    let base = EngineConfig::small_test(workers, 0);
    let bench = Puma::Grep;
    let mut requests: Vec<CellRequest> = Vec::new();
    type SampledCell = (usize, EngineConfig, Vec<JobSpec>, System, u64);
    let mut samples: Vec<SampledCell> = Vec::new();
    for plan in fault_variants(workers) {
        let mut cfg = base.clone();
        cfg.fault_plan = plan;
        for load_mb in LOADS_MB {
            let jobs = vec![bench.job(0, scale.input(load_mb), 8, SimTime::ZERO)];
            for t in 0..seeds {
                let seed = trial_seed(13, t as u64);
                for sys in System::all() {
                    if requests.len().is_multiple_of(stride) {
                        samples.push((
                            requests.len(),
                            cfg.clone(),
                            jobs.clone(),
                            sys.clone(),
                            seed,
                        ));
                    }
                    requests.push(CellRequest::cold(cfg.clone(), jobs.clone(), sys, seed));
                }
            }
        }
    }
    let outcome = run_cells(&requests);
    let mut mismatches = 0usize;
    for (idx, cfg, jobs, sys, seed) in &samples {
        let sequential =
            run_once(cfg, jobs.clone(), sys, *seed).expect("sequential cell completes");
        let pooled = outcome.reports[*idx]
            .as_ref()
            .expect("pooled cell completes");
        if serde_json::to_string(pooled).unwrap() != serde_json::to_string(&sequential).unwrap() {
            mismatches += 1;
        }
    }
    let stats = outcome.stats;
    SweepBench {
        cells: stats.cells,
        workers: stats.workers,
        wall_seconds: stats.wall_seconds,
        cells_per_sec: stats.cells_per_sec,
        peak_resident_cells: stats.peak_resident_cells,
        arena_growth_events: stats.arena_growth_events,
        arena_cells_recycled: stats.arena_cells_recycled,
        equivalence_sample: samples.len(),
        equivalence_mismatches: mismatches,
    }
}

/// Run the benchmark grid: 3 systems × 4 fault variants × 4 loads × 21
/// seeds = 1008 cells ([`Scale`] shrinks the inputs, never the grid).
pub fn run(scale: Scale) -> SweepBench {
    run_grid(scale, SEEDS, SAMPLE_STRIDE)
}

/// Plain-text rendering.
pub fn render(b: &SweepBench) -> String {
    format!(
        "batched sweep executor: {} cells over {} pool workers in {:.2}s ({:.1} cells/s)\n\
         peak resident cells {} (grid size {}), arena growth events {}, cells recycled {}\n\
         equivalence sample: {} cells re-run sequentially, {} mismatches\n",
        b.cells,
        b.workers,
        b.wall_seconds,
        b.cells_per_sec,
        b.peak_resident_cells,
        b.cells,
        b.arena_growth_events,
        b.arena_cells_recycled,
        b.equivalence_sample,
        b.equivalence_mismatches,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_grid_is_equivalent_to_sequential_runs() {
        // one seed per point: 3 systems × 4 faults × 4 loads = 48 cells —
        // the full 1008-cell grid runs via `reproduce sweep-bench`
        let b = run_grid(Scale::Quick, 1, 11);
        assert_eq!(b.cells, 48);
        assert_eq!(b.equivalence_mismatches, 0, "pooled != sequential");
        assert!(b.equivalence_sample >= 4);
        assert!(b.peak_resident_cells <= b.workers);
        assert!(b.cells_per_sec > 0.0);
        // every cell beyond each worker's fresh first drew recycled scratch
        assert!(b.arena_cells_recycled as usize >= b.cells - b.workers);
        assert!((b.arena_cells_recycled as usize) < b.cells);
    }

    #[test]
    fn render_reports_the_headline_numbers() {
        let b = SweepBench {
            cells: 1008,
            workers: 8,
            wall_seconds: 2.0,
            cells_per_sec: 504.0,
            peak_resident_cells: 8,
            arena_growth_events: 24,
            arena_cells_recycled: 1000,
            equivalence_sample: 24,
            equivalence_mismatches: 0,
        };
        let s = render(&b);
        assert!(s.contains("1008 cells") && s.contains("504.0 cells/s"));
        assert!(s.contains("0 mismatches"));
    }
}
