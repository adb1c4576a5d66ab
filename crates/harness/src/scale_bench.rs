//! `reproduce scale-bench` — the dense-substrate scaling trajectory.
//!
//! Runs one full synthetic job (PUMA Grep under the SMapReduce slot
//! manager) on clusters of {16, 64, 256, 1024} paper-spec nodes and
//! reports, per point: engine steps, wall time, **ns per step per node**,
//! steps/sec, and the engine-arena capacity footprint (the peak-memory
//! proxy). The workload *weak-scales*: input grows proportionally to the
//! cluster (`BLOCKS_PER_NODE` HDFS blocks per node) while the reduce
//! count stays fixed, so a per-step cost linear in the cluster size shows
//! up as a *flat* ns/step-per-node trajectory. The CI gate holds the
//! 1024-node point to ≤ [`LINEARITY_BOUND`]× the 64-node point — a
//! hash-map substrate or an accidentally quadratic per-node loop fails it.

use crate::runner::{CellRequest, System};
use crate::scale::Scale;
use mapreduce::EngineArena;
use serde::{Deserialize, Serialize};
use simgrid::time::SimTime;
use sweepengine::SweepCell;
use workloads::Puma;

/// One cluster size's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    pub nodes: usize,
    /// Job input (MB) — proportional to `nodes` (weak scaling).
    pub input_mb: f64,
    /// Map tasks the input splits into.
    pub maps: u64,
    /// Engine steps of one run (identical across repeats: deterministic).
    pub steps: u64,
    /// Simulated seconds to job completion.
    pub sim_seconds: f64,
    /// Wall-clock seconds of the best repeat.
    pub wall_seconds: f64,
    pub ns_per_step: f64,
    /// The trajectory headline: flat under weak scaling when every
    /// per-node hot path is O(nodes) per step.
    pub ns_per_step_per_node: f64,
    pub steps_per_sec: f64,
    /// Engine-arena capacity footprint after the runs (peak RSS proxy for
    /// the recycled per-node buffer families).
    pub arena_bytes: usize,
    /// Arena buffer regrowths across the repeats — bounded (first-run
    /// growth only) when reset-in-place recycling works.
    pub arena_growth_events: u64,
}

/// The full trajectory plus the CI gate inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBench {
    pub points: Vec<ScalePoint>,
    /// ns/step-per-node at 1024 nodes over the same at 64 nodes (the
    /// near-linearity gate ratio; 0 when either point is absent).
    pub ratio_1024_vs_64: f64,
    /// The gate bound the ratio is held to.
    pub linearity_bound: f64,
}

/// The swept cluster sizes.
pub const NODE_GRID: [usize; 4] = [16, 64, 256, 1024];

/// HDFS blocks of job input per node before [`Scale`] shrinking.
const BLOCKS_PER_NODE: f64 = 2.0;

/// Reduce tasks — deliberately *fixed* across cluster sizes: shuffle
/// bookkeeping is O(reduces × nodes) per step, so growing reduces with
/// the cluster would make the per-step cost quadratic by construction.
const REDUCES: usize = 32;

/// Timed repeats per point (best wall time wins; steps are deterministic).
/// Small clusters finish in single-digit milliseconds, so they get extra
/// repeats — the 64-node point is the gate ratio's denominator and must
/// not be a one-shot ms-scale measurement on a noisy CI runner.
fn repeats(nodes: usize) -> usize {
    if nodes <= 64 {
        5
    } else {
        2
    }
}

/// CI bound on [`ScaleBench::ratio_1024_vs_64`].
pub const LINEARITY_BOUND: f64 = 1.5;

/// Run one cluster size: `repeats` identical runs through a shared
/// recycled arena, best wall time reported.
pub fn run_point(scale: Scale, nodes: usize) -> ScalePoint {
    let cfg = scale.engine(nodes);
    let input_mb = scale.input(nodes as f64 * BLOCKS_PER_NODE * cfg.block_mb);
    let mut arena = EngineArena::new();
    let mut best_wall = f64::INFINITY;
    let mut steps = 0u64;
    let mut sim_seconds = 0.0;
    let mut maps = 0u64;
    for _ in 0..repeats(nodes) {
        let job = Puma::Grep.job(0, input_mb, REDUCES, SimTime::ZERO);
        let start = std::time::Instant::now();
        let report = CellRequest::cold(cfg.clone(), vec![job], System::SMapReduce, cfg.seed)
            .run(&mut arena)
            .expect("scale-bench run completes");
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        steps = report.steps;
        sim_seconds = report.jobs[0].finished_at.as_secs_f64();
        maps = report.jobs[0].num_maps as u64;
    }
    let ns = best_wall * 1e9;
    ScalePoint {
        nodes,
        input_mb,
        maps,
        steps,
        sim_seconds,
        wall_seconds: best_wall,
        ns_per_step: ns / steps as f64,
        ns_per_step_per_node: ns / steps as f64 / nodes as f64,
        steps_per_sec: steps as f64 / best_wall,
        arena_bytes: arena.approx_bytes(),
        arena_growth_events: arena.growth_events(),
    }
}

/// Fold a trajectory into the benchmark payload (gate ratio included).
pub fn from_points(points: Vec<ScalePoint>) -> ScaleBench {
    let per_node = |n: usize| {
        points
            .iter()
            .find(|p| p.nodes == n)
            .map(|p| p.ns_per_step_per_node)
    };
    let ratio_1024_vs_64 = match (per_node(64), per_node(1024)) {
        (Some(a), Some(b)) if a > 0.0 => b / a,
        _ => 0.0,
    };
    ScaleBench {
        points,
        ratio_1024_vs_64,
        linearity_bound: LINEARITY_BOUND,
    }
}

/// Run the full {16, 64, 256, 1024} trajectory.
pub fn run(scale: Scale) -> ScaleBench {
    from_points(NODE_GRID.map(|n| run_point(scale, n)).to_vec())
}

/// Plain-text rendering.
pub fn render(b: &ScaleBench) -> String {
    let mut out = String::new();
    out.push_str("dense-substrate scale trajectory (weak scaling: input ∝ nodes, reduces fixed)\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>6} {:>9} {:>9} {:>11} {:>13} {:>11} {:>11}\n",
        "nodes",
        "input MB",
        "maps",
        "steps",
        "wall (s)",
        "steps/s",
        "ns/step/node",
        "arena KiB",
        "growths"
    ));
    for p in &b.points {
        out.push_str(&format!(
            "{:>6} {:>10.0} {:>6} {:>9} {:>9.3} {:>11.0} {:>13.1} {:>11} {:>11}\n",
            p.nodes,
            p.input_mb,
            p.maps,
            p.steps,
            p.wall_seconds,
            p.steps_per_sec,
            p.ns_per_step_per_node,
            p.arena_bytes / 1024,
            p.arena_growth_events
        ));
    }
    out.push_str(&format!(
        "\nns/step-per-node growth 64 -> 1024 nodes: {:.2}x (gate: <= {:.1}x)\n",
        b.ratio_1024_vs_64, b.linearity_bound
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_1024_node_point_completes_a_full_job() {
        // the acceptance floor: a complete synthetic job on 1024 nodes in
        // test-compatible time (Quick shrinks the input, never the cluster)
        let p = run_point(Scale::Quick, 1024);
        assert_eq!(p.nodes, 1024);
        assert!(p.maps >= 512, "weak scaling: ~0.6 blocks/node at Quick");
        assert!(p.steps > 0 && p.sim_seconds > 0.0);
        assert!(p.ns_per_step_per_node > 0.0);
        assert!(p.arena_bytes > 0);
    }

    #[test]
    fn trajectory_folds_the_gate_ratio() {
        let mk = |nodes: usize, nspn: f64| ScalePoint {
            nodes,
            input_mb: 0.0,
            maps: 0,
            steps: 1,
            sim_seconds: 1.0,
            wall_seconds: 1.0,
            ns_per_step: nspn * nodes as f64,
            ns_per_step_per_node: nspn,
            steps_per_sec: 1.0,
            arena_bytes: 1,
            arena_growth_events: 0,
        };
        let b = from_points(vec![mk(64, 100.0), mk(1024, 130.0)]);
        assert!((b.ratio_1024_vs_64 - 1.3).abs() < 1e-12);
        assert!(b.ratio_1024_vs_64 <= b.linearity_bound);
        // missing endpoints degrade to 0, never divide by zero
        assert_eq!(from_points(vec![mk(16, 50.0)]).ratio_1024_vs_64, 0.0);
        let s = render(&b);
        assert!(s.contains("1024") && s.contains("1.30x"));
    }

    #[test]
    fn small_points_are_deterministic_in_steps() {
        let a = run_point(Scale::Quick, 16);
        let b = run_point(Scale::Quick, 16);
        assert_eq!(a.steps, b.steps, "repeat runs must step identically");
        assert_eq!(a.maps, b.maps);
        assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
    }
}
