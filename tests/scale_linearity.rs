//! The dense substrate's scale trajectory: one Quick Grep job under the
//! SMapReduce slot manager on {16, 64, 256, 1024} paper-spec nodes, weak
//! scaled (2 HDFS blocks of input per node, 32 reduces at every size), so
//! a per-step cost linear in the cluster shows up as a flat
//! ns/step/node. Each point runs its repeats through one arena: after the
//! first run's warm-up, a repeat must step identically and grow nothing.
//!
//! Only the last assertion reads a wall clock, and only as a ratio of two
//! points measured in the same process. It runs in release builds alone,
//! so an unoptimised run of the suite checks exact values only; its
//! timings would not describe the release engine's per-step cost anyway.

use harness::{CellRequest, Scale, System};
use mapreduce::EngineArena;
use simgrid::time::SimTime;
use sweepengine::SweepCell;
use workloads::Puma;

/// HDFS blocks of job input per node, before [`Scale::Quick`] shrinks it.
const BLOCKS_PER_NODE: f64 = 2.0;

/// Fixed across cluster sizes: shuffle bookkeeping is O(reduces × nodes)
/// per step, so reduces growing with the cluster would make the per-step
/// cost quadratic by construction.
const REDUCES: usize = 32;

/// Bound on ns/step/node at 1024 nodes over the same at 64 nodes.
const LINEARITY_BOUND: f64 = 1.5;

/// One point of the trajectory.
struct Point {
    maps: usize,
    /// Best wall time of the repeats, in nanoseconds per step per node.
    ns_per_step_per_node: f64,
}

fn run_point(nodes: usize, repeats: usize) -> Point {
    let cfg = Scale::Quick.engine(nodes);
    let input_mb = Scale::Quick.input(nodes as f64 * BLOCKS_PER_NODE * cfg.block_mb);
    let cell = CellRequest::cold(
        cfg.clone(),
        vec![Puma::Grep.job(0, input_mb, REDUCES, SimTime::ZERO)],
        System::SMapReduce,
        cfg.seed,
    );
    let mut arena = EngineArena::new();
    let mut first: Option<(u64, u64)> = None;
    let mut best_ns = f64::INFINITY;
    let mut maps = 0;
    for _ in 0..repeats {
        let start = std::time::Instant::now();
        let report = cell.run(&mut arena).expect("scale point completes");
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64);
        let job = &report.jobs[0];
        assert!(
            job.finished_at > SimTime::ZERO,
            "{nodes} nodes: job did not finish"
        );
        maps = job.num_maps;
        let (steps, growth) = *first.get_or_insert((report.steps, arena.growth_events()));
        assert_eq!(
            report.steps, steps,
            "{nodes} nodes: a repeat stepped differently"
        );
        assert_eq!(
            arena.growth_events(),
            growth,
            "{nodes} nodes: a repeat grew the recycled arena"
        );
    }
    let steps = first.expect("at least one repeat").0;
    Point {
        maps,
        ns_per_step_per_node: best_ns / steps as f64 / nodes as f64,
    }
}

#[test]
fn per_node_step_cost_stays_flat_from_16_to_1024_nodes() {
    // small clusters finish in milliseconds, so they get more repeats: the
    // 64-node point is the ratio's denominator
    let points: Vec<(usize, Point)> = [(16, 5), (64, 5), (256, 2), (1024, 2)]
        .into_iter()
        .map(|(nodes, repeats)| (nodes, run_point(nodes, repeats)))
        .collect();
    let at = |n: usize| &points.iter().find(|(nodes, _)| *nodes == n).unwrap().1;
    assert!(
        at(1024).maps >= 512,
        "1024 nodes: only {} maps",
        at(1024).maps
    );
    if !cfg!(debug_assertions) {
        let ratio = at(1024).ns_per_step_per_node / at(64).ns_per_step_per_node;
        assert!(
            ratio <= LINEARITY_BOUND,
            "ns/step/node grew {ratio:.2}x from 64 to 1024 nodes (bound {LINEARITY_BOUND}x)"
        );
    }
}
