//! Extension experiment — node crashes, recovery, and slot management.
//!
//! Not a paper figure. The paper's testbed never loses a machine; real
//! clusters do, and Hadoop 1.x's whole recovery path (tracker expiry, map
//! re-execution when completed output dies with a node, replica fallback)
//! exists for that case. This experiment sweeps a burst of transient
//! node crashes (MTTF derived from the fault-free makespan) across the
//! three systems and measures how much each one's makespan degrades. The
//! recovery-off rows document the failure mode the recovery path
//! prevents: a crash that strands needed work surfaces a clean
//! `NodeLost` error instead of hanging.

use crate::runner::{
    average_reports, run_cells, run_once, take_cell_reports, trial_seed, CellRequest, System,
};
use crate::scale::Scale;
use crate::table;
use mapreduce::EngineConfig;
use serde::{Deserialize, Serialize};
use simgrid::cluster::NodeId;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};
use workloads::Puma;

/// One (MTTF, system, recovery) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultCell {
    /// "none", "high" (MTTF = M/2) or "low" (MTTF = M/4), where M is the
    /// fault-free HadoopV1 makespan.
    pub mttf: String,
    /// The swept MTTF in seconds (0 for the fault-free row).
    pub mttf_s: f64,
    pub system: String,
    pub recovery: bool,
    /// "ok", or the error the run surfaced (recovery-off rows).
    pub outcome: String,
    /// Seed-averaged makespan (0 when the run errored).
    pub makespan_s: f64,
    pub node_crashes: u64,
    pub crash_task_kills: u64,
    pub lost_map_outputs: u64,
}

/// The experiment's data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtFaults {
    pub benchmark: String,
    /// Fault-free HadoopV1 makespan (s) the MTTF values are derived from.
    pub baseline_makespan_s: f64,
    pub cells: Vec<FaultCell>,
}

impl ExtFaults {
    pub fn cell(&self, mttf: &str, system: &str, recovery: bool) -> &FaultCell {
        self.cells
            .iter()
            .find(|c| c.mttf == mttf && c.system == system && c.recovery == recovery)
            .unwrap_or_else(|| panic!("no cell {mttf}/{system}/{recovery}"))
    }

    /// Relative makespan degradation of `system` at `mttf` vs its own
    /// fault-free run (recovery on).
    pub fn degradation(&self, mttf: &str, system: &str) -> f64 {
        let base = self.cell("none", system, true).makespan_s;
        let hurt = self.cell(mttf, system, true).makespan_s;
        hurt / base - 1.0
    }
}

/// Crash every `mttf_s` seconds over the baseline window, cycling through
/// the workers (node 0 is spared so the sweep never reduces every replica
/// set at once). Instants land on the 3 s heartbeat grid; each crash is
/// transient with a downtime well past the 30 s expiry interval, so the
/// full detect → recover → re-register cycle runs.
fn plan_for(mttf_s: f64, window_s: f64, workers: usize) -> FaultPlan {
    let mut faults = Vec::new();
    let mut k = 1u64;
    loop {
        let t = mttf_s * k as f64;
        if t >= window_s {
            break;
        }
        let at_ms = ((t * 1000.0) as u64 / 3000).max(1) * 3000;
        let node = NodeId(1 + ((k - 1) as usize % (workers - 1)));
        faults.push(NodeFault::transient(
            node,
            SimTime::from_millis(at_ms),
            SimDuration::from_secs(120),
        ));
        k += 1;
    }
    FaultPlan::new(faults)
}

/// Run the grid.
pub fn run(scale: Scale) -> ExtFaults {
    let bench = Puma::HistogramRatings;
    let mut cfg = EngineConfig::paper_default();
    // Size the re-replication budget to the fault rate this sweep injects:
    // at full scale each node holds ~11.5 GB of replicas (60 GB × 3 / 16),
    // and at MTTF = M/4 a fresh node dies every ~70 s — the default
    // 50 MB/s budget can't restore a dead node's replica set before the
    // next crash, so a block really can lose its last copy. 400 MB/s
    // keeps re-replication ahead of the crash rate (the recovery-off rows
    // below show what the error looks like when protection is absent).
    cfg.rereplication_rate = 400.0;
    let job = || {
        bench.job(
            0,
            scale.input(bench.default_input_mb()),
            30,
            Default::default(),
        )
    };
    // calibrate the MTTF sweep on the fault-free HadoopV1 makespan
    let baseline = run_once(&cfg, vec![job()], &System::HadoopV1, cfg.seed)
        .expect("fault-free baseline completes");
    let m = baseline.makespan().as_secs_f64();
    let workers = cfg.cluster.workers;
    let mttfs: Vec<(&str, f64)> = vec![("none", 0.0), ("high", m / 2.0), ("low", m / 4.0)];
    // build the full grid — (MTTF × system × recovery) × trials — and
    // drive it through the bounded pool in one batch
    let mut grid = Vec::new();
    let mut requests = Vec::new();
    for (label, mttf_s) in &mttfs {
        let plan = if *mttf_s > 0.0 {
            plan_for(*mttf_s, m, workers)
        } else {
            FaultPlan::none()
        };
        for sys in System::all() {
            for recovery in [true, false] {
                let mut cell_cfg = cfg.clone();
                cell_cfg.fault_plan = plan.clone();
                cell_cfg.fault_recovery = recovery;
                for t in 0..scale.trials() {
                    requests.push(CellRequest::cold(
                        cell_cfg.clone(),
                        vec![job()],
                        sys.clone(),
                        trial_seed(cfg.seed, t as u64),
                    ));
                }
                grid.push((label.to_string(), *mttf_s, sys.clone(), recovery));
            }
        }
    }
    let mut reports = run_cells(&requests).reports.into_iter();
    let mut cells = Vec::new();
    for (label, mttf_s, sys, recovery) in grid {
        // the first trial error (in trial order) turns the whole grid
        // cell into an error row, exactly like the sequential path did;
        // take_cell_reports drains the cell's full trial chunk either way,
        // keeping the shared stream aligned for the next cell
        let cell = match take_cell_reports(&mut reports, scale.trials()) {
            Ok(trial_reports) => {
                let avg = average_reports(&sys, trial_reports);
                FaultCell {
                    mttf: label,
                    mttf_s,
                    system: avg.system,
                    recovery,
                    outcome: "ok".to_string(),
                    makespan_s: avg.makespan_s,
                    node_crashes: avg.sample.node_crashes,
                    crash_task_kills: avg.sample.crash_task_kills,
                    lost_map_outputs: avg.sample.lost_map_outputs,
                }
            }
            Err(e) => FaultCell {
                mttf: label,
                mttf_s,
                system: sys.label().to_string(),
                recovery,
                outcome: e.to_string(),
                makespan_s: 0.0,
                node_crashes: 0,
                crash_task_kills: 0,
                lost_map_outputs: 0,
            },
        };
        cells.push(cell);
    }
    ExtFaults {
        benchmark: bench.name().to_string(),
        baseline_makespan_s: m,
        cells,
    }
}

/// Plain-text rendering.
pub fn render(e: &ExtFaults) -> String {
    let mut out = format!(
        "Extension — node crashes & recovery, {} (fault-free makespan {})\n\n",
        e.benchmark,
        table::secs(e.baseline_makespan_s)
    );
    let headers = [
        "mttf",
        "system",
        "recovery",
        "outcome",
        "makespan(s)",
        "crashes",
        "kills",
        "lost-outputs",
    ];
    let rows: Vec<Vec<String>> = e
        .cells
        .iter()
        .map(|c| {
            let outcome = if c.outcome == "ok" {
                c.outcome.clone()
            } else {
                // keep the table narrow; the JSON has the full error
                let mut s = c.outcome.clone();
                s.truncate(40);
                format!("error: {s}…")
            };
            vec![
                c.mttf.clone(),
                c.system.clone(),
                if c.recovery { "on" } else { "off" }.into(),
                outcome,
                if c.makespan_s > 0.0 {
                    table::secs(c.makespan_s)
                } else {
                    "—".into()
                },
                c.node_crashes.to_string(),
                c.crash_task_kills.to_string(),
                c.lost_map_outputs.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render_table(&headers, &rows));
    out.push_str(&format!(
        "\nmakespan degradation at MTTF=M/4 (recovery on): HadoopV1 {:+.0}%, YARN {:+.0}%, SMapReduce {:+.0}%\n",
        e.degradation("low", "HadoopV1") * 100.0,
        e.degradation("low", "YARN") * 100.0,
        e.degradation("low", "SMapReduce") * 100.0,
    ));
    out.push_str(&format!(
        "faulted makespan, SMapReduce vs HadoopV1: {:.2}x at MTTF=M/2, {:.2}x at MTTF=M/4\n",
        e.cell("high", "SMapReduce", true).makespan_s / e.cell("high", "HadoopV1", true).makespan_s,
        e.cell("low", "SMapReduce", true).makespan_s / e.cell("low", "HadoopV1", true).makespan_s,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashes_recovered_and_recovery_off_errors_cleanly() {
        let e = run(Scale::Quick);
        assert_eq!(e.cells.len(), 18);
        // recovery-on rows always complete, crashes and all
        for c in e.cells.iter().filter(|c| c.recovery) {
            assert_eq!(c.outcome, "ok", "{}/{} should complete", c.mttf, c.system);
            if c.mttf != "none" {
                assert!(c.node_crashes > 0, "{}/{} saw no crash", c.mttf, c.system);
            }
        }
        // faults hurt: the low-MTTF makespan is no better than fault-free
        for sys in ["HadoopV1", "YARN", "SMapReduce"] {
            assert!(
                e.degradation("low", sys) >= 0.0,
                "{sys} got faster under crashes?"
            );
        }
        // at least one recovery-off faulted cell strands work and errors
        // with the clean NodeLost diagnosis instead of hanging
        assert!(
            e.cells
                .iter()
                .any(|c| !c.recovery && c.mttf != "none" && c.outcome.contains("lost")),
            "no recovery-off cell surfaced a NodeLost error"
        );
    }
}
