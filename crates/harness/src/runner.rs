//! Running one workload under each of the three systems, with seed
//! averaging.
//!
//! The paper averages two physical trials; we average `trials` seeded
//! simulation runs (default 3). Sweeps fan out over the bounded
//! [`sweepengine::BatchedSweep`] worker pool — `available_parallelism`
//! workers claiming cells from a shared cursor, each recycling engine
//! scratch through its own [`EngineArena`] — so wall time and memory no
//! longer scale with grid size × threads. Each cell is independent and
//! deterministic, so the parallelism changes wall-clock time only.
//!
//! Every run is passed through the [`mapreduce::auditor`] before its
//! report is handed back: a violated invariant turns the run into a
//! [`SimError::AuditFailed`], so no figure can silently be built from a
//! report whose counters and events disagree. Audited runs also merge
//! their cluster counters into a process-wide ledger
//! ([`counters_snapshot`]) that `reproduce` prints per target.

use mapreduce::auditor::{audit, AuditSetup};
use mapreduce::policy::SlotPolicy;
use mapreduce::{
    CounterLedger, Engine, EngineArena, EngineConfig, EngineState, JobSpec, Recording, RunReport,
};
use serde::{Deserialize, Serialize};
use simgrid::error::SimError;
use simgrid::time::{SimDuration, SteppingMode};
use smapreduce::{SlotManagerPolicy, SmrConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use sweepengine::{BatchedSweep, SweepCell, SweepOutcome};

/// Process-wide telemetry sink every [`run_once`] threads into the engine.
/// Disabled (and allocation-free) unless [`install_telemetry`] was called —
/// the `reproduce --trace` path.
static TELEMETRY: OnceLock<telemetry::Telemetry> = OnceLock::new();

/// Engine steps simulated by this process across all runs and threads
/// (perf-summary input).
static TOTAL_STEPS: AtomicU64 = AtomicU64::new(0);

/// Simulated milliseconds covered by those steps (perf-summary input:
/// steps per simulated second shows what adaptive stepping saves).
static TOTAL_SIM_MS: AtomicU64 = AtomicU64::new(0);

/// Process-wide stepping-mode override (the `reproduce --engine` flag and
/// the cross-validation suite). `None` keeps each config's own mode.
static ENGINE_MODE: OnceLock<SteppingMode> = OnceLock::new();

/// Cluster counters merged from every audited run in this process, across
/// all threads. `reproduce` snapshots this before and after each target to
/// print the target's counter delta.
static RUN_COUNTERS: Mutex<CounterLedger> = Mutex::new(CounterLedger::new());

/// Install the process-wide telemetry sink used by all subsequent runs.
/// Returns `false` if a sink was already installed (the first one wins).
pub fn install_telemetry(telem: telemetry::Telemetry) -> bool {
    TELEMETRY.set(telem).is_ok()
}

/// The installed sink, or a disabled handle when none was installed.
pub fn active_telemetry() -> telemetry::Telemetry {
    TELEMETRY.get().cloned().unwrap_or_default()
}

/// Force every subsequent [`run_once`] in this process onto one stepping
/// mode, regardless of what each config says. Returns `false` if a mode
/// was already pinned (the first caller wins, like [`install_telemetry`]).
pub fn set_engine_mode(mode: SteppingMode) -> bool {
    ENGINE_MODE.set(mode).is_ok()
}

/// The pinned stepping mode, if any.
pub fn engine_mode() -> Option<SteppingMode> {
    ENGINE_MODE.get().copied()
}

/// Total engine steps simulated by this process so far.
pub fn total_steps() -> u64 {
    TOTAL_STEPS.load(Ordering::Relaxed)
}

/// Total simulated time covered by this process so far, in seconds.
pub fn total_sim_seconds() -> f64 {
    TOTAL_SIM_MS.load(Ordering::Relaxed) as f64 / 1000.0
}

/// Cluster counters accumulated by every [`run_once`] so far.
pub fn counters_snapshot() -> CounterLedger {
    RUN_COUNTERS.lock().expect("counters lock").clone()
}

/// Which system to run a workload under.
#[derive(Debug, Clone)]
pub enum System {
    /// Static slots (HadoopV1).
    HadoopV1,
    /// Container budget with map priority (YARN).
    Yarn,
    /// The paper's slot manager, default configuration.
    SMapReduce,
    /// The slot manager under a custom configuration (ablations).
    SMapReduceWith(SmrConfig),
    /// The §VII heterogeneous extension: capacity-proportional targets.
    SMapReduceHetero,
}

impl System {
    /// The three systems of every comparison figure.
    pub fn all() -> [System; 3] {
        [System::HadoopV1, System::Yarn, System::SMapReduce]
    }

    pub fn label(&self) -> &'static str {
        match self {
            System::HadoopV1 => "HadoopV1",
            System::Yarn => "YARN",
            System::SMapReduce | System::SMapReduceWith(_) => "SMapReduce",
            System::SMapReduceHetero => "SMapReduce-hetero",
        }
    }

    /// The system a capsule's recorded policy name maps back to — the
    /// default configuration of that policy (capsules carry policy *state*
    /// but not policy *configuration*, so an ablation run resumes under
    /// the default `SmrConfig`).
    pub fn from_label(label: &str) -> Option<System> {
        [
            System::HadoopV1,
            System::Yarn,
            System::SMapReduce,
            System::SMapReduceHetero,
        ]
        .into_iter()
        .find(|system| system.label() == label)
    }

    /// A fresh policy instance for this system. Only the custom slot
    /// manager is built here; every label resolves through the one
    /// label → policy table, [`realtime::policy_for`].
    pub fn make_policy(&self) -> Box<dyn SlotPolicy> {
        match self {
            System::SMapReduceWith(cfg) => Box::new(SlotManagerPolicy::new(cfg.clone())),
            other => realtime::policy_for(other.label())
                .expect("realtime::policy_for resolves every System label"),
        }
    }
}

/// Seed-averaged timings of one (workload, system) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AveragedRun {
    pub system: String,
    /// Mean per-job map time (s) — averaged across trials, then jobs.
    pub map_time_s: f64,
    /// Mean per-job reduce time (s).
    pub reduce_time_s: f64,
    /// Mean per-job total time (s).
    pub total_time_s: f64,
    /// Mean per-job throughput (MB/s of input).
    pub throughput: f64,
    /// Mean of per-trial mean execution times (multi-job workloads).
    pub mean_execution_s: f64,
    /// Mean of per-trial makespans.
    pub makespan_s: f64,
    /// One representative full report (first trial) for series data.
    pub sample: RunReport,
}

/// Boot `jobs` into a t=0 [`EngineState`] bound to `system`, under `cfg`
/// with the trial seed and the process-wide `--engine` override applied.
/// Every harness run starts from one.
pub fn boot(
    cfg: &EngineConfig,
    jobs: Vec<JobSpec>,
    system: &System,
    seed: u64,
) -> Result<EngineState, SimError> {
    let mut state = Engine::new(effective_config(cfg, seed)).prepare(jobs)?;
    state.override_policy(system.label())?;
    Ok(state)
}

/// Run `jobs` under `system` once with the given seed. The finished report
/// is audited before being returned: a counter/event invariant violation
/// surfaces as [`SimError::AuditFailed`].
pub fn run_once(
    cfg: &EngineConfig,
    jobs: Vec<JobSpec>,
    system: &System,
    seed: u64,
) -> Result<RunReport, SimError> {
    resume_once(boot(cfg, jobs, system, seed)?, system)
}

/// Resume a state to completion under a fresh instance of `system` (which
/// must match the state's bound policy name), with the same auditing and
/// accounting as [`run_once`].
pub fn resume_once(state: EngineState, system: &System) -> Result<RunReport, SimError> {
    resume_audited(state, system, &mut EngineArena::new())
}

/// [`resume_once`] drawing scratch from `arena` — the one audited
/// [`Engine::resume_in`] call behind every harness run.
fn resume_audited(
    state: EngineState,
    system: &System,
    arena: &mut EngineArena,
) -> Result<RunReport, SimError> {
    let setup = AuditSetup::from_config(state.config());
    let mut policy = system.make_policy();
    let report = Engine::resume_in(state, policy.as_mut(), &active_telemetry(), arena)?;
    account_and_audit(report, &setup)
}

/// [`resume_once`] through [`Engine::record`]: the audited report plus a
/// capsule at every multiple of `every` (when set) and the per-step hash
/// trace. Telemetry stays off.
pub fn record_once(
    state: EngineState,
    system: &System,
    every: Option<SimDuration>,
) -> Result<Recording, SimError> {
    let setup = AuditSetup::from_config(state.config());
    let mut policy = system.make_policy();
    let mut rec = Engine::record(state, policy.as_mut(), every)?;
    rec.report = account_and_audit(rec.report, &setup)?;
    Ok(rec)
}

/// The per-run config: the cell's config with the trial seed and the
/// process-wide `--engine` override applied.
fn effective_config(cfg: &EngineConfig, seed: u64) -> EngineConfig {
    let mut cfg = cfg.clone();
    cfg.seed = seed;
    if let Some(mode) = engine_mode() {
        cfg.tick.mode = mode;
    }
    cfg
}

/// Step accounting, invariant audit, process-counter merge — shared by
/// every run variant so no report escapes unaudited.
fn account_and_audit(report: RunReport, setup: &AuditSetup) -> Result<RunReport, SimError> {
    TOTAL_STEPS.fetch_add(report.steps, Ordering::Relaxed);
    let sim_ms = report
        .jobs
        .iter()
        .map(|j| j.finished_at.as_millis())
        .max()
        .unwrap_or(0);
    TOTAL_SIM_MS.fetch_add(sim_ms, Ordering::Relaxed);
    let violations = audit(&report, setup);
    if !violations.is_empty() {
        return Err(SimError::AuditFailed {
            violations: violations.iter().map(|v| v.to_string()).collect(),
        });
    }
    RUN_COUNTERS
        .lock()
        .expect("counters lock")
        .merge(&report.counters);
    Ok(report)
}

/// Derive the seed of trial `trial` from a cell's base seed with a
/// splitmix64-style mixer. The old `base + 1000 * trial` scheme made
/// trial 1 of seed 0 collide with trial 0 of seed 1000 — adjacent sweep
/// cells silently averaged over overlapping seed sets.
pub fn trial_seed(cell_seed: u64, trial: u64) -> u64 {
    let mut z =
        cell_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(trial.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One grid cell, ready for the [`BatchedSweep`] pool: the cell's config,
/// jobs, the system to run and its trial seed. Grid drivers build a
/// `Vec<CellRequest>` for the *whole* grid and hand it to [`run_cells`] in
/// one call.
#[derive(Debug, Clone)]
pub struct CellRequest {
    cfg: EngineConfig,
    system: System,
    seed: u64,
    jobs: Vec<JobSpec>,
}

impl CellRequest {
    /// A cell that boots its own cluster and DFS.
    pub fn cold(cfg: EngineConfig, jobs: Vec<JobSpec>, system: System, seed: u64) -> CellRequest {
        CellRequest {
            cfg,
            system,
            seed,
            jobs,
        }
    }
}

impl SweepCell for CellRequest {
    fn system(&self) -> &str {
        self.system.label()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    /// [`run_once`] with scratch drawn from the pool worker's `arena`.
    fn run(&self, arena: &mut EngineArena) -> Result<RunReport, SimError> {
        let state = boot(&self.cfg, self.jobs.clone(), &self.system, self.seed)?;
        resume_audited(state, &self.system, arena)
    }
}

/// Drive a grid of cells over the machine-sized pool. Reports come back
/// in cell order; a panicking cell re-raises tagged with (system, cell
/// index, trial seed).
pub fn run_cells(cells: &[CellRequest]) -> SweepOutcome {
    BatchedSweep::auto().run(cells)
}

/// [`run_cells`] with an explicit worker bound — the determinism suite
/// runs identical grids at 1, 2, and `available_parallelism` workers.
pub fn run_cells_with(workers: usize, cells: &[CellRequest]) -> SweepOutcome {
    BatchedSweep::with_workers(workers).run(cells)
}

/// Run `jobs` under `system` for `trials` seeds and average the timings.
pub fn run_averaged(
    cfg: &EngineConfig,
    jobs: &[JobSpec],
    system: &System,
    trials: usize,
) -> Result<AveragedRun, SimError> {
    let mut rows = run_systems(cfg, jobs, std::slice::from_ref(system), trials)?;
    Ok(rows.remove(0))
}

/// Draw exactly `trials` reports from a pooled grid's report stream and
/// fold them to the first error in trial order. The chunk is always
/// consumed in full even when an early trial errored — error trials are
/// an expected outcome (e.g. the recovery-off rows of ext-faults), and
/// folding before the chunk is fully drawn would leave the shared
/// iterator misaligned, handing this cell's leftover reports to the next
/// grid cell.
pub(crate) fn take_cell_reports(
    reports: &mut dyn Iterator<Item = Result<RunReport, SimError>>,
    trials: usize,
) -> Result<Vec<RunReport>, SimError> {
    let chunk: Vec<Result<RunReport, SimError>> = reports.take(trials).collect();
    assert_eq!(chunk.len(), trials, "report stream exhausted mid-cell");
    chunk.into_iter().collect()
}

/// Trial-mean timings of one cell (callers guarantee `reports` is
/// non-empty). Grid drivers use this to fold each cell's chunk of a
/// batched sweep's reports back into an [`AveragedRun`].
pub(crate) fn average_reports(system: &System, mut reports: Vec<RunReport>) -> AveragedRun {
    let njobs = reports[0].jobs.len() as f64;
    let nt = reports.len() as f64;
    let mean_over =
        |f: &dyn Fn(&RunReport) -> f64| -> f64 { reports.iter().map(f).sum::<f64>() / nt };
    let per_job = |f: &dyn Fn(&mapreduce::JobReport) -> f64| -> f64 {
        reports
            .iter()
            .map(|r| r.jobs.iter().map(f).sum::<f64>() / njobs)
            .sum::<f64>()
            / nt
    };
    AveragedRun {
        system: system.label().to_string(),
        map_time_s: per_job(&|j| j.map_time().as_secs_f64()),
        reduce_time_s: per_job(&|j| j.reduce_time().as_secs_f64()),
        total_time_s: per_job(&|j| j.total_time().as_secs_f64()),
        throughput: per_job(&|j| j.throughput()),
        mean_execution_s: mean_over(&|r| r.mean_execution_time().as_secs_f64()),
        makespan_s: mean_over(&|r| r.makespan().as_secs_f64()),
        sample: reports.swap_remove(0),
    }
}

/// Run the same workload under all three systems.
pub fn run_comparison(
    cfg: &EngineConfig,
    jobs: &[JobSpec],
    trials: usize,
) -> Result<Vec<AveragedRun>, SimError> {
    run_systems(cfg, jobs, &System::all(), trials)
}

/// Seed-average `jobs` under each of `systems`. One batched grid —
/// systems × trials cells — over the bounded pool, not a thread per
/// system: an idle worker picks up another system's remaining trials, and
/// a panicking trial re-raises tagged (system, index, seed).
fn run_systems(
    cfg: &EngineConfig,
    jobs: &[JobSpec],
    systems: &[System],
    trials: usize,
) -> Result<Vec<AveragedRun>, SimError> {
    if trials == 0 {
        return Err(SimError::InvalidConfig(
            "run_averaged needs at least one trial".into(),
        ));
    }
    let cells: Vec<CellRequest> = systems
        .iter()
        .flat_map(|system| {
            (0..trials).map(move |t| {
                CellRequest::cold(
                    cfg.clone(),
                    jobs.to_vec(),
                    system.clone(),
                    trial_seed(cfg.seed, t as u64),
                )
            })
        })
        .collect();
    let mut reports = run_cells(&cells).reports.into_iter();
    systems
        .iter()
        .map(|system| {
            let chunk = take_cell_reports(&mut reports, trials)?;
            Ok(average_reports(system, chunk))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::time::SimTime;
    use workloads::Puma;

    fn small_cfg() -> EngineConfig {
        EngineConfig::small_test(4, 11)
    }

    fn small_job() -> JobSpec {
        Puma::Grep.job(0, 2048.0, 8, SimTime::ZERO)
    }

    #[test]
    fn run_once_all_systems() {
        let cfg = small_cfg();
        for sys in System::all() {
            let r = run_once(&cfg, vec![small_job()], &sys, 1).expect("completes");
            assert_eq!(r.policy, sys.label());
            assert_eq!(r.jobs.len(), 1);
        }
    }

    #[test]
    fn averaging_is_sane() {
        let cfg = small_cfg();
        let avg = run_averaged(&cfg, &[small_job()], &System::HadoopV1, 2).unwrap();
        assert!(avg.total_time_s > 0.0);
        assert!(
            (avg.map_time_s + avg.reduce_time_s - avg.total_time_s).abs() < 1e-6,
            "map+reduce = total per definition"
        );
        assert!(avg.throughput > 0.0);
    }

    #[test]
    fn batched_cells_match_the_legacy_sequential_path() {
        // a grid mixing fault plans, seeds and systems through the pool
        // must be byte-identical to running each cell on its own, the
        // pre-pool way
        use simgrid::cluster::NodeId;
        use simgrid::{FaultPlan, NodeFault};
        let cfg = small_cfg();
        let mut faulted = cfg.clone();
        faulted.fault_plan = FaultPlan::new(vec![NodeFault::transient(
            NodeId(1),
            SimTime::from_secs(30),
            SimDuration::from_secs(60),
        )]);
        let grid = [
            (&cfg, System::HadoopV1, 3),
            (&faulted, System::SMapReduce, 5),
            (&cfg, System::SMapReduce, 5),
            (&faulted, System::Yarn, 4),
        ];
        let cells: Vec<CellRequest> = grid
            .iter()
            .map(|(c, sys, seed)| {
                CellRequest::cold((*c).clone(), vec![small_job()], sys.clone(), *seed)
            })
            .collect();
        let pooled = run_cells(&cells);
        let legacy: Vec<RunReport> = grid
            .iter()
            .map(|(c, sys, seed)| run_once(c, vec![small_job()], sys, *seed).unwrap())
            .collect();
        for (got, want) in pooled.reports.iter().zip(&legacy) {
            assert_eq!(
                serde_json::to_string(got.as_ref().unwrap()).unwrap(),
                serde_json::to_string(want).unwrap()
            );
        }
        assert!(pooled.stats.peak_resident_cells <= pooled.stats.workers);
    }

    #[test]
    fn every_label_round_trips_and_names_its_policy() {
        for label in realtime::SYSTEM_LABELS {
            let system = System::from_label(label).expect("label resolves");
            assert_eq!(system.label(), label);
            assert_eq!(system.make_policy().name(), label);
        }
        assert!(System::from_label("Spark").is_none());
    }

    #[test]
    fn comparison_runs_three_systems() {
        let cfg = small_cfg();
        let rows = run_comparison(&cfg, &[small_job()], 1).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].system, "HadoopV1");
        assert_eq!(rows[1].system, "YARN");
        assert_eq!(rows[2].system, "SMapReduce");
    }

    #[test]
    fn ablation_system_uses_custom_config() {
        let cfg = small_cfg();
        let sys = System::SMapReduceWith(SmrConfig::without_slow_start());
        let r = run_once(&cfg, vec![small_job()], &sys, 1).unwrap();
        assert_eq!(r.policy, "SMapReduce");
    }

    #[test]
    fn zero_trials_is_an_error() {
        let cfg = small_cfg();
        let err = run_averaged(&cfg, &[small_job()], &System::HadoopV1, 0);
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn trial_seeds_do_not_collide_across_cells() {
        // the old base + 1000*t scheme collided: (0, t=1) == (1000, t=0)
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1000, 2000, 3000] {
            for t in 0..3u64 {
                assert!(
                    seen.insert(trial_seed(base, t)),
                    "seed collision at base={base} trial={t}"
                );
            }
        }
    }

    #[test]
    fn runs_accumulate_process_counters() {
        let cfg = small_cfg();
        let before = counters_snapshot();
        let r = run_once(&cfg, vec![small_job()], &System::HadoopV1, 3).unwrap();
        let delta = counters_snapshot().delta_from(&before);
        assert!(!r.counters.is_zero());
        // other tests run concurrently, so the delta is at least this run
        assert!(
            delta.get(mapreduce::Counter::TotalLaunchedMaps)
                >= r.counters.get(mapreduce::Counter::TotalLaunchedMaps)
        );
    }

    #[test]
    fn error_chunks_consume_their_full_trial_slice() {
        // an error mid-chunk must not leave the report stream misaligned:
        // the next cell reads its own trials, never the previous cell's
        // leftovers (a Full-scale ext-faults grid hits exactly this — the
        // recovery-off cells error on an early trial)
        let cfg = small_cfg();
        let h = run_once(&cfg, vec![small_job()], &System::HadoopV1, 1).unwrap();
        let y = run_once(&cfg, vec![small_job()], &System::Yarn, 2).unwrap();
        let s = run_once(&cfg, vec![small_job()], &System::SMapReduce, 3).unwrap();
        let stream: Vec<Result<RunReport, SimError>> = vec![
            Err(SimError::InvalidConfig("trial 0 died".into())),
            Ok(h),
            Ok(y),
            Ok(s),
        ];
        let mut reports = stream.into_iter();
        assert!(take_cell_reports(&mut reports, 2).is_err());
        let next = take_cell_reports(&mut reports, 2).expect("second cell is clean");
        assert_eq!(
            next[0].policy, "YARN",
            "second cell was handed the first cell's leftover report"
        );
        assert_eq!(next[1].policy, "SMapReduce");
    }

    #[test]
    fn same_seed_same_average() {
        let cfg = small_cfg();
        let a = run_averaged(&cfg, &[small_job()], &System::SMapReduce, 2).unwrap();
        let b = run_averaged(&cfg, &[small_job()], &System::SMapReduce, 2).unwrap();
        assert_eq!(a.total_time_s.to_bits(), b.total_time_s.to_bits());
    }
}
