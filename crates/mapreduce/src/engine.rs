//! The simulation engine: binds the MapReduce framework to the `simgrid`
//! substrate and advances everything in discrete steps.
//!
//! Every step is the same three phases: (1) on heartbeat boundaries run
//! the heartbeat round — harvest tracker statistics, aggregate them, let
//! the [`SlotPolicy`] issue slot directives, and assign tasks to free
//! slots; (2) **allocate** — per-node contention scales every running
//! task's rate and the fabric allocates bandwidth to remote-read and
//! shuffle flows; (3) **integrate** — tasks advance at those rates over
//! the step and complete.
//!
//! What varies is the step length ([`simgrid::time::SteppingMode`]):
//!
//! - **Fixed** — the classic 100 ms reference tick.
//! - **Adaptive** (default) — all rates are piecewise-constant between
//!   discrete events (task completions, phase transitions, heartbeat
//!   directives, flow-set changes), so after each allocation the engine
//!   computes the **event horizon** — the earliest heartbeat or sample
//!   boundary, task/phase completion at current rates, shuffle-source
//!   exhaustion, stall expiry or job submission — and advances all
//!   integrators exactly to it in one macro-step.
//!
//! Both modes share the millisecond grid and draw randomness only inside
//! heartbeat rounds, which land on identical boundaries, so either mode is
//! deterministic for a given [`EngineConfig::seed`] and the two agree on
//! every paper-shape outcome (cross-validated in `tests/`).
//!
//! This file holds the step loop; the stages are the child modules
//! `heartbeat`, `physics` (with `node_alloc`), `tasks`, `faults` and `state`.

use crate::arena::{EngineArena, Scratch};
use crate::counters::CounterLedger;
use crate::events::EventLog;
use crate::job::{JobId, JobProfile, JobSpec};
use crate::policy::SlotPolicy;
use crate::report::RunReport;
use crate::rows::RowTable;
use crate::scheduler::{FifoScheduler, JobInProgress, MapCache};
use crate::shuffle::SourceSets;
use crate::slots::SlotSet;
use crate::stats::TrackerMeters;
use crate::task::{MapAttemptId, MapTask, ReducePhase, ReduceTask, ReduceTaskId};
use dfs::NameNode;
use serde::{Deserialize, Serialize};
use simgrid::cluster::{ClusterSpec, NodeId};
use simgrid::error::SimError;
use simgrid::network::{Fabric, FabricConfig};
use simgrid::rng::SimRng;
use simgrid::time::{SimDuration, SimTime, SteppingMode, TickConfig};
use simgrid::usage::NodeUsageSampler;
use std::collections::VecDeque;
use telemetry::Telemetry;

mod faults;
mod heartbeat;
mod node_alloc;
mod physics;
mod state;
mod tasks;
#[cfg(test)]
mod tests;

pub(crate) use node_alloc::NodeAlloc;
pub(crate) use physics::{FetchPost, FlowPurpose};
pub use state::{EngineObservation, JobObservation, NodeObservation};

/// All knobs of one simulated deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    pub cluster: ClusterSpec,
    pub fabric: FabricConfig,
    pub tick: TickConfig,
    /// Task-tracker heartbeat interval (Hadoop default 3 s).
    pub heartbeat: SimDuration,
    /// Progress/slot-series sampling period.
    pub sample_period: SimDuration,
    /// Initial (user-configured) map slots per tracker.
    pub init_map_slots: usize,
    /// Initial reduce slots per tracker.
    pub init_reduce_slots: usize,
    /// Fraction of maps that must complete before reduces may launch.
    pub reduce_slowstart: f64,
    /// Job-ordering discipline (paper: FIFO).
    pub scheduler: crate::scheduler::SchedKind,
    /// Per-task service-time jitter amplitude.
    pub jitter_amp: f64,
    /// Rate at which a reduce copies map output residing on its own node
    /// (MB/s; disk-to-disk, no network).
    pub local_copy_rate: f64,
    /// HDFS block size (MB).
    pub block_mb: f64,
    /// Record a task-lifecycle [`crate::events::EventLog`] in the run
    /// report (off by default: long runs emit tens of thousands of
    /// events).
    pub record_events: bool,
    /// Launch speculative backup attempts for straggling map tasks once a
    /// job's pending maps are exhausted (Hadoop's
    /// `mapred.map.tasks.speculative.execution`). Off by default so the
    /// paper-calibrated experiments are unaffected; the straggler studies
    /// turn it on.
    pub speculative_maps: bool,
    /// Minimum runtime before an attempt may be considered a straggler.
    pub speculation_min_runtime: SimDuration,
    /// Relative progress gap below the job's mean running progress that
    /// marks a straggler (Hadoop's 20 %).
    pub speculation_gap: f64,
    /// Probability that a map attempt fails mid-run and must be retried
    /// (fault injection; 0.0 = fault-free, the paper's setting). Failed
    /// attempts release their slot and the block is re-queued, exactly
    /// Hadoop's task-retry path.
    pub map_failure_rate: f64,
    /// Probability that a map attempt lands on a degraded execution path
    /// (failing disk, swapping neighbour VM…) and runs
    /// [`EngineConfig::straggler_slowdown`]× slower — the pathology
    /// speculative execution exists for.
    pub straggler_rate: f64,
    /// Slowdown factor of a degraded attempt.
    pub straggler_slowdown: f64,
    /// Deterministic whole-node crash schedule (empty = fault-free). In
    /// adaptive mode crash/rejoin instants are exact event-horizon
    /// deadlines; in fixed mode a transition takes effect on the first
    /// tick at or after its instant (tick-align fault times for exact
    /// cross-mode agreement).
    #[serde(default)]
    pub fault_plan: simgrid::FaultPlan,
    /// Run the job tracker's recovery path when a tracker dies: kill and
    /// requeue its in-flight attempts and re-execute completed maps whose
    /// output died with the node. With recovery off, a crash that strands
    /// needed work surfaces [`SimError::NodeLost`] instead of hanging
    /// until the horizon.
    #[serde(default = "default_true")]
    pub fault_recovery: bool,
    /// Silence after which the job tracker declares a tracker dead
    /// (Hadoop's `mapred.tasktracker.expiry.interval`, default 10 min;
    /// shortened here so recovery shows up at simulated-experiment scale).
    /// Expiry is checked on heartbeat boundaries.
    #[serde(default = "default_heartbeat_timeout")]
    pub heartbeat_timeout: SimDuration,
    /// Attempt failures charged to one tracker before the job tracker
    /// blacklists it (Hadoop's `mapred.max.tracker.failures`).
    #[serde(default = "default_blacklist_threshold")]
    pub blacklist_threshold: u32,
    /// Aggregate rate (MB/s) at which the DFS restores lost replicas of
    /// under-replicated blocks onto surviving nodes; 0 disables
    /// re-replication.
    #[serde(default = "default_rereplication_rate")]
    pub rereplication_rate: f64,
    pub seed: u64,
}

fn default_true() -> bool {
    true
}

fn default_heartbeat_timeout() -> SimDuration {
    SimDuration::from_secs(30)
}

fn default_blacklist_threshold() -> u32 {
    4
}

fn default_rereplication_rate() -> f64 {
    50.0
}

impl EngineConfig {
    /// The paper's testbed: 16 workers, 1 GbE, 128 MB blocks, 3 map +
    /// 2 reduce slots per tracker, 3 s heartbeats.
    pub fn paper_default() -> EngineConfig {
        EngineConfig {
            cluster: ClusterSpec::paper_testbed(),
            fabric: FabricConfig::paper_gbe(),
            tick: TickConfig::default(),
            heartbeat: SimDuration::from_secs(3),
            sample_period: SimDuration::from_secs(1),
            init_map_slots: 3,
            init_reduce_slots: 2,
            reduce_slowstart: 0.05,
            scheduler: crate::scheduler::SchedKind::Fifo,
            jitter_amp: 0.20,
            local_copy_rate: 180.0,
            block_mb: 128.0,
            record_events: false,
            speculative_maps: false,
            speculation_min_runtime: SimDuration::from_secs(15),
            speculation_gap: 0.25,
            map_failure_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 5.0,
            fault_plan: simgrid::FaultPlan::none(),
            fault_recovery: default_true(),
            heartbeat_timeout: default_heartbeat_timeout(),
            blacklist_threshold: default_blacklist_threshold(),
            rereplication_rate: default_rereplication_rate(),
            seed: 42,
        }
    }

    /// A small fast deployment for tests: the paper testbed cut to
    /// `workers` nodes, with its own seed.
    pub fn small_test(workers: usize, seed: u64) -> EngineConfig {
        EngineConfig {
            cluster: ClusterSpec::small(workers),
            seed,
            ..EngineConfig::paper_default()
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.cluster.workers == 0 {
            return Err(SimError::InvalidConfig("cluster has no workers".into()));
        }
        if self.init_map_slots == 0 {
            return Err(SimError::InvalidConfig("need >=1 initial map slot".into()));
        }
        if self.init_reduce_slots == 0 {
            return Err(SimError::InvalidConfig(
                "need >=1 initial reduce slot".into(),
            ));
        }
        // zero periods would make boundary detection silently never fire
        // (is_multiple_of(0) is false for every instant) — reject them up
        // front in both stepping modes
        if self.heartbeat.as_millis() == 0 {
            return Err(SimError::InvalidConfig(
                "heartbeat must be non-zero (a zero period would never fire a round)".into(),
            ));
        }
        if self.sample_period.as_millis() == 0 {
            return Err(SimError::InvalidConfig(
                "sample_period must be non-zero (a zero period would never record a sample)".into(),
            ));
        }
        // the fixed-tick reference mode can only land on boundaries that
        // are multiples of its tick; misaligned periods would silently
        // skip every round
        if self.tick.mode == SteppingMode::Fixed {
            if self.tick.tick.as_millis() == 0 {
                return Err(SimError::InvalidConfig(
                    "tick must be non-zero in fixed-tick mode".into(),
                ));
            }
            if !SimTime(self.heartbeat.0).is_multiple_of(self.tick.tick) {
                return Err(SimError::InvalidConfig(format!(
                    "heartbeat ({} ms) must be a multiple of the tick ({} ms) in \
                     fixed-tick mode, or rounds would never land on a boundary",
                    self.heartbeat.as_millis(),
                    self.tick.tick.as_millis()
                )));
            }
            if !SimTime(self.sample_period.0).is_multiple_of(self.tick.tick) {
                return Err(SimError::InvalidConfig(format!(
                    "sample_period ({} ms) must be a multiple of the tick ({} ms) in \
                     fixed-tick mode, or samples would never land on a boundary",
                    self.sample_period.as_millis(),
                    self.tick.tick.as_millis()
                )));
            }
        }
        if !(0.0..=1.0).contains(&self.reduce_slowstart) {
            return Err(SimError::InvalidConfig(
                "reduce_slowstart must be in [0,1]".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.map_failure_rate) {
            return Err(SimError::InvalidConfig(
                "map_failure_rate must be in [0,1)".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.straggler_rate) || self.straggler_slowdown < 1.0 {
            return Err(SimError::InvalidConfig(
                "straggler_rate in [0,1) and slowdown >= 1 required".into(),
            ));
        }
        for f in self.fault_plan.faults() {
            if f.node.0 >= self.cluster.workers {
                return Err(SimError::InvalidConfig(format!(
                    "fault plan names node {} but the cluster has {} workers",
                    f.node.0, self.cluster.workers
                )));
            }
            if f.at == SimTime::ZERO {
                return Err(SimError::InvalidConfig(
                    "fault plan crashes a node at t=0; nodes must start up (crash at >= 1 ms)"
                        .into(),
                ));
            }
            if f.downtime.is_some_and(|d| d.as_millis() == 0) {
                return Err(SimError::InvalidConfig(
                    "fault downtime must be non-zero (omit it for a permanent crash)".into(),
                ));
            }
        }
        if !self.fault_plan.is_empty() && self.heartbeat_timeout.as_millis() == 0 {
            return Err(SimError::InvalidConfig(
                "heartbeat_timeout must be non-zero when a fault plan is set".into(),
            ));
        }
        if self.blacklist_threshold == 0 {
            return Err(SimError::InvalidConfig(
                "blacklist_threshold must be >= 1".into(),
            ));
        }
        if !self.rereplication_rate.is_finite() || self.rereplication_rate < 0.0 {
            return Err(SimError::InvalidConfig(
                "rereplication_rate must be finite and >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// One task tracker (node-local slot + meter state).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Tracker {
    node: NodeId,
    map_slots: SlotSet,
    reduce_slots: SlotSet,
    meters: TrackerMeters,
    /// Remaining management-overhead stall (ms) charged by slot changes.
    stall_ms: u64,
    /// Set while the node is down: the instant it crashed.
    down_since: Option<SimTime>,
    /// The job tracker has already processed this tracker's loss (killed
    /// and requeued its attempts, re-executed lost map output). Reset to
    /// `false` on each crash.
    lost_handled: bool,
    /// Attempt failures charged against this tracker since its last
    /// (re-)registration.
    attempt_failures: u32,
    /// No new work is assigned once `attempt_failures` reaches
    /// [`EngineConfig::blacklist_threshold`].
    blacklisted: bool,
}

/// What a stepping call derives from an [`EngineState`] instead of
/// reading it: per-job profile copies, the fabric, the per-node replica
/// postings, the scheduler's map cache and the reduces' fetch-source sets.
/// Never serialized. A [`Run`] derives it once at bind and extends it when
/// a job is injected, so a resident run's stepping call costs nothing per
/// job; the by-value drivers derive it per call.
struct Derived {
    /// Immutable per-job profile copies (avoids borrow tangles).
    profiles: Vec<JobProfile>,
    fabric: Fabric,
    /// Per-job, per-node replica postings: `replica_postings[job][node]`
    /// lists the block indices of `job` holding a replica on `node`, so a
    /// crash prunes exactly the affected blocks instead of scanning every
    /// block of every job.
    replica_postings: Vec<Vec<Vec<u32>>>,
    /// Per-job, per-node pending local blocks (Hadoop's
    /// `nonRunningMapCache`), read by every map pick.
    map_cache: MapCache,
    /// Per-job fetch-source sets of the running reduces, fed by map
    /// completions and draining fetches, read by every source choice and
    /// completion test.
    source_sets: Vec<SourceSets>,
    /// The DFS name node as it stands after the run's files: built on a
    /// resident run's first injection and advanced one file per injection
    /// after it, so an injection does not replay every earlier placement.
    namenode: Option<NameNode>,
}

impl Derived {
    fn of(st: &EngineState) -> Derived {
        let mut derived = Derived {
            profiles: Vec::with_capacity(st.jobs.len()),
            fabric: Fabric::new(st.config.fabric),
            replica_postings: Vec::with_capacity(st.jobs.len()),
            map_cache: MapCache::default(),
            source_sets: Vec::with_capacity(st.jobs.len()),
            namenode: None,
        };
        derived.extend(st);
        for (rid, r) in st.running_reduces.rows() {
            if r.phase == ReducePhase::Shuffle {
                derived.source_sets[rid.job.0].rebuild(&st.jobs[rid.job.0].shuffle, r);
            }
        }
        derived
    }

    /// Derive the entries of the jobs submitted since the last call.
    fn extend(&mut self, st: &EngineState) {
        let workers = st.config.cluster.workers;
        for job in &st.jobs[self.profiles.len()..] {
            self.profiles.push(job.spec.profile.clone());
            self.replica_postings
                .push(job.layout.node_postings(workers));
            self.source_sets.push(SourceSets::default());
        }
        self.map_cache.extend(&st.jobs, workers);
    }
}

/// The engine. Construct with a config, then [`Engine::run`] a workload
/// under a policy. An engine can run multiple workloads; each run is
/// independent (fresh RNG derivation from the seed).
///
/// Every run enters through an [`EngineState`]: [`Engine::prepare`] boots
/// the cluster and DFS into a t=0 state, [`EngineState::override_policy`]
/// binds it to a policy, and [`Engine::resume_in`] (run to completion),
/// [`Engine::advance_until_in`] (run to an instant) or [`Engine::record`]
/// (run to completion, keeping capsules and the hash trace) drives it.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Engine {
        Engine { config }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Run `jobs` to completion under `policy`, with telemetry off: the
    /// prepare → bind → [`Engine::resume_in`] sequence on a fresh arena.
    pub fn run(
        &self,
        jobs: Vec<JobSpec>,
        policy: &mut dyn SlotPolicy,
    ) -> Result<RunReport, SimError> {
        let mut state = self.prepare(jobs)?;
        state.override_policy(policy.name())?;
        Engine::resume_in(
            state,
            policy,
            &Telemetry::disabled(),
            &mut EngineArena::new(),
        )
    }
}

/// One [`simgrid::rng::splitmix64`] round from state `h ^ w`: the engine's
/// hash-fold primitive. `state_hash` starts at [`initial_state_hash`] and
/// absorbs one word at a time, every step.
pub fn fold_hash(h: u64, w: u64) -> u64 {
    simgrid::rng::splitmix64(&mut (h ^ w))
}

/// The rolling state hash before any step has run: the FNV offset basis
/// folded with the run's seed, so two runs that differ only in seed
/// already differ at step zero.
pub fn initial_state_hash(seed: u64) -> u64 {
    fold_hash(0xcbf2_9ce4_8422_2325, seed)
}

/// One entry of a run's **hash trace**: the rolling state digest as it
/// stood after step `step` completed (time already advanced to `at_ms`).
/// A straight run and a capsule-resumed run of the same cell must produce
/// identical hashes at identical steps — one u64 comparison per step
/// replaces re-serializing full reports in equivalence proofs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPoint {
    /// 1-based count of completed steps.
    pub step: u64,
    /// Simulated milliseconds after the step's time advance.
    pub at_ms: u64,
    /// The rolling digest after this step's fold.
    pub hash: u64,
}

/// One stepping call over a run: the [`EngineState`] it steps in place,
/// plus only what is not state — the bound policy, live telemetry handles,
/// the arena's scratch family, the structures [`Derived`] from the state
/// and what a recording keeps.
struct Sim<'r> {
    st: &'r mut EngineState,
    policy: &'r mut dyn SlotPolicy,
    telem: Telemetry,
    step_counter: telemetry::Counter,
    heartbeat_counter: telemetry::Counter,
    /// Per-step wall-clock histogram (µs); fed only while telemetry is
    /// enabled, so an untraced step reads no clock for it.
    step_duration_us: telemetry::Histogram,
    node_crash_counter: telemetry::Counter,
    lost_output_counter: telemetry::Counter,
    /// Per-step buffers checked out of an [`EngineArena`]; every allocate
    /// phase rewrites them, so the step loop allocates nothing.
    scratch: Scratch,
    /// Kept in step with the state as the run moves.
    derived: &'r mut Derived,
    /// Capture an [`EngineState`] capsule at every multiple of this period
    /// (must itself be a multiple of the sample period, so captures land on
    /// instants both stepping modes already stop at).
    snap_every: Option<SimDuration>,
    /// Capsules captured so far (drained by [`Engine::record`]).
    snapshots: Vec<EngineState>,
    /// When set, every step folds its state into `st.state_hash`. Set by
    /// [`Sim::over`]; only [`Engine::resume_in`] clears it, because its
    /// state is dropped when the call returns and its report carries no
    /// hash, so no caller could read the fold.
    fold_hashes: bool,
    /// When set, every step's fold is also recorded into `hash_trace`.
    /// Off by default: the push below is the only step-loop allocation
    /// tracing adds, and the zero-alloc telemetry gate runs untraced.
    trace_hashes: bool,
    hash_trace: Vec<HashPoint>,
}

impl<'r> Sim<'r> {
    /// Build a sim over `st`, which [`EngineState::bind`] has bound to
    /// `policy`, with `derived` derived from it. Live handles are attached
    /// fresh.
    fn over(
        st: &'r mut EngineState,
        policy: &'r mut dyn SlotPolicy,
        derived: &'r mut Derived,
        telem: &Telemetry,
        mut scratch: Scratch,
    ) -> Sim<'r> {
        policy.attach_telemetry(telem);
        st.events.set_sink(telem.clone());
        st.swap_staging(&mut scratch);
        scratch.stalled.extend(
            st.trackers
                .iter()
                .filter(|t| t.stall_ms > 0)
                .map(|t| t.node),
        );
        Sim {
            st,
            policy,
            telem: telem.clone(),
            step_counter: telem.counter("engine.steps"),
            heartbeat_counter: telem.counter("engine.heartbeat_rounds"),
            step_duration_us: telem.histogram("engine.step_duration_us"),
            node_crash_counter: telem.counter("engine.node_crashes"),
            lost_output_counter: telem.counter("engine.lost_map_outputs"),
            scratch,
            derived,
            snap_every: None,
            snapshots: Vec::new(),
            fold_hashes: true,
            trace_hashes: false,
            hash_trace: Vec::new(),
        }
    }

    /// End the stepping call: detach the state from the telemetry sink
    /// and hand the scratch family back for return to its arena.
    fn finish(mut self) -> Scratch {
        self.st.events.set_sink(Telemetry::disabled());
        self.st.swap_staging(&mut self.scratch);
        self.scratch
    }

    fn run_to_completion(&mut self) -> Result<RunReport, SimError> {
        let finished = self.advance(None)?;
        debug_assert!(finished, "unbounded advance only returns on completion");
        Ok(self.st.report(self.policy))
    }

    /// Advance the run until every job finishes or the sim clock reaches
    /// `until` (whichever comes first); `None` means run to completion.
    /// Returns `true` when all jobs have finished.
    ///
    /// One step loop serves both stepping modes. The mode decides only
    /// two things:
    ///
    /// - the step length: one fixed tick, with [`Sim::allocate_step`]
    ///   capping demands at what one tick can consume, or the adaptive
    ///   event horizon ([`Sim::compute_horizon`]), which caps every step at
    ///   the next heartbeat and sample boundary so periodic logic (and with
    ///   it every RNG draw) lands on the instants fixed mode lands on;
    /// - where the periodic sample lands: fixed mode samples a boundary
    ///   instant at the start of its step, before the time advance;
    ///   adaptive mode samples t=0 once and then each boundary its step
    ///   lands on, after the advance.
    ///
    /// The stop check sits at the very top of the step loop — the same
    /// point [`Sim::maybe_capture`] captures at — so a capsule captured
    /// at the stop instant resumes with that instant's fault transitions
    /// and heartbeat still pending and replays them identically. Step
    /// boundaries are pure functions of sim state, so an interrupted run
    /// advances through exactly the steps an uninterrupted one would.
    ///
    /// The phases called once per step (`process_fault_transitions`,
    /// `heartbeat_round`, `integrate`, `fold_step_hash`) are
    /// `#[inline(never)]`: with a single call site each, LLVM folds them
    /// all into this loop, and that 33 KB function stepped 1024-node runs
    /// about 7 % slower.
    fn advance(&mut self, until: Option<SimTime>) -> Result<bool, SimError> {
        if self.st.all_finished() {
            return Ok(true); // idle run: the sim clock stays frozen
        }
        let fixed = self.st.config.tick.mode == SteppingMode::Fixed;
        // the flag marks a run past its t=0 sample: adaptive mode takes
        // that sample here, fixed mode at the start of its first step
        if !self.st.initial_sample_done {
            if !fixed {
                self.sample();
            }
            self.st.initial_sample_done = true;
        }
        loop {
            if until.is_some_and(|stop| self.st.now >= stop) {
                return Ok(false);
            }
            self.maybe_capture();
            let step_start = self.telem.clock_us();
            let sim_ms = self.st.now.as_millis();
            self.process_fault_transitions()?;
            if self.st.now.is_multiple_of(self.st.config.heartbeat) {
                self.span("engine", "heartbeat_round", sim_ms, |s| {
                    s.check_expired_trackers()?;
                    s.heartbeat_round();
                    Ok(())
                })?;
            }
            let rates = self.allocate_step(fixed.then(|| self.st.config.tick.dt_secs()));
            let dt = if fixed {
                self.st.config.tick.tick
            } else {
                self.span("step", "event_horizon", sim_ms, |s| {
                    s.compute_horizon(&rates)
                })
            };
            self.integrate(dt.as_secs_f64(), dt.as_millis(), rates);
            if fixed && self.st.now.is_multiple_of(self.st.config.sample_period) {
                self.span("engine", "sample", sim_ms, Self::sample);
            }
            self.st.steps += 1;
            self.step_counter.inc();
            if self.telem.is_enabled() {
                let end = self.telem.clock_us();
                self.step_duration_us.record(end.saturating_sub(step_start));
            }
            self.st.now += dt;
            if self.fold_hashes {
                self.fold_step_hash();
            }
            let finished = self.st.all_finished();
            if finished || (!fixed && self.st.now.is_multiple_of(self.st.config.sample_period)) {
                self.span("engine", "sample", sim_ms, Self::sample);
            }
            if finished {
                return Ok(true);
            }
            if self.st.now > self.st.config.tick.horizon {
                return Err(self.horizon_error());
            }
        }
    }

    /// Run `phase` inside the telemetry span `cat`/`name`, stamped with
    /// the step's start instant `sim_ms`.
    #[inline]
    fn span<T>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        sim_ms: u64,
        phase: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let t0 = self.telem.clock_us();
        let out = phase(self);
        self.telem.record_span(cat, name, t0, sim_ms);
        out
    }

    /// Capture a capsule when the loop reaches a checkpoint instant.
    /// Called at the very top of the step loop, before that instant's
    /// fault transitions and heartbeat run, so a restored run re-enters
    /// the loop at exactly this point and replays them identically.
    fn maybe_capture(&mut self) {
        let Some(every) = self.snap_every else {
            return;
        };
        if self.st.now.is_multiple_of(every) {
            let snap = self.st.capture(self.policy);
            self.snapshots.push(snap);
        }
    }

    /// Fold this step's state delta into the rolling digest. Called once
    /// per step, immediately after the step's time advance, in both
    /// stepping modes — so a resumed run (which restores `state_hash`
    /// from the capsule) produces the same digest sequence as the
    /// straight run from the first post-resume step onwards. Every
    /// stepping call folds except [`Engine::resume_in`], whose state does
    /// not outlive it; the fold only reads the state, so skipping it
    /// changes nothing else.
    ///
    /// The fold covers the words that move every step (time, step count,
    /// the full RNG position, per-task progress floats bit-exactly) plus
    /// every monotone counter a divergence could first show up in. It
    /// deliberately allocates nothing: O(jobs + running tasks + nodes/64)
    /// folds over fields already resident.
    #[inline(never)]
    fn fold_step_hash(&mut self) {
        let mut h = self.st.state_hash;
        h = fold_hash(h, self.st.now.as_millis());
        h = fold_hash(h, self.st.steps);
        for w in self.st.rng.state_words() {
            h = fold_hash(h, w);
        }
        h = fold_hash(h, self.st.running_maps.len() as u64);
        h = fold_hash(h, self.st.running_reduces.len() as u64);
        for j in &self.st.jobs {
            h = fold_hash(
                h,
                (j.completed_maps as u64) ^ ((j.completed_reduces as u64) << 32),
            );
            h = fold_hash(
                h,
                (j.running_maps as u64) ^ ((j.running_reduces as u64) << 32),
            );
        }
        for (_, t) in self.st.running_maps.rows() {
            h = fold_hash(h, t.work_remaining.to_bits());
        }
        for (_, t) in self.st.running_reduces.rows() {
            h = fold_hash(h, t.fetched_mb.to_bits());
            h = fold_hash(h, t.phase_remaining.to_bits());
        }
        h = fold_hash(h, self.st.cpu_granted_core_s.to_bits());
        h = fold_hash(h, self.st.cpu_offered_core_s.to_bits());
        h = fold_hash(h, self.st.network_mb.to_bits());
        h = fold_hash(h, self.st.map_input_processed_mb.to_bits());
        h = fold_hash(h, self.st.rerep_progress.to_bits());
        h = fold_hash(
            h,
            self.st.slot_changes ^ self.st.heartbeat_round.rotate_left(32),
        );
        h = fold_hash(
            h,
            self.st.map_failures
                ^ self.st.node_crashes.rotate_left(16)
                ^ self.st.crash_task_kills.rotate_left(32)
                ^ self.st.lost_map_outputs.rotate_left(48),
        );
        h = fold_hash(
            h,
            self.st.trackers_blacklisted
                ^ self.st.speculative_attempts.rotate_left(21)
                ^ self.st.speculative_wins.rotate_left(42),
        );
        h = fold_hash(h, self.st.rerep_queue.len() as u64);
        let mut mask = 0u64;
        for (i, up) in self.st.node_up.iter().enumerate() {
            if *up {
                mask |= 1 << (i % 64);
            }
            if i % 64 == 63 {
                h = fold_hash(h, mask);
                mask = 0;
            }
        }
        if !self.st.node_up.len().is_multiple_of(64) {
            h = fold_hash(h, mask);
        }
        self.st.state_hash = h;
        if self.trace_hashes {
            self.hash_trace.push(HashPoint {
                step: self.st.steps,
                at_ms: self.st.now.as_millis(),
                hash: h,
            });
        }
    }

    fn horizon_error(&self) -> SimError {
        let pending: Vec<String> = self
            .st
            .jobs
            .iter()
            .filter(|j| !j.is_finished())
            .map(|j| {
                format!(
                    "{}: {}/{} maps, {}/{} reduces",
                    j.spec.profile.name,
                    j.completed_maps,
                    j.total_maps(),
                    j.completed_reduces,
                    j.total_reduces()
                )
            })
            .collect();
        SimError::HorizonExceeded {
            horizon: self.st.config.tick.horizon,
            pending_work: pending.join("; "),
        }
    }
}

/// The complete mutable state of one run at one simulated instant — the
/// run's only representation. A stepping call borrows it and advances it
/// in place ([`Run`], [`Engine::advance_until_in`]); a checkpoint capsule
/// is a clone of it with `policy_state` refreshed from the driving policy.
///
/// Captured at the top of the step loop (before that instant's fault
/// transitions and heartbeat), at instants that are multiples of the
/// sample period, so both stepping modes stop there and a restored run
/// replays the remainder bit-identically. Deliberately excluded, because
/// they are live handles, derivable, or strictly observational: telemetry
/// sinks and counters, the fabric (a pure function of the config), per-job
/// profile copies (present inside each job's spec), and the allocate-phase
/// scratch arrays (rewritten from scratch every step).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineState {
    config: EngineConfig,
    now: SimTime,
    policy_name: String,
    /// Opaque policy run state ([`SlotPolicy::snapshot_state`]); `Null`
    /// for stateless policies and for capsules taken before the first
    /// decision. While a policy is bound to the state, the policy holds
    /// the live value and this one is `Null` until a capture refreshes it.
    policy_state: serde::Value,
    /// The run has taken its t=0 sample (adaptive mode) or entered its
    /// step loop (fixed mode, which samples at step starts instead).
    initial_sample_done: bool,
    jobs: Vec<JobInProgress>,
    trackers: Vec<Tracker>,
    /// The running map attempts and reduces, each a table in ascending
    /// id order. Settled between phases, so between stepping calls too.
    running_maps: RowTable<MapAttemptId, MapTask>,
    running_reduces: RowTable<ReduceTaskId, ReduceTask>,
    sched: FifoScheduler,
    rng: SimRng,
    map_slot_series: simgrid::metrics::TimeSeries,
    reduce_slot_series: simgrid::metrics::TimeSeries,
    slot_changes: u64,
    heartbeat_round: u64,
    events: EventLog,
    steps: u64,
    speculative_attempts: u64,
    speculative_wins: u64,
    /// Injected failure points: attempt → progress fraction at which it
    /// dies. Decided at launch so runs stay deterministic; every key is a
    /// running attempt.
    failure_points: RowTable<MapAttemptId, f64>,
    map_failures: u64,
    /// Integral of granted CPU (core·s) across the run.
    cpu_granted_core_s: f64,
    /// Integral of offered CPU capacity (core·s) while any job was active.
    cpu_offered_core_s: f64,
    /// Total bytes moved over the fabric (shuffle fetches + remote reads).
    network_mb: f64,
    /// Per-node up/down state driven by the fault plan.
    node_up: Vec<bool>,
    /// Every fault-plan transition at or before this instant has been
    /// applied (lets fixed mode pick up off-grid instants on the next tick).
    faults_done_until: SimTime,
    /// Desired replica count, from the DFS placement policy — the
    /// re-replication target.
    replication: usize,
    /// Under-replicated `(job, block)` pairs awaiting re-replication,
    /// restored in FIFO order.
    rerep_queue: VecDeque<(usize, usize)>,
    /// Accumulated re-replication budget (MB) not yet spent on a block.
    rerep_progress: f64,
    node_crashes: u64,
    /// In-flight attempts killed by crashes (on the dead node or streaming
    /// input from it).
    crash_task_kills: u64,
    /// Completed maps re-executed because their output died with a node.
    lost_map_outputs: u64,
    trackers_blacklisted: u64,
    /// Total map input MB consumed across all attempts (work conservation:
    /// never less than the sum of job inputs on a successful run).
    map_input_processed_mb: f64,
    /// Hadoop-style job counters, one ledger per job (kept off
    /// `JobInProgress` so the integrate-phase destructuring splits
    /// cleanly).
    job_counters: Vec<CounterLedger>,
    /// Per-node resource-grant integrals between sample boundaries.
    usage: NodeUsageSampler,
    /// Rolling per-step digest (see [`fold_hash`]): seeded from the run's
    /// seed and folded once per completed step, so a resumed run's digests
    /// line up with the straight run's. [`Engine::resume_in`] consumes its
    /// state and skips the fold. `#[serde(default)]`: format-v1
    /// capsules predate the digest and restore it as 0 — their resumed
    /// hash traces then simply start from a different basis, still
    /// internally consistent.
    #[serde(default)]
    state_hash: u64,
}

/// Outcome of one bounded [`Engine::advance_until_in`] advance.
#[derive(Debug)]
pub struct Advanced {
    /// The run at the stop instant (or at the finish instant with the
    /// clock frozen, once every job has completed), moved back out with
    /// its `policy_state` refreshed.
    pub state: EngineState,
    /// Every job has finished; further advances are no-ops.
    pub finished: bool,
    /// Integration steps executed by this advance.
    pub steps_run: u64,
    /// The full run report, available once `finished` is true.
    pub report: Option<RunReport>,
}

/// What [`Engine::record`] kept of one run.
#[derive(Debug)]
pub struct Recording {
    /// The full run report.
    pub report: RunReport,
    /// A capsule at every multiple of the checkpoint period (none without
    /// a period).
    pub capsules: Vec<EngineState>,
    /// One [`HashPoint`] per step run. A resumed state's trace continues
    /// from its restored `state_hash`, so when replay is equivalent it is
    /// exactly the straight run's trace after the capture instant.
    pub hash_trace: Vec<HashPoint>,
}

impl Engine {
    /// Boot the cluster and DFS for `jobs` into a run's t=0 state: the
    /// layouts are materialised, but no time has passed and no policy is
    /// bound yet ([`EngineState::override_policy`] binds one). Every run
    /// starts here.
    pub fn prepare(&self, jobs: Vec<JobSpec>) -> Result<EngineState, SimError> {
        let cfg = &self.config;
        cfg.validate()?;
        if jobs.is_empty() {
            return Err(SimError::InvalidConfig("no jobs submitted".into()));
        }
        let workers = cfg.cluster.workers;
        let root = SimRng::new(cfg.seed);
        let mut namenode = fresh_namenode(cfg);
        let mut booted = Vec::with_capacity(jobs.len());
        for (i, spec) in jobs.into_iter().enumerate() {
            if spec.id.0 != i {
                return Err(SimError::InvalidConfig(format!(
                    "job ids must be dense submission order (job {i} has id {})",
                    spec.id.0
                )));
            }
            JobSpec::check_layout(spec.input_mb, spec.num_reduces, cfg.block_mb)?;
            let layout = namenode.create_file(spec.input_mb);
            booted.push(JobInProgress::new(spec, layout, workers));
        }
        let trackers = cfg
            .cluster
            .nodes()
            .map(|node| Tracker {
                node,
                map_slots: SlotSet::new(cfg.init_map_slots),
                reduce_slots: SlotSet::new(cfg.init_reduce_slots),
                meters: TrackerMeters::new(SimTime::ZERO),
                stall_ms: 0,
                down_since: None,
                lost_handled: true,
                attempt_failures: 0,
                blacklisted: false,
            })
            .collect();
        let node_specs: Vec<simgrid::node::NodeSpec> = cfg
            .cluster
            .nodes()
            .map(|n| *cfg.cluster.node_spec(n))
            .collect();
        Ok(EngineState {
            config: cfg.clone(),
            now: SimTime::ZERO,
            policy_name: String::new(),
            policy_state: serde::Value::Null,
            initial_sample_done: false,
            job_counters: vec![CounterLedger::new(); booted.len()],
            jobs: booted,
            trackers,
            running_maps: RowTable::default(),
            running_reduces: RowTable::default(),
            sched: FifoScheduler {
                reduce_slowstart: cfg.reduce_slowstart,
                kind: cfg.scheduler,
            },
            rng: root.derive("engine"),
            map_slot_series: simgrid::metrics::TimeSeries::new(),
            reduce_slot_series: simgrid::metrics::TimeSeries::new(),
            slot_changes: 0,
            heartbeat_round: 0,
            events: EventLog::new(cfg.record_events),
            steps: 0,
            speculative_attempts: 0,
            speculative_wins: 0,
            failure_points: RowTable::default(),
            map_failures: 0,
            cpu_granted_core_s: 0.0,
            cpu_offered_core_s: 0.0,
            network_mb: 0.0,
            node_up: vec![true; workers],
            faults_done_until: SimTime::ZERO,
            replication: dfs::PlacementPolicy::default().replication(),
            rerep_queue: VecDeque::new(),
            rerep_progress: 0.0,
            node_crashes: 0,
            crash_task_kills: 0,
            lost_map_outputs: 0,
            trackers_blacklisted: 0,
            map_input_processed_mb: 0.0,
            usage: NodeUsageSampler::new(&node_specs),
            state_hash: initial_state_hash(cfg.seed),
        })
    }

    /// Run a state to completion. The configuration comes from the
    /// capsule; `policy` must be a fresh instance of the bound policy
    /// (matched by name) and is handed the captured policy state. Scratch
    /// is drawn from (and returned to) `arena`; `telem` records tick-phase
    /// spans, slot-count tracks and lifecycle/decision instants, and is
    /// strictly observational — the report is bit-identical whether it is
    /// enabled, disabled, or shared.
    ///
    /// The state is consumed and the report carries no state hash, so
    /// this call skips the per-step hash fold; [`Engine::record`],
    /// [`Engine::advance_until_in`] and [`Run::advance_until`] keep it.
    pub fn resume_in(
        mut state: EngineState,
        policy: &mut dyn SlotPolicy,
        telem: &Telemetry,
        arena: &mut EngineArena,
    ) -> Result<RunReport, SimError> {
        let mut derived = state.bind(policy)?;
        step_in(&mut state, policy, &mut derived, telem, arena, |sim| {
            // a run that samples from its start appends its usage rows to
            // the store the arena's last run grew, and hands it back once
            // its report is built; a mid-run state keeps its own rows
            let lent = sim.st.usage.lend_rows(&mut sim.scratch.usage_rows);
            sim.fold_hashes = false;
            let report = sim.run_to_completion();
            if lent {
                sim.st.usage.return_rows(&mut sim.scratch.usage_rows);
            }
            report
        })
    }

    /// Advance a captured run until its sim clock reaches `target` (or
    /// every job finishes, whichever comes first) and hand it back — the
    /// capsule-in, capsule-out form of [`Run::advance_until`]: the state
    /// moves in, `policy` is handed its captured state, the run steps in
    /// place, and the state moves out with `policy_state` refreshed.
    /// Nothing is cloned. Scratch is drawn from (and returned to) `arena`.
    ///
    /// The stop lands at the top of the step loop, exactly where periodic
    /// captures land, so chaining bounded advances replays the identical
    /// step/draw/hash sequence of one straight run: step boundaries are
    /// pure functions of sim state, and an interrupted run resumes with
    /// the stop instant's fault transitions and heartbeat still pending.
    /// Once every job has finished the sim clock freezes (further
    /// advances return immediately) and the full [`RunReport`] is built.
    pub fn advance_until_in(
        mut state: EngineState,
        policy: &mut dyn SlotPolicy,
        target: SimTime,
        telem: &Telemetry,
        arena: &mut EngineArena,
    ) -> Result<Advanced, SimError> {
        let mut derived = state.bind(policy)?;
        let steps_before = state.steps;
        let finished = step_in(&mut state, policy, &mut derived, telem, arena, |sim| {
            sim.advance(Some(target))
        })?;
        let report = finished.then(|| state.report(policy));
        state.policy_state = policy.snapshot_state();
        Ok(Advanced {
            steps_run: state.steps - steps_before,
            state,
            finished,
            report,
        })
    }

    /// Run a state to completion with telemetry off, recording the
    /// per-step hash trace and, when `every` is set, a capsule at every
    /// multiple of it (which must be a multiple of the sample period, so
    /// capture instants are step boundaries both stepping modes already
    /// land on). Recording is strictly observational: the report is
    /// identical to [`Engine::resume_in`]'s.
    pub fn record(
        mut state: EngineState,
        policy: &mut dyn SlotPolicy,
        every: Option<SimDuration>,
    ) -> Result<Recording, SimError> {
        if let Some(every) = every {
            let sample = state.config.sample_period.as_millis();
            if every == SimDuration::ZERO {
                return Err(SimError::InvalidConfig(
                    "checkpoint period must be non-zero".into(),
                ));
            }
            if sample == 0 || !every.as_millis().is_multiple_of(sample) {
                return Err(SimError::InvalidConfig(format!(
                    "checkpoint period {} ms must be a multiple of the sample period {} ms",
                    every.as_millis(),
                    sample
                )));
            }
        }
        let mut derived = state.bind(policy)?;
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        step_in(
            &mut state,
            policy,
            &mut derived,
            &telem,
            &mut arena,
            |sim| {
                sim.snap_every = every;
                sim.trace_hashes = true;
                let report = sim.run_to_completion()?;
                Ok(Recording {
                    report,
                    capsules: std::mem::take(&mut sim.snapshots),
                    hash_trace: std::mem::take(&mut sim.hash_trace),
                })
            },
        )
    }
}

/// A run's DFS name node before its first file: the default placement on
/// the `dfs` stream of the run's seed.
fn fresh_namenode(cfg: &EngineConfig) -> NameNode {
    NameNode::new(
        cfg.cluster.clone(),
        dfs::PlacementPolicy::default(),
        cfg.block_mb,
        SimRng::new(cfg.seed).derive("dfs"),
    )
}

/// The one stepping path: build a [`Sim`] over a bound state and what is
/// derived from it, with scratch checked out of `arena`, drive it, and
/// check the scratch back in whatever the outcome.
fn step_in<T>(
    st: &mut EngineState,
    policy: &mut dyn SlotPolicy,
    derived: &mut Derived,
    telem: &Telemetry,
    arena: &mut EngineArena,
    drive: impl FnOnce(&mut Sim<'_>) -> Result<T, SimError>,
) -> Result<T, SimError> {
    let scratch = arena.checkout(st.config.cluster.workers);
    let mut sim = Sim::over(st, policy, derived, telem, scratch);
    let out = drive(&mut sim);
    arena.check_in(sim.finish());
    out
}

/// A run held resident between stepping calls: its [`EngineState`] plus
/// the policy bound to it, the way the paper's job tracker keeps job state
/// and slot manager live across heartbeats.
///
/// [`Run::bind`] is the only way to build one, and it hands the policy
/// the state's captured run state — so a mid-run state never steps under
/// a policy that has not seen it. [`Run::advance_until`] then steps the
/// state in place; nothing is cloned or encoded until [`Run::capture`]
/// asks for a capsule, and nothing is re-derived: the `Derived`
/// indexes stay resident beside the state.
pub struct Run {
    state: EngineState,
    policy: Box<dyn SlotPolicy>,
    derived: Derived,
}

impl Run {
    /// Bind `state` to `policy`: validate the config, check the policy is
    /// the one the state was captured under, and restore its run state.
    pub fn bind(mut state: EngineState, mut policy: Box<dyn SlotPolicy>) -> Result<Run, SimError> {
        let derived = state.bind(policy.as_mut())?;
        Ok(Run {
            state,
            policy,
            derived,
        })
    }

    /// Step until the sim clock reaches `target` or every job finishes,
    /// whichever comes first, with the stop semantics of
    /// [`Engine::advance_until_in`]. Returns `true` once every job has
    /// finished. A run that returned an error must not be stepped again.
    pub fn advance_until(
        &mut self,
        target: SimTime,
        telem: &Telemetry,
        arena: &mut EngineArena,
    ) -> Result<bool, SimError> {
        step_in(
            &mut self.state,
            self.policy.as_mut(),
            &mut self.derived,
            telem,
            arena,
            |sim| sim.advance(Some(target)),
        )
    }

    /// A capsule of the run as it stands: a clone of its state carrying
    /// the policy's current run state.
    pub fn capture(&self) -> EngineState {
        self.state.capture(self.policy.as_ref())
    }

    /// The full run report, once every job has finished.
    pub fn report(&self) -> Option<RunReport> {
        self.state
            .all_finished()
            .then(|| self.state.report(self.policy.as_ref()))
    }

    /// The run's sim clock.
    pub fn at(&self) -> SimTime {
        self.state.at()
    }

    /// The rolling per-step state digest.
    pub fn state_hash(&self) -> u64 {
        self.state.state_hash()
    }

    /// See [`EngineState::observe`].
    pub fn observe(&self) -> EngineObservation {
        self.state.observe()
    }

    /// See [`EngineState::inject_job`]. The run keeps its name node: the
    /// first injection replays the run's files once, and each later one
    /// places only its own file.
    pub fn inject_job(
        &mut self,
        profile: JobProfile,
        input_mb: f64,
        num_reduces: usize,
    ) -> Result<JobId, SimError> {
        let namenode = self
            .derived
            .namenode
            .get_or_insert_with(|| self.state.replay_namenode());
        let id = self
            .state
            .inject_job_placed(namenode, profile, input_mb, num_reduces)?;
        self.derived.extend(&self.state);
        Ok(id)
    }

    /// See [`EngineState::inject_fault`].
    pub fn inject_fault(&mut self, fault: simgrid::fault::NodeFault) -> Result<(), SimError> {
        self.state.inject_fault(fault)
    }
}
