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

use crate::arena::{EngineArena, Scratch};
use crate::counters::{Counter, CounterLedger};
use crate::events::{Event, EventLog};
use crate::job::{JobId, JobProfile, JobSpec};
use crate::policy::{PolicyContext, SlotPolicy, TrackerSnapshot};
use crate::report::{JobReport, RunReport};
use crate::rows::RowTable;
use crate::scheduler::{FifoScheduler, JobInProgress, MapCache};
use crate::shuffle::SourceSets;
use crate::slots::SlotSet;
use crate::stats::{ClusterStats, TrackerMeters};
use crate::task::{MapAttemptId, MapTask, MapTaskId, ReducePhase, ReduceTask, ReduceTaskId};
use dfs::NameNode;
use serde::{Deserialize, Serialize};
use simgrid::cluster::{ClusterSpec, NodeId};
use simgrid::error::SimError;
use simgrid::network::{Fabric, FabricConfig, Flow, FlowId};
use simgrid::node::NodeScales;
use simgrid::rng::SimRng;
use simgrid::time::{EventHorizon, SimDuration, SimTime, SteppingMode, TickConfig};
use simgrid::usage::NodeUsageSampler;
use std::collections::VecDeque;
use telemetry::Telemetry;

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
        EngineConfigBuilder::paper().build()
    }

    /// A small fast deployment for tests.
    pub fn small_test(workers: usize, seed: u64) -> EngineConfig {
        EngineConfigBuilder::paper()
            .workers(workers)
            .seed(seed)
            .build()
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

/// Builder for [`EngineConfig`]: starts from the paper testbed and applies
/// selective overrides (the single source of truth behind
/// [`EngineConfig::paper_default`] and [`EngineConfig::small_test`]).
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// The paper's testbed configuration as the starting point.
    pub fn paper() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig {
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
            },
        }
    }

    /// Replace the cluster with an arbitrary spec.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cfg.cluster = cluster;
        self
    }

    /// Shrink to a small test cluster of `workers` nodes.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.cluster = ClusterSpec::small(workers);
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Select the stepping mode (fixed reference ticks or adaptive
    /// event-horizon macro-steps).
    pub fn stepping(mut self, mode: SteppingMode) -> Self {
        self.cfg.tick.mode = mode;
        self
    }

    pub fn heartbeat(mut self, heartbeat: SimDuration) -> Self {
        self.cfg.heartbeat = heartbeat;
        self
    }

    pub fn sample_period(mut self, sample_period: SimDuration) -> Self {
        self.cfg.sample_period = sample_period;
        self
    }

    /// Schedule deterministic node crashes for the run.
    pub fn fault_plan(mut self, plan: simgrid::FaultPlan) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Enable or disable the job tracker's crash-recovery path.
    pub fn fault_recovery(mut self, on: bool) -> Self {
        self.cfg.fault_recovery = on;
        self
    }

    /// Tracker-expiry interval for heartbeat-timeout death detection.
    pub fn heartbeat_timeout(mut self, timeout: SimDuration) -> Self {
        self.cfg.heartbeat_timeout = timeout;
        self
    }

    pub fn build(self) -> EngineConfig {
        self.cfg
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

#[derive(Debug, Clone, Copy)]
pub(crate) enum FlowPurpose {
    /// Remote input stream feeding the non-local map at this map row.
    MapRead(usize),
    /// Shuffle fetch of the reduce at this reduce row from a source node.
    Fetch(usize, NodeId),
}

/// One granted shuffle fetch: the reduce at reduce row `row` pulling from
/// source node `src` at `rate` MB/s. `contended` marks fetches granted
/// less than they demanded (fabric contention): their depletion frees
/// bandwidth other flows are queued for, so the adaptive horizon must cut
/// there even before the shuffle endgame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchPost {
    row: usize,
    src: NodeId,
    rate: f64,
    contended: bool,
}

/// The allocate phase's output: every piecewise-constant rate in force for
/// the coming step. The horizon phase reads these to find the next event;
/// the integrate phase advances every task by exactly `rate × dt`.
///
/// Rates are indexed by **row**: a task's position in its settled table
/// when the allocate phase ran. Nothing changes the tables between that
/// phase and the walks that read the rates (map completions are compacted
/// only after `advance_maps` has read its rows), so every consumer walks
/// its table and reads the rate at the same position — no lookup. The
/// vectors are recycled step over step (via [`Sim::reclaim`]).
struct StepRates {
    /// Per-row node-contention scale (includes the management-stall
    /// factor): one entry per map row, then one per reduce row. A task on
    /// a down node scores 0.0.
    scales: Vec<f64>,
    /// Map rows when the scales were taken: the reduce at reduce row `r`
    /// has its scale at `map_rows + r`.
    map_rows: usize,
    /// Granted fabric bandwidth per map row (MB/s); 0.0 for a local map
    /// and for a remote one that got no flow.
    read_rates: Vec<f64>,
    /// Granted shuffle fetches, grouped by ascending reduce row, each
    /// group in ascending `src`.
    fetch_posts: Vec<FetchPost>,
    /// Offered CPU capacity rate (cores) while any job is active.
    cpu_offered_rate: f64,
    /// Granted CPU rate (cores) summed over running tasks.
    cpu_granted_rate: f64,
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

/// One splitmix64-style avalanche round folding word `w` into digest `h`.
/// This is the engine's hash-fold primitive: `state_hash` starts at
/// [`initial_state_hash`] and absorbs one word at a time, every step.
pub fn fold_hash(h: u64, w: u64) -> u64 {
    let mut z = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    /// Per-step wall-clock histogram (µs); only fed under the `profiling`
    /// feature, where the extra clock reads are accepted.
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

    /// Return a step's [`StepRates`] backing stores to the sim's scratch
    /// fields once integrate has consumed them, so the next allocate phase
    /// reuses the allocations instead of growing fresh ones.
    fn reclaim(&mut self, rates: StepRates) {
        self.scratch.scales = rates.scales;
        self.scratch.read_rates = rates.read_rates;
        self.scratch.fetch_posts = rates.fetch_posts;
    }

    /// Apply the launches and retirements pending on the map table and
    /// the failure points, which follow their attempts.
    fn settle_maps(&mut self) {
        self.st.running_maps.settle(&mut self.scratch.map_spare);
        self.st.failure_points.settle(&mut self.scratch.point_spare);
        debug_assert!(
            self.st
                .failure_points
                .rows()
                .iter()
                .all(|(aid, _)| self.st.running_maps.contains_key(aid)),
            "a failure point outlived its attempt"
        );
    }

    /// Apply the launches and retirements pending on the reduce table.
    fn settle_reduces(&mut self) {
        self.st
            .running_reduces
            .settle(&mut self.scratch.reduce_spare);
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
                let t0 = self.telem.clock_us();
                self.check_expired_trackers()?;
                self.heartbeat_round();
                self.telem
                    .record_span("engine", "heartbeat_round", t0, sim_ms);
            }
            let (rates, dt) = if fixed {
                let rates = self.allocate_step(Some(self.st.config.tick.dt_secs()));
                (rates, self.st.config.tick.tick)
            } else {
                let rates = self.allocate_step(None);
                let t0 = self.telem.clock_us();
                let dt = self.compute_horizon(&rates);
                self.telem.record_span("step", "event_horizon", t0, sim_ms);
                (rates, dt)
            };
            self.integrate(dt.as_secs_f64(), dt.as_millis(), &rates);
            self.reclaim(rates);
            if fixed && self.st.now.is_multiple_of(self.st.config.sample_period) {
                self.timed_sample(sim_ms);
            }
            self.st.steps += 1;
            self.step_counter.inc();
            if telemetry::PROFILING_ENABLED {
                let end = self.telem.clock_us();
                self.step_duration_us.record(end.saturating_sub(step_start));
            }
            self.st.now += dt;
            self.fold_step_hash();
            let finished = self.st.all_finished();
            if finished || (!fixed && self.st.now.is_multiple_of(self.st.config.sample_period)) {
                self.timed_sample(sim_ms);
            }
            if finished {
                return Ok(true);
            }
            if self.st.now > self.st.config.tick.horizon {
                return Err(self.horizon_error());
            }
        }
    }

    /// [`Sim::sample`] inside a telemetry span stamped with the step's
    /// start instant.
    fn timed_sample(&mut self, sim_ms: u64) {
        let t0 = self.telem.clock_us();
        self.sample();
        self.telem.record_span("engine", "sample", t0, sim_ms);
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
    /// straight run from the first post-resume step onwards.
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

    // ------------------------------------------------------------------
    // Heartbeat round: stats → policy → assignment
    // ------------------------------------------------------------------

    #[inline(never)]
    fn heartbeat_round(&mut self) {
        let sim_ms = self.st.now.as_millis();
        let t0 = self.telem.clock_us();
        let stats = self.aggregate_stats();
        self.telem
            .record_span("heartbeat", "aggregate_stats", t0, sim_ms);
        // dead and blacklisted trackers are invisible to the policy: slot
        // targets are recomputed over the live set only, so every policy
        // (SMapReduce included) is fault-aware without its own crash logic.
        // The snapshot list is a recycled cluster-sized buffer, so the
        // heartbeat fan-in stops allocating once it has seen a full round.
        let mut snapshots = std::mem::take(&mut self.scratch.snapshots);
        snapshots.clear();
        snapshots.extend(
            self.st
                .trackers
                .iter()
                .filter(|t| self.st.node_up[t.node.0] && !t.blacklisted)
                .map(|t| TrackerSnapshot {
                    node: t.node,
                    cores: self.st.config.cluster.node_spec(t.node).cores,
                    map_target: t.map_slots.target(),
                    map_occupied: t.map_slots.occupied(),
                    reduce_target: t.reduce_slots.target(),
                    reduce_occupied: t.reduce_slots.occupied(),
                }),
        );
        let ctx = PolicyContext {
            now: self.st.now,
            stats: &stats,
            trackers: &snapshots,
            init_map_slots: self.st.config.init_map_slots,
            init_reduce_slots: self.st.config.init_reduce_slots,
        };
        let t0 = self.telem.clock_us();
        let directives = self.policy.decide(&ctx);
        self.telem
            .record_span("heartbeat", "policy_decide", t0, sim_ms);
        self.scratch.snapshots = snapshots;
        let overhead = self.policy.directive_overhead_ms();
        for d in directives {
            let tr = &mut self.st.trackers[d.node.0];
            let mut changed = tr.map_slots.set_target(d.map_slots);
            changed |= tr.reduce_slots.set_target(d.reduce_slots);
            if changed {
                self.st.slot_changes += 1;
                tr.stall_ms += overhead;
                self.st.events.push(Event::SlotTargetsChanged {
                    at: self.st.now,
                    node: d.node,
                    map_slots: d.map_slots,
                    reduce_slots: d.reduce_slots,
                });
            }
        }
        let t0 = self.telem.clock_us();
        self.assign_tasks();
        self.settle_maps();
        self.settle_reduces();
        if self.st.config.speculative_maps {
            self.launch_speculative_backups();
        }
        self.telem
            .record_span("heartbeat", "assign_tasks", t0, sim_ms);
        self.st.heartbeat_round += 1;
        self.heartbeat_counter.inc();
    }

    /// Harvest every tracker's meters and aggregate active-job state.
    fn aggregate_stats(&mut self) -> ClusterStats {
        let mut s = ClusterStats {
            now: self.st.now,
            ..ClusterStats::default()
        };
        for i in 0..self.st.trackers.len() {
            let up = self.st.node_up[i];
            let tr = &mut self.st.trackers[i];
            // harvest everyone (keeps meter windows aligned), but a dead
            // node's slots are not part of the cluster's configured capacity
            let hb = tr.meters.harvest(self.st.now);
            s.map_input_rate += hb.map_input_rate;
            s.map_output_rate += hb.map_output_rate;
            s.shuffle_rate += hb.shuffle_rate;
            if up {
                s.map_slot_target += tr.map_slots.target();
                s.reduce_slot_target += tr.reduce_slots.target();
            }
        }
        for (rid, r) in self.st.running_reduces.rows() {
            if r.phase == ReducePhase::Shuffle && self.st.jobs[rid.job.0].is_active(self.st.now) {
                s.shuffling_reduces += 1;
            }
        }
        let now = self.st.now;
        for job in self.st.jobs.iter().filter(|j| j.is_active(now)) {
            s.total_maps += job.total_maps();
            s.pending_maps += job.pending_map_blocks.len();
            s.running_maps += job.running_maps;
            s.completed_maps += job.completed_maps;
            s.total_reduces += job.total_reduces();
            s.pending_reduces += job.pending_reduce_parts.len();
            if job.reduces_eligible(self.st.config.reduce_slowstart) {
                s.eligible_pending_reduces += job.pending_reduce_parts.len();
            }
            s.running_reduces += job.running_reduces;
            s.completed_reduces += job.completed_reduces;
            s.map_output_mb += job.shuffle.total_output_mb();
            s.est_shuffle_total_mb += job.spec.expected_shuffle_mb();
        }
        if s.total_reduces > 0 {
            s.est_shuffle_per_reduce_mb = s.est_shuffle_total_mb / s.total_reduces as f64;
        }
        s
    }

    /// Offer free slots to the scheduler, rotating the starting tracker
    /// each round so assignment pressure spreads evenly.
    fn assign_tasks(&mut self) {
        let workers = self.st.trackers.len();
        // a round launches at most one task per free slot and per pending
        // task: size the staging buffers for that once, rather than
        // regrowing them launch by launch (a 1024-node cell's first round
        // stages 2,048 maps)
        let (mut free_maps, mut free_reduces) = (0, 0);
        for tr in &self.st.trackers {
            free_maps += tr.map_slots.free();
            free_reduces += tr.reduce_slots.free();
        }
        let (mut maps, mut reduces) = (0, 0);
        for job in self.st.jobs.iter().filter(|j| j.is_active(self.st.now)) {
            maps += job.pending_map_blocks.len();
            if job.reduces_eligible(self.st.config.reduce_slowstart) {
                reduces += job.pending_reduce_parts.len();
            }
        }
        self.st.running_maps.reserve_staging(maps.min(free_maps));
        self.st
            .running_reduces
            .reserve_staging(reduces.min(free_reduces));
        let start = (self.st.heartbeat_round as usize) % workers;
        for k in 0..workers {
            let i = (start + k) % workers;
            if !self.st.node_up[i] || self.st.trackers[i].blacklisted {
                continue; // dead or blacklisted trackers get no work
            }
            let node = self.st.trackers[i].node;
            while self.st.trackers[i].map_slots.free() > 0 {
                let Some(a) = self.st.sched.pick_map(
                    &mut self.st.jobs,
                    &mut self.derived.map_cache,
                    node,
                    self.st.now,
                ) else {
                    break;
                };
                let jitter = self.draw_map_jitter();
                let task = MapTask::new(
                    a.id,
                    node,
                    &self.derived.profiles[a.id.job.0],
                    a.input_mb,
                    a.remote_src,
                    jitter,
                    self.st.now,
                );
                self.st.trackers[i].map_slots.launch();
                self.st.events.push(Event::MapLaunched {
                    at: self.st.now,
                    id: a.id,
                    node,
                    remote_read: a.remote_src.is_some(),
                });
                if a.remote_src.is_some() {
                    self.st.jobs[a.id.job.0].remote_launches += 1;
                } else {
                    self.st.jobs[a.id.job.0].local_launches += 1;
                }
                let c = &mut self.st.job_counters[a.id.job.0];
                c.inc(Counter::TotalLaunchedMaps);
                if a.remote_src.is_some() {
                    c.inc(Counter::RemoteMaps);
                } else {
                    c.inc(Counter::DataLocalMaps);
                }
                let aid = MapAttemptId::original(a.id);
                self.maybe_inject_failure(aid);
                self.st.running_maps.stage(aid, task);
            }
            while self.st.trackers[i].reduce_slots.free() > 0 {
                let Some(rid) = self.st.sched.pick_reduce(&mut self.st.jobs, self.st.now) else {
                    break;
                };
                let jitter = self.st.rng.jitter(self.st.config.jitter_amp);
                let task = ReduceTask::with_profile_overheads(
                    rid,
                    node,
                    workers,
                    &self.derived.profiles[rid.job.0],
                    jitter,
                    self.st.now,
                );
                self.derived.source_sets[rid.job.0]
                    .rebuild(&self.st.jobs[rid.job.0].shuffle, &task);
                self.st.trackers[i].reduce_slots.launch();
                self.st.job_counters[rid.job.0].inc(Counter::TotalLaunchedReduces);
                self.st.events.push(Event::ReduceLaunched {
                    at: self.st.now,
                    id: rid,
                    node,
                });
                self.st.running_reduces.stage(rid, task);
            }
        }
    }

    // ------------------------------------------------------------------
    // Physics, phase 1 — allocate: derive every rate in force for the step
    // ------------------------------------------------------------------

    /// Allocate node contention scales and fabric bandwidth. `fixed_dt` is
    /// `Some(tick seconds)` in fixed mode, where flow demands are capped
    /// by what one tick can consume; the adaptive stepper passes `None`
    /// and expresses pure rates — exhaustion becomes an event-horizon cut
    /// instead of a per-step demand cap.
    fn allocate_step(&mut self, fixed_dt: Option<f64>) -> StepRates {
        let sim_ms = self.st.now.as_millis();
        let t0 = self.telem.clock_us();
        let (scales, cpu_offered_rate, cpu_granted_rate) = self.allocate_nodes(fixed_dt.is_some());
        let map_rows = self.st.running_maps.len();
        self.telem.record_span("step", "allocate_nodes", t0, sim_ms);
        let t0 = self.telem.clock_us();
        let mut flows = std::mem::take(&mut self.scratch.flows);
        let mut purposes = std::mem::take(&mut self.scratch.purposes);
        let mut sources = std::mem::take(&mut self.scratch.sources);
        flows.clear();
        purposes.clear();
        let (map_scales, reduce_scales) = scales.split_at(map_rows);
        self.build_flows_into(
            fixed_dt,
            map_scales,
            reduce_scales,
            &mut flows,
            &mut purposes,
            &mut sources,
        );
        let mut grants = std::mem::take(&mut self.scratch.rates);
        let workers = self.st.trackers.len();
        self.derived
            .fabric
            .allocate_into(&flows, workers, &mut self.scratch.fabric, &mut grants);
        self.telem
            .record_span("step", "network_allocate", t0, sim_ms);

        // index flow grants by purpose: map reads by map row, fetches in
        // flow order, which groups them by ascending reduce row. A fetch
        // that got less than it asked for is *contended* — its depletion
        // frees fabric bandwidth others are waiting on, so it must be a
        // horizon event
        let mut read_rates = std::mem::take(&mut self.scratch.read_rates);
        let mut fetch_posts = std::mem::take(&mut self.scratch.fetch_posts);
        read_rates.clear();
        read_rates.resize(map_rows, 0.0);
        fetch_posts.clear();
        self.scratch.nic_in.fill(0.0);
        self.scratch.nic_out.fill(0.0);
        for ((flow, (fid, purpose)), &rate) in flows.iter().zip(&purposes).zip(&grants) {
            debug_assert_eq!(flow.id, *fid);
            self.scratch.nic_out[flow.src.0] += rate;
            self.scratch.nic_in[flow.dst.0] += rate;
            match *purpose {
                FlowPurpose::MapRead(row) => read_rates[row] = rate,
                FlowPurpose::Fetch(row, src) => fetch_posts.push(FetchPost {
                    row,
                    src,
                    rate,
                    contended: rate + 1e-9 < flow.demand,
                }),
            }
        }
        // a reduce's sources come backlog-first; its consumers apply them
        // in ascending `src`, and a group holds at most `shuffle_fetchers`
        for group in fetch_posts.chunk_by_mut(|a, b| a.row == b.row) {
            group.sort_unstable_by_key(|p| p.src);
        }
        self.scratch.flows = flows;
        self.scratch.purposes = purposes;
        self.scratch.sources = sources;
        self.scratch.rates = grants;
        StepRates {
            scales,
            map_rows,
            read_rates,
            fetch_posts,
            cpu_offered_rate,
            cpu_granted_rate,
        }
    }

    // ------------------------------------------------------------------
    // Physics, phase 3 — integrate: advance every piecewise-constant
    // integrator by exactly `dt` at the rates fixed in phase 1
    // ------------------------------------------------------------------

    #[inline(never)]
    fn integrate(&mut self, dt: f64, dt_ms: u64, rates: &StepRates) {
        let sim_ms = self.st.now.as_millis();
        // fold this step's grants into the utilization sampler before any
        // task completes and releases its slot: the rates were computed
        // against step-start occupancy, so that is what the step sustains.
        // Down nodes integrate nothing — their timelines gap over the
        // outage.
        self.st.usage.accumulate_all(
            dt,
            &self.st.node_up,
            &self.scratch.node_cpu,
            &self.scratch.node_disk,
            &self.scratch.nic_in,
            &self.scratch.nic_out,
            &self.scratch.occ_map,
            &self.scratch.occ_reduce,
        );
        // map completions are compacted out before the reduces advance,
        // so the reduces read their scales at their own rows
        let (map_scales, reduce_scales) = rates.scales.split_at(rates.map_rows);
        let t0 = self.telem.clock_us();
        self.advance_maps(dt, map_scales, &rates.read_rates);
        self.telem.record_span("step", "advance_maps", t0, sim_ms);
        let t0 = self.telem.clock_us();
        self.advance_reduces(dt, reduce_scales, &rates.fetch_posts);
        self.telem
            .record_span("step", "advance_reduces", t0, sim_ms);

        self.st.cpu_offered_core_s += rates.cpu_offered_rate * dt;
        self.st.cpu_granted_core_s += rates.cpu_granted_rate * dt;

        // decay management stalls
        for tr in &mut self.st.trackers {
            tr.stall_ms = tr.stall_ms.saturating_sub(dt_ms);
        }
        self.advance_rereplication(dt);
    }

    // ------------------------------------------------------------------
    // Physics, phase 2 — event horizon: how far the current rates stay valid
    // ------------------------------------------------------------------

    /// Earliest upcoming event at the rates fixed by [`Sim::allocate_step`]:
    /// the next heartbeat or sample boundary, a stall expiring, a job
    /// arriving, a map attempt finishing (or crossing its injected failure
    /// point), a shuffle source draining, or a sort/reduce phase ending.
    /// Advancing by exactly this duration loses no intermediate state
    /// because every integrator is piecewise-constant in between.
    fn compute_horizon(&self, rates: &StepRates) -> SimDuration {
        let mut horizon =
            EventHorizon::new(self.st.now.until_next_multiple_of(self.st.config.heartbeat));
        // cascades of task events within one tick-width merge into a single
        // step: the integrators clamp the overshoot, so adaptive stepping
        // is never *less* precise about an event time than the fixed grid
        horizon.coalesce_events(self.st.config.tick.tick);
        horizon.propose(
            self.st
                .now
                .until_next_multiple_of(self.st.config.sample_period),
        );
        // crash/rejoin instants are exact events: the step lands on them
        if let Some(t) = self.st.config.fault_plan.next_transition_after(self.st.now) {
            horizon.propose(t.since(self.st.now));
        }

        for tr in &self.st.trackers {
            if tr.stall_ms > 0 {
                horizon.propose(SimDuration::from_millis(tr.stall_ms));
            }
        }
        for job in &self.st.jobs {
            if job.spec.submit_at > self.st.now {
                horizon.propose(job.spec.submit_at.since(self.st.now));
            }
        }

        let (map_scales, reduce_scales) = rates.scales.split_at(rates.map_rows);
        let maps = self.st.running_maps.rows();
        debug_assert_eq!(maps.len(), map_scales.len(), "scale rows out of step");
        for (row, (id, t)) in maps.iter().enumerate() {
            let profile = &self.derived.profiles[id.task.job.0];
            let work_rate = t.effective_work_rate(profile, map_scales[row], rates.read_rates[row]);
            if let Some(s) = t.time_to_completion(work_rate) {
                horizon.propose_secs(s);
            }
            if let Some(&fail_at) = self.st.failure_points.get(id) {
                if let Some(s) = t.time_to_progress(fail_at, work_rate) {
                    horizon.propose_secs(s);
                }
            }
        }

        let reduces = self.st.running_reduces.rows();
        debug_assert_eq!(reduces.len(), reduce_scales.len(), "scale rows out of step");
        let mut fetch_cursor = 0usize;
        for (row, (rid, r)) in reduces.iter().enumerate() {
            let profile = &self.derived.profiles[rid.job.0];
            let job = &self.st.jobs[rid.job.0];
            let scale = reduce_scales[row];
            match r.phase {
                ReducePhase::Shuffle => {
                    // pre-barrier, sources refill only at map completions —
                    // which are horizon events themselves — so draining one
                    // changes no rate anyone is waiting on unless the flow
                    // was fabric-contended. Post-barrier (endgame) every
                    // drain leads to the shuffle→sort transition and must
                    // cut the step.
                    let endgame = job.shuffle.maps_all_done();
                    let boost = if endgame {
                        profile.shuffle_barrier_boost
                    } else {
                        1.0
                    };
                    let budget = profile.shuffle_merge_rate * scale * boost;
                    let local_rem = job.shuffle.remaining_from(r, r.node);
                    if endgame && local_rem > 0.0 {
                        horizon.propose_depletion(
                            local_rem,
                            self.st.config.local_copy_rate.min(budget),
                        );
                    }
                    // the posts are grouped by ascending reduce row and
                    // only shuffling reduces have any, so one forward
                    // cursor meets each group exactly when its row comes
                    while let Some(&p) =
                        rates.fetch_posts.get(fetch_cursor).filter(|p| p.row == row)
                    {
                        fetch_cursor += 1;
                        if endgame || p.contended {
                            horizon.propose_depletion(job.shuffle.remaining_from(r, p.src), p.rate);
                        }
                    }
                }
                ReducePhase::Sort | ReducePhase::Reduce => {
                    if let Some(s) = r.time_to_phase_completion(r.phase_rate(profile) * scale) {
                        horizon.propose_secs(s);
                    }
                }
                // completion is detected on the next integrate call
                ReducePhase::Done => horizon.propose(SimDuration::from_millis(1)),
            }
        }
        debug_assert_eq!(
            fetch_cursor,
            rates.fetch_posts.len(),
            "a fetch group went unread"
        );
        horizon.resolve()
    }

    /// Per-node contention scales for every running task, including the
    /// management-overhead stall factor, plus the offered/granted CPU
    /// *rates* (integrated over the step length later). In fixed mode a
    /// stall is amortised across the tick it partially covers; the
    /// adaptive stepper freezes the node outright and lets the horizon cut
    /// the step at stall expiry instead.
    fn allocate_nodes(&mut self, fixed: bool) -> (Vec<f64>, f64, f64) {
        let workers = self.st.trackers.len();
        self.scratch.node_cpu.fill(0.0);
        self.scratch.node_disk.fill(0.0);
        // recycle the per-node task lists: clear each inner list, keep the
        // backing allocations from previous steps (and previous cells)
        let mut node_tasks = std::mem::take(&mut self.scratch.node_tasks);
        for tasks in &mut node_tasks {
            tasks.clear();
        }
        node_tasks.resize_with(workers, Vec::new);
        // gather the map rows, then the reduce rows, so the scale table
        // is born in row order; each per-node entry keeps its task's
        // table index, and the node pass writes the scale in place (a task
        // on a down node keeps 0.0)
        let mut out = std::mem::take(&mut self.scratch.scales);
        out.clear();
        for (id, t) in self.st.running_maps.rows() {
            let profile = &self.derived.profiles[id.task.job.0];
            node_tasks[t.node.0].push((out.len(), profile.map_demand()));
            out.push(0.0);
        }
        for (id, t) in self.st.running_reduces.rows() {
            let profile = &self.derived.profiles[id.job.0];
            node_tasks[t.node.0].push((out.len(), t.demand(profile)));
            out.push(0.0);
        }
        let tick_ms = self.st.config.tick.tick.as_millis() as f64;
        let any_active = self.st.jobs.iter().any(|j| j.is_active(self.st.now));
        let mut offered = 0.0;
        let mut granted = 0.0;
        for (n, tasks) in node_tasks.iter().enumerate() {
            if !self.st.node_up[n] {
                // a dead node offers no CPU; its tasks freeze at scale 0
                // until the expiry interval declares them lost
                continue;
            }
            // snapshot step-start slot occupancy for the usage sampler
            // here, where the tracker is already in cache; nothing changes
            // it before the integrate phase reads the snapshot
            self.scratch.occ_map[n] = self.st.trackers[n].map_slots.occupied();
            self.scratch.occ_reduce[n] = self.st.trackers[n].reduce_slots.occupied();
            if any_active {
                offered += self.st.config.cluster.node_spec(NodeId(n)).cores;
            }
            if tasks.is_empty() {
                continue;
            }
            self.scratch.demands.clear();
            self.scratch.demands.extend(tasks.iter().map(|t| t.1));
            let scales = NodeScales::of(
                self.st.config.cluster.node_spec(NodeId(n)),
                &self.scratch.demands,
            );
            let stall_factor = if fixed {
                1.0 - self.st.trackers[n].stall_ms.min(tick_ms as u64) as f64 / tick_ms
            } else if self.st.trackers[n].stall_ms > 0 {
                0.0
            } else {
                1.0
            };
            for &(ix, d) in tasks {
                let s = scales.task(&d);
                granted += d.cpu_cores * s * stall_factor;
                self.scratch.node_cpu[n] += d.cpu_cores * s * stall_factor;
                self.scratch.node_disk[n] += (d.disk_read + d.disk_write) * s * stall_factor;
                out[ix] = s * stall_factor;
            }
        }
        self.scratch.node_tasks = node_tasks;
        (out, offered, granted)
    }

    /// Construct this step's network flows: remote map reads and shuffle
    /// fetches (the latter capped by each reduce's merge throughput), at
    /// the per-row scales of the map and reduce tables. Appends into
    /// caller-owned (recycled) lists; both arrive empty.
    fn build_flows_into(
        &self,
        fixed_dt: Option<f64>,
        map_scales: &[f64],
        reduce_scales: &[f64],
        flows: &mut Vec<Flow>,
        purposes: &mut Vec<(FlowId, FlowPurpose)>,
        sources: &mut Vec<(NodeId, f64)>,
    ) {
        let mut next = 0u64;

        for (row, (id, t)) in self.st.running_maps.rows().iter().enumerate() {
            let Some(src) = t.remote_src else { continue };
            if t.input_remaining <= 1e-9 {
                continue;
            }
            if !self.st.node_up[src.0] || !self.st.node_up[t.node.0] {
                continue; // either endpoint dead: nothing flows
            }
            let profile = &self.derived.profiles[id.task.job.0];
            // input consumption rate implied by the granted work rate
            let work_rate = profile.map_rate * map_scales[row];
            let input_rate = if t.work_total > 0.0 {
                work_rate * t.input_mb / t.work_total
            } else {
                0.0
            };
            // fixed mode caps demand by what this tick can consume; the
            // adaptive stepper expresses the pure rate and relies on the
            // event horizon to cut the step at exhaustion
            let demand = match fixed_dt {
                Some(dt) => input_rate.min(t.input_remaining / dt),
                None => input_rate,
            };
            if demand <= 0.0 {
                continue;
            }
            let fid = FlowId(next);
            next += 1;
            flows.push(Flow {
                id: fid,
                src,
                dst: t.node,
                demand,
            });
            purposes.push((fid, FlowPurpose::MapRead(row)));
        }

        for (row, (rid, r)) in self.st.running_reduces.rows().iter().enumerate() {
            if r.phase != ReducePhase::Shuffle || !self.st.node_up[r.node.0] {
                continue;
            }
            let profile = &self.derived.profiles[rid.job.0];
            let job = &self.st.jobs[rid.job.0];
            let scale = reduce_scales[row];
            // merge-throughput budget for this tick, shared across sources;
            // T_r2 > T_r1: the cap rises once the barrier frees the sources
            let boost = if job.shuffle.maps_all_done() {
                profile.shuffle_barrier_boost
            } else {
                1.0
            };
            let mut budget = profile.shuffle_merge_rate * scale * boost;
            // local copy consumes part of the budget without the fabric
            let local_rem = job.shuffle.remaining_from(r, r.node);
            if local_rem > 0.0 {
                let local_rate = match fixed_dt {
                    Some(dt) => (local_rem / dt).min(self.st.config.local_copy_rate),
                    None => self.st.config.local_copy_rate,
                };
                budget -= local_rate.min(budget);
            }
            job.shuffle.fetch_sources_into(
                r,
                &self.derived.source_sets[rid.job.0],
                profile.shuffle_fetchers as usize,
                sources,
            );
            sources.retain(|&(src, _)| src != r.node && self.st.node_up[src.0]);
            // adaptive mode splits the budget proportionally to each
            // source's remaining data, so every granted source depletes at
            // the *same* instant — one horizon event per drain instead of
            // one per source
            let remote_total: f64 = sources.iter().map(|s| s.1).sum();
            for &(src, rem) in sources.iter() {
                if budget <= 1e-9 {
                    continue;
                }
                let demand = match fixed_dt {
                    Some(dt) => {
                        let d = (rem / dt).min(budget);
                        budget -= d;
                        d
                    }
                    None => budget * rem / remote_total,
                };
                if demand <= 1e-9 {
                    continue;
                }
                let fid = FlowId(next);
                next += 1;
                flows.push(Flow {
                    id: fid,
                    src,
                    dst: r.node,
                    demand,
                });
                purposes.push((fid, FlowPurpose::Fetch(row, src)));
            }
        }
    }

    /// Advance every map row at its scale and read rate, then retire the
    /// attempts that failed or finished and settle the table.
    fn advance_maps(&mut self, dt: f64, scales: &[f64], read_rates: &[f64]) {
        let mut done = Vec::new();
        let mut failed = Vec::new();
        let profiles = &self.derived.profiles;
        let EngineState {
            running_maps,
            trackers,
            failure_points,
            network_mb,
            map_input_processed_mb,
            job_counters,
            ..
        } = &mut *self.st;
        let maps = running_maps.rows_mut();
        debug_assert_eq!(maps.len(), scales.len(), "scale rows out of step");
        for (row, (id, t)) in maps.iter_mut().enumerate() {
            let profile = &profiles[id.task.job.0];
            let mut work_step = profile.map_rate * scales[row] * dt;
            if t.remote_src.is_some() && t.input_remaining > 1e-9 {
                // input arrives over the network; cap work by delivery
                let delivered = read_rates[row] * dt;
                let arrived = delivered.min(t.input_remaining);
                *network_mb += arrived;
                job_counters[id.task.job.0].add(Counter::RemoteBytesRead, arrived);
                let work_cap = if t.input_mb > 0.0 {
                    delivered * t.work_total / t.input_mb
                } else {
                    work_step
                };
                work_step = work_step.min(work_cap);
            }
            let (consumed, _produced) = t.advance(work_step);
            trackers[t.node.0].meters.map_input.record(consumed);
            *map_input_processed_mb += consumed;
            job_counters[id.task.job.0].add(Counter::HdfsBytesRead, consumed);
            if let Some(&fail_at) = failure_points.get(id) {
                // reached_progress is the exact complement of the horizon's
                // time_to_progress, so a failure point landed on precisely
                // is never skipped (it used to be, one ulp under)
                if t.reached_progress(fail_at) {
                    failed.push(*id);
                    continue;
                }
            }
            if t.is_done() {
                done.push(*id);
            }
        }
        for id in failed {
            self.fail_map(id);
        }
        for id in done {
            self.complete_map(id);
        }
        self.settle_maps();
    }

    /// Kill a failed attempt and re-queue its block (Hadoop task retry).
    fn fail_map(&mut self, aid: MapAttemptId) {
        let node = self.remove_map_attempt(aid);
        self.st.map_failures += 1;
        self.st.job_counters[aid.task.job.0].inc(Counter::FailedMaps);
        self.st.events.push(Event::MapFailed {
            at: self.st.now,
            id: aid.task,
            node,
        });
        self.charge_tracker_failure(node);
    }

    /// Retire a running attempt, release its slot, and re-queue its block
    /// unless a sibling attempt still covers it. Returns the attempt's
    /// node. Shared by the retry and node-crash paths.
    fn remove_map_attempt(&mut self, aid: MapAttemptId) -> NodeId {
        let node = self
            .st
            .running_maps
            .retire(&aid, |t| t.node)
            .expect("removing unknown map attempt");
        self.st.failure_points.retire(&aid, |_| ());
        self.st.trackers[node.0].map_slots.release();
        let ji = aid.task.job.0;
        let job = &mut self.st.jobs[ji];
        job.running_maps -= 1;
        let sibling = MapAttemptId {
            task: aid.task,
            attempt: 1 - aid.attempt,
        };
        if !job.completed_blocks[aid.task.index] && !self.st.running_maps.contains_key(&sibling) {
            self.derived.map_cache.requeue(ji, job, aid.task.index);
        }
        node
    }

    /// Count an attempt failure against its tracker; enough of them get
    /// the tracker blacklisted (Hadoop's `mapred.max.tracker.failures`).
    /// Crash kills are not charged — the tracker is already dead.
    fn charge_tracker_failure(&mut self, node: NodeId) {
        let tr = &mut self.st.trackers[node.0];
        tr.attempt_failures += 1;
        if !tr.blacklisted && tr.attempt_failures >= self.st.config.blacklist_threshold {
            tr.blacklisted = true;
            self.st.trackers_blacklisted += 1;
            self.st.events.push(Event::TrackerBlacklisted {
                at: self.st.now,
                node,
            });
        }
    }

    /// Service-time factor for a new map attempt: base jitter, possibly
    /// multiplied by the degraded-path slowdown.
    fn draw_map_jitter(&mut self) -> f64 {
        let mut j = self.st.rng.jitter(self.st.config.jitter_amp);
        if self.st.config.straggler_rate > 0.0 && self.st.rng.unit() < self.st.config.straggler_rate
        {
            j *= self.st.config.straggler_slowdown;
        }
        j
    }

    /// Roll the dice for an attempt's injected failure.
    fn maybe_inject_failure(&mut self, aid: MapAttemptId) {
        if self.st.config.map_failure_rate > 0.0
            && self.st.rng.unit() < self.st.config.map_failure_rate
        {
            // die somewhere in the middle of the run
            let fail_at = 0.1 + 0.8 * self.st.rng.unit();
            self.st.failure_points.stage(aid, fail_at);
        }
    }

    fn complete_map(&mut self, aid: MapAttemptId) {
        let task = self
            .st
            .running_maps
            .retire(&aid, MapTask::clone)
            .expect("completing unknown map attempt");
        self.st.failure_points.retire(&aid, |_| ());
        let id = aid.task;
        let job = &mut self.st.jobs[id.job.0];
        self.st.trackers[task.node.0].map_slots.release();
        job.running_maps -= 1;
        if job.completed_blocks[id.index] {
            // a sibling attempt finished in this same step and delivered
            // the block first; this one's work is discarded
            self.st.job_counters[id.job.0].inc(Counter::DiscardedMaps);
            self.st.events.push(Event::MapDiscarded {
                at: self.st.now,
                id,
                node: task.node,
            });
            return;
        }
        job.completed_blocks[id.index] = true;
        if aid.attempt > 0 {
            self.st.speculative_wins += 1;
        }
        // §IV-B: the MapTask records its output size upon completion; both
        // the meter and the shuffle availability are credited here. (The
        // slot manager averages the resulting lumpy rate over its balance
        // window — crediting production *continuously* instead would make
        // R_m lead R_s by a full task duration after every slot increase
        // and fake a shuffle lag.)
        self.st.trackers[task.node.0]
            .meters
            .map_output
            .record(task.output_mb);
        job.shuffle.on_map_complete(task.node, task.output_mb);
        self.derived.source_sets[id.job.0].map_completed(task.node);
        let c = &mut self.st.job_counters[id.job.0];
        c.add(Counter::MapOutputMb, task.output_mb);
        c.add(Counter::SpilledRecords, task.output_mb);
        // remember where the output landed: if that node crashes while a
        // reducer still needs the data, the map is re-executed
        job.block_output_node[id.index] = Some(task.node);
        job.completed_maps += 1;
        job.map_durations
            .push(self.st.now.since(task.started_at).as_secs_f64());
        self.st.events.push(Event::MapCompleted {
            at: self.st.now,
            id,
            node: task.node,
            output_mb: task.output_mb,
        });
        // kill the losing sibling attempt, if any. A sibling that has
        // finished too is in this step's completions, after this one: it
        // is not killed but completes and is discarded
        let sibling = MapAttemptId {
            task: id,
            attempt: 1 - aid.attempt,
        };
        if self
            .st
            .running_maps
            .get(&sibling)
            .is_some_and(|t| !t.is_done())
        {
            let node = self
                .st
                .running_maps
                .retire(&sibling, |t| t.node)
                .expect("live sibling");
            self.st.failure_points.retire(&sibling, |_| ());
            self.st.trackers[node.0].map_slots.release();
            self.st.jobs[id.job.0].running_maps -= 1;
            self.st.job_counters[id.job.0].inc(Counter::KilledAttempts);
            self.st.events.push(Event::MapKilled {
                at: self.st.now,
                id,
                node,
            });
        }
        let job = &mut self.st.jobs[id.job.0];
        if job.all_maps_done() {
            job.maps_done_at.get_or_insert(self.st.now);
            job.shuffle.set_maps_all_done();
            self.st.events.push(Event::BarrierCrossed {
                at: self.st.now,
                job: id.job,
            });
        }
    }

    /// Hadoop-style speculative execution: once a job has no pending maps,
    /// idle map slots may run backup attempts of its slowest running maps.
    fn launch_speculative_backups(&mut self) {
        let now = self.st.now;
        let min_rt = self.st.config.speculation_min_runtime;
        for j in 0..self.st.jobs.len() {
            let job = &self.st.jobs[j];
            if !job.is_active(now) || !job.pending_map_blocks.is_empty() || job.all_maps_done() {
                continue;
            }
            // LATE-style trigger: an original attempt is a straggler when
            // it has already run longer than the job's completed tasks
            // typically take (by the configured gap) yet is still short of
            // done. Comparing against *completed* durations (not the
            // running mean) keeps the trigger alive in the last wave,
            // where only stragglers remain running.
            if job.map_durations.len() < 5 {
                continue; // not enough history to call anyone slow
            }
            let mean_dur: f64 =
                job.map_durations.iter().sum::<f64>() / job.map_durations.len() as f64;
            let overdue = mean_dur * (1.0 + self.st.config.speculation_gap);
            let mut stragglers: Vec<(MapAttemptId, f64)> = self
                .st
                .running_maps
                .rows()
                .iter()
                .filter(|(a, t)| {
                    a.task.job.0 == j
                        && a.attempt == 0
                        && now.since(t.started_at) >= min_rt
                        && now.since(t.started_at).as_secs_f64() > overdue
                        && t.progress() < 0.95
                        && !self
                            .st
                            .running_maps
                            .contains_key(&MapAttemptId::backup(a.task))
                        && !self.st.jobs[j].completed_blocks[a.task.index]
                })
                .map(|(a, t)| (*a, t.progress()))
                .collect();
            stragglers.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite progress"));
            for (aid, _) in stragglers {
                let origin = self.st.running_maps.get(&aid).expect("straggler").node;
                // pick the tracker with the most free map slots, avoiding
                // the straggler's own (possibly overloaded) node
                let Some(i) = (0..self.st.trackers.len())
                    .filter(|&i| {
                        self.st.node_up[i]
                            && !self.st.trackers[i].blacklisted
                            && self.st.trackers[i].map_slots.free() > 0
                            && NodeId(i) != origin
                    })
                    .max_by_key(|&i| self.st.trackers[i].map_slots.free())
                else {
                    break; // no free slots anywhere else
                };
                let node = self.st.trackers[i].node;
                let (block_mb, remote_src) = {
                    let block = &self.st.jobs[j].layout.blocks[aid.task.index];
                    let src = if block.is_local_to(node) {
                        None
                    } else {
                        match block.replicas.first() {
                            Some(&s) => Some(s),
                            // every replica died with its node; the original
                            // attempt already has the data streamed/local
                            None => continue,
                        }
                    };
                    (block.size_mb, src)
                };
                let jitter = self.draw_map_jitter();
                let backup = MapTask::new(
                    aid.task,
                    node,
                    &self.derived.profiles[j],
                    block_mb,
                    remote_src,
                    jitter,
                    now,
                );
                self.st.trackers[i].map_slots.launch();
                self.st.jobs[j].running_maps += 1;
                self.st.speculative_attempts += 1;
                let c = &mut self.st.job_counters[j];
                c.inc(Counter::SpeculativeMaps);
                c.inc(Counter::TotalLaunchedMaps);
                if remote_src.is_some() {
                    c.inc(Counter::RemoteMaps);
                } else {
                    c.inc(Counter::DataLocalMaps);
                }
                self.st.events.push(Event::MapLaunched {
                    at: now,
                    id: aid.task,
                    node,
                    remote_read: remote_src.is_some(),
                });
                let bid = MapAttemptId::backup(aid.task);
                self.maybe_inject_failure(bid);
                self.st.running_maps.stage(bid, backup);
            }
            // the next job's straggler scan walks the table
            self.settle_maps();
        }
    }

    /// Advance every reduce row at its scale and granted fetches, then
    /// retire the finished reduces and settle the table.
    fn advance_reduces(&mut self, dt: f64, scales: &[f64], fetch_posts: &[FetchPost]) {
        let mut done = Vec::new();
        let Derived {
            profiles,
            source_sets,
            ..
        } = &mut *self.derived;
        let EngineState {
            running_reduces,
            jobs,
            trackers,
            config: cfg,
            now,
            events,
            network_mb,
            job_counters,
            ..
        } = &mut *self.st;
        let reduces = running_reduces.rows_mut();
        debug_assert_eq!(reduces.len(), scales.len(), "scale rows out of step");
        let mut fetch_cursor = 0usize;
        for (row, (rid, r)) in reduces.iter_mut().enumerate() {
            let profile = &profiles[rid.job.0];
            let job = &jobs[rid.job.0];
            let scale = scales[row];
            match r.phase {
                ReducePhase::Shuffle => {
                    let sets = &mut source_sets[rid.job.0];
                    let boost = if job.shuffle.maps_all_done() {
                        profile.shuffle_barrier_boost
                    } else {
                        1.0
                    };
                    // local copy first (no fabric), bounded by merge budget
                    let budget = profile.shuffle_merge_rate * scale * boost * dt;
                    let mut used = 0.0;
                    let local_rem = job.shuffle.remaining_from(r, r.node);
                    if local_rem > 0.0 {
                        let mb = local_rem.min(cfg.local_copy_rate * dt).min(budget);
                        if mb > 0.0 {
                            r.record_fetch(r.node, mb);
                            sets.fetched(&job.shuffle, r, r.node);
                            trackers[r.node.0].meters.shuffle.record(mb);
                            let c = &mut job_counters[rid.job.0];
                            c.add(Counter::ShuffleFetchedMb, mb);
                            c.add(Counter::SpilledRecords, mb);
                            used += mb;
                        }
                    }
                    // granted fabric fetches: this reduce's posts are the
                    // group at the cursor, in the ascending-source apply
                    // order the budget arithmetic depends on
                    while let Some(&p) = fetch_posts.get(fetch_cursor).filter(|p| p.row == row) {
                        fetch_cursor += 1;
                        debug_assert!(p.src != r.node, "no fetch flow targets its own node");
                        if p.rate <= 0.0 {
                            continue;
                        }
                        let rem = job.shuffle.remaining_from(r, p.src);
                        let mb = (p.rate * dt).min(rem).min((budget - used).max(0.0));
                        if mb > 0.0 {
                            r.record_fetch(p.src, mb);
                            sets.fetched(&job.shuffle, r, p.src);
                            trackers[r.node.0].meters.shuffle.record(mb);
                            *network_mb += mb;
                            let c = &mut job_counters[rid.job.0];
                            c.add(Counter::ShuffleFetchedMb, mb);
                            c.add(Counter::ShuffleRemoteMb, mb);
                            c.add(Counter::SpilledRecords, mb);
                            used += mb;
                        }
                    }
                    if job.shuffle.shuffle_complete(r, sets) {
                        let partition = job
                            .shuffle
                            .partition_mb()
                            .expect("barrier implies known partition");
                        r.finish_shuffle(partition, *now);
                        events.push(Event::ShuffleCompleted {
                            at: *now,
                            id: *rid,
                            partition_mb: partition,
                        });
                    }
                }
                ReducePhase::Sort | ReducePhase::Reduce => {
                    let work = r.phase_rate(profile) * scale * dt;
                    if r.advance_compute(work) {
                        done.push(*rid);
                    }
                }
                ReducePhase::Done => done.push(*rid),
            }
        }
        debug_assert_eq!(fetch_cursor, fetch_posts.len(), "a fetch group went unread");
        for rid in done {
            self.complete_reduce(rid);
        }
        self.settle_reduces();
    }

    fn complete_reduce(&mut self, rid: ReduceTaskId) {
        let (node, started_at) = self
            .st
            .running_reduces
            .retire(&rid, |t| (t.node, t.started_at))
            .expect("completing unknown reduce");
        let job = &mut self.st.jobs[rid.job.0];
        self.st.trackers[node.0].reduce_slots.release();
        job.running_reduces -= 1;
        job.completed_reduces += 1;
        job.reduce_durations
            .push(self.st.now.since(started_at).as_secs_f64());
        self.st.events.push(Event::ReduceCompleted {
            at: self.st.now,
            id: rid,
            node,
        });
        if job.completed_reduces == job.total_reduces() && job.all_maps_done() {
            job.finished_at.get_or_insert(self.st.now);
            self.st.events.push(Event::JobFinished {
                at: self.st.now,
                job: rid.job,
            });
        }
    }

    // ------------------------------------------------------------------
    // Faults: crash/rejoin transitions, death detection, recovery
    // ------------------------------------------------------------------

    /// Apply every fault-plan transition with an instant in
    /// `(faults_done_until, now]`. In adaptive mode the horizon lands each
    /// step exactly on the next transition; in fixed mode an off-grid
    /// instant is picked up by the first later tick. Crashes sort before
    /// rejoins at the same instant so a zero-gap schedule still cycles.
    #[inline(never)]
    fn process_fault_transitions(&mut self) -> Result<(), SimError> {
        if self.st.config.fault_plan.is_empty() {
            return Ok(());
        }
        let mut transitions: Vec<(SimTime, bool, NodeId)> = Vec::new();
        for f in self.st.config.fault_plan.faults() {
            if f.at > self.st.faults_done_until && f.at <= self.st.now {
                transitions.push((f.at, false, f.node));
            }
            if let Some(r) = f.rejoin_at() {
                if r > self.st.faults_done_until && r <= self.st.now {
                    transitions.push((r, true, f.node));
                }
            }
        }
        self.st.faults_done_until = self.st.now;
        transitions.sort_by_key(|&(t, rejoin, n)| (t, rejoin, n.0));
        for (_, rejoin, node) in transitions {
            if rejoin {
                self.rejoin_node(node)?;
            } else {
                self.crash_node(node);
            }
        }
        Ok(())
    }

    /// The physical half of a crash, applied at the crash instant: the
    /// node stops offering CPU and bandwidth (its tasks freeze in place),
    /// remote readers streaming input *from* it lose their source
    /// immediately, and its DFS replicas are gone. The *scheduler's*
    /// reaction waits for heartbeat-timeout detection or re-registration.
    fn crash_node(&mut self, d: NodeId) {
        if !self.st.node_up[d.0] {
            return; // overlapping faults: already down
        }
        self.st.node_up[d.0] = false;
        self.st.node_crashes += 1;
        self.node_crash_counter.inc();
        let tr = &mut self.st.trackers[d.0];
        tr.down_since = Some(self.st.now);
        tr.lost_handled = false;
        self.st.events.push(Event::NodeCrashed {
            at: self.st.now,
            node: d,
        });
        let readers: Vec<MapAttemptId> = self
            .st
            .running_maps
            .rows()
            .iter()
            .filter(|(_, t)| t.node != d && t.remote_src == Some(d) && t.input_remaining > 1e-9)
            .map(|(a, _)| *a)
            .collect();
        for aid in readers {
            let node = self.remove_map_attempt(aid);
            self.st.crash_task_kills += 1;
            self.st.job_counters[aid.task.job.0].inc(Counter::KilledAttempts);
            self.st.events.push(Event::MapKilled {
                at: self.st.now,
                id: aid.task,
                node,
            });
        }
        self.settle_maps();
        self.lose_replicas(d);
    }

    /// Drop the dead node from every unfinished job's replica lists and
    /// queue under-replicated blocks for re-replication (survivors first).
    /// The per-node postings say exactly which blocks held a replica on
    /// `d`, so the scan is O(blocks on d), not O(all blocks × replicas).
    fn lose_replicas(&mut self, d: NodeId) {
        let live = self.st.node_up.iter().filter(|&&u| u).count();
        for (ji, job) in self.st.jobs.iter_mut().enumerate() {
            let mut posted = std::mem::take(&mut self.derived.replica_postings[ji][d.0]);
            if job.is_finished() {
                continue; // stale postings of a finished job are never read
            }
            // re-replication appends out of block order; restore the
            // ascending-block queueing order of the old full scan
            posted.sort_unstable();
            for &bi in &posted {
                let bi = bi as usize;
                let block = &mut job.layout.blocks[bi];
                let before = block.replicas.len();
                block.replicas.retain(|&n| n != d);
                debug_assert!(block.replicas.len() < before, "posting without replica");
                let desired = self.st.replication.min(live);
                if self.st.config.rereplication_rate > 0.0
                    && !block.replicas.is_empty()
                    && block.replicas.len() < desired
                    && !self.st.rerep_queue.contains(&(ji, bi))
                {
                    self.st.rerep_queue.push_back((ji, bi));
                }
            }
        }
    }

    /// A transiently-failed node comes back: it re-registers as a fresh
    /// tracker — empty slots at the initial targets, no map output, no
    /// replicas, clean failure record. If it returns before the expiry
    /// interval fired, re-registration itself reveals the loss.
    fn rejoin_node(&mut self, d: NodeId) -> Result<(), SimError> {
        if !self.st.config.fault_plan.is_up(d, self.st.now) {
            return Ok(()); // another overlapping fault still holds it down
        }
        if !self.st.trackers[d.0].lost_handled {
            self.handle_node_loss(d)?;
        }
        let tr = &mut self.st.trackers[d.0];
        tr.down_since = None;
        tr.stall_ms = 0;
        tr.attempt_failures = 0;
        tr.blacklisted = false;
        tr.map_slots = SlotSet::new(self.st.config.init_map_slots);
        tr.reduce_slots = SlotSet::new(self.st.config.init_reduce_slots);
        tr.meters = TrackerMeters::new(self.st.now);
        self.st.node_up[d.0] = true;
        self.st.events.push(Event::NodeRejoined {
            at: self.st.now,
            node: d,
        });
        Ok(())
    }

    /// Heartbeat-timeout death detection: a tracker silent for
    /// [`EngineConfig::heartbeat_timeout`] is declared lost. Runs on
    /// heartbeat boundaries only, so fixed and adaptive stepping detect on
    /// identical instants.
    fn check_expired_trackers(&mut self) -> Result<(), SimError> {
        if self.st.config.fault_plan.is_empty() {
            return Ok(());
        }
        for i in 0..self.st.trackers.len() {
            let Some(since) = self.st.trackers[i].down_since else {
                continue;
            };
            if self.st.trackers[i].lost_handled {
                continue;
            }
            if self.st.now.since(since) >= self.st.config.heartbeat_timeout {
                self.handle_node_loss(NodeId(i))?;
            }
        }
        Ok(())
    }

    /// The scheduler's reaction to a confirmed tracker loss: kill and
    /// requeue its in-flight attempts, drain its map output from every
    /// shuffle, and re-execute completed maps whose output reducers still
    /// need — reopening the map barrier if it had been crossed. With
    /// recovery disabled, stranded work surfaces [`SimError::NodeLost`]
    /// instead (before any state is mutated).
    fn handle_node_loss(&mut self, d: NodeId) -> Result<(), SimError> {
        self.st.trackers[d.0].lost_handled = true;
        let map_victims: Vec<MapAttemptId> = self
            .st
            .running_maps
            .rows()
            .iter()
            .filter(|(_, t)| t.node == d)
            .map(|(a, _)| *a)
            .collect();
        let reduce_victims: Vec<ReduceTaskId> = self
            .st
            .running_reduces
            .rows()
            .iter()
            .filter(|(_, t)| t.node == d)
            .map(|(r, _)| *r)
            .collect();
        if !self.st.config.fault_recovery {
            let needed: usize = (0..self.st.jobs.len())
                .filter(|&ji| !self.st.jobs[ji].is_finished() && self.job_needs_map_output(ji))
                .map(|ji| {
                    let job = &self.st.jobs[ji];
                    job.block_output_node
                        .iter()
                        .filter(|&&n| n == Some(d))
                        .count()
                })
                .sum();
            let lost_inputs = self.st.jobs.iter().any(|j| {
                !j.is_finished()
                    && j.pending_map_blocks
                        .iter()
                        .any(|b| j.layout.blocks[b].replicas.is_empty())
            });
            if !map_victims.is_empty() || !reduce_victims.is_empty() || needed > 0 || lost_inputs {
                return Err(SimError::NodeLost {
                    node: d,
                    at: self.st.trackers[d.0].down_since.unwrap_or(self.st.now),
                    pending_work: format!(
                        "{} running maps, {} running reduces, {} completed map outputs \
                         (fault recovery disabled)",
                        map_victims.len(),
                        reduce_victims.len(),
                        needed
                    ),
                });
            }
        }
        for aid in map_victims {
            self.remove_map_attempt(aid);
            self.st.crash_task_kills += 1;
            self.st.job_counters[aid.task.job.0].inc(Counter::KilledAttempts);
            self.st.events.push(Event::MapKilled {
                at: self.st.now,
                id: aid.task,
                node: d,
            });
        }
        for rid in reduce_victims {
            self.st.running_reduces.retire(&rid, |_| ());
            self.st.trackers[d.0].reduce_slots.release();
            let job = &mut self.st.jobs[rid.job.0];
            job.running_reduces -= 1;
            job.pending_reduce_parts.push(rid.partition);
            job.pending_reduce_parts.sort_unstable();
            self.st.crash_task_kills += 1;
            let c = &mut self.st.job_counters[rid.job.0];
            c.inc(Counter::KilledAttempts);
            c.inc(Counter::KilledReduces);
            self.st.events.push(Event::ReduceKilled {
                at: self.st.now,
                id: rid,
                node: d,
            });
        }
        self.settle_maps();
        self.settle_reduces();
        // lost map output: drain the dead node's availability from every
        // shuffle; maps whose output reducers still need are re-executed
        for ji in 0..self.st.jobs.len() {
            if self.st.jobs[ji].is_finished() {
                continue;
            }
            let needs = self.job_needs_map_output(ji);
            let job = &mut self.st.jobs[ji];
            let lost_mb = job.shuffle.on_node_lost(d);
            self.st.job_counters[ji].add(Counter::LostMapOutputMb, lost_mb);
            let lost: Vec<usize> = (0..job.block_output_node.len())
                .filter(|&b| job.block_output_node[b] == Some(d))
                .collect();
            for &b in &lost {
                job.block_output_node[b] = None;
            }
            if !needs || lost.is_empty() {
                continue;
            }
            let reopen = job.shuffle.maps_all_done();
            for &b in &lost {
                debug_assert!(job.completed_blocks[b]);
                job.completed_blocks[b] = false;
                job.completed_maps -= 1;
                job.pending_map_blocks.push(b);
                self.st.lost_map_outputs += 1;
                self.lost_output_counter.inc();
                self.st.job_counters[ji].inc(Counter::ReexecutedMaps);
                self.st.events.push(Event::MapOutputLost {
                    at: self.st.now,
                    id: MapTaskId {
                        job: job.spec.id,
                        index: b,
                    },
                    node: d,
                });
            }
            // the sort re-keys the queue: the cache rebuilds the job's lists
            self.derived.map_cache.resort(ji, job);
            if reopen {
                // the barrier reopens; complete_map re-stamps it when the
                // re-executed maps land
                job.shuffle.clear_maps_all_done();
                job.maps_done_at = None;
            }
        }
        // unrecoverable data loss: a pending block with no replica left
        // anywhere can never be scheduled again
        for job in &self.st.jobs {
            if job.is_finished() {
                continue;
            }
            if let Some(b) = job
                .pending_map_blocks
                .iter()
                .find(|&b| job.layout.blocks[b].replicas.is_empty())
            {
                return Err(SimError::NodeLost {
                    node: d,
                    at: self.st.now,
                    pending_work: format!(
                        "input block {} of job '{}' lost its last replica",
                        b, job.spec.profile.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Does any reduce of job `ji` still need to fetch map output —
    /// pending (will start a fresh shuffle), or running and still in its
    /// shuffle phase?
    fn job_needs_map_output(&self, ji: usize) -> bool {
        !self.st.jobs[ji].pending_reduce_parts.is_empty()
            || self
                .st
                .running_reduces
                .rows()
                .iter()
                .any(|(r, t)| r.job.0 == ji && t.phase == ReducePhase::Shuffle)
    }

    /// Spend this step's re-replication budget restoring lost replicas
    /// onto surviving nodes, front of the queue first. The budget grows
    /// linearly in `dt`, so fixed and adaptive stepping accumulate
    /// identical amounts between heartbeat boundaries (where replica
    /// state is next read).
    fn advance_rereplication(&mut self, dt: f64) {
        if self.st.config.rereplication_rate <= 0.0 || self.st.rerep_queue.is_empty() {
            return;
        }
        self.st.rerep_progress += self.st.config.rereplication_rate * dt;
        while let Some(&(ji, bi)) = self.st.rerep_queue.front() {
            let live = self.st.node_up.iter().filter(|&&u| u).count();
            let desired = self.st.replication.min(live);
            let (finished, nreps, size) = {
                let job = &self.st.jobs[ji];
                let b = &job.layout.blocks[bi];
                (job.is_finished(), b.replicas.len(), b.size_mb)
            };
            // stale entries cost no budget: job done, source lost, or
            // already back at the desired replica count
            if finished || nreps == 0 || nreps >= desired {
                self.st.rerep_queue.pop_front();
                continue;
            }
            if self.st.rerep_progress < size {
                return;
            }
            let target = {
                let reps = &self.st.jobs[ji].layout.blocks[bi].replicas;
                (0..self.st.node_up.len())
                    .map(NodeId)
                    .find(|n| self.st.node_up[n.0] && !reps.contains(n))
            };
            let Some(target) = target else {
                self.st.rerep_queue.pop_front();
                continue;
            };
            self.st.rerep_progress -= size;
            self.st.network_mb += size;
            self.st.jobs[ji].layout.blocks[bi].replicas.push(target);
            self.derived.replica_postings[ji][target.0].push(bi as u32);
            self.derived.map_cache.replica_gained(ji, bi, target);
            self.st.rerep_queue.pop_front();
            if nreps + 1 < desired {
                self.st.rerep_queue.push_back((ji, bi));
            }
        }
        if self.st.rerep_queue.is_empty() {
            self.st.rerep_progress = 0.0;
        }
    }

    // ------------------------------------------------------------------
    // Sampling and reporting
    // ------------------------------------------------------------------

    fn sample(&mut self) {
        let map_slots: usize = self
            .st
            .trackers
            .iter()
            .filter(|t| self.st.node_up[t.node.0])
            .map(|t| t.map_slots.target())
            .sum();
        let reduce_slots: usize = self
            .st
            .trackers
            .iter()
            .filter(|t| self.st.node_up[t.node.0])
            .map(|t| t.reduce_slots.target())
            .sum();
        let now = self.st.now;
        self.st.map_slot_series.push(now, map_slots as f64);
        self.st.reduce_slot_series.push(now, reduce_slots as f64);
        let sim_ms = now.as_millis();
        self.telem
            .counter_sample("map_slot_target", sim_ms, map_slots as f64);
        self.telem
            .counter_sample("reduce_slot_target", sim_ms, reduce_slots as f64);
        self.st.usage.sample(now);

        // per-job progress: map% + reduce% in [0, 200]
        let mut map_progress = vec![0.0_f64; self.st.jobs.len()];
        let mut reduce_progress = vec![0.0_f64; self.st.jobs.len()];
        // with speculation two attempts of one task may run; count the
        // task's best attempt, not the sum. `running_maps` is keyed by
        // (task, attempt), so a task's attempts are adjacent: fold each
        // run of them and add it in ascending task order (a fixed float
        // summation order, so the sums repeat bit for bit)
        let mut attempts = self.st.running_maps.rows().iter().peekable();
        while let Some((id, t)) = attempts.next() {
            let mut best = 0.0_f64.max(t.progress());
            while let Some((_, t)) = attempts.next_if(|(next, _)| next.task == id.task) {
                best = best.max(t.progress());
            }
            map_progress[id.task.job.0] += best;
        }
        for (id, t) in self.st.running_reduces.rows() {
            reduce_progress[id.job.0] += t.progress();
        }
        for (i, job) in self.st.jobs.iter_mut().enumerate() {
            if !job.is_submitted(now) {
                continue;
            }
            if job.is_finished() && job.progress.last().is_some_and(|(_, v)| v >= 200.0 - 1e-6) {
                // final 200% sample already recorded
                continue;
            }
            let mp = (job.completed_maps as f64 + map_progress[i]) / job.total_maps() as f64;
            let rp =
                (job.completed_reduces as f64 + reduce_progress[i]) / job.total_reduces() as f64;
            job.progress.push(now, (mp + rp) * 100.0);
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
    /// line up with the straight run's. `#[serde(default)]`: format-v1
    /// capsules predate the digest and restore it as 0 — their resumed
    /// hash traces then simply start from a different basis, still
    /// internally consistent.
    #[serde(default)]
    state_hash: u64,
}

impl EngineState {
    /// Bind this state to the policy that will step it: validate the
    /// config, check the policy is the one the state was captured under,
    /// and hand it the captured policy state. Every stepping call binds
    /// first, so no state steps under a policy that never saw its state.
    fn bind(&mut self, policy: &mut dyn SlotPolicy) -> Result<(), SimError> {
        self.config.validate()?;
        if policy.name() != self.policy_name {
            return Err(SimError::InvalidConfig(format!(
                "capsule was captured under policy {} but resume got {}",
                self.policy_name,
                policy.name()
            )));
        }
        let workers = self.config.cluster.workers;
        if self.trackers.len() != workers
            || self.node_up.len() != workers
            || self.usage.nodes() != workers
        {
            return Err(SimError::InvalidConfig(format!(
                "capsule cluster size mismatch: {} trackers / {} node states / {} sampled \
                 nodes for {workers} workers",
                self.trackers.len(),
                self.node_up.len(),
                self.usage.nodes()
            )));
        }
        if let Some(job) = self
            .jobs
            .iter()
            .find(|j| j.pending_map_blocks.iter().any(|b| b >= j.total_maps()))
        {
            return Err(SimError::InvalidConfig(format!(
                "capsule queues a block job {} does not have",
                job.spec.id.0
            )));
        }
        // the derived source sets hold one set per partition
        for job in &self.jobs {
            JobSpec::check_shape(job.spec.input_mb, job.total_reduces())?;
            if job.shuffle.num_reduces() != job.total_reduces() {
                return Err(SimError::InvalidConfig(format!(
                    "capsule job {} shuffles {} partitions for {} reduces",
                    job.spec.id.0,
                    job.shuffle.num_reduces(),
                    job.total_reduces()
                )));
            }
        }
        // the step indexes jobs, blocks, partitions and nodes by the
        // running rows without checks
        let off_cluster = |n: NodeId| n.0 >= workers;
        if let Some((rid, _)) = self.running_reduces.rows().iter().find(|(rid, t)| {
            off_cluster(t.node)
                || self
                    .jobs
                    .get(rid.job.0)
                    .is_none_or(|j| rid.partition >= j.total_reduces())
        }) {
            return Err(SimError::InvalidConfig(format!(
                "capsule runs reduce {} of job {} on a node or partition it does not have",
                rid.partition, rid.job.0
            )));
        }
        if let Some((aid, _)) = self.running_maps.rows().iter().find(|(aid, t)| {
            aid.attempt > 1
                || off_cluster(t.node)
                || t.remote_src.is_some_and(off_cluster)
                || self
                    .jobs
                    .get(aid.task.job.0)
                    .is_none_or(|j| aid.task.index >= j.total_maps())
        }) {
            return Err(SimError::InvalidConfig(format!(
                "capsule runs attempt {} of map {} of job {} on a node, job or block it does \
                 not have",
                aid.attempt, aid.task.index, aid.task.job.0
            )));
        }
        // a failure point leaves with its attempt
        if let Some((aid, _)) = self
            .failure_points
            .rows()
            .iter()
            .find(|(aid, _)| !self.running_maps.contains_key(aid))
        {
            return Err(SimError::InvalidConfig(format!(
                "capsule holds a failure point for attempt {} of map {} of job {}, which is not \
                 running",
                aid.attempt, aid.task.index, aid.task.job.0
            )));
        }
        let captured = std::mem::replace(&mut self.policy_state, serde::Value::Null);
        policy
            .restore_state(&captured)
            .map_err(|e| SimError::InvalidConfig(format!("capsule policy state: {e}")))
    }

    fn all_finished(&self) -> bool {
        self.jobs.iter().all(|j| j.is_finished())
    }

    /// Lend the task tables the arena's staging buffers, or take them
    /// back: the exchange is its own inverse.
    fn swap_staging(&mut self, scratch: &mut Scratch) {
        self.running_maps.swap_staging(&mut scratch.map_staging);
        self.running_reduces
            .swap_staging(&mut scratch.reduce_staging);
        self.failure_points.swap_staging(&mut scratch.point_staging);
    }

    /// A capsule of this state as driven by `policy`: a clone with the
    /// policy's current run state.
    fn capture(&self, policy: &dyn SlotPolicy) -> EngineState {
        let mut capsule = self.clone();
        capsule.policy_state = policy.snapshot_state();
        capsule
    }

    /// The run report as of this instant, under the policy driving it.
    fn report(&self, policy: &dyn SlotPolicy) -> RunReport {
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobReport {
                job: j.spec.id,
                name: j.spec.profile.name.clone(),
                submit_at: j.spec.submit_at,
                started_at: j.first_launch.expect("finished job must have started"),
                maps_done_at: j.maps_done_at.expect("finished job crossed the barrier"),
                finished_at: j.finished_at.expect("job finished"),
                input_mb: j.spec.input_mb,
                shuffle_mb: j.shuffle.total_output_mb(),
                num_maps: j.total_maps(),
                num_reduces: j.total_reduces(),
                progress: j.progress.clone(),
                map_task_durations: simgrid::metrics::Summary::of(&j.map_durations),
                reduce_task_durations: simgrid::metrics::Summary::of(&j.reduce_durations),
                local_map_fraction: {
                    let c = &self.job_counters[i];
                    let total = c.get(Counter::TotalLaunchedMaps);
                    if total <= 0.0 {
                        1.0
                    } else {
                        c.get(Counter::DataLocalMaps) / total
                    }
                },
                counters: self.job_counters[i].clone(),
            })
            .collect();
        RunReport {
            policy: policy.name().to_string(),
            jobs,
            map_slot_series: self.map_slot_series.clone(),
            reduce_slot_series: self.reduce_slot_series.clone(),
            slot_changes: self.slot_changes,
            events: self.events.clone(),
            speculative_attempts: self.speculative_attempts,
            speculative_wins: self.speculative_wins,
            map_failures: self.map_failures,
            cpu_utilisation: if self.cpu_offered_core_s > 0.0 {
                self.cpu_granted_core_s / self.cpu_offered_core_s
            } else {
                0.0
            },
            network_mb: self.network_mb,
            steps: self.steps,
            node_crashes: self.node_crashes,
            crash_task_kills: self.crash_task_kills,
            lost_map_outputs: self.lost_map_outputs,
            trackers_blacklisted: self.trackers_blacklisted,
            map_input_processed_mb: self.map_input_processed_mb,
            counters: {
                let mut all = CounterLedger::new();
                for c in &self.job_counters {
                    all.merge(c);
                }
                all
            },
            node_utilization: self.usage.report(),
            decisions: policy.decision_records(),
        }
    }

    /// The simulated instant the capture was taken at.
    pub fn at(&self) -> SimTime {
        self.now
    }

    /// Name of the policy that was driving the captured run.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// The rolling per-step state digest as of the capture instant.
    pub fn state_hash(&self) -> u64 {
        self.state_hash
    }

    /// The configuration the captured run was started with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Bind the capsule to the policy a run resumes under — how a
    /// [`Engine::prepare`]d state gets its policy. Only sound for capsules
    /// captured before the first heartbeat (the policy had no state yet);
    /// the bound state is reset to fresh.
    pub fn override_policy(&mut self, name: &str) -> Result<(), SimError> {
        if self.now != SimTime::ZERO || self.heartbeat_round != 0 {
            return Err(SimError::InvalidConfig(format!(
                "cannot re-bind policy at t={} ms: the captured policy already ran",
                self.now.as_millis()
            )));
        }
        self.policy_name = name.to_string();
        self.policy_state = serde::Value::Null;
        Ok(())
    }

    /// Submit a new job into the captured run at its capture instant.
    ///
    /// The DFS placement is decided by **deterministic NameNode replay**:
    /// the NameNode's RNG position is a pure function of the files created
    /// so far, so re-creating every existing job's file in submission
    /// order leaves the placement stream exactly where the live run left
    /// it — the injected job's blocks land where they would have landed
    /// had it been in the original submission list. Replicas placed on
    /// currently-down nodes are pruned at injection (mirroring the crash
    /// path); a block left with no live replica rejects the submission.
    ///
    /// The submission is folded into the rolling state digest so two runs
    /// that differ only in an injected command diverge immediately.
    pub fn inject_job(
        &mut self,
        profile: JobProfile,
        input_mb: f64,
        num_reduces: usize,
    ) -> Result<JobId, SimError> {
        let mut namenode = self.replay_namenode();
        self.inject_job_placed(&mut namenode, profile, input_mb, num_reduces)
    }

    /// The DFS name node as it stands after this run's files: a fresh one
    /// that re-creates every job's file in submission order.
    fn replay_namenode(&self) -> NameNode {
        let mut namenode = fresh_namenode(&self.config);
        for j in &self.jobs {
            namenode.create_file(j.spec.input_mb);
        }
        namenode
    }

    /// [`EngineState::inject_job`] with the file placed by `namenode`,
    /// which must stand after this run's files. It then stands after the
    /// new one too; a rejected submission leaves it where it was.
    fn inject_job_placed(
        &mut self,
        namenode: &mut NameNode,
        profile: JobProfile,
        input_mb: f64,
        num_reduces: usize,
    ) -> Result<JobId, SimError> {
        JobSpec::check_layout(input_mb, num_reduces, self.config.block_mb)?;
        let workers = self.config.cluster.workers;
        let before = namenode.clone();
        let mut layout = namenode.create_file(input_mb);
        let live = self.node_up.iter().filter(|&&u| u).count();
        let desired = self.replication.min(live);
        let ji = self.jobs.len();
        // validate every block before mutating any shared state, so a
        // rejected submission leaves the capsule exactly as it was
        for (bi, block) in layout.blocks.iter_mut().enumerate() {
            block.replicas.retain(|&n| self.node_up[n.0]);
            if block.replicas.is_empty() {
                *namenode = before;
                return Err(SimError::InvalidConfig(format!(
                    "injected job rejected: block {bi} has no replica on a live node"
                )));
            }
        }
        for (bi, block) in layout.blocks.iter().enumerate() {
            if self.config.rereplication_rate > 0.0
                && block.replicas.len() < desired
                && !self.rerep_queue.contains(&(ji, bi))
            {
                self.rerep_queue.push_back((ji, bi));
            }
        }
        let spec = JobSpec::new(ji, profile, input_mb, num_reduces, self.now);
        self.jobs.push(JobInProgress::new(spec, layout, workers));
        self.job_counters.push(CounterLedger::new());
        self.state_hash = fold_hash(
            fold_hash(fold_hash(self.state_hash, ji as u64), input_mb.to_bits()),
            num_reduces as u64,
        );
        Ok(JobId(ji))
    }

    /// Schedule a node fault into the captured run. The fault instant must
    /// lie strictly after the capture instant: transitions at or before
    /// `now` are already marked applied and would never fire. The extended
    /// plan is re-validated before it is committed.
    pub fn inject_fault(&mut self, fault: simgrid::fault::NodeFault) -> Result<(), SimError> {
        if fault.node.0 >= self.config.cluster.workers {
            return Err(SimError::InvalidConfig(format!(
                "fault node {} out of range for {} workers",
                fault.node.0, self.config.cluster.workers
            )));
        }
        if fault.at <= self.now {
            return Err(SimError::InvalidConfig(format!(
                "fault at {} ms must be strictly after the capture instant {} ms",
                fault.at.as_millis(),
                self.now.as_millis()
            )));
        }
        let mut cfg = self.config.clone();
        cfg.fault_plan.push(fault);
        cfg.validate()?;
        self.config = cfg;
        self.state_hash = fold_hash(
            fold_hash(self.state_hash, fault.at.as_millis() ^ (1 << 63)),
            fault.node.0 as u64,
        );
        Ok(())
    }

    /// Project the capsule into a serializable observation frame: sim
    /// clock, per-job progress, and per-node slot split / occupancy /
    /// liveness. Strictly read-only — observing never perturbs the run.
    pub fn observe(&self) -> EngineObservation {
        let jobs = self
            .jobs
            .iter()
            .map(|j| JobObservation {
                id: j.spec.id.0,
                name: j.spec.profile.name.clone(),
                submit_at_ms: j.spec.submit_at.as_millis(),
                finished: j.is_finished(),
                completed_maps: j.completed_maps,
                total_maps: j.total_maps(),
                completed_reduces: j.completed_reduces,
                total_reduces: j.total_reduces(),
                progress_pct: j.progress.last().map(|(_, v)| v).unwrap_or(0.0),
            })
            .collect();
        let nodes = self
            .trackers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let target = t.map_slots.target() + t.reduce_slots.target();
                let occupied = t.map_slots.occupied() + t.reduce_slots.occupied();
                NodeObservation {
                    up: self.node_up[i],
                    map_target: t.map_slots.target(),
                    map_occupied: t.map_slots.occupied(),
                    reduce_target: t.reduce_slots.target(),
                    reduce_occupied: t.reduce_slots.occupied(),
                    utilization: if target > 0 {
                        occupied as f64 / target as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        EngineObservation {
            at_ms: self.now.as_millis(),
            steps: self.steps,
            state_hash: self.state_hash,
            heartbeat_rounds: self.heartbeat_round,
            slot_changes: self.slot_changes,
            all_finished: self.all_finished(),
            jobs,
            nodes,
        }
    }
}

/// A read-only projection of one [`EngineState`] for live observers (the
/// realtime service's observation frames are built from these).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineObservation {
    /// Sim clock of the projected instant (ms).
    pub at_ms: u64,
    /// Integration steps executed so far.
    pub steps: u64,
    /// Rolling per-step state digest at this instant.
    pub state_hash: u64,
    /// Heartbeat rounds executed so far.
    pub heartbeat_rounds: u64,
    /// Cumulative slot-change commands applied by the policy.
    pub slot_changes: u64,
    /// Every job has finished (the run is idle).
    pub all_finished: bool,
    pub jobs: Vec<JobObservation>,
    pub nodes: Vec<NodeObservation>,
}

/// One job's progress inside an [`EngineObservation`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobObservation {
    pub id: usize,
    pub name: String,
    pub submit_at_ms: u64,
    pub finished: bool,
    pub completed_maps: usize,
    pub total_maps: usize,
    pub completed_reduces: usize,
    pub total_reduces: usize,
    /// Last recorded progress sample: map% + reduce% in `[0, 200]`.
    pub progress_pct: f64,
}

/// One node's slot split and occupancy inside an [`EngineObservation`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeObservation {
    pub up: bool,
    pub map_target: usize,
    pub map_occupied: usize,
    pub reduce_target: usize,
    pub reduce_occupied: usize,
    /// Occupied fraction of the current slot targets, both kinds pooled.
    pub utilization: f64,
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
    pub fn resume_in(
        mut state: EngineState,
        policy: &mut dyn SlotPolicy,
        telem: &Telemetry,
        arena: &mut EngineArena,
    ) -> Result<RunReport, SimError> {
        state.bind(policy)?;
        let mut derived = Derived::of(&state);
        step_in(&mut state, policy, &mut derived, telem, arena, |sim| {
            sim.run_to_completion()
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
        state.bind(policy)?;
        let steps_before = state.steps;
        let mut derived = Derived::of(&state);
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
        state.bind(policy)?;
        let telem = Telemetry::disabled();
        let mut derived = Derived::of(&state);
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
        state.bind(policy.as_mut())?;
        let derived = Derived::of(&state);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobProfile;
    use crate::policy::StaticSlotPolicy;

    /// A prepared state bound to [`StaticSlotPolicy`].
    fn bound(engine: &Engine, jobs: Vec<JobSpec>) -> EngineState {
        let mut state = engine.prepare(jobs).unwrap();
        state.override_policy("HadoopV1").unwrap();
        state
    }

    fn resume(state: EngineState, policy: &mut dyn SlotPolicy) -> Result<RunReport, SimError> {
        Engine::resume_in(
            state,
            policy,
            &Telemetry::disabled(),
            &mut EngineArena::new(),
        )
    }

    fn run_single(profile: JobProfile, input_mb: f64, workers: usize, seed: u64) -> RunReport {
        let cfg = EngineConfig::small_test(workers, seed);
        let job = JobSpec::new(0, profile, input_mb, workers * 2, SimTime::ZERO);
        Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("run completes")
    }

    #[test]
    fn map_heavy_job_completes() {
        let r = run_single(JobProfile::synthetic_map_heavy(), 2048.0, 4, 1);
        let j = r.single();
        assert_eq!(j.num_maps, 16);
        assert!(j.map_time().as_secs_f64() > 0.0);
        assert!(j.reduce_time().as_secs_f64() > 0.0);
        assert!(j.finished_at > j.maps_done_at);
        assert!(j.maps_done_at > j.started_at);
        // tiny shuffle for map-heavy profile
        assert!((j.shuffle_mb - 2048.0 * 0.02).abs() < 1e-6);
    }

    #[test]
    fn reduce_heavy_job_completes_with_full_shuffle() {
        let r = run_single(JobProfile::synthetic_reduce_heavy(), 1024.0, 4, 2);
        let j = r.single();
        assert!((j.shuffle_mb - 1024.0).abs() < 1e-6);
        // reduce-heavy: the tail (sort+reduce of the full input) dominates
        assert!(j.reduce_time().as_secs_f64() > 1.0);
    }

    #[test]
    fn chunked_advance_until_matches_straight_run_in_both_modes() {
        for fixed in [false, true] {
            let mut cfg = EngineConfig::small_test(4, 17);
            if fixed {
                cfg.tick.mode = SteppingMode::Fixed;
            }
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                1024.0,
                8,
                SimTime::ZERO,
            );
            let engine = Engine::new(cfg);
            let straight = engine
                .run(vec![job.clone()], &mut StaticSlotPolicy)
                .unwrap();

            // same run, advanced in 5-sim-second quanta through the
            // capsule path the realtime service uses per tick
            let telem = Telemetry::disabled();
            let mut arena = EngineArena::new();
            let mut state = engine.prepare(vec![job]).unwrap();
            state.override_policy("HadoopV1").unwrap();
            let mut report = None;
            let mut chunks = 0u32;
            while report.is_none() {
                let target = state.at() + SimDuration::from_secs(5);
                let adv = Engine::advance_until_in(
                    state,
                    &mut StaticSlotPolicy,
                    target,
                    &telem,
                    &mut arena,
                )
                .unwrap();
                state = adv.state;
                report = adv.report;
                chunks += 1;
                assert!(chunks < 10_000, "fixed={fixed}: run never converged");
            }
            assert!(chunks > 2, "fixed={fixed}: want a genuinely chunked run");
            let json = |r: &RunReport| serde_json::to_string(r).unwrap();
            assert_eq!(
                json(&straight),
                json(&report.unwrap()),
                "fixed={fixed}: chunked advance must be invisible"
            );

            // further advances of a finished run are no-ops that leave the
            // sim clock frozen
            let at = state.at();
            let adv = Engine::advance_until_in(
                state,
                &mut StaticSlotPolicy,
                at + SimDuration::from_secs(100),
                &telem,
                &mut arena,
            )
            .unwrap();
            assert!(adv.finished);
            assert_eq!(adv.steps_run, 0);
            assert_eq!(adv.state.at(), at);
        }
    }

    /// Every slot-series sample is mirrored to its telemetry counter track
    /// (`map_slot_target` / `reduce_slot_target`), value for value.
    #[test]
    fn slot_series_mirror_to_telemetry_counter_tracks() {
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let engine = Engine::new(EngineConfig::small_test(4, 3));
        let telem = Telemetry::with_capacity(1 << 10, 1 << 12);
        let report = Engine::resume_in(
            bound(&engine, vec![job]),
            &mut StaticSlotPolicy,
            &telem,
            &mut EngineArena::new(),
        )
        .unwrap();
        let trace: serde::Value = serde_json::from_str(&telem.chrome_trace().unwrap()).unwrap();
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        for (track, series) in [
            ("map_slot_target", &report.map_slot_series),
            ("reduce_slot_target", &report.reduce_slot_series),
        ] {
            let mirrored: Vec<(u64, f64)> = events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("C")
                        && e.get("name").and_then(|n| n.as_str()) == Some(track)
                })
                .map(|e| {
                    let args = e.get("args").unwrap();
                    let sim_ms = args.get("sim_ms").unwrap().as_u64().unwrap();
                    (sim_ms, args.get("value").unwrap().as_f64().unwrap())
                })
                .collect();
            let recorded: Vec<(u64, f64)> = series
                .points()
                .iter()
                .map(|&(t, v)| (t.as_millis(), v))
                .collect();
            assert!(!recorded.is_empty(), "{track}: no samples");
            assert_eq!(mirrored, recorded, "{track}");
        }
    }

    /// A resident [`Run`] stepped quantum by quantum ends on the straight
    /// run's report and on the state the capsule-in/capsule-out chunks
    /// reach, and a capture taken mid-run resumes like the run itself.
    /// The run crosses chunk boundaries through every change to the
    /// resident indexes: failed and killed attempts re-queue, a rejoin
    /// before expiry and a crash found by expiry re-sort lost outputs,
    /// re-replication restores replicas, and a job is injected while a
    /// node is down.
    #[test]
    fn resident_run_matches_capsule_stepping_in_both_modes() {
        use simgrid::fault::NodeFault;
        let inject_at = SimTime::from_secs(8);
        let injected = || (JobProfile::synthetic_map_heavy(), 768.0, 4);
        for mode in [SteppingMode::Adaptive, SteppingMode::Fixed] {
            let mut cfg = EngineConfig::small_test(4, 31);
            cfg.tick.mode = mode;
            cfg.map_failure_rate = 0.05;
            cfg.rereplication_rate = 50.0;
            cfg.fault_plan = simgrid::FaultPlan::new(vec![
                NodeFault::transient(NodeId(3), SimTime::from_secs(6), SimDuration::from_secs(4)),
                NodeFault::transient(
                    NodeId(2),
                    SimTime::from_secs(20),
                    SimDuration::from_secs(12),
                ),
                NodeFault::permanent(NodeId(1), SimTime::from_secs(25)),
            ]);
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_reduce_heavy(),
                1024.0,
                8,
                SimTime::ZERO,
            );
            let engine = Engine::new(cfg);
            let telem = Telemetry::disabled();
            let mut arena = EngineArena::new();
            let straight = {
                let mut head = Engine::advance_until_in(
                    bound(&engine, vec![job.clone()]),
                    &mut StaticSlotPolicy,
                    inject_at,
                    &telem,
                    &mut arena,
                )
                .unwrap()
                .state;
                let (profile, mb, reduces) = injected();
                head.inject_job(profile, mb, reduces).unwrap();
                resume(head, &mut StaticSlotPolicy).unwrap()
            };
            assert!(
                straight.node_crashes == 3
                    && straight.lost_map_outputs > 0
                    && straight.map_failures > 0,
                "{mode:?}: every recovery path ran"
            );

            let mut run = Run::bind(
                bound(&engine, vec![job.clone()]),
                Box::new(StaticSlotPolicy),
            )
            .unwrap();
            let mut state = bound(&engine, vec![job]);
            let mut mid = None;
            loop {
                if run.at() == inject_at {
                    let (profile, mb, reduces) = injected();
                    run.inject_job(profile.clone(), mb, reduces).unwrap();
                    state.inject_job(profile, mb, reduces).unwrap();
                }
                let target = run.at() + SimDuration::from_secs(4);
                let finished = run.advance_until(target, &telem, &mut arena).unwrap();
                let adv = Engine::advance_until_in(
                    state,
                    &mut StaticSlotPolicy,
                    target,
                    &telem,
                    &mut arena,
                )
                .unwrap();
                state = adv.state;
                assert_eq!(finished, adv.finished, "{mode:?}");
                assert_eq!(run.state_hash(), state.state_hash(), "{mode:?}");
                if mid.is_none() && run.at() >= SimTime::from_secs(20) {
                    mid = Some(run.capture());
                }
                if finished {
                    break;
                }
            }
            let json = |r: &RunReport| serde_json::to_string(r).unwrap();
            assert_eq!(json(&run.report().unwrap()), json(&straight), "{mode:?}");
            assert_eq!(
                serde_json::to_string(&run.capture()).unwrap(),
                serde_json::to_string(&state).unwrap(),
                "{mode:?}: resident capture differs from the by-value state"
            );
            let resumed = resume(mid.expect("mid-run capture"), &mut StaticSlotPolicy).unwrap();
            assert_eq!(json(&resumed), json(&straight), "{mode:?}");
        }
    }

    /// Every block's replica list of every job, in submission order.
    fn replica_lists(st: &EngineState) -> Vec<Vec<Vec<NodeId>>> {
        st.jobs
            .iter()
            .map(|j| j.layout.blocks.iter().map(|b| b.replicas.clone()).collect())
            .collect()
    }

    #[test]
    fn resident_injections_place_like_a_replayed_namenode() {
        // a resident run keeps its name node across injections, where the
        // by-value path replays every earlier file before each one: fifty
        // injections, some while node 3 is down (its replicas pruned),
        // must leave the same layouts and digests either way
        use simgrid::fault::NodeFault;
        let mut cfg = EngineConfig::small_test(8, 17);
        cfg.fault_plan = simgrid::FaultPlan::new(vec![NodeFault::transient(
            NodeId(3),
            SimTime::from_secs(20),
            SimDuration::from_secs(12),
        )]);
        let engine = Engine::new(cfg);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            4096.0,
            4,
            SimTime::ZERO,
        );
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        let mut run = Run::bind(
            bound(&engine, vec![job.clone()]),
            Box::new(StaticSlotPolicy),
        )
        .unwrap();
        let mut state = bound(&engine, vec![job]);
        let mut injected_while_down = 0;
        for k in 0..50u64 {
            let target = SimTime::from_secs(k + 1);
            run.advance_until(target, &telem, &mut arena).unwrap();
            state =
                Engine::advance_until_in(state, &mut StaticSlotPolicy, target, &telem, &mut arena)
                    .unwrap()
                    .state;
            if !run.state.node_up[3] {
                injected_while_down += 1;
            }
            let mb = 128.0 * (1 + k % 3) as f64;
            let a = run
                .inject_job(JobProfile::synthetic_map_heavy(), mb, 2)
                .unwrap();
            let b = state
                .inject_job(JobProfile::synthetic_map_heavy(), mb, 2)
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(run.state_hash(), state.state_hash(), "injection {k}");
        }
        assert!(injected_while_down > 0, "an injection met node 3 down");
        assert_eq!(run.state.jobs.len(), 51);
        assert_eq!(replica_lists(&run.state), replica_lists(&state));
        assert_eq!(
            serde_json::to_string(&run.capture()).unwrap(),
            serde_json::to_string(&state).unwrap()
        );
    }

    #[test]
    fn a_rejected_resident_injection_leaves_its_namenode_in_place() {
        // a file with a block on no live node is rejected after it was
        // placed; the run's name node must then stand where it stood, as
        // a replay (which never saw the rejected file) does
        let engine = Engine::new(EngineConfig::small_test(4, 9));
        let profile = JobProfile::synthetic_map_heavy;
        let job = JobSpec::new(0, profile(), 512.0, 2, SimTime::ZERO);
        let mut run = Run::bind(
            bound(&engine, vec![job.clone()]),
            Box::new(StaticSlotPolicy),
        )
        .unwrap();
        let mut state = bound(&engine, vec![job]);
        run.inject_job(profile(), 512.0, 2).unwrap();
        state.inject_job(profile(), 512.0, 2).unwrap();
        // with three of four nodes down, a 32-block file almost surely
        // has a block whose three replicas are all down
        let set_up = |st: &mut EngineState, up: bool| st.node_up[1..].fill(up);
        set_up(&mut run.state, false);
        set_up(&mut state, false);
        assert!(run.inject_job(profile(), 32.0 * 128.0, 2).is_err());
        assert!(state.inject_job(profile(), 32.0 * 128.0, 2).is_err());
        set_up(&mut run.state, true);
        set_up(&mut state, true);
        run.inject_job(profile(), 1024.0, 2).unwrap();
        state.inject_job(profile(), 1024.0, 2).unwrap();
        assert_eq!(run.state.jobs.len(), 3);
        assert_eq!(replica_lists(&run.state), replica_lists(&state));
        assert_eq!(run.state_hash(), state.state_hash());
    }

    #[test]
    fn injected_job_is_deterministic_and_audits_clean() {
        let run_with_injection = || {
            let telem = Telemetry::disabled();
            let mut arena = EngineArena::new();
            let mut state = Engine::new(EngineConfig::small_test(4, 23))
                .prepare(vec![JobSpec::new(
                    0,
                    JobProfile::synthetic_map_heavy(),
                    4096.0,
                    8,
                    SimTime::ZERO,
                )])
                .unwrap();
            state.override_policy("HadoopV1").unwrap();
            // advance a while, then inject a second job mid-run
            let adv = Engine::advance_until_in(
                state,
                &mut StaticSlotPolicy,
                SimTime::from_secs(15),
                &telem,
                &mut arena,
            )
            .unwrap();
            let mut state = adv.state;
            assert!(!adv.finished, "first job must still be running");
            let id = state
                .inject_job(JobProfile::synthetic_reduce_heavy(), 512.0, 4)
                .unwrap();
            assert_eq!(id.0, 1);
            loop {
                let target = state.at() + SimDuration::from_secs(20);
                let adv = Engine::advance_until_in(
                    state,
                    &mut StaticSlotPolicy,
                    target,
                    &telem,
                    &mut arena,
                )
                .unwrap();
                state = adv.state;
                if let Some(report) = adv.report {
                    return (state.state_hash(), report);
                }
            }
        };
        let (hash_a, report_a) = run_with_injection();
        let (hash_b, report_b) = run_with_injection();
        assert_eq!(hash_a, hash_b, "injection must be deterministic");
        assert_eq!(
            serde_json::to_string(&report_a).unwrap(),
            serde_json::to_string(&report_b).unwrap()
        );
        assert_eq!(report_a.jobs.len(), 2);
        assert!(report_a.jobs[1].submit_at > SimTime::ZERO);
        // the injected job went through the same bookkeeping as a
        // prepared one: the full invariant audit holds
        let setup = crate::auditor::AuditSetup::from_config(&EngineConfig::small_test(4, 23));
        let violations = crate::auditor::audit(&report_a, &setup);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn inject_rejects_bad_input_and_leaves_state_untouched() {
        let mut state = Engine::new(EngineConfig::small_test(4, 5))
            .prepare(vec![JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                512.0,
                4,
                SimTime::ZERO,
            )])
            .unwrap();
        state.override_policy("HadoopV1").unwrap();
        let before = state.state_hash();
        assert!(state
            .inject_job(JobProfile::synthetic_map_heavy(), 0.0, 4)
            .is_err());
        assert!(state
            .inject_job(JobProfile::synthetic_map_heavy(), 512.0, 0)
            .is_err());
        // faults must be strictly in the future and on a real node
        use simgrid::cluster::NodeId;
        use simgrid::fault::NodeFault;
        assert!(state
            .inject_fault(NodeFault::permanent(NodeId(99), SimTime::from_secs(10)))
            .is_err());
        assert!(state
            .inject_fault(NodeFault::permanent(NodeId(1), SimTime::ZERO))
            .is_err());
        assert_eq!(before, state.state_hash(), "rejections must not mutate");
    }

    #[test]
    fn snapshot_resume_is_byte_identical_in_both_modes() {
        for fixed in [false, true] {
            let mut cfg = EngineConfig::small_test(4, 9);
            if fixed {
                cfg.tick.mode = SteppingMode::Fixed;
            }
            cfg.record_events = true;
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                1024.0,
                8,
                SimTime::ZERO,
            );
            let engine = Engine::new(cfg);
            let straight = engine
                .run(vec![job.clone()], &mut StaticSlotPolicy)
                .unwrap();
            let every = SimDuration::from_secs(10);
            let rec = Engine::record(
                bound(&engine, vec![job]),
                &mut StaticSlotPolicy,
                Some(every),
            )
            .unwrap();
            let (checkpointed, snaps) = (rec.report, rec.capsules);
            let json = |r: &RunReport| serde_json::to_string(r).unwrap();
            // capturing perturbs nothing
            assert_eq!(json(&straight), json(&checkpointed), "fixed={fixed}");
            assert!(snaps.len() >= 2, "fixed={fixed}: want multiple capsules");
            assert_eq!(snaps[0].at(), SimTime::ZERO);
            // restore from a mid-run capsule and run to the end
            let mid = snaps[snaps.len() / 2].clone();
            assert!(mid.at() > SimTime::ZERO);
            let resumed = resume(mid, &mut StaticSlotPolicy).unwrap();
            assert_eq!(json(&straight), json(&resumed), "fixed={fixed}");
        }
    }

    #[test]
    fn resume_rejects_mismatched_policy() {
        let cfg = EngineConfig::small_test(4, 9);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            512.0,
            8,
            SimTime::ZERO,
        );
        let snaps = Engine::record(
            bound(&Engine::new(cfg), vec![job]),
            &mut StaticSlotPolicy,
            Some(SimDuration::from_secs(10)),
        )
        .unwrap()
        .capsules;
        struct Other;
        impl SlotPolicy for Other {
            fn name(&self) -> &'static str {
                "Other"
            }
            fn decide(&mut self, _: &PolicyContext<'_>) -> Vec<crate::policy::SlotDirective> {
                Vec::new()
            }
        }
        let err = resume(snaps[0].clone(), &mut Other).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn snapshot_period_must_align_with_sampling() {
        let cfg = EngineConfig::small_test(4, 9);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            512.0,
            8,
            SimTime::ZERO,
        );
        let err = Engine::record(
            bound(&Engine::new(cfg), vec![job]),
            &mut StaticSlotPolicy,
            Some(SimDuration::from_millis(1500)),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn engine_state_serde_round_trip_preserves_replay() {
        let mut cfg = EngineConfig::small_test(4, 21);
        cfg.record_events = true;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let engine = Engine::new(cfg);
        let rec = Engine::record(
            bound(&engine, vec![job]),
            &mut StaticSlotPolicy,
            Some(SimDuration::from_secs(10)),
        )
        .unwrap();
        let (straight, snaps) = (rec.report, rec.capsules);
        let mid = &snaps[snaps.len() / 2];
        // through the wire format and back
        let wire = serde_json::to_string(mid).unwrap();
        let back: EngineState = serde_json::from_str(&wire).unwrap();
        assert_eq!(back.at(), mid.at());
        let resumed = resume(back, &mut StaticSlotPolicy).unwrap();
        assert_eq!(
            serde_json::to_string(&straight).unwrap(),
            serde_json::to_string(&resumed).unwrap()
        );
    }

    /// `prepare` builds the t=0 state every run starts from, so pin what
    /// it starts: a cold `run` and an explicit prepare → bind →
    /// `resume_in` must both end on the counter fingerprint, step count
    /// and finish instant recorded for this run when cold runs still
    /// booted their own `Sim` instead of resuming a prepared state.
    #[test]
    fn prepared_capsule_resumes_like_a_fresh_run() {
        // (mode, recorded fingerprint, steps, finished_at ms)
        let recorded = [
            (SteppingMode::Adaptive, 0x5f5c9ef1f968f621, 77, 55_000),
            (SteppingMode::Fixed, 0x2bb06b5bb4b74745, 557, 55_600),
        ];
        for (mode, fingerprint, steps, finished_ms) in recorded {
            let mut cfg = EngineConfig::small_test(4, 13);
            cfg.tick.mode = mode;
            cfg.fault_plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
                NodeId(2),
                SimTime::from_secs(6),
                SimDuration::from_secs(60),
            )]);
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                1024.0,
                8,
                SimTime::ZERO,
            );
            let engine = Engine::new(cfg);
            let cold = engine
                .run(vec![job.clone()], &mut StaticSlotPolicy)
                .unwrap();
            let resumed = resume(bound(&engine, vec![job]), &mut StaticSlotPolicy).unwrap();
            for (path, r) in [("run", &cold), ("prepare + resume_in", &resumed)] {
                assert_eq!(r.node_crashes, 1, "{mode:?} via {path}");
                assert_eq!(
                    (
                        crate::auditor::fingerprint(r),
                        r.steps,
                        r.single().finished_at.as_millis()
                    ),
                    (fingerprint, steps, finished_ms),
                    "{mode:?} via {path}"
                );
            }
        }
    }

    #[test]
    fn recorded_capsules_match_chained_advance_stops_in_both_modes() {
        for mode in [SteppingMode::Adaptive, SteppingMode::Fixed] {
            let mut cfg = EngineConfig::small_test(4, 13);
            cfg.tick.mode = mode;
            cfg.record_events = true;
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_reduce_heavy(),
                1024.0,
                8,
                SimTime::ZERO,
            );
            let engine = Engine::new(cfg);
            let every = SimDuration::from_secs(10);
            let rec = Engine::record(
                bound(&engine, vec![job.clone()]),
                &mut StaticSlotPolicy,
                Some(every),
            )
            .unwrap();
            assert!(rec.capsules.len() > 2, "{mode:?}: want several capsules");
            // the same run, stopped by chained advances at each capture
            // instant, must stop in exactly the recorded states
            let telem = Telemetry::disabled();
            let mut arena = EngineArena::new();
            let mut state = bound(&engine, vec![job]);
            for (k, capsule) in rec.capsules.iter().enumerate() {
                assert_eq!(capsule.at().as_millis(), every.as_millis() * k as u64);
                let adv = Engine::advance_until_in(
                    state,
                    &mut StaticSlotPolicy,
                    capsule.at(),
                    &telem,
                    &mut arena,
                )
                .unwrap();
                assert_eq!(
                    serde_json::to_string(&adv.state).unwrap(),
                    serde_json::to_string(capsule).unwrap(),
                    "{mode:?}: capsule {k} differs from the advance stop"
                );
                state = adv.state;
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_timings() {
        let a = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 7);
        let b = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 7);
        assert_eq!(
            a.single().finished_at.as_millis(),
            b.single().finished_at.as_millis()
        );
        assert_eq!(
            a.single().maps_done_at.as_millis(),
            b.single().maps_done_at.as_millis()
        );
    }

    #[test]
    fn local_map_fraction_matches_event_log() {
        // regression for the counter derivation: the fraction reported
        // from DATA_LOCAL_MAPS / TOTAL_LAUNCHED_MAPS must equal the one
        // computed from the launch events' remote_read flags — two
        // independently-maintained paths over the same launches
        let mut cfg = EngineConfig::small_test(4, 11);
        cfg.record_events = true;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let r = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .unwrap();
        let (mut local, mut total) = (0u64, 0u64);
        for e in r.events.events() {
            if let Event::MapLaunched { remote_read, .. } = e {
                total += 1;
                if !remote_read {
                    local += 1;
                }
            }
        }
        assert!(total > 0);
        let from_events = local as f64 / total as f64;
        assert_eq!(r.single().local_map_fraction, from_events);
        let c = &r.single().counters;
        assert_eq!(c.get(Counter::TotalLaunchedMaps), total as f64);
        assert_eq!(c.get(Counter::DataLocalMaps), local as f64);
    }

    #[test]
    fn counters_close_their_conservation_laws() {
        let r = run_single(JobProfile::synthetic_reduce_heavy(), 1024.0, 4, 9);
        let j = r.single();
        let c = &j.counters;
        // fault-free: every MB of input read once, output == shuffle, and
        // every produced MB was fetched by exactly one reducer
        assert!((c.get(Counter::HdfsBytesRead) - 1024.0).abs() < 1e-6);
        assert!((c.get(Counter::MapOutputMb) - j.shuffle_mb).abs() < 1e-6);
        assert!((c.get(Counter::ShuffleFetchedMb) - j.shuffle_mb).abs() < 1e-6);
        assert_eq!(c.get(Counter::LostMapOutputMb), 0.0);
        assert_eq!(c.get(Counter::KilledAttempts), 0.0);
        // remote shuffle is a subset of fetched, and feeds network_mb
        assert!(c.get(Counter::ShuffleRemoteMb) <= c.get(Counter::ShuffleFetchedMb));
        assert!(
            c.get(Counter::RemoteBytesRead) + c.get(Counter::ShuffleRemoteMb)
                <= r.network_mb + 1e-6
        );
        // run-level ledger is the single job's ledger
        assert_eq!(r.counters, j.counters);
    }

    #[test]
    fn node_utilization_is_recorded_and_bounded() {
        let r = run_single(JobProfile::synthetic_map_heavy(), 2048.0, 4, 13);
        assert_eq!(r.node_utilization.len(), 4);
        let busy: usize = r.node_utilization.iter().map(|u| u.cpu.len()).sum();
        assert!(busy > 0, "some node must have recorded CPU samples");
        for u in &r.node_utilization {
            for &(_, x) in u.cpu.points() {
                assert!((0.0..=1.0 + 1e-9).contains(&x), "cpu {x}");
            }
            for &(_, x) in u.map_occupied.points() {
                assert!(x >= 0.0);
            }
        }
        // static policy, no decisions recorded
        assert!(r.decisions.is_empty());
    }

    #[test]
    fn different_seeds_vary_slightly() {
        let a = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 1);
        let b = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 2);
        // jitter and placement differ; totals should be close but the runs
        // are genuinely different executions
        let ta = a.single().total_time().as_secs_f64();
        let tb = b.single().total_time().as_secs_f64();
        assert!((ta - tb).abs() / ta < 0.30, "ta={ta} tb={tb}");
    }

    #[test]
    fn progress_reaches_200_percent() {
        let r = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 3);
        let j = r.single();
        let (_, last) = j.progress.last().expect("progress recorded");
        assert!(last > 195.0, "final progress {last}");
        // and it is monotone non-decreasing
        let pts = j.progress.points();
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-6);
        }
    }

    #[test]
    fn multi_job_fifo_ordering() {
        let cfg = EngineConfig::small_test(4, 5);
        let jobs = vec![
            JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                1024.0,
                8,
                SimTime::ZERO,
            ),
            JobSpec::new(
                1,
                JobProfile::synthetic_map_heavy(),
                1024.0,
                8,
                SimTime::from_secs(5),
            ),
        ];
        let r = Engine::new(cfg).run(jobs, &mut StaticSlotPolicy).unwrap();
        assert_eq!(r.jobs.len(), 2);
        // FIFO: the first job finishes first
        assert!(r.jobs[0].finished_at <= r.jobs[1].finished_at);
        assert!(r.makespan() >= r.jobs[1].execution_time());
        assert!(r.mean_execution_time().as_secs_f64() > 0.0);
    }

    #[test]
    fn static_policy_never_changes_slots() {
        let r = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 1);
        assert_eq!(r.slot_changes, 0);
        // slot series is flat at workers * init
        for &(_, v) in r.map_slot_series.points() {
            assert_eq!(v, 12.0); // 4 workers * 3 slots
        }
        for &(_, v) in r.reduce_slot_series.points() {
            assert_eq!(v, 8.0);
        }
    }

    #[test]
    fn rejects_empty_and_invalid() {
        let cfg = EngineConfig::small_test(4, 1);
        assert!(Engine::new(cfg.clone())
            .run(vec![], &mut StaticSlotPolicy)
            .is_err());
        let mut bad = cfg.clone();
        bad.init_map_slots = 0;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            128.0,
            1,
            SimTime::ZERO,
        );
        assert!(Engine::new(bad)
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .is_err());
        // off-grid heartbeat is only an error under fixed ticking
        let mut bad2 = cfg;
        bad2.tick.mode = SteppingMode::Fixed;
        bad2.heartbeat = SimDuration::from_millis(150);
        assert!(Engine::new(bad2)
            .run(vec![job], &mut StaticSlotPolicy)
            .is_err());
    }

    #[test]
    fn validation_rejects_zero_periods_in_both_modes() {
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            128.0,
            1,
            SimTime::ZERO,
        );
        for mode in [SteppingMode::Fixed, SteppingMode::Adaptive] {
            let base = EngineConfigBuilder::paper()
                .workers(2)
                .stepping(mode)
                .build();
            let mut bad = base.clone();
            bad.heartbeat = SimDuration::ZERO;
            let err = Engine::new(bad)
                .run(vec![job.clone()], &mut StaticSlotPolicy)
                .unwrap_err();
            assert!(format!("{err}").contains("heartbeat"), "{err}");
            let mut bad = base.clone();
            bad.sample_period = SimDuration::ZERO;
            let err = Engine::new(bad)
                .run(vec![job.clone()], &mut StaticSlotPolicy)
                .unwrap_err();
            assert!(format!("{err}").contains("sample_period"), "{err}");
        }
        // a zero tick only matters when it is actually the step length
        let mut bad = EngineConfigBuilder::paper()
            .workers(2)
            .stepping(SteppingMode::Fixed)
            .build();
        bad.tick.tick = SimDuration::ZERO;
        let err = Engine::new(bad)
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .unwrap_err();
        assert!(format!("{err}").contains("tick"), "{err}");
    }

    #[test]
    fn adaptive_mode_accepts_off_grid_periods() {
        let cfg = EngineConfigBuilder::paper()
            .workers(2)
            .seed(7)
            .stepping(SteppingMode::Adaptive)
            .heartbeat(SimDuration::from_millis(150))
            .sample_period(SimDuration::from_millis(70))
            .build();
        let job = JobSpec::new(0, JobProfile::synthetic_map_heavy(), 64.0, 2, SimTime::ZERO);
        let report = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("off-grid periods are fine without a tick grid");
        assert!(report.single().total_time().as_secs_f64() > 0.0);
    }

    /// The two stepping modes are different discretisations of the same
    /// physics: paper-scale observables must agree closely, and the
    /// adaptive core must need far fewer steps to get there.
    #[test]
    fn fixed_and_adaptive_modes_agree_on_observables() {
        let job = || {
            JobSpec::new(
                0,
                JobProfile::synthetic_reduce_heavy(),
                1024.0,
                8,
                SimTime::ZERO,
            )
        };
        let run = |mode: SteppingMode| {
            let cfg = EngineConfigBuilder::paper()
                .workers(4)
                .seed(11)
                .stepping(mode)
                .build();
            Engine::new(cfg)
                .run(vec![job()], &mut StaticSlotPolicy)
                .expect("run completes")
        };
        let fixed = run(SteppingMode::Fixed);
        let adaptive = run(SteppingMode::Adaptive);
        let (tf, ta) = (
            fixed.single().total_time().as_secs_f64(),
            adaptive.single().total_time().as_secs_f64(),
        );
        let rel = (tf - ta).abs() / tf.max(ta);
        assert!(
            rel < 0.05,
            "total time diverged: fixed {tf}s adaptive {ta}s"
        );
        assert!(
            (fixed.single().shuffle_mb - adaptive.single().shuffle_mb).abs() < 1e-6,
            "shuffle volume is exact in both modes"
        );
        // on this deliberately small run the 1 s sample boundary dominates
        // the step count; paper-testbed runs clear 5x (the workspace's
        // tests/determinism.rs pins 788 fixed vs 133 adaptive steps)
        assert!(
            adaptive.steps * 4 <= fixed.steps,
            "adaptive must take far fewer steps ({} vs {})",
            adaptive.steps,
            fixed.steps
        );
    }

    #[test]
    fn rejects_non_dense_job_ids() {
        let cfg = EngineConfig::small_test(2, 1);
        let job = JobSpec::new(
            3,
            JobProfile::synthetic_map_heavy(),
            128.0,
            1,
            SimTime::ZERO,
        );
        assert!(Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .is_err());
    }

    #[test]
    fn more_input_takes_longer() {
        let small = run_single(JobProfile::synthetic_map_heavy(), 512.0, 4, 1);
        let large = run_single(JobProfile::synthetic_map_heavy(), 4096.0, 4, 1);
        assert!(
            large.single().total_time() > small.single().total_time(),
            "8x input must take longer"
        );
    }

    #[test]
    fn speculation_races_and_wins_on_stragglers() {
        let mut cfg = EngineConfig::small_test(4, 21);
        cfg.jitter_amp = 0.6; // strong stragglers
        cfg.speculative_maps = true;
        cfg.speculation_min_runtime = SimDuration::from_secs(5);
        cfg.record_events = true;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let r = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .unwrap();
        assert!(
            r.speculative_attempts > 0,
            "stragglers should trigger backups"
        );
        assert!(r.speculative_wins <= r.speculative_attempts);
        // output conservation: every block delivered exactly once
        let j = r.single();
        assert!((j.shuffle_mb - 2048.0 * 0.02).abs() < 1e-6);
        // every race ends either with the losing attempt killed (still
        // running when the winner delivered) or silently discarded (it
        // finished after delivery) — never more kills than races
        let kills = r
            .events
            .count(|e| matches!(e, crate::events::Event::MapKilled { .. }));
        assert!(kills as u64 <= r.speculative_attempts);
        assert_eq!(r.map_failures, 0);
    }

    #[test]
    fn speculation_off_means_zero_attempts() {
        let r = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 1);
        assert_eq!(r.speculative_attempts, 0);
        assert_eq!(r.speculative_wins, 0);
    }

    #[test]
    fn injected_failures_are_retried_to_completion() {
        let mut cfg = EngineConfig::small_test(4, 8);
        cfg.map_failure_rate = 0.15;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let r = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .unwrap();
        let j = r.single();
        assert!(r.map_failures > 0, "failures should have been injected");
        assert_eq!(j.num_maps, 16, "all blocks still delivered");
        assert!(
            (j.shuffle_mb - 2048.0 * 0.02).abs() < 1e-6,
            "no double output"
        );
        let (_, p) = j.progress.last().unwrap();
        assert!(p >= 200.0 - 1e-6);
    }

    #[test]
    fn failures_plus_speculation_compose() {
        let mut cfg = EngineConfig::small_test(4, 13);
        cfg.map_failure_rate = 0.1;
        cfg.speculative_maps = true;
        cfg.jitter_amp = 0.5;
        cfg.speculation_min_runtime = SimDuration::from_secs(5);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let r = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .unwrap();
        let j = r.single();
        assert!(
            (j.shuffle_mb - 1024.0).abs() < 1e-6,
            "exactly-once delivery"
        );
    }

    #[test]
    fn invalid_failure_rate_rejected() {
        let mut cfg = EngineConfig::small_test(2, 1);
        cfg.map_failure_rate = 1.0;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            128.0,
            1,
            SimTime::ZERO,
        );
        assert!(Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .is_err());
    }

    #[test]
    fn map_time_scales_with_map_slots() {
        // more map slots (below thrashing) => shorter map time
        let mut cfg = EngineConfig::small_test(4, 9);
        cfg.init_map_slots = 2;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let slow = Engine::new(cfg.clone())
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .unwrap();
        cfg.init_map_slots = 6;
        let fast = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .unwrap();
        assert!(
            fast.single().map_time() < slow.single().map_time(),
            "6 slots {:?} should beat 2 slots {:?}",
            fast.single().map_time(),
            slow.single().map_time()
        );
    }

    // ------------------------------------------------------------------
    // Node-crash fault injection and recovery
    // ------------------------------------------------------------------

    /// Fault-free baseline barrier instant, rounded down to the heartbeat
    /// grid — a crash there lands mid-map-phase in both stepping modes.
    fn mid_map_crash_instant(cfg: &EngineConfig, job: &JobSpec) -> SimTime {
        let base = Engine::new(cfg.clone())
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .expect("baseline completes");
        // 5/8 of the barrier: past the first task wave (so completed map
        // output exists on every node) but with maps and shuffling reduces
        // still in flight
        let mid_ms = base.single().maps_done_at.as_millis() * 5 / 8;
        SimTime::from_millis((mid_ms / 3000).max(1) * 3000)
    }

    #[test]
    fn crash_mid_map_recovers_and_reexecutes_lost_output() {
        let cfg = EngineConfig::small_test(4, 5);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let crash_at = mid_map_crash_instant(&cfg, &job);
        let plan =
            simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(NodeId(1), crash_at)]);
        let mut cfg = cfg;
        cfg.fault_plan = plan;
        cfg.record_events = true;
        let r = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("recovery completes the job");
        let j = r.single();
        assert_eq!(r.node_crashes, 1);
        assert!(
            r.lost_map_outputs > 0,
            "the dead node held completed map output reducers still needed"
        );
        assert!(r.crash_task_kills > 0, "in-flight work died with the node");
        assert!(
            (j.shuffle_mb - 2048.0).abs() < 1e-6,
            "full shuffle delivered"
        );
        let (_, p) = j.progress.last().unwrap();
        assert!(p >= 200.0 - 1e-6);
        assert!(
            r.events
                .events()
                .iter()
                .any(|e| matches!(e, Event::MapOutputLost { .. })),
            "lost output must be recorded"
        );
        assert!(
            r.map_input_processed_mb >= 2048.0 - 1e-6,
            "work conservation: re-execution only adds map input"
        );
    }

    #[test]
    fn crash_without_recovery_surfaces_clean_error() {
        let cfg = EngineConfig::small_test(4, 5);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let crash_at = mid_map_crash_instant(&cfg, &job);
        let plan =
            simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(NodeId(1), crash_at)]);
        let mut cfg = cfg;
        cfg.fault_plan = plan;
        cfg.fault_recovery = false;
        let err = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .expect_err("stranded work must error, not hang");
        match err {
            SimError::NodeLost { node, .. } => assert_eq!(node, NodeId(1)),
            other => panic!("expected NodeLost, got {other:?}"),
        }
    }

    #[test]
    fn transient_crash_rejoins_as_fresh_tracker() {
        let cfg = EngineConfig::small_test(4, 6);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let crash_at = mid_map_crash_instant(&cfg, &job);
        // downtime longer than the expiry interval: loss is detected by
        // timeout first, then the node re-registers and takes work again
        let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
            NodeId(2),
            crash_at,
            SimDuration::from_secs(60),
        )]);
        let mut cfg = cfg;
        cfg.fault_plan = plan;
        cfg.record_events = true;
        let r = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("transient crash recovers");
        assert_eq!(r.node_crashes, 1);
        assert!(r
            .events
            .events()
            .iter()
            .any(|e| matches!(e, Event::NodeRejoined { node, .. } if *node == NodeId(2))),);
    }

    #[test]
    fn early_rejoin_before_expiry_still_reveals_loss() {
        let cfg = EngineConfig::small_test(4, 6);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        let crash_at = mid_map_crash_instant(&cfg, &job);
        // downtime shorter than heartbeat_timeout (30 s): re-registration,
        // not expiry, is what reveals the lost state
        let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
            NodeId(1),
            crash_at,
            SimDuration::from_secs(9),
        )]);
        let mut cfg = cfg;
        cfg.fault_plan = plan;
        let r = Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("early rejoin recovers");
        assert_eq!(r.node_crashes, 1);
        let (_, p) = r.single().progress.last().unwrap();
        assert!(p >= 200.0 - 1e-6);
    }

    #[test]
    fn repeated_failures_blacklist_tracker() {
        let cfg = EngineConfig::small_test(4, 3);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let mut state = bound(&Engine::new(cfg.clone()), vec![job]);
        let mut policy = StaticSlotPolicy;
        state.bind(&mut policy).unwrap();
        let scratch = EngineArena::new().checkout(cfg.cluster.workers);
        let mut derived = Derived::of(&state);
        let mut sim = Sim::over(
            &mut state,
            &mut policy,
            &mut derived,
            &Telemetry::disabled(),
            scratch,
        );
        for _ in 0..cfg.blacklist_threshold {
            sim.charge_tracker_failure(NodeId(0));
        }
        assert!(sim.st.trackers[0].blacklisted);
        assert_eq!(sim.st.trackers_blacklisted, 1);
        // further failures never double-count the tracker
        sim.charge_tracker_failure(NodeId(0));
        assert_eq!(sim.st.trackers_blacklisted, 1);
        // and it is skipped at assignment time
        sim.heartbeat_round();
        assert!(
            !sim.st.running_maps.rows().is_empty(),
            "healthy trackers got work"
        );
        assert!(
            sim.st
                .running_maps
                .rows()
                .iter()
                .all(|(_, t)| t.node != NodeId(0)),
            "blacklisted tracker must receive no work"
        );
    }

    /// Regression for the float-boundary bug: a failure point the adaptive
    /// horizon lands on *exactly* used to be skipped by `progress() >=
    /// fail_at` (one ulp under after the division), deferring the failure
    /// to the next step in one mode but not the other.
    #[test]
    fn failure_points_fire_identically_in_both_modes() {
        let run = |mode: SteppingMode| {
            let mut cfg = EngineConfigBuilder::paper()
                .workers(4)
                .seed(21)
                .stepping(mode)
                .build();
            cfg.map_failure_rate = 0.2;
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                2048.0,
                8,
                SimTime::ZERO,
            );
            Engine::new(cfg)
                .run(vec![job], &mut StaticSlotPolicy)
                .expect("run completes")
        };
        let fixed = run(SteppingMode::Fixed);
        let adaptive = run(SteppingMode::Adaptive);
        assert!(adaptive.map_failures > 0, "failures should fire");
        assert_eq!(
            fixed.map_failures, adaptive.map_failures,
            "every injected failure point must fire in both modes"
        );
    }

    /// Failures, wide jitter and speculation on a 4-node cluster: on seed
    /// 44 the original and the backup of block 5 both finish in the step
    /// that ends at 17 s.
    fn twin_prone(seed: u64) -> (EngineConfig, JobSpec) {
        let mut cfg = EngineConfig::small_test(4, seed);
        cfg.map_failure_rate = 0.3;
        cfg.speculative_maps = true;
        cfg.jitter_amp = 0.6;
        cfg.speculation_min_runtime = SimDuration::from_secs(5);
        cfg.record_events = true;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        (cfg, job)
    }

    /// Twin attempts that finish in one step: the first in attempt order
    /// delivers the block, the other goes down the discard path instead of
    /// being completed after it was already killed.
    #[test]
    fn twin_attempts_finishing_in_one_step_deliver_once() {
        let (cfg, job) = twin_prone(44);
        let report = Engine::new(cfg.clone())
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("run completes");
        assert!(report.counters.get(Counter::DiscardedMaps) > 0.0);
        let mut delivered = std::collections::BTreeMap::new();
        for e in report.events.events() {
            if let Event::MapCompleted { id, .. } = e {
                *delivered.entry(id.index).or_insert(0) += 1;
            }
        }
        let blocks = report.jobs[0].num_maps;
        assert_eq!(delivered.len(), blocks, "every block delivered");
        assert!(delivered.values().all(|&n| n == 1), "{delivered:?}");
        let violations = crate::auditor::audit(&report, &crate::AuditSetup::from_config(&cfg));
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// A sibling killed by its twin's completion takes its failure point
    /// with it, so a finished run holds none.
    #[test]
    fn finished_runs_hold_no_failure_points() {
        for seed in 0..20 {
            let (cfg, job) = twin_prone(seed);
            let state = bound(&Engine::new(cfg.clone()), vec![job]);
            let adv = Engine::advance_until_in(
                state,
                &mut StaticSlotPolicy,
                cfg.tick.horizon,
                &Telemetry::disabled(),
                &mut EngineArena::new(),
            )
            .unwrap();
            assert!(adv.finished, "seed {seed}: run finished");
            assert!(
                adv.state.failure_points.rows().is_empty(),
                "seed {seed}: {} stale failure points",
                adv.state.failure_points.len()
            );
        }
    }

    #[test]
    fn validation_rejects_bad_fault_plans() {
        let job = || {
            vec![JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                512.0,
                4,
                SimTime::ZERO,
            )]
        };
        // unknown node
        let mut cfg = EngineConfig::small_test(4, 1);
        let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(
            NodeId(9),
            SimTime::from_secs(5),
        )]);
        cfg.fault_plan = plan;
        assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
        // crash at t=0
        let mut cfg = EngineConfig::small_test(4, 1);
        let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(
            NodeId(1),
            SimTime::ZERO,
        )]);
        cfg.fault_plan = plan;
        assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
        // zero downtime
        let mut cfg = EngineConfig::small_test(4, 1);
        let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
            NodeId(1),
            SimTime::from_secs(5),
            SimDuration::ZERO,
        )]);
        cfg.fault_plan = plan;
        assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
        // zero blacklist threshold
        let mut cfg = EngineConfig::small_test(4, 1);
        cfg.blacklist_threshold = 0;
        assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
        // negative re-replication rate
        let mut cfg = EngineConfig::small_test(4, 1);
        cfg.rereplication_rate = -1.0;
        assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
    }
}
