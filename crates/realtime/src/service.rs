//! The tick thread and its in-process handle.
//!
//! One background thread owns every tenant. Per tick it (1) drains the
//! ingress queue and applies the backlog in arrival order, (2) advances
//! every ready tenant by the service's fixed sim quantum — batched through
//! [`sweepengine::BatchedSweep::run_mut`] with per-worker arena recycling
//! when enough tenants are ready to pay for fan-out — and (3) publishes an
//! observation frame per touched tenant, then sleeps until the next wall
//! deadline. Falling behind slips *sim pacing* (the wall deadline resets),
//! never determinism: the quantum is a constant of the run, so the
//! trajectory is a pure function of the `(tick, command)` sequence.

use crate::egress::{FrameCell, FramePool, ObservationFrame, ObservationPool};
use crate::ingress::{Command, Envelope, Reply, TenantId};
use crate::script::{IngressScript, ScriptedCommand, TenantTrace, TickHash};
use checkpoint::{capsule_file_name, SimSnapshot};
use mapreduce::{Engine, EngineArena, EngineConfig, JobSpec, Run};
use simgrid::cluster::NodeId;
use simgrid::fault::NodeFault;
use simgrid::time::{SimDuration, SimTime};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sweepengine::BatchedSweep;
use telemetry::Telemetry;
use workloads::puma::Puma;

/// The most workers one tenant may ask for: the largest cluster any
/// target or benchmark runs. A tenant's engine sizes per-node state by its
/// worker count, so an unbounded count would let one command exhaust the
/// memory every tenant shares.
pub const MAX_TENANT_WORKERS: usize = 1024;

/// Tuning of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Wall-clock tick interval.
    pub tick_interval: Duration,
    /// Time dilation: simulated seconds advanced per wall second. The sim
    /// quantum per tick is `tick_interval × dilation`, rounded to whole
    /// milliseconds and fixed for the service's lifetime.
    pub dilation: f64,
    /// Worker bound for the per-tick advance batch (0 = one worker per
    /// available core).
    pub workers: usize,
    /// Record every applied command (and per-tenant hash traces) into an
    /// [`IngressScript`] returned with the summary.
    pub record_script: bool,
    /// Telemetry sink for service-level counters and tick-phase spans.
    pub telemetry: Telemetry,
    /// Per-tenant sim horizon: a tenant whose run exceeds this much sim
    /// time errors out rather than spinning forever.
    pub sim_horizon: SimDuration,
    /// Keep at most this many command-to-apply latency samples.
    pub max_latency_samples: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            tick_interval: Duration::from_millis(20),
            dilation: 50.0,
            workers: 0,
            record_script: true,
            telemetry: Telemetry::disabled(),
            sim_horizon: SimDuration::from_secs(7 * 24 * 3600),
            max_latency_samples: 1 << 16,
        }
    }
}

impl ServiceConfig {
    /// The fixed sim quantum each tick advances (ms, at least 1).
    pub fn quantum_ms(&self) -> u64 {
        let ms = self.tick_interval.as_secs_f64() * self.dilation * 1000.0;
        (ms.round() as u64).max(1)
    }
}

/// The core of one tenant: everything both the live tick thread and the
/// offline script replay mutate. Keeping this shared is what makes
/// "replay = live" a structural property instead of two hand-synchronised
/// code paths.
pub(crate) struct TenantCore {
    pub name: String,
    pub system: String,
    pub workers: usize,
    pub seed: u64,
    pub sim_horizon: SimDuration,
    /// The tenant's resident run, bound to its policy once at boot and
    /// stepped in place every tick. `None` until the first `SubmitJob`
    /// boots the cluster (and again, permanently, if the run dies with an
    /// error).
    pub run: Option<Run>,
    pub paused: bool,
    pub finished: bool,
    pub error: Option<String>,
    pub jobs_submitted: u64,
}

impl TenantCore {
    pub(crate) fn new(
        name: String,
        system: String,
        workers: usize,
        seed: u64,
        sim_horizon: SimDuration,
    ) -> TenantCore {
        TenantCore {
            name,
            system,
            workers,
            seed,
            sim_horizon,
            run: None,
            paused: false,
            finished: false,
            error: None,
            jobs_submitted: 0,
        }
    }

    fn base_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::small_test(self.workers, self.seed);
        cfg.record_events = false; // long-lived tenants must not grow a log
        cfg.tick.horizon = SimTime::ZERO + self.sim_horizon;
        cfg
    }

    /// The tenant advances this tick.
    pub(crate) fn ready(&self) -> bool {
        self.run.is_some() && !self.paused && !self.finished && self.error.is_none()
    }

    pub(crate) fn submit_job(
        &mut self,
        id: TenantId,
        bench: &str,
        input_mb: f64,
        num_reduces: usize,
    ) -> Result<Reply, String> {
        if let Some(error) = &self.error {
            return Err(format!("tenant {id} died: {error}"));
        }
        let bench =
            Puma::from_name(bench).ok_or_else(|| format!("unknown PUMA benchmark {bench:?}"))?;
        JobSpec::check_shape(input_mb, num_reduces).map_err(|e| e.to_string())?;
        let job = match &mut self.run {
            None => {
                self.run = Some(self.boot(bench.job(0, input_mb, num_reduces, SimTime::ZERO))?);
                0
            }
            Some(run) => {
                run.inject_job(bench.profile(), input_mb, num_reduces)
                    .map_err(|e| e.to_string())?
                    .0
            }
        };
        self.jobs_submitted += 1;
        self.finished = false; // a fresh job un-idles a finished tenant
        Ok(Reply::JobSubmitted { tenant: id, job })
    }

    /// Apply one command addressed to this tenant (`id`) — the dispatch
    /// the live tick thread and the offline replay share.
    pub(crate) fn apply(&mut self, id: TenantId, cmd: &Command) -> Result<Reply, String> {
        match cmd {
            Command::SubmitJob {
                bench,
                input_mb,
                num_reduces,
                ..
            } => self.submit_job(id, bench, *input_mb, *num_reduces),
            Command::InjectFault {
                node,
                after_ms,
                downtime_ms,
                ..
            } => self.inject_fault(id, *node, *after_ms, *downtime_ms),
            Command::Pause { .. } => {
                self.paused = true;
                Ok(Reply::Paused { tenant: id })
            }
            Command::Resume { .. } => {
                self.paused = false;
                Ok(Reply::Resumed { tenant: id })
            }
            Command::Snapshot { dir, .. } => self.snapshot(id, Path::new(dir)),
            Command::CreateTenant { .. } | Command::Shutdown => {
                Err(format!("{cmd:?} addresses no tenant"))
            }
        }
    }

    /// Boot the tenant's cluster around its first job and bind the run to
    /// a fresh instance of the tenant's policy — the only `policy_for` a
    /// tenant ever makes.
    fn boot(&self, job: JobSpec) -> Result<Run, String> {
        let mut state = Engine::new(self.base_config())
            .prepare(vec![job])
            .map_err(|e| e.to_string())?;
        state
            .override_policy(&self.system)
            .map_err(|e| e.to_string())?;
        let policy = crate::policy_for(&self.system)
            .ok_or_else(|| format!("unknown system label {:?}", self.system))?;
        Run::bind(state, policy).map_err(|e| e.to_string())
    }

    pub(crate) fn inject_fault(
        &mut self,
        id: TenantId,
        node: usize,
        after_ms: u64,
        downtime_ms: Option<u64>,
    ) -> Result<Reply, String> {
        let run = self
            .run
            .as_mut()
            .ok_or_else(|| format!("tenant {id} has no running cluster yet"))?;
        if after_ms == 0 {
            return Err("fault must be strictly in the future (after_ms > 0)".into());
        }
        let at = run.at() + SimDuration::from_millis(after_ms);
        let fault = match downtime_ms {
            Some(d) => NodeFault::transient(NodeId(node), at, SimDuration::from_millis(d)),
            None => NodeFault::permanent(NodeId(node), at),
        };
        run.inject_fault(fault).map_err(|e| e.to_string())?;
        Ok(Reply::FaultInjected {
            tenant: id,
            at_ms: at.as_millis(),
        })
    }

    /// Capture the resident run and write it under `dir` as a capsule —
    /// the only place a tenant's state is cloned. Replay
    /// treats snapshots as no-ops — they never mutate tenant state.
    pub(crate) fn snapshot(&self, id: TenantId, dir: &Path) -> Result<Reply, String> {
        let run = self
            .run
            .as_ref()
            .ok_or_else(|| format!("tenant {id} has no running cluster yet"))?;
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let file = format!("tenant{:04}-{}", id, capsule_file_name(run.at()));
        let path = dir.join(file);
        checkpoint::save(&path, &SimSnapshot::new(run.capture())).map_err(|e| e.to_string())?;
        Ok(Reply::Snapshotted {
            tenant: id,
            path: path.display().to_string(),
        })
    }

    /// Step the resident run one fixed quantum in place. Returns `true`
    /// if the tenant's state changed (it stepped, finished, or died) —
    /// exactly the ticks whose hash the trace records.
    pub(crate) fn advance(
        &mut self,
        quantum_ms: u64,
        telem: &Telemetry,
        arena: &mut EngineArena,
    ) -> bool {
        let Some(run) = self.run.as_mut() else {
            return false;
        };
        let target = run.at() + SimDuration::from_millis(quantum_ms);
        match run.advance_until(target, telem, arena) {
            Ok(finished) => self.finished = finished,
            Err(e) => {
                self.error = Some(e.to_string());
                self.run = None;
            }
        }
        true
    }

    /// The tenant's current `(sim clock, rolling hash)`, if it has state.
    pub(crate) fn hash_point(&self, tick: u64) -> Option<TickHash> {
        self.run.as_ref().map(|r| TickHash {
            tick,
            at_ms: r.at().as_millis(),
            hash: r.state_hash(),
        })
    }

    /// The rolling hash a trace ends on (0 without a live run).
    pub(crate) fn final_hash(&self) -> u64 {
        self.run.as_ref().map(Run::state_hash).unwrap_or(0)
    }
}

/// One live tenant: the replayable core plus egress-side bookkeeping the
/// replay never needs.
struct Tenant {
    id: TenantId,
    core: TenantCore,
    cell: Arc<FrameCell>,
    epoch: u64,
    /// `(map_target, reduce_target)` per node as of the last *successful*
    /// publish — diffed into the next frame's `recent_decisions`.
    prev_slots: Vec<(usize, usize)>,
    /// The tenant changed since its last successful publish: a reader
    /// held the frame slot, so the publish skipped and retries every tick
    /// until it lands (a finished or paused tenant would otherwise never
    /// publish its last state).
    publish_pending: bool,
    trace: Vec<TickHash>,
    created_tick: u64,
}

/// Cross-thread state shared between the tick thread and every handle.
/// `commands` and `frames` are the telemetry registry's
/// `realtime.commands` and `realtime.frames` counters (detached, but still
/// counting, when telemetry is off), so `stats()`, the summary and a trace
/// all read one count.
pub(crate) struct Shared {
    pub pool: ObservationPool,
    pub tick: AtomicU64,
    pub commands: telemetry::Counter,
    pub frames: telemetry::Counter,
    pub missed_ticks: AtomicU64,
    pub reclaimed: AtomicU64,
    pub fresh: AtomicU64,
    pub stopping: AtomicBool,
}

/// A point-in-time statistics snapshot of a running service.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    pub tick: u64,
    pub tenants: usize,
    pub commands_applied: u64,
    pub frames_published: u64,
    pub publish_skips: u64,
    pub frames_reclaimed: u64,
    pub frames_fresh: u64,
    pub missed_ticks: u64,
}

/// Final state of one tenant at shutdown.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantSummary {
    pub id: TenantId,
    pub name: String,
    pub system: String,
    pub created_tick: u64,
    pub sim_now_ms: u64,
    pub state_hash: u64,
    pub steps: u64,
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub finished: bool,
    pub paused: bool,
    pub error: Option<String>,
}

/// Everything the tick thread hands back when it stops.
#[derive(Debug)]
pub struct ServiceSummary {
    pub ticks: u64,
    pub quantum_ms: u64,
    pub wall_seconds: f64,
    pub commands_applied: u64,
    pub frames_published: u64,
    pub publish_skips: u64,
    pub frames_reclaimed: u64,
    pub frames_fresh: u64,
    pub missed_ticks: u64,
    /// Command-to-apply latencies (µs), capped at the configured sample
    /// budget.
    pub latency_us: Vec<u64>,
    pub tenants: Vec<TenantSummary>,
    /// The recorded ingress script (when recording was on) — replaying it
    /// offline must reproduce every tenant's hash trace exactly.
    pub script: Option<IngressScript>,
}

impl ServiceSummary {
    /// The `q`-quantile (0..=1) of the command-to-apply latencies, µs.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        if self.latency_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latency_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }
}

/// The live multi-tenant emulation service. Construct with
/// [`RealtimeService::spawn`]; interact through the returned
/// [`ServiceHandle`].
pub struct RealtimeService;

impl RealtimeService {
    /// Start the tick thread and return a cloneable handle to it.
    pub fn spawn(cfg: ServiceConfig) -> ServiceHandle {
        let (tx, rx) = mpsc::channel::<Envelope>();
        let shared = Arc::new(Shared {
            pool: ObservationPool::new(),
            tick: AtomicU64::new(0),
            commands: cfg.telemetry.counter("realtime.commands"),
            frames: cfg.telemetry.counter("realtime.frames"),
            missed_ticks: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        });
        let thread_shared = shared.clone();
        let join = std::thread::Builder::new()
            .name("realtime-tick".into())
            .spawn(move || tick_loop(cfg, rx, thread_shared))
            .expect("spawn tick thread");
        ServiceHandle {
            tx,
            shared,
            join: Arc::new(Mutex::new(Some(join))),
        }
    }
}

/// In-process client of a running service. Cloneable; every clone talks
/// to the same tick thread.
#[derive(Clone)]
pub struct ServiceHandle {
    tx: Sender<Envelope>,
    shared: Arc<Shared>,
    join: Arc<Mutex<Option<JoinHandle<ServiceSummary>>>>,
}

impl ServiceHandle {
    /// Send one command and block until the tick thread applies it.
    pub fn send(&self, cmd: Command) -> Result<Reply, String> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .send(Envelope {
                cmd,
                issued: Instant::now(),
                reply: reply_tx,
            })
            .map_err(|_| "service stopped".to_string())?;
        reply_rx.recv().map_err(|_| "service stopped".to_string())?
    }

    pub fn create_tenant(
        &self,
        name: &str,
        workers: usize,
        seed: u64,
        system: &str,
    ) -> Result<TenantId, String> {
        match self.send(Command::CreateTenant {
            name: name.to_string(),
            workers,
            seed,
            system: system.to_string(),
        })? {
            Reply::TenantCreated { tenant } => Ok(tenant),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    pub fn submit_job(
        &self,
        tenant: TenantId,
        bench: &str,
        input_mb: f64,
        num_reduces: usize,
    ) -> Result<usize, String> {
        match self.send(Command::SubmitJob {
            tenant,
            bench: bench.to_string(),
            input_mb,
            num_reduces,
        })? {
            Reply::JobSubmitted { job, .. } => Ok(job),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    pub fn inject_fault(
        &self,
        tenant: TenantId,
        node: usize,
        after_ms: u64,
        downtime_ms: Option<u64>,
    ) -> Result<u64, String> {
        match self.send(Command::InjectFault {
            tenant,
            node,
            after_ms,
            downtime_ms,
        })? {
            Reply::FaultInjected { at_ms, .. } => Ok(at_ms),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    pub fn pause(&self, tenant: TenantId) -> Result<(), String> {
        self.send(Command::Pause { tenant }).map(|_| ())
    }

    pub fn resume(&self, tenant: TenantId) -> Result<(), String> {
        self.send(Command::Resume { tenant }).map(|_| ())
    }

    pub fn snapshot(&self, tenant: TenantId, dir: &str) -> Result<String, String> {
        match self.send(Command::Snapshot {
            tenant,
            dir: dir.to_string(),
        })? {
            Reply::Snapshotted { path, .. } => Ok(path),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Stop the tick thread and collect its summary. Idempotent across
    /// clones: the first caller gets the summary, later callers an error.
    pub fn shutdown(&self) -> Result<ServiceSummary, String> {
        let _ = self.send(Command::Shutdown);
        let handle = self
            .join
            .lock()
            .expect("join slot poisoned")
            .take()
            .ok_or("service already shut down")?;
        handle.join().map_err(|_| "tick thread panicked".into())
    }

    /// Ticks completed so far.
    pub fn tick(&self) -> u64 {
        self.shared.tick.load(Ordering::Acquire)
    }

    /// Latest frame of one tenant.
    pub fn frame(&self, tenant: TenantId) -> Option<Arc<ObservationFrame>> {
        self.shared.pool.frame(tenant)
    }

    /// The observation pool, for dedicated reader threads.
    pub fn observations(&self) -> ObservationReader {
        ObservationReader {
            shared: self.shared.clone(),
        }
    }

    /// Current service statistics.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared;
        ServiceStats {
            tick: s.tick.load(Ordering::Acquire),
            tenants: s.pool.len(),
            commands_applied: s.commands.get(),
            frames_published: s.frames.get(),
            publish_skips: s.pool.publish_skips(),
            frames_reclaimed: s.reclaimed.load(Ordering::Relaxed),
            frames_fresh: s.fresh.load(Ordering::Relaxed),
            missed_ticks: s.missed_ticks.load(Ordering::Relaxed),
        }
    }
}

/// Read-only view for reader threads: frames and the tick counter, no
/// command surface and no shutdown authority.
#[derive(Clone)]
pub struct ObservationReader {
    shared: Arc<Shared>,
}

impl ObservationReader {
    pub fn tick(&self) -> u64 {
        self.shared.tick.load(Ordering::Acquire)
    }

    pub fn tenants(&self) -> usize {
        self.shared.pool.len()
    }

    pub fn frame(&self, tenant: TenantId) -> Option<Arc<ObservationFrame>> {
        self.shared.pool.frame(tenant)
    }

    pub fn epoch(&self, tenant: TenantId) -> Option<u64> {
        self.shared.pool.cell(tenant).map(|c| c.epoch())
    }

    pub fn stopped(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }
}

fn tick_loop(cfg: ServiceConfig, rx: Receiver<Envelope>, shared: Arc<Shared>) -> ServiceSummary {
    let telem = cfg.telemetry.clone();
    let quantum_ms = cfg.quantum_ms();
    let sweep = if cfg.workers == 0 {
        BatchedSweep::auto()
    } else {
        BatchedSweep::with_workers(cfg.workers)
    };
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut frame_pool = FramePool::new();
    let mut inline_arena = EngineArena::new();
    let mut latency_us: Vec<u64> = Vec::new();
    let mut script_cmds: Vec<ScriptedCommand> = Vec::new();
    let tick_counter = telem.counter("realtime.ticks");
    let started = Instant::now();
    let mut tick: u64 = 0;
    let mut next_deadline = Instant::now() + cfg.tick_interval;
    let mut stopping = false;

    loop {
        // Phase 1: drain the ingress backlog and apply it in order.
        let t0 = telem.clock_us();
        let mut touched: Vec<bool> = vec![false; tenants.len()];
        while let Ok(env) = rx.try_recv() {
            if stopping {
                let _ = env.reply.send(Err("service shutting down".into()));
                continue;
            }
            let result = apply_command(
                &cfg,
                &shared,
                &mut tenants,
                &mut touched,
                tick,
                &env.cmd,
                &mut stopping,
            );
            if result.is_ok() {
                shared.commands.inc();
                if cfg.record_script {
                    script_cmds.push(ScriptedCommand {
                        tick,
                        cmd: env.cmd.clone(),
                    });
                }
            }
            if latency_us.len() < cfg.max_latency_samples {
                latency_us.push(env.issued.elapsed().as_micros() as u64);
            }
            let _ = env.reply.send(result);
        }
        telem.record_span("realtime", "drain", t0, tick);

        // Phase 2: advance every ready tenant one quantum. Batches of one
        // skip the pool entirely (run_mut runs them inline).
        let t0 = telem.clock_us();
        let ready_ids: Vec<usize> = (0..tenants.len())
            .filter(|&i| tenants[i].core.ready())
            .collect();
        let mut advanced: Vec<bool> = vec![false; tenants.len()];
        if !ready_ids.is_empty() {
            let mut ready: Vec<&mut TenantCore> = Vec::with_capacity(ready_ids.len());
            // split the tenant vec into disjoint &mut cores for the batch
            let mut rest: &mut [Tenant] = &mut tenants;
            let mut taken = 0usize;
            for &i in &ready_ids {
                let (_, tail) = rest.split_at_mut(i - taken);
                let (head, tail) = tail.split_at_mut(1);
                ready.push(&mut head[0].core);
                rest = tail;
                taken = i + 1;
            }
            let changed = sweep.run_mut(&mut ready, &mut inline_arena, |_, core, arena| {
                core.advance(quantum_ms, &telem, arena)
            });
            for (&i, changed) in ready_ids.iter().zip(changed) {
                advanced[i] = changed;
            }
        }
        telem.record_span("realtime", "advance", t0, tick);

        // Phase 3: record hashes for changed tenants and publish their
        // frames, retrying every earlier skipped publish. Only changes
        // record hash points: the replay must stay a function of the
        // ingress script, never of reader contention.
        let t0 = telem.clock_us();
        for (i, tenant) in tenants.iter_mut().enumerate() {
            let changed = advanced[i] || touched[i];
            if changed && cfg.record_script {
                if let Some(point) = tenant.core.hash_point(tick) {
                    tenant.trace.push(point);
                }
            }
            if !(changed || tenant.publish_pending) {
                continue;
            }
            let published = publish_frame(tenant, tick, &mut frame_pool);
            tenant.publish_pending = !published;
            if published {
                shared.frames.inc();
            }
        }
        shared
            .reclaimed
            .store(frame_pool.reclaimed, Ordering::Relaxed);
        shared.fresh.store(frame_pool.fresh, Ordering::Relaxed);
        telem.record_span("realtime", "publish", t0, tick);

        tick += 1;
        tick_counter.inc();
        shared.tick.store(tick, Ordering::Release);
        if stopping {
            break;
        }

        // Phase 4: wall pacing. Missing a deadline slips sim pacing (the
        // deadline resets relative to now) — it never shrinks or grows
        // the quantum, so determinism survives arbitrary wall jitter.
        let now = Instant::now();
        if now < next_deadline {
            std::thread::sleep(next_deadline - now);
            next_deadline += cfg.tick_interval;
        } else {
            shared.missed_ticks.fetch_add(1, Ordering::Relaxed);
            next_deadline = now + cfg.tick_interval;
        }
    }

    shared.stopping.store(true, Ordering::Release);
    let wall_seconds = started.elapsed().as_secs_f64();
    let tenant_summaries: Vec<TenantSummary> = tenants
        .iter()
        .map(|t| {
            let obs = t.core.run.as_ref().map(Run::observe);
            TenantSummary {
                id: t.id,
                name: t.core.name.clone(),
                system: t.core.system.clone(),
                created_tick: t.created_tick,
                sim_now_ms: obs.as_ref().map(|o| o.at_ms).unwrap_or(0),
                state_hash: obs.as_ref().map(|o| o.state_hash).unwrap_or(0),
                steps: obs.as_ref().map(|o| o.steps).unwrap_or(0),
                jobs_submitted: t.core.jobs_submitted,
                jobs_completed: obs
                    .as_ref()
                    .map(|o| o.jobs.iter().filter(|j| j.finished).count() as u64)
                    .unwrap_or(0),
                finished: t.core.finished,
                paused: t.core.paused,
                error: t.core.error.clone(),
            }
        })
        .collect();
    let script = cfg.record_script.then(|| IngressScript {
        quantum_ms,
        ticks: tick,
        sim_horizon_ms: cfg.sim_horizon.as_millis(),
        commands: script_cmds,
        traces: tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantTrace {
                tenant: i,
                error: t.core.error.clone(),
                final_hash: t.core.final_hash(),
                hashes: t.trace.clone(),
            })
            .collect(),
    });
    ServiceSummary {
        ticks: tick,
        quantum_ms,
        wall_seconds,
        commands_applied: shared.commands.get(),
        frames_published: shared.frames.get(),
        publish_skips: shared.pool.publish_skips(),
        frames_reclaimed: frame_pool.reclaimed,
        frames_fresh: frame_pool.fresh,
        missed_ticks: shared.missed_ticks.load(Ordering::Relaxed),
        latency_us,
        tenants: tenant_summaries,
        script,
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_command(
    cfg: &ServiceConfig,
    shared: &Arc<Shared>,
    tenants: &mut Vec<Tenant>,
    touched: &mut Vec<bool>,
    tick: u64,
    cmd: &Command,
    stopping: &mut bool,
) -> Result<Reply, String> {
    match cmd {
        Command::CreateTenant {
            name,
            workers,
            seed,
            system,
        } => {
            if !(1..=MAX_TENANT_WORKERS).contains(workers) {
                return Err(format!(
                    "tenant needs 1..={MAX_TENANT_WORKERS} workers, got {workers}"
                ));
            }
            if crate::policy_for(system).is_none() {
                return Err(format!(
                    "unknown system label {system:?} (one of {:?})",
                    crate::SYSTEM_LABELS
                ));
            }
            let id = tenants.len();
            let cell = shared.pool.register(id, name, system);
            tenants.push(Tenant {
                core: TenantCore::new(
                    name.clone(),
                    system.clone(),
                    *workers,
                    *seed,
                    cfg.sim_horizon,
                ),
                cell,
                epoch: 0,
                prev_slots: Vec::new(),
                publish_pending: false,
                trace: Vec::new(),
                created_tick: tick,
                id,
            });
            touched.push(true);
            Ok(Reply::TenantCreated { tenant: id })
        }
        Command::Shutdown => {
            *stopping = true;
            Ok(Reply::ShuttingDown)
        }
        _ => {
            let id = cmd.tenant().ok_or("command addresses no tenant")?;
            let reply = tenant_mut(tenants, id)?.core.apply(id, cmd)?;
            touched[id] = true;
            Ok(reply)
        }
    }
}

fn tenant_mut(tenants: &mut [Tenant], id: TenantId) -> Result<&mut Tenant, String> {
    let count = tenants.len();
    tenants
        .get_mut(id)
        .ok_or_else(|| format!("no tenant {id} (have {count})"))
}

/// Build and publish one tenant's frame. Returns whether the publish
/// landed (a contended slot skips — never blocks — and retries next
/// tick).
fn publish_frame(tenant: &mut Tenant, tick: u64, pool: &mut FramePool) -> bool {
    let mut frame = pool.take();
    frame.tenant = tenant.id;
    frame.name.push_str(&tenant.core.name);
    frame.system.push_str(&tenant.core.system);
    frame.epoch = tenant.epoch + 1;
    frame.tick = tick;
    frame.paused = tenant.core.paused;
    frame.error = tenant.core.error.clone();
    frame.obs = tenant
        .core
        .run
        .as_ref()
        .map(Run::observe)
        .unwrap_or_default();
    // the policy's recent decisions, as slot-target diffs since the last
    // published frame
    const MAX_DECISIONS: usize = 16;
    for (i, n) in frame.obs.nodes.iter().enumerate() {
        let prev = tenant.prev_slots.get(i).copied();
        let (pm, pr) = prev.unwrap_or((n.map_target, n.reduce_target));
        if prev.is_some() && (pm != n.map_target || pr != n.reduce_target) {
            if frame.recent_decisions.len() < MAX_DECISIONS {
                frame.recent_decisions.push(format!(
                    "n{i} map {pm}->{} reduce {pr}->{}",
                    n.map_target, n.reduce_target
                ));
            } else {
                break;
            }
        }
    }
    frame.checksum = frame.compute_checksum();
    let next_slots: Vec<(usize, usize)> = frame
        .obs
        .nodes
        .iter()
        .map(|n| (n.map_target, n.reduce_target))
        .collect();
    let published = tenant.cell.publish(Arc::new(frame), pool);
    if published {
        tenant.epoch += 1;
        tenant.prev_slots = next_slots;
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::auditor::fingerprint;

    /// A tenant's resident run, stepped quantum by quantum, ends where a
    /// straight [`Engine::resume_in`] of its boot state ends, and where
    /// the by-value [`Engine::advance_until_in`] chunks with a fresh policy
    /// per call end — for every system label.
    #[test]
    fn resident_tenant_matches_capsule_stepping_for_every_system() {
        const QUANTUM_MS: u64 = 4000;
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        for (i, label) in crate::SYSTEM_LABELS.into_iter().enumerate() {
            let horizon = ServiceConfig::default().sim_horizon;
            let mut core = TenantCore::new(label.into(), label.into(), 8, 60 + i as u64, horizon);
            core.submit_job(0, "terasort", 1024.0, 4).unwrap();
            core.submit_job(0, "grep", 512.0, 2).unwrap();
            core.inject_fault(0, 3, 9_000, Some(30_000)).unwrap();
            let boot = core.run.as_ref().unwrap().capture();

            let mut policy = crate::policy_for(label).unwrap();
            let straight =
                Engine::resume_in(boot.clone(), policy.as_mut(), &telem, &mut arena).unwrap();

            let mut state = boot;
            let chunked = loop {
                let target = state.at() + SimDuration::from_millis(QUANTUM_MS);
                let mut policy = crate::policy_for(label).unwrap();
                let adv =
                    Engine::advance_until_in(state, policy.as_mut(), target, &telem, &mut arena)
                        .unwrap();
                state = adv.state;
                if let Some(report) = adv.report {
                    break report;
                }
            };

            while !core.finished {
                assert!(core.advance(QUANTUM_MS, &telem, &mut arena));
                assert!(core.error.is_none(), "{label}: {:?}", core.error);
            }
            let resident = core.run.as_ref().unwrap();
            assert_eq!(resident.state_hash(), state.state_hash(), "{label}");
            let report = resident.report().unwrap();
            assert_eq!(fingerprint(&report), fingerprint(&straight), "{label}");
            assert_eq!(fingerprint(&report), fingerprint(&chunked), "{label}");
        }
    }

    #[test]
    fn skipped_final_publish_is_retried_until_it_lands() {
        let cfg = ServiceConfig {
            tick_interval: Duration::from_millis(2),
            dilation: 2000.0,
            ..ServiceConfig::default()
        };
        // how many quanta the job takes, through the same tenant core the
        // tick thread drives
        let mut probe = TenantCore::new("probe".into(), "HadoopV1".into(), 4, 5, cfg.sim_horizon);
        probe.submit_job(0, "grep", 512.0, 2).unwrap();
        let mut arena = EngineArena::new();
        let mut quanta = 0u64;
        while !probe.finished {
            probe.advance(cfg.quantum_ms(), &Telemetry::disabled(), &mut arena);
            quanta += 1;
            assert!(
                quanta < 10_000 && probe.error.is_none(),
                "probe never finished"
            );
        }

        let handle = RealtimeService::spawn(cfg);
        let t = handle.create_tenant("held", 4, 5, "HadoopV1").unwrap();
        let cell = handle.shared.pool.cell(t).expect("tenant cell registered");
        // a reader holds the frame slot across the tick the tenant
        // finishes in, so that tick's publish skips
        let held = cell.hold();
        handle.submit_job(t, "grep", 512.0, 2).unwrap();
        let finish_by = handle.tick() + quanta + 2;
        while handle.tick() < finish_by {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !held.obs.all_finished,
            "no finished frame landed while held"
        );
        assert!(cell.skipped() > 0, "the hold skipped publishes");
        drop(held);

        // a later tick retries the skipped publish
        let deadline = Instant::now() + Duration::from_secs(30);
        while !handle.frame(t).is_some_and(|f| f.obs.all_finished) {
            assert!(
                Instant::now() < deadline,
                "the finished tenant's frame was never republished"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let summary = handle.shutdown().unwrap();
        assert!(summary.tenants[t].finished);
        let outcome = summary.script.expect("recording was on").replay();
        assert!(
            outcome.verified,
            "replay diverged: {:?}",
            outcome.mismatches
        );
    }
}
