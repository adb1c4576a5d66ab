//! The batch workloads: `paper-grid` and `scale-1024`.
//!
//! One op is one cold, audited cell run on the measuring thread through
//! one recycled [`EngineArena`] — exactly what a sweep-pool worker does
//! with a [`CellRequest`]. The traced run splits each op into its public
//! calls (`Engine::prepare` → `EngineState::override_policy` →
//! `Engine::resume_in` → `auditor::audit`) and times each one.

use crate::check::{report_digest, Checker, DEFAULT_SEED};
use crate::host::HostRef;
use crate::stats::{tail_percentile, Normaliser};
use crate::trace::{Layer, ProgramSpans, Tracer};
use crate::{seeded_order, Measured, RunOpts};
use harness::runner::{trial_seed, CellRequest, System};
use harness::Scale;
use mapreduce::auditor::{audit, AuditSetup};
use mapreduce::{Engine, EngineArena, EngineConfig, EngineState, JobSpec, RunReport};
use simgrid::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};
use sweepengine::SweepCell;
use telemetry::Telemetry;
use workloads::Puma;

/// Distinct 16-node cells per run: 13 benchmarks × this many engine
/// seeds × 3 systems.
const PAPER_SEEDS: u64 = 3;
/// Distinct 1024-node cells per run: this many engine seeds × 3 systems.
const SCALE_SEEDS: u64 = 4;
/// HDFS blocks of Grep input per node at 1024 nodes (weak scaling).
const SCALE_BLOCKS_PER_NODE: f64 = 2.0;
const SCALE_NODES: usize = 1024;
const SCALE_REDUCES: usize = 32;
/// The realtime service's quantum (ms), at which the traced run also
/// advances batch cells in chunks.
pub const QUANTUM_MS: u64 = 4000;
/// Ops of the first pass that the traced run also advances in chunks.
const CHUNK_PROBE_OPS: usize = 6;
/// Program-span ring per traced op (spans per op stay well below it).
const SPAN_RING: usize = 1 << 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// Fig. 3: 13 PUMA benchmarks × 3 systems on the 16-node testbed.
    Paper,
    /// PUMA Grep weak-scaled to 1024 nodes, rotating the 3 systems.
    Scale1024,
}

pub struct BatchOp {
    pub key: String,
    pub system: System,
    /// The cell's config with its engine seed applied.
    pub cfg: EngineConfig,
    pub job: JobSpec,
    cell: CellRequest,
}

impl BatchOp {
    fn new(key: String, cfg: &EngineConfig, job: JobSpec, system: System, seed: u64) -> BatchOp {
        let mut seeded = cfg.clone();
        seeded.seed = seed;
        BatchOp {
            cell: CellRequest::cold(cfg.clone(), vec![job.clone()], system.clone(), seed),
            key,
            system,
            cfg: seeded,
            job,
        }
    }

    fn nodes(&self) -> usize {
        self.cfg.cluster.workers
    }
}

/// The generated inputs of one run: one pass over every cell. The seed
/// draws the engine seeds (and, on the paper grid, the op order); the
/// cells themselves are fixed, so the work per pass barely moves with it.
pub fn inputs(grid: Grid, seed: u64) -> Vec<BatchOp> {
    let (cfg, jobs, seeds) = match grid {
        Grid::Paper => (
            EngineConfig::paper_default(),
            Puma::ALL.map(|b| (b.name(), b.paper_job())).to_vec(),
            PAPER_SEEDS,
        ),
        Grid::Scale1024 => {
            let cfg = Scale::Full.engine(SCALE_NODES);
            let input_mb = SCALE_NODES as f64 * SCALE_BLOCKS_PER_NODE * cfg.block_mb;
            let job = Puma::Grep.job(0, input_mb, SCALE_REDUCES, SimTime::ZERO);
            (cfg, vec![("Grep1024", job)], SCALE_SEEDS)
        }
    };
    let mut ops = Vec::new();
    for k in 0..seeds {
        for (b, (name, job)) in jobs.iter().enumerate() {
            // the three systems of a cell share one engine seed, as in
            // the paper's comparison figures
            let cell_seed = trial_seed(seed, k * jobs.len() as u64 + b as u64);
            for system in System::all() {
                let key = format!("{name}-s{k}/{}", system.label());
                ops.push(BatchOp::new(key, &cfg, job.clone(), system, cell_seed));
            }
        }
    }
    if grid == Grid::Paper {
        let mut slots: Vec<Option<BatchOp>> = ops.into_iter().map(Some).collect();
        ops = seeded_order(slots.len(), seed)
            .into_iter()
            .map(|i| slots[i].take().expect("a permutation"))
            .collect();
    }
    ops
}

/// The warm-up cells: the first job's first seed under each system, the
/// same cells whatever the seed.
fn is_warm_up(op: &BatchOp) -> bool {
    op.key.starts_with(&format!("{}-s0/", Puma::ALL[0].name()))
        || op.key.starts_with("Grep1024-s0/")
}

/// Generate the inputs, fill a fresh arena and warm up on one cell per
/// system. The warm-up cells take their engine seeds from the default
/// seed, so the set-up does the same work whatever the run's seed. Adds
/// the time from process start to the end of the set-up to `setup_s`.
fn set_up(
    grid: Grid,
    opts: &RunOpts,
    host: &mut HostRef,
    out: &mut Measured,
) -> (Vec<BatchOp>, EngineArena) {
    let ops = inputs(grid, opts.seed);
    let mut arena = EngineArena::new();
    for op in inputs(grid, DEFAULT_SEED).iter().filter(|o| is_warm_up(o)) {
        let _ = op.cell.run(&mut arena);
    }
    out.setup_s.push(opts.process_start.elapsed().as_secs_f64());
    host.sample();
    (ops, arena)
}

/// Run one cold op and check it. Returns the report of a passing op and
/// its wall time.
fn cold_op(
    op: &BatchOp,
    arena: &mut EngineArena,
    host: &mut HostRef,
    checker: &mut Checker,
) -> Option<(RunReport, Duration)> {
    let t = Instant::now();
    let result = op.cell.run(arena);
    let wall = t.elapsed();
    host.sample();
    match result {
        Ok(report) => checker
            .op(&op.key, Ok(report_digest(&report)))
            .then_some((report, wall)),
        Err(e) => {
            checker.op(&op.key, Err(e.to_string()));
            None
        }
    }
}

/// One pass of timed cold ops into `out`; returns the pass's total op
/// wall time.
fn cold_pass(
    ops: &[BatchOp],
    arena: &mut EngineArena,
    host: &mut HostRef,
    checker: &mut Checker,
    out: &mut Measured,
) -> Duration {
    let mut total = Duration::ZERO;
    for op in ops {
        if let Some((report, wall)) = cold_op(op, arena, host, checker) {
            out.op_ms.push(wall.as_secs_f64() * 1e3);
            out.sim_s += report.makespan().as_secs_f64();
            out.busy_s += wall.as_secs_f64();
            total += wall;
        }
    }
    total
}

/// Measured for `--seconds` and `op_ms.p90` has ten samples beyond it,
/// or out of time.
pub fn enough(out: &Measured, started: Instant, opts: &RunOpts) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    let sorted = crate::stats::sorted(&out.op_ms);
    elapsed >= opts.seconds && tail_percentile(&sorted, 0.9).is_some()
        || elapsed >= opts.max_seconds()
}

pub fn run(grid: Grid, opts: &RunOpts, host: &mut HostRef, checker: &mut Checker) -> Measured {
    let mut out = Measured::default();
    let (ops, mut arena) = set_up(grid, opts, host, &mut out);
    if opts.setup_only {
        return out;
    }
    out.notes.push(format!(
        "{} distinct cells per pass; op = CellRequest::cold(..).run(&mut arena) on {} nodes",
        ops.len(),
        ops[0].nodes()
    ));
    if opts.trace {
        traced(&ops, &mut arena, opts, host, checker, &mut out);
        return out;
    }
    let started = Instant::now();
    loop {
        cold_pass(&ops, &mut arena, host, checker, &mut out);
        out.passes += 1;
        crate::setup_child_if_due(&mut out, started, opts, host, checker);
        if enough(&out, started, opts) {
            break;
        }
    }
    out
}

/// Times (ns) of one op's public calls.
pub struct CallTimes {
    pub prepare: u64,
    pub step_loop: u64,
    pub audit: u64,
}

/// Per-layer figures of the engine's public calls, accumulated over the
/// traced ops of a run.
#[derive(Default)]
pub struct EngineLayers {
    ops: u64,
    prepare_ns: u64,
    loop_ns: u64,
    audit_ns: u64,
    steps: u64,
    step_nodes: u64,
    smr_ops: u64,
    decisions: u64,
    slot_changes: u64,
    straight_ns: u64,
    chunked_ns: u64,
    chunk_calls: u64,
    spans: ProgramSpans,
}

impl EngineLayers {
    /// One op: its report, system label, cluster size, call times and
    /// the op's own telemetry sink.
    pub fn op(
        &mut self,
        report: &RunReport,
        system: &str,
        nodes: usize,
        t: &CallTimes,
        telem: &Telemetry,
    ) {
        self.ops += 1;
        self.prepare_ns += t.prepare;
        self.loop_ns += t.step_loop;
        self.audit_ns += t.audit;
        self.steps += report.steps;
        self.step_nodes += report.steps * nodes as u64;
        if system == "SMapReduce" {
            self.smr_ops += 1;
            self.decisions += report.decisions.len() as u64;
            self.slot_changes += report.slot_changes;
        }
        self.spans.absorb(telem, system);
    }

    /// One straight-vs-chunked probe of the same work.
    pub fn chunks(&mut self, straight_ns: u64, chunked: &Chunked) {
        self.straight_ns += straight_ns;
        self.chunked_ns += chunked.ns;
        self.chunk_calls += chunked.calls;
    }

    pub fn layers(&self, norm: &Normaliser, arena_growths: u64) -> Vec<Layer> {
        let ops = self.ops.max(1) as f64;
        let smr = self.smr_ops.max(1) as f64;
        let per_op_ms = |ns: u64| norm.time(ns as f64 / ops / 1e6);
        let mut layers = vec![
            Layer::ok("mapreduce.prepare_ms", "ms", per_op_ms(self.prepare_ns)),
            Layer::ok("mapreduce.step_loop_ms", "ms", per_op_ms(self.loop_ns)),
            Layer::ok("mapreduce.steps", "count", self.steps as f64 / ops),
            Layer::ok(
                "mapreduce.ns_per_step_per_node",
                "ns",
                norm.time(self.loop_ns as f64 / self.step_nodes.max(1) as f64),
            ),
            Layer::ok("mapreduce.audit_ms", "ms", per_op_ms(self.audit_ns)),
            Layer::ok("mapreduce.arena_growths", "count", arena_growths as f64),
            Layer::ok(
                "mapreduce.quantum_us",
                "us",
                norm.time(self.chunked_ns as f64 / self.chunk_calls.max(1) as f64 / 1e3),
            ),
            Layer::ok(
                "mapreduce.quantum_overhead_frac",
                "frac",
                self.chunked_ns as f64 / self.straight_ns.max(1) as f64 - 1.0,
            ),
            Layer::ok("smapreduce.decisions", "count", self.decisions as f64 / smr),
            Layer::ok(
                "smapreduce.slot_changes",
                "count",
                self.slot_changes as f64 / smr,
            ),
        ];
        layers.extend(self.spans.layers(norm.time(1.0)));
        layers
    }
}

/// One op through the split path, each public call in its own span
/// under the op's root span.
fn split_op(
    op: &BatchOp,
    id: u64,
    arena: &mut EngineArena,
    tracer: &mut Tracer,
    layers: &mut EngineLayers,
) -> Result<(RunReport, Duration), String> {
    let telem = Telemetry::with_capacity(SPAN_RING, 1 << 10);
    let t = Instant::now();
    let root = tracer.enter("op", id);
    let calls = split_calls(op, id, arena, tracer, &telem);
    tracer.exit(root);
    let wall = t.elapsed();
    let (report, times) = calls?;
    layers.op(&report, op.system.label(), op.nodes(), &times, &telem);
    Ok((report, wall))
}

/// `Engine::prepare` → `EngineState::override_policy` →
/// `Engine::resume_in` → `auditor::audit`, each in a leaf span.
fn split_calls(
    op: &BatchOp,
    id: u64,
    arena: &mut EngineArena,
    tracer: &mut Tracer,
    telem: &Telemetry,
) -> Result<(RunReport, CallTimes), String> {
    let (prepared, prepare) = tracer.leaf("mapreduce.prepare", id, || {
        Engine::new(op.cfg.clone()).prepare(vec![op.job.clone()])
    });
    let mut state = prepared.map_err(|e| e.to_string())?;
    let (bound, _) = tracer.leaf("mapreduce.override_policy", id, || {
        state.override_policy(op.system.label())
    });
    bound.map_err(|e| e.to_string())?;
    let mut policy = op.system.make_policy();
    let (report, step_loop) = tracer.leaf("mapreduce.resume_in", id, || {
        Engine::resume_in(state, policy.as_mut(), telem, arena)
    });
    let report = report.map_err(|e| e.to_string())?;
    let setup = AuditSetup::from_config(&op.cfg);
    let (violations, audit) = tracer.leaf("mapreduce.audit", id, || audit(&report, &setup));
    match violations.first() {
        Some(v) => Err(format!("audit failed: {v}")),
        None => Ok((
            report,
            CallTimes {
                prepare,
                step_loop,
                audit,
            },
        )),
    }
}

/// Advance `state` to completion straight and in quantum chunks; both
/// must end on the same report digest. Returns the straight run's time
/// (ns) and the chunked run.
pub fn straight_vs_chunked(
    state: EngineState,
    system: &str,
    arena: &mut EngineArena,
) -> Result<(u64, Chunked), String> {
    let mut policy =
        realtime::policy_for(system).ok_or_else(|| format!("unknown system {system}"))?;
    let t = Instant::now();
    let straight = Engine::resume_in(
        state.clone(),
        policy.as_mut(),
        &Telemetry::disabled(),
        arena,
    )
    .map_err(|e| e.to_string())?;
    let straight_ns = t.elapsed().as_nanos() as u64;
    let chunked = advance_in_chunks(state, system, arena)?;
    if report_digest(&chunked.report) != report_digest(&straight) {
        return Err(format!("{system}: chunked run diverged from straight run"));
    }
    Ok((straight_ns, chunked))
}

/// A capsule advanced to completion in quantum chunks.
pub struct Chunked {
    pub report: RunReport,
    pub state: EngineState,
    /// Total time of the `advance_until_in` calls (ns) and their count.
    pub ns: u64,
    pub calls: u64,
}

/// Advance a capsule to completion one [`QUANTUM_MS`] per
/// `Engine::advance_until_in` call, with a fresh policy per call as the
/// realtime service does.
pub fn advance_in_chunks(
    mut state: EngineState,
    system: &str,
    arena: &mut EngineArena,
) -> Result<Chunked, String> {
    let off = Telemetry::disabled();
    let mut target = state.at();
    let (mut ns, mut calls) = (0u64, 0u64);
    loop {
        target += SimDuration::from_millis(QUANTUM_MS);
        let mut policy =
            realtime::policy_for(system).ok_or_else(|| format!("unknown system {system}"))?;
        let t = Instant::now();
        let adv = Engine::advance_until_in(state, policy.as_mut(), target, &off, arena)
            .map_err(|e| e.to_string())?;
        ns += t.elapsed().as_nanos() as u64;
        calls += 1;
        if adv.finished {
            let report = adv.report.ok_or("finished advance without a report")?;
            return Ok(Chunked {
                report,
                state: adv.state,
                ns,
                calls,
            });
        }
        state = adv.state;
    }
}

/// Alternate untraced and traced passes; the untraced ones give the raw
/// figures, the traced ones the per-layer table.
fn traced(
    ops: &[BatchOp],
    arena: &mut EngineArena,
    opts: &RunOpts,
    host: &mut HostRef,
    checker: &mut Checker,
    out: &mut Measured,
) {
    let mut tracer = Tracer::default();
    let mut layers = EngineLayers::default();
    let (mut cold_total, mut traced_total) = (Duration::ZERO, Duration::ZERO);
    let started = Instant::now();
    let mut id = 0u64;
    loop {
        // the first pass is cold, so every split op below is compared
        // with its cold digest by the repetition check
        cold_total += cold_pass(ops, arena, host, checker, out);
        for op in ops {
            id += 1;
            let result = split_op(op, id, arena, &mut tracer, &mut layers);
            host.sample();
            match result {
                Ok((report, wall)) => {
                    if checker.op(&op.key, Ok(report_digest(&report))) {
                        traced_total += wall;
                    }
                }
                Err(e) => {
                    checker.op(&op.key, Err(e));
                }
            }
        }
        out.passes += 1;
        if enough(out, started, opts) {
            break;
        }
    }
    for op in ops.iter().take(CHUNK_PROBE_OPS) {
        let probe = Engine::new(op.cfg.clone())
            .prepare(vec![op.job.clone()])
            .and_then(|mut state| state.override_policy(op.system.label()).map(|()| state))
            .map_err(|e| e.to_string())
            .and_then(|state| straight_vs_chunked(state, op.system.label(), arena));
        checker.check(probe.map(|(straight_ns, chunked)| layers.chunks(straight_ns, &chunked)));
        host.sample();
    }
    let norm = Normaliser::from_samples(host.samples_ms());
    out.layers = layers.layers(&norm, arena.growth_events());
    out.layers.push(Layer::ok(
        "telemetry.overhead_frac",
        "frac",
        traced_total.as_secs_f64() / cold_total.as_secs_f64().max(1e-9) - 1.0,
    ));
    out.tracer = Some(tracer);
}
