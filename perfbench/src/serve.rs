//! The `serve-tenants` workload: the realtime service in-process, in
//! sessions of [`TENANTS`] tenants.
//!
//! One op is one tenant's turnaround: from its `resume` reply to the
//! first frame in which all its jobs have finished. Each rule below
//! removes a measured hazard:
//!
//! - one advance worker, so no tick spawns scoped threads;
//! - a 1 µs tick interval, far below any tick's work, so the loop never
//!   sleeps while tenants run and the figures measure capacity, not the
//!   pacing clock;
//! - every tenant is created paused, loaded, then resumed, so its
//!   trajectory and final state hash do not depend on the tick a command
//!   lands on;
//! - no reader threads: the client reads each tenant's frame about once
//!   per millisecond and checks it;
//! - never two commands back to back: the drain loop applies every
//!   command that arrives while it drains, so the client waits for the
//!   next tick before it sends again.

use crate::batch::{enough, straight_vs_chunked, CallTimes, EngineLayers, QUANTUM_MS};
use crate::check::{frame_fault, Checker};
use crate::host::HostRef;
use crate::stats::Normaliser;
use crate::trace::{span_layer, Layer, SpanMean, Tracer};
use crate::{seeded_order, splitmix, Measured, RunOpts};
use mapreduce::auditor::{audit, AuditSetup};
use mapreduce::{Engine, EngineArena, EngineConfig, EngineState};
use realtime::{RealtimeService, ServiceConfig, ServiceHandle, ServiceSummary};
use simgrid::cluster::NodeId;
use simgrid::fault::NodeFault;
use simgrid::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};
use telemetry::Telemetry;
use workloads::Puma;

pub const TENANTS: usize = 32;
const TENANT_NODES: usize = 8;
/// Every this-many-th tenant also gets a transient node fault, this long
/// after it is loaded and down for this long, as in `serve-bench`.
const FAULT_EVERY: usize = 7;
const FAULT_AFTER_MS: u64 = 20_000;
const FAULT_DOWNTIME_MS: u64 = 40_000;
/// A session normally takes well under a second; one that stalls this
/// long has failed.
const STALL: Duration = Duration::from_secs(20);
/// Ticks without a new frame after which a tenant that is neither
/// paused nor finished counts as having lost its final frame.
const STALE_TICKS: u64 = 4;
/// The client's frame-poll period.
const POLL: Duration = Duration::from_millis(1);
/// Reference-kernel sampling period while a session runs.
const REF_EVERY: Duration = Duration::from_millis(10);
/// Per-tenant sim horizon (s), as the service's default.
const SIM_HORIZON_S: u64 = 7 * 24 * 3600;
/// Program-span ring of a traced session.
const SPAN_RING: usize = 1 << 17;
/// The job mix of `reproduce serve-bench` (`harness::serve_bench`):
/// (benchmark, input MB, reduces). Tenant `i` runs entry `i` and, at half
/// its input, entry `i + 2`, as that bench's first and second waves do.
const JOB_MIX: &[(Puma, f64, usize)] = &[
    (Puma::Grep, 1024.0, 4),
    (Puma::Terasort, 768.0, 4),
    (Puma::WordCount, 512.0, 2),
    (Puma::KMeans, 384.0, 2),
    (Puma::InvertedIndex, 512.0, 4),
];

/// A tenant's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantInput {
    pub name: String,
    pub system: &'static str,
    pub seed: u64,
    pub jobs: [(Puma, f64, usize); 2],
    /// (node, after ms, downtime ms) of a transient crash.
    pub fault: Option<(usize, u64, u64)>,
}

/// The tenants of one session and their resume order.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    pub tenants: Vec<TenantInput>,
    pub order: Vec<usize>,
}

/// Session layouts a run cycles through, each with its own tenants. A
/// run's percentiles then rest on this many × 32 distinct ops, each
/// repeated, rather than on 32.
pub const LAYOUTS: u64 = 8;

/// The layouts of a run. The seed draws each tenant's engine seed, its
/// fault node and the resume order; the job mix is fixed per tenant index, so
/// a session's work barely moves with the seed.
pub fn inputs(seed: u64) -> Vec<Layout> {
    (0..LAYOUTS).map(|k| layout(seed, k)).collect()
}

fn layout(seed: u64, k: u64) -> Layout {
    let layout_seed = splitmix(seed ^ 0x0073_6572_7665 ^ (k << 56)); // "serve"
    let mut x = layout_seed;
    let mut draw = |n: u64| {
        x = splitmix(x);
        x % n
    };
    let tenants = (0..TENANTS)
        .map(|i| {
            let system = realtime::SYSTEM_LABELS[i % realtime::SYSTEM_LABELS.len()];
            let n = JOB_MIX.len();
            let (bench, mb, reduces) = JOB_MIX[(i + 2) % n];
            let jobs = [JOB_MIX[i % n], (bench, mb * 0.5, reduces)];
            let tenant_seed = draw(1 << 48);
            let fault = (i % FAULT_EVERY == 0).then(|| {
                let node = draw(TENANT_NODES as u64) as usize;
                (node, FAULT_AFTER_MS, FAULT_DOWNTIME_MS)
            });
            TenantInput {
                name: format!("L{k}-t{i:02}-{system}"),
                system,
                seed: tenant_seed,
                jobs,
                fault,
            }
        })
        .collect();
    Layout {
        tenants,
        order: seeded_order(TENANTS, layout_seed),
    }
}

fn service_config(telemetry: Telemetry) -> ServiceConfig {
    let cfg = ServiceConfig {
        tick_interval: Duration::from_micros(1),
        dilation: QUANTUM_MS as f64 * 1000.0,
        workers: 1,
        record_script: true,
        telemetry,
        sim_horizon: SimDuration::from_secs(SIM_HORIZON_S),
        ..ServiceConfig::default()
    };
    assert_eq!(cfg.quantum_ms(), QUANTUM_MS, "service quantum");
    cfg
}

/// Block until the tick after the current one has completed, so the next
/// command lands in a later drain.
fn next_tick(h: &ServiceHandle) -> Result<(), String> {
    let (t, since) = (h.tick(), Instant::now());
    while h.tick() == t {
        if since.elapsed() > STALL {
            return Err(format!("no tick for {STALL:?}"));
        }
        std::thread::sleep(Duration::from_micros(20));
    }
    Ok(())
}

/// When a tenant's op ended, and its (final state hash, sim ms) or why it
/// failed.
type Ended = (Instant, Result<(u64, u64), String>);

/// Stops the service however a session ends.
struct Running(ServiceHandle);

impl Drop for Running {
    fn drop(&mut self) {
        // after a normal shutdown this second call is a no-op error
        let _ = self.0.shutdown();
    }
}

struct Session {
    setup_s: f64,
    wall_s: f64,
    sim_s: f64,
    op_ms: Vec<f64>,
    summary: ServiceSummary,
    /// Live final state hash per tenant (`None` if the tenant's op failed).
    hashes: Vec<Option<u64>>,
    submit_ns: Vec<u64>,
    read_ns: u64,
    reads: u64,
    lost_final_frames: u64,
}

fn load(h: &ServiceHandle, t: &TenantInput, submit_ns: &mut Vec<u64>) -> Result<(), String> {
    let id = h.create_tenant(&t.name, TENANT_NODES, t.seed, t.system)?;
    next_tick(h)?;
    h.pause(id)?;
    next_tick(h)?;
    for (bench, mb, reduces) in t.jobs {
        let s = Instant::now();
        h.submit_job(id, bench.name(), mb, reduces)?;
        submit_ns.push(s.elapsed().as_nanos() as u64);
        next_tick(h)?;
    }
    if let Some((node, after_ms, downtime_ms)) = t.fault {
        h.inject_fault(id, node, after_ms, Some(downtime_ms))?;
        next_tick(h)?;
    }
    Ok(())
}

/// One session: spawn, load every tenant paused, resume them one tick
/// apart, poll frames until every tenant has finished, shut down.
fn session(
    layout: &Layout,
    start: Instant,
    telem: Telemetry,
    host: &mut HostRef,
    checker: &mut Checker,
) -> Result<Session, String> {
    let running = Running(RealtimeService::spawn(service_config(telem)));
    let h = &running.0;
    let (inputs, order) = (&layout.tenants, &layout.order);
    let mut submit_ns = Vec::with_capacity(2 * TENANTS);
    for t in inputs {
        load(h, t, &mut submit_ns)?;
    }
    let setup_s = start.elapsed().as_secs_f64();

    let n = inputs.len();
    let mut resumed_at = vec![start; n];
    let first_resume = Instant::now();
    for &i in order.iter() {
        h.resume(i)?;
        resumed_at[i] = Instant::now();
        next_tick(h)?;
    }
    let mut done: Vec<Option<Ended>> = vec![None; n];
    // (epoch last seen, tick it was first seen at) per tenant
    let mut seen: Vec<(u64, u64)> = vec![(0, h.tick()); n];
    let mut pending = n;
    let (mut read_ns, mut reads, mut lost_final_frames) = (0u64, 0u64, 0u64);
    let mut next_ref = Instant::now() + REF_EVERY;
    while pending > 0 {
        if first_resume.elapsed() > STALL {
            return Err(format!("{pending} tenants unfinished after {STALL:?}"));
        }
        let sweep = Instant::now();
        let mut stale = Vec::new();
        for (i, slot) in done.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let frame = h
                .frame(i)
                .ok_or_else(|| format!("tenant {i} has no frame cell"))?;
            reads += 1;
            let outcome = match frame_fault(&frame) {
                Some(fault) => Err(fault),
                None if !frame.paused && frame.obs.all_finished => {
                    Ok((frame.obs.state_hash, frame.obs.at_ms))
                }
                None => {
                    let tick = h.tick();
                    if frame.epoch != seen[i].0 {
                        seen[i] = (frame.epoch, tick);
                    } else if tick >= seen[i].1 + STALE_TICKS {
                        stale.push(i);
                        seen[i].1 = tick;
                    }
                    continue;
                }
            };
            *slot = Some((Instant::now(), outcome));
            pending -= 1;
        }
        // A running tenant publishes every tick, and a publish is only
        // skipped while a reader holds the slot. A tenant that finished
        // (or died) in a tick whose publish was skipped is never
        // republished, so its final frame is lost; a no-op `resume`
        // touches it and republishes. Each such frame is counted.
        for i in stale {
            h.resume(i)?;
            lost_final_frames += 1;
        }
        read_ns += sweep.elapsed().as_nanos() as u64;
        if Instant::now() >= next_ref {
            host.sample();
            next_ref += REF_EVERY;
        }
        if let Some(rest) = POLL.checked_sub(sweep.elapsed()) {
            std::thread::sleep(rest);
        }
    }
    let last = done
        .iter()
        .filter_map(|d| d.as_ref().map(|(t, _)| *t))
        .max()
        .unwrap_or(first_resume);
    let wall_s = (last - first_resume).as_secs_f64();
    let summary = h.shutdown()?;

    let mut op_ms = Vec::with_capacity(n);
    let mut hashes = vec![None; n];
    let mut sim_s = 0.0;
    for (i, d) in done.into_iter().enumerate() {
        let (at, outcome) = d.expect("every tenant finished");
        let t = &summary.tenants[i];
        let outcome = outcome.and_then(|(hash, at_ms)| match &t.error {
            Some(e) => Err(format!("tenant {i} error: {e}")),
            None if t.state_hash != hash => Err(format!(
                "tenant {i}: final frame hash {hash:016x} != summary {:016x}",
                t.state_hash
            )),
            None if t.jobs_completed != 2 => {
                Err(format!("tenant {i}: {} of 2 jobs done", t.jobs_completed))
            }
            None => Ok((hash, at_ms)),
        });
        let (digest, at_ms) = match outcome {
            Ok(v) => (Ok(v.0), Some(v.1)),
            Err(e) => (Err(e), None),
        };
        if checker.op(&inputs[i].name, digest.clone()) {
            op_ms.push((at - resumed_at[i]).as_secs_f64() * 1e3);
            sim_s += at_ms.unwrap_or(0) as f64 / 1e3;
            hashes[i] = digest.ok();
        }
    }
    Ok(Session {
        setup_s,
        wall_s,
        sim_s,
        op_ms,
        summary,
        hashes,
        submit_ns,
        read_ns,
        reads,
        lost_final_frames,
    })
}

/// Add a timed session to `out`. The first timed session's set-up is
/// measured from process start and is the run's `setup_s` sample.
fn add_session(out: &mut Measured, s: &Session) {
    if out.passes == 0 {
        out.setup_s.push(s.setup_s);
    }
    out.lost_final_frames += s.lost_final_frames;
    out.op_ms.extend_from_slice(&s.op_ms);
    out.sim_s += s.sim_s;
    out.busy_s += s.wall_s;
    out.passes += 1;
}

pub fn run(opts: &RunOpts, host: &mut HostRef, checker: &mut Checker) -> Measured {
    let mut out = Measured::default();
    let layouts = inputs(opts.seed);
    out.notes.push(format!(
        "sessions of {TENANTS} tenants x {TENANT_NODES} nodes, 2 PUMA jobs each, {LAYOUTS} \
         layouts in turn, quantum {QUANTUM_MS} ms, 1 advance worker, 1 us tick interval"
    ));
    // warm-up session: checked, not timed
    if let Err(e) = session(
        &layouts[0],
        Instant::now(),
        Telemetry::disabled(),
        host,
        checker,
    ) {
        checker.check(Err(format!("warm-up session: {e}")));
    }
    host.sample();
    if opts.trace {
        traced(&layouts, opts, host, checker, &mut out);
        return out;
    }
    let started = Instant::now();
    for layout in layouts.iter().cycle() {
        let start = session_start(&out, opts);
        match session(layout, start, Telemetry::disabled(), host, checker) {
            Ok(s) => add_session(&mut out, &s),
            Err(e) => checker.check(Err(format!("session: {e}"))),
        }
        host.sample();
        if opts.setup_only {
            break;
        }
        crate::setup_child_if_due(&mut out, started, opts, host, checker);
        if enough(&out, started, opts) {
            break;
        }
    }
    out
}

/// Where a session's set-up time starts: process start for the first
/// timed session, so that `setup_s` runs from process start to the first
/// timed op (input generation, the warm-up session, and the first timed
/// session's spawn and load).
fn session_start(out: &Measured, opts: &RunOpts) -> Instant {
    match out.passes {
        0 => opts.process_start,
        _ => Instant::now(),
    }
}

/// The state a tenant reaches once loaded, built outside the service
/// through the same public calls its commands make. Also returns the
/// time `Engine::prepare` took (ns).
fn replica(t: &TenantInput) -> Result<(EngineState, u64), String> {
    let mut cfg = EngineConfig::small_test(TENANT_NODES, t.seed);
    cfg.record_events = false;
    cfg.tick.horizon = SimTime::ZERO + SimDuration::from_secs(SIM_HORIZON_S);
    let (bench, mb, reduces) = t.jobs[0];
    let t0 = Instant::now();
    let prepared = Engine::new(cfg).prepare(vec![bench.job(0, mb, reduces, SimTime::ZERO)]);
    let prepare_ns = t0.elapsed().as_nanos() as u64;
    let mut state = prepared.map_err(|e| e.to_string())?;
    state.override_policy(t.system).map_err(|e| e.to_string())?;
    let (bench, mb, reduces) = t.jobs[1];
    state
        .inject_job(bench.profile(), mb, reduces)
        .map_err(|e| e.to_string())?;
    if let Some((node, after_ms, downtime_ms)) = t.fault {
        let at = state.at() + SimDuration::from_millis(after_ms);
        let fault = NodeFault::transient(NodeId(node), at, SimDuration::from_millis(downtime_ms));
        state.inject_fault(fault).map_err(|e| e.to_string())?;
    }
    Ok((state, prepare_ns))
}

/// Program-span ring of one replica run.
const REPLICA_SPAN_RING: usize = 1 << 14;

/// Rebuild one tenant outside the service, run it straight with a fresh
/// telemetry sink, audit it, and advance it again in quantum chunks; the
/// two runs must agree. Returns the chunked end state hash.
fn replica_run(
    t: &TenantInput,
    id: u64,
    tracer: &mut Tracer,
    arena: &mut EngineArena,
    layers: &mut EngineLayers,
) -> Result<u64, String> {
    let (state, prepare) = replica(t)?;
    let telem = Telemetry::with_capacity(REPLICA_SPAN_RING, 1 << 10);
    let mut policy = realtime::policy_for(t.system).ok_or("unknown system")?;
    let (straight, step_loop) = tracer.leaf("mapreduce.resume_in", id, || {
        Engine::resume_in(state.clone(), policy.as_mut(), &telem, arena)
    });
    let straight = straight.map_err(|e| e.to_string())?;
    let setup = AuditSetup::from_config(state.config());
    let (violations, audit) = tracer.leaf("mapreduce.audit", id, || audit(&straight, &setup));
    if let Some(v) = violations.first() {
        return Err(format!("{}: audit failed: {v}", t.name));
    }
    let (probe, _) = tracer.leaf("mapreduce.straight_vs_chunked", id, || {
        straight_vs_chunked(state, t.system, arena)
    });
    let (straight_ns, chunked) = probe.map_err(|e| format!("{}: {e}", t.name))?;
    let times = CallTimes {
        prepare,
        step_loop,
        audit,
    };
    layers.op(&straight, t.system, TENANT_NODES, &times, &telem);
    layers.chunks(straight_ns, &chunked);
    Ok(chunked.state.state_hash())
}

/// Every tenant's replica must end on the live tenant's final hash.
fn replicas(
    tenants: &[TenantInput],
    live: &[Option<u64>],
    tracer: &mut Tracer,
    checker: &mut Checker,
    arena: &mut EngineArena,
) -> EngineLayers {
    let mut layers = EngineLayers::default();
    for (i, t) in tenants.iter().enumerate() {
        let root = tracer.enter("tenant_replica", i as u64);
        let end = replica_run(t, i as u64, tracer, arena, &mut layers);
        tracer.exit(root);
        checker.check(end.and_then(|end| match live[i] {
            Some(h) if h == end => Ok(()),
            Some(h) => Err(format!(
                "{}: replica ends on {end:016x}, live tenant on {h:016x}",
                t.name
            )),
            None => Err(format!("{}: no live hash to compare", t.name)),
        }));
    }
    layers
}

fn traced(
    layouts: &[Layout],
    opts: &RunOpts,
    host: &mut HostRef,
    checker: &mut Checker,
    out: &mut Measured,
) {
    let mut tracer = Tracer::default();
    let (mut drain, mut advance, mut publish) = (
        SpanMean::default(),
        SpanMean::default(),
        SpanMean::default(),
    );
    let (mut cold_wall, mut traced_wall) = (0.0, 0.0);
    let (mut submit_ns, mut submits, mut read_ns, mut reads) = (0u64, 0u64, 0u64, 0u64);
    let (mut ticks, mut skips, mut reclaimed, mut fresh, mut traced_sessions) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    // the last traced session's layout and live final hashes
    let mut live = (&layouts[0], vec![None; TENANTS]);
    let mut last_script = None;
    let started = Instant::now();
    let mut session_id = 0u64;
    for layout in layouts.iter().cycle() {
        let start = session_start(out, opts);
        let s = session(layout, start, Telemetry::disabled(), host, checker);
        let cold = match s {
            Ok(s) => {
                add_session(out, &s);
                s.wall_s
            }
            Err(e) => {
                checker.check(Err(format!("session: {e}")));
                break;
            }
        };
        session_id += 1;
        let telem = Telemetry::with_capacity(SPAN_RING, 1 << 12);
        let root = tracer.enter("session", session_id);
        let s = session(layout, Instant::now(), telem.clone(), host, checker);
        tracer.exit(root);
        match s {
            Ok(s) => {
                cold_wall += cold;
                traced_wall += s.wall_s;
                traced_sessions += 1;
                submits += s.submit_ns.len() as u64;
                submit_ns += s.submit_ns.iter().sum::<u64>();
                read_ns += s.read_ns;
                reads += s.reads;
                ticks += s.summary.ticks;
                skips += s.summary.publish_skips;
                reclaimed += s.summary.frames_reclaimed;
                fresh += s.summary.frames_fresh;
                telem.with_spans(|spans| {
                    for sp in spans {
                        match (sp.cat, sp.name) {
                            ("realtime", "drain") => drain.add(sp.dur_us),
                            ("realtime", "advance") => advance.add(sp.dur_us),
                            ("realtime", "publish") => publish.add(sp.dur_us),
                            _ => {}
                        }
                    }
                });
                live = (layout, s.hashes);
                last_script = s.summary.script;
            }
            Err(e) => checker.check(Err(format!("traced session: {e}"))),
        }
        host.sample();
        if enough(out, started, opts) {
            break;
        }
    }

    let mut replay_s = Err("no traced session completed".to_string());
    if let Some(script) = last_script {
        let (outcome, ns) = tracer.leaf("realtime.replay", 0, || script.replay());
        checker.check(if outcome.verified {
            Ok(())
        } else {
            Err(format!("replay diverged: {:?}", outcome.mismatches.first()))
        });
        replay_s = Ok(ns as f64 / 1e9);
    }
    let mut arena = EngineArena::new();
    let engine = replicas(&live.0.tenants, &live.1, &mut tracer, checker, &mut arena);
    host.sample();

    let norm = Normaliser::from_samples(host.samples_ms());
    let scale = norm.time(1.0);
    let per = |ns: u64, n: u64, unit: f64| norm.time(ns as f64 / n.max(1) as f64 / unit);
    let traced_n = traced_sessions.max(1) as f64;
    out.layers = engine.layers(&norm, arena.growth_events());
    out.layers.extend([
        span_layer("realtime.drain_us", &drain, scale),
        span_layer("realtime.advance_us", &advance, scale),
        span_layer("realtime.publish_us", &publish, scale),
        Layer::ok("realtime.submit_ms", "ms", per(submit_ns, submits, 1e6)),
        Layer::ok("realtime.frame_read_us", "us", per(read_ns, reads, 1e3)),
        Layer::ok("realtime.ticks", "count", ticks as f64 / traced_n),
        Layer::ok("realtime.publish_skips", "count", skips as f64 / traced_n),
        Layer::ok(
            "realtime.frame_reuse_frac",
            "frac",
            reclaimed as f64 / (reclaimed + fresh).max(1) as f64,
        ),
        Layer {
            name: "realtime.replay_s",
            unit: "s",
            value: replay_s.map(|s| norm.time(s)),
        },
        Layer::ok(
            "telemetry.overhead_frac",
            "frac",
            traced_wall / f64::max(cold_wall, 1e-9) - 1.0,
        ),
    ]);
    out.tracer = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_generated_inputs() {
        let a = inputs(5);
        assert_eq!(a, inputs(5));
        assert_ne!(a, inputs(6), "another seed draws other tenants");
        assert_eq!(a.len() as u64, LAYOUTS);
        assert_ne!(a[0].tenants, a[1].tenants, "layouts differ");
        for l in &a {
            assert_eq!(l.tenants.len(), TENANTS);
            assert_eq!(l.tenants.iter().filter(|t| t.fault.is_some()).count(), 5);
            let mut order = l.order.clone();
            order.sort();
            assert_eq!(order, (0..TENANTS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_service_runs_at_the_serve_quantum() {
        assert_eq!(
            service_config(Telemetry::disabled()).quantum_ms(),
            QUANTUM_MS
        );
    }
}
