//! `reproduce` — regenerate every figure of the SMapReduce paper.
//!
//! ```text
//! reproduce all [--quick] [--out DIR]        # every figure + ext-hetero
//! reproduce fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9 [--quick] [--out DIR]
//! reproduce ext-hetero|ext-stragglers|ext-fair|ext-load   # extensions
//! reproduce ablations|model-check            # knob sweeps / §III-B1 check
//! reproduce headline [--quick]               # §V-A claims only
//! reproduce <fig> --trace trace.json         # + Chrome/Perfetto trace
//! ```
//!
//! Each figure prints its plain-text rendering and writes `<fig>.txt` +
//! `<fig>.json` under the output directory (default `results/`). Every
//! figure's JSON carries a `perf` block (steps simulated, simulated
//! seconds covered, steps per simulated second, stepping mode, peak
//! recorder memory — no wall clock, so re-running a target writes the
//! same JSON; timings come from perfbench) and a `counters` block (the
//! Hadoop-style cluster counters the target's runs accumulated, also
//! appended to the text rendering). Every run is passed
//! through the invariant auditor; a violation fails the invocation. With
//! `--engine fixed|adaptive` every run in the invocation is pinned to one
//! stepping mode (default: each config's own, i.e. adaptive). With
//! `--trace FILE`, telemetry is enabled for the whole invocation and one
//! Chrome-trace JSON — engine step-phase spans, task-lifecycle instants,
//! slot-manager decision audits, slot-target counters — is written to
//! FILE (open it in `ui.perfetto.dev`); if the recorder's rings wrapped,
//! a warning reports how many spans/samples the trace is missing. With
//! `--dashboard DIR`, each target additionally re-runs its representative
//! configuration with event recording on and writes
//! `DIR/<target>_dashboard.html` — a self-contained flight-recorder page
//! (per-node task Gantt, slot occupancy, utilization timelines, decision
//! markers, counters, auditor verdict).
//!
//! The target resolves to its row of [`targets::TARGETS`], which holds its
//! run, and the row's kind fixes the flags it reads: a figure or `all`
//! reads `--quick`, `--out`, `--trace`, `--dashboard` and `--engine`; a
//! figure recorded with `--checkpoint-every` reads `--quick`, `--engine`
//! and `--capsule-dir`; `fingerprint` reads `--quick`, `--engine` and
//! `--via`, and `--capsule-dir` with `--via resume`; `serve` reads
//! `--tick-ms` and `--dilation`; `resume` and `bisect` read none. Any
//! other flag fails the invocation before anything runs.

use harness::capsules::{self, Via};
use harness::scale::Scale;
use harness::targets::{self, Figure, Kind, Output, Subcommand, Target};
use harness::{output, runner};
use simgrid::time::{SimDuration, SteppingMode};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    target: &'static Target,
    /// Extra positional operands: the target for `fingerprint`, the
    /// capsule file for `resume`, the two stream directories for `bisect`.
    operands: Vec<String>,
    scale: Scale,
    out: PathBuf,
    trace: Option<PathBuf>,
    dashboard: Option<PathBuf>,
    engine: Option<SteppingMode>,
    checkpoint_every: Option<SimDuration>,
    capsule_dir: Option<PathBuf>,
    via: Via,
    /// `serve`: wall-clock tick interval (ms).
    tick_ms: u64,
    /// `serve`: simulated seconds advanced per wall second.
    dilation: f64,
}

/// The command line as [`Args`], or `Ok(None)` when `--help` asks for the
/// usage text. The target resolves to its registry row here, and a flag
/// the target does not read is an error.
fn parse_args() -> Result<Option<Args>, String> {
    let mut positionals = Vec::new();
    let mut given = Vec::new();
    let mut scale = Scale::Full;
    let mut out = PathBuf::from("results");
    let mut trace = None;
    let mut dashboard = None;
    let mut engine = None;
    let mut checkpoint_every = None;
    let mut capsule_dir = None;
    let mut via = Via::Straight;
    let mut tick_ms = 20u64;
    let mut dilation = 50.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            given.push(a.clone());
        }
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            "--trace" => {
                trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file")?));
            }
            "--dashboard" => {
                dashboard = Some(PathBuf::from(
                    it.next().ok_or("--dashboard needs a directory")?,
                ));
            }
            "--engine" => {
                engine = Some(
                    match it.next().ok_or("--engine needs fixed|adaptive")?.as_str() {
                        "fixed" => SteppingMode::Fixed,
                        "adaptive" => SteppingMode::Adaptive,
                        other => {
                            return Err(format!("--engine must be fixed|adaptive, got {other}"))
                        }
                    },
                );
            }
            "--checkpoint-every" => {
                let secs: u64 = it
                    .next()
                    .ok_or("--checkpoint-every needs seconds")?
                    .parse()
                    .map_err(|_| "--checkpoint-every needs a whole number of seconds")?;
                if secs == 0 {
                    return Err("--checkpoint-every must be non-zero".into());
                }
                checkpoint_every = Some(SimDuration::from_secs(secs));
            }
            "--capsule-dir" => {
                capsule_dir = Some(PathBuf::from(
                    it.next().ok_or("--capsule-dir needs a directory")?,
                ));
            }
            "--via" => {
                via = Via::parse(&it.next().ok_or("--via needs straight|resume")?)?;
            }
            "--tick-ms" => {
                tick_ms = it
                    .next()
                    .ok_or("--tick-ms needs milliseconds")?
                    .parse()
                    .map_err(|_| "--tick-ms needs a whole number of milliseconds")?;
                if tick_ms == 0 {
                    return Err("--tick-ms must be non-zero".into());
                }
            }
            "--dilation" => {
                dilation = it
                    .next()
                    .ok_or("--dilation needs a factor")?
                    .parse()
                    .map_err(|_| "--dilation needs a number")?;
                if !dilation.is_finite() || dilation <= 0.0 {
                    return Err("--dilation must be a positive number".into());
                }
            }
            "--help" | "-h" => return Ok(None),
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument: {other}\n{USAGE}"))
            }
            other => positionals.push(other.to_string()),
        }
    }
    let mut positionals = positionals.into_iter();
    let target = targets::find(&positionals.next().unwrap_or_else(|| "all".to_string()))?;
    let operands: Vec<String> = positionals.collect();
    if !matches!(target.kind, Kind::Sub(..)) && !operands.is_empty() {
        return Err(format!("unexpected argument: {}\n{USAGE}", operands[0]));
    }
    let (what, reads) = flags_read(target, checkpoint_every.is_some(), via);
    if let Some(flag) = given.iter().find(|f| !reads.contains(&f.as_str())) {
        return Err(format!("{what} does not read {flag}\n{USAGE}"));
    }
    Ok(Some(Args {
        target,
        operands,
        scale,
        out,
        trace,
        dashboard,
        engine,
        checkpoint_every,
        capsule_dir,
        via,
        tick_ms,
        dilation,
    }))
}

const USAGE: &str = "usage: reproduce [TARGET] [--quick] [--out DIR] [--trace FILE] [--dashboard DIR] [--engine fixed|adaptive]
       reproduce <target> [--quick] [--engine fixed|adaptive] --checkpoint-every SECS --capsule-dir DIR   # record the target's representative run as a capsule stream + hash trace
       reproduce fingerprint <target> [--quick] [--engine fixed|adaptive] [--via straight|resume] [--capsule-dir DIR]   # print the representative run's auditor fingerprint and per-step hash digest
       reproduce resume CAPSULE.{bin,json}                            # resume a capsule to completion
       reproduce bisect DIR_A DIR_B                                   # first divergent step of two streams' hash traces, diffed at the next capsule pair (exit 1 if diverged)
       reproduce serve [ADDR] [--tick-ms MS] [--dilation X]           # realtime NDJSON service (default 127.0.0.1:7700)
       reproduce --help                                               # full target list with descriptions";

/// The flags `target` reads in this invocation, and its name for an
/// error: a figure row (or `all`) reads the figure flags, and the
/// recording of a figure row, `fingerprint` (by `--via`), `resume`,
/// `bisect` and `serve` each read their own.
fn flags_read(target: &Target, recording: bool, via: Via) -> (String, &'static [&'static str]) {
    const FIGURE: &[&str] = &["--quick", "--out", "--trace", "--dashboard", "--engine"];
    let name = target.name.to_string();
    match target.kind {
        Kind::Figure(_) if recording => (
            format!("{name} --checkpoint-every"),
            &["--quick", "--engine", "--checkpoint-every", "--capsule-dir"],
        ),
        Kind::All | Kind::Figure(_) => (name, FIGURE),
        Kind::Sub(Subcommand::Fingerprint, _) => match via {
            Via::Straight => (
                format!("{name} --via straight"),
                &["--quick", "--engine", "--via"],
            ),
            Via::Resume => (
                format!("{name} --via resume"),
                &["--quick", "--engine", "--via", "--capsule-dir"],
            ),
        },
        Kind::Sub(Subcommand::Resume | Subcommand::Bisect, _) => (name, &[]),
        Kind::Sub(Subcommand::Serve, _) => (name, &["--tick-ms", "--dilation"]),
    }
}

/// The perf-summary block every figure JSON carries. It holds no wall
/// clock: timings come from perfbench (see `BENCHMARK.json`).
fn perf_block(steps: u64, sim_ms: u64) -> serde_json::Value {
    let telem = runner::active_telemetry();
    let sim_seconds = sim_ms as f64 / 1000.0;
    let mut perf = serde_json::Value::Object(Vec::new());
    perf.set("steps", serde_json::Value::U64(steps));
    perf.set("sim_seconds", serde_json::Value::F64(sim_seconds));
    perf.set(
        "steps_per_sim_second",
        serde_json::Value::F64(if sim_seconds > 0.0 {
            steps as f64 / sim_seconds
        } else {
            0.0
        }),
    );
    perf.set(
        "engine",
        serde_json::Value::String(
            match runner::engine_mode() {
                Some(SteppingMode::Fixed) => "fixed",
                Some(SteppingMode::Adaptive) => "adaptive",
                None => "adaptive (default)",
            }
            .to_string(),
        ),
    );
    perf.set(
        "peak_recorder_bytes",
        serde_json::Value::U64(telem.memory_bytes() as u64),
    );
    perf
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// `reproduce fingerprint <target> [--via straight|resume]`.
fn run_fingerprint(args: &Args) -> ExitCode {
    let [name] = args.operands.as_slice() else {
        return fail(&format!("fingerprint needs one target\n{USAGE}"));
    };
    let fig = match targets::find(name).map(Target::figure) {
        Ok(Some(fig)) => fig,
        Ok(None) => return fail(&format!("no representative run for target {name}\n{USAGE}")),
        Err(msg) => return fail(&msg),
    };
    let dir = args.capsule_dir.as_deref();
    match capsules::fingerprint_target(name, fig.representative, args.scale, args.via, dir) {
        Ok(line) => {
            print!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => fail(&msg),
    }
}

/// `reproduce <target> --checkpoint-every SECS --capsule-dir DIR`.
fn run_record(args: &Args, fig: &Figure, every: SimDuration) -> ExitCode {
    let Some(dir) = &args.capsule_dir else {
        return fail("--checkpoint-every needs --capsule-dir DIR");
    };
    match capsules::record_target(fig.representative, args.scale, every, dir) {
        Ok(rec) => {
            println!(
                "[wrote {} capsules (every {:.0}s of a {:.1}s run) and a \
                 {}-step hash trace to {}]\n\
                 fingerprint {:#018x}",
                rec.capsules,
                rec.every_s,
                rec.makespan_s,
                rec.hash_points,
                rec.dir.display(),
                rec.fingerprint
            );
            ExitCode::SUCCESS
        }
        Err(msg) => fail(&msg),
    }
}

/// `reproduce resume CAPSULE.bin`.
fn run_resume(args: &Args) -> ExitCode {
    let [path] = args.operands.as_slice() else {
        return fail(&format!("resume needs one capsule file\n{USAGE}"));
    };
    match capsules::resume_capsule(Path::new(path)) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => fail(&msg),
    }
}

/// `reproduce serve [ADDR]` — run the realtime service until a client
/// sends `shutdown` (or the process is killed).
fn run_serve(args: &Args) -> ExitCode {
    let addr = match args.operands.as_slice() {
        [] => "127.0.0.1:7700",
        [addr] => addr.as_str(),
        _ => return fail(&format!("serve takes at most one address\n{USAGE}")),
    };
    let cfg = realtime::ServiceConfig {
        tick_interval: std::time::Duration::from_millis(args.tick_ms),
        dilation: args.dilation,
        ..realtime::ServiceConfig::default()
    };
    let quantum_ms = cfg.quantum_ms();
    let handle = realtime::RealtimeService::spawn(cfg);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let result = realtime::wire::serve(handle.clone(), addr, stop, |bound| {
        println!(
            "[realtime service on {bound}: {} ms/tick, {quantum_ms} sim-ms quantum; \
             NDJSON commands: create_tenant submit_job inject_fault pause resume \
             snapshot observe stats tenants shutdown]",
            args.tick_ms
        );
    });
    match result {
        Ok(()) => {
            if let Ok(summary) = handle.shutdown() {
                println!(
                    "[served {} tick(s), {} tenant(s), {} command(s)]",
                    summary.ticks,
                    summary.tenants.len(),
                    summary.commands_applied
                );
                if let Some(script) = &summary.script {
                    let outcome = script.replay();
                    if outcome.verified {
                        println!(
                            "[replay verified: {} hash point(s) across {} tenant(s)]",
                            outcome.points_checked, outcome.tenants
                        );
                    } else {
                        for m in &outcome.mismatches {
                            eprintln!("replay mismatch: {m}");
                        }
                        return fail("recorded ingress script did not replay to the live hashes");
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(msg) => fail(&msg),
    }
}

/// `reproduce bisect DIR_A DIR_B` — exit 0 when the two hash traces are
/// identical, 1 when they diverge (with the first divergent step and the
/// field diff of the first capsule pair at or after it on stdout).
fn run_bisect(args: &Args) -> ExitCode {
    let [dir_a, dir_b] = args.operands.as_slice() else {
        return fail(&format!("bisect needs two capsule directories\n{USAGE}"));
    };
    match checkpoint::bisect_hash_traces(Path::new(dir_a), Path::new(dir_b)) {
        Ok(div) => {
            print!("{}", capsules::render_trace_divergence(&div));
            if div.is_none() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// `reproduce <figure>` and `reproduce all`: run each figure, then write
/// the trace of the whole invocation.
fn run_figures<'a>(args: &Args, figures: impl Iterator<Item = (&'a str, &'a Figure)>) -> ExitCode {
    for (name, fig) in figures {
        if let Err(msg) = run_figure(args, name, fig) {
            return fail(&msg);
        }
    }
    let Some(path) = &args.trace else {
        return ExitCode::SUCCESS;
    };
    let telem = runner::active_telemetry();
    let Some(trace) = telem.chrome_trace() else {
        return fail("internal error: --trace given but telemetry disabled");
    };
    if let Err(e) = std::fs::write(path, trace) {
        return fail(&format!("failed to write trace {}: {e}", path.display()));
    }
    println!("[wrote trace {} — open in ui.perfetto.dev]", path.display());
    let (ds, dc) = (telem.dropped_spans(), telem.dropped_counter_samples());
    if ds > 0 || dc > 0 {
        eprintln!(
            "warning: recorder rings wrapped — trace is missing the oldest \
             {ds} span(s) and {dc} counter sample(s); raise the ring \
             capacities to keep the whole run"
        );
    }
    ExitCode::SUCCESS
}

/// Run one figure and write its plot, `.txt` and `.json` (the JSON with
/// the perf and counter blocks of its runs) and, with `--dashboard`, its
/// representative run's dashboard.
fn run_figure(args: &Args, name: &str, fig: &Figure) -> Result<(), String> {
    let steps_before = runner::total_steps();
    let sim_ms_before = runner::total_sim_ms();
    let counters_before = runner::counters_snapshot();
    let Output { text, json, plot } = (fig.run)(args.scale);
    if let Some(plot) = plot {
        output::write_gnuplot(&args.out, name, &plot)
            .map_err(|e| format!("{name}: writing its plot to {}: {e}", args.out.display()))?;
    }
    let perf = perf_block(
        runner::total_steps() - steps_before,
        runner::total_sim_ms() - sim_ms_before,
    );
    let counters = runner::counters_snapshot().delta_from(&counters_before);
    // non-object payloads (e.g. headline's claim list) get wrapped so
    // the perf block always has somewhere to live
    let mut json = match json {
        obj @ serde_json::Value::Object(_) => obj,
        other => {
            let mut wrapped = serde_json::Value::Object(Vec::new());
            wrapped.set("data", other);
            wrapped
        }
    };
    json.set("perf", perf);
    json.set(
        "counters",
        serde_json::to_value(&counters).expect("serialise"),
    );
    let mut text = text;
    text.push_str("\nCluster counters (all runs of this target):\n");
    if counters.is_zero() {
        text.push_str("  (none)\n");
    } else {
        text.push_str(&counters.render_table("  "));
    }
    println!("{text}");
    let (txt, js) =
        output::write_outputs(&args.out, name, &text, &json).map_err(|e| e.to_string())?;
    println!("[wrote {} and {}]\n", txt.display(), js.display());
    if let Some(dir) = &args.dashboard {
        let html = harness::dashboard::render_for_target(name, fig.representative, args.scale)
            .map_err(|e| format!("{name} dashboard run failed: {e}"))?;
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{name}_dashboard.html"));
        std::fs::write(&path, html).map_err(|e| e.to_string())?;
        println!("[wrote dashboard {}]\n", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}\n\n{}", targets::render_list());
            return ExitCode::SUCCESS;
        }
        Err(msg) => return fail(&msg),
    };
    if args.trace.is_some() {
        runner::install_telemetry(telemetry::Telemetry::enabled());
    }
    if let Some(mode) = args.engine {
        runner::set_engine_mode(mode);
    }
    match (&args.target.kind, args.checkpoint_every) {
        (Kind::Figure(fig), Some(every)) => run_record(&args, fig, every),
        (Kind::Figure(fig), None) => run_figures(&args, std::iter::once((args.target.name, fig))),
        (Kind::All, _) => run_figures(&args, targets::all()),
        (Kind::Sub(Subcommand::Fingerprint, _), _) => run_fingerprint(&args),
        (Kind::Sub(Subcommand::Resume, _), _) => run_resume(&args),
        (Kind::Sub(Subcommand::Bisect, _), _) => run_bisect(&args),
        (Kind::Sub(Subcommand::Serve, _), _) => run_serve(&args),
    }
}
