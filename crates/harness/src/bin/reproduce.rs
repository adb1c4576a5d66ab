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

use harness::scale::Scale;
use harness::{
    ablation, capsules, ext_fair, ext_faults, ext_hetero, ext_load, ext_stragglers, fig1, fig3,
    fig4, fig5, fig6, fig7, fig89, model_check, output, summary, targets,
};
use simgrid::time::{SimDuration, SteppingMode};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    target: String,
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
    via: capsules::Via,
    /// `serve`: wall-clock tick interval (ms).
    tick_ms: u64,
    /// `serve`: simulated seconds advanced per wall second.
    dilation: f64,
}

/// The command line as [`Args`], or `Ok(None)` when `--help` asks for the
/// usage text.
fn parse_args() -> Result<Option<Args>, String> {
    let mut positionals = Vec::new();
    let mut scale = Scale::Full;
    let mut out = PathBuf::from("results");
    let mut trace = None;
    let mut dashboard = None;
    let mut engine = None;
    let mut checkpoint_every = None;
    let mut capsule_dir = None;
    let mut via = capsules::Via::Straight;
    let mut tick_ms = 20u64;
    let mut dilation = 50.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
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
                via = capsules::Via::parse(&it.next().ok_or("--via needs straight|resume")?)?;
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
    let target = positionals.next().unwrap_or_else(|| "all".to_string());
    let operands: Vec<String> = positionals.collect();
    if !targets::takes_operands(&target) && !operands.is_empty() {
        return Err(format!("unexpected argument: {}\n{USAGE}", operands[0]));
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
       reproduce <target> --checkpoint-every SECS --capsule-dir DIR   # record the target's representative run as a capsule stream + hash trace
       reproduce fingerprint <target> [--via straight|resume] [--capsule-dir DIR]   # print the representative run's auditor fingerprint and per-step hash digest
       reproduce resume CAPSULE.{bin,json}                            # resume a capsule to completion
       reproduce bisect DIR_A DIR_B                                   # first divergent step of two streams' hash traces, diffed at the next capsule pair (exit 1 if diverged)
       reproduce serve [ADDR] [--tick-ms MS] [--dilation X]           # realtime NDJSON service (default 127.0.0.1:7700)
       reproduce --help                                               # full target list with descriptions";

/// The perf-summary block every figure JSON carries. It holds no wall
/// clock: timings come from perfbench (see `BENCHMARK.json`).
fn perf_block(steps: u64, sim_ms: u64) -> serde_json::Value {
    let telem = harness::runner::active_telemetry();
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
            match harness::runner::engine_mode() {
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

fn check_capsule_target(target: &str) -> Result<(), String> {
    if targets::has_representative_run(target) {
        Ok(())
    } else {
        Err(format!(
            "no representative run for target {target}\n{USAGE}"
        ))
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// `reproduce fingerprint <target> [--via straight|resume]`.
fn run_fingerprint(args: &Args, scale: Scale) -> ExitCode {
    let Some(target) = args.operands.first() else {
        return fail(&format!("fingerprint needs a target\n{USAGE}"));
    };
    if let Err(msg) = check_capsule_target(target) {
        return fail(&msg);
    }
    match capsules::fingerprint_target(target, scale, args.via, args.capsule_dir.as_deref()) {
        Ok(line) => {
            print!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => fail(&msg),
    }
}

/// `reproduce <target> --checkpoint-every SECS --capsule-dir DIR`.
fn run_record(args: &Args, scale: Scale, every: SimDuration) -> ExitCode {
    let Some(dir) = &args.capsule_dir else {
        return fail("--checkpoint-every needs --capsule-dir DIR");
    };
    if args.target == "all" {
        return fail("--checkpoint-every records one target's representative run; name it");
    }
    if let Err(msg) = check_capsule_target(&args.target) {
        return fail(&msg);
    }
    match capsules::record_target(&args.target, scale, every, dir) {
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
    let Some(path) = args.operands.first() else {
        return fail(&format!("resume needs a capsule file\n{USAGE}"));
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
    let addr = args
        .operands
        .first()
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7700");
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}\n\n{}", targets::render_list());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace.is_some() {
        harness::runner::install_telemetry(telemetry::Telemetry::enabled());
    }
    if let Some(mode) = args.engine {
        harness::runner::set_engine_mode(mode);
    }
    let scale = args.scale;
    // checkpoint & replay subcommands run and exit before the figure loop
    match args.target.as_str() {
        "fingerprint" => return run_fingerprint(&args, scale),
        "resume" => return run_resume(&args),
        "bisect" => return run_bisect(&args),
        "serve" => return run_serve(&args),
        _ => {}
    }
    if let Some(every) = args.checkpoint_every {
        return run_record(&args, scale, every);
    }
    if args.capsule_dir.is_some() {
        eprintln!("--capsule-dir needs --checkpoint-every (or the fingerprint subcommand)");
        return ExitCode::FAILURE;
    }
    let run_one = |name: &str| -> Result<(), String> {
        let steps_before = harness::runner::total_steps();
        let sim_ms_before = harness::runner::total_sim_ms();
        let counters_before = harness::runner::counters_snapshot();
        let (text, json): (String, serde_json::Value) = match name {
            "fig1" => {
                let d = fig1::run(scale);
                let _ = output::write_gnuplot(&args.out, "fig1", &fig1::to_gnuplot(&d));
                (
                    fig1::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "fig3" => {
                let d = fig3::run(scale);
                let mut text = fig3::render(&d);
                text.push('\n');
                text.push_str(&summary::render(&summary::headline_claims(&d)));
                (text, serde_json::to_value(&d).expect("serialise"))
            }
            "fig4" => {
                let d = fig4::run(scale);
                (
                    fig4::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "fig5" => {
                let d = fig5::run(scale);
                let _ = output::write_gnuplot(&args.out, "fig5", &fig5::to_gnuplot(&d));
                (
                    fig5::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "fig6" => {
                let d = fig6::run(scale);
                let _ = output::write_gnuplot(&args.out, "fig6", &fig6::to_gnuplot(&d));
                (
                    fig6::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "fig7" => {
                let d = fig7::run(scale);
                (
                    fig7::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "fig8" => {
                let d = fig89::run_fig8(scale);
                (
                    fig89::render(&d, 8),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "fig9" => {
                let d = fig89::run_fig9(scale);
                (
                    fig89::render(&d, 9),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "ablations" => {
                let d = ablation::run(scale);
                (
                    ablation::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "model-check" => {
                let d = model_check::run(scale);
                (
                    model_check::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "ext-load" => {
                let d = ext_load::run(scale);
                (
                    ext_load::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "ext-fair" => {
                let d = ext_fair::run(scale);
                (
                    ext_fair::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "ext-faults" => {
                let d = ext_faults::run(scale);
                (
                    ext_faults::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "ext-stragglers" => {
                let d = ext_stragglers::run(scale);
                (
                    ext_stragglers::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "ext-hetero" => {
                let d = ext_hetero::run(scale);
                (
                    ext_hetero::render(&d),
                    serde_json::to_value(&d).expect("serialise"),
                )
            }
            "headline" => {
                let d = fig3::run(scale);
                let claims = summary::headline_claims(&d);
                (
                    summary::render(&claims),
                    serde_json::to_value(&claims).expect("serialise"),
                )
            }
            other => return Err(targets::unknown(other)),
        };
        let perf = perf_block(
            harness::runner::total_steps() - steps_before,
            harness::runner::total_sim_ms() - sim_ms_before,
        );
        let counters = harness::runner::counters_snapshot().delta_from(&counters_before);
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
            let html = harness::dashboard::render_for_target(name, scale)
                .map_err(|e| format!("{name} dashboard run failed: {e}"))?;
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let path = dir.join(format!("{name}_dashboard.html"));
            std::fs::write(&path, html).map_err(|e| e.to_string())?;
            println!("[wrote dashboard {}]\n", path.display());
        }
        Ok(())
    };

    let targets: Vec<&str> = if args.target == "all" {
        targets::all().collect()
    } else {
        vec![args.target.as_str()]
    };
    for t in targets {
        if let Err(msg) = run_one(t) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace {
        let telem = harness::runner::active_telemetry();
        match telem.chrome_trace() {
            Some(trace) => {
                if let Err(e) = std::fs::write(path, trace) {
                    eprintln!("failed to write trace {}: {e}", path.display());
                    return ExitCode::FAILURE;
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
            }
            None => {
                eprintln!("internal error: --trace given but telemetry disabled");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
