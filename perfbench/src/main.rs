//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper-grid|scale-1024|serve-tenants> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every end-to-end timing is host-normalised: multiplied by
//! `NOMINAL_REF_MS / ref_ms`, where `ref_ms` is the run's median time of
//! a reference kernel timed between ops (see `host.rs`). The raw figures
//! and `ref_ms` are printed beside them. `--trace 1` runs the workload
//! once more with spans around each public call and prints the per-layer
//! table instead. The last line of standard output is the result as one
//! JSON object. See `README.md` beside this file.

mod batch;
mod check;
mod host;
mod serve;
mod stats;
mod trace;

use check::Checker;
use host::{HostFacts, HostRef};
use stats::{percentile, quartiles, sorted, tail_percentile, Normaliser};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Tracer};

pub const WORKLOADS: [&str; 3] = ["paper-grid", "scale-1024", "serve-tenants"];

/// End-to-end metrics, printed by every untraced run (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed by every traced run (name, unit). A metric
/// a workload cannot resolve reads 0 and is listed as unresolved, with
/// the reason, in the per-layer table.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("mapreduce.prepare_ms", "ms"),
    ("mapreduce.step_loop_ms", "ms"),
    ("mapreduce.steps", "count"),
    ("mapreduce.ns_per_step_per_node", "ns"),
    ("mapreduce.audit_ms", "ms"),
    ("mapreduce.arena_growths", "count"),
    ("mapreduce.quantum_us", "us"),
    ("mapreduce.quantum_overhead_frac", "frac"),
    ("smapreduce.decisions", "count"),
    ("smapreduce.slot_changes", "count"),
    ("simgrid.allocate_nodes_us", "us"),
    ("simgrid.network_allocate_us", "us"),
    ("simgrid.event_horizon_us", "us"),
    ("mapreduce.advance_maps_us", "us"),
    ("mapreduce.advance_reduces_us", "us"),
    ("mapreduce.heartbeat_us", "us"),
    ("mapreduce.sample_us", "us"),
    ("smapreduce.policy_decide_us", "us"),
    ("yarn.policy_decide_us", "us"),
    ("realtime.drain_us", "us"),
    ("realtime.advance_us", "us"),
    ("realtime.publish_us", "us"),
    ("realtime.submit_ms", "ms"),
    ("realtime.frame_read_us", "us"),
    ("realtime.ticks", "count"),
    ("realtime.publish_skips", "count"),
    ("realtime.frame_reuse_frac", "frac"),
    ("realtime.replay_s", "s"),
    ("telemetry.overhead_frac", "frac"),
    ("host.ref_ms", "ms"),
    ("host.op_ms_raw.p50", "ms"),
    ("host.op_ms_raw.p90", "ms"),
    ("host.sim_s_per_host_s_raw", "s/s"),
    ("host.setup_s_raw", "s"),
];

/// Where traced runs write their spans and per-layer tables, relative to
/// the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record_digests: bool,
    /// Stop once set up, print `setup_s <seconds>` and exit: the run is a
    /// child that gives the parent one more `setup_s` sample.
    pub setup_only: bool,
    pub process_start: Instant,
}

impl RunOpts {
    /// A run stops measuring by this time even when its tail percentile
    /// is not yet reportable, so the process ends well within 180 s.
    pub fn max_seconds(&self) -> f64 {
        (self.seconds + 30.0).min(150.0)
    }
}

/// What a workload measured, raw.
#[derive(Default)]
pub struct Measured {
    /// Set-up durations (s), each from a process's start to its first
    /// timed op: this process's and those of its set-up-only children.
    pub setup_s: Vec<f64>,
    /// Latency of every passing timed op (ms).
    pub op_ms: Vec<f64>,
    /// Simulated seconds covered by the passing timed ops.
    pub sim_s: f64,
    /// Host seconds those ops (or sessions) took.
    pub busy_s: f64,
    /// Passes over the inputs (sessions, for serve-tenants).
    pub passes: u64,
    /// Final frames the service never republished after a skipped
    /// publish (serve-tenants only; recovered by a no-op `resume`).
    pub lost_final_frames: u64,
    pub layers: Vec<Layer>,
    pub tracer: Option<Tracer>,
    pub notes: Vec<String>,
}

pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A permutation of `0..n` drawn from `seed`.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = seed;
    for i in (1..n).rev() {
        x = splitmix(x);
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

const USAGE: &str = "usage: perfbench --workload <paper-grid|scale-1024|serve-tenants> \
                     --seed N --seconds S --trace 0|1 [--record-digests] [--setup-only]";

/// Processes whose set-up a run times: itself and this many minus one
/// set-up-only children. `setup_s` is the median.
pub const SETUP_PROCESSES: usize = 9;

fn parse_args(process_start: Instant) -> Result<RunOpts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, check::DEFAULT_SEED, 10.0, false);
    let (mut record_digests, mut setup_only) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record-digests" => record_digests = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    Ok(RunOpts {
        workload,
        seed,
        seconds,
        trace,
        record_digests,
        setup_only,
        process_start,
    })
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The end-to-end figures of a run, raw and normalised.
struct EndToEnd {
    setup_raw: f64,
    p50_raw: f64,
    p90_raw: f64,
    rate_raw: f64,
    peak_rss_mb: f64,
}

fn end_to_end(m: &Measured) -> Result<EndToEnd, String> {
    if m.op_ms.is_empty() {
        return Err("no op passed".into());
    }
    let ops = sorted(&m.op_ms);
    let p90_raw = tail_percentile(&ops, 0.9).ok_or(format!(
        "op_ms.p90 needs {} samples beyond it; {} ops ran",
        stats::MIN_BEYOND,
        ops.len()
    ))?;
    Ok(EndToEnd {
        setup_raw: percentile(&sorted(&m.setup_s), 0.5),
        p50_raw: percentile(&ops, 0.5),
        p90_raw,
        rate_raw: m.sim_s / m.busy_s,
        peak_rss_mb: host::peak_rss_mb().ok_or("VmHWM unavailable")?,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let opts = match parse_args(process_start) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let facts = HostFacts::probe();
    // every thread of the run, the realtime service's tick thread too,
    // shares the CPU the reference kernel is timed on
    let cpu = host::pin_to_current_cpu();
    let mut host = HostRef::default();
    let mut checker = Checker::for_run(&opts.workload, opts.seed);
    let mut m = match opts.workload.as_str() {
        "paper-grid" => batch::run(batch::Grid::Paper, &opts, &mut host, &mut checker),
        "scale-1024" => batch::run(batch::Grid::Scale1024, &opts, &mut host, &mut checker),
        _ => serve::run(&opts, &mut host, &mut checker),
    };
    if opts.setup_only {
        return match (checker.failed, m.setup_s.first()) {
            (0, Some(s)) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("perfbench: set-up failed: {:?}", checker.messages);
                ExitCode::FAILURE
            }
        };
    }
    // children the measuring loop did not reach
    let children = (m.setup_s.len()..SETUP_PROCESSES).try_for_each(|_| {
        m.setup_s.push(child_setup_s(&opts)?);
        host.sample();
        Ok::<(), String>(())
    });
    let recorded = match opts.record_digests {
        true => record_digests(&opts, &checker),
        false => Ok(()),
    };
    let result = children
        .and(recorded)
        .and_then(|()| report(&opts, &facts, cpu, &host, &checker, m));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            for msg in &checker.messages {
                eprintln!("  failure: {msg}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Between passes of an untraced run: time the set-up of the next
/// set-up-only child once its share of `--seconds` has passed, so the
/// `setup_s` samples spread over the phases the run's reference samples
/// cover. A child that fails counts as a failed check.
pub fn setup_child_if_due(
    out: &mut Measured,
    started: Instant,
    opts: &RunOpts,
    host: &mut HostRef,
    checker: &mut Checker,
) {
    let due = out.setup_s.len() as f64 * opts.seconds / SETUP_PROCESSES as f64;
    if out.setup_s.len() < SETUP_PROCESSES && started.elapsed().as_secs_f64() >= due {
        match child_setup_s(opts) {
            Ok(s) => out.setup_s.push(s),
            Err(e) => checker.check(Err(e)),
        }
        host.sample();
    }
}

/// Run this benchmark again as a set-up-only child on the same workload
/// and seed, and return the child's set-up time (s). The child inherits
/// this process's CPU pinning.
fn child_setup_s(opts: &RunOpts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", "0", "--setup-only"])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok());
    match (out.status.success(), value) {
        (true, Some(v)) => Ok(v),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn report(
    opts: &RunOpts,
    facts: &HostFacts,
    cpu: Option<usize>,
    host: &HostRef,
    checker: &Checker,
    m: Measured,
) -> Result<(), String> {
    let norm = Normaliser::from_samples(host.samples_ms());
    let e = end_to_end(&m)?;
    let (q1, med, q3) = quartiles(host.samples_ms());
    println!(
        "host: nproc={} pinned_cpu={} cpu=\"{}\" l3={} ref_ms q1={q1:.5} median={med:.5} \
         q3={q3:.5} (n={})",
        facts.nproc,
        cpu.map_or("none".to_string(), |c| c.to_string()),
        facts.cpu_model,
        facts.l3_label(),
        host.samples_ms().len()
    );
    println!(
        "run: workload={} seed={} trace={} passes={} ops={} attempted={} failed={} \
         fail_frac={}",
        opts.workload,
        opts.seed,
        opts.trace as u8,
        m.passes,
        m.op_ms.len(),
        checker.attempted,
        checker.failed,
        checker.fail_frac()
    );
    for note in &m.notes {
        println!("note: {note}");
    }
    if m.lost_final_frames > 0 {
        println!(
            "note: {} final frames lost to a skipped publish and recovered by a no-op resume",
            m.lost_final_frames
        );
    }
    for msg in &checker.messages {
        println!("failure: {msg}");
    }
    let e2e: [(&str, &str, f64); 6] = [
        ("setup_s", "s", norm.time(e.setup_raw)),
        ("op_ms.p50", "ms", norm.time(e.p50_raw)),
        ("op_ms.p90", "ms", norm.time(e.p90_raw)),
        ("sim_s_per_host_s", "s/s", norm.rate(e.rate_raw)),
        ("peak_rss_mb", "MB", e.peak_rss_mb),
        ("ok_frac", "frac", 1.0 - checker.fail_frac()),
    ];
    let raw = [
        e.setup_raw,
        e.p50_raw,
        e.p90_raw,
        e.rate_raw,
        e.peak_rss_mb,
        1.0 - checker.fail_frac(),
    ];
    let samples = [
        m.setup_s.len(),
        m.op_ms.len(),
        m.op_ms.len(),
        m.op_ms.len(),
        1,
        checker.attempted as usize,
    ];
    println!(
        "{:<20} {:>14} {:>14} {:>6} {:>8}",
        "end-to-end", "normalised", "raw", "unit", "samples"
    );
    for ((name, unit, v), (r, n)) in e2e.iter().zip(raw.iter().zip(samples)) {
        println!("{name:<20} {v:>14.6} {r:>14.6} {unit:>6} {n:>8}");
    }
    println!(
        "raw {}",
        metrics_json(&[
            ("setup_s", "s", e.setup_raw),
            ("op_ms.p50", "ms", e.p50_raw),
            ("op_ms.p90", "ms", e.p90_raw),
            ("sim_s_per_host_s", "s/s", e.rate_raw),
            ("ref_ms", "ms", norm.ref_ms),
        ])
    );

    let metrics = if opts.trace {
        let layers = per_layer(opts, &m, &e, &norm);
        let table = layer_table(opts, facts, &layers, m.tracer.as_ref());
        print!("{table}");
        write_outputs(opts, &table, m.tracer.as_ref())?;
        layers
            .iter()
            .map(|l| (l.name, l.unit, *l.value.as_ref().unwrap_or(&0.0)))
            .collect::<Vec<_>>()
    } else {
        e2e.to_vec()
    };
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        return Err(format!("a metric is not a finite number: {metrics:?}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

/// Every [`PER_LAYER`] metric: the workload's own layers, the host
/// figures, and an unresolved row for the rest.
fn per_layer(opts: &RunOpts, m: &Measured, e: &EndToEnd, norm: &Normaliser) -> Vec<Layer> {
    let host_rows = [
        ("host.ref_ms", norm.ref_ms),
        ("host.op_ms_raw.p50", e.p50_raw),
        ("host.op_ms_raw.p90", e.p90_raw),
        ("host.sim_s_per_host_s_raw", e.rate_raw),
        ("host.setup_s_raw", e.setup_raw),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(&(_, v)) = host_rows.iter().find(|(n, _)| *n == name) {
                Ok(v)
            } else if let Some(l) = m.layers.iter().find(|l| l.name == name) {
                l.value.clone()
            } else if name.starts_with("realtime.") {
                Err(format!("{} runs no realtime service", opts.workload))
            } else {
                Err(format!("not measured on {}", opts.workload))
            };
            Layer { name, unit, value }
        })
        .collect()
}

fn layer_table(
    opts: &RunOpts,
    facts: &HostFacts,
    layers: &[Layer],
    tracer: Option<&Tracer>,
) -> String {
    let mut t = String::new();
    let _ = writeln!(
        t,
        "per-layer: workload={} seed={} nproc={} cpu=\"{}\" l3={} (timings host-normalised)",
        opts.workload,
        opts.seed,
        facts.nproc,
        facts.cpu_model,
        facts.l3_label()
    );
    for l in layers {
        match &l.value {
            Ok(v) => {
                let _ = writeln!(t, "{:<34} {v:>16.6} {:<6}", l.name, l.unit);
            }
            Err(why) => {
                let _ = writeln!(t, "{:<34} {:>16} {:<6} {why}", l.name, "unresolved", l.unit);
            }
        }
    }
    if let Some(tracer) = tracer {
        let _ = writeln!(
            t,
            "{:<34} {:>8} {:>14} {:>14}",
            "benchmark span", "count", "total ms", "self ms"
        );
        for (name, s) in tracer.totals() {
            let _ = writeln!(
                t,
                "{name:<34} {:>8} {:>14.3} {:>14.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    t
}

fn out_path(opts: &RunOpts, what: &str) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    Ok(std::path::Path::new(OUT_DIR).join(format!("{}-seed{}-{what}", opts.workload, opts.seed)))
}

fn write_outputs(opts: &RunOpts, table: &str, tracer: Option<&Tracer>) -> Result<(), String> {
    let path = out_path(opts, "layers.txt")?;
    std::fs::write(&path, table).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(tracer) = tracer {
        let path = out_path(opts, "spans.jsonl")?;
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Write the first-repetition digest of every op, in `digests.txt` form.
fn record_digests(opts: &RunOpts, checker: &Checker) -> Result<(), String> {
    let mut text = String::new();
    for (key, digest) in checker.digests() {
        let _ = writeln!(text, "{} {key} {digest:016x}", opts.workload);
    }
    let path = out_path(opts, "digests.txt")?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_order_is_a_deterministic_permutation() {
        let a = seeded_order(39, 7);
        assert_eq!(a, seeded_order(39, 7));
        assert_ne!(a, seeded_order(39, 8));
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..39).collect::<Vec<_>>());
    }

    #[test]
    fn the_seed_fixes_the_batch_inputs() {
        for grid in [batch::Grid::Paper, batch::Grid::Scale1024] {
            let keys = |seed| {
                batch::inputs(grid, seed)
                    .iter()
                    .map(|o| (o.key.clone(), o.cfg.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(keys(3), keys(3));
            assert_ne!(keys(3), keys(4), "another seed gives other engine seeds");
        }
        assert_eq!(batch::inputs(batch::Grid::Paper, 1).len(), 117);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let names = |key: &str| -> Vec<String> {
            let section = text.split(&format!("\"{key}\"")).nth(1).expect("section");
            let section = &section[..section.find(']').expect("list end")];
            section
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("a name").to_string())
                .collect()
        };
        let ours =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), ours(&END_TO_END));
        assert_eq!(names("per_layer"), ours(&PER_LAYER));
        assert_eq!(names("workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn metrics_print_as_json_numbers() {
        let s = metrics_json(&[("a", "ms", 1.5), ("b", "count", 12.0)]);
        assert_eq!(
            s,
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 12, \"unit\": \"count\"}}"
        );
    }
}
