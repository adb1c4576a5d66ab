//! Checkpoint & replay wiring for `reproduce`: record a target's
//! representative run as a capsule stream, resume a capsule from disk,
//! and print replay fingerprints for the CI equivalence gate.
//!
//! Every target's *representative* run (the same configuration its
//! dashboard records — [`crate::dashboard::representative`]) can be:
//!
//! * **fingerprinted** ([`fingerprint_target`]) — run straight through,
//!   or snapshot-at-midpoint-then-resume, printing the auditor
//!   fingerprint of the final report. The two must print identical
//!   output; CI `cmp`s them. With the hash trace enabled, the replay
//!   path additionally verifies the resumed run's *per-step* state
//!   hashes against the straight run's — a divergence is pinned to the
//!   exact step it first happened rather than discovered at the end.
//! * **recorded** ([`record_target`]) — run once with `--checkpoint-every`
//!   capture, writing the capsule stream (JSON or binary) plus the
//!   per-step hash trace into `--capsule-dir` for later
//!   `reproduce resume` / `reproduce bisect`.

use crate::dashboard;
use crate::runner::{self, System};
use crate::scale::Scale;
use checkpoint::{CapsuleFormat, SimSnapshot};
use mapreduce::{auditor, Recording};
use simgrid::time::SimDuration;
use std::path::{Path, PathBuf};

/// How `fingerprint` obtains the report it fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// One uninterrupted run.
    Straight,
    /// Run with capsule capture, then re-run by resuming the midpoint
    /// capsule — the replay path the equivalence gate exercises.
    Resume,
}

impl Via {
    pub fn parse(s: &str) -> Result<Via, String> {
        match s {
            "straight" => Ok(Via::Straight),
            "resume" => Ok(Via::Resume),
            other => Err(format!("--via must be straight|resume, got {other}")),
        }
    }
}

/// Capture period for the fingerprint replay path: long enough that quick
/// runs take a handful of capsules, and a multiple of every config's
/// sample period.
fn fingerprint_every() -> SimDuration {
    SimDuration::from_secs(30)
}

/// Fingerprint a target's representative run. The printed output is
/// via-independent by construction: if the replay path diverges from the
/// straight path, the fingerprints (and the CI `cmp`) differ — and with
/// `hash_trace`, a per-step divergence fails the resume invocation
/// outright, naming the first divergent step.
///
/// With `capsule_dir` set, the resume path writes the full capsule
/// stream there in `format` (the straight path writes nothing) — on a
/// gate failure that stream is the artifact to bisect.
pub fn fingerprint_target(
    target: &str,
    scale: Scale,
    via: Via,
    capsule_dir: Option<&Path>,
    format: CapsuleFormat,
    hash_trace: bool,
) -> Result<String, String> {
    let (mut cfg, jobs, system, _) =
        dashboard::representative(target, scale).map_err(|e| e.to_string())?;
    // fingerprints cover counters; event recording only bloats capsules
    cfg.record_events = false;
    let seed = cfg.seed;
    let err = |e: simgrid::error::SimError| e.to_string();
    let state = runner::boot(&cfg, jobs, &system, seed).map_err(err)?;
    let (report, trace) = match (via, hash_trace) {
        (Via::Straight, false) => (runner::resume_once(state, &system).map_err(err)?, None),
        (Via::Straight, true) => {
            // recording is observational (proven by the resume
            // equivalence gate), so this line stays identical to the
            // plain straight line
            let rec = runner::record_once(state, &system, None).map_err(err)?;
            (rec.report, Some(rec.hash_trace))
        }
        (Via::Resume, _) => {
            let Recording {
                capsules,
                hash_trace: straight_trace,
                ..
            } = runner::record_once(state, &system, Some(fingerprint_every())).map_err(err)?;
            if capsules.is_empty() {
                return Err(format!(
                    "{target}: straight run captured no capsules to resume from \
                     (snapshot period {}s longer than the run?)",
                    fingerprint_every().as_secs_f64()
                ));
            }
            if let Some(dir) = capsule_dir {
                checkpoint::write_stream_as(dir, &capsules, format).map_err(|e| e.to_string())?;
                checkpoint::write_hash_trace(dir, &straight_trace).map_err(|e| e.to_string())?;
            }
            let mid = capsules[capsules.len() / 2].clone();
            if hash_trace {
                let resumed = runner::record_once(mid, &system, None).map_err(err)?;
                let (compared, mismatch) =
                    checkpoint::compare_traces(&straight_trace, &resumed.hash_trace);
                if let Some(m) = mismatch {
                    return Err(format!(
                        "{target}: resumed run diverged from the straight run at step {} \
                         (t={}ms): straight {:#018x} != resumed {:#018x} \
                         ({compared} steps agreed before it)",
                        m.step, m.at_ms, m.straight, m.resumed
                    ));
                }
                if compared == 0 {
                    return Err(format!(
                        "{target}: resume verified zero steps — midpoint capsule \
                         resumed at the end of the run"
                    ));
                }
                // verified step-for-step, so the straight trace digest is
                // the resumed run's digest too: both lines cmp equal
                (resumed.report, Some(straight_trace))
            } else {
                (runner::resume_once(mid, &system).map_err(err)?, None)
            }
        }
    };
    let mut out = format!(
        "{target} {} seed {} fingerprint {:#018x}\n",
        report.policy,
        seed,
        auditor::fingerprint(&report)
    );
    if let Some(trace) = trace {
        out.push_str(&format!(
            "{target} hash-trace {} steps digest {:#018x}\n",
            trace.len(),
            checkpoint::trace_digest(&trace)
        ));
    }
    Ok(out)
}

/// Outcome of recording a target's representative run as a capsule
/// stream.
pub struct RecordOutcome {
    pub dir: PathBuf,
    pub capsules: usize,
    pub every_s: f64,
    pub makespan_s: f64,
    pub fingerprint: u64,
    /// Steps in the hash trace written alongside the capsules.
    pub hash_points: usize,
}

/// Run a target's representative configuration with capsule capture every
/// `every`, writing the stream (in `format`) and the per-step hash trace
/// into `dir`.
pub fn record_target(
    target: &str,
    scale: Scale,
    every: SimDuration,
    dir: &Path,
    format: CapsuleFormat,
) -> Result<RecordOutcome, String> {
    let (mut cfg, jobs, system, _) =
        dashboard::representative(target, scale).map_err(|e| e.to_string())?;
    cfg.record_events = false;
    let Recording {
        report,
        capsules,
        hash_trace: trace,
    } = runner::boot(&cfg, jobs, &system, cfg.seed)
        .and_then(|state| runner::record_once(state, &system, Some(every)))
        .map_err(|e| e.to_string())?;
    let paths = checkpoint::write_stream_as(dir, &capsules, format).map_err(|e| e.to_string())?;
    checkpoint::write_hash_trace(dir, &trace).map_err(|e| e.to_string())?;
    Ok(RecordOutcome {
        dir: dir.to_path_buf(),
        capsules: paths.len(),
        every_s: every.as_secs_f64(),
        makespan_s: report.makespan().as_secs_f64(),
        fingerprint: auditor::fingerprint(&report),
        hash_points: trace.len(),
    })
}

/// Resume a capsule file to completion. The policy is reconstructed from
/// the capsule's recorded name (default configuration); the run is
/// audited like any other.
pub fn resume_capsule(path: &Path) -> Result<String, String> {
    let snap: SimSnapshot = checkpoint::load(path).map_err(|e| e.to_string())?;
    let name = snap.state.policy_name().to_string();
    if name.is_empty() {
        return Err(format!(
            "{}: capsule is an unbound t=0 state (Engine::prepare); \
             it has no policy to resume under",
            path.display()
        ));
    }
    let system = System::from_label(&name)
        .ok_or_else(|| format!("{}: unknown policy {name:?}", path.display()))?;
    let from_s = snap.state.at().as_secs_f64();
    let report = runner::resume_once(snap.state, &system).map_err(|e| e.to_string())?;
    Ok(format!(
        "resumed {} from t={from_s:.0}s under {}\n\
         makespan {:.1}s, fingerprint {:#018x}\n",
        path.display(),
        report.policy,
        report.makespan().as_secs_f64(),
        auditor::fingerprint(&report)
    ))
}

/// Render a bisection outcome for the terminal.
pub fn render_divergence(div: &Option<checkpoint::Divergence>) -> String {
    match div {
        None => "capsule streams are equivalent\n".to_string(),
        Some(d) if d.stream_truncated => {
            let mut out = format!(
                "streams identical until one ends early: pair {} at t={:.0}s\n  a: {}\n  b: {}\n",
                d.index,
                d.at.as_secs_f64(),
                d.path_a.display(),
                d.path_b.display()
            );
            for diff in &d.diffs {
                out.push_str(&format!("  {}: {} != {}\n", diff.path, diff.a, diff.b));
            }
            out
        }
        Some(d) => {
            let mut out = format!(
                "first divergent checkpoint: index {} at t={:.0}s\n  a: {}\n  b: {}\n",
                d.index,
                d.at.as_secs_f64(),
                d.path_a.display(),
                d.path_b.display()
            );
            const SHOWN: usize = 20;
            for diff in d.diffs.iter().take(SHOWN) {
                out.push_str(&format!("  {}: {} != {}\n", diff.path, diff.a, diff.b));
            }
            if d.diffs.len() > SHOWN {
                out.push_str(&format!(
                    "  … and {} more differing fields\n",
                    d.diffs.len() - SHOWN
                ));
            }
            out
        }
    }
}

/// Render a hash-trace bisection outcome for the terminal.
pub fn render_trace_divergence(div: &Option<checkpoint::TraceDivergence>) -> String {
    match div {
        None => "hash traces are identical\n".to_string(),
        Some(d) => {
            let mut out = format!(
                "hash traces diverge at step {} (t={:.0}s): {:#018x} != {:#018x}\n",
                d.step,
                d.at.as_secs_f64(),
                d.hash_a,
                d.hash_b
            );
            match &d.capsule_diff {
                Some(pair) => out.push_str(&render_divergence(&Some(pair.clone()))),
                None => out.push_str("  (no capsule pair captured at or after that step)\n"),
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smr-capsules-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn straight_and_resume_fingerprints_agree() {
        let a = fingerprint_target(
            "fig1",
            Scale::Quick,
            Via::Straight,
            None,
            CapsuleFormat::Json,
            false,
        )
        .expect("straight");
        let dir = tmp("fp");
        let b = fingerprint_target(
            "fig1",
            Scale::Quick,
            Via::Resume,
            Some(&dir),
            CapsuleFormat::Json,
            false,
        )
        .expect("resume");
        assert_eq!(a, b, "replay fingerprint diverged from straight run");
        assert!(
            !checkpoint::list_capsules(&dir).expect("list").is_empty(),
            "resume path wrote its capsule stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hash_traced_fingerprints_agree_per_step() {
        let a = fingerprint_target(
            "fig1",
            Scale::Quick,
            Via::Straight,
            None,
            CapsuleFormat::Binary,
            true,
        )
        .expect("straight");
        assert!(a.contains("hash-trace"), "digest line missing: {a}");
        let dir = tmp("fp-hash");
        let b = fingerprint_target(
            "fig1",
            Scale::Quick,
            Via::Resume,
            Some(&dir),
            CapsuleFormat::Binary,
            true,
        )
        .expect("resume verified every post-resume step");
        assert_eq!(a, b, "hash-trace output diverged between vias");
        assert!(
            dir.join(checkpoint::HASH_TRACE_FILE).exists(),
            "resume path wrote the hash trace"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorded_stream_resumes_and_bisects_clean() {
        let dir_a = tmp("rec-a");
        let dir_b = tmp("rec-b");
        let every = SimDuration::from_secs(30);
        // one stream JSON, the other binary: same run, and both the
        // mixed-format bisect and the hash-trace bisect must see through
        // the encoding difference
        let ra = record_target(
            "ext-faults",
            Scale::Quick,
            every,
            &dir_a,
            CapsuleFormat::Json,
        )
        .expect("record a");
        let rb = record_target(
            "ext-faults",
            Scale::Quick,
            every,
            &dir_b,
            CapsuleFormat::Binary,
        )
        .expect("record b");
        assert_eq!(ra.fingerprint, rb.fingerprint, "recording is deterministic");
        assert!(ra.capsules >= 2, "{} capsules", ra.capsules);
        assert_eq!(ra.hash_points, rb.hash_points);
        assert!(ra.hash_points > 0, "hash trace recorded");
        // identical reruns bisect to no divergence, whatever the encoding
        let div = checkpoint::bisect_dirs(&dir_a, &dir_b).expect("bisect");
        assert!(div.is_none(), "{}", render_divergence(&div));
        let tdiv = checkpoint::bisect_hash_traces(&dir_a, &dir_b).expect("trace bisect");
        assert!(tdiv.is_none(), "{}", render_trace_divergence(&tdiv));
        // any capsule resumes to the recorded fingerprint
        let capsules = checkpoint::list_capsules(&dir_a).expect("list");
        let (_, mid_path) = capsules
            .get(capsules.len() / 2)
            .expect("recorded stream has capsules");
        let summary = resume_capsule(mid_path).expect("resume");
        assert!(
            summary.contains(&format!("{:#018x}", ra.fingerprint)),
            "resume fingerprint missing from: {summary}"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn unknown_via_is_rejected() {
        assert!(Via::parse("sideways").is_err());
        assert_eq!(Via::parse("straight").unwrap(), Via::Straight);
        assert_eq!(Via::parse("resume").unwrap(), Via::Resume);
    }
}
