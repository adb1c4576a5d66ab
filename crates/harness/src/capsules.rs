//! Checkpoint & replay wiring for `reproduce`: record a target's
//! representative run as a capsule stream, resume a capsule from disk,
//! and print replay fingerprints for the CI equivalence gate.
//!
//! Every figure target's *representative* run (the
//! [`Representative`] its registry row names, the same configuration its
//! dashboard records) can be:
//!
//! * **fingerprinted** ([`fingerprint_target`]) — run straight through,
//!   or snapshot-at-midpoint-then-resume, printing the auditor
//!   fingerprint of the final report and the digest of the per-step hash
//!   trace. The two must print identical output; CI `cmp`s them. The
//!   replay path verifies the resumed run's *per-step* state hashes
//!   against the straight run's — a divergence is pinned to the exact
//!   step it first happened rather than discovered at the end.
//! * **recorded** ([`record_target`]) — run once with `--checkpoint-every`
//!   capture, writing the binary capsule stream plus the per-step hash
//!   trace into `--capsule-dir` for later `reproduce resume` /
//!   `reproduce bisect`.

use crate::dashboard::{self, Representative};
use crate::runner::{self, System};
use crate::scale::Scale;
use checkpoint::SimSnapshot;
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

/// Fingerprint `target`'s representative run `run`: the auditor
/// fingerprint of its report and the digest of its per-step hash trace,
/// on two lines that name `target`. The printed
/// output is via-independent by construction: the resume path verifies
/// every post-resume step against the straight run and fails the
/// invocation on the first divergent step, naming it.
///
/// With `capsule_dir` set, the resume path writes the full capsule
/// stream and hash trace there (the straight path writes nothing) — on
/// a gate failure that stream is the artifact to bisect.
pub fn fingerprint_target(
    target: &str,
    run: Representative,
    scale: Scale,
    via: Via,
    capsule_dir: Option<&Path>,
) -> Result<String, String> {
    let (mut cfg, jobs, system, _) =
        dashboard::representative(run, scale).map_err(|e| e.to_string())?;
    // fingerprints cover counters; event recording only bloats capsules
    cfg.record_events = false;
    let seed = cfg.seed;
    let err = |e: simgrid::error::SimError| e.to_string();
    let state = runner::boot(&cfg, jobs, &system, seed).map_err(err)?;
    let (report, trace) = match via {
        Via::Straight => {
            let rec = runner::record_once(state, &system, None).map_err(err)?;
            (rec.report, rec.hash_trace)
        }
        Via::Resume => {
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
                checkpoint::write_stream(dir, &capsules).map_err(|e| e.to_string())?;
                checkpoint::write_hash_trace(dir, &straight_trace).map_err(|e| e.to_string())?;
            }
            let mid = capsules[capsules.len() / 2].clone();
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
            // the resumed run's digest too: both outputs cmp equal
            (resumed.report, straight_trace)
        }
    };
    Ok(format!(
        "{target} {} seed {} fingerprint {:#018x}\n\
         {target} hash-trace {} steps digest {:#018x}\n",
        report.policy,
        seed,
        auditor::fingerprint(&report),
        trace.len(),
        checkpoint::trace_digest(&trace)
    ))
}

/// Outcome of recording a representative run as a capsule stream.
pub struct RecordOutcome {
    pub dir: PathBuf,
    pub capsules: usize,
    pub every_s: f64,
    pub makespan_s: f64,
    pub fingerprint: u64,
    /// Steps in the hash trace written alongside the capsules.
    pub hash_points: usize,
}

/// Run the representative run `run` with capsule capture every `every`,
/// writing the binary stream and the per-step hash trace into `dir`.
pub fn record_target(
    run: Representative,
    scale: Scale,
    every: SimDuration,
    dir: &Path,
) -> Result<RecordOutcome, String> {
    let (mut cfg, jobs, system, _) =
        dashboard::representative(run, scale).map_err(|e| e.to_string())?;
    cfg.record_events = false;
    let Recording {
        report,
        capsules,
        hash_trace: trace,
    } = runner::boot(&cfg, jobs, &system, cfg.seed)
        .and_then(|state| runner::record_once(state, &system, Some(every)))
        .map_err(|e| e.to_string())?;
    let paths = checkpoint::write_stream(dir, &capsules).map_err(|e| e.to_string())?;
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
pub fn render_trace_divergence(div: &Option<checkpoint::TraceDivergence>) -> String {
    let Some(d) = div else {
        return "hash traces are identical\n".to_string();
    };
    let mut out = format!(
        "hash traces diverge at step {} (t={:.0}s): {:#018x} != {:#018x}\n",
        d.step,
        d.at.as_secs_f64(),
        d.hash_a,
        d.hash_b
    );
    let Some(pair) = &d.capsule_diff else {
        out.push_str("  (no capsule pair captured at or after that step)\n");
        return out;
    };
    out.push_str(&format!(
        "first capsule pair at or after it: index {} at t={:.0}s\n  a: {}\n  b: {}\n",
        pair.index,
        pair.at.as_secs_f64(),
        pair.path_a.display(),
        pair.path_b.display()
    ));
    const SHOWN: usize = 20;
    for diff in pair.diffs.iter().take(SHOWN) {
        out.push_str(&format!("  {}: {} != {}\n", diff.path, diff.a, diff.b));
    }
    if pair.diffs.len() > SHOWN {
        out.push_str(&format!(
            "  … and {} more differing fields\n",
            pair.diffs.len() - SHOWN
        ));
    }
    out
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
    fn straight_and_resume_fingerprints_agree_per_step() {
        let run = Representative::HadoopV1Terasort;
        let a =
            fingerprint_target("fig1", run, Scale::Quick, Via::Straight, None).expect("straight");
        assert!(a.contains("hash-trace"), "digest line missing: {a}");
        let dir = tmp("fp");
        let b = fingerprint_target("fig1", run, Scale::Quick, Via::Resume, Some(&dir))
            .expect("resume verified every post-resume step");
        assert_eq!(a, b, "replay output diverged from the straight run");
        assert!(
            !checkpoint::list_capsules(&dir).expect("list").is_empty(),
            "resume path wrote its capsule stream"
        );
        assert!(
            dir.join(checkpoint::HASH_TRACE_FILE).exists(),
            "resume path wrote the hash trace"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorded_stream_resumes_and_bisects_clean() {
        let dir_bin = tmp("rec-bin");
        let dir_json = tmp("rec-json");
        let rec = record_target(
            Representative::SmrTwoCrashes,
            Scale::Quick,
            SimDuration::from_secs(30),
            &dir_bin,
        )
        .expect("record");
        assert!(rec.capsules >= 2, "{} capsules", rec.capsules);
        assert!(rec.hash_points > 0, "hash trace recorded");
        let capsules = checkpoint::list_capsules(&dir_bin).expect("list");
        assert_eq!(capsules.len(), rec.capsules);
        assert!(
            capsules
                .iter()
                .all(|(_, p)| p.extension().unwrap() == "bin"),
            "every recorded capsule is binary"
        );
        // the same stream as an older build wrote it: JSON capsules next
        // to the same hash trace; it bisects clean against the binary one
        std::fs::create_dir_all(&dir_json).unwrap();
        for (at, path) in &capsules {
            let snap = checkpoint::load(path).expect("load");
            std::fs::write(
                dir_json.join(format!("capsule-{:015}.json", at.as_millis())),
                serde_json::to_string(&snap).unwrap(),
            )
            .unwrap();
        }
        std::fs::copy(
            dir_bin.join(checkpoint::HASH_TRACE_FILE),
            dir_json.join(checkpoint::HASH_TRACE_FILE),
        )
        .unwrap();
        let div = checkpoint::bisect_hash_traces(&dir_json, &dir_bin).expect("bisect");
        assert!(div.is_none(), "{}", render_trace_divergence(&div));
        // a capsule of either encoding resumes to the recorded fingerprint
        for dir in [&dir_bin, &dir_json] {
            let listed = checkpoint::list_capsules(dir).expect("list");
            let (_, mid_path) = &listed[listed.len() / 2];
            let summary = resume_capsule(mid_path).expect("resume");
            assert!(
                summary.contains(&format!("{:#018x}", rec.fingerprint)),
                "resume fingerprint missing from: {summary}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir_bin);
        let _ = std::fs::remove_dir_all(&dir_json);
    }

    #[test]
    fn unknown_via_is_rejected() {
        assert!(Via::parse("sideways").is_err());
        assert_eq!(Via::parse("straight").unwrap(), Via::Straight);
        assert_eq!(Via::parse("resume").unwrap(), Via::Resume);
    }
}
