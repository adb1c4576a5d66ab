//! Checkpoint & replay guarantees at the workspace level: resume
//! equivalence for every figure's representative run, snapshot/restore at
//! random instants of random-fault-plan runs, pinned capsule bytes, and
//! divergence bisection of a run forked by an injected fault.

use checkpoint::{prove_resume_equivalence, SimSnapshot};
use harness::dashboard::{representative, Representative};
use harness::runner::{boot, record_once, resume_once};
use harness::targets::TARGETS;
use harness::{Scale, System};
use mapreduce::{
    fold_hash, initial_state_hash, Engine, EngineConfig, EngineState, HashPoint, JobProfile,
    JobSpec, RunReport,
};
use proptest::proptest;
use simgrid::cluster::NodeId;
use simgrid::time::{SimDuration, SimTime, SteppingMode};
use simgrid::{FaultPlan, NodeFault};
use std::path::PathBuf;

/// A recorded run of `job` under `system`: its report and a capsule every
/// `every`.
fn record(
    cfg: &EngineConfig,
    job: JobSpec,
    system: &System,
    every: SimDuration,
) -> (RunReport, Vec<EngineState>) {
    let rec = boot(cfg, vec![job], system, cfg.seed)
        .and_then(|state| record_once(state, system, Some(every)))
        .expect("recorded run completes");
    (rec.report, rec.capsules)
}

/// Resuming each representative run's midpoint capsule retraces the
/// straight run step for step (one u64 per step) and ends in a
/// byte-identical report, which also covers the event logs and series the
/// hash does not fold. Every figure target records one of these runs for
/// `reproduce fingerprint`, so each is proven once.
#[test]
fn resume_equivalence_holds_for_every_target() {
    let mut runs: Vec<Representative> = Vec::new();
    for fig in TARGETS.iter().filter_map(|t| t.figure()) {
        if !runs.contains(&fig.representative) {
            runs.push(fig.representative);
        }
    }
    assert_eq!(
        runs,
        [
            Representative::HadoopV1Terasort,
            Representative::SmrHistogramRatings,
            Representative::SmrTwoCrashes,
        ],
        "every figure row names one of the three representative runs"
    );
    for run in runs {
        let (cfg, jobs, system, _) = representative(run, Scale::Quick).expect("representative run");
        let proof = prove_resume_equivalence(&cfg, &jobs, SimDuration::from_secs(30), &mut || {
            system.make_policy()
        })
        .unwrap_or_else(|e| panic!("{run:?}: {e}"));
        assert!(
            proof.holds(),
            "{run:?}: resumed run diverged from the straight run \
             (straight {:#018x}, resumed {:#018x} from capsule {:?}/{}; first \
             divergent step {:?} of {} compared; reports byte-identical: {})",
            proof.straight_fingerprint,
            proof.resumed_fingerprint,
            proof.resumed_from,
            proof.capsules,
            proof.first_divergence,
            proof.steps_compared,
            proof.byte_identical,
        );
    }
}

/// The per-step hash trace (one u64 per step) and the full byte-level
/// report comparison must agree: on the fig1 and ext-faults
/// representative runs both find the resumed run identical to the
/// straight run, and once the midpoint capsule is forked by an injected
/// fault both find the resumed run different.
#[test]
fn hash_trace_agrees_with_full_report_comparison() {
    let every = SimDuration::from_secs(30);
    for run in [
        Representative::HadoopV1Terasort,
        Representative::SmrTwoCrashes,
    ] {
        let (cfg, jobs, system, _) = representative(run, Scale::Quick).expect("representative run");
        let proof = prove_resume_equivalence(&cfg, &jobs, every, &mut || system.make_policy())
            .unwrap_or_else(|e| panic!("{run:?}: {e}"));
        assert!(proof.steps_compared > 0, "{run:?}: no steps compared");
        assert_eq!(proof.first_divergence, None, "{run:?}: hash trace diverged");
        assert!(
            proof.byte_identical,
            "{run:?}: resumed report not byte-identical"
        );
        assert!(proof.holds(), "{run:?}: proof failed");

        let rec = boot(&cfg, jobs.clone(), &system, cfg.seed)
            .and_then(|state| record_once(state, &system, Some(every)))
            .unwrap_or_else(|e| panic!("{run:?}: {e}"));
        let mut forked = rec.capsules[rec.capsules.len() / 2].clone();
        let at = forked.at();
        forked
            .inject_fault(NodeFault::transient(
                NodeId(cfg.cluster.workers - 1),
                at + SimDuration::from_secs(3),
                SimDuration::from_secs(60),
            ))
            .unwrap_or_else(|e| panic!("{run:?}: {e}"));
        let resumed = record_once(forked, &system, None).unwrap_or_else(|e| panic!("{run:?}: {e}"));
        let (_, first_divergence) =
            checkpoint::compare_traces(&rec.hash_trace, &resumed.hash_trace);
        let byte_identical = serde_json::to_string(&rec.report).unwrap()
            == serde_json::to_string(&resumed.report).unwrap();
        assert!(
            first_divergence.is_some(),
            "{run:?}: the hash trace missed the injected fault"
        );
        assert!(
            !byte_identical,
            "{run:?}: the report comparison missed the injected fault"
        );
    }
}

proptest! {
    /// Snapshot at a random instant of a random-fault-plan run, restore,
    /// and finish: byte-identical to the uninterrupted run under both the
    /// static policy and the slot manager, in both stepping modes.
    #[test]
    fn random_instant_restore_never_diverges(
        seed in 0u64..10_000,
        fault_s in 4u64..40,
        pick in 0usize..64,
    ) {
        let mut cfg = EngineConfig::small_test(4, seed);
        cfg.tick.mode = if seed % 2 == 0 {
            SteppingMode::Adaptive
        } else {
            SteppingMode::Fixed
        };
        // a transient crash on the heartbeat grid, sparing node 0 so a
        // replica always survives; a generous re-replication budget keeps
        // the run completable at every fault instant
        cfg.rereplication_rate = 400.0;
        cfg.fault_plan = FaultPlan::new(vec![NodeFault::transient(
            NodeId(1 + (seed as usize % 3)),
            SimTime::from_secs((fault_s / 3).max(1) * 3),
            SimDuration::from_secs(90),
        )]);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            1536.0,
            6,
            SimTime::ZERO,
        );
        for system in [System::HadoopV1, System::SMapReduce] {
            let (straight, capsules) = record(&cfg, job.clone(), &system, SimDuration::from_secs(10));
            let state = capsules[pick % capsules.len()].clone();
            let from = state.at();
            let resumed = resume_once(state, &system).expect("resumed run");
            assert_eq!(
                serde_json::to_string(&straight).unwrap(),
                serde_json::to_string(&resumed).unwrap(),
                "{}: restore at t={:?} diverged",
                system.label(),
                from,
            );
        }
    }
}

/// `fold_hash` over a byte string: its length, then every 8-byte
/// little-endian word (the last one zero-padded).
fn bytes_digest(bytes: &[u8]) -> u64 {
    let basis = fold_hash(initial_state_hash(0), bytes.len() as u64);
    bytes.chunks(8).fold(basis, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fold_hash(h, u64::from_le_bytes(word))
    })
}

/// The capsules [`Engine::record`] takes every 10 s of a 16-node
/// SMapReduce run with injected map failures and one transient crash, so
/// the policy state, the failure points and the re-replication queue all
/// travel non-empty in some capsule.
fn pinned_capsules(mode: SteppingMode) -> Vec<EngineState> {
    let mut cfg = EngineConfig::paper_default();
    cfg.seed = 29;
    cfg.tick.mode = mode;
    cfg.map_failure_rate = 0.1;
    cfg.fault_plan = FaultPlan::new(vec![NodeFault::transient(
        NodeId(5),
        SimTime::from_secs(21),
        SimDuration::from_secs(60),
    )]);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        8192.0,
        16,
        SimTime::ZERO,
    );
    let mut state = Engine::new(cfg).prepare(vec![job]).expect("prepared");
    state.override_policy("SMapReduce").expect("bound");
    let mut policy = System::SMapReduce.make_policy();
    Engine::record(state, policy.as_mut(), Some(SimDuration::from_secs(10)))
        .expect("recorded run completes")
        .capsules
}

/// `(capture instant ms, binary capsule digest, JSON capsule digest)` of
/// every capsule [`pinned_capsules`] takes.
const ADAPTIVE_CAPSULE_PINS: &[(u64, u64, u64)] = &[
    (0, 0x27ef70484c177625, 0x01bfb8d2729df96c),
    (10000, 0x1e3506daf2bfffc2, 0x45070605807e476d),
    (20000, 0xd80dd35dbafbeb2b, 0xc352cfa4b362ccae),
    (30000, 0x749005cb5a09bcf8, 0xc8f9ec0af5cfd5a6),
    (40000, 0x94fc9b1589972ea2, 0xe0e283076df3e441),
    (50000, 0x60c17101e1752f43, 0xd8bc8ef0ba7f6f93),
    (60000, 0x72a481e60340f718, 0x63d4c1fdf767c6b5),
];
const FIXED_CAPSULE_PINS: &[(u64, u64, u64)] = &[
    (0, 0xe4c6faf59916f2a7, 0x173c010e330d1b4b),
    (10000, 0xf69de98ebabe166d, 0x506347fb1c54e6fd),
    (20000, 0x00b5d06b1813c6d6, 0x28a14df81c0e9bd5),
    (30000, 0xfaf0bc5bad06782d, 0x1823fb2eee0b7a82),
    (40000, 0xf0aa8efea317c7c8, 0xc29de746414ac013),
    (50000, 0x64e8fe3abe79c888, 0xeace8f17e0d6783b),
    (60000, 0xfad075a44a3659b1, 0x920804e8d420cdb6),
];

/// Capsule bytes are pinned across commits: the decoding fixtures only
/// prove old capsules still load, so this catches a state that serialises
/// differently — a reordered field, a map travelling in another order, a
/// stale policy state or a flag a capture used to force.
#[test]
fn recorded_capsule_bytes_are_pinned() {
    for (mode, pins) in [
        (SteppingMode::Adaptive, ADAPTIVE_CAPSULE_PINS),
        (SteppingMode::Fixed, FIXED_CAPSULE_PINS),
    ] {
        let capsules = pinned_capsules(mode);
        let non_empty = |field: &str| {
            capsules.iter().any(|c| {
                let v = serde_json::to_value(c).unwrap();
                v.get(field)
                    .is_some_and(|f| f.as_array().is_some_and(|a| !a.is_empty()))
            })
        };
        assert!(non_empty("failure_points"), "{mode:?}: no failure point");
        assert!(non_empty("rerep_queue"), "{mode:?}: no re-replication");
        assert!(
            capsules.iter().any(|c| {
                let v = serde_json::to_value(c).unwrap();
                v.get("policy_state").is_some_and(|p| !p.is_null())
            }),
            "{mode:?}: no policy state"
        );
        let got: Vec<(u64, u64, u64)> = capsules
            .iter()
            .map(|c| {
                let snap = SimSnapshot::new(c.clone());
                (
                    c.at().as_millis(),
                    bytes_digest(&checkpoint::to_bytes(&snap)),
                    bytes_digest(serde_json::to_string(&snap).unwrap().as_bytes()),
                )
            })
            .collect();
        if got.as_slice() != pins {
            for (at, bin, json) in &got {
                println!("    ({at}, {bin:#018x}, {json:#018x}),");
            }
        }
        assert_eq!(got.as_slice(), pins, "{mode:?}: capsule bytes changed");
    }
}

/// The ext-faults representative stream — the heaviest capsule producer:
/// crashes, blacklists and re-replication on top of the task tables —
/// recorded every 30 s. Binary capsules stay ≥ 5× smaller than JSON, and
/// every one decodes back to a state that encodes to the same JSON bytes.
#[test]
fn ext_faults_capsule_stream_is_pinned() {
    let (mut cfg, jobs, system, _) =
        representative(Representative::SmrTwoCrashes, Scale::Quick).expect("representative run");
    cfg.record_events = false;
    let snaps: Vec<SimSnapshot> = boot(&cfg, jobs, &system, cfg.seed)
        .and_then(|state| record_once(state, &system, Some(SimDuration::from_secs(30))))
        .expect("representative run completes")
        .capsules
        .into_iter()
        .map(SimSnapshot::new)
        .collect();
    let json: Vec<Vec<u8>> = snaps
        .iter()
        .map(|snap| serde_json::to_string(snap).unwrap().into_bytes())
        .collect();
    let binary: Vec<Vec<u8>> = snaps.iter().map(checkpoint::to_bytes).collect();
    let total = |stream: &[Vec<u8>]| stream.iter().map(Vec::len).sum::<usize>();
    assert_eq!(
        (snaps.len(), total(&json), total(&binary)),
        (4, 429_016, 60_939),
        "(capsules, JSON bytes, binary bytes) changed"
    );
    // the gate the pins must keep when they are re-recorded
    assert!(total(&binary) * 5 <= total(&json));
    for (i, (bin, json)) in binary.iter().zip(&json).enumerate() {
        let decoded = checkpoint::from_bytes(std::path::Path::new("ext-faults"), bin)
            .expect("own encoding decodes");
        assert!(
            serde_json::to_string(&decoded).unwrap().as_bytes() == json.as_slice(),
            "capsule {i}: the binary round trip lost information"
        );
    }
}

/// Unique temp dir per test invocation.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smr-ws-capsule-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A recording, and the same run forked by a fault injected into one of
/// its capsules: the fork's stream holds the recording's capsules and
/// trace up to the capture and the resumed run's from there. The
/// bisector must name the first step after the capture, and the capsule
/// pair it diffs must name the injected fault.
#[test]
fn bisect_names_the_first_step_and_field_an_injected_fault_changed() {
    let cfg = EngineConfig::small_test(4, 11);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let system = System::SMapReduce;
    let every = SimDuration::from_secs(5);
    let rec = boot(&cfg, vec![job], &system, cfg.seed)
        .and_then(|state| record_once(state, &system, Some(every)))
        .expect("recorded run completes");
    assert!(rec.capsules.len() >= 4, "need a few checkpoints to bisect");
    let k = rec.capsules.len() / 2;
    let mut forked = rec.capsules[k].clone();
    let capture = forked.at();
    forked
        .inject_fault(NodeFault::transient(
            NodeId(1),
            capture + SimDuration::from_secs(3),
            SimDuration::from_secs(30),
        ))
        .expect("fault injects");
    let resumed = record_once(forked, &system, Some(every)).expect("forked run completes");
    // resuming with the same period captures the fork instant first
    assert_eq!(resumed.capsules[0].at(), capture);

    let (good, bad) = (tmp_dir("fault-good"), tmp_dir("fault-bad"));
    checkpoint::write_stream(&good, &rec.capsules).expect("write recording");
    checkpoint::write_hash_trace(&good, &rec.hash_trace).expect("write recording trace");
    let mut bad_capsules = rec.capsules[..k].to_vec();
    bad_capsules.extend(resumed.capsules);
    let mut bad_trace: Vec<HashPoint> = rec
        .hash_trace
        .iter()
        .take_while(|p| p.at_ms <= capture.as_millis())
        .copied()
        .collect();
    let steps_to_capture = bad_trace.len() as u64;
    bad_trace.extend(&resumed.hash_trace);
    checkpoint::write_stream(&bad, &bad_capsules).expect("write fork");
    checkpoint::write_hash_trace(&bad, &bad_trace).expect("write fork trace");

    let div = checkpoint::bisect_hash_traces(&good, &bad)
        .expect("bisect runs")
        .expect("the fault forks the run");
    assert_eq!(
        div.step,
        steps_to_capture + 1,
        "first step after the capture"
    );
    assert!(div.at > capture);
    let pair = div.capsule_diff.expect("a capsule pair follows the fork");
    assert!(pair.at >= div.at);
    assert!(
        pair.diffs
            .iter()
            .any(|d| d.path.starts_with("state.config.fault_plan")),
        "diff must name the injected fault, got {:?}",
        pair.diffs,
    );

    let _ = std::fs::remove_dir_all(&good);
    let _ = std::fs::remove_dir_all(&bad);
}
