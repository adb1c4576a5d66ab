//! Checkpoint & replay guarantees at the workspace level: resume
//! equivalence for every figure's representative run, snapshot/restore at
//! random instants of random-fault-plan runs, and divergence bisection on
//! a deliberately corrupted capsule stream.

use checkpoint::{
    bisect_dirs, codec, prove_resume_equivalence, prove_resume_equivalence_full, CapsuleFormat,
    SimSnapshot,
};
use harness::dashboard::representative;
use harness::runner::{boot, record_once, resume_once};
use harness::{Scale, System};
use mapreduce::{
    fold_hash, initial_state_hash, Engine, EngineConfig, EngineState, JobProfile, JobSpec,
    RunReport,
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

/// Every target `reproduce fingerprint` accepts.
const TARGETS: &[&str] = &[
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ext-hetero",
    "ext-stragglers",
    "ext-fair",
    "ext-load",
    "ext-faults",
    "ablations",
    "model-check",
    "headline",
];

#[test]
fn resume_equivalence_holds_for_every_target() {
    // Several targets share a representative configuration; prove each
    // distinct (config, system) pair once.
    let mut proven: Vec<String> = Vec::new();
    for target in TARGETS {
        let (cfg, jobs, system, _) =
            representative(target, Scale::Quick).expect("representative run");
        let key = format!(
            "{}|{}",
            system.label(),
            serde_json::to_string(&cfg).unwrap()
        );
        if proven.contains(&key) {
            continue;
        }
        let proof = prove_resume_equivalence(&cfg, &jobs, SimDuration::from_secs(30), &mut || {
            system.make_policy()
        })
        .unwrap_or_else(|e| panic!("{target}: {e}"));
        assert!(
            proof.holds(),
            "{target}: resumed run diverged from the straight run \
             (straight {:#018x}, resumed {:#018x} from capsule {:?}/{})",
            proof.straight_fingerprint,
            proof.resumed_fingerprint,
            proof.resumed_from,
            proof.capsules,
        );
        proven.push(key);
    }
    assert!(
        proven.len() >= 3,
        "expected several distinct configurations"
    );
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
/// every capsule [`pinned_capsules`] takes, recorded when the engine still
/// copied its state into a separate step-loop struct and back out.
const ADAPTIVE_CAPSULE_PINS: &[(u64, u64, u64)] = &[
    (0, 0x73c496eee367e2a5, 0x4c884e7977b658db),
    (10000, 0x7b9961b80e46361a, 0x46819bab64ae6913),
    (20000, 0x517903acfdce4ae6, 0x34dc6feed8797b62),
    (30000, 0x262ab4aec525bc35, 0x33aa9e9a9115f624),
    (40000, 0xb79146169601d18b, 0x2392118cfa795715),
    (50000, 0x4432102662b97f21, 0xbfccdee205e3c941),
    (60000, 0xa48d5fd973f2674e, 0xb37518ff061747bd),
];
const FIXED_CAPSULE_PINS: &[(u64, u64, u64)] = &[
    (0, 0x9f4a48313a7078f3, 0x0295ad8b5468ca72),
    (10000, 0x6338187df3502766, 0xa87f60c1ecbb7d8e),
    (20000, 0x2363a5962fa9f066, 0x38c6698168b905f6),
    (30000, 0xbedbd3a65ff2dc51, 0xa120603dc8bbde35),
    (40000, 0x33f905e0d0ffa09a, 0x43eba4ac2259c6b6),
    (50000, 0x9d8cfd2df6cc5431, 0x748741c3a2ce8316),
    (60000, 0x89ed21234e86f669, 0xfdb825a0dc1a212f),
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
                    bytes_digest(&checkpoint::to_bytes(&snap, CapsuleFormat::Binary)),
                    bytes_digest(&checkpoint::to_bytes(&snap, CapsuleFormat::Json)),
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
        representative("ext-faults", Scale::Quick).expect("representative run");
    cfg.record_events = false;
    let snaps: Vec<SimSnapshot> = boot(&cfg, jobs, &system, cfg.seed)
        .and_then(|state| record_once(state, &system, Some(SimDuration::from_secs(30))))
        .expect("representative run completes")
        .capsules
        .into_iter()
        .map(SimSnapshot::new)
        .collect();
    let encode = |format| -> Vec<Vec<u8>> {
        snaps
            .iter()
            .map(|snap| checkpoint::to_bytes(snap, format))
            .collect()
    };
    let (json, binary) = (encode(CapsuleFormat::Json), encode(CapsuleFormat::Binary));
    let total = |stream: &[Vec<u8>]| stream.iter().map(Vec::len).sum::<usize>();
    assert_eq!(
        (snaps.len(), total(&json), total(&binary)),
        (4, 430_154, 61_215),
        "(capsules, JSON bytes, binary bytes) changed"
    );
    // the gate the pins must keep when they are re-recorded
    assert!(total(&binary) * 5 <= total(&json));
    for (i, (bin, json)) in binary.iter().zip(&json).enumerate() {
        let decoded = checkpoint::from_bytes(std::path::Path::new("ext-faults"), bin)
            .expect("own encoding decodes");
        assert!(
            checkpoint::to_bytes(&decoded, CapsuleFormat::Json) == *json,
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

#[test]
fn bisect_pinpoints_a_deliberately_corrupted_stream() {
    let cfg = EngineConfig::small_test(4, 11);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let (_, capsules) = record(&cfg, job, &System::SMapReduce, SimDuration::from_secs(5));
    assert!(capsules.len() >= 4, "need a few checkpoints to bisect");
    let good = tmp_dir("good");
    let bad = tmp_dir("bad");
    let good_files = checkpoint::write_stream(&good, &capsules).expect("write good stream");
    checkpoint::write_stream(&bad, &capsules).expect("write bad stream");

    // corrupt every capsule from index `k` onward: nudge the step counter,
    // the way a silently divergent replay would
    let k = capsules.len() / 2;
    for path in &good_files[k..] {
        let bad_path = bad.join(path.file_name().unwrap());
        let text = std::fs::read_to_string(&bad_path).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let mut state = v.get("state").unwrap().clone();
        let steps = state.get("steps").unwrap().as_u64().unwrap();
        state.set("steps", serde_json::Value::U64(steps + 7));
        v.set("state", state);
        std::fs::write(&bad_path, serde_json::to_string(&v).unwrap()).unwrap();
    }

    let div = bisect_dirs(&good, &bad)
        .expect("bisect runs")
        .expect("corruption must be found");
    assert_eq!(div.index, k, "first divergent checkpoint");
    assert_eq!(div.at, capsules[k].at());
    assert!(
        div.diffs.iter().any(|d| d.path == "state.steps"),
        "diff must name the corrupted field, got {:?}",
        div.diffs,
    );

    // sanity: the corrupted file still parses as a structurally valid
    // capsule (the divergence is semantic, not syntactic)
    let snap: SimSnapshot =
        checkpoint::load(&bad.join(good_files[k].file_name().unwrap())).expect("still loads");
    assert_eq!(snap.at, capsules[k].at());

    let _ = std::fs::remove_dir_all(&good);
    let _ = std::fs::remove_dir_all(&bad);
}

/// The per-step hash trace (one u64 per step) and the full byte-level
/// report comparison must agree: on the fig1 and ext-faults
/// representative runs, both the cheap proof and the exhaustive proof
/// hold, and they see the same run (same fingerprints, same step count).
#[test]
fn hash_trace_agrees_with_full_report_comparison() {
    for target in ["fig1", "ext-faults"] {
        let (cfg, jobs, system, _) =
            representative(target, Scale::Quick).expect("representative run");
        let cheap = prove_resume_equivalence(&cfg, &jobs, SimDuration::from_secs(30), &mut || {
            system.make_policy()
        })
        .unwrap_or_else(|e| panic!("{target}: {e}"));
        let full =
            prove_resume_equivalence_full(&cfg, &jobs, SimDuration::from_secs(30), &mut || {
                system.make_policy()
            })
            .unwrap_or_else(|e| panic!("{target}: {e}"));
        assert!(
            cheap.holds(),
            "{target}: hash-trace proof failed at {:?}",
            cheap.first_divergence
        );
        assert!(full.holds(), "{target}: full proof failed");
        assert_eq!(
            cheap.byte_identical, None,
            "{target}: cheap proof did bytes"
        );
        assert_eq!(
            full.byte_identical,
            Some(true),
            "{target}: resumed report not byte-identical"
        );
        assert_eq!(
            (cheap.straight_fingerprint, cheap.resumed_fingerprint),
            (full.straight_fingerprint, full.resumed_fingerprint),
            "{target}: the two proofs saw different runs"
        );
        assert_eq!(
            cheap.steps_compared, full.steps_compared,
            "{target}: the two proofs compared different step ranges"
        );
        assert!(cheap.steps_compared > 0, "{target}: no steps compared");
    }
}

/// Bisection works across mixed encodings: the good stream on disk as
/// JSON, the bad stream as binary capsules corrupted from index `k`
/// onward, and `bisect_dirs` still pins pair `k` and names the field.
#[test]
fn bisect_pinpoints_corruption_across_mixed_formats() {
    let cfg = EngineConfig::small_test(4, 13);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let (_, capsules) = record(&cfg, job, &System::SMapReduce, SimDuration::from_secs(5));
    assert!(capsules.len() >= 4, "need a few checkpoints to bisect");
    let good = tmp_dir("mixed-good");
    let bad = tmp_dir("mixed-bad");
    checkpoint::write_stream_as(&good, &capsules, CapsuleFormat::Json).expect("write good");
    let bad_files =
        checkpoint::write_stream_as(&bad, &capsules, CapsuleFormat::Binary).expect("write bad");

    let k = capsules.len() / 2;
    for path in &bad_files[k..] {
        let bytes = std::fs::read(path).unwrap();
        let mut v = codec::from_binary(&bytes).expect("own capsule decodes");
        let mut state = v.get("state").unwrap().clone();
        let steps = state.get("steps").unwrap().as_u64().unwrap();
        state.set("steps", serde_json::Value::U64(steps + 7));
        v.set("state", state);
        std::fs::write(path, codec::to_binary(&v)).unwrap();
    }

    let div = bisect_dirs(&good, &bad)
        .expect("bisect runs")
        .expect("corruption must be found");
    assert_eq!(div.index, k, "first divergent checkpoint");
    assert_eq!(div.at, capsules[k].at());
    assert!(!div.stream_truncated);
    assert!(
        div.diffs.iter().any(|d| d.path == "state.steps"),
        "diff must name the corrupted field, got {:?}",
        div.diffs,
    );
    // the paths prove the comparison really crossed encodings
    assert_eq!(div.path_a.extension().unwrap(), "json");
    assert_eq!(div.path_b.extension().unwrap(), "bin");

    let _ = std::fs::remove_dir_all(&good);
    let _ = std::fs::remove_dir_all(&bad);
}
