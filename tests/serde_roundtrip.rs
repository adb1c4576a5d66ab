//! Serde round-trip properties for the state types capsules carry.
//!
//! A capsule is only trustworthy if deserializing it reconstructs the
//! exact value that was saved — bit-equal floats included. These
//! properties pin that for the counter ledger, fault plans, full run
//! reports, and the capsule envelope itself.

use checkpoint::{codec, CapsuleFormat, SimSnapshot};
use harness::runner::{boot, record_once};
use harness::{run_once, System};
use mapreduce::{
    Counter, CounterLedger, EngineConfig, EngineState, JobProfile, JobSpec, RunReport,
};
use proptest::proptest;
use simgrid::cluster::NodeId;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};

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

proptest! {
    /// Any ledger built from arbitrary adds survives a JSON round trip
    /// with every counter bit-identical.
    #[test]
    fn counter_ledger_round_trips_bit_exact(
        adds in proptest::collection::vec((0usize..17, 0.0f64..1.0e12), 0..24),
    ) {
        let mut ledger = CounterLedger::default();
        for &(idx, amount) in &adds {
            ledger.add(Counter::ALL[idx], amount);
        }
        let json = serde_json::to_string(&ledger).unwrap();
        let back: CounterLedger = serde_json::from_str(&json).unwrap();
        for c in Counter::ALL {
            proptest::prop_assert_eq!(
                ledger.get(c).to_bits(),
                back.get(c).to_bits(),
                "{} changed across the round trip",
                c.name()
            );
        }
        // and the round trip is a fixed point of serialization
        proptest::prop_assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    /// Fault plans — any mix of permanent and transient crashes — round
    /// trip to an equal plan.
    #[test]
    fn fault_plans_round_trip(
        faults in proptest::collection::vec(
            (0usize..6, 1u64..500_000, 0u32..2, 1u64..600), 0..6),
    ) {
        let plan = FaultPlan::new(
            faults
                .iter()
                .map(|&(node, at_ms, perm, down_s)| {
                    if perm == 1 {
                        NodeFault::permanent(NodeId(node), SimTime::from_millis(at_ms))
                    } else {
                        NodeFault::transient(
                            NodeId(node),
                            SimTime::from_millis(at_ms),
                            SimDuration::from_secs(down_s),
                        )
                    }
                })
                .collect(),
        );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        proptest::prop_assert_eq!(&plan, &back);
        proptest::prop_assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    /// A full run report — series, events, counters, floats — survives a
    /// JSON round trip byte-identically.
    #[test]
    fn run_reports_round_trip_byte_identical(seed in 0u64..500, smr in 0u32..2) {
        let mut cfg = EngineConfig::small_test(3, seed);
        cfg.record_events = seed % 2 == 0;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            768.0,
            4,
            SimTime::ZERO,
        );
        let system = if smr == 1 { System::SMapReduce } else { System::HadoopV1 };
        let report = run_once(&cfg, vec![job], &system, cfg.seed).expect("run completes");
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        proptest::prop_assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    /// Arbitrary value trees — every leaf type, nested arrays and
    /// objects, extreme integers, raw float bit patterns — survive the
    /// packed binary codec and its envelope exactly. Identity is checked
    /// on the packed bytes (the deterministic canonical form), which
    /// also covers NaN payloads that `f64` equality cannot.
    #[test]
    fn arbitrary_values_survive_the_binary_codec(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let value = random_value(&mut state, 3);
        let packed = codec::pack_value(&value);
        let unpacked = codec::unpack_value(&packed).expect("own packing unpacks");
        proptest::prop_assert_eq!(
            &packed,
            &codec::pack_value(&unpacked),
            "packed form is not a fixed point"
        );
        let envelope = codec::to_binary(&value);
        let back = codec::from_binary(&envelope).expect("own envelope decodes");
        proptest::prop_assert_eq!(&packed, &codec::pack_value(&back));
    }

    /// Real engine snapshots pass bit-exact through both codecs: decoding
    /// the binary capsule and re-encoding as JSON reproduces the JSON
    /// capsule byte for byte (and both codecs are deterministic).
    #[test]
    fn engine_snapshots_round_trip_json_and_binary(seed in 0u64..10_000) {
        let cfg = EngineConfig::small_test(3, seed);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            512.0,
            4,
            SimTime::ZERO,
        );
        let (_, capsules) = record(&cfg, job, &System::SMapReduce, SimDuration::from_secs(20));
        let state = capsules.into_iter().next_back().expect("capsules captured");
        let snap = SimSnapshot::new(state);
        let json = checkpoint::to_bytes(&snap, CapsuleFormat::Json);
        let binary = checkpoint::to_bytes(&snap, CapsuleFormat::Binary);
        let origin = std::path::Path::new("proptest");
        let from_json = checkpoint::from_bytes(origin, &json).expect("json decodes");
        let from_binary = checkpoint::from_bytes(origin, &binary).expect("binary decodes");
        proptest::prop_assert_eq!(
            &json,
            &checkpoint::to_bytes(&from_binary, CapsuleFormat::Json),
            "binary round trip changed the state"
        );
        proptest::prop_assert_eq!(
            &binary,
            &checkpoint::to_bytes(&from_json, CapsuleFormat::Binary),
            "json round trip changed the state"
        );
    }
}

/// SplitMix64 step for the deterministic value generator below.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An arbitrary JSON value tree in the codec's canonical domain:
/// negative `I64`s only (non-negative integers canonicalise to `U64`,
/// so a non-negative `I64` input would not round-trip as itself).
fn random_value(state: &mut u64, depth: u32) -> serde_json::Value {
    use serde_json::Value;
    let kinds = if depth == 0 { 7 } else { 9 };
    match mix(state) % kinds {
        0 => Value::Null,
        1 => Value::Bool(mix(state) & 1 == 0),
        2 => Value::U64(match mix(state) % 4 {
            0 => u64::MAX,
            1 => mix(state) % 64, // exercise the inline-ref tags
            _ => mix(state),
        }),
        3 => Value::I64(match mix(state) % 4 {
            0 => i64::MIN,
            _ => -((mix(state) >> 1) as i64) - 1,
        }),
        4 => Value::F64(match mix(state) % 4 {
            0 => f64::from_bits(mix(state)), // any bits, NaN included
            1 => -0.0,
            _ => (mix(state) % 100_000) as f64 / 100.0,
        }),
        5 => Value::String(random_string(state)),
        6 => Value::String(String::new()),
        7 => {
            let len = (mix(state) % 5) as usize;
            Value::Array((0..len).map(|_| random_value(state, depth - 1)).collect())
        }
        _ => {
            let len = (mix(state) % 5) as usize;
            Value::Object(
                (0..len)
                    .map(|i| {
                        (
                            format!("{}{i}", random_string(state)),
                            random_value(state, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

fn random_string(state: &mut u64) -> String {
    let len = (mix(state) % 12) as usize;
    (0..len)
        .map(|_| char::from(b'a' + (mix(state) % 26) as u8))
        .collect()
}

/// Truncated, bit-flipped, or garbage binary capsules must be rejected
/// with an error (or, for single flipped bits, at worst decode to some
/// other value) — never panic, never allocate unboundedly.
#[test]
fn corrupt_binary_capsules_never_panic() {
    let cfg = EngineConfig::small_test(3, 5);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        512.0,
        4,
        SimTime::ZERO,
    );
    let (_, capsules) = record(&cfg, job, &System::HadoopV1, SimDuration::from_secs(30));
    let snap = SimSnapshot::new(capsules.into_iter().next_back().expect("capsules"));
    let bytes = checkpoint::to_bytes(&snap, CapsuleFormat::Binary);
    let origin = std::path::Path::new("corrupt-test");
    // every truncation is an error, not a panic
    for cut in 0..bytes.len() {
        assert!(
            checkpoint::from_bytes(origin, &bytes[..cut]).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
    // single flipped bytes must not panic (decoding to an error — or, in
    // the string pool, to some other valid value — are both acceptable)
    let mut state = 99u64;
    for _ in 0..256 {
        let mut corrupt = bytes.clone();
        let at = (mix(&mut state) as usize) % corrupt.len();
        corrupt[at] ^= (mix(&mut state) % 255) as u8 + 1;
        let _ = checkpoint::from_bytes(origin, &corrupt);
    }
    // garbage behind a valid magic byte is an error
    let mut garbage = vec![codec::MAGIC[0]];
    garbage.extend((0..64).map(|_| (mix(&mut state) & 0xFF) as u8));
    assert!(checkpoint::from_bytes(origin, &garbage).is_err());
}

/// Capsules recorded *before* the dense-substrate refactor (PR 6 code,
/// commit `baed361`) must keep resuming, bit-for-bit. The serialized
/// `EngineState` stayed map-shaped JSON on purpose — every dense posting
/// and slab is derived state, rebuilt from the capsule on resume — so
/// these committed fixtures pin the format compatibility *and* the
/// replay equivalence: each resume must reproduce the exact auditor
/// fingerprint the pre-refactor binary printed when the stream was
/// recorded.
#[test]
fn pre_dense_substrate_capsules_resume_to_recorded_fingerprints() {
    use harness::capsules::resume_capsule;
    use std::path::Path;

    // (fixture, policy it resumes under, pre-refactor fingerprint)
    let fixtures = [
        (
            "tests/fixtures/capsule_pr6_fig1_t60.json",
            "HadoopV1",
            "0x1a87ed2ca1a69a05",
        ),
        (
            "tests/fixtures/capsule_pr6_ext_faults_t60.json",
            "SMapReduce",
            "0x6fefe0c87de14a25",
        ),
    ];
    for (path, policy, fingerprint) in fixtures {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        // the old capsule still parses into today's envelope, and its
        // serialization is a fixed point (nothing silently renamed)
        let raw = std::fs::read_to_string(&path).expect("fixture present");
        let snap: SimSnapshot = serde_json::from_str(&raw).expect("old capsule parses");
        let reser = serde_json::to_string_pretty(&snap).expect("reserialise");
        let back: SimSnapshot = serde_json::from_str(&reser).expect("round trip");
        assert_eq!(
            reser,
            serde_json::to_string_pretty(&back).unwrap(),
            "round trip is a serialization fixed point"
        );
        // and it resumes under the dense engine to the recorded result
        let summary = resume_capsule(&path).expect("old capsule resumes");
        assert!(
            summary.contains(policy),
            "{path:?} resumed under the wrong policy: {summary}"
        );
        assert!(
            summary.contains(fingerprint),
            "{path:?} diverged from its pre-refactor fingerprint {fingerprint}: {summary}"
        );
    }
}

#[test]
fn capsule_envelopes_round_trip_byte_identical() {
    let cfg = EngineConfig::small_test(4, 23);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        1024.0,
        6,
        SimTime::ZERO,
    );
    let (_, capsules) = record(&cfg, job, &System::SMapReduce, SimDuration::from_secs(10));
    assert!(!capsules.is_empty());
    for state in capsules {
        let snap = SimSnapshot::new(state);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SimSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap.at, back.at);
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }
}
