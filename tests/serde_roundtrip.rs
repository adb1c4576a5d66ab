//! Serde round-trip properties for the state types capsules carry.
//!
//! A capsule is only trustworthy if deserializing it reconstructs the
//! exact value that was saved — bit-equal floats included. These
//! properties pin that for the counter ledger, fault plans, full run
//! reports, and the capsule envelope itself.

use checkpoint::{codec, SimSnapshot};
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
        let json = serde_json::to_string(&snap).unwrap().into_bytes();
        let binary = checkpoint::to_bytes(&snap);
        let origin = std::path::Path::new("proptest");
        let from_json = checkpoint::from_bytes(origin, &json).expect("json decodes");
        let from_binary = checkpoint::from_bytes(origin, &binary).expect("binary decodes");
        proptest::prop_assert_eq!(
            &json,
            &serde_json::to_string(&from_binary).unwrap().into_bytes(),
            "binary round trip changed the state"
        );
        proptest::prop_assert_eq!(
            &binary,
            &checkpoint::to_bytes(&from_json),
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
    let bytes = checkpoint::to_bytes(&snap);
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

#[test]
fn shuffle_shapes_at_odds_with_their_jobs_are_refused_not_resumed() {
    // the engine keeps one fetch-source set per reduce partition, sized
    // from the job's shuffle: a capsule whose shuffle counts other
    // partitions than its job has reduces, or that runs a reduce its job
    // does not have, is refused when it binds, in either encoding — not
    // sized from a hostile count or panicked on mid-step
    use mapreduce::{Engine, EngineArena};
    use serde_json::Value;
    let cfg = EngineConfig::small_test(4, 11);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        1024.0,
        4,
        SimTime::ZERO,
    );
    let (_, capsules) = record(&cfg, job, &System::SMapReduce, SimDuration::from_secs(2));
    let runs_reduces = |v: &Value| {
        let running = v.get("state").and_then(|st| st.get("running_reduces"));
        matches!(running, Some(Value::Array(r)) if !r.is_empty())
    };
    let good = capsules
        .into_iter()
        .map(|c| serde_json::to_value(SimSnapshot::new(c)).unwrap())
        .find(runs_reduces)
        .expect("a capsule with running reduces");
    let with_state = |edit: &dyn Fn(&mut Value)| {
        let mut capsule = good.clone();
        let mut state = capsule.get("state").unwrap().clone();
        edit(&mut state);
        capsule.set("state", state);
        capsule
    };
    let cases = [
        (
            "2^40 shuffle partitions",
            with_state(&|st| {
                let mut jobs = st.get("jobs").unwrap().clone();
                if let Value::Array(jobs) = &mut jobs {
                    let mut shuffle = jobs[0].get("shuffle").unwrap().clone();
                    shuffle.set("num_reduces", Value::U64(1 << 40));
                    jobs[0].set("shuffle", shuffle);
                }
                st.set("jobs", jobs);
            }),
        ),
        (
            "a reduce past the job's partitions",
            with_state(&|st| {
                // the last running reduce, so the table stays in key order
                // and the capsule loads
                let mut running = st.get("running_reduces").unwrap().clone();
                if let Value::Array(pairs) = &mut running {
                    if let Some(Value::Array(pair)) = pairs.last_mut() {
                        pair[0].set("partition", Value::U64(4));
                    }
                }
                st.set("running_reduces", running);
            }),
        ),
    ];
    let origin = std::path::Path::new("mis-shaped");
    for (case, capsule) in cases {
        let encodings = [
            (
                "json",
                serde_json::to_string(&capsule).unwrap().into_bytes(),
            ),
            ("binary", codec::to_binary(&capsule)),
        ];
        for (format, bytes) in encodings {
            let loaded = checkpoint::from_bytes(origin, &bytes)
                .unwrap_or_else(|e| panic!("{case} ({format}) loads: {e}"));
            let mut policy = System::SMapReduce.make_policy();
            let resumed = Engine::resume_in(
                loaded.state,
                policy.as_mut(),
                &telemetry::Telemetry::disabled(),
                &mut EngineArena::new(),
            );
            assert!(resumed.is_err(), "{case} ({format}) resumed");
        }
    }
}

/// A capsule (as JSON) of a run with failures that holds running maps,
/// at least two running reduces and a failure point.
fn capsule_with_task_rows() -> serde_json::Value {
    use serde_json::Value;
    let mut cfg = EngineConfig::small_test(4, 11);
    cfg.map_failure_rate = 0.3;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let (_, capsules) = record(&cfg, job, &System::SMapReduce, SimDuration::from_secs(2));
    let rows = |v: &Value, table: &str| {
        v.get("state")
            .and_then(|st| st.get(table))
            .and_then(Value::as_array)
            .map_or(0, |rows| rows.len())
    };
    capsules
        .into_iter()
        .map(|c| serde_json::to_value(SimSnapshot::new(c)).unwrap())
        .find(|v| {
            rows(v, "running_maps") > 0
                && rows(v, "running_reduces") > 1
                && rows(v, "failure_points") > 0
        })
        .expect("a capsule with maps, two reduces and a failure point")
}

/// `good` with `edit` applied to the pair list of its table `table`.
fn with_table(
    good: &serde_json::Value,
    table: &str,
    edit: &dyn Fn(&mut Vec<serde_json::Value>),
) -> serde_json::Value {
    let mut capsule = good.clone();
    let mut state = capsule.get("state").unwrap().clone();
    let mut rows = state.get(table).unwrap().clone();
    if let serde_json::Value::Array(pairs) = &mut rows {
        edit(pairs);
    }
    state.set(table, rows);
    capsule.set("state", state);
    capsule
}

#[test]
fn malformed_task_tables_are_refused_not_loaded() {
    // the engine writes its running maps, running reduces and failure
    // points as pair lists in strictly ascending key order: a list with a
    // repeated key or two keys out of order is no state the engine
    // produced, so loading refuses it in either encoding instead of
    // keeping one of the duplicates or re-sorting
    let good = capsule_with_task_rows();
    let origin = std::path::Path::new("malformed");
    // the untouched capsule loads, so each refusal below is the edit's
    let bytes = serde_json::to_string(&good).unwrap().into_bytes();
    assert!(checkpoint::from_bytes(origin, &bytes).is_ok());
    let cases = [
        (
            "a duplicated running-map pair",
            with_table(&good, "running_maps", &|pairs| {
                pairs.insert(1, pairs[0].clone())
            }),
        ),
        (
            "two swapped running-reduce pairs",
            with_table(&good, "running_reduces", &|pairs| pairs.swap(0, 1)),
        ),
        (
            "a duplicated failure point",
            with_table(&good, "failure_points", &|pairs| {
                pairs.push(pairs[0].clone())
            }),
        ),
    ];
    for (case, capsule) in cases {
        let encodings = [
            (
                "json",
                serde_json::to_string(&capsule).unwrap().into_bytes(),
            ),
            ("binary", codec::to_binary(&capsule)),
        ];
        for (format, bytes) in encodings {
            assert!(
                checkpoint::from_bytes(origin, &bytes).is_err(),
                "{case} ({format}) loaded"
            );
        }
    }
}

#[test]
fn running_rows_off_the_capsule_are_refused_not_resumed() {
    // the step indexes jobs, blocks, partitions and nodes by the running
    // rows without checks: a capsule whose rows name a job, block or node
    // it does not have is refused when it binds, in either encoding,
    // instead of panicking on an index mid-step
    use mapreduce::{Engine, EngineArena};
    use serde_json::Value;
    let good = capsule_with_task_rows();
    let set_key = |field: &'static str, value: u64| {
        move |pairs: &mut Vec<Value>| {
            if let Some(Value::Array(pair)) = pairs.last_mut() {
                let mut task = pair[0].get("task").unwrap().clone();
                task.set(field, Value::U64(value));
                pair[0].set("task", task);
            }
        }
    };
    let set_node = |pairs: &mut Vec<Value>| {
        if let Some(Value::Array(pair)) = pairs.first_mut() {
            pair[1].set("node", Value::U64(4));
        }
    };
    let cases = [
        (
            "a map of a job it does not have",
            with_table(&good, "running_maps", &set_key("job", 1)),
        ),
        (
            "a map of a block it does not have",
            with_table(&good, "running_maps", &set_key("index", 16)),
        ),
        (
            "a map on a node past the cluster",
            with_table(&good, "running_maps", &set_node),
        ),
        (
            "a reduce on a node past the cluster",
            with_table(&good, "running_reduces", &set_node),
        ),
    ];
    let origin = std::path::Path::new("off-capsule");
    for (case, capsule) in cases {
        let encodings = [
            (
                "json",
                serde_json::to_string(&capsule).unwrap().into_bytes(),
            ),
            ("binary", codec::to_binary(&capsule)),
        ];
        for (format, bytes) in encodings {
            let loaded = checkpoint::from_bytes(origin, &bytes)
                .unwrap_or_else(|e| panic!("{case} ({format}) loads: {e}"));
            let mut policy = System::SMapReduce.make_policy();
            let resumed = Engine::resume_in(
                loaded.state,
                policy.as_mut(),
                &telemetry::Telemetry::disabled(),
                &mut EngineArena::new(),
            );
            assert!(resumed.is_err(), "{case} ({format}) resumed");
        }
    }
}

#[test]
fn mis_sized_usage_samplers_are_refused_not_resumed() {
    // a 4-node capsule whose usage sampler no longer covers the cluster
    // must be refused, in either encoding — never parsed and then
    // panicked on when the step loop feeds it. A sampler at odds with
    // itself is refused at load; one consistently sized for another
    // cluster is refused when it binds
    use mapreduce::{Engine, EngineArena};
    use serde_json::Value;
    let cfg = EngineConfig::small_test(4, 11);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        1024.0,
        4,
        SimTime::ZERO,
    );
    let (_, capsules) = record(&cfg, job, &System::SMapReduce, SimDuration::from_secs(10));
    let snap = SimSnapshot::new(capsules.into_iter().nth(1).expect("a mid-run capsule"));
    let good = serde_json::to_value(&snap).unwrap();
    let with_usage = |edit: &dyn Fn(&mut Value)| {
        let mut capsule = good.clone();
        let mut state = capsule.get("state").unwrap().clone();
        let mut usage = state.get("usage").unwrap().clone();
        edit(&mut usage);
        state.set("usage", usage);
        capsule.set("state", state);
        capsule
    };
    let pop = |v: &mut Value, key: &str| {
        let mut items = v.get(key).unwrap().clone();
        if let Value::Array(a) = &mut items {
            a.pop();
        }
        v.set(key, items);
    };
    let cases = [
        ("truncated acc", true, with_usage(&|u| pop(u, "acc"))),
        ("short series", true, with_usage(&|u| pop(u, "series"))),
        (
            "mismatched channels",
            true,
            with_usage(&|u| {
                let mut series = u.get("series").unwrap().clone();
                if let Value::Array(nodes) = &mut series {
                    let mut disk = nodes[1].get("disk").unwrap().clone();
                    pop(&mut disk, "points");
                    nodes[1].set("disk", disk);
                }
                u.set("series", series);
            }),
        ),
        (
            "sized for 3 nodes",
            false,
            with_usage(&|u| {
                for key in ["caps", "acc", "series"] {
                    pop(u, key);
                }
            }),
        ),
    ];
    let origin = std::path::Path::new("mis-sized");
    for (case, refused_at_load, capsule) in cases {
        let encodings = [
            (
                "json",
                serde_json::to_string(&capsule).unwrap().into_bytes(),
            ),
            ("binary", codec::to_binary(&capsule)),
        ];
        for (format, bytes) in encodings {
            let loaded = checkpoint::from_bytes(origin, &bytes);
            assert_eq!(
                loaded.is_err(),
                refused_at_load,
                "{case} ({format}) at load"
            );
            let Ok(loaded) = loaded else {
                continue;
            };
            let mut policy = System::SMapReduce.make_policy();
            let resumed = Engine::resume_in(
                loaded.state,
                policy.as_mut(),
                &telemetry::Telemetry::disabled(),
                &mut EngineArena::new(),
            );
            assert!(resumed.is_err(), "{case} ({format}) resumed");
        }
    }
}
