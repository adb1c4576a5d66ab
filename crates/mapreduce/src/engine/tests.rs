use super::*;
use crate::counters::Counter;
use crate::events::Event;
use crate::job::JobProfile;
use crate::policy::{PolicyContext, StaticSlotPolicy};

/// A prepared state bound to [`StaticSlotPolicy`].
fn bound(engine: &Engine, jobs: Vec<JobSpec>) -> EngineState {
    let mut state = engine.prepare(jobs).unwrap();
    state.override_policy("HadoopV1").unwrap();
    state
}

fn resume(state: EngineState, policy: &mut dyn SlotPolicy) -> Result<RunReport, SimError> {
    Engine::resume_in(
        state,
        policy,
        &Telemetry::disabled(),
        &mut EngineArena::new(),
    )
}

fn run_single(profile: JobProfile, input_mb: f64, workers: usize, seed: u64) -> RunReport {
    let cfg = EngineConfig::small_test(workers, seed);
    let job = JobSpec::new(0, profile, input_mb, workers * 2, SimTime::ZERO);
    Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .expect("run completes")
}

#[test]
fn map_heavy_job_completes() {
    let r = run_single(JobProfile::synthetic_map_heavy(), 2048.0, 4, 1);
    let j = r.single();
    assert_eq!(j.num_maps, 16);
    assert!(j.map_time().as_secs_f64() > 0.0);
    assert!(j.reduce_time().as_secs_f64() > 0.0);
    assert!(j.finished_at > j.maps_done_at);
    assert!(j.maps_done_at > j.started_at);
    // tiny shuffle for map-heavy profile
    assert!((j.shuffle_mb - 2048.0 * 0.02).abs() < 1e-6);
}

#[test]
fn reduce_heavy_job_completes_with_full_shuffle() {
    let r = run_single(JobProfile::synthetic_reduce_heavy(), 1024.0, 4, 2);
    let j = r.single();
    assert!((j.shuffle_mb - 1024.0).abs() < 1e-6);
    // reduce-heavy: the tail (sort+reduce of the full input) dominates
    assert!(j.reduce_time().as_secs_f64() > 1.0);
}

#[test]
fn chunked_advance_until_matches_straight_run_in_both_modes() {
    for fixed in [false, true] {
        let mut cfg = EngineConfig::small_test(4, 17);
        if fixed {
            cfg.tick.mode = SteppingMode::Fixed;
        }
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let engine = Engine::new(cfg);
        let straight = engine
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .unwrap();

        // same run, advanced in 5-sim-second quanta through the
        // capsule path the realtime service uses per tick
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        let mut state = engine.prepare(vec![job]).unwrap();
        state.override_policy("HadoopV1").unwrap();
        let mut report = None;
        let mut chunks = 0u32;
        while report.is_none() {
            let target = state.at() + SimDuration::from_secs(5);
            let adv =
                Engine::advance_until_in(state, &mut StaticSlotPolicy, target, &telem, &mut arena)
                    .unwrap();
            state = adv.state;
            report = adv.report;
            chunks += 1;
            assert!(chunks < 10_000, "fixed={fixed}: run never converged");
        }
        assert!(chunks > 2, "fixed={fixed}: want a genuinely chunked run");
        let json = |r: &RunReport| serde_json::to_string(r).unwrap();
        assert_eq!(
            json(&straight),
            json(&report.unwrap()),
            "fixed={fixed}: chunked advance must be invisible"
        );

        // further advances of a finished run are no-ops that leave the
        // sim clock frozen
        let at = state.at();
        let adv = Engine::advance_until_in(
            state,
            &mut StaticSlotPolicy,
            at + SimDuration::from_secs(100),
            &telem,
            &mut arena,
        )
        .unwrap();
        assert!(adv.finished);
        assert_eq!(adv.steps_run, 0);
        assert_eq!(adv.state.at(), at);
    }
}

/// Every slot-series sample is mirrored to its telemetry counter track
/// (`map_slot_target` / `reduce_slot_target`), value for value.
#[test]
fn slot_series_mirror_to_telemetry_counter_tracks() {
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        1024.0,
        8,
        SimTime::ZERO,
    );
    let engine = Engine::new(EngineConfig::small_test(4, 3));
    let telem = Telemetry::with_capacity(1 << 10, 1 << 12);
    let report = Engine::resume_in(
        bound(&engine, vec![job]),
        &mut StaticSlotPolicy,
        &telem,
        &mut EngineArena::new(),
    )
    .unwrap();
    let trace: serde::Value = serde_json::from_str(&telem.chrome_trace().unwrap()).unwrap();
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    for (track, series) in [
        ("map_slot_target", &report.map_slot_series),
        ("reduce_slot_target", &report.reduce_slot_series),
    ] {
        let mirrored: Vec<(u64, f64)> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("C")
                    && e.get("name").and_then(|n| n.as_str()) == Some(track)
            })
            .map(|e| {
                let args = e.get("args").unwrap();
                let sim_ms = args.get("sim_ms").unwrap().as_u64().unwrap();
                (sim_ms, args.get("value").unwrap().as_f64().unwrap())
            })
            .collect();
        let recorded: Vec<(u64, f64)> = series
            .points()
            .iter()
            .map(|&(t, v)| (t.as_millis(), v))
            .collect();
        assert!(!recorded.is_empty(), "{track}: no samples");
        assert_eq!(mirrored, recorded, "{track}");
    }
}

/// Every step records each of its phase spans exactly once: the node
/// allocation, the fabric water-fill and both integrate halves in
/// either mode, the event horizon in adaptive mode only. Each
/// heartbeat round records one span, and the ring drops none.
#[test]
fn every_step_records_each_phase_span_once() {
    for mode in [SteppingMode::Adaptive, SteppingMode::Fixed] {
        let mut cfg = EngineConfig::small_test(4, 7);
        cfg.tick.mode = mode;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let telem = Telemetry::enabled();
        let report = Engine::resume_in(
            bound(&Engine::new(cfg), vec![job]),
            &mut StaticSlotPolicy,
            &telem,
            &mut EngineArena::new(),
        )
        .unwrap();
        assert!(report.steps > 0);
        assert_eq!(telem.dropped_spans(), 0, "{mode:?}");
        let count = |cat: &str, name: &str| {
            telem
                .with_spans(|it| it.filter(|s| s.cat == cat && s.name == name).count() as u64)
                .unwrap()
        };
        for name in [
            "allocate_nodes",
            "network_allocate",
            "advance_maps",
            "advance_reduces",
        ] {
            assert_eq!(count("step", name), report.steps, "{mode:?}: step/{name}");
        }
        let horizons = match mode {
            SteppingMode::Adaptive => report.steps,
            SteppingMode::Fixed => 0,
        };
        assert_eq!(count("step", "event_horizon"), horizons, "{mode:?}");
        assert_eq!(telem.counter("engine.steps").get(), report.steps);
        let rounds = telem.counter("engine.heartbeat_rounds").get();
        assert!(rounds > 0);
        assert_eq!(count("engine", "heartbeat_round"), rounds, "{mode:?}");
    }
}

/// A resident [`Run`] stepped quantum by quantum ends on the straight
/// run's report and on the state the capsule-in/capsule-out chunks
/// reach, and a capture taken mid-run resumes like the run itself.
/// The run crosses chunk boundaries through every change to the
/// resident indexes: failed and killed attempts re-queue, a rejoin
/// before expiry and a crash found by expiry re-sort lost outputs,
/// re-replication restores replicas, and a job is injected while a
/// node is down.
#[test]
fn resident_run_matches_capsule_stepping_in_both_modes() {
    use simgrid::fault::NodeFault;
    let inject_at = SimTime::from_secs(8);
    let injected = || (JobProfile::synthetic_map_heavy(), 768.0, 4);
    for mode in [SteppingMode::Adaptive, SteppingMode::Fixed] {
        let mut cfg = EngineConfig::small_test(4, 31);
        cfg.tick.mode = mode;
        cfg.map_failure_rate = 0.05;
        cfg.rereplication_rate = 50.0;
        cfg.fault_plan = simgrid::FaultPlan::new(vec![
            NodeFault::transient(NodeId(3), SimTime::from_secs(6), SimDuration::from_secs(4)),
            NodeFault::transient(
                NodeId(2),
                SimTime::from_secs(20),
                SimDuration::from_secs(12),
            ),
            NodeFault::permanent(NodeId(1), SimTime::from_secs(25)),
        ]);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let engine = Engine::new(cfg);
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        let straight = {
            let mut head = Engine::advance_until_in(
                bound(&engine, vec![job.clone()]),
                &mut StaticSlotPolicy,
                inject_at,
                &telem,
                &mut arena,
            )
            .unwrap()
            .state;
            let (profile, mb, reduces) = injected();
            head.inject_job(profile, mb, reduces).unwrap();
            resume(head, &mut StaticSlotPolicy).unwrap()
        };
        assert!(
            straight.node_crashes == 3
                && straight.lost_map_outputs > 0
                && straight.map_failures > 0,
            "{mode:?}: every recovery path ran"
        );

        let mut run = Run::bind(
            bound(&engine, vec![job.clone()]),
            Box::new(StaticSlotPolicy),
        )
        .unwrap();
        let mut state = bound(&engine, vec![job]);
        let mut mid = None;
        loop {
            if run.at() == inject_at {
                let (profile, mb, reduces) = injected();
                run.inject_job(profile.clone(), mb, reduces).unwrap();
                state.inject_job(profile, mb, reduces).unwrap();
            }
            let target = run.at() + SimDuration::from_secs(4);
            let finished = run.advance_until(target, &telem, &mut arena).unwrap();
            let adv =
                Engine::advance_until_in(state, &mut StaticSlotPolicy, target, &telem, &mut arena)
                    .unwrap();
            state = adv.state;
            assert_eq!(finished, adv.finished, "{mode:?}");
            assert_eq!(run.state_hash(), state.state_hash(), "{mode:?}");
            if mid.is_none() && run.at() >= SimTime::from_secs(20) {
                mid = Some(run.capture());
            }
            if finished {
                break;
            }
        }
        let json = |r: &RunReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&run.report().unwrap()), json(&straight), "{mode:?}");
        assert_eq!(
            serde_json::to_string(&run.capture()).unwrap(),
            serde_json::to_string(&state).unwrap(),
            "{mode:?}: resident capture differs from the by-value state"
        );
        let resumed = resume(mid.expect("mid-run capture"), &mut StaticSlotPolicy).unwrap();
        assert_eq!(json(&resumed), json(&straight), "{mode:?}");
    }
}

/// Every block's replica list of every job, in submission order.
fn replica_lists(st: &EngineState) -> Vec<Vec<Vec<NodeId>>> {
    st.jobs
        .iter()
        .map(|j| j.layout.blocks.iter().map(|b| b.replicas.clone()).collect())
        .collect()
}

#[test]
fn resident_injections_place_like_a_replayed_namenode() {
    // a resident run keeps its name node across injections, where the
    // by-value path replays every earlier file before each one: fifty
    // injections, some while node 3 is down (its replicas pruned),
    // must leave the same layouts and digests either way
    use simgrid::fault::NodeFault;
    let mut cfg = EngineConfig::small_test(8, 17);
    cfg.fault_plan = simgrid::FaultPlan::new(vec![NodeFault::transient(
        NodeId(3),
        SimTime::from_secs(20),
        SimDuration::from_secs(12),
    )]);
    let engine = Engine::new(cfg);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        4096.0,
        4,
        SimTime::ZERO,
    );
    let telem = Telemetry::disabled();
    let mut arena = EngineArena::new();
    let mut run = Run::bind(
        bound(&engine, vec![job.clone()]),
        Box::new(StaticSlotPolicy),
    )
    .unwrap();
    let mut state = bound(&engine, vec![job]);
    let mut injected_while_down = 0;
    for k in 0..50u64 {
        let target = SimTime::from_secs(k + 1);
        run.advance_until(target, &telem, &mut arena).unwrap();
        state = Engine::advance_until_in(state, &mut StaticSlotPolicy, target, &telem, &mut arena)
            .unwrap()
            .state;
        if !run.state.node_up[3] {
            injected_while_down += 1;
        }
        let mb = 128.0 * (1 + k % 3) as f64;
        let a = run
            .inject_job(JobProfile::synthetic_map_heavy(), mb, 2)
            .unwrap();
        let b = state
            .inject_job(JobProfile::synthetic_map_heavy(), mb, 2)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(run.state_hash(), state.state_hash(), "injection {k}");
    }
    assert!(injected_while_down > 0, "an injection met node 3 down");
    assert_eq!(run.state.jobs.len(), 51);
    assert_eq!(replica_lists(&run.state), replica_lists(&state));
    assert_eq!(
        serde_json::to_string(&run.capture()).unwrap(),
        serde_json::to_string(&state).unwrap()
    );
}

#[test]
fn a_rejected_resident_injection_leaves_its_namenode_in_place() {
    // a file with a block on no live node is rejected after it was
    // placed; the run's name node must then stand where it stood, as
    // a replay (which never saw the rejected file) does
    let engine = Engine::new(EngineConfig::small_test(4, 9));
    let profile = JobProfile::synthetic_map_heavy;
    let job = JobSpec::new(0, profile(), 512.0, 2, SimTime::ZERO);
    let mut run = Run::bind(
        bound(&engine, vec![job.clone()]),
        Box::new(StaticSlotPolicy),
    )
    .unwrap();
    let mut state = bound(&engine, vec![job]);
    run.inject_job(profile(), 512.0, 2).unwrap();
    state.inject_job(profile(), 512.0, 2).unwrap();
    // with three of four nodes down, a 32-block file almost surely
    // has a block whose three replicas are all down
    let set_up = |st: &mut EngineState, up: bool| st.node_up[1..].fill(up);
    set_up(&mut run.state, false);
    set_up(&mut state, false);
    assert!(run.inject_job(profile(), 32.0 * 128.0, 2).is_err());
    assert!(state.inject_job(profile(), 32.0 * 128.0, 2).is_err());
    set_up(&mut run.state, true);
    set_up(&mut state, true);
    run.inject_job(profile(), 1024.0, 2).unwrap();
    state.inject_job(profile(), 1024.0, 2).unwrap();
    assert_eq!(run.state.jobs.len(), 3);
    assert_eq!(replica_lists(&run.state), replica_lists(&state));
    assert_eq!(run.state_hash(), state.state_hash());
}

#[test]
fn injected_job_is_deterministic_and_audits_clean() {
    let run_with_injection = || {
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        let mut state = Engine::new(EngineConfig::small_test(4, 23))
            .prepare(vec![JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                4096.0,
                8,
                SimTime::ZERO,
            )])
            .unwrap();
        state.override_policy("HadoopV1").unwrap();
        // advance a while, then inject a second job mid-run
        let adv = Engine::advance_until_in(
            state,
            &mut StaticSlotPolicy,
            SimTime::from_secs(15),
            &telem,
            &mut arena,
        )
        .unwrap();
        let mut state = adv.state;
        assert!(!adv.finished, "first job must still be running");
        let id = state
            .inject_job(JobProfile::synthetic_reduce_heavy(), 512.0, 4)
            .unwrap();
        assert_eq!(id.0, 1);
        loop {
            let target = state.at() + SimDuration::from_secs(20);
            let adv =
                Engine::advance_until_in(state, &mut StaticSlotPolicy, target, &telem, &mut arena)
                    .unwrap();
            state = adv.state;
            if let Some(report) = adv.report {
                return (state.state_hash(), report);
            }
        }
    };
    let (hash_a, report_a) = run_with_injection();
    let (hash_b, report_b) = run_with_injection();
    assert_eq!(hash_a, hash_b, "injection must be deterministic");
    assert_eq!(
        serde_json::to_string(&report_a).unwrap(),
        serde_json::to_string(&report_b).unwrap()
    );
    assert_eq!(report_a.jobs.len(), 2);
    assert!(report_a.jobs[1].submit_at > SimTime::ZERO);
    // the injected job went through the same bookkeeping as a
    // prepared one: the full invariant audit holds
    let setup = crate::auditor::AuditSetup::from_config(&EngineConfig::small_test(4, 23));
    let violations = crate::auditor::audit(&report_a, &setup);
    assert!(violations.is_empty(), "unexpected: {violations:?}");
}

#[test]
fn inject_rejects_bad_input_and_leaves_state_untouched() {
    let mut state = Engine::new(EngineConfig::small_test(4, 5))
        .prepare(vec![JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            512.0,
            4,
            SimTime::ZERO,
        )])
        .unwrap();
    state.override_policy("HadoopV1").unwrap();
    let before = state.state_hash();
    assert!(state
        .inject_job(JobProfile::synthetic_map_heavy(), 0.0, 4)
        .is_err());
    assert!(state
        .inject_job(JobProfile::synthetic_map_heavy(), 512.0, 0)
        .is_err());
    // faults must be strictly in the future and on a real node
    use simgrid::cluster::NodeId;
    use simgrid::fault::NodeFault;
    assert!(state
        .inject_fault(NodeFault::permanent(NodeId(99), SimTime::from_secs(10)))
        .is_err());
    assert!(state
        .inject_fault(NodeFault::permanent(NodeId(1), SimTime::ZERO))
        .is_err());
    assert_eq!(before, state.state_hash(), "rejections must not mutate");
}

#[test]
fn snapshot_resume_is_byte_identical_in_both_modes() {
    for fixed in [false, true] {
        let mut cfg = EngineConfig::small_test(4, 9);
        if fixed {
            cfg.tick.mode = SteppingMode::Fixed;
        }
        cfg.record_events = true;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let engine = Engine::new(cfg);
        let straight = engine
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .unwrap();
        let every = SimDuration::from_secs(10);
        let rec = Engine::record(
            bound(&engine, vec![job]),
            &mut StaticSlotPolicy,
            Some(every),
        )
        .unwrap();
        let (checkpointed, snaps) = (rec.report, rec.capsules);
        let json = |r: &RunReport| serde_json::to_string(r).unwrap();
        // capturing perturbs nothing
        assert_eq!(json(&straight), json(&checkpointed), "fixed={fixed}");
        assert!(snaps.len() >= 2, "fixed={fixed}: want multiple capsules");
        assert_eq!(snaps[0].at(), SimTime::ZERO);
        // restore from a mid-run capsule and run to the end
        let mid = snaps[snaps.len() / 2].clone();
        assert!(mid.at() > SimTime::ZERO);
        let resumed = resume(mid, &mut StaticSlotPolicy).unwrap();
        assert_eq!(json(&straight), json(&resumed), "fixed={fixed}");
    }
}

#[test]
fn resume_rejects_mismatched_policy() {
    let cfg = EngineConfig::small_test(4, 9);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        512.0,
        8,
        SimTime::ZERO,
    );
    let snaps = Engine::record(
        bound(&Engine::new(cfg), vec![job]),
        &mut StaticSlotPolicy,
        Some(SimDuration::from_secs(10)),
    )
    .unwrap()
    .capsules;
    struct Other;
    impl SlotPolicy for Other {
        fn name(&self) -> &'static str {
            "Other"
        }
        fn decide(&mut self, _: &PolicyContext<'_>) -> Vec<crate::policy::SlotDirective> {
            Vec::new()
        }
    }
    let err = resume(snaps[0].clone(), &mut Other).unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig(_)));
}

#[test]
fn snapshot_period_must_align_with_sampling() {
    let cfg = EngineConfig::small_test(4, 9);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        512.0,
        8,
        SimTime::ZERO,
    );
    let err = Engine::record(
        bound(&Engine::new(cfg), vec![job]),
        &mut StaticSlotPolicy,
        Some(SimDuration::from_millis(1500)),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig(_)));
}

#[test]
fn engine_state_serde_round_trip_preserves_replay() {
    let mut cfg = EngineConfig::small_test(4, 21);
    cfg.record_events = true;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        1024.0,
        8,
        SimTime::ZERO,
    );
    let engine = Engine::new(cfg);
    let rec = Engine::record(
        bound(&engine, vec![job]),
        &mut StaticSlotPolicy,
        Some(SimDuration::from_secs(10)),
    )
    .unwrap();
    let (straight, snaps) = (rec.report, rec.capsules);
    let mid = &snaps[snaps.len() / 2];
    // through the wire format and back
    let wire = serde_json::to_string(mid).unwrap();
    let back: EngineState = serde_json::from_str(&wire).unwrap();
    assert_eq!(back.at(), mid.at());
    let resumed = resume(back, &mut StaticSlotPolicy).unwrap();
    assert_eq!(
        serde_json::to_string(&straight).unwrap(),
        serde_json::to_string(&resumed).unwrap()
    );
}

/// `prepare` builds the t=0 state every run starts from, so pin what
/// it starts: a cold `run` and an explicit prepare → bind →
/// `resume_in` must both end on the counter fingerprint, step count
/// and finish instant recorded for this run when cold runs still
/// booted their own `Sim` instead of resuming a prepared state.
#[test]
fn prepared_capsule_resumes_like_a_fresh_run() {
    // (mode, recorded fingerprint, steps, finished_at ms)
    let recorded = [
        (SteppingMode::Adaptive, 0x5f5c9ef1f968f621, 77, 55_000),
        (SteppingMode::Fixed, 0x2bb06b5bb4b74745, 557, 55_600),
    ];
    for (mode, fingerprint, steps, finished_ms) in recorded {
        let mut cfg = EngineConfig::small_test(4, 13);
        cfg.tick.mode = mode;
        cfg.fault_plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
            NodeId(2),
            SimTime::from_secs(6),
            SimDuration::from_secs(60),
        )]);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let engine = Engine::new(cfg);
        let cold = engine
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .unwrap();
        let resumed = resume(bound(&engine, vec![job]), &mut StaticSlotPolicy).unwrap();
        for (path, r) in [("run", &cold), ("prepare + resume_in", &resumed)] {
            assert_eq!(r.node_crashes, 1, "{mode:?} via {path}");
            assert_eq!(
                (
                    crate::auditor::fingerprint(r),
                    r.steps,
                    r.single().finished_at.as_millis()
                ),
                (fingerprint, steps, finished_ms),
                "{mode:?} via {path}"
            );
        }
    }
}

#[test]
fn recorded_capsules_match_chained_advance_stops_in_both_modes() {
    for mode in [SteppingMode::Adaptive, SteppingMode::Fixed] {
        let mut cfg = EngineConfig::small_test(4, 13);
        cfg.tick.mode = mode;
        cfg.record_events = true;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let engine = Engine::new(cfg);
        let every = SimDuration::from_secs(10);
        let rec = Engine::record(
            bound(&engine, vec![job.clone()]),
            &mut StaticSlotPolicy,
            Some(every),
        )
        .unwrap();
        assert!(rec.capsules.len() > 2, "{mode:?}: want several capsules");
        // the same run, stopped by chained advances at each capture
        // instant, must stop in exactly the recorded states
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        let mut state = bound(&engine, vec![job]);
        for (k, capsule) in rec.capsules.iter().enumerate() {
            assert_eq!(capsule.at().as_millis(), every.as_millis() * k as u64);
            let adv = Engine::advance_until_in(
                state,
                &mut StaticSlotPolicy,
                capsule.at(),
                &telem,
                &mut arena,
            )
            .unwrap();
            assert_eq!(
                serde_json::to_string(&adv.state).unwrap(),
                serde_json::to_string(capsule).unwrap(),
                "{mode:?}: capsule {k} differs from the advance stop"
            );
            state = adv.state;
        }
    }
}

#[test]
fn determinism_same_seed_same_timings() {
    let a = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 7);
    let b = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 7);
    assert_eq!(
        a.single().finished_at.as_millis(),
        b.single().finished_at.as_millis()
    );
    assert_eq!(
        a.single().maps_done_at.as_millis(),
        b.single().maps_done_at.as_millis()
    );
}

#[test]
fn local_map_fraction_matches_event_log() {
    // regression for the counter derivation: the fraction reported
    // from DATA_LOCAL_MAPS / TOTAL_LAUNCHED_MAPS must equal the one
    // computed from the launch events' remote_read flags — two
    // independently-maintained paths over the same launches
    let mut cfg = EngineConfig::small_test(4, 11);
    cfg.record_events = true;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let r = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .unwrap();
    let (mut local, mut total) = (0u64, 0u64);
    for e in r.events.events() {
        if let Event::MapLaunched { remote_read, .. } = e {
            total += 1;
            if !remote_read {
                local += 1;
            }
        }
    }
    assert!(total > 0);
    let from_events = local as f64 / total as f64;
    assert_eq!(r.single().local_map_fraction, from_events);
    let c = &r.single().counters;
    assert_eq!(c.get(Counter::TotalLaunchedMaps), total as f64);
    assert_eq!(c.get(Counter::DataLocalMaps), local as f64);
}

#[test]
fn counters_close_their_conservation_laws() {
    let r = run_single(JobProfile::synthetic_reduce_heavy(), 1024.0, 4, 9);
    let j = r.single();
    let c = &j.counters;
    // fault-free: every MB of input read once, output == shuffle, and
    // every produced MB was fetched by exactly one reducer
    assert!((c.get(Counter::HdfsBytesRead) - 1024.0).abs() < 1e-6);
    assert!((c.get(Counter::MapOutputMb) - j.shuffle_mb).abs() < 1e-6);
    assert!((c.get(Counter::ShuffleFetchedMb) - j.shuffle_mb).abs() < 1e-6);
    assert_eq!(c.get(Counter::LostMapOutputMb), 0.0);
    assert_eq!(c.get(Counter::KilledAttempts), 0.0);
    // remote shuffle is a subset of fetched, and feeds network_mb
    assert!(c.get(Counter::ShuffleRemoteMb) <= c.get(Counter::ShuffleFetchedMb));
    assert!(
        c.get(Counter::RemoteBytesRead) + c.get(Counter::ShuffleRemoteMb) <= r.network_mb + 1e-6
    );
    // run-level ledger is the single job's ledger
    assert_eq!(r.counters, j.counters);
}

#[test]
fn node_utilization_is_recorded_and_bounded() {
    let r = run_single(JobProfile::synthetic_map_heavy(), 2048.0, 4, 13);
    assert_eq!(r.node_utilization.len(), 4);
    let busy: usize = r.node_utilization.iter().map(|u| u.cpu.len()).sum();
    assert!(busy > 0, "some node must have recorded CPU samples");
    for u in &r.node_utilization {
        for &(_, x) in u.cpu.points() {
            assert!((0.0..=1.0 + 1e-9).contains(&x), "cpu {x}");
        }
        for &(_, x) in u.map_occupied.points() {
            assert!(x >= 0.0);
        }
    }
    // static policy, no decisions recorded
    assert!(r.decisions.is_empty());
}

#[test]
fn different_seeds_vary_slightly() {
    let a = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 1);
    let b = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 2);
    // jitter and placement differ; totals should be close but the runs
    // are genuinely different executions
    let ta = a.single().total_time().as_secs_f64();
    let tb = b.single().total_time().as_secs_f64();
    assert!((ta - tb).abs() / ta < 0.30, "ta={ta} tb={tb}");
}

#[test]
fn progress_reaches_200_percent() {
    let r = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 3);
    let j = r.single();
    let (_, last) = j.progress.last().expect("progress recorded");
    assert!(last > 195.0, "final progress {last}");
    // and it is monotone non-decreasing
    let pts = j.progress.points();
    for w in pts.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-6);
    }
}

#[test]
fn multi_job_fifo_ordering() {
    let cfg = EngineConfig::small_test(4, 5);
    let jobs = vec![
        JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        ),
        JobSpec::new(
            1,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::from_secs(5),
        ),
    ];
    let r = Engine::new(cfg).run(jobs, &mut StaticSlotPolicy).unwrap();
    assert_eq!(r.jobs.len(), 2);
    // FIFO: the first job finishes first
    assert!(r.jobs[0].finished_at <= r.jobs[1].finished_at);
    assert!(r.makespan() >= r.jobs[1].execution_time());
    assert!(r.mean_execution_time().as_secs_f64() > 0.0);
}

#[test]
fn static_policy_never_changes_slots() {
    let r = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 1);
    assert_eq!(r.slot_changes, 0);
    // slot series is flat at workers * init
    for &(_, v) in r.map_slot_series.points() {
        assert_eq!(v, 12.0); // 4 workers * 3 slots
    }
    for &(_, v) in r.reduce_slot_series.points() {
        assert_eq!(v, 8.0);
    }
}

#[test]
fn rejects_empty_and_invalid() {
    let cfg = EngineConfig::small_test(4, 1);
    assert!(Engine::new(cfg.clone())
        .run(vec![], &mut StaticSlotPolicy)
        .is_err());
    let mut bad = cfg.clone();
    bad.init_map_slots = 0;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        128.0,
        1,
        SimTime::ZERO,
    );
    assert!(Engine::new(bad)
        .run(vec![job.clone()], &mut StaticSlotPolicy)
        .is_err());
    // off-grid heartbeat is only an error under fixed ticking
    let mut bad2 = cfg;
    bad2.tick.mode = SteppingMode::Fixed;
    bad2.heartbeat = SimDuration::from_millis(150);
    assert!(Engine::new(bad2)
        .run(vec![job], &mut StaticSlotPolicy)
        .is_err());
}

#[test]
fn validation_rejects_zero_periods_in_both_modes() {
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        128.0,
        1,
        SimTime::ZERO,
    );
    for mode in [SteppingMode::Fixed, SteppingMode::Adaptive] {
        let mut base = EngineConfig::small_test(2, 42);
        base.tick.mode = mode;
        let mut bad = base.clone();
        bad.heartbeat = SimDuration::ZERO;
        let err = Engine::new(bad)
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .unwrap_err();
        assert!(format!("{err}").contains("heartbeat"), "{err}");
        let mut bad = base.clone();
        bad.sample_period = SimDuration::ZERO;
        let err = Engine::new(bad)
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .unwrap_err();
        assert!(format!("{err}").contains("sample_period"), "{err}");
    }
    // a zero tick only matters when it is actually the step length
    let mut bad = EngineConfig::small_test(2, 42);
    bad.tick.mode = SteppingMode::Fixed;
    bad.tick.tick = SimDuration::ZERO;
    let err = Engine::new(bad)
        .run(vec![job.clone()], &mut StaticSlotPolicy)
        .unwrap_err();
    assert!(format!("{err}").contains("tick"), "{err}");
}

#[test]
fn adaptive_mode_accepts_off_grid_periods() {
    let mut cfg = EngineConfig::small_test(2, 7);
    cfg.tick.mode = SteppingMode::Adaptive;
    cfg.heartbeat = SimDuration::from_millis(150);
    cfg.sample_period = SimDuration::from_millis(70);
    let job = JobSpec::new(0, JobProfile::synthetic_map_heavy(), 64.0, 2, SimTime::ZERO);
    let report = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .expect("off-grid periods are fine without a tick grid");
    assert!(report.single().total_time().as_secs_f64() > 0.0);
}

/// The two stepping modes are different discretisations of the same
/// physics: paper-scale observables must agree closely, and the
/// adaptive core must need far fewer steps to get there.
#[test]
fn fixed_and_adaptive_modes_agree_on_observables() {
    let job = || {
        JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        )
    };
    let run = |mode: SteppingMode| {
        let mut cfg = EngineConfig::small_test(4, 11);
        cfg.tick.mode = mode;
        Engine::new(cfg)
            .run(vec![job()], &mut StaticSlotPolicy)
            .expect("run completes")
    };
    let fixed = run(SteppingMode::Fixed);
    let adaptive = run(SteppingMode::Adaptive);
    let (tf, ta) = (
        fixed.single().total_time().as_secs_f64(),
        adaptive.single().total_time().as_secs_f64(),
    );
    let rel = (tf - ta).abs() / tf.max(ta);
    assert!(
        rel < 0.05,
        "total time diverged: fixed {tf}s adaptive {ta}s"
    );
    assert!(
        (fixed.single().shuffle_mb - adaptive.single().shuffle_mb).abs() < 1e-6,
        "shuffle volume is exact in both modes"
    );
    // on this deliberately small run the 1 s sample boundary dominates
    // the step count; paper-testbed runs clear 5x (the workspace's
    // tests/determinism.rs pins 788 fixed vs 133 adaptive steps)
    assert!(
        adaptive.steps * 4 <= fixed.steps,
        "adaptive must take far fewer steps ({} vs {})",
        adaptive.steps,
        fixed.steps
    );
}

#[test]
fn rejects_non_dense_job_ids() {
    let cfg = EngineConfig::small_test(2, 1);
    let job = JobSpec::new(
        3,
        JobProfile::synthetic_map_heavy(),
        128.0,
        1,
        SimTime::ZERO,
    );
    assert!(Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .is_err());
}

#[test]
fn more_input_takes_longer() {
    let small = run_single(JobProfile::synthetic_map_heavy(), 512.0, 4, 1);
    let large = run_single(JobProfile::synthetic_map_heavy(), 4096.0, 4, 1);
    assert!(
        large.single().total_time() > small.single().total_time(),
        "8x input must take longer"
    );
}

#[test]
fn speculation_races_and_wins_on_stragglers() {
    let mut cfg = EngineConfig::small_test(4, 21);
    cfg.jitter_amp = 0.6; // strong stragglers
    cfg.speculative_maps = true;
    cfg.speculation_min_runtime = SimDuration::from_secs(5);
    cfg.record_events = true;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let r = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .unwrap();
    assert!(
        r.speculative_attempts > 0,
        "stragglers should trigger backups"
    );
    assert!(r.speculative_wins <= r.speculative_attempts);
    // output conservation: every block delivered exactly once
    let j = r.single();
    assert!((j.shuffle_mb - 2048.0 * 0.02).abs() < 1e-6);
    // every race ends either with the losing attempt killed (still
    // running when the winner delivered) or silently discarded (it
    // finished after delivery) — never more kills than races
    let kills = r
        .events
        .count(|e| matches!(e, crate::events::Event::MapKilled { .. }));
    assert!(kills as u64 <= r.speculative_attempts);
    assert_eq!(r.map_failures, 0);
}

#[test]
fn speculation_off_means_zero_attempts() {
    let r = run_single(JobProfile::synthetic_map_heavy(), 1024.0, 4, 1);
    assert_eq!(r.speculative_attempts, 0);
    assert_eq!(r.speculative_wins, 0);
}

#[test]
fn injected_failures_are_retried_to_completion() {
    let mut cfg = EngineConfig::small_test(4, 8);
    cfg.map_failure_rate = 0.15;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let r = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .unwrap();
    let j = r.single();
    assert!(r.map_failures > 0, "failures should have been injected");
    assert_eq!(j.num_maps, 16, "all blocks still delivered");
    assert!(
        (j.shuffle_mb - 2048.0 * 0.02).abs() < 1e-6,
        "no double output"
    );
    let (_, p) = j.progress.last().unwrap();
    assert!(p >= 200.0 - 1e-6);
}

#[test]
fn failures_plus_speculation_compose() {
    let mut cfg = EngineConfig::small_test(4, 13);
    cfg.map_failure_rate = 0.1;
    cfg.speculative_maps = true;
    cfg.jitter_amp = 0.5;
    cfg.speculation_min_runtime = SimDuration::from_secs(5);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        1024.0,
        8,
        SimTime::ZERO,
    );
    let r = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .unwrap();
    let j = r.single();
    assert!(
        (j.shuffle_mb - 1024.0).abs() < 1e-6,
        "exactly-once delivery"
    );
}

#[test]
fn invalid_failure_rate_rejected() {
    let mut cfg = EngineConfig::small_test(2, 1);
    cfg.map_failure_rate = 1.0;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        128.0,
        1,
        SimTime::ZERO,
    );
    assert!(Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .is_err());
}

#[test]
fn map_time_scales_with_map_slots() {
    // more map slots (below thrashing) => shorter map time
    let mut cfg = EngineConfig::small_test(4, 9);
    cfg.init_map_slots = 2;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let slow = Engine::new(cfg.clone())
        .run(vec![job.clone()], &mut StaticSlotPolicy)
        .unwrap();
    cfg.init_map_slots = 6;
    let fast = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .unwrap();
    assert!(
        fast.single().map_time() < slow.single().map_time(),
        "6 slots {:?} should beat 2 slots {:?}",
        fast.single().map_time(),
        slow.single().map_time()
    );
}

// ------------------------------------------------------------------
// Node-crash fault injection and recovery
// ------------------------------------------------------------------

/// Fault-free baseline barrier instant, rounded down to the heartbeat
/// grid — a crash there lands mid-map-phase in both stepping modes.
fn mid_map_crash_instant(cfg: &EngineConfig, job: &JobSpec) -> SimTime {
    let base = Engine::new(cfg.clone())
        .run(vec![job.clone()], &mut StaticSlotPolicy)
        .expect("baseline completes");
    // 5/8 of the barrier: past the first task wave (so completed map
    // output exists on every node) but with maps and shuffling reduces
    // still in flight
    let mid_ms = base.single().maps_done_at.as_millis() * 5 / 8;
    SimTime::from_millis((mid_ms / 3000).max(1) * 3000)
}

#[test]
fn crash_mid_map_recovers_and_reexecutes_lost_output() {
    let cfg = EngineConfig::small_test(4, 5);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let crash_at = mid_map_crash_instant(&cfg, &job);
    let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(NodeId(1), crash_at)]);
    let mut cfg = cfg;
    cfg.fault_plan = plan;
    cfg.record_events = true;
    let r = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .expect("recovery completes the job");
    let j = r.single();
    assert_eq!(r.node_crashes, 1);
    assert!(
        r.lost_map_outputs > 0,
        "the dead node held completed map output reducers still needed"
    );
    assert!(r.crash_task_kills > 0, "in-flight work died with the node");
    assert!(
        (j.shuffle_mb - 2048.0).abs() < 1e-6,
        "full shuffle delivered"
    );
    let (_, p) = j.progress.last().unwrap();
    assert!(p >= 200.0 - 1e-6);
    assert!(
        r.events
            .events()
            .iter()
            .any(|e| matches!(e, Event::MapOutputLost { .. })),
        "lost output must be recorded"
    );
    assert!(
        r.map_input_processed_mb >= 2048.0 - 1e-6,
        "work conservation: re-execution only adds map input"
    );
}

#[test]
fn crash_without_recovery_surfaces_clean_error() {
    let cfg = EngineConfig::small_test(4, 5);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let crash_at = mid_map_crash_instant(&cfg, &job);
    let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(NodeId(1), crash_at)]);
    let mut cfg = cfg;
    cfg.fault_plan = plan;
    cfg.fault_recovery = false;
    let err = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .expect_err("stranded work must error, not hang");
    match err {
        SimError::NodeLost { node, .. } => assert_eq!(node, NodeId(1)),
        other => panic!("expected NodeLost, got {other:?}"),
    }
}

#[test]
fn transient_crash_rejoins_as_fresh_tracker() {
    let cfg = EngineConfig::small_test(4, 6);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let crash_at = mid_map_crash_instant(&cfg, &job);
    // downtime longer than the expiry interval: loss is detected by
    // timeout first, then the node re-registers and takes work again
    let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
        NodeId(2),
        crash_at,
        SimDuration::from_secs(60),
    )]);
    let mut cfg = cfg;
    cfg.fault_plan = plan;
    cfg.record_events = true;
    let r = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .expect("transient crash recovers");
    assert_eq!(r.node_crashes, 1);
    assert!(r
        .events
        .events()
        .iter()
        .any(|e| matches!(e, Event::NodeRejoined { node, .. } if *node == NodeId(2))),);
}

#[test]
fn early_rejoin_before_expiry_still_reveals_loss() {
    let cfg = EngineConfig::small_test(4, 6);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_reduce_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    let crash_at = mid_map_crash_instant(&cfg, &job);
    // downtime shorter than heartbeat_timeout (30 s): re-registration,
    // not expiry, is what reveals the lost state
    let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
        NodeId(1),
        crash_at,
        SimDuration::from_secs(9),
    )]);
    let mut cfg = cfg;
    cfg.fault_plan = plan;
    let r = Engine::new(cfg)
        .run(vec![job], &mut StaticSlotPolicy)
        .expect("early rejoin recovers");
    assert_eq!(r.node_crashes, 1);
    let (_, p) = r.single().progress.last().unwrap();
    assert!(p >= 200.0 - 1e-6);
}

#[test]
fn repeated_failures_blacklist_tracker() {
    let cfg = EngineConfig::small_test(4, 3);
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        1024.0,
        8,
        SimTime::ZERO,
    );
    let mut state = bound(&Engine::new(cfg.clone()), vec![job]);
    let mut policy = StaticSlotPolicy;
    state.bind(&mut policy).unwrap();
    let scratch = EngineArena::new().checkout(cfg.cluster.workers);
    let mut derived = Derived::of(&state);
    let mut sim = Sim::over(
        &mut state,
        &mut policy,
        &mut derived,
        &Telemetry::disabled(),
        scratch,
    );
    for _ in 0..cfg.blacklist_threshold {
        sim.charge_tracker_failure(NodeId(0));
    }
    assert!(sim.st.trackers[0].blacklisted);
    assert_eq!(sim.st.trackers_blacklisted, 1);
    // further failures never double-count the tracker
    sim.charge_tracker_failure(NodeId(0));
    assert_eq!(sim.st.trackers_blacklisted, 1);
    // and it is skipped at assignment time
    sim.heartbeat_round();
    assert!(
        !sim.st.running_maps.rows().is_empty(),
        "healthy trackers got work"
    );
    assert!(
        sim.st
            .running_maps
            .rows()
            .iter()
            .all(|(_, t)| t.node != NodeId(0)),
        "blacklisted tracker must receive no work"
    );
}

/// Regression for the float-boundary bug: a failure point the adaptive
/// horizon lands on *exactly* used to be skipped by `progress() >=
/// fail_at` (one ulp under after the division), deferring the failure
/// to the next step in one mode but not the other.
#[test]
fn failure_points_fire_identically_in_both_modes() {
    let run = |mode: SteppingMode| {
        let mut cfg = EngineConfig::small_test(4, 21);
        cfg.tick.mode = mode;
        cfg.map_failure_rate = 0.2;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            2048.0,
            8,
            SimTime::ZERO,
        );
        Engine::new(cfg)
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("run completes")
    };
    let fixed = run(SteppingMode::Fixed);
    let adaptive = run(SteppingMode::Adaptive);
    assert!(adaptive.map_failures > 0, "failures should fire");
    assert_eq!(
        fixed.map_failures, adaptive.map_failures,
        "every injected failure point must fire in both modes"
    );
}

/// Failures, wide jitter and speculation on a 4-node cluster: on seed
/// 44 the original and the backup of block 5 both finish in the step
/// that ends at 17 s.
fn twin_prone(seed: u64) -> (EngineConfig, JobSpec) {
    let mut cfg = EngineConfig::small_test(4, seed);
    cfg.map_failure_rate = 0.3;
    cfg.speculative_maps = true;
    cfg.jitter_amp = 0.6;
    cfg.speculation_min_runtime = SimDuration::from_secs(5);
    cfg.record_events = true;
    let job = JobSpec::new(
        0,
        JobProfile::synthetic_map_heavy(),
        2048.0,
        8,
        SimTime::ZERO,
    );
    (cfg, job)
}

/// Twin attempts that finish in one step: the first in attempt order
/// delivers the block, the other goes down the discard path instead of
/// being completed after it was already killed.
#[test]
fn twin_attempts_finishing_in_one_step_deliver_once() {
    let (cfg, job) = twin_prone(44);
    let report = Engine::new(cfg.clone())
        .run(vec![job], &mut StaticSlotPolicy)
        .expect("run completes");
    assert!(report.counters.get(Counter::DiscardedMaps) > 0.0);
    let mut delivered = std::collections::BTreeMap::new();
    for e in report.events.events() {
        if let Event::MapCompleted { id, .. } = e {
            *delivered.entry(id.index).or_insert(0) += 1;
        }
    }
    let blocks = report.jobs[0].num_maps;
    assert_eq!(delivered.len(), blocks, "every block delivered");
    assert!(delivered.values().all(|&n| n == 1), "{delivered:?}");
    let violations = crate::auditor::audit(&report, &crate::AuditSetup::from_config(&cfg));
    assert!(violations.is_empty(), "{violations:?}");
}

/// A sibling killed by its twin's completion takes its failure point
/// with it, so a finished run holds none.
#[test]
fn finished_runs_hold_no_failure_points() {
    for seed in 0..20 {
        let (cfg, job) = twin_prone(seed);
        let state = bound(&Engine::new(cfg.clone()), vec![job]);
        let adv = Engine::advance_until_in(
            state,
            &mut StaticSlotPolicy,
            cfg.tick.horizon,
            &Telemetry::disabled(),
            &mut EngineArena::new(),
        )
        .unwrap();
        assert!(adv.finished, "seed {seed}: run finished");
        assert!(
            adv.state.failure_points.rows().is_empty(),
            "seed {seed}: {} stale failure points",
            adv.state.failure_points.len()
        );
    }
}

#[test]
fn validation_rejects_bad_fault_plans() {
    let job = || {
        vec![JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            512.0,
            4,
            SimTime::ZERO,
        )]
    };
    // unknown node
    let mut cfg = EngineConfig::small_test(4, 1);
    let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(
        NodeId(9),
        SimTime::from_secs(5),
    )]);
    cfg.fault_plan = plan;
    assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
    // crash at t=0
    let mut cfg = EngineConfig::small_test(4, 1);
    let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::permanent(
        NodeId(1),
        SimTime::ZERO,
    )]);
    cfg.fault_plan = plan;
    assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
    // zero downtime
    let mut cfg = EngineConfig::small_test(4, 1);
    let plan = simgrid::FaultPlan::new(vec![simgrid::NodeFault::transient(
        NodeId(1),
        SimTime::from_secs(5),
        SimDuration::ZERO,
    )]);
    cfg.fault_plan = plan;
    assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
    // zero blacklist threshold
    let mut cfg = EngineConfig::small_test(4, 1);
    cfg.blacklist_threshold = 0;
    assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
    // negative re-replication rate
    let mut cfg = EngineConfig::small_test(4, 1);
    cfg.rereplication_rate = -1.0;
    assert!(Engine::new(cfg).run(job(), &mut StaticSlotPolicy).is_err());
}
