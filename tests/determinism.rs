//! Reproducibility guarantees: a seeded run is exactly repeatable, and
//! seeds are the *only* source of variation.

use harness::{run_once, System};
use mapreduce::EngineConfig;
use workloads::Puma;

fn job() -> mapreduce::JobSpec {
    Puma::SequenceCount.job(0, 6.0 * 1024.0, 20, Default::default())
}

#[test]
fn identical_seeds_identical_runs_all_systems() {
    let cfg = EngineConfig::paper_default();
    for sys in System::all() {
        let a = run_once(&cfg, vec![job()], &sys, 1234).unwrap();
        let b = run_once(&cfg, vec![job()], &sys, 1234).unwrap();
        assert_eq!(a.slot_changes, b.slot_changes, "{}", sys.label());
        let (ja, jb) = (&a.jobs[0], &b.jobs[0]);
        assert_eq!(ja.finished_at, jb.finished_at, "{}", sys.label());
        assert_eq!(ja.maps_done_at, jb.maps_done_at);
        assert_eq!(ja.progress.len(), jb.progress.len());
        for (pa, pb) in ja.progress.points().iter().zip(jb.progress.points()) {
            assert_eq!(pa.0, pb.0);
            assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "bitwise-identical progress");
        }
        // slot series identical too
        for (pa, pb) in a
            .map_slot_series
            .points()
            .iter()
            .zip(b.map_slot_series.points())
        {
            assert_eq!(pa, pb);
        }
    }
}

#[test]
fn serialized_event_logs_and_reports_are_byte_identical() {
    // the strongest reproducibility claim: not just matching timings but
    // byte-identical serialized artifacts, event log included
    let mut cfg = EngineConfig::small_test(4, 7);
    cfg.record_events = true;
    for sys in System::all() {
        let a = run_once(&cfg, vec![job()], &sys, 4242).unwrap();
        let b = run_once(&cfg, vec![job()], &sys, 4242).unwrap();
        assert!(!a.events.is_empty(), "{}: events recorded", sys.label());
        let ev_a = serde_json::to_string(&a.events).unwrap();
        let ev_b = serde_json::to_string(&b.events).unwrap();
        assert_eq!(ev_a, ev_b, "{}: event logs byte-identical", sys.label());
        let rep_a = serde_json::to_string(&a).unwrap();
        let rep_b = serde_json::to_string(&b).unwrap();
        assert_eq!(rep_a, rep_b, "{}: full reports byte-identical", sys.label());
    }
}

#[test]
fn telemetry_is_strictly_observational() {
    // an enabled telemetry sink must not perturb the simulation: the
    // serialized report of an instrumented run matches the plain run
    use mapreduce::{Engine, EngineArena};
    let mut cfg = EngineConfig::small_test(4, 7);
    cfg.record_events = true;
    cfg.seed = 77;
    let mut p1 = smapreduce::SlotManagerPolicy::paper_default();
    let plain = Engine::new(cfg.clone()).run(vec![job()], &mut p1).unwrap();
    let mut p2 = smapreduce::SlotManagerPolicy::paper_default();
    let telem = telemetry::Telemetry::enabled();
    let mut state = Engine::new(cfg).prepare(vec![job()]).unwrap();
    state.override_policy("SMapReduce").unwrap();
    let traced = Engine::resume_in(state, &mut p2, &telem, &mut EngineArena::new()).unwrap();
    assert!(
        telem.instant_count() > 0,
        "the sink really observed the run"
    );
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "telemetry must never feed back into simulation state"
    );
}

#[test]
fn both_stepping_modes_are_individually_deterministic() {
    // determinism must hold per engine mode: the fixed-tick reference and
    // the adaptive event-horizon engine each reproduce themselves exactly
    // (they need not — and do not — reproduce each other bit-for-bit)
    use simgrid::time::SteppingMode;
    for mode in [SteppingMode::Fixed, SteppingMode::Adaptive] {
        let mut cfg = EngineConfig::small_test(4, 7);
        cfg.record_events = true;
        cfg.tick.mode = mode;
        let a = run_once(&cfg, vec![job()], &System::SMapReduce, 2718).unwrap();
        let b = run_once(&cfg, vec![job()], &System::SMapReduce, 2718).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "{mode:?}: reports byte-identical"
        );
        assert!(a.steps > 0, "{mode:?}: step count reported");
    }
}

#[test]
fn different_seeds_differ_but_agree_roughly() {
    let cfg = EngineConfig::paper_default();
    let a = run_once(&cfg, vec![job()], &System::HadoopV1, 1).unwrap();
    let b = run_once(&cfg, vec![job()], &System::HadoopV1, 2).unwrap();
    let (ta, tb) = (
        a.jobs[0].total_time().as_secs_f64(),
        b.jobs[0].total_time().as_secs_f64(),
    );
    assert_ne!(
        a.jobs[0].finished_at, b.jobs[0].finished_at,
        "different seeds should not collide exactly"
    );
    assert!(
        (ta - tb).abs() / ta < 0.25,
        "seed variation should be modest: {ta} vs {tb}"
    );
}

#[test]
fn seed_only_enters_via_config() {
    // same config object reused twice gives the same result even with
    // interleaved unrelated runs (no hidden global state)
    let cfg = EngineConfig::paper_default();
    let a = run_once(&cfg, vec![job()], &System::SMapReduce, 99).unwrap();
    let _noise = run_once(&cfg, vec![job()], &System::Yarn, 123).unwrap();
    let b = run_once(&cfg, vec![job()], &System::SMapReduce, 99).unwrap();
    assert_eq!(a.jobs[0].finished_at, b.jobs[0].finished_at);
}
