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
fn paper_testbed_step_counts_are_pinned_per_mode() {
    // Grep and Terasort (2,048 MB, 16 reduces) under SMapReduce on the
    // paper testbed, one run each per mode, the mode set on the config.
    // The adaptive engine lands on event times where the fixed engine
    // walks the 100 ms grid: 788 / 133 is a 5.9x step ratio. Fixed mode
    // sees each completion up to a tick late and the delays add up along
    // the map -> shuffle -> sort -> reduce chain, so the simulated spans
    // differ by a bounded quantization error, not by model drift.
    use simgrid::time::{SimTime, SteppingMode};
    let run = |mode: SteppingMode| -> (u64, u64) {
        let (mut steps, mut sim_ms) = (0, 0);
        for bench in [Puma::Grep, Puma::Terasort] {
            let mut cfg = EngineConfig::paper_default();
            cfg.tick.mode = mode;
            let job = bench.job(0, 2048.0, 16, SimTime::ZERO);
            let report = run_once(&cfg, vec![job], &System::SMapReduce, cfg.seed).unwrap();
            steps += report.steps;
            sim_ms += report.jobs[0].finished_at.as_millis();
        }
        (steps, sim_ms)
    };
    let (fixed_steps, fixed_ms) = run(SteppingMode::Fixed);
    let (adaptive_steps, adaptive_ms) = run(SteppingMode::Adaptive);
    assert_eq!(
        (fixed_steps, adaptive_steps),
        (788, 133),
        "step counts changed"
    );
    // the gate the pins must keep when they are re-recorded
    assert!(fixed_steps >= 5 * adaptive_steps);
    let rel = fixed_ms.abs_diff(adaptive_ms) as f64 / fixed_ms as f64;
    assert!(rel < 0.10, "simulated spans diverged ({rel:.3})");
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

#[test]
fn wide_cluster_runs_are_pinned_exactly() {
    // every committed reference runs at most 16 nodes, where a reduce sees
    // a handful of shuffle sources; at 64 and 256 nodes it chooses among
    // hundreds, so these pins catch a changed source choice or tie-break
    // that leaves nearly every small reference byte-identical
    use harness::Scale;
    use mapreduce::auditor::fingerprint;
    use mapreduce::Engine;
    use simgrid::time::{SimTime, SteppingMode};
    let pins = [
        (
            64,
            SteppingMode::Adaptive,
            0x1c19_c545_1e1f_a669_u64,
            85,
            24_025,
        ),
        (64, SteppingMode::Fixed, 0x207c_5b1f_65a8_0791, 247, 24_600),
        (
            256,
            SteppingMode::Adaptive,
            0x26cb_0838_d55b_86a5,
            109,
            26_000,
        ),
        (256, SteppingMode::Fixed, 0xba94_360a_62a2_637d, 267, 26_600),
    ];
    for (nodes, mode, print, steps, finished_ms) in pins {
        let mut cfg = Scale::Full.engine(nodes);
        cfg.seed = 7;
        cfg.tick.mode = mode;
        let input_mb = nodes as f64 * 2.0 * cfg.block_mb;
        let job = Puma::Grep.job(0, input_mb, 32, SimTime::ZERO);
        let mut policy = System::SMapReduce.make_policy();
        let report = Engine::new(cfg).run(vec![job], policy.as_mut()).unwrap();
        let got = (
            fingerprint(&report),
            report.steps,
            report.jobs[0].finished_at.as_millis(),
        );
        assert_eq!(
            got,
            (print, steps, finished_ms),
            "{nodes} nodes, {mode:?}: got {:#018x}/{}/{}",
            got.0,
            got.1,
            got.2
        );
    }
}

/// A 256-node Grep that runs every recovery path at scale: node 40
/// crashes for good at 20 s and is found by heartbeat expiry, node 90
/// drops out at 19 s and re-registers at 29 s (before expiry, so the
/// rejoin itself reveals the loss), re-replication restores the lost
/// replicas, and 2 % of map attempts fail and re-queue.
fn faulted_wide_grep(mode: simgrid::time::SteppingMode) -> mapreduce::RunReport {
    use harness::Scale;
    use mapreduce::Engine;
    use simgrid::cluster::NodeId;
    use simgrid::time::{SimDuration, SimTime};
    use simgrid::{FaultPlan, NodeFault};
    let nodes = 256;
    let mut cfg = Scale::Full.engine(nodes);
    cfg.seed = 7;
    cfg.tick.mode = mode;
    cfg.map_failure_rate = 0.02;
    cfg.rereplication_rate = 50.0;
    cfg.fault_plan = FaultPlan::new(vec![
        NodeFault::permanent(NodeId(40), SimTime::from_secs(20)),
        NodeFault::transient(
            NodeId(90),
            SimTime::from_secs(19),
            SimDuration::from_secs(10),
        ),
    ]);
    let input_mb = nodes as f64 * 2.0 * cfg.block_mb;
    let job = Puma::Grep.job(0, input_mb, 32, SimTime::ZERO);
    let mut policy = System::SMapReduce.make_policy();
    Engine::new(cfg).run(vec![job], policy.as_mut()).unwrap()
}

/// Every `(time, value-bits)` point of every node's utilization series,
/// folded in node order and channel order.
fn utilization_digest(report: &mapreduce::RunReport) -> u64 {
    let mut h = mapreduce::initial_state_hash(0);
    for u in &report.node_utilization {
        h = mapreduce::fold_hash(h, u.node as u64);
        for ts in [&u.cpu, &u.disk, &u.nic, &u.map_occupied, &u.reduce_occupied] {
            h = mapreduce::fold_hash(h, ts.len() as u64);
            for &(t, v) in ts.points() {
                h = mapreduce::fold_hash(mapreduce::fold_hash(h, t.as_millis()), v.to_bits());
            }
        }
    }
    h
}

#[test]
fn faulted_wide_cluster_runs_are_pinned_exactly() {
    // the 64/256-node pins above are fault-free; this one makes the
    // scheduler re-queue killed and failed attempts at the back of the
    // queue, re-sort it after lost outputs and restore lost replicas,
    // all with hundreds of nodes to choose among
    use mapreduce::auditor::fingerprint;
    use simgrid::time::SteppingMode;
    let pins = [
        (
            SteppingMode::Adaptive,
            0x26b8_530a_3e30_3fcd_u64,
            213,
            74_182,
            0x46c1_c1ae_a049_84b1_u64,
        ),
        (
            SteppingMode::Fixed,
            0xe21c_17d4_c45b_7fe9,
            743,
            74_200,
            0x3958_2d49_e42c_c6fb,
        ),
    ];
    for (mode, print, steps, finished_ms, usage) in pins {
        let report = faulted_wide_grep(mode);
        assert_eq!(report.node_crashes, 2, "{mode:?}: both faults fired");
        assert!(report.lost_map_outputs > 0, "{mode:?}: outputs re-executed");
        assert!(report.map_failures > 0, "{mode:?}: attempts failed");
        let got = (
            fingerprint(&report),
            report.steps,
            report.jobs[0].finished_at.as_millis(),
            utilization_digest(&report),
        );
        assert_eq!(
            got,
            (print, steps, finished_ms, usage),
            "{mode:?}: got {:#018x}/{}/{}/{:#018x}",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}

#[test]
fn node_utilization_timelines_are_pinned_exactly() {
    // nothing else pins the per-node utilization report: the fingerprint
    // folds counters only. A 16-node Terasort runs more than 512 samples,
    // so every series is thinned (the faulted 256-node pins above cover
    // a timeline with gaps where nodes were down)
    use simgrid::time::SimTime;
    let cfg = EngineConfig::paper_default();
    let job = Puma::Terasort.job(0, Puma::Terasort.default_input_mb(), 30, SimTime::ZERO);
    let report = run_once(&cfg, vec![job], &System::SMapReduce, 7).unwrap();
    let longest = report
        .node_utilization
        .iter()
        .map(|u| u.cpu.len())
        .max()
        .unwrap();
    assert!(
        longest > 256 && report.jobs[0].finished_at.as_millis() > 512_000,
        "the Terasort run is long enough to be thinned"
    );
    let digest = utilization_digest(&report);
    assert_eq!(
        digest, 0xcb39_e62b_e3b6_acaf,
        "16-node Terasort: got {digest:#018x}"
    );
}

#[test]
fn rereplicated_queued_blocks_are_pinned_exactly() {
    // a 480-block Grep runs ten map waves on the testbed, and fast
    // re-replication restores node 3's lost replicas onto other nodes
    // while many of those blocks are still queued: a heartbeat must see
    // the restored copy as local from the next pick on. The counters
    // alone barely notice which local block a tracker takes, so the
    // pins add a digest of the event log, which names every launch
    use mapreduce::auditor::fingerprint;
    use mapreduce::Engine;
    use simgrid::cluster::NodeId;
    use simgrid::time::{SimTime, SteppingMode};
    use simgrid::{FaultPlan, NodeFault};
    let pins = [
        (
            SteppingMode::Adaptive,
            0xccac_8b5d_f0b7_71c5_u64,
            664,
            145_000,
            0x7bd4_ca3f_2c34_9f94_u64,
        ),
        (
            SteppingMode::Fixed,
            0x90ab_af71_ef46_7211,
            1450,
            144_900,
            0x11b2_26fa_3388_b988,
        ),
    ];
    for (mode, print, steps, finished_ms, events) in pins {
        let mut cfg = EngineConfig::paper_default();
        cfg.seed = 7;
        cfg.tick.mode = mode;
        cfg.record_events = true;
        cfg.rereplication_rate = 1000.0;
        cfg.fault_plan = FaultPlan::new(vec![NodeFault::permanent(
            NodeId(3),
            SimTime::from_secs(10),
        )]);
        let job = Puma::Grep.job(0, 60.0 * 1024.0, 30, SimTime::ZERO);
        let mut policy = System::SMapReduce.make_policy();
        let report = Engine::new(cfg).run(vec![job], policy.as_mut()).unwrap();
        let log = serde_json::to_string(&report.events).unwrap();
        let digest = log.bytes().fold(mapreduce::initial_state_hash(0), |h, b| {
            mapreduce::fold_hash(h, b as u64)
        });
        let got = (
            fingerprint(&report),
            report.steps,
            report.jobs[0].finished_at.as_millis(),
            digest,
        );
        assert_eq!(
            got,
            (print, steps, finished_ms, events),
            "{mode:?}: got {:#018x}/{}/{}/{:#018x}",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}

#[test]
fn shuffle_heavy_wide_cluster_runs_are_pinned_exactly() {
    // the wide pins above all run Grep, whose tiny map outputs drain in a
    // step or two. A 96-node Terasort leaves hundreds of backlogged
    // sources per reduce, many with equal backlogs, and node 10's crash at
    // 30 s kills reduces mid-shuffle and loses map output; 96 nodes also
    // spans two 64-bit words of any per-source set
    use harness::Scale;
    use mapreduce::auditor::fingerprint;
    use mapreduce::{Counter, Engine};
    use simgrid::cluster::NodeId;
    use simgrid::time::{SimTime, SteppingMode};
    use simgrid::{FaultPlan, NodeFault};
    let pins = [
        (
            SteppingMode::Adaptive,
            0xad95_7ff3_310c_01b1_u64,
            292,
            148_000,
            0xa6c0_c822_2841_1222_u64,
        ),
        (
            SteppingMode::Fixed,
            0x1599_de49_6867_d0a5,
            1488,
            148_700,
            0x66bd_5d9c_0c0c_87e1,
        ),
    ];
    for (mode, print, steps, finished_ms, events) in pins {
        let nodes = 96;
        let mut cfg = Scale::Full.engine(nodes);
        cfg.seed = 7;
        cfg.tick.mode = mode;
        cfg.record_events = true;
        cfg.fault_plan = FaultPlan::new(vec![NodeFault::permanent(
            NodeId(10),
            SimTime::from_secs(30),
        )]);
        let input_mb = nodes as f64 * 2.0 * cfg.block_mb;
        let job = Puma::Terasort.job(0, input_mb, 48, SimTime::ZERO);
        let mut policy = System::SMapReduce.make_policy();
        let report = Engine::new(cfg).run(vec![job], policy.as_mut()).unwrap();
        assert!(
            report.counters.get(Counter::KilledReduces) > 0.0,
            "{mode:?}: a shuffling reduce was killed"
        );
        assert!(report.lost_map_outputs > 0, "{mode:?}: outputs lost");
        let log = serde_json::to_string(&report.events).unwrap();
        let digest = log.bytes().fold(mapreduce::initial_state_hash(0), |h, b| {
            mapreduce::fold_hash(h, b as u64)
        });
        let got = (
            fingerprint(&report),
            report.steps,
            report.jobs[0].finished_at.as_millis(),
            digest,
        );
        assert_eq!(
            got,
            (print, steps, finished_ms, events),
            "{mode:?}: got {:#018x}/{}/{}/{:#018x}",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}

#[test]
fn speculative_wide_cluster_runs_are_pinned_exactly() {
    // no other wide pin launches a backup attempt: a 256-node Grep of
    // eight map waves with one degraded attempt in ten runs speculation
    // at scale, so backups launch on other trackers and winning attempts
    // kill their losing siblings, many per heartbeat round
    use harness::Scale;
    use mapreduce::auditor::fingerprint;
    use mapreduce::Engine;
    use simgrid::time::{SimTime, SteppingMode};
    let pins = [
        (
            SteppingMode::Adaptive,
            0xd603_fa64_a080_fa3d_u64,
            602,
            136_951,
            0x6c7c_70ec_29a8_d120_u64,
        ),
        (
            SteppingMode::Fixed,
            0x95f1_a328_d442_e175,
            1409,
            140_800,
            0x4598_5bef_2dbb_a555,
        ),
    ];
    for (mode, print, steps, finished_ms, events) in pins {
        let nodes = 256;
        let mut cfg = Scale::Full.engine(nodes);
        cfg.seed = 7;
        cfg.tick.mode = mode;
        cfg.record_events = true;
        cfg.straggler_rate = 0.1;
        cfg.speculative_maps = true;
        let input_mb = nodes as f64 * 8.0 * cfg.block_mb;
        let job = Puma::Grep.job(0, input_mb, 32, SimTime::ZERO);
        let mut policy = System::SMapReduce.make_policy();
        let report = Engine::new(cfg).run(vec![job], policy.as_mut()).unwrap();
        assert!(report.speculative_attempts > 0, "{mode:?}: no backup ran");
        assert!(
            report
                .events
                .events()
                .iter()
                .any(|e| matches!(e, mapreduce::Event::MapKilled { .. })),
            "{mode:?}: no losing sibling was killed"
        );
        let log = serde_json::to_string(&report.events).unwrap();
        let digest = log.bytes().fold(mapreduce::initial_state_hash(0), |h, b| {
            mapreduce::fold_hash(h, b as u64)
        });
        let got = (
            fingerprint(&report),
            report.steps,
            report.jobs[0].finished_at.as_millis(),
            digest,
        );
        assert_eq!(
            got,
            (print, steps, finished_ms, events),
            "{mode:?}: got {:#018x}/{}/{}/{:#018x}",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}
