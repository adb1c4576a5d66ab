//! Concurrency and determinism tests for the realtime service.

use realtime::{Command, RealtimeService, ServiceConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_config() -> ServiceConfig {
    ServiceConfig {
        tick_interval: Duration::from_millis(2),
        dilation: 2000.0, // 4 sim-seconds per tick
        ..ServiceConfig::default()
    }
}

/// Wait (bounded) until `cond` holds, re-checking every millisecond.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn tenants_advance_and_finish_jobs() {
    let handle = RealtimeService::spawn(fast_config());
    let t0 = handle.create_tenant("alpha", 8, 11, "SMapReduce").unwrap();
    let t1 = handle.create_tenant("beta", 8, 12, "HadoopV1").unwrap();
    handle.submit_job(t0, "grep", 1024.0, 4).unwrap();
    handle.submit_job(t1, "terasort", 1024.0, 4).unwrap();
    wait_for("both tenants to finish their job", || {
        [t0, t1].iter().all(|&t| {
            handle
                .frame(t)
                .is_some_and(|f| f.obs.all_finished && f.obs.jobs.len() == 1)
        })
    });
    let summary = handle.shutdown().unwrap();
    assert!(summary.ticks > 0);
    assert_eq!(summary.tenants.len(), 2);
    for t in &summary.tenants {
        assert!(t.finished, "tenant {} should be finished", t.id);
        assert_eq!(t.jobs_completed, 1);
        assert!(t.error.is_none());
        assert!(t.state_hash != 0);
    }
    // idle tenants stop burning ticks: sim clocks froze at job completion
    assert!(summary.tenants[0].sim_now_ms > 0);
}

#[test]
fn readers_always_observe_consistent_epoch_ordered_frames() {
    let handle = RealtimeService::spawn(fast_config());
    let mut ids = Vec::new();
    for i in 0..6 {
        let id = handle
            .create_tenant(&format!("t{i}"), 8, 100 + i as u64, "SMapReduce")
            .unwrap();
        handle.submit_job(id, "grep", 4096.0, 4).unwrap();
        ids.push(id);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let torn = Arc::new(AtomicU64::new(0));
    let regressions = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for r in 0..4 {
        let obs = handle.observations();
        let stop = stop.clone();
        let torn = torn.clone();
        let regressions = regressions.clone();
        let reads = reads.clone();
        let ids = ids.clone();
        readers.push(std::thread::spawn(move || {
            let mut last_epoch = vec![0u64; ids.len()];
            while !stop.load(Ordering::Acquire) {
                for (k, &id) in ids.iter().enumerate() {
                    let Some(frame) = obs.frame(id) else { continue };
                    reads.fetch_add(1, Ordering::Relaxed);
                    // completeness: the checksum covers every field a torn
                    // publish could corrupt
                    if !frame.is_consistent() {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    // epoch consistency: published epochs never go back
                    if frame.epoch < last_epoch[k] {
                        regressions.fetch_add(1, Ordering::Relaxed);
                    }
                    last_epoch[k] = frame.epoch;
                }
                if r % 2 == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }
    // let readers hammer the pool while the tick thread advances all six
    // tenants through a real workload
    wait_for("ticks to accumulate under reader load", || {
        handle.tick() >= 200
    });
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    let summary = handle.shutdown().unwrap();
    assert_eq!(torn.load(Ordering::Relaxed), 0, "readers saw torn frames");
    assert_eq!(
        regressions.load(Ordering::Relaxed),
        0,
        "reader-visible epochs regressed"
    );
    assert!(reads.load(Ordering::Relaxed) > 1000, "readers barely ran");
    assert!(summary.frames_published > 0);
    // the never-block contract: reader contention may skip publishes, but
    // every tenant still converges to a fresh frame once readers stop
    for &id in &ids {
        let frame = summary
            .tenants
            .iter()
            .find(|t| t.id == id)
            .expect("tenant in summary");
        assert!(frame.error.is_none());
    }
}

#[test]
fn recorded_script_replays_to_identical_hashes() {
    let handle = RealtimeService::spawn(fast_config());
    let a = handle.create_tenant("rep-a", 8, 41, "SMapReduce").unwrap();
    let b = handle.create_tenant("rep-b", 6, 42, "YARN").unwrap();
    let c = handle
        .create_tenant("rep-c", 8, 43, "SMapReduce-hetero")
        .unwrap();
    handle.submit_job(a, "grep", 2048.0, 4).unwrap();
    handle.submit_job(b, "terasort", 1024.0, 4).unwrap();
    // exercise every command class mid-run
    handle.inject_fault(a, 3, 30_000, Some(60_000)).unwrap();
    handle.pause(b).unwrap();
    wait_for("ticks while b is paused", || handle.tick() >= 40);
    handle.submit_job(c, "wordcount", 1024.0, 2).unwrap();
    handle.resume(b).unwrap();
    handle.submit_job(a, "kmeans", 512.0, 2).unwrap();
    wait_for("all tenants to finish", || {
        [a, b, c].iter().all(|&t| {
            handle
                .frame(t)
                .is_some_and(|f| f.obs.all_finished && !f.obs.jobs.is_empty())
        })
    });
    let summary = handle.shutdown().unwrap();
    let script = summary.script.expect("recording was on");
    assert!(script.ticks > 0);
    assert_eq!(script.traces.len(), 3);
    assert!(
        script.traces.iter().all(|t| !t.hashes.is_empty()),
        "every tenant must have recorded hash points"
    );

    // offline, single-threaded, no wall clock: must land on the exact
    // hashes the live run recorded
    let outcome = script.replay();
    assert!(
        outcome.verified,
        "replay diverged: {:?}",
        outcome.mismatches
    );
    assert_eq!(outcome.tenants, 3);
    assert!(outcome.points_checked > 10);

    // and the script round-trips through JSON
    let json = serde_json::to_string(&script).unwrap();
    let reloaded: realtime::IngressScript = serde_json::from_str(&json).unwrap();
    assert_eq!(reloaded, script);
    assert!(reloaded.replay().verified);
}

#[test]
fn commands_validate_and_errors_do_not_kill_the_service() {
    let handle = RealtimeService::spawn(fast_config());
    // bad system label
    assert!(handle.create_tenant("x", 8, 1, "nope").is_err());
    // no workers, or more than any cluster the service sizes for
    assert!(handle.create_tenant("x", 0, 1, "SMapReduce").is_err());
    let too_wide = realtime::service::MAX_TENANT_WORKERS + 1;
    assert!(handle
        .create_tenant("x", too_wide, 1, "SMapReduce")
        .is_err());
    // no such tenant
    assert!(handle.submit_job(9, "grep", 1024.0, 4).is_err());
    let t = handle.create_tenant("x", 8, 1, "SMapReduce").unwrap();
    // unknown benchmark
    assert!(handle.submit_job(t, "not-a-bench", 1024.0, 4).is_err());
    // fault before any job booted the cluster
    assert!(handle.inject_fault(t, 0, 1000, None).is_err());
    // fault must be strictly in the future
    handle.submit_job(t, "grep", 512.0, 2).unwrap();
    assert!(handle.inject_fault(t, 0, 0, None).is_err());
    // the service is still healthy after all those rejections
    wait_for("tenant to finish", || {
        handle.frame(t).is_some_and(|f| f.obs.all_finished)
    });
    let summary = handle.shutdown().unwrap();
    assert!(summary.tenants[0].error.is_none());
    // failed commands were not recorded into the script
    let script = summary.script.unwrap();
    assert!(script.replay().verified);
    assert_eq!(
        script
            .commands
            .iter()
            .filter(|c| matches!(c.cmd, Command::SubmitJob { .. }))
            .count(),
        1
    );
}

#[test]
fn snapshot_through_ingress_restores_under_checkpoint() {
    let dir = std::env::temp_dir().join(format!("realtime-snap-{}", std::process::id()));
    let handle = RealtimeService::spawn(fast_config());
    let t = handle.create_tenant("snap", 8, 7, "SMapReduce").unwrap();
    handle.submit_job(t, "terasort", 2048.0, 4).unwrap();
    wait_for("some progress", || {
        handle.frame(t).is_some_and(|f| f.obs.at_ms > 0)
    });
    let path = handle.snapshot(t, dir.to_str().unwrap()).unwrap();
    let summary = handle.shutdown().unwrap();
    assert!(summary.tenants[0].error.is_none());

    // the capsule loads under the checkpoint crate and carries a valid
    // rolling hash chain
    let snap = checkpoint::load(std::path::Path::new(&path)).expect("capsule loads");
    assert!(snap.state.at().as_millis() > 0);
    std::fs::remove_dir_all(&dir).ok();
}
