//! Concurrency and determinism tests for the realtime service.

use realtime::{Command, RealtimeService, ServiceConfig, ServiceHandle};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn fast_config() -> ServiceConfig {
    ServiceConfig {
        tick_interval: Duration::from_millis(2),
        dilation: 2000.0, // 4 sim-seconds per tick
        ..ServiceConfig::default()
    }
}

/// Wait (bounded) until `cond` holds, re-checking every millisecond.
fn wait_for(what: &str, cond: impl FnMut() -> bool) {
    wait_within(Duration::from_secs(30), what, cond);
}

/// [`wait_for`] with an explicit bound.
fn wait_within(limit: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
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

/// What reader threads saw while they hammered the observation pool.
struct Seen {
    reads: u64,
    /// Frames whose checksum did not match their content.
    torn: u64,
    /// Frames older than one the same reader had already seen.
    regressions: u64,
    /// Most ticks a live tenant's frame lagged the tick counter.
    max_staleness: u64,
}

/// Run `drive` while four reader threads poll every tenant in `ids`,
/// then stop the readers and return what they saw.
fn under_readers(handle: &ServiceHandle, ids: &[usize], drive: impl FnOnce()) -> Seen {
    let stop = AtomicBool::new(false);
    let [reads, torn, regressions, staleness] = [(); 4].map(|_| AtomicU64::new(0));
    let driven = std::thread::scope(|scope| {
        for r in 0..4 {
            let obs = handle.observations();
            let (stop, reads, torn) = (&stop, &reads, &torn);
            let (regressions, staleness) = (&regressions, &staleness);
            scope.spawn(move || {
                let mut last_epoch = vec![0u64; ids.len()];
                while !stop.load(Ordering::Acquire) {
                    for (k, &id) in ids.iter().enumerate() {
                        let Some(frame) = obs.frame(id) else { continue };
                        reads.fetch_add(1, Ordering::Relaxed);
                        // completeness: the checksum covers every field a
                        // torn publish could corrupt
                        if !frame.is_consistent() {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        // epoch consistency: published epochs never go back
                        if frame.epoch < last_epoch[k] {
                            regressions.fetch_add(1, Ordering::Relaxed);
                        }
                        last_epoch[k] = frame.epoch;
                        // staleness means something only for tenants still
                        // advancing: finished, paused and failed tenants
                        // stop publishing by design
                        let live = frame.epoch > 0
                            && !frame.paused
                            && !frame.obs.all_finished
                            && frame.error.is_none();
                        if live {
                            let lag = obs.tick().saturating_sub(frame.tick + 1);
                            staleness.fetch_max(lag, Ordering::Relaxed);
                        }
                    }
                    if r % 2 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // a failed wait must not leave the readers spinning
        let driven = std::panic::catch_unwind(std::panic::AssertUnwindSafe(drive));
        stop.store(true, Ordering::Release);
        driven
    });
    if let Err(panic) = driven {
        std::panic::resume_unwind(panic);
    }
    Seen {
        reads: reads.into_inner(),
        torn: torn.into_inner(),
        regressions: regressions.into_inner(),
        max_staleness: staleness.into_inner(),
    }
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
    // let readers hammer the pool while the tick thread advances all six
    // tenants through a real workload
    let seen = under_readers(&handle, &ids, || {
        wait_for("ticks to accumulate under reader load", || {
            handle.tick() >= 200
        })
    });
    let summary = handle.shutdown().unwrap();
    assert_eq!(seen.torn, 0, "readers saw torn frames");
    assert_eq!(seen.regressions, 0, "reader-visible epochs regressed");
    assert!(seen.reads > 1000, "readers barely ran");
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

/// The service under a multi-tenant load: 32 tenants of 8 workers round
/// robin over every system label, a crash on every 7th tenant, a pause on
/// every 11th, a half-size second job wave, four readers throughout and
/// the ingress script recorded. Frames stay consistent and fresh, every
/// job completes, and the script replays offline to the live hashes.
#[test]
fn a_loaded_fleet_stays_consistent_and_replays() {
    // (benchmark, input MB, reduces), cycled across tenants
    const JOB_MIX: &[(&str, f64, usize)] = &[
        ("grep", 1024.0, 4),
        ("terasort", 768.0, 4),
        ("wordcount", 512.0, 2),
        ("kmeans", 384.0, 2),
        ("invertedindex", 512.0, 4),
    ];
    const TENANTS: usize = 32;
    const WORKERS: usize = 8;
    let handle = RealtimeService::spawn(ServiceConfig {
        tick_interval: Duration::from_millis(2),
        dilation: 4000.0, // 8 sim-seconds per tick
        record_script: true,
        ..ServiceConfig::default()
    });
    for i in 0..TENANTS {
        let system = realtime::SYSTEM_LABELS[i % realtime::SYSTEM_LABELS.len()];
        let id = handle
            .create_tenant(&format!("fleet-{i:02}"), WORKERS, 1000 + i as u64, system)
            .unwrap();
        let (bench, mb, reduces) = JOB_MIX[i % JOB_MIX.len()];
        handle.submit_job(id, bench, mb, reduces).unwrap();
    }
    let ids: Vec<usize> = (0..TENANTS).collect();
    let seen = under_readers(&handle, &ids, || {
        for i in (0..TENANTS).step_by(7) {
            handle
                .inject_fault(i, (i % WORKERS).max(1), 20_000, Some(40_000))
                .unwrap();
        }
        for i in (0..TENANTS).step_by(11) {
            handle.pause(i).unwrap();
        }
        wait_for("ticks while every 11th tenant is paused", || {
            handle.tick() >= 50
        });
        for i in (0..TENANTS).step_by(11) {
            handle.resume(i).unwrap();
        }
        // the second wave puts finished tenants back into the ready set
        for i in 0..TENANTS {
            let (bench, mb, reduces) = JOB_MIX[(i + 2) % JOB_MIX.len()];
            handle.submit_job(i, bench, mb * 0.5, reduces).unwrap();
        }
        // a frame published before a tenant's second job was applied
        // still reads "all finished": wait for frames that hold both jobs
        wait_within(Duration::from_secs(120), "every job to finish", || {
            ids.iter().all(|&id| {
                handle.frame(id).is_some_and(|f| {
                    f.obs.jobs.len() == 2 && f.obs.all_finished && f.error.is_none()
                })
            })
        });
    });
    let summary = handle.shutdown().unwrap();
    assert_eq!(seen.torn, 0, "readers saw torn frames");
    assert_eq!(seen.regressions, 0, "reader-visible epochs regressed");
    assert!(seen.reads > 0, "readers never ran");
    // a reader descheduled between reading a frame and the tick counter
    // overstates the lag, so the cap is loose: a second of 2 ms ticks
    assert!(
        seen.max_staleness <= 500,
        "a live frame lagged {} ticks",
        seen.max_staleness
    );
    let completed: u64 = summary.tenants.iter().map(|t| t.jobs_completed).sum();
    assert_eq!(completed, 2 * TENANTS as u64, "jobs lost");
    let outcome = summary.script.expect("recording was on").replay();
    assert!(
        outcome.verified,
        "replay diverged: {:?}",
        outcome.mismatches
    );
    assert!(outcome.points_checked > 0, "replay compared no hash points");
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

/// Rejected commands leave the service healthy and count nowhere: the
/// command and frame counts of `stats()`, the summary and the telemetry
/// registry are one count each.
#[test]
fn commands_validate_and_errors_do_not_kill_the_service() {
    let telem = telemetry::Telemetry::enabled();
    let handle = RealtimeService::spawn(ServiceConfig {
        telemetry: telem.clone(),
        ..fast_config()
    });
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
    // job shapes no cluster can run, sent while the tenant has no cluster
    // yet, so each would be its boot job
    assert!(handle.submit_job(t, "grep", 0.0, 4).is_err());
    assert!(handle.submit_job(t, "grep", -1.0, 4).is_err());
    assert!(handle.submit_job(t, "grep", 512.0, 0).is_err());
    // sizes that would hang or exhaust the tick thread: a finite input
    // that splits into billions of blocks, an infinite one, and more
    // reduces than a job may have
    let hostile = [(1e12, 4), (f64::INFINITY, 4), (512.0, 1_000_000_000_000)];
    for (input_mb, reduces) in hostile {
        assert!(handle.submit_job(t, "grep", input_mb, reduces).is_err());
    }
    // fault before any job booted the cluster
    assert!(handle.inject_fault(t, 0, 1000, None).is_err());
    // fault must be strictly in the future
    handle.submit_job(t, "grep", 512.0, 2).unwrap();
    let commands = telem.counter("realtime.commands");
    assert_eq!(handle.stats().commands_applied, 2);
    assert_eq!(commands.get(), 2);
    assert!(handle.inject_fault(t, 0, 0, None).is_err());
    // the same sizes injected into the running cluster
    for (input_mb, reduces) in hostile {
        assert!(handle.submit_job(t, "grep", input_mb, reduces).is_err());
    }
    // the service is still healthy after all those rejections
    wait_for("tenant to finish", || {
        handle.frame(t).is_some_and(|f| f.obs.all_finished)
    });
    let summary = handle.shutdown().unwrap();
    assert!(summary.tenants[0].error.is_none());
    // create, submit and the shutdown itself were applied
    assert_eq!(summary.commands_applied, 3);
    assert_eq!(handle.stats().commands_applied, 3);
    assert_eq!(commands.get(), 3);
    // each published frame advanced the tenant's epoch by one
    let published = handle.frame(t).unwrap().epoch;
    assert!(published > 0);
    assert_eq!(summary.frames_published, published);
    assert_eq!(handle.stats().frames_published, published);
    assert_eq!(telem.counter("realtime.frames").get(), published);
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
    // a few heartbeats in, so the slot manager has run state to carry
    wait_for("some progress", || {
        handle.frame(t).is_some_and(|f| f.obs.at_ms >= 20_000)
    });
    let path = handle.snapshot(t, dir.to_str().unwrap()).unwrap();
    wait_for("the tenant to finish", || {
        handle.frame(t).is_some_and(|f| f.obs.all_finished)
    });
    let summary = handle.shutdown().unwrap();
    let live = &summary.tenants[0];
    assert!(live.error.is_none());

    // the capsule loads under the checkpoint crate and, resumed offline
    // under a fresh policy, lands on the live tenant's final hash — which
    // it cannot if the capsule carried a stale policy state
    let snap = checkpoint::load(std::path::Path::new(&path)).expect("capsule loads");
    assert!(snap.state.at().as_millis() >= 20_000);
    let mut policy = realtime::policy_for("SMapReduce").unwrap();
    let resumed = mapreduce::Engine::advance_until_in(
        snap.state,
        policy.as_mut(),
        simgrid::time::SimTime::from_millis(live.sim_now_ms),
        &telemetry::Telemetry::disabled(),
        &mut mapreduce::EngineArena::new(),
    )
    .expect("capsule resumes");
    assert!(resumed.finished);
    assert_eq!(resumed.state.at().as_millis(), live.sim_now_ms);
    assert_eq!(resumed.state.state_hash(), live.state_hash);
    std::fs::remove_dir_all(&dir).ok();
}
