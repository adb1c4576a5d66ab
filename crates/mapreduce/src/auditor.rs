//! End-of-run invariant auditor.
//!
//! A simulator that silently drifts out of self-consistency produces
//! figures that *look* fine. The auditor closes that hole: after a run it
//! replays the [`crate::events::EventLog`] against the
//! [`crate::counters::CounterLedger`]s and the report's scalar fields and
//! checks every conservation law the engine is supposed to obey — every
//! launched attempt reaches a terminal event, shuffle bytes fetched match
//! map-output bytes served (modulo fault re-execution), slot occupancy
//! never exceeds what the trackers offered, and counters are pure
//! functions of the seed. Any [`Violation`] is a simulator bug, never a
//! property of the workload; the harness turns a non-empty violation list
//! into [`simgrid::SimError::AuditFailed`] so a broken figure cannot be
//! committed quietly.
//!
//! Counter-only invariants run on every report; event-replay invariants
//! additionally need [`crate::EngineConfig::record_events`] and are skipped
//! (not failed) on reports without an event log.

use crate::counters::{Counter, CounterLedger};
use crate::engine::EngineConfig;
use crate::events::Event;
use crate::report::RunReport;
use std::fmt;

/// Tolerance for MB-denominated conservation checks: generous against
/// float accumulation over hundreds of thousands of integration steps,
/// negligible against any real accounting bug (whole blocks are ≥ 1 MB).
fn eps(scale: f64) -> f64 {
    1e-6 * scale.abs().max(1.0)
}

/// Counters that count discrete things and must therefore hold exact
/// non-negative integers.
const INTEGER_COUNTERS: [Counter; 10] = [
    Counter::TotalLaunchedMaps,
    Counter::DataLocalMaps,
    Counter::RemoteMaps,
    Counter::TotalLaunchedReduces,
    Counter::KilledAttempts,
    Counter::KilledReduces,
    Counter::FailedMaps,
    Counter::DiscardedMaps,
    Counter::SpeculativeMaps,
    Counter::ReexecutedMaps,
];

/// The run-independent facts the auditor cannot recover from the report
/// itself: the initial per-tracker slot targets the event replay starts
/// from, and the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSetup {
    pub init_map_slots: usize,
    pub init_reduce_slots: usize,
    pub workers: usize,
}

impl AuditSetup {
    pub fn from_config(cfg: &EngineConfig) -> AuditSetup {
        AuditSetup {
            init_map_slots: cfg.init_map_slots,
            init_reduce_slots: cfg.init_reduce_slots,
            workers: cfg.cluster.workers,
        }
    }
}

/// One broken invariant: which law, and the numbers that break it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub invariant: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Order-sensitive FNV-1a over every counter value's exact bit pattern,
/// per job and cluster-wide. Two runs of the same seed must produce the
/// same fingerprint — the "counters byte-identical across reruns"
/// determinism invariant, cheap enough to assert anywhere.
pub fn fingerprint(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (_, v) in report.counters.iter() {
        eat(v.to_bits());
    }
    for j in &report.jobs {
        for (_, v) in j.counters.iter() {
            eat(v.to_bits());
        }
    }
    h
}

/// Check every invariant; empty result means the report is self-consistent.
pub fn audit(report: &RunReport, setup: &AuditSetup) -> Vec<Violation> {
    let mut v = Vec::new();
    audit_counters(report, &mut v);
    if !report.events.is_empty() {
        audit_events(report, setup, &mut v);
    }
    audit_utilization(report, setup, &mut v);
    v
}

fn push(v: &mut Vec<Violation>, invariant: &'static str, detail: String) {
    v.push(Violation { invariant, detail });
}

fn audit_counters(report: &RunReport, v: &mut Vec<Violation>) {
    let mut merged = CounterLedger::new();
    for (ji, j) in report.jobs.iter().enumerate() {
        let c = &j.counters;
        merged.merge(c);
        for ic in INTEGER_COUNTERS {
            let x = c.get(ic);
            if x < 0.0 || x.fract() != 0.0 {
                push(
                    v,
                    "integer-counter",
                    format!(
                        "job {ji}: {} = {x} is not a non-negative integer",
                        ic.name()
                    ),
                );
            }
        }
        // every map attempt launched somewhere, every block at least once
        let total = c.get(Counter::TotalLaunchedMaps);
        let local = c.get(Counter::DataLocalMaps);
        let remote = c.get(Counter::RemoteMaps);
        if local + remote != total {
            push(
                v,
                "launch-partition",
                format!(
                    "job {ji}: DATA_LOCAL_MAPS {local} + REMOTE_MAPS {remote} \
                     != TOTAL_LAUNCHED_MAPS {total}"
                ),
            );
        }
        if total < j.num_maps as f64 {
            push(
                v,
                "launch-coverage",
                format!(
                    "job {ji}: {total} map launches cannot cover {} map tasks",
                    j.num_maps
                ),
            );
        }
        if c.get(Counter::TotalLaunchedReduces) < j.num_reduces as f64 {
            push(
                v,
                "launch-coverage",
                format!(
                    "job {ji}: {} reduce launches cannot cover {} reduce tasks",
                    c.get(Counter::TotalLaunchedReduces),
                    j.num_reduces
                ),
            );
        }
        // local_map_fraction is a pure function of the counters
        let expect = if total <= 0.0 { 1.0 } else { local / total };
        if (j.local_map_fraction - expect).abs() > 1e-12 {
            push(
                v,
                "locality-fraction",
                format!(
                    "job {ji}: local_map_fraction {} != DATA_LOCAL_MAPS/TOTAL {expect}",
                    j.local_map_fraction
                ),
            );
        }
        // a finished job consumed every input block at least once
        if c.get(Counter::HdfsBytesRead) < j.input_mb - eps(j.input_mb) {
            push(
                v,
                "input-coverage",
                format!(
                    "job {ji}: HDFS_BYTES_READ {} < input {} MB",
                    c.get(Counter::HdfsBytesRead),
                    j.input_mb
                ),
            );
        }
        // map output served == output surviving + output destroyed by crashes
        let produced = c.get(Counter::MapOutputMb);
        let lost = c.get(Counter::LostMapOutputMb);
        if (produced - lost - j.shuffle_mb).abs() > eps(produced) {
            push(
                v,
                "output-conservation",
                format!(
                    "job {ji}: MAP_OUTPUT_MB {produced} - LOST_MAP_OUTPUT_MB {lost} \
                     != shuffle_mb {}",
                    j.shuffle_mb
                ),
            );
        }
        // shuffle conservation: fetched == served, except that a crash
        // can destroy output reducers already fetched (counted lost, maybe
        // re-executed and fetched again) and killed reduces re-fetch their
        // partition — both bounded, and both require a fault to have
        // happened, so a fault-free over-count always fails
        let fetched = c.get(Counter::ShuffleFetchedMb);
        let delta = fetched - j.shuffle_mb;
        let killed_reduces = c.get(Counter::KilledReduces);
        let refetch_bound = lost
            + if j.num_reduces > 0 {
                produced / j.num_reduces as f64 * killed_reduces
            } else {
                0.0
            };
        if delta < -eps(fetched) {
            push(
                v,
                "shuffle-conservation",
                format!(
                    "job {ji}: SHUFFLE_FETCHED_MB {fetched} < shuffle_mb {} — \
                     a reduce finished without its partition",
                    j.shuffle_mb
                ),
            );
        } else if delta > refetch_bound + eps(fetched) {
            push(
                v,
                "shuffle-conservation",
                format!(
                    "job {ji}: SHUFFLE_FETCHED_MB {fetched} exceeds shuffle_mb {} \
                     by {delta} — more than faults can explain ({refetch_bound})",
                    j.shuffle_mb
                ),
            );
        }
        if c.get(Counter::ShuffleRemoteMb) > fetched + eps(fetched) {
            push(
                v,
                "shuffle-conservation",
                format!(
                    "job {ji}: SHUFFLE_REMOTE_MB {} > SHUFFLE_FETCHED_MB {fetched}",
                    c.get(Counter::ShuffleRemoteMb)
                ),
            );
        }
        // spill convention: map-side + reduce-side, fed at independent
        // sites so a missed feed breaks the identity
        let spilled = c.get(Counter::SpilledRecords);
        if (spilled - produced - fetched).abs() > eps(spilled) {
            push(
                v,
                "spill-identity",
                format!(
                    "job {ji}: SPILLED_RECORDS {spilled} != MAP_OUTPUT_MB {produced} \
                     + SHUFFLE_FETCHED_MB {fetched}"
                ),
            );
        }
    }

    // the cluster ledger is exactly the merge of the job ledgers
    for (c, total) in report.counters.iter() {
        if total.to_bits() != merged.get(c).to_bits() {
            push(
                v,
                "cluster-merge",
                format!(
                    "cluster {} = {total} is not the merge of job ledgers ({})",
                    c.name(),
                    merged.get(c)
                ),
            );
        }
    }

    // counters vs the report's independently-maintained scalar fields
    let scalar_checks: [(&'static str, f64, f64); 3] = [
        (
            "FAILED_MAPS vs map_failures",
            merged.get(Counter::FailedMaps),
            report.map_failures as f64,
        ),
        (
            "SPECULATIVE_MAPS vs speculative_attempts",
            merged.get(Counter::SpeculativeMaps),
            report.speculative_attempts as f64,
        ),
        (
            "REEXECUTED_MAPS vs lost_map_outputs",
            merged.get(Counter::ReexecutedMaps),
            report.lost_map_outputs as f64,
        ),
    ];
    for (what, a, b) in scalar_checks {
        if a != b {
            push(v, "scalar-crosscheck", format!("{what}: {a} != {b}"));
        }
    }
    let killed = merged.get(Counter::KilledAttempts);
    let crash = report.crash_task_kills as f64;
    let spec = report.speculative_attempts as f64;
    if killed < crash || killed > crash + spec {
        push(
            v,
            "scalar-crosscheck",
            format!(
                "KILLED_ATTEMPTS {killed} outside [crash_task_kills {crash}, \
                 crash + speculative {}]",
                crash + spec
            ),
        );
    }
    let hdfs = merged.get(Counter::HdfsBytesRead);
    if (hdfs - report.map_input_processed_mb).abs() > eps(hdfs) {
        push(
            v,
            "scalar-crosscheck",
            format!(
                "Σ HDFS_BYTES_READ {hdfs} != map_input_processed_mb {}",
                report.map_input_processed_mb
            ),
        );
    }
    // remote reads + remote shuffle ride the fabric; re-replication
    // traffic also counts toward network_mb, hence ≤ not ==
    let fabric = merged.get(Counter::RemoteBytesRead) + merged.get(Counter::ShuffleRemoteMb);
    if fabric > report.network_mb + eps(fabric) {
        push(
            v,
            "scalar-crosscheck",
            format!(
                "REMOTE_BYTES_READ + SHUFFLE_REMOTE_MB = {fabric} > network_mb {}",
                report.network_mb
            ),
        );
    }
    if !(0.0..=1.0 + 1e-9).contains(&report.cpu_utilisation) {
        push(
            v,
            "scalar-crosscheck",
            format!("cpu_utilisation {} outside [0, 1]", report.cpu_utilisation),
        );
    }
}

/// Replay the event log: per-task attempt balance, per-node slot
/// occupancy against the launch gate, and event counts against counters.
fn audit_events(report: &RunReport, setup: &AuditSetup, v: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    let events = report.events.events();

    // --- per-task attempt balance -----------------------------------
    // (launches, terminals, completions) per map task / reduce task
    let mut maps: BTreeMap<(usize, usize), (u64, u64, u64)> = BTreeMap::new();
    let mut reduces: BTreeMap<(usize, usize), (u64, u64, u64)> = BTreeMap::new();

    // --- per-node slot replay ---------------------------------------
    let n = setup.workers;
    let mut map_occ = vec![0i64; n];
    let mut red_occ = vec![0i64; n];
    let mut map_tgt = vec![setup.init_map_slots as i64; n];
    let mut red_tgt = vec![setup.init_reduce_slots as i64; n];
    let mut map_high = map_tgt.clone();
    let mut red_high = red_tgt.clone();
    // slot-seconds occupied / offered (at the high-water target)
    let mut occ_secs = 0.0;
    let mut avail_secs = 0.0;
    let mut last_t = None::<simgrid::time::SimTime>;

    // event-count vs counter cross-checks
    let (mut launches, mut map_kills, mut red_kills, mut fails, mut discards, mut relost) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);

    for e in events {
        let t = e.at();
        if let Some(prev) = last_t {
            let dt = t.since(prev).as_secs_f64();
            for i in 0..n {
                occ_secs += (map_occ[i] + red_occ[i]) as f64 * dt;
                avail_secs += (map_high[i] + red_high[i]) as f64 * dt;
            }
        }
        last_t = Some(t);
        match *e {
            Event::MapLaunched { id, node, .. } => {
                launches += 1;
                maps.entry((id.job.0, id.index)).or_default().0 += 1;
                if map_occ[node.0] >= map_tgt[node.0] {
                    push(
                        v,
                        "slot-launch-gate",
                        format!(
                            "map launch at {t} on node {} with {}/{} slots occupied",
                            node.0, map_occ[node.0], map_tgt[node.0]
                        ),
                    );
                }
                map_occ[node.0] += 1;
            }
            Event::MapCompleted { id, node, .. } => {
                let s = maps.entry((id.job.0, id.index)).or_default();
                s.1 += 1;
                s.2 += 1;
                map_occ[node.0] -= 1;
            }
            Event::MapKilled { id, node, .. } => {
                map_kills += 1;
                maps.entry((id.job.0, id.index)).or_default().1 += 1;
                map_occ[node.0] -= 1;
            }
            Event::MapFailed { id, node, .. } => {
                fails += 1;
                maps.entry((id.job.0, id.index)).or_default().1 += 1;
                map_occ[node.0] -= 1;
            }
            Event::MapDiscarded { id, node, .. } => {
                discards += 1;
                maps.entry((id.job.0, id.index)).or_default().1 += 1;
                map_occ[node.0] -= 1;
            }
            Event::ReduceLaunched { id, node, .. } => {
                reduces.entry((id.job.0, id.partition)).or_default().0 += 1;
                if red_occ[node.0] >= red_tgt[node.0] {
                    push(
                        v,
                        "slot-launch-gate",
                        format!(
                            "reduce launch at {t} on node {} with {}/{} slots occupied",
                            node.0, red_occ[node.0], red_tgt[node.0]
                        ),
                    );
                }
                red_occ[node.0] += 1;
            }
            Event::ReduceCompleted { id, node, .. } => {
                let s = reduces.entry((id.job.0, id.partition)).or_default();
                s.1 += 1;
                s.2 += 1;
                red_occ[node.0] -= 1;
            }
            Event::ReduceKilled { id, node, .. } => {
                red_kills += 1;
                reduces.entry((id.job.0, id.partition)).or_default().1 += 1;
                red_occ[node.0] -= 1;
            }
            Event::SlotTargetsChanged {
                node,
                map_slots,
                reduce_slots,
                ..
            } => {
                map_tgt[node.0] = map_slots as i64;
                red_tgt[node.0] = reduce_slots as i64;
                map_high[node.0] = map_high[node.0].max(map_slots as i64);
                red_high[node.0] = red_high[node.0].max(reduce_slots as i64);
            }
            Event::NodeRejoined { node, .. } => {
                // re-registration: fresh empty slot sets at initial targets
                if map_occ[node.0] != 0 || red_occ[node.0] != 0 {
                    push(
                        v,
                        "slot-balance",
                        format!(
                            "node {} rejoined at {t} with {} map / {} reduce \
                             attempts unaccounted",
                            node.0, map_occ[node.0], red_occ[node.0]
                        ),
                    );
                }
                map_tgt[node.0] = setup.init_map_slots as i64;
                red_tgt[node.0] = setup.init_reduce_slots as i64;
                map_high[node.0] = map_high[node.0].max(map_tgt[node.0]);
                red_high[node.0] = red_high[node.0].max(red_tgt[node.0]);
            }
            Event::MapOutputLost { .. } => relost += 1,
            Event::ShuffleCompleted { .. }
            | Event::BarrierCrossed { .. }
            | Event::JobFinished { .. }
            | Event::NodeCrashed { .. }
            | Event::TrackerBlacklisted { .. } => {}
        }
        for i in 0..n {
            if map_occ[i] < 0 || red_occ[i] < 0 {
                push(
                    v,
                    "slot-balance",
                    format!(
                        "node {i} occupancy went negative at {t} \
                         (terminal event without a matching launch)"
                    ),
                );
                map_occ[i] = map_occ[i].max(0);
                red_occ[i] = red_occ[i].max(0);
            }
            if map_occ[i] > map_high[i] || red_occ[i] > red_high[i] {
                push(
                    v,
                    "slot-balance",
                    format!(
                        "node {i} occupancy {}m/{}r above its high-water target \
                         {}m/{}r at {t}",
                        map_occ[i], red_occ[i], map_high[i], red_high[i]
                    ),
                );
            }
        }
    }

    // every launched attempt reached a terminal event; every task ran
    for ((job, index), (l, term, comp)) in &maps {
        if l != term {
            push(
                v,
                "attempt-coverage",
                format!("map task {job}/{index}: {l} launches but {term} terminal events"),
            );
        }
        if *comp == 0 {
            push(
                v,
                "attempt-coverage",
                format!("map task {job}/{index} never completed"),
            );
        }
    }
    for ((job, part), (l, term, comp)) in &reduces {
        if l != term {
            push(
                v,
                "attempt-coverage",
                format!("reduce {job}/{part}: {l} launches but {term} terminal events"),
            );
        }
        if *comp != 1 {
            push(
                v,
                "attempt-coverage",
                format!("reduce {job}/{part} completed {comp} times (expected exactly 1)"),
            );
        }
    }
    // a run's slots can't do more slot-seconds of work than were offered
    if occ_secs > avail_secs + 1e-6 {
        push(
            v,
            "slot-seconds",
            format!("{occ_secs} slot-seconds occupied > {avail_secs} offered"),
        );
    }

    // event counts vs counters: the log and the ledgers are maintained by
    // different code paths and must agree exactly
    let c = &report.counters;
    let count_checks: [(&'static str, u64, f64); 6] = [
        (
            "MapLaunched vs TOTAL_LAUNCHED_MAPS",
            launches,
            c.get(Counter::TotalLaunchedMaps),
        ),
        (
            "MapFailed vs FAILED_MAPS",
            fails,
            c.get(Counter::FailedMaps),
        ),
        (
            "MapDiscarded vs DISCARDED_MAPS",
            discards,
            c.get(Counter::DiscardedMaps),
        ),
        (
            "ReduceKilled vs KILLED_REDUCES",
            red_kills,
            c.get(Counter::KilledReduces),
        ),
        (
            "Map+ReduceKilled vs KILLED_ATTEMPTS",
            map_kills + red_kills,
            c.get(Counter::KilledAttempts),
        ),
        (
            "MapOutputLost vs REEXECUTED_MAPS",
            relost,
            c.get(Counter::ReexecutedMaps),
        ),
    ];
    for (what, got, counter) in count_checks {
        if got as f64 != counter {
            push(
                v,
                "event-count",
                format!("{what}: event log says {got}, ledger says {counter}"),
            );
        }
    }
}

/// Utilization series sanity: one series per worker, fractions within
/// [0, 1], occupancies non-negative.
fn audit_utilization(report: &RunReport, setup: &AuditSetup, v: &mut Vec<Violation>) {
    if report.node_utilization.is_empty() {
        return; // older report: nothing to check
    }
    if report.node_utilization.len() != setup.workers {
        push(
            v,
            "utilization-shape",
            format!(
                "{} utilization series for {} workers",
                report.node_utilization.len(),
                setup.workers
            ),
        );
        return;
    }
    for u in &report.node_utilization {
        for (name, series, max) in [
            ("cpu", &u.cpu, 1.0 + 1e-9),
            ("disk", &u.disk, 1.0 + 1e-9),
            ("nic", &u.nic, 1.0 + 1e-9),
            ("map_occupied", &u.map_occupied, f64::INFINITY),
            ("reduce_occupied", &u.reduce_occupied, f64::INFINITY),
        ] {
            for &(t, val) in series.points() {
                if !(0.0..=max).contains(&val) || !val.is_finite() {
                    push(
                        v,
                        "utilization-bounds",
                        format!("node {} {name} = {val} at {t} outside [0, {max}]", u.node),
                    );
                    break; // one violation per series is enough
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::job::{JobProfile, JobSpec};
    use crate::policy::StaticSlotPolicy;
    use simgrid::time::SimTime;

    fn run(record_events: bool, seed: u64) -> (RunReport, AuditSetup) {
        let mut cfg = EngineConfig::small_test(4, seed);
        cfg.record_events = record_events;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let report = Engine::new(cfg.clone())
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("run succeeds");
        (report, AuditSetup::from_config(&cfg))
    }

    #[test]
    fn clean_run_has_no_violations() {
        let (report, setup) = run(true, 7);
        let violations = audit(&report, &setup);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn clean_run_without_events_still_audits_counters() {
        let (report, setup) = run(false, 7);
        assert!(report.events.is_empty());
        assert!(audit(&report, &setup).is_empty());
    }

    #[test]
    fn corrupted_counter_is_caught() {
        let (mut report, setup) = run(true, 7);
        // simulate a missed feed: drop 1 MB from the reduce-side ledger
        report.jobs[0].counters.add(Counter::ShuffleFetchedMb, -1.0);
        let violations = audit(&report, &setup);
        assert!(
            violations
                .iter()
                .any(|x| x.invariant == "shuffle-conservation"),
            "expected shuffle-conservation among {violations:?}"
        );
        // the cluster ledger no longer matches the merge either
        assert!(violations.iter().any(|x| x.invariant == "cluster-merge"));
    }

    #[test]
    fn fault_free_fetch_over_count_is_caught() {
        let (mut report, setup) = run(false, 7);
        report.jobs[0].counters.add(Counter::ShuffleFetchedMb, 1.0);
        report.counters.add(Counter::ShuffleFetchedMb, 1.0);
        let violations = audit(&report, &setup);
        assert!(
            violations
                .iter()
                .any(|x| x.invariant == "shuffle-conservation"),
            "expected shuffle-conservation among {violations:?}"
        );
    }

    #[test]
    fn crash_after_the_shuffle_audits_clean() {
        use crate::events::Event;
        use simgrid::cluster::NodeId;
        use simgrid::{FaultPlan, NodeFault, SimDuration};
        let mut cfg = EngineConfig::small_test(8, 3);
        cfg.record_events = true;
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            2048.0,
            2,
            SimTime::ZERO,
        );
        let straight = Engine::new(cfg.clone())
            .run(vec![job.clone()], &mut StaticSlotPolicy)
            .expect("fault-free run");
        // crash a node that holds map output but runs no reduce, once
        // every reduce has fetched its whole partition
        let events = straight.events.events();
        let shuffled = events
            .iter()
            .filter_map(|e| match e {
                Event::ShuffleCompleted { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .expect("shuffle completed");
        let reduce_nodes: Vec<NodeId> = events
            .iter()
            .filter_map(|e| match e {
                Event::ReduceLaunched { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        let victim = events
            .iter()
            .find_map(|e| match e {
                Event::MapCompleted { node, .. } if !reduce_nodes.contains(node) => Some(*node),
                _ => None,
            })
            .expect("a map-only node");
        let crash_at = shuffled + SimDuration::from_secs(1);
        // the loss must be detected (heartbeat expiry) before the job ends
        assert!(
            straight.single().finished_at
                > crash_at + cfg.heartbeat_timeout + cfg.heartbeat_timeout,
            "reduce tail too short for the crash to be detected"
        );
        cfg.fault_plan = FaultPlan::new(vec![NodeFault::permanent(victim, crash_at)]);
        let report = Engine::new(cfg.clone())
            .run(vec![job], &mut StaticSlotPolicy)
            .expect("faulted run");
        let c = &report.single().counters;
        assert_eq!(report.node_crashes, 1);
        assert!(c.get(Counter::LostMapOutputMb) > 0.0, "fetched output died");
        assert_eq!(c.get(Counter::ReexecutedMaps), 0.0);
        assert_eq!(c.get(Counter::KilledReduces), 0.0);
        let violations = audit(&report, &AuditSetup::from_config(&cfg));
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn phantom_kill_is_caught_by_event_crosscheck() {
        let (mut report, setup) = run(true, 7);
        report.jobs[0].counters.inc(Counter::KilledAttempts);
        report.counters.inc(Counter::KilledAttempts);
        let violations = audit(&report, &setup);
        assert!(
            violations.iter().any(|x| x.invariant == "event-count"),
            "expected event-count among {violations:?}"
        );
    }

    #[test]
    fn corrupted_locality_fraction_is_caught() {
        let (mut report, setup) = run(false, 7);
        report.jobs[0].local_map_fraction += 0.25;
        let violations = audit(&report, &setup);
        assert!(violations
            .iter()
            .any(|x| x.invariant == "locality-fraction"));
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let (a, _) = run(false, 7);
        let (b, _) = run(false, 7);
        assert_eq!(fingerprint(&a), fingerprint(&b), "same seed, same counters");
        let (c, _) = run(false, 8);
        assert_ne!(fingerprint(&a), fingerprint(&c), "different seed");
        let mut d = a.clone();
        d.counters.inc(Counter::SpilledRecords);
        assert_ne!(fingerprint(&a), fingerprint(&d), "sensitive to one bit");
    }

    #[test]
    fn violation_displays_with_invariant_name() {
        let x = Violation {
            invariant: "spill-identity",
            detail: "oops".into(),
        };
        assert_eq!(x.to_string(), "spill-identity: oops");
    }
}
