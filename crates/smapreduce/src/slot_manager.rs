//! The slot manager (§III-B, §IV-A): SMapReduce's decision thread, as a
//! [`SlotPolicy`] plugged into the `mapreduce` engine.
//!
//! Once per period it:
//!
//! 1. waits out the **slow start** (≥ 10 % of maps completed);
//! 2. smooths the heartbeat rates and feeds the **thrashing detector**
//!    the current map processing rate;
//! 3. in the **front stretch**, classifies the balance factor
//!    `f = R_s / R_m` and increments (map-heavy, and only while below the
//!    thrashing ceiling) or decrements (reduce-heavy) the per-tracker map
//!    slot target;
//! 4. in the **tail stretch**, shrinks map slots to what the draining maps
//!    need and grows reduce slots if the per-reduce shuffle volume is small.
//!
//! Targets are uniform across trackers (homogeneous cluster, the paper's
//! stated scope) and delivered to trackers via heartbeat responses; the
//! trackers apply them with the lazy changer.

use crate::audit::{AuditLog, DecisionInputs, DecisionRecord};
use crate::balance::{classify, BalanceVerdict};
use crate::config::SmrConfig;
use crate::slow_start::SlowStartGate;
use crate::tail;
use crate::thrashing::{ThrashVerdict, ThrashingDetector};
use mapreduce::policy::{PolicyContext, PolicyDecisionRecord, SlotDirective, SlotPolicy};
use serde::{Deserialize, Serialize};
use simgrid::time::SimTime;
use std::collections::VecDeque;

/// A record of one decision, kept for diagnostics and the ablation
/// experiments' analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    SlowStartHold,
    IncrementMaps { to: usize },
    DecrementMaps { to: usize },
    ThrashingRetreat { to: usize },
    TailSwitch { maps: usize, reduces: usize },
    Hold,
}

impl Decision {
    /// Stable snake_case name (telemetry arg values, log lines).
    pub fn label(&self) -> &'static str {
        match self {
            Decision::SlowStartHold => "slow_start_hold",
            Decision::IncrementMaps { .. } => "increment_maps",
            Decision::DecrementMaps { .. } => "decrement_maps",
            Decision::ThrashingRetreat { .. } => "thrashing_retreat",
            Decision::TailSwitch { .. } => "tail_switch",
            Decision::Hold => "hold",
        }
    }
}

/// SMapReduce's slot manager policy.
pub struct SlotManagerPolicy {
    cfg: SmrConfig,
    gate: SlowStartGate,
    detector: ThrashingDetector,
    /// Uniform per-tracker targets the manager currently wants.
    map_target: Option<usize>,
    reduce_target: Option<usize>,
    last_decision_at: Option<SimTime>,
    /// Per-heartbeat `(time, R_t, R_s)` samples within the balance window.
    rate_window: VecDeque<(SimTime, f64, f64)>,
    /// Signature of the active job mix (total map count is a cheap proxy);
    /// when it changes the detector history is stale.
    workload_sig: Option<(usize, usize)>,
    /// The decision log: every decision with the inputs behind it. Mirrors
    /// into telemetry when the engine attaches a sink.
    pub audit: AuditLog,
}

impl SlotManagerPolicy {
    pub fn new(cfg: SmrConfig) -> SlotManagerPolicy {
        cfg.validate();
        SlotManagerPolicy {
            gate: SlowStartGate::new(cfg.slow_start_fraction, cfg.slow_start_enabled),
            detector: ThrashingDetector::new(
                cfg.stabilise,
                cfg.suspect_threshold,
                cfg.healthy_threshold,
                cfg.detector_alpha,
                cfg.suspect_margin,
            ),
            rate_window: VecDeque::new(),
            cfg,
            map_target: None,
            reduce_target: None,
            last_decision_at: None,
            workload_sig: None,
            audit: AuditLog::new(),
        }
    }

    /// Paper-default configuration.
    pub fn paper_default() -> SlotManagerPolicy {
        SlotManagerPolicy::new(SmrConfig::default())
    }

    fn due(&self, now: SimTime) -> bool {
        match self.last_decision_at {
            None => true,
            Some(last) => now.since(last) >= self.cfg.period,
        }
    }

    /// Emit uniform directives for every tracker whose targets differ.
    fn directives(&self, ctx: &PolicyContext<'_>) -> Vec<SlotDirective> {
        let (m, r) = (
            self.map_target.expect("targets initialised"),
            self.reduce_target.expect("targets initialised"),
        );
        ctx.trackers
            .iter()
            .filter(|t| t.map_target != m || t.reduce_target != r)
            .map(|t| SlotDirective {
                node: t.node,
                map_slots: m,
                reduce_slots: r,
            })
            .collect()
    }

    fn record(&mut self, now: SimTime, d: Decision, inputs: DecisionInputs) {
        self.audit.push(DecisionRecord {
            at: now,
            decision: d,
            inputs,
            map_target: self.map_target.unwrap_or(0),
            reduce_target: self.reduce_target.unwrap_or(0),
            check_pending: self.detector.check_pending(),
            ceiling: self.detector.ceiling(),
            level_rates: self.detector.levels(),
        });
    }

    /// The uniform per-tracker `(map, reduce)` targets the manager
    /// currently wants; `None` before the first decision context.
    pub fn current_targets(&self) -> Option<(usize, usize)> {
        Some((self.map_target?, self.reduce_target?))
    }

    /// Push one heartbeat's rates and return the window means `(rt, rs)`.
    ///
    /// The mean is **time-weighted**: a sample reported at `t_i` is the
    /// aggregate over the stretch since the previous sample, so it is
    /// weighted by that gap (the oldest sample borrows the first gap).
    /// Under uniform spacing this is exactly the arithmetic mean; under
    /// irregular spacing — decision periods straddling workload resets,
    /// or any future variable-cadence caller — a sample's influence stays
    /// proportional to the span of time it actually describes.
    fn window_rates(&mut self, now: SimTime, rt: f64, rs: f64) -> (f64, f64) {
        self.rate_window.push_back((now, rt, rs));
        while let Some(&(t0, _, _)) = self.rate_window.front() {
            if now.since(t0) > self.cfg.balance_window {
                self.rate_window.pop_front();
            } else {
                break;
            }
        }
        if self.rate_window.len() == 1 {
            return (rt, rs);
        }
        let first_gap = self.rate_window[1]
            .0
            .since(self.rate_window[0].0)
            .as_secs_f64();
        let (mut sum_w, mut sum_t, mut sum_s) = (0.0, 0.0, 0.0);
        let mut prev: Option<SimTime> = None;
        for &(t, a, b) in &self.rate_window {
            let w = match prev {
                Some(p) => t.since(p).as_secs_f64(),
                None => first_gap,
            };
            sum_w += w;
            sum_t += a * w;
            sum_s += b * w;
            prev = Some(t);
        }
        if sum_w <= 0.0 {
            // all samples share one timestamp: fall back to the plain mean
            let n = self.rate_window.len() as f64;
            let (t, s) = self
                .rate_window
                .iter()
                .fold((0.0, 0.0), |(a, b), &(_, x, y)| (a + x, b + y));
            return (t / n, s / n);
        }
        (sum_t / sum_w, sum_s / sum_w)
    }

    /// Has the cluster's actual map occupancy settled at the current
    /// target? (Lazy shrinking keeps tasks running past a decrease; rates
    /// measured mid-transition belong to no slot level.)
    fn occupancy_settled(ctx: &PolicyContext<'_>) -> bool {
        let occupied: usize = ctx.trackers.iter().map(|t| t.map_occupied).sum();
        let target: usize = ctx.trackers.iter().map(|t| t.map_target).sum();
        if occupied > target {
            return false; // shrink still draining
        }
        // after a grow, wait until the new slots actually filled (or there
        // is no work left to fill them with)
        let unfillable = ctx.stats.pending_maps == 0;
        unfillable || occupied * 10 >= target * 9
    }
}

/// The manager's mutable run state, as stored in a checkpoint capsule.
/// Configuration (`cfg`, and the `gate` derived from it) is reconstructed
/// when the policy is built, not captured.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManagerState {
    detector: ThrashingDetector,
    map_target: Option<usize>,
    reduce_target: Option<usize>,
    last_decision_at: Option<SimTime>,
    rate_window: VecDeque<(SimTime, f64, f64)>,
    workload_sig: Option<(usize, usize)>,
    audit: AuditLog,
}

impl SlotPolicy for SlotManagerPolicy {
    fn name(&self) -> &'static str {
        "SMapReduce"
    }

    fn directive_overhead_ms(&self) -> u64 {
        self.cfg.directive_overhead_ms
    }

    fn attach_telemetry(&mut self, telem: &telemetry::Telemetry) {
        self.audit.set_sink(telem.clone());
    }

    fn decision_records(&self) -> Vec<PolicyDecisionRecord> {
        self.audit
            .records()
            .iter()
            .map(|r| PolicyDecisionRecord {
                at: r.at,
                decision: r.decision.label().to_string(),
                map_target: r.map_target,
                reduce_target: r.reduce_target,
                f: r.inputs.f,
                rs: r.inputs.rs,
                rm: r.inputs.rm,
            })
            .collect()
    }

    fn snapshot_state(&self) -> serde::Value {
        ManagerState {
            detector: self.detector.clone(),
            map_target: self.map_target,
            reduce_target: self.reduce_target,
            last_decision_at: self.last_decision_at,
            rate_window: self.rate_window.clone(),
            workload_sig: self.workload_sig,
            audit: self.audit.clone(),
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        if state.is_null() {
            return Ok(()); // capsule taken before the first decision
        }
        let s = ManagerState::deserialize(state)?;
        self.detector = s.detector;
        self.map_target = s.map_target;
        self.reduce_target = s.reduce_target;
        self.last_decision_at = s.last_decision_at;
        self.rate_window = s.rate_window;
        self.workload_sig = s.workload_sig;
        // the restored log carries records only; the telemetry mirror is
        // reattached by the engine via attach_telemetry
        self.audit = s.audit;
        Ok(())
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Vec<SlotDirective> {
        let stats = ctx.stats;
        let now = ctx.now;

        // initialise targets from the user configuration, like HadoopV1
        let map_target = *self.map_target.get_or_insert(ctx.init_map_slots);
        let reduce_target = *self.reduce_target.get_or_insert(ctx.init_reduce_slots);

        // idle cluster: drift back to the initial configuration so the next
        // job starts from the user's baseline
        if stats.total_maps == 0 {
            self.map_target = Some(ctx.init_map_slots);
            self.reduce_target = Some(ctx.init_reduce_slots);
            self.detector.reset();
            self.rate_window.clear();
            self.workload_sig = None;
            return self.directives(ctx);
        }

        // workload mix changed (job arrived/finished): rate history and
        // per-level baselines mixed two different workloads — drop both
        // and re-learn, holding decisions until the window refills
        let sig = (stats.total_maps, stats.total_reduces);
        if self.workload_sig != Some(sig) {
            if self.workload_sig.is_some() {
                self.detector.reset();
                self.rate_window.clear();
            }
            self.workload_sig = Some(sig);
        }

        // average rates over the balance window every heartbeat, decide
        // only on period boundaries
        let (rt, rs) = self.window_rates(now, stats.map_output_rate, stats.shuffle_rate);
        let window_span = self
            .rate_window
            .front()
            .map(|&(t0, _, _)| now.since(t0))
            .unwrap_or(simgrid::time::SimDuration::ZERO);
        let window_warm = window_span.as_millis() * 2 >= self.cfg.balance_window.as_millis();

        let gate_open = self.gate.open(stats.completed_maps, stats.total_maps);
        let settled = Self::occupancy_settled(ctx);

        // the balance inputs (§IV-A3) are computed up front so every
        // decision — including early exits — audits with the rates it saw
        let rm = if stats.total_reduces == 0 {
            0.0
        } else {
            (stats.shuffling_reduces as f64 / stats.total_reduces as f64) * rt
        };
        let f = (rm > 1e-9).then_some(rs / rm);
        let inputs = DecisionInputs {
            rt,
            rs,
            rm,
            f,
            gate_open,
            occupancy_settled: settled,
            window_warm,
        };

        // thrashing detection (§IV-A2): the detector sees the raw cluster
        // map processing rate every heartbeat (its per-level EWMAs do the
        // smoothing) and a confirmation retreats immediately — holding a
        // thrashing configuration for a full period only loses throughput.
        if self.cfg.detect_thrashing && gate_open {
            if let ThrashVerdict::Confirmed(good) =
                self.detector
                    .observe(map_target, stats.map_input_rate, now, settled)
            {
                let to = good.max(self.cfg.min_map_slots).min(self.cfg.max_map_slots);
                self.map_target = Some(to);
                self.record(now, Decision::ThrashingRetreat { to }, inputs);
                self.last_decision_at = Some(now);
                return self.directives(ctx);
            }
        }

        if !self.due(now) {
            return self.directives(ctx);
        }
        self.last_decision_at = Some(now);

        // slow start (§IV-A1)
        if !gate_open {
            self.record(now, Decision::SlowStartHold, inputs);
            return self.directives(ctx);
        }

        // tail stretch (§III-B3)
        if self.cfg.tail_switching && tail::in_tail_stretch(stats) {
            let workers = ctx.trackers.len();
            let maps = tail::tail_map_target(stats, workers, self.cfg.min_map_slots)
                .min(self.cfg.max_map_slots);
            let reduces = tail::tail_reduce_target(
                stats,
                workers,
                reduce_target,
                self.cfg.max_reduce_slots,
                self.cfg.tail_shuffle_per_reduce_max_mb,
            );
            if maps != map_target || reduces != reduce_target {
                if maps < map_target {
                    self.detector.on_slot_change(map_target, maps, now);
                }
                self.map_target = Some(maps);
                self.reduce_target = Some(reduces);
                self.record(now, Decision::TailSwitch { maps, reduces }, inputs);
            } else {
                self.record(now, Decision::Hold, inputs);
            }
            return self.directives(ctx);
        }

        // front stretch: balance map vs shuffle throughput (§IV-A3).
        // A freshly-cleared window (job arrival/finish) has too little
        // history for a meaningful factor — hold until it warms up.
        if !window_warm {
            self.record(now, Decision::Hold, inputs);
            return self.directives(ctx);
        }
        let verdict = classify(f, self.cfg.f_lower, self.cfg.f_upper);

        match verdict {
            BalanceVerdict::MapHeavy => {
                if self.cfg.detect_thrashing && self.detector.check_pending() {
                    // an earlier increase is still under evaluation
                    // (stabilising or suspected): hold until it resolves
                    self.record(now, Decision::Hold, inputs);
                    return self.directives(ctx);
                }
                let ceiling = if self.cfg.detect_thrashing {
                    self.detector.ceiling().unwrap_or(self.cfg.max_map_slots)
                } else {
                    self.cfg.max_map_slots
                };
                let to = (map_target + 1).min(ceiling).min(self.cfg.max_map_slots);
                if to > map_target {
                    self.detector.on_slot_change(map_target, to, now);
                    self.map_target = Some(to);
                    self.record(now, Decision::IncrementMaps { to }, inputs);
                } else {
                    self.record(now, Decision::Hold, inputs);
                }
            }
            BalanceVerdict::ReduceHeavy => {
                let to = map_target.saturating_sub(1).max(self.cfg.min_map_slots);
                if to < map_target {
                    self.detector.on_slot_change(map_target, to, now);
                    self.map_target = Some(to);
                    self.record(now, Decision::DecrementMaps { to }, inputs);
                } else {
                    self.record(now, Decision::Hold, inputs);
                }
            }
            BalanceVerdict::Balanced | BalanceVerdict::Inconclusive => {
                self.record(now, Decision::Hold, inputs);
            }
        }
        self.directives(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::policy::TrackerSnapshot;
    use mapreduce::stats::ClusterStats;
    use simgrid::cluster::NodeId;

    fn trackers(n: usize, m: usize, r: usize) -> Vec<TrackerSnapshot> {
        (0..n)
            .map(|i| TrackerSnapshot {
                node: NodeId(i),
                cores: 16.0,
                map_target: m,
                map_occupied: m,
                reduce_target: r,
                reduce_occupied: r,
            })
            .collect()
    }

    fn base_stats() -> ClusterStats {
        ClusterStats {
            total_maps: 200,
            completed_maps: 40, // past 10% slow start
            pending_maps: 100,
            running_maps: 60,
            total_reduces: 30,
            running_reduces: 30,
            shuffling_reduces: 30,
            pending_reduces: 0,
            map_input_rate: 500.0,
            map_output_rate: 100.0,
            shuffle_rate: 100.0, // f = 1.0 (> upper): map-heavy
            ..ClusterStats::default()
        }
    }

    /// A policy whose balance window degenerates to the current heartbeat,
    /// so single `decide` calls behave like steady state (the window-warm
    /// gate is exercised separately in `window_needs_history`).
    fn test_policy() -> SlotManagerPolicy {
        SlotManagerPolicy::new(SmrConfig {
            balance_window: simgrid::time::SimDuration::ZERO,
            ..SmrConfig::default()
        })
    }

    fn last_decision(p: &SlotManagerPolicy) -> Option<Decision> {
        p.audit.records().last().map(|r| r.decision)
    }

    fn ctx<'a>(
        now: SimTime,
        stats: &'a ClusterStats,
        tr: &'a [TrackerSnapshot],
    ) -> PolicyContext<'a> {
        PolicyContext {
            now,
            stats,
            trackers: tr,
            init_map_slots: 3,
            init_reduce_slots: 2,
        }
    }

    #[test]
    fn map_heavy_increments_map_slots() {
        let mut p = test_policy();
        let stats = base_stats();
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        assert_eq!(ds.len(), 4);
        assert!(ds.iter().all(|d| d.map_slots == 4 && d.reduce_slots == 2));
        assert!(matches!(
            last_decision(&p),
            Some(Decision::IncrementMaps { to: 4 })
        ));
    }

    #[test]
    fn audit_log_captures_decision_inputs() {
        let mut p = test_policy();
        let sink = telemetry::Telemetry::with_capacity(16, 16);
        p.attach_telemetry(&sink);
        let stats = base_stats();
        let tr = trackers(4, 3, 2);
        let _ = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        let recs = p.audit.records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert!(matches!(r.decision, Decision::IncrementMaps { to: 4 }));
        assert!(r.inputs.f.is_some(), "balance factor recorded");
        assert!(r.inputs.rs > 0.0 && r.inputs.rm > 0.0);
        assert!(r.inputs.gate_open && r.inputs.occupancy_settled);
        assert_eq!(r.map_target, 4, "target after the decision");
        let json = sink.chrome_trace().unwrap();
        assert!(json.contains("slot_decision"));
        assert!(json.contains("\"Rm\"") && json.contains("\"Rs\""));
    }

    #[test]
    fn reduce_heavy_decrements_map_slots() {
        let mut p = test_policy();
        let mut stats = base_stats();
        stats.shuffle_rate = 20.0; // f = 0.2 < lower
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        assert!(!ds.is_empty(), "decrement must emit directives");
        assert!(ds.iter().all(|d| d.map_slots == 2));
    }

    #[test]
    fn balanced_band_holds() {
        let mut p = test_policy();
        let mut stats = base_stats();
        stats.shuffle_rate = 70.0; // f = 0.7 in [0.55, 0.88]
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        assert!(ds.is_empty(), "balanced: no directives");
    }

    #[test]
    fn slow_start_holds_early() {
        let mut p = test_policy();
        let mut stats = base_stats();
        stats.completed_maps = 5; // 2.5% < 10%
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(6), &stats, &tr));
        assert!(ds.is_empty());
        assert!(matches!(last_decision(&p), Some(Decision::SlowStartHold)));
    }

    #[test]
    fn disabled_slow_start_acts_early() {
        let mut p = SlotManagerPolicy::new(SmrConfig {
            balance_window: simgrid::time::SimDuration::ZERO,
            ..SmrConfig::without_slow_start()
        });
        let mut stats = base_stats();
        stats.completed_maps = 5;
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(6), &stats, &tr));
        assert!(!ds.is_empty(), "no gate: acts on the early (noisy) rates");
    }

    #[test]
    fn period_gating_between_decisions() {
        let mut p = test_policy();
        let stats = base_stats();
        let tr = trackers(2, 3, 2);
        let d1 = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        assert!(!d1.is_empty());
        // 3s later: not due; directives still pushed for stragglers whose
        // snapshot differs, but target unchanged (4)
        let tr_now = trackers(2, 4, 2);
        let d2 = p.decide(&ctx(SimTime::from_secs(33), &stats, &tr_now));
        assert!(d2.is_empty(), "no new decision inside the period");
        // after a full period: next increment
        let d3 = p.decide(&ctx(SimTime::from_secs(36), &stats, &tr_now));
        assert!(d3.iter().all(|d| d.map_slots == 5));
    }

    #[test]
    fn thrashing_confirmation_retreats_and_caps() {
        let cfg = SmrConfig {
            stabilise: simgrid::time::SimDuration::ZERO, // compare immediately
            balance_window: simgrid::time::SimDuration::ZERO,
            ..SmrConfig::default()
        };
        let mut p = SlotManagerPolicy::new(cfg);
        let mut stats = base_stats();
        let tr3 = trackers(2, 3, 2);
        // build baseline at 3 slots, then increment to 4
        stats.map_input_rate = 500.0;
        let _ = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr3));
        assert_eq!(p.map_target, Some(4));
        // rate falls at 4 slots: two consecutive suspicions confirm
        let tr4 = trackers(2, 4, 2);
        stats.map_input_rate = 100.0;
        let _ = p.decide(&ctx(SimTime::from_secs(36), &stats, &tr4));
        let _ = p.decide(&ctx(SimTime::from_secs(42), &stats, &tr4));
        let _ = p.decide(&ctx(SimTime::from_secs(48), &stats, &tr4));
        assert!(
            p.audit
                .records()
                .iter()
                .any(|r| matches!(r.decision, Decision::ThrashingRetreat { to: 3 })),
            "decisions: {:?}",
            p.audit.records()
        );
        assert_eq!(p.map_target, Some(3));
        // further map-heavy signals cannot push past the ceiling
        stats.map_input_rate = 500.0;
        let tr3b = trackers(2, 3, 2);
        let _ = p.decide(&ctx(SimTime::from_secs(60), &stats, &tr3b));
        assert_eq!(p.map_target, Some(3), "ceiling holds");
    }

    #[test]
    fn without_detection_increments_unbounded_to_cap() {
        let mut p = SlotManagerPolicy::new(SmrConfig {
            balance_window: simgrid::time::SimDuration::ZERO,
            ..SmrConfig::without_thrashing_detection()
        });
        let stats = base_stats();
        let mut t = 30u64;
        loop {
            let m = p.map_target.unwrap_or(3);
            let tr = trackers(2, m, 2);
            let _ = p.decide(&ctx(SimTime::from_secs(t), &stats, &tr));
            t += 6;
            if t > 300 {
                break;
            }
        }
        assert_eq!(
            p.map_target,
            Some(SmrConfig::default().max_map_slots),
            "no detector: climbs to the configured cap even as rates fall"
        );
    }

    #[test]
    fn tail_switches_slots() {
        let mut p = test_policy();
        let mut stats = base_stats();
        stats.pending_maps = 0;
        stats.running_maps = 4;
        stats.pending_reduces = 10;
        stats.running_reduces = 20;
        stats.est_shuffle_per_reduce_mb = 10.0;
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(60), &stats, &tr));
        assert!(!ds.is_empty());
        // ceil(4 running maps / 4 workers) = 1 map slot; reduces grow to 3
        assert!(ds.iter().all(|d| d.map_slots == 1 && d.reduce_slots == 3));
    }

    #[test]
    fn tail_jam_guard_blocks_reduce_growth() {
        let mut p = test_policy();
        let mut stats = base_stats();
        stats.pending_maps = 0;
        stats.running_maps = 0;
        stats.pending_reduces = 10;
        stats.est_shuffle_per_reduce_mb = 5000.0;
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(60), &stats, &tr));
        assert!(ds.iter().all(|d| d.reduce_slots == 2), "guard holds");
    }

    #[test]
    fn idle_cluster_resets_to_init() {
        let mut p = test_policy();
        // drive a change first
        let stats = base_stats();
        let tr = trackers(2, 3, 2);
        let _ = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        assert_eq!(p.map_target, Some(4));
        // all jobs done
        let idle = ClusterStats::default();
        let tr4 = trackers(2, 4, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(90), &idle, &tr4));
        assert!(ds.iter().all(|d| d.map_slots == 3 && d.reduce_slots == 2));
        assert_eq!(p.map_target, Some(3));
    }

    #[test]
    fn overhead_is_configured() {
        let p = test_policy();
        assert_eq!(
            p.directive_overhead_ms(),
            SmrConfig::default().directive_overhead_ms
        );
        assert_eq!(p.name(), "SMapReduce");
    }

    #[test]
    fn window_needs_history_before_balance_decisions() {
        // default (48 s) window: a cold window must hold even on a clear
        // map-heavy signal
        let mut p = SlotManagerPolicy::paper_default();
        let stats = base_stats();
        let tr = trackers(4, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        assert!(ds.is_empty(), "cold window: hold");
        // feed heartbeats until the window warms, then the increment fires
        let mut t = 33;
        let mut acted = false;
        while t < 120 {
            let ds = p.decide(&ctx(SimTime::from_secs(t), &stats, &tr));
            if !ds.is_empty() {
                assert!(ds.iter().all(|d| d.map_slots == 4));
                acted = true;
                break;
            }
            t += 3;
        }
        assert!(acted, "warm window must allow the decision");
    }

    #[test]
    fn snapshot_restore_round_trips_manager_state() {
        let mut p = test_policy();
        let stats = base_stats();
        let tr = trackers(4, 3, 2);
        let _ = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        let _ = p.decide(&ctx(SimTime::from_secs(36), &stats, &tr));
        let snap = p.snapshot_state();

        let mut q = test_policy();
        q.restore_state(&snap).unwrap();
        assert_eq!(q.current_targets(), p.current_targets());
        assert_eq!(q.audit.records(), p.audit.records());
        // both continue identically from the restored state
        let tr_now = trackers(4, p.map_target.unwrap(), 2);
        let a = p.decide(&ctx(SimTime::from_secs(42), &stats, &tr_now));
        let b = q.decide(&ctx(SimTime::from_secs(42), &stats, &tr_now));
        assert_eq!(a, b);
        assert_eq!(p.audit.records(), q.audit.records());
    }

    #[test]
    fn restore_null_state_is_fresh() {
        let mut p = test_policy();
        p.restore_state(&serde::Value::Null).unwrap();
        assert_eq!(p.current_targets(), None);
        assert!(p.audit.records().is_empty());
    }

    #[test]
    fn inconclusive_without_reduces_running() {
        let mut p = test_policy();
        let mut stats = base_stats();
        stats.running_reduces = 0;
        stats.shuffling_reduces = 0; // R_m = 0 -> f undefined
        let tr = trackers(2, 3, 2);
        let ds = p.decide(&ctx(SimTime::from_secs(30), &stats, &tr));
        assert!(ds.is_empty());
        assert!(matches!(last_decision(&p), Some(Decision::Hold)));
    }
}
