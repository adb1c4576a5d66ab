//! Simulated time.
//!
//! Time is an integer count of milliseconds since simulation start. Using an
//! integer (rather than `f64` seconds) keeps step arithmetic exact: a
//! 100 ms tick repeated ten times is *exactly* one second, heartbeat
//! boundaries compare with `==`, and runs are bit-for-bit reproducible.
//!
//! Simulation loops advance in one of two [`SteppingMode`]s: classic fixed
//! ticks, or adaptive macro-steps whose length is the [`EventHorizon`] —
//! the earliest instant at which any piecewise-constant rate in the system
//! can change. Both modes share the same millisecond grid, so periodic
//! boundaries (heartbeats, sample points) land exactly in either mode.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (milliseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time (milliseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// This instant expressed as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Milliseconds since origin.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// True when this instant lies on a multiple of `period` (used for
    /// heartbeat and manager-period scheduling on step boundaries).
    pub fn is_multiple_of(self, period: SimDuration) -> bool {
        period.0 != 0 && self.0.is_multiple_of(period.0)
    }

    /// Time until the next *strictly later* multiple of `period`: an
    /// instant already on a boundary gets a full period. This is the step
    /// arithmetic the adaptive loop uses to land exactly on heartbeat and
    /// sample boundaries. Panics on a zero period.
    #[inline]
    pub fn until_next_multiple_of(self, period: SimDuration) -> SimDuration {
        assert!(period.0 != 0, "period must be non-zero");
        SimDuration(period.0 - self.0 % period.0)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Span in milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Round fractional seconds *up* to the millisecond grid. Event times
    /// are ceiled so a step never stops just short of the event it was
    /// scheduled for (integrators clamp the ≤1 ms overshoot instead).
    /// Non-finite or negative inputs and overflows saturate to `u64::MAX`.
    pub fn from_secs_f64_ceil(s: f64) -> SimDuration {
        if !s.is_finite() || s < 0.0 {
            return SimDuration(u64::MAX);
        }
        let ms = (s * 1000.0).ceil();
        if ms >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ms as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.as_secs_f64())
    }
}

/// How a simulation loop chooses its integration step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SteppingMode {
    /// Classic fixed-length ticks: every step is exactly `tick` long.
    /// Kept as the reference integrator for cross-validation.
    Fixed,
    /// Adaptive macro-steps: after each (re)allocation the loop advances
    /// by the event horizon — the earliest heartbeat/sample boundary or
    /// rate-changing event — in a single step. Orders of magnitude fewer
    /// steps for identical piecewise-constant dynamics.
    #[default]
    Adaptive,
}

/// Stepping configuration shared by every simulation loop in the workspace.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TickConfig {
    /// Length of one integration step in [`SteppingMode::Fixed`]; unused
    /// by the adaptive stepper (which derives its own step lengths).
    pub tick: SimDuration,
    /// Hard wall: a simulation that has not converged by this simulated
    /// instant is aborted (guards against livelocked configurations).
    pub horizon: SimTime,
    /// Step-length selection strategy.
    #[serde(default)]
    pub mode: SteppingMode,
}

impl Default for TickConfig {
    fn default() -> Self {
        TickConfig {
            tick: SimDuration::from_millis(100),
            horizon: SimTime::from_secs(24 * 3600),
            mode: SteppingMode::default(),
        }
    }
}

impl TickConfig {
    /// The default configuration pinned to the fixed-tick reference mode.
    pub fn fixed() -> Self {
        TickConfig {
            mode: SteppingMode::Fixed,
            ..TickConfig::default()
        }
    }

    /// The default configuration pinned to adaptive stepping.
    pub fn adaptive() -> Self {
        TickConfig {
            mode: SteppingMode::Adaptive,
            ..TickConfig::default()
        }
    }

    /// Fixed-tick length in fractional seconds (the `dt` for rate
    /// integration in [`SteppingMode::Fixed`]).
    pub fn dt_secs(&self) -> f64 {
        self.tick.as_secs_f64()
    }
}

/// Running minimum over candidate next-event times, resolved to one step
/// length on the millisecond grid.
///
/// The adaptive loop creates one accumulator per step, capped by the next
/// mandatory boundary (heartbeat or sample point), proposes every local
/// event the allocators and task state machines can foresee at current
/// rates, and advances by [`EventHorizon::resolve`]. Proposing an event
/// that never fires is harmless (the step is merely shorter); *missing* a
/// rate change mid-step is what would break the integration, so proposals
/// should be conservative.
///
/// Soft events are kept in seconds and ceiled to the grid once, in
/// `resolve`: [`SimDuration::from_secs_f64_ceil`] is monotone on finite
/// positive seconds, so the ceil of the earliest event equals the earliest
/// of the ceils, and a step of many proposals pays for one conversion.
#[derive(Debug, Clone, Copy)]
pub struct EventHorizon {
    /// Minimum over *exact* deadlines: the boundary cap and `propose`
    /// calls. The step never crosses one of these.
    exact_ms: u64,
    /// Minimum over *soft* task events (`propose_secs` /
    /// `propose_depletion`) in seconds, which may be overshot by the
    /// coalescing pad; infinite while none is proposed.
    event_s: f64,
    /// Coalescing window: soft events within `pad_ms` of the earliest one
    /// merge into a single step. Integrators clamp the overshoot, so this
    /// trades a bounded staleness (choose ≤ the fixed tick to never be
    /// less accurate than the reference mode) for far fewer steps when
    /// completions cascade.
    pad_ms: u64,
}

impl EventHorizon {
    /// Negligible remaining work / rate below which a depletion never
    /// fires (mirrors the integrators' completion epsilons).
    const EPS: f64 = 1e-9;

    /// Start an accumulator capped at `cap` (the next mandatory boundary).
    #[inline]
    pub fn new(cap: SimDuration) -> EventHorizon {
        EventHorizon {
            exact_ms: cap.0,
            event_s: f64::INFINITY,
            pad_ms: 0,
        }
    }

    /// Allow soft task events to be overshot by up to `pad`, so cascades
    /// of near-simultaneous completions resolve in one step instead of
    /// one step each. Exact deadlines (`new`'s cap, `propose`) are never
    /// padded — periodic boundaries stay bit-exact across modes.
    #[inline]
    pub fn coalesce_events(&mut self, pad: SimDuration) {
        self.pad_ms = pad.0;
    }

    /// Propose an exact deadline `d` away (boundary, stall expiry, job
    /// arrival): never padded, never crossed.
    #[inline]
    pub fn propose(&mut self, d: SimDuration) {
        self.exact_ms = self.exact_ms.min(d.0);
    }

    /// Propose a soft task event `s` fractional seconds away (ceiled to
    /// the grid by `resolve`). Non-positive and non-finite times are
    /// ignored — a "due now" event is already visible to the current
    /// allocation.
    #[inline]
    pub fn propose_secs(&mut self, s: f64) {
        if s.is_finite() && s > 0.0 {
            self.event_s = self.event_s.min(s);
        }
    }

    /// Propose the depletion of `remaining` units draining at `rate`
    /// units/second; ignored when either is negligible (the quantity is
    /// not actually draining, so it cannot generate an event).
    #[inline]
    pub fn propose_depletion(&mut self, remaining: f64, rate: f64) {
        if remaining > Self::EPS && rate > Self::EPS {
            self.propose_secs(remaining / rate);
        }
    }

    /// The step length: the earliest exact deadline or (padded) soft
    /// event, never shorter than 1 ms so the loop always makes progress
    /// on the integer grid. With no soft event, the ceil of `event_s`
    /// saturates to `u64::MAX` and only the exact deadlines count.
    pub fn resolve(self) -> SimDuration {
        let event_ms = SimDuration::from_secs_f64_ceil(self.event_s).0;
        SimDuration(
            self.exact_ms
                .min(event_ms.saturating_add(self.pad_ms))
                .max(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_millis(3000));
        assert_eq!(SimTime::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(5) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 5500);
        assert_eq!((t - SimTime::from_secs(5)).as_millis(), 500);
        // subtraction saturates rather than panicking
        assert_eq!((SimTime::ZERO - SimTime::from_secs(1)).as_millis(), 0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += SimDuration::from_millis(100);
        }
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn multiple_of_detects_period_boundaries() {
        let hb = SimDuration::from_secs(3);
        assert!(SimTime::ZERO.is_multiple_of(hb));
        assert!(SimTime::from_secs(3).is_multiple_of(hb));
        assert!(!SimTime::from_millis(3100).is_multiple_of(hb));
        assert!(!SimTime::from_secs(1).is_multiple_of(SimDuration::ZERO));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.since(a).as_millis(), 1000);
        assert_eq!(a.since(b).as_millis(), 0);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.5s");
        assert_eq!(SimDuration::from_millis(100).to_string(), "0.1s");
    }

    #[test]
    fn default_tick_is_100ms() {
        let tc = TickConfig::default();
        assert_eq!(tc.tick.as_millis(), 100);
        assert!((tc.dt_secs() - 0.1).abs() < 1e-12);
        assert_eq!(tc.mode, SteppingMode::Adaptive, "adaptive is the default");
        assert_eq!(TickConfig::fixed().mode, SteppingMode::Fixed);
        assert_eq!(TickConfig::adaptive().mode, SteppingMode::Adaptive);
    }

    #[test]
    fn until_next_multiple_is_strictly_positive() {
        let hb = SimDuration::from_secs(3);
        // on a boundary: a full period away
        assert_eq!(SimTime::ZERO.until_next_multiple_of(hb).as_millis(), 3000);
        assert_eq!(
            SimTime::from_secs(3).until_next_multiple_of(hb).as_millis(),
            3000
        );
        // mid-interval: the remainder
        assert_eq!(
            SimTime::from_millis(3100)
                .until_next_multiple_of(hb)
                .as_millis(),
            2900
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn until_next_multiple_rejects_zero_period() {
        let _ = SimTime::ZERO.until_next_multiple_of(SimDuration::ZERO);
    }

    #[test]
    fn ceil_conversion_saturates_and_rounds_up() {
        assert_eq!(SimDuration::from_secs_f64_ceil(0.1).as_millis(), 100);
        assert_eq!(SimDuration::from_secs_f64_ceil(0.0001).as_millis(), 1);
        assert_eq!(SimDuration::from_secs_f64_ceil(1.0005).as_millis(), 1001);
        assert_eq!(SimDuration::from_secs_f64_ceil(-1.0).0, u64::MAX);
        assert_eq!(SimDuration::from_secs_f64_ceil(f64::NAN).0, u64::MAX);
        assert_eq!(SimDuration::from_secs_f64_ceil(f64::INFINITY).0, u64::MAX);
    }

    #[test]
    fn event_horizon_takes_earliest_event() {
        let mut h = EventHorizon::new(SimDuration::from_secs(3));
        assert_eq!(h.resolve().as_millis(), 3000, "cap alone");
        h.propose(SimDuration::from_millis(700));
        h.propose_secs(1.5);
        assert_eq!(h.resolve().as_millis(), 700);
        // depletion: 10 units at 20/s = 0.5 s
        h.propose_depletion(10.0, 20.0);
        assert_eq!(h.resolve().as_millis(), 500);
    }

    #[test]
    fn event_horizon_ignores_degenerate_proposals() {
        let mut h = EventHorizon::new(SimDuration::from_secs(1));
        h.propose_secs(0.0);
        h.propose_secs(-3.0);
        h.propose_secs(f64::NAN);
        h.propose_depletion(0.0, 5.0); // nothing left
        h.propose_depletion(5.0, 0.0); // not draining
        assert_eq!(h.resolve().as_millis(), 1000, "cap survives");
    }

    #[test]
    fn event_horizon_never_resolves_below_one_ms() {
        let mut h = EventHorizon::new(SimDuration::from_secs(1));
        h.propose_secs(1e-9);
        assert_eq!(h.resolve().as_millis(), 1);
        let z = EventHorizon::new(SimDuration::ZERO);
        assert_eq!(z.resolve().as_millis(), 1);
    }

    #[test]
    fn event_horizon_coalescing_pads_soft_events_only() {
        let mut h = EventHorizon::new(SimDuration::from_secs(3));
        h.coalesce_events(SimDuration::from_millis(100));
        h.propose_secs(0.25); // soft task event at 250 ms
        assert_eq!(h.resolve().as_millis(), 350, "soft events are padded");
        h.propose(SimDuration::from_millis(300)); // exact deadline
        assert_eq!(h.resolve().as_millis(), 300, "deadlines never move");
        // the cap is itself an exact deadline: a padded event past it loses
        let mut h = EventHorizon::new(SimDuration::from_millis(280));
        h.coalesce_events(SimDuration::from_millis(100));
        h.propose_secs(0.25);
        assert_eq!(h.resolve().as_millis(), 280);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    /// The horizon with every soft proposal ceiled to the grid as it
    /// arrives: the reference [`EventHorizon`]'s single ceil must match.
    struct CeilEach {
        exact_ms: u64,
        event_ms: u64,
        pad_ms: u64,
    }

    impl CeilEach {
        fn propose_secs(&mut self, s: f64) {
            if s.is_finite() && s > 0.0 {
                self.event_ms = self.event_ms.min(SimDuration::from_secs_f64_ceil(s).0);
            }
        }

        fn resolve(&self) -> SimDuration {
            SimDuration(
                self.exact_ms
                    .min(self.event_ms.saturating_add(self.pad_ms))
                    .max(1),
            )
        }
    }

    /// Seconds for a proposal: one of the edge values when `pick` indexes
    /// one, otherwise `x` at one of three scales (around a second, around
    /// the 1 ms grid, and past `u64::MAX` milliseconds).
    fn secs(pick: usize, x: f64) -> f64 {
        const EDGES: [f64; 16] = [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1e-9,
            0.001,
            // the next double above 1 ms, which ceils to 2 ms
            f64::from_bits(0.001f64.to_bits() + 1),
            // u64::MAX milliseconds
            u64::MAX as f64 / 1000.0,
            1e17,
            f64::MAX,
            -f64::MAX,
        ];
        match pick.checked_sub(EDGES.len()).map(|k| k % 3) {
            None => EDGES[pick],
            Some(0) => x,
            Some(1) => x * 1e-3,
            _ => x * 1e13,
        }
    }

    proptest::proptest! {
        /// Random sequences of caps, pads, exact proposals, soft proposals
        /// and depletions resolve bit for bit as the per-proposal ceil
        /// does, after every operation.
        #[test]
        fn prop_horizon_matches_per_proposal_ceil(
            cap in (0u8..8, 0u64..20_000),
            ops in proptest::collection::vec(
                (0u8..4, 0usize..32, -1e4f64..1e4, 0usize..32, -1e4f64..1e4, 0u64..20_000),
                0..40),
        ) {
            let cap = if cap.0 == 0 { u64::MAX } else { cap.1 };
            let mut h = EventHorizon::new(SimDuration(cap));
            let mut r = CeilEach { exact_ms: cap, event_ms: u64::MAX, pad_ms: 0 };
            for (op, pick_a, a, pick_b, b, ms) in ops {
                match op {
                    0 => {
                        let pad = if pick_a == 0 { u64::MAX } else { ms };
                        h.coalesce_events(SimDuration(pad));
                        r.pad_ms = pad;
                    }
                    1 => {
                        h.propose(SimDuration(ms));
                        r.exact_ms = r.exact_ms.min(ms);
                    }
                    2 => {
                        let s = secs(pick_a, a);
                        h.propose_secs(s);
                        r.propose_secs(s);
                    }
                    _ => {
                        let (remaining, rate) = (secs(pick_a, a), secs(pick_b, b));
                        h.propose_depletion(remaining, rate);
                        if remaining > EventHorizon::EPS && rate > EventHorizon::EPS {
                            r.propose_secs(remaining / rate);
                        }
                    }
                }
                proptest::prop_assert_eq!(h.resolve(), r.resolve());
            }
        }
    }
}
