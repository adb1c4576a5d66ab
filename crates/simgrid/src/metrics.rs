//! Measurement primitives: time series and windowed rate meters.
//!
//! The slot manager's whole decision loop runs on *rates observed over
//! heartbeat windows* (map input rate, map output rate, shuffle rate), so
//! the meters here are part of the reproduction surface, not just logging.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// An append-only `(time, value)` series, used for progress curves (Fig. 4)
/// and for recording slot counts over time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    pub fn with_capacity(points: usize) -> TimeSeries {
        TimeSeries {
            points: Vec::with_capacity(points),
        }
    }

    /// Append a sample. Samples must arrive in non-decreasing time order
    /// (enforced in debug builds).
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| lt <= t),
            "samples must be time-ordered"
        );
        self.points.push((t, v));
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Value at time `t` via step interpolation (last sample at or before
    /// `t`); `None` before the first sample.
    pub fn at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Earliest time at which the series reaches `level` (values assumed
    /// non-decreasing, as for progress curves).
    pub fn first_reaching(&self, level: f64) -> Option<SimTime> {
        self.points
            .iter()
            .find(|&&(_, v)| v >= level)
            .map(|&(t, _)| t)
    }

    /// Downsample to at most `max_points` (for compact figure output):
    /// every [`thinning_stride`]-th point, plus the last.
    pub fn thinned(&self, max_points: usize) -> Vec<(SimTime, f64)> {
        let stride = thinning_stride(self.points.len(), max_points);
        if stride == 1 {
            return self.points.clone();
        }
        let mut out: Vec<(SimTime, f64)> = self.points.iter().step_by(stride).copied().collect();
        if out.last() != self.points.last() {
            out.push(*self.points.last().expect("non-empty"));
        }
        out
    }
}

/// The stride [`TimeSeries::thinned`] keeps every point of to bring `len`
/// points down to at most `max_points` (plus the last point); 1 when the
/// series is kept whole (`max_points == 0` means no bound).
pub fn thinning_stride(len: usize, max_points: usize) -> usize {
    if max_points == 0 || len <= max_points {
        1
    } else {
        len.div_ceil(max_points)
    }
}

/// A meter that accumulates a byte/record count and yields the mean rate per
/// sampling window — the exact quantity task trackers piggy-back on
/// heartbeats ("the map input processing rate, the shuffle rate and the map
/// output rate", §III-C).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateMeter {
    window_total: f64,
    window_start: SimTime,
    /// Total since creation (for end-of-job averages).
    lifetime_total: f64,
    /// Rate reported at the last harvest, carried so consumers between
    /// harvests see the latest completed window.
    last_rate: f64,
}

impl RateMeter {
    pub fn new(start: SimTime) -> RateMeter {
        RateMeter {
            window_total: 0.0,
            window_start: start,
            lifetime_total: 0.0,
            last_rate: 0.0,
        }
    }

    /// Record `amount` units moved (MB, records, …).
    pub fn record(&mut self, amount: f64) {
        debug_assert!(amount >= 0.0);
        self.window_total += amount;
        self.lifetime_total += amount;
    }

    /// Close the current window at `now`, returning the mean rate over it
    /// (units/second) and starting a fresh window.
    pub fn harvest(&mut self, now: SimTime) -> f64 {
        let dt = (now - self.window_start).as_secs_f64();
        let rate = if dt > 0.0 {
            self.window_total / dt
        } else {
            0.0
        };
        self.window_total = 0.0;
        self.window_start = now;
        self.last_rate = rate;
        rate
    }

    /// The rate from the most recently harvested window.
    pub fn last_rate(&self) -> f64 {
        self.last_rate
    }

    /// Units accumulated since creation.
    pub fn lifetime_total(&self) -> f64 {
        self.lifetime_total
    }
}

/// Summary statistics of a sample set (task durations, per-node loads).
///
/// ```
/// use simgrid::metrics::Summary;
///
/// let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
/// assert_eq!((s.min, s.max, s.p50), (1.0, 4.0, 2.0));
/// assert!(Summary::of(&[]).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
}

impl Summary {
    /// Compute a summary; returns `None` for an empty sample.
    /// Percentiles use the nearest-rank method on a sorted copy.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = sorted.len();
        let rank = |p: f64| -> f64 {
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted[idx]
        };
        Some(Summary {
            n,
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            max: sorted[n - 1],
            p50: rank(0.50),
            p95: rank(0.95),
        })
    }
}

/// Exponentially-weighted mean, used to smooth noisy per-window rates before
/// they feed threshold comparisons (thrashing detection compares *stable*
/// ranges, §IV-A2).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` in `(0, 1]`: weight of the newest observation.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    pub fn observe(&mut self, x: f64) -> f64 {
        self.observe_weighted(x, 1.0)
    }

    /// Observe a sample that covers `weight` nominal sampling intervals
    /// (time-weighted EWMA for irregular sample spacing). The effective
    /// smoothing factor is `1 - (1 - α)^weight`, so a sample spanning two
    /// intervals pulls exactly as hard as two unit observations of the
    /// same value; `weight == 1` is the plain [`Ewma::observe`].
    pub fn observe_weighted(&mut self, x: f64, weight: f64) -> f64 {
        debug_assert!(weight.is_finite() && weight >= 0.0, "weight must be >= 0");
        let v = match self.value {
            None => x,
            Some(prev) => {
                let eff = 1.0 - (1.0 - self.alpha).powf(weight.max(0.0));
                prev + eff * (x - prev)
            }
        };
        self.value = Some(v);
        v
    }

    pub fn value(&self) -> Option<f64> {
        self.value
    }

    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn series_push_and_query() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(t(1), 10.0);
        ts.push(t(3), 30.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.at(t(0)), None);
        assert_eq!(ts.at(t(1)), Some(10.0));
        assert_eq!(ts.at(t(2)), Some(10.0));
        assert_eq!(ts.at(t(3)), Some(30.0));
        assert_eq!(ts.at(t(9)), Some(30.0));
        assert_eq!(ts.last(), Some((t(3), 30.0)));
    }

    #[test]
    fn first_reaching_finds_threshold() {
        let mut ts = TimeSeries::new();
        for s in 0..10 {
            ts.push(t(s), s as f64 * 10.0);
        }
        assert_eq!(ts.first_reaching(35.0), Some(t(4)));
        assert_eq!(ts.first_reaching(90.0), Some(t(9)));
        assert_eq!(ts.first_reaching(91.0), None);
    }

    #[test]
    fn thinned_keeps_endpoints() {
        let mut ts = TimeSeries::new();
        for s in 0..1000 {
            ts.push(SimTime::from_millis(s), s as f64);
        }
        let thin = ts.thinned(50);
        assert!(thin.len() <= 51);
        assert_eq!(thin.first(), ts.points().first());
        assert_eq!(thin.last().copied(), ts.last());
        // thinning a short series is the identity
        let mut short = TimeSeries::new();
        short.push(t(0), 1.0);
        assert_eq!(short.thinned(50).len(), 1);
    }

    #[test]
    fn rate_meter_windows() {
        let mut m = RateMeter::new(t(0));
        m.record(50.0);
        m.record(50.0);
        let r = m.harvest(t(2));
        assert!((r - 50.0).abs() < 1e-12, "100 units over 2s");
        assert_eq!(m.last_rate(), r);
        // fresh window
        m.record(30.0);
        let r2 = m.harvest(t(5));
        assert!((r2 - 10.0).abs() < 1e-12, "30 units over 3s");
        assert_eq!(m.lifetime_total(), 130.0);
    }

    #[test]
    fn rate_meter_zero_window_is_zero() {
        let mut m = RateMeter::new(t(1));
        m.record(10.0);
        assert_eq!(m.harvest(t(1)), 0.0);
    }

    #[test]
    fn ewma_smooths() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.observe(10.0), 10.0);
        assert_eq!(e.observe(20.0), 15.0);
        assert_eq!(e.observe(20.0), 17.5);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn weighted_ewma_matches_repeated_unit_observations() {
        let mut unit = Ewma::new(0.3);
        let mut weighted = Ewma::new(0.3);
        unit.observe(10.0);
        weighted.observe(10.0);
        // one sample covering 3 intervals == 3 unit samples of that value
        unit.observe(4.0);
        unit.observe(4.0);
        unit.observe(4.0);
        weighted.observe_weighted(4.0, 3.0);
        assert!((unit.value().unwrap() - weighted.value().unwrap()).abs() < 1e-12);
        // weight 1 is the plain observe; alpha 1 tracks regardless of weight
        let mut full = Ewma::new(1.0);
        full.observe(5.0);
        assert_eq!(full.observe_weighted(9.0, 0.5), 9.0);
    }

    #[test]
    fn weighted_ewma_zero_weight_is_inert_after_seed() {
        let mut e = Ewma::new(0.5);
        e.observe(10.0);
        assert_eq!(e.observe_weighted(100.0, 0.0), 10.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn summary_known_values() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
    }

    #[test]
    fn summary_unsorted_input() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.p50, 2.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_summary_bounds(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::of(&samples).unwrap();
            proptest::prop_assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max);
            proptest::prop_assert!(s.min <= s.mean && s.mean <= s.max + 1e-9);
            proptest::prop_assert_eq!(s.n, samples.len());
        }
    }
}
