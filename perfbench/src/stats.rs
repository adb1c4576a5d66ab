//! Percentiles, the reporting rule for tail percentiles, and host
//! normalisation.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The reference time every run is normalised to (ms): the median
/// reference-kernel time of a typical run on the host the benchmark was
/// written on (2-vCPU KVM guest, Xeon with a 300 MiB L3). Normalised
/// timings therefore read close to raw ones on that host.
pub const NOMINAL_REF_MS: f64 = 0.2;

/// Nearest-rank percentile of an ascending slice, `q` in `0..=1`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q` percentile of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly above it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let v = percentile(sorted, q);
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= v);
    (beyond >= MIN_BEYOND).then_some(v)
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `(q1, median, q3)` by nearest rank.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    (
        percentile(&s, 0.25),
        percentile(&s, 0.5),
        percentile(&s, 0.75),
    )
}

/// Converts raw wall-clock figures of one run to host-normalised ones:
/// a timing is scaled by `NOMINAL_REF_MS / ref_ms`, a rate by the
/// inverse, where `ref_ms` is the run's median reference-kernel time.
#[derive(Debug, Clone, Copy)]
pub struct Normaliser {
    pub ref_ms: f64,
}

impl Normaliser {
    pub fn from_samples(ref_samples_ms: &[f64]) -> Normaliser {
        Normaliser {
            ref_ms: percentile(&sorted(ref_samples_ms), 0.5),
        }
    }

    fn factor(&self) -> f64 {
        NOMINAL_REF_MS / self.ref_ms
    }

    /// A normalised duration (any unit).
    pub fn time(&self, raw: f64) -> f64 {
        raw * self.factor()
    }

    /// A normalised rate (work per unit of host time).
    pub fn rate(&self, raw: f64) -> f64 {
        raw / self.factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 distinct samples: p90 = 90, ten samples (91..=100) beyond
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        // 99 samples: p90 = 90, only nine beyond
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        // ties at the top do not count as beyond
        let mut tied = hundred.clone();
        for x in tied.iter_mut().skip(85) {
            *x = 100.0;
        }
        assert_eq!(tail_percentile(&tied, 0.9), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn normalisation_scales_times_and_rates_inversely() {
        let slow = Normaliser {
            ref_ms: 2.0 * NOMINAL_REF_MS,
        };
        // a host twice as slow as nominal: timings halve, rates double
        assert_eq!(slow.time(10.0), 5.0);
        assert_eq!(slow.rate(100.0), 200.0);
        let nominal = Normaliser {
            ref_ms: NOMINAL_REF_MS,
        };
        assert_eq!(nominal.time(3.5), 3.5);
        assert_eq!(nominal.rate(3.5), 3.5);
        // the median of the run's samples is the reference
        let n = Normaliser::from_samples(&[0.3, 0.1, 0.2, 9.0, 0.25]);
        assert_eq!(n.ref_ms, 0.25);
        // time × rate is invariant: a normalised throughput is the
        // inverse of a normalised per-unit time
        let (t, r) = (slow.time(4.0), slow.rate(1.0 / 4.0));
        assert!((t * r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_of_a_run() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
    }
}
