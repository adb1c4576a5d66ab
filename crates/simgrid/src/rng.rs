//! Deterministic randomness.
//!
//! Every stochastic decision in the simulator (block placement, per-task
//! service-time jitter, heartbeat phase offsets) draws from a [`SimRng`]
//! seeded from a single experiment seed, so a run is exactly reproducible.
//! Sub-streams are derived with SplitMix64 so that adding a consumer in one
//! subsystem does not perturb the draws seen by another.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize, Value};

/// SplitMix64 step — the standard way to expand one `u64` seed into many
/// well-distributed derived seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random stream for one simulation subsystem.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Create the root stream for an experiment.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream, keyed by a stable label hash, so
    /// that subsystems each get their own stream regardless of the order in
    /// which they are constructed.
    pub fn derive(&self, label: &str) -> SimRng {
        let mut state = self.seed;
        for b in label.as_bytes() {
            state = state.wrapping_mul(0x100_0000_01B3) ^ u64::from(*b);
        }
        let child_seed = splitmix64(&mut state);
        SimRng::new(child_seed)
    }

    /// The four raw xoshiro256++ state words — the stream's complete
    /// position. Folded into the engine's per-step state hash so any
    /// divergence in draw order shows up the same step it happens.
    pub fn state_words(&self) -> [u64; 4] {
        self.inner.state()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) is meaningless");
        self.inner.random_range(0..n)
    }

    /// Multiplicative jitter in `[1 - amp, 1 + amp]`, used for per-task
    /// service-time variation. `amp` of `0.0` returns exactly `1.0`.
    pub fn jitter(&mut self, amp: f64) -> f64 {
        if amp <= 0.0 {
            return 1.0;
        }
        1.0 + (self.unit() * 2.0 - 1.0) * amp
    }

    /// Pick `k` distinct indices out of `0..n`: the first `k` entries of a
    /// partial Fisher–Yates shuffle of `0..n`. Returns fewer than `k` only
    /// when `n < k`.
    ///
    /// The shuffle is sparse. Step `i` draws `j = i + below(n - i)` and
    /// swaps positions `i` and `j`; the draws do not depend on what the
    /// positions hold, so they are all made first, into the output. Then
    /// each pick, last to first, follows its drawn position back through
    /// the earlier swaps to the index that started there. That costs
    /// O(k²) steps and allocates only the output, where shuffling a filled
    /// `0..n` cost O(n) per call — for every block a name node places.
    pub fn choose_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let take = k.min(n);
        let mut picks: Vec<usize> = (0..take).map(|i| i + self.below(n - i)).collect();
        for i in (0..take).rev() {
            let mut at = picks[i];
            for m in (0..i).rev() {
                if at == picks[m] {
                    at = m;
                } else if at == m {
                    at = picks[m];
                }
            }
            picks[i] = at;
        }
        picks
    }
}

// A stream checkpoint is the originating seed plus the four xoshiro256++
// state words — enough to resume mid-stream without replaying draws while
// keeping `derive` (which hashes from the seed) stable across the restore.
impl Serialize for SimRng {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seed".to_string(), self.seed.to_value()),
            ("state".to_string(), self.inner.state().to_value()),
        ])
    }
}

impl Deserialize for SimRng {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let seed = u64::deserialize(
            v.get("seed")
                .ok_or_else(|| serde::Error::new("SimRng: missing seed"))?,
        )?;
        let state = <[u64; 4]>::deserialize(
            v.get("state")
                .ok_or_else(|| serde::Error::new("SimRng: missing state"))?,
        )?;
        Ok(SimRng {
            inner: SmallRng::from_state(state),
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4, "streams with different seeds should not track");
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = SimRng::new(7);
        let mut a1 = root.derive("dfs");
        let mut a2 = root.derive("dfs");
        let mut b = root.derive("network");
        assert_eq!(a1.unit().to_bits(), a2.unit().to_bits());
        assert_ne!(a1.seed(), b.seed());
        let _ = b.unit();
    }

    #[test]
    fn derive_is_order_independent() {
        let root = SimRng::new(7);
        let a = root.derive("x").seed();
        let _ = root.derive("y");
        let a_again = root.derive("x").seed();
        assert_eq!(a, a_again);
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_in_range() {
        let mut r = SimRng::new(4);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn jitter_bounds() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let j = r.jitter(0.2);
            assert!((0.8..=1.2).contains(&j));
        }
        assert_eq!(r.jitter(0.0), 1.0);
        assert_eq!(r.jitter(-1.0), 1.0);
    }

    #[test]
    fn choose_distinct_properties() {
        let mut r = SimRng::new(6);
        for _ in 0..200 {
            let picks = r.choose_distinct(10, 3);
            assert_eq!(picks.len(), 3);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "picks must be distinct");
            assert!(picks.iter().all(|&p| p < 10));
        }
        // k > n clamps
        assert_eq!(r.choose_distinct(2, 5).len(), 2);
        assert!(r.choose_distinct(0, 3).is_empty());
    }

    /// The retired dense shuffle, kept as the reference: a partial
    /// Fisher–Yates over a filled `0..n`.
    fn choose_distinct_dense(r: &mut SimRng, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let take = k.min(n);
        for i in 0..take {
            let j = i + r.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(take);
        idx
    }

    proptest::proptest! {
        /// The sparse shuffle makes the retired dense one's draws in the
        /// same order, so it returns the same picks and leaves the stream
        /// where the dense one left it, including when `k >= n`.
        #[test]
        fn prop_sparse_choice_matches_dense_reference(
            n in 0usize..2048,
            k in 0usize..8,
            seed in 0u64..1_000,
            calls in 1usize..4,
        ) {
            let mut sparse = SimRng::new(seed);
            let mut dense = SimRng::new(seed);
            for _ in 0..calls {
                let got = sparse.choose_distinct(n, k);
                proptest::prop_assert_eq!(&got, &choose_distinct_dense(&mut dense, n, k));
                proptest::prop_assert_eq!(got.capacity(), got.len());
                proptest::prop_assert_eq!(sparse.state_words(), dense.state_words());
            }
        }
    }

    #[test]
    fn sparse_choice_matches_dense_reference_when_k_covers_n() {
        for n in 0..12 {
            for k in n..n + 3 {
                let mut sparse = SimRng::new(n as u64 * 31 + k as u64);
                let mut dense = sparse.clone();
                let got = sparse.choose_distinct(n, k);
                assert_eq!(got, choose_distinct_dense(&mut dense, n, k), "n {n}, k {k}");
                assert_eq!(sparse.state_words(), dense.state_words());
                let mut sorted = got.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..n).collect::<Vec<_>>(),
                    "k >= n picks all of 0..n"
                );
            }
        }
    }

    #[test]
    fn serde_roundtrip_resumes_mid_stream() {
        let mut a = SimRng::new(99);
        for _ in 0..37 {
            a.unit();
        }
        let v = serde::Serialize::to_value(&a);
        let mut b: SimRng = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(b.seed(), a.seed());
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
        // derive keys off the seed, so derivation survives the restore too
        assert_eq!(a.derive("x").seed(), b.derive("x").seed());
    }

    #[test]
    fn derived_streams_are_distinct_and_non_overlapping() {
        // The capsule stores derived-stream positions, so distinct labels
        // must yield streams that never share a draw sequence.
        let root = SimRng::new(1234);
        let labels = ["engine", "dfs", "faults", "jitter"];
        let mut seen = std::collections::HashSet::new();
        let mut seeds = std::collections::HashSet::new();
        for label in labels {
            let mut child = root.derive(label);
            assert!(seeds.insert(child.seed()), "seed collision for {label}");
            for _ in 0..512 {
                assert!(
                    seen.insert(child.unit().to_bits()),
                    "draw shared between derived streams ({label})"
                );
            }
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value from the canonical SplitMix64 implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }
}
