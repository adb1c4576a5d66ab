//! Experiment scale: full paper-sized runs vs quick runs for CI.

use mapreduce::EngineConfig;
use serde::{Deserialize, Serialize};
use simgrid::cluster::ClusterSpec;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Paper-sized: 30 GB default inputs, 3 trials.
    Full,
    /// Reduced inputs and trials — same code paths, minutes → seconds.
    Quick,
}

impl Scale {
    /// Engine configuration for a `workers`-node cluster of paper-spec
    /// machines. `Scale` governs input sizes and trial counts only — the
    /// cluster size is always the caller's explicit choice.
    pub fn engine(self, workers: usize) -> EngineConfig {
        EngineConfig {
            cluster: ClusterSpec::small(workers),
            ..EngineConfig::paper_default()
        }
    }

    /// Scale factor applied to input sizes.
    pub fn input_factor(self) -> f64 {
        match self {
            Scale::Full => 1.0,
            // Small enough for CI, large enough that the slot manager has
            // time to adapt (its slow start + climb need a few minutes of
            // simulated map phase).
            Scale::Quick => 0.3,
        }
    }

    /// Number of seeded trials to average.
    pub fn trials(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Quick => 1,
        }
    }

    /// Scale an input size (MB).
    pub fn input(self, full_mb: f64) -> f64 {
        full_mb * self.input_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ_only_in_input_and_trials() {
        // the cluster size is an explicit parameter, not a Scale property
        assert_eq!(Scale::Full.engine(64).cluster.workers, 64);
        assert_eq!(Scale::Quick.engine(1024).cluster.workers, 1024);
        // at the testbed's size it is exactly the paper's configuration
        assert_eq!(
            serde_json::to_value(Scale::Quick.engine(16)).unwrap(),
            serde_json::to_value(EngineConfig::paper_default()).unwrap(),
        );
        assert!(Scale::Quick.input(1000.0) < 1000.0);
        assert_eq!(Scale::Full.input(1000.0), 1000.0);
        assert!(Scale::Quick.trials() <= Scale::Full.trials());
    }
}
