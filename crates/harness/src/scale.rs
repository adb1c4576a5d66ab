//! Experiment scale: full paper-sized runs vs quick runs for CI.

use mapreduce::engine::EngineConfigBuilder;
use mapreduce::EngineConfig;
use serde::{Deserialize, Serialize};

/// Cluster size of the paper's testbed (§V). Figure targets reproduce the
/// paper and therefore pass this explicitly; nothing else in [`Scale`]
/// pins the cluster, so the scale-trajectory test and the benchmark's
/// 1024-node workload reuse the same machinery.
pub const TESTBED_WORKERS: usize = 16;

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
        EngineConfigBuilder::paper().workers(workers).build()
    }

    /// The paper's 16-worker testbed configuration — what every figure
    /// target runs on (the cluster is what the paper holds fixed; only
    /// inputs shrink at [`Scale::Quick`]).
    pub fn testbed_engine(self) -> EngineConfig {
        self.engine(TESTBED_WORKERS)
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
        // figure targets get the paper testbed by construction
        assert_eq!(Scale::Full.testbed_engine().cluster.workers, 16);
        assert_eq!(
            Scale::Quick.testbed_engine().cluster.to_value(),
            EngineConfig::paper_default().cluster.to_value(),
            "testbed engine is exactly the paper cluster"
        );
        assert!(Scale::Quick.input(1000.0) < 1000.0);
        assert_eq!(Scale::Full.input(1000.0), 1000.0);
        assert!(Scale::Quick.trials() <= Scale::Full.trials());
    }
}
