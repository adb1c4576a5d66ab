//! Job specifications and resource profiles.
//!
//! A [`JobProfile`] is the *resource signature* of a MapReduce program —
//! everything the simulator needs to know about what one map or reduce task
//! of this job consumes. The PUMA benchmark catalog in the `workloads`
//! crate is a set of these profiles; synthetic profiles for tests live
//! here.

use serde::{Deserialize, Serialize};
use simgrid::error::SimError;
use simgrid::node::TaskDemand;
use simgrid::time::SimTime;

/// Identifier of a job within one engine run (dense, submission order).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct JobId(pub usize);

/// Resource signature of one MapReduce program.
///
/// Rates are *nominal, uncontended* values; the node and fabric models scale
/// them down under contention. The ratio `map_selectivity` (map output MB
/// per input MB) is the single most important classifier: it decides whether
/// a job is map-heavy (tiny shuffle; Grep ≈ 0.001) or reduce-heavy (shuffle
/// ≈ input; Terasort = 1.0).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobProfile {
    /// Human-readable name (benchmark name for PUMA jobs).
    pub name: String,
    /// Input MB one map task consumes per second at full speed.
    pub map_rate: f64,
    /// CPU demand of one running map task (cores' worth).
    pub map_cpu: f64,
    /// Runnable threads per map task (JVM worker + service threads).
    pub map_threads: u32,
    /// Resident set of one map task (MB).
    pub map_mem: f64,
    /// Map output MB produced per input MB (includes combiner effect).
    pub map_selectivity: f64,
    /// Extra map-side work (sort/spill) per MB of map *output*, expressed
    /// as equivalent input-MB of work.
    pub spill_weight: f64,
    /// Shuffle-partition MB one reduce task merges/sorts per second at full
    /// speed (the sort phase after the barrier).
    pub sort_rate: f64,
    /// Shuffle MB one reduce task reduces per second at full speed (the
    /// final reduce phase).
    pub reduce_rate: f64,
    /// CPU demand of one reduce task during sort/reduce (cores' worth).
    pub reduce_cpu: f64,
    /// Runnable threads per reduce task outside the shuffle phase.
    pub reduce_threads: u32,
    /// Resident set of one reduce task (MB; sort buffers dominate).
    pub reduce_mem: f64,
    /// Final output MB per shuffled MB.
    pub reduce_selectivity: f64,
    /// Parallel fetch threads per reduce task during shuffle
    /// (`mapred.reduce.parallel.copies`, Hadoop default 5).
    pub shuffle_fetchers: u32,
    /// CPU demand of one reduce task while shuffling (merge threads).
    pub shuffle_cpu: f64,
    /// Maximum MB/s one reduce task can ingest during shuffle at full CPU
    /// allocation (its merge threads) *while maps are still running*: the
    /// map-output servers compete with map tasks for CPU and disk on every
    /// source node, so the in-flight shuffle rate `T_r1` is well below
    /// line rate.
    pub shuffle_merge_rate: f64,
    /// Multiplier on the ingest cap once the job's barrier is crossed.
    /// §III-B1 of the paper states exactly this: after the maps finish
    /// "there will not be any resource sharing between the map tasks and
    /// the reduce tasks", so the post-barrier shuffle rate `T_r2` is a
    /// higher constant.
    pub shuffle_barrier_boost: f64,
}

impl JobProfile {
    /// Demand of one running map task.
    pub fn map_demand(&self) -> TaskDemand {
        TaskDemand {
            cpu_cores: self.map_cpu,
            threads: self.map_threads,
            mem_mb: self.map_mem,
            // At full speed a map streams `map_rate` MB/s off disk and
            // writes its output (selectivity-scaled) back for the spill.
            disk_read: self.map_rate,
            disk_write: self.map_rate * self.map_selectivity,
        }
    }

    /// Demand of one reduce task during its shuffle phase.
    pub fn shuffle_demand(&self) -> TaskDemand {
        TaskDemand {
            cpu_cores: self.shuffle_cpu,
            threads: self.shuffle_fetchers,
            mem_mb: self.reduce_mem * 0.6,
            disk_read: 0.0,
            // fetched data is spilled to disk as it lands; modest steady
            // write pressure
            disk_write: 20.0,
        }
    }

    /// Demand of one reduce task during sort or reduce.
    pub fn reduce_demand(&self) -> TaskDemand {
        TaskDemand {
            cpu_cores: self.reduce_cpu,
            threads: self.reduce_threads,
            mem_mb: self.reduce_mem,
            disk_read: self.sort_rate,
            disk_write: self.reduce_rate * self.reduce_selectivity,
        }
    }

    /// A map-heavy synthetic profile (Grep-like): CPU-light maps, tiny
    /// shuffle. Thrashing knee well above the default 3 map slots.
    pub fn synthetic_map_heavy() -> JobProfile {
        JobProfile {
            name: "synthetic-map-heavy".into(),
            map_rate: 12.0,
            map_cpu: 1.8,
            map_threads: 2,
            map_mem: 1100.0,
            map_selectivity: 0.02,
            spill_weight: 0.3,
            sort_rate: 40.0,
            reduce_rate: 30.0,
            reduce_cpu: 2.0,
            reduce_threads: 2,
            reduce_mem: 2000.0,
            reduce_selectivity: 1.0,
            shuffle_fetchers: 5,
            shuffle_cpu: 0.4,
            shuffle_merge_rate: 70.0,
            shuffle_barrier_boost: 1.5,
        }
        .validated()
    }

    /// A reduce-heavy synthetic profile (Terasort-like): shuffle equals
    /// input, heavy sort buffers. Thrashing knee near the default 3 slots.
    pub fn synthetic_reduce_heavy() -> JobProfile {
        JobProfile {
            name: "synthetic-reduce-heavy".into(),
            map_rate: 14.0,
            map_cpu: 4.2,
            map_threads: 4,
            map_mem: 2800.0,
            map_selectivity: 1.0,
            spill_weight: 0.5,
            sort_rate: 28.0,
            reduce_rate: 22.0,
            reduce_cpu: 3.0,
            reduce_threads: 3,
            reduce_mem: 3400.0,
            reduce_selectivity: 1.0,
            shuffle_fetchers: 5,
            shuffle_cpu: 0.6,
            shuffle_merge_rate: 12.0,
            shuffle_barrier_boost: 3.0,
        }
        .validated()
    }

    /// Panics if the profile is internally inconsistent. Builders call this
    /// so a bad catalog entry fails fast, at construction.
    pub fn validated(self) -> JobProfile {
        assert!(
            self.map_rate > 0.0,
            "{}: map_rate must be positive",
            self.name
        );
        assert!(
            self.sort_rate > 0.0,
            "{}: sort_rate must be positive",
            self.name
        );
        assert!(
            self.reduce_rate > 0.0,
            "{}: reduce_rate must be positive",
            self.name
        );
        assert!(
            self.map_selectivity >= 0.0,
            "{}: negative selectivity",
            self.name
        );
        assert!(
            self.shuffle_fetchers >= 1,
            "{}: need >=1 fetcher",
            self.name
        );
        assert!(
            self.shuffle_merge_rate > 0.0,
            "{}: shuffle_merge_rate must be positive",
            self.name
        );
        assert!(
            self.shuffle_barrier_boost >= 1.0,
            "{}: post-barrier shuffle cannot be slower than in-flight",
            self.name
        );
        self
    }
}

/// Fluent constructor for custom [`JobProfile`]s: starts from a neutral
/// medium-weight profile and validates on [`JobProfileBuilder::build`].
///
/// ```
/// use mapreduce::job::JobProfile;
///
/// let log_scan = JobProfile::builder("log-scan")
///     .map_rate(8.0)
///     .map_cpu(1.5)
///     .map_selectivity(0.01)
///     .build();
/// assert!(log_scan.map_selectivity < 0.05, "map-heavy");
/// ```
#[derive(Debug, Clone)]
pub struct JobProfileBuilder {
    profile: JobProfile,
}

impl JobProfile {
    /// Start building a custom profile from neutral medium-class defaults.
    pub fn builder(name: &str) -> JobProfileBuilder {
        JobProfileBuilder {
            profile: JobProfile {
                name: name.to_string(),
                map_rate: 5.0,
                map_cpu: 2.5,
                map_threads: 3,
                map_mem: 1800.0,
                map_selectivity: 0.5,
                spill_weight: 0.4,
                sort_rate: 30.0,
                reduce_rate: 24.0,
                reduce_cpu: 2.5,
                reduce_threads: 3,
                reduce_mem: 2400.0,
                reduce_selectivity: 1.0,
                shuffle_fetchers: 5,
                shuffle_cpu: 0.6,
                shuffle_merge_rate: 30.0,
                shuffle_barrier_boost: 2.5,
            },
        }
    }
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        impl JobProfileBuilder {
            $(
                $(#[$doc])*
                pub fn $field(mut self, v: $ty) -> Self {
                    self.profile.$field = v;
                    self
                }
            )*

            /// Validate and return the profile; panics on inconsistent
            /// settings (same checks as [`JobProfile::validated`]).
            pub fn build(self) -> JobProfile {
                self.profile.validated()
            }
        }
    };
}

builder_setters! {
    /// Input MB one map task consumes per second at full speed.
    map_rate: f64,
    /// CPU demand of one map task (cores' worth).
    map_cpu: f64,
    /// Runnable threads per map task.
    map_threads: u32,
    /// Resident set of one map task (MB).
    map_mem: f64,
    /// Map output MB per input MB.
    map_selectivity: f64,
    /// Extra map-side sort/spill work per output MB.
    spill_weight: f64,
    /// Post-barrier sort rate per reduce task (MB/s).
    sort_rate: f64,
    /// Final reduce rate per reduce task (MB/s).
    reduce_rate: f64,
    /// CPU demand of one reduce task during sort/reduce.
    reduce_cpu: f64,
    /// Runnable threads per reduce task outside shuffle.
    reduce_threads: u32,
    /// Resident set of one reduce task (MB).
    reduce_mem: f64,
    /// Final output MB per shuffled MB.
    reduce_selectivity: f64,
    /// Parallel fetch threads per reduce task during shuffle.
    shuffle_fetchers: u32,
    /// CPU demand of one reduce task while shuffling.
    shuffle_cpu: f64,
    /// In-flight per-reducer shuffle ingest cap (MB/s).
    shuffle_merge_rate: f64,
    /// Post-barrier multiplier on the ingest cap (T_r2 / T_r1).
    shuffle_barrier_boost: f64,
}

/// Most input blocks (map tasks) one job may have: 2^18, 128× the 2,048
/// of the largest committed workload (Grep at 1024 nodes). A block costs
/// the job tracker on the order of 150 bytes of layout, queue and index
/// state, so this caps one job's at tens of megabytes; the bound is what
/// stops a huge `input_mb` from exhausting memory (or, from 2^61 MB up,
/// never finishing) in [`dfs::NameNode::create_file`].
pub const MAX_MAP_BLOCKS: usize = 1 << 18;

/// Most reduce tasks one job may have: 2^16, 2,048× the 32 of the
/// largest committed workload. The pending-partition list is sized by it.
pub const MAX_REDUCES: usize = 1 << 16;

/// One job to run: a profile, an input size, a reduce count and a submit
/// time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    pub id: JobId,
    pub profile: JobProfile,
    /// Total input size (MB); split into 128 MB blocks ⇒ map tasks.
    pub input_mb: f64,
    /// Number of reduce tasks (the paper fixes 30 for the 16-node testbed).
    pub num_reduces: usize,
    /// Simulated submission instant.
    pub submit_at: SimTime,
}

impl JobSpec {
    pub fn new(
        id: usize,
        profile: JobProfile,
        input_mb: f64,
        num_reduces: usize,
        submit_at: SimTime,
    ) -> JobSpec {
        if let Err(e) = JobSpec::check_shape(input_mb, num_reduces) {
            panic!("{e}");
        }
        JobSpec {
            id: JobId(id),
            profile,
            input_mb,
            num_reduces,
            submit_at,
        }
    }

    /// Check an input size and reduce count as [`JobSpec::new`] does, but
    /// return the rejection instead of panicking: the check every
    /// submission from outside the program passes first. The input must
    /// be positive and finite, and there must be 1..=[`MAX_REDUCES`]
    /// reduces.
    pub fn check_shape(input_mb: f64, num_reduces: usize) -> Result<(), SimError> {
        if !input_mb.is_finite() || input_mb <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "job input must be positive and finite, got {input_mb} MB"
            )));
        }
        if num_reduces == 0 {
            return Err(SimError::InvalidConfig(
                "need at least one reduce task".into(),
            ));
        }
        if num_reduces > MAX_REDUCES {
            return Err(SimError::InvalidConfig(format!(
                "{num_reduces} reduce tasks exceed the limit of {MAX_REDUCES}"
            )));
        }
        Ok(())
    }

    /// [`JobSpec::check_shape`], plus the block count the input splits
    /// into at `block_mb` per block: at most [`MAX_MAP_BLOCKS`]. Every
    /// path that lays out a job's input checks this first.
    pub fn check_layout(input_mb: f64, num_reduces: usize, block_mb: f64) -> Result<(), SimError> {
        JobSpec::check_shape(input_mb, num_reduces)?;
        let blocks = (input_mb / block_mb).ceil();
        if blocks.is_nan() || blocks > MAX_MAP_BLOCKS as f64 {
            return Err(SimError::InvalidConfig(format!(
                "{input_mb} MB splits into {blocks} blocks of {block_mb} MB, above the limit \
                 of {MAX_MAP_BLOCKS}"
            )));
        }
        Ok(())
    }

    /// Expected total map-output (= shuffle) volume in MB.
    pub fn expected_shuffle_mb(&self) -> f64 {
        self.input_mb * self.profile.map_selectivity
    }

    /// Expected shuffle volume per reduce task in MB.
    pub fn expected_shuffle_per_reduce(&self) -> f64 {
        self.expected_shuffle_mb() / self.num_reduces as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_profiles_are_valid() {
        let m = JobProfile::synthetic_map_heavy();
        let r = JobProfile::synthetic_reduce_heavy();
        assert!(m.map_selectivity < 0.1, "map-heavy jobs shuffle little");
        assert!(r.map_selectivity >= 1.0 - 1e-9);
        assert!(m.map_cpu < r.map_cpu, "map-heavy tasks are lighter");
    }

    #[test]
    fn demands_reflect_profile() {
        let p = JobProfile::synthetic_reduce_heavy();
        let d = p.map_demand();
        assert_eq!(d.cpu_cores, p.map_cpu);
        assert_eq!(d.disk_read, p.map_rate);
        assert!((d.disk_write - p.map_rate * p.map_selectivity).abs() < 1e-12);
        let s = p.shuffle_demand();
        assert_eq!(s.threads, p.shuffle_fetchers);
        let rd = p.reduce_demand();
        assert_eq!(rd.mem_mb, p.reduce_mem);
    }

    #[test]
    fn job_spec_shuffle_estimates() {
        let j = JobSpec::new(
            0,
            JobProfile::synthetic_reduce_heavy(),
            3000.0,
            30,
            SimTime::ZERO,
        );
        assert!((j.expected_shuffle_mb() - 3000.0).abs() < 1e-9);
        assert!((j.expected_shuffle_per_reduce() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "input must be positive")]
    fn zero_input_rejected() {
        let _ = JobSpec::new(0, JobProfile::synthetic_map_heavy(), 0.0, 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one reduce")]
    fn zero_reduces_rejected() {
        let _ = JobSpec::new(0, JobProfile::synthetic_map_heavy(), 10.0, 0, SimTime::ZERO);
    }

    #[test]
    fn builder_round_trip() {
        let p = JobProfile::builder("custom")
            .map_rate(9.0)
            .map_cpu(1.2)
            .map_selectivity(0.05)
            .shuffle_merge_rate(50.0)
            .build();
        assert_eq!(p.name, "custom");
        assert_eq!(p.map_rate, 9.0);
        assert_eq!(p.map_cpu, 1.2);
        assert_eq!(p.shuffle_merge_rate, 50.0);
        // untouched fields keep defaults
        assert_eq!(p.shuffle_fetchers, 5);
    }

    #[test]
    #[should_panic(expected = "sort_rate")]
    fn builder_validates() {
        let _ = JobProfile::builder("bad").sort_rate(0.0).build();
    }

    #[test]
    #[should_panic(expected = "map_rate")]
    fn invalid_profile_rejected() {
        let mut p = JobProfile::synthetic_map_heavy();
        p.map_rate = 0.0;
        let _ = p.validated();
    }
}
