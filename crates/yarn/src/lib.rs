//! # yarn — the container-based baseline (Hadoop 2 / YARN)
//!
//! YARN replaces HadoopV1's statically partitioned map/reduce slots with
//! resource *containers*: a resource manager hands out memory/vcore leases,
//! node managers run a task per container, and a per-job application
//! master requests map containers at higher priority than reduce
//! containers. The paper evaluates against YARN configured "to be able to
//! run 3 map containers and 2 reduce containers concurrently" — i.e. the
//! same nominal concurrency as HadoopV1, but with the budget shared
//! flexibly.
//!
//! Per the paper's own uniformity note (§II-A: "we use the *slot* to denote
//! the slot in HadoopV1 and the container in YARN"), the baseline is
//! implemented as a [`mapreduce::policy::SlotPolicy`] over the same engine:
//! [`capacity`] is the capacity scheduler with map priority as a dynamic
//! per-heartbeat targets rule. The policy takes the initial map and
//! reduce slot counts directly — the "3 map containers and 2 reduce
//! containers" the paper configures — so no memory/vcore sizing model
//! stands between them.
//!
//! What this baseline deliberately lacks — thrashing detection and
//! map/shuffle balancing — is exactly what `smapreduce` adds.
//!
//! ```
//! use mapreduce::{Engine, EngineConfig, JobProfile, JobSpec};
//! use yarn::CapacityPolicy;
//! use simgrid::SimTime;
//!
//! let cfg = EngineConfig::small_test(4, 7);
//! let job = JobSpec::new(0, JobProfile::synthetic_map_heavy(), 2048.0, 8, SimTime::ZERO);
//! let report = Engine::new(cfg).run(vec![job], &mut CapacityPolicy).unwrap();
//! assert_eq!(report.policy, "YARN");
//! ```

pub mod capacity;

pub use capacity::{capacity_targets, CapacityPolicy, NodeTargets};
