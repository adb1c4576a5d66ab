//! # simgrid — deterministic cluster simulation substrate
//!
//! This crate provides the resource-level substrate on which the MapReduce
//! framework, the YARN baseline and SMapReduce itself run. It models, per
//! simulated node: CPU time-slicing (with a context-switch overhead that
//! grows superlinearly once runnable threads exceed the core count), a
//! shared local disk, memory oversubscription (paging penalty) and a network
//! interface; and, across nodes, a switched fabric allocating bandwidth to
//! flows with max-min fairness plus a receiver-side *incast* penalty.
//!
//! The combination of the CPU/memory/disk penalties is what produces the
//! *thrashing* curve of the paper's Fig. 1: total task throughput on a node
//! rises roughly linearly with concurrency, flattens when a resource
//! saturates, and then falls as scheduling and paging overheads dominate.
//!
//! Everything is advanced in fixed discrete ticks ([`time::SimTime`],
//! milliseconds) and is fully deterministic for a given seed
//! ([`rng::SimRng`]).
//!
//! ## Quick tour
//!
//! ```
//! use simgrid::node::{NodeSpec, TaskDemand, allocate_node};
//!
//! let node = NodeSpec::paper_worker();
//! // Four identical CPU-hungry tasks on one node:
//! let demand = TaskDemand { cpu_cores: 4.0, threads: 3, mem_mb: 1800.0,
//!                           disk_read: 30.0, disk_write: 10.0 };
//! let demands = vec![demand; 4];
//! let scales = allocate_node(&node, &demands);
//! assert_eq!(scales.len(), 4);
//! assert!(scales.iter().all(|s| *s > 0.0 && *s <= 1.0));
//! ```

pub mod cluster;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod node;
pub mod rng;
pub mod time;
pub mod usage;

pub use cluster::{ClusterSpec, NodeId};
pub use error::SimError;
pub use fault::{FaultPlan, NodeFault};
pub use network::{Fabric, FabricConfig, FabricScratch, Flow, FlowId};
pub use node::{allocate_node, NodeScales, NodeSpec, TaskDemand};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime, TickConfig};
pub use usage::{NodeUsageSampler, NodeUtilization};
