//! Live multi-tenant cluster-emulation service.
//!
//! Every driver below this crate is batch: a grid of cells runs to
//! completion and prints tables. This crate turns the simulator into a
//! long-running **service**: many concurrent *tenant* clusters advance on
//! a background tick thread, clients submit PUMA jobs (and faults, and
//! pauses) against live clusters through an ingress queue, and watch slot
//! decisions unfold through an egress observation pool — the paper's
//! *runtime* slot management actually exercised at runtime.
//!
//! Three moving parts, one invariant each:
//!
//! - **Tick thread** ([`service`]): wall-clock paced with a configurable
//!   time-dilation factor. Each tick drains the ingress queue (commands
//!   apply *only* at tick boundaries), advances every ready tenant by a
//!   **fixed sim quantum** through `sweepengine`'s worker pool with
//!   per-worker [`mapreduce::EngineArena`] recycling, and publishes
//!   observation frames. The quantum is fixed — never derived from wall
//!   jitter — so the whole run is a deterministic function of the ingress
//!   script: the same commands at the same ticks replay to the same
//!   per-tenant rolling state hashes, offline, with no threads at all
//!   ([`script::IngressScript::replay`]).
//! - **Ingress** ([`ingress`]): an MPSC command queue. Senders block only
//!   until the tick boundary that applies their command, which is also
//!   exactly the command-to-apply latency the bench reports.
//! - **Egress** ([`egress`]): per-tenant epoch-stamped frame slots. The
//!   tick thread publishes with `try_lock` — it *provably never blocks* on
//!   readers (a contended slot skips that tick's publish, counted, retried
//!   next tick) — and reclaims the previous frame's buffers through
//!   `Arc::try_unwrap` into a free pool once the last reader drops it.
//!
//! Tenants are **resident runs**: each holds a [`mapreduce::Run`] — its
//! state plus the policy bound to it once at boot — and every tick steps
//! it in place to a bounded sim target ([`mapreduce::Run::advance_until`]).
//! Nothing is cloned or encoded per tick; only the `snapshot` command
//! captures a capsule ([`mapreduce::Run::capture`]), which resumes under
//! the checkpoint machinery. An advance never holds locks the egress side
//! could contend on.

pub mod egress;
pub mod ingress;
pub mod script;
pub mod service;
pub mod wire;

pub use egress::{FramePool, ObservationFrame, ObservationPool};
pub use ingress::{Command, Reply, TenantId};
pub use script::{IngressScript, ReplayOutcome, ScriptedCommand, TenantTrace, TickHash};
pub use service::{
    RealtimeService, ServiceConfig, ServiceHandle, ServiceStats, ServiceSummary, TenantSummary,
};

use mapreduce::policy::SlotPolicy;
use mapreduce::policy::StaticSlotPolicy;
use smapreduce::{HeteroSlotManagerPolicy, SlotManagerPolicy};
use yarn::CapacityPolicy;

/// A fresh policy instance for a system label, mirroring the harness's
/// system registry (this crate sits below the harness, so it resolves
/// labels itself). Labels are the same strings capsules record.
pub fn policy_for(label: &str) -> Option<Box<dyn SlotPolicy>> {
    match label {
        "HadoopV1" => Some(Box::new(StaticSlotPolicy)),
        "YARN" => Some(Box::new(CapacityPolicy)),
        "SMapReduce" => Some(Box::new(SlotManagerPolicy::paper_default())),
        "SMapReduce-hetero" => Some(Box::new(HeteroSlotManagerPolicy::paper_default())),
        _ => None,
    }
}

/// The system labels [`policy_for`] resolves.
pub const SYSTEM_LABELS: [&str; 4] = ["HadoopV1", "YARN", "SMapReduce", "SMapReduce-hetero"];
