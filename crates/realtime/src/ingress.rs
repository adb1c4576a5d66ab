//! Ingress: the MPSC command queue into the tick thread.
//!
//! Commands are *never* applied by the calling thread: they queue here and
//! the tick thread applies the whole backlog at the next tick boundary, in
//! arrival order, before advancing anyone. That single rule is what makes
//! the service deterministic — tenant state is touched by exactly one
//! thread, and a recorded `(tick, command)` script is a complete causal
//! history ([`crate::script::IngressScript`]).
//!
//! Every command carries a reply slot; senders block until their command
//! was applied (at most one tick interval plus queue drain), and the delay
//! between enqueue and apply is the **command-to-apply latency** whose
//! quantiles `ServiceSummary::latency_quantile_us` reports.

use serde::{Deserialize, Serialize};
use std::sync::mpsc::SyncSender;
use std::time::Instant;

/// Dense tenant index, assigned by `CreateTenant` in arrival order.
pub type TenantId = usize;

/// One ingress command. Everything is plain serializable data — the same
/// type is recorded into ingress scripts and replayed offline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Boot a new tenant cluster: `workers` nodes, deterministic `seed`,
    /// driven by the policy of system label `system`. The cluster idles
    /// (sim clock frozen at 0) until its first `SubmitJob`.
    CreateTenant {
        name: String,
        workers: usize,
        seed: u64,
        system: String,
    },
    /// Submit one PUMA job against a live tenant: `bench` is a
    /// [`workloads::puma::Puma`] benchmark name ("grep", "terasort", …).
    /// The job enters the tenant's DFS and scheduler at the tenant's
    /// current sim instant.
    SubmitJob {
        tenant: TenantId,
        bench: String,
        input_mb: f64,
        num_reduces: usize,
    },
    /// Schedule a node crash `after_ms` of sim time (strictly positive)
    /// past the tenant's current sim instant; `downtime_ms` of `None`
    /// means the node never rejoins.
    InjectFault {
        tenant: TenantId,
        node: usize,
        after_ms: u64,
        downtime_ms: Option<u64>,
    },
    /// Freeze the tenant's sim clock (commands still apply while paused).
    Pause { tenant: TenantId },
    /// Unfreeze a paused tenant.
    Resume { tenant: TenantId },
    /// Write the tenant's current capsule under `dir` (binary format) via
    /// the checkpoint crate — the saved file resumes under every existing
    /// `reproduce resume`/`fingerprint` surface.
    Snapshot { tenant: TenantId, dir: String },
    /// Stop the tick thread after applying the backlog; the service
    /// summary (and recorded script) is returned to whoever joins.
    Shutdown,
}

impl Command {
    /// The tenant the command addresses, if any.
    pub fn tenant(&self) -> Option<TenantId> {
        match self {
            Command::CreateTenant { .. } | Command::Shutdown => None,
            Command::SubmitJob { tenant, .. }
            | Command::InjectFault { tenant, .. }
            | Command::Pause { tenant }
            | Command::Resume { tenant }
            | Command::Snapshot { tenant, .. } => Some(*tenant),
        }
    }
}

/// Successful application of one command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    TenantCreated { tenant: TenantId },
    JobSubmitted { tenant: TenantId, job: usize },
    FaultInjected { tenant: TenantId, at_ms: u64 },
    Paused { tenant: TenantId },
    Resumed { tenant: TenantId },
    Snapshotted { tenant: TenantId, path: String },
    ShuttingDown,
}

/// A command in flight: the payload plus its enqueue instant (for the
/// apply-latency measurement) and the sender's reply slot.
pub(crate) struct Envelope {
    pub cmd: Command,
    pub issued: Instant,
    pub reply: SyncSender<Result<Reply, String>>,
}
