//! Recorded ingress scripts and their offline replay.
//!
//! A live run records every *successfully applied* command as a
//! `(tick, command)` pair, plus one [`TickHash`] per tenant for every tick
//! the tenant advanced or absorbed a command. Because commands only apply
//! at tick boundaries and the sim quantum is a fixed constant of the run,
//! that script is a complete causal history: [`IngressScript::replay`]
//! re-runs it single-threaded — no tick thread, no wall clock, no
//! channels — through the *same* [`crate::service::TenantCore`] logic the
//! live service used, and must land on the exact rolling state hashes the
//! live run published. A replay mismatch means nondeterminism leaked in
//! (wall time, thread scheduling, allocation order), and the determinism
//! test treats it as a hard failure.

use crate::ingress::Command;
use crate::service::TenantCore;
use mapreduce::EngineArena;
use serde::{Deserialize, Serialize};
use simgrid::time::SimDuration;
use std::path::Path;
use telemetry::Telemetry;

/// One command the live run applied, stamped with the tick that applied
/// it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptedCommand {
    pub tick: u64,
    pub cmd: Command,
}

/// One point of a tenant's rolling-hash trace: the tenant's sim clock and
/// state hash at the end of service tick `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickHash {
    pub tick: u64,
    pub at_ms: u64,
    pub hash: u64,
}

/// The recorded trace of one tenant across the live run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTrace {
    pub tenant: usize,
    /// Engine error that killed the tenant, if any (replay must reproduce
    /// it too).
    pub error: Option<String>,
    /// State hash at shutdown (0 if the tenant never booted or died).
    pub final_hash: u64,
    pub hashes: Vec<TickHash>,
}

/// A complete recorded run: enough to reproduce every tenant's trajectory
/// offline, and the recorded trajectories to verify against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngressScript {
    /// Fixed sim quantum (ms) every tick advanced ready tenants by.
    pub quantum_ms: u64,
    /// Total ticks the live run executed.
    pub ticks: u64,
    /// Per-tenant sim horizon the live service configured (ms).
    pub sim_horizon_ms: u64,
    /// Every applied command, in application order.
    pub commands: Vec<ScriptedCommand>,
    /// Recorded per-tenant hash traces.
    pub traces: Vec<TenantTrace>,
}

/// Result of replaying a script against its recorded traces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Every replayed trace matched its recording exactly.
    pub verified: bool,
    pub tenants: usize,
    /// Total hash points compared.
    pub points_checked: usize,
    /// Human-readable descriptions of every divergence.
    pub mismatches: Vec<String>,
}

impl IngressScript {
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())
    }

    pub fn load(path: &Path) -> Result<IngressScript, String> {
        let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        serde_json::from_str(&json).map_err(|e| e.to_string())
    }

    /// Re-run the script single-threaded and compare every tenant's
    /// rolling hash trace against the recording.
    ///
    /// The loop body is the live tick loop minus everything concurrent:
    /// apply this tick's commands in order, advance every ready tenant by
    /// the fixed quantum, record a hash for each tenant that advanced or
    /// absorbed a command. `Snapshot` replays as a pure no-op (it never
    /// mutates tenant state) and `Shutdown` needs no handling at all —
    /// the live loop completes the shutdown tick normally before
    /// stopping, so the recorded tick count already covers it.
    pub fn replay(&self) -> ReplayOutcome {
        let telem = Telemetry::disabled();
        let mut arena = EngineArena::new();
        let horizon = SimDuration::from_millis(self.sim_horizon_ms);
        let mut tenants: Vec<TenantCore> = Vec::new();
        let mut traces: Vec<Vec<TickHash>> = Vec::new();
        let mut mismatches: Vec<String> = Vec::new();
        let mut cursor = 0usize;

        for tick in 0..self.ticks {
            let mut touched: Vec<bool> = vec![false; tenants.len()];
            while cursor < self.commands.len() && self.commands[cursor].tick == tick {
                let cmd = &self.commands[cursor].cmd;
                cursor += 1;
                let applied = match cmd {
                    Command::CreateTenant {
                        name,
                        workers,
                        seed,
                        system,
                    } => {
                        tenants.push(TenantCore::new(
                            name.clone(),
                            system.clone(),
                            *workers,
                            *seed,
                            horizon,
                        ));
                        traces.push(Vec::new());
                        touched.push(true);
                        Ok(())
                    }
                    Command::Shutdown => Ok(()),
                    // state no-op in replay: a live snapshot only reads
                    Command::Snapshot { tenant, .. } if *tenant < tenants.len() => {
                        touched[*tenant] = true;
                        Ok(())
                    }
                    _ => match cmd
                        .tenant()
                        .and_then(|id| Some(id).zip(tenants.get_mut(id)))
                    {
                        Some((id, t)) => t.apply(id, cmd).map(|_| touched[id] = true),
                        None => Err("no such tenant".into()),
                    },
                };
                if let Err(e) = applied {
                    mismatches.push(format!(
                        "tick {tick}: recorded command failed on replay: {e} ({cmd:?})"
                    ));
                }
            }

            for (i, tenant) in tenants.iter_mut().enumerate() {
                let advanced = if tenant.ready() {
                    tenant.advance(self.quantum_ms, &telem, &mut arena)
                } else {
                    false
                };
                if advanced || touched[i] {
                    if let Some(point) = tenant.hash_point(tick) {
                        traces[i].push(point);
                    }
                }
            }
        }

        let mut points_checked = 0usize;
        if tenants.len() != self.traces.len() {
            mismatches.push(format!(
                "replay created {} tenants, recording has {}",
                tenants.len(),
                self.traces.len()
            ));
        }
        for recorded in &self.traces {
            let i = recorded.tenant;
            let Some(tenant) = tenants.get(i) else {
                mismatches.push(format!("tenant {i}: missing from replay"));
                continue;
            };
            let replayed = traces.get(i).cloned().unwrap_or_default();
            if replayed.len() != recorded.hashes.len() {
                mismatches.push(format!(
                    "tenant {i}: replay recorded {} hash points, live recorded {}",
                    replayed.len(),
                    recorded.hashes.len()
                ));
            }
            for (a, b) in replayed.iter().zip(&recorded.hashes) {
                points_checked += 1;
                if a != b {
                    mismatches.push(format!(
                        "tenant {i} tick {}: replay hash {:#018x} at {} ms, live {:#018x} at {} ms",
                        b.tick, a.hash, a.at_ms, b.hash, b.at_ms
                    ));
                }
            }
            let final_hash = tenant.final_hash();
            points_checked += 1;
            if final_hash != recorded.final_hash {
                mismatches.push(format!(
                    "tenant {i}: replay final hash {final_hash:#018x}, live {:#018x}",
                    recorded.final_hash
                ));
            }
            if tenant.error != recorded.error {
                mismatches.push(format!(
                    "tenant {i}: replay error {:?}, live {:?}",
                    tenant.error, recorded.error
                ));
            }
        }

        // cap the report so a systemic divergence stays readable
        const MAX_MISMATCHES: usize = 32;
        let truncated = mismatches.len().saturating_sub(MAX_MISMATCHES);
        mismatches.truncate(MAX_MISMATCHES);
        if truncated > 0 {
            mismatches.push(format!("... and {truncated} more"));
        }

        ReplayOutcome {
            verified: mismatches.is_empty(),
            tenants: tenants.len(),
            points_checked,
            mismatches,
        }
    }
}
