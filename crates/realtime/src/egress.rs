//! Egress: epoch-stamped per-tenant observation frames.
//!
//! One [`FrameCell`] per tenant holds the latest published
//! [`ObservationFrame`] behind an `Arc`. The contract is asymmetric by
//! design:
//!
//! - **The tick thread never blocks.** Publishing uses `try_lock`; if a
//!   reader holds the slot mid-clone, the publish is *skipped* (counted in
//!   [`ObservationPool::publish_skips`]) and retried next tick, bounding
//!   reader-induced staleness at one tick per contended publish without
//!   ever stalling the simulation.
//! - **Readers always see a complete frame.** A reader takes the slot lock
//!   only long enough to clone the `Arc`; the frame behind it is immutable
//!   and carries its own epoch and a checksum over its content, so any
//!   torn or partially-initialised observation is detectable (and the
//!   stress test proves none occur).
//!
//! Reclamation is epoch-style without unsafe code: the writer takes the
//! replaced `Arc` back, and once the last reader clone is gone
//! (`Arc::try_unwrap` succeeds) the frame body — with its job/node vector
//! capacity — returns to a [`FramePool`] owned by the tick thread, so
//! steady-state publishing allocates only the `Arc` control block.

use mapreduce::{fold_hash, EngineObservation};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One published per-tenant observation: everything a client needs to
/// render the tenant's live state and to verify a replay offline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservationFrame {
    /// Tenant this frame observes.
    pub tenant: usize,
    /// Tenant display name.
    pub name: String,
    /// System label driving the tenant ("HadoopV1", "SMapReduce", …).
    pub system: String,
    /// Per-tenant publish sequence number, starting at 1 (0 marks the
    /// placeholder frame installed before the first publish).
    pub epoch: u64,
    /// Service tick the frame was published at.
    pub tick: u64,
    /// Tenant is paused (its sim clock is frozen).
    pub paused: bool,
    /// The tenant's run died with this engine error (it no longer
    /// advances; the frame is its last known state).
    pub error: Option<String>,
    /// Human-readable slot-target changes since the previous frame — the
    /// policy's recent decisions as seen from the trackers.
    pub recent_decisions: Vec<String>,
    /// The engine-state projection: sim clock, rolling state hash, job
    /// progress, per-node slot split and utilization.
    pub obs: EngineObservation,
    /// Checksum over the frame content (see
    /// [`ObservationFrame::compute_checksum`]); readers re-compute it to
    /// prove they observed a complete, untorn frame.
    pub checksum: u64,
}

impl ObservationFrame {
    fn placeholder(tenant: usize, name: &str, system: &str) -> ObservationFrame {
        let mut f = ObservationFrame {
            tenant,
            name: name.to_string(),
            system: system.to_string(),
            epoch: 0,
            tick: 0,
            paused: false,
            error: None,
            recent_decisions: Vec::new(),
            obs: EngineObservation {
                at_ms: 0,
                steps: 0,
                state_hash: 0,
                heartbeat_rounds: 0,
                slot_changes: 0,
                all_finished: false,
                jobs: Vec::new(),
                nodes: Vec::new(),
            },
            checksum: 0,
        };
        f.checksum = f.compute_checksum();
        f
    }

    /// Fold the frame's observable content into one u64. Covers every
    /// field a torn write could leave inconsistent: identity, epoch, the
    /// engine projection's scalars, and the shape and contents of the
    /// job/node vectors.
    pub fn compute_checksum(&self) -> u64 {
        let mut h = fold_hash(0x6672616d65_u64, self.tenant as u64); // "frame"
        h = fold_hash(h, self.epoch);
        h = fold_hash(h, self.tick);
        h = fold_hash(h, self.paused as u64);
        h = fold_hash(h, self.error.is_some() as u64);
        h = fold_hash(h, self.recent_decisions.len() as u64);
        h = fold_hash(h, self.obs.at_ms);
        h = fold_hash(h, self.obs.steps);
        h = fold_hash(h, self.obs.state_hash);
        h = fold_hash(h, self.obs.heartbeat_rounds);
        h = fold_hash(h, self.obs.slot_changes);
        h = fold_hash(h, self.obs.jobs.len() as u64);
        for j in &self.obs.jobs {
            h = fold_hash(h, j.id as u64 ^ ((j.completed_maps as u64) << 20));
            h = fold_hash(h, j.completed_reduces as u64 ^ ((j.finished as u64) << 63));
            h = fold_hash(h, j.progress_pct.to_bits());
        }
        h = fold_hash(h, self.obs.nodes.len() as u64);
        for n in &self.obs.nodes {
            h = fold_hash(
                h,
                (n.map_target as u64)
                    ^ ((n.reduce_target as u64) << 16)
                    ^ ((n.map_occupied as u64) << 32)
                    ^ ((n.reduce_occupied as u64) << 48)
                    ^ ((n.up as u64) << 63),
            );
        }
        h
    }

    /// The checksum field matches the recomputed content checksum.
    pub fn is_consistent(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

/// Free pool of reclaimed frame bodies, owned by the tick thread. Not a
/// shared structure: reclamation happens on the publishing side only.
#[derive(Debug, Default)]
pub struct FramePool {
    free: Vec<ObservationFrame>,
    /// Frames whose buffers were reused from a reclaimed predecessor.
    pub reclaimed: u64,
    /// Frames built fresh (first publishes, or readers still held every
    /// previous frame).
    pub fresh: u64,
}

/// Bound on pooled bodies: enough for every tenant's previous frame in a
/// large service, small enough that an idle pool holds no real memory.
const FRAME_POOL_CAP: usize = 4096;

impl FramePool {
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// A frame body to fill: a reclaimed one (buffers retained, content
    /// cleared) when available, otherwise a fresh placeholder.
    pub fn take(&mut self) -> ObservationFrame {
        match self.free.pop() {
            Some(mut f) => {
                self.reclaimed += 1;
                f.name.clear();
                f.system.clear();
                f.error = None;
                f.recent_decisions.clear();
                f.obs.jobs.clear();
                f.obs.nodes.clear();
                f
            }
            None => {
                self.fresh += 1;
                ObservationFrame::placeholder(usize::MAX, "", "")
            }
        }
    }

    /// Return a reclaimed body to the pool.
    pub fn put(&mut self, frame: ObservationFrame) {
        if self.free.len() < FRAME_POOL_CAP {
            self.free.push(frame);
        }
    }
}

/// One tenant's double-buffered publish slot: the current frame behind a
/// mutex the writer only ever `try_lock`s, plus a lock-free epoch stamp
/// readers can poll without touching the slot at all.
#[derive(Debug)]
pub struct FrameCell {
    epoch: AtomicU64,
    slot: Mutex<Arc<ObservationFrame>>,
    skipped: AtomicU64,
}

impl FrameCell {
    fn new(tenant: usize, name: &str, system: &str) -> FrameCell {
        FrameCell {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(ObservationFrame::placeholder(
                tenant, name, system,
            ))),
            skipped: AtomicU64::new(0),
        }
    }

    /// Last published epoch (0 until the first publish lands).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes skipped because a reader held the slot at publish time.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Clone out the current frame. Readers may block briefly on *each
    /// other* here, never on the writer (whose critical section is one
    /// pointer swap, and who skips rather than waits).
    pub fn read(&self) -> Arc<ObservationFrame> {
        self.slot.lock().expect("frame slot poisoned").clone()
    }

    /// Hold the slot the way a slow reader would: every publish skips
    /// until the guard drops.
    #[cfg(test)]
    pub(crate) fn hold(&self) -> std::sync::MutexGuard<'_, Arc<ObservationFrame>> {
        self.slot.lock().expect("frame slot poisoned")
    }

    /// Writer side: install `frame`, reclaiming the replaced frame's body
    /// into `pool` if no reader still holds it. Returns `false` (and
    /// reclaims `frame` itself) when a reader held the slot — the tick
    /// thread moves on immediately and retries next tick.
    pub(crate) fn publish(&self, frame: Arc<ObservationFrame>, pool: &mut FramePool) -> bool {
        let epoch = frame.epoch;
        match self.slot.try_lock() {
            Ok(mut slot) => {
                let old = std::mem::replace(&mut *slot, frame);
                drop(slot);
                self.epoch.store(epoch, Ordering::Release);
                if let Ok(body) = Arc::try_unwrap(old) {
                    pool.put(body);
                }
                true
            }
            Err(_) => {
                self.skipped.fetch_add(1, Ordering::Relaxed);
                if let Ok(body) = Arc::try_unwrap(frame) {
                    pool.put(body);
                }
                false
            }
        }
    }
}

/// The service's reader-facing surface: one [`FrameCell`] per tenant,
/// indexed by tenant id. Registration happens only on the tick thread;
/// readers take the registry read-lock for a cell lookup and then operate
/// on the cell alone.
#[derive(Debug, Default)]
pub struct ObservationPool {
    cells: RwLock<Vec<Arc<FrameCell>>>,
}

impl ObservationPool {
    pub fn new() -> ObservationPool {
        ObservationPool::default()
    }

    /// Register tenant `id`'s cell (tick thread only; ids are dense).
    pub(crate) fn register(&self, id: usize, name: &str, system: &str) -> Arc<FrameCell> {
        let mut cells = self.cells.write().expect("observation registry poisoned");
        debug_assert_eq!(cells.len(), id, "tenant ids must register densely");
        let cell = Arc::new(FrameCell::new(id, name, system));
        cells.push(cell.clone());
        cell
    }

    /// The cell of tenant `id`, if registered.
    pub fn cell(&self, id: usize) -> Option<Arc<FrameCell>> {
        self.cells
            .read()
            .expect("observation registry poisoned")
            .get(id)
            .cloned()
    }

    /// Latest frame of tenant `id`, if registered.
    pub fn frame(&self, id: usize) -> Option<Arc<ObservationFrame>> {
        self.cell(id).map(|c| c.read())
    }

    /// Registered tenant count.
    pub fn len(&self) -> usize {
        self.cells
            .read()
            .expect("observation registry poisoned")
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total publishes skipped across all tenants because a reader held a
    /// slot — the price of the never-block-the-writer rule, bounded at
    /// one tick of staleness each.
    pub fn publish_skips(&self) -> u64 {
        self.cells
            .read()
            .expect("observation registry poisoned")
            .iter()
            .map(|c| c.skipped())
            .sum()
    }
}
