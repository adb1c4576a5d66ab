//! # sweepengine — batched multi-cell sweep execution
//!
//! Every sweep in this reproduction is a grid of independent *cells*
//! (policy × fault plan × load × seed points). The original harness ran
//! one OS thread per cell: fine for the paper's ~30-cell figures, hopeless
//! for 1000-cell policy tournaments — wall time and memory both scale with
//! grid size × thread count, and every cell pays full engine construction.
//!
//! This crate replaces that with a [`BatchedSweep`] executor:
//!
//! * a **bounded worker pool** — `available_parallelism` workers, each
//!   claiming the next unclaimed cell from a shared atomic cursor
//!   (self-scheduling work stealing: an idle worker always takes the next
//!   cell, so stragglers never serialise the grid);
//! * **arena-backed state reuse** — each worker owns one
//!   [`mapreduce::EngineArena`] and recycles the engine's scratch buffers
//!   through it, cell after cell, instead of reallocating per cell;
//! * **double-buffered result slots** — every cell has its own
//!   write-once slot ([`std::sync::OnceLock`]), so a finished cell hands
//!   its `RunReport` off without taking any lock the pool contends on
//!   and immediately claims the next cell;
//! * **deterministic failure attribution** — a panicking cell never tears
//!   down the pool mid-grid; every panic is caught and recorded, and
//!   after the grid drains the executor re-raises the lowest-indexed one
//!   tagged with (system, cell index, trial seed).
//!
//! Cell results are byte-identical to the thread-per-cell path: workers
//! only decide *when* a cell runs, never *what* it computes, and arenas
//! hand out buffers reset to exactly the state a fresh allocation would
//! have. The cross-worker-count determinism suite in
//! `tests/sweep_determinism.rs` pins this down.

mod pool;

pub use pool::{BatchedSweep, SweepCell, SweepOutcome, SweepStats};

/// Best-effort extraction of a panic payload's message — the one shared
/// implementation for pool workers and the harness's per-trial wrappers.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_handles_both_string_forms() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(p.as_ref()), "owned");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
