//! The bounded worker pool and its cell protocol.

use crate::panic_message;
use mapreduce::{EngineArena, RunReport};
use simgrid::error::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// One independent unit of sweep work. Implementations hold everything
/// the cell needs (config, jobs, the system to run) and
/// produce a fully audited `RunReport` when driven by a pool worker.
///
/// `system` and `seed` exist purely for failure attribution: when a cell
/// panics, the executor re-raises with both attached so a 1000-cell grid
/// failure names the exact cell that died.
pub trait SweepCell: Sync {
    /// Label of the system this cell runs (e.g. `"SMapReduce"`).
    fn system(&self) -> &str;
    /// The trial seed this cell runs under.
    fn seed(&self) -> u64;
    /// Execute the cell, drawing scratch allocations from `arena`.
    fn run(&self, arena: &mut EngineArena) -> Result<RunReport, SimError>;
}

/// Aggregate execution metrics of one [`BatchedSweep::run`] call.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Cells in the grid.
    pub cells: usize,
    /// Workers the pool actually used (`min(bound, cells)`).
    pub workers: usize,
    /// Most cells ever simultaneously in flight — bounded by `workers`,
    /// unlike the thread-per-cell path where it equalled the grid size.
    pub peak_resident_cells: usize,
    /// Arena buffer growths summed over all workers (checkout resizes +
    /// in-run growth); flat once every worker saw each cell shape once.
    pub arena_growth_events: u64,
    /// Cells that ran out of a recycled arena. Each worker's first cell
    /// allocates its arena fresh and is excluded, so this sits between
    /// `cells - workers` (every worker claimed a cell) and `cells - 1`
    /// (one worker claimed the whole grid).
    pub arena_cells_recycled: u64,
}

/// The reports of a finished grid, in cell order, plus [`SweepStats`].
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-cell results, indexed exactly like the input grid.
    pub reports: Vec<Result<RunReport, SimError>>,
    pub stats: SweepStats,
}

/// A recorded worker panic, held until the grid drains.
struct CellPanic {
    index: usize,
    system: String,
    seed: u64,
    message: String,
}

/// Bounded-pool executor for sweep grids. See the crate docs for the
/// execution model.
#[derive(Debug, Clone)]
pub struct BatchedSweep {
    workers: usize,
}

impl BatchedSweep {
    /// A pool sized to the machine: `available_parallelism` workers
    /// (falling back to 1 when the count is unavailable).
    pub fn auto() -> BatchedSweep {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchedSweep::with_workers(workers)
    }

    /// A pool with an explicit worker bound (clamped to at least 1) —
    /// the determinism suite runs the same grid at 1, 2, and N workers.
    pub fn with_workers(workers: usize) -> BatchedSweep {
        BatchedSweep {
            workers: workers.max(1),
        }
    }

    /// The configured worker bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drive every cell to completion and return reports in cell order.
    ///
    /// Results are independent of the worker count and claim order: each
    /// cell is a pure function of its own inputs, writes its result into
    /// its own slot, and recycled arena buffers are indistinguishable
    /// from fresh ones.
    ///
    /// If any cell panicked, the panic with the lowest cell index is
    /// re-raised (deterministically, however many workers raced) as
    /// `"{system} cell {index} with trial seed {seed} panicked: {msg}"`.
    /// Drive a batch of **mutable** tasks through the pool once and return
    /// `f`'s results in task order — the realtime service's per-tick
    /// primitive, where each "cell" is a long-lived tenant advanced in
    /// place rather than a pure run-to-completion job.
    ///
    /// Each task is claimed by exactly one worker (atomic cursor, same
    /// claim protocol as [`BatchedSweep::run`]) which takes its lock
    /// uncontended and gets `&mut T` plus that worker's recycled
    /// [`EngineArena`]. Small batches skip thread spawning entirely: with
    /// one effective worker or one task the batch runs inline on the
    /// caller's thread against `inline_arena`, so a lightly-loaded tick
    /// pays no synchronisation at all.
    ///
    /// Panics re-raise like [`BatchedSweep::run`]: the lowest-index
    /// panicking task wins deterministically, labelled
    /// `"batch task {index} panicked: {msg}"`.
    pub fn run_mut<T, R, F>(&self, tasks: &mut [T], inline_arena: &mut EngineArena, f: F) -> Vec<R>
    where
        T: Send,
        R: Send + Sync,
        F: Fn(usize, &mut T, &mut EngineArena) -> R + Sync,
    {
        let n = tasks.len();
        let workers = self.workers.min(n).max(1);
        if workers == 1 {
            return tasks
                .iter_mut()
                .enumerate()
                .map(|(i, t)| f(i, t, inline_arena))
                .collect();
        }
        let cells: Vec<Mutex<&mut T>> = tasks.iter_mut().map(Mutex::new).collect();
        let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut arena = EngineArena::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut task = cells[i].try_lock().expect("task claimed exactly once");
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| f(i, &mut task, &mut arena)));
                        match outcome {
                            Ok(result) => {
                                let _ = slots[i].set(result);
                            }
                            Err(payload) => panics
                                .lock()
                                .expect("panic log")
                                .push((i, panic_message(payload.as_ref()))),
                        }
                    }
                });
            }
        });
        let mut panics = panics.into_inner().expect("panic log");
        if !panics.is_empty() {
            panics.sort_by_key(|&(i, _)| i);
            let (i, msg) = &panics[0];
            std::panic::panic_any(format!("batch task {i} panicked: {msg}"));
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every claimed task published a result")
            })
            .collect()
    }

    pub fn run<C: SweepCell>(&self, cells: &[C]) -> SweepOutcome {
        let n = cells.len();
        let workers = self.workers.min(n).max(1);
        // one write-once slot per cell: finished cells publish here and
        // move straight on, nothing joins until the whole grid drains
        let slots: Vec<OnceLock<Result<RunReport, SimError>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let growth = AtomicU64::new(0);
        let recycled = AtomicU64::new(0);
        let panics: Mutex<Vec<CellPanic>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // one arena per worker, recycled across every cell
                    // this worker claims
                    let mut arena = EngineArena::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let now = resident.fetch_add(1, Ordering::Relaxed) + 1;
                        peak.fetch_max(now, Ordering::Relaxed);
                        let outcome = catch_unwind(AssertUnwindSafe(|| cells[i].run(&mut arena)));
                        resident.fetch_sub(1, Ordering::Relaxed);
                        match outcome {
                            Ok(result) => {
                                let _ = slots[i].set(result);
                            }
                            Err(payload) => panics.lock().expect("panic log").push(CellPanic {
                                index: i,
                                system: cells[i].system().to_string(),
                                seed: cells[i].seed(),
                                message: panic_message(payload.as_ref()),
                            }),
                        }
                    }
                    growth.fetch_add(arena.growth_events(), Ordering::Relaxed);
                    recycled.fetch_add(arena.cells_recycled(), Ordering::Relaxed);
                });
            }
        });

        let mut panics = panics.into_inner().expect("panic log");
        if !panics.is_empty() {
            panics.sort_by_key(|p| p.index);
            let p = &panics[0];
            std::panic::panic_any(format!(
                "{} cell {} with trial seed {} panicked: {}",
                p.system, p.index, p.seed, p.message
            ));
        }
        let reports = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every claimed cell published a result")
            })
            .collect();
        SweepOutcome {
            reports,
            stats: SweepStats {
                cells: n,
                workers,
                peak_resident_cells: peak.load(Ordering::Relaxed),
                arena_growth_events: growth.load(Ordering::Relaxed),
                arena_cells_recycled: recycled.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::policy::StaticSlotPolicy;
    use mapreduce::{Engine, EngineConfig, JobProfile, JobSpec};
    use simgrid::SimTime;

    fn disabled() -> telemetry::Telemetry {
        telemetry::Telemetry::disabled()
    }

    struct EngineCell {
        seed: u64,
        poison: bool,
    }

    impl SweepCell for EngineCell {
        fn system(&self) -> &str {
            "HadoopV1"
        }

        fn seed(&self) -> u64 {
            self.seed
        }

        fn run(&self, arena: &mut EngineArena) -> Result<RunReport, SimError> {
            if self.poison {
                panic!("poisoned cell");
            }
            let cfg = EngineConfig::small_test(4, self.seed);
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                512.0,
                8,
                SimTime::ZERO,
            );
            let mut state = Engine::new(cfg).prepare(vec![job])?;
            state.override_policy("HadoopV1")?;
            Engine::resume_in(state, &mut StaticSlotPolicy, &disabled(), arena)
        }
    }

    fn grid(seeds: &[u64]) -> Vec<EngineCell> {
        seeds
            .iter()
            .map(|&seed| EngineCell {
                seed,
                poison: false,
            })
            .collect()
    }

    #[test]
    fn pool_is_bounded_and_reports_land_in_cell_order() {
        let cells = grid(&[1, 2, 3, 4, 5, 6]);
        let out = BatchedSweep::with_workers(2).run(&cells);
        assert_eq!(out.stats.workers, 2);
        assert!(out.stats.peak_resident_cells <= 2);
        assert_eq!(out.reports.len(), 6);
        for r in &out.reports {
            assert!(r.is_ok());
        }
        // each worker's first cell allocates its arena fresh: 4 of the 6
        // cells recycled when both workers ran cells, 5 when one worker
        // raced ahead and claimed the whole grid
        assert!(
            (4..=5).contains(&out.stats.arena_cells_recycled),
            "recycled {} of 6 cells on 2 workers",
            out.stats.arena_cells_recycled
        );
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let cells = grid(&[10, 11, 12, 13]);
        let one = BatchedSweep::with_workers(1).run(&cells);
        let four = BatchedSweep::with_workers(4).run(&cells);
        for (a, b) in one.reports.iter().zip(&four.reports) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
    }

    #[test]
    fn arena_growth_flattens_after_warmup() {
        // a single worker sees the same cell shape repeatedly: all growth
        // happens on the first cell
        let cells = grid(&[1, 1, 1, 1, 1]);
        let out = BatchedSweep::with_workers(1).run(&cells);
        let single = BatchedSweep::with_workers(1).run(&grid(&[1]));
        assert_eq!(
            out.stats.arena_growth_events, single.stats.arena_growth_events,
            "cells after the first must not grow the arena"
        );
    }

    #[test]
    fn lowest_indexed_panic_wins_and_carries_cell_identity() {
        let mut cells = grid(&[20, 21, 22]);
        cells[1].poison = true;
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            BatchedSweep::with_workers(2).run(&cells);
        }))
        .expect_err("poisoned grid panics");
        let msg = payload
            .downcast_ref::<String>()
            .expect("re-panic carries a String");
        assert!(msg.contains("HadoopV1"), "no system in: {msg}");
        assert!(msg.contains("cell 1"), "no cell index in: {msg}");
        assert!(msg.contains("seed 21"), "no trial seed in: {msg}");
        assert!(
            msg.contains("poisoned cell"),
            "original message lost: {msg}"
        );
    }

    #[test]
    fn run_mut_visits_every_task_once_and_keeps_order() {
        let mut tasks: Vec<u64> = (0..37).collect();
        let mut arena = EngineArena::new();
        let results =
            BatchedSweep::with_workers(4).run_mut(&mut tasks, &mut arena, |i, t, _arena| {
                *t += 100;
                (i as u64, *t)
            });
        assert_eq!(results.len(), 37);
        for (i, (idx, val)) in results.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*val, i as u64 + 100);
        }
        assert!(tasks.iter().enumerate().all(|(i, t)| *t == i as u64 + 100));
    }

    #[test]
    fn run_mut_inline_path_matches_pooled_path() {
        let mut a: Vec<u64> = (0..9).collect();
        let mut b = a.clone();
        let mut arena = EngineArena::new();
        let one = BatchedSweep::with_workers(1).run_mut(&mut a, &mut arena, |i, t, _| {
            *t = t.wrapping_mul(7) ^ i as u64;
            *t
        });
        let four = BatchedSweep::with_workers(4).run_mut(&mut b, &mut arena, |i, t, _| {
            *t = t.wrapping_mul(7) ^ i as u64;
            *t
        });
        assert_eq!(one, four);
        assert_eq!(a, b);
    }

    #[test]
    fn run_mut_advances_real_engine_tenants() {
        // two capsules advanced one bounded slice through the pool must
        // match the same advances run inline
        let prepare = |seed: u64| {
            let cfg = EngineConfig::small_test(4, seed);
            let job = JobSpec::new(
                0,
                JobProfile::synthetic_map_heavy(),
                256.0,
                4,
                SimTime::ZERO,
            );
            let mut state = Engine::new(cfg).prepare(vec![job]).unwrap();
            state.override_policy("HadoopV1").unwrap();
            state
        };
        let advance = |state: mapreduce::EngineState, arena: &mut EngineArena| {
            Engine::advance_until_in(
                state,
                &mut StaticSlotPolicy,
                SimTime::from_secs(30),
                &disabled(),
                arena,
            )
            .unwrap()
        };
        let mut pooled: Vec<Option<mapreduce::EngineState>> =
            vec![Some(prepare(1)), Some(prepare(2))];
        let mut arena = EngineArena::new();
        let hashes =
            BatchedSweep::with_workers(2).run_mut(&mut pooled, &mut arena, |_, slot, a| {
                let out = advance(slot.take().unwrap(), a);
                let h = out.state.state_hash();
                *slot = Some(out.state);
                h
            });
        let mut inline_arena = EngineArena::new();
        for (i, seed) in [1u64, 2].iter().enumerate() {
            let out = advance(prepare(*seed), &mut inline_arena);
            assert_eq!(hashes[i], out.state.state_hash(), "tenant {i} diverged");
        }
    }

    #[test]
    fn run_mut_panic_names_the_lowest_task() {
        let mut tasks: Vec<u64> = (0..8).collect();
        let mut arena = EngineArena::new();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            BatchedSweep::with_workers(3).run_mut(&mut tasks, &mut arena, |i, _t, _| {
                if i >= 2 {
                    panic!("task blew up");
                }
                i
            });
        }))
        .expect_err("poisoned batch panics");
        let msg = payload
            .downcast_ref::<String>()
            .expect("re-panic carries a String");
        assert!(msg.contains("task 2"), "lowest index lost: {msg}");
        assert!(msg.contains("task blew up"), "message lost: {msg}");
    }

    #[test]
    fn empty_grid_is_a_noop() {
        let out = BatchedSweep::auto().run(&grid(&[]));
        assert!(out.reports.is_empty());
        assert_eq!(out.stats.cells, 0);
        assert_eq!(out.stats.peak_resident_cells, 0);
    }
}
