//! # harness — regenerating every figure of the SMapReduce paper
//!
//! One module per figure; each produces a serialisable data structure and a
//! plain-text rendering, plus the §V-A headline claims in [`summary`]. The
//! `reproduce` binary drives them:
//!
//! ```text
//! cargo run --release -p harness --bin reproduce -- all
//! cargo run --release -p harness --bin reproduce -- fig3 --quick
//! ```
//!
//! | Module   | Paper figure | Content |
//! |----------|--------------|---------|
//! | [`fig1`] | Fig. 1 | thrashing curves (map throughput vs slot count) |
//! | [`fig3`] | Fig. 3 | 13 benchmarks × 3 systems execution times |
//! | [`fig4`] | Fig. 4 | HistogramMovies progress over time |
//! | [`fig5`] | Fig. 5 | map time vs configured map slots |
//! | [`fig6`] | Fig. 6 | throughput vs input size (50–250 GB) |
//! | [`fig7`] | Fig. 7 | thrashing-detection / slow-start ablations |
//! | [`fig89`]| Figs. 8–9 | 4 concurrent jobs, mean + last-finish |
//! | [`ext_hetero`] | (extension) | §VII future work: heterogeneous cluster |
//! | [`ablation`] | (extension) | design-choice sensitivity sweeps |
//! | [`ext_stragglers`] | (extension) | stragglers, failures, speculation |
//! | [`ext_fair`] | (extension) | FIFO vs Fair scheduling, mixed job sizes |
//! | [`ext_load`] | (extension) | sustained Poisson mixed load |
//! | [`ext_faults`] | (extension) | node crashes, recovery, blacklisting |
//! | [`model_check`] | (validation) | §III-B1 equations vs simulation |
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! Nothing here reads a wall clock into its output: a target's JSON is
//! the same on every run. Timings come from the repository's benchmark,
//! `perfbench/` (its command is in `BENCHMARK.json`), which drives this
//! crate's [`runner`] through [`CellRequest`] and [`System`].

pub mod ablation;
pub mod capsules;
pub mod dashboard;
pub mod ext_fair;
pub mod ext_faults;
pub mod ext_hetero;
pub mod ext_load;
pub mod ext_stragglers;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig89;
pub mod model_check;
pub mod output;
pub mod runner;
pub mod scale;
pub mod shapes;
pub mod summary;
pub mod table;
pub mod targets;

pub use runner::{
    run_averaged, run_cells, run_cells_with, run_comparison, run_once, AveragedRun, CellRequest,
    System,
};
pub use scale::Scale;
