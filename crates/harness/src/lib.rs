//! # lb-harness — the measurement harness
//!
//! Reproduces the paper's custom benchmarking harness (§3.5): per-thread
//! pinned isolates executed in timed loops with warm-up and cool-down
//! phases, `/proc`-based CPU/context-switch/memory sampling (§4.2–4.3),
//! median/geomean-of-ratios statistics, and plain-text/CSV reporting used
//! by the figure-regeneration binaries in `lb-bench`.

#![warn(missing_docs)]

pub mod procstat;
pub mod report;
pub mod runner;
pub mod stats;

pub use procstat::{Sampler, SysStats};
pub use report::{atomic_write, Table};
pub use runner::{
    available_strategies, run_benchmark, run_benchmark_checked, EngineSel, Isolate, RunFailure,
    RunOutcome, RunResult, RunSpec, RunStage,
};
