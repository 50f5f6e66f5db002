//! # lb-harness — the measurement harness
//!
//! Reproduces the paper's custom benchmarking harness (§3.5): the
//! isolate iteration (instantiate, `init`, `kernel`, tear down) as the
//! unit of work, one interleaved, calibrated loop that times it
//! ([`stats::interleave`], with an A/A control and bootstrap CIs), an
//! untimed checked run ([`runner`]) that validates checksums and collects
//! telemetry, profile and `/proc` deltas (CPU, context switches and memory,
//! §4.2–4.3), geomean-of-ratios statistics, and the plain-text/CSV
//! reporting used by the figure-regeneration binaries in `lb-bench`.

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
