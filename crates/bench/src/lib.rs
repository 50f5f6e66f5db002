//! # lb-bench — figure/table regeneration
//!
//! `quickperf` runs every speed comparison through `lb_harness::stats`
//! and writes it as one [`record`]; its `engines` mode times the engine ×
//! strategy [`matrix`] that Fig. 1, Fig. 2a and §4.4 (the comparisons to
//! prior work) are views of. `fig2` (the cross-ISA cost model of Figs.
//! 2b/2c) and `fig3` … `fig6` print the rows/series the paper plots and
//! optionally write CSV. Shared CLI:
//!
//! ```text
//! --dataset mini|small|medium   workload size        (default small)
//! --suite polybench|spec|all    benchmark suites     (default all)
//! --iters N                     isolate iterations per run
//! --bench NAME                  restrict to one benchmark
//! --csv PATH                    also write CSV
//! --threads a,b,c               simulated thread counts (fig3-5)
//! ```

#![warn(missing_docs)]

pub mod matrix;
pub mod record;

use lb_core::{BoundsStrategy, MemoryConfig};
use lb_dsl::Benchmark;
use lb_harness::stats::{interleave, paired};
use lb_harness::{EngineSel, Isolate};
use lb_polybench::common::Dataset;
use lb_spec_proxy::Scale;
use std::collections::HashMap;
use std::time::Duration;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Raw key→value flags.
    pub flags: HashMap<String, String>,
    /// Workload size.
    pub dataset: Dataset,
    /// Which suites to run.
    pub suite: String,
    /// Isolate iterations per configuration.
    pub iters: u32,
    /// Optional single-benchmark filter.
    pub bench: Option<String>,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Thread counts for scaling figures.
    pub threads: Vec<usize>,
}

impl Args {
    /// Parse `std::env::args`.
    ///
    /// # Panics
    /// Panics (with a usage message) on malformed flags.
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1))
    }

    /// Parse `argv`: the arguments after the program name, and after a
    /// mode the program takes first. Panics as [`Args::parse`] does.
    pub fn parse_from(argv: impl IntoIterator<Item = String>) -> Args {
        let argv: Vec<String> = argv.into_iter().collect();
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let k = argv[i].trim_start_matches("--").to_string();
            assert!(
                argv[i].starts_with("--") && i + 1 < argv.len(),
                "usage: --key value … (offending: {})",
                argv[i]
            );
            flags.insert(k, argv[i + 1].clone());
            i += 2;
        }
        let dataset = flags
            .get("dataset")
            .map(|s| Dataset::parse(s).expect("dataset: mini|small|medium"))
            .unwrap_or(Dataset::Small);
        let threads = flags
            .get("threads")
            .map(|s| {
                s.split(',')
                    .map(|x| x.parse().expect("thread count"))
                    .collect()
            })
            .unwrap_or_else(|| vec![1, 4, 16]);
        Args {
            dataset,
            suite: flags.get("suite").cloned().unwrap_or_else(|| "all".into()),
            iters: flags
                .get("iters")
                .map(|s| s.parse().expect("iters"))
                .unwrap_or(5),
            bench: flags.get("bench").cloned(),
            csv: flags.get("csv").cloned(),
            threads,
            flags,
        }
    }

    /// The spec-proxy scale matching the chosen dataset.
    pub fn scale(&self) -> Scale {
        match self.dataset {
            Dataset::Mini => Scale::Mini,
            Dataset::Small => Scale::Small,
            Dataset::Medium => Scale::Train,
        }
    }

    /// Build the selected benchmarks.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        let mut v = Vec::new();
        if self.suite == "all" || self.suite == "polybench" {
            v.extend(lb_polybench::all(self.dataset));
        }
        if self.suite == "all" || self.suite == "spec" {
            v.extend(lb_spec_proxy::all(self.scale()));
        }
        if let Some(name) = &self.bench {
            v.retain(|b| &b.name == name);
            assert!(!v.is_empty(), "unknown benchmark {name}");
        }
        v
    }
}

/// Write the table to CSV if requested, and always print it.
pub fn emit(table: &lb_harness::Table, csv: &Option<String>) {
    print!("{}", table.render());
    if let Some(path) = csv {
        table
            .write_csv(std::path::Path::new(path))
            .expect("write csv");
        println!("(csv written to {path})");
    }
}

// ── shared scaling machinery for figures 3–5 ────────────────────────────

/// One (engine, strategy, thread-count) point of the mm-contention
/// simulator, for figures 3–5.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Engine name.
    pub engine: String,
    /// Strategy name.
    pub strategy: String,
    /// Worker threads.
    pub threads: usize,
    /// Aggregate iterations/second.
    pub iters_per_sec: f64,
    /// CPU utilisation in percent-of-one-core.
    pub utilization_pct: f64,
    /// Context switches per second.
    pub ctxt_per_sec: f64,
}

/// The benchmarks figures 3–5 default to: short-running kernels, where the
/// paper says the mprotect locking effect is most visible.
pub const SCALING_DEFAULT_BENCH: &str = "jacobi-1d";

fn scaling_bench(args: &Args) -> Benchmark {
    let name = args
        .bench
        .clone()
        .unwrap_or_else(|| SCALING_DEFAULT_BENCH.into());
    lb_polybench::by_name(&name, args.dataset)
        .or_else(|| lb_spec_proxy::by_name(&name, args.scale()))
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

fn scaling_strategies() -> Vec<BoundsStrategy> {
    let mut v = vec![BoundsStrategy::Trap, BoundsStrategy::Mprotect];
    if lb_core::uffd::sigbus_mode_available() {
        v.push(BoundsStrategy::Uffd);
    }
    v
}

/// Scaling data from the mm-contention simulator, which models the
/// paper's 16-hardware-thread machines. Its per-iteration compute time is
/// the benchmark's wavm/trap isolate iteration, timed on this host by
/// `stats::interleave`.
pub fn scaling_data(args: &Args) -> Vec<ScalePoint> {
    use lb_sim::{simulate, SimParams, SimStrategy};
    let bench = scaling_bench(args);
    let engine = EngineSel::Wavm.engine().expect("wavm is a wasm engine");
    let module = engine.load(&bench.module).expect("load");
    let isolate = Isolate::Wasm(&*module, MemoryConfig::new(BoundsStrategy::Trap, 0, 4096));
    let samples = interleave(&mut [Box::new(|| {
        isolate.iteration(false).expect("isolate iteration");
    })]);
    let compute = Duration::from_secs_f64(paired(&samples)[0].secs);
    eprintln!(
        "  calibration: {} compute ≈ {compute:?} per iteration",
        bench.name
    );
    let pages = bench
        .module
        .memory
        .map(|m| m.limits.min as u64)
        .unwrap_or(1);

    let mut out = Vec::new();
    for (engine, v8) in [("wavm", false), ("v8", true)] {
        for s in scaling_strategies() {
            let sim_strategy = SimStrategy::parse(s.name()).expect("strategy");
            for &t in &args.threads {
                let mut p = SimParams::new(sim_strategy, t, compute.as_nanos() as u64);
                // Long enough for several GC periods to elapse.
                p.iters = (args.iters * 100).max(400);
                p.pages = pages;
                p.v8_pauses = v8;
                let sr = simulate(&p);
                out.push(ScalePoint {
                    engine: engine.into(),
                    strategy: s.name().into(),
                    threads: t,
                    iters_per_sec: sr.iters_per_sec(),
                    utilization_pct: sr.utilization_pct(),
                    ctxt_per_sec: sr.ctxt_per_sec(),
                });
            }
        }
    }
    out
}
