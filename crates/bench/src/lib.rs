//! # lb-bench — figure/table regeneration
//!
//! One binary per figure in the paper's evaluation (`fig1` … `fig6`) plus
//! `replication` (§4.4's comparisons to prior work). Each binary prints the
//! rows/series the paper plots and optionally writes CSV. `quickperf` runs
//! every A/B speed comparison through `lb_harness::stats` and writes it as
//! one [`record`]. Shared CLI:
//!
//! ```text
//! --dataset mini|small|medium   workload size        (default small)
//! --suite polybench|spec|all    benchmark suites     (default all)
//! --iters N --warmup N          measurement lengths
//! --bench NAME                  restrict to one benchmark
//! --csv PATH                    also write CSV
//! --threads a,b,c               thread counts (fig3-5)
//! --measured                    use real threads instead of the
//!                               mm-contention simulator (fig3-5)
//! ```

#![warn(missing_docs)]

pub mod record;

use lb_dsl::Benchmark;
use lb_harness::EngineSel;
use lb_polybench::common::Dataset;
use lb_spec_proxy::Scale;
use std::collections::HashMap;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Raw key→value flags.
    pub flags: HashMap<String, String>,
    /// Workload size.
    pub dataset: Dataset,
    /// Which suites to run.
    pub suite: String,
    /// Timed iterations per configuration.
    pub iters: u32,
    /// Warm-up iterations.
    pub warmup: u32,
    /// Optional single-benchmark filter.
    pub bench: Option<String>,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Thread counts for scaling figures.
    pub threads: Vec<usize>,
    /// Real multithreaded measurement instead of the simulator.
    pub measured: bool,
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
            if argv[i] == "--measured" {
                flags.insert("measured".into(), "true".into());
                i += 1;
                continue;
            }
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
            warmup: flags
                .get("warmup")
                .map(|s| s.parse().expect("warmup"))
                .unwrap_or(1),
            bench: flags.get("bench").cloned(),
            csv: flags.get("csv").cloned(),
            threads,
            measured: flags.contains_key("measured"),
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

/// One (engine, strategy, thread-count) observation for figures 3–5.
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
    /// Mean used memory, bytes (measured mode only).
    pub mem_bytes: u64,
    /// `true` when produced by the mm-contention simulator.
    pub simulated: bool,
}

/// The benchmarks figures 3–5 default to: short-running kernels, where the
/// paper says the mprotect locking effect is most visible.
pub const SCALING_DEFAULT_BENCH: &str = "jacobi-1d";

/// Produce scaling data, either simulated (default on small hosts — this
/// models the paper's 16-hardware-thread machines) or measured with real
/// threads (`--measured`).
pub fn scaling_data(args: &Args) -> Vec<ScalePoint> {
    if args.measured {
        scaling_measured(args)
    } else {
        scaling_simulated(args)
    }
}

fn scaling_bench(args: &Args) -> Benchmark {
    let name = args
        .bench
        .clone()
        .unwrap_or_else(|| SCALING_DEFAULT_BENCH.into());
    lb_polybench::by_name(&name, args.dataset)
        .or_else(|| lb_spec_proxy::by_name(&name, args.scale()))
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

fn scaling_strategies() -> Vec<lb_core::BoundsStrategy> {
    use lb_core::BoundsStrategy as B;
    let mut v = vec![B::Trap, B::Mprotect];
    if lb_core::uffd::sigbus_mode_available() {
        v.push(B::Uffd);
    }
    v
}

fn scaling_measured(args: &Args) -> Vec<ScalePoint> {
    use lb_harness::{run_benchmark, RunSpec};
    let bench = scaling_bench(args);
    let mut out = Vec::new();
    for engine in [EngineSel::Wavm, EngineSel::V8] {
        for s in scaling_strategies() {
            for &t in &args.threads {
                let mut spec = RunSpec::new(engine, s);
                spec.threads = t;
                spec.warmup_iters = args.warmup;
                spec.measured_iters = args.iters;
                spec.sample_system = true;
                let r = run_benchmark(&bench, &spec);
                assert!(r.checksum_ok);
                let sys = r.sys.expect("sampled");
                out.push(ScalePoint {
                    engine: engine.name().into(),
                    strategy: s.name().into(),
                    threads: t,
                    iters_per_sec: r.iters_per_sec(),
                    utilization_pct: sys.cpu_util_pct,
                    ctxt_per_sec: sys.ctxt_per_sec,
                    mem_bytes: sys.mem_used_bytes,
                    simulated: false,
                });
                eprintln!("  measured {} {} t={}", engine.name(), s.name(), t);
            }
        }
    }
    out
}

fn scaling_simulated(args: &Args) -> Vec<ScalePoint> {
    use lb_harness::{run_benchmark, RunSpec};
    use lb_sim::{simulate, SimParams, SimStrategy};
    let bench = scaling_bench(args);
    // Calibrate per-iteration compute time with a quick real run.
    let mut spec = RunSpec::new(EngineSel::Wavm, lb_core::BoundsStrategy::Trap);
    spec.warmup_iters = 1;
    spec.measured_iters = args.iters.max(3);
    let r = run_benchmark(&bench, &spec);
    let compute_ns = r.median().as_nanos() as u64;
    eprintln!(
        "  calibration: {} compute ≈ {:?} per iteration",
        bench.name,
        r.median()
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
                let mut p = SimParams::new(sim_strategy, t, compute_ns);
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
                    mem_bytes: 0,
                    simulated: true,
                });
            }
        }
    }
    out
}
