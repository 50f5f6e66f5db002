//! **Profiler report** — per-kernel bounds-check attribution from the
//! lb-prof sampling profiler: the table the paper's bounds-checking
//! analysis is really after. Each row is one PolyBench kernel under one
//! strategy, showing where sampled CPU time landed once every sampled
//! instruction was decoded and classified (guard compares, clamp
//! sequences, trap paths, plain memory accesses, compute, runtime).
//!
//! ```text
//! LB_PROF=sample:997 cargo run --release -p lb-bench --bin prof_report
//! cargo run --release -p lb-bench --bin prof_report -- --smoke
//! ```
//!
//! Sampling is enabled programmatically at the default rate when
//! `LB_PROF` is unset, so the binary is self-contained. `--smoke` is the
//! CI gate: it runs one kernel, writes a chrome trace, re-parses it, and
//! verifies the attribution percentages are self-consistent — exiting
//! nonzero on any violation.

use lb_bench::{emit, Args};
use lb_core::BoundsStrategy;
use lb_harness::{run_benchmark, EngineSel, RunSpec, Table};
use lb_prof::ProfReport;

/// The default kernel set: a spread over linear algebra, solvers and
/// stencils so elision behaves differently across rows (gemm's constant
/// trip counts elide fully; sparse-ish access patterns keep checks).
const KERNELS: [&str; 6] = ["gemm", "atax", "mvt", "trisolv", "jacobi-1d", "2mm"];

fn strategies() -> Vec<BoundsStrategy> {
    let mut v = vec![BoundsStrategy::Trap, BoundsStrategy::Clamp];
    // Always requested; the harness probe degrades it (uffd → mprotect →
    // trap) and the row records what actually ran.
    v.push(BoundsStrategy::Uffd);
    v
}

fn spec(engine: EngineSel, strategy: BoundsStrategy, iterations: u32) -> RunSpec {
    RunSpec {
        iterations,
        ..RunSpec::new(engine, strategy)
    }
}

fn pct(report: &ProfReport, n: u64) -> String {
    format!("{:.1}", report.pct(n))
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    // Self-enable sampling when LB_PROF did not.
    if !lb_prof::enabled() {
        lb_prof::set_sampling(lb_prof::DEFAULT_HZ);
    }
    let mut args = Args::parse();
    // Sampling needs hundreds of milliseconds of CPU per row; the shared
    // 5-iteration default is far too short.
    if !args.flags.contains_key("iters") {
        args.iters = 200;
    }
    let engine = match args.flags.get("engine").map(String::as_str) {
        None | Some("wasmtime") => EngineSel::Wasmtime,
        Some("wavm") => EngineSel::Wavm,
        Some("v8") => EngineSel::V8,
        Some(other) => panic!("--engine {other}: profiler needs a JIT (wavm|wasmtime|v8)"),
    };

    let mut table = Table::new(&[
        "bench",
        "strategy",
        "samples",
        "guard%",
        "clamp%",
        "trap%",
        "mem%",
        "compute%",
        "runtime%",
        "unresolved",
    ]);
    for name in KERNELS {
        if args.bench.as_deref().is_some_and(|b| b != name) {
            continue;
        }
        let bench = lb_polybench::by_name(name, args.dataset).expect("kernel");
        for strategy in strategies() {
            let r = run_benchmark(&bench, &spec(engine, strategy, args.iters));
            assert!(r.checksum_ok, "{name} {strategy} checksum");
            let Some(report) = r.prof.as_ref() else {
                eprintln!("  {name} {strategy}: no profile (session busy?) — skipped");
                continue;
            };
            table.row(vec![
                name.into(),
                r.effective_strategy.name().into(),
                report.total.to_string(),
                pct(report, report.guard),
                pct(report, report.clamp),
                pct(report, report.trap_path),
                pct(report, report.mem_access),
                pct(report, report.compute),
                pct(report, report.runtime),
                report.unresolved.to_string(),
            ]);
            eprintln!(
                "  {name} {} ({} samples)",
                r.effective_strategy.name(),
                report.total
            );
        }
    }
    println!("\nProfiler attribution: self% of CPU samples by instruction class\n");
    emit(&table, &args.csv);
}

/// CI smoke gate: one kernel, then self-validate the profile and the
/// chrome-trace export. Exits nonzero (via panic/process::exit) on any
/// inconsistency.
fn smoke() {
    if !lb_prof::enabled() {
        lb_prof::set_sampling(lb_prof::DEFAULT_HZ);
    }
    // Small (not mini) and a few hundred iterations: at ~1 kHz sampling
    // the run must stay busy for a few hundred milliseconds to collect a
    // statistically meaningful sample count.
    let bench = lb_polybench::by_name("gemm", lb_polybench::common::Dataset::Small).unwrap();
    let r = run_benchmark(
        &bench,
        &spec(EngineSel::Wasmtime, BoundsStrategy::Trap, 300),
    );
    let mut failures: Vec<String> = Vec::new();
    if !r.checksum_ok {
        failures.push("checksum mismatch".into());
    }
    let report = r.prof.as_ref().unwrap_or_else(|| {
        eprintln!("prof_report --smoke: no profile collected (sampling inactive?)");
        std::process::exit(1);
    });
    if report.total == 0 {
        failures.push("zero samples collected".into());
    }
    let class_sum: u64 = report.class_counts().iter().map(|(_, n)| n).sum();
    if class_sum != report.total {
        failures.push(format!(
            "class counts sum to {class_sum}, expected {}",
            report.total
        ));
    }
    let pct_sum: f64 = report
        .class_counts()
        .iter()
        .map(|&(_, n)| report.pct(n))
        .sum();
    if report.total > 0 && (pct_sum - 100.0).abs() > 0.5 {
        failures.push(format!(
            "class percentages sum to {pct_sum:.2}, expected ~100"
        ));
    }

    // Trace round-trip: write, re-parse with the in-tree JSON parser,
    // check the event stream carries every sample.
    let dir = lb_prof::out_dir().unwrap_or_else(|| std::path::PathBuf::from("target/prof-smoke"));
    let path = dir.join("smoke.trace.json");
    if let Err(e) = lb_prof::write_chrome_trace(&path, report, &r.telemetry.spans) {
        failures.push(format!("trace write failed: {e}"));
    } else {
        match std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| lb_telemetry::json::parse(&text).ok())
        {
            None => failures.push("trace JSON does not parse".into()),
            Some(v) => {
                let events = v
                    .get("traceEvents")
                    .and_then(|e| e.as_arr())
                    .map_or(0, |a| a.len());
                let expect = report.samples.len() + r.telemetry.spans.len();
                if events != expect {
                    failures.push(format!("trace has {events} events, expected {expect}"));
                }
                let meta_samples = v
                    .get("metadata")
                    .and_then(|m| m.get("samples"))
                    .and_then(|s| s.as_f64());
                if meta_samples != Some(report.total as f64) {
                    failures.push(format!(
                        "trace metadata.samples {meta_samples:?} != {}",
                        report.total
                    ));
                }
            }
        }
    }

    if failures.is_empty() {
        println!(
            "prof_report --smoke: OK ({} samples, {} unresolved, guard {:.1}%, trace {})",
            report.total,
            report.unresolved,
            report.pct(report.guard),
            path.display()
        );
    } else {
        for f in &failures {
            eprintln!("prof_report --smoke: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
