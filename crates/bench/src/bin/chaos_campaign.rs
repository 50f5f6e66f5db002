//! A fault-injection measurement campaign: every (benchmark × strategy)
//! cell runs through the crash-proof harness while `lb-chaos` perturbs
//! the runtime's OS boundaries, and every run — completed or failed —
//! becomes one `lb_telemetry::export::write_jsonl` block: a `run` line
//! with the outcome, then the run's counters, histograms and spans (none
//! for a failed run). The point is the paper-adjacent robustness
//! claim: a bounds-checking runtime that measures guard-page tricks must
//! survive those tricks failing, and the campaign must outlive any
//! single run.
//!
//! Usage:
//!
//! ```text
//! chaos_campaign [--dataset mini|small|medium] [--bench NAME]
//!                [--iters N]         # isolate iterations per cell (default 6)
//!                [--faults SPEC]     # lb-chaos spec, e.g. core.uffd.create:1:EPERM
//!                [--out PATH]        # JSONL report (default chaos_campaign.jsonl)
//! ```
//!
//! Without `--faults`, the `LB_FAULTS` environment variable (if set) still
//! applies — the flag merely installs the spec explicitly and fails fast
//! on a typo instead of warning.

use lb_bench::Args;
use lb_core::BoundsStrategy;
use lb_harness::{run_benchmark_checked, EngineSel, RunOutcome, RunSpec};
use lb_telemetry::TelemetrySnapshot;
use std::path::Path;

fn main() {
    let mut args = Args::parse();
    // Seeded fault plans count calls, so the iteration count decides
    // which call each plan hits; keep it fixed unless asked.
    if !args.flags.contains_key("iters") {
        args.iters = 6;
    }
    let _guard = args
        .flags
        .get("faults")
        .map(|spec| lb_chaos::install(spec).unwrap_or_else(|e| panic!("--faults: {e}")));
    let out = args
        .flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "chaos_campaign.jsonl".into());
    let out = Path::new(&out);

    let benches = args.benchmarks();
    let mut report = String::new();
    let (mut completed, mut failed) = (0u32, 0u32);

    println!(
        "{:<14} {:<10} {:<10} {:>10}  outcome",
        "bench", "requested", "effective", "checksum"
    );
    for bench in &benches {
        for strategy in BoundsStrategy::ALL {
            let mut spec = RunSpec::new(EngineSel::Wavm, strategy);
            spec.iterations = args.iters;
            spec.reserve_bytes = 256 << 20;
            spec.max_pages = 2048;
            let mut row: Vec<(&str, String)> = vec![
                ("bench", bench.name.to_string()),
                ("engine", spec.engine.name().to_string()),
                ("strategy", strategy.name().to_string()),
            ];
            let telemetry = match run_benchmark_checked(bench, &spec) {
                RunOutcome::Completed(r) => {
                    completed += 1;
                    println!(
                        "{:<14} {:<10} {:<10} {:>10}  completed",
                        bench.name,
                        strategy.name(),
                        r.effective_strategy.name(),
                        if r.checksum_ok { "ok" } else { "MISMATCH" },
                    );
                    row.push(("outcome", "completed".into()));
                    row.push(("strategy_effective", r.effective_strategy.name().into()));
                    row.push(("checksum_ok", r.checksum_ok.to_string()));
                    row.push((
                        "fallbacks",
                        r.telemetry
                            .counter_sum("core.strategy.fallback.")
                            .to_string(),
                    ));
                    r.telemetry
                }
                RunOutcome::Failed(f) => {
                    failed += 1;
                    println!(
                        "{:<14} {:<10} {:<10} {:>10}  FAILED at {}: {}",
                        bench.name,
                        strategy.name(),
                        "-",
                        "-",
                        f.stage.name(),
                        f.error,
                    );
                    row.push(("outcome", "failed".into()));
                    row.push(("stage", f.stage.name().into()));
                    row.push(("error", f.error.clone()));
                    row.push(("attempts", f.attempts.to_string()));
                    TelemetrySnapshot::default()
                }
            };
            lb_telemetry::export::write_jsonl(&mut report, &row, &telemetry);
            // Rewrite after every run: atomic rename keeps the file a
            // complete campaign prefix even if the process dies here.
            if let Err(e) = lb_harness::atomic_write(out, report.as_bytes()) {
                eprintln!("warning: could not write {}: {e}", out.display());
            }
        }
    }
    println!(
        "\n{} runs: {completed} completed, {failed} failed -> {}",
        completed + failed,
        out.display()
    );
}
