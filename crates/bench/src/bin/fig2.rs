//! **Figures 2b/2c** — the cross-ISA cost model: per-strategy overhead
//! relative to `none`, estimated from each benchmark's dynamic
//! instruction mix and the target microarchitecture's costs, as the
//! geometric mean per suite. (On RISC-V the paper could only run Native,
//! Wasm3 and V8 — the model covers the strategy dimension those runtimes
//! shared.) Figure 2a, the measured x86_64 matrix, is `quickperf engines`.
//!
//! ```text
//! cargo run --release -p lb-bench --bin fig2 -- --dataset small --isa armv8
//! ```

use lb_bench::{emit, Args};
use lb_harness::{stats, Table};

fn main() {
    let args = Args::parse();
    let isa_name = args.flags.get("isa").map_or("armv8", String::as_str);
    let isa = lb_isa_model::by_name(isa_name)
        .unwrap_or_else(|| panic!("unknown --isa {isa_name} (x86_64|armv8|riscv)"));
    let mut table = Table::new(&["suite", "strategy", "geomean_vs_none", "isa"]);
    let benches = args.benchmarks();
    let mut mixes = Vec::new();
    for b in &benches {
        eprintln!("  profiling {}", b.name);
        mixes.push((b.suite, lb_isa_model::profile_benchmark(b)));
    }
    for s in lb_harness::available_strategies() {
        for suite in ["polybench", "spec"] {
            let ratios: Vec<f64> = mixes
                .iter()
                .filter(|(su, _)| *su == suite)
                .map(|(_, m)| 1.0 + lb_isa_model::strategy_overhead(m, &isa, s))
                .collect();
            if ratios.is_empty() {
                continue;
            }
            table.row(vec![
                suite.into(),
                s.name().into(),
                format!("{:.3}", stats::geomean_ratios(&ratios)),
                isa.name.into(),
            ]);
        }
    }
    let figure = match isa_name {
        "armv8" => "Figure 2b",
        "riscv" => "Figure 2c",
        _ => "Figure 2 model",
    };
    println!(
        "\n{figure} ({}, cost model): strategy cost normalized to `none`\n",
        isa.name
    );
    emit(&table, &args.csv);
}
