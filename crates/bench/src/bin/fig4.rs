//! **Figure 4** — Average CPU load during benchmark execution (the paper's
//! eq. 1, rescaled so 100% = one fully-busy core). Shows mprotect's
//! failure to saturate the CPU at 16 threads and V8's pause-induced dips.
//!
//! ```text
//! cargo run --release -p lb-bench --bin fig4 -- --dataset small
//! ```

use lb_bench::{emit, scaling_data, Args};
use lb_harness::Table;

fn main() {
    let args = Args::parse();
    let points = scaling_data(&args);
    let mut table = Table::new(&["engine", "strategy", "threads", "cpu_util_pct"]);
    for p in &points {
        table.row(vec![
            p.engine.clone(),
            p.strategy.clone(),
            p.threads.to_string(),
            format!("{:.0}", p.utilization_pct),
        ]);
    }
    println!("\nFigure 4: average CPU utilisation (100% = one busy core)\n");
    emit(&table, &args.csv);
}
