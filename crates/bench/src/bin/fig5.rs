//! **Figure 5** — Context switches per second. Reproduces the paper's two
//! observations: mprotect-strategy lock sleeps inflate switches at high
//! thread counts, and the V8 profile's stop-the-world pauses add an order
//! of magnitude more.
//!
//! ```text
//! cargo run --release -p lb-bench --bin fig5 -- --dataset small
//! ```

use lb_bench::{emit, scaling_data, Args};
use lb_harness::Table;

fn main() {
    let args = Args::parse();
    let points = scaling_data(&args);
    let mut table = Table::new(&["engine", "strategy", "threads", "ctxt_per_sec"]);
    for p in &points {
        table.row(vec![
            p.engine.clone(),
            p.strategy.clone(),
            p.threads.to_string(),
            format!("{:.0}", p.ctxt_per_sec),
        ]);
    }
    println!("\nFigure 5: context switches per second\n");
    emit(&table, &args.csv);
}
