//! **Figure 3** — Performance scaling with increased number of threads
//! (1/4/16 isolates pinned to cores, as in the paper), from the
//! mm-contention simulator modeling the paper's 16-hardware-thread
//! machines, calibrated by one interleaved single-thread measurement.
//!
//! ```text
//! cargo run --release -p lb-bench --bin fig3 -- --dataset small
//! ```

use lb_bench::{emit, scaling_data, Args};
use lb_harness::Table;

fn main() {
    let args = Args::parse();
    let points = scaling_data(&args);
    let mut table = Table::new(&[
        "engine",
        "strategy",
        "threads",
        "iters_per_sec",
        "speedup_vs_1t",
    ]);
    for p in &points {
        let base = points
            .iter()
            .find(|q| q.engine == p.engine && q.strategy == p.strategy && q.threads == 1)
            .map(|q| q.iters_per_sec)
            .unwrap_or(p.iters_per_sec);
        table.row(vec![
            p.engine.clone(),
            p.strategy.clone(),
            p.threads.to_string(),
            format!("{:.1}", p.iters_per_sec),
            format!("{:.2}", p.iters_per_sec / base),
        ]);
    }
    println!("\nFigure 3: performance scaling with thread count\n");
    emit(&table, &args.csv);
}
