//! **Figures 3–5** — thread scaling (1/4/16 isolates, as in the paper):
//! throughput and speed-up (Fig. 3), CPU utilisation with 100% = one busy
//! core (Fig. 4) and context switches per second (Fig. 5). All three are
//! views of one run of the mm-contention simulator, which models the
//! paper's 16-hardware-thread machines and is calibrated by one
//! interleaved single-thread measurement. No measured multi-thread run
//! validates the model yet.
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
        "cpu_util_pct",
        "ctxt_per_sec",
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
            format!("{:.0}", p.utilization_pct),
            format!("{:.0}", p.ctxt_per_sec),
        ]);
    }
    println!("\nFigures 3-5: thread scaling, CPU utilisation and context switches");
    println!("(model (lb-sim), unvalidated)\n");
    emit(&table, &args.csv);
}
