//! **Figure 6** — Average memory usage by runtime × strategy, measured as
//! `MemTotal − MemAvailable` during the run (the paper's §4.3 metric).
//! The paper's x86-vs-Arm difference came from transparent-huge-page
//! accounting of the 8 GiB reservations; the same effect is visible here
//! by comparing reservation sizes (`--reserve` in bytes, default 8 GiB).
//!
//! ```text
//! cargo run --release -p lb-bench --bin fig6 -- --dataset small
//! ```

use lb_bench::{emit, Args};
use lb_core::BoundsStrategy;
use lb_harness::{run_benchmark, EngineSel, RunSpec, Table};

fn main() {
    let args = Args::parse();
    let bench_name = args.bench.clone().unwrap_or_else(|| "gemm".into());
    let bench = lb_polybench::by_name(&bench_name, args.dataset)
        .or_else(|| lb_spec_proxy::by_name(&bench_name, args.scale()))
        .expect("benchmark");
    let reserve: usize = args
        .flags
        .get("reserve")
        .map(|s| s.parse().expect("reserve bytes"))
        .unwrap_or(lb_core::DEFAULT_RESERVE_BYTES);

    let strategies = lb_harness::available_strategies();

    let mut table = Table::new(&[
        "engine",
        "strategy",
        "mem_used_mib",
        "rss_peak_mib",
        "vm_mmaps",
        "vm_mprotects",
    ]);
    for engine in [
        EngineSel::Wavm,
        EngineSel::Wasmtime,
        EngineSel::V8,
        EngineSel::Interp,
    ] {
        let engine_strategies: &[BoundsStrategy] = if engine == EngineSel::Interp {
            &[BoundsStrategy::Trap]
        } else {
            &strategies
        };
        for &s in engine_strategies {
            let mut spec = RunSpec::new(engine, s);
            spec.iterations = args.iters;
            spec.sample_system = true;
            spec.reserve_bytes = reserve;
            let r = run_benchmark(&bench, &spec);
            assert!(r.checksum_ok);
            let sys = r.sys.expect("sampled");
            table.row(vec![
                engine.name().into(),
                s.name().into(),
                format!("{:.0}", sys.mem_used_bytes as f64 / (1 << 20) as f64),
                format!("{:.0}", sys.rss_peak_bytes as f64 / (1 << 20) as f64),
                r.vm.mmap.to_string(),
                r.vm.mprotect.to_string(),
            ]);
            eprintln!("  measured {} {}", engine.name(), s.name());
        }
    }
    println!(
        "\nFigure 6: average memory usage ({} @ {:?})\n",
        bench.name, args.dataset
    );
    emit(&table, &args.csv);
}
