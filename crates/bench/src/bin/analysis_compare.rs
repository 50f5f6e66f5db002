//! PolyBench under the `trap` strategy: static analysis on vs off.
//!
//! The paper's core claim is that bounds checks are a dominant share of
//! WebAssembly overhead; `lb-analysis` recovers part of it by proving
//! checks redundant at compile time. This tool quantifies that on the
//! paper's own workloads: for each kernel it compiles twice with the WAVM
//! profile — once consuming the analysis plan, once with the analysis
//! off (every check emitted) — and reports kernel time plus the fraction of checks
//! statically elided (from the `jit.checks.*` telemetry counters).
//!
//! Usage: `analysis_compare [bench ...]` (defaults to a representative
//! kernel set).

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::{by_name, common::Dataset};
use std::time::{Duration, Instant};

const DEFAULT_BENCHES: &[&str] = &["gemm", "atax", "mvt", "bicg", "jacobi-2d", "trisolv"];

struct Measurement {
    time: Duration,
    elided: u64,
    emitted: u64,
    checksum_ok: bool,
}

fn measure(bench: &lb_polybench::Benchmark, analysis: bool, iters: u32) -> Measurement {
    let before = lb_telemetry::snapshot();
    let engine = JitEngine::new(JitProfile::wavm().with_analysis(analysis));
    let loaded = engine.load(&bench.module).expect("load");
    let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 256);
    let mut inst = loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate");
    // Correctness first: kernels are not idempotent (gemm accumulates
    // into C), so the checksum is only meaningful after exactly one run.
    inst.invoke("init", &[]).expect("init");
    inst.invoke("kernel", &[]).expect("kernel");
    let cs = inst
        .invoke("checksum", &[])
        .expect("checksum")
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);
    let checksum_ok = lb_dsl::kernel::checksums_match(cs, bench.native_checksum());
    // Then time the warmed instance.
    inst.invoke("init", &[]).expect("init");
    let t = Instant::now();
    for _ in 0..iters {
        inst.invoke("kernel", &[]).expect("kernel");
    }
    let time = t.elapsed() / iters;
    let delta = lb_telemetry::snapshot().delta_since(&before);
    Measurement {
        time,
        elided: delta.counter("jit.checks.static_elided"),
        emitted: delta.counter("jit.checks.emitted"),
        checksum_ok,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let benches: Vec<&str> = if args.is_empty() {
        DEFAULT_BENCHES.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    println!(
        "{:<12} {:>12} {:>12} {:>8} {:>9} {:>9} {:>8}",
        "bench", "trap", "trap+bce", "speedup", "elided", "emitted", "elide%"
    );
    for name in benches {
        let Some(bench) = by_name(name, Dataset::Small) else {
            eprintln!("{name}: unknown benchmark, skipping");
            continue;
        };
        let off = measure(&bench, false, 20);
        let on = measure(&bench, true, 20);
        assert!(
            off.checksum_ok,
            "{name}: checksum mismatch without analysis"
        );
        assert!(on.checksum_ok, "{name}: checksum mismatch with analysis");
        let total = on.elided + on.emitted;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * on.elided as f64 / total as f64
        };
        println!(
            "{:<12} {:>12} {:>12} {:>7.2}x {:>9} {:>9} {:>7.1}%",
            bench.name,
            format!("{:.3?}", off.time),
            format!("{:.3?}", on.time),
            off.time.as_secs_f64() / on.time.as_secs_f64(),
            on.elided,
            on.emitted,
            pct,
        );
    }
}
