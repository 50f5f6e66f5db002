//! Measure what the mid tier's IR guard-optimization pass (fused
//! compare-against-limit guards + dominance-based redundant-guard
//! elimination) buys over the same tier with the pass disabled, and
//! write the results to `BENCH_guardopt.json`.
//!
//! Every PolyBench kernel runs with the pass off and on for each of the
//! trap, clamp and uffd bounds-check strategies. The static analysis
//! plan is withheld in both arms, so every access reaches codegen with
//! its check intact — isolating the pass's effect on exactly the checks
//! the paper's bounds-checking comparison measures. The pass only
//! rewrites trap-strategy guards (clamp has no branch to fuse and uffd
//! has no explicit check), so those rows double as a no-regression
//! control.
//!
//! The kernel checksums must be bit-identical between the arms — a fused
//! guard admits exactly the addresses the classic two-instruction guard
//! admits, never one more — and the trap-strategy geomean speedup is the
//! headline number.
//!
//! Usage: `guardopt_bench [--smoke] [--out PATH]`
//! (default `BENCH_guardopt.json`; `--smoke` runs a three-kernel,
//! trap-only subset, asserts the bit-identical checksum and `fused > 0`
//! gates, prints the geomean without gating on it, and writes nothing
//! unless `--out` is given).

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::common::Dataset;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Measurement {
    time: Duration,
    checksum_bits: u64,
    gvn_elided: u64,
    fused: u64,
}

fn measure(
    bench: &lb_polybench::Benchmark,
    strategy: BoundsStrategy,
    guardopt: bool,
    iters: u32,
) -> Measurement {
    let before = lb_telemetry::snapshot();
    let engine = JitEngine::new(
        JitProfile::wasmtime()
            .with_midtier(true)
            .with_analysis(false)
            .with_guardopt(guardopt),
    );
    let loaded = engine.load(&bench.module).expect("load");
    let config = MemoryConfig::new(strategy, 1, 256);
    let mut inst = loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate");
    inst.invoke("init", &[]).expect("init");
    inst.invoke("kernel", &[]).expect("kernel"); // warm
    let t = Instant::now();
    for _ in 0..iters {
        inst.invoke("kernel", &[]).expect("kernel");
    }
    let time = t.elapsed() / iters;
    let checksum_bits = inst
        .invoke("checksum", &[])
        .expect("checksum")
        .expect("checksum value")
        .to_bits();
    let delta = lb_telemetry::snapshot().delta_since(&before);
    Measurement {
        time,
        checksum_bits,
        gvn_elided: delta.counter("jit.checks.gvn_elided"),
        fused: delta.counter("jit.checks.fused"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("usage: guardopt_bench [--smoke] [--out PATH]");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("usage: guardopt_bench [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let kernels: Vec<&str> = if smoke {
        lb_polybench::NAMES.iter().take(3).copied().collect()
    } else {
        lb_polybench::NAMES.to_vec()
    };
    let strategies: &[BoundsStrategy] = if smoke {
        &[BoundsStrategy::Trap]
    } else {
        &[
            BoundsStrategy::Trap,
            BoundsStrategy::Clamp,
            BoundsStrategy::Uffd,
        ]
    };
    let iters: u32 = if smoke { 3 } else { 5 };

    let mut rows = String::new();
    let mut trap_log_sum = 0.0f64;
    let mut trap_rows = 0usize;
    let mut first = true;
    for name in &kernels {
        let bench = lb_polybench::by_name(name, Dataset::Mini).expect("known kernel");
        for &strategy in strategies {
            let off = measure(&bench, strategy, false, iters);
            let on = measure(&bench, strategy, true, iters);
            assert_eq!(
                off.checksum_bits, on.checksum_bits,
                "{name}/{strategy:?}: guard optimization must not change a single bit"
            );
            if strategy == BoundsStrategy::Trap {
                assert!(
                    on.fused > 0,
                    "{name}/trap: the pass must fuse guards on a plan-less kernel"
                );
            } else {
                assert_eq!(
                    (on.gvn_elided, on.fused),
                    (0, 0),
                    "{name}/{strategy:?}: the pass only rewrites trap-strategy guards"
                );
            }
            let speedup = off.time.as_secs_f64() / on.time.as_secs_f64();
            if strategy == BoundsStrategy::Trap {
                trap_log_sum += speedup.ln();
                trap_rows += 1;
            }
            println!(
                "{name:<12} {:<8} off {:>10.3?} on {:>10.3?} speedup {speedup:.3}x \
                 (fused {}, gvn elided {})",
                strategy.name(),
                off.time,
                on.time,
                on.fused,
                on.gvn_elided
            );
            if !first {
                rows.push_str(",\n");
            }
            first = false;
            write!(
                rows,
                "    {{\"bench\": \"{name}\", \"strategy\": \"{}\", \
                 \"time_off_ns\": {}, \"time_on_ns\": {}, \"speedup\": {:.4}, \
                 \"fused\": {}, \"gvn_elided\": {}, \"checksum_bits\": {}}}",
                strategy.name(),
                off.time.as_nanos(),
                on.time.as_nanos(),
                speedup,
                on.fused,
                on.gvn_elided,
                on.checksum_bits
            )
            .unwrap();
        }
    }

    // A figure, not a gate: a few iterations of microsecond kernels
    // cannot separate a few percent from timing noise.
    let geomean = (trap_log_sum / trap_rows as f64).exp();
    println!("geomean speedup (trap, {trap_rows} kernels): {geomean:.3}x");

    let json = format!(
        "{{\n  \"description\": \"mid tier with the IR guard-optimization pass \
         (fused limit guards + dominance-based elision) on vs off; analysis plan \
         withheld in both arms, per PolyBench kernel x strategy\",\n  \
         \"iters\": {iters},\n  \"geomean_speedup_trap\": {geomean:.4},\n  \
         \"results\": [\n{rows}\n  ]\n}}\n"
    );
    match (smoke, out_path) {
        (_, Some(p)) => {
            std::fs::write(&p, json).expect("write results");
            println!("wrote {p}");
        }
        (false, None) => {
            std::fs::write("BENCH_guardopt.json", json).expect("write results");
            println!("wrote BENCH_guardopt.json");
        }
        (true, None) => println!("smoke mode: results not written"),
    }
}
