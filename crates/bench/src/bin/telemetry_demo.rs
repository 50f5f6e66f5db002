//! Telemetry acceptance demo: exercises every instrumented path and
//! exports per-run snapshots to the sink selected by `LB_TELEMETRY`.
//!
//! ```text
//! LB_TELEMETRY=jsonl:out.jsonl cargo run --release -p lb-bench --bin telemetry_demo
//! ```
//!
//! The output contains a PolyBench run under the WAVM-profile JIT
//! (compile spans, code-size counters), a run that grows linear memory
//! under two strategies (strategy-labelled `mem.grow.*` counters), and
//! a batch of hardware traps (`trap.latency_ns` histogram).

use lb_core::exec::{Engine, Linker};
use lb_core::{catch_traps, BoundsStrategy, LinearMemory, MemoryConfig};
use lb_dsl::{expr, DslFunc, KernelModule};
use lb_harness::{run_benchmark, EngineSel, RunSpec};
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::{by_name, common::Dataset};
use lb_wasm::types::ValType;

fn grow_module() -> lb_wasm::Module {
    let mut f = DslFunc::new("grow_some", &[], Some(ValType::I32));
    f.memory_grow(expr::i32(1));
    f.memory_grow(expr::i32(1));
    f.ret(expr::i32(0));
    let mut km = KernelModule::new();
    km.memory(1, Some(8));
    km.add_exported(f);
    km.finish()
}

fn main() {
    lb_telemetry::ensure_thread_ring();
    lb_telemetry::set_spans_enabled(true);

    // 1. PolyBench under the JIT: compile spans, code-size counters,
    //    per-run mmap/mprotect counts. Exported by the harness itself.
    let bench = by_name("atax", Dataset::Mini).unwrap();
    let mut spec = RunSpec::new(EngineSel::Wavm, BoundsStrategy::Mprotect);
    spec.iterations = 4;
    let r = run_benchmark(&bench, &spec);
    assert!(r.checksum_ok);

    // 2. memory.grow under two strategies + a batch of hardware traps,
    //    exported as one extra record.
    let before = lb_telemetry::snapshot();
    for (engine, strategy) in [
        (
            Box::new(JitEngine::new(JitProfile::wavm())) as Box<dyn Engine>,
            BoundsStrategy::Mprotect,
        ),
        (
            Box::new(JitEngine::new(JitProfile::wavm())),
            BoundsStrategy::Trap,
        ),
    ] {
        let module = grow_module();
        let loaded = engine.load(&module).unwrap();
        let config = MemoryConfig::new(strategy, 1, 8).with_reserve(1 << 22);
        let mut inst = loaded.instantiate(&config, &Linker::new()).unwrap();
        inst.invoke("grow_some", &[]).unwrap();
    }
    let config = MemoryConfig::new(BoundsStrategy::Mprotect, 1, 1).with_reserve(4 << 20);
    let mem = LinearMemory::new(&config).unwrap();
    for _ in 0..8 {
        catch_traps(|| mem.load::<u8>(2 * 65536, 0)).unwrap_err();
    }
    let mut delta = lb_telemetry::snapshot_and_drain().delta_since(&before);
    delta.retain_nonzero();
    lb_telemetry::export::emit_run(&[("bench", "grow-and-trap".to_string())], &delta);

    eprintln!(
        "telemetry demo done: grows={} traps={}",
        delta.counter_sum("mem.grow."),
        delta.counter("trap.signal")
    );
}
