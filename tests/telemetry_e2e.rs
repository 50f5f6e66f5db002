//! End-to-end telemetry: run tiny PolyBench kernels under the
//! interpreter and a JIT profile and check that the harness's per-run
//! telemetry snapshot carries JIT compile spans, strategy-labelled
//! `memory.grow` counters and a trap latency histogram when the signal
//! path is exercised, and that the interpreter counts executed
//! instructions by cost class.

use lb_core::exec::{Engine, Linker};
use lb_core::{catch_traps, BoundsStrategy, LinearMemory, MemoryConfig};
use lb_dsl::{expr, DslFunc, KernelModule};
use lb_harness::{run_benchmark, EngineSel, RunSpec};
use lb_polybench::{by_name, common::Dataset};
use lb_wasm::instr::CostClass;
use lb_wasm::types::ValType;
use std::sync::Mutex;

/// `run_benchmark` drains every span ring process-wide, so the tests in
/// this binary must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn quick_spec(engine: EngineSel) -> RunSpec {
    let mut spec = RunSpec::new(engine, BoundsStrategy::Mprotect);
    spec.iterations = 3;
    spec.reserve_bytes = 64 << 20;
    spec.max_pages = 512;
    spec.sample_system = false;
    spec
}

#[test]
fn jit_run_records_compile_spans() {
    let _g = SERIAL.lock().unwrap();
    lb_telemetry::set_spans_enabled(true);
    let b = by_name("atax", Dataset::Mini).unwrap();
    let r = run_benchmark(&b, &quick_spec(EngineSel::Wavm));
    lb_telemetry::set_spans_enabled(false);
    assert!(r.checksum_ok);

    let spans = r.telemetry.spans_named("jit.compile");
    assert!(
        !spans.is_empty(),
        "expected jit.compile spans in the run snapshot"
    );
    assert!(spans
        .iter()
        .all(|s| s.kind == lb_telemetry::EventKind::Span));
    // WAVM profile compiles at the Full tier.
    assert!(r.telemetry.counter("jit.code_bytes.full") > 0);
    let h = r
        .telemetry
        .histogram("jit.compile_ns")
        .expect("compile-time histogram");
    assert!(h.count > 0);
    // The profile runs the static analysis once, at load.
    let analysis = r
        .telemetry
        .histogram("analysis.module_ns")
        .expect("analysis-time histogram");
    assert!(analysis.count >= 1, "analysis.module_ns is empty");
    assert!(!r.telemetry.spans_named("analysis.module").is_empty());
    // One reservation per isolate iteration.
    assert!(r.telemetry.counter("mem.mmap") >= 3);
}

#[test]
fn interp_invoke_counted_counts_by_class() {
    let b = by_name("atax", Dataset::Mini).unwrap();
    let loaded = lb_interp::InterpModule::load(&b.module).expect("atax loads");
    let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1024).with_reserve(64 << 20);
    let mut inst = loaded
        .instantiate_interp(&config, &Linker::new())
        .expect("instantiate");
    // The exports a harness run calls; `checksum` is the one that calls.
    let counts = ["init", "kernel", "checksum"]
        .map(|export| inst.invoke_counted(export, &[]).expect(export).1);
    for class in [
        CostClass::MemLoad,
        CostClass::MemStore,
        CostClass::IntAlu,
        CostClass::Call,
    ] {
        let n: u64 = counts.iter().map(|c| c.get(class)).sum();
        assert!(n > 0, "{} should be nonzero", class.name());
    }
}

/// A module whose export grows memory twice.
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

fn run_grow(engine: &dyn Engine, strategy: BoundsStrategy) {
    let module = grow_module();
    let loaded = engine.load(&module).expect("grow module loads");
    let config = MemoryConfig::new(strategy, 1, 8).with_reserve(1 << 22);
    let mut inst = loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate");
    inst.invoke("grow_some", &[]).expect("grow_some");
}

#[test]
fn grow_counters_are_strategy_labelled() {
    let _g = SERIAL.lock().unwrap();
    let before = lb_telemetry::snapshot();
    run_grow(
        &lb_jit::JitEngine::new(lb_jit::JitProfile::wavm()),
        BoundsStrategy::Mprotect,
    );
    run_grow(&lb_interp::InterpEngine::new(), BoundsStrategy::Trap);
    let d = lb_telemetry::snapshot().delta_since(&before);
    assert!(d.counter("mem.grow.mprotect") >= 2);
    assert!(d.counter("mem.grow.trap") >= 2);
}

#[test]
fn hardware_trap_records_latency_histogram() {
    let _g = SERIAL.lock().unwrap();
    let before = lb_telemetry::snapshot();
    let config = MemoryConfig::new(BoundsStrategy::Mprotect, 1, 1).with_reserve(4 << 20);
    let m = LinearMemory::new(&config).unwrap();
    for _ in 0..4 {
        catch_traps(|| m.load::<u8>(2 * 65536, 0)).unwrap_err();
    }
    let d = lb_telemetry::snapshot().delta_since(&before);
    assert!(d.counter("trap.signal") >= 4);
    let h = d
        .histogram("trap.latency_ns")
        .expect("trap latency histogram");
    assert!(h.count >= 4, "every hardware trap records a latency sample");
    assert!(h.sum > 0);
    assert!(h.quantile(0.5) > 0);
}
