//! Quickstart: build a wasm module with the DSL, run it on every engine
//! under every bounds-checking strategy, and watch an out-of-bounds access
//! become a clean wasm trap.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use leaps_and_bounds::core::exec::{Engine, Linker};
use leaps_and_bounds::core::{BoundsStrategy, MemoryConfig};
use leaps_and_bounds::dsl::{expr, DslFunc, KernelModule};
use leaps_and_bounds::interp::InterpEngine;
use leaps_and_bounds::jit::{JitEngine, JitProfile};
use leaps_and_bounds::wasm::types::ValType;
use leaps_and_bounds::wasm::Value;

fn main() {
    // 1. Author a module: sum the squares 1..=n into linear memory, then
    //    read an arbitrary address (so we can demo bounds checking).
    let mut f = DslFunc::new("sum_squares", &[ValType::I32], Some(ValType::I64));
    let n = f.param(0);
    let i = f.local_i32();
    let acc = f.local_i64();
    f.for_i32(i, expr::i32(1), n.get() + expr::i32(1), |f| {
        f.assign(acc, acc.get() + i.get().to_i64() * i.get().to_i64());
    });
    f.ret(acc.get());

    // `peek` loads a caller-chosen address — the bounds-check demo.
    let mut peek = DslFunc::new("peek", &[ValType::I32], Some(ValType::I32));
    peek.raw([
        leaps_and_bounds::wasm::Instr::LocalGet(0),
        leaps_and_bounds::wasm::Instr::I32Load(leaps_and_bounds::wasm::MemArg::offset(0)),
    ]);

    let mut km = KernelModule::new();
    km.memory(1, Some(4));
    km.add_exported(f);
    km.add_exported(peek);
    let module = km.finish();

    // 2. Run it on all four runtimes.
    let engines: Vec<(&str, Box<dyn Engine>)> = vec![
        ("wavm", Box::new(JitEngine::new(JitProfile::wavm()))),
        ("wasmtime", Box::new(JitEngine::new(JitProfile::wasmtime()))),
        ("v8", Box::new(JitEngine::new(JitProfile::v8()))),
        ("interp", Box::new(InterpEngine::new())),
    ];
    for (name, engine) in &engines {
        let loaded = engine.load(&module).expect("load");
        let config = MemoryConfig::new(BoundsStrategy::Mprotect, 1, 4).with_reserve(16 << 20);
        let mut inst = loaded.instantiate(&config, &Linker::new()).expect("inst");
        let r = inst
            .invoke("sum_squares", &[Value::I32(1000)])
            .expect("invoke")
            .unwrap();
        println!("{name:9} sum of squares 1..=1000 = {r}");
        assert_eq!(r, Value::I64(333_833_500));
    }

    // 3. Bounds checking in action: the same out-of-bounds read under each
    //    strategy.
    println!();
    let engine = JitEngine::new(JitProfile::wavm());
    let loaded = engine.load(&module).expect("load");
    for strategy in BoundsStrategy::ALL {
        if strategy == BoundsStrategy::Uffd
            && !leaps_and_bounds::core::uffd::sigbus_mode_available()
        {
            println!("{strategy:9} (unavailable: needs userfaultfd with SIGBUS)");
            continue;
        }
        let config = MemoryConfig::new(strategy, 1, 1).with_reserve(16 << 20);
        let mut inst = loaded.instantiate(&config, &Linker::new()).expect("inst");
        // One page = 65536 bytes; read far beyond it.
        match inst.invoke("peek", &[Value::I32(3 * 65536)]) {
            Ok(v) => println!("{strategy:9} out-of-bounds read returned {v:?}"),
            Err(t) => println!("{strategy:9} out-of-bounds read trapped: {t}"),
        }
    }
}
