//! Differential test for the multi-function module: `go(n)` calls an
//! internal `fill(m)` and sizes a second loop with an internal `len()`
//! helper. The file and test names date from when `fill`'s loop was
//! versioned behind a hoisted guard; the engine no longer versions
//! loops, so `fill` keeps a per-access check. The test
//! pins the plan's shape for this module and requires the interpreter
//! and the JIT tiers (with the static plan on and off) to agree
//! bit-for-bit at the exact memory boundary.
//!
//! `guardopt_differential::calls_boundary_agrees` sweeps the same module
//! under every strategy against the fused tiers.

mod common;

use common::{multi_function_module, K, MAX_N};
use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::{Module, Value};

/// The interpreter (which never reads the plan) against JIT tiers that
/// do and do not consume it.
fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("interp", Box::new(InterpEngine::new())),
        ("wavm", Box::new(JitEngine::new(JitProfile::wavm()))),
        (
            "wavm-noanalysis",
            Box::new(JitEngine::new(JitProfile::wavm().with_analysis(false))),
        ),
        ("wasmtime", Box::new(JitEngine::new(JitProfile::wasmtime()))),
    ]
}

fn repr(r: &Result<Option<Value>, Trap>) -> String {
    match r {
        Ok(Some(v)) => format!("ok:{:016x}", v.to_bits()),
        Ok(None) => "ok:void".into(),
        Err(t) => format!("trap:{:?}", t.kind()),
    }
}

/// Invoke `go(n)` on every engine under `strategy` and assert agreement.
fn agreed(module: &Module, strategy: BoundsStrategy, n: i32, ctx: &str) -> String {
    let mut first: Option<(&str, String)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(module).expect("module loads");
        let config = MemoryConfig::new(strategy, 1, 1).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let got = repr(&inst.invoke("go", &[Value::I32(n)]));
        match &first {
            None => first = Some((name, got)),
            Some((f, want)) => {
                assert_eq!(want, &got, "{ctx}: n={n}: `{f}` and `{name}` disagree")
            }
        }
    }
    first.unwrap().1
}

#[test]
fn multi_function_versioned_boundary_agrees() {
    let _serial = common::process_lock();
    let m = multi_function_module();
    let meta = lb_wasm::validate(&m).unwrap();

    // Plan shape: each function is analyzed with ⊤ parameters and ⊤
    // call results, so `fill`'s store keeps its check, and so does `go`'s
    // b-loop store, whose bound is `len()`'s (⊤) result. `go`'s
    // constant-address b[K-1] read is proven in bounds.
    let plan = lb_analysis::analyze_module(&m, &meta);
    assert_eq!(plan.funcs[1].summary.emitted, 1, "fill keeps its check");
    assert_eq!(
        plan.funcs[0].summary.emitted, 2,
        "go's b-loop store and its a[n-1] read keep their checks: {:?}",
        plan.funcs[0].summary
    );
    assert_eq!(
        plan.funcs[0].summary.elided_in_bounds, 1,
        "the b[K-1] read is in bounds: {:?}",
        plan.funcs[0].summary
    );

    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        for n in [0, 1, K, MAX_N] {
            let got = agreed(&m, strategy, n, "multi-function in bounds");
            let want = format!("ok:{:016x}", (n - 1).max(0) + (K - 1));
            assert_eq!(got, want, "{strategy:?} n={n}");
        }
    }
    assert!(
        agreed(&m, BoundsStrategy::Trap, MAX_N + 1, "multi-function oob").starts_with("trap:"),
        "callee loop traps one element past the end"
    );
}
