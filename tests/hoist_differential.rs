//! Differential testing for loop versioning (hoisted bounds checks):
//! the guard + fast/slow copy selection must be *invisible* to program
//! behavior. Modules with dynamic (unprovable-at-compile-time) loop
//! bounds run on interpreter and JIT configurations with hoisting on and
//! off, at exact memory boundaries, and must agree bit-for-bit on
//! results, trap points, and pre-trap partial side effects.

mod common;

use common::{dynamic_bound_module, multi_function_module, A_BASE, K, MAX_N};
use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{Instr, MemArg, Module, Value};

/// The engine matrix every differential test runs: interpreter (analysis
/// on/off) against JIT tiers with hoisting on and off.
fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("interp", Box::new(InterpEngine::new())),
        (
            "interp-noanalysis",
            Box::new(InterpEngine::new().with_analysis(false)),
        ),
        ("wavm", Box::new(JitEngine::new(JitProfile::wavm()))),
        (
            "wavm-nohoist",
            Box::new(JitEngine::new(JitProfile::wavm().with_hoisting(false))),
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

/// The plan must actually version this loop — otherwise the differential
/// tests below exercise nothing.
#[test]
fn dynamic_bound_loop_is_hoisted() {
    let _serial = common::process_lock();
    let m = dynamic_bound_module();
    let meta = lb_wasm::validate(&m).unwrap();
    let plan = lb_analysis::analyze_module(&m, &meta);
    let f = &plan.funcs[0];
    assert_eq!(f.summary.elided_hoisted, 1, "store site is hoisted");
    assert_eq!(
        f.summary.emitted, 1,
        "the post-loop a[n-1] read keeps its check"
    );
    let h = (0..m.functions[0].body.len() as u32)
        .find_map(|pc| f.hoist_at(pc))
        .expect("one versioned loop");
    assert_eq!(h.guards.len(), 1);
    let g = h.guards[0];
    assert!(g.strict, "backedge is `i <u end`");
    assert_eq!(g.shift, 2);
    assert_eq!(g.addend, u64::from(A_BASE) + 4);
}

/// Fast/slow selection at the exact guard boundary, under trap and clamp.
#[test]
fn versioned_loop_boundary_agrees() {
    let _serial = common::process_lock();
    let m = dynamic_bound_module();
    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        // In-bounds `n` (the largest takes the fast copy; the guard is
        // exactly `(n-1)*4 + 68 <= 65536`).
        for n in [0, 1, 7, MAX_N - 1, MAX_N] {
            let got = agreed(&m, strategy, n, "versioned loop in bounds");
            let want = if n == 0 {
                "ok:0000000000000000".to_string()
            } else {
                format!("ok:{:016x}", n - 1)
            };
            assert_eq!(got, want, "{strategy:?} n={n}");
        }
    }
    // First `n` past the guard: the slow copy runs and the strategies
    // diverge from each other (trap vs redirect) but never across engines.
    assert!(
        agreed(&m, BoundsStrategy::Trap, MAX_N + 1, "first oob").starts_with("trap:"),
        "trap strategy must trap one element past the end"
    );
    assert!(
        agreed(&m, BoundsStrategy::Clamp, MAX_N + 1, "first oob clamped").starts_with("ok:"),
        "clamp strategy redirects instead of trapping"
    );
    // A bound that wraps as signed: the guard's range pre-check must
    // route it to the slow copy, which traps at the same point.
    assert!(
        agreed(&m, BoundsStrategy::Trap, -1, "wrapping bound").starts_with("trap:"),
        "huge unsigned bound still traps at the boundary"
    );
}

/// `go(n)` (traps past the edge) plus `peek(j) -> a[j]`: after the trap,
/// every store the wasm program executed before the faulting iteration —
/// and none after — must be visible, identically on every engine.
#[test]
fn pre_trap_stores_visible_identically() {
    let _serial = common::process_lock();
    let mut m = dynamic_bound_module();
    // peek(j) = a[j]
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![],
        body: vec![
            Instr::LocalGet(0),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::I32Load(MemArg::offset(A_BASE)),
            Instr::End,
        ],
        name: Some("peek".into()),
    });
    m.exports.push(Export {
        name: "peek".into(),
        kind: ExportKind::Func(1),
    });
    lb_wasm::validate(&m).expect("module validates");

    let n = MAX_N + 1; // traps on the last iteration
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(&m).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let mut log = vec![repr(&inst.invoke("go", &[Value::I32(n)]))];
        assert!(log[0].starts_with("trap:"), "{name}: go({n}) must trap");
        for j in [0, 1, 4096, MAX_N - 1] {
            log.push(repr(&inst.invoke("peek", &[Value::I32(j)])));
        }
        match &first {
            None => {
                // Every store before the faulting iteration landed.
                for (k, j) in [0, 1, 4096, MAX_N - 1].iter().enumerate() {
                    assert_eq!(
                        log[k + 1],
                        format!("ok:{:016x}", j),
                        "{name}: store a[{j}] must be visible after the trap"
                    );
                }
                first = Some((name, log));
            }
            Some((f, want)) => assert_eq!(
                want, &log,
                "`{f}` and `{name}` disagree on pre-trap visibility"
            ),
        }
    }
}

/// Multi-function module: `go(n)` calls an internal `fill(m)` (versioned —
/// its bound joins a ⊤ argument) and sizes a second loop with an internal
/// `len()` helper whose constant return interval the interprocedural
/// analysis propagates (that loop needs no guard at all).
#[test]
fn multi_function_versioned_boundary_agrees() {
    let _serial = common::process_lock();
    let m = multi_function_module();
    let meta = lb_wasm::validate(&m).unwrap();

    // Plan shape: `fill`'s loop is versioned; `go`'s second loop is fully
    // statically elided through `len`'s propagated return interval.
    let plan = lb_analysis::analyze_module(&m, &meta);
    assert_eq!(plan.funcs[1].summary.elided_hoisted, 1, "fill is versioned");
    assert_eq!(plan.funcs[0].summary.elided_hoisted, 0);
    assert_eq!(
        plan.funcs[0].summary.emitted, 1,
        "only the post-loop a[n-1] read keeps its check"
    );
    assert!(
        plan.funcs[0].summary.elided_in_bounds >= 2,
        "len()'s return interval proves go's b-loop store (and the b[k-1] \
         read) in bounds: {:?}",
        plan.funcs[0].summary
    );
    assert_eq!(plan.funcs[2].summary.ret_iv, Some((K as u64, K as u64)));

    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        for n in [0, 1, K, MAX_N] {
            let got = agreed(&m, strategy, n, "multi-function in bounds");
            let want = if n == 0 {
                format!("ok:{:016x}", K - 1)
            } else {
                format!("ok:{:016x}", (n - 1) + (K - 1))
            };
            assert_eq!(got, want, "{strategy:?} n={n}");
        }
    }
    assert!(
        agreed(&m, BoundsStrategy::Trap, MAX_N + 1, "multi-function oob").starts_with("trap:"),
        "callee loop traps one element past the end"
    );
}

/// The `jit.checks.hoisted` counter reports fast-copy sites — and stays
/// zero with hoisting disabled.
#[test]
fn hoisted_counter_reports_fast_sites() {
    let _serial = common::process_lock();
    let m = dynamic_bound_module();
    let hoisted = lb_telemetry::counter("jit.checks.hoisted");
    let run = |profile: JitProfile| {
        let before = hoisted.get();
        let engine = JitEngine::new(profile);
        let loaded = engine.load(&m).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        assert!(inst.invoke("go", &[Value::I32(7)]).is_ok());
        hoisted.get() - before
    };
    assert!(
        run(JitProfile::wavm()) > 0,
        "hoisting on: fast-copy sites counted"
    );
    assert_eq!(
        run(JitProfile::wavm().with_hoisting(false)),
        0,
        "hoisting off: no hoisted sites"
    );
}
