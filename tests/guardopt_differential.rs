//! Differential testing for the IR guard-optimization pass: fused
//! compare-against-limit guards and dominance-based elisions must be
//! *invisible* to program behavior. The guardopt modules run on the
//! interpreter, the baseline tier, and the mid tier with fusion off and
//! on, at exact memory boundaries (t, t±1, 0, −1), and must agree
//! bit-for-bit on results, trap points, and pre-trap partial stores.
//! A `memory.grow` between accesses proves the pass treats grow as a
//! fact kill and that the fused limit table is refreshed.

mod common;

use common::{grow_between_module, redefine_module, rmw_module, A_BASE};
use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{FuncType, Instr, MemArg, Module, ValType, Value};

/// Last `t` for which `a[t]` (extent `A_BASE + 4`) fits in one page.
const LAST_IN: i32 = 65536 - (A_BASE as i32 + 4);

/// Interpreter reference, baseline tier, and the mid tier with the
/// guard-optimization pass off and on — plus a no-static-plan variant,
/// where every access reaches the IR pass unelided (densest fusion).
fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("interp", Box::new(InterpEngine::new())),
        ("baseline", Box::new(JitEngine::new(JitProfile::wasmtime()))),
        (
            "mid",
            Box::new(JitEngine::new(
                JitProfile::wasmtime()
                    .with_midtier(true)
                    .with_guardopt(false),
            )),
        ),
        (
            "mid-guardopt",
            Box::new(JitEngine::new(
                JitProfile::wasmtime()
                    .with_midtier(true)
                    .with_guardopt(true),
            )),
        ),
        (
            "mid-guardopt-noplan",
            Box::new(JitEngine::new(
                JitProfile::wasmtime()
                    .with_midtier(true)
                    .with_guardopt(true)
                    .with_analysis(false),
            )),
        ),
    ]
}

fn repr(r: &Result<Option<Value>, Trap>) -> String {
    match r {
        Ok(Some(v)) => format!("ok:{:016x}", v.to_bits()),
        Ok(None) => "ok:void".into(),
        Err(t) => format!("trap:{:?}", t.kind()),
    }
}

/// Invoke `go(t, x)` on every engine under `strategy` and assert
/// agreement on the result representation.
fn agreed(module: &Module, strategy: BoundsStrategy, t: i32, x: i32, ctx: &str) -> String {
    let mut first: Option<(&str, String)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(module).expect("module loads");
        let config = MemoryConfig::new(strategy, 1, 2).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let got = repr(&inst.invoke("go", &[Value::I32(t), Value::I32(x)]));
        match &first {
            None => first = Some((name, got)),
            Some((f, want)) => {
                assert_eq!(want, &got, "{ctx}: t={t}: `{f}` and `{name}` disagree")
            }
        }
    }
    first.unwrap().1
}

/// Append a `peek(j) -> i32` export reading `a[j]`, for post-trap
/// memory inspection.
fn with_peek(mut m: Module) -> Module {
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.functions.push(Function {
        type_idx: 1,
        locals: vec![],
        body: vec![
            Instr::LocalGet(0),
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
    m
}

/// Boundary sweep: the read-modify-write module (three same-address
/// accesses, two elided under guardopt) and the redefinition module
/// (whose `local.set` kills the first guard's fact) at the exact page
/// edge, under trap and clamp.
#[test]
fn guardopt_boundary_agrees() {
    let _serial = common::process_lock();
    let rmw = rmw_module();
    let redefine = redefine_module();
    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
        for t in [0, 1, 1000, LAST_IN - 1, LAST_IN] {
            let got = agreed(&rmw, strategy, t, 7, "rmw in bounds");
            assert_eq!(
                got, "ok:0000000000000007",
                "{strategy:?} t={t}: rmw on zeroed memory returns x"
            );
        }
        // The redefinition adds 64 to the address: both stores are
        // in bounds only up to LAST_IN - 64.
        for t in [0, 1000, LAST_IN - 65, LAST_IN - 64] {
            let got = agreed(&redefine, strategy, t, 7, "redefine in bounds");
            assert_eq!(
                got,
                format!("ok:{:016x}", (t + 64) as u32 as u64),
                "{strategy:?} t={t}: redefine returns the shifted address"
            );
        }
    }
    // One past the edge: trap traps, clamp redirects — identically
    // across all five engines.
    for (m, t, ctx) in [
        (&rmw, LAST_IN + 1, "rmw first oob"),
        (&rmw, -1, "rmw wrapped address"),
        (&redefine, LAST_IN - 63, "redefine second-store oob"),
        (&redefine, LAST_IN + 1, "redefine first-store oob"),
        (&redefine, -1, "redefine wrapped address"),
    ] {
        assert!(
            agreed(m, BoundsStrategy::Trap, t, 7, ctx).starts_with("trap:"),
            "{ctx}: trap strategy must trap at t={t}"
        );
        assert!(
            agreed(m, BoundsStrategy::Clamp, t, 7, ctx).starts_with("ok:"),
            "{ctx}: clamp strategy redirects instead of trapping"
        );
    }
}

/// Trap timing: when the redefinition module's *second* store traps, the
/// first store — already executed — must be visible, identically with
/// fusion off and on (a fused guard must trap before its access, never
/// after).
#[test]
fn guardopt_pre_trap_stores_visible_identically() {
    let _serial = common::process_lock();
    let m = with_peek(redefine_module());
    let t = LAST_IN - 63; // first store lands, second (t+64) is oob
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(&m).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 2).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let mut log = vec![repr(&inst.invoke("go", &[Value::I32(t), Value::I32(7)]))];
        assert!(log[0].starts_with("trap:"), "{name}: go({t}) must trap");
        for j in [t, 0] {
            log.push(repr(&inst.invoke("peek", &[Value::I32(j)])));
        }
        assert_eq!(
            log[1], "ok:0000000000000007",
            "{name}: the first store must be visible after the trap"
        );
        match &first {
            None => first = Some((name, log)),
            Some((f, want)) => assert_eq!(
                want, &log,
                "`{f}` and `{name}` disagree on pre-trap visibility"
            ),
        }
    }
}

/// `memory.grow` between same-address accesses: the grow must kill the
/// first guard's dominating fact (the IR pass re-checks the second
/// store) and refresh the fused limit table (so post-grow invokes see
/// the larger bound). Checked structurally against `decide` and
/// behaviorally across all engines.
#[test]
fn guardopt_grow_kills_facts_and_refreshes_limits() {
    let _serial = common::process_lock();
    let m = grow_between_module();

    // Structural: the pass must not elide across the grow. Sites sit at
    // pc 2 (first store), pc 8 (second store), pc 10 (the load). Only
    // the load — dominated by the second store's post-grow guard — may
    // be `GvnElide`.
    let meta = lb_wasm::validate(&m).expect("module validates");
    let extents = lb_jit::dataflow::module_extents(&m);
    let decisions =
        lb_jit::dataflow::decide(&m, &meta.funcs[0], &m.functions[0].body, None, &extents);
    assert!(
        !decisions
            .iter()
            .any(|&(pc, d)| pc == 8 && d == lb_analysis::GuardOpt::GvnElide),
        "the grow must kill the first store's fact: {decisions:?}"
    );
    assert!(
        decisions
            .iter()
            .any(|&(pc, d)| pc == 10 && d == lb_analysis::GuardOpt::GvnElide),
        "the load is dominated by the second store's guard: {decisions:?}"
    );

    // Behavioral: in-bounds and the exact page edge agree everywhere.
    for t in [0, 1000, LAST_IN] {
        let got = agreed(&m, BoundsStrategy::Trap, t, 9, "grow in bounds");
        assert_eq!(got, "ok:0000000000000009", "t={t}: returns the stored x");
    }
    assert!(
        agreed(&m, BoundsStrategy::Trap, LAST_IN + 1, 9, "grow first oob").starts_with("trap:"),
        "the first store traps before the grow runs"
    );

    // Limit refresh across invokes: the first call grows memory to two
    // pages, so a second call may address page two — where the first
    // call's `t` would have trapped. The fused limit table must have
    // been refreshed after the grow for mid-guardopt to agree.
    let two_page_t = 70000;
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(&m).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 2).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        let log = vec![
            repr(&inst.invoke("go", &[Value::I32(0), Value::I32(1)])),
            repr(&inst.invoke("go", &[Value::I32(two_page_t), Value::I32(2)])),
        ];
        assert_eq!(log[0], "ok:0000000000000001", "{name}: first call grows");
        assert_eq!(
            log[1], "ok:0000000000000002",
            "{name}: page two must be addressable after the grow"
        );
        match &first {
            None => first = Some((name, log)),
            Some((f, want)) => assert_eq!(want, &log, "`{f}` and `{name}` disagree after grow"),
        }
    }
}

/// The guardopt counters actually move when the mid tier compiles these
/// modules with fusion on — and stay still with it off.
#[test]
fn guardopt_counters_move() {
    let _serial = common::process_lock();
    let gvn = lb_telemetry::counter("jit.checks.gvn_elided");
    let fused = lb_telemetry::counter("jit.checks.fused");
    let run = |on: bool| {
        let engine = JitEngine::new(
            JitProfile::wasmtime()
                .with_midtier(true)
                .with_analysis(false)
                .with_guardopt(on),
        );
        let loaded = engine.load(&rmw_module()).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 2).with_reserve(1 << 22);
        let mut inst = loaded
            .instantiate(&config, &Linker::new())
            .expect("instantiate");
        assert!(inst.invoke("go", &[Value::I32(5), Value::I32(3)]).is_ok());
    };
    let (g0, f0) = (gvn.get(), fused.get());
    run(false);
    assert_eq!((gvn.get(), fused.get()), (g0, f0), "off: counters still");
    run(true);
    assert!(gvn.get() > g0, "on: IR elisions counted");
    assert!(fused.get() > f0, "on: fused guards counted");
}
