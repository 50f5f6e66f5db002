//! Differential testing for guard fusion at `OptLevel::Full`: a trap
//! check emitted as one compare against the module limit table must be
//! *invisible* to program behavior. Modules run on the interpreter, the
//! `Basic` tier, and `Full` with fusion off and on (with and without the
//! static plan), under every bounds-check strategy, at exact
//! memory boundaries (t, t±1, 0, −1), and must agree bit-for-bit on
//! results, trap points, and pre-trap partial stores. A `memory.grow`
//! between accesses proves the limit table is refreshed. The workload
//! sweep checks the same on the SPEC proxies and PolyBench.
//!
//! Every test holds `common::process_lock()`: `guardopt_counters_move`
//! asserts the process-wide fused counter stays still with fusion off,
//! which a concurrent compile in this binary would break.

mod common;

use common::{
    dynamic_bound_module, grow_between_module, multi_function_module, redefine_module, rmw_module,
    A_BASE, K, MAX_N,
};
use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{BlockType, FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType, Value};

/// Last `t` for which `a[t]` (extent `A_BASE + 4`) fits in one page.
const LAST_IN: i32 = 65536 - (A_BASE as i32 + 4);

const STRATEGIES: [BoundsStrategy; 5] = [
    BoundsStrategy::None,
    BoundsStrategy::Clamp,
    BoundsStrategy::Trap,
    BoundsStrategy::Mprotect,
    BoundsStrategy::Uffd,
];

/// Interpreter reference, the `Basic` tier, and `Full` with fusion off
/// and on — plus a no-plan variant of the fused tier (every access
/// reaches codegen with its check, the densest fusion).
fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("interp", Box::new(InterpEngine::new())),
        ("basic", Box::new(JitEngine::new(JitProfile::wasmtime()))),
        (
            "full",
            Box::new(JitEngine::new(JitProfile::wavm().with_guardopt(false))),
        ),
        ("full-fused", Box::new(JitEngine::new(JitProfile::wavm()))),
        (
            "full-fused-noplan",
            Box::new(JitEngine::new(JitProfile::wavm().with_analysis(false))),
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

/// A small-reservation config sized by the module's declared memory.
fn config(module: &Module, strategy: BoundsStrategy) -> MemoryConfig {
    let limits = module.memory.as_ref().expect("module has a memory").limits;
    MemoryConfig::new(strategy, limits.min, limits.max.unwrap_or(limits.min)).with_reserve(1 << 22)
}

/// Invoke `go(args)` on every engine under `strategy` and assert
/// agreement on the result representation.
fn agreed(module: &Module, strategy: BoundsStrategy, args: &[Value], ctx: &str) -> String {
    let mut first: Option<(&str, String)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(module).expect("module loads");
        let mut inst = loaded
            .instantiate(&config(module, strategy), &Linker::new())
            .expect("instantiate");
        let got = repr(&inst.invoke("go", args));
        match &first {
            None => first = Some((name, got)),
            Some((f, want)) => assert_eq!(
                want, &got,
                "{ctx} [{strategy:?}] {args:?}: `{f}` and `{name}` disagree"
            ),
        }
    }
    first.unwrap().1
}

fn tx(t: i32, x: i32) -> [Value; 2] {
    [Value::I32(t), Value::I32(x)]
}

/// Append a `peek(j) -> i32` export reading the `i32` at `(j << shift) +
/// A_BASE`, for post-trap memory inspection.
fn with_peek(mut m: Module, shift: i32) -> Module {
    let ty = m.types.len() as u32;
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.functions.push(Function {
        type_idx: ty,
        locals: vec![],
        body: vec![
            Instr::LocalGet(0),
            Instr::I32Const(shift),
            Instr::I32Shl,
            Instr::I32Load(MemArg::offset(A_BASE)),
            Instr::End,
        ],
        name: Some("peek".into()),
    });
    m.exports.push(Export {
        name: "peek".into(),
        kind: ExportKind::Func(m.functions.len() as u32 - 1),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

/// Boundary sweep: the read-modify-write module (three same-address
/// accesses) and the redefinition module (whose `local.set` moves the
/// second store's address) at the exact page edge, under every strategy.
#[test]
fn guardopt_boundary_agrees() {
    let _serial = common::process_lock();
    let rmw = rmw_module();
    let redefine = redefine_module();
    for strategy in STRATEGIES {
        for t in [0, 1, 1000, LAST_IN - 1, LAST_IN] {
            let got = agreed(&rmw, strategy, &tx(t, 7), "rmw in bounds");
            assert_eq!(
                got, "ok:0000000000000007",
                "{strategy:?} t={t}: rmw on zeroed memory returns x"
            );
        }
        // The redefinition adds 64 to the address: both stores are
        // in bounds only up to LAST_IN - 64.
        for t in [0, 1000, LAST_IN - 65, LAST_IN - 64] {
            let got = agreed(&redefine, strategy, &tx(t, 7), "redefine in bounds");
            assert_eq!(
                got,
                format!("ok:{:016x}", (t + 64) as u32 as u64),
                "{strategy:?} t={t}: redefine returns the shifted address"
            );
        }
    }
    // One past the edge: trap traps, clamp redirects — identically
    // across all engines.
    for (m, t, ctx) in [
        (&rmw, LAST_IN + 1, "rmw first oob"),
        (&rmw, -1, "rmw wrapped address"),
        (&redefine, LAST_IN - 63, "redefine second-store oob"),
        (&redefine, LAST_IN + 1, "redefine first-store oob"),
        (&redefine, -1, "redefine wrapped address"),
    ] {
        assert!(
            agreed(m, BoundsStrategy::Trap, &tx(t, 7), ctx).starts_with("trap:"),
            "{ctx}: trap strategy must trap at t={t}"
        );
        assert!(
            agreed(m, BoundsStrategy::Clamp, &tx(t, 7), ctx).starts_with("ok:"),
            "{ctx}: clamp strategy redirects instead of trapping"
        );
    }
}

/// Boundary sweep on the dynamic-bound store loop, whose store no static
/// fact covers (every engine checks it per access): every `n` around
/// the exact memory edge.
#[test]
fn dynamic_bound_boundary_agrees() {
    let _serial = common::process_lock();
    let m = dynamic_bound_module();
    for strategy in STRATEGIES {
        for n in [0, 1, 7, MAX_N - 1, MAX_N] {
            let got = agreed(&m, strategy, &[Value::I32(n)], "dynamic bound in bounds");
            let want = format!("ok:{:016x}", (n - 1).max(0));
            assert_eq!(got, want, "{strategy:?} n={n}");
        }
    }
    // One element past the end: trap traps, clamp redirects — but the
    // engines never diverge from each other.
    assert!(
        agreed(
            &m,
            BoundsStrategy::Trap,
            &[Value::I32(MAX_N + 1)],
            "first oob"
        )
        .starts_with("trap:"),
        "trap strategy must trap one element past the end"
    );
    assert!(
        agreed(
            &m,
            BoundsStrategy::Clamp,
            &[Value::I32(MAX_N + 1)],
            "first oob"
        )
        .starts_with("ok:"),
        "clamp strategy redirects instead of trapping"
    );
    assert!(
        agreed(
            &m,
            BoundsStrategy::Trap,
            &[Value::I32(-1)],
            "wrapping bound"
        )
        .starts_with("trap:"),
        "huge unsigned bound still traps at the boundary"
    );
}

/// Calls inside and around the hot loops: the multi-function module
/// (whose `go` calls `fill` and `len`) agrees across engines at the same
/// boundaries.
#[test]
fn calls_boundary_agrees() {
    let _serial = common::process_lock();
    let m = multi_function_module();
    for strategy in STRATEGIES {
        for n in [0, 1, K, MAX_N] {
            let got = agreed(&m, strategy, &[Value::I32(n)], "multi-function in bounds");
            let want = format!("ok:{:016x}", (n - 1).max(0) + (K - 1));
            assert_eq!(got, want, "{strategy:?} n={n}");
        }
    }
    assert!(
        agreed(
            &m,
            BoundsStrategy::Trap,
            &[Value::I32(MAX_N + 1)],
            "multi-function oob"
        )
        .starts_with("trap:"),
        "callee loop traps one element past the end"
    );
}

/// Runs `go(args)` under the trap strategy on every engine, asserts it
/// traps, then peeks each `(index, want)` and requires every engine to
/// report the same pre-trap memory.
fn assert_pre_trap_visibility(m: &Module, args: &[Value], peeks: &[(i32, i32)]) {
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(m).expect("module loads");
        let mut inst = loaded
            .instantiate(&config(m, BoundsStrategy::Trap), &Linker::new())
            .expect("instantiate");
        let mut log = vec![repr(&inst.invoke("go", args))];
        assert!(log[0].starts_with("trap:"), "{name}: go{args:?} must trap");
        for &(j, want) in peeks {
            let got = repr(&inst.invoke("peek", &[Value::I32(j)]));
            assert_eq!(
                got,
                format!("ok:{:016x}", want),
                "{name}: peek({j}) after the trap of go{args:?}"
            );
            log.push(got);
        }
        match &first {
            None => first = Some((name, log)),
            Some((f, want)) => assert_eq!(
                want, &log,
                "`{f}` and `{name}` disagree on pre-trap visibility"
            ),
        }
    }
}

/// Trap timing: when a store traps, every store before it — and nothing
/// after — must be visible, identically with fusion off and on (a fused
/// guard must trap before its access, never after). Here the
/// redefinition module's *second* store traps.
#[test]
fn guardopt_pre_trap_stores_visible_identically() {
    let _serial = common::process_lock();
    let t = LAST_IN - 63; // first store lands, second (t+64) is oob
    assert_pre_trap_visibility(
        &with_peek(redefine_module(), 0),
        &tx(t, 7),
        &[(t, 7), (0, 0)],
    );
}

/// Trap timing in a loop: the dynamic-bound store loop traps on its last
/// iteration, so every earlier iteration's store must be visible on every
/// engine.
#[test]
fn dynamic_bound_pre_trap_stores_visible_identically() {
    let _serial = common::process_lock();
    assert_pre_trap_visibility(
        &with_peek(dynamic_bound_module(), 2),
        &[Value::I32(MAX_N + 1)],
        &[0, 1, 4096, MAX_N - 1].map(|j| (j, j)),
    );
}

/// `memory.grow` between same-address accesses. Without a plan every
/// access keeps a check, and at `Full` all three fuse — so the stores
/// after the grow are checked against the limit table, which must be
/// refreshed for post-grow invokes to see the larger bound.
#[test]
fn guardopt_grow_kills_facts_and_refreshes_limits() {
    let _serial = common::process_lock();
    let m = grow_between_module();

    // Structural: all three sites fuse when compiled without a plan.
    let fused = lb_telemetry::counter("jit.checks.fused");
    let before = fused.get();
    let engine = JitEngine::new(JitProfile::wavm().with_analysis(false));
    let loaded = engine.load(&m).expect("module loads");
    let mut inst = loaded
        .instantiate(&config(&m, BoundsStrategy::Trap), &Linker::new())
        .expect("instantiate");
    assert_eq!(repr(&inst.invoke("go", &tx(0, 1))), "ok:0000000000000001");
    assert_eq!(fused.get() - before, 3, "every access fuses");

    // Behavioral: in-bounds and the exact page edge agree everywhere.
    for t in [0, 1000, LAST_IN] {
        let got = agreed(&m, BoundsStrategy::Trap, &tx(t, 9), "grow in bounds");
        assert_eq!(got, "ok:0000000000000009", "t={t}: returns the stored x");
    }
    assert!(
        agreed(
            &m,
            BoundsStrategy::Trap,
            &tx(LAST_IN + 1, 9),
            "grow first oob"
        )
        .starts_with("trap:"),
        "the first store traps before the grow runs"
    );

    // Limit refresh across invokes: the first call grows memory to two
    // pages, so a second call may address page two — where the first
    // call's `t` would have trapped. The fused limit table must have
    // been refreshed after the grow for the fused engines to agree.
    let two_page_t = 70000;
    let mut first: Option<(&str, Vec<String>)> = None;
    for (name, engine) in engines() {
        let loaded = engine.load(&m).expect("module loads");
        let mut inst = loaded
            .instantiate(&config(&m, BoundsStrategy::Trap), &Linker::new())
            .expect("instantiate");
        let log = vec![
            repr(&inst.invoke("go", &tx(0, 1))),
            repr(&inst.invoke("go", &tx(two_page_t, 2))),
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

/// The fused counter moves when `Full` compiles with fusion on — and
/// stays still with it off.
#[test]
fn guardopt_counters_move() {
    let _serial = common::process_lock();
    let fused = lb_telemetry::counter("jit.checks.fused");
    let run = |on: bool| {
        let m = rmw_module();
        let engine = JitEngine::new(JitProfile::wavm().with_analysis(false).with_guardopt(on));
        let loaded = engine.load(&m).expect("module loads");
        let mut inst = loaded
            .instantiate(&config(&m, BoundsStrategy::Trap), &Linker::new())
            .expect("instantiate");
        assert!(inst.invoke("go", &tx(5, 3)).is_ok());
    };
    let f0 = fused.get();
    run(false);
    assert_eq!(fused.get(), f0, "off: counter still");
    run(true);
    assert!(fused.get() > f0, "on: fused guards counted");
}

/// `go(n)` accumulates 8 loop-carried counters (counter `l` gains `l`
/// per iteration) plus an induction variable — more hot integer locals
/// than `Full` pins in registers, so most stay slot-homed. Returns
/// `sum_{l=1..8} l*n = 36*n`.
fn register_pressure_module() -> Module {
    let mut m = Module::new();
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    // Locals: 0 = n (param), 1..=8 = counters, 9 = i.
    let mut body = vec![
        Instr::Block(BlockType::Empty),
        Instr::LocalGet(0),
        Instr::I32Eqz,
        Instr::BrIf(0),
        Instr::Loop(BlockType::Empty),
    ];
    for l in 1..=8u32 {
        body.extend([
            Instr::LocalGet(l),
            Instr::I32Const(l as i32),
            Instr::I32Add,
            Instr::LocalSet(l),
        ]);
    }
    body.extend([
        Instr::LocalGet(9),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalTee(9),
        Instr::LocalGet(0),
        Instr::I32LtU,
        Instr::BrIf(0),
        Instr::End,
        Instr::End,
    ]);
    // Sum the counters.
    body.push(Instr::LocalGet(1));
    for l in 2..=8u32 {
        body.extend([Instr::LocalGet(l), Instr::I32Add]);
    }
    body.push(Instr::End);
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![ValType::I32; 9],
        body,
        name: Some("go".into()),
    });
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

/// Register pressure: the mix of register-pinned and slot-homed locals
/// computes the same sums as the reference engines.
#[test]
fn register_pressure_agrees() {
    let _serial = common::process_lock();
    let m = register_pressure_module();
    for n in [0, 1, 2, 1000] {
        let got = agreed(
            &m,
            BoundsStrategy::Trap,
            &[Value::I32(n)],
            "register pressure",
        );
        assert_eq!(got, format!("ok:{:016x}", 36u64 * n as u64), "n={n}");
    }
}

/// A `local.set` whose value is overwritten before any read: every
/// engine must produce the second value.
#[test]
fn dead_local_set_agrees() {
    let _serial = common::process_lock();
    let mut m = Module::new();
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![ValType::I32],
        body: vec![
            Instr::I32Const(17),
            Instr::LocalSet(1), // dead: overwritten before any read
            Instr::LocalGet(0),
            Instr::I32Const(25),
            Instr::I32Add,
            Instr::LocalSet(1),
            Instr::LocalGet(1),
            Instr::End,
        ],
        name: Some("go".into()),
    });
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    lb_wasm::validate(&m).expect("module validates");
    for n in [0, 1, -25, i32::MAX] {
        let got = agreed(&m, BoundsStrategy::Trap, &[Value::I32(n)], "dead local.set");
        let want = format!("ok:{:016x}", (n.wrapping_add(25) as u32) as u64);
        assert_eq!(got, want, "n={n}");
    }
}

/// Run `init`, `kernel`, `checksum` once; returns the checksum's bits.
fn run_workload(engine: &dyn Engine, module: &Module, strategy: BoundsStrategy) -> u64 {
    let loaded = engine.load(module).expect("workload loads");
    let limits = module.memory.as_ref().expect("workload memory").limits;
    let config = MemoryConfig::new(strategy, limits.min, limits.max.unwrap_or(limits.min));
    let mut inst = loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate");
    inst.invoke("init", &[]).expect("init");
    inst.invoke("kernel", &[]).expect("kernel");
    inst.invoke("checksum", &[])
        .expect("checksum")
        .expect("checksum value")
        .to_bits()
}

/// The workloads: the SPEC proxies with the static plan (their residual
/// checks are the ones `Full` fuses), and PolyBench with the plan
/// withheld (the plan elides every PolyBench check, so only then does
/// each access keep a check to fuse). The interpreter and `Full` with
/// fusion off and on must agree bit-for-bit on every checksum under
/// every strategy, and fusion must fire under trap.
#[test]
fn fusion_is_invisible_on_workloads() {
    let _serial = common::process_lock();
    let fused = lb_telemetry::counter("jit.checks.fused");
    let mut workloads: Vec<(lb_dsl::Benchmark, bool)> =
        lb_spec_proxy::all(lb_spec_proxy::Scale::Mini)
            .into_iter()
            .map(|b| (b, true))
            .collect();
    workloads.extend(
        lb_polybench::all(lb_polybench::Dataset::Mini)
            .into_iter()
            .map(|b| (b, false)),
    );
    let mut fused_under_trap = [0u64; 2];
    for (bench, analysis) in &workloads {
        let want = run_workload(&InterpEngine::new(), &bench.module, BoundsStrategy::Trap);
        for strategy in STRATEGIES {
            for (arm, on) in [(0, false), (1, true)] {
                let engine = JitEngine::new(
                    JitProfile::wavm()
                        .with_analysis(*analysis)
                        .with_guardopt(on),
                );
                let before = fused.get();
                let got = run_workload(&engine, &bench.module, strategy);
                if strategy == BoundsStrategy::Trap {
                    fused_under_trap[arm] += fused.get() - before;
                }
                assert_eq!(
                    got, want,
                    "{} [{strategy:?}, analysis={analysis}, fusion={on}]: checksum differs \
                     from the interpreter",
                    bench.name
                );
            }
        }
    }
    assert_eq!(fused_under_trap[0], 0, "fusion off never fuses");
    assert!(fused_under_trap[1] > 0, "fusion on fuses under trap");
}
