//! Differential edge cases for instruction selection at `Basic` and
//! `Full`: register–immediate ALU, `imul` and shift forms, compares kept
//! in the flags for the `br_if`/`if` that follows, and in-place updates
//! of pinned locals. Hand-built modules run on the interpreter and on the
//! `None`, `Basic` and `Full` tiers under all five bounds strategies, and
//! must agree on results, trap kinds and the stores made before a trap.
//! Every compile is also handed to `lb-verify`, which must report zero
//! findings (`scripts/ci.sh` additionally runs this binary under
//! `LB_VERIFY=strict`).
//!
//! The cases: a constant on the left of `sub`, `lt_s` and `shl`; shift
//! counts 0, 31, 32, 33, 63, 64 and −1 at both widths; `i64` constants
//! outside imm32; `imul` by constants that overflow; `i32.eqz; br_if`;
//! a `br_if` at a pc where a label is bound; a compare result used twice
//! through `local.tee`; compare-and-branch closing a loop whose store
//! keeps its check; and `local.tee`/`local.set` on a pinned local with a
//! live alias of its old value.

mod common;

use common::{dynamic_bound_module, A_BASE, MAX_N};
use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
use lb_jit::{JitEngine, JitProfile};
use lb_verify::{verify_function, FuncInput};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{BlockType, FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType, Value};
use Instr::*;

const STRATEGIES: [BoundsStrategy; 5] = [
    BoundsStrategy::None,
    BoundsStrategy::Clamp,
    BoundsStrategy::Trap,
    BoundsStrategy::Mprotect,
    BoundsStrategy::Uffd,
];

/// The interpreter reference and the three JIT tiers.
fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("interp", Box::new(InterpEngine::new())),
        ("none", Box::new(JitEngine::new(JitProfile::v8()))),
        ("basic", Box::new(JitEngine::new(JitProfile::wasmtime()))),
        ("full", Box::new(JitEngine::new(JitProfile::wavm()))),
    ]
}

fn repr(r: &Result<Option<Value>, Trap>) -> String {
    match r {
        Ok(Some(v)) => format!("ok:{:016x}", v.to_bits()),
        Ok(None) => "ok:void".into(),
        Err(t) => format!("trap:{:?}", t.kind()),
    }
}

/// Runs `calls` (export name, arguments) in order on one instance per
/// engine under each of `strategies`, and asserts every engine logs the
/// same results as the interpreter.
fn assert_agree(
    module: &Module,
    strategies: &[BoundsStrategy],
    calls: &[(String, Vec<Value>)],
    ctx: &str,
) {
    let limits = module.memory.as_ref().expect("module has a memory").limits;
    for &strategy in strategies {
        let config = MemoryConfig::new(strategy, limits.min, limits.max.unwrap_or(limits.min))
            .with_reserve(1 << 22);
        let mut first: Option<(&str, Vec<String>)> = None;
        for (name, engine) in engines() {
            let loaded = engine.load(module).expect("module loads");
            let mut inst = loaded
                .instantiate(&config, &Linker::new())
                .expect("instantiate");
            let log: Vec<String> = calls
                .iter()
                .map(|(f, args)| repr(&inst.invoke(f, args)))
                .collect();
            match &first {
                None => first = Some((name, log)),
                Some((f, want)) => {
                    for (k, (w, g)) in want.iter().zip(&log).enumerate() {
                        assert_eq!(
                            w, g,
                            "{ctx} [{strategy:?}] call {k} {:?}: `{f}` and `{name}` disagree",
                            calls[k]
                        );
                    }
                }
            }
        }
    }
}

/// Compiles every function of `module` at every tier under every
/// strategy, with the plan on and off, and asserts `lb-verify` proves
/// every memory access.
fn assert_verifies(module: &Module, ctx: &str) {
    let meta = lb_wasm::validate(module).expect("module validates");
    let plan = lb_analysis::analyze_module(module, &meta);
    let extents = lb_jit::dataflow::module_extents(module);
    for strategy in STRATEGIES {
        for (opt, with_plan) in [
            (OptLevel::None, false),
            (OptLevel::Basic, true),
            (OptLevel::Full, true),
            (OptLevel::Full, false),
        ] {
            let params = CompileParams {
                module,
                metas: &meta.funcs,
                strategy,
                opt,
                safepoints: opt == OptLevel::None,
                funcptrs_base: 0,
                plans: with_plan.then_some(&plan),
                guardopt: true,
                limit_extents: &extents,
            };
            for di in 0..module.functions.len() {
                let code = compile_function(params, di);
                let report = verify_function(&FuncInput {
                    func_index: di,
                    code: &code,
                    body: &module.functions[di].body,
                    meta: &meta.funcs[di],
                    strategy,
                    plan: with_plan.then(|| &plan.funcs[di]),
                    mem_min_bytes: plan.mem_min_bytes,
                    reserve_bytes: lb_core::DEFAULT_RESERVE_BYTES as u64,
                    limit_extents: (strategy == BoundsStrategy::Trap).then(|| extents.clone()),
                });
                assert!(
                    report.findings.is_empty(),
                    "{ctx} [{strategy:?}/{opt:?}/plan={with_plan}] f{di}: {}",
                    report
                        .findings
                        .iter()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        }
    }
}

// Locals of every ALU case function `(x: i32, y: i64) -> i64`. At `Full`
// the first three integer locals are pinned: x, y and A.
const X: u32 = 0;
const Y: u32 = 1;
/// i32, pinned at `Full`.
const A: u32 = 2;
/// i32, in its frame slot.
const B: u32 = 3;
/// i64, in its frame slot.
const C: u32 = 4;
/// i32, in its frame slot.
const T: u32 = 5;

/// A module exporting each body as `f<k>(x: i32, y: i64) -> i64` (the
/// bodies leave one `i64` and omit the final `end`), with one page of
/// memory.
fn alu_module(bodies: &[Vec<Instr>]) -> Module {
    let mut m = Module::new();
    m.types.push(FuncType {
        params: vec![ValType::I32, ValType::I64],
        results: vec![ValType::I64],
    });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    for (k, body) in bodies.iter().enumerate() {
        let mut body = body.clone();
        body.push(Instr::End);
        m.functions.push(Function {
            type_idx: 0,
            locals: vec![ValType::I32, ValType::I32, ValType::I64, ValType::I32],
            body,
            name: Some(format!("f{k}")),
        });
        m.exports.push(Export {
            name: format!("f{k}"),
            kind: ExportKind::Func(k as u32),
        });
    }
    lb_wasm::validate(&m).expect("module validates");
    m
}

/// `(x, y)` arguments: zero, ±1, shift-count boundaries, and the values at
/// and just outside the imm32 range.
fn alu_args() -> Vec<Vec<Value>> {
    [
        (0, 0),
        (1, 1),
        (-1, -1),
        (5, 33),
        (31, 64),
        (32, -64),
        (33, 1 << 40),
        (63, i64::MIN),
        (64, i64::MAX),
        (i32::MIN, 0x8000_0000),
        (i32::MAX, -0x8000_0001),
        (2, 0xFFFF_FFFF),
    ]
    .iter()
    .map(|&(x, y)| vec![Value::I32(x), Value::I64(y)])
    .collect()
}

fn check_alu(bodies: &[Vec<Instr>], ctx: &str) {
    let m = alu_module(bodies);
    assert_verifies(&m, ctx);
    let mut calls = Vec::new();
    for k in 0..bodies.len() {
        for args in alu_args() {
            calls.push((format!("f{k}"), args));
        }
    }
    assert_agree(&m, &STRATEGIES, &calls, ctx);
}

/// `block (result i64) <inner> end`.
fn block_i64(inner: Vec<Instr>) -> Vec<Instr> {
    let mut v = vec![Block(BlockType::Value(ValType::I64))];
    v.extend(inner);
    v.push(End);
    v
}

#[test]
fn constant_on_the_left() {
    check_alu(
        &[
            vec![I32Const(5), LocalGet(X), I32Sub, I64ExtendI32U],
            vec![I32Const(3), LocalGet(X), I32LtS, I64ExtendI32U],
            vec![I32Const(1), LocalGet(X), I32Shl, I64ExtendI32U],
            vec![I64Const(-7), LocalGet(Y), I64Sub],
            vec![I64Const(3), LocalGet(Y), I64Shl],
            // The same compare, consumed by a branch.
            block_i64(vec![
                I64Const(1),
                I32Const(3),
                LocalGet(X),
                I32LtS,
                BrIf(0),
                Drop,
                I64Const(2),
            ]),
        ],
        "constant on the left",
    );
}

#[test]
fn constant_shift_counts() {
    let mut bodies = Vec::new();
    for k in [0, 31, 32, 33, 63, 64, -1] {
        for op in [I32Shl, I32ShrS, I32ShrU, I32Rotl, I32Rotr] {
            bodies.push(vec![LocalGet(X), I32Const(k), op.clone(), I64ExtendI32U]);
            // An unpinned operand, and a negative one.
            bodies.push(vec![
                LocalGet(X),
                I32Const(-0x1234_5678),
                I32Xor,
                LocalSet(B),
                LocalGet(B),
                I32Const(k),
                op,
                I64ExtendI32U,
            ]);
        }
        for op in [I64Shl, I64ShrS, I64ShrU, I64Rotl, I64Rotr] {
            bodies.push(vec![LocalGet(Y), I64Const(i64::from(k)), op]);
        }
    }
    check_alu(&bodies, "constant shift counts");
}

#[test]
fn immediates_at_and_outside_imm32() {
    let mut bodies = Vec::new();
    for c in [
        0,
        -1,
        127,
        128,
        -128,
        -129,
        i64::from(i32::MIN),
        i64::from(i32::MAX),
        0x8000_0000,
        0xFFFF_FFFF,
        0x1_0000_0001,
        -0x8000_0001,
        i64::MIN,
    ] {
        for op in [I64Add, I64Sub, I64Mul, I64And, I64Or, I64Xor] {
            bodies.push(vec![LocalGet(Y), I64Const(c), op]);
        }
        for op in [I64Eq, I64Ne, I64LtS, I64LtU, I64GeS, I64GtU] {
            bodies.push(vec![LocalGet(Y), I64Const(c), op, I64ExtendI32U]);
        }
        bodies.push(block_i64(vec![
            I64Const(1),
            LocalGet(Y),
            I64Const(c),
            I64GtS,
            BrIf(0),
            Drop,
            I64Const(0),
        ]));
    }
    for c in [0, -1, 1, 70, 127, 128, -128, -129, i32::MIN, i32::MAX] {
        for op in [I32Add, I32Sub, I32Mul, I32And, I32Or, I32Xor] {
            bodies.push(vec![LocalGet(X), I32Const(c), op.clone(), I64ExtendI32U]);
            // An operand in a scratch register rather than a pinned one.
            bodies.push(vec![
                LocalGet(X),
                I32Const(3),
                I32Xor,
                I32Const(c),
                op,
                I64ExtendI32U,
            ]);
        }
        for op in [I32Eq, I32Ne, I32LtS, I32LtU, I32GtS, I32GeU, I32LeS] {
            bodies.push(vec![LocalGet(X), I32Const(c), op, I64ExtendI32U]);
        }
    }
    check_alu(&bodies, "immediates");
}

#[test]
fn multiply_by_overflowing_constants() {
    let mut bodies = Vec::new();
    for c in [i32::MAX, i32::MIN, -3, 0x4000_0001, 65_537] {
        bodies.push(vec![LocalGet(X), I32Const(c), I32Mul, I64ExtendI32U]);
        bodies.push(vec![LocalGet(Y), I64Const(i64::from(c)), I64Mul]);
    }
    bodies.push(vec![LocalGet(Y), I64Const(i64::MAX), I64Mul]);
    check_alu(&bodies, "imul overflow");
}

#[test]
fn compares_feeding_branches() {
    check_alu(
        &[
            // i32.eqz; br_if, the kept value already in place.
            block_i64(vec![
                I64Const(7),
                LocalGet(X),
                I32Eqz,
                BrIf(0),
                Drop,
                I64Const(9),
            ]),
            // i32.eqz; br_if shuffling its kept value down one slot.
            block_i64(vec![
                LocalGet(Y),
                I64Const(7),
                LocalGet(X),
                I32Eqz,
                BrIf(0),
                I64Add,
            ]),
            // i64.eqz; br_if.
            block_i64(vec![
                I64Const(3),
                LocalGet(Y),
                I64Eqz,
                BrIf(0),
                Drop,
                I64Const(4),
            ]),
            // A compare of two pinned locals and one with an unpinned
            // local, shuffling.
            block_i64(vec![
                LocalGet(X),
                LocalSet(A),
                LocalGet(Y),
                LocalGet(X),
                I32Const(9),
                I32Add,
                LocalSet(B),
                I64Const(5),
                LocalGet(A),
                LocalGet(B),
                I32LtS,
                BrIf(0),
                I64Add,
            ]),
            // br_if to the function's end, carrying the result.
            vec![
                I64Const(1),
                LocalGet(X),
                I32Const(10),
                I32GtU,
                BrIf(0),
                Drop,
                I64Const(2),
            ],
            // br_if to the function's end, shuffling the result.
            vec![
                LocalGet(Y),
                I64Const(1),
                LocalGet(X),
                I32Const(10),
                I32GtU,
                BrIf(0),
                I64Add,
            ],
            // if/else on a compare and on i32.eqz (inverted conditions).
            vec![
                LocalGet(X),
                I32Const(10),
                I32LtS,
                If(BlockType::Value(ValType::I64)),
                I64Const(1),
                Else,
                I64Const(2),
                End,
            ],
            vec![
                LocalGet(X),
                I32Eqz,
                If(BlockType::Value(ValType::I64)),
                LocalGet(Y),
                Else,
                I64Const(5),
                End,
            ],
            // if without else, writing a pinned local.
            vec![
                LocalGet(Y),
                I64Const(-1),
                I64LeU,
                If(BlockType::Empty),
                I64Const(3),
                LocalSet(Y),
                End,
                LocalGet(Y),
            ],
        ],
        "compares feeding branches",
    );
}

#[test]
fn branch_where_a_label_is_bound() {
    // The inner block's result is a compare that flows through its `end`
    // into the outer `br_if`. The inner `br_if` targets that `end`, so a
    // label is bound at the outer `br_if`: the compare must be
    // materialized and the stack spilled at the label.
    check_alu(
        &[block_i64(vec![
            I64Const(11),
            Block(BlockType::Value(ValType::I32)),
            I32Const(1),
            LocalGet(X),
            I32Const(5),
            I32GtU,
            BrIf(0),
            Drop,
            LocalGet(X),
            I32Const(3),
            I32LtS,
            End,
            BrIf(0),
            Drop,
            I64Const(22),
        ])],
        "label at the br_if",
    );
}

#[test]
fn compare_result_used_twice() {
    check_alu(
        &[
            block_i64(vec![
                I64Const(4),
                LocalGet(X),
                I32Const(3),
                I32LtS,
                LocalTee(T),
                BrIf(0),
                Drop,
                LocalGet(T),
                I32Const(40),
                I32Add,
                I64ExtendI32U,
            ]),
            vec![
                LocalGet(X),
                I32Const(3),
                I32LtS,
                LocalTee(T),
                LocalGet(T),
                I32Add,
                I64ExtendI32U,
            ],
            // Teed into a pinned local.
            vec![
                LocalGet(X),
                I32Const(0),
                I32GeS,
                LocalTee(A),
                If(BlockType::Value(ValType::I64)),
                LocalGet(A),
                I64ExtendI32U,
                Else,
                LocalGet(A),
                I32Const(7),
                I32Add,
                I64ExtendI32U,
                End,
            ],
        ],
        "compare used twice",
    );
}

#[test]
fn pinned_local_updated_with_live_alias() {
    check_alu(
        &[
            // x + (x += 1), with local.tee.
            vec![
                LocalGet(X),
                LocalGet(X),
                I32Const(1),
                I32Add,
                LocalTee(X),
                I32Add,
                I64ExtendI32U,
            ],
            // old x * (x -= 7), with local.set.
            vec![
                LocalGet(X),
                LocalGet(X),
                I32Const(7),
                I32Sub,
                LocalSet(X),
                LocalGet(X),
                I32Mul,
                I64ExtendI32U,
            ],
            // An i64 pinned local, and an imm32 boundary.
            vec![
                LocalGet(Y),
                LocalGet(Y),
                I64Const(i64::from(i32::MIN)),
                I64Sub,
                LocalTee(Y),
                I64Xor,
            ],
            // A pinned declared local: a - (a += 100) = -100.
            vec![
                LocalGet(X),
                LocalSet(A),
                LocalGet(A),
                LocalGet(A),
                I32Const(100),
                I32Add,
                LocalSet(A),
                LocalGet(A),
                I32Sub,
                I64ExtendI32S,
            ],
            // The sum goes into a different local: no in-place update.
            vec![
                LocalGet(X),
                I32Const(1),
                I32Add,
                LocalSet(A),
                LocalGet(A),
                LocalGet(X),
                I32Sub,
                I64ExtendI32S,
            ],
            // A counted loop: in-place increment, fused compare, and an
            // i64 accumulator in its frame slot.
            vec![
                LocalGet(X),
                I32Const(1023),
                I32And,
                LocalSet(B),
                Block(BlockType::Empty),
                LocalGet(A),
                LocalGet(B),
                I32GeS,
                BrIf(0),
                Loop(BlockType::Empty),
                LocalGet(C),
                LocalGet(A),
                I32Const(3),
                I32Mul,
                I64ExtendI32S,
                I64Add,
                LocalSet(C),
                LocalGet(A),
                I32Const(1),
                I32Add,
                LocalTee(A),
                LocalGet(B),
                I32LtS,
                BrIf(0),
                End,
                End,
                LocalGet(C),
            ],
        ],
        "pinned alias",
    );
}

/// `peek(j) -> i32`: the `i32` at `(j << 2) + A_BASE`.
fn add_peek(m: &mut Module) {
    let ty = m.types.len() as u32;
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.functions.push(Function {
        type_idx: ty,
        locals: vec![],
        body: vec![
            LocalGet(0),
            I32Const(2),
            I32Shl,
            I32Load(MemArg::offset(A_BASE)),
            End,
        ],
        name: Some("peek".into()),
    });
    m.exports.push(Export {
        name: "peek".into(),
        kind: ExportKind::Func(m.functions.len() as u32 - 1),
    });
}

/// `go(n) -> i32`: `for i in 0..n` (signed) store `i * 5` at `a[i]`, then
/// return the final `i`. Past the page the store traps (trap) or is
/// redirected (clamp).
fn signed_store_loop_module() -> Module {
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
            Block(BlockType::Empty),
            LocalGet(0),
            I32Const(0),
            I32LeS,
            BrIf(0),
            Loop(BlockType::Empty),
            LocalGet(1),
            I32Const(2),
            I32Shl,
            LocalGet(1),
            I32Const(5),
            I32Mul,
            I32Store(MemArg::offset(A_BASE)),
            LocalGet(1),
            I32Const(1),
            I32Add,
            LocalTee(1),
            LocalGet(0),
            I32LtS,
            BrIf(0),
            End,
            End,
            LocalGet(1),
            End,
        ],
        name: Some("go".into()),
    });
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    m
}

/// Loops whose back-edge is a fused compare-and-branch, run to and past
/// the page edge, then inspected: every store before the faulting
/// iteration, and none after, is visible on every engine. The second
/// module's loop bound is a parameter, so its store keeps its check, which
/// `Full` fuses. Past the edge only trap and clamp define the outcome, so
/// out-of-bounds runs use those two.
#[test]
fn stores_before_a_trap_agree() {
    let unsigned = dynamic_bound_module();
    let meta = lb_wasm::validate(&unsigned).unwrap();
    let plan = lb_analysis::analyze_module(&unsigned, &meta);
    let store_pc = unsigned.functions[0]
        .body
        .iter()
        .position(|i| matches!(i, I32Store(_)))
        .expect("the loop stores");
    assert_eq!(
        plan.funcs[0].kind_at(store_pc),
        lb_analysis::CheckKind::Emit,
        "the loop's check is emitted"
    );
    for (ctx, mut m) in [
        ("signed store loop", signed_store_loop_module()),
        ("unsigned store loop", unsigned),
    ] {
        add_peek(&mut m);
        lb_wasm::validate(&m).expect("module validates");
        assert_verifies(&m, ctx);
        for n in [0, 1, 7, MAX_N - 1, MAX_N, MAX_N + 1, MAX_N + 3] {
            let in_bounds = n <= MAX_N;
            let mut calls = vec![("go".to_string(), vec![Value::I32(n)])];
            for j in [0, 1, 4096, MAX_N - 1, MAX_N] {
                if in_bounds && j == MAX_N {
                    continue;
                }
                calls.push(("peek".to_string(), vec![Value::I32(j)]));
            }
            let strategies: &[BoundsStrategy] = if in_bounds {
                &STRATEGIES
            } else {
                &[BoundsStrategy::Trap, BoundsStrategy::Clamp]
            };
            assert_agree(&m, strategies, &calls, &format!("{ctx} n={n}"));
        }
    }
}
