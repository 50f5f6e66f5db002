//! Shared module builders for the integration tests: synthetic kernels
//! with *dynamic* (unprovable-at-compile-time) loop bounds, whose
//! accesses keep their checks. PolyBench's kernels are all fully
//! statically elided, so these are the modules that exercise emitted
//! checks in loops end to end.
//!
//! Also the lock that serializes tests using process-wide state, and the
//! workload module set and digest the golden files share.
#![allow(dead_code)]

use lb_polybench::common::Dataset;
use lb_spec_proxy::Scale;
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{BlockType, FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The 111 workload modules the golden files cover, as `(label, module)`:
/// PolyBench at Mini/Small/Medium, then the SPEC proxies at
/// Mini/Small/Train.
pub fn workload_modules() -> Vec<(String, Module)> {
    let mut out = Vec::new();
    for (tag, d) in [
        ("mini", Dataset::Mini),
        ("small", Dataset::Small),
        ("medium", Dataset::Medium),
    ] {
        for b in lb_polybench::all(d) {
            out.push((format!("polybench/{tag}/{}", b.name), b.module));
        }
    }
    for (tag, s) in [
        ("mini", Scale::Mini),
        ("small", Scale::Small),
        ("train", Scale::Train),
    ] {
        for b in lb_spec_proxy::all(s) {
            out.push((format!("spec/{tag}/{}", b.name), b.module));
        }
    }
    out
}

/// Start value of [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit, continued from `h`: a stable digest without external
/// crates.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Serializes the tests of one binary that use process-wide state, which
/// the test harness's parallel threads would otherwise share: an
/// `lb_prof` session (one per process, with a process-wide sampling
/// rate), and deltas of the process-wide telemetry counters, which any
/// concurrent compile moves. Such a test, and every test in its binary
/// that would disturb it, holds the guard for the whole test. A test
/// that panics while holding it stops its session as it unwinds
/// (`Session`'s `Drop`) and every holder reads counters as deltas, so
/// poisoning is ignored.
pub fn process_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `a` base: stores land at `(i << 2) + A_BASE`.
pub const A_BASE: u32 = 64;
/// `b` base for the multi-function module's second array.
pub const B_BASE: u32 = 32768;
/// `len()`'s constant in the multi-function module.
pub const K: i32 = 40;
/// Largest `n` whose whole loop stays in one page:
/// `(n-1)*4 + A_BASE + 4 <= 65536`.
pub const MAX_N: i32 = 16368;

/// The canonical counted store loop in its unsigned shape: `for i in
/// 0..bound` (unsigned) store `i` at `a[i]`.
pub fn store_loop(bound_local: u32, i: u32, end: u32) -> Vec<Instr> {
    vec![
        Instr::I32Const(0),
        Instr::LocalSet(i),
        Instr::LocalGet(bound_local),
        Instr::LocalSet(end),
        Instr::Block(BlockType::Empty),
        Instr::LocalGet(i),
        Instr::LocalGet(end),
        Instr::I32GeU,
        Instr::BrIf(0),
        Instr::Loop(BlockType::Empty),
        Instr::LocalGet(i),
        Instr::I32Const(2),
        Instr::I32Shl,
        Instr::LocalGet(i),
        Instr::I32Store(MemArg::offset(A_BASE)),
        Instr::LocalGet(i),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalTee(i),
        Instr::LocalGet(end),
        Instr::I32LtU,
        Instr::BrIf(0),
        Instr::End,
        Instr::End,
    ]
}

/// Single-function module: `go(n) -> i32` runs the store loop and
/// returns `a[n-1]` (0 when `n == 0`). Both the loop store and the
/// post-loop read keep their checks.
pub fn dynamic_bound_module() -> Module {
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
    let mut body = store_loop(0, 1, 2);
    body.extend([
        Instr::LocalGet(0),
        Instr::I32Const(0),
        Instr::I32Ne,
        Instr::If(BlockType::Value(ValType::I32)),
        Instr::LocalGet(0),
        Instr::I32Const(1),
        Instr::I32Sub,
        Instr::I32Const(2),
        Instr::I32Shl,
        Instr::I32Load(MemArg::offset(A_BASE)),
        Instr::Else,
        Instr::I32Const(0),
        Instr::End,
        Instr::End,
    ]);
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![ValType::I32, ValType::I32],
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

/// `go()`: the store loop with the constant bound [`MAX_N`]. Its
/// whole footprint fits the declared minimum memory, so the analysis
/// proves the store in bounds and elides its check.
pub fn constant_bound_module() -> Module {
    let mut body = store_loop(0, 0, 1);
    body[2] = Instr::I32Const(MAX_N);
    body.push(Instr::End);
    one_func_module(vec![], vec![], vec![ValType::I32, ValType::I32], body)
}

fn one_func_module(
    params: Vec<ValType>,
    results: Vec<ValType>,
    locals: Vec<ValType>,
    body: Vec<Instr>,
) -> Module {
    let mut m = Module::new();
    m.types.push(FuncType { params, results });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(2),
        },
    });
    m.functions.push(Function {
        type_idx: 0,
        locals,
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

/// `go(t, x) -> i32`: a read-modify-write on `a[t]` followed by a
/// re-read — three same-address, same-extent accesses through local 0:
/// the canonical redundant-guard shape.
pub fn rmw_module() -> Module {
    one_func_module(
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(A_BASE)),
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::I32Store(MemArg::offset(A_BASE)),
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(A_BASE)),
            Instr::End,
        ],
    )
}

/// `go(t, x) -> i32`: store at `a[t]`, *redefine* `t` (`local.set`),
/// store at the new `a[t]`. The redefinition kills the first guard's
/// fact, so the second store must keep its own check.
pub fn redefine_module() -> Module {
    one_func_module(
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Store(MemArg::offset(A_BASE)),
            Instr::LocalGet(0),
            Instr::I32Const(64),
            Instr::I32Add,
            Instr::LocalSet(0),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Store(MemArg::offset(A_BASE)),
            Instr::LocalGet(0),
            Instr::End,
        ],
    )
}

/// `go(t, x) -> i32`: store at `a[t]`, `memory.grow`, store at `a[t]`
/// again, read it back. The accesses after the grow must be checked
/// against the grown memory size.
pub fn grow_between_module() -> Module {
    one_func_module(
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Store(MemArg::offset(A_BASE)),
            Instr::I32Const(1),
            Instr::MemoryGrow,
            Instr::Drop,
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Store(MemArg::offset(A_BASE)),
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(A_BASE)),
            Instr::End,
        ],
    )
}

/// Three-function module with calls around its loops: exported `go(n)`
/// calls internal `fill(m)` (a store loop bounded by its parameter) and
/// sizes a second loop with internal `len()`, which returns `K`. Returns
/// `(n != 0 ? a[n-1] : 0) + b[K-1]`.
pub fn multi_function_module() -> Module {
    let mut m = Module::new();
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![ValType::I32],
    });
    m.types.push(FuncType {
        params: vec![ValType::I32],
        results: vec![],
    });
    m.types.push(FuncType {
        params: vec![],
        results: vec![ValType::I32],
    });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: 1,
            max: Some(1),
        },
    });
    // go(n): fill(n); k = len(); for i in 0..k store i at b[i]; return
    // (n != 0 ? a[n-1] : 0) + b[k-1].
    let mut body = vec![Instr::LocalGet(0), Instr::Call(1)];
    body.extend([Instr::Call(2), Instr::LocalSet(1)]);
    body.extend([
        Instr::I32Const(0),
        Instr::LocalSet(2),
        Instr::Block(BlockType::Empty),
        Instr::LocalGet(2),
        Instr::LocalGet(1),
        Instr::I32GeU,
        Instr::BrIf(0),
        Instr::Loop(BlockType::Empty),
        Instr::LocalGet(2),
        Instr::I32Const(2),
        Instr::I32Shl,
        Instr::LocalGet(2),
        Instr::I32Store(MemArg::offset(B_BASE)),
        Instr::LocalGet(2),
        Instr::I32Const(1),
        Instr::I32Add,
        Instr::LocalTee(2),
        Instr::LocalGet(1),
        Instr::I32LtU,
        Instr::BrIf(0),
        Instr::End,
        Instr::End,
    ]);
    body.extend([
        Instr::LocalGet(0),
        Instr::I32Const(0),
        Instr::I32Ne,
        Instr::If(BlockType::Value(ValType::I32)),
        Instr::LocalGet(0),
        Instr::I32Const(1),
        Instr::I32Sub,
        Instr::I32Const(2),
        Instr::I32Shl,
        Instr::I32Load(MemArg::offset(A_BASE)),
        Instr::Else,
        Instr::I32Const(0),
        Instr::End,
        Instr::I32Const((K - 1) << 2),
        Instr::I32Load(MemArg::offset(B_BASE)),
        Instr::I32Add,
        Instr::End,
    ]);
    m.functions.push(Function {
        type_idx: 0,
        locals: vec![ValType::I32, ValType::I32],
        body,
        name: Some("go".into()),
    });
    let mut fill = store_loop(0, 1, 2);
    fill.push(Instr::End);
    m.functions.push(Function {
        type_idx: 1,
        locals: vec![ValType::I32, ValType::I32],
        body: fill,
        name: Some("fill".into()),
    });
    m.functions.push(Function {
        type_idx: 2,
        locals: vec![],
        body: vec![Instr::I32Const(K), Instr::End],
        name: Some("len".into()),
    });
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}
