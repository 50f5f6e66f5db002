//! Measure what interprocedural analysis + guard hoisting buy at run
//! time, and write the results to `BENCH_hoist.json`.
//!
//! Two experiments:
//!
//! 1. The four PolyBench kernels whose triangular / data-dependent index
//!    shapes previously kept per-access checks emitted (deriche, durbin,
//!    ludcmp, nussinov): WAVM profile with the analysis plan vs the
//!    analysis off (every check emitted). With the plan these kernels
//!    are now fully check-free (`checks_emitted == 0`).
//! 2. A synthetic store loop whose bound is a function parameter — static
//!    analysis can never prove it, so the loop runs check-free only via
//!    the versioned fast body behind a hoisted preheader guard
//!    (`with_hoisting` on vs off).
//!
//! Usage: `hoist_bench [--out PATH]` (default `BENCH_hoist.json`).

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lb_polybench::{by_name, common::Dataset};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{BlockType, FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType, Value};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The kernels that emitted per-access checks before the interprocedural
/// precision work landed.
const PREVIOUSLY_PARTIAL: &[&str] = &["deriche", "durbin", "ludcmp", "nussinov"];

const ITERS: u32 = 20;

struct Measurement {
    time: Duration,
    elided: u64,
    hoisted: u64,
    emitted: u64,
}

fn measure_kernel(bench: &lb_polybench::Benchmark, analysis: bool) -> Measurement {
    let before = lb_telemetry::snapshot();
    let engine = JitEngine::new(JitProfile::wavm().with_analysis(analysis));
    let loaded = engine.load(&bench.module).expect("load");
    let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 256);
    let mut inst = loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate");
    inst.invoke("init", &[]).expect("init");
    inst.invoke("kernel", &[]).expect("kernel"); // warm
    let t = Instant::now();
    for _ in 0..ITERS {
        inst.invoke("kernel", &[]).expect("kernel");
    }
    let time = t.elapsed() / ITERS;
    let delta = lb_telemetry::snapshot().delta_since(&before);
    Measurement {
        time,
        elided: delta.counter("jit.checks.static_elided"),
        hoisted: delta.counter("jit.checks.hoisted"),
        emitted: delta.counter("jit.checks.emitted"),
    }
}

/// `go(n) -> i32`: `for i in 0..n` (unsigned) store `i` at `a[i]`; the
/// bound is a parameter, so only a hoisted guard makes the loop
/// check-free.
fn dynamic_bound_module() -> Module {
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
        locals: vec![ValType::I32, ValType::I32],
        body: vec![
            Instr::I32Const(0),
            Instr::LocalSet(1),
            Instr::LocalGet(0),
            Instr::LocalSet(2),
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(1),
            Instr::LocalGet(2),
            Instr::I32GeU,
            Instr::BrIf(0),
            Instr::Loop(BlockType::Empty),
            Instr::LocalGet(1),
            Instr::I32Const(2),
            Instr::I32Shl,
            Instr::LocalGet(1),
            Instr::I32Store(MemArg::offset(64)),
            Instr::LocalGet(1),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalTee(1),
            Instr::LocalGet(2),
            Instr::I32LtU,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
            Instr::I32Const(0),
            Instr::I32Load(MemArg::offset(64)),
            Instr::End,
        ],
        name: Some("go".into()),
    });
    m.exports.push(Export {
        name: "go".into(),
        kind: ExportKind::Func(0),
    });
    lb_wasm::validate(&m).expect("module validates");
    m
}

fn measure_hoist(hoisting: bool) -> Measurement {
    let m = dynamic_bound_module();
    let before = lb_telemetry::snapshot();
    let engine = JitEngine::new(JitProfile::wavm().with_hoisting(hoisting));
    let loaded = engine.load(&m).expect("load");
    let config = MemoryConfig::new(BoundsStrategy::Trap, 1, 1).with_reserve(1 << 22);
    let mut inst = loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate");
    // Largest in-bounds bound: (n-1)*4 + 64 + 4 <= 65536.
    let n = Value::I32(16368);
    inst.invoke("go", std::slice::from_ref(&n)).expect("warm");
    let calls = 2000u32;
    let t = Instant::now();
    for _ in 0..calls {
        inst.invoke("go", std::slice::from_ref(&n)).expect("go");
    }
    let time = t.elapsed() / calls;
    let delta = lb_telemetry::snapshot().delta_since(&before);
    Measurement {
        time,
        elided: delta.counter("jit.checks.static_elided"),
        hoisted: delta.counter("jit.checks.hoisted"),
        emitted: delta.counter("jit.checks.emitted"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => "BENCH_hoist.json".to_string(),
        [flag, path] if flag == "--out" => path.clone(),
        _ => {
            eprintln!("usage: hoist_bench [--out PATH]");
            std::process::exit(2);
        }
    };

    let mut rows = String::new();
    for name in PREVIOUSLY_PARTIAL {
        let bench = by_name(name, Dataset::Small).expect("known kernel");
        let off = measure_kernel(&bench, false);
        let on = measure_kernel(&bench, true);
        assert_eq!(
            on.emitted, 0,
            "{name}: must be fully check-free with the analysis plan"
        );
        let speedup = off.time.as_secs_f64() / on.time.as_secs_f64();
        println!(
            "{name:<12} plan-off {:>10.3?} plan-on {:>10.3?} speedup {speedup:.3}x \
             (elided {}, emitted {})",
            off.time, on.time, on.elided, on.emitted
        );
        writeln!(
            rows,
            "    {{\"bench\": \"{name}\", \"kind\": \"static\", \
             \"time_off_ns\": {}, \"time_on_ns\": {}, \"speedup\": {:.4}, \
             \"checks_elided\": {}, \"checks_hoisted\": {}, \"checks_emitted\": {}, \
             \"check_free\": {}}},",
            off.time.as_nanos(),
            on.time.as_nanos(),
            speedup,
            on.elided,
            on.hoisted,
            on.emitted,
            on.emitted == 0
        )
        .unwrap();
    }

    let off = measure_hoist(false);
    let on = measure_hoist(true);
    // With hoisting the loop body exists twice: the fast copy's store is
    // counted hoisted, the slow copy's keeps an emitted check (so
    // `emitted` is higher than with hoisting off, while the *executed*
    // path is check-free).
    assert!(on.hoisted > 0, "hoisting must version the synthetic loop");
    let speedup = off.time.as_secs_f64() / on.time.as_secs_f64();
    println!(
        "dynamic-loop hoist-off {:>10.3?} hoist-on {:>10.3?} speedup {speedup:.3}x \
         (hoisted {}, emitted {})",
        off.time, on.time, on.hoisted, on.emitted
    );
    writeln!(
        rows,
        "    {{\"bench\": \"dynamic-bound-loop\", \"kind\": \"hoisted\", \
         \"time_off_ns\": {}, \"time_on_ns\": {}, \"speedup\": {:.4}, \
         \"checks_elided\": {}, \"checks_hoisted\": {}, \"checks_emitted\": {}, \
         \"check_free\": {}}}",
        off.time.as_nanos(),
        on.time.as_nanos(),
        speedup,
        on.elided,
        on.hoisted,
        on.emitted,
        on.emitted == 0
    )
    .unwrap();

    let json = format!(
        "{{\n  \"description\": \"bounds-check elision and guard hoisting: \
         wavm profile, trap strategy; time_off is the analysis off (static \
         rows) or hoisting disabled (hoisted row)\",\n  \"iters\": {ITERS},\n  \
         \"results\": [\n{rows}  ]\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write results");
    println!("wrote {out_path}");
}
