//! Differential testing for `lb-analysis`: the static bounds-check plan
//! must be *invisible* to program behavior. Every module here runs on
//! three configurations — the interpreter, which never consults the
//! analysis, and the JIT with the analysis on and off — under the
//! software `trap` strategy, and all three must agree bit-for-bit on
//! results and on trap/no-trap outcomes.
//!
//! The deterministic tests pin down the exact boundary: the last
//! in-bounds byte, the first out-of-bounds byte, and memarg offsets near
//! `u32::MAX` whose effective address overflows 32 bits (statically
//! provable OOB with the analysis on; a dynamic widened-arithmetic check
//! with it off).
//!
//! The seeded generators cover straight-line access mixes and counted
//! loop nests of depth 5–7 whose bounds come from constants and from a
//! parameter, with accesses a few bytes from the end of memory: the
//! shape where a loop header that is warm-started from an earlier outer
//! iteration, rather than recomputed, would first show a soundness slip.

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::module::{Export, ExportKind, Function};
use lb_wasm::{BlockType, FuncType, Instr, Limits, MemArg, MemoryType, Module, ValType, Value};

const PAGE: u32 = 65536;

/// Build a one-memory module exporting `go(addr: i32) -> i32`.
fn module_with(pages: u32, locals: Vec<ValType>, body: Vec<Instr>) -> Module {
    module_with_params(pages, 1, locals, body)
}

/// Build a one-memory module exporting `go(i32 × n_params) -> i32`.
fn module_with_params(
    pages: u32,
    n_params: usize,
    locals: Vec<ValType>,
    body: Vec<Instr>,
) -> Module {
    let mut m = Module::new();
    m.types.push(FuncType {
        params: vec![ValType::I32; n_params],
        results: vec![ValType::I32],
    });
    m.memory = Some(MemoryType {
        limits: Limits {
            min: pages,
            max: Some(pages),
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
    lb_wasm::validate(&m).expect("generated module validates");
    m
}

fn outcome_repr(r: &Result<Option<Value>, Trap>) -> String {
    match r {
        Ok(Some(v)) => format!("ok:{:016x}", v.to_bits()),
        Ok(None) => "ok:void".into(),
        Err(t) => format!("trap:{:?}", t.kind()),
    }
}

/// Run `go(arg)` on all three engine configurations and assert agreement;
/// returns the shared outcome string.
fn agreed_outcome(module: &Module, pages: u32, arg: i32, ctx: &str) -> String {
    agreed_outcomes(module, pages, &[vec![Value::I32(arg)]], ctx).remove(0)
}

/// Run `go(args)` for every argument list on all three engine
/// configurations (each module loaded once per configuration, a fresh
/// instance per call) and assert agreement; returns the shared outcomes.
fn agreed_outcomes(module: &Module, pages: u32, arg_sets: &[Vec<Value>], ctx: &str) -> Vec<String> {
    let engines: [(&str, Box<dyn Engine>); 3] = [
        ("interp", Box::new(InterpEngine::new())),
        ("jit+analysis", Box::new(JitEngine::new(JitProfile::wavm()))),
        (
            "jit",
            Box::new(JitEngine::new(JitProfile::wavm().with_analysis(false))),
        ),
    ];
    let mut agreed: Option<(String, Vec<String>)> = None;
    for (name, engine) in engines {
        let loaded = engine.load(module).expect("module loads");
        let config = MemoryConfig::new(BoundsStrategy::Trap, pages, pages).with_reserve(1 << 22);
        let got: Vec<String> = arg_sets
            .iter()
            .map(|args| {
                let mut inst = loaded
                    .instantiate(&config, &Linker::new())
                    .expect("instantiate");
                outcome_repr(&inst.invoke("go", args))
            })
            .collect();
        match &agreed {
            None => agreed = Some((name.to_string(), got)),
            Some((first, want)) => {
                for ((args, w), g) in arg_sets.iter().zip(want).zip(&got) {
                    assert_eq!(
                        w, g,
                        "{ctx}: args {args:?}: `{first}` and `{name}` disagree"
                    );
                }
            }
        }
    }
    agreed.unwrap().1
}

/// `go` returns `load8_u(addr)`: byte granularity pins the exact edge.
#[test]
fn last_in_bounds_and_first_oob_byte_agree() {
    let m = module_with(
        1,
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::I32Load8U(MemArg::offset(0)),
            Instr::End,
        ],
    );
    let last = PAGE as i32 - 1;
    assert!(agreed_outcome(&m, 1, last, "load8 last byte").starts_with("ok:"));
    assert!(agreed_outcome(&m, 1, last + 1, "load8 first oob").starts_with("trap:"));
}

/// A 4-byte load must trap as soon as any byte of the access is outside.
#[test]
fn wide_access_boundary_agrees() {
    let m = module_with(
        1,
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(0)),
            Instr::End,
        ],
    );
    assert!(agreed_outcome(&m, 1, PAGE as i32 - 4, "load32 last slot").starts_with("ok:"));
    for arg in [PAGE as i32 - 3, PAGE as i32 - 1, PAGE as i32] {
        assert!(agreed_outcome(&m, 1, arg, "load32 straddling edge").starts_with("trap:"));
    }
}

/// The constant memarg offset participates in the boundary too.
#[test]
fn memarg_offset_boundary_agrees() {
    let m = module_with(
        1,
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::offset(1000)),
            Instr::End,
        ],
    );
    assert!(agreed_outcome(&m, 1, PAGE as i32 - 1004, "offset last slot").starts_with("ok:"));
    assert!(agreed_outcome(&m, 1, PAGE as i32 - 1003, "offset first oob").starts_with("trap:"));
}

/// Offsets near `u32::MAX` make `addr + offset + size` overflow 32 bits.
/// With the analysis on this is `StaticOob`; with it off, the engines
/// must catch it with widened arithmetic — never by wrapping.
#[test]
fn memarg_offset_overflow_agrees() {
    for offset in [u32::MAX, u32::MAX - 2, u32::MAX - 3] {
        let m = module_with(
            1,
            vec![],
            vec![
                Instr::LocalGet(0),
                Instr::I32Load(MemArg::offset(offset)),
                Instr::End,
            ],
        );
        for arg in [0, 1, 4, PAGE as i32 - 4] {
            let got = agreed_outcome(&m, 1, arg, "offset overflow");
            assert!(
                got.starts_with("trap:"),
                "offset {offset:#x} arg {arg}: expected a trap, got {got}"
            );
        }
    }
    // A store on the same path: the plan applies to stores too.
    let m = module_with(
        1,
        vec![],
        vec![
            Instr::LocalGet(0),
            Instr::I32Const(7),
            Instr::I32Store(MemArg::offset(u32::MAX - 1)),
            Instr::I32Const(0),
            Instr::End,
        ],
    );
    assert!(agreed_outcome(&m, 1, 0, "store offset overflow").starts_with("trap:"));
}

/// Deterministic SplitMix64 stream (offline build: no rand/proptest;
/// fixed seeds keep failures reproducible).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn gen_range(&mut self, r: std::ops::Range<u64>) -> u64 {
        r.start + self.next_u64() % (r.end - r.start)
    }
}

/// Push an address expression rooted at the `addr` parameter or a
/// constant; some constants land out of bounds on purpose.
fn push_addr(rng: &mut Rng, body: &mut Vec<Instr>) {
    match rng.gen_range(0..5) {
        0 => body.push(Instr::I32Const(rng.gen_range(0..(PAGE as u64) + 64) as i32)),
        1 => body.push(Instr::LocalGet(0)),
        2 => {
            body.push(Instr::LocalGet(0));
            body.push(Instr::I32Const(rng.gen_range(0..256) as i32));
            body.push(Instr::I32Add);
        }
        3 => {
            // Masked: always in bounds, the analysis should elide it.
            body.push(Instr::LocalGet(0));
            body.push(Instr::I32Const(0x3FF8));
            body.push(Instr::I32And);
        }
        _ => {
            // Near the boundary: `addr & 7` wiggles around page end.
            body.push(Instr::LocalGet(0));
            body.push(Instr::I32Const(7));
            body.push(Instr::I32And);
            body.push(Instr::I32Const(PAGE as i32 - 4));
            body.push(Instr::I32Add);
        }
    }
}

/// Random straight-line module: a handful of loads/stores of mixed
/// widths and offsets, loads folded into an i32 accumulator.
fn random_module(seed: u64) -> Module {
    let mut rng = Rng(seed);
    let mut body = Vec::new();
    let acc = 1u32; // local 1 (after the addr param)
    let n = rng.gen_range(2..7);
    for _ in 0..n {
        let offset = match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(0..64) as u32,
            2 => PAGE - 4,
            _ => rng.gen_range(0..16) as u32 + (u32::MAX - 16),
        };
        let ma = MemArg::offset(offset);
        if rng.gen_range(0..4) == 0 {
            // Store a constant.
            push_addr(&mut rng, &mut body);
            body.push(Instr::I32Const(rng.next_u64() as i32));
            body.push(match rng.gen_range(0..3) {
                0 => Instr::I32Store8(ma),
                1 => Instr::I32Store16(ma),
                _ => Instr::I32Store(ma),
            });
        } else {
            push_addr(&mut rng, &mut body);
            let wide = rng.gen_range(0..5) == 0;
            if wide {
                body.push(Instr::I64Load(ma));
                body.push(Instr::I32WrapI64);
            } else {
                body.push(match rng.gen_range(0..4) {
                    0 => Instr::I32Load8U(ma),
                    1 => Instr::I32Load8S(ma),
                    2 => Instr::I32Load16U(ma),
                    _ => Instr::I32Load(ma),
                });
            }
            body.push(Instr::LocalGet(acc));
            body.push(Instr::I32Add);
            body.push(Instr::LocalSet(acc));
        }
    }
    body.push(Instr::LocalGet(acc));
    body.push(Instr::End);
    module_with(1, vec![ValType::I32], body)
}

/// Seeded random modules: every access pattern the generator produces —
/// provably in-bounds, boundary-straddling, statically OOB — behaves
/// identically with the analysis on and off, on both engines.
#[test]
fn random_modules_agree_with_analysis_on_and_off() {
    let mut meta = Rng(0xA11A_1515);
    for case in 0..48 {
        let seed = meta.next_u64();
        let m = random_module(seed);
        for arg in [
            0i32,
            1,
            8,
            0x3FF8,
            PAGE as i32 - 4,
            PAGE as i32 - 1,
            PAGE as i32,
        ] {
            agreed_outcome(&m, 1, arg, &format!("case {case} seed {seed:#x}"));
        }
    }
}

/// Push the `n` parameter unchanged, or a small value derived from it,
/// as a loop bound: the analysis sees ⊤ or a narrow interval, never a
/// constant.
fn push_param_bound(rng: &mut Rng, body: &mut Vec<Instr>) {
    body.push(Instr::LocalGet(0));
    if rng.gen_range(0..2) == 0 {
        body.push(Instr::I32Const(1));
        body.push(Instr::I32And);
        body.push(Instr::I32Const(1));
        body.push(Instr::I32Add);
    }
}

/// Push an access address a few bytes from the end of the page, built
/// from the enclosing loop counters and the `addr` parameter so that the
/// last iterations of a nest may straddle the edge.
fn push_edge_addr(rng: &mut Rng, body: &mut Vec<Instr>, counters: &[u32]) {
    let edge = PAGE as i64 - rng.gen_range(0..24) as i64;
    match rng.gen_range(0..4) {
        0 => {
            // `(i << s) + base`, base set so the largest counter values
            // land within a few bytes of the end (or just past it).
            let i = counters[rng.gen_range(0..counters.len() as u64) as usize];
            let shift = rng.gen_range(0..3) as i32;
            body.push(Instr::LocalGet(i));
            body.push(Instr::I32Const(shift));
            body.push(Instr::I32Shl);
            body.push(Instr::I32Const((edge - (3 << shift)) as i32));
            body.push(Instr::I32Add);
        }
        1 => {
            // Sum of two counters on top of a near-edge base.
            let a = counters[rng.gen_range(0..counters.len() as u64) as usize];
            let b = counters[rng.gen_range(0..counters.len() as u64) as usize];
            body.push(Instr::LocalGet(a));
            body.push(Instr::LocalGet(b));
            body.push(Instr::I32Add);
            body.push(Instr::I32Const((edge - 6) as i32));
            body.push(Instr::I32Add);
        }
        2 => {
            // The `addr` parameter plus a counter.
            let i = counters[rng.gen_range(0..counters.len() as u64) as usize];
            body.push(Instr::LocalGet(1));
            body.push(Instr::LocalGet(i));
            body.push(Instr::I32Add);
        }
        _ => body.push(Instr::I32Const(edge as i32)),
    }
}

/// One load (folded into `acc`) or store at a near-edge address.
fn push_edge_access(rng: &mut Rng, body: &mut Vec<Instr>, counters: &[u32], acc: u32) {
    let ma = MemArg::offset(rng.gen_range(0..4) as u32);
    push_edge_addr(rng, body, counters);
    if rng.gen_range(0..3) == 0 {
        body.push(Instr::LocalGet(acc));
        body.push(match rng.gen_range(0..3) {
            0 => Instr::I32Store8(ma),
            1 => Instr::I32Store16(ma),
            _ => Instr::I32Store(ma),
        });
    } else {
        body.push(match rng.gen_range(0..3) {
            0 => Instr::I32Load8U(ma),
            1 => Instr::I32Load16U(ma),
            _ => Instr::I32Load(ma),
        });
        body.push(Instr::LocalGet(acc));
        body.push(Instr::I32Add);
        body.push(Instr::LocalSet(acc));
    }
}

/// Random counted loop nest of depth 5–7 exporting `go(n, addr) -> i32`.
/// Level `k` counts local `3 + k` from 0 to a bound that is a small
/// constant or derived from `n`, in either the do-while shape or the
/// guarded `block { br_if; loop { … } }` shape; accesses near the end of
/// memory sit in the innermost body and between levels.
fn random_nest_module(seed: u64) -> Module {
    let mut rng = Rng(seed);
    let depth = rng.gen_range(5..8) as u32;
    let acc = 2u32;
    let counter = |k: u32| 3 + k;
    let mut body = vec![Instr::I32Const(1), Instr::LocalSet(acc)];
    let mut closers: Vec<Vec<Instr>> = Vec::new();
    for k in 0..depth {
        let i = counter(k);
        let mut bound = Vec::new();
        if rng.gen_range(0..3) == 0 {
            push_param_bound(&mut rng, &mut bound);
        } else {
            bound.push(Instr::I32Const(rng.gen_range(1..4) as i32));
        }
        let guarded = rng.gen_range(0..2) == 0;
        body.extend([Instr::I32Const(0), Instr::LocalSet(i)]);
        if guarded {
            body.extend([Instr::Block(BlockType::Empty), Instr::LocalGet(i)]);
            body.extend(bound.iter().cloned());
            body.extend([Instr::I32GeU, Instr::BrIf(0)]);
        }
        body.push(Instr::Loop(BlockType::Empty));
        if k > 0 && rng.gen_range(0..3) == 0 {
            let live: Vec<u32> = (0..k).map(counter).collect();
            push_edge_access(&mut rng, &mut body, &live, acc);
        }
        let mut close = vec![
            Instr::LocalGet(i),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalTee(i),
        ];
        close.extend(bound);
        close.extend([Instr::I32LtU, Instr::BrIf(0), Instr::End]);
        if guarded {
            close.push(Instr::End);
        }
        closers.push(close);
    }
    let all: Vec<u32> = (0..depth).map(counter).collect();
    for _ in 0..rng.gen_range(1..4) {
        push_edge_access(&mut rng, &mut body, &all, acc);
    }
    for close in closers.into_iter().rev() {
        body.extend(close);
    }
    body.extend([Instr::LocalGet(acc), Instr::End]);
    module_with_params(1, 2, vec![ValType::I32; 1 + depth as usize], body)
}

/// Seeded deep loop nests: with loop bounds from constants and from `n`,
/// and accesses straddling the end of memory on the last iterations, all
/// three configurations agree on every result and every trap.
#[test]
fn random_deep_nests_agree_with_analysis_on_and_off() {
    let mut meta = Rng(0xDEE9_7E57);
    let mut traps = 0;
    let mut oks = 0;
    let arg_sets: Vec<Vec<Value>> = [0i32, 1, 3]
        .iter()
        .flat_map(|&n| {
            [0i32, PAGE as i32 - 40, PAGE as i32 - 6]
                .map(|addr| vec![Value::I32(n), Value::I32(addr)])
        })
        .collect();
    for case in 0..32 {
        let seed = meta.next_u64();
        let m = random_nest_module(seed);
        for got in agreed_outcomes(
            &m,
            1,
            &arg_sets,
            &format!("nest case {case} seed {seed:#x}"),
        ) {
            if got.starts_with("trap:") {
                traps += 1;
            } else {
                oks += 1;
            }
        }
    }
    // The generator must exercise both sides of the edge.
    assert!(traps > 0 && oks > 0, "traps {traps}, oks {oks}");
}
