//! Randomized differential testing: generate random (but valid) wasm
//! programs and require the interpreter and every JIT profile to agree
//! bit-for-bit — on results *and* on traps.
//!
//! This is the deepest correctness gate for the JIT: random expression
//! trees exercise register-pressure spills, constant folding, division
//! edge cases, float NaN propagation, trapping conversions, loops, and
//! memory traffic in combinations the suites never produce.

use lb_core::exec::{Engine, Linker};
use lb_core::{BoundsStrategy, MemoryConfig, Trap};
use lb_dsl::expr::{self, Expr};
use lb_dsl::{DslFunc, KernelModule, Var};
use lb_interp::InterpEngine;
use lb_jit::{JitEngine, JitProfile};
use lb_wasm::types::ValType;
use lb_wasm::{Module, Value};

const MEM_MASK: i32 = 0x3FF8; // keep addresses inside one 64 KiB page

/// Deterministic SplitMix64 stream (this repo builds offline, so
/// rand/proptest are unavailable; fixed seeds keep failures
/// reproducible — rerun with the printed seed to reproduce).
struct Rng(u64);

impl Rng {
    fn seed_from_u64(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }

    fn gen_i32(&mut self) -> i32 {
        self.next_u64() as i32
    }

    fn gen_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Uniform in `[lo, hi)`.
    fn gen_range(&mut self, r: std::ops::Range<usize>) -> usize {
        r.start + (self.next_u64() as usize) % (r.end - r.start)
    }
}

struct Gen {
    rng: Rng,
    i32s: Vec<Var>,
    i64s: Vec<Var>,
    f64s: Vec<Var>,
}

impl Gen {
    fn expr_i32(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return match self.rng.gen_range(0..3) {
                0 => expr::i32(self.rng.gen_i32()),
                1 => {
                    let v = self.i32s[self.rng.gen_range(0..self.i32s.len())];
                    v.get()
                }
                _ => {
                    // load from a masked address
                    let a = self.expr_i32(0).and(expr::i32(MEM_MASK));
                    lb_dsl::Expr::from_raw(
                        {
                            let mut c = a.into_code();
                            c.push(lb_wasm::Instr::I32Load(lb_wasm::MemArg::offset(0)));
                            c
                        },
                        ValType::I32,
                    )
                }
            };
        }
        let a = self.expr_i32(depth - 1);
        let b = self.expr_i32(depth - 1);
        match self.rng.gen_range(0..16) {
            0 => a + b,
            1 => a - b,
            2 => a * b,
            3 => a.and(b),
            4 => a.or(b),
            5 => a.xor(b),
            6 => a << b.and(expr::i32(31)),
            7 => a.shr_s(b.and(expr::i32(31))),
            8 => a.shr_u(b.and(expr::i32(31))),
            9 => a.eq(b),
            10 => a.lt(b),
            11 => a.lt_u(b),
            12 => a.ge(b),
            13 => {
                let c = self.expr_i32(0);
                a.select(b, c.and(expr::i32(1)))
            }
            14 => a.div_s(b), // may trap; both sides must agree
            _ => a.rem_s(b),  // may trap
        }
    }

    fn expr_i64(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.gen_bool(0.35) {
            return match self.rng.gen_range(0..3) {
                0 => expr::i64(self.rng.gen_i64()),
                1 => {
                    let v = self.i64s[self.rng.gen_range(0..self.i64s.len())];
                    v.get()
                }
                _ => self.expr_i32(1).to_i64(),
            };
        }
        let a = self.expr_i64(depth - 1);
        let b = self.expr_i64(depth - 1);
        match self.rng.gen_range(0..8) {
            0 => a + b,
            1 => a - b,
            2 => a * b,
            3 => a.xor(b),
            4 => a.and(b),
            5 => a << b.and(expr::i64(63)),
            6 => a.or(b),
            _ => a.div_s(b), // may trap
        }
    }

    fn expr_f64(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return match self.rng.gen_range(0..3) {
                0 => expr::f64(f64::from_bits(self.rng.gen_u64() & 0x7FEF_FFFF_FFFF_FFFF)),
                1 => {
                    let v = self.f64s[self.rng.gen_range(0..self.f64s.len())];
                    v.get()
                }
                _ => self.expr_i32(1).to_f64(),
            };
        }
        let a = self.expr_f64(depth - 1);
        match self.rng.gen_range(0..10) {
            0 => a + self.expr_f64(depth - 1),
            1 => a - self.expr_f64(depth - 1),
            2 => a * self.expr_f64(depth - 1),
            3 => a.fdiv(self.expr_f64(depth - 1)),
            4 => a.sqrt(),
            5 => a.abs(),
            6 => -a,
            7 => a.min(self.expr_f64(depth - 1)),
            8 => a.max(self.expr_f64(depth - 1)),
            _ => a.to_f32().to_f64(), // demote/promote round-trip
        }
    }

    fn stmt(&mut self, f: &mut DslFunc) {
        match self.rng.gen_range(0..7) {
            0 => {
                let v = self.i32s[self.rng.gen_range(0..self.i32s.len())];
                let e = self.expr_i32(3);
                f.assign(v, e);
            }
            1 => {
                let v = self.i64s[self.rng.gen_range(0..self.i64s.len())];
                let e = self.expr_i64(3);
                f.assign(v, e);
            }
            2 => {
                let v = self.f64s[self.rng.gen_range(0..self.f64s.len())];
                let e = self.expr_f64(3);
                f.assign(v, e);
            }
            3 => {
                // store i32 to a masked address
                let addr = self.expr_i32(2).and(expr::i32(MEM_MASK));
                let val = self.expr_i32(2);
                let mut code = addr.into_code();
                code.extend(val.into_code());
                code.push(lb_wasm::Instr::I32Store(lb_wasm::MemArg::offset(0)));
                f.stmt(code);
            }
            4 => {
                // store f64
                let addr = self.expr_i32(2).and(expr::i32(MEM_MASK));
                let val = self.expr_f64(2);
                let mut code = addr.into_code();
                code.extend(val.into_code());
                code.push(lb_wasm::Instr::F64Store(lb_wasm::MemArg::offset(0)));
                f.stmt(code);
            }
            5 => {
                let cond = self.expr_i32(2).and(expr::i32(1));
                let v = self.i32s[self.rng.gen_range(0..self.i32s.len())];
                let e1 = self.expr_i32(2);
                let e2 = self.expr_i32(2);
                f.if_else(cond, |f| f.assign(v, e1), |f| f.assign(v, e2));
            }
            _ => {
                // bounded loop
                let v = self.i32s[0];
                let n = self.rng.gen_range(1..6) as i32;
                let acc = self.i64s[self.rng.gen_range(0..self.i64s.len())];
                let e = self.expr_i64(2);
                f.for_i32(v, expr::i32(0), expr::i32(n), |f| {
                    f.assign(acc, acc.get() + e + v.get().to_i64());
                });
            }
        }
    }
}

/// Build a random single-function module returning an i64 digest.
fn random_module(seed: u64) -> Module {
    let mut f = DslFunc::new("fuzz", &[], Some(ValType::I64));
    let i32s: Vec<Var> = (0..4).map(|_| f.local_i32()).collect();
    let i64s: Vec<Var> = (0..3).map(|_| f.local_i64()).collect();
    let f64s: Vec<Var> = (0..3).map(|_| f.local_f64()).collect();
    let mut g = Gen {
        rng: Rng::seed_from_u64(seed),
        i32s,
        i64s,
        f64s,
    };
    // Seed the locals deterministically so expressions have varied inputs.
    for (k, v) in g.i32s.clone().into_iter().enumerate() {
        f.assign(v, expr::i32(g.rng.gen_i32() ^ k as i32));
    }
    for v in g.i64s.clone() {
        f.assign(v, expr::i64(g.rng.gen_i64()));
    }
    for v in g.f64s.clone() {
        f.assign(
            v,
            expr::f64(f64::from_bits(g.rng.gen_u64() & 0x7FEF_FFFF_FFFF_FFFF)),
        );
    }
    let n_stmts = g.rng.gen_range(8..32);
    for _ in 0..n_stmts {
        g.stmt(&mut f);
    }
    // Digest: mix everything into one i64.
    let mut digest = g.i64s[0].get();
    for v in &g.i64s[1..] {
        digest = digest.xor(v.get());
    }
    for v in &g.i32s {
        digest = digest + v.get().to_i64();
    }
    for v in &g.f64s {
        let bits = Expr::from_raw(
            {
                let mut c = v.get().into_code();
                c.push(lb_wasm::Instr::I64ReinterpretF64);
                c
            },
            ValType::I64,
        );
        digest = digest.xor(bits);
    }
    f.ret(digest);

    let mut km = KernelModule::new();
    km.memory(1, Some(2));
    km.add_exported(f);
    km.finish()
}

fn run_on(
    engine: &dyn Engine,
    module: &Module,
    strategy: BoundsStrategy,
) -> Result<Option<Value>, Trap> {
    let loaded = engine.load(module).expect("generated module loads");
    let config = MemoryConfig::new(strategy, 1, 2).with_reserve(1 << 22);
    let mut inst = loaded
        .instantiate(&config, &Linker::new())
        .expect("instantiate");
    inst.invoke("fuzz", &[])
}

fn outcome_repr(r: &Result<Option<Value>, Trap>) -> String {
    match r {
        Ok(Some(v)) => format!("ok:{:016x}", v.to_bits()),
        Ok(None) => "ok:void".into(),
        Err(t) => format!("trap:{:?}", t.kind()),
    }
}

/// How many random programs each test checks (proptest previously ran 48
/// cases; the seeds below are a fixed stream from the meta-seed).
const CASES: u32 = 48;

fn case_seeds(meta_seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng::seed_from_u64(meta_seed);
    (0..CASES).map(move |_| rng.next_u64())
}

/// The interpreter and every JIT profile agree on random programs.
#[test]
fn engines_agree_on_random_programs() {
    for seed in case_seeds(0xD1FF_F422) {
        let module = random_module(seed);
        lb_wasm::validate(&module).expect("generated module validates");

        let interp = InterpEngine::new();
        let reference = run_on(&interp, &module, BoundsStrategy::Trap);

        for profile in [JitProfile::wavm(), JitProfile::wasmtime(), JitProfile::v8()] {
            let jit = JitEngine::new(profile);
            for strategy in [BoundsStrategy::Trap, BoundsStrategy::Mprotect] {
                let got = run_on(&jit, &module, strategy);
                assert_eq!(
                    outcome_repr(&reference),
                    outcome_repr(&got),
                    "seed {} profile {} strategy {}",
                    seed,
                    profile.name,
                    strategy
                );
            }
        }
    }
}

/// Generated modules survive a binary round-trip and still agree.
#[test]
fn binary_roundtrip_preserves_behavior() {
    for seed in case_seeds(0x00B1_4A47) {
        let module = random_module(seed);
        let bytes = lb_wasm::binary::encode(&module);
        let decoded = lb_wasm::binary::decode(&bytes).expect("decode");
        assert_eq!(&decoded, &module, "seed {seed}");

        let interp = InterpEngine::new();
        let a = run_on(&interp, &module, BoundsStrategy::Trap);
        let b = run_on(&interp, &decoded, BoundsStrategy::Trap);
        assert_eq!(outcome_repr(&a), outcome_repr(&b), "seed {seed}");
    }
}
