//! Mutation testing for the translation validator: seed-deterministic,
//! targeted corruptions of the *guard machinery* in real compiled code
//! (every PolyBench kernel), each of which genuinely weakens the
//! linear-memory sandbox — and `lb-verify` must flag every one.
//!
//! Mutation classes (all are safety-breaking by construction):
//!
//! * `guard-cc-flip` — invert the `ja` of a trap guard (`ja` → `jbe`):
//!   out-of-bounds falls through to the access.
//! * `guard-nop` — NOP out a function's *first* guard (cmp + ja): its
//!   access runs unchecked (first guard, so no earlier check can cover it).
//! * `guard-cmp-disp` — repoint the guard compare from `mem_size`
//!   (`[r15+8]`) to `stack_limit` (`[r15+40]`): compares against a huge
//!   host address, the guard never fires.
//! * `guard-cmp-rexw` — drop REX.W from the guard compare: a 32-bit
//!   compare ignores the high bits of `addr + extent`.
//! * `guard-ja-rel` — corrupt the guard's branch displacement so the OOB
//!   path jumps mid-instruction (kept only when the target is *not* an
//!   instruction boundary — a boundary target keeps every access behind
//!   its own check at this tier, which is corrupted-but-not-unsafe).
//! * `access-disp` — grow an access displacement past its guarded extent:
//!   reads/writes up to 64 bytes beyond `mem_size` (the trap strategy's
//!   reservation is read-write, so nothing faults).
//! * `access-rexb` — flip REX.B on the access SIB base (`r14` → `rsi`):
//!   the access goes through an arbitrary host pointer.
//! * `clamp-cc-flip` / `clamp-nop` — invert or remove the clamp `cmova`:
//!   out-of-bounds indices are no longer redirected.

mod common;

use lb_chaos::SplitMix64;
use lb_core::BoundsStrategy;
use lb_jit::codegen::{compile_function, CompileParams, OptLevel};
use lb_verify::isa::{Cc, Inst, Reg, W};
use lb_verify::{decode::decode_all, verify_function, FuncInput};
use lb_wasm::PAGE_SIZE;

/// Per-function, per-class cap on generated mutants (keeps the sweep
/// seconds-fast while still sampling every kernel).
const MUTANTS_PER_CLASS: usize = 3;

const SEED: u64 = 0x1B5E_C0DE_D00D_F00D;

struct Ctx<'a> {
    module: &'a lb_wasm::Module,
    meta: &'a lb_wasm::ModuleMeta,
    strategy: BoundsStrategy,
    di: usize,
    mem_min_bytes: u64,
}

/// Instruction stream with byte extents: (offset, length, inst).
fn decode_spans(code: &[u8]) -> Vec<(usize, usize, Inst)> {
    let insts = decode_all(code).expect("unmutated code decodes");
    let mut spans = Vec::with_capacity(insts.len());
    for (i, &(off, inst)) in insts.iter().enumerate() {
        let end = insts.get(i + 1).map_or(code.len(), |&(o, _)| o);
        spans.push((off, end - off, inst));
    }
    spans
}

/// Index of the REX byte inside one instruction's bytes (skips mandatory
/// `66`/`F2`/`F3` prefixes).
fn rex_index(bytes: &[u8]) -> Option<usize> {
    for (i, &b) in bytes.iter().enumerate().take(3) {
        match b {
            0x66 | 0xF2 | 0xF3 => continue,
            0x40..=0x4F => return Some(i),
            _ => return None,
        }
    }
    None
}

/// The guard compare: `cmp r, [r15 + MEM_SIZE]`, 64-bit.
fn is_guard_cmp(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::CmpRm { w: W::W64, m, .. }
            if m.base == Reg::R15 && m.index.is_none() && m.disp == 8
    )
}

fn has_r14_operand(inst: &Inst) -> Option<lb_verify::isa::Mem> {
    let m = match *inst {
        Inst::MovRm { m, .. }
        | Inst::MovMr { m, .. }
        | Inst::MovMr8 { m, .. }
        | Inst::MovMr16 { m, .. }
        | Inst::Movzx8 { m, .. }
        | Inst::Movzx16 { m, .. }
        | Inst::Movsx8 { m, .. }
        | Inst::Movsx16 { m, .. }
        | Inst::MovsxdM { m, .. }
        | Inst::Fload { m, .. }
        | Inst::Fstore { m, .. } => m,
        _ => return None,
    };
    (m.base == Reg::R14).then_some(m)
}

/// One byte-level corruption of compiled code.
struct Mutant {
    class: &'static str,
    /// (offset, replacement bytes) patches.
    patches: Vec<(usize, Vec<u8>)>,
}

fn nop_patch(off: usize, len: usize) -> (usize, Vec<u8>) {
    (off, vec![0x90; len])
}

/// Enumerate every safety-breaking mutant of `code` for the given
/// strategy (see the module docs for the class definitions).
fn enumerate_mutants(code: &[u8], strategy: BoundsStrategy) -> Vec<Mutant> {
    let spans = decode_spans(code);
    let boundaries: std::collections::HashSet<usize> = spans.iter().map(|&(off, ..)| off).collect();
    let mut out = Vec::new();
    let mut first_guard_seen = false;
    for (i, &(off, len, inst)) in spans.iter().enumerate() {
        if is_guard_cmp(&inst) {
            // The ja immediately follows the compare.
            let Some(&(ja_off, ja_len, Inst::Jcc { cc: Cc::A, rel })) = spans.get(i + 1) else {
                continue;
            };
            out.push(Mutant {
                class: "guard-cc-flip",
                // 0F 87 (ja) -> 0F 86 (jbe): second opcode byte.
                patches: vec![(ja_off + 1, vec![code[ja_off + 1] ^ 0x01])],
            });
            out.push(Mutant {
                class: "guard-cmp-disp",
                // disp8 8 -> 40: mem_size -> stack_limit.
                patches: vec![(off + len - 1, vec![0x28])],
            });
            if let Some(r) = rex_index(&code[off..off + len]) {
                out.push(Mutant {
                    class: "guard-cmp-rexw",
                    patches: vec![(off + r, vec![code[off + r] ^ 0x08])],
                });
            }
            if !first_guard_seen {
                first_guard_seen = true;
                out.push(Mutant {
                    class: "guard-nop",
                    patches: vec![nop_patch(off, len), nop_patch(ja_off, ja_len)],
                });
            }
            // Corrupt the low rel32 byte; keep the mutant only when the
            // new target is mid-instruction (see module docs).
            let new_rel = rel ^ 0x15;
            let new_target = (ja_off + ja_len) as i64 + i64::from(new_rel);
            if new_target < 0
                || new_target >= code.len() as i64
                || !boundaries.contains(&(new_target as usize))
            {
                out.push(Mutant {
                    class: "guard-ja-rel",
                    patches: vec![(ja_off + 2, vec![(new_rel & 0xFF) as u8])],
                });
            }
        }
        if let Some(m) = has_r14_operand(&inst) {
            if strategy == BoundsStrategy::Trap {
                // Grow the displacement without changing the encoding
                // length (disp8 stays disp8, disp32 stays disp32).
                let grown = m.disp + 0x40;
                if (1..=0x3F).contains(&m.disp) || m.disp > 0x7F {
                    let disp_bytes = if m.disp <= 0x7F { 1 } else { 4 };
                    let at = off + len - disp_bytes;
                    let bytes = if disp_bytes == 1 {
                        vec![grown as u8]
                    } else {
                        grown.to_le_bytes().to_vec()
                    };
                    out.push(Mutant {
                        class: "access-disp",
                        patches: vec![(at, bytes)],
                    });
                }
                if let Some(r) = rex_index(&code[off..off + len]) {
                    out.push(Mutant {
                        class: "access-rexb",
                        patches: vec![(off + r, vec![code[off + r] ^ 0x01])],
                    });
                }
            }
        }
        if strategy == BoundsStrategy::Clamp {
            if let Inst::Cmov {
                w: W::W64,
                cc: Cc::A,
                ..
            } = inst
            {
                // REX 0F 47 modrm: find the 0F, flip the cc byte after it.
                let bytes = &code[off..off + len];
                if let Some(p) = bytes.iter().position(|&b| b == 0x0F) {
                    out.push(Mutant {
                        class: "clamp-cc-flip",
                        patches: vec![(off + p + 1, vec![bytes[p + 1] ^ 0x01])],
                    });
                }
                out.push(Mutant {
                    class: "clamp-nop",
                    patches: vec![nop_patch(off, len)],
                });
            }
        }
    }
    out
}

fn verify(ctx: &Ctx<'_>, code: &[u8]) -> lb_verify::FuncReport {
    verify_function(&FuncInput {
        func_index: ctx.di,
        code,
        body: &ctx.module.functions[ctx.di].body,
        meta: &ctx.meta.funcs[ctx.di],
        strategy: ctx.strategy,
        plan: None,
        mem_min_bytes: ctx.mem_min_bytes,
        reserve_bytes: lb_core::DEFAULT_RESERVE_BYTES as u64,
        limit_extents: None,
    })
}

#[test]
fn validator_detects_safety_breaking_mutants() {
    let mut rng = SplitMix64::new(SEED);
    let mut by_class: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut survivors: Vec<String> = Vec::new();

    for name in lb_polybench::NAMES {
        let bench = lb_polybench::by_name(name, lb_polybench::Dataset::Mini).expect("known kernel");
        let module = &bench.module;
        let meta = lb_wasm::validate(module).expect("kernel validates");
        let mem_min_bytes = module
            .memory
            .as_ref()
            .map_or(0, |m| u64::from(m.limits.min) * PAGE_SIZE as u64);

        for strategy in [BoundsStrategy::Trap, BoundsStrategy::Clamp] {
            let params = CompileParams {
                module,
                metas: &meta.funcs,
                strategy,
                // Basic: every check emitted, maximal guard density.
                opt: OptLevel::Basic,
                safepoints: false,
                funcptrs_base: 0,
                plans: None,
                guardopt: false,
                limit_extents: &[],
            };
            for di in 0..module.functions.len() {
                let code = compile_function(params, di);
                let ctx = Ctx {
                    module,
                    meta: &meta,
                    strategy,
                    di,
                    mem_min_bytes,
                };
                let clean = verify(&ctx, &code);
                assert!(
                    clean.findings.is_empty(),
                    "{name}/{strategy:?} func {di}: unmutated code must verify"
                );

                // Sample up to MUTANTS_PER_CLASS per class per function.
                let mut all = enumerate_mutants(&code, strategy);
                let mut picked: std::collections::HashMap<&'static str, usize> =
                    std::collections::HashMap::new();
                // Deterministic shuffle (Fisher–Yates).
                for i in (1..all.len()).rev() {
                    all.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for mutant in all {
                    let n = picked.entry(mutant.class).or_insert(0);
                    if *n >= MUTANTS_PER_CLASS {
                        continue;
                    }
                    *n += 1;
                    let mut mutated = code.clone();
                    for (at, bytes) in &mutant.patches {
                        mutated[*at..*at + bytes.len()].copy_from_slice(bytes);
                    }
                    let report = verify(&ctx, &mutated);
                    let e = by_class.entry(mutant.class).or_insert((0, 0));
                    e.0 += 1;
                    if report.findings.is_empty() {
                        survivors.push(format!("{name}/{strategy:?} func {di}: {}", mutant.class));
                    } else {
                        e.1 += 1;
                    }
                }
            }
        }
    }

    let total: u64 = by_class.values().map(|(t, _)| t).sum();
    let detected: u64 = by_class.values().map(|(_, d)| d).sum();
    assert!(
        total > 500,
        "expected a substantial mutant population, got {total}"
    );
    let rate = detected as f64 / total as f64;
    println!(
        "mutation detection: {detected}/{total} = {:.2}%",
        rate * 100.0
    );
    for (class, (t, d)) in &by_class {
        println!("  {class}: {d}/{t}");
    }
    assert!(
        rate >= 0.95,
        "detection rate {:.2}% below 95% — survivors:\n{}",
        rate * 100.0,
        survivors.join("\n")
    );
}

/// The fused-guard compare: `cmp r, [r15 + MEM_LIMITS + 8*slot]`, 64-bit.
fn is_limit_cmp(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::CmpRm { w: W::W64, m, .. }
            if m.base == Reg::R15
                && m.index.is_none()
                && (64..128).contains(&m.disp)
                && (m.disp - 64) % 8 == 0
    )
}

/// A bounds compare + its trap branch in compiled code: the classic
/// `cmp r11, [r15+8]; ja` or the fused `cmp reg, [r15+64+8*slot]; jae`.
struct BoundsPair {
    ja_off: usize,
    ja_len: usize,
    rel: i32,
    fused: bool,
}

fn find_bounds_pairs(spans: &[(usize, usize, Inst)]) -> Vec<BoundsPair> {
    let mut out = Vec::new();
    for (i, &(_, _, inst)) in spans.iter().enumerate() {
        let fused = is_limit_cmp(&inst);
        if !fused && !is_guard_cmp(&inst) {
            continue;
        }
        if let Some(&(ja_off, ja_len, Inst::Jcc { cc, rel })) = spans.get(i + 1) {
            if (fused && cc == Cc::Ae) || (!fused && cc == Cc::A) {
                out.push(BoundsPair {
                    ja_off,
                    ja_len,
                    rel,
                    fused,
                });
            }
        }
    }
    out
}

/// Corruption classes for `Full`-tier guard fusion, all requiring the
/// verifier to re-derive the fused guard's fact from the machine code
/// and the extent table it was handed — it is never told which sites
/// fused:
///
/// * `fused-cc-weaken` — `jae` → `ja` on the *first* fused guard: the
///   off-by-one the fused encoding exists to avoid (`addr == limit`
///   passes, making `addr + extent == mem_size + 1`). First guard, so no
///   earlier fact can legitimately cover the access.
/// * `fused-cc-flip` — `jae` → `jb` on the first fused guard: in-bounds
///   indices trap, out-of-bounds indices fall through to the access.
/// * `fused-target-rel` — corrupt a fused guard's branch displacement to
///   a mid-instruction target (kept only when it is not an instruction
///   boundary, as for `guard-ja-rel`).
#[test]
fn validator_detects_fused_guard_corruption() {
    let mut by_class: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut survivors: Vec<String> = Vec::new();

    let mut modules: Vec<(String, lb_wasm::Module)> = lb_polybench::NAMES
        .iter()
        .map(|n| {
            let b = lb_polybench::by_name(n, lb_polybench::Dataset::Mini).expect("known kernel");
            ((*n).to_string(), b.module)
        })
        .collect();
    modules.push(("rmw".into(), common::rmw_module()));
    modules.push(("redefine".into(), common::redefine_module()));

    for (name, module) in &modules {
        let meta = lb_wasm::validate(module).expect("module validates");
        let extents = lb_jit::dataflow::module_extents(module);
        let mem_min_bytes = module
            .memory
            .as_ref()
            .map_or(0, |m| u64::from(m.limits.min) * PAGE_SIZE as u64);
        // Plan withheld: every site keeps its check, the densest fusion
        // coverage.
        let params = CompileParams {
            module,
            metas: &meta.funcs,
            strategy: BoundsStrategy::Trap,
            opt: OptLevel::Full,
            safepoints: false,
            funcptrs_base: 0,
            plans: None,
            guardopt: true,
            limit_extents: &extents,
        };
        for di in 0..module.functions.len() {
            let code = compile_function(params, di);
            let body = &module.functions[di].body;
            let verify = |code: &[u8]| {
                verify_function(&FuncInput {
                    func_index: di,
                    code,
                    body,
                    meta: &meta.funcs[di],
                    strategy: BoundsStrategy::Trap,
                    plan: None,
                    mem_min_bytes,
                    reserve_bytes: lb_core::DEFAULT_RESERVE_BYTES as u64,
                    limit_extents: Some(extents.clone()),
                })
            };
            let clean = verify(&code);
            assert!(
                clean.findings.is_empty(),
                "{name} func {di}: unmutated fused code must verify: {}",
                clean
                    .findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );

            let spans = decode_spans(&code);
            let boundaries: std::collections::HashSet<usize> =
                spans.iter().map(|&(off, ..)| off).collect();
            let pairs = find_bounds_pairs(&spans);

            let mut mutants: Vec<Mutant> = Vec::new();
            // The first bounds check guards the function's first access:
            // nothing earlier can cover it, so its corruption is always a
            // genuine (and detectable) sandbox hole.
            if let Some(first) = pairs.first().filter(|p| p.fused) {
                mutants.push(Mutant {
                    class: "fused-cc-weaken",
                    // 0F 83 (jae) -> 0F 87 (ja).
                    patches: vec![(first.ja_off + 1, vec![code[first.ja_off + 1] ^ 0x04])],
                });
                mutants.push(Mutant {
                    class: "fused-cc-flip",
                    // 0F 83 (jae) -> 0F 82 (jb).
                    patches: vec![(first.ja_off + 1, vec![code[first.ja_off + 1] ^ 0x01])],
                });
            }
            // Branch-displacement corruption is structural (the CFG no
            // longer decodes), so it applies to every fused guard.
            for p in pairs.iter().filter(|p| p.fused).take(MUTANTS_PER_CLASS) {
                let new_rel = p.rel ^ 0x15;
                let new_target = (p.ja_off + p.ja_len) as i64 + i64::from(new_rel);
                if new_target < 0
                    || new_target >= code.len() as i64
                    || !boundaries.contains(&(new_target as usize))
                {
                    mutants.push(Mutant {
                        class: "fused-target-rel",
                        patches: vec![(p.ja_off + 2, vec![(new_rel & 0xFF) as u8])],
                    });
                }
            }

            for mutant in mutants {
                let mut mutated = code.clone();
                for (at, bytes) in &mutant.patches {
                    mutated[*at..*at + bytes.len()].copy_from_slice(bytes);
                }
                let report = verify(&mutated);
                let e = by_class.entry(mutant.class).or_insert((0, 0));
                e.0 += 1;
                if report.findings.is_empty() {
                    survivors.push(format!("{name} func {di}: {}", mutant.class));
                } else {
                    e.1 += 1;
                }
            }
        }
    }

    for class in ["fused-cc-weaken", "fused-cc-flip", "fused-target-rel"] {
        let (total, detected) = by_class.get(class).copied().unwrap_or((0, 0));
        println!("  {class}: {detected}/{total}");
        assert!(total > 0, "{class}: no mutants generated");
        assert_eq!(
            detected,
            total,
            "{class}: fused-guard corruption must be detected 100% — survivors:\n{}",
            survivors.join("\n")
        );
    }
}
