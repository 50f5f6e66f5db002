//! lb-verify: translation validation of emitted JIT code.
//!
//! An in-tree x86-64 decoder covering the exact instruction vocabulary of
//! `lb-jit`'s assembler (round-trippable: encode → decode → re-encode
//! bit-identical), plus a forward abstract interpreter that reconstructs the
//! CFG of a compiled function and classifies every linear-memory access as
//! guarded, reservation-covered, or soundly elided — anything else becomes a
//! structured [`Finding`](report::Finding).
//!
//! The threat model and the exact proof obligations per bounds-check
//! strategy are documented in `DESIGN.md` §6. In brief, for every
//! `r14`-based operand the verifier requires one of:
//!
//! * a **dominating guard** whose proven extent covers the access — the
//!   Trap strategy. Either form is accepted at any check site: the classic
//!   `lea`/`cmp [r15+MEM_SIZE]`/`ja`, or the fused `cmp [r15+MEM_LIMITS+
//!   8*slot]`/`jae`, proven exact against the extent table the caller
//!   recomputed;
//! * a **clamp** (`cmp`/`cmova` against `mem_size - size`) feeding the
//!   index — the Clamp strategy;
//! * **reservation cover**: the worst-case effective address of a 32-bit
//!   index plus static offset fits inside the guard-region reservation —
//!   the None / Mprotect / Uffd strategies;
//! * a **re-checked elision**: the site is covered by an `lb-analysis`
//!   plan entry whose static proof the verifier re-derives, or by an
//!   earlier (stale) guard fact.

mod absint;
pub mod classify;
pub mod decode;
pub mod expected;
pub mod isa;
pub mod report;

pub use classify::{charged_offset, class_at, classify_function, ClassifiedInst, InstClass};
pub use expected::{expected_sites, ExpectedSite};
pub use report::{Finding, FindingKind, FuncReport};

use absint::{BoundSrc, Fact, IdxObs, MachineOp, SiteObs};
use expected::ExpectedSite as Site;
use lb_analysis::{CheckKind, FuncPlan};
use lb_core::BoundsStrategy;
use lb_wasm::instr::MemAccess;
use lb_wasm::{FuncMeta, Instr, ValType};

/// Everything needed to verify one compiled function.
pub struct FuncInput<'a> {
    /// Defined-function index (import-relative), for finding attribution.
    pub func_index: usize,
    /// The emitted machine code, exactly as `compile_function` returned it
    /// (no placement padding).
    pub code: &'a [u8],
    /// The wasm body the code was compiled from.
    pub body: &'a [Instr],
    /// Validation metadata for the body.
    pub meta: &'a FuncMeta,
    /// The bounds-check strategy the code was compiled under.
    pub strategy: BoundsStrategy,
    /// The per-function analysis plan codegen consulted, or `None` when it
    /// compiled at `OptLevel::None` (baseline emits every check).
    pub plan: Option<&'a FuncPlan>,
    /// The module's declared minimum memory in bytes (elision proofs are
    /// checked against this — memory never shrinks below it).
    pub mem_min_bytes: u64,
    /// Bytes of virtual-address reservation per linear memory (headroom
    /// for the guard-region strategies).
    pub reserve_bytes: u64,
    /// The module's fused-guard extent table, recomputed by the caller
    /// (`lb-jit`'s `dataflow::module_extents` is a pure function of the
    /// module). `None` makes every limit-table compare an unknown flag
    /// state, so a fused guard proves nothing.
    pub limit_extents: Option<Vec<u64>>,
}

/// Verify one compiled function against its wasm body.
///
/// Decodes the machine code, abstractly interprets it, aligns the
/// `r14`-based operands with the access sites the body implies (same
/// order — codegen lowers in program order), and proves each one safe or
/// reports a [`Finding`].
pub fn verify_function(input: &FuncInput<'_>) -> FuncReport {
    let mut report = FuncReport::default();

    // Integer parameters in ABI order; `true` marks i32 (the ABI delivers
    // them zero-extended, so they start clean).
    let int_params: Vec<bool> = input.meta.local_types[..input.meta.n_params as usize]
        .iter()
        .filter(|t| matches!(t, ValType::I32 | ValType::I64))
        .map(|t| *t == ValType::I32)
        .collect();

    let ma = absint::analyze(
        input.func_index,
        input.code,
        &int_params,
        input.limit_extents.as_deref().unwrap_or(&[]),
    );
    let undecodable = ma
        .findings
        .iter()
        .any(|f| matches!(f.kind, FindingKind::Decode { .. }));
    report.findings.extend(ma.findings);
    if undecodable {
        // No instruction stream to align against.
        return report;
    }

    let expected = expected::expected_sites(input.body, input.meta, input.strategy, input.plan);
    report.sites_checked = expected.len() as u64;
    if expected.len() != ma.sites.len() {
        report.findings.push(Finding {
            func: input.func_index,
            offset: ma.sites.first().map_or(0, |s| s.off),
            kind: FindingKind::AccessCountMismatch {
                expected: expected.len(),
                found: ma.sites.len(),
            },
        });
        return report;
    }

    for (site, obs) in expected.iter().zip(&ma.sites) {
        classify(input, site, obs, &mut report);
    }
    report
}

/// The machine shape `lower_load`/`lower_store` emits for a wasm access.
fn machine_op_for(acc: &MemAccess) -> MachineOp {
    use MachineOp::*;
    if acc.is_store {
        match (acc.ty, acc.bytes) {
            (ValType::F32, _) => FStore32,
            (ValType::F64, _) => FStore64,
            (_, 1) => Store8,
            (_, 2) => Store16,
            (_, 4) => Store32,
            _ => Store64,
        }
    } else {
        match (acc.ty, acc.bytes, acc.sign_extend) {
            (ValType::F32, ..) => FLoad32,
            (ValType::F64, ..) => FLoad64,
            (_, 1, false) => Load8Z,
            (ValType::I32, 1, true) => Load8S32,
            (ValType::I64, 1, true) => Load8S64,
            (_, 2, false) => Load16Z,
            (ValType::I32, 2, true) => Load16S32,
            (ValType::I64, 2, true) => Load16S64,
            // i64.load32_u is a plain 32-bit load (upper half zeroed).
            (_, 4, false) => Load32,
            (ValType::I64, 4, true) => Load32S64,
            _ => Load64,
        }
    }
}

fn finding(report: &mut FuncReport, input: &FuncInput<'_>, off: usize, kind: FindingKind) {
    report.findings.push(Finding {
        func: input.func_index,
        offset: off,
        kind,
    });
}

/// Prove one (wasm site, machine operand) pair safe, or record why not.
fn classify(input: &FuncInput<'_>, site: &Site, obs: &SiteObs, report: &mut FuncReport) {
    let offset = u64::from(site.acc.memarg.offset);
    let bytes = u64::from(site.acc.bytes);

    // 1. Shape: width/direction class, index scale, displacement.
    let want_op = machine_op_for(&site.acc);
    if obs.op != want_op {
        finding(
            report,
            input,
            obs.off,
            FindingKind::AccessShape {
                detail: format!(
                    "wasm site pc {} implies {want_op:?}, code has {:?}",
                    site.pc, obs.op
                ),
            },
        );
        return;
    }
    if !obs.scale_ok {
        finding(
            report,
            input,
            obs.off,
            FindingKind::AccessShape {
                detail: format!("index scale is not 1 at wasm pc {}", site.pc),
            },
        );
        return;
    }
    // The displacement is the wasm offset, except where codegen folds the
    // offset into the index register first: clamp-emitted sites and
    // offsets too large for an i32 displacement.
    let clamp_emitted = input.strategy == BoundsStrategy::Clamp && site.kind == CheckKind::Emit;
    let folded = clamp_emitted || i32::try_from(offset).is_err();
    let want_disp = if folded { 0 } else { offset as i64 };
    if i64::from(obs.disp) != want_disp {
        finding(
            report,
            input,
            obs.off,
            FindingKind::AccessShape {
                detail: format!(
                    "displacement {} does not match wasm offset {offset} at pc {}",
                    obs.disp, site.pc
                ),
            },
        );
        return;
    }
    // From here the effective address is `index + disp + bytes` with
    // `disp` exactly as intended, so the proofs below are about the index.
    let disp = if folded { 0u64 } else { offset };

    // 2. Site-kind obligations.
    match site.kind {
        CheckKind::StaticOob => {
            // The plan proved `offset + bytes > mem_max`: codegen must have
            // routed control to the trap stub before the access.
            if obs.reachable {
                finding(report, input, obs.off, FindingKind::StaticOobReachable);
            } else {
                report.proven_guarded += 1;
            }
        }
        CheckKind::ElideInBounds => {
            // Re-derive the static proof: the constant part alone must fit
            // in the declared minimum memory, and if the index is itself a
            // known constant the whole address must.
            if offset + bytes > input.mem_min_bytes {
                finding(
                    report,
                    input,
                    obs.off,
                    FindingKind::BadElisionProof {
                        detail: format!(
                            "offset {offset} + {bytes} bytes exceeds min memory {}",
                            input.mem_min_bytes
                        ),
                    },
                );
                return;
            }
            if let Some(IdxObs::Const { v, .. }) = &obs.idx {
                if v + disp + bytes > input.mem_min_bytes {
                    finding(
                        report,
                        input,
                        obs.off,
                        FindingKind::BadElisionProof {
                            detail: format!(
                                "constant address {v} + {disp} + {bytes} exceeds min memory {}",
                                input.mem_min_bytes
                            ),
                        },
                    );
                    return;
                }
            }
            report.proven_elided += 1;
        }
        CheckKind::ElideDominated => {
            // Trap reaches here for every dominated site; Clamp only for
            // `clamp_ok` sites, whose dominator was a *static* in-bounds
            // proof (see `expected::site_kind`). The dominating check is
            // the recomputed plan's obligation: we trust `lb-analysis`
            // dominance here (DESIGN.md §6 — machine facts cover most of
            // these, but a dominator that was itself statically elided
            // leaves no machine-visible guard).
            report.proven_elided += 1;
        }
        CheckKind::Emit => classify_emit(input, site, obs, disp, bytes, report),
        CheckKind::ElideHoisted => classify_hoisted(input, site, obs, report),
    }
}

/// The machine locations where a guard could have read local `l`,
/// mirroring codegen's frame layout: a spilled rbp slot at
/// `-8 * (n_pinned + 1 + l)`, or (at `OptLevel::Full`) the callee-saved
/// register the local is pinned in. The verifier is not told the opt
/// level, so both the Basic (`n_pinned = 0`) and Full layouts are
/// accepted — ambiguity only ever maps the bound to a *different local's*
/// slot, which the matched guard shape still proves was compared against
/// `mem_size` whole.
fn bound_srcs_for_local(meta: &FuncMeta, l: u32) -> Vec<BoundSrc> {
    // PIN_REGS in codegen: rbx, r12, r13 — assigned to the first three
    // integer locals in index order at OptLevel::Full.
    const PIN_REGS: [u8; 3] = [3, 12, 13];
    let mut srcs = vec![BoundSrc::Slot(-8 * (1 + l as i32))];
    let mut k = 0usize;
    for (i, ty) in meta.local_types.iter().enumerate() {
        if k == PIN_REGS.len() {
            break;
        }
        if matches!(ty, ValType::I32 | ValType::I64) {
            if i as u32 == l {
                srcs.push(BoundSrc::Reg(PIN_REGS[k]));
                break;
            }
            k += 1;
        }
    }
    // Full layout with `n_pinned` saved registers shifts spill slots down.
    let n_pinned = meta
        .local_types
        .iter()
        .filter(|t| matches!(t, ValType::I32 | ValType::I64))
        .take(3)
        .count();
    if n_pinned > 0 {
        srcs.push(BoundSrc::Slot(-8 * (n_pinned as i32 + 1 + l as i32)));
    }
    srcs
}

/// Prove a fast-body site of a versioned loop: the access carries no
/// machine check, so the preheader guard's fact must dominate it. The
/// abstract interpreter records an `HGuard` fact for each synthesized
/// guard on the fall-through (pass) edge of its final `ja`; the slow-body
/// entry never receives the fact, and facts are intersected at joins, so
/// a fact observed here means every path from function entry ran the
/// guard with a bound at least as strong as the plan's.
fn classify_hoisted(input: &FuncInput<'_>, site: &Site, obs: &SiteObs, report: &mut FuncReport) {
    let Some(hoist) = site.hoist.as_ref() else {
        finding(
            report,
            input,
            obs.off,
            FindingKind::BadElisionProof {
                detail: format!("hoisted site without guard plan at wasm pc {}", site.pc),
            },
        );
        return;
    };
    let covered = hoist.iter().all(|g| {
        let srcs = bound_srcs_for_local(input.meta, g.bound_local);
        obs.hfacts.iter().any(|f| {
            srcs.contains(&f.src)
                && f.strict == g.strict
                && f.shift == g.shift
                && f.addend >= g.addend
        })
    });
    if covered {
        report.proven_hoisted += 1;
    } else {
        finding(
            report,
            input,
            obs.off,
            FindingKind::BadElisionProof {
                detail: format!(
                    "fast-body access at wasm pc {} is not dominated by its preheader guard",
                    site.pc
                ),
            },
        );
    }
}

/// Credit a site whose index a guard fact covers: a fresh fact comes from
/// the check emitted at this site (classic or fused), a stale one from a
/// covering check that ran earlier.
fn count_guard(f: &Fact, report: &mut FuncReport) {
    match (f.fresh, f.fused) {
        (true, true) => report.proven_fused += 1,
        (true, false) => report.proven_guarded += 1,
        (false, _) => report.proven_elided += 1,
    }
}

/// Prove an `Emit`-kind site: the strategy's own protection must be visible
/// in the machine code (or the site must be unreachable).
fn classify_emit(
    input: &FuncInput<'_>,
    site: &Site,
    obs: &SiteObs,
    disp: u64,
    bytes: u64,
    report: &mut FuncReport,
) {
    if !obs.reachable {
        // Unreachable code cannot fault; reachability here over-approximates
        // execution (this also covers the dead access after a static-OOB
        // `jmp` in bodies the baseline tier compiles without a plan).
        report.proven_guarded += 1;
        return;
    }
    let Some(idx) = &obs.idx else {
        // Reachable sites always carry an index observation.
        report.proven_guarded += 1;
        return;
    };
    match input.strategy {
        BoundsStrategy::Trap | BoundsStrategy::Clamp => {
            match idx {
                IdxObs::Clamped { margin, .. } => {
                    // Clamped index: `idx <= mem_size - margin`; safe when
                    // the clamp margin covers the access (disp is 0 at
                    // clamp sites).
                    if *margin >= disp + bytes {
                        report.proven_guarded += 1;
                    } else {
                        finding(
                            report,
                            input,
                            obs.off,
                            FindingKind::UnguardedAccess {
                                detail: format!(
                                    "clamp margin {margin} < {} needed at wasm pc {}",
                                    disp + bytes,
                                    site.pc
                                ),
                            },
                        );
                    }
                }
                IdxObs::MemSizeMinus => {
                    // `idx <= mem_size`: only safe for zero-extent access,
                    // which cannot occur — report it.
                    finding(
                        report,
                        input,
                        obs.off,
                        FindingKind::UnguardedAccess {
                            detail: format!(
                                "unclamped mem_size-derived index at wasm pc {}",
                                site.pc
                            ),
                        },
                    );
                }
                IdxObs::Sym { add, fact, .. } => match fact {
                    Some(f) if f.covered >= add + disp + bytes => count_guard(f, report),
                    Some(f) => finding(
                        report,
                        input,
                        obs.off,
                        FindingKind::UnguardedAccess {
                            detail: format!(
                                "guard covers {} bytes, access needs {} at wasm pc {}",
                                f.covered,
                                add + disp + bytes,
                                site.pc
                            ),
                        },
                    ),
                    None => finding(
                        report,
                        input,
                        obs.off,
                        FindingKind::UnguardedAccess {
                            detail: format!("no dominating bounds check at wasm pc {}", site.pc),
                        },
                    ),
                },
                IdxObs::Const { v, fact } => {
                    // A constant address: a guard fact covering it, or a
                    // static bound against the declared minimum.
                    let need = v + disp + bytes;
                    match fact {
                        Some(f) if f.covered >= need => count_guard(f, report),
                        _ if need <= input.mem_min_bytes => report.proven_guarded += 1,
                        _ => finding(
                            report,
                            input,
                            obs.off,
                            FindingKind::UnguardedAccess {
                                detail: format!(
                                    "constant address needs {need} bytes in bounds at wasm pc {}",
                                    site.pc
                                ),
                            },
                        ),
                    }
                }
            }
        }
        BoundsStrategy::None | BoundsStrategy::Mprotect | BoundsStrategy::Uffd => {
            // Reservation cover: worst-case index + disp + bytes must stay
            // inside the per-memory reservation.
            let max_idx = match idx {
                IdxObs::Const { v, .. } => *v,
                IdxObs::Sym {
                    clean: true, add, ..
                } => u64::from(u32::MAX) + add,
                // Bounded by mem_size <= 4 GiB.
                IdxObs::Clamped { .. } | IdxObs::MemSizeMinus => 1u64 << 32,
                IdxObs::Sym { clean: false, .. } => {
                    finding(
                        report,
                        input,
                        obs.off,
                        FindingKind::UnguardedAccess {
                            detail: format!(
                                "index not provably 32-bit under a guard-region strategy at wasm pc {}",
                                site.pc
                            ),
                        },
                    );
                    return;
                }
            };
            let max_ea = max_idx + disp + bytes;
            if max_ea <= input.reserve_bytes {
                report.proven_guarded += 1;
            } else {
                finding(
                    report,
                    input,
                    obs.off,
                    FindingKind::OffsetExceedsHeadroom {
                        max_ea,
                        reserve: input.reserve_bytes,
                    },
                );
            }
        }
    }
}
