//! Instruction classification for profile attribution.
//!
//! `lb-prof` samples program counters inside JIT code and needs to know,
//! per sampled instruction, whether time went to the bounds check itself
//! (the paper's subject) or to the access it protects. This module reuses
//! the translation validator's decoder ([`crate::decode`]) — the one
//! component already trusted to understand every byte the JIT emits — to
//! lift a function body back into [`crate::isa::Inst`] form and bucket
//! each instruction:
//!
//! * **GuardCompare** — the trap-strategy check: `lea scratch, [addr+ext]`
//!   / `cmp scratch, [r15 + mem_size]` / `ja trap` (plus the `movabs`+`add`
//!   form for extents that overflow an i32 displacement).
//! * **Clamp** — the clamp-strategy redirect: `lea` / `mov t, [r15 +
//!   mem_size]` / `sub t, size` / `cmp scratch, t` / `cmova scratch, t`.
//! * **TrapPath** — `ud2` trap stubs (out-of-line; sampled only when a
//!   check actually fails).
//! * **MemoryAccess** — any instruction whose memory operand is based on
//!   r14, the linear-memory base register.
//! * **Compute** — everything else (including context-struct traffic such
//!   as the stack-limit compare, whose displacement differs from
//!   `mem_size`).
//!
//! Classification is purely syntactic and anchored on the context-pointer
//! register (r15) plus the `mem_size` field displacement, which the caller
//! passes in so this crate needs no dependency on the JIT's layout
//! constants. Sequence *widening* (folding the `lea`/`ja` around a compare
//! into the check's cost) runs after per-instruction bucketing, mirroring
//! exactly the shapes `mem_operand` in `crates/jit/src/codegen.rs` emits.

use crate::decode::{decode_all, DecodeErr};
use crate::isa::{AluRi, AluRr, Cc, Inst, Mem, Reg, ShiftOp, W};

/// What a sampled instruction was doing, from the bounds-checking
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Trap-strategy guard sequence (lea/cmp-vs-mem-size/ja).
    GuardCompare,
    /// Clamp-strategy clamp sequence (lea/mov/sub/cmp/cmova).
    Clamp,
    /// Out-of-line `ud2` trap stub.
    TrapPath,
    /// Linear-memory access (r14-based operand).
    MemoryAccess,
    /// Anything else.
    Compute,
}

impl InstClass {
    /// Stable lowercase label, used in trace JSON and report tables.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::GuardCompare => "guard",
            InstClass::Clamp => "clamp",
            InstClass::TrapPath => "trap_path",
            InstClass::MemoryAccess => "mem_access",
            InstClass::Compute => "compute",
        }
    }
}

/// One classified instruction: `[offset, offset + len)` within the
/// function body.
#[derive(Debug, Clone, Copy)]
pub struct ClassifiedInst {
    /// Byte offset of the instruction's first byte.
    pub offset: u32,
    /// Encoded length in bytes.
    pub len: u32,
    /// Attribution bucket.
    pub class: InstClass,
    /// Whether a branch of the function lands on this instruction.
    pub branch_target: bool,
}

/// The linear-memory base register (`MEM_BASE` lives in a register, not
/// the context struct): every guest load/store operand is based on it.
const MEM_BASE_REG: Reg = Reg::R14;
/// The VM context pointer; bounds checks compare against
/// `[r15 + mem_size_disp]`.
const CTX_REG: Reg = Reg::R15;

fn mem_of(inst: &Inst) -> Option<Mem> {
    match *inst {
        Inst::MovRm { m, .. }
        | Inst::MovMr { m, .. }
        | Inst::MovMr8 { m, .. }
        | Inst::MovMr16 { m, .. }
        | Inst::Movzx8 { m, .. }
        | Inst::Movzx16 { m, .. }
        | Inst::Movsx8 { m, .. }
        | Inst::Movsx16 { m, .. }
        | Inst::MovsxdM { m, .. }
        | Inst::CmpRm { m, .. }
        | Inst::CallM { m }
        | Inst::Fload { m, .. }
        | Inst::Fstore { m, .. } => Some(m),
        // `lea` computes an address but performs no access.
        _ => None,
    }
}

fn is_ctx_field(m: &Mem, disp: i32) -> bool {
    m.base == CTX_REG && m.index.is_none() && m.disp == disp
}

/// A bounds compare against the context struct: the classic `mem_size`
/// field, or (fused guards) a slot of the per-extent limit table.
fn is_bounds_cmp(m: &Mem, mem_size_disp: i32) -> bool {
    is_ctx_field(m, mem_size_disp)
        || (m.base == CTX_REG && m.index.is_none() && crate::absint::limit_slot(m.disp).is_some())
}

/// True for the address-materialization instructions that may precede a
/// check's compare: `lea scratch, [addr+ext]`, or the wide-extent form
/// `movabs scratch, ext` / `add scratch, addr`.
fn is_addr_setup(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Lea { .. }
            | Inst::MovAbs { .. }
            | Inst::MovRi64Sx { .. }
            | Inst::AluRr { op: AluRr::Add, .. }
    )
}

/// Decode and classify a single function body.
///
/// `code` must be exactly the emitted bytes of one function (prologue
/// through trap stubs, without inter-function `int3` padding);
/// `mem_size_disp` is the byte offset of the memory-size field in the VM
/// context struct (`ctx_off::MEM_SIZE` in `lb-jit`). Fails only if the
/// bytes contain an encoding the JIT cannot produce.
pub fn classify_function(
    code: &[u8],
    mem_size_disp: i32,
) -> Result<Vec<ClassifiedInst>, DecodeErr> {
    let insts = decode_all(code)?;
    let n = insts.len();
    let mut classes: Vec<InstClass> = Vec::with_capacity(n);

    // Pass 1: per-instruction bucketing.
    for (_, inst) in &insts {
        let class = match inst {
            Inst::Ud2Trap { .. } => InstClass::TrapPath,
            Inst::CmpRm { m, .. } if is_bounds_cmp(m, mem_size_disp) => InstClass::GuardCompare,
            _ => match mem_of(inst) {
                Some(m) if m.base == MEM_BASE_REG => InstClass::MemoryAccess,
                _ => InstClass::Compute,
            },
        };
        classes.push(class);
    }

    // Pass 2a: widen trap-strategy guards. The compare was found by its
    // `[r15 + mem_size]` (or limit-table) operand; fold in the address
    // setup before it and the `ja`/`jae trap` after it. Fused guards
    // compare the index register directly — no setup precedes them.
    for i in 0..n {
        if classes[i] != InstClass::GuardCompare {
            continue;
        }
        let classic = matches!(&insts[i].1,
            Inst::CmpRm { m, .. } if is_ctx_field(m, mem_size_disp));
        if classic {
            let mut j = i;
            while j > 0 && classes[j - 1] == InstClass::Compute && is_addr_setup(&insts[j - 1].1) {
                classes[j - 1] = InstClass::GuardCompare;
                j -= 1;
                // At most two setup instructions (movabs + add) precede.
                if i - j == 2 {
                    break;
                }
            }
        }
        if i + 1 < n {
            if let Inst::Jcc {
                cc: Cc::A | Cc::Ae, ..
            } = insts[i + 1].1
            {
                classes[i + 1] = InstClass::GuardCompare;
            }
        }
    }

    // Pass 2c: hoisted preheader guards (`emit_hoist_guard`), anchored on
    // their unique `cmp r11, 0x7FFF_FFFF` range pre-check followed by
    // `ja`. Walk backward over the bound load — a 32-bit `mov r11, reg`
    // when the bound local lives in a register (pinned at `Full`, or any
    // other register a compiler might home it in) or a 32-bit
    // `mov r11, [rbp+disp]` from its spill slot — plus
    // the optional `sub r11, 1`, and forward over the optional
    // `shl`/`add r11` up to the final size compare pass 2a already
    // marked. The whole sequence is bounds-check time.
    const SCRATCH: Reg = Reg::R11;
    for i in 0..n {
        let anchored = matches!(
            insts[i].1,
            Inst::AluRi { w: W::W64, op: AluRi::Cmp, d, v: 0x7FFF_FFFF } if d == SCRATCH
        );
        if !anchored || !matches!(insts.get(i + 1), Some((_, Inst::Jcc { cc: Cc::A, .. }))) {
            continue;
        }
        let mut j = i;
        if j > 0
            && matches!(insts[j - 1].1,
            Inst::AluRi { w: W::W64, op: AluRi::Sub, d, v: 1 } if d == SCRATCH)
        {
            j -= 1;
        }
        let bound_load = j > 0
            && matches!(insts[j - 1].1,
                Inst::MovRr { w: W::W32, d, .. } if d == SCRATCH)
            || j > 0
                && matches!(&insts[j - 1].1,
                    Inst::MovRm { w: W::W32, d, m } if *d == SCRATCH && m.base == Reg::RBP);
        if !bound_load {
            continue;
        }
        j -= 1;
        let mut k = i + 2;
        if matches!(insts.get(k),
            Some((_, Inst::ShiftImm { w: W::W64, op: ShiftOp::Shl, d, .. })) if *d == SCRATCH)
        {
            k += 1;
        }
        if matches!(insts.get(k),
            Some((_, Inst::AluRi { w: W::W64, op: AluRi::Add, d, .. })) if *d == SCRATCH)
        {
            k += 1;
        }
        // Only accept the full shape: the size compare must follow.
        if !matches!(insts.get(k),
            Some((_, Inst::CmpRm { m, .. })) if is_ctx_field(m, mem_size_disp))
        {
            continue;
        }
        for c in classes.iter_mut().take(k).skip(j) {
            *c = InstClass::GuardCompare;
        }
    }

    // Pass 2b: clamp sequences, anchored on the `mov t, [r15 + mem_size]`
    // load and matched forward over the exact emitted shape
    // `sub t, size` / `cmp scratch, t` / `cmova scratch, t`.
    for i in 0..n {
        let anchor = matches!(&insts[i].1,
            Inst::MovRm { m, .. } if is_ctx_field(m, mem_size_disp));
        if !anchor || i + 3 >= n {
            continue;
        }
        let shape = matches!(insts[i + 1].1, Inst::AluRi { op: AluRi::Sub, .. })
            && matches!(insts[i + 2].1, Inst::AluRr { op: AluRr::Cmp, .. })
            && matches!(insts[i + 3].1, Inst::Cmov { cc: Cc::A, .. });
        if !shape {
            continue;
        }
        for c in classes.iter_mut().take(i + 4).skip(i) {
            *c = InstClass::Clamp;
        }
        // Fold in the preceding address setup, as for guards.
        let mut j = i;
        while j > 0 && classes[j - 1] == InstClass::Compute && is_addr_setup(&insts[j - 1].1) {
            classes[j - 1] = InstClass::Clamp;
            j -= 1;
            if i - j == 2 {
                break;
            }
        }
    }

    let ends: Vec<usize> = (0..n)
        .map(|i| insts.get(i + 1).map_or(code.len(), |(o, _)| *o))
        .collect();
    let targets: std::collections::HashSet<i64> = insts
        .iter()
        .zip(&ends)
        .filter_map(|((_, inst), &end)| match *inst {
            Inst::Jcc { rel, .. } | Inst::Jmp { rel } => Some(end as i64 + i64::from(rel)),
            _ => None,
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for (i, (off, _)) in insts.iter().enumerate() {
        out.push(ClassifiedInst {
            offset: *off as u32,
            len: (ends[i] - off) as u32,
            class: classes[i],
            branch_target: targets.contains(&(*off as i64)),
        });
    }
    Ok(out)
}

/// The offset a timer sample taken at `offset` is charged to.
///
/// An interrupt is taken once the instruction holding up retirement has
/// retired, and the saved PC is the instruction after it: a compare that
/// stalls shows up on the access it guards. So a sample at the start of
/// an instruction is charged to the instruction laid out before it —
/// unless a branch lands on it (its predecessor in execution is then
/// unknown) or it is the function's first instruction.
pub fn charged_offset(classes: &[ClassifiedInst], offset: u32) -> u32 {
    let idx = classes.partition_point(|c| c.offset <= offset);
    match idx.checked_sub(1) {
        Some(i) if i > 0 && classes[i].offset == offset && !classes[i].branch_target => {
            classes[i - 1].offset
        }
        _ => offset,
    }
}

/// Find the class of the instruction containing byte `offset`, if any.
/// `classes` must be sorted by offset, as [`classify_function`] returns.
pub fn class_at(classes: &[ClassifiedInst], offset: u32) -> Option<InstClass> {
    let idx = classes.partition_point(|c| c.offset <= offset);
    let c = classes.get(idx.checked_sub(1)?)?;
    (offset < c.offset + c.len).then_some(c.class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{encode, Inst, Mem, Reg, W};

    const MEM_SIZE: i32 = 8;

    fn bytes(insts: &[Inst]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in insts {
            encode(i, &mut out);
        }
        out
    }

    #[test]
    fn trap_guard_sequence_is_guard() {
        // lea r11, [rcx+4]; cmp r11, [r15+8]; ja +0; mov eax, [r14+rcx]
        let code = bytes(&[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 4),
            },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::Jcc { cc: Cc::A, rel: 0 },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::RCX, 1)),
                    disp: 0,
                },
            },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let got: Vec<InstClass> = cl.iter().map(|c| c.class).collect();
        assert_eq!(
            got,
            vec![
                InstClass::GuardCompare,
                InstClass::GuardCompare,
                InstClass::GuardCompare,
                InstClass::MemoryAccess,
                InstClass::Compute,
            ]
        );
    }

    #[test]
    fn clamp_sequence_is_clamp() {
        let code = bytes(&[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 0),
            },
            Inst::MovRm {
                w: W::W64,
                d: Reg::RDX,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Sub,
                d: Reg::RDX,
                v: 4,
            },
            Inst::AluRr {
                w: W::W64,
                op: AluRr::Cmp,
                d: Reg::R11,
                s: Reg::RDX,
            },
            Inst::Cmov {
                w: W::W64,
                cc: Cc::A,
                d: Reg::R11,
                s: Reg::RDX,
            },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::R11, 1)),
                    disp: 0,
                },
            },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let got: Vec<InstClass> = cl.iter().map(|c| c.class).collect();
        assert_eq!(
            got,
            vec![
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::Clamp,
                InstClass::MemoryAccess,
            ]
        );
    }

    #[test]
    fn fused_limit_compare_is_guard() {
        // The fused guard: cmp rcx, [r15+64]; jae trap; mov eax, [r14+rcx].
        // No lea precedes it, and the branch is `jae`, not `ja`.
        let code = bytes(&[
            Inst::CmpRm {
                w: W::W64,
                d: Reg::RCX,
                m: Mem::base(Reg::R15, 64),
            },
            Inst::Jcc { cc: Cc::Ae, rel: 0 },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::RCX, 1)),
                    disp: 0,
                },
            },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let got: Vec<InstClass> = cl.iter().map(|c| c.class).collect();
        assert_eq!(
            got,
            vec![
                InstClass::GuardCompare,
                InstClass::GuardCompare,
                InstClass::MemoryAccess,
                InstClass::Compute,
            ]
        );
    }

    #[test]
    fn ctx_compare_past_limit_table_stays_compute() {
        // A compare against a context displacement beyond the limit table
        // (64 + 8*8 = 128) is not a bounds check.
        let code = bytes(&[
            Inst::CmpRm {
                w: W::W64,
                d: Reg::RCX,
                m: Mem::base(Reg::R15, 128),
            },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        assert_eq!(cl[0].class, InstClass::Compute);
    }

    #[test]
    fn stack_limit_compare_stays_compute() {
        // The prologue stack-overflow check compares against a different
        // context field; it must not count as a bounds check.
        let code = bytes(&[
            Inst::CmpRm {
                w: W::W64,
                d: Reg::RSP,
                m: Mem::base(Reg::R15, 40),
            },
            Inst::Ud2Trap { code: 3 },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        assert_eq!(cl[0].class, InstClass::Compute);
        assert_eq!(cl[1].class, InstClass::TrapPath);
    }

    #[test]
    fn select_cmov_is_not_clamp() {
        // `select` lowers to cmove without the mem-size load before it.
        let code = bytes(&[
            Inst::AluRr {
                w: W::W64,
                op: AluRr::Test,
                d: Reg::RCX,
                s: Reg::RCX,
            },
            Inst::Cmov {
                w: W::W64,
                cc: Cc::E,
                d: Reg::RAX,
                s: Reg::RDX,
            },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        assert!(cl.iter().all(|c| c.class == InstClass::Compute));
    }

    #[test]
    fn hoisted_guard_with_register_homed_bound_is_guard() {
        // A preheader guard reading the bound from a register other than
        // the `Full` pins (here r8):
        // mov r11d, r8d; sub r11, 1; cmp r11, 7FFFFFFF; ja; shl r11, 2;
        // add r11, 8; cmp r11, [r15+8]; ja; then the fast body's access.
        let code = bytes(&[
            Inst::MovRr {
                w: W::W32,
                d: Reg::R11,
                s: Reg::R8,
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Sub,
                d: Reg::R11,
                v: 1,
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Cmp,
                d: Reg::R11,
                v: 0x7FFF_FFFF,
            },
            Inst::Jcc { cc: Cc::A, rel: 0 },
            Inst::ShiftImm {
                w: W::W64,
                op: ShiftOp::Shl,
                d: Reg::R11,
                v: 2,
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Add,
                d: Reg::R11,
                v: 8,
            },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::Jcc { cc: Cc::A, rel: 0 },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::R8, 1)),
                    disp: 0,
                },
            },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let got: Vec<InstClass> = cl.iter().map(|c| c.class).collect();
        assert_eq!(got[..8], vec![InstClass::GuardCompare; 8][..]);
        assert_eq!(got[8], InstClass::MemoryAccess);
    }

    #[test]
    fn hoisted_guard_with_spilled_bound_is_guard() {
        // Minimal shape, bound loaded from its rbp frame slot, no
        // sub/shl/add: mov r11d, [rbp-16]; cmp r11, 7FFFFFFF; ja;
        // cmp r11, [r15+8]; ja.
        let code = bytes(&[
            Inst::MovRm {
                w: W::W32,
                d: Reg::R11,
                m: Mem::base(Reg::RBP, -16),
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Cmp,
                d: Reg::R11,
                v: 0x7FFF_FFFF,
            },
            Inst::Jcc { cc: Cc::A, rel: 0 },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::Jcc { cc: Cc::A, rel: 0 },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let got: Vec<InstClass> = cl.iter().map(|c| c.class).collect();
        assert_eq!(got[..5], vec![InstClass::GuardCompare; 5][..]);
        assert_eq!(got[5], InstClass::Compute);
    }

    #[test]
    fn range_precheck_without_size_compare_stays_compute() {
        // A `cmp r11, 7FFFFFFF; ja` that is not followed by the hoisted
        // guard's size compare must not be attributed as a bounds check.
        let code = bytes(&[
            Inst::MovRr {
                w: W::W32,
                d: Reg::R11,
                s: Reg::RBX,
            },
            Inst::AluRi {
                w: W::W64,
                op: AluRi::Cmp,
                d: Reg::R11,
                v: 0x7FFF_FFFF,
            },
            Inst::Jcc { cc: Cc::A, rel: 0 },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        assert!(cl.iter().all(|c| c.class == InstClass::Compute));
    }

    #[test]
    fn samples_are_charged_to_the_preceding_instruction() {
        // lea; cmp [r15+8]; ja stub; mov eax, [r14+rcx]; ret; stub: ud2.
        let code = bytes(&[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 4),
            },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::Jcc { cc: Cc::A, rel: 5 },
            Inst::MovRm {
                w: W::W32,
                d: Reg::RAX,
                m: Mem {
                    base: Reg::R14,
                    index: Some((Reg::RCX, 1)),
                    disp: 0,
                },
            },
            Inst::Ret,
            Inst::Ud2Trap { code: 1 },
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        let charged = |i: usize| class_at(&cl, charged_offset(&cl, cl[i].offset));
        // The first instruction keeps its own samples.
        assert_eq!(charged(0), Some(InstClass::GuardCompare));
        // The access right after the guard's branch is the guard's time.
        assert_eq!(charged(3), Some(InstClass::GuardCompare));
        assert_eq!(charged(4), Some(InstClass::MemoryAccess));
        // The trap stub is the branch's target: charged to itself.
        assert!(cl[5].branch_target);
        assert_eq!(charged(5), Some(InstClass::TrapPath));
        // An offset inside an instruction is not shifted.
        assert_eq!(charged_offset(&cl, cl[3].offset + 1), cl[3].offset + 1);
    }

    #[test]
    fn class_at_maps_offsets_through_lengths() {
        let code = bytes(&[
            Inst::Lea {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::RCX, 4),
            },
            Inst::CmpRm {
                w: W::W64,
                d: Reg::R11,
                m: Mem::base(Reg::R15, MEM_SIZE),
            },
            Inst::Ret,
        ]);
        let cl = classify_function(&code, MEM_SIZE).unwrap();
        // Every byte of every instruction resolves to that instruction's
        // class; one past the end resolves to nothing.
        for c in &cl {
            for b in c.offset..c.offset + c.len {
                assert_eq!(class_at(&cl, b), Some(c.class), "byte {b}");
            }
        }
        assert_eq!(class_at(&cl, code.len() as u32), None);
    }
}
