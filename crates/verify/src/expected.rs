//! Expected linear-memory access sites, derived from the wasm body.
//!
//! The JIT lowers instructions in program order, skipping code it knows is
//! dead (after `unreachable`, `br`, `br_table`, `return`, or `else`) until
//! a branch-target label revives it. This walker reproduces that
//! reachability rule exactly — the same label set `collect_labels` builds
//! in `crates/jit/src/codegen.rs` — so the sites it yields align 1:1, in
//! byte order, with the `r14`-based operands in the emitted code.

use lb_analysis::{CheckKind, FuncPlan};
use lb_core::BoundsStrategy;
use lb_wasm::instr::MemAccess;
use lb_wasm::{FuncMeta, Instr};
use std::collections::HashSet;

/// One linear-memory access the JIT is expected to have emitted.
#[derive(Debug, Clone)]
pub struct ExpectedSite {
    /// Instruction index in the wasm body.
    pub pc: usize,
    /// The access (type, width, direction, memarg).
    pub acc: MemAccess,
    /// What the compiler was told to do about the bounds check here, after
    /// applying the strategy's elision rules. `Emit` when no plan was
    /// consulted.
    pub kind: CheckKind,
}

/// The per-site check decision the code generator acted on: the plan kind
/// filtered through the strategy, mirroring `mem_operand`.
fn site_kind(strategy: BoundsStrategy, plan: Option<&FuncPlan>, pc: usize) -> CheckKind {
    let k = plan.map_or(CheckKind::Emit, |p| p.kind_at(pc));
    match strategy {
        // Trap honours the full plan.
        BoundsStrategy::Trap => k,
        // Clamp elides proven-in-bounds sites and dominated sites whose
        // dominator was a *static* proof (`clamp_ok`: the clamp there was
        // the identity, so downstream facts still hold).
        BoundsStrategy::Clamp => match k {
            CheckKind::ElideInBounds => k,
            CheckKind::ElideDominated if plan.is_some_and(|p| p.clamp_elidable(pc)) => k,
            _ => CheckKind::Emit,
        },
        // Guard-region strategies never consult the plan in codegen.
        BoundsStrategy::None | BoundsStrategy::Mprotect | BoundsStrategy::Uffd => CheckKind::Emit,
    }
}

/// Walk the body with the JIT's reachability rules and list every access
/// site it lowers, in emission order. `plan` must be the plan codegen
/// consulted (`None` when the baseline tier emits every check).
pub fn expected_sites(
    body: &[Instr],
    meta: &FuncMeta,
    strategy: BoundsStrategy,
    plan: Option<&FuncPlan>,
) -> Vec<ExpectedSite> {
    // Branch-target pcs, exactly as codegen's `collect_labels` computes
    // them (the function-end pseudo-label does not revive dead code).
    let mut labels: HashSet<u32> = HashSet::new();
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::If(_) | Instr::Else => {
                labels.insert(meta.ctrl[pc]);
            }
            Instr::Br(_) | Instr::BrIf(_) => {
                labels.insert(meta.branch_table[meta.ctrl[pc] as usize].dest_pc);
            }
            Instr::BrTable(t) => {
                let base = meta.ctrl[pc] as usize;
                for k in 0..=t.targets.len() {
                    labels.insert(meta.branch_table[base + k].dest_pc);
                }
            }
            _ => {}
        }
    }
    labels.remove(&meta.body_len);

    let mut out = Vec::new();
    let mut dead = false;
    let mut depth: i32 = 0;
    for (pc, instr) in body.iter().enumerate() {
        if labels.contains(&(pc as u32)) {
            dead = false;
        }
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => depth += 1,
            Instr::End => {
                depth -= 1;
                if depth < 0 {
                    return out;
                }
            }
            _ if dead => {}
            Instr::Unreachable | Instr::Else | Instr::Br(_) | Instr::BrTable(_) | Instr::Return => {
                dead = true;
            }
            _ => {
                if let Some(acc) = instr.mem_access() {
                    out.push(ExpectedSite {
                        pc,
                        acc,
                        kind: site_kind(strategy, plan, pc),
                    });
                }
            }
        }
    }
    out
}
