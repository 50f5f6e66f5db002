//! Expected linear-memory access sites, derived from the wasm body.
//!
//! The JIT lowers instructions in program order, skipping code it knows is
//! dead (after `unreachable`, `br`, `br_table`, `return`, or `else`) until
//! a branch-target label revives it. This walker reproduces that
//! reachability rule exactly — the same label set `collect_labels` builds
//! in `crates/jit/src/codegen.rs` — so the sites it yields align 1:1, in
//! byte order, with the `r14`-based operands in the emitted code.
//!
//! Versioned loops: when the plan carries a [`HoistPlan`] for a loop and
//! the strategy consults the plan (Trap/Clamp), codegen emits the loop
//! body twice — the check-free fast copy first, then the per-access-checked
//! slow copy. The walker mirrors that order: the hoisted range is listed
//! twice, with `ElideHoisted` kinds in the fast copy (carrying the guards
//! that must dominate them) downgraded to `Emit` in the slow copy.

use lb_analysis::{CheckKind, FuncPlan, GuardExpr, HoistPlan};
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
    /// For `ElideHoisted` (fast loop-body) sites: the preheader guards
    /// whose machine facts must dominate the access.
    pub hoist: Option<Vec<GuardExpr>>,
}

/// The per-site check decision the code generator acted on: the plan kind
/// filtered through the strategy, mirroring `mem_operand`.
fn site_kind(strategy: BoundsStrategy, plan: Option<&FuncPlan>, pc: usize) -> CheckKind {
    let k = plan.map_or(CheckKind::Emit, |p| p.kind_at(pc));
    match strategy {
        // Trap honours the full plan.
        BoundsStrategy::Trap => k,
        // Clamp elides proven-in-bounds sites, fast-copy hoisted sites
        // (the preheader guard proves every iteration in bounds, so the
        // clamp is the identity), and dominated sites whose dominator was
        // a *static* proof (`clamp_ok`: the clamp there was the identity
        // too, so downstream facts still hold).
        BoundsStrategy::Clamp => match k {
            CheckKind::ElideInBounds | CheckKind::ElideHoisted => k,
            CheckKind::ElideDominated if plan.is_some_and(|p| p.clamp_elidable(pc)) => k,
            _ => CheckKind::Emit,
        },
        // Guard-region strategies never consult the plan in codegen.
        BoundsStrategy::None | BoundsStrategy::Mprotect | BoundsStrategy::Uffd => CheckKind::Emit,
    }
}

/// List the sites of one copy of a hoisted loop body `[start, end]`
/// (inclusive of the `Loop` and its `End`). The body is straight-line
/// (hoisting requires it), so only the dead-code rule applies — no block
/// nesting. Returns the liveness state at the end of the copy.
#[allow(clippy::too_many_arguments)]
fn walk_hoisted_copy(
    body: &[Instr],
    start: usize,
    end: usize,
    labels: &HashSet<u32>,
    strategy: BoundsStrategy,
    plan: Option<&FuncPlan>,
    h: &HoistPlan,
    fast: bool,
    out: &mut Vec<ExpectedSite>,
) -> bool {
    let mut dead = false;
    for pc in start..=end {
        if labels.contains(&(pc as u32)) {
            dead = false;
        }
        if dead {
            continue;
        }
        match &body[pc] {
            Instr::Unreachable | Instr::Br(_) | Instr::BrTable(_) | Instr::Return => dead = true,
            instr => {
                if let Some(acc) = instr.mem_access() {
                    let mut kind = site_kind(strategy, plan, pc);
                    let mut hoist = None;
                    if kind == CheckKind::ElideHoisted {
                        if fast {
                            hoist = Some(h.guards.clone());
                        } else {
                            // The slow copy re-emits the full check.
                            kind = CheckKind::Emit;
                        }
                    }
                    out.push(ExpectedSite {
                        pc,
                        acc,
                        kind,
                        hoist,
                    });
                }
            }
        }
    }
    dead
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

    // Codegen versions loops only under the plan-consulting strategies.
    let versioned = matches!(strategy, BoundsStrategy::Trap | BoundsStrategy::Clamp);

    let mut out = Vec::new();
    let mut dead = false;
    let mut depth: i32 = 0;
    let mut pc = 0usize;
    while pc < body.len() {
        let instr = &body[pc];
        if labels.contains(&(pc as u32)) {
            dead = false;
        }
        if !dead && versioned {
            if let Some(h) = plan.and_then(|p| p.hoist_at(pc as u32)) {
                // Fast copy, then slow copy — both copies end with the
                // same liveness (identical instruction ranges).
                let end = h.end_pc as usize;
                walk_hoisted_copy(body, pc, end, &labels, strategy, plan, h, true, &mut out);
                dead =
                    walk_hoisted_copy(body, pc, end, &labels, strategy, plan, h, false, &mut out);
                // The range balances its own Loop/End pair; depth is
                // unchanged across it.
                pc = end + 1;
                continue;
            }
        }
        if dead {
            match instr {
                Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => depth += 1,
                Instr::End => {
                    depth -= 1;
                    if depth < 0 {
                        return out;
                    }
                }
                _ => {}
            }
            pc += 1;
            continue;
        }
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => depth += 1,
            Instr::End => {
                depth -= 1;
                if depth < 0 {
                    return out;
                }
            }
            Instr::Unreachable | Instr::Else | Instr::Br(_) | Instr::BrTable(_) | Instr::Return => {
                dead = true;
            }
            _ => {
                if let Some(acc) = instr.mem_access() {
                    let mut kind = site_kind(strategy, plan, pc);
                    if kind == CheckKind::ElideHoisted {
                        // Reachable only when the loop header itself was
                        // dead but a label revived its interior: codegen
                        // then emits the body once, with the full check.
                        kind = CheckKind::Emit;
                    }
                    out.push(ExpectedSite {
                        pc,
                        acc,
                        kind,
                        hoist: None,
                    });
                }
            }
        }
        pc += 1;
    }
    out
}
