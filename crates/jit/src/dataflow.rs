//! The per-module fused-guard extent table.
//!
//! At `OptLevel::Full` under the trap strategy, codegen may emit a
//! residual bounds check as one `cmp addr, [r15 + MEM_LIMITS + 8*slot];
//! jae trap` pair instead of the `lea`/`cmp`/`ja` triple. Slot `i` of the
//! runtime limit table holds `mem_size - (extent_i - 1)` (saturating), so
//! the compare passes iff `addr + extent_i <= mem_size`. This module picks
//! the extents.

use lb_wasm::Module;

/// Select the per-module fused-guard extent table: the (at most
/// [`crate::runtime::N_LIMIT_SLOTS`]) distinct `offset + bytes` extents
/// over every memory access in every defined function, most frequent
/// first (ties broken toward the smaller extent). Pure function of the
/// module, so the engine (programming `VmCtx::limit_extents`), codegen
/// (choosing fuse slots) and the verifier glue all recompute the same
/// table.
pub fn module_extents(module: &Module) -> Vec<u64> {
    let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for f in &module.functions {
        for instr in &f.body {
            if let Some(acc) = instr.mem_access() {
                let extent = u64::from(acc.memarg.offset) + u64::from(acc.bytes);
                *counts.entry(extent).or_insert(0) += 1;
            }
        }
    }
    let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(crate::runtime::N_LIMIT_SLOTS);
    v.into_iter().map(|(e, _)| e).collect()
}
