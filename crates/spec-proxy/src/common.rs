//! Shared machinery for the SPEC CPU 2017 proxy workloads.
//!
//! SPEC itself is copyrighted (the paper could only distribute patches, not
//! the benchmarks), so each proxy reimplements the algorithmic core of one
//! SPEC Rate benchmark over synthetic data — the same data structures and
//! inner loops, sized so the wasm-vs-native comparison exercises the same
//! instruction mix.

use lb_dsl::expr::{i32 as ci, Expr};
use lb_dsl::{DslFunc, KernelModule, Layout, Var};
use lb_wasm::Module;

pub use lb_dsl::kernel::{
    checksum_fn, checksum_fn_i32, checksum_slices, checksum_slices_i32, ClosureKernel,
};

/// Workload scale (the paper runs SPEC in the *Train* configuration; the
/// `Train` preset here is sized so a full sweep stays tractable on one
/// core while keeping each proxy's working set realistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny, for unit/differential tests.
    Mini,
    /// Quick benchmarking.
    Small,
    /// The measurement configuration (Train stand-in).
    Train,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        Some(match s {
            "mini" => Scale::Mini,
            "small" => Scale::Small,
            "train" => Scale::Train,
            _ => return None,
        })
    }

    /// Pick by scale.
    pub fn pick(self, mini: u32, small: u32, train: u32) -> u32 {
        match self {
            Scale::Mini => mini,
            Scale::Small => small,
            Scale::Train => train,
        }
    }
}

/// Assemble the standard three-function proxy module.
pub fn assemble(layout: &Layout, init: DslFunc, kernel: DslFunc, checksum: DslFunc) -> Module {
    let mut km = KernelModule::new();
    km.memory(layout.pages(), Some(layout.pages() + 4));
    km.add_exported(init);
    km.add_exported(kernel);
    km.add_exported(checksum);
    km.finish()
}

/// Assemble with extra (non-exported) helper functions declared via `km`.
pub fn assemble_with(
    layout: &Layout,
    mut km: KernelModule,
    init: DslFunc,
    kernel: DslFunc,
    checksum: DslFunc,
) -> Module {
    km.memory(layout.pages(), Some(layout.pages() + 4));
    km.add_exported(init);
    km.add_exported(kernel);
    km.add_exported(checksum);
    km.finish()
}

/// Step the shared LCG: `x = x * 1664525 + 1013904223` (32-bit wrap).
/// Both sides use identical wrapping arithmetic.
pub fn lcg_next(x: u32) -> u32 {
    x.wrapping_mul(1664525).wrapping_add(1013904223)
}

/// DSL statement: `v = v * 1664525 + 1013904223` for an i32 local.
pub fn lcg_step(f: &mut DslFunc, v: Var) {
    f.assign(v, v.get() * ci(1664525i32) + ci(1013904223i32));
}

/// DSL expression: positive pseudo-random in `[0, m)` from LCG state `v`
/// — `(v >>> 8) % m` (logical shift keeps it non-negative for m > 0).
pub fn lcg_pick(v: Var, m: i32) -> Expr {
    v.get().shr_u(ci(8)).rem_u(ci(m))
}

/// Native twin of [`lcg_pick`].
pub fn lcg_pick_native(x: u32, m: u32) -> u32 {
    (x >> 8) % m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_matches_reference() {
        let mut x = 1u32;
        x = lcg_next(x);
        assert_eq!(x, 1015568748);
        assert_eq!(lcg_pick_native(x, 100), (1015568748u32 >> 8) % 100);
    }

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Mini.pick(1, 2, 3), 1);
        assert_eq!(Scale::Train.pick(1, 2, 3), 3);
        assert_eq!(Scale::parse("train"), Some(Scale::Train));
    }
}
