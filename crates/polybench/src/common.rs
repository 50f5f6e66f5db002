//! Shared machinery for the PolyBench/C kernel implementations: dataset
//! sizing, module assembly, initialization formulas and checksums.
//!
//! Every kernel is written twice from the same reference loops — once in
//! the DSL (lowered to wasm) and once in plain Rust (the native baseline).
//! Both sides use identical IEEE-754 operations in identical order, so
//! their checksums agree bit-for-bit; the differential tests rely on this.

use lb_dsl::expr::{f64 as cf, Expr};
use lb_dsl::{DslFunc, KernelModule, Layout};
use lb_wasm::Module;

/// PolyBench dataset sizes (the paper uses MEDIUM; smaller presets keep
/// tests and interpreter runs fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Tiny sizes for unit/differential tests.
    Mini,
    /// Small sizes for quick benchmarking on slow engines.
    Small,
    /// The paper's configuration.
    Medium,
}

impl Dataset {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Dataset> {
        Some(match s {
            "mini" => Dataset::Mini,
            "small" => Dataset::Small,
            "medium" => Dataset::Medium,
            _ => return None,
        })
    }

    /// Scale a (mini, small, medium) triple.
    pub fn pick(self, mini: u32, small: u32, medium: u32) -> u32 {
        match self {
            Dataset::Mini => mini,
            Dataset::Small => small,
            Dataset::Medium => medium,
        }
    }
}

/// Assemble the standard three-function kernel module.
pub fn assemble(layout: &Layout, init: DslFunc, kernel: DslFunc, checksum: DslFunc) -> Module {
    let mut km = KernelModule::new();
    km.memory(layout.pages(), Some(layout.pages() + 4));
    km.add_exported(init);
    km.add_exported(kernel);
    km.add_exported(checksum);
    km.finish()
}

pub use lb_dsl::kernel::{
    checksum_fn, checksum_fn_i32, checksum_slices, checksum_slices_i32, weight,
};

/// The standard PolyBench-style initialization value:
/// `((i * a + j + b) % m) as f64 / m` — pure integer math, so the wasm and
/// native sides agree exactly.
pub fn init_val(i: i64, a: i64, j: i64, b: i64, m: i64) -> f64 {
    (((i * a + j + b) % m) as f64) / m as f64
}

/// DSL twin of [`init_val`]; `i`/`j` are i32 expressions.
pub fn init_val_expr(i: Expr, a: i64, j: Expr, b: i64, m: i64) -> Expr {
    let e = (i.to_i64() * lb_dsl::expr::i64(a) + j.to_i64() + lb_dsl::expr::i64(b))
        .rem_s(lb_dsl::expr::i64(m));
    e.to_f64().fdiv(cf(m as f64))
}

pub use lb_dsl::kernel::ClosureKernel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_pick() {
        assert_eq!(Dataset::Mini.pick(4, 16, 64), 4);
        assert_eq!(Dataset::Small.pick(4, 16, 64), 16);
        assert_eq!(Dataset::Medium.pick(4, 16, 64), 64);
        assert_eq!(Dataset::parse("medium"), Some(Dataset::Medium));
        assert_eq!(Dataset::parse("huge"), None);
    }

    #[test]
    fn weights_cycle() {
        assert_eq!(weight(0), 1.0);
        assert_eq!(weight(12), 13.0);
        assert_eq!(weight(13), 1.0);
    }

    #[test]
    fn init_val_is_deterministic() {
        assert_eq!(init_val(3, 7, 5, 1, 100), 27.0 / 100.0);
        // Matches a manual recomputation.
        assert_eq!(init_val(0, 1, 0, 1, 10), 0.1);
    }
}
