//! The benchmark-kernel convention shared by the PolyBench and SPEC-proxy
//! suites and consumed by the harness.
//!
//! A benchmark is a wasm module exporting three niladic functions —
//!
//! * `init` — fill input arrays with deterministic data,
//! * `kernel` — the timed computation,
//! * `checksum` — reduce the outputs to one `f64`,
//!
//! — plus a factory for the equivalent native-Rust implementation (the
//! paper's "native Clang/GCC" baseline). Checksums from the wasm and
//! native sides must agree, which the differential tests assert.

use lb_wasm::Module;

/// Native implementation of a benchmark kernel.
pub trait NativeKernel: Send {
    /// Fill inputs with the same deterministic data as the wasm `init`.
    fn init(&mut self);
    /// The timed computation (same work as the wasm `kernel`).
    fn kernel(&mut self);
    /// Reduce outputs to a checksum (same reduction as wasm `checksum`).
    fn checksum(&self) -> f64;
}

/// Factory producing fresh native kernel states.
pub type NativeFactory = Box<dyn Fn() -> Box<dyn NativeKernel> + Send + Sync>;

/// One benchmark: a wasm module plus its native twin.
pub struct Benchmark {
    /// Short name (e.g. `"gemm"`, `"mcf"`).
    pub name: String,
    /// Suite label (`"polybench"` or `"spec"`).
    pub suite: &'static str,
    /// The wasm module exporting `init`/`kernel`/`checksum`.
    pub module: Module,
    /// Factory for the native implementation.
    pub native: NativeFactory,
}

impl Benchmark {
    /// Construct a benchmark.
    pub fn new(
        name: impl Into<String>,
        suite: &'static str,
        module: Module,
        native: NativeFactory,
    ) -> Benchmark {
        Benchmark {
            name: name.into(),
            suite,
            module,
            native,
        }
    }

    /// Run the native twin once, returning its checksum.
    pub fn native_checksum(&self) -> f64 {
        let mut k = (self.native)();
        k.init();
        k.kernel();
        k.checksum()
    }
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("instrs", &self.module.instr_count())
            .finish()
    }
}

/// Relative tolerance for checksum agreement between wasm and native.
///
/// Both sides perform identical IEEE operations in the same order, so they
/// agree bit-for-bit in practice; the epsilon absorbs printing round-trips.
pub const CHECKSUM_RELATIVE_TOLERANCE: f64 = 1e-9;

/// Whether two checksums agree within tolerance.
pub fn checksums_match(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let denom = a.abs().max(b.abs()).max(1.0);
    ((a - b) / denom).abs() < CHECKSUM_RELATIVE_TOLERANCE
}

/// The shared checksum weight: `(index % 13 + 1)`; catches element
/// transposition that a plain sum would hide.
pub fn weight(idx: usize) -> f64 {
    ((idx % 13) + 1) as f64
}

/// Native checksum over f64 slices, matching [`checksum_fn`].
pub fn checksum_slices(slices: &[&[f64]]) -> f64 {
    let mut acc = 0.0f64;
    for s in slices {
        for (i, v) in s.iter().enumerate() {
            acc += v * weight(i);
        }
    }
    acc
}

/// Native checksum over i32 slices, matching [`checksum_fn_i32`].
pub fn checksum_slices_i32(slices: &[&[i32]]) -> f64 {
    let mut acc = 0.0f64;
    for s in slices {
        for (i, v) in s.iter().enumerate() {
            acc += f64::from(*v) * weight(i);
        }
    }
    acc
}

/// Build the wasm `checksum` function over flattened f64 arrays, matching
/// [`checksum_slices`].
pub fn checksum_fn(arrays: &[crate::Arr]) -> crate::DslFunc {
    use crate::expr::i32 as ci;
    let mut f = crate::DslFunc::new("checksum", &[], Some(lb_wasm::types::ValType::F64));
    let acc = f.local_f64();
    let i = f.local_i32();
    for a in arrays {
        assert_eq!(
            a.ty(),
            lb_wasm::types::ValType::F64,
            "checksum over f64 arrays only"
        );
        f.for_i32(i, ci(0), ci(a.len() as i32), |f| {
            let w = (i.get().rem_s(ci(13)) + ci(1)).to_f64();
            f.assign(acc, acc.get() + a.at(i.get()) * w);
        });
    }
    f.ret(acc.get());
    f
}

/// Build the wasm `checksum` function over flattened i32 arrays.
pub fn checksum_fn_i32(arrays: &[crate::Arr]) -> crate::DslFunc {
    use crate::expr::i32 as ci;
    let mut f = crate::DslFunc::new("checksum", &[], Some(lb_wasm::types::ValType::F64));
    let acc = f.local_f64();
    let i = f.local_i32();
    for a in arrays {
        assert_eq!(
            a.ty(),
            lb_wasm::types::ValType::I32,
            "i32 checksum over i32 arrays only"
        );
        f.for_i32(i, ci(0), ci(a.len() as i32), |f| {
            let w = (i.get().rem_s(ci(13)) + ci(1)).to_f64();
            f.assign(acc, acc.get() + a.at(i.get()).to_f64() * w);
        });
    }
    f.ret(acc.get());
    f
}

/// A [`NativeKernel`] built from a state struct and three plain functions —
/// the pattern every native twin uses.
pub struct ClosureKernel<S> {
    /// Kernel state (the arrays).
    pub state: S,
    /// Matches the wasm `init`.
    pub init: fn(&mut S),
    /// Matches the wasm `kernel`.
    pub kernel: fn(&mut S),
    /// Matches the wasm `checksum`.
    pub checksum: fn(&S) -> f64,
}

impl<S: Send> NativeKernel for ClosureKernel<S> {
    fn init(&mut self) {
        (self.init)(&mut self.state);
    }
    fn kernel(&mut self) {
        (self.kernel)(&mut self.state);
    }
    fn checksum(&self) -> f64 {
        (self.checksum)(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_tolerance() {
        assert!(checksums_match(1.0, 1.0));
        assert!(checksums_match(1e12, 1e12 * (1.0 + 1e-12)));
        assert!(!checksums_match(1.0, 1.1));
        assert!(checksums_match(0.0, 0.0));
        assert!(!checksums_match(0.0, 1e-3));
    }
}
