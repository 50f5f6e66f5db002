//! Linear-memory layout: a bump allocator handing out typed array views.
//!
//! Kernels declare their arrays once against a [`Layout`]; the layout then
//! reports the number of wasm pages the module must commit, and the array
//! handles lower indexing math (`base + i*size`, row-major for 2-D/3-D)
//! into wasm address expressions with the static base folded into the
//! memarg offset — exactly how clang lays out global arrays for
//! wasm32-wasi.

use crate::expr::{i32 as ci32, Expr};
use crate::func::DslFunc;
use lb_wasm::instr::{Instr, MemArg};
use lb_wasm::types::ValType;
use lb_wasm::PAGE_SIZE;

/// A bump allocator over the module's linear memory.
#[derive(Debug, Default)]
pub struct Layout {
    next: u32,
}

impl Layout {
    /// An empty layout starting at address 64 (address 0 is kept unused so
    /// stray null-ish accesses are visible in testing).
    pub fn new() -> Layout {
        Layout { next: 64 }
    }

    fn alloc(&mut self, bytes: u32, align: u32) -> u32 {
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + bytes;
        base
    }

    /// Total bytes allocated so far.
    pub fn bytes(&self) -> u32 {
        self.next
    }

    /// Number of 64 KiB wasm pages needed to hold every allocation.
    pub fn pages(&self) -> u32 {
        self.next.div_ceil(PAGE_SIZE as u32).max(1)
    }

    /// A 1-D array of `n` elements.
    pub fn array(&mut self, ty: ValType, n: u32) -> Arr {
        let esize = ty.size_bytes();
        let base = self.alloc(n * esize, esize.max(8));
        Arr { base, ty, len: n }
    }

    /// A 1-D f64 array.
    pub fn array_f64(&mut self, n: u32) -> Arr {
        self.array(ValType::F64, n)
    }

    /// A 1-D i32 array.
    pub fn array_i32(&mut self, n: u32) -> Arr {
        self.array(ValType::I32, n)
    }

    /// A 2-D row-major array.
    pub fn array2(&mut self, ty: ValType, rows: u32, cols: u32) -> Arr2 {
        let a = self.array(ty, rows * cols);
        Arr2 { arr: a, cols }
    }

    /// A 2-D row-major f64 array.
    pub fn array2_f64(&mut self, rows: u32, cols: u32) -> Arr2 {
        self.array2(ValType::F64, rows, cols)
    }

    /// A 3-D row-major array.
    pub fn array3(&mut self, ty: ValType, d0: u32, d1: u32, d2: u32) -> Arr3 {
        let a = self.array(ty, d0 * d1 * d2);
        Arr3 { arr: a, d1, d2 }
    }

    /// A 3-D row-major f64 array.
    pub fn array3_f64(&mut self, d0: u32, d1: u32, d2: u32) -> Arr3 {
        self.array3(ValType::F64, d0, d1, d2)
    }
}

fn load_instr(ty: ValType, offset: u32) -> Instr {
    let m = MemArg::offset(offset);
    match ty {
        ValType::I32 => Instr::I32Load(m),
        ValType::I64 => Instr::I64Load(m),
        ValType::F32 => Instr::F32Load(m),
        ValType::F64 => Instr::F64Load(m),
    }
}

fn store_instr(ty: ValType, offset: u32) -> Instr {
    let m = MemArg::offset(offset);
    match ty {
        ValType::I32 => Instr::I32Store(m),
        ValType::I64 => Instr::I64Store(m),
        ValType::F32 => Instr::F32Store(m),
        ValType::F64 => Instr::F64Store(m),
    }
}

fn scale(idx: Expr, esize: u32) -> Expr {
    debug_assert!(esize.is_power_of_two());
    let shift = esize.trailing_zeros() as i32;
    if shift == 0 {
        idx
    } else {
        idx << ci32(shift)
    }
}

/// A 1-D typed array view over linear memory.
#[derive(Debug, Clone, Copy)]
pub struct Arr {
    base: u32,
    ty: ValType,
    len: u32,
}

impl Arr {
    /// Base byte address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Element count.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element type.
    pub fn ty(&self) -> ValType {
        self.ty
    }

    /// Load `self[idx]`. The array base becomes the constant memarg offset.
    pub fn at(&self, idx: Expr) -> Expr {
        assert_eq!(idx.ty(), ValType::I32, "index must be i32");
        let mut code = scale(idx, self.ty.size_bytes()).into_code();
        code.push(load_instr(self.ty, self.base));
        Expr::from_raw(code, self.ty)
    }

    /// Store `self[idx] = val` as a statement on `f`.
    ///
    /// # Panics
    /// Panics if `val`'s type differs from the element type.
    pub fn set(&self, f: &mut DslFunc, idx: Expr, val: Expr) {
        assert_eq!(val.ty(), self.ty, "store type mismatch");
        let mut code = scale(idx, self.ty.size_bytes()).into_code();
        code.extend(val.into_code());
        code.push(store_instr(self.ty, self.base));
        f.stmt(code);
    }
}

/// A 2-D row-major typed array view.
#[derive(Debug, Clone, Copy)]
pub struct Arr2 {
    arr: Arr,
    cols: u32,
}

impl Arr2 {
    /// Number of columns (row stride in elements).
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Base byte address.
    pub fn base(&self) -> u32 {
        self.arr.base
    }

    /// Flatten an `(i, j)` pair into a linear element index.
    fn index(&self, i: Expr, j: Expr) -> Expr {
        i * ci32(self.cols as i32) + j
    }

    /// Load `self[i][j]`.
    pub fn at(&self, i: Expr, j: Expr) -> Expr {
        self.arr.at(self.index(i, j))
    }

    /// The flattened 1-D view (row-major), e.g. for checksumming.
    pub fn flat(&self) -> Arr {
        self.arr
    }

    /// Store `self[i][j] = val`.
    pub fn set(&self, f: &mut DslFunc, i: Expr, j: Expr, val: Expr) {
        self.arr.set(f, self.index(i, j), val);
    }
}

/// A 3-D row-major typed array view.
#[derive(Debug, Clone, Copy)]
pub struct Arr3 {
    arr: Arr,
    d1: u32,
    d2: u32,
}

impl Arr3 {
    /// Base byte address.
    pub fn base(&self) -> u32 {
        self.arr.base
    }

    fn index(&self, i: Expr, j: Expr, k: Expr) -> Expr {
        i * ci32((self.d1 * self.d2) as i32) + j * ci32(self.d2 as i32) + k
    }

    /// Load `self[i][j][k]`.
    pub fn at(&self, i: Expr, j: Expr, k: Expr) -> Expr {
        self.arr.at(self.index(i, j, k))
    }

    /// The flattened 1-D view (row-major), e.g. for checksumming.
    pub fn flat(&self) -> Arr {
        self.arr
    }

    /// Store `self[i][j][k] = val`.
    pub fn set(&self, f: &mut DslFunc, i: Expr, j: Expr, k: Expr, val: Expr) {
        self.arr.set(f, self.index(i, j, k), val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.array_f64(10);
        let b = l.array_i32(3);
        let c = l.array_f64(4);
        assert_eq!(a.base() % 8, 0);
        assert!(b.base() >= a.base() + 80);
        assert_eq!(c.base() % 8, 0);
        assert!(c.base() >= b.base() + 12);
        assert!(l.bytes() >= c.base() + 32);
    }

    #[test]
    fn pages_round_up() {
        let mut l = Layout::new();
        let _ = l.array_f64(10_000); // 80 KB → 2 pages
        assert_eq!(l.pages(), 2);
        let empty = Layout::new();
        assert_eq!(empty.pages(), 1);
    }

    #[test]
    fn indexing_emits_shift_and_offset() {
        let mut l = Layout::new();
        let a = l.array_f64(8);
        let e = a.at(crate::expr::i32(3));
        let code = e.into_code();
        assert_eq!(code[0], Instr::I32Const(3));
        assert_eq!(code[1], Instr::I32Const(3)); // shift amount for 8-byte
        assert_eq!(code[2], Instr::I32Shl);
        match &code[3] {
            Instr::F64Load(m) => assert_eq!(m.offset, a.base()),
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn arr2_flattens_row_major() {
        let mut l = Layout::new();
        let m = l.array2_f64(4, 5);
        assert_eq!(m.cols(), 5);
        // No functional test here (engines cover it); just type sanity.
        assert_eq!(
            m.at(crate::expr::i32(1), crate::expr::i32(2)).ty(),
            ValType::F64
        );
    }
}
