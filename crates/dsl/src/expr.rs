//! Typed expression values that lower to wasm instruction sequences.
//!
//! An [`Expr`] is a small instruction program that leaves exactly one value
//! of a known type on the wasm stack. Combinators type-check operand types
//! at kernel-construction time, so authoring mistakes surface as panics
//! when the benchmark suite is built, not as validation errors later.

use lb_wasm::instr::Instr;
use lb_wasm::types::ValType;

/// An expression: instructions leaving one value of type `ty` on the stack.
#[derive(Debug, Clone)]
pub struct Expr {
    pub(crate) code: Vec<Instr>,
    pub(crate) ty: ValType,
}

impl Expr {
    /// Build from raw parts (for extension points).
    pub fn from_raw(code: Vec<Instr>, ty: ValType) -> Expr {
        Expr { code, ty }
    }

    /// The expression's wasm type.
    pub fn ty(&self) -> ValType {
        self.ty
    }

    /// The lowered instructions.
    pub fn into_code(self) -> Vec<Instr> {
        self.code
    }

    fn bin(mut self, rhs: Expr, op: Instr, result: ValType) -> Expr {
        assert_eq!(
            self.ty, rhs.ty,
            "operand type mismatch: {} vs {}",
            self.ty, rhs.ty
        );
        self.code.extend(rhs.code);
        self.code.push(op);
        Expr {
            code: self.code,
            ty: result,
        }
    }

    fn un(mut self, op: Instr, result: ValType) -> Expr {
        self.code.push(op);
        Expr {
            code: self.code,
            ty: result,
        }
    }

    fn pick4(&self, i32_: Instr, i64_: Instr, f32_: Instr, f64_: Instr) -> Instr {
        match self.ty {
            ValType::I32 => i32_,
            ValType::I64 => i64_,
            ValType::F32 => f32_,
            ValType::F64 => f64_,
        }
    }

    // ── arithmetic (`+`, `-`, `*`, `/`, unary `-` and `<<` are the
    // `std::ops` impls below) ─────────────────────────────────────────

    /// Float division (f32/f64 only).
    pub fn fdiv(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::F32 => Instr::F32Div,
            ValType::F64 => Instr::F64Div,
            t => panic!("fdiv on non-float type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Signed integer division (i32/i64 only).
    pub fn div_s(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32DivS,
            ValType::I64 => Instr::I64DivS,
            t => panic!("div_s on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Signed remainder (i32/i64 only).
    pub fn rem_s(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32RemS,
            ValType::I64 => Instr::I64RemS,
            t => panic!("rem_s on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Unsigned remainder (i32/i64 only).
    pub fn rem_u(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32RemU,
            ValType::I64 => Instr::I64RemU,
            t => panic!("rem_u on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Bitwise and (integers).
    pub fn and(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32And,
            ValType::I64 => Instr::I64And,
            t => panic!("and on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Bitwise or (integers).
    pub fn or(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32Or,
            ValType::I64 => Instr::I64Or,
            t => panic!("or on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Bitwise xor (integers).
    pub fn xor(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32Xor,
            ValType::I64 => Instr::I64Xor,
            t => panic!("xor on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Logical shift right (integers).
    pub fn shr_u(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32ShrU,
            ValType::I64 => Instr::I64ShrU,
            t => panic!("shr_u on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Arithmetic shift right (integers).
    pub fn shr_s(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32ShrS,
            ValType::I64 => Instr::I64ShrS,
            t => panic!("shr_s on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// Square root (floats).
    pub fn sqrt(self) -> Expr {
        let op = match self.ty {
            ValType::F32 => Instr::F32Sqrt,
            ValType::F64 => Instr::F64Sqrt,
            t => panic!("sqrt on non-float type {t}"),
        };
        let ty = self.ty;
        self.un(op, ty)
    }

    /// Absolute value (floats).
    pub fn abs(self) -> Expr {
        let op = match self.ty {
            ValType::F32 => Instr::F32Abs,
            ValType::F64 => Instr::F64Abs,
            t => panic!("abs on non-float type {t}"),
        };
        let ty = self.ty;
        self.un(op, ty)
    }

    /// NaN-propagating maximum (floats).
    pub fn max(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::F32 => Instr::F32Max,
            ValType::F64 => Instr::F64Max,
            t => panic!("max on non-float type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    /// NaN-propagating minimum (floats).
    pub fn min(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::F32 => Instr::F32Min,
            ValType::F64 => Instr::F64Min,
            t => panic!("min on non-float type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }

    // ── comparisons (result i32) ───────────────────────────────────

    /// Equality.
    pub fn eq(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32Eq, Instr::I64Eq, Instr::F32Eq, Instr::F64Eq);
        self.bin(rhs, op, ValType::I32)
    }

    /// Inequality.
    pub fn ne(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32Ne, Instr::I64Ne, Instr::F32Ne, Instr::F64Ne);
        self.bin(rhs, op, ValType::I32)
    }

    /// Signed/ordered less-than.
    pub fn lt(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32LtS, Instr::I64LtS, Instr::F32Lt, Instr::F64Lt);
        self.bin(rhs, op, ValType::I32)
    }

    /// Signed/ordered less-or-equal.
    pub fn le(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32LeS, Instr::I64LeS, Instr::F32Le, Instr::F64Le);
        self.bin(rhs, op, ValType::I32)
    }

    /// Signed/ordered greater-than.
    pub fn gt(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32GtS, Instr::I64GtS, Instr::F32Gt, Instr::F64Gt);
        self.bin(rhs, op, ValType::I32)
    }

    /// Signed/ordered greater-or-equal.
    pub fn ge(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32GeS, Instr::I64GeS, Instr::F32Ge, Instr::F64Ge);
        self.bin(rhs, op, ValType::I32)
    }

    /// Unsigned less-than (integers).
    pub fn lt_u(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32LtU,
            ValType::I64 => Instr::I64LtU,
            t => panic!("lt_u on non-integer type {t}"),
        };
        self.bin(rhs, op, ValType::I32)
    }

    /// i32 == 0 test.
    pub fn eqz(self) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32Eqz,
            ValType::I64 => Instr::I64Eqz,
            t => panic!("eqz on non-integer type {t}"),
        };
        self.un(op, ValType::I32)
    }

    // ── conversions ────────────────────────────────────────────────

    /// Convert to f64 (signed for integers; promote for f32).
    pub fn to_f64(self) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::F64ConvertI32S,
            ValType::I64 => Instr::F64ConvertI64S,
            ValType::F32 => Instr::F64PromoteF32,
            ValType::F64 => return self,
        };
        self.un(op, ValType::F64)
    }

    /// Convert to f32 (signed for integers; demote for f64).
    pub fn to_f32(self) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::F32ConvertI32S,
            ValType::I64 => Instr::F32ConvertI64S,
            ValType::F64 => Instr::F32DemoteF64,
            ValType::F32 => return self,
        };
        self.un(op, ValType::F32)
    }

    /// Convert to i32 (trapping signed truncation for floats; wrap for i64).
    pub fn to_i32(self) -> Expr {
        let op = match self.ty {
            ValType::I64 => Instr::I32WrapI64,
            ValType::F32 => Instr::I32TruncF32S,
            ValType::F64 => Instr::I32TruncF64S,
            ValType::I32 => return self,
        };
        self.un(op, ValType::I32)
    }

    /// Convert to i64 (sign-extend i32; trapping truncation for floats).
    pub fn to_i64(self) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I64ExtendI32S,
            ValType::F32 => Instr::I64TruncF32S,
            ValType::F64 => Instr::I64TruncF64S,
            ValType::I64 => return self,
        };
        self.un(op, ValType::I64)
    }

    /// `select(cond, self, other)` — both branches evaluated.
    pub fn select(self, other: Expr, cond: Expr) -> Expr {
        assert_eq!(self.ty, other.ty, "select branch types differ");
        assert_eq!(cond.ty, ValType::I32, "select condition must be i32");
        let ty = self.ty;
        let mut code = self.code;
        code.extend(other.code);
        code.extend(cond.code);
        code.push(Instr::Select);
        Expr { code, ty }
    }
}

/// An i32 constant.
pub fn i32(v: i32) -> Expr {
    Expr {
        code: vec![Instr::I32Const(v)],
        ty: ValType::I32,
    }
}

/// An i64 constant.
pub fn i64(v: i64) -> Expr {
    Expr {
        code: vec![Instr::I64Const(v)],
        ty: ValType::I64,
    }
}

/// An f32 constant.
pub fn f32(v: f32) -> Expr {
    Expr {
        code: vec![Instr::F32Const(v)],
        ty: ValType::F32,
    }
}

/// An f64 constant.
pub fn f64(v: f64) -> Expr {
    Expr {
        code: vec![Instr::F64Const(v)],
        ty: ValType::F64,
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32Add, Instr::I64Add, Instr::F32Add, Instr::F64Add);
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32Sub, Instr::I64Sub, Instr::F32Sub, Instr::F64Sub);
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        let op = self.pick4(Instr::I32Mul, Instr::I64Mul, Instr::F32Mul, Instr::F64Mul);
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        match self.ty {
            ValType::F32 | ValType::F64 => self.fdiv(rhs),
            _ => self.div_s(rhs),
        }
    }
}

/// Shift left (integers).
impl std::ops::Shl for Expr {
    type Output = Expr;
    fn shl(self, rhs: Expr) -> Expr {
        let op = match self.ty {
            ValType::I32 => Instr::I32Shl,
            ValType::I64 => Instr::I64Shl,
            t => panic!("shl on non-integer type {t}"),
        };
        let ty = self.ty;
        self.bin(rhs, op, ty)
    }
}

/// Negation: `f*.neg` for floats, `0 - x` for integers.
impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        match self.ty {
            ValType::F32 => self.un(Instr::F32Neg, ValType::F32),
            ValType::F64 => self.un(Instr::F64Neg, ValType::F64),
            ValType::I32 => i32(0) - self,
            ValType::I64 => i64(0) - self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_types_check() {
        let e = i32(1) + i32(2) * i32(3);
        assert_eq!(e.ty(), ValType::I32);
        assert_eq!(e.into_code().len(), 5);

        let f = f64(1.0) / f64(2.0);
        assert_eq!(f.ty(), ValType::F64);
    }

    #[test]
    #[should_panic(expected = "operand type mismatch")]
    fn mixed_types_panic() {
        let _ = i32(1) + f64(2.0).to_i64().to_i32().to_f64();
    }

    #[test]
    fn comparisons_yield_i32() {
        assert_eq!(f64(1.0).lt(f64(2.0)).ty(), ValType::I32);
        assert_eq!(i64(1).ge(i64(2)).ty(), ValType::I32);
    }

    #[test]
    fn conversions_are_idempotent() {
        assert_eq!(f64(1.0).to_f64().into_code().len(), 1);
        assert_eq!(i32(1).to_f64().into_code().len(), 2);
    }

    #[test]
    fn neg_of_int_uses_zero_sub() {
        let e = -i32(5);
        let code = e.into_code();
        assert_eq!(code[0], Instr::I32Const(0));
        assert_eq!(code.last(), Some(&Instr::I32Sub));
    }
}
