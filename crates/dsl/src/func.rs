//! Imperative function bodies: variables, assignment, loops, conditionals.

use crate::expr::Expr;
use lb_wasm::instr::Instr;
use lb_wasm::types::{BlockType, ValType};

/// A local variable (parameter or declared local) of a [`DslFunc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var {
    pub(crate) idx: u32,
    pub(crate) ty: ValType,
}

impl Var {
    /// Read the variable as an expression.
    pub fn get(self) -> Expr {
        Expr::from_raw(vec![Instr::LocalGet(self.idx)], self.ty)
    }

    /// The variable's type.
    pub fn ty(self) -> ValType {
        self.ty
    }
}

/// A function under construction in the DSL.
#[derive(Debug)]
pub struct DslFunc {
    pub(crate) name: String,
    pub(crate) params: Vec<ValType>,
    pub(crate) result: Option<ValType>,
    pub(crate) locals: Vec<ValType>,
    pub(crate) body: Vec<Instr>,
}

impl DslFunc {
    /// Start a function with the given name and signature.
    pub fn new(name: &str, params: &[ValType], result: Option<ValType>) -> DslFunc {
        DslFunc {
            name: name.to_string(),
            params: params.to_vec(),
            result,
            locals: Vec::new(),
            body: Vec::new(),
        }
    }

    /// The `i`-th parameter.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> Var {
        Var {
            idx: i as u32,
            ty: self.params[i],
        }
    }

    /// Declare a new local of type `ty` (zero-initialized).
    pub fn local(&mut self, ty: ValType) -> Var {
        self.locals.push(ty);
        Var {
            idx: (self.params.len() + self.locals.len() - 1) as u32,
            ty,
        }
    }

    /// Declare an i32 local.
    pub fn local_i32(&mut self) -> Var {
        self.local(ValType::I32)
    }

    /// Declare an i64 local.
    pub fn local_i64(&mut self) -> Var {
        self.local(ValType::I64)
    }

    /// Declare an f64 local.
    pub fn local_f64(&mut self) -> Var {
        self.local(ValType::F64)
    }

    /// Declare an f32 local.
    pub fn local_f32(&mut self) -> Var {
        self.local(ValType::F32)
    }

    /// Append raw instructions (escape hatch).
    pub fn raw(&mut self, instrs: impl IntoIterator<Item = Instr>) {
        self.body.extend(instrs);
    }

    /// Evaluate `e` and assign it to `v`.
    ///
    /// # Panics
    /// Panics on type mismatch.
    pub fn assign(&mut self, v: Var, e: Expr) {
        assert_eq!(v.ty, e.ty(), "assign type mismatch for local {}", v.idx);
        self.body.extend(e.into_code());
        self.body.push(Instr::LocalSet(v.idx));
    }

    /// Evaluate `e` for its side effects and discard the value.
    pub fn eval_drop(&mut self, e: Expr) {
        self.body.extend(e.into_code());
        self.body.push(Instr::Drop);
    }

    /// Emit a statement expression that leaves nothing on the stack
    /// (used by [`crate::layout::Arr::set`]-style helpers).
    pub fn stmt(&mut self, code: Vec<Instr>) {
        self.body.extend(code);
    }

    /// `for v in start..end` (i32, step +1).
    pub fn for_i32(&mut self, v: Var, start: Expr, end: Expr, body: impl FnOnce(&mut DslFunc)) {
        self.for_i32_step(v, start, end, 1, body);
    }

    /// `for v in (start..end).step_by(step)` (i32, positive step).
    ///
    /// # Panics
    /// Panics if `step == 0` or the loop variable is not i32.
    pub fn for_i32_step(
        &mut self,
        v: Var,
        start: Expr,
        end: Expr,
        step: i32,
        body: impl FnOnce(&mut DslFunc),
    ) {
        assert!(step > 0, "step must be positive");
        assert_eq!(v.ty, ValType::I32, "loop variable must be i32");
        // v = start
        self.assign(v, start);
        // end is evaluated once into a fresh local.
        let end_v = self.local_i32();
        self.assign(end_v, end);
        // block { if v >= end br 0; loop { body; v += step; if v < end br 0 } }
        self.body.push(Instr::Block(BlockType::Empty));
        self.body.push(Instr::LocalGet(v.idx));
        self.body.push(Instr::LocalGet(end_v.idx));
        self.body.push(Instr::I32GeS);
        self.body.push(Instr::BrIf(0));
        self.body.push(Instr::Loop(BlockType::Empty));
        body(self);
        self.body.push(Instr::LocalGet(v.idx));
        self.body.push(Instr::I32Const(step));
        self.body.push(Instr::I32Add);
        self.body.push(Instr::LocalTee(v.idx));
        self.body.push(Instr::LocalGet(end_v.idx));
        self.body.push(Instr::I32LtS);
        self.body.push(Instr::BrIf(0));
        self.body.push(Instr::End); // loop
        self.body.push(Instr::End); // block
    }

    /// Descending loop: `for v in (start-1)..=end_inclusive` counting down.
    pub fn for_i32_down(
        &mut self,
        v: Var,
        start_exclusive: Expr,
        end_inclusive: Expr,
        body: impl FnOnce(&mut DslFunc),
    ) {
        assert_eq!(v.ty, ValType::I32, "loop variable must be i32");
        // v = start - 1
        self.assign(v, start_exclusive - crate::expr::i32(1));
        let end_v = self.local_i32();
        self.assign(end_v, end_inclusive);
        self.body.push(Instr::Block(BlockType::Empty));
        self.body.push(Instr::LocalGet(v.idx));
        self.body.push(Instr::LocalGet(end_v.idx));
        self.body.push(Instr::I32LtS);
        self.body.push(Instr::BrIf(0));
        self.body.push(Instr::Loop(BlockType::Empty));
        body(self);
        self.body.push(Instr::LocalGet(v.idx));
        self.body.push(Instr::I32Const(1));
        self.body.push(Instr::I32Sub);
        self.body.push(Instr::LocalTee(v.idx));
        self.body.push(Instr::LocalGet(end_v.idx));
        self.body.push(Instr::I32GeS);
        self.body.push(Instr::BrIf(0));
        self.body.push(Instr::End);
        self.body.push(Instr::End);
    }

    /// `while cond { body }`. `cond` is re-evaluated each iteration.
    pub fn while_loop(&mut self, cond: impl Fn() -> Expr, body: impl FnOnce(&mut DslFunc)) {
        self.body.push(Instr::Block(BlockType::Empty));
        let c = cond();
        assert_eq!(c.ty(), ValType::I32, "while condition must be i32");
        self.body.extend(c.into_code());
        self.body.push(Instr::I32Eqz);
        self.body.push(Instr::BrIf(0));
        self.body.push(Instr::Loop(BlockType::Empty));
        body(self);
        let c = cond();
        self.body.extend(c.into_code());
        self.body.push(Instr::BrIf(0));
        self.body.push(Instr::End);
        self.body.push(Instr::End);
    }

    /// `if cond { then }`.
    pub fn if_then(&mut self, cond: Expr, then: impl FnOnce(&mut DslFunc)) {
        assert_eq!(cond.ty(), ValType::I32, "if condition must be i32");
        self.body.extend(cond.into_code());
        self.body.push(Instr::If(BlockType::Empty));
        then(self);
        self.body.push(Instr::End);
    }

    /// `if cond { then } else { els }`.
    pub fn if_else(
        &mut self,
        cond: Expr,
        then: impl FnOnce(&mut DslFunc),
        els: impl FnOnce(&mut DslFunc),
    ) {
        assert_eq!(cond.ty(), ValType::I32, "if condition must be i32");
        self.body.extend(cond.into_code());
        self.body.push(Instr::If(BlockType::Empty));
        then(self);
        self.body.push(Instr::Else);
        els(self);
        self.body.push(Instr::End);
    }

    /// Return `e` from the function.
    ///
    /// # Panics
    /// Panics if the type does not match the declared result.
    pub fn ret(&mut self, e: Expr) {
        assert_eq!(Some(e.ty()), self.result, "return type mismatch");
        self.body.extend(e.into_code());
        self.body.push(Instr::Return);
    }

    /// Grow linear memory by `pages` (drops the result).
    pub fn memory_grow(&mut self, pages: Expr) {
        self.body.extend(pages.into_code());
        self.body.push(Instr::MemoryGrow);
        self.body.push(Instr::Drop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{f64, i32};

    #[test]
    fn locals_number_after_params() {
        let mut f = DslFunc::new("f", &[ValType::I32, ValType::F64], None);
        let a = f.local_i32();
        let b = f.local_f64();
        assert_eq!(a.idx, 2);
        assert_eq!(b.idx, 3);
        assert_eq!(f.param(1).ty(), ValType::F64);
    }

    #[test]
    fn for_loop_emits_balanced_blocks() {
        let mut f = DslFunc::new("f", &[], None);
        let i = f.local_i32();
        let acc = f.local_f64();
        f.for_i32(i, i32(0), i32(10), |f| {
            f.assign(acc, acc.get() + f64(1.0));
        });
        let opens = f.body.iter().filter(|x| x.is_block_start()).count();
        let ends = f.body.iter().filter(|x| matches!(x, Instr::End)).count();
        assert_eq!(opens, ends);
        assert_eq!(opens, 2); // block + loop
    }

    #[test]
    #[should_panic(expected = "assign type mismatch")]
    fn assign_checks_types() {
        let mut f = DslFunc::new("f", &[], None);
        let v = f.local_i32();
        f.assign(v, f64(1.0));
    }
}
