//! Module validation and control-flow side-table construction.
//!
//! Validation performs full type-checking of every function body (the
//! standard wasm algorithm with unreachable-polymorphism) and, as a
//! byproduct, resolves all structured control flow into flat side tables:
//!
//! * for every `if`/`else`, the precomputed jump destination,
//! * for every `br`/`br_if`/`br_table`, a [`BranchDest`] carrying the
//!   absolute destination pc, the number of values the label keeps, and the
//!   operand-stack height the destination expects.
//!
//! Both the interpreter and the JIT consume these tables, so neither engine
//! needs a runtime label stack.

use crate::error::ValidateError;
use crate::instr::Instr;
use crate::module::Module;
use crate::types::{BlockType, Mutability, ValType, PAGE_SIZE};
use std::collections::HashMap;

/// Resolution of one branch edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchDest {
    /// Absolute instruction index execution continues at.
    pub dest_pc: u32,
    /// Number of top-of-stack values carried across the branch.
    pub keep: u8,
    /// Operand-stack height (excluding the kept values) at the destination.
    pub target_height: u32,
}

/// Per-function metadata produced by validation.
#[derive(Debug, Clone, Default)]
pub struct FuncMeta {
    /// Types of all locals: parameters first, then declared locals.
    pub local_types: Vec<ValType>,
    /// Number of parameters.
    pub n_params: u32,
    /// Result type, if the function returns a value.
    pub result: Option<ValType>,
    /// Worst-case operand stack depth.
    pub max_stack: u32,
    /// Per-instruction control word, aligned with the body:
    /// * `If` — pc to jump to when the condition is false,
    /// * `Else` — pc to jump to when reached by fallthrough,
    /// * `Br`/`BrIf`/`BrTable` — index into [`FuncMeta::branch_table`]
    ///   (`br_table` occupies `targets.len() + 1` consecutive entries,
    ///   default last).
    pub ctrl: Vec<u32>,
    /// Flat storage for resolved branch destinations.
    pub branch_table: Vec<BranchDest>,
    /// Operand-stack height (relative to the function's operand base)
    /// *before* each instruction executes. Engines use this to reconstruct
    /// canonical stack layouts at branch-target labels.
    pub height_at: Vec<u32>,
    /// Result types at every pc where a value is produced — unused by
    /// engines, retained for the cost model's operand-width accounting.
    pub body_len: u32,
}

/// Validation output for a whole module.
#[derive(Debug, Clone, Default)]
pub struct ModuleMeta {
    /// Metadata for each *defined* function (index parallel to
    /// `module.functions`, i.e. excluding imports).
    pub funcs: Vec<FuncMeta>,
}

/// Validate a module and build execution side-tables.
///
/// # Errors
/// Returns a [`ValidateError`] describing the first problem found.
pub fn validate(module: &Module) -> Result<ModuleMeta, ValidateError> {
    // Module-level checks.
    for (i, ty) in module.types.iter().enumerate() {
        if ty.results.len() > 1 {
            return Err(ValidateError::UnsupportedMultiValue { type_idx: i as u32 });
        }
    }
    for (i, g) in module.globals.iter().enumerate() {
        if g.init.ty() != g.ty.content {
            return Err(ValidateError::GlobalInitType { global: i as u32 });
        }
    }
    if let Some(start) = module.start {
        let ty = module.func_type(start)?;
        if !ty.params.is_empty() || !ty.results.is_empty() {
            return Err(ValidateError::BadStartFunc);
        }
    }
    for (si, seg) in module.elems.iter().enumerate() {
        let table = module
            .table
            .ok_or(ValidateError::BadElemSegment { segment: si })?;
        let end = seg.offset as u64 + seg.funcs.len() as u64;
        if end > table.limits.min as u64 {
            return Err(ValidateError::BadElemSegment { segment: si });
        }
        for &f in &seg.funcs {
            if f >= module.num_funcs() {
                return Err(ValidateError::BadElemSegment { segment: si });
            }
        }
    }
    for (si, seg) in module.data.iter().enumerate() {
        let mem = module
            .memory
            .ok_or(ValidateError::BadDataSegment { segment: si })?;
        let end = seg.offset as u64 + seg.bytes.len() as u64;
        if end > mem.limits.min as u64 * PAGE_SIZE as u64 {
            return Err(ValidateError::BadDataSegment { segment: si });
        }
    }

    let mut metas = Vec::with_capacity(module.functions.len());
    for (i, _) in module.functions.iter().enumerate() {
        let func_idx = module.num_imported_funcs() + i as u32;
        metas.push(validate_func(module, func_idx)?);
    }
    Ok(ModuleMeta { funcs: metas })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Func,
    Block,
    Loop,
    If,
    Else,
}

#[derive(Debug, Clone)]
struct Frame {
    kind: FrameKind,
    bt: BlockType,
    /// Operand-stack height at block entry.
    height: u32,
    /// pc of the opening instruction (Loop start for back-branches).
    start_pc: u32,
    unreachable: bool,
}

impl Frame {
    /// Types a branch to this label carries.
    fn label_arity(&self) -> u8 {
        match self.kind {
            FrameKind::Loop => 0,
            _ => self.bt.arity() as u8,
        }
    }

    fn label_type(&self) -> Option<ValType> {
        match self.kind {
            FrameKind::Loop => None,
            _ => self.bt.result(),
        }
    }
}

struct Checker<'m> {
    module: &'m Module,
    func: u32,
    locals: Vec<ValType>,
    stack: Vec<ValType>,
    frames: Vec<Frame>,
    max_stack: u32,
    meta: FuncMeta,
    /// end pc (and optional else pc) for each opener, from the pre-scan.
    end_of: HashMap<u32, u32>,
    else_of: HashMap<u32, u32>,
}

/// Per opener pc: its `end` pc, and (for an `if` with one) its `else` pc.
type ControlMaps = (HashMap<u32, u32>, HashMap<u32, u32>);

/// First pass: match every `block`/`loop`/`if` with its `else`/`end`.
fn scan_control(body: &[Instr], func: u32) -> Result<ControlMaps, ValidateError> {
    let mut end_of = HashMap::new();
    let mut else_of = HashMap::new();
    let mut stack: Vec<u32> = Vec::new(); // opener pcs; sentinel for function level
    let mut func_closed = false;
    for (pc, instr) in body.iter().enumerate() {
        if func_closed {
            return Err(ValidateError::UnbalancedControl { func, at: pc });
        }
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => stack.push(pc as u32),
            Instr::Else => {
                let &opener = stack
                    .last()
                    .ok_or(ValidateError::UnbalancedControl { func, at: pc })?;
                if !matches!(body[opener as usize], Instr::If(_)) || else_of.contains_key(&opener) {
                    return Err(ValidateError::UnbalancedControl { func, at: pc });
                }
                else_of.insert(opener, pc as u32);
            }
            Instr::End => match stack.pop() {
                Some(opener) => {
                    end_of.insert(opener, pc as u32);
                }
                None => func_closed = true, // the function's own End
            },
            _ => {}
        }
    }
    if !func_closed || !stack.is_empty() {
        return Err(ValidateError::UnbalancedControl {
            func,
            at: body.len(),
        });
    }
    Ok((end_of, else_of))
}

fn validate_func(module: &Module, func_idx: u32) -> Result<FuncMeta, ValidateError> {
    let f = module
        .defined_func(func_idx)
        .ok_or(crate::error::ModuleError::FuncIndex(func_idx))?;
    let ty = module.func_type(func_idx)?.clone();
    let (end_of, else_of) = scan_control(&f.body, func_idx)?;

    let mut locals = ty.params.clone();
    locals.extend_from_slice(&f.locals);

    let body_len = f.body.len();
    let mut ck = Checker {
        module,
        func: func_idx,
        locals,
        stack: Vec::new(),
        frames: vec![Frame {
            kind: FrameKind::Func,
            bt: match ty.result() {
                Some(t) => BlockType::Value(t),
                None => BlockType::Empty,
            },
            height: 0,
            start_pc: 0,
            unreachable: false,
        }],
        max_stack: 0,
        meta: FuncMeta {
            local_types: Vec::new(),
            n_params: ty.params.len() as u32,
            result: ty.result(),
            max_stack: 0,
            ctrl: vec![0; body_len],
            branch_table: Vec::new(),
            height_at: Vec::with_capacity(body_len),
            body_len: body_len as u32,
        },
        end_of,
        else_of,
    };
    ck.run(&f.body)?;
    let mut meta = ck.meta;
    meta.local_types = {
        let mut l = ty.params.clone();
        l.extend_from_slice(&f.locals);
        l
    };
    meta.max_stack = ck.max_stack;
    Ok(meta)
}

impl Checker<'_> {
    fn push(&mut self, t: ValType) {
        self.stack.push(t);
        self.max_stack = self.max_stack.max(self.stack.len() as u32);
    }

    fn top_frame(&self) -> &Frame {
        self.frames.last().expect("frame stack never empty")
    }

    /// Pop any value; returns `None` when polymorphic (unreachable code).
    fn pop_any(&mut self, at: usize) -> Result<Option<ValType>, ValidateError> {
        let fr = self.top_frame();
        if self.stack.len() as u32 == fr.height {
            if fr.unreachable {
                return Ok(None);
            }
            return Err(ValidateError::StackUnderflow {
                func: self.func,
                at,
            });
        }
        Ok(self.stack.pop())
    }

    fn pop_expect(&mut self, t: ValType, at: usize) -> Result<(), ValidateError> {
        match self.pop_any(at)? {
            None => Ok(()),
            Some(found) if found == t => Ok(()),
            Some(found) => Err(ValidateError::TypeMismatch {
                func: self.func,
                at,
                expected: t,
                found: Some(found),
            }),
        }
    }

    fn set_unreachable(&mut self) {
        let fr = self.frames.last_mut().expect("frame stack never empty");
        fr.unreachable = true;
        let h = fr.height;
        self.stack.truncate(h as usize);
    }

    fn frame_at_depth(&self, depth: u32, at: usize) -> Result<&Frame, ValidateError> {
        let n = self.frames.len();
        if (depth as usize) < n {
            Ok(&self.frames[n - 1 - depth as usize])
        } else {
            Err(ValidateError::BadBranchDepth {
                func: self.func,
                at,
                depth,
            })
        }
    }

    /// Check a branch's operands and produce its resolved destination.
    fn resolve_branch(&mut self, depth: u32, at: usize) -> Result<BranchDest, ValidateError> {
        let fr = self.frame_at_depth(depth, at)?.clone();
        // Branch operands: the label's types must be on top of the stack.
        if let Some(t) = fr.label_type() {
            self.pop_expect(t, at)?;
            self.push(t); // branch does not consume for fallthrough checks (br_if)
        }
        let dest_pc = match fr.kind {
            FrameKind::Loop => fr.start_pc + 1,
            FrameKind::Func => self.meta.body_len,
            _ => {
                // Forward: to just past the matching End.
                let end = *self
                    .end_of
                    .get(&fr.start_pc)
                    .expect("opener always has end after scan");
                end + 1
            }
        };
        Ok(BranchDest {
            dest_pc,
            keep: fr.label_arity(),
            target_height: fr.height,
        })
    }

    fn check_mem(&self, at: usize) -> Result<(), ValidateError> {
        if self.module.memory.is_none() {
            return Err(ValidateError::NoMemory {
                func: self.func,
                at,
            });
        }
        Ok(())
    }

    fn local_ty(&self, idx: u32, _at: usize) -> Result<ValType, ValidateError> {
        self.locals
            .get(idx as usize)
            .copied()
            .ok_or(ValidateError::Module(
                crate::error::ModuleError::LocalIndex(idx),
            ))
    }

    fn run(&mut self, body: &[Instr]) -> Result<(), ValidateError> {
        use Instr::*;
        for (at, instr) in body.iter().enumerate() {
            let pc = at as u32;
            self.meta.height_at.push(self.stack.len() as u32);
            match instr {
                Unreachable => self.set_unreachable(),
                Nop => {}

                Block(bt) | Loop(bt) => {
                    let kind = if matches!(instr, Block(_)) {
                        FrameKind::Block
                    } else {
                        FrameKind::Loop
                    };
                    self.frames.push(Frame {
                        kind,
                        bt: *bt,
                        height: self.stack.len() as u32,
                        start_pc: pc,
                        unreachable: false,
                    });
                }
                If(bt) => {
                    self.pop_expect(ValType::I32, at)?;
                    // Precompute the false-destination.
                    let end = *self.end_of.get(&pc).expect("scanned");
                    let false_dest = match self.else_of.get(&pc) {
                        Some(&e) => e + 1,
                        None => {
                            if bt.arity() != 0 {
                                // `if` with a result requires an else arm.
                                return Err(ValidateError::BlockArity {
                                    func: self.func,
                                    at,
                                });
                            }
                            end + 1
                        }
                    };
                    self.meta.ctrl[at] = false_dest;
                    self.frames.push(Frame {
                        kind: FrameKind::If,
                        bt: *bt,
                        height: self.stack.len() as u32,
                        start_pc: pc,
                        unreachable: false,
                    });
                }
                Else => {
                    // Close the then-arm like an End, reopen as else-arm.
                    let fr = self.frames.pop().expect("frame stack never empty");
                    if fr.kind != FrameKind::If {
                        return Err(ValidateError::UnbalancedControl {
                            func: self.func,
                            at,
                        });
                    }
                    self.close_frame(&fr, at)?;
                    self.stack.truncate(fr.height as usize);
                    // Fallthrough from then-arm jumps past the matching End.
                    let end = *self.end_of.get(&fr.start_pc).expect("scanned");
                    self.meta.ctrl[at] = end + 1;
                    self.frames.push(Frame {
                        kind: FrameKind::Else,
                        bt: fr.bt,
                        height: fr.height,
                        start_pc: fr.start_pc,
                        unreachable: false,
                    });
                }
                End => {
                    let fr = self.frames.pop().expect("frame stack never empty");
                    self.close_frame(&fr, at)?;
                    self.stack.truncate(fr.height as usize);
                    if let Some(t) = fr.bt.result() {
                        self.push(t);
                    }
                    if self.frames.is_empty() {
                        // Function end: must be the last instruction.
                        if at + 1 != body.len() {
                            return Err(ValidateError::UnbalancedControl {
                                func: self.func,
                                at,
                            });
                        }
                        return Ok(());
                    }
                }

                Br(depth) => {
                    let dest = self.resolve_branch(*depth, at)?;
                    // Br consumes the label values.
                    if dest.keep == 1 {
                        self.pop_any(at)?;
                    }
                    self.meta.ctrl[at] = self.meta.branch_table.len() as u32;
                    self.meta.branch_table.push(dest);
                    self.set_unreachable();
                }
                BrIf(depth) => {
                    self.pop_expect(ValType::I32, at)?;
                    let dest = self.resolve_branch(*depth, at)?;
                    self.meta.ctrl[at] = self.meta.branch_table.len() as u32;
                    self.meta.branch_table.push(dest);
                    // Fallthrough keeps the label values on the stack.
                }
                BrTable(bt) => {
                    self.pop_expect(ValType::I32, at)?;
                    let default = self.resolve_branch(bt.default, at)?;
                    let base = self.meta.branch_table.len() as u32;
                    self.meta.ctrl[at] = base;
                    let mut dests = Vec::with_capacity(bt.targets.len() + 1);
                    for &t in &bt.targets {
                        let d = self.resolve_branch(t, at)?;
                        if d.keep != default.keep {
                            return Err(ValidateError::BlockArity {
                                func: self.func,
                                at,
                            });
                        }
                        dests.push(d);
                    }
                    dests.push(default);
                    self.meta.branch_table.extend(dests);
                    if default.keep == 1 {
                        self.pop_any(at)?;
                    }
                    self.set_unreachable();
                }
                Return => {
                    if let Some(t) = self.meta.result {
                        self.pop_expect(t, at)?;
                    }
                    self.set_unreachable();
                }
                Call(fi) => {
                    let ty = self.module.func_type(*fi)?.clone();
                    for &p in ty.params.iter().rev() {
                        self.pop_expect(p, at)?;
                    }
                    if let Some(r) = ty.result() {
                        self.push(r);
                    }
                }
                CallIndirect(type_idx) => {
                    if self.module.table.is_none() {
                        return Err(ValidateError::NoTable {
                            func: self.func,
                            at,
                        });
                    }
                    let ty = self
                        .module
                        .types
                        .get(*type_idx as usize)
                        .ok_or(crate::error::ModuleError::TypeIndex(*type_idx))?
                        .clone();
                    self.pop_expect(ValType::I32, at)?; // table index
                    for &p in ty.params.iter().rev() {
                        self.pop_expect(p, at)?;
                    }
                    if let Some(r) = ty.result() {
                        self.push(r);
                    }
                }

                Drop => {
                    self.pop_any(at)?;
                }
                Select => {
                    self.pop_expect(ValType::I32, at)?;
                    let b = self.pop_any(at)?;
                    let a = self.pop_any(at)?;
                    match (a, b) {
                        (Some(x), Some(y)) if x != y => {
                            return Err(ValidateError::TypeMismatch {
                                func: self.func,
                                at,
                                expected: x,
                                found: Some(y),
                            })
                        }
                        _ => {}
                    }
                    // Push the known type, or default to i32 in dead code.
                    self.push(a.or(b).unwrap_or(ValType::I32));
                }

                LocalGet(i) => {
                    let t = self.local_ty(*i, at)?;
                    self.push(t);
                }
                LocalSet(i) => {
                    let t = self.local_ty(*i, at)?;
                    self.pop_expect(t, at)?;
                }
                LocalTee(i) => {
                    let t = self.local_ty(*i, at)?;
                    self.pop_expect(t, at)?;
                    self.push(t);
                }
                GlobalGet(i) => {
                    let g = self
                        .module
                        .globals
                        .get(*i as usize)
                        .ok_or(crate::error::ModuleError::GlobalIndex(*i))?;
                    self.push(g.ty.content);
                }
                GlobalSet(i) => {
                    let g = *self
                        .module
                        .globals
                        .get(*i as usize)
                        .ok_or(crate::error::ModuleError::GlobalIndex(*i))?;
                    if g.ty.mutability != Mutability::Var {
                        return Err(ValidateError::ImmutableGlobal {
                            func: self.func,
                            global: *i,
                        });
                    }
                    self.pop_expect(g.ty.content, at)?;
                }

                MemorySize => {
                    self.check_mem(at)?;
                    self.push(ValType::I32);
                }
                MemoryGrow => {
                    self.check_mem(at)?;
                    self.pop_expect(ValType::I32, at)?;
                    self.push(ValType::I32);
                }

                I32Const(_) => self.push(ValType::I32),
                I64Const(_) => self.push(ValType::I64),
                F32Const(_) => self.push(ValType::F32),
                F64Const(_) => self.push(ValType::F64),

                _ => {
                    if let Some(acc) = instr.mem_access() {
                        self.check_mem(at)?;
                        if acc.is_store {
                            self.pop_expect(acc.ty, at)?;
                            self.pop_expect(ValType::I32, at)?;
                        } else {
                            self.pop_expect(ValType::I32, at)?;
                            self.push(acc.ty);
                        }
                    } else {
                        self.check_numeric(instr, at)?;
                    }
                }
            }
        }
        // scan_control guarantees the final End returns above.
        unreachable!("function body must end with End")
    }

    /// Check that a frame being closed ends with exactly its result types
    /// above its entry height. Called after the frame has been popped, so it
    /// validates against the closed frame itself, not the new top frame.
    fn close_frame(&mut self, fr: &Frame, at: usize) -> Result<(), ValidateError> {
        if fr.unreachable {
            // Polymorphic: anything goes; the caller truncates the stack.
            return Ok(());
        }
        let expected = fr.height + fr.bt.arity() as u32;
        if self.stack.len() as u32 != expected {
            return Err(ValidateError::BlockArity {
                func: self.func,
                at,
            });
        }
        if let Some(t) = fr.bt.result() {
            let found = *self.stack.last().expect("arity checked above");
            if found != t {
                return Err(ValidateError::TypeMismatch {
                    func: self.func,
                    at,
                    expected: t,
                    found: Some(found),
                });
            }
        }
        Ok(())
    }

    /// Type-check the pure numeric instructions (comparisons, arithmetic,
    /// conversions) from signature tables.
    fn check_numeric(&mut self, instr: &Instr, at: usize) -> Result<(), ValidateError> {
        use Instr::*;
        use ValType::*;
        // (pops, push)
        let (pops, push): (&[ValType], Option<ValType>) = match instr {
            I32Eqz => (&[I32], Some(I32)),
            I64Eqz => (&[I64], Some(I32)),
            I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS
            | I32GeU => (&[I32, I32], Some(I32)),
            I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS
            | I64GeU => (&[I64, I64], Some(I32)),
            F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge => (&[F32, F32], Some(I32)),
            F64Eq | F64Ne | F64Lt | F64Gt | F64Le | F64Ge => (&[F64, F64], Some(I32)),

            I32Clz | I32Ctz | I32Popcnt => (&[I32], Some(I32)),
            I64Clz | I64Ctz | I64Popcnt => (&[I64], Some(I64)),
            I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS | I32RemU | I32And | I32Or
            | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr => (&[I32, I32], Some(I32)),
            I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or
            | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr => (&[I64, I64], Some(I64)),

            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt => {
                (&[F32], Some(F32))
            }
            F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest | F64Sqrt => {
                (&[F64], Some(F64))
            }
            F32Add | F32Sub | F32Mul | F32Div | F32Min | F32Max | F32Copysign => {
                (&[F32, F32], Some(F32))
            }
            F64Add | F64Sub | F64Mul | F64Div | F64Min | F64Max | F64Copysign => {
                (&[F64, F64], Some(F64))
            }

            I32WrapI64 => (&[I64], Some(I32)),
            I32TruncF32S | I32TruncF32U => (&[F32], Some(I32)),
            I32TruncF64S | I32TruncF64U => (&[F64], Some(I32)),
            I64ExtendI32S | I64ExtendI32U => (&[I32], Some(I64)),
            I64TruncF32S | I64TruncF32U => (&[F32], Some(I64)),
            I64TruncF64S | I64TruncF64U => (&[F64], Some(I64)),
            F32ConvertI32S | F32ConvertI32U => (&[I32], Some(F32)),
            F32ConvertI64S | F32ConvertI64U => (&[I64], Some(F32)),
            F32DemoteF64 => (&[F64], Some(F32)),
            F64ConvertI32S | F64ConvertI32U => (&[I32], Some(F64)),
            F64ConvertI64S | F64ConvertI64U => (&[I64], Some(F64)),
            F64PromoteF32 => (&[F32], Some(F64)),
            I32ReinterpretF32 => (&[F32], Some(I32)),
            I64ReinterpretF64 => (&[F64], Some(I64)),
            F32ReinterpretI32 => (&[I32], Some(F32)),
            F64ReinterpretI64 => (&[I64], Some(F64)),

            other => unreachable!("non-numeric instruction {other:?} reached check_numeric"),
        };
        for &p in pops.iter().rev() {
            self.pop_expect(p, at)?;
        }
        if let Some(t) = push {
            self.push(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::FuncType;

    fn single_func(params: Vec<ValType>, results: Vec<ValType>, body: Vec<Instr>) -> Module {
        let mut m = Module::new();
        let t = m.intern_type(FuncType::new(params, results));
        m.functions
            .push(crate::module::Function::new(t, vec![], body));
        m
    }

    #[test]
    fn validates_simple_add() {
        use Instr::*;
        let m = single_func(
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
            vec![LocalGet(0), LocalGet(1), I32Add, End],
        );
        let meta = validate(&m).unwrap();
        assert_eq!(meta.funcs[0].max_stack, 2);
        assert_eq!(meta.funcs[0].result, Some(ValType::I32));
    }

    #[test]
    fn rejects_type_mismatch() {
        use Instr::*;
        let m = single_func(
            vec![ValType::I32],
            vec![ValType::I32],
            vec![LocalGet(0), F64Const(1.0), I32Add, End],
        );
        assert!(matches!(
            validate(&m),
            Err(ValidateError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_stack_underflow() {
        use Instr::*;
        let m = single_func(vec![], vec![], vec![I32Add, End]);
        assert!(matches!(
            validate(&m),
            Err(ValidateError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn rejects_unbalanced_control() {
        use Instr::*;
        let m = single_func(vec![], vec![], vec![Block(BlockType::Empty), End]);
        assert!(matches!(
            validate(&m),
            Err(ValidateError::UnbalancedControl { .. })
        ));
    }

    #[test]
    fn rejects_bad_branch_depth() {
        use Instr::*;
        let m = single_func(vec![], vec![], vec![Br(3), End]);
        assert!(matches!(
            validate(&m),
            Err(ValidateError::BadBranchDepth { .. })
        ));
    }

    #[test]
    fn loop_branch_goes_backwards() {
        use Instr::*;
        // loop { br_if 0 (i32.const 0) } end
        let m = single_func(
            vec![],
            vec![],
            vec![
                Loop(BlockType::Empty), // pc 0
                I32Const(0),            // pc 1
                BrIf(0),                // pc 2
                End,                    // pc 3
                End,                    // pc 4
            ],
        );
        let meta = validate(&m).unwrap();
        let f = &meta.funcs[0];
        let dest = f.branch_table[f.ctrl[2] as usize];
        assert_eq!(dest.dest_pc, 1); // just past the Loop opener
        assert_eq!(dest.keep, 0);
    }

    #[test]
    fn block_branch_goes_forward() {
        use Instr::*;
        // block { br 0 } end
        let m = single_func(
            vec![],
            vec![],
            vec![
                Block(BlockType::Empty), // pc 0
                Br(0),                   // pc 1
                End,                     // pc 2
                End,                     // pc 3
            ],
        );
        let meta = validate(&m).unwrap();
        let f = &meta.funcs[0];
        let dest = f.branch_table[f.ctrl[1] as usize];
        assert_eq!(dest.dest_pc, 3); // just past the block's End
    }

    #[test]
    fn branch_to_function_label_is_return() {
        use Instr::*;
        let m = single_func(vec![], vec![ValType::I32], vec![I32Const(7), Br(0), End]);
        let meta = validate(&m).unwrap();
        let f = &meta.funcs[0];
        let dest = f.branch_table[f.ctrl[1] as usize];
        assert_eq!(dest.dest_pc, 3); // past the final End
        assert_eq!(dest.keep, 1);
        assert_eq!(dest.target_height, 0);
    }

    #[test]
    fn if_without_else_needs_empty_type() {
        use Instr::*;
        let bad = single_func(
            vec![],
            vec![ValType::I32],
            vec![
                I32Const(1),
                If(BlockType::Value(ValType::I32)),
                I32Const(2),
                End,
                End,
            ],
        );
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn if_else_false_dest_resolved() {
        use Instr::*;
        // if (i32.const 1) { nop } else { nop } end
        let m = single_func(
            vec![],
            vec![],
            vec![
                I32Const(1),          // 0
                If(BlockType::Empty), // 1
                Nop,                  // 2
                Else,                 // 3
                Nop,                  // 4
                End,                  // 5
                End,                  // 6
            ],
        );
        let meta = validate(&m).unwrap();
        let f = &meta.funcs[0];
        assert_eq!(f.ctrl[1], 4); // false → first instr of else arm
        assert_eq!(f.ctrl[3], 6); // fallthrough at Else → past the End
    }

    #[test]
    fn rejects_immutable_global_set() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global(Mutability::Const, crate::value::Value::I32(1));
        let f = mb.begin_func("f", FuncType::new(vec![], vec![]));
        {
            let mut b = mb.func_mut(f);
            b.i32_const(3);
            b.emit(Instr::GlobalSet(g.0));
        }
        let m = mb.finish();
        assert!(matches!(
            validate(&m),
            Err(ValidateError::ImmutableGlobal { .. })
        ));
    }

    #[test]
    fn rejects_memory_ops_without_memory() {
        use Instr::*;
        let m = single_func(
            vec![],
            vec![],
            vec![
                I32Const(0),
                I32Load(crate::instr::MemArg::default()),
                Drop,
                End,
            ],
        );
        assert!(matches!(validate(&m), Err(ValidateError::NoMemory { .. })));
    }

    #[test]
    fn rejects_bad_data_segment() {
        let mut mb = ModuleBuilder::new();
        mb.memory(1, None);
        mb.data(PAGE_SIZE as u32 - 1, vec![0, 0]);
        let m = mb.finish();
        assert!(matches!(
            validate(&m),
            Err(ValidateError::BadDataSegment { .. })
        ));
    }

    #[test]
    fn validates_br_table() {
        use Instr::*;
        let m = single_func(
            vec![ValType::I32],
            vec![],
            vec![
                Block(BlockType::Empty), // 0
                Block(BlockType::Empty), // 1
                LocalGet(0),             // 2
                BrTable(Box::new(crate::instr::BrTable {
                    targets: vec![0, 1],
                    default: 1,
                })), // 3
                End,                     // 4
                End,                     // 5
                End,                     // 6
            ],
        );
        let meta = validate(&m).unwrap();
        let f = &meta.funcs[0];
        let base = f.ctrl[3] as usize;
        assert_eq!(f.branch_table[base].dest_pc, 5); // inner block end+1
        assert_eq!(f.branch_table[base + 1].dest_pc, 6); // outer block end+1
        assert_eq!(f.branch_table[base + 2].dest_pc, 6); // default = depth 1
    }

    #[test]
    fn unreachable_code_is_polymorphic() {
        use Instr::*;
        // After `unreachable`, bogus-but-balanced code must validate.
        let m = single_func(vec![], vec![ValType::I32], vec![Unreachable, I32Add, End]);
        validate(&m).unwrap();
    }

    #[test]
    fn select_requires_matching_types() {
        use Instr::*;
        let m = single_func(
            vec![],
            vec![],
            vec![I32Const(1), F64Const(2.0), I32Const(0), Select, Drop, End],
        );
        assert!(matches!(
            validate(&m),
            Err(ValidateError::TypeMismatch { .. })
        ));
    }
}
