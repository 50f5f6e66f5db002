//! The interpreter's execution loop.
//!
//! A classic in-place interpreter in the spirit of Wasm3 (the paper's
//! interpreter runtime): a single untyped `u64` value stack shared by all
//! frames (locals live at each frame's base), an explicit call-frame stack
//! (wasm recursion never consumes host stack), flat dispatch over the
//! validated instruction sequence, and branch resolution through the
//! validator's precomputed side tables — no runtime label stack.

use lb_core::exec::{HostCtx, HostFn};
use lb_core::{LinearMemory, Trap, TrapKind};
use lb_wasm::instr::Instr;
use lb_wasm::numeric::{self, NumError};
use lb_wasm::validate::FuncMeta;
use lb_wasm::{Module, ValType, Value};

/// Maximum wasm call depth (the paper counts stack-overflow checks among
/// wasm's safety mechanisms). Frames are heap-allocated, so this bounds
/// wasm resources, not the host stack.
pub const MAX_CALL_DEPTH: usize = 16_384;

pub(crate) struct Exec<'a> {
    pub module: &'a Module,
    pub metas: &'a [FuncMeta],
    pub mem: Option<&'a LinearMemory>,
    pub globals: &'a mut Vec<u64>,
    pub table: &'a [Option<u32>],
    pub host: &'a [HostFn],
    pub stack: &'a mut Vec<u64>,
    /// When set, dynamic instruction counts are recorded per cost class
    /// (used by the ISA cost model).
    pub counts: Option<&'a mut lb_wasm::instr::OpCounts>,
}

fn num_trap(e: NumError) -> Trap {
    match e {
        NumError::DivByZero => Trap::new(TrapKind::IntegerDivByZero),
        NumError::Overflow => Trap::new(TrapKind::IntegerOverflow),
        NumError::InvalidConversion => Trap::new(TrapKind::InvalidConversion),
    }
}

/// A suspended caller: which function, where to resume, and its frame base.
#[derive(Debug, Clone, Copy)]
struct CallFrame {
    di: usize,
    pc: usize,
    locals_base: usize,
}

impl Exec<'_> {
    #[inline]
    fn push(&mut self, v: u64) {
        self.stack.push(v);
    }

    #[inline]
    fn pop(&mut self) -> u64 {
        // Validation guarantees the stack never underflows.
        self.stack.pop().expect("validated stack")
    }

    #[inline]
    fn push_i32(&mut self, v: i32) {
        self.push(v as u32 as u64);
    }

    #[inline]
    fn push_u32(&mut self, v: u32) {
        self.push(u64::from(v));
    }

    #[inline]
    fn push_i64(&mut self, v: i64) {
        self.push(v as u64);
    }

    #[inline]
    fn push_f32(&mut self, v: f32) {
        self.push(u64::from(v.to_bits()));
    }

    #[inline]
    fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }

    #[inline]
    fn push_bool(&mut self, v: bool) {
        self.push(u64::from(v));
    }

    #[inline]
    fn pop_i32(&mut self) -> i32 {
        self.pop() as u32 as i32
    }

    #[inline]
    fn pop_u32(&mut self) -> u32 {
        self.pop() as u32
    }

    #[inline]
    fn pop_i64(&mut self) -> i64 {
        self.pop() as i64
    }

    #[inline]
    fn pop_u64(&mut self) -> u64 {
        self.pop()
    }

    #[inline]
    fn pop_f32(&mut self) -> f32 {
        f32::from_bits(self.pop() as u32)
    }

    #[inline]
    fn pop_f64(&mut self) -> f64 {
        f64::from_bits(self.pop())
    }

    #[inline]
    fn mem(&self) -> &LinearMemory {
        self.mem
            .expect("memory instruction validated against module")
    }

    /// Invoke the function at `func_idx` (imports included); its arguments
    /// must already be on the stack, and its result (if any) is left there.
    pub fn call_function(&mut self, func_idx: u32) -> Result<(), Trap> {
        let ni = self.module.num_imported_funcs();
        if func_idx < ni {
            self.call_host(func_idx)
        } else {
            self.run((func_idx - ni) as usize)
        }
    }

    fn call_host(&mut self, import_idx: u32) -> Result<(), Trap> {
        let ty = self
            .module
            .func_type(import_idx)
            .expect("validated import")
            .clone();
        let n = ty.params.len();
        let base = self.stack.len() - n;
        let mut args = [Value::I32(0); 16];
        assert!(n <= 16, "host functions limited to 16 parameters");
        for (i, &p) in ty.params.iter().enumerate() {
            args[i] = Value::from_bits(p, self.stack[base + i]);
        }
        self.stack.truncate(base);
        let f = self.host[import_idx as usize].clone();
        let mut ctx = HostCtx { memory: self.mem };
        let r = f(&mut ctx, &args[..n])?;
        match (r, ty.result()) {
            (Some(v), Some(t)) if v.ty() == t => self.push(v.to_bits()),
            (None, None) => {}
            _ => {
                return Err(Trap::new(TrapKind::Host(
                    "host function returned wrong type".into(),
                )))
            }
        }
        Ok(())
    }

    /// Set up the frame for defined function `di`: arguments are already on
    /// the stack; extra locals are zeroed. Returns the locals base.
    fn enter(&mut self, di: usize) -> usize {
        let meta = &self.metas[di];
        let locals_base = self.stack.len() - meta.n_params as usize;
        self.stack.resize(locals_base + meta.local_types.len(), 0);
        self.stack.reserve(meta.max_stack as usize + 8);
        locals_base
    }

    /// Run defined function `di` iteratively (wasm calls push heap frames).
    #[allow(clippy::too_many_lines)]
    fn run(&mut self, entry: usize) -> Result<(), Trap> {
        let module = self.module;
        let metas = self.metas;
        let mut frames: Vec<CallFrame> = Vec::with_capacity(64);
        let mut di = entry;
        let mut pc: usize = 0;
        let mut locals_base = self.enter(di);

        'frame: loop {
            let body: &[Instr] = &module.functions[di].body;
            let meta = &metas[di];
            let ctrl: &[u32] = &meta.ctrl;
            let branches = &meta.branch_table;
            let operand_base = locals_base + meta.local_types.len();

            macro_rules! binop {
                ($pop:ident, $push:ident, $op:expr) => {{
                    let b = self.$pop();
                    let a = self.$pop();
                    self.$push($op(a, b));
                }};
            }
            macro_rules! binop_trap {
                ($pop:ident, $push:ident, $op:expr) => {{
                    let b = self.$pop();
                    let a = self.$pop();
                    match $op(a, b) {
                        Ok(v) => self.$push(v),
                        Err(e) => return Err(num_trap(e)),
                    }
                }};
            }
            macro_rules! unop {
                ($pop:ident, $push:ident, $op:expr) => {{
                    let a = self.$pop();
                    self.$push($op(a));
                }};
            }
            macro_rules! cmp {
                ($pop:ident, $op:expr) => {{
                    let b = self.$pop();
                    let a = self.$pop();
                    self.push_bool($op(a, b));
                }};
            }
            macro_rules! load {
                ($m:expr, $t:ty, $push:ident, $conv:expr) => {{
                    let addr = self.pop_u32();
                    let v = self.mem().load::<$t>(addr, $m.offset)?;
                    self.$push($conv(v))
                }};
            }
            macro_rules! store {
                ($m:expr, $t:ty, $pop:ident, $conv:expr) => {{
                    let v = self.$pop();
                    let addr = self.pop_u32();
                    self.mem().store::<$t>(addr, $m.offset, $conv(v))?;
                }};
            }
            macro_rules! branch_to {
                ($dest:expr) => {{
                    let d = $dest;
                    let target = operand_base + d.target_height as usize;
                    if d.keep == 1 {
                        let v = self.pop();
                        self.stack.truncate(target);
                        self.push(v);
                    } else {
                        self.stack.truncate(target);
                    }
                    pc = d.dest_pc as usize;
                }};
            }
            /// Move the result over the locals and pop back to the caller
            /// (or finish if this was the entry frame).
            macro_rules! leave {
                () => {{
                    if meta.result.is_some() {
                        let v = self.pop();
                        self.stack.truncate(locals_base);
                        self.push(v);
                    } else {
                        self.stack.truncate(locals_base);
                    }
                    match frames.pop() {
                        Some(fr) => {
                            di = fr.di;
                            pc = fr.pc;
                            locals_base = fr.locals_base;
                            continue 'frame;
                        }
                        None => return Ok(()),
                    }
                }};
            }
            macro_rules! invoke {
                ($fi:expr) => {{
                    let fi = $fi;
                    let ni = module.num_imported_funcs();
                    if fi < ni {
                        self.call_host(fi)?;
                    } else {
                        if frames.len() >= MAX_CALL_DEPTH {
                            return Err(Trap::new(TrapKind::StackOverflow));
                        }
                        frames.push(CallFrame {
                            di,
                            pc,
                            locals_base,
                        });
                        di = (fi - ni) as usize;
                        locals_base = self.enter(di);
                        pc = 0;
                        continue 'frame;
                    }
                }};
            }

            while pc < body.len() {
                let instr = &body[pc];
                pc += 1;
                if let Some(c) = self.counts.as_deref_mut() {
                    c.bump(instr.cost_class());
                }
                match instr {
                    Instr::Unreachable => {
                        return Err(Trap::new(TrapKind::Unreachable));
                    }
                    Instr::Nop | Instr::Block(_) | Instr::Loop(_) | Instr::End => {}
                    Instr::If(_) => {
                        let c = self.pop_u32();
                        if c == 0 {
                            pc = ctrl[pc - 1] as usize;
                        }
                    }
                    Instr::Else => {
                        pc = ctrl[pc - 1] as usize;
                    }
                    Instr::Br(_) => branch_to!(branches[ctrl[pc - 1] as usize]),
                    Instr::BrIf(_) => {
                        let c = self.pop_u32();
                        if c != 0 {
                            branch_to!(branches[ctrl[pc - 1] as usize]);
                        }
                    }
                    Instr::BrTable(t) => {
                        let sel = self.pop_u32() as usize;
                        let base = ctrl[pc - 1] as usize;
                        let idx = sel.min(t.targets.len());
                        branch_to!(branches[base + idx]);
                    }
                    Instr::Return => leave!(),
                    Instr::Call(fi) => invoke!(*fi),
                    Instr::CallIndirect(type_idx) => {
                        let sel = self.pop_u32() as usize;
                        let Some(entry) = self.table.get(sel) else {
                            return Err(Trap::new(TrapKind::TableOutOfBounds));
                        };
                        let Some(fi) = *entry else {
                            return Err(Trap::new(TrapKind::UninitializedElement));
                        };
                        let want = &module.types[*type_idx as usize];
                        let got = module.func_type(fi).expect("validated elem");
                        if want != got {
                            return Err(Trap::new(TrapKind::IndirectCallTypeMismatch));
                        }
                        invoke!(fi);
                    }
                    Instr::Drop => {
                        self.pop();
                    }
                    Instr::Select => {
                        let c = self.pop_u32();
                        let b = self.pop();
                        let a = self.pop();
                        self.push(if c != 0 { a } else { b });
                    }
                    Instr::LocalGet(i) => {
                        let v = self.stack[locals_base + *i as usize];
                        self.push(v);
                    }
                    Instr::LocalSet(i) => {
                        let v = self.pop();
                        self.stack[locals_base + *i as usize] = v;
                    }
                    Instr::LocalTee(i) => {
                        let v = *self.stack.last().expect("validated");
                        self.stack[locals_base + *i as usize] = v;
                    }
                    Instr::GlobalGet(i) => {
                        let v = self.globals[*i as usize];
                        self.push(v);
                    }
                    Instr::GlobalSet(i) => {
                        let v = self.pop();
                        self.globals[*i as usize] = v;
                    }

                    Instr::I32Load(m) => load!(m, u32, push_u32, |v| v),
                    Instr::I64Load(m) => load!(m, u64, push, |v| v),
                    Instr::F32Load(m) => load!(m, f32, push_f32, |v| v),
                    Instr::F64Load(m) => load!(m, f64, push_f64, |v| v),
                    Instr::I32Load8S(m) => load!(m, i8, push_i32, |v| v as i32),
                    Instr::I32Load8U(m) => load!(m, u8, push_u32, u32::from),
                    Instr::I32Load16S(m) => load!(m, i16, push_i32, |v| v as i32),
                    Instr::I32Load16U(m) => load!(m, u16, push_u32, u32::from),
                    Instr::I64Load8S(m) => load!(m, i8, push_i64, |v| v as i64),
                    Instr::I64Load8U(m) => load!(m, u8, push, u64::from),
                    Instr::I64Load16S(m) => load!(m, i16, push_i64, |v| v as i64),
                    Instr::I64Load16U(m) => load!(m, u16, push, u64::from),
                    Instr::I64Load32S(m) => load!(m, i32, push_i64, |v| v as i64),
                    Instr::I64Load32U(m) => load!(m, u32, push, u64::from),
                    Instr::I32Store(m) => store!(m, u32, pop_u32, |v| v),
                    Instr::I64Store(m) => store!(m, u64, pop_u64, |v| v),
                    Instr::F32Store(m) => store!(m, f32, pop_f32, |v| v),
                    Instr::F64Store(m) => store!(m, f64, pop_f64, |v| v),
                    Instr::I32Store8(m) => store!(m, u8, pop_u32, |v| v as u8),
                    Instr::I32Store16(m) => store!(m, u16, pop_u32, |v| v as u16),
                    Instr::I64Store8(m) => store!(m, u8, pop_u64, |v| v as u8),
                    Instr::I64Store16(m) => store!(m, u16, pop_u64, |v| v as u16),
                    Instr::I64Store32(m) => store!(m, u32, pop_u64, |v| v as u32),
                    Instr::MemorySize => {
                        let p = self.mem().size_pages();
                        self.push_u32(p);
                    }
                    Instr::MemoryGrow => {
                        let delta = self.pop_u32();
                        let r = self.mem().grow(delta);
                        self.push_i32(r.map(|p| p as i32).unwrap_or(-1));
                    }

                    Instr::I32Const(v) => self.push_i32(*v),
                    Instr::I64Const(v) => self.push_i64(*v),
                    Instr::F32Const(v) => self.push_f32(*v),
                    Instr::F64Const(v) => self.push_f64(*v),

                    Instr::I32Eqz => unop!(pop_u32, push_bool, |a| a == 0),
                    Instr::I32Eq => cmp!(pop_u32, |a, b| a == b),
                    Instr::I32Ne => cmp!(pop_u32, |a, b| a != b),
                    Instr::I32LtS => cmp!(pop_i32, |a, b| a < b),
                    Instr::I32LtU => cmp!(pop_u32, |a, b| a < b),
                    Instr::I32GtS => cmp!(pop_i32, |a, b| a > b),
                    Instr::I32GtU => cmp!(pop_u32, |a, b| a > b),
                    Instr::I32LeS => cmp!(pop_i32, |a, b| a <= b),
                    Instr::I32LeU => cmp!(pop_u32, |a, b| a <= b),
                    Instr::I32GeS => cmp!(pop_i32, |a, b| a >= b),
                    Instr::I32GeU => cmp!(pop_u32, |a, b| a >= b),
                    Instr::I64Eqz => unop!(pop_u64, push_bool, |a| a == 0),
                    Instr::I64Eq => cmp!(pop_u64, |a, b| a == b),
                    Instr::I64Ne => cmp!(pop_u64, |a, b| a != b),
                    Instr::I64LtS => cmp!(pop_i64, |a, b| a < b),
                    Instr::I64LtU => cmp!(pop_u64, |a, b| a < b),
                    Instr::I64GtS => cmp!(pop_i64, |a, b| a > b),
                    Instr::I64GtU => cmp!(pop_u64, |a, b| a > b),
                    Instr::I64LeS => cmp!(pop_i64, |a, b| a <= b),
                    Instr::I64LeU => cmp!(pop_u64, |a, b| a <= b),
                    Instr::I64GeS => cmp!(pop_i64, |a, b| a >= b),
                    Instr::I64GeU => cmp!(pop_u64, |a, b| a >= b),
                    Instr::F32Eq => cmp!(pop_f32, |a, b| a == b),
                    Instr::F32Ne => cmp!(pop_f32, |a, b| a != b),
                    Instr::F32Lt => cmp!(pop_f32, |a, b| a < b),
                    Instr::F32Gt => cmp!(pop_f32, |a, b| a > b),
                    Instr::F32Le => cmp!(pop_f32, |a, b| a <= b),
                    Instr::F32Ge => cmp!(pop_f32, |a, b| a >= b),
                    Instr::F64Eq => cmp!(pop_f64, |a, b| a == b),
                    Instr::F64Ne => cmp!(pop_f64, |a, b| a != b),
                    Instr::F64Lt => cmp!(pop_f64, |a, b| a < b),
                    Instr::F64Gt => cmp!(pop_f64, |a, b| a > b),
                    Instr::F64Le => cmp!(pop_f64, |a, b| a <= b),
                    Instr::F64Ge => cmp!(pop_f64, |a, b| a >= b),

                    Instr::I32Clz => unop!(pop_u32, push_u32, |a: u32| a.leading_zeros()),
                    Instr::I32Ctz => unop!(pop_u32, push_u32, |a: u32| a.trailing_zeros()),
                    Instr::I32Popcnt => unop!(pop_u32, push_u32, |a: u32| a.count_ones()),
                    Instr::I32Add => binop!(pop_u32, push_u32, u32::wrapping_add),
                    Instr::I32Sub => binop!(pop_u32, push_u32, u32::wrapping_sub),
                    Instr::I32Mul => binop!(pop_u32, push_u32, u32::wrapping_mul),
                    Instr::I32DivS => binop_trap!(pop_i32, push_i32, numeric::i32_div_s),
                    Instr::I32DivU => binop_trap!(pop_u32, push_u32, numeric::udiv),
                    Instr::I32RemS => binop_trap!(pop_i32, push_i32, numeric::i32_rem_s),
                    Instr::I32RemU => binop_trap!(pop_u32, push_u32, numeric::urem),
                    Instr::I32And => binop!(pop_u32, push_u32, |a, b| a & b),
                    Instr::I32Or => binop!(pop_u32, push_u32, |a, b| a | b),
                    Instr::I32Xor => binop!(pop_u32, push_u32, |a, b| a ^ b),
                    Instr::I32Shl => binop!(pop_u32, push_u32, |a: u32, b: u32| a << (b & 31)),
                    Instr::I32ShrS => {
                        binop!(pop_u32, push_i32, |a: u32, b: u32| (a as i32) >> (b & 31))
                    }
                    Instr::I32ShrU => binop!(pop_u32, push_u32, |a: u32, b: u32| a >> (b & 31)),
                    Instr::I32Rotl => {
                        binop!(pop_u32, push_u32, |a: u32, b: u32| a.rotate_left(b & 31))
                    }
                    Instr::I32Rotr => {
                        binop!(pop_u32, push_u32, |a: u32, b: u32| a.rotate_right(b & 31))
                    }
                    Instr::I64Clz => unop!(pop_u64, push, |a: u64| u64::from(a.leading_zeros())),
                    Instr::I64Ctz => unop!(pop_u64, push, |a: u64| u64::from(a.trailing_zeros())),
                    Instr::I64Popcnt => unop!(pop_u64, push, |a: u64| u64::from(a.count_ones())),
                    Instr::I64Add => binop!(pop_u64, push, u64::wrapping_add),
                    Instr::I64Sub => binop!(pop_u64, push, u64::wrapping_sub),
                    Instr::I64Mul => binop!(pop_u64, push, u64::wrapping_mul),
                    Instr::I64DivS => binop_trap!(pop_i64, push_i64, numeric::i64_div_s),
                    Instr::I64DivU => binop_trap!(pop_u64, push, numeric::udiv),
                    Instr::I64RemS => binop_trap!(pop_i64, push_i64, numeric::i64_rem_s),
                    Instr::I64RemU => binop_trap!(pop_u64, push, numeric::urem),
                    Instr::I64And => binop!(pop_u64, push, |a, b| a & b),
                    Instr::I64Or => binop!(pop_u64, push, |a, b| a | b),
                    Instr::I64Xor => binop!(pop_u64, push, |a, b| a ^ b),
                    Instr::I64Shl => binop!(pop_u64, push, |a: u64, b: u64| a << (b & 63)),
                    Instr::I64ShrS => {
                        binop!(pop_u64, push_i64, |a: u64, b: u64| (a as i64) >> (b & 63))
                    }
                    Instr::I64ShrU => binop!(pop_u64, push, |a: u64, b: u64| a >> (b & 63)),
                    Instr::I64Rotl => {
                        binop!(pop_u64, push, |a: u64, b: u64| a
                            .rotate_left((b & 63) as u32))
                    }
                    Instr::I64Rotr => {
                        binop!(pop_u64, push, |a: u64, b: u64| a
                            .rotate_right((b & 63) as u32))
                    }

                    Instr::F32Abs => unop!(pop_f32, push_f32, f32::abs),
                    Instr::F32Neg => unop!(pop_f32, push_f32, |a: f32| -a),
                    Instr::F32Ceil => unop!(pop_f32, push_f32, f32::ceil),
                    Instr::F32Floor => unop!(pop_f32, push_f32, f32::floor),
                    Instr::F32Trunc => unop!(pop_f32, push_f32, f32::trunc),
                    Instr::F32Nearest => unop!(pop_f32, push_f32, f32::round_ties_even),
                    Instr::F32Sqrt => unop!(pop_f32, push_f32, f32::sqrt),
                    Instr::F32Add => binop!(pop_f32, push_f32, |a, b| a + b),
                    Instr::F32Sub => binop!(pop_f32, push_f32, |a, b| a - b),
                    Instr::F32Mul => binop!(pop_f32, push_f32, |a, b| a * b),
                    Instr::F32Div => binop!(pop_f32, push_f32, |a, b| a / b),
                    Instr::F32Min => binop!(pop_f32, push_f32, numeric::wasm_fmin),
                    Instr::F32Max => binop!(pop_f32, push_f32, numeric::wasm_fmax),
                    Instr::F32Copysign => binop!(pop_f32, push_f32, f32::copysign),
                    Instr::F64Abs => unop!(pop_f64, push_f64, f64::abs),
                    Instr::F64Neg => unop!(pop_f64, push_f64, |a: f64| -a),
                    Instr::F64Ceil => unop!(pop_f64, push_f64, f64::ceil),
                    Instr::F64Floor => unop!(pop_f64, push_f64, f64::floor),
                    Instr::F64Trunc => unop!(pop_f64, push_f64, f64::trunc),
                    Instr::F64Nearest => unop!(pop_f64, push_f64, f64::round_ties_even),
                    Instr::F64Sqrt => unop!(pop_f64, push_f64, f64::sqrt),
                    Instr::F64Add => binop!(pop_f64, push_f64, |a, b| a + b),
                    Instr::F64Sub => binop!(pop_f64, push_f64, |a, b| a - b),
                    Instr::F64Mul => binop!(pop_f64, push_f64, |a, b| a * b),
                    Instr::F64Div => binop!(pop_f64, push_f64, |a, b| a / b),
                    Instr::F64Min => binop!(pop_f64, push_f64, numeric::wasm_fmin),
                    Instr::F64Max => binop!(pop_f64, push_f64, numeric::wasm_fmax),
                    Instr::F64Copysign => binop!(pop_f64, push_f64, f64::copysign),

                    Instr::I32WrapI64 => unop!(pop_u64, push_u32, |a| a as u32),
                    Instr::I32TruncF32S => {
                        let v = self.pop_f32();
                        match numeric::trunc_f_to_i32_s(f64::from(v)) {
                            Ok(x) => self.push_i32(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::I32TruncF32U => {
                        let v = self.pop_f32();
                        match numeric::trunc_f_to_i32_u(f64::from(v)) {
                            Ok(x) => self.push_u32(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::I32TruncF64S => {
                        let v = self.pop_f64();
                        match numeric::trunc_f_to_i32_s(v) {
                            Ok(x) => self.push_i32(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::I32TruncF64U => {
                        let v = self.pop_f64();
                        match numeric::trunc_f_to_i32_u(v) {
                            Ok(x) => self.push_u32(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::I64ExtendI32S => unop!(pop_i32, push_i64, i64::from),
                    Instr::I64ExtendI32U => unop!(pop_u32, push, u64::from),
                    Instr::I64TruncF32S => {
                        let v = self.pop_f32();
                        match numeric::trunc_f_to_i64_s(f64::from(v)) {
                            Ok(x) => self.push_i64(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::I64TruncF32U => {
                        let v = self.pop_f32();
                        match numeric::trunc_f_to_i64_u(f64::from(v)) {
                            Ok(x) => self.push(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::I64TruncF64S => {
                        let v = self.pop_f64();
                        match numeric::trunc_f_to_i64_s(v) {
                            Ok(x) => self.push_i64(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::I64TruncF64U => {
                        let v = self.pop_f64();
                        match numeric::trunc_f_to_i64_u(v) {
                            Ok(x) => self.push(x),
                            Err(e) => return Err(num_trap(e)),
                        }
                    }
                    Instr::F32ConvertI32S => unop!(pop_i32, push_f32, |a| a as f32),
                    Instr::F32ConvertI32U => unop!(pop_u32, push_f32, |a| a as f32),
                    Instr::F32ConvertI64S => unop!(pop_i64, push_f32, |a| a as f32),
                    Instr::F32ConvertI64U => unop!(pop_u64, push_f32, |a| a as f32),
                    Instr::F32DemoteF64 => unop!(pop_f64, push_f32, |a| a as f32),
                    Instr::F64ConvertI32S => unop!(pop_i32, push_f64, f64::from),
                    Instr::F64ConvertI32U => unop!(pop_u32, push_f64, f64::from),
                    Instr::F64ConvertI64S => unop!(pop_i64, push_f64, |a| a as f64),
                    Instr::F64ConvertI64U => unop!(pop_u64, push_f64, |a| a as f64),
                    Instr::F64PromoteF32 => unop!(pop_f32, push_f64, f64::from),
                    Instr::I32ReinterpretF32
                    | Instr::I64ReinterpretF64
                    | Instr::F32ReinterpretI32
                    | Instr::F64ReinterpretI64 => {}
                }
            }

            // Natural function exit.
            leave!();
        }
    }
}

/// Check argument values against a signature.
pub(crate) fn check_args(params: &[ValType], args: &[Value]) -> Result<(), Trap> {
    if params.len() != args.len() {
        return Err(Trap::new(TrapKind::Host(format!(
            "expected {} arguments, got {}",
            params.len(),
            args.len()
        ))));
    }
    for (p, a) in params.iter().zip(args) {
        if a.ty() != *p {
            return Err(Trap::new(TrapKind::Host(format!(
                "argument type mismatch: expected {p}, got {}",
                a.ty()
            ))));
        }
    }
    Ok(())
}
