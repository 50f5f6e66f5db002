//! The baseline code generator: one pass over validated wasm, Liftoff-style.
//!
//! Values live on an *abstract stack* whose entries are either pinned to
//! their canonical frame slot, held in a register, or known constants. At
//! every control-flow boundary the stack is flushed to its canonical slots,
//! so label targets have a single well-known layout. Within straight-line
//! code, operands stay in registers.
//!
//! At `Basic` and `Full` the abstract stack also drives instruction
//! selection, with no IR: a constant right operand becomes an immediate
//! (`add r, imm`, `imul r, r, imm`, `shl r, imm`), an integer compare whose
//! only consumer is the next `br_if`/`if` stays in the flags (`cmp; jcc`),
//! and at `Full` `local.get L; const c; add|sub; local.set|tee L` on a
//! pinned local becomes `add r, c`. `None` emits what it always did.
//!
//! Register conventions (callee-saved pins set up by the entry trampoline):
//!
//! * `r15` — the [`crate::runtime::VmCtx`] pointer
//! * `r14` — linear-memory base
//! * `r11`, `xmm14/15` — scratch, never allocated
//! * `rax rcx rdx rsi rdi r8 r9 r10` and `xmm0‑xmm13` — allocation pools
//!
//! Bounds-checking strategies lower exactly as the paper describes (§3.1):
//! *none/mprotect/uffd* emit the raw access against the 8 GiB reservation;
//! *trap* emits `lea`+`cmp`+`ja` to a `ud2` stub (at `Full` with
//! [`CompileParams::guardopt`], one `cmp` against the module limit table
//! plus `jae`); *clamp* emits `lea`+`cmp`+`cmova` against the memory end.
//! Which accesses get a check at all is the `lb-analysis` plan's call.

use crate::asm::Xmm;
use crate::asm::{Asm, Cc, Label, Mem, Reg, W};
use crate::runtime::{self, ctx_off};
use lb_core::{BoundsStrategy, TrapKind};
use lb_wasm::instr::Instr;
use lb_wasm::validate::FuncMeta;
use lb_wasm::{Module, ValType, Value};

/// Code-quality tiers, mapping to the paper's engine profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Baseline tier (V8 before tier-up): the abstract stack is flushed
    /// after every instruction — values never stay in registers.
    None,
    /// Register abstract stack with constant folding, immediate operands
    /// and compare-and-branch in flags (the Wasmtime-profile default).
    Basic,
    /// `Basic` plus callee-saved register pinning of the first integer
    /// locals (updated in place by `+`/`-` constants) and, under trap with
    /// [`CompileParams::guardopt`], fused guards (the WAVM/LLVM-profile
    /// stand-in).
    Full,
}

/// Everything compilation needs besides the function itself.
#[derive(Debug, Clone, Copy)]
pub struct CompileParams<'a> {
    /// The module being compiled.
    pub module: &'a Module,
    /// Validation metadata for all defined functions.
    pub metas: &'a [FuncMeta],
    /// The bounds-checking strategy to emit.
    pub strategy: BoundsStrategy,
    /// Optimization tier.
    pub opt: OptLevel,
    /// Emit safepoint polls at loop back-edges (V8 profile).
    pub safepoints: bool,
    /// Address of function-pointer table entry 0.
    pub funcptrs_base: usize,
    /// Module-level bounds-check plan from `lb-analysis`, the sole owner
    /// of every elide/dead decision. `None` emits every check.
    pub plans: Option<&'a lb_analysis::ModulePlan>,
    /// Emit a trap check whose extent has a slot in `limit_extents` as
    /// one fused compare against the module limit table instead of the
    /// `lea`/`cmp`/`ja` triple. Consulted at `Full` under trap only; it
    /// changes the shape of an emitted check, never whether one is
    /// emitted.
    pub guardopt: bool,
    /// The module's fused-guard extent table
    /// ([`crate::dataflow::module_extents`]); the runtime programs the
    /// same table into `VmCtx::limit_extents`. Empty disables fusion.
    pub limit_extents: &'a [u64],
}

/// Telemetry counters for bounds-check decisions, cached because counter
/// registration takes a lock and these sites run once per compiled access.
struct CheckCounters {
    elided: lb_telemetry::Counter,
    emitted: lb_telemetry::Counter,
    static_oob: lb_telemetry::Counter,
    fused: lb_telemetry::Counter,
}

fn check_counters() -> &'static CheckCounters {
    static C: std::sync::OnceLock<CheckCounters> = std::sync::OnceLock::new();
    C.get_or_init(|| CheckCounters {
        elided: lb_telemetry::counter("jit.checks.static_elided"),
        emitted: lb_telemetry::counter("jit.checks.emitted"),
        static_oob: lb_telemetry::counter("jit.checks.static_oob"),
        fused: lb_telemetry::counter("jit.checks.fused"),
    })
}

const INT_POOL: [Reg; 8] = [
    Reg::RAX,
    Reg::RCX,
    Reg::RDX,
    Reg::RSI,
    Reg::RDI,
    Reg::R8,
    Reg::R9,
    Reg::R10,
];
const SCRATCH: Reg = Reg::R11;
const FSCRATCH: Xmm = Xmm(15);
const F_POOL_N: u8 = 14; // xmm0..xmm13

const INT_ARGS: [Reg; 6] = [Reg::RDI, Reg::RSI, Reg::RDX, Reg::RCX, Reg::R8, Reg::R9];

#[derive(Debug, Clone, Copy, PartialEq)]
enum AVal {
    /// Value lives in its canonical frame slot (slot index == position).
    Slot,
    /// Value in an integer register (i32 values keep the upper half zero;
    /// float values may live here bit-identically after `select`).
    I(Reg),
    /// Value in an SSE register.
    F(Xmm),
    /// Known constant.
    C(Value),
    /// Alias of a local pinned in a callee-saved register (`Full` opt).
    /// The register is never owned by the pool; consumers copy out of it,
    /// and `local.set` snapshots live aliases first.
    P(Reg),
}

/// Callee-saved registers available for local pinning (WAVM profile), in
/// assignment order.
pub const PIN_REGS: [Reg; 3] = [Reg::RBX, Reg::R12, Reg::R13];

struct Gen<'a> {
    a: Asm,
    p: CompileParams<'a>,
    fmeta: &'a FuncMeta,
    body: &'a [Instr],
    /// Plan for this function, when module analysis ran.
    plan: Option<&'a lb_analysis::FuncPlan>,
    /// Program counter of the instruction currently being lowered (indexes
    /// into the plan).
    cur_pc: usize,
    n_locals: usize,
    local_types: &'a [ValType],
    stack: Vec<AVal>,
    free_i: Vec<Reg>,
    free_f: Vec<Xmm>,
    /// Branch-target label per pc (`None` where no branch lands).
    labels: Vec<Option<Label>>,
    /// Whether a loop header (the pc after a `Loop`) starts at each pc.
    loop_headers: Vec<bool>,
    trap_labels: [Option<Label>; 12],
    end_label: Label,
    end_label_used: bool,
    dead: bool,
    depth: i32,
    /// Callee-saved register per local, for the locals pinned at `Full`.
    pinned: Vec<Option<Reg>>,
    /// Number of pinned (saved) registers, in PIN_REGS order.
    n_pinned: usize,
    /// `(code_offset, wasm_pc)` per lowered instruction — the
    /// wasm-offset side table the profiler resolves samples through.
    pc_map: Vec<(u32, u32)>,
    /// A compare lowered straight into the flags for the `br_if`/`if` at
    /// the next pc: the condition under which it is true. The stack was
    /// spilled before the compare, so nothing is emitted between the
    /// compare and the branch's `jcc`.
    flags_cc: Option<Cc>,
}

/// Integer ALU operations with a register–immediate form.
#[derive(Debug, Clone, Copy)]
enum Alu {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
}

/// Shifts and rotates.
#[derive(Debug, Clone, Copy)]
enum Shift {
    Shl,
    ShrS,
    ShrU,
    Rotl,
    Rotr,
}

fn full_pools() -> (Vec<Reg>, Vec<Xmm>) {
    (
        INT_POOL.to_vec(),
        (0..F_POOL_N).map(Xmm).collect::<Vec<_>>(),
    )
}

/// Compile one defined function to machine code (self-contained except for
/// absolute helper/funcptr addresses embedded as immediates).
pub fn compile_function(p: CompileParams<'_>, defined_idx: usize) -> Vec<u8> {
    compile_function_mapped(p, defined_idx).0
}

/// [`compile_function`], additionally returning the `(code_offset,
/// wasm_pc)` side table recorded while lowering. Offsets are relative to
/// the function start; entries are sorted by code offset (the walk is
/// front-to-back) and one entry is recorded per wasm instruction, so
/// consecutive entries may share an offset when lowering emitted nothing
/// (dead code, stack-only bookkeeping).
pub fn compile_function_mapped(
    p: CompileParams<'_>,
    defined_idx: usize,
) -> (Vec<u8>, Vec<(u32, u32)>) {
    let func = &p.module.functions[defined_idx];
    let fmeta = &p.metas[defined_idx];
    let plan = p.plans.and_then(|mp| mp.funcs.get(defined_idx));
    let (free_i, free_f) = full_pools();
    let mut a = Asm::new();
    let end_label = a.label();
    let mut g = Gen {
        a,
        p,
        fmeta,
        body: &func.body,
        plan,
        cur_pc: 0,
        n_locals: fmeta.local_types.len(),
        local_types: &fmeta.local_types,
        stack: Vec::new(),
        free_i,
        free_f,
        labels: vec![None; func.body.len()],
        loop_headers: vec![false; func.body.len() + 1],
        trap_labels: [None; 12],
        end_label,
        end_label_used: false,
        dead: false,
        depth: 0,
        pinned: vec![None; fmeta.local_types.len()],
        n_pinned: 0,
        pc_map: Vec::with_capacity(func.body.len()),
        flags_cc: None,
    };
    if p.opt == OptLevel::Full {
        // Pin the first few integer locals (loop counters, bases) in
        // callee-saved registers — the optimizing-AOT register allocation
        // that separates the WAVM profile from the baseline tiers.
        let mut k = 0;
        for (l, ty) in fmeta.local_types.iter().enumerate() {
            if k == PIN_REGS.len() {
                break;
            }
            if ty.is_int() {
                g.pinned[l] = Some(PIN_REGS[k]);
                k += 1;
            }
        }
        g.n_pinned = k;
    }
    g.collect_labels();
    g.prologue();
    g.walk();
    g.epilogue_and_stubs();
    let pc_map = std::mem::take(&mut g.pc_map);
    (g.a.finish(), pc_map)
}

impl<'a> Gen<'a> {
    // ── frame addressing ───────────────────────────────────────────

    fn local_mem(&self, l: u32) -> Mem {
        Mem::base(Reg::RBP, -8 * (self.n_pinned as i32 + 1 + l as i32))
    }

    fn slot_mem(&self, s: usize) -> Mem {
        Mem::base(
            Reg::RBP,
            -8 * (self.n_pinned as i32 + 1 + self.n_locals as i32 + s as i32),
        )
    }

    fn frame_size(&self) -> i32 {
        let slots = self.n_locals + self.fmeta.max_stack as usize + 2;
        let mut f = (((slots * 8) + 15) & !15) as i32;
        if self.n_pinned % 2 == 1 {
            // Keep rsp 16-aligned past the odd number of saved registers.
            f += 8;
        }
        f
    }

    // ── register pools ─────────────────────────────────────────────

    fn alloc_i_ex(&mut self, ex: &[Reg]) -> Reg {
        if let Some(pos) = self.free_i.iter().position(|r| !ex.contains(r)) {
            return self.free_i.remove(pos);
        }
        // Spill the lowest stack entry holding a usable int register.
        for idx in 0..self.stack.len() {
            if let AVal::I(r) = self.stack[idx] {
                if !ex.contains(&r) {
                    self.spill_entry(idx);
                    let pos = self
                        .free_i
                        .iter()
                        .position(|x| *x == r)
                        .expect("spilled reg returns to pool");
                    return self.free_i.remove(pos);
                }
            }
        }
        panic!("out of integer registers");
    }

    fn alloc_i(&mut self) -> Reg {
        self.alloc_i_ex(&[])
    }

    fn alloc_f(&mut self) -> Xmm {
        if let Some(x) = self.free_f.pop() {
            return x;
        }
        for idx in 0..self.stack.len() {
            if matches!(self.stack[idx], AVal::F(_)) {
                self.spill_entry(idx);
                return self.free_f.pop().expect("spilled xmm returns to pool");
            }
        }
        panic!("out of float registers");
    }

    fn claim_i(&mut self, r: Reg) {
        let pos = self
            .free_i
            .iter()
            .position(|x| *x == r)
            .unwrap_or_else(|| panic!("register {r:?} not free"));
        self.free_i.remove(pos);
    }

    fn release_i(&mut self, r: Reg) {
        debug_assert!(!self.free_i.contains(&r));
        self.free_i.push(r);
    }

    fn release_f(&mut self, x: Xmm) {
        debug_assert!(!self.free_f.contains(&x));
        self.free_f.push(x);
    }

    fn free_val(&mut self, v: AVal) {
        match v {
            AVal::I(r) => self.release_i(r),
            AVal::F(x) => self.release_f(x),
            AVal::Slot | AVal::C(_) | AVal::P(_) => {}
        }
    }

    // ── abstract stack ─────────────────────────────────────────────

    fn spill_entry(&mut self, idx: usize) {
        let m = self.slot_mem(idx);
        match self.stack[idx] {
            AVal::Slot => return,
            AVal::I(r) => {
                self.a.mov_mr(W::W64, m, r);
                self.release_i(r);
            }
            AVal::F(x) => {
                self.a.fstore(true, m, x);
                self.release_f(x);
            }
            AVal::C(v) => {
                match v {
                    Value::I32(i) => self.a.mov_ri32(SCRATCH, i),
                    Value::F32(f) => self.a.mov_ri32(SCRATCH, f.to_bits() as i32),
                    Value::I64(i) => self.a.mov_ri64(SCRATCH, i),
                    Value::F64(f) => self.a.mov_ri64(SCRATCH, f.to_bits() as i64),
                }
                // mov_ri32 zero-extends, keeping the slot's upper half clean.
                self.a.mov_mr(W::W64, m, SCRATCH);
            }
            AVal::P(r) => {
                // Snapshot the pinned local's current value; the register
                // stays pinned (never returned to the pool).
                self.a.mov_mr(W::W64, m, r);
            }
        }
        self.stack[idx] = AVal::Slot;
    }

    fn spill_all(&mut self) {
        for i in 0..self.stack.len() {
            self.spill_entry(i);
        }
        // Note: registers popped by the current lowering may still be held;
        // only *stack entries* are guaranteed spilled here.
    }

    /// Before overwriting a pinned local, snapshot any stack entries that
    /// alias it into their canonical slots.
    fn materialize_pinned_aliases(&mut self, pr: Reg) {
        for i in 0..self.stack.len() {
            if self.stack[i] == AVal::P(pr) {
                self.spill_entry(i);
            }
        }
    }

    fn spill_regs(&mut self, regs: &[Reg]) {
        for i in 0..self.stack.len() {
            if let AVal::I(r) = self.stack[i] {
                if regs.contains(&r) {
                    self.spill_entry(i);
                }
            }
        }
    }

    fn push_i(&mut self, r: Reg) {
        self.stack.push(AVal::I(r));
    }

    fn push_f(&mut self, x: Xmm) {
        self.stack.push(AVal::F(x));
    }

    /// Pop into an integer register (cross-bank and materializing moves as
    /// needed). i32/f32 values keep the upper 32 bits zero.
    fn pop_i_ex(&mut self, ex: &[Reg]) -> Reg {
        let idx = self.stack.len() - 1;
        let v = self.stack.pop().expect("validated stack");
        match v {
            AVal::I(r) if !ex.contains(&r) => r,
            AVal::I(r) => {
                let d = self.alloc_i_ex(ex);
                self.a.mov_rr(W::W64, d, r);
                self.release_i(r);
                d
            }
            AVal::F(x) => {
                let d = self.alloc_i_ex(ex);
                self.a.movq_rx(W::W64, d, x);
                self.release_f(x);
                d
            }
            AVal::C(c) => {
                let d = self.alloc_i_ex(ex);
                match c {
                    Value::I32(v) => self.a.mov_ri32(d, v),
                    Value::F32(f) => self.a.mov_ri32(d, f.to_bits() as i32),
                    Value::I64(v) => self.a.mov_ri64(d, v),
                    Value::F64(f) => self.a.mov_ri64(d, f.to_bits() as i64),
                }
                d
            }
            AVal::Slot => {
                let d = self.alloc_i_ex(ex);
                let m = self.slot_mem(idx);
                self.a.mov_rm(W::W64, d, m);
                d
            }
            AVal::P(r) => {
                // Copy out of the pinned register: consumers may mutate.
                let d = self.alloc_i_ex(ex);
                self.a.mov_rr(W::W64, d, r);
                d
            }
        }
    }

    fn pop_i(&mut self) -> Reg {
        self.pop_i_ex(&[])
    }

    /// Pop for a *read-only* consumer: pinned-local aliases are returned
    /// directly (no copy, not owned); everything else is materialized into
    /// an owned register. Returns `(reg, owned)`; call [`Gen::done_read`].
    fn pop_i_read(&mut self, ex: &[Reg]) -> (Reg, bool) {
        if let Some(AVal::P(r)) = self.stack.last().copied() {
            self.stack.pop();
            return (r, false);
        }
        (self.pop_i_ex(ex), true)
    }

    fn done_read(&mut self, r: Reg, owned: bool) {
        if owned {
            self.release_i(r);
        }
    }

    fn pop_f(&mut self) -> Xmm {
        let idx = self.stack.len() - 1;
        let v = self.stack.pop().expect("validated stack");
        match v {
            AVal::F(x) => x,
            AVal::I(r) => {
                let d = self.alloc_f();
                self.a.movq_xr(W::W64, d, r);
                self.release_i(r);
                d
            }
            AVal::C(c) => {
                let d = self.alloc_f();
                match c {
                    Value::F64(f) => self.a.mov_ri64(SCRATCH, f.to_bits() as i64),
                    Value::F32(f) => self.a.mov_ri32(SCRATCH, f.to_bits() as i32),
                    Value::I64(v) => self.a.mov_ri64(SCRATCH, v),
                    Value::I32(v) => self.a.mov_ri32(SCRATCH, v),
                }
                self.a.movq_xr(W::W64, d, SCRATCH);
                d
            }
            AVal::Slot => {
                let d = self.alloc_f();
                let m = self.slot_mem(idx);
                self.a.fload(true, d, m);
                d
            }
            AVal::P(r) => {
                let d = self.alloc_f();
                self.a.movq_xr(W::W64, d, r);
                d
            }
        }
    }

    /// Pop into a *specific* integer register (claimed for the caller).
    fn pop_to_fixed(&mut self, target: Reg) {
        // No stack entry below the top may occupy the target.
        self.spill_regs(&[target]);
        if let Some(AVal::I(r)) = self.stack.last().copied() {
            if r == target {
                self.stack.pop();
                return;
            }
        }
        let r = self.pop_i();
        if r != target {
            self.claim_i(target);
            self.a.mov_rr(W::W64, target, r);
            self.release_i(r);
        }
    }

    // ── trap stubs & labels ────────────────────────────────────────

    fn trap_label(&mut self, kind: TrapKind) -> Label {
        let code = kind.code() as usize;
        if let Some(l) = self.trap_labels[code] {
            return l;
        }
        let l = self.a.label();
        self.trap_labels[code] = Some(l);
        l
    }

    fn collect_labels(&mut self) {
        let mut dests: Vec<u32> = Vec::new();
        for (pc, instr) in self.body.iter().enumerate() {
            match instr {
                Instr::If(_) | Instr::Else => dests.push(self.fmeta.ctrl[pc]),
                Instr::Br(_) | Instr::BrIf(_) => {
                    dests.push(self.fmeta.branch_table[self.fmeta.ctrl[pc] as usize].dest_pc);
                }
                Instr::BrTable(t) => {
                    let base = self.fmeta.ctrl[pc] as usize;
                    for k in 0..=t.targets.len() {
                        dests.push(self.fmeta.branch_table[base + k].dest_pc);
                    }
                }
                Instr::Loop(_) => {
                    self.loop_headers[pc + 1] = true;
                }
                _ => {}
            }
        }
        for d in dests {
            if d == self.fmeta.body_len {
                self.end_label_used = true;
                continue;
            }
            if self.labels[d as usize].is_none() {
                self.labels[d as usize] = Some(self.a.label());
            }
        }
    }

    fn label_height(&self, pc: u32) -> usize {
        self.fmeta.height_at[pc as usize] as usize
    }

    // ── prologue / epilogue ────────────────────────────────────────

    fn prologue(&mut self) {
        self.a.push(Reg::RBP);
        self.a.mov_rr(W::W64, Reg::RBP, Reg::RSP);
        for &r in &PIN_REGS[..self.n_pinned] {
            self.a.push(r);
        }
        self.a.sub_ri(W::W64, Reg::RSP, self.frame_size());
        // Stack-overflow check (one of wasm's safety mechanisms the paper
        // lists alongside bounds checks).
        self.a
            .cmp_rm(W::W64, Reg::RSP, Mem::base(Reg::R15, ctx_off::STACK_LIMIT));
        let so = self.trap_label(TrapKind::StackOverflow);
        self.a.jcc(Cc::B, so);
        // Park incoming arguments in their local slots (or pinned
        // registers).
        let n_params = self.fmeta.n_params as usize;
        let mut ii = 0usize;
        let mut fi = 0usize;
        for i in 0..n_params {
            let m = self.local_mem(i as u32);
            match self.local_types[i] {
                ValType::I32 | ValType::I64 => {
                    match self.pinned[i] {
                        Some(pr) => self.a.mov_rr(W::W64, pr, INT_ARGS[ii]),
                        None => self.a.mov_mr(W::W64, m, INT_ARGS[ii]),
                    }
                    ii += 1;
                }
                ValType::F32 | ValType::F64 => {
                    self.a.fstore(true, m, Xmm(fi as u8));
                    fi += 1;
                }
            }
        }
        // Zero the declared locals.
        if self.n_locals > n_params {
            self.a.xor_rr(W::W64, SCRATCH, SCRATCH);
            for i in n_params..self.n_locals {
                if let Some(pr) = self.pinned[i] {
                    self.a.xor_rr(W::W64, pr, pr);
                } else {
                    let m = self.local_mem(i as u32);
                    self.a.mov_mr(W::W64, m, SCRATCH);
                }
            }
        }
    }

    fn emit_epilogue(&mut self) {
        if let Some(res) = self.fmeta.result {
            let m = self.slot_mem(0);
            match res {
                ValType::I32 | ValType::I64 => self.a.mov_rm(W::W64, Reg::RAX, m),
                ValType::F32 | ValType::F64 => self.a.fload(true, Xmm(0), m),
            }
        }
        if self.n_pinned > 0 {
            let m = Mem::base(Reg::RBP, -8 * self.n_pinned as i32);
            self.a.lea(W::W64, Reg::RSP, m);
            for k in (0..self.n_pinned).rev() {
                self.a.pop(PIN_REGS[k]);
            }
        } else {
            self.a.mov_rr(W::W64, Reg::RSP, Reg::RBP);
        }
        self.a.pop(Reg::RBP);
        self.a.ret();
    }

    fn epilogue_and_stubs(&mut self) {
        for code in 0..self.trap_labels.len() {
            if let Some(l) = self.trap_labels[code] {
                self.a.bind(l);
                self.a.ud2_trap(code as u8);
            }
        }
    }

    // ── control-flow plumbing ──────────────────────────────────────

    fn reset_stack_to(&mut self, height: usize) {
        self.stack.clear();
        self.stack.resize(height, AVal::Slot);
        (self.free_i, self.free_f) = full_pools();
    }

    /// Shuffle kept values into the destination's canonical layout, then
    /// jump. Stack must already be spilled.
    fn branch_to(&mut self, dest: lb_wasm::validate::BranchDest) {
        let cur = self.stack.len();
        let th = dest.target_height as usize;
        if dest.keep == 1 && cur - 1 != th {
            let src = self.slot_mem(cur - 1);
            let dst = self.slot_mem(th);
            self.a.mov_rm(W::W64, SCRATCH, src);
            self.a.mov_mr(W::W64, dst, SCRATCH);
        }
        if dest.dest_pc == self.fmeta.body_len {
            self.end_label_used = true;
            let l = self.end_label;
            self.a.jmp(l);
        } else {
            let l = self.labels[dest.dest_pc as usize].expect("branch target has a label");
            self.a.jmp(l);
        }
    }

    fn branch_needs_shuffle(&self, dest: lb_wasm::validate::BranchDest) -> bool {
        dest.keep == 1 && self.stack.len() - 1 != dest.target_height as usize
    }

    fn emit_safepoint(&mut self) {
        // mov r11, [r15 + PAUSE_FLAG]; test; jz skip; cmp [r11],0; je skip;
        // call pause helper.
        let skip = self.a.label();
        self.a
            .mov_rm(W::W64, SCRATCH, Mem::base(Reg::R15, ctx_off::PAUSE_FLAG));
        self.a.test_rr(W::W64, SCRATCH, SCRATCH);
        self.a.jcc(Cc::E, skip);
        self.a.mov_rm(W::W32, SCRATCH, Mem::base(SCRATCH, 0));
        self.a.test_rr(W::W32, SCRATCH, SCRATCH);
        self.a.jcc(Cc::E, skip);
        self.a.mov_rr(W::W64, Reg::RDI, Reg::R15);
        self.a
            .mov_ri64(SCRATCH, runtime::lb_jit_pause as *const () as usize as i64);
        self.a.call_r(SCRATCH);
        self.a.bind(skip);
    }

    // ── helper-call plumbing ───────────────────────────────────────

    /// Call an `extern "C"` helper taking one f32/f64 argument (in xmm0)
    /// and returning an integer (rax). Used for trapping truncations.
    fn helper_f_to_i(&mut self, addr: usize) {
        self.spill_all();
        let top = self.stack.len() - 1;
        let m = self.slot_mem(top);
        self.a.fload(true, Xmm(0), m);
        self.stack.pop();
        self.a.mov_ri64(SCRATCH, addr as i64);
        self.a.call_r(SCRATCH);
        self.claim_i(Reg::RAX);
        self.push_i(Reg::RAX);
    }

    /// Call a helper taking one u64 (rdi) returning float (xmm0).
    fn helper_i_to_f(&mut self, addr: usize) {
        self.spill_all();
        let top = self.stack.len() - 1;
        let m = self.slot_mem(top);
        self.a.mov_rm(W::W64, Reg::RDI, m);
        self.stack.pop();
        self.a.mov_ri64(SCRATCH, addr as i64);
        self.a.call_r(SCRATCH);
        let x = Xmm(0);
        let pos = self.free_f.iter().position(|v| *v == x).expect("xmm0 free");
        self.free_f.remove(pos);
        self.push_f(x);
    }

    /// Call a helper taking two floats (xmm0, xmm1) returning float.
    fn helper_ff_to_f(&mut self, addr: usize) {
        self.spill_all();
        let n = self.stack.len();
        let (m0, m1) = (self.slot_mem(n - 2), self.slot_mem(n - 1));
        self.a.fload(true, Xmm(0), m0);
        self.a.fload(true, Xmm(1), m1);
        self.stack.pop();
        self.stack.pop();
        self.a.mov_ri64(SCRATCH, addr as i64);
        self.a.call_r(SCRATCH);
        let x = Xmm(0);
        let pos = self.free_f.iter().position(|v| *v == x).expect("xmm0 free");
        self.free_f.remove(pos);
        self.push_f(x);
    }

    // ── memory access ──────────────────────────────────────────────

    /// The limit-table slot an emitted trap check of `extent` bytes fuses
    /// into, when fusion is on (`Full` with `guardopt`) and the module's
    /// extent table has a slot for it.
    fn fuse_slot(&self, extent: u64) -> Option<u8> {
        if !(self.p.guardopt && self.p.opt == OptLevel::Full) {
            return None;
        }
        let slot = self.p.limit_extents.iter().position(|&e| e == extent)?;
        Some(slot as u8)
    }

    /// Emit the bounds check + compute the access operand for a load/store
    /// of `size` bytes at popped address register `addr` plus `offset`.
    /// Returns the memory operand; the caller must `release_i(addr)` after
    /// the access.
    fn mem_operand(&mut self, addr: Reg, offset: u32, size: u32) -> Mem {
        use lb_analysis::CheckKind;
        // The analysis plan is consulted at the optimizing tiers only:
        // `OptLevel::None` models a baseline compiler that emits every
        // check (and is the differential-testing reference).
        let plan_kind = if self.p.opt == OptLevel::None {
            None
        } else {
            self.plan.map(|pl| pl.kind_at(self.cur_pc))
        };
        match self.p.strategy {
            BoundsStrategy::None | BoundsStrategy::Mprotect | BoundsStrategy::Uffd => {
                self.access_mem(addr, offset)
            }
            BoundsStrategy::Trap => {
                let extent = u64::from(offset) + u64::from(size);
                enum Act {
                    Skip,
                    Check,
                    Dead,
                }
                let act = match plan_kind {
                    // Both elisions are sound under trap: in-bounds is
                    // proven against the declared minimum memory, and a
                    // dominating check has already trapped any OOB path.
                    Some(CheckKind::ElideInBounds | CheckKind::ElideDominated) => Act::Skip,
                    Some(CheckKind::StaticOob) => Act::Dead,
                    // Without a plan every check is emitted.
                    Some(CheckKind::Emit) | None => Act::Check,
                };
                let c = check_counters();
                match act {
                    Act::Skip => c.elided.inc(),
                    Act::Dead => {
                        // Provably out of bounds: trap unconditionally.
                        // The access code that follows is unreachable but
                        // keeps register/stack bookkeeping uniform.
                        c.static_oob.inc();
                        let t = self.trap_label(TrapKind::OutOfBounds);
                        self.a.jmp(t);
                    }
                    Act::Check => match self.fuse_slot(extent) {
                        Some(slot) => {
                            // Fused guard: `addr < mem_limits[slot]` iff
                            // `addr + extent <= mem_size` (the limit
                            // saturates to 0 when the memory is smaller
                            // than the extent, making the check
                            // always-trap). One compare, one branch, no
                            // scratch `lea`.
                            c.fused.inc();
                            let m = Mem::base(Reg::R15, ctx_off::MEM_LIMITS + 8 * i32::from(slot));
                            self.a.cmp_rm(W::W64, addr, m);
                            let t = self.trap_label(TrapKind::OutOfBounds);
                            self.a.jcc(Cc::Ae, t);
                        }
                        None => {
                            c.emitted.inc();
                            match i32::try_from(extent) {
                                Ok(ext) => self.a.lea(W::W64, SCRATCH, Mem::base(addr, ext)),
                                Err(_) => {
                                    // offset near u32::MAX: extent exceeds
                                    // an i32 displacement (max < 2^33,
                                    // fits i64).
                                    self.a.mov_ri64(SCRATCH, extent as i64);
                                    self.a.add_rr(W::W64, SCRATCH, addr);
                                }
                            }
                            self.a
                                .cmp_rm(W::W64, SCRATCH, Mem::base(Reg::R15, ctx_off::MEM_SIZE));
                            let t = self.trap_label(TrapKind::OutOfBounds);
                            self.a.jcc(Cc::A, t);
                        }
                    },
                }
                self.access_mem(addr, offset)
            }
            BoundsStrategy::Clamp => {
                let c = check_counters();
                // The static in-bounds proof survives clamping; so does a
                // dominated site whose dominating fact was itself static
                // (`clamp_ok`: a dominating *clamp* redirects instead of
                // trapping and proves nothing dynamic, but a static fact
                // stands regardless of what the dominator emitted).
                let elide = match plan_kind {
                    Some(CheckKind::ElideInBounds) => {
                        c.elided.inc();
                        true
                    }
                    Some(CheckKind::ElideDominated)
                        if self.plan.is_some_and(|pl| pl.clamp_elidable(self.cur_pc)) =>
                    {
                        c.elided.inc();
                        true
                    }
                    _ => false,
                };
                if elide {
                    return self.access_mem(addr, offset);
                }
                c.emitted.inc();
                // ea = min(addr + offset, mem_size - size), as the paper's
                // clamp redirects out-of-bounds accesses to the memory end.
                match i32::try_from(offset) {
                    Ok(off) => self.a.lea(W::W64, SCRATCH, Mem::base(addr, off)),
                    Err(_) => {
                        self.a.mov_ri64(SCRATCH, i64::from(offset));
                        self.a.add_rr(W::W64, SCRATCH, addr);
                    }
                }
                let t = self.alloc_i();
                self.a
                    .mov_rm(W::W64, t, Mem::base(Reg::R15, ctx_off::MEM_SIZE));
                self.a.sub_ri(W::W64, t, size as i32);
                self.a.cmp_rr(W::W64, SCRATCH, t);
                self.a.cmov(W::W64, Cc::A, SCRATCH, t);
                self.release_i(t);
                Mem::bi(Reg::R14, SCRATCH, 0)
            }
        }
    }

    fn access_mem(&mut self, addr: Reg, offset: u32) -> Mem {
        match i32::try_from(offset) {
            Ok(disp) => Mem {
                base: Reg::R14,
                index: Some((addr, 1)),
                disp,
            },
            Err(_) => {
                self.a.mov_ri64(SCRATCH, i64::from(offset));
                self.a.add_rr(W::W64, SCRATCH, addr);
                Mem::bi(Reg::R14, SCRATCH, 0)
            }
        }
    }

    fn lower_load(&mut self, acc: lb_wasm::instr::MemAccess) {
        let (addr, owned) = self.pop_i_read(&[]);
        let m = self.mem_operand(addr, acc.memarg.offset, acc.bytes);
        use ValType::*;
        match (acc.ty, acc.bytes, acc.sign_extend) {
            (F32, 4, _) => {
                self.done_read(addr, owned);
                let x = self.alloc_f();
                self.a.fload(false, x, m);
                self.push_f(x);
                return;
            }
            (F64, 8, _) => {
                self.done_read(addr, owned);
                let x = self.alloc_f();
                self.a.fload(true, x, m);
                self.push_f(x);
                return;
            }
            _ => {}
        }
        // Integer loads reuse an owned address register as the destination
        // (legal: the load reads before the write for movzx/movsx/mov).
        let d = if owned { addr } else { self.alloc_i() };
        match (acc.ty, acc.bytes, acc.sign_extend) {
            (I32, 1, false) => self.a.movzx8(d, m),
            (I32, 1, true) => self.a.movsx8(W::W32, d, m),
            (I32, 2, false) => self.a.movzx16(d, m),
            (I32, 2, true) => self.a.movsx16(W::W32, d, m),
            (I32, 4, _) => self.a.mov_rm(W::W32, d, m),
            (I64, 1, false) => self.a.movzx8(d, m),
            (I64, 1, true) => self.a.movsx8(W::W64, d, m),
            (I64, 2, false) => self.a.movzx16(d, m),
            (I64, 2, true) => self.a.movsx16(W::W64, d, m),
            (I64, 4, false) => self.a.mov_rm(W::W32, d, m),
            (I64, 4, true) => self.a.movsxd_m(d, m),
            (I64, 8, _) => self.a.mov_rm(W::W64, d, m),
            other => unreachable!("load shape {other:?}"),
        }
        self.push_i(d);
    }

    fn lower_store(&mut self, acc: lb_wasm::instr::MemAccess) {
        use ValType::*;
        match acc.ty {
            F32 | F64 => {
                let v = self.pop_f();
                let addr = self.pop_i();
                let m = self.mem_operand(addr, acc.memarg.offset, acc.bytes);
                self.a.fstore(acc.bytes == 8, m, v);
                self.release_i(addr);
                self.release_f(v);
            }
            I32 | I64 => {
                let (v, vo) = self.pop_i_read(&[]);
                let (addr, ao) = self.pop_i_read(&[v]);
                let m = self.mem_operand(addr, acc.memarg.offset, acc.bytes);
                match acc.bytes {
                    1 => self.a.mov_mr8(m, v),
                    2 => self.a.mov_mr16(m, v),
                    4 => self.a.mov_mr(W::W32, m, v),
                    8 => self.a.mov_mr(W::W64, m, v),
                    other => unreachable!("store width {other}"),
                }
                self.done_read(addr, ao);
                self.done_read(v, vo);
            }
        }
    }

    // ── calls ──────────────────────────────────────────────────────

    fn load_abi_args(&mut self, params: &[ValType], base_slot: usize) {
        let mut ii = 0usize;
        let mut fi = 0usize;
        for (i, ty) in params.iter().enumerate() {
            let m = self.slot_mem(base_slot + i);
            match ty {
                ValType::I32 | ValType::I64 => {
                    self.a.mov_rm(W::W64, INT_ARGS[ii], m);
                    ii += 1;
                }
                ValType::F32 | ValType::F64 => {
                    self.a.fload(true, Xmm(fi as u8), m);
                    fi += 1;
                }
            }
        }
    }

    fn push_call_result(&mut self, result: Option<ValType>) {
        match result {
            Some(ValType::I32 | ValType::I64) => {
                self.claim_i(Reg::RAX);
                self.push_i(Reg::RAX);
            }
            Some(ValType::F32 | ValType::F64) => {
                let pos = self
                    .free_f
                    .iter()
                    .position(|v| *v == Xmm(0))
                    .expect("xmm0 free after spill");
                self.free_f.remove(pos);
                self.push_f(Xmm(0));
            }
            None => {}
        }
    }

    fn lower_call(&mut self, fi: u32) {
        let ty = self.p.module.func_type(fi).expect("validated call").clone();
        let ni = self.p.module.num_imported_funcs();
        self.spill_all();
        let n = ty.params.len();
        let base_slot = self.stack.len() - n;
        if fi < ni {
            // Host import: args are already a (descending) array in the
            // frame; hand the helper a pointer to arg0's slot.
            let ptr_slot = if n > 0 { base_slot } else { self.stack.len() };
            self.a.mov_rr(W::W64, Reg::RDI, Reg::R15);
            self.a.mov_ri32(Reg::RSI, fi as i32);
            let pm = self.slot_mem(ptr_slot);
            self.a.lea(W::W64, Reg::RDX, pm);
            self.a.xor_rr(W::W32, Reg::RCX, Reg::RCX);
            self.a
                .mov_ri64(SCRATCH, runtime::lb_jit_host as *const () as usize as i64);
            self.a.call_r(SCRATCH);
            self.stack.truncate(base_slot);
            if ty.result().is_some() {
                // Result was written into the arg0 slot (== new top).
                self.stack.push(AVal::Slot);
            }
        } else {
            self.load_abi_args(&ty.params, base_slot);
            self.stack.truncate(base_slot);
            self.a
                .mov_ri64(SCRATCH, (self.p.funcptrs_base + fi as usize * 8) as i64);
            self.a.call_m(Mem::base(SCRATCH, 0));
            self.push_call_result(ty.result());
        }
    }

    fn lower_call_indirect(&mut self, type_idx: u32) {
        let ty = self.p.module.types[type_idx as usize].clone();
        self.pop_to_fixed(Reg::R10);
        self.spill_all();
        // Bounds-check the table index.
        self.a
            .cmp_rm(W::W64, Reg::R10, Mem::base(Reg::R15, ctx_off::TABLE_LEN));
        let oob = self.trap_label(TrapKind::TableOutOfBounds);
        self.a.jcc(Cc::Ae, oob);
        // entry = table + idx * 16
        self.a
            .mov_rm(W::W64, SCRATCH, Mem::base(Reg::R15, ctx_off::TABLE));
        self.a.shl_i(W::W64, Reg::R10, 4);
        self.a.add_rr(W::W64, SCRATCH, Reg::R10);
        // func_idx, or MAX for uninitialized slots.
        self.a.mov_rm(W::W64, Reg::R10, Mem::base(SCRATCH, 0));
        self.a.cmp_ri(W::W64, Reg::R10, -1);
        let uninit = self.trap_label(TrapKind::UninitializedElement);
        self.a.jcc(Cc::E, uninit);
        // Signature check (the paper's indirect-call safety check).
        self.a.mov_rm(W::W64, SCRATCH, Mem::base(SCRATCH, 8));
        self.a.cmp_ri(W::W64, SCRATCH, type_idx as i32);
        let mismatch = self.trap_label(TrapKind::IndirectCallTypeMismatch);
        self.a.jcc(Cc::Ne, mismatch);

        let n = ty.params.len();
        let base_slot = self.stack.len() - n;
        self.load_abi_args(&ty.params, base_slot);
        self.stack.truncate(base_slot);
        self.a.mov_ri64(SCRATCH, self.p.funcptrs_base as i64);
        self.a.mov_rm(
            W::W64,
            Reg::R10,
            Mem {
                base: SCRATCH,
                index: Some((Reg::R10, 8)),
                disp: 0,
            },
        );
        self.a.call_r(Reg::R10);
        self.release_i(Reg::R10);
        self.push_call_result(ty.result());
    }

    // ── integer op helpers ─────────────────────────────────────────

    fn try_fold2_i(&mut self) -> Option<(Value, Value)> {
        if self.p.opt == OptLevel::None {
            return None;
        }
        let n = self.stack.len();
        if n < 2 {
            return None;
        }
        if let (AVal::C(a), AVal::C(b)) = (self.stack[n - 2], self.stack[n - 1]) {
            self.stack.truncate(n - 2);
            Some((a, b))
        } else {
            None
        }
    }

    // ── instruction selection (`Basic` and `Full`) ─────────────────

    /// The integer constant on top of the stack, at the optimizing tiers.
    fn const_top(&self) -> Option<i64> {
        if self.p.opt == OptLevel::None {
            return None;
        }
        match self.stack.last() {
            Some(AVal::C(Value::I32(v))) => Some(i64::from(*v)),
            Some(AVal::C(Value::I64(v))) => Some(*v),
            _ => None,
        }
    }

    /// [`Gen::const_top`] when it fits a sign-extended imm32.
    fn imm_top(&self) -> Option<i32> {
        self.const_top().and_then(|v| i32::try_from(v).ok())
    }

    /// Whether the instruction after the current one is a `br_if`/`if`
    /// that no branch lands on, so a compare can hand it the flags.
    fn branch_follows(&self) -> bool {
        let next = self.cur_pc + 1;
        self.p.opt != OptLevel::None
            && matches!(self.body.get(next), Some(Instr::BrIf(_) | Instr::If(_)))
            && self.labels[next].is_none()
    }

    fn alu_rr(a: &mut Asm, w: W, op: Alu, d: Reg, s: Reg) {
        match op {
            Alu::Add => a.add_rr(w, d, s),
            Alu::Sub => a.sub_rr(w, d, s),
            Alu::Mul => a.imul_rr(w, d, s),
            Alu::And => a.and_rr(w, d, s),
            Alu::Or => a.or_rr(w, d, s),
            Alu::Xor => a.xor_rr(w, d, s),
        }
    }

    /// `op d, imm` for the in-place forms (`Mul` has no such form).
    fn alu_ri(a: &mut Asm, w: W, op: Alu, d: Reg, v: i32) {
        match op {
            Alu::Add => a.add_ri(w, d, v),
            Alu::Sub => a.sub_ri(w, d, v),
            Alu::And => a.and_ri(w, d, v),
            Alu::Or => a.or_ri(w, d, v),
            Alu::Xor => a.xor_ri(w, d, v),
            Alu::Mul => unreachable!("imul takes a three-operand immediate form"),
        }
    }

    /// A two-operand integer ALU op. A right operand that is a constant
    /// fitting imm32 becomes an immediate: `imul d, s, imm` reads a
    /// pinned local in place, `add` of one becomes `lea`, and `add`/`sub`
    /// whose result the next instruction stores back into the same pinned
    /// local update that register in place.
    fn alu(&mut self, w: W, op: Alu) {
        let Some(v) = self.imm_top() else {
            let (s, so) = self.pop_i_read(&[]);
            let d = self.pop_i_ex(&[s]);
            Self::alu_rr(&mut self.a, w, op, d, s);
            self.done_read(s, so);
            self.push_i(d);
            return;
        };
        self.stack.pop();
        match (op, self.stack.last().copied()) {
            (Alu::Add | Alu::Sub, Some(AVal::P(pr))) if self.stores_back_to(pr) => {
                self.stack.pop();
                // The local's old value stays visible through its aliases.
                self.materialize_pinned_aliases(pr);
                Self::alu_ri(&mut self.a, w, op, pr, v);
                self.stack.push(AVal::P(pr));
            }
            (Alu::Mul, _) => {
                let (s, owned) = self.pop_i_read(&[]);
                let d = if owned { s } else { self.alloc_i() };
                self.a.imul_rri(w, d, s, v);
                self.push_i(d);
            }
            (Alu::Add, Some(AVal::P(pr))) => {
                self.stack.pop();
                let d = self.alloc_i();
                // 32-bit `lea` truncates, as `i32.add` wraps.
                self.a.lea(w, d, Mem::base(pr, v));
                self.push_i(d);
            }
            _ => {
                let d = self.pop_i();
                Self::alu_ri(&mut self.a, w, op, d, v);
                self.push_i(d);
            }
        }
    }

    /// Whether the next instruction is a `local.set`/`local.tee` of the
    /// local pinned to `pr`, with no branch landing on it.
    fn stores_back_to(&self, pr: Reg) -> bool {
        let next = self.cur_pc + 1;
        let l = match self.body.get(next) {
            Some(Instr::LocalSet(l) | Instr::LocalTee(l)) => *l as usize,
            _ => return false,
        };
        self.pinned[l] == Some(pr) && self.labels[next].is_none()
    }

    /// The shared tail of every integer compare: with a `br_if`/`if` next,
    /// spill the branch's stack *before* the compare and leave the result
    /// in the flags ([`Gen::flags_cc`]); otherwise push it, materialized
    /// with `setcc` into a register allocated around `live`.
    fn flags_or_setcc(&mut self, cc: Cc, live: [Reg; 2], cmp: impl FnOnce(&mut Asm)) {
        if self.branch_follows() {
            self.spill_all();
            cmp(&mut self.a);
            self.flags_cc = Some(cc);
            return;
        }
        let d = self.alloc_i_ex(&live);
        self.a.xor_rr(W::W32, d, d);
        cmp(&mut self.a);
        self.a.setcc(cc, d);
        self.push_i(d);
    }

    fn compare(&mut self, w: W, cc: Cc) {
        if let Some(v) = self.imm_top() {
            self.stack.pop();
            let (a, ao) = self.pop_i_read(&[]);
            self.flags_or_setcc(cc, [a, a], |asm| asm.cmp_ri(w, a, v));
            self.done_read(a, ao);
            return;
        }
        let (b, bo) = self.pop_i_read(&[]);
        let (a, ao) = self.pop_i_read(&[b]);
        self.flags_or_setcc(cc, [a, b], |asm| asm.cmp_rr(w, a, b));
        self.done_read(a, ao);
        self.done_read(b, bo);
    }

    fn eqz(&mut self, w: W) {
        let (a, ao) = self.pop_i_read(&[]);
        self.flags_or_setcc(Cc::E, [a, a], |asm| asm.test_rr(w, a, a));
        self.done_read(a, ao);
    }

    /// The condition a `br_if`/`if` branches on: the pending compare's
    /// flags, or `c != 0` for a popped `c` (spilling the stack first).
    fn branch_cond(&mut self) -> Cc {
        if let Some(cc) = self.flags_cc.take() {
            return cc;
        }
        let (c, co) = self.pop_i_read(&[]);
        self.spill_all();
        self.a.test_rr(W::W32, c, c);
        self.done_read(c, co);
        Cc::Ne
    }

    /// A shift or rotate. A constant count becomes an immediate, masked
    /// to the operand width as wasm masks it (a zero count emits nothing);
    /// any other count is popped into `cl`.
    fn shift(&mut self, w: W, op: Shift) {
        let Some(c) = self.const_top() else {
            self.spill_regs(&[Reg::RCX]);
            self.pop_to_fixed(Reg::RCX);
            let d = self.pop_i_ex(&[Reg::RCX]);
            match op {
                Shift::Shl => self.a.shl_cl(w, d),
                Shift::ShrS => self.a.sar_cl(w, d),
                Shift::ShrU => self.a.shr_cl(w, d),
                Shift::Rotl => self.a.rol_cl(w, d),
                Shift::Rotr => self.a.ror_cl(w, d),
            }
            self.release_i(Reg::RCX);
            self.push_i(d);
            return;
        };
        self.stack.pop();
        let k = (c & if w == W::W32 { 31 } else { 63 }) as u8;
        let d = self.pop_i();
        if k != 0 {
            match op {
                Shift::Shl => self.a.shl_i(w, d, k),
                Shift::ShrS => self.a.sar_i(w, d, k),
                Shift::ShrU => self.a.shr_i(w, d, k),
                Shift::Rotl => self.a.rol_i(w, d, k),
                Shift::Rotr => self.a.ror_i(w, d, k),
            }
        }
        self.push_i(d);
    }

    fn fcmp_set(&mut self, double: bool, swapped: bool, cc: Cc, nan_is_one: bool) {
        let b = self.pop_f();
        let a = self.pop_f();
        let d = self.alloc_i();
        if nan_is_one {
            self.a.mov_ri32(d, 1);
        } else {
            self.a.xor_rr(W::W32, d, d);
        }
        if swapped {
            self.a.ucomis(double, b, a);
        } else {
            self.a.ucomis(double, a, b);
        }
        // For eq/ne we must ignore the comparison result when unordered.
        let skip = self.a.label();
        if matches!(cc, Cc::E | Cc::Ne) {
            self.a.jcc(Cc::P, skip);
        }
        self.a.setcc(cc, d);
        self.a.bind(skip);
        self.release_f(a);
        self.release_f(b);
        self.push_i(d);
    }

    fn div_op(&mut self, w: W, signed: bool, want_rem: bool) {
        self.spill_regs(&[Reg::RAX, Reg::RDX]);
        let b = self.pop_i_ex(&[Reg::RAX, Reg::RDX]);
        self.pop_to_fixed(Reg::RAX);
        self.claim_i(Reg::RDX);
        // Divide-by-zero check.
        self.a.test_rr(w, b, b);
        let dz = self.trap_label(TrapKind::IntegerDivByZero);
        self.a.jcc(Cc::E, dz);
        let done = self.a.label();
        if signed {
            // INT_MIN / -1 overflow (or defined-zero remainder).
            let ok = self.a.label();
            self.a.cmp_ri(w, b, -1);
            self.a.jcc(Cc::Ne, ok);
            match w {
                W::W32 => self.a.cmp_ri(W::W32, Reg::RAX, i32::MIN),
                W::W64 => {
                    self.a.mov_ri64(SCRATCH, i64::MIN);
                    self.a.cmp_rr(W::W64, Reg::RAX, SCRATCH);
                }
            }
            if want_rem {
                self.a.jcc(Cc::Ne, ok);
                self.a.xor_rr(W::W32, Reg::RDX, Reg::RDX);
                self.a.jmp(done);
            } else {
                let ovf = self.trap_label(TrapKind::IntegerOverflow);
                self.a.jcc(Cc::E, ovf);
            }
            self.a.bind(ok);
            self.a.cdq_cqo(w);
            self.a.idiv(w, b);
        } else {
            self.a.xor_rr(W::W32, Reg::RDX, Reg::RDX);
            self.a.div(w, b);
        }
        self.a.bind(done);
        self.release_i(b);
        if want_rem {
            self.release_i(Reg::RAX);
            if w == W::W32 {
                // edx already zero-extended by the 32-bit divide.
            }
            self.push_i(Reg::RDX);
        } else {
            self.release_i(Reg::RDX);
            self.push_i(Reg::RAX);
        }
    }

    fn funop(&mut self, f: impl FnOnce(&mut Asm, Xmm)) {
        let a = self.pop_f();
        f(&mut self.a, a);
        self.push_f(a);
    }

    fn fbinop(&mut self, double: bool, op: u8) {
        let b = self.pop_f();
        let a = self.pop_f();
        self.a.farith(double, op, a, b);
        self.release_f(b);
        self.push_f(a);
    }

    fn fsign_op(&mut self, mask: u64, op: u8) {
        let a = self.pop_f();
        self.a.mov_ri64(SCRATCH, mask as i64);
        self.a.movq_xr(W::W64, FSCRATCH, SCRATCH);
        self.a.fbit(op, a, FSCRATCH);
        self.push_f(a);
    }

    // ── the main walk ──────────────────────────────────────────────

    fn walk(&mut self) {
        for pc in 0..self.body.len() {
            if self.step(pc) {
                return;
            }
        }
        unreachable!("function body must end with End");
    }

    /// Lower one instruction. Returns `true` when the function's final
    /// `End` was reached (the epilogue has been emitted).
    fn step(&mut self, pc: usize) -> bool {
        use Instr::*;
        {
            self.cur_pc = pc;
            self.pc_map.push((self.a.len() as u32, pc as u32));
            // Label binding (and revival of dead code).
            if let Some(l) = self.labels[pc] {
                if !self.dead {
                    self.spill_all();
                    let h = self.stack.len();
                    debug_assert_eq!(h, self.label_height(pc as u32));
                    self.a.bind(l);
                } else {
                    self.a.bind(l);
                    let h = self.label_height(pc as u32);
                    self.reset_stack_to(h);
                    self.dead = false;
                }
                if self.p.safepoints && self.loop_headers[pc] {
                    self.emit_safepoint();
                }
            }

            let instr = &self.body[pc];
            debug_assert!(
                self.flags_cc.is_none() || matches!(instr, BrIf(_) | If(_)),
                "a compare left its result in the flags for a non-branch"
            );
            if self.dead {
                match instr {
                    Block(_) | Loop(_) | If(_) => self.depth += 1,
                    End => {
                        self.depth -= 1;
                        if self.depth < 0 {
                            self.finish_function();
                            return true;
                        }
                    }
                    _ => {}
                }
                return false;
            }

            match instr {
                Unreachable => {
                    self.a.ud2_trap(TrapKind::Unreachable.code() as u8);
                    self.dead = true;
                }
                Nop => {}
                Block(_) => self.depth += 1,
                Loop(_) => {
                    self.depth += 1;
                    // Header label (pc+1) binds on the next iteration.
                }
                If(_) => {
                    self.depth += 1;
                    let cc = self.branch_cond();
                    let dest = self.fmeta.ctrl[pc];
                    let l = self.labels[dest as usize].expect("branch target has a label");
                    self.a.jcc(!cc, l);
                }
                Else => {
                    self.spill_all();
                    let dest = self.fmeta.ctrl[pc];
                    if dest == self.fmeta.body_len {
                        self.end_label_used = true;
                        let l = self.end_label;
                        self.a.jmp(l);
                    } else {
                        let l = self.labels[dest as usize].expect("branch target has a label");
                        self.a.jmp(l);
                    }
                    self.dead = true;
                }
                End => {
                    self.depth -= 1;
                    if self.depth < 0 {
                        self.spill_all();
                        self.finish_function();
                        return true;
                    }
                }
                Br(_) => {
                    self.spill_all();
                    let dest = self.fmeta.branch_table[self.fmeta.ctrl[pc] as usize];
                    self.branch_to(dest);
                    self.dead = true;
                }
                BrIf(_) => {
                    let cc = self.branch_cond();
                    let dest = self.fmeta.branch_table[self.fmeta.ctrl[pc] as usize];
                    if self.branch_needs_shuffle(dest) {
                        let skip = self.a.label();
                        self.a.jcc(!cc, skip);
                        self.branch_to(dest);
                        self.a.bind(skip);
                    } else if dest.dest_pc == self.fmeta.body_len {
                        self.end_label_used = true;
                        let l = self.end_label;
                        self.a.jcc(cc, l);
                    } else {
                        let l =
                            self.labels[dest.dest_pc as usize].expect("branch target has a label");
                        self.a.jcc(cc, l);
                    }
                }
                BrTable(t) => {
                    let sel = self.pop_i();
                    self.spill_all();
                    let base = self.fmeta.ctrl[pc] as usize;
                    let mut arms = Vec::with_capacity(t.targets.len());
                    for k in 0..t.targets.len() {
                        let arm = self.a.label();
                        self.a.cmp_ri(W::W32, sel, k as i32);
                        self.a.jcc(Cc::E, arm);
                        arms.push(arm);
                    }
                    self.release_i(sel);
                    // Default falls through.
                    let d = self.fmeta.branch_table[base + t.targets.len()];
                    self.branch_to(d);
                    for (k, arm) in arms.into_iter().enumerate() {
                        self.a.bind(arm);
                        let d = self.fmeta.branch_table[base + k];
                        self.branch_to(d);
                    }
                    self.dead = true;
                }
                Return => {
                    self.spill_all();
                    let h = self.stack.len();
                    if self.fmeta.result.is_some() && h - 1 != 0 {
                        let src = self.slot_mem(h - 1);
                        let dst = self.slot_mem(0);
                        self.a.mov_rm(W::W64, SCRATCH, src);
                        self.a.mov_mr(W::W64, dst, SCRATCH);
                    }
                    self.end_label_used = true;
                    let l = self.end_label;
                    self.a.jmp(l);
                    self.dead = true;
                }
                Call(fi) => self.lower_call(*fi),
                CallIndirect(ti) => self.lower_call_indirect(*ti),
                Drop => {
                    let v = self.stack.pop().expect("validated stack");
                    self.free_val(v);
                }
                Select => {
                    let (c, co) = self.pop_i_read(&[]);
                    let (b, bo) = self.pop_i_read(&[c]);
                    let a = self.pop_i_ex(&[c, b]);
                    self.a.test_rr(W::W32, c, c);
                    self.a.cmov(W::W64, Cc::E, a, b);
                    self.done_read(c, co);
                    self.done_read(b, bo);
                    self.push_i(a);
                }

                LocalGet(l) => {
                    let ty = self.local_types[*l as usize];
                    if let Some(pr) = self.pinned[*l as usize] {
                        // Zero-cost: push an alias of the pinned register.
                        self.stack.push(AVal::P(pr));
                    } else {
                        let m = self.local_mem(*l);
                        match ty {
                            ValType::I32 | ValType::I64 => {
                                let r = self.alloc_i();
                                self.a.mov_rm(W::W64, r, m);
                                self.push_i(r);
                            }
                            ValType::F32 | ValType::F64 => {
                                let x = self.alloc_f();
                                self.a.fload(true, x, m);
                                self.push_f(x);
                            }
                        }
                    }
                }
                LocalSet(l) | LocalTee(l) => {
                    let tee = matches!(instr, LocalTee(_));
                    let ty = self.local_types[*l as usize];
                    if let Some(pr) = self.pinned[*l as usize] {
                        if self.stack.last() == Some(&AVal::P(pr)) {
                            // The local's own value (an in-place update
                            // just left it there): nothing to store.
                            if !tee {
                                self.stack.pop();
                            }
                            return false;
                        }
                        // Snapshot any live aliases of the old value first.
                        self.materialize_pinned_aliases(pr);
                        let r = self.pop_i();
                        self.a.mov_rr(W::W64, pr, r);
                        self.release_i(r);
                        if tee {
                            self.stack.push(AVal::P(pr));
                        }
                    } else {
                        let m = self.local_mem(*l);
                        match ty {
                            ValType::I32 | ValType::I64 => {
                                let r = self.pop_i();
                                self.a.mov_mr(W::W64, m, r);
                                if tee {
                                    self.push_i(r);
                                } else {
                                    self.release_i(r);
                                }
                            }
                            ValType::F32 | ValType::F64 => {
                                let x = self.pop_f();
                                self.a.fstore(true, m, x);
                                if tee {
                                    self.push_f(x);
                                } else {
                                    self.release_f(x);
                                }
                            }
                        }
                    }
                }
                GlobalGet(gi) => {
                    let ty = self.p.module.globals[*gi as usize].ty.content;
                    self.a
                        .mov_rm(W::W64, SCRATCH, Mem::base(Reg::R15, ctx_off::GLOBALS));
                    let m = Mem::base(SCRATCH, *gi as i32 * 8);
                    match ty {
                        ValType::I32 | ValType::I64 => {
                            let r = self.alloc_i();
                            self.a.mov_rm(W::W64, r, m);
                            self.push_i(r);
                        }
                        ValType::F32 | ValType::F64 => {
                            let x = self.alloc_f();
                            self.a.fload(true, x, m);
                            self.push_f(x);
                        }
                    }
                }
                GlobalSet(gi) => {
                    let ty = self.p.module.globals[*gi as usize].ty.content;
                    match ty {
                        ValType::I32 | ValType::I64 => {
                            let r = self.pop_i();
                            self.a
                                .mov_rm(W::W64, SCRATCH, Mem::base(Reg::R15, ctx_off::GLOBALS));
                            self.a.mov_mr(W::W64, Mem::base(SCRATCH, *gi as i32 * 8), r);
                            self.release_i(r);
                        }
                        ValType::F32 | ValType::F64 => {
                            let x = self.pop_f();
                            self.a
                                .mov_rm(W::W64, SCRATCH, Mem::base(Reg::R15, ctx_off::GLOBALS));
                            self.a.fstore(true, Mem::base(SCRATCH, *gi as i32 * 8), x);
                            self.release_f(x);
                        }
                    }
                }

                MemorySize => {
                    let r = self.alloc_i();
                    self.a
                        .mov_rm(W::W64, r, Mem::base(Reg::R15, ctx_off::MEM_SIZE));
                    self.a.shr_i(W::W64, r, 16);
                    self.push_i(r);
                }
                MemoryGrow => {
                    self.spill_all();
                    let top = self.stack.len() - 1;
                    let tm = self.slot_mem(top);
                    self.a.mov_rm(W::W32, Reg::RSI, tm);
                    self.stack.pop();
                    self.a.mov_rr(W::W64, Reg::RDI, Reg::R15);
                    self.a
                        .mov_ri64(SCRATCH, runtime::lb_jit_grow as *const () as usize as i64);
                    self.a.call_r(SCRATCH);
                    self.claim_i(Reg::RAX);
                    // Sign-extended i32 result: clear upper bits.
                    self.a.mov_rr(W::W32, Reg::RAX, Reg::RAX);
                    self.push_i(Reg::RAX);
                }

                I32Const(v) => self.stack.push(AVal::C(Value::I32(*v))),
                I64Const(v) => self.stack.push(AVal::C(Value::I64(*v))),
                F32Const(v) => self.stack.push(AVal::C(Value::F32(*v))),
                F64Const(v) => self.stack.push(AVal::C(Value::F64(*v))),

                I32Eqz => self.eqz(W::W32),
                I64Eqz => self.eqz(W::W64),
                I32Eq => self.compare(W::W32, Cc::E),
                I32Ne => self.compare(W::W32, Cc::Ne),
                I32LtS => self.compare(W::W32, Cc::L),
                I32LtU => self.compare(W::W32, Cc::B),
                I32GtS => self.compare(W::W32, Cc::G),
                I32GtU => self.compare(W::W32, Cc::A),
                I32LeS => self.compare(W::W32, Cc::Le),
                I32LeU => self.compare(W::W32, Cc::Be),
                I32GeS => self.compare(W::W32, Cc::Ge),
                I32GeU => self.compare(W::W32, Cc::Ae),
                I64Eq => self.compare(W::W64, Cc::E),
                I64Ne => self.compare(W::W64, Cc::Ne),
                I64LtS => self.compare(W::W64, Cc::L),
                I64LtU => self.compare(W::W64, Cc::B),
                I64GtS => self.compare(W::W64, Cc::G),
                I64GtU => self.compare(W::W64, Cc::A),
                I64LeS => self.compare(W::W64, Cc::Le),
                I64LeU => self.compare(W::W64, Cc::Be),
                I64GeS => self.compare(W::W64, Cc::Ge),
                I64GeU => self.compare(W::W64, Cc::Ae),

                F32Eq => self.fcmp_set(false, false, Cc::E, false),
                F32Ne => self.fcmp_set(false, false, Cc::Ne, true),
                F32Lt => self.fcmp_set(false, true, Cc::A, false),
                F32Gt => self.fcmp_set(false, false, Cc::A, false),
                F32Le => self.fcmp_set(false, true, Cc::Ae, false),
                F32Ge => self.fcmp_set(false, false, Cc::Ae, false),
                F64Eq => self.fcmp_set(true, false, Cc::E, false),
                F64Ne => self.fcmp_set(true, false, Cc::Ne, true),
                F64Lt => self.fcmp_set(true, true, Cc::A, false),
                F64Gt => self.fcmp_set(true, false, Cc::A, false),
                F64Le => self.fcmp_set(true, true, Cc::Ae, false),
                F64Ge => self.fcmp_set(true, false, Cc::Ae, false),

                I32Clz => {
                    let a = self.pop_i();
                    self.a.lzcnt(W::W32, a, a);
                    self.push_i(a);
                }
                I32Ctz => {
                    let a = self.pop_i();
                    self.a.tzcnt(W::W32, a, a);
                    self.push_i(a);
                }
                I32Popcnt => {
                    let a = self.pop_i();
                    self.a.popcnt(W::W32, a, a);
                    self.push_i(a);
                }
                I64Clz => {
                    let a = self.pop_i();
                    self.a.lzcnt(W::W64, a, a);
                    self.push_i(a);
                }
                I64Ctz => {
                    let a = self.pop_i();
                    self.a.tzcnt(W::W64, a, a);
                    self.push_i(a);
                }
                I64Popcnt => {
                    let a = self.pop_i();
                    self.a.popcnt(W::W64, a, a);
                    self.push_i(a);
                }

                I32Add => {
                    if let Some((Value::I32(a), Value::I32(b))) = self.try_fold2_i() {
                        self.stack.push(AVal::C(Value::I32(a.wrapping_add(b))));
                    } else {
                        self.alu(W::W32, Alu::Add);
                    }
                }
                I32Sub => {
                    if let Some((Value::I32(a), Value::I32(b))) = self.try_fold2_i() {
                        self.stack.push(AVal::C(Value::I32(a.wrapping_sub(b))));
                    } else {
                        self.alu(W::W32, Alu::Sub);
                    }
                }
                I32Mul => {
                    if let Some((Value::I32(a), Value::I32(b))) = self.try_fold2_i() {
                        self.stack.push(AVal::C(Value::I32(a.wrapping_mul(b))));
                    } else {
                        self.alu(W::W32, Alu::Mul);
                    }
                }
                I32And => self.alu(W::W32, Alu::And),
                I32Or => self.alu(W::W32, Alu::Or),
                I32Xor => self.alu(W::W32, Alu::Xor),
                I64Add => self.alu(W::W64, Alu::Add),
                I64Sub => self.alu(W::W64, Alu::Sub),
                I64Mul => self.alu(W::W64, Alu::Mul),
                I64And => self.alu(W::W64, Alu::And),
                I64Or => self.alu(W::W64, Alu::Or),
                I64Xor => self.alu(W::W64, Alu::Xor),

                I32DivS => self.div_op(W::W32, true, false),
                I32DivU => self.div_op(W::W32, false, false),
                I32RemS => self.div_op(W::W32, true, true),
                I32RemU => self.div_op(W::W32, false, true),
                I64DivS => self.div_op(W::W64, true, false),
                I64DivU => self.div_op(W::W64, false, false),
                I64RemS => self.div_op(W::W64, true, true),
                I64RemU => self.div_op(W::W64, false, true),

                I32Shl => self.shift(W::W32, Shift::Shl),
                I32ShrS => self.shift(W::W32, Shift::ShrS),
                I32ShrU => self.shift(W::W32, Shift::ShrU),
                I32Rotl => self.shift(W::W32, Shift::Rotl),
                I32Rotr => self.shift(W::W32, Shift::Rotr),
                I64Shl => self.shift(W::W64, Shift::Shl),
                I64ShrS => self.shift(W::W64, Shift::ShrS),
                I64ShrU => self.shift(W::W64, Shift::ShrU),
                I64Rotl => self.shift(W::W64, Shift::Rotl),
                I64Rotr => self.shift(W::W64, Shift::Rotr),

                F32Abs => self.fsign_op(0x7FFF_FFFF, 0x54),
                F32Neg => self.fsign_op(0x8000_0000, 0x57),
                F64Abs => self.fsign_op(0x7FFF_FFFF_FFFF_FFFF, 0x54),
                F64Neg => self.fsign_op(0x8000_0000_0000_0000, 0x57),
                F32Ceil => self.funop(|a, x| a.rounds(false, x, x, 2)),
                F32Floor => self.funop(|a, x| a.rounds(false, x, x, 1)),
                F32Trunc => self.funop(|a, x| a.rounds(false, x, x, 3)),
                F32Nearest => self.funop(|a, x| a.rounds(false, x, x, 0)),
                F64Ceil => self.funop(|a, x| a.rounds(true, x, x, 2)),
                F64Floor => self.funop(|a, x| a.rounds(true, x, x, 1)),
                F64Trunc => self.funop(|a, x| a.rounds(true, x, x, 3)),
                F64Nearest => self.funop(|a, x| a.rounds(true, x, x, 0)),
                F32Sqrt => self.funop(|a, x| a.farith(false, 0x51, x, x)),
                F64Sqrt => self.funop(|a, x| a.farith(true, 0x51, x, x)),

                F32Add => self.fbinop(false, 0x58),
                F32Sub => self.fbinop(false, 0x5C),
                F32Mul => self.fbinop(false, 0x59),
                F32Div => self.fbinop(false, 0x5E),
                F64Add => self.fbinop(true, 0x58),
                F64Sub => self.fbinop(true, 0x5C),
                F64Mul => self.fbinop(true, 0x59),
                F64Div => self.fbinop(true, 0x5E),

                F32Min => self.helper_ff_to_f(runtime::lb_f32_min as *const () as usize),
                F32Max => self.helper_ff_to_f(runtime::lb_f32_max as *const () as usize),
                F64Min => self.helper_ff_to_f(runtime::lb_f64_min as *const () as usize),
                F64Max => self.helper_ff_to_f(runtime::lb_f64_max as *const () as usize),
                F32Copysign => self.helper_ff_to_f(runtime::lb_f32_copysign as *const () as usize),
                F64Copysign => self.helper_ff_to_f(runtime::lb_f64_copysign as *const () as usize),

                I32WrapI64 => {
                    let a = self.pop_i();
                    self.a.mov_rr(W::W32, a, a);
                    self.push_i(a);
                }
                I64ExtendI32S => {
                    let a = self.pop_i();
                    self.a.movsxd_r(a, a);
                    self.push_i(a);
                }
                I64ExtendI32U => {
                    // Upper half already zero by invariant.
                    let a = self.pop_i();
                    self.push_i(a);
                }

                I32TruncF32S => {
                    self.helper_f_to_i(runtime::lb_i32_trunc_f32_s as *const () as usize)
                }
                I32TruncF32U => {
                    self.helper_f_to_i(runtime::lb_i32_trunc_f32_u as *const () as usize)
                }
                I32TruncF64S => {
                    self.helper_f_to_i(runtime::lb_i32_trunc_f64_s as *const () as usize)
                }
                I32TruncF64U => {
                    self.helper_f_to_i(runtime::lb_i32_trunc_f64_u as *const () as usize)
                }
                I64TruncF32S => {
                    self.helper_f_to_i(runtime::lb_i64_trunc_f32_s as *const () as usize)
                }
                I64TruncF32U => {
                    self.helper_f_to_i(runtime::lb_i64_trunc_f32_u as *const () as usize)
                }
                I64TruncF64S => {
                    self.helper_f_to_i(runtime::lb_i64_trunc_f64_s as *const () as usize)
                }
                I64TruncF64U => {
                    self.helper_f_to_i(runtime::lb_i64_trunc_f64_u as *const () as usize)
                }

                F32ConvertI32S => {
                    let a = self.pop_i();
                    let x = self.alloc_f();
                    self.a.cvt_i2f(false, W::W32, x, a);
                    self.release_i(a);
                    self.push_f(x);
                }
                F32ConvertI32U => {
                    let a = self.pop_i();
                    let x = self.alloc_f();
                    self.a.cvt_i2f(false, W::W64, x, a);
                    self.release_i(a);
                    self.push_f(x);
                }
                F32ConvertI64S => {
                    let a = self.pop_i();
                    let x = self.alloc_f();
                    self.a.cvt_i2f(false, W::W64, x, a);
                    self.release_i(a);
                    self.push_f(x);
                }
                F32ConvertI64U => {
                    self.helper_i_to_f(runtime::lb_f32_convert_u64 as *const () as usize)
                }
                F64ConvertI32S => {
                    let a = self.pop_i();
                    let x = self.alloc_f();
                    self.a.cvt_i2f(true, W::W32, x, a);
                    self.release_i(a);
                    self.push_f(x);
                }
                F64ConvertI32U => {
                    let a = self.pop_i();
                    let x = self.alloc_f();
                    self.a.cvt_i2f(true, W::W64, x, a);
                    self.release_i(a);
                    self.push_f(x);
                }
                F64ConvertI64S => {
                    let a = self.pop_i();
                    let x = self.alloc_f();
                    self.a.cvt_i2f(true, W::W64, x, a);
                    self.release_i(a);
                    self.push_f(x);
                }
                F64ConvertI64U => {
                    self.helper_i_to_f(runtime::lb_f64_convert_u64 as *const () as usize)
                }
                F32DemoteF64 => self.funop(|a, x| a.cvt_d2s(x, x)),
                F64PromoteF32 => self.funop(|a, x| a.cvt_s2d(x, x)),

                I32ReinterpretF32 => {
                    let x = self.pop_f();
                    let r = self.alloc_i();
                    self.a.movq_rx(W::W32, r, x);
                    self.release_f(x);
                    self.push_i(r);
                }
                I64ReinterpretF64 => {
                    let x = self.pop_f();
                    let r = self.alloc_i();
                    self.a.movq_rx(W::W64, r, x);
                    self.release_f(x);
                    self.push_i(r);
                }
                F32ReinterpretI32 => {
                    let r = self.pop_i();
                    let x = self.alloc_f();
                    self.a.movq_xr(W::W32, x, r);
                    self.release_i(r);
                    self.push_f(x);
                }
                F64ReinterpretI64 => {
                    let r = self.pop_i();
                    let x = self.alloc_f();
                    self.a.movq_xr(W::W64, x, r);
                    self.release_i(r);
                    self.push_f(x);
                }

                other => {
                    if let Some(acc) = other.mem_access() {
                        if acc.is_store {
                            self.lower_store(acc);
                        } else {
                            self.lower_load(acc);
                        }
                    } else {
                        unreachable!("unhandled instruction {other:?}");
                    }
                }
            }

            // The baseline tier (V8 before tier-up) flushes everything
            // after each instruction — values never persist in registers.
            if self.p.opt == OptLevel::None && !self.dead {
                self.spill_all();
            }
        }
        false
    }

    fn finish_function(&mut self) {
        let l = self.end_label;
        self.a.bind(l);
        self.emit_epilogue();
        self.dead = true;
    }
}
