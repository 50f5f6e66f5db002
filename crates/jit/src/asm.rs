//! A minimal x86-64 assembler: exactly the instructions the baseline JIT
//! emits, with intra-function labels and rel32 fixups.
//!
//! Encodings follow the Intel SDM; the test suite cross-checks a sample of
//! them against `objdump` disassembly when binutils is present.

/// A general-purpose register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

#[allow(missing_docs)]
impl Reg {
    pub const RAX: Reg = Reg(0);
    pub const RCX: Reg = Reg(1);
    pub const RDX: Reg = Reg(2);
    pub const RBX: Reg = Reg(3);
    pub const RSP: Reg = Reg(4);
    pub const RBP: Reg = Reg(5);
    pub const RSI: Reg = Reg(6);
    pub const RDI: Reg = Reg(7);
    pub const R8: Reg = Reg(8);
    pub const R9: Reg = Reg(9);
    pub const R10: Reg = Reg(10);
    pub const R11: Reg = Reg(11);
    pub const R12: Reg = Reg(12);
    pub const R13: Reg = Reg(13);
    pub const R14: Reg = Reg(14);
    pub const R15: Reg = Reg(15);

    fn low(self) -> u8 {
        self.0 & 7
    }

    fn hi(self) -> bool {
        self.0 >= 8
    }
}

/// An SSE register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xmm(pub u8);

impl Xmm {
    fn low(self) -> u8 {
        self.0 & 7
    }

    fn hi(self) -> bool {
        self.0 >= 8
    }
}

/// A memory operand `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy)]
pub struct Mem {
    /// Base register.
    pub base: Reg,
    /// Optional `(index, scale)`; scale ∈ {1, 2, 4, 8}; index ≠ RSP.
    pub index: Option<(Reg, u8)>,
    /// Signed 32-bit displacement.
    pub disp: i32,
}

impl Mem {
    /// `[base + disp]`.
    pub fn base(base: Reg, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }

    /// `[base + index + disp]` (scale 1).
    pub fn bi(base: Reg, index: Reg, disp: i32) -> Mem {
        Mem {
            base,
            index: Some((index, 1)),
            disp,
        }
    }
}

/// Condition codes (the `cc` nibble of Jcc/SETcc/CMOVcc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cc {
    O = 0x0,
    No = 0x1,
    B = 0x2,
    Ae = 0x3,
    E = 0x4,
    Ne = 0x5,
    Be = 0x6,
    A = 0x7,
    S = 0x8,
    Ns = 0x9,
    P = 0xA,
    Np = 0xB,
    L = 0xC,
    Ge = 0xD,
    Le = 0xE,
    G = 0xF,
}

/// The negated condition (x86 pairs each condition with its negation in
/// the low bit of the nibble).
impl std::ops::Not for Cc {
    type Output = Cc;

    fn not(self) -> Cc {
        use Cc::*;
        match self {
            O => No,
            No => O,
            B => Ae,
            Ae => B,
            E => Ne,
            Ne => E,
            Be => A,
            A => Be,
            S => Ns,
            Ns => S,
            P => Np,
            Np => P,
            L => Ge,
            Ge => L,
            Le => G,
            G => Le,
        }
    }
}

/// An unresolved intra-function label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Operand width for integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum W {
    /// 32-bit (upper half zeroed by the CPU).
    W32,
    /// 64-bit.
    W64,
}

/// `int3` — used to pad between functions in the code blob. The verifier
/// treats runs of this byte between functions as inert filler.
pub const INT3: u8 = 0xCC;

/// The instruction emitter.
#[derive(Debug, Default)]
pub struct Asm {
    buf: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>, // rel32 location → target label
}

impl Asm {
    /// A fresh, empty assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Bytes emitted so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish: apply all label fixups and return the code bytes.
    ///
    /// # Panics
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Vec<u8> {
        for (at, label) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label.0].expect("label bound before finish");
            let rel = target as i64 - (at as i64 + 4);
            let rel = i32::try_from(rel).expect("rel32 overflow");
            self.buf[at..at + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.buf
    }

    /// Create a new unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `l` to the current position.
    ///
    /// # Panics
    /// Panics if already bound.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.buf.len());
    }

    /// Whether `l` has been bound.
    pub fn is_bound(&self, l: Label) -> bool {
        self.labels[l.0].is_some()
    }

    fn b(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    fn i32_(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Emit REX if needed. `w`: 64-bit, `r`: reg-field ext, `x`: index ext,
    /// `b`: rm/base ext. `force` emits REX even when 0x40 (for spl/dil…).
    fn rex(&mut self, w: bool, r: bool, x: bool, b: bool, force: bool) {
        let v = 0x40 | (u8::from(w) << 3) | (u8::from(r) << 2) | (u8::from(x) << 1) | u8::from(b);
        if v != 0x40 || force {
            self.b(v);
        }
    }

    fn modrm(&mut self, mode: u8, reg: u8, rm: u8) {
        self.b((mode << 6) | (reg << 3) | rm);
    }

    /// ModRM+SIB+disp for a memory operand, with `reg` as the reg field.
    fn mem_operand(&mut self, reg_field: u8, m: Mem) {
        let need_sib = m.index.is_some() || m.base.low() == 4;
        // Choose disp mode: rbp/r13 base cannot use mod=00.
        let (mode, disp8) = if m.disp == 0 && m.base.low() != 5 {
            (0u8, false)
        } else if i8::try_from(m.disp).is_ok() {
            (1u8, true)
        } else {
            (2u8, false)
        };
        if need_sib {
            self.modrm(mode, reg_field, 4);
            let (idx, scale) = match m.index {
                Some((r, s)) => {
                    assert!(r.low() != 4 || r.hi(), "RSP cannot be an index");
                    let ss = match s {
                        1 => 0u8,
                        2 => 1,
                        4 => 2,
                        8 => 3,
                        _ => panic!("bad scale {s}"),
                    };
                    (r.low(), ss)
                }
                None => (4u8, 0u8), // no index
            };
            self.b((scale << 6) | (idx << 3) | m.base.low());
        } else {
            self.modrm(mode, reg_field, m.base.low());
        }
        if mode == 1 {
            debug_assert!(disp8);
            self.b(m.disp as i8 as u8);
        } else if mode == 2 {
            self.i32_(m.disp);
        }
    }

    fn rex_mem(&mut self, w: bool, reg_hi: bool, m: Mem, force: bool) {
        let x = m.index.map(|(r, _)| r.hi()).unwrap_or(false);
        self.rex(w, reg_hi, x, m.base.hi(), force);
    }

    // ── moves ──────────────────────────────────────────────────────

    /// `mov r64, imm64` (or a shorter form when it fits).
    pub fn mov_ri64(&mut self, d: Reg, v: i64) {
        if v >= 0 && v <= u32::MAX as i64 {
            // mov r32, imm32 zero-extends.
            self.rex(false, false, false, d.hi(), false);
            self.b(0xB8 + d.low());
            self.i32_(v as u32 as i32);
        } else if i32::try_from(v).is_ok() {
            // mov r/m64, imm32 (sign-extended)
            self.rex(true, false, false, d.hi(), false);
            self.b(0xC7);
            self.modrm(3, 0, d.low());
            self.i32_(v as i32);
        } else {
            self.rex(true, false, false, d.hi(), false);
            self.b(0xB8 + d.low());
            self.bytes(&v.to_le_bytes());
        }
    }

    /// `mov r32, imm32`.
    pub fn mov_ri32(&mut self, d: Reg, v: i32) {
        self.rex(false, false, false, d.hi(), false);
        self.b(0xB8 + d.low());
        self.i32_(v);
    }

    /// `mov d, s` register-to-register.
    pub fn mov_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.rex(w == W::W64, s.hi(), false, d.hi(), false);
        self.b(0x89);
        self.modrm(3, s.low(), d.low());
    }

    /// `mov d, [m]` (32 or 64-bit load).
    pub fn mov_rm(&mut self, w: W, d: Reg, m: Mem) {
        self.rex_mem(w == W::W64, d.hi(), m, false);
        self.b(0x8B);
        self.mem_operand(d.low(), m);
    }

    /// `mov [m], s` (32 or 64-bit store).
    pub fn mov_mr(&mut self, w: W, m: Mem, s: Reg) {
        self.rex_mem(w == W::W64, s.hi(), m, false);
        self.b(0x89);
        self.mem_operand(s.low(), m);
    }

    /// `mov [m], s8` (8-bit store of the low byte).
    pub fn mov_mr8(&mut self, m: Mem, s: Reg) {
        // REX needed to address sil/dil/spl/bpl and r8b+.
        let force = s.low() >= 4;
        self.rex_mem(false, s.hi(), m, force);
        self.b(0x88);
        self.mem_operand(s.low(), m);
    }

    /// `mov [m], s16` (16-bit store).
    pub fn mov_mr16(&mut self, m: Mem, s: Reg) {
        self.b(0x66);
        self.rex_mem(false, s.hi(), m, false);
        self.b(0x89);
        self.mem_operand(s.low(), m);
    }

    /// `movzx d32, byte [m]`.
    pub fn movzx8(&mut self, d: Reg, m: Mem) {
        self.rex_mem(false, d.hi(), m, false);
        self.bytes(&[0x0F, 0xB6]);
        self.mem_operand(d.low(), m);
    }

    /// `movzx d32, word [m]`.
    pub fn movzx16(&mut self, d: Reg, m: Mem) {
        self.rex_mem(false, d.hi(), m, false);
        self.bytes(&[0x0F, 0xB7]);
        self.mem_operand(d.low(), m);
    }

    /// `movsx d, byte [m]` (sign-extend to 32 or 64 bits).
    pub fn movsx8(&mut self, w: W, d: Reg, m: Mem) {
        self.rex_mem(w == W::W64, d.hi(), m, false);
        self.bytes(&[0x0F, 0xBE]);
        self.mem_operand(d.low(), m);
    }

    /// `movsx d, word [m]`.
    pub fn movsx16(&mut self, w: W, d: Reg, m: Mem) {
        self.rex_mem(w == W::W64, d.hi(), m, false);
        self.bytes(&[0x0F, 0xBF]);
        self.mem_operand(d.low(), m);
    }

    /// `movsxd d64, dword [m]` (sign-extend 32→64).
    pub fn movsxd_m(&mut self, d: Reg, m: Mem) {
        self.rex_mem(true, d.hi(), m, false);
        self.b(0x63);
        self.mem_operand(d.low(), m);
    }

    /// `movsxd d64, s32` register form.
    pub fn movsxd_r(&mut self, d: Reg, s: Reg) {
        self.rex(true, d.hi(), false, s.hi(), false);
        self.b(0x63);
        self.modrm(3, d.low(), s.low());
    }

    // ── ALU ────────────────────────────────────────────────────────

    fn alu_rr(&mut self, w: W, op: u8, d: Reg, s: Reg) {
        self.rex(w == W::W64, s.hi(), false, d.hi(), false);
        self.b(op);
        self.modrm(3, s.low(), d.low());
    }

    fn alu_ri(&mut self, w: W, ext: u8, d: Reg, v: i32) {
        self.rex(w == W::W64, false, false, d.hi(), false);
        if i8::try_from(v).is_ok() {
            self.b(0x83);
            self.modrm(3, ext, d.low());
            self.b(v as i8 as u8);
        } else {
            self.b(0x81);
            self.modrm(3, ext, d.low());
            self.i32_(v);
        }
    }

    /// `add d, s`.
    pub fn add_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.alu_rr(w, 0x01, d, s);
    }

    /// `add d, imm`.
    pub fn add_ri(&mut self, w: W, d: Reg, v: i32) {
        self.alu_ri(w, 0, d, v);
    }

    /// `sub d, s`.
    pub fn sub_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.alu_rr(w, 0x29, d, s);
    }

    /// `sub d, imm`.
    pub fn sub_ri(&mut self, w: W, d: Reg, v: i32) {
        self.alu_ri(w, 5, d, v);
    }

    /// `and d, s`.
    pub fn and_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.alu_rr(w, 0x21, d, s);
    }

    /// `and d, imm`.
    pub fn and_ri(&mut self, w: W, d: Reg, v: i32) {
        self.alu_ri(w, 4, d, v);
    }

    /// `or d, s`.
    pub fn or_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.alu_rr(w, 0x09, d, s);
    }

    /// `or d, imm`.
    pub fn or_ri(&mut self, w: W, d: Reg, v: i32) {
        self.alu_ri(w, 1, d, v);
    }

    /// `xor d, s`.
    pub fn xor_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.alu_rr(w, 0x31, d, s);
    }

    /// `xor d, imm`.
    pub fn xor_ri(&mut self, w: W, d: Reg, v: i32) {
        self.alu_ri(w, 6, d, v);
    }

    /// `cmp d, s`.
    pub fn cmp_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.alu_rr(w, 0x39, d, s);
    }

    /// `cmp d, imm`.
    pub fn cmp_ri(&mut self, w: W, d: Reg, v: i32) {
        self.alu_ri(w, 7, d, v);
    }

    /// `cmp d, [m]`.
    pub fn cmp_rm(&mut self, w: W, d: Reg, m: Mem) {
        self.rex_mem(w == W::W64, d.hi(), m, false);
        self.b(0x3B);
        self.mem_operand(d.low(), m);
    }

    /// `test d, s`.
    pub fn test_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.alu_rr(w, 0x85, d, s);
    }

    /// `imul d, s` (two-operand signed multiply).
    pub fn imul_rr(&mut self, w: W, d: Reg, s: Reg) {
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0xAF]);
        self.modrm(3, d.low(), s.low());
    }

    /// `imul d, s, imm` (three-operand signed multiply by a sign-extended
    /// `imm8`/`imm32`).
    pub fn imul_rri(&mut self, w: W, d: Reg, s: Reg, v: i32) {
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        if i8::try_from(v).is_ok() {
            self.b(0x6B);
            self.modrm(3, d.low(), s.low());
            self.b(v as i8 as u8);
        } else {
            self.b(0x69);
            self.modrm(3, d.low(), s.low());
            self.i32_(v);
        }
    }

    /// `neg d`.
    pub fn neg(&mut self, w: W, d: Reg) {
        self.rex(w == W::W64, false, false, d.hi(), false);
        self.b(0xF7);
        self.modrm(3, 3, d.low());
    }

    /// `cdq` / `cqo` (sign-extend rax into rdx).
    pub fn cdq_cqo(&mut self, w: W) {
        if w == W::W64 {
            self.b(0x48);
        }
        self.b(0x99);
    }

    /// `idiv s` (signed divide rdx:rax by s).
    pub fn idiv(&mut self, w: W, s: Reg) {
        self.rex(w == W::W64, false, false, s.hi(), false);
        self.b(0xF7);
        self.modrm(3, 7, s.low());
    }

    /// `div s` (unsigned divide rdx:rax by s).
    pub fn div(&mut self, w: W, s: Reg) {
        self.rex(w == W::W64, false, false, s.hi(), false);
        self.b(0xF7);
        self.modrm(3, 6, s.low());
    }

    fn shift_cl(&mut self, w: W, ext: u8, d: Reg) {
        self.rex(w == W::W64, false, false, d.hi(), false);
        self.b(0xD3);
        self.modrm(3, ext, d.low());
    }

    fn shift_imm(&mut self, w: W, ext: u8, d: Reg, v: u8) {
        self.rex(w == W::W64, false, false, d.hi(), false);
        self.b(0xC1);
        self.modrm(3, ext, d.low());
        self.b(v);
    }

    /// `shl d, cl`.
    pub fn shl_cl(&mut self, w: W, d: Reg) {
        self.shift_cl(w, 4, d);
    }

    /// `shr d, cl`.
    pub fn shr_cl(&mut self, w: W, d: Reg) {
        self.shift_cl(w, 5, d);
    }

    /// `sar d, cl`.
    pub fn sar_cl(&mut self, w: W, d: Reg) {
        self.shift_cl(w, 7, d);
    }

    /// `rol d, cl`.
    pub fn rol_cl(&mut self, w: W, d: Reg) {
        self.shift_cl(w, 0, d);
    }

    /// `ror d, cl`.
    pub fn ror_cl(&mut self, w: W, d: Reg) {
        self.shift_cl(w, 1, d);
    }

    /// `shl d, imm`.
    pub fn shl_i(&mut self, w: W, d: Reg, v: u8) {
        self.shift_imm(w, 4, d, v);
    }

    /// `shr d, imm`.
    pub fn shr_i(&mut self, w: W, d: Reg, v: u8) {
        self.shift_imm(w, 5, d, v);
    }

    /// `sar d, imm`.
    pub fn sar_i(&mut self, w: W, d: Reg, v: u8) {
        self.shift_imm(w, 7, d, v);
    }

    /// `rol d, imm`.
    pub fn rol_i(&mut self, w: W, d: Reg, v: u8) {
        self.shift_imm(w, 0, d, v);
    }

    /// `ror d, imm`.
    pub fn ror_i(&mut self, w: W, d: Reg, v: u8) {
        self.shift_imm(w, 1, d, v);
    }

    /// `lea d, [m]`.
    pub fn lea(&mut self, w: W, d: Reg, m: Mem) {
        self.rex_mem(w == W::W64, d.hi(), m, false);
        self.b(0x8D);
        self.mem_operand(d.low(), m);
    }

    /// `popcnt d, s`.
    pub fn popcnt(&mut self, w: W, d: Reg, s: Reg) {
        self.b(0xF3);
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0xB8]);
        self.modrm(3, d.low(), s.low());
    }

    /// `lzcnt d, s`.
    pub fn lzcnt(&mut self, w: W, d: Reg, s: Reg) {
        self.b(0xF3);
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0xBD]);
        self.modrm(3, d.low(), s.low());
    }

    /// `tzcnt d, s`.
    pub fn tzcnt(&mut self, w: W, d: Reg, s: Reg) {
        self.b(0xF3);
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0xBC]);
        self.modrm(3, d.low(), s.low());
    }

    /// `setcc d8` (clobbers only the low byte — pair with a preceding xor).
    pub fn setcc(&mut self, cc: Cc, d: Reg) {
        let force = d.low() >= 4;
        self.rex(false, false, false, d.hi(), force);
        self.bytes(&[0x0F, 0x90 + cc as u8]);
        self.modrm(3, 0, d.low());
    }

    /// `cmovcc d, s`.
    pub fn cmov(&mut self, w: W, cc: Cc, d: Reg, s: Reg) {
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0x40 + cc as u8]);
        self.modrm(3, d.low(), s.low());
    }

    // ── control flow ───────────────────────────────────────────────

    /// `jcc label` (rel32 form).
    pub fn jcc(&mut self, cc: Cc, l: Label) {
        self.bytes(&[0x0F, 0x80 + cc as u8]);
        self.fixups.push((self.buf.len(), l));
        self.i32_(0);
    }

    /// `jmp label` (rel32 form).
    pub fn jmp(&mut self, l: Label) {
        self.b(0xE9);
        self.fixups.push((self.buf.len(), l));
        self.i32_(0);
    }

    /// `call r`.
    pub fn call_r(&mut self, r: Reg) {
        self.rex(false, false, false, r.hi(), false);
        self.b(0xFF);
        self.modrm(3, 2, r.low());
    }

    /// `call [m]`.
    pub fn call_m(&mut self, m: Mem) {
        self.rex_mem(false, false, m, false);
        self.b(0xFF);
        self.mem_operand(2, m);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.b(0xC3);
    }

    /// `nop` (single-byte).
    pub fn nop(&mut self) {
        self.b(0x90);
    }

    /// `push r`.
    pub fn push(&mut self, r: Reg) {
        self.rex(false, false, false, r.hi(), false);
        self.b(0x50 + r.low());
    }

    /// `pop r`.
    pub fn pop(&mut self, r: Reg) {
        self.rex(false, false, false, r.hi(), false);
        self.b(0x58 + r.low());
    }

    /// `ud2` followed by a trap-code payload byte (read by the signal
    /// handler at `rip + 2`).
    pub fn ud2_trap(&mut self, code: u8) {
        self.bytes(&[0x0F, 0x0B, code]);
    }

    // ── SSE ────────────────────────────────────────────────────────

    fn sse_rr(&mut self, prefix: Option<u8>, op: &[u8], r: Xmm, rm: Xmm, w: bool) {
        if let Some(p) = prefix {
            self.b(p);
        }
        self.rex(w, r.hi(), false, rm.hi(), false);
        self.bytes(op);
        self.modrm(3, r.low(), rm.low());
    }

    fn sse_rm(&mut self, prefix: Option<u8>, op: &[u8], r: Xmm, m: Mem, w: bool) {
        if let Some(p) = prefix {
            self.b(p);
        }
        let x = m.index.map(|(i, _)| i.hi()).unwrap_or(false);
        self.rex(w, r.hi(), x, m.base.hi(), false);
        self.bytes(op);
        self.mem_operand(r.low(), m);
    }

    /// `movsd d, [m]` / `movss` when `double` is false.
    pub fn fload(&mut self, double: bool, d: Xmm, m: Mem) {
        let p = if double { 0xF2 } else { 0xF3 };
        self.sse_rm(Some(p), &[0x0F, 0x10], d, m, false);
    }

    /// `movsd [m], s` / `movss`.
    pub fn fstore(&mut self, double: bool, m: Mem, s: Xmm) {
        let p = if double { 0xF2 } else { 0xF3 };
        self.sse_rm(Some(p), &[0x0F, 0x11], s, m, false);
    }

    /// `movaps d, s` (register move; width-agnostic).
    pub fn fmov(&mut self, d: Xmm, s: Xmm) {
        self.sse_rr(None, &[0x0F, 0x28], d, s, false);
    }

    /// addsd/addss etc. families: 0x58 add, 0x5C sub, 0x59 mul, 0x5E div,
    /// 0x51 sqrt.
    pub fn farith(&mut self, double: bool, op: u8, d: Xmm, s: Xmm) {
        let p = if double { 0xF2 } else { 0xF3 };
        self.sse_rr(Some(p), &[0x0F, op], d, s, false);
    }

    /// `ucomisd a, b` / `ucomiss`.
    pub fn ucomis(&mut self, double: bool, a: Xmm, b: Xmm) {
        if double {
            self.sse_rr(Some(0x66), &[0x0F, 0x2E], a, b, false);
        } else {
            self.sse_rr(None, &[0x0F, 0x2E], a, b, false);
        }
    }

    /// `cvttsd2si d, s` (f64→int truncation) / `cvttss2si`.
    pub fn cvtt_f2i(&mut self, double: bool, w: W, d: Reg, s: Xmm) {
        self.b(if double { 0xF2 } else { 0xF3 });
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0x2C]);
        self.modrm(3, d.low(), s.low());
    }

    /// `cvtsi2sd d, s` (int→f64) / `cvtsi2ss`.
    pub fn cvt_i2f(&mut self, double: bool, w: W, d: Xmm, s: Reg) {
        self.b(if double { 0xF2 } else { 0xF3 });
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0x2A]);
        self.modrm(3, d.low(), s.low());
    }

    /// `cvtsd2ss d, s` (f64→f32).
    pub fn cvt_d2s(&mut self, d: Xmm, s: Xmm) {
        self.sse_rr(Some(0xF2), &[0x0F, 0x5A], d, s, false);
    }

    /// `cvtss2sd d, s` (f32→f64).
    pub fn cvt_s2d(&mut self, d: Xmm, s: Xmm) {
        self.sse_rr(Some(0xF3), &[0x0F, 0x5A], d, s, false);
    }

    /// `movq xmm, r64` / `movd xmm, r32`.
    pub fn movq_xr(&mut self, w: W, d: Xmm, s: Reg) {
        self.b(0x66);
        self.rex(w == W::W64, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0x6E]);
        self.modrm(3, d.low(), s.low());
    }

    /// `movq r64, xmm` / `movd r32, xmm`.
    pub fn movq_rx(&mut self, w: W, d: Reg, s: Xmm) {
        self.b(0x66);
        self.rex(w == W::W64, s.hi(), false, d.hi(), false);
        self.bytes(&[0x0F, 0x7E]);
        self.modrm(3, s.low(), d.low());
    }

    /// `roundsd d, s, mode` / `roundss` (SSE4.1).
    /// Modes: 0 nearest-even, 1 floor, 2 ceil, 3 trunc (with |8 = no-exc).
    pub fn rounds(&mut self, double: bool, d: Xmm, s: Xmm, mode: u8) {
        self.b(0x66);
        self.rex(false, d.hi(), false, s.hi(), false);
        self.bytes(&[0x0F, 0x3A, if double { 0x0B } else { 0x0A }]);
        self.modrm(3, d.low(), s.low());
        self.b(mode | 8);
    }

    /// `pxor d, s` (zero an xmm with d==s).
    pub fn pxor(&mut self, d: Xmm, s: Xmm) {
        self.sse_rr(Some(0x66), &[0x0F, 0xEF], d, s, false);
    }

    /// Bitwise packed-double ops: 0x54 andpd, 0x55 andnpd, 0x56 orpd,
    /// 0x57 xorpd (used for float abs/neg via sign masks).
    pub fn fbit(&mut self, op: u8, d: Xmm, s: Xmm) {
        self.sse_rr(Some(0x66), &[0x0F, op], d, s, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disasm(code: &[u8]) -> String {
        use std::io::Write;
        use std::process::Command;
        // One file per call: the tests of this module run in parallel.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("lbjit-asm-{}-{seq}.bin", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(code).unwrap();
        drop(f);
        let out = Command::new("objdump")
            .args(["-D", "-b", "binary", "-m", "i386:x86-64", "-M", "intel"])
            .arg(&path)
            .output()
            .expect("objdump runs");
        let _ = std::fs::remove_file(&path);
        String::from_utf8_lossy(&out.stdout).to_string()
    }

    fn has_objdump() -> bool {
        std::process::Command::new("objdump")
            .arg("--version")
            .output()
            .is_ok()
    }

    #[test]
    fn basic_encodings_disassemble_correctly() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        a.mov_ri64(Reg::RAX, 0x1122334455667788);
        a.mov_rr(W::W64, Reg::R12, Reg::RSI);
        a.mov_rm(W::W32, Reg::RCX, Mem::base(Reg::RBP, -8));
        a.add_rr(W::W32, Reg::RAX, Reg::R9);
        a.imul_rr(W::W64, Reg::RDX, Reg::R10);
        a.lea(
            W::W64,
            Reg::R11,
            Mem {
                base: Reg::R14,
                index: Some((Reg::RAX, 8)),
                disp: 0x40,
            },
        );
        a.cmp_ri(W::W64, Reg::R13, 100);
        a.push(Reg::RBP);
        a.pop(Reg::R15);
        a.ret();
        let d = disasm(&a.finish());
        assert!(d.contains("movabs rax,0x1122334455667788"), "{d}");
        assert!(d.contains("mov    r12,rsi"), "{d}");
        assert!(d.contains("mov    ecx,DWORD PTR [rbp-0x8]"), "{d}");
        assert!(d.contains("add    eax,r9d"), "{d}");
        assert!(d.contains("imul   rdx,r10"), "{d}");
        assert!(d.contains("lea    r11,[r14+rax*8+0x40]"), "{d}");
        assert!(d.contains("cmp    r13,0x64"), "{d}");
        assert!(d.contains("push   rbp"), "{d}");
        assert!(d.contains("pop    r15"), "{d}");
        assert!(d.contains("ret"), "{d}");
    }

    #[test]
    fn immediate_forms_disassemble_correctly() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        a.imul_rri(W::W32, Reg::RCX, Reg::RBX, 70);
        a.imul_rri(W::W64, Reg::R9, Reg::R13, 0x1000);
        a.or_ri(W::W32, Reg::RAX, 0x10);
        a.xor_ri(W::W64, Reg::R10, -2);
        a.sar_i(W::W32, Reg::RDX, 31);
        a.rol_i(W::W64, Reg::RSI, 7);
        a.ror_i(W::W32, Reg::R8, 1);
        let d = disasm(&a.finish());
        assert!(d.contains("imul   ecx,ebx,0x46"), "{d}");
        assert!(d.contains("imul   r9,r13,0x1000"), "{d}");
        assert!(d.contains("or     eax,0x10"), "{d}");
        assert!(d.contains("xor    r10,0xfffffffffffffffe"), "{d}");
        assert!(d.contains("sar    edx,0x1f"), "{d}");
        assert!(d.contains("rol    rsi,0x7"), "{d}");
        assert!(d.contains("ror    r8d,0x1"), "{d}");
    }

    #[test]
    fn sse_encodings_disassemble_correctly() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        a.fload(true, Xmm(0), Mem::bi(Reg::R14, Reg::RAX, 64));
        a.fstore(true, Mem::base(Reg::RBP, -16), Xmm(9));
        a.farith(true, 0x58, Xmm(1), Xmm(2));
        a.farith(false, 0x59, Xmm(3), Xmm(12));
        a.ucomis(true, Xmm(0), Xmm(1));
        a.cvtt_f2i(true, W::W32, Reg::RAX, Xmm(5));
        a.cvt_i2f(true, W::W64, Xmm(6), Reg::R8);
        a.movq_xr(W::W64, Xmm(2), Reg::RAX);
        a.movq_rx(W::W64, Reg::RCX, Xmm(2));
        a.rounds(true, Xmm(0), Xmm(0), 3);
        a.pxor(Xmm(7), Xmm(7));
        let d = disasm(&a.finish());
        assert!(d.contains("movsd  xmm0,QWORD PTR [r14+rax*1+0x40]"), "{d}");
        assert!(d.contains("movsd  QWORD PTR [rbp-0x10],xmm9"), "{d}");
        assert!(d.contains("addsd  xmm1,xmm2"), "{d}");
        assert!(d.contains("mulss  xmm3,xmm12"), "{d}");
        assert!(d.contains("ucomisd xmm0,xmm1"), "{d}");
        assert!(d.contains("cvttsd2si eax,xmm5"), "{d}");
        assert!(d.contains("cvtsi2sd xmm6,r8"), "{d}");
        assert!(d.contains("movq   xmm2,rax"), "{d}");
        assert!(d.contains("movq   rcx,xmm2"), "{d}");
        assert!(d.contains("roundsd xmm0,xmm0,0xb"), "{d}");
        assert!(d.contains("pxor   xmm7,xmm7"), "{d}");
    }

    #[test]
    fn labels_and_jumps_resolve() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        let top = a.label();
        let out = a.label();
        a.bind(top);
        a.cmp_ri(W::W32, Reg::RAX, 10);
        a.jcc(Cc::Ge, out);
        a.add_ri(W::W32, Reg::RAX, 1);
        a.jmp(top);
        a.bind(out);
        a.ret();
        let d = disasm(&a.finish());
        assert!(d.contains("jge"), "{d}");
        assert!(d.contains("jmp"), "{d}");
    }

    #[test]
    fn branch_semantics_via_execution() {
        // Also validated end-to-end by the JIT integration tests.
        let mut a = Asm::new();
        a.ud2_trap(7);
        let code = a.finish();
        assert_eq!(code, vec![0x0F, 0x0B, 7]);
    }

    #[test]
    fn setcc_and_cmov_encode() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        a.xor_rr(W::W32, Reg::RAX, Reg::RAX);
        a.cmp_rr(W::W32, Reg::RCX, Reg::RDX);
        a.setcc(Cc::L, Reg::RAX);
        a.setcc(Cc::E, Reg::RSI); // needs REX for sil
        a.cmov(W::W64, Cc::A, Reg::RBX, Reg::R9);
        let d = disasm(&a.finish());
        assert!(d.contains("setl   al"), "{d}");
        assert!(d.contains("sete   sil"), "{d}");
        assert!(d.contains("cmova  rbx,r9"), "{d}");
    }

    #[test]
    fn division_sequence_encodes() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        a.cdq_cqo(W::W32);
        a.idiv(W::W32, Reg::RCX);
        a.cdq_cqo(W::W64);
        a.div(W::W64, Reg::R8);
        let d = disasm(&a.finish());
        assert!(d.contains("cdq"), "{d}");
        assert!(d.contains("idiv   ecx"), "{d}");
        assert!(d.contains("cqo"), "{d}");
        assert!(d.contains("div    r8"), "{d}");
    }

    #[test]
    fn bit_instructions_encode() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        a.popcnt(W::W64, Reg::RAX, Reg::RCX);
        a.lzcnt(W::W32, Reg::RDX, Reg::RBX);
        a.tzcnt(W::W64, Reg::R9, Reg::R10);
        a.shl_cl(W::W32, Reg::RAX);
        a.rol_cl(W::W64, Reg::RDX);
        a.shr_i(W::W64, Reg::RSI, 3);
        let d = disasm(&a.finish());
        assert!(d.contains("popcnt rax,rcx"), "{d}");
        assert!(d.contains("lzcnt  edx,ebx"), "{d}");
        assert!(d.contains("tzcnt  r9,r10"), "{d}");
        assert!(d.contains("shl    eax,cl"), "{d}");
        assert!(d.contains("rol    rdx,cl"), "{d}");
        assert!(d.contains("shr    rsi,0x3"), "{d}");
    }

    #[test]
    fn memory_edge_cases_encode() {
        if !has_objdump() {
            eprintln!("skipping: no objdump");
            return;
        }
        let mut a = Asm::new();
        // rsp base requires SIB; rbp/r13 base requires disp.
        a.mov_rm(W::W64, Reg::RAX, Mem::base(Reg::RSP, 8));
        a.mov_rm(W::W64, Reg::RAX, Mem::base(Reg::RBP, 0));
        a.mov_rm(W::W64, Reg::RAX, Mem::base(Reg::R13, 0));
        a.mov_rm(W::W64, Reg::RAX, Mem::base(Reg::R12, 0));
        a.mov_mr8(Mem::base(Reg::R14, 1), Reg::RSI);
        a.mov_mr16(Mem::base(Reg::R14, 2), Reg::RDI);
        let d = disasm(&a.finish());
        assert!(d.contains("mov    rax,QWORD PTR [rsp+0x8]"), "{d}");
        assert!(d.contains("mov    rax,QWORD PTR [rbp+0x0]"), "{d}");
        assert!(d.contains("mov    rax,QWORD PTR [r13+0x0]"), "{d}");
        assert!(d.contains("mov    rax,QWORD PTR [r12]"), "{d}");
        assert!(d.contains("mov    BYTE PTR [r14+0x1],sil"), "{d}");
        assert!(d.contains("mov    WORD PTR [r14+0x2],di"), "{d}");
    }
}
