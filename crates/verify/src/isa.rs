//! The x86-64 instruction vocabulary of the JIT, as data.
//!
//! `lb-jit`'s assembler (`crates/jit/src/asm.rs`) is a set of *emitter
//! methods*; this module is the same vocabulary as an *instruction type*
//! plus an independent re-encoder. The decoder ([`crate::decode`]) maps
//! bytes to [`Inst`]; [`encode`] maps [`Inst`] back to bytes. The pair is
//! round-trippable on everything the JIT emits: `encode(decode(bytes)) ==
//! bytes`, which the decoder round-trip test in `lb-jit` asserts for every
//! public emitter.
//!
//! The types deliberately do not depend on `lb-jit` (the dependency runs
//! the other way: the JIT calls into the verifier as a post-codegen pass),
//! so register/memory/condition types are redeclared here with identical
//! encodings.

/// A general-purpose register (hardware number 0–15).
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

    pub(crate) fn low(self) -> u8 {
        self.0 & 7
    }

    pub(crate) fn hi(self) -> bool {
        self.0 >= 8
    }
}

/// An SSE register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xmm(pub u8);

impl Xmm {
    pub(crate) fn low(self) -> u8 {
        self.0 & 7
    }

    pub(crate) fn hi(self) -> bool {
        self.0 >= 8
    }
}

/// A memory operand `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mem {
    /// Base register.
    pub base: Reg,
    /// Optional `(index, scale)`; scale ∈ {1, 2, 4, 8}.
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

impl Cc {
    /// The condition for a `cc` nibble value.
    pub fn from_nibble(n: u8) -> Cc {
        use Cc::*;
        match n & 0xF {
            0x0 => O,
            0x1 => No,
            0x2 => B,
            0x3 => Ae,
            0x4 => E,
            0x5 => Ne,
            0x6 => Be,
            0x7 => A,
            0x8 => S,
            0x9 => Ns,
            0xA => P,
            0xB => Np,
            0xC => L,
            0xD => Ge,
            0xE => Le,
            _ => G,
        }
    }
}

/// Operand width for integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum W {
    /// 32-bit (upper half zeroed by the CPU).
    W32,
    /// 64-bit.
    W64,
}

/// Two-register ALU opcodes (the `op` byte of the JIT's `alu_rr` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluRr {
    Add = 0x01,
    Sub = 0x29,
    And = 0x21,
    Or = 0x09,
    Xor = 0x31,
    Cmp = 0x39,
    Test = 0x85,
}

/// Register-immediate ALU opcodes (the ModRM extension of `alu_ri`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluRi {
    Add = 0,
    Or = 1,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

/// Shift/rotate opcodes (the ModRM extension of `shift_cl`/`shift_imm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ShiftOp {
    Rol = 0,
    Ror = 1,
    Shl = 4,
    Shr = 5,
    Sar = 7,
}

/// `F3 0F ..` bit-count opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BitCnt {
    Popcnt = 0xB8,
    Tzcnt = 0xBC,
    Lzcnt = 0xBD,
}

/// One decoded instruction: exactly the shapes `lb-jit`'s `Asm` can emit,
/// one variant per emitter (families that share an emitter share a
/// variant). Branch displacements are kept as raw `rel32` values relative
/// to the *end* of the instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Inst {
    /// `mov r32, imm32` (zero-extends; also `mov_ri64` with a small value).
    MovRi32 {
        d: Reg,
        v: i32,
    },
    /// `mov r/m64, imm32` sign-extended (`REX.W C7 /0`).
    MovRi64Sx {
        d: Reg,
        v: i32,
    },
    /// `movabs r64, imm64`.
    MovAbs {
        d: Reg,
        v: i64,
    },
    MovRr {
        w: W,
        d: Reg,
        s: Reg,
    },
    MovRm {
        w: W,
        d: Reg,
        m: Mem,
    },
    MovMr {
        w: W,
        m: Mem,
        s: Reg,
    },
    MovMr8 {
        m: Mem,
        s: Reg,
    },
    MovMr16 {
        m: Mem,
        s: Reg,
    },
    Movzx8 {
        d: Reg,
        m: Mem,
    },
    Movzx16 {
        d: Reg,
        m: Mem,
    },
    Movsx8 {
        w: W,
        d: Reg,
        m: Mem,
    },
    Movsx16 {
        w: W,
        d: Reg,
        m: Mem,
    },
    MovsxdM {
        d: Reg,
        m: Mem,
    },
    MovsxdR {
        d: Reg,
        s: Reg,
    },
    AluRr {
        w: W,
        op: AluRr,
        d: Reg,
        s: Reg,
    },
    /// `op d, imm8` (sign-extended) or `op d, imm32`; `imm8` records which
    /// encoding was used so re-encoding is bit-identical.
    AluRi {
        w: W,
        op: AluRi,
        d: Reg,
        v: i32,
    },
    CmpRm {
        w: W,
        d: Reg,
        m: Mem,
    },
    ImulRr {
        w: W,
        d: Reg,
        s: Reg,
    },
    /// `imul d, s, imm8` (`6B`) or `imul d, s, imm32` (`69`); the
    /// encoding follows from the value, as for [`Inst::AluRi`].
    ImulRi {
        w: W,
        d: Reg,
        s: Reg,
        v: i32,
    },
    Neg {
        w: W,
        d: Reg,
    },
    CdqCqo {
        w: W,
    },
    Idiv {
        w: W,
        s: Reg,
    },
    Div {
        w: W,
        s: Reg,
    },
    ShiftCl {
        w: W,
        op: ShiftOp,
        d: Reg,
    },
    ShiftImm {
        w: W,
        op: ShiftOp,
        d: Reg,
        v: u8,
    },
    Lea {
        w: W,
        d: Reg,
        m: Mem,
    },
    BitCnt {
        w: W,
        op: BitCnt,
        d: Reg,
        s: Reg,
    },
    Setcc {
        cc: Cc,
        d: Reg,
    },
    Cmov {
        w: W,
        cc: Cc,
        d: Reg,
        s: Reg,
    },
    Jcc {
        cc: Cc,
        rel: i32,
    },
    Jmp {
        rel: i32,
    },
    CallR {
        r: Reg,
    },
    CallM {
        m: Mem,
    },
    Ret,
    Push {
        r: Reg,
    },
    Pop {
        r: Reg,
    },
    /// `ud2` + trap-code payload byte (read by the signal handler).
    Ud2Trap {
        code: u8,
    },
    Nop,
    Fload {
        double: bool,
        d: Xmm,
        m: Mem,
    },
    Fstore {
        double: bool,
        m: Mem,
        s: Xmm,
    },
    Fmov {
        d: Xmm,
        s: Xmm,
    },
    /// addsd/subsd/mulsd/divsd/sqrtsd (and the ss forms): op ∈
    /// {0x58, 0x5C, 0x59, 0x5E, 0x51}.
    Farith {
        double: bool,
        op: u8,
        d: Xmm,
        s: Xmm,
    },
    Ucomis {
        double: bool,
        a: Xmm,
        b: Xmm,
    },
    CvttF2i {
        double: bool,
        w: W,
        d: Reg,
        s: Xmm,
    },
    CvtI2f {
        double: bool,
        w: W,
        d: Xmm,
        s: Reg,
    },
    CvtD2s {
        d: Xmm,
        s: Xmm,
    },
    CvtS2d {
        d: Xmm,
        s: Xmm,
    },
    MovqXr {
        w: W,
        d: Xmm,
        s: Reg,
    },
    MovqRx {
        w: W,
        d: Reg,
        s: Xmm,
    },
    Rounds {
        double: bool,
        d: Xmm,
        s: Xmm,
        mode: u8,
    },
    Pxor {
        d: Xmm,
        s: Xmm,
    },
    /// andpd/andnpd/orpd/xorpd: op ∈ {0x54, 0x55, 0x56, 0x57}.
    Fbit {
        op: u8,
        d: Xmm,
        s: Xmm,
    },
}

// ── independent re-encoder ───────────────────────────────────────────────
//
// Mirrors the encoding rules of `crates/jit/src/asm.rs` byte for byte, but
// is written against the `Inst` type so the decoder can be validated
// without a dependency on the JIT.

struct Enc {
    out: Vec<u8>,
}

impl Enc {
    fn b(&mut self, byte: u8) {
        self.out.push(byte);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.out.extend_from_slice(bs);
    }

    fn i32_(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    fn rex(&mut self, w: bool, r: bool, x: bool, b: bool, force: bool) {
        let v = 0x40 | (u8::from(w) << 3) | (u8::from(r) << 2) | (u8::from(x) << 1) | u8::from(b);
        if v != 0x40 || force {
            self.b(v);
        }
    }

    fn modrm(&mut self, mode: u8, reg: u8, rm: u8) {
        self.b((mode << 6) | (reg << 3) | rm);
    }

    fn mem_operand(&mut self, reg_field: u8, m: Mem) {
        let need_sib = m.index.is_some() || m.base.low() == 4;
        let mode = if m.disp == 0 && m.base.low() != 5 {
            0u8
        } else if i8::try_from(m.disp).is_ok() {
            1u8
        } else {
            2u8
        };
        if need_sib {
            self.modrm(mode, reg_field, 4);
            let (idx, scale) = match m.index {
                Some((r, s)) => {
                    let ss = match s {
                        1 => 0u8,
                        2 => 1,
                        4 => 2,
                        8 => 3,
                        _ => 0,
                    };
                    (r.low(), ss)
                }
                None => (4u8, 0u8),
            };
            self.b((scale << 6) | (idx << 3) | m.base.low());
        } else {
            self.modrm(mode, reg_field, m.base.low());
        }
        if mode == 1 {
            self.b(m.disp as i8 as u8);
        } else if mode == 2 {
            self.i32_(m.disp);
        }
    }

    fn rex_mem(&mut self, w: bool, reg_hi: bool, m: Mem, force: bool) {
        let x = m.index.map(|(r, _)| r.hi()).unwrap_or(false);
        self.rex(w, reg_hi, x, m.base.hi(), force);
    }

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
}

fn w64(w: W) -> bool {
    w == W::W64
}

/// Encode one instruction, appending its bytes to `out`. Branch relatives
/// are emitted as stored in the variant.
pub fn encode(inst: &Inst, out: &mut Vec<u8>) {
    let mut e = Enc {
        out: std::mem::take(out),
    };
    match *inst {
        Inst::MovRi32 { d, v } => {
            e.rex(false, false, false, d.hi(), false);
            e.b(0xB8 + d.low());
            e.i32_(v);
        }
        Inst::MovRi64Sx { d, v } => {
            e.rex(true, false, false, d.hi(), false);
            e.b(0xC7);
            e.modrm(3, 0, d.low());
            e.i32_(v);
        }
        Inst::MovAbs { d, v } => {
            e.rex(true, false, false, d.hi(), false);
            e.b(0xB8 + d.low());
            e.bytes(&v.to_le_bytes());
        }
        Inst::MovRr { w, d, s } => {
            e.rex(w64(w), s.hi(), false, d.hi(), false);
            e.b(0x89);
            e.modrm(3, s.low(), d.low());
        }
        Inst::MovRm { w, d, m } => {
            e.rex_mem(w64(w), d.hi(), m, false);
            e.b(0x8B);
            e.mem_operand(d.low(), m);
        }
        Inst::MovMr { w, m, s } => {
            e.rex_mem(w64(w), s.hi(), m, false);
            e.b(0x89);
            e.mem_operand(s.low(), m);
        }
        Inst::MovMr8 { m, s } => {
            let force = s.low() >= 4;
            e.rex_mem(false, s.hi(), m, force);
            e.b(0x88);
            e.mem_operand(s.low(), m);
        }
        Inst::MovMr16 { m, s } => {
            e.b(0x66);
            e.rex_mem(false, s.hi(), m, false);
            e.b(0x89);
            e.mem_operand(s.low(), m);
        }
        Inst::Movzx8 { d, m } => {
            e.rex_mem(false, d.hi(), m, false);
            e.bytes(&[0x0F, 0xB6]);
            e.mem_operand(d.low(), m);
        }
        Inst::Movzx16 { d, m } => {
            e.rex_mem(false, d.hi(), m, false);
            e.bytes(&[0x0F, 0xB7]);
            e.mem_operand(d.low(), m);
        }
        Inst::Movsx8 { w, d, m } => {
            e.rex_mem(w64(w), d.hi(), m, false);
            e.bytes(&[0x0F, 0xBE]);
            e.mem_operand(d.low(), m);
        }
        Inst::Movsx16 { w, d, m } => {
            e.rex_mem(w64(w), d.hi(), m, false);
            e.bytes(&[0x0F, 0xBF]);
            e.mem_operand(d.low(), m);
        }
        Inst::MovsxdM { d, m } => {
            e.rex_mem(true, d.hi(), m, false);
            e.b(0x63);
            e.mem_operand(d.low(), m);
        }
        Inst::MovsxdR { d, s } => {
            e.rex(true, d.hi(), false, s.hi(), false);
            e.b(0x63);
            e.modrm(3, d.low(), s.low());
        }
        Inst::AluRr { w, op, d, s } => {
            e.rex(w64(w), s.hi(), false, d.hi(), false);
            e.b(op as u8);
            e.modrm(3, s.low(), d.low());
        }
        Inst::AluRi { w, op, d, v } => {
            e.rex(w64(w), false, false, d.hi(), false);
            if i8::try_from(v).is_ok() {
                e.b(0x83);
                e.modrm(3, op as u8, d.low());
                e.b(v as i8 as u8);
            } else {
                e.b(0x81);
                e.modrm(3, op as u8, d.low());
                e.i32_(v);
            }
        }
        Inst::CmpRm { w, d, m } => {
            e.rex_mem(w64(w), d.hi(), m, false);
            e.b(0x3B);
            e.mem_operand(d.low(), m);
        }
        Inst::ImulRr { w, d, s } => {
            e.rex(w64(w), d.hi(), false, s.hi(), false);
            e.bytes(&[0x0F, 0xAF]);
            e.modrm(3, d.low(), s.low());
        }
        Inst::ImulRi { w, d, s, v } => {
            e.rex(w64(w), d.hi(), false, s.hi(), false);
            if i8::try_from(v).is_ok() {
                e.b(0x6B);
                e.modrm(3, d.low(), s.low());
                e.b(v as i8 as u8);
            } else {
                e.b(0x69);
                e.modrm(3, d.low(), s.low());
                e.i32_(v);
            }
        }
        Inst::Neg { w, d } => {
            e.rex(w64(w), false, false, d.hi(), false);
            e.b(0xF7);
            e.modrm(3, 3, d.low());
        }
        Inst::CdqCqo { w } => {
            if w == W::W64 {
                e.b(0x48);
            }
            e.b(0x99);
        }
        Inst::Idiv { w, s } => {
            e.rex(w64(w), false, false, s.hi(), false);
            e.b(0xF7);
            e.modrm(3, 7, s.low());
        }
        Inst::Div { w, s } => {
            e.rex(w64(w), false, false, s.hi(), false);
            e.b(0xF7);
            e.modrm(3, 6, s.low());
        }
        Inst::ShiftCl { w, op, d } => {
            e.rex(w64(w), false, false, d.hi(), false);
            e.b(0xD3);
            e.modrm(3, op as u8, d.low());
        }
        Inst::ShiftImm { w, op, d, v } => {
            e.rex(w64(w), false, false, d.hi(), false);
            e.b(0xC1);
            e.modrm(3, op as u8, d.low());
            e.b(v);
        }
        Inst::Lea { w, d, m } => {
            e.rex_mem(w64(w), d.hi(), m, false);
            e.b(0x8D);
            e.mem_operand(d.low(), m);
        }
        Inst::BitCnt { w, op, d, s } => {
            e.b(0xF3);
            e.rex(w64(w), d.hi(), false, s.hi(), false);
            e.bytes(&[0x0F, op as u8]);
            e.modrm(3, d.low(), s.low());
        }
        Inst::Setcc { cc, d } => {
            let force = d.low() >= 4;
            e.rex(false, false, false, d.hi(), force);
            e.bytes(&[0x0F, 0x90 + cc as u8]);
            e.modrm(3, 0, d.low());
        }
        Inst::Cmov { w, cc, d, s } => {
            e.rex(w64(w), d.hi(), false, s.hi(), false);
            e.bytes(&[0x0F, 0x40 + cc as u8]);
            e.modrm(3, d.low(), s.low());
        }
        Inst::Jcc { cc, rel } => {
            e.bytes(&[0x0F, 0x80 + cc as u8]);
            e.i32_(rel);
        }
        Inst::Jmp { rel } => {
            e.b(0xE9);
            e.i32_(rel);
        }
        Inst::CallR { r } => {
            e.rex(false, false, false, r.hi(), false);
            e.b(0xFF);
            e.modrm(3, 2, r.low());
        }
        Inst::CallM { m } => {
            e.rex_mem(false, false, m, false);
            e.b(0xFF);
            e.mem_operand(2, m);
        }
        Inst::Ret => e.b(0xC3),
        Inst::Push { r } => {
            e.rex(false, false, false, r.hi(), false);
            e.b(0x50 + r.low());
        }
        Inst::Pop { r } => {
            e.rex(false, false, false, r.hi(), false);
            e.b(0x58 + r.low());
        }
        Inst::Ud2Trap { code } => e.bytes(&[0x0F, 0x0B, code]),
        Inst::Nop => e.b(0x90),
        Inst::Fload { double, d, m } => {
            let p = if double { 0xF2 } else { 0xF3 };
            e.sse_rm(Some(p), &[0x0F, 0x10], d, m, false);
        }
        Inst::Fstore { double, m, s } => {
            let p = if double { 0xF2 } else { 0xF3 };
            e.sse_rm(Some(p), &[0x0F, 0x11], s, m, false);
        }
        Inst::Fmov { d, s } => e.sse_rr(None, &[0x0F, 0x28], d, s, false),
        Inst::Farith { double, op, d, s } => {
            let p = if double { 0xF2 } else { 0xF3 };
            e.sse_rr(Some(p), &[0x0F, op], d, s, false);
        }
        Inst::Ucomis { double, a, b } => {
            if double {
                e.sse_rr(Some(0x66), &[0x0F, 0x2E], a, b, false);
            } else {
                e.sse_rr(None, &[0x0F, 0x2E], a, b, false);
            }
        }
        Inst::CvttF2i { double, w, d, s } => {
            e.b(if double { 0xF2 } else { 0xF3 });
            e.rex(w64(w), d.hi(), false, s.hi(), false);
            e.bytes(&[0x0F, 0x2C]);
            e.modrm(3, d.low(), s.low());
        }
        Inst::CvtI2f { double, w, d, s } => {
            e.b(if double { 0xF2 } else { 0xF3 });
            e.rex(w64(w), d.hi(), false, s.hi(), false);
            e.bytes(&[0x0F, 0x2A]);
            e.modrm(3, d.low(), s.low());
        }
        Inst::CvtD2s { d, s } => e.sse_rr(Some(0xF2), &[0x0F, 0x5A], d, s, false),
        Inst::CvtS2d { d, s } => e.sse_rr(Some(0xF3), &[0x0F, 0x5A], d, s, false),
        Inst::MovqXr { w, d, s } => {
            e.b(0x66);
            e.rex(w64(w), d.hi(), false, s.hi(), false);
            e.bytes(&[0x0F, 0x6E]);
            e.modrm(3, d.low(), s.low());
        }
        Inst::MovqRx { w, d, s } => {
            e.b(0x66);
            e.rex(w64(w), s.hi(), false, d.hi(), false);
            e.bytes(&[0x0F, 0x7E]);
            e.modrm(3, s.low(), d.low());
        }
        Inst::Rounds { double, d, s, mode } => {
            e.b(0x66);
            e.rex(false, d.hi(), false, s.hi(), false);
            e.bytes(&[0x0F, 0x3A, if double { 0x0B } else { 0x0A }]);
            e.modrm(3, d.low(), s.low());
            e.b(mode);
        }
        Inst::Pxor { d, s } => e.sse_rr(Some(0x66), &[0x0F, 0xEF], d, s, false),
        Inst::Fbit { op, d, s } => e.sse_rr(Some(0x66), &[0x0F, op], d, s, false),
    }
    *out = e.out;
}

/// Encode a single instruction into a fresh byte vector.
pub fn encode_one(inst: &Inst) -> Vec<u8> {
    let mut out = Vec::new();
    encode(inst, &mut out);
    out
}
