//! Decoder for the JIT's x86-64 instruction vocabulary.
//!
//! Decodes exactly the encodings `crates/jit/src/asm.rs` can produce (see
//! [`crate::isa::Inst`]); anything else is a [`DecodeErr`]. Used by the
//! translation validator to lift emitted machine code back into analyzable
//! form, and by the decoder round-trip test in `lb-jit`.

use crate::isa::{AluRi, AluRr, BitCnt, Cc, Inst, Mem, Reg, ShiftOp, Xmm, W};

/// A decode failure at a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeErr {
    /// Offset of the undecodable instruction's first byte.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for DecodeErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at +{:#x}: {}", self.offset, self.reason)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    start: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> Result<T, DecodeErr> {
        Err(DecodeErr {
            offset: self.start,
            reason: reason.into(),
        })
    }

    fn u8(&mut self) -> Result<u8, DecodeErr> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.err("truncated instruction"),
        }
    }

    fn i32_(&mut self) -> Result<i32, DecodeErr> {
        let mut v = [0u8; 4];
        for b in &mut v {
            *b = self.u8()?;
        }
        Ok(i32::from_le_bytes(v))
    }

    fn i64_(&mut self) -> Result<i64, DecodeErr> {
        let mut v = [0u8; 8];
        for b in &mut v {
            *b = self.u8()?;
        }
        Ok(i64::from_le_bytes(v))
    }
}

#[derive(Clone, Copy, Default)]
struct Rex {
    present: bool,
    w: bool,
    r: bool,
    x: bool,
    b: bool,
}

/// A decoded ModRM operand: either a register or a memory operand.
enum Rm {
    Reg(u8),
    Mem(Mem),
}

fn ext(hi: bool, low: u8) -> Reg {
    Reg(low | (u8::from(hi) << 3))
}

/// Decode ModRM (+SIB +disp) with the given REX. Returns `(reg_field,
/// rm_operand)`; the reg field is already REX.R-extended.
fn modrm(c: &mut Cursor<'_>, rex: Rex) -> Result<(u8, Rm), DecodeErr> {
    let mb = c.u8()?;
    let mode = mb >> 6;
    let reg = ((mb >> 3) & 7) | (u8::from(rex.r) << 3);
    let rm = mb & 7;
    if mode == 3 {
        return Ok((reg, Rm::Reg(rm | (u8::from(rex.b) << 3))));
    }
    let (base, index) = if rm == 4 {
        let sib = c.u8()?;
        let scale = 1u8 << (sib >> 6);
        let idx_low = (sib >> 3) & 7;
        let base_low = sib & 7;
        if mode == 0 && base_low == 5 {
            return c.err("SIB with no base (mod=0, base=101) is not emitted");
        }
        let index_num = idx_low | (u8::from(rex.x) << 3);
        let index = if index_num == 4 {
            None
        } else {
            Some((Reg(index_num), scale))
        };
        (ext(rex.b, base_low), index)
    } else {
        if mode == 0 && rm == 5 {
            return c.err("RIP-relative addressing is not emitted");
        }
        (ext(rex.b, rm), None)
    };
    let disp = match mode {
        0 => 0,
        1 => i32::from(c.u8()? as i8),
        _ => c.i32_()?,
    };
    Ok((reg, Rm::Mem(Mem { base, index, disp })))
}

fn want_mem(c: &Cursor<'_>, rm: Rm) -> Result<Mem, DecodeErr> {
    match rm {
        Rm::Mem(m) => Ok(m),
        Rm::Reg(_) => c.err("expected a memory operand"),
    }
}

fn want_reg(c: &Cursor<'_>, rm: Rm) -> Result<u8, DecodeErr> {
    match rm {
        Rm::Reg(r) => Ok(r),
        Rm::Mem(_) => c.err("expected a register operand"),
    }
}

fn ww(rex: Rex) -> W {
    if rex.w {
        W::W64
    } else {
        W::W32
    }
}

/// Decode one instruction starting at `bytes[offset]`. Returns the
/// instruction and the offset just past it.
pub fn decode_one(bytes: &[u8], offset: usize) -> Result<(Inst, usize), DecodeErr> {
    let mut c = Cursor {
        bytes,
        start: offset,
        pos: offset,
    };
    // Mandatory prefixes (at most one in this vocabulary), then REX.
    let mut p66 = false;
    let mut pf2 = false;
    let mut pf3 = false;
    let mut op = c.u8()?;
    loop {
        match op {
            0x66 if !p66 => p66 = true,
            0xF2 if !pf2 => pf2 = true,
            0xF3 if !pf3 => pf3 = true,
            _ => break,
        }
        op = c.u8()?;
    }
    let mut rex = Rex::default();
    if (0x40..=0x4F).contains(&op) {
        rex = Rex {
            present: true,
            w: op & 8 != 0,
            r: op & 4 != 0,
            x: op & 2 != 0,
            b: op & 1 != 0,
        };
        op = c.u8()?;
    }
    let sse_prefix = u8::from(p66) + u8::from(pf2) + u8::from(pf3);
    if sse_prefix > 1 {
        return c.err("multiple mandatory prefixes");
    }

    let inst = match op {
        0x0F => decode_0f(&mut c, p66, pf2, pf3, rex)?,
        0x50..=0x57 if sse_prefix == 0 => Inst::Push {
            r: ext(rex.b, op - 0x50),
        },
        0x58..=0x5F if sse_prefix == 0 => Inst::Pop {
            r: ext(rex.b, op - 0x58),
        },
        0x63 if rex.w => {
            let (reg, rm) = modrm(&mut c, rex)?;
            match rm {
                Rm::Reg(r) => Inst::MovsxdR {
                    d: Reg(reg),
                    s: Reg(r),
                },
                Rm::Mem(m) => Inst::MovsxdM { d: Reg(reg), m },
            }
        }
        0x01 | 0x09 | 0x21 | 0x29 | 0x31 | 0x39 | 0x85 if sse_prefix == 0 => {
            let aop = match op {
                0x01 => AluRr::Add,
                0x09 => AluRr::Or,
                0x21 => AluRr::And,
                0x29 => AluRr::Sub,
                0x31 => AluRr::Xor,
                0x39 => AluRr::Cmp,
                _ => AluRr::Test,
            };
            let (reg, rm) = modrm(&mut c, rex)?;
            let d = want_reg(&c, rm)?;
            Inst::AluRr {
                w: ww(rex),
                op: aop,
                d: Reg(d),
                s: Reg(reg),
            }
        }
        0x3B if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let m = want_mem(&c, rm)?;
            Inst::CmpRm {
                w: ww(rex),
                d: Reg(reg),
                m,
            }
        }
        0x81 | 0x83 if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let d = want_reg(&c, rm)?;
            let aop = match reg & 7 {
                0 => AluRi::Add,
                1 => AluRi::Or,
                4 => AluRi::And,
                5 => AluRi::Sub,
                6 => AluRi::Xor,
                7 => AluRi::Cmp,
                other => return c.err(format!("ALU /{} immediate form is not emitted", other)),
            };
            let v = if op == 0x83 {
                i32::from(c.u8()? as i8)
            } else {
                c.i32_()?
            };
            Inst::AluRi {
                w: ww(rex),
                op: aop,
                d: Reg(d),
                v,
            }
        }
        0x69 | 0x6B if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let s = want_reg(&c, rm)?;
            let v = if op == 0x6B {
                i32::from(c.u8()? as i8)
            } else {
                c.i32_()?
            };
            Inst::ImulRi {
                w: ww(rex),
                d: Reg(reg),
                s: Reg(s),
                v,
            }
        }
        0x88 if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let m = want_mem(&c, rm)?;
            Inst::MovMr8 { m, s: Reg(reg) }
        }
        0x89 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            match rm {
                Rm::Reg(d) if !p66 => Inst::MovRr {
                    w: ww(rex),
                    d: Reg(d),
                    s: Reg(reg),
                },
                Rm::Mem(m) if p66 => Inst::MovMr16 { m, s: Reg(reg) },
                Rm::Mem(m) => Inst::MovMr {
                    w: ww(rex),
                    m,
                    s: Reg(reg),
                },
                Rm::Reg(_) => return c.err("16-bit register mov is not emitted"),
            }
        }
        0x8B if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let m = want_mem(&c, rm)?;
            Inst::MovRm {
                w: ww(rex),
                d: Reg(reg),
                m,
            }
        }
        0x8D if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let m = want_mem(&c, rm)?;
            Inst::Lea {
                w: ww(rex),
                d: Reg(reg),
                m,
            }
        }
        0x90 if sse_prefix == 0 && !rex.present => Inst::Nop,
        0x99 if sse_prefix == 0 => Inst::CdqCqo { w: ww(rex) },
        0xB8..=0xBF if sse_prefix == 0 => {
            let d = ext(rex.b, op - 0xB8);
            if rex.w {
                Inst::MovAbs { d, v: c.i64_()? }
            } else {
                Inst::MovRi32 { d, v: c.i32_()? }
            }
        }
        0xC1 | 0xD3 if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let d = want_reg(&c, rm)?;
            let sop = match reg & 7 {
                0 => ShiftOp::Rol,
                1 => ShiftOp::Ror,
                4 => ShiftOp::Shl,
                5 => ShiftOp::Shr,
                7 => ShiftOp::Sar,
                other => return c.err(format!("shift /{} is not emitted", other)),
            };
            if op == 0xC1 {
                let v = c.u8()?;
                Inst::ShiftImm {
                    w: ww(rex),
                    op: sop,
                    d: Reg(d),
                    v,
                }
            } else {
                Inst::ShiftCl {
                    w: ww(rex),
                    op: sop,
                    d: Reg(d),
                }
            }
        }
        0xC3 if sse_prefix == 0 => Inst::Ret,
        0xC7 if sse_prefix == 0 && rex.w => {
            let (reg, rm) = modrm(&mut c, rex)?;
            if reg & 7 != 0 {
                return c.err("C7 with a nonzero reg field is not emitted");
            }
            match rm {
                Rm::Reg(d) => Inst::MovRi64Sx {
                    d: Reg(d),
                    v: c.i32_()?,
                },
                Rm::Mem(_) => return c.err("C7 with a memory operand is not emitted"),
            }
        }
        0xE9 if sse_prefix == 0 => Inst::Jmp { rel: c.i32_()? },
        0xF7 if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            let d = want_reg(&c, rm)?;
            match reg & 7 {
                3 => Inst::Neg {
                    w: ww(rex),
                    d: Reg(d),
                },
                6 => Inst::Div {
                    w: ww(rex),
                    s: Reg(d),
                },
                7 => Inst::Idiv {
                    w: ww(rex),
                    s: Reg(d),
                },
                other => return c.err(format!("F7 /{} is not emitted", other)),
            }
        }
        0xFF if sse_prefix == 0 => {
            let (reg, rm) = modrm(&mut c, rex)?;
            if reg & 7 != 2 {
                return c.err(format!("FF /{} is not emitted", reg & 7));
            }
            match rm {
                Rm::Reg(r) => Inst::CallR { r: Reg(r) },
                Rm::Mem(m) => Inst::CallM { m },
            }
        }
        other => return c.err(format!("unknown opcode {other:#04x}")),
    };
    Ok((inst, c.pos))
}

/// Decode the two-byte (`0F ..`) opcode space.
fn decode_0f(
    c: &mut Cursor<'_>,
    p66: bool,
    pf2: bool,
    pf3: bool,
    rex: Rex,
) -> Result<Inst, DecodeErr> {
    let op = c.u8()?;
    let fp = pf2 || pf3; // one of the scalar-float prefixes
    let inst = match op {
        0x0B => Inst::Ud2Trap { code: c.u8()? },
        0x10 | 0x11 if fp => {
            let (reg, rm) = modrm(c, rex)?;
            let m = want_mem(c, rm)?;
            let x = Xmm(reg);
            if op == 0x10 {
                Inst::Fload {
                    double: pf2,
                    d: x,
                    m,
                }
            } else {
                Inst::Fstore {
                    double: pf2,
                    m,
                    s: x,
                }
            }
        }
        0x28 if !p66 && !fp => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::Fmov {
                d: Xmm(reg),
                s: Xmm(s),
            }
        }
        0x2A if fp => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::CvtI2f {
                double: pf2,
                w: ww(rex),
                d: Xmm(reg),
                s: Reg(s),
            }
        }
        0x2C if fp => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::CvttF2i {
                double: pf2,
                w: ww(rex),
                d: Reg(reg),
                s: Xmm(s),
            }
        }
        0x2E if !fp => {
            let (reg, rm) = modrm(c, rex)?;
            let b = want_reg(c, rm)?;
            Inst::Ucomis {
                double: p66,
                a: Xmm(reg),
                b: Xmm(b),
            }
        }
        0x3A => {
            let sub = c.u8()?;
            if !p66 || (sub != 0x0A && sub != 0x0B) {
                return c.err("only roundss/roundsd are emitted from 0F 3A");
            }
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            let mode = c.u8()?;
            Inst::Rounds {
                double: sub == 0x0B,
                d: Xmm(reg),
                s: Xmm(s),
                mode,
            }
        }
        0x40..=0x4F if !p66 && !fp => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::Cmov {
                w: ww(rex),
                cc: Cc::from_nibble(op - 0x40),
                d: Reg(reg),
                s: Reg(s),
            }
        }
        0x51 | 0x58 | 0x59 | 0x5C | 0x5E if fp => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::Farith {
                double: pf2,
                op,
                d: Xmm(reg),
                s: Xmm(s),
            }
        }
        0x5A if fp => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            if pf2 {
                Inst::CvtD2s {
                    d: Xmm(reg),
                    s: Xmm(s),
                }
            } else {
                Inst::CvtS2d {
                    d: Xmm(reg),
                    s: Xmm(s),
                }
            }
        }
        0x54..=0x57 if p66 => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::Fbit {
                op,
                d: Xmm(reg),
                s: Xmm(s),
            }
        }
        0x6E if p66 => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::MovqXr {
                w: ww(rex),
                d: Xmm(reg),
                s: Reg(s),
            }
        }
        0x7E if p66 => {
            let (reg, rm) = modrm(c, rex)?;
            let d = want_reg(c, rm)?;
            Inst::MovqRx {
                w: ww(rex),
                d: Reg(d),
                s: Xmm(reg),
            }
        }
        0x80..=0x8F if !p66 && !fp => Inst::Jcc {
            cc: Cc::from_nibble(op - 0x80),
            rel: c.i32_()?,
        },
        0x90..=0x9F if !p66 && !fp => {
            let (reg, rm) = modrm(c, rex)?;
            let d = want_reg(c, rm)?;
            if reg & 7 != 0 {
                return c.err("SETcc with a nonzero reg field is not emitted");
            }
            Inst::Setcc {
                cc: Cc::from_nibble(op - 0x90),
                d: Reg(d),
            }
        }
        0xAF if !p66 && !fp => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::ImulRr {
                w: ww(rex),
                d: Reg(reg),
                s: Reg(s),
            }
        }
        0xB6 | 0xB7 if !pf3 => {
            let (reg, rm) = modrm(c, rex)?;
            let m = want_mem(c, rm)?;
            if op == 0xB6 {
                Inst::Movzx8 { d: Reg(reg), m }
            } else {
                Inst::Movzx16 { d: Reg(reg), m }
            }
        }
        0xB8 | 0xBC | 0xBD if pf3 => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            let bop = match op {
                0xB8 => BitCnt::Popcnt,
                0xBC => BitCnt::Tzcnt,
                _ => BitCnt::Lzcnt,
            };
            Inst::BitCnt {
                w: ww(rex),
                op: bop,
                d: Reg(reg),
                s: Reg(s),
            }
        }
        0xBE | 0xBF if !pf3 => {
            let (reg, rm) = modrm(c, rex)?;
            let m = want_mem(c, rm)?;
            if op == 0xBE {
                Inst::Movsx8 {
                    w: ww(rex),
                    d: Reg(reg),
                    m,
                }
            } else {
                Inst::Movsx16 {
                    w: ww(rex),
                    d: Reg(reg),
                    m,
                }
            }
        }
        0xEF if p66 => {
            let (reg, rm) = modrm(c, rex)?;
            let s = want_reg(c, rm)?;
            Inst::Pxor {
                d: Xmm(reg),
                s: Xmm(s),
            }
        }
        other => return c.err(format!("unknown 0F opcode {other:#04x}")),
    };
    Ok(inst)
}

/// Decode an entire code region into `(offset, instruction)` pairs.
pub fn decode_all(bytes: &[u8]) -> Result<Vec<(usize, Inst)>, DecodeErr> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let (inst, next) = decode_one(bytes, pos)?;
        out.push((pos, inst));
        pos = next;
    }
    Ok(out)
}
