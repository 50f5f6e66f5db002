//! Decoding of the standard WebAssembly binary format into a [`Module`].

use super::leb::Reader;
use crate::error::DecodeError;
use crate::instr::{BrTable, Instr, MemArg};
use crate::module::{
    DataSegment, ElemSegment, Export, ExportKind, Function, Global, Import, Module,
};
use crate::types::{
    BlockType, FuncType, GlobalType, Limits, MemoryType, Mutability, TableType, ValType,
};
use crate::value::Value;

/// Sanity cap on declared item counts, to reject hostile inputs early.
const MAX_COUNT: u64 = 1_000_000;

/// Decode a wasm binary into a [`Module`].
///
/// Only the MVP numeric subset produced by [`super::encode::encode`] is
/// supported; unknown opcodes and section kinds produce [`DecodeError`]s.
///
/// # Errors
/// Any malformed, truncated or unsupported input yields a [`DecodeError`].
pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.bytes(4)? != b"\0asm" {
        return Err(DecodeError::BadHeader);
    }
    let version = r.bytes(4)?;
    if version != [1, 0, 0, 0] {
        return Err(DecodeError::BadHeader);
    }

    let mut module = Module::new();
    let mut func_type_indices: Vec<u32> = Vec::new();
    let mut names: Vec<(u32, String)> = Vec::new();

    while !r.is_empty() {
        let id = r.byte()?;
        let size = r.u32()? as usize;
        let content = r.bytes(size)?;
        let mut s = Reader::new(content);
        match id {
            0 => {
                // Custom section: decode function names, ignore others.
                if let Ok(n) = s.name() {
                    if n == "name" {
                        let _ = decode_names(&mut s, &mut names);
                    }
                }
            }
            1 => {
                let count = checked_count(s.u32()?)?;
                for _ in 0..count {
                    if s.byte()? != 0x60 {
                        return Err(DecodeError::BadType(0x60));
                    }
                    let np = checked_count(s.u32()?)?;
                    let mut params = Vec::with_capacity(np as usize);
                    for _ in 0..np {
                        params.push(val_type(&mut s)?);
                    }
                    let nr = checked_count(s.u32()?)?;
                    let mut results = Vec::with_capacity(nr as usize);
                    for _ in 0..nr {
                        results.push(val_type(&mut s)?);
                    }
                    module.types.push(FuncType::new(params, results));
                }
            }
            2 => {
                let count = checked_count(s.u32()?)?;
                for _ in 0..count {
                    let imod = s.name()?;
                    let iname = s.name()?;
                    let kind = s.byte()?;
                    if kind != 0x00 {
                        return Err(DecodeError::BadSection(kind));
                    }
                    let type_idx = s.u32()?;
                    module.imports.push(Import {
                        module: imod,
                        name: iname,
                        type_idx,
                    });
                }
            }
            3 => {
                let count = checked_count(s.u32()?)?;
                for _ in 0..count {
                    func_type_indices.push(s.u32()?);
                }
            }
            4 => {
                let count = s.u32()?;
                if count > 1 {
                    return Err(DecodeError::BadCount(count as u64));
                }
                if count == 1 {
                    if s.byte()? != 0x70 {
                        return Err(DecodeError::BadType(0x70));
                    }
                    let l = decode_limits(&mut s)?;
                    module.table = Some(TableType { limits: l });
                }
            }
            5 => {
                let count = s.u32()?;
                if count > 1 {
                    return Err(DecodeError::BadCount(count as u64));
                }
                if count == 1 {
                    let l = decode_limits(&mut s)?;
                    module.memory = Some(MemoryType { limits: l });
                }
            }
            6 => {
                let count = checked_count(s.u32()?)?;
                for _ in 0..count {
                    let content_ty = val_type(&mut s)?;
                    let mutability = match s.byte()? {
                        0 => Mutability::Const,
                        1 => Mutability::Var,
                        b => return Err(DecodeError::BadType(b)),
                    };
                    let init = decode_const_expr(&mut s)?;
                    module.globals.push(Global {
                        ty: GlobalType {
                            content: content_ty,
                            mutability,
                        },
                        init,
                    });
                }
            }
            7 => {
                let count = checked_count(s.u32()?)?;
                for _ in 0..count {
                    let ename = s.name()?;
                    let kind = s.byte()?;
                    let idx = s.u32()?;
                    let kind = match kind {
                        0x00 => ExportKind::Func(idx),
                        0x01 => ExportKind::Table,
                        0x02 => ExportKind::Memory,
                        0x03 => ExportKind::Global(idx),
                        b => return Err(DecodeError::BadSection(b)),
                    };
                    module.exports.push(Export { name: ename, kind });
                }
            }
            8 => {
                module.start = Some(s.u32()?);
            }
            9 => {
                let count = checked_count(s.u32()?)?;
                for _ in 0..count {
                    let flags = s.u32()?;
                    if flags != 0 {
                        return Err(DecodeError::BadSection(9));
                    }
                    let offset = match decode_const_expr(&mut s)? {
                        Value::I32(v) => v as u32,
                        _ => return Err(DecodeError::BadType(0x41)),
                    };
                    let n = checked_count(s.u32()?)?;
                    let mut funcs = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        funcs.push(s.u32()?);
                    }
                    module.elems.push(ElemSegment { offset, funcs });
                }
            }
            10 => {
                let count = checked_count(s.u32()?)?;
                if count as usize != func_type_indices.len() {
                    return Err(DecodeError::SectionSize);
                }
                for type_idx in &func_type_indices {
                    let body_size = s.u32()? as usize;
                    let body_bytes = s.bytes(body_size)?;
                    let mut b = Reader::new(body_bytes);
                    let nlocals = checked_count(b.u32()?)?;
                    let mut locals = Vec::new();
                    for _ in 0..nlocals {
                        let n = checked_count(b.u32()?)?;
                        let t = val_type(&mut b)?;
                        for _ in 0..n {
                            locals.push(t);
                        }
                    }
                    let mut body = Vec::new();
                    while !b.is_empty() {
                        body.push(decode_instr(&mut b)?);
                    }
                    if body.last() != Some(&Instr::End) {
                        return Err(DecodeError::SectionSize);
                    }
                    module
                        .functions
                        .push(Function::new(*type_idx, locals, body));
                }
            }
            11 => {
                let count = checked_count(s.u32()?)?;
                for _ in 0..count {
                    let flags = s.u32()?;
                    if flags != 0 {
                        return Err(DecodeError::BadSection(11));
                    }
                    let offset = match decode_const_expr(&mut s)? {
                        Value::I32(v) => v as u32,
                        _ => return Err(DecodeError::BadType(0x41)),
                    };
                    let n = s.u32()? as usize;
                    let bytes = s.bytes(n)?.to_vec();
                    module.data.push(DataSegment { offset, bytes });
                }
            }
            other => return Err(DecodeError::BadSection(other)),
        }
    }

    // Attach decoded debug names.
    let ni = module.num_imported_funcs();
    for (idx, n) in names {
        if let Some(f) = idx
            .checked_sub(ni)
            .and_then(|i| module.functions.get_mut(i as usize))
        {
            f.name = Some(n);
        }
    }
    Ok(module)
}

fn checked_count(n: u32) -> Result<u32, DecodeError> {
    if u64::from(n) > MAX_COUNT {
        return Err(DecodeError::BadCount(u64::from(n)));
    }
    Ok(n)
}

fn decode_names(s: &mut Reader<'_>, out: &mut Vec<(u32, String)>) -> Result<(), DecodeError> {
    while !s.is_empty() {
        let sub_id = s.byte()?;
        let sub_len = s.u32()? as usize;
        let content = s.bytes(sub_len)?;
        if sub_id == 1 {
            let mut r = Reader::new(content);
            let count = checked_count(r.u32()?)?;
            for _ in 0..count {
                let idx = r.u32()?;
                let n = r.name()?;
                out.push((idx, n));
            }
        }
    }
    Ok(())
}

fn val_type(s: &mut Reader<'_>) -> Result<ValType, DecodeError> {
    let b = s.byte()?;
    ValType::from_byte(b).ok_or(DecodeError::BadType(b))
}

fn decode_limits(s: &mut Reader<'_>) -> Result<Limits, DecodeError> {
    match s.byte()? {
        0x00 => Ok(Limits::new(s.u32()?, None)),
        0x01 => {
            let min = s.u32()?;
            let max = s.u32()?;
            Ok(Limits::new(min, Some(max)))
        }
        b => Err(DecodeError::BadType(b)),
    }
}

fn decode_const_expr(s: &mut Reader<'_>) -> Result<Value, DecodeError> {
    let op = s.byte()?;
    let v = match op {
        0x41 => Value::I32(s.i32()?),
        0x42 => Value::I64(s.i64()?),
        0x43 => Value::F32(s.f32()?),
        0x44 => Value::F64(s.f64()?),
        b => return Err(DecodeError::BadOpcode(b)),
    };
    if s.byte()? != 0x0B {
        return Err(DecodeError::BadOpcode(op));
    }
    Ok(v)
}

fn block_type(s: &mut Reader<'_>) -> Result<BlockType, DecodeError> {
    let b = s.byte()?;
    if b == 0x40 {
        Ok(BlockType::Empty)
    } else {
        ValType::from_byte(b)
            .map(BlockType::Value)
            .ok_or(DecodeError::BadType(b))
    }
}

fn memarg(s: &mut Reader<'_>) -> Result<MemArg, DecodeError> {
    let align = s.u32()?;
    let offset = s.u32()?;
    Ok(MemArg { align, offset })
}

/// Decode a single instruction.
pub fn decode_instr(s: &mut Reader<'_>) -> Result<Instr, DecodeError> {
    use Instr::*;
    let op = s.byte()?;
    Ok(match op {
        0x00 => Unreachable,
        0x01 => Nop,
        0x02 => Block(block_type(s)?),
        0x03 => Loop(block_type(s)?),
        0x04 => If(block_type(s)?),
        0x05 => Else,
        0x0B => End,
        0x0C => Br(s.u32()?),
        0x0D => BrIf(s.u32()?),
        0x0E => {
            let n = checked_count(s.u32()?)?;
            let mut targets = Vec::with_capacity(n as usize);
            for _ in 0..n {
                targets.push(s.u32()?);
            }
            let default = s.u32()?;
            BrTable(Box::new(crate::instr::BrTable { targets, default }))
        }
        0x0F => Return,
        0x10 => Call(s.u32()?),
        0x11 => {
            let t = s.u32()?;
            let table = s.byte()?;
            if table != 0 {
                return Err(DecodeError::BadOpcode(op));
            }
            CallIndirect(t)
        }
        0x1A => Drop,
        0x1B => Select,
        0x20 => LocalGet(s.u32()?),
        0x21 => LocalSet(s.u32()?),
        0x22 => LocalTee(s.u32()?),
        0x23 => GlobalGet(s.u32()?),
        0x24 => GlobalSet(s.u32()?),
        0x28 => I32Load(memarg(s)?),
        0x29 => I64Load(memarg(s)?),
        0x2A => F32Load(memarg(s)?),
        0x2B => F64Load(memarg(s)?),
        0x2C => I32Load8S(memarg(s)?),
        0x2D => I32Load8U(memarg(s)?),
        0x2E => I32Load16S(memarg(s)?),
        0x2F => I32Load16U(memarg(s)?),
        0x30 => I64Load8S(memarg(s)?),
        0x31 => I64Load8U(memarg(s)?),
        0x32 => I64Load16S(memarg(s)?),
        0x33 => I64Load16U(memarg(s)?),
        0x34 => I64Load32S(memarg(s)?),
        0x35 => I64Load32U(memarg(s)?),
        0x36 => I32Store(memarg(s)?),
        0x37 => I64Store(memarg(s)?),
        0x38 => F32Store(memarg(s)?),
        0x39 => F64Store(memarg(s)?),
        0x3A => I32Store8(memarg(s)?),
        0x3B => I32Store16(memarg(s)?),
        0x3C => I64Store8(memarg(s)?),
        0x3D => I64Store16(memarg(s)?),
        0x3E => I64Store32(memarg(s)?),
        0x3F => {
            if s.byte()? != 0 {
                return Err(DecodeError::BadOpcode(op));
            }
            MemorySize
        }
        0x40 => {
            if s.byte()? != 0 {
                return Err(DecodeError::BadOpcode(op));
            }
            MemoryGrow
        }
        0x41 => I32Const(s.i32()?),
        0x42 => I64Const(s.i64()?),
        0x43 => F32Const(s.f32()?),
        0x44 => F64Const(s.f64()?),
        0x45 => I32Eqz,
        0x46 => I32Eq,
        0x47 => I32Ne,
        0x48 => I32LtS,
        0x49 => I32LtU,
        0x4A => I32GtS,
        0x4B => I32GtU,
        0x4C => I32LeS,
        0x4D => I32LeU,
        0x4E => I32GeS,
        0x4F => I32GeU,
        0x50 => I64Eqz,
        0x51 => I64Eq,
        0x52 => I64Ne,
        0x53 => I64LtS,
        0x54 => I64LtU,
        0x55 => I64GtS,
        0x56 => I64GtU,
        0x57 => I64LeS,
        0x58 => I64LeU,
        0x59 => I64GeS,
        0x5A => I64GeU,
        0x5B => F32Eq,
        0x5C => F32Ne,
        0x5D => F32Lt,
        0x5E => F32Gt,
        0x5F => F32Le,
        0x60 => F32Ge,
        0x61 => F64Eq,
        0x62 => F64Ne,
        0x63 => F64Lt,
        0x64 => F64Gt,
        0x65 => F64Le,
        0x66 => F64Ge,
        0x67 => I32Clz,
        0x68 => I32Ctz,
        0x69 => I32Popcnt,
        0x6A => I32Add,
        0x6B => I32Sub,
        0x6C => I32Mul,
        0x6D => I32DivS,
        0x6E => I32DivU,
        0x6F => I32RemS,
        0x70 => I32RemU,
        0x71 => I32And,
        0x72 => I32Or,
        0x73 => I32Xor,
        0x74 => I32Shl,
        0x75 => I32ShrS,
        0x76 => I32ShrU,
        0x77 => I32Rotl,
        0x78 => I32Rotr,
        0x79 => I64Clz,
        0x7A => I64Ctz,
        0x7B => I64Popcnt,
        0x7C => I64Add,
        0x7D => I64Sub,
        0x7E => I64Mul,
        0x7F => I64DivS,
        0x80 => I64DivU,
        0x81 => I64RemS,
        0x82 => I64RemU,
        0x83 => I64And,
        0x84 => I64Or,
        0x85 => I64Xor,
        0x86 => I64Shl,
        0x87 => I64ShrS,
        0x88 => I64ShrU,
        0x89 => I64Rotl,
        0x8A => I64Rotr,
        0x8B => F32Abs,
        0x8C => F32Neg,
        0x8D => F32Ceil,
        0x8E => F32Floor,
        0x8F => F32Trunc,
        0x90 => F32Nearest,
        0x91 => F32Sqrt,
        0x92 => F32Add,
        0x93 => F32Sub,
        0x94 => F32Mul,
        0x95 => F32Div,
        0x96 => F32Min,
        0x97 => F32Max,
        0x98 => F32Copysign,
        0x99 => F64Abs,
        0x9A => F64Neg,
        0x9B => F64Ceil,
        0x9C => F64Floor,
        0x9D => F64Trunc,
        0x9E => F64Nearest,
        0x9F => F64Sqrt,
        0xA0 => F64Add,
        0xA1 => F64Sub,
        0xA2 => F64Mul,
        0xA3 => F64Div,
        0xA4 => F64Min,
        0xA5 => F64Max,
        0xA6 => F64Copysign,
        0xA7 => I32WrapI64,
        0xA8 => I32TruncF32S,
        0xA9 => I32TruncF32U,
        0xAA => I32TruncF64S,
        0xAB => I32TruncF64U,
        0xAC => I64ExtendI32S,
        0xAD => I64ExtendI32U,
        0xAE => I64TruncF32S,
        0xAF => I64TruncF32U,
        0xB0 => I64TruncF64S,
        0xB1 => I64TruncF64U,
        0xB2 => F32ConvertI32S,
        0xB3 => F32ConvertI32U,
        0xB4 => F32ConvertI64S,
        0xB5 => F32ConvertI64U,
        0xB6 => F32DemoteF64,
        0xB7 => F64ConvertI32S,
        0xB8 => F64ConvertI32U,
        0xB9 => F64ConvertI64S,
        0xBA => F64ConvertI64U,
        0xBB => F64PromoteF32,
        0xBC => I32ReinterpretF32,
        0xBD => I64ReinterpretF64,
        0xBE => F32ReinterpretI32,
        0xBF => F64ReinterpretI64,
        other => return Err(DecodeError::BadOpcode(other)),
    })
}

// Silence an unused-import lint when BrTable is only used qualified above.
#[allow(unused_imports)]
use BrTable as _BrTableAlias;
