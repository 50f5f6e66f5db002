//! Core WebAssembly type definitions: value types, function signatures,
//! limits, and the types of memories, tables and globals.

use std::fmt;

/// One of WebAssembly's four primitive value types.
///
/// The paper (§2.1) notes: "There are only four value types in the language:
/// 32 and 64-bit variants of integers and floating point numbers."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValType {
    /// 32-bit integer (sign-agnostic).
    I32,
    /// 64-bit integer (sign-agnostic).
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
}

impl ValType {
    /// Size of a value of this type in bytes when stored in linear memory.
    pub const fn size_bytes(self) -> u32 {
        match self {
            ValType::I32 | ValType::F32 => 4,
            ValType::I64 | ValType::F64 => 8,
        }
    }

    /// Whether this is an integer type.
    pub const fn is_int(self) -> bool {
        matches!(self, ValType::I32 | ValType::I64)
    }

    /// Whether this is a floating-point type.
    pub const fn is_float(self) -> bool {
        matches!(self, ValType::F32 | ValType::F64)
    }

    /// The binary-format type byte (as in the wasm spec).
    pub const fn to_byte(self) -> u8 {
        match self {
            ValType::I32 => 0x7F,
            ValType::I64 => 0x7E,
            ValType::F32 => 0x7D,
            ValType::F64 => 0x7C,
        }
    }

    /// Parse a binary-format type byte.
    pub const fn from_byte(b: u8) -> Option<ValType> {
        match b {
            0x7F => Some(ValType::I32),
            0x7E => Some(ValType::I64),
            0x7D => Some(ValType::F32),
            0x7C => Some(ValType::F64),
            _ => None,
        }
    }
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
            ValType::F32 => "f32",
            ValType::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// A function signature: parameter types and result types.
///
/// The MVP subset implemented here allows at most one result, matching the
/// original WebAssembly specification the paper's runtimes targeted.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FuncType {
    /// Parameter value types, in order.
    pub params: Vec<ValType>,
    /// Result value types (0 or 1 entries in the MVP subset).
    pub results: Vec<ValType>,
}

impl FuncType {
    /// Create a new function type.
    pub fn new(params: Vec<ValType>, results: Vec<ValType>) -> FuncType {
        FuncType { params, results }
    }

    /// The single result type, if any.
    pub fn result(&self) -> Option<ValType> {
        self.results.first().copied()
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// Size limits for memories and tables, in units of pages or elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Initial size.
    pub min: u32,
    /// Optional maximum size.
    pub max: Option<u32>,
}

impl Limits {
    /// Create limits with the given minimum and optional maximum.
    pub fn new(min: u32, max: Option<u32>) -> Limits {
        Limits { min, max }
    }

    /// Whether `n` is within these limits.
    pub fn contains(&self, n: u32) -> bool {
        n >= self.min && self.max.is_none_or(|m| n <= m)
    }
}

/// The type of a linear memory: its limits in 64 KiB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryType {
    /// Page limits.
    pub limits: Limits,
}

/// Size of one WebAssembly page in bytes (64 KiB).
pub const PAGE_SIZE: usize = 65536;

/// Maximum number of pages addressable with a 32-bit pointer (4 GiB).
pub const MAX_PAGES: u32 = 65536;

/// The type of a function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableType {
    /// Element count limits.
    pub limits: Limits,
}

/// Mutability of a global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutability {
    /// The global may not be written after instantiation.
    Const,
    /// The global may be written with `global.set`.
    Var,
}

/// The type of a global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalType {
    /// The value type stored in the global.
    pub content: ValType,
    /// Whether the global is mutable.
    pub mutability: Mutability,
}

/// The type of a block/loop/if construct.
///
/// The MVP subset supports empty blocks and blocks producing one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockType {
    /// Block produces no values.
    #[default]
    Empty,
    /// Block produces a single value of the given type.
    Value(ValType),
}

impl BlockType {
    /// Number of results this block type produces (0 or 1).
    pub fn arity(self) -> usize {
        match self {
            BlockType::Empty => 0,
            BlockType::Value(_) => 1,
        }
    }

    /// The result type, if any.
    pub fn result(self) -> Option<ValType> {
        match self {
            BlockType::Empty => None,
            BlockType::Value(v) => Some(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_sizes() {
        assert_eq!(ValType::I32.size_bytes(), 4);
        assert_eq!(ValType::F32.size_bytes(), 4);
        assert_eq!(ValType::I64.size_bytes(), 8);
        assert_eq!(ValType::F64.size_bytes(), 8);
    }

    #[test]
    fn valtype_byte_roundtrip() {
        for t in [ValType::I32, ValType::I64, ValType::F32, ValType::F64] {
            assert_eq!(ValType::from_byte(t.to_byte()), Some(t));
        }
        assert_eq!(ValType::from_byte(0x00), None);
    }

    #[test]
    fn limits_contains() {
        let l = Limits::new(2, Some(10));
        assert!(!l.contains(1));
        assert!(l.contains(2));
        assert!(l.contains(10));
        assert!(!l.contains(11));
        let unbounded = Limits::new(0, None);
        assert!(unbounded.contains(u32::MAX));
    }

    #[test]
    fn functype_display() {
        let ft = FuncType::new(vec![ValType::I32, ValType::F64], vec![ValType::I64]);
        assert_eq!(ft.to_string(), "(i32, f64) -> (i64)");
        assert_eq!(ft.result(), Some(ValType::I64));
    }

    #[test]
    fn blocktype_arity() {
        assert_eq!(BlockType::Empty.arity(), 0);
        assert_eq!(BlockType::Value(ValType::F32).arity(), 1);
        assert_eq!(BlockType::Value(ValType::F32).result(), Some(ValType::F32));
    }
}
