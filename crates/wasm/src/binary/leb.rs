//! LEB128 variable-length integer encoding, as used by the wasm binary format.

use crate::error::DecodeError;

/// Append an unsigned LEB128 integer to `out`.
pub fn write_u32(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append an unsigned 64-bit LEB128 integer to `out`.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a signed LEB128 integer to `out`.
pub fn write_i32(out: &mut Vec<u8>, v: i32) {
    write_i64(out, v as i64);
}

/// Append a signed 64-bit LEB128 integer to `out`.
pub fn write_i64(out: &mut Vec<u8>, mut v: i64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        let sign_clear = byte & 0x40 == 0;
        if (v == 0 && sign_clear) || (v == -1 && !sign_clear) {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A cursor over a byte slice for decoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current byte position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    ///
    /// # Errors
    /// [`DecodeError::UnexpectedEof`] at end of input.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    ///
    /// # Errors
    /// [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read an unsigned LEB128 u32.
    ///
    /// # Errors
    /// [`DecodeError::IntTooLong`] on overlong encodings, EOF on truncation.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut result: u32 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 28 && byte & 0xF0 != 0 {
                return Err(DecodeError::IntTooLong);
            }
            result |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 28 {
                return Err(DecodeError::IntTooLong);
            }
        }
    }

    /// Read an unsigned LEB128 u64.
    ///
    /// # Errors
    /// [`DecodeError::IntTooLong`] on overlong encodings, EOF on truncation.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte & 0xFE != 0 {
                return Err(DecodeError::IntTooLong);
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::IntTooLong);
            }
        }
    }

    /// Read a signed LEB128 i32.
    ///
    /// # Errors
    /// [`DecodeError::IntTooLong`] on overlong encodings, EOF on truncation.
    pub fn i32(&mut self) -> Result<i32, DecodeError> {
        let v = self.i64()?;
        i32::try_from(v).map_err(|_| DecodeError::IntTooLong)
    }

    /// Read a signed LEB128 i64.
    ///
    /// # Errors
    /// [`DecodeError::IntTooLong`] on overlong encodings, EOF on truncation.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        let mut result: i64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            result |= i64::from(byte & 0x7F) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                if shift < 64 && byte & 0x40 != 0 {
                    result |= -1i64 << shift; // sign-extend
                }
                return Ok(result);
            }
            if shift >= 70 {
                return Err(DecodeError::IntTooLong);
            }
        }
    }

    /// Read a little-endian f32.
    ///
    /// # Errors
    /// EOF on truncation.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.bytes(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian f64.
    ///
    /// # Errors
    /// EOF on truncation.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a length-prefixed UTF-8 name.
    ///
    /// # Errors
    /// [`DecodeError::BadName`] on invalid UTF-8, EOF on truncation.
    pub fn name(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadName)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u32(v: u32) -> u32 {
        let mut out = Vec::new();
        write_u32(&mut out, v);
        Reader::new(&out).u32().unwrap()
    }

    fn roundtrip_i64(v: i64) -> i64 {
        let mut out = Vec::new();
        write_i64(&mut out, v);
        Reader::new(&out).i64().unwrap()
    }

    #[test]
    fn u32_roundtrips() {
        for v in [0, 1, 127, 128, 300, 16384, u32::MAX] {
            assert_eq!(roundtrip_u32(v), v);
        }
    }

    #[test]
    fn i64_roundtrips() {
        for v in [0, -1, 63, -64, 64, -65, i64::MAX, i64::MIN, 0x7FFF_FFFF] {
            assert_eq!(roundtrip_i64(v), v, "value {v}");
        }
    }

    #[test]
    fn i32_roundtrips() {
        for v in [0i32, -1, i32::MIN, i32::MAX, 1 << 20] {
            let mut out = Vec::new();
            write_i32(&mut out, v);
            assert_eq!(Reader::new(&out).i32().unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut out = Vec::new();
        write_u32(&mut out, 300);
        out.pop();
        assert_eq!(Reader::new(&out).u32(), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn overlong_is_rejected() {
        // 6-byte encoding of a u32 is never valid.
        let bytes = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(Reader::new(&bytes).u32(), Err(DecodeError::IntTooLong));
    }

    #[test]
    fn floats_roundtrip() {
        let mut out = Vec::new();
        out.extend_from_slice(&1.5f32.to_le_bytes());
        out.extend_from_slice(&(-2.25f64).to_le_bytes());
        let mut r = Reader::new(&out);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -2.25);
    }

    #[test]
    fn names_roundtrip() {
        let mut out = Vec::new();
        write_u32(&mut out, 5);
        out.extend_from_slice(b"hello");
        assert_eq!(Reader::new(&out).name().unwrap(), "hello");
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized round-trips on a deterministic SplitMix64 stream
    //! (offline build — no proptest; fixed seeds keep failures
    //! reproducible). Boundary values are checked explicitly on top of
    //! the random sweep.

    use super::*;

    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    const CASES: u32 = 4000;

    #[test]
    fn u32_roundtrips_all() {
        let mut rng = Rng(0x0001_EB32);
        let check = |v: u32| {
            let mut out = Vec::new();
            write_u32(&mut out, v);
            assert!(out.len() <= 5);
            let mut r = Reader::new(&out);
            assert_eq!(r.u32().unwrap(), v);
            assert!(r.is_empty());
        };
        for v in [0, 1, 127, 128, u32::MAX] {
            check(v);
        }
        for _ in 0..CASES {
            check(rng.next_u64() as u32);
        }
    }

    #[test]
    fn u64_roundtrips_all() {
        let mut rng = Rng(0x0001_EB64);
        let check = |v: u64| {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert!(out.len() <= 10);
            assert_eq!(Reader::new(&out).u64().unwrap(), v);
        };
        for v in [0, 1, 127, 128, u64::MAX] {
            check(v);
        }
        for _ in 0..CASES {
            check(rng.next_u64());
        }
    }

    #[test]
    fn i32_roundtrips_all() {
        let mut rng = Rng(0x0051_EB32);
        let check = |v: i32| {
            let mut out = Vec::new();
            write_i32(&mut out, v);
            assert_eq!(Reader::new(&out).i32().unwrap(), v);
        };
        for v in [0, -1, 63, 64, -64, -65, i32::MIN, i32::MAX] {
            check(v);
        }
        for _ in 0..CASES {
            check(rng.next_u64() as i32);
        }
    }

    #[test]
    fn i64_roundtrips_all() {
        let mut rng = Rng(0x0051_EB64);
        let check = |v: i64| {
            let mut out = Vec::new();
            write_i64(&mut out, v);
            assert!(out.len() <= 10);
            assert_eq!(Reader::new(&out).i64().unwrap(), v);
        };
        for v in [0, -1, 63, 64, -64, -65, i64::MIN, i64::MAX] {
            check(v);
        }
        for _ in 0..CASES {
            check(rng.next_u64() as i64);
        }
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn reader_never_panics() {
        let mut rng = Rng(0xBAD_B17E5);
        for _ in 0..CASES {
            let len = (rng.next_u64() % 16) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut r = Reader::new(&bytes);
            let _ = r.u32();
            let mut r = Reader::new(&bytes);
            let _ = r.i64();
            let mut r = Reader::new(&bytes);
            let _ = r.name();
        }
    }
}
