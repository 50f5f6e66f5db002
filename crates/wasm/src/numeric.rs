//! Exact WebAssembly numeric semantics shared by the interpreter and the
//! JIT's helper calls: NaN-propagating min/max, trapping float→int
//! truncations, and integer division rules.

/// Result of a trapping numeric operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumError {
    /// Division or remainder by zero.
    DivByZero,
    /// Signed overflow (`INT_MIN / -1`).
    Overflow,
    /// Float→int conversion of NaN or an out-of-range value.
    InvalidConversion,
}

/// wasm `fNN.min`: NaN-propagating, and `min(-0, +0) = -0`.
pub fn wasm_fmin<T: Float>(a: T, b: T) -> T {
    if a.is_nan() || b.is_nan() {
        return T::canonical_nan();
    }
    if a.eq_val(b) {
        // ±0 tie: negative zero wins for min → OR the sign bits.
        return T::from_bits_u64(a.bits() | b.bits());
    }
    if a.lt_val(b) {
        a
    } else {
        b
    }
}

/// wasm `fNN.max`: NaN-propagating, and `max(-0, +0) = +0`.
pub fn wasm_fmax<T: Float>(a: T, b: T) -> T {
    if a.is_nan() || b.is_nan() {
        return T::canonical_nan();
    }
    if a.eq_val(b) {
        // ±0 tie: positive zero wins for max → AND the sign bits.
        return T::from_bits_u64(a.bits() & b.bits());
    }
    if a.lt_val(b) {
        b
    } else {
        a
    }
}

/// Abstraction over f32/f64 for the helpers above. Sealed.
pub trait Float: Copy + private::Sealed {
    /// Bit pattern widened to u64.
    fn bits(self) -> u64;
    /// Reconstruct from (possibly widened) bits.
    fn from_bits_u64(bits: u64) -> Self;
    /// IEEE NaN check.
    fn is_nan(self) -> bool;
    /// IEEE equality.
    fn eq_val(self, other: Self) -> bool;
    /// IEEE less-than.
    fn lt_val(self, other: Self) -> bool;
    /// The canonical quiet NaN.
    fn canonical_nan() -> Self;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

impl Float for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn from_bits_u64(bits: u64) -> f32 {
        f32::from_bits(bits as u32)
    }
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    fn eq_val(self, other: f32) -> bool {
        self == other
    }
    fn lt_val(self, other: f32) -> bool {
        self < other
    }
    fn canonical_nan() -> f32 {
        f32::from_bits(0x7FC0_0000)
    }
}

impl Float for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn from_bits_u64(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    fn eq_val(self, other: f64) -> bool {
        self == other
    }
    fn lt_val(self, other: f64) -> bool {
        self < other
    }
    fn canonical_nan() -> f64 {
        f64::from_bits(0x7FF8_0000_0000_0000)
    }
}

/// wasm `i32.trunc_fNN_s` (input widened to f64; exact for both widths).
///
/// # Errors
/// NaN or out-of-range values yield [`NumError::InvalidConversion`].
pub fn trunc_f_to_i32_s(v: f64) -> Result<i32, NumError> {
    if v.is_nan() {
        return Err(NumError::InvalidConversion);
    }
    let t = v.trunc();
    if !(-2_147_483_648.0..=2_147_483_647.0).contains(&t) {
        return Err(NumError::InvalidConversion);
    }
    Ok(t as i32)
}

/// wasm `i32.trunc_fNN_u`.
///
/// # Errors
/// NaN or out-of-range values yield [`NumError::InvalidConversion`].
pub fn trunc_f_to_i32_u(v: f64) -> Result<u32, NumError> {
    if v.is_nan() {
        return Err(NumError::InvalidConversion);
    }
    let t = v.trunc();
    if !(0.0..=4_294_967_295.0).contains(&t) {
        return Err(NumError::InvalidConversion);
    }
    Ok(t as u32)
}

/// wasm `i64.trunc_fNN_s`.
///
/// # Errors
/// NaN or out-of-range values yield [`NumError::InvalidConversion`].
pub fn trunc_f_to_i64_s(v: f64) -> Result<i64, NumError> {
    if v.is_nan() {
        return Err(NumError::InvalidConversion);
    }
    let t = v.trunc();
    // 2^63 is exactly representable; i64::MAX is not. Valid range is
    // [-2^63, 2^63): the comparison below is exact in f64.
    if !(-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&t) {
        return Err(NumError::InvalidConversion);
    }
    Ok(t as i64)
}

/// wasm `i64.trunc_fNN_u`.
///
/// # Errors
/// NaN or out-of-range values yield [`NumError::InvalidConversion`].
pub fn trunc_f_to_i64_u(v: f64) -> Result<u64, NumError> {
    if v.is_nan() {
        return Err(NumError::InvalidConversion);
    }
    let t = v.trunc();
    if !(0.0..18_446_744_073_709_551_616.0).contains(&t) {
        return Err(NumError::InvalidConversion);
    }
    Ok(t as u64)
}

/// wasm `i32.div_s`.
///
/// # Errors
/// Division by zero or `i32::MIN / -1`.
pub fn i32_div_s(a: i32, b: i32) -> Result<i32, NumError> {
    if b == 0 {
        return Err(NumError::DivByZero);
    }
    if a == i32::MIN && b == -1 {
        return Err(NumError::Overflow);
    }
    Ok(a.wrapping_div(b))
}

/// wasm `i32.rem_s` (`i32::MIN % -1 == 0`, no trap).
///
/// # Errors
/// Division by zero.
pub fn i32_rem_s(a: i32, b: i32) -> Result<i32, NumError> {
    if b == 0 {
        return Err(NumError::DivByZero);
    }
    Ok(a.wrapping_rem(b))
}

/// wasm `i64.div_s`.
///
/// # Errors
/// Division by zero or `i64::MIN / -1`.
pub fn i64_div_s(a: i64, b: i64) -> Result<i64, NumError> {
    if b == 0 {
        return Err(NumError::DivByZero);
    }
    if a == i64::MIN && b == -1 {
        return Err(NumError::Overflow);
    }
    Ok(a.wrapping_div(b))
}

/// wasm `i64.rem_s` (`i64::MIN % -1 == 0`, no trap).
///
/// # Errors
/// Division by zero.
pub fn i64_rem_s(a: i64, b: i64) -> Result<i64, NumError> {
    if b == 0 {
        return Err(NumError::DivByZero);
    }
    Ok(a.wrapping_rem(b))
}

/// Unsigned division helper shared by i32/i64 paths.
///
/// # Errors
/// Division by zero.
pub fn udiv<T: Unsigned>(a: T, b: T) -> Result<T, NumError> {
    if b.is_zero() {
        return Err(NumError::DivByZero);
    }
    Ok(a.div(b))
}

/// Unsigned remainder helper shared by i32/i64 paths.
///
/// # Errors
/// Division by zero.
pub fn urem<T: Unsigned>(a: T, b: T) -> Result<T, NumError> {
    if b.is_zero() {
        return Err(NumError::DivByZero);
    }
    Ok(a.rem(b))
}

/// Abstraction over u32/u64 for the helpers above. Sealed.
pub trait Unsigned: Copy + private2::Sealed {
    /// Zero check.
    fn is_zero(self) -> bool;
    /// Wrapping division (divisor nonzero).
    fn div(self, b: Self) -> Self;
    /// Wrapping remainder (divisor nonzero).
    fn rem(self, b: Self) -> Self;
}

mod private2 {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

impl Unsigned for u32 {
    fn is_zero(self) -> bool {
        self == 0
    }
    fn div(self, b: u32) -> u32 {
        self / b
    }
    fn rem(self, b: u32) -> u32 {
        self % b
    }
}

impl Unsigned for u64 {
    fn is_zero(self) -> bool {
        self == 0
    }
    fn div(self, b: u64) -> u64 {
        self / b
    }
    fn rem(self, b: u64) -> u64 {
        self % b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_nan_and_zero_rules() {
        assert!(wasm_fmin(f64::NAN, 1.0).is_nan());
        assert!(wasm_fmax(1.0, f64::NAN).is_nan());
        assert_eq!(wasm_fmin(-0.0f64, 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(wasm_fmax(-0.0f64, 0.0).to_bits(), (0.0f64).to_bits());
        assert_eq!(wasm_fmin(1.0f32, 2.0), 1.0);
        assert_eq!(wasm_fmax(1.0f32, 2.0), 2.0);
        assert_eq!(wasm_fmin(-1.0f64, -2.0), -2.0);
    }

    #[test]
    fn trunc_ranges() {
        assert_eq!(trunc_f_to_i32_s(-2147483648.0), Ok(i32::MIN));
        assert_eq!(trunc_f_to_i32_s(2147483647.9), Ok(i32::MAX));
        assert!(trunc_f_to_i32_s(2147483648.0).is_err());
        assert!(trunc_f_to_i32_s(f64::NAN).is_err());
        assert_eq!(trunc_f_to_i32_u(4294967295.9), Ok(u32::MAX));
        assert!(trunc_f_to_i32_u(-1.0).is_err());
        assert_eq!(trunc_f_to_i32_u(-0.9), Ok(0));

        assert_eq!(trunc_f_to_i64_s(-9.223372036854776e18), Ok(i64::MIN));
        assert!(trunc_f_to_i64_s(9.223372036854776e18).is_err());
        assert_eq!(
            trunc_f_to_i64_u(1.844_674_407_370_955e19).map(|v| v > 0),
            Ok(true)
        );
        assert!(trunc_f_to_i64_u(1.8446744073709552e19).is_err());
    }

    #[test]
    fn div_rules() {
        assert_eq!(i32_div_s(7, -2), Ok(-3));
        assert_eq!(i32_div_s(1, 0), Err(NumError::DivByZero));
        assert_eq!(i32_div_s(i32::MIN, -1), Err(NumError::Overflow));
        assert_eq!(i32_rem_s(i32::MIN, -1), Ok(0));
        assert_eq!(i64_div_s(i64::MIN, -1), Err(NumError::Overflow));
        assert_eq!(i64_rem_s(i64::MIN, -1), Ok(0));
        assert_eq!(udiv(7u32, 2), Ok(3));
        assert_eq!(urem(7u64, 4), Ok(3));
        assert_eq!(udiv(1u64, 0), Err(NumError::DivByZero));
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized property checks on a deterministic SplitMix64 stream
    //! (this repo builds offline, so proptest is unavailable; fixed seeds
    //! keep failures reproducible).

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

        /// Any f64 bit pattern — includes NaNs, infinities, subnormals.
        fn any_f64(&mut self) -> f64 {
            f64::from_bits(self.next_u64())
        }

        fn any_i32(&mut self) -> i32 {
            self.next_u64() as i32
        }

        /// Uniform in `[lo, hi)` (finite operands only).
        fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
            let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        }
    }

    const CASES: u32 = 2000;

    /// Truncations agree with Rust's casts whenever they succeed, and
    /// fail exactly when the value is outside range.
    #[test]
    fn trunc_i32_matches_reference() {
        let mut rng = Rng(0xDEC0DE);
        for _ in 0..CASES {
            let v = rng.any_f64();
            match trunc_f_to_i32_s(v) {
                Ok(x) => {
                    assert!(!v.is_nan());
                    assert_eq!(x, v.trunc() as i32, "v = {v:?}");
                }
                Err(_) => {
                    assert!(
                        v.is_nan() || v.trunc() < i32::MIN as f64 || v.trunc() > i32::MAX as f64,
                        "v = {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fmin_fmax_are_commutative_modulo_nan() {
        let mut rng = Rng(0xF10A7);
        for _ in 0..CASES {
            let (a, b) = (rng.any_f64(), rng.any_f64());
            let m1 = wasm_fmin(a, b);
            let m2 = wasm_fmin(b, a);
            assert_eq!(m1.is_nan(), m2.is_nan(), "a = {a:?}, b = {b:?}");
            if !m1.is_nan() {
                assert_eq!(m1.to_bits(), m2.to_bits(), "a = {a:?}, b = {b:?}");
            }
            let x1 = wasm_fmax(a, b);
            let x2 = wasm_fmax(b, a);
            assert_eq!(x1.is_nan(), x2.is_nan(), "a = {a:?}, b = {b:?}");
            if !x1.is_nan() {
                assert_eq!(x1.to_bits(), x2.to_bits(), "a = {a:?}, b = {b:?}");
            }
        }
    }

    /// min ≤ max for ordered operands.
    #[test]
    fn fmin_le_fmax() {
        let mut rng = Rng(0x3C0FE);
        for _ in 0..CASES {
            let a = rng.f64_in(-1e300, 1e300);
            let b = rng.f64_in(-1e300, 1e300);
            assert!(wasm_fmin(a, b) <= wasm_fmax(a, b), "a = {a}, b = {b}");
        }
    }

    #[test]
    fn div_rem_identity() {
        let mut rng = Rng(0xD1F);
        for _ in 0..CASES {
            let (a, b) = (rng.any_i32(), rng.any_i32());
            if let (Ok(q), Ok(r)) = (i32_div_s(a, b), i32_rem_s(a, b)) {
                assert_eq!(q.wrapping_mul(b).wrapping_add(r), a, "a = {a}, b = {b}");
            }
        }
    }
}
