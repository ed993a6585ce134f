//! The field GF(2^8) represented with log/antilog tables.
//!
//! The field is constructed as GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1), i.e.
//! with the primitive polynomial `0x11d` that is also used by RAID-6 and most
//! storage erasure-coding implementations. The generator `0x02` is primitive
//! for this polynomial, so every non-zero element is a power of 2 and
//! multiplication reduces to an addition of discrete logarithms.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::GfError;

pub use crate::tables::{FIELD_SIZE, GROUP_ORDER, PRIMITIVE_POLY};

use crate::tables::TABLES;

/// An element of the finite field GF(2^8).
///
/// Addition and subtraction are both bitwise XOR; multiplication and division
/// are table-driven. All operators panic only on division by zero — use
/// [`Gf256::checked_inv`] / [`Gf256::checked_div`] for fallible variants.
///
/// # Example
///
/// ```
/// use drc_gf::Gf256;
///
/// let a = Gf256::new(0x53);
/// let b = Gf256::new(0xca);
/// assert_eq!(a + b, Gf256::new(0x99));
/// assert_eq!(a - b, a + b); // characteristic 2
/// assert_eq!(a * Gf256::ONE, a);
/// assert_eq!((a * b) / b, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf256(u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Creates a field element from its byte representation.
    ///
    /// Every byte value is a valid field element, so this is a total function.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the byte representation of the element.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Raises the element to the given power.
    ///
    /// `0^0` is defined as `1`, matching the usual convention for evaluating
    /// polynomials at zero.
    pub fn pow(self, mut exponent: u32) -> Self {
        if self.is_zero() {
            return if exponent == 0 {
                Gf256::ONE
            } else {
                Gf256::ZERO
            };
        }
        exponent %= GROUP_ORDER as u32;
        let log = TABLES.log[self.0 as usize] as u32;
        Gf256(TABLES.exp[((log * exponent) % GROUP_ORDER as u32) as usize])
    }

    /// Returns the multiplicative inverse, or an error for zero.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DivisionByZero`] if the element is zero.
    #[inline]
    pub fn checked_inv(self) -> Result<Self, GfError> {
        if self.is_zero() {
            Err(GfError::DivisionByZero)
        } else {
            let log = TABLES.log[self.0 as usize] as usize;
            Ok(Gf256(TABLES.exp[GROUP_ORDER - log]))
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the element is zero.
    #[inline]
    pub fn inv(self) -> Self {
        // drc-lint: allow(panic-hygiene): documented panic contract ("Panics if
        // the element is zero"); `checked_inv` is the fallible surface.
        self.checked_inv().expect("inverse of zero in GF(2^8)")
    }

    /// Divides `self` by `rhs`, returning an error when `rhs` is zero.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::DivisionByZero`] if `rhs` is zero.
    #[inline]
    pub fn checked_div(self, rhs: Self) -> Result<Self, GfError> {
        Ok(self * rhs.checked_inv()?)
    }

    /// Multiplies two raw bytes interpreted as field elements.
    ///
    /// This is the hot-path primitive used by the bulk slice operations in
    /// [`crate::slice`].
    /// Branch-free: `log[0]` is a sentinel large enough that any log-sum
    /// involving it indexes the zero padding of the antilog table (see the
    /// `tables` module), so zero operands need no test — the hot bulk
    /// loops stay free of data-dependent branches.
    #[inline]
    pub fn mul_bytes(a: u8, b: u8) -> u8 {
        let log_sum = TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize;
        TABLES.exp[log_sum]
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(value: Gf256) -> Self {
        value.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // GF(2^8) addition IS xor
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // GF(2^8) addition IS xor
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // characteristic 2: sub == add == xor
    fn sub(self, rhs: Self) -> Self {
        // Characteristic 2: subtraction is identical to addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // characteristic 2: sub == add == xor
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Self {
        // -a == a in characteristic 2.
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf256(Gf256::mul_bytes(self.0, rhs.0))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        // drc-lint: allow(panic-hygiene): `Div` mirrors integer `/` — panics on
        // zero divisor by contract; `checked_div` is the fallible surface.
        self.checked_div(rhs).expect("division by zero in GF(2^8)")
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Self {
        iter.fold(Gf256::ZERO, |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Gf256> for Gf256 {
    fn sum<I: Iterator<Item = &'a Gf256>>(iter: I) -> Self {
        iter.copied().sum()
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Self {
        iter.fold(Gf256::ONE, |acc, x| acc * x)
    }
}

impl<'a> Product<&'a Gf256> for Gf256 {
    fn product<I: Iterator<Item = &'a Gf256>>(iter: I) -> Self {
        iter.copied().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // exp and log are mutually inverse on the non-zero elements.
        for v in 1..=255u16 {
            let e = Gf256::new(v as u8);
            let log = TABLES.log[v as usize] as usize;
            assert_eq!(TABLES.exp[log], v as u8, "exp(log({v})) != {v}");
            assert_eq!(Gf256::new(2).pow(log as u32), e);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // 2 must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..GROUP_ORDER {
            assert!(!seen[x.value() as usize], "generator order < 255");
            seen[x.value() as usize] = true;
            x *= Gf256::new(2);
        }
        assert_eq!(x, Gf256::ONE, "generator^255 should be 1");
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            for b in [0u8, 1, 3, 0x53, 0xca, 0xff] {
                let x = Gf256::new(a);
                let y = Gf256::new(b);
                assert_eq!((x + y).value(), a ^ b);
                assert_eq!(x + y + y, x);
                assert_eq!(x - y, x + y);
                assert_eq!(-x, x);
            }
        }
    }

    #[test]
    fn multiplication_matches_carryless_reference() {
        // Reference: schoolbook carry-less multiplication with reduction.
        fn slow_mul(a: u8, b: u8) -> u8 {
            let mut result: u16 = 0;
            let mut a = a as u16;
            let mut b = b as u16;
            while b != 0 {
                if b & 1 != 0 {
                    result ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= PRIMITIVE_POLY;
                }
                b >>= 1;
            }
            result as u8
        }
        for a in 0..=255u16 {
            for b in (0..=255u16).step_by(7) {
                assert_eq!(
                    Gf256::mul_bytes(a as u8, b as u8),
                    slow_mul(a as u8, b as u8),
                    "mismatch for {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for v in 1..=255u8 {
            let x = Gf256::new(v);
            assert_eq!(x * x.inv(), Gf256::ONE);
            assert_eq!(x.checked_inv().unwrap() * x, Gf256::ONE);
        }
    }

    #[test]
    fn zero_has_no_inverse() {
        assert_eq!(Gf256::ZERO.checked_inv(), Err(GfError::DivisionByZero));
        assert_eq!(
            Gf256::ONE.checked_div(Gf256::ZERO),
            Err(GfError::DivisionByZero)
        );
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for v in [0u8, 1, 2, 3, 0x1d, 0x80, 0xff] {
            let x = Gf256::new(v);
            let mut acc = Gf256::ONE;
            for e in 0..520u32 {
                assert_eq!(x.pow(e), acc, "pow mismatch for {v}^{e}");
                acc *= x;
            }
        }
    }

    #[test]
    fn pow_zero_conventions() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
    }

    #[test]
    fn distributivity_spot_checks() {
        for a in (0..=255u16).step_by(11) {
            for b in (0..=255u16).step_by(13) {
                for c in (0..=255u16).step_by(17) {
                    let (a, b, c) = (
                        Gf256::new(a as u8),
                        Gf256::new(b as u8),
                        Gf256::new(c as u8),
                    );
                    assert_eq!(a * (b + c), a * b + a * c);
                    assert_eq!((a * b) * c, a * (b * c));
                }
            }
        }
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Gf256::new(1), Gf256::new(2), Gf256::new(3)];
        let s: Gf256 = xs.iter().sum();
        assert_eq!(s, Gf256::new(1 ^ 2 ^ 3));
        let p: Gf256 = xs.iter().product();
        assert_eq!(p, Gf256::new(1) * Gf256::new(2) * Gf256::new(3));
        let s2: Gf256 = xs.into_iter().sum();
        assert_eq!(s, s2);
    }

    #[test]
    fn formatting_impls() {
        let x = Gf256::new(0xab);
        assert_eq!(format!("{x}"), "0xab");
        assert_eq!(format!("{x:x}"), "ab");
        assert_eq!(format!("{x:X}"), "AB");
        assert_eq!(format!("{x:b}"), "10101011");
        assert_eq!(format!("{x:o}"), "253");
        assert!(!format!("{x:?}").is_empty());
    }

    #[test]
    fn conversions() {
        let x: Gf256 = 7u8.into();
        assert_eq!(x.value(), 7);
        let b: u8 = x.into();
        assert_eq!(b, 7);
        assert_eq!(Gf256::default(), Gf256::ZERO);
    }

    #[test]
    fn type_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gf256>();
    }
}
