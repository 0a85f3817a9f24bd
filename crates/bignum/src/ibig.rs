//! Signed arbitrary-precision integers built on [`UBig`].

use crate::ubig::UBig;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A signed arbitrary-precision integer (sign + magnitude).
///
/// ```
/// use sliq_bignum::IBig;
/// let x = IBig::from(-5i64) + IBig::from(12i64);
/// assert_eq!(x, IBig::from(7i64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IBig {
    negative: bool,
    mag: UBig,
}

impl IBig {
    /// The value zero.
    pub fn zero() -> Self {
        Self {
            negative: false,
            mag: UBig::zero(),
        }
    }

    /// The value one.
    pub fn one() -> Self {
        Self {
            negative: false,
            mag: UBig::one(),
        }
    }

    /// Creates a signed value from a sign and a magnitude.
    pub fn from_sign_magnitude(negative: bool, mag: UBig) -> Self {
        if mag.is_zero() {
            Self::zero()
        } else {
            Self { negative, mag }
        }
    }

    /// The signed power of two `±2^exp`.
    pub fn pow2(exp: usize) -> Self {
        Self::from_sign_magnitude(false, UBig::pow2(exp))
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// The magnitude `|self|`.
    pub fn magnitude(&self) -> &UBig {
        &self.mag
    }

    /// Shifts left by `bits` (multiplication by `2^bits`).
    pub fn shl(&self, bits: usize) -> IBig {
        Self::from_sign_magnitude(self.negative, self.mag.shl(bits))
    }

    /// Returns `(mantissa, exponent)` with value = `mantissa · 2^exponent`,
    /// `|mantissa|` the magnitude's correctly rounded mantissa (see
    /// [`UBig::to_f64_exp`]); `(0, 0)` for zero.
    pub fn to_f64_exp(&self) -> (f64, i64) {
        let (m, e) = self.mag.to_f64_exp();
        (if self.negative { -m } else { m }, e)
    }

    /// Converts to `f64` (lossy; may overflow to ±inf for huge values).
    pub fn to_f64(&self) -> f64 {
        let v = self.mag.to_f64();
        if self.negative {
            -v
        } else {
            v
        }
    }

    /// Total ordering of the represented values.
    pub fn cmp_big(&self, other: &IBig) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.mag.cmp_big(&other.mag),
            (true, true) => other.mag.cmp_big(&self.mag),
        }
    }
}

impl From<i64> for IBig {
    fn from(value: i64) -> Self {
        Self::from_sign_magnitude(value < 0, UBig::from(value.unsigned_abs()))
    }
}

impl From<i128> for IBig {
    fn from(value: i128) -> Self {
        Self::from_sign_magnitude(value < 0, UBig::from(value.unsigned_abs()))
    }
}

impl From<UBig> for IBig {
    fn from(mag: UBig) -> Self {
        Self::from_sign_magnitude(false, mag)
    }
}

impl Neg for IBig {
    type Output = IBig;
    fn neg(self) -> IBig {
        IBig::from_sign_magnitude(!self.negative, self.mag)
    }
}

impl Add for IBig {
    type Output = IBig;
    fn add(self, rhs: IBig) -> IBig {
        if self.negative == rhs.negative {
            IBig::from_sign_magnitude(self.negative, UBig::add(&self.mag, &rhs.mag))
        } else {
            match self.mag.cmp_big(&rhs.mag) {
                Ordering::Equal => IBig::zero(),
                Ordering::Greater => {
                    IBig::from_sign_magnitude(self.negative, UBig::sub(&self.mag, &rhs.mag))
                }
                Ordering::Less => {
                    IBig::from_sign_magnitude(rhs.negative, UBig::sub(&rhs.mag, &self.mag))
                }
            }
        }
    }
}

impl AddAssign for IBig {
    fn add_assign(&mut self, rhs: IBig) {
        *self = std::mem::take(self) + rhs;
    }
}

impl Sub for IBig {
    type Output = IBig;
    fn sub(self, rhs: IBig) -> IBig {
        self + (-rhs)
    }
}

impl Mul for IBig {
    type Output = IBig;
    fn mul(self, rhs: IBig) -> IBig {
        IBig::from_sign_magnitude(
            self.negative != rhs.negative,
            UBig::mul(&self.mag, &rhs.mag),
        )
    }
}

impl PartialOrd for IBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IBig {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl fmt::Display for IBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_arithmetic_matches_i128() {
        let cases: &[(i128, i128)] = &[
            (0, 0),
            (5, -3),
            (-5, 3),
            (-7, -9),
            (i64::MAX as i128, i64::MAX as i128),
            (-(1i128 << 100), 1i128 << 90),
        ];
        for &(x, y) in cases {
            assert_eq!(IBig::from(x) + IBig::from(y), IBig::from(x + y), "{x}+{y}");
            assert_eq!(IBig::from(x) - IBig::from(y), IBig::from(x - y), "{x}-{y}");
            if let Some(p) = x.checked_mul(y) {
                assert_eq!(IBig::from(x) * IBig::from(y), IBig::from(p), "{x}*{y}");
            }
            assert_eq!(
                IBig::from(x).cmp_big(&IBig::from(y)),
                x.cmp(&y),
                "cmp {x} {y}"
            );
        }
    }

    #[test]
    fn negation_and_zero_canonicalisation() {
        assert_eq!(-IBig::zero(), IBig::zero());
        assert!(!(-IBig::zero()).is_negative());
        assert_eq!(-IBig::from(4i64), IBig::from(-4i64));
    }

    #[test]
    fn display_includes_sign() {
        assert_eq!(IBig::from(-12345i64).to_string(), "-12345");
        assert_eq!(IBig::from(12345i64).to_string(), "12345");
        assert_eq!(IBig::zero().to_string(), "0");
    }

    #[test]
    fn shifted_values() {
        assert_eq!(IBig::from(-3i64).shl(10), IBig::from(-3072i64));
        let (m, e) = IBig::from(-1i64).shl(200).to_f64_exp();
        assert_eq!(e, 201);
        assert!((m + 0.5).abs() < 1e-15);
    }

    #[test]
    fn to_f64_signs() {
        assert_eq!(IBig::from(-8i64).to_f64(), -8.0);
        assert_eq!(IBig::from(8i64).to_f64(), 8.0);
    }
}
