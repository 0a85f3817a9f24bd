//! Arbitrary-precision unsigned integers.
//!
//! The simulator needs exact SAT counts of Boolean functions over up to tens
//! of thousands of variables, i.e. integers up to 2^10000 and beyond.  Only a
//! small set of operations is required (addition, subtraction, comparison,
//! shifts, schoolbook multiplication, conversion to floating point), so a
//! compact little-endian limb vector is used instead of an external crate.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
///
/// ```
/// use sliq_bignum::UBig;
/// let x = UBig::pow2(100);
/// assert_eq!(x.bit_len(), 101);
/// assert_eq!((x.clone() + UBig::from(1u64)) - x, UBig::from(1u64));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct UBig {
    /// Little-endian limbs with no trailing zeros (canonical form).
    limbs: Vec<u64>,
}

impl UBig {
    /// The value zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// The power of two `2^exp`.
    pub fn pow2(exp: usize) -> Self {
        let mut limbs = vec![0u64; exp / 64 + 1];
        limbs[exp / 64] = 1u64 << (exp % 64);
        let mut r = Self { limbs };
        r.normalize();
        r
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// The number of significant bits (0 for the value zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Access to the raw little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Adds `other` to `self`.
    pub fn add(&self, other: &UBig) -> UBig {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let a = limb as u128;
            let b = *short.get(i).unwrap_or(&0) as u128;
            let s = a + b + carry as u128;
            out.push(s as u64);
            carry = (s >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &UBig) -> UBig {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "UBig::sub would underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u64);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Total ordering.
    pub fn cmp_big(&self, other: &UBig) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Multiplies by a single limb.
    pub fn mul_u64(&self, factor: u64) -> UBig {
        if factor == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let p = l as u128 * factor as u128 + carry;
            out.push(p as u64);
            carry = p >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Full schoolbook multiplication.
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Shifts left by `bits`.
    pub fn shl(&self, bits: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }

    /// Divides by a single limb, returning `(quotient, remainder)`.
    pub fn div_rem_u64(&self, divisor: u64) -> (UBig, u64) {
        assert!(divisor != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        let mut q = UBig { limbs: out };
        q.normalize();
        (q, rem as u64)
    }

    /// Returns `(mantissa, exponent)` such that the value is
    /// `mantissa · 2^exponent` with `mantissa ∈ [0.5, 1]` (or `(0, 0)` for
    /// zero; `1` only when rounding carries into the next power of two).
    /// Unlike [`UBig::to_f64`] this never overflows to infinity.
    ///
    /// The mantissa is the value correctly rounded to 53 bits (to nearest,
    /// ties to even), so it does not depend on scale: `x·2^s` has the same
    /// mantissa as `x` and an exponent `s` higher.
    pub fn to_f64_exp(&self) -> (f64, i64) {
        if self.is_zero() {
            return (0.0, 0);
        }
        let bits = self.bit_len();
        // The top (up to) two limbs, 65 bits or more when there are
        // further limbs: at least 12 bits below f64's rounding bit.  The
        // lowest of them doubles as the sticky bit for the dropped limbs, so
        // the one rounding `u128 → f64` conversion is exact-then-round.
        let top = self.limbs.len() - 1;
        let mut mant = self.limbs[top] as u128;
        let mut mant_bits = 64 - self.limbs[top].leading_zeros() as usize;
        if top > 0 {
            mant = (mant << 64) | self.limbs[top - 1] as u128;
            mant_bits += 64;
            if self.limbs[..top - 1].iter().any(|&limb| limb != 0) {
                mant |= 1;
            }
        }
        (mant as f64 / 2f64.powi(mant_bits as i32), bits as i64)
    }

    /// Converts to `f64` (may be `inf` for huge values).
    pub fn to_f64(&self) -> f64 {
        let (m, e) = self.to_f64_exp();
        if e > 1023 {
            f64::INFINITY
        } else {
            m * 2f64.powi(e as i32)
        }
    }
}

impl From<u64> for UBig {
    fn from(value: u64) -> Self {
        let mut r = UBig { limbs: vec![value] };
        r.normalize();
        r
    }
}

impl From<u128> for UBig {
    fn from(value: u128) -> Self {
        let mut r = UBig {
            limbs: vec![value as u64, (value >> 64) as u64],
        };
        r.normalize();
        r
    }
}

impl std::ops::Add for UBig {
    type Output = UBig;
    fn add(self, rhs: UBig) -> UBig {
        UBig::add(&self, &rhs)
    }
}

impl std::ops::Sub for UBig {
    type Output = UBig;
    fn sub(self, rhs: UBig) -> UBig {
        UBig::sub(&self, &rhs)
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10_000_000_000_000_000_000);
            digits.push(r);
            cur = q;
        }
        write!(f, "{}", digits.pop().expect("non-zero value has digits"))?;
        for d in digits.iter().rev() {
            write!(f, "{d:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic_matches_u128() {
        let a = UBig::from(123_456_789_012_345_678u64);
        let b = UBig::from(987_654_321_098_765_432u64);
        assert_eq!(
            UBig::add(&a, &b),
            UBig::from(123_456_789_012_345_678u128 + 987_654_321_098_765_432u128)
        );
        assert_eq!(
            UBig::sub(&b, &a),
            UBig::from(987_654_321_098_765_432u64 - 123_456_789_012_345_678u64)
        );
        assert_eq!(
            UBig::mul(&a, &b),
            UBig::from(123_456_789_012_345_678u128 * 987_654_321_098_765_432_u128)
        );
    }

    #[test]
    fn pow2_and_shift_agree() {
        for e in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            assert_eq!(UBig::pow2(e), UBig::one().shl(e));
            assert_eq!(UBig::pow2(e).bit_len(), e + 1);
        }
    }

    #[test]
    fn huge_values_do_not_lose_structure() {
        // 2^10000 + 1 minus 2^10000 is 1 even though f64 cannot represent it.
        let big = UBig::pow2(10_000);
        let bigger = UBig::add(&big, &UBig::one());
        assert_eq!(UBig::sub(&bigger, &big), UBig::one());
        assert!(big.to_f64().is_infinite());
        let (m, e) = big.to_f64_exp();
        assert_eq!(e, 10_001);
        assert!((m - 0.5).abs() < 1e-15);
    }

    #[test]
    fn decimal_display() {
        assert_eq!(UBig::zero().to_string(), "0");
        assert_eq!(UBig::from(42u64).to_string(), "42");
        assert_eq!(
            UBig::from(12345678901234567890123456789012345678u128).to_string(),
            "12345678901234567890123456789012345678"
        );
        assert_eq!(UBig::pow2(64).to_string(), "18446744073709551616");
    }

    #[test]
    fn division_by_small() {
        let x = UBig::from(1_000_000_000_007u64);
        let (q, r) = x.div_rem_u64(13);
        assert_eq!(q, UBig::from(1_000_000_000_007u64 / 13));
        assert_eq!(r, 1_000_000_000_007u64 % 13);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = UBig::sub(&UBig::one(), &UBig::from(2u64));
    }

    #[test]
    fn to_f64_rounds_once_above_two_limbs() {
        let pow2 = |e: usize| UBig::pow2(e);
        // 2^191 + 2^138 is exactly half an ulp above 2^191; the trailing 1
        // in the lowest limb makes it round up, not to even.
        let x = pow2(191) + pow2(138) + UBig::one();
        assert_eq!(x.to_f64(), 2f64.powi(191) + 2f64.powi(139));
        // The same tie broken by a bit in the middle limb, at two scales.
        let x = pow2(191) + pow2(138) + pow2(100);
        let (m, e) = x.to_f64_exp();
        assert_eq!(m * 2f64.powi(e as i32), 2f64.powi(191) + 2f64.powi(139));
        assert_eq!(x.shl(1).to_f64_exp(), (m, e + 1));
        // An exact tie still rounds to even.
        assert_eq!((pow2(191) + pow2(138)).to_f64(), 2f64.powi(191));
    }

    #[test]
    fn to_f64_accuracy_for_moderate_values() {
        let x = UBig::mul(&UBig::from(3u64), &UBig::pow2(70));
        let expected = 3.0 * 2f64.powi(70);
        assert!((x.to_f64() - expected).abs() / expected < 1e-12);
    }
}
