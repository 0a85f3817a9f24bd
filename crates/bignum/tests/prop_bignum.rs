//! Property-based tests: big-integer arithmetic must agree with native
//! 128-bit arithmetic wherever the latter applies, and structural identities
//! must hold for arbitrarily large values.

use proptest::prelude::*;
use sliq_bignum::{IBig, Sqrt2Big, UBig};

/// The value of little-endian `limbs`.
fn from_limbs(limbs: &[u64]) -> UBig {
    limbs
        .iter()
        .enumerate()
        .fold(UBig::zero(), |acc, (i, &limb)| {
            acc + UBig::from(limb).shl(64 * i)
        })
}

/// `x` converts like Rust's decimal parser, which rounds correctly and so
/// is an independent oracle; and `X·2^s` read at `k + s` is `X` read at
/// `k`, for both parts of an `x − y·√2` reading.
fn check_reading(x: &UBig, y: &UBig, k: i64, s: usize) {
    let oracle: f64 = x.to_string().parse().expect("a decimal integer");
    assert_eq!(x.to_f64(), oracle, "{x}");
    let (m, e) = x.to_f64_exp();
    assert_eq!(x.shl(s).to_f64_exp(), (m, e + s as i64), "{x} << {s}");
    let reading = Sqrt2Big::new(
        IBig::from(x.clone()),
        IBig::from_sign_magnitude(true, y.clone()),
    );
    assert_eq!(
        reading.shl(s).to_f64_div_pow2(k + s as i64),
        reading.to_f64_div_pow2(k),
        "{reading} << {s} at k = {k}"
    );
}

proptest! {
    #[test]
    fn ubig_add_sub_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let (x, y) = (UBig::from(a), UBig::from(b));
        prop_assert_eq!(UBig::add(&x, &y), UBig::from(a as u128 + b as u128));
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(UBig::sub(&UBig::from(hi), &UBig::from(lo)), UBig::from(hi - lo));
    }

    #[test]
    fn ubig_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(
            UBig::mul(&UBig::from(a), &UBig::from(b)),
            UBig::from(a as u128 * b as u128)
        );
        prop_assert_eq!(UBig::from(a).mul_u64(b), UBig::from(a as u128 * b as u128));
    }

    #[test]
    fn ubig_shift_is_mul_by_pow2(a in any::<u64>(), s in 0usize..200) {
        prop_assert_eq!(UBig::from(a).shl(s), UBig::mul(&UBig::from(a), &UBig::pow2(s)));
    }

    #[test]
    fn ubig_div_rem_roundtrip(a in any::<u128>(), d in 1u64..) {
        let x = UBig::from(a);
        let (q, r) = x.div_rem_u64(d);
        prop_assert!(r < d);
        prop_assert_eq!(UBig::add(&q.mul_u64(d), &UBig::from(r)), x);
    }

    #[test]
    fn ubig_display_matches_u128(a in any::<u128>()) {
        prop_assert_eq!(UBig::from(a).to_string(), a.to_string());
    }

    #[test]
    fn ibig_arithmetic_matches_i128(a in -(1i128<<100)..(1i128<<100), b in -(1i128<<100)..(1i128<<100)) {
        prop_assert_eq!(IBig::from(a) + IBig::from(b), IBig::from(a + b));
        prop_assert_eq!(IBig::from(a) - IBig::from(b), IBig::from(a - b));
        prop_assert_eq!(IBig::from(a).cmp_big(&IBig::from(b)), a.cmp(&b));
    }

    #[test]
    fn ibig_mul_matches_i128(a in -(1i128<<60)..(1i128<<60), b in -(1i128<<60)..(1i128<<60)) {
        prop_assert_eq!(IBig::from(a) * IBig::from(b), IBig::from(a * b));
    }

    #[test]
    fn ibig_add_is_commutative_associative(
        a in -(1i128<<100)..(1i128<<100),
        b in -(1i128<<100)..(1i128<<100),
        c in -(1i128<<100)..(1i128<<100),
    ) {
        let (x, y, z) = (IBig::from(a), IBig::from(b), IBig::from(c));
        prop_assert_eq!(x.clone() + y.clone(), y.clone() + x.clone());
        prop_assert_eq!((x.clone() + y.clone()) + z.clone(), x + (y + z));
    }

    #[test]
    fn sqrt2big_tracks_floats(a in -1000i64..1000, b in -1000i64..1000, c in -1000i64..1000, d in -1000i64..1000) {
        let x = Sqrt2Big::new(IBig::from(a), IBig::from(b));
        let y = Sqrt2Big::new(IBig::from(c), IBig::from(d));
        let sum = x.clone() + y.clone();
        prop_assert!((sum.to_f64() - (x.to_f64() + y.to_f64())).abs() < 1e-6);
    }

    #[test]
    fn readings_are_correctly_rounded_at_every_scale(
        limbs in proptest::collection::vec(any::<u64>(), 1..5),
        sqrt2_limbs in proptest::collection::vec(any::<u64>(), 1..5),
        k in 0i64..300,
        s in 0usize..200,
    ) {
        check_reading(&from_limbs(&limbs), &from_limbs(&sqrt2_limbs), k, s);
    }

    #[test]
    fn readings_next_to_a_rounding_tie_are_correctly_rounded(
        mantissa in any::<u64>(),
        t in 76usize..200,
        low in prop_oneof![0u64..1, any::<u64>(), (0u32..64).prop_map(|bit| 1u64 << bit)],
        k in 0i64..300,
        s in 0usize..200,
    ) {
        // A 53-bit mantissa, exactly half an ulp, then `low` below the top
        // two limbs: random limbs almost never land this close to a tie,
        // and here rounding the top limbs alone reads one ulp low.
        let tie = UBig::from((mantissa >> 11) | 1 << 52).shl(t) + UBig::pow2(t - 1);
        let x = tie + UBig::from(low);
        check_reading(&x, &x, k, s);
    }

    #[test]
    fn to_f64_exp_is_consistent(a in any::<u128>()) {
        let x = UBig::from(a);
        let (m, e) = x.to_f64_exp();
        if a == 0 {
            prop_assert_eq!(m, 0.0);
        } else {
            prop_assert!((0.5..1.0).contains(&m));
            let reconstructed = m * 2f64.powi(e as i32);
            let rel = (reconstructed - a as f64).abs() / (a as f64);
            prop_assert!(rel < 1e-12);
        }
    }
}
