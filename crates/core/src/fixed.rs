//! Fixed-point arithmetic for virtual-time tags.
//!
//! The paper's kernel implementation (§3.2) cannot use floating point
//! inside Linux 2.2, so start tags, finish tags and surplus values are
//! kept in integers scaled by a constant factor `10^n`; the authors found
//! `n = 4` adequate. We reproduce that representation: a [`Fixed`] is an
//! `i128` mantissa interpreted as `mantissa / SCALE` with
//! `SCALE = 10_000`.
//!
//! A 128-bit mantissa gives enormous headroom (the paper instead
//! periodically renormalises 32-bit tags against the minimum start tag;
//! we implement the same renormalisation in the schedulers as a
//! behaviour-preserving port of their wrap-around handling, and keep the
//! wide mantissa as a safety net).
//!
//! # The 64-bit fast path
//!
//! The products and quotients on the SFS decision path — the surplus
//! `φ·(S − v)` ([`Fixed::mul_fixed`]), the tag step `q/φ`
//! ([`Fixed::div_into_int`]) and the readjusted cap
//! ([`Fixed::from_ratio`]) — each divide. On 128-bit operands a
//! division is a call into the compiler's software routine
//! (`__divti3`), paid on every surplus a pick compares. So each of
//! these first computes in `i64` with `checked_mul`/`checked_div`, and
//! falls back to the `i128` expression only when a step would
//! overflow. Both widths truncate toward zero, so the two paths return
//! bit-identical results; a property test pins that on random and edge
//! operands. The `i128` mantissa and the fallback stay: long runs, huge
//! weights or a raised renormalisation threshold push products past
//! `i64`, and there they take the slower path instead of overflowing.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// The paper's scaling factor: captures 4 digits past the decimal point.
pub const SCALE: i128 = 10_000;

/// [`SCALE`] for the 64-bit fast path.
const SCALE64: i64 = SCALE as i64;

/// A fixed-point number with [`SCALE`] fractional resolution.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed(i128);

impl Fixed {
    /// Zero.
    pub const ZERO: Fixed = Fixed(0);
    /// One.
    pub const ONE: Fixed = Fixed(SCALE);
    /// The maximum representable value; used as an "infinity" sentinel.
    pub const MAX: Fixed = Fixed(i128::MAX);

    /// Constructs the fixed-point representation of an integer.
    pub const fn from_int(v: i64) -> Fixed {
        Fixed(v as i128 * SCALE)
    }

    /// Constructs the fixed-point representation of `num / den`.
    ///
    /// Rounds toward zero, exactly like the kernel's integer division.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub const fn from_ratio(num: i64, den: i64) -> Fixed {
        assert!(den != 0, "from_ratio: zero denominator");
        match num.checked_mul(SCALE64) {
            // A multiple of SCALE is never i64::MIN, so `/ -1` is safe.
            Some(n) => Fixed((n / den) as i128),
            None => Fixed(num as i128 * SCALE / den as i128),
        }
    }

    /// Constructs a value from a raw scaled mantissa.
    pub const fn from_raw(raw: i128) -> Fixed {
        Fixed(raw)
    }

    /// Returns the raw scaled mantissa.
    pub const fn raw(self) -> i128 {
        self.0
    }

    /// Converts to `f64` (reporting only; never used in scheduling).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }

    /// Truncates to an integer (toward zero).
    pub const fn trunc(self) -> i64 {
        (self.0 / SCALE) as i64
    }

    /// True if the value is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the smaller of two values.
    pub fn min(self, other: Fixed) -> Fixed {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    pub fn max(self, other: Fixed) -> Fixed {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Absolute value.
    pub const fn abs(self) -> Fixed {
        Fixed(self.0.abs())
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0.saturating_add(rhs.0))
    }

    /// Multiplies two fixed-point values, rescaling the product.
    ///
    /// `(a * SCALE) * (b * SCALE) / SCALE = a*b * SCALE`.
    pub fn mul_fixed(self, rhs: Fixed) -> Fixed {
        if let (Ok(a), Ok(b)) = (i64::try_from(self.0), i64::try_from(rhs.0)) {
            if let Some(p) = a.checked_mul(b) {
                return Fixed((p / SCALE64) as i128);
            }
        }
        Fixed(self.0 * rhs.0 / SCALE)
    }

    /// Divides two fixed-point values, rescaling the quotient.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_fixed(self, rhs: Fixed) -> Fixed {
        assert!(rhs.0 != 0, "div_fixed: division by zero");
        Fixed(self.0 * SCALE / rhs.0)
    }

    /// Divides an unscaled integer quantity (e.g. a quantum length in
    /// nanoseconds) by this fixed-point weight, producing a fixed-point
    /// result. This is the `q / φ_i` operation used in tag updates; in the
    /// kernel it is written `q * 10^n / φ_i` (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if the weight is zero.
    pub fn div_into_int(self, q: u64) -> Fixed {
        assert!(self.0 != 0, "div_into_int: zero weight");
        // `q * SCALE * SCALE / mantissa` keeps the result in fixed-point:
        // q/(mantissa/SCALE) scaled by SCALE.
        if let (Ok(q), Ok(m)) = (i64::try_from(q), i64::try_from(self.0)) {
            if let Some(r) = q
                .checked_mul(SCALE64 * SCALE64)
                .and_then(|n| n.checked_div(m))
            {
                return Fixed(r as i128);
            }
        }
        Fixed(q as i128 * SCALE * SCALE / self.0)
    }
}

impl Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 + rhs.0)
    }
}

impl AddAssign for Fixed {
    fn add_assign(&mut self, rhs: Fixed) {
        self.0 += rhs.0;
    }
}

impl Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        Fixed(self.0 - rhs.0)
    }
}

impl SubAssign for Fixed {
    fn sub_assign(&mut self, rhs: Fixed) {
        self.0 -= rhs.0;
    }
}

impl Neg for Fixed {
    type Output = Fixed;
    fn neg(self) -> Fixed {
        Fixed(-self.0)
    }
}

impl Mul<i64> for Fixed {
    type Output = Fixed;
    fn mul(self, rhs: i64) -> Fixed {
        Fixed(self.0 * rhs as i128)
    }
}

impl Div<i64> for Fixed {
    type Output = Fixed;
    fn div(self, rhs: i64) -> Fixed {
        Fixed(self.0 / rhs as i128)
    }
}

impl fmt::Debug for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fixed({})", self.to_f64())
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let int = self.0 / SCALE;
        let frac = (self.0 % SCALE).unsigned_abs();
        if self.0 < 0 && int == 0 {
            write!(f, "-0.{frac:04}")
        } else {
            write!(f, "{int}.{frac:04}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integer_roundtrip() {
        assert_eq!(Fixed::from_int(0), Fixed::ZERO);
        assert_eq!(Fixed::from_int(1), Fixed::ONE);
        assert_eq!(Fixed::from_int(42).trunc(), 42);
        assert_eq!(Fixed::from_int(-3).trunc(), -3);
    }

    #[test]
    fn ratio_truncates_like_kernel_division() {
        // 1/3 with 4 fractional digits is 0.3333.
        assert_eq!(Fixed::from_ratio(1, 3).raw(), 3_333);
        assert_eq!(Fixed::from_ratio(2, 3).raw(), 6_666);
        assert_eq!(Fixed::from_ratio(10, 1), Fixed::from_int(10));
    }

    #[test]
    fn tag_update_matches_paper_example() {
        // SFQ counter from Example 1: S_i += q / w_i with q = 1ms and
        // w = 10 advances the tag by 0.1 per quantum.
        let w = Fixed::from_int(10);
        let q_ns = 1u64; // abstract unit; the ratio is what matters
        let delta = w.div_into_int(q_ns);
        assert_eq!(delta, Fixed::from_ratio(1, 10));
        // After 1000 quanta the tag reaches 100.
        let mut s = Fixed::ZERO;
        for _ in 0..1000 {
            s += delta;
        }
        assert_eq!(s, Fixed::from_int(100));
    }

    #[test]
    fn mul_div_fixed() {
        let a = Fixed::from_ratio(3, 2); // 1.5
        let b = Fixed::from_int(4);
        assert_eq!(a.mul_fixed(b), Fixed::from_int(6));
        assert_eq!(b.div_fixed(a), Fixed::from_ratio(8, 3));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Fixed::from_ratio(1, 2);
        let b = Fixed::from_ratio(2, 3);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!((-a).abs(), a);
    }

    #[test]
    fn display_formats_fractions() {
        assert_eq!(format!("{}", Fixed::from_ratio(1, 2)), "0.5000");
        assert_eq!(format!("{}", Fixed::from_int(3)), "3.0000");
        assert_eq!(format!("{}", -Fixed::from_ratio(1, 4)), "-0.2500");
    }

    #[test]
    fn div_into_int_is_q_over_phi() {
        // q = 200ms in ns, phi = 3: expect 200e6/3 with 4-digit precision.
        let phi = Fixed::from_int(3);
        let got = phi.div_into_int(200_000_000);
        let want = Fixed::from_raw(200_000_000i128 * SCALE / 3);
        assert_eq!(got, want);
    }

    /// The `i128` expressions each fast path must reproduce exactly.
    mod reference {
        use super::SCALE;

        pub fn mul_fixed(a: i128, b: i128) -> i128 {
            a * b / SCALE
        }
        pub fn div_into_int(m: i128, q: u64) -> i128 {
            q as i128 * SCALE * SCALE / m
        }
        pub fn from_ratio(num: i64, den: i64) -> i128 {
            num as i128 * SCALE / den as i128
        }
    }

    /// `⌊√(2⁶³ − 1)⌋`: the largest factor whose square fits in `i64`.
    const ROOT_MAX: i128 = 3_037_000_499;
    /// `2⁶³ / SCALE`: past it, `x · SCALE` no longer fits in `i64`.
    const SCALED_EDGE: i128 = (1i128 << 63) / SCALE;

    /// Mantissas that straddle every fast-path boundary: zero, ±1, the
    /// `i64` limits and one past them, the `x · SCALE` limit, and the
    /// square root of `i64::MAX` (so products land just past it).
    fn edge_raw() -> impl Strategy<Value = i128> {
        let mut edges = vec![
            0,
            1,
            -1,
            SCALE,
            -SCALE,
            i64::MAX as i128 + 1,
            i64::MIN as i128 - 1,
        ];
        for base in [
            i64::MAX as i128,
            i64::MIN as i128,
            SCALED_EDGE,
            -SCALED_EDGE,
            ROOT_MAX,
            -ROOT_MAX,
        ] {
            edges.extend((-2..=2).map(|d| base + d));
        }
        (0..edges.len()).prop_map(move |i| edges[i])
    }

    /// A fast-path operand: random over the whole `i64` range, small,
    /// near an edge, or just wider than `i64` (the fallback must handle
    /// it). Magnitudes stay below 1.25·2⁶³, so even the reference
    /// product of two operands fits in `i128`.
    fn operand() -> impl Strategy<Value = i128> {
        prop_oneof![
            (i64::MIN..i64::MAX).prop_map(i128::from),
            (-1_000_000_000i64..1_000_000_000).prop_map(i128::from),
            edge_raw(),
            (i64::MIN / 4..i64::MAX / 4).prop_map(|x| {
                let x = i128::from(x);
                if x >= 0 {
                    i64::MAX as i128 + 1 + x
                } else {
                    i64::MIN as i128 - 1 + x
                }
            }),
        ]
    }

    /// A divisor: any operand but zero.
    fn divisor() -> impl Strategy<Value = i128> {
        operand().prop_map(|x| if x == 0 { 1 } else { x })
    }

    #[test]
    fn fast_paths_match_reference_at_named_edges() {
        // A product just past i64::MAX takes the fallback; one just
        // below takes the fast path. Both agree with the reference.
        for (a, b) in [
            (ROOT_MAX, ROOT_MAX),
            (ROOT_MAX + 1, ROOT_MAX + 1),
            (-ROOT_MAX - 1, ROOT_MAX + 1),
        ] {
            let got = Fixed::from_raw(a).mul_fixed(Fixed::from_raw(b)).raw();
            assert_eq!(got, reference::mul_fixed(a, b), "{a} * {b}");
        }
        assert_eq!(Fixed::from_ratio(-7, 2).raw(), -35_000);
        assert_eq!(Fixed::from_ratio(-1, 3).raw(), -3_333);
        assert_eq!(
            Fixed::from_ratio(i64::MIN, -1).raw(),
            reference::from_ratio(i64::MIN, -1)
        );
        assert_eq!(
            Fixed::from_raw(-1).div_into_int(u64::MAX).raw(),
            reference::div_into_int(-1, u64::MAX)
        );
    }

    proptest! {
        // Pure arithmetic: cheap enough for many more cases than the
        // default.
        #![proptest_config(ProptestConfig::with_cases(4_096))]

        #[test]
        fn mul_fixed_matches_reference(a in operand(), b in operand()) {
            let got = Fixed::from_raw(a).mul_fixed(Fixed::from_raw(b)).raw();
            prop_assert_eq!(got, reference::mul_fixed(a, b));
        }

        #[test]
        fn mul_fixed_matches_reference_near_i64_max(
            a in prop_oneof![1i64..i64::MAX, 1i64..1 << 32],
            d in -3i64..4,
            neg in 0u8..2,
        ) {
            // b ≈ i64::MAX / a, so a·b lands within a few a of i64::MAX,
            // on either side of the fast path's limit.
            let a = i128::from(a);
            let b = (i64::MAX as i128 / a + i128::from(d)) * if neg == 1 { -1 } else { 1 };
            let got = Fixed::from_raw(a).mul_fixed(Fixed::from_raw(b)).raw();
            prop_assert_eq!(got, reference::mul_fixed(a, b));
        }

        #[test]
        fn div_into_int_matches_reference(
            m in divisor(),
            q in prop_oneof![0..u64::MAX, 0u64..10_000_000_000, Just(u64::MAX), Just(i64::MAX as u64 + 1)],
        ) {
            let got = Fixed::from_raw(m).div_into_int(q).raw();
            prop_assert_eq!(got, reference::div_into_int(m, q));
        }

        #[test]
        fn from_ratio_matches_reference(
            num in prop_oneof![i64::MIN..i64::MAX, -1_000_000i64..1_000_000, edge_raw().prop_map(|x| x as i64)],
            den in prop_oneof![i64::MIN..i64::MAX, -1_000i64..1_000].prop_map(|d| if d == 0 { -1 } else { d }),
        ) {
            prop_assert_eq!(Fixed::from_ratio(num, den).raw(), reference::from_ratio(num, den));
        }

    }

    proptest! {
        #[test]
        fn from_int_ordering_is_preserved(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let (fa, fb) = (Fixed::from_int(a), Fixed::from_int(b));
            prop_assert_eq!(a.cmp(&b), fa.cmp(&fb));
        }

        #[test]
        fn add_sub_roundtrip(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let (fa, fb) = (Fixed::from_int(a), Fixed::from_int(b));
            prop_assert_eq!(fa + fb - fb, fa);
        }

        #[test]
        fn ratio_error_is_below_one_ulp(num in 0i64..1_000_000, den in 1i64..1_000_000) {
            let f = Fixed::from_ratio(num, den);
            let exact = num as f64 / den as f64;
            let err = (f.to_f64() - exact).abs();
            prop_assert!(err < 1.0 / SCALE as f64, "err = {err}");
        }

        #[test]
        fn div_into_int_error_is_small(q in 1u64..1_000_000_000, w in 1i64..100_000) {
            let phi = Fixed::from_int(w);
            let got = phi.div_into_int(q).to_f64();
            let exact = q as f64 / w as f64;
            // Relative error bounded by the fixed-point resolution.
            prop_assert!((got - exact).abs() <= 1.0 / SCALE as f64 + exact * 1e-12);
        }
    }
}
