//! Exact rational numbers built on [`Int`].
//!
//! `Ratio` carries every temporal quantity in the reproduction: local
//! durations, clock rates, wake-up delays, and absolute event times. The
//! correctness arguments of the paper (Claims 3.8–3.10 in particular) hinge
//! on comparing sums of products like `2^(15 i²)·τ` *exactly*; `f64` loses
//! those orderings as soon as a giant wait enters the sum, which is the
//! motivating failure mode for this type (see the `ablation` bench).

use crate::int::Int;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number in lowest terms with a positive denominator.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: Int,
    den: Int,
}

impl Ratio {
    /// Zero.
    pub fn zero() -> Ratio {
        Ratio {
            num: Int::ZERO,
            den: Int::ONE,
        }
    }

    /// One.
    pub fn one() -> Ratio {
        Ratio {
            num: Int::ONE,
            den: Int::ONE,
        }
    }

    /// Builds `num/den` in canonical form. Panics if `den == 0`.
    pub fn new(num: Int, den: Int) -> Ratio {
        assert!(!den.is_zero(), "Ratio with zero denominator");
        let mut r = Ratio { num, den };
        r.normalize();
        r
    }

    /// Builds an integer ratio.
    pub fn from_int(v: impl Into<Int>) -> Ratio {
        Ratio {
            num: v.into(),
            den: Int::ONE,
        }
    }

    /// Builds `2^k` for any `k` (negative `k` gives `1/2^|k|`).
    pub fn pow2(k: i64) -> Ratio {
        if k >= 0 {
            Ratio {
                num: Int::pow2(k as u64),
                den: Int::ONE,
            }
        } else {
            Ratio {
                num: Int::ONE,
                den: Int::pow2((-k) as u64),
            }
        }
    }

    /// Exact conversion from a finite `f64` (every finite double is a
    /// dyadic rational). Returns `None` for NaN/∞.
    pub fn from_f64_exact(v: f64) -> Option<Ratio> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Ratio::zero());
        }
        let bits = v.to_bits();
        let neg = bits >> 63 == 1;
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp) = if exp_bits == 0 {
            // Subnormal: value = frac * 2^(-1074)
            (frac, -1074i64)
        } else {
            ((1u64 << 52) | frac, exp_bits - 1075)
        };
        let m = Int::from(mantissa);
        let m = if neg { -m } else { m };
        Some(&Ratio::from_int(m) * &Ratio::pow2(exp))
    }

    /// Convenience constructor: `p / q` from machine integers.
    pub fn frac(p: i64, q: i64) -> Ratio {
        Ratio::new(Int::from(p), Int::from(q))
    }

    fn normalize(&mut self) {
        if self.den.is_negative() {
            self.num = -&self.num;
            self.den = -&self.den;
        }
        if self.num.is_zero() {
            self.den = Int::ONE;
            return;
        }
        // Integer values are already in lowest terms; skip the gcd (the
        // dominant case — every absolute AUR clock past the first giant
        // wait is an integer).
        if self.den == Int::ONE {
            return;
        }
        if let (Int::Small(n), Int::Small(d)) = (&self.num, &self.den) {
            // Inline operands: the gcd divides both exactly, so two
            // machine divisions finish the job (no remainder checks).
            let g = crate::int::gcd_u128(n.unsigned_abs(), d.unsigned_abs()) as i128;
            if g != 1 {
                self.num = Int::Small(n / g);
                self.den = Int::Small(d / g);
            }
            return;
        }
        let g = self.num.gcd(&self.den);
        if g != Int::ONE {
            self.num = self.num.div_rem(&g).0;
            self.den = self.den.div_rem(&g).0;
        }
    }

    /// Numerator (lowest terms; sign lives here).
    pub fn numer(&self) -> &Int {
        &self.num
    }

    /// Denominator (lowest terms; always positive).
    pub fn denom(&self) -> &Int {
        &self.den
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// True iff strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff the denominator is 1.
    pub fn is_integer(&self) -> bool {
        self.den == Int::ONE
    }

    /// True iff equal to one.
    pub fn is_one(&self) -> bool {
        self.num == Int::ONE && self.den == Int::ONE
    }

    /// Sign as -1, 0, +1.
    pub fn signum(&self) -> i32 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "Ratio::recip of zero");
        Ratio::new(self.den.clone(), self.num.clone())
    }

    /// Largest integer ≤ self.
    pub fn floor(&self) -> Int {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            &q - &Int::ONE
        } else {
            q
        }
    }

    /// Smallest integer ≥ self.
    pub fn ceil(&self) -> Int {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            &q + &Int::ONE
        } else {
            q
        }
    }

    /// Compares by value through borrowed operands, without allocating:
    /// all-`i128` components cross-multiply into an exact 256-bit
    /// comparison, and mixed big/small operands are decided by sign and
    /// bit length whenever possible. Only near-tie big-operand pairs fall
    /// back to materialized products. `Ord for Ratio` delegates here.
    pub fn cmp_ref(&self, other: &Ratio) -> Ordering {
        // Shared denominator (also covers integer vs integer): compare
        // numerators directly.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        let (sa, sb) = (self.num.signum(), other.num.signum());
        if sa != sb {
            return sa.cmp(&sb);
        }
        debug_assert!(sa != 0, "zero is canonically 0/1, caught above");
        if let (Int::Small(a), Int::Small(b), Int::Small(c), Int::Small(d)) =
            (&self.num, &self.den, &other.num, &other.den)
        {
            // a/b vs c/d ⇔ a·d vs c·b (b, d > 0), exact in 256 bits.
            let lhs = wide_mul_u128(a.unsigned_abs(), d.unsigned_abs());
            let rhs = wide_mul_u128(c.unsigned_abs(), b.unsigned_abs());
            return if sa > 0 { lhs.cmp(&rhs) } else { rhs.cmp(&lhs) };
        }
        // |a·d| has bits(a)+bits(d) or one fewer; a gap of ≥ 2 decides
        // without multiplying (the giant-wait vs small-time case).
        let lhs_bits = self.num.bits() + other.den.bits();
        let rhs_bits = other.num.bits() + self.den.bits();
        if lhs_bits + 1 < rhs_bits {
            return if sa > 0 {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
        if rhs_bits + 1 < lhs_bits {
            return if sa > 0 {
                Ordering::Greater
            } else {
                Ordering::Less
            };
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }

    /// The smaller of two borrowed ratios (the first on ties), without
    /// cloning either.
    pub fn min_ref<'a>(&'a self, other: &'a Ratio) -> &'a Ratio {
        if other.cmp_ref(self) == Ordering::Less {
            other
        } else {
            self
        }
    }

    /// `min` by value.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `max` by value.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Squares the value.
    pub fn square(&self) -> Ratio {
        self * self
    }

    /// Approximate conversion to `f64`, saturating to ±∞ when out of range.
    ///
    /// Keeps the top 96 bits of numerator and denominator (truncation error
    /// below `2^-95` relative), divides, and rescales by the discarded
    /// exponent — so asymmetric sizes like `2^601 / 1` or `53-bit / 2^1050`
    /// convert accurately instead of saturating.
    pub fn to_f64(&self) -> f64 {
        if self.num.is_zero() {
            return 0.0;
        }
        let nb = self.num.bits();
        let db = self.den.bits();
        if nb <= 500 && db <= 500 {
            return self.num.to_f64() / self.den.to_f64();
        }
        let ns = nb.saturating_sub(96);
        let ds = db.saturating_sub(96);
        let ntop = self.num.shr_magnitude(ns).to_f64();
        let dtop = self.den.shr_magnitude(ds).to_f64();
        scale_by_pow2(ntop / dtop, ns as i64 - ds as i64)
    }
}

/// `x · y` as a 256-bit `(hi, lo)` pair — exact products of unsigned
/// 128-bit magnitudes for the allocation-free comparison path.
fn wide_mul_u128(x: u128, y: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (x0, x1) = (x & MASK, x >> 64);
    let (y0, y1) = (y & MASK, y >> 64);
    let ll = x0 * y0;
    let lh = x0 * y1;
    let hl = x1 * y0;
    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (ll & MASK) | (mid << 64);
    let hi = x1 * y1 + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

/// `x · 2^e` with saturation, splitting the exponent so the intermediate
/// power of two never overflows on its own.
fn scale_by_pow2(x: f64, e: i64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let e = e.clamp(-2200, 2200);
    let h = e / 2;
    let r = e - h;
    x * 2f64.powi(h as i32) * 2f64.powi(r as i32)
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::zero()
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_ref(other)
    }
}

impl Neg for &Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}
impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        -&self
    }
}

impl Add for &Ratio {
    type Output = Ratio;
    fn add(self, rhs: &Ratio) -> Ratio {
        if self.den == rhs.den {
            return Ratio::new(&self.num + &rhs.num, self.den.clone());
        }
        Ratio::new(
            &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Sub for &Ratio {
    type Output = Ratio;
    fn sub(self, rhs: &Ratio) -> Ratio {
        if self.den == rhs.den {
            return Ratio::new(&self.num - &rhs.num, self.den.clone());
        }
        Ratio::new(
            &(&self.num * &rhs.den) - &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Mul for &Ratio {
    type Output = Ratio;
    fn mul(self, rhs: &Ratio) -> Ratio {
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = self.num.gcd(&rhs.den);
        let g2 = rhs.num.gcd(&self.den);
        let (n1, d2) = if g1 == Int::ONE {
            (self.num.clone(), rhs.den.clone())
        } else {
            (self.num.div_rem(&g1).0, rhs.den.div_rem(&g1).0)
        };
        let (n2, d1) = if g2 == Int::ONE {
            (rhs.num.clone(), self.den.clone())
        } else {
            (rhs.num.div_rem(&g2).0, self.den.div_rem(&g2).0)
        };
        Ratio {
            num: &n1 * &n2,
            den: &d1 * &d2,
        }
    }
}

impl Div for &Ratio {
    type Output = Ratio;
    fn div(self, rhs: &Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "Ratio division by zero");
        self * &rhs.recip()
    }
}

macro_rules! forward_ratio_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: Ratio) -> Ratio {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Ratio> for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: &Ratio) -> Ratio {
                (&self).$method(rhs)
            }
        }
        impl $trait<Ratio> for &Ratio {
            type Output = Ratio;
            fn $method(self, rhs: Ratio) -> Ratio {
                self.$method(&rhs)
            }
        }
    };
}
forward_ratio_binop!(Add, add);
forward_ratio_binop!(Sub, sub);
forward_ratio_binop!(Mul, mul);
forward_ratio_binop!(Div, div);

/// Lowest-terms `Ratio` from raw `i128` components with `den > 0`, staying
/// on the inline small-int path (no heap).
fn from_small(num: i128, den: i128) -> Ratio {
    debug_assert!(den > 0);
    if num == 0 {
        return Ratio {
            num: Int::ZERO,
            den: Int::ONE,
        };
    }
    // gcd divides the positive i128 `den`, so the cast back is exact.
    let g = crate::int::gcd_u128(num.unsigned_abs(), den.unsigned_abs()) as i128;
    Ratio {
        num: Int::Small(num / g),
        den: Int::Small(den / g),
    }
}

/// All-small components of `(lhs, rhs)`, if both ratios are inline.
fn small_parts(lhs: &Ratio, rhs: &Ratio) -> Option<(i128, i128, i128, i128)> {
    match (&lhs.num, &lhs.den, &rhs.num, &rhs.den) {
        (Int::Small(a), Int::Small(b), Int::Small(c), Int::Small(d)) => Some((*a, *b, *c, *d)),
        _ => None,
    }
}

/// `a/b + c/d` on the small path, or `None` on i128 overflow.
fn small_add(a: i128, b: i128, c: i128, d: i128) -> Option<Ratio> {
    let (n, den) = if b == d {
        (a.checked_add(c)?, b)
    } else {
        (
            a.checked_mul(d)?.checked_add(c.checked_mul(b)?)?,
            b.checked_mul(d)?,
        )
    };
    Some(from_small(n, den))
}

impl AddAssign<&Ratio> for Ratio {
    fn add_assign(&mut self, rhs: &Ratio) {
        if let Some((a, b, c, d)) = small_parts(self, rhs) {
            if let Some(sum) = small_add(a, b, c, d) {
                *self = sum;
                return;
            }
        }
        *self = &*self + rhs;
    }
}
impl SubAssign<&Ratio> for Ratio {
    fn sub_assign(&mut self, rhs: &Ratio) {
        if let Some((a, b, c, d)) = small_parts(self, rhs) {
            if let Some(diff) = c.checked_neg().and_then(|nc| small_add(a, b, nc, d)) {
                *self = diff;
                return;
            }
        }
        *self = &*self - rhs;
    }
}
impl MulAssign<&Ratio> for Ratio {
    fn mul_assign(&mut self, rhs: &Ratio) {
        if let Some((a, b, c, d)) = small_parts(self, rhs) {
            // Cross-reduce exactly like `Mul for &Ratio`; the reduced
            // product of lowest-term inputs is itself in lowest terms.
            let g1 = crate::int::gcd_u128(a.unsigned_abs(), d.unsigned_abs()).max(1) as i128;
            let g2 = crate::int::gcd_u128(c.unsigned_abs(), b.unsigned_abs()).max(1) as i128;
            let prod = (a / g1)
                .checked_mul(c / g2)
                .zip((b / g2).checked_mul(d / g1));
            if let Some((n, den)) = prod {
                self.num = Int::Small(n);
                self.den = Int::Small(den);
                return;
            }
        }
        *self = &*self * rhs;
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Ratio {
        Ratio::from_int(v)
    }
}
impl From<i32> for Ratio {
    fn from(v: i32) -> Ratio {
        Ratio::from_int(v)
    }
}
impl From<Int> for Ratio {
    fn from(v: Int) -> Ratio {
        Ratio::from_int(v)
    }
}

impl std::str::FromStr for Ratio {
    type Err = String;

    /// Parses `"p"`, `"p/q"`, or a decimal like `"1.25"` (converted
    /// exactly: `125/100` normalized).
    fn from_str(s: &str) -> Result<Ratio, String> {
        let s = s.trim();
        if let Some((num, den)) = s.split_once('/') {
            let n =
                Int::from_decimal(num.trim()).ok_or_else(|| format!("bad numerator in {s:?}"))?;
            let d =
                Int::from_decimal(den.trim()).ok_or_else(|| format!("bad denominator in {s:?}"))?;
            if d.is_zero() {
                return Err(format!("zero denominator in {s:?}"));
            }
            return Ok(Ratio::new(n, d));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let digits = frac_part.len() as u32;
            if digits == 0 || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(format!("bad decimal in {s:?}"));
            }
            let joined = format!("{int_part}{frac_part}");
            let n = Int::from_decimal(&joined).ok_or_else(|| format!("bad decimal in {s:?}"))?;
            let mut den = Int::ONE;
            for _ in 0..digits {
                den = &den * &Int::from(10i64);
            }
            return Ok(Ratio::new(n, den));
        }
        Int::from_decimal(s)
            .map(Ratio::from_int)
            .ok_or_else(|| format!("bad rational {s:?}"))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == Int::ONE {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Ratio {
        Ratio::frac(p, q)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 5), Ratio::zero());
        assert_eq!(r(6, -3), Ratio::from_int(-2));
        assert!(r(1, -2).denom().is_positive());
    }

    #[test]
    fn arithmetic_identities() {
        let a = r(3, 7);
        let b = r(-2, 5);
        assert_eq!(&(&a + &b) - &b, a);
        assert_eq!(&(&a * &b) / &b, a);
        assert_eq!(&a + &Ratio::zero(), a);
        assert_eq!(&a * &Ratio::one(), a);
        assert_eq!(&a + &(-&a), Ratio::zero());
        assert_eq!(&a * &a.recip(), Ratio::one());
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 2) > Ratio::from_int(3));
        assert_eq!(r(10, 20).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn pow2_both_signs() {
        assert_eq!(Ratio::pow2(3), Ratio::from_int(8));
        assert_eq!(Ratio::pow2(-3), r(1, 8));
        assert_eq!(&Ratio::pow2(200) * &Ratio::pow2(-200), Ratio::one());
        // The paper's giant wait exponents must round-trip exactly.
        let w = Ratio::pow2(15 * 36); // 2^(15·6²) = 2^540
        assert_eq!(w.numer().bits(), 541);
        assert_eq!(&w * &Ratio::pow2(-540), Ratio::one());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), Int::from(3));
        assert_eq!(r(7, 2).ceil(), Int::from(4));
        assert_eq!(r(-7, 2).floor(), Int::from(-4));
        assert_eq!(r(-7, 2).ceil(), Int::from(-3));
        assert_eq!(Ratio::from_int(5).floor(), Int::from(5));
        assert_eq!(Ratio::from_int(5).ceil(), Int::from(5));
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f64(), -0.75);
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        let huge = Ratio::pow2(600);
        assert_eq!(huge.to_f64(), 2f64.powi(600));
        let tiny = Ratio::pow2(-600);
        assert_eq!(tiny.to_f64(), 2f64.powi(-600));
        let over = Ratio::pow2(1100);
        assert_eq!(over.to_f64(), f64::INFINITY);
        assert_eq!((-over).to_f64(), f64::NEG_INFINITY);
    }

    #[test]
    fn big_ratio_to_f64_ratio_of_giants() {
        // (2^600 + 1) / 2^600 ≈ 1.0
        let n = &Ratio::pow2(600) + &Ratio::one();
        let q = &n / &Ratio::pow2(600);
        assert!((q.to_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_f64_exact_dyadics() {
        assert_eq!(Ratio::from_f64_exact(0.5).unwrap(), r(1, 2));
        assert_eq!(Ratio::from_f64_exact(-0.75).unwrap(), r(-3, 4));
        assert_eq!(Ratio::from_f64_exact(3.0).unwrap(), Ratio::from_int(3));
        assert_eq!(Ratio::from_f64_exact(0.0).unwrap(), Ratio::zero());
        assert!(Ratio::from_f64_exact(f64::NAN).is_none());
        assert!(Ratio::from_f64_exact(f64::INFINITY).is_none());
        // Round-trip arbitrary doubles.
        for v in [0.1, -123.456, 1e-300, 1e300, f64::MIN_POSITIVE] {
            let rt = Ratio::from_f64_exact(v).unwrap().to_f64();
            assert_eq!(rt, v, "roundtrip {v}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(-4, 2).to_string(), "-2");
        assert_eq!(Ratio::zero().to_string(), "0");
    }

    #[test]
    fn giant_wait_ordering_is_exact() {
        // The motivating case: t_big + small vs t_big must stay ordered.
        let t_big = Ratio::pow2(540);
        let bumped = &t_big + &Ratio::pow2(-30);
        assert!(bumped > t_big);
        // f64 would collapse the two (this is why Ratio exists).
        assert_eq!(bumped.to_f64(), t_big.to_f64());
    }

    #[test]
    fn cross_reduced_mul_is_exact() {
        let a = Ratio::new(Int::pow2(200), Int::from(9));
        let b = Ratio::new(Int::from(3), Int::pow2(199));
        assert_eq!(&a * &b, r(2, 3));
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3".parse::<Ratio>().unwrap(), Ratio::from_int(3));
        assert_eq!("-3/6".parse::<Ratio>().unwrap(), r(-1, 2));
        assert_eq!(" 7 / 4 ".parse::<Ratio>().unwrap(), r(7, 4));
        assert_eq!("1.25".parse::<Ratio>().unwrap(), r(5, 4));
        assert_eq!("-0.5".parse::<Ratio>().unwrap(), r(-1, 2));
        assert!("".parse::<Ratio>().is_err());
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("a/b".parse::<Ratio>().is_err());
        assert!("1.2.3".parse::<Ratio>().is_err());
    }

    #[test]
    fn parse_display_roundtrip() {
        for v in [r(22, 7), r(-9, 4), Ratio::from_int(0), Ratio::pow2(40)] {
            let s = v.to_string();
            assert_eq!(s.parse::<Ratio>().unwrap(), v, "roundtrip {s}");
        }
    }
}
