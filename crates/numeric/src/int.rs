//! Signed arbitrary-precision integers with an `i128` fast path.
//!
//! The workloads in this project keep almost every quantity within a couple
//! of machine words: instance parameters are small rationals, and algorithm
//! distances are dyadic. Only the calibrated waits of Algorithm 1
//! (`2^(15 i²)` local time units) and their products spill into the big
//! representation. `Int` therefore stores an `i128` inline and promotes to
//! limb vectors only on overflow — the small-int optimisation the HPC guide
//! recommends for allocation-heavy numeric kernels.

use crate::mag;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Signed arbitrary-precision integer.
///
/// Canonical form: `Small` whenever the value fits in `i128`; `Big`
/// otherwise, with `mag` trimmed (no trailing zero limbs) and `neg == false`
/// for zero (zero is always `Small(0)`).
#[derive(Clone)]
pub enum Int {
    /// Inline value; the overwhelmingly common case.
    Small(i128),
    /// Sign-magnitude heap representation for values outside `i128`.
    Big {
        /// Sign: `true` for strictly negative values.
        neg: bool,
        /// Little-endian limbs, trimmed, magnitude > `i128::MAX`.
        mag: Vec<u64>,
    },
}

impl Int {
    /// Zero.
    pub const ZERO: Int = Int::Small(0);
    /// One.
    pub const ONE: Int = Int::Small(1);

    /// Builds the canonical representation from sign + magnitude limbs.
    fn from_sign_mag(neg: bool, mut mag: Vec<u64>) -> Int {
        mag::trim(&mut mag);
        if let Some(v) = mag::to_u128(&mag) {
            if !neg && v <= i128::MAX as u128 {
                return Int::Small(v as i128);
            }
            if neg && v <= (i128::MAX as u128) + 1 {
                // -(2^127) is representable.
                return Int::Small((v as i128).wrapping_neg());
            }
        }
        Int::Big { neg, mag }
    }

    /// Constructs from an `i128`.
    #[inline]
    pub fn from_i128(v: i128) -> Int {
        Int::Small(v)
    }

    /// Constructs from a `u128` (promotes to `Big` above `i128::MAX`).
    #[inline]
    pub fn from_u128(v: u128) -> Int {
        if v <= i128::MAX as u128 {
            Int::Small(v as i128)
        } else {
            Int::Big {
                neg: false,
                mag: mag::from_u128(v),
            }
        }
    }

    /// `2^k` for `k ≥ 0`.
    pub fn pow2(k: u64) -> Int {
        if k < 127 {
            Int::Small(1i128 << k)
        } else {
            Int::Big {
                neg: false,
                mag: mag::shl(&[1], k),
            }
        }
    }

    /// True iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self, Int::Small(0))
    }

    /// True iff the value is strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        match self {
            Int::Small(v) => *v < 0,
            Int::Big { neg, .. } => *neg,
        }
    }

    /// True iff the value is strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        !self.is_zero() && !self.is_negative()
    }

    /// Sign as -1, 0, or +1.
    #[inline]
    pub fn signum(&self) -> i32 {
        if self.is_zero() {
            0
        } else if self.is_negative() {
            -1
        } else {
            1
        }
    }

    /// Returns the value as `i128` when it fits.
    pub fn to_i128(&self) -> Option<i128> {
        match self {
            Int::Small(v) => Some(*v),
            Int::Big { .. } => None,
        }
    }

    /// Magnitude limbs of `self` (allocates for the small case).
    fn magnitude(&self) -> Vec<u64> {
        match self {
            Int::Small(v) => mag::from_u128(v.unsigned_abs()),
            Int::Big { mag, .. } => mag.clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        match self {
            Int::Small(v) => {
                if let Some(a) = v.checked_abs() {
                    Int::Small(a)
                } else {
                    // |i128::MIN| does not fit; promote.
                    Int::Big {
                        neg: false,
                        mag: mag::from_u128(v.unsigned_abs()),
                    }
                }
            }
            Int::Big { mag, .. } => Int::Big {
                neg: false,
                mag: mag.clone(),
            },
        }
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match self {
            Int::Small(v) => 128 - v.unsigned_abs().leading_zeros() as u64,
            Int::Big { mag, .. } => mag::bits(mag),
        }
    }

    /// `self << k` (exact multiplication by `2^k`).
    pub fn shl(&self, k: u64) -> Int {
        match self {
            Int::Small(0) => Int::ZERO,
            Int::Small(v) => {
                let abs = v.unsigned_abs();
                if k < 127 && abs.leading_zeros() as u64 > k {
                    Int::Small(v << k)
                } else {
                    Int::from_sign_mag(*v < 0, mag::shl(&mag::from_u128(abs), k))
                }
            }
            Int::Big { neg, mag } => Int::from_sign_mag(*neg, mag::shl(mag, k)),
        }
    }

    /// `self >> k`, flooring toward zero on the magnitude (used only on
    /// non-negative values in practice; asserts that in debug builds).
    pub fn shr_magnitude(&self, k: u64) -> Int {
        match self {
            Int::Small(v) => {
                let shifted = if k >= 128 { 0 } else { v.unsigned_abs() >> k };
                Int::from_sign_mag(*v < 0 && shifted != 0, mag::from_u128(shifted))
            }
            Int::Big { neg, mag } => Int::from_sign_mag(*neg, mag::shr(mag, k)),
        }
    }

    /// Trailing zero bits of the magnitude; `None` for zero.
    fn trailing_zeros(&self) -> Option<u64> {
        match self {
            Int::Small(0) => None,
            Int::Small(v) => Some(v.unsigned_abs().trailing_zeros() as u64),
            Int::Big { mag, .. } => mag::trailing_zeros(mag),
        }
    }

    /// Greatest common divisor of magnitudes; `gcd(0, x) = |x|`.
    pub fn gcd(&self, other: &Int) -> Int {
        match (self, other) {
            (Int::Small(a), Int::Small(b)) => {
                Int::from_u128(gcd_u128(a.unsigned_abs(), b.unsigned_abs()))
            }
            _ => {
                if self.is_zero() {
                    return other.abs();
                }
                if other.is_zero() {
                    return self.abs();
                }
                // Dyadic fast path: when either operand is ±2^t the gcd is
                // 2^min(t, tz(other)) — the dominant big-operand case here,
                // since every AUR duration is a power of two.
                let (ta, tb) = (
                    self.trailing_zeros().expect("nonzero"),
                    other.trailing_zeros().expect("nonzero"),
                );
                if self.bits() == ta + 1 || other.bits() == tb + 1 {
                    return Int::pow2(ta.min(tb));
                }
                // Mixed small/big: one Euclidean step folds the big side
                // into u128 range (`gcd(a, B) = gcd(a, B mod a)`), avoiding
                // the limb-vector binary GCD entirely.
                match (self, other) {
                    (Int::Small(a), Int::Big { mag, .. })
                    | (Int::Big { mag, .. }, Int::Small(a)) => {
                        let a_abs = a.unsigned_abs();
                        let (_, r) = mag::divrem(mag, &mag::from_u128(a_abs));
                        let r = mag::to_u128(&r).expect("remainder below a u128 divisor");
                        Int::from_u128(gcd_u128(a_abs, r))
                    }
                    (Int::Big { mag: ma, .. }, Int::Big { mag: mb, .. }) => {
                        Int::from_sign_mag(false, mag::gcd(ma, mb))
                    }
                    _ => unreachable!("small/small handled above"),
                }
            }
        }
    }

    /// Euclidean-style division: returns `(quotient, remainder)` with the
    /// quotient truncated toward zero and `remainder` carrying the sign of
    /// `self` (matching Rust's `/` and `%` on primitives).
    pub fn div_rem(&self, other: &Int) -> (Int, Int) {
        assert!(!other.is_zero(), "Int division by zero");
        if let (Int::Small(a), Int::Small(b)) = (self, other) {
            if let (Some(q), Some(r)) = (a.checked_div(*b), a.checked_rem(*b)) {
                return (Int::Small(q), Int::Small(r));
            }
        }
        let (qm, rm) = mag::divrem(&self.magnitude(), &other.magnitude());
        let q_neg = self.is_negative() != other.is_negative();
        (
            Int::from_sign_mag(q_neg, qm),
            Int::from_sign_mag(self.is_negative(), rm),
        )
    }

    /// Converts to `f64` (saturating to ±∞ outside the representable range).
    pub fn to_f64(&self) -> f64 {
        match self {
            Int::Small(v) => *v as f64,
            Int::Big { neg, mag } => {
                let m = mag::to_f64(mag);
                if *neg {
                    -m
                } else {
                    m
                }
            }
        }
    }

    /// Parses a decimal string with an optional leading `-`/`+`.
    pub fn from_decimal(s: &str) -> Option<Int> {
        let (neg, digits) = match s.as_bytes().first()? {
            b'-' => (true, &s[1..]),
            b'+' => (false, &s[1..]),
            _ => (false, s),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut acc = Int::ZERO;
        let ten = Int::Small(10);
        for b in digits.bytes() {
            acc = &(&acc * &ten) + &Int::Small((b - b'0') as i128);
        }
        Some(if neg { -acc } else { acc })
    }
}

/// Binary GCD for `u128`, with a word-sized fast path: almost every
/// normalization in this workload fits u64, where the same loop runs on
/// native words instead of double-word arithmetic.
pub(crate) fn gcd_u128(a: u128, b: u128) -> u128 {
    const WORD: u128 = u64::MAX as u128;
    match (a <= WORD, b <= WORD) {
        (true, true) => gcd_u64(a as u64, b as u64) as u128,
        // One Euclidean step folds a wide operand onto a word-sized one
        // (`gcd(a, b) = gcd(a, b mod a)`): a binary GCD would otherwise
        // shave the wide side one subtraction at a time, ~100 rounds for
        // a tick count past 2^64 against a small grid denominator.
        (true, false) if a != 0 => gcd_u64(a as u64, (b % a) as u64) as u128,
        (false, true) if b != 0 => gcd_u64(b as u64, (a % b) as u64) as u128,
        _ => gcd_u128_slow(a, b),
    }
}

fn gcd_u128_slow(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            break;
        }
    }
    a << shift
}

/// Binary GCD on native words.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            break;
        }
    }
    a << shift
}

impl PartialEq for Int {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Int {}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Int::Small(a), Int::Small(b)) => a.cmp(b),
            (Int::Big { neg: na, mag: ma }, Int::Big { neg: nb, mag: mb }) => match (na, nb) {
                (false, true) => Ordering::Greater,
                (true, false) => Ordering::Less,
                (false, false) => mag::cmp(ma, mb),
                (true, true) => mag::cmp(ma, mb).reverse(),
            },
            // Canonical form guarantees a Big magnitude exceeds any i128,
            // so mixed comparisons are decided by the Big side's sign.
            (Int::Small(_), Int::Big { neg, .. }) => {
                if *neg {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (Int::Big { neg, .. }, Int::Small(_)) => {
                if *neg {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
        }
    }
}

impl std::hash::Hash for Int {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash the canonical (sign, limbs) form so Small/Big never collide
        // differently for equal values (equal values share representation by
        // the canonical-form invariant).
        match self {
            Int::Small(v) => {
                state.write_u8(0);
                state.write_i128(*v);
            }
            Int::Big { neg, mag } => {
                state.write_u8(1);
                state.write_u8(*neg as u8);
                for limb in mag {
                    state.write_u64(*limb);
                }
            }
        }
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        match self {
            Int::Small(v) => {
                if let Some(n) = v.checked_neg() {
                    Int::Small(n)
                } else {
                    Int::Big {
                        neg: false,
                        mag: mag::from_u128(v.unsigned_abs()),
                    }
                }
            }
            Int::Big { neg, mag } => Int::from_sign_mag(!neg, mag.clone()),
        }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        -&self
    }
}

impl Add for &Int {
    type Output = Int;
    fn add(self, rhs: &Int) -> Int {
        if let (Int::Small(a), Int::Small(b)) = (self, rhs) {
            if let Some(s) = a.checked_add(*b) {
                return Int::Small(s);
            }
        }
        // Sign-magnitude addition.
        let (an, bm) = (self.is_negative(), rhs.is_negative());
        let (ma, mb) = (self.magnitude(), rhs.magnitude());
        if an == bm {
            Int::from_sign_mag(an, mag::add(&ma, &mb))
        } else {
            match mag::cmp(&ma, &mb) {
                Ordering::Equal => Int::ZERO,
                Ordering::Greater => Int::from_sign_mag(an, mag::sub(&ma, &mb)),
                Ordering::Less => Int::from_sign_mag(bm, mag::sub(&mb, &ma)),
            }
        }
    }
}

impl Sub for &Int {
    type Output = Int;
    fn sub(self, rhs: &Int) -> Int {
        if let (Int::Small(a), Int::Small(b)) = (self, rhs) {
            if let Some(s) = a.checked_sub(*b) {
                return Int::Small(s);
            }
        }
        self + &(-rhs)
    }
}

impl Mul for &Int {
    type Output = Int;
    fn mul(self, rhs: &Int) -> Int {
        if let (Int::Small(a), Int::Small(b)) = (self, rhs) {
            if let Some(p) = a.checked_mul(*b) {
                return Int::Small(p);
            }
        }
        if self.is_zero() || rhs.is_zero() {
            return Int::ZERO;
        }
        let neg = self.is_negative() != rhs.is_negative();
        Int::from_sign_mag(neg, mag::mul(&self.magnitude(), &rhs.magnitude()))
    }
}

macro_rules! forward_binop_owned {
    ($trait:ident, $method:ident) => {
        impl $trait for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                (&self).$method(rhs)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                self.$method(&rhs)
            }
        }
    };
}
forward_binop_owned!(Add, add);
forward_binop_owned!(Sub, sub);
forward_binop_owned!(Mul, mul);

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        *self = &*self + rhs;
    }
}
impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        *self = &*self - rhs;
    }
}
impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, rhs: &Int) {
        *self = &*self * rhs;
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Int {
        Int::Small(v as i128)
    }
}
impl From<i32> for Int {
    fn from(v: i32) -> Int {
        Int::Small(v as i128)
    }
}
impl From<u64> for Int {
    fn from(v: u64) -> Int {
        Int::Small(v as i128)
    }
}
impl From<i128> for Int {
    fn from(v: i128) -> Int {
        Int::Small(v)
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Int::Small(v) => write!(f, "{v}"),
            Int::Big { neg, mag } => {
                if *neg {
                    write!(f, "-")?;
                }
                // Peel 19-digit chunks by dividing by 10^19.
                let chunk = mag::from_u128(10_000_000_000_000_000_000u128);
                let mut rest = mag.clone();
                let mut chunks: Vec<u64> = Vec::new();
                while !rest.is_empty() {
                    let (q, r) = mag::divrem(&rest, &chunk);
                    chunks.push(mag::to_u128(&r).unwrap() as u64);
                    rest = q;
                }
                let mut iter = chunks.iter().rev();
                if let Some(first) = iter.next() {
                    write!(f, "{first}")?;
                }
                for c in iter {
                    write!(f, "{c:019}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for Int {
    /// Numbers read better unadorned in assertion output, so `Debug`
    /// delegates to `Display`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(bits: u64) -> Int {
        Int::pow2(bits)
    }

    #[test]
    fn canonical_small() {
        assert!(matches!(Int::from_u128(5), Int::Small(5)));
        assert!(matches!(
            Int::from_u128(i128::MAX as u128),
            Int::Small(i128::MAX)
        ));
        assert!(matches!(
            Int::from_u128(i128::MAX as u128 + 1),
            Int::Big { .. }
        ));
    }

    #[test]
    fn add_overflow_promotes() {
        let a = Int::Small(i128::MAX);
        let b = Int::Small(1);
        let s = &a + &b;
        assert!(matches!(s, Int::Big { .. }));
        assert_eq!(&s - &b, a);
    }

    #[test]
    fn neg_min_promotes() {
        let m = Int::Small(i128::MIN);
        let n = -&m;
        assert!(n.is_positive());
        assert_eq!(-&n, m);
    }

    #[test]
    fn mixed_sign_addition() {
        let a = big(200);
        let b = -&big(200);
        assert!((&a + &b).is_zero());
        let c = &big(200) + &Int::Small(-7);
        assert_eq!(&c + &Int::Small(7), big(200));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(&Int::Small(-3) * &Int::Small(4), Int::Small(-12));
        let p = &(-&big(130)) * &Int::Small(-2);
        assert_eq!(p, big(131));
        assert!((&big(130) * &Int::ZERO).is_zero());
    }

    #[test]
    fn ordering_across_representations() {
        let a = big(200);
        let b = big(201);
        assert!(a < b);
        assert!(-&a > -&b);
        assert!(Int::Small(5) < a);
        assert!(-&a < Int::Small(5));
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn pow2_boundaries() {
        assert_eq!(Int::pow2(0), Int::Small(1));
        assert_eq!(Int::pow2(126), Int::Small(1 << 126));
        assert_eq!(Int::pow2(127).to_f64(), 2f64.powi(127));
        assert_eq!(Int::pow2(540).bits(), 541);
    }

    #[test]
    fn shl_matches_pow2_mul() {
        let v = Int::Small(12345);
        assert_eq!(v.shl(200), &v * &Int::pow2(200));
        let n = Int::Small(-7);
        assert_eq!(n.shl(130), &n * &Int::pow2(130));
    }

    #[test]
    fn gcd_values() {
        assert_eq!(Int::Small(12).gcd(&Int::Small(18)), Int::Small(6));
        assert_eq!(Int::Small(-12).gcd(&Int::Small(18)), Int::Small(6));
        assert_eq!(Int::ZERO.gcd(&Int::Small(-5)), Int::Small(5));
        let g = big(300).gcd(&big(200));
        assert_eq!(g, big(200));
    }

    #[test]
    fn mixed_width_gcd_matches_binary_gcd() {
        // Word-sized against wide operands (a small grid denominator
        // against a tick count past 2^64), both orders, zeros included.
        let mut x: u128 = 0x9e37_79b9_7f4a_7c15;
        for k in 0..2000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A shared factor makes most gcds nontrivial.
            let c = u128::from(k % 96 + 1);
            let small = ((x >> 64) >> (k % 64 + 8)) * c;
            let wide = ((x | (1 << 100)) >> (k % 27 + 8)) * c;
            for (a, b) in [(small, wide), (wide, small), (0, wide), (wide, 0)] {
                assert_eq!(gcd_u128(a, b), gcd_u128_slow(a, b), "gcd({a}, {b})");
            }
        }
    }

    #[test]
    fn div_rem_matches_primitives() {
        for (a, b) in [(100i128, 7i128), (-100, 7), (100, -7), (-100, -7)] {
            let (q, r) = Int::Small(a).div_rem(&Int::Small(b));
            assert_eq!(q, Int::Small(a / b));
            assert_eq!(r, Int::Small(a % b));
        }
    }

    #[test]
    fn div_rem_big() {
        let a = big(300);
        let b = Int::Small(1_000_003);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r >= Int::ZERO && r < b);
    }

    #[test]
    fn display_round_trip() {
        for v in [
            Int::ZERO,
            Int::Small(-42),
            Int::Small(i128::MAX),
            big(150),
            -&big(200),
            &big(400) + &Int::Small(987654321),
        ] {
            let s = v.to_string();
            assert_eq!(Int::from_decimal(&s).unwrap(), v, "roundtrip {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Int::from_decimal("").is_none());
        assert!(Int::from_decimal("-").is_none());
        assert!(Int::from_decimal("12a").is_none());
        assert!(Int::from_decimal("1.5").is_none());
    }

    #[test]
    fn to_f64_big() {
        assert_eq!(big(400).to_f64(), 2f64.powi(400));
        assert_eq!((-&big(400)).to_f64(), -(2f64.powi(400)));
        assert_eq!(big(1100).to_f64(), f64::INFINITY);
    }

    #[test]
    fn bits_small_and_big() {
        assert_eq!(Int::ZERO.bits(), 0);
        assert_eq!(Int::Small(1).bits(), 1);
        assert_eq!(Int::Small(-8).bits(), 4);
        assert_eq!(big(127).bits(), 128);
    }
}
