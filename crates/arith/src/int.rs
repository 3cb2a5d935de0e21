//! Arbitrary-precision signed integers.
//!
//! [`Int`] is a 16-byte value. Values that fit in an `i64` (the
//! overwhelmingly common case for constraint coefficients) live inline
//! and take machine-word fast paths; every other value lives in a boxed
//! sign-magnitude little-endian `u64`-limb tier. The canonical-form
//! invariant — *inline iff the value fits in `i64`* — makes structural
//! equality agree with numeric equality.
//!
//! The `int_promotions` counter and the `max_coeff_bits` gauge fire only
//! when a result leaves the `i128` range: a value between the two
//! boundaries sits in the boxed tier without bumping them, so the
//! coefficient-size budget keeps the meaning it had when `i128` was the
//! inline width.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
///
/// ```
/// use presburger_arith::Int;
///
/// let a = Int::from(10).pow(40);
/// let b = &a * &a;
/// assert_eq!(b.to_string().len(), 81);
/// assert_eq!(&b / &a, a);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Int(Repr);

// Structural equality is numeric equality because the form is canonical.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Small(i64),
    /// Boxed so that `Int` stays two words wide.
    Big(Box<Big>),
}

/// A value outside the `i64` range. Invariants: limbs are
/// little-endian, there is no trailing zero limb, and the signed value
/// does not fit in `i64`.
#[derive(Clone, PartialEq, Eq)]
struct Big {
    negative: bool,
    limbs: Vec<u64>,
}

impl Big {
    fn to_i128(&self) -> Option<i128> {
        if self.limbs.len() > 2 {
            return None;
        }
        let mag = self.limbs[0] as u128 | ((self.limbs.get(1).copied().unwrap_or(0) as u128) << 64);
        if self.negative {
            (mag <= i128::MIN.unsigned_abs()).then(|| (mag as i128).wrapping_neg())
        } else {
            i128::try_from(mag).ok()
        }
    }
}

impl Int {
    /// The value `0`.
    pub fn zero() -> Int {
        Int(Repr::Small(0))
    }

    /// The value `1`.
    pub fn one() -> Int {
        Int(Repr::Small(1))
    }

    /// Returns `true` if `self == 0`.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// Returns `true` if `self == 1`.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Returns `true` if `self > 0`.
    pub fn is_positive(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v > 0,
            Repr::Big(b) => !b.negative,
        }
    }

    /// Returns `true` if `self < 0`.
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v < 0,
            Repr::Big(b) => b.negative,
        }
    }

    /// Sign of the value: `-1`, `0`, or `1`.
    pub fn signum(&self) -> i32 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i32,
            Repr::Big(b) => {
                if b.negative {
                    -1
                } else {
                    1
                }
            }
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Int {
        if self.is_negative() {
            -self.clone()
        } else {
            self.clone()
        }
    }

    /// Returns the value as an `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        match &self.0 {
            Repr::Small(v) => Some(*v),
            Repr::Big(_) => None,
        }
    }

    /// Returns the value as an `i128` if it fits.
    pub fn to_i128(&self) -> Option<i128> {
        match &self.0 {
            Repr::Small(v) => Some(*v as i128),
            Repr::Big(b) => b.to_i128(),
        }
    }

    /// Returns the value as an `f64` (approximate for huge values).
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            Repr::Small(v) => *v as f64,
            Repr::Big(b) => {
                let mut x = 0.0f64;
                for &l in b.limbs.iter().rev() {
                    x = x * 1.8446744073709552e19 + l as f64;
                }
                if b.negative {
                    -x
                } else {
                    x
                }
            }
        }
    }

    /// `self` raised to the power `exp`.
    ///
    /// ```
    /// use presburger_arith::Int;
    /// assert_eq!(Int::from(3).pow(4), Int::from(81));
    /// assert_eq!(Int::from(7).pow(0), Int::one());
    /// ```
    pub fn pow(&self, exp: u32) -> Int {
        let mut result = Int::one();
        let mut base = self.clone();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result = &result * &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
        }
        result
    }

    /// Floor division: rounds the quotient toward negative infinity.
    ///
    /// ```
    /// use presburger_arith::Int;
    /// assert_eq!(Int::from(-7).div_floor(&Int::from(2)), Int::from(-4));
    /// assert_eq!(Int::from(7).div_floor(&Int::from(2)), Int::from(3));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_floor(&self, d: &Int) -> Int {
        let (q, r) = self.div_rem(d);
        if !r.is_zero() && (r.is_negative() != d.is_negative()) {
            q - Int::one()
        } else {
            q
        }
    }

    /// Ceiling division: rounds the quotient toward positive infinity.
    ///
    /// ```
    /// use presburger_arith::Int;
    /// assert_eq!(Int::from(7).div_ceil(&Int::from(2)), Int::from(4));
    /// assert_eq!(Int::from(-7).div_ceil(&Int::from(2)), Int::from(-3));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_ceil(&self, d: &Int) -> Int {
        let (q, r) = self.div_rem(d);
        if !r.is_zero() && (r.is_negative() == d.is_negative()) {
            q + Int::one()
        } else {
            q
        }
    }

    /// Euclidean remainder: always in `[0, |d|)`.
    ///
    /// ```
    /// use presburger_arith::Int;
    /// assert_eq!(Int::from(-7).rem_euclid(&Int::from(3)), Int::from(2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn rem_euclid(&self, d: &Int) -> Int {
        let r = self % d;
        if r.is_negative() {
            &r + &d.abs()
        } else {
            r
        }
    }

    /// Truncating division and remainder (remainder has the sign of
    /// `self`, like Rust's `/` and `%` on primitives).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &Int) -> (Int, Int) {
        assert!(!d.is_zero(), "division by zero");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &d.0) {
            // i64::MIN / -1 is the one quotient that leaves i64.
            return if *b == -1 {
                (Int::from(-(*a as i128)), Int::zero())
            } else {
                (Int(Repr::Small(a / b)), Int(Repr::Small(a % b)))
            };
        }
        let (an, al) = self.sign_limbs();
        let (bn, bl) = d.sign_limbs();
        let (q, r) = limbs_divrem(&al, &bl);
        (
            Int::from_sign_limbs(an != bn, q),
            Int::from_sign_limbs(an, r),
        )
    }

    /// Returns `true` if `self` divides `other` evenly.
    ///
    /// `0` divides only `0`.
    pub fn divides(&self, other: &Int) -> bool {
        if self.is_zero() {
            other.is_zero()
        } else {
            (other % self).is_zero()
        }
    }

    /// Appends a canonical, self-delimiting byte encoding of the value
    /// to `out`, for use in cache and routing keys.
    ///
    /// The encoding is injective: structurally equal values (and only
    /// those) produce equal bytes, at any point in any process — it
    /// depends on nothing but the numeric value, never on the storage
    /// tier. Small magnitudes use compact tiers (most constraint
    /// coefficients fit in one byte); values up to `i128` take 16 bytes.
    pub fn push_key_bytes(&self, out: &mut Vec<u8>) {
        let v = match &self.0 {
            Repr::Small(v) => {
                if let Ok(b) = i8::try_from(*v) {
                    out.push(1);
                    out.push(b as u8);
                    return;
                }
                if let Ok(w) = i32::try_from(*v) {
                    out.push(2);
                    out.extend_from_slice(&w.to_le_bytes());
                    return;
                }
                *v as i128
            }
            Repr::Big(b) => match b.to_i128() {
                Some(v) => v,
                None => {
                    out.push(if b.negative { 5 } else { 4 });
                    out.extend_from_slice(&(b.limbs.len() as u32).to_le_bytes());
                    for l in &b.limbs {
                        out.extend_from_slice(&l.to_le_bytes());
                    }
                    return;
                }
            },
        };
        out.push(3);
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn sign_limbs(&self) -> (bool, Vec<u64>) {
        match &self.0 {
            Repr::Small(v) => (*v < 0, to_limbs(*v as i128)),
            Repr::Big(b) => (b.negative, b.limbs.clone()),
        }
    }

    /// The canonical `Int` for a value known to fit in `i128`; never
    /// counts a promotion.
    fn from_i128(v: i128) -> Int {
        match i64::try_from(v) {
            Ok(s) => Int(Repr::Small(s)),
            Err(_) => Int(Repr::Big(Box::new(Big {
                negative: v < 0,
                limbs: to_limbs(v),
            }))),
        }
    }

    /// The canonical `Int` for a sign and magnitude; counts a promotion
    /// (and feeds the bit-width gauge) only when the value leaves `i128`.
    fn from_sign_limbs(negative: bool, mut limbs: Vec<u64>) -> Int {
        trim(&mut limbs);
        if limbs.is_empty() {
            return Int::zero();
        }
        let big = Big { negative, limbs };
        match big.to_i128() {
            Some(v) => {
                if let Ok(s) = i64::try_from(v) {
                    return Int(Repr::Small(s));
                }
            }
            None => {
                presburger_trace::bump(presburger_trace::Counter::IntPromotions);
                let bits = (big.limbs.len() as u64 - 1) * 64
                    + (64 - big.limbs.last().expect("nonempty").leading_zeros() as u64);
                presburger_trace::record_max(presburger_trace::Counter::MaxCoeffBits, bits);
            }
        }
        Int(Repr::Big(Box::new(big)))
    }
}

fn to_limbs(v: i128) -> Vec<u64> {
    let mag = v.unsigned_abs();
    let mut l = vec![mag as u64, (mag >> 64) as u64];
    trim(&mut l);
    l
}

fn trim(v: &mut Vec<u64>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

fn limbs_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

#[allow(clippy::needless_range_loop)] // index math pairs limbs across operands
fn limbs_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.len() {
        let s = long[i] as u128 + short.get(i).copied().unwrap_or(0) as u128 + carry as u128;
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`, requiring `a >= b`.
#[allow(clippy::needless_range_loop)] // index math pairs limbs across operands
fn limbs_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(limbs_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, o1) = a[i].overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (o1 || o2) as u64;
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

fn limbs_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return vec![];
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

fn limbs_shl(a: &[u64], bits: u32) -> Vec<u64> {
    if a.is_empty() {
        return vec![];
    }
    let words = (bits / 64) as usize;
    let rem = bits % 64;
    let mut out = vec![0u64; words];
    if rem == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry = 0u64;
        for &x in a {
            out.push((x << rem) | carry);
            carry = x >> (64 - rem);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    trim(&mut out);
    out
}

fn limbs_shr(a: &[u64], bits: u32) -> Vec<u64> {
    let words = (bits / 64) as usize;
    let rem = bits % 64;
    if words >= a.len() {
        return vec![];
    }
    let mut out = Vec::with_capacity(a.len() - words);
    if rem == 0 {
        out.extend_from_slice(&a[words..]);
    } else {
        for i in words..a.len() {
            let lo = a[i] >> rem;
            let hi = if i + 1 < a.len() {
                a[i + 1] << (64 - rem)
            } else {
                0
            };
            out.push(lo | hi);
        }
    }
    trim(&mut out);
    out
}

/// Knuth Algorithm D long division on magnitudes. Returns `(q, r)`.
fn limbs_divrem(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero magnitude");
    if limbs_cmp(a, b) == Ordering::Less {
        return (vec![], a.to_vec());
    }
    if b.len() == 1 {
        // Fast path: single-limb divisor.
        let d = b[0] as u128;
        let mut q = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        trim(&mut q);
        let mut r = vec![rem as u64];
        trim(&mut r);
        return (q, r);
    }
    // Normalize: shift so the top limb of the divisor has its high bit set.
    let shift = b.last().unwrap().leading_zeros();
    let bn = limbs_shl(b, shift);
    let mut an = limbs_shl(a, shift);
    an.push(0); // extra high limb for the algorithm
    let n = bn.len();
    let m = an.len() - n - 1;
    let mut q = vec![0u64; m + 1];
    let btop = bn[n - 1] as u128;
    let bsecond = bn[n - 2] as u128;
    for j in (0..=m).rev() {
        // Estimate qhat from the top two limbs.
        let top = ((an[j + n] as u128) << 64) | an[j + n - 1] as u128;
        let mut qhat = top / btop;
        let mut rhat = top % btop;
        while qhat >> 64 != 0 || qhat * bsecond > ((rhat << 64) | an[j + n - 2] as u128) {
            qhat -= 1;
            rhat += btop;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // Multiply-subtract qhat * bn from an[j .. j+n].
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * bn[i] as u128 + carry;
            carry = p >> 64;
            let sub = (an[j + i] as i128) - (p as u64 as i128) - borrow;
            an[j + i] = sub as u64;
            borrow = if sub < 0 { 1 } else { 0 };
        }
        let sub = (an[j + n] as i128) - (carry as i128) - borrow;
        an[j + n] = sub as u64;
        if sub < 0 {
            // qhat was one too large: add back.
            qhat -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = an[j + i] as u128 + bn[i] as u128 + carry;
                an[j + i] = s as u64;
                carry = s >> 64;
            }
            an[j + n] = an[j + n].wrapping_add(carry as u64);
        }
        q[j] = qhat as u64;
    }
    trim(&mut q);
    let mut r = an[..n].to_vec();
    trim(&mut r);
    (q, limbs_shr(&r, shift))
}

// ---------------------------------------------------------------------
// trait impls

impl Default for Int {
    fn default() -> Int {
        Int::zero()
    }
}

macro_rules! impl_from_prim {
    ($($t:ty),*) => {$(
        impl From<$t> for Int {
            fn from(v: $t) -> Int {
                Int(Repr::Small(v.into()))
            }
        }
    )*};
}
impl_from_prim!(i8, i16, i32, i64, u8, u16, u32);

macro_rules! impl_from_wide {
    ($($t:ty),*) => {$(
        impl From<$t> for Int {
            fn from(v: $t) -> Int {
                Int::from_i128(v as i128)
            }
        }
    )*};
}
impl_from_wide!(i128, u64, usize);

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Int) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Int) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // A Big value is out of i64 range by invariant.
            (Repr::Small(_), Repr::Big(b)) => {
                if b.negative {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (Repr::Big(a), Repr::Small(_)) => {
                if a.negative {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (Repr::Big(a), Repr::Big(b)) => match (a.negative, b.negative) {
                (false, true) => Ordering::Greater,
                (true, false) => Ordering::Less,
                (false, false) => limbs_cmp(&a.limbs, &b.limbs),
                (true, true) => limbs_cmp(&b.limbs, &a.limbs),
            },
        }
    }
}

impl Hash for Int {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Every value in i128 range hashes as that i128, whatever its
        // tier; the canonical form keeps the rest apart.
        let v = match &self.0 {
            Repr::Small(v) => *v as i128,
            Repr::Big(b) => match b.to_i128() {
                Some(v) => v,
                None => {
                    1u8.hash(state);
                    b.negative.hash(state);
                    b.limbs.hash(state);
                    return;
                }
            },
        };
        0u8.hash(state);
        v.hash(state);
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        match self.0 {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => Int(Repr::Small(n)),
                None => Int::from_i128(-(v as i128)),
            },
            Repr::Big(b) => Int::from_sign_limbs(!b.negative, b.limbs),
        }
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

/// `a + b`, where `b` carries the sign `bn` (so subtraction is the
/// same walk with `b`'s sign flipped).
fn add_limbs(an: bool, al: &[u64], bn: bool, bl: &[u64]) -> Int {
    if an == bn {
        Int::from_sign_limbs(an, limbs_add(al, bl))
    } else {
        match limbs_cmp(al, bl) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::from_sign_limbs(an, limbs_sub(al, bl)),
            Ordering::Less => Int::from_sign_limbs(bn, limbs_sub(bl, al)),
        }
    }
}

fn add_impl(a: &Int, b: &Int) -> Int {
    if let (Repr::Small(x), Repr::Small(y)) = (&a.0, &b.0) {
        return match x.checked_add(*y) {
            Some(s) => Int(Repr::Small(s)),
            None => Int::from_i128(*x as i128 + *y as i128),
        };
    }
    let (an, al) = a.sign_limbs();
    let (bn, bl) = b.sign_limbs();
    add_limbs(an, &al, bn, &bl)
}

fn sub_impl(a: &Int, b: &Int) -> Int {
    if let (Repr::Small(x), Repr::Small(y)) = (&a.0, &b.0) {
        return match x.checked_sub(*y) {
            Some(s) => Int(Repr::Small(s)),
            None => Int::from_i128(*x as i128 - *y as i128),
        };
    }
    let (an, al) = a.sign_limbs();
    let (bn, bl) = b.sign_limbs();
    add_limbs(an, &al, !bn, &bl)
}

fn mul_impl(a: &Int, b: &Int) -> Int {
    if let (Repr::Small(x), Repr::Small(y)) = (&a.0, &b.0) {
        // The product of two i64 values always fits in i128.
        return match x.checked_mul(*y) {
            Some(p) => Int(Repr::Small(p)),
            None => Int::from_i128(*x as i128 * *y as i128),
        };
    }
    let (an, al) = a.sign_limbs();
    let (bn, bl) = b.sign_limbs();
    Int::from_sign_limbs(an != bn, limbs_mul(&al, &bl))
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $impl_fn:expr) => {
        impl $trait<&Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                $impl_fn(self, rhs)
            }
        }
        impl $trait<Int> for Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                $impl_fn(&self, &rhs)
            }
        }
        impl $trait<&Int> for Int {
            type Output = Int;
            fn $method(self, rhs: &Int) -> Int {
                $impl_fn(&self, rhs)
            }
        }
        impl $trait<Int> for &Int {
            type Output = Int;
            fn $method(self, rhs: Int) -> Int {
                $impl_fn(self, &rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_impl);
forward_binop!(Sub, sub, sub_impl);
forward_binop!(Mul, mul, mul_impl);
forward_binop!(Div, div, |a: &Int, b: &Int| a.div_rem(b).0);
forward_binop!(Rem, rem, |a: &Int, b: &Int| a.div_rem(b).1);

impl AddAssign<&Int> for Int {
    fn add_assign(&mut self, rhs: &Int) {
        if let (Repr::Small(x), Repr::Small(y)) = (&mut self.0, &rhs.0) {
            if let Some(s) = x.checked_add(*y) {
                *x = s;
                return;
            }
        }
        *self = add_impl(self, rhs);
    }
}
impl SubAssign<&Int> for Int {
    fn sub_assign(&mut self, rhs: &Int) {
        if let (Repr::Small(x), Repr::Small(y)) = (&mut self.0, &rhs.0) {
            if let Some(s) = x.checked_sub(*y) {
                *x = s;
                return;
            }
        }
        *self = sub_impl(self, rhs);
    }
}
impl MulAssign<&Int> for Int {
    fn mul_assign(&mut self, rhs: &Int) {
        if let (Repr::Small(x), Repr::Small(y)) = (&mut self.0, &rhs.0) {
            if let Some(p) = x.checked_mul(*y) {
                *x = p;
                return;
            }
        }
        *self = mul_impl(self, rhs);
    }
}

impl Sum for Int {
    fn sum<I: Iterator<Item = Int>>(iter: I) -> Int {
        iter.fold(Int::zero(), |a, b| a + b)
    }
}
impl Product for Int {
    fn product<I: Iterator<Item = Int>>(iter: I) -> Int {
        iter.fold(Int::one(), |a, b| a * b)
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Small(v) => write!(f, "{v}"),
            Repr::Big(b) => {
                // Repeated division by 10^19 (largest power of 10 in u64).
                const CHUNK: u64 = 10_000_000_000_000_000_000;
                let mut digits: Vec<String> = Vec::new();
                let mut cur = b.limbs.clone();
                while !cur.is_empty() {
                    let (q, r) = limbs_divrem(&cur, &[CHUNK]);
                    digits.push(format!("{}", r.first().copied().unwrap_or(0)));
                    cur = q;
                }
                let mut s = String::new();
                if b.negative {
                    s.push('-');
                }
                s.push_str(&digits.pop().unwrap());
                while let Some(d) = digits.pop() {
                    s.push_str(&format!("{d:0>19}"));
                }
                f.write_str(&s)
            }
        }
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when parsing an [`Int`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntError;

impl fmt::Display for ParseIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal")
    }
}
impl std::error::Error for ParseIntError {}

impl FromStr for Int {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Int, ParseIntError> {
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseIntError);
        }
        let ten = Int::from(10);
        let mut acc = Int::zero();
        for b in body.bytes() {
            acc = &acc * &ten + Int::from(b - b'0');
        }
        Ok(if neg { -acc } else { acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gcd, lcm};
    use proptest::prelude::*;

    fn big(s: &str) -> Int {
        s.parse().unwrap()
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(Int::from(2) + Int::from(3), Int::from(5));
        assert_eq!(Int::from(2) - Int::from(3), Int::from(-1));
        assert_eq!(Int::from(-4) * Int::from(6), Int::from(-24));
        assert_eq!(Int::from(17) / Int::from(5), Int::from(3));
        assert_eq!(Int::from(17) % Int::from(5), Int::from(2));
        assert_eq!(Int::from(-17) % Int::from(5), Int::from(-2));
    }

    #[test]
    fn promotion_on_overflow() {
        let max = Int::from(i128::MAX);
        let one = Int::one();
        let sum = &max + &one;
        assert_eq!(sum.to_string(), "170141183460469231731687303715884105728");
        assert_eq!(&sum - &one, max);
        assert!(sum.to_i128().is_none());
    }

    #[test]
    fn i128_min_edge_cases() {
        let min = Int::from(i128::MIN);
        assert_eq!(
            (-min.clone()).to_string(),
            "170141183460469231731687303715884105728"
        );
        let (q, r) = min.div_rem(&Int::from(-1));
        assert_eq!(q.to_string(), "170141183460469231731687303715884105728");
        assert!(r.is_zero());
        assert_eq!(
            min.abs().to_string(),
            "170141183460469231731687303715884105728"
        );
    }

    #[test]
    fn big_mul_div_roundtrip() {
        let a = big("123456789012345678901234567890123456789");
        let b = big("987654321098765432109876543210");
        let p = &a * &b;
        assert_eq!(&p / &a, b);
        assert_eq!(&p / &b, a);
        assert!((&p % &a).is_zero());
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in [
            "0",
            "-1",
            "170141183460469231731687303715884105728",
            "-999999999999999999999999999999999999999999",
            "10000000000000000000000000000000000000000000000001",
        ] {
            assert_eq!(big(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Int>().is_err());
        assert!("-".parse::<Int>().is_err());
        assert!("12a".parse::<Int>().is_err());
        assert!("+5".parse::<Int>().unwrap() == Int::from(5));
    }

    #[test]
    fn floor_ceil_division() {
        assert_eq!(Int::from(-7).div_floor(&Int::from(2)), Int::from(-4));
        assert_eq!(Int::from(-7).div_ceil(&Int::from(2)), Int::from(-3));
        assert_eq!(Int::from(7).div_floor(&Int::from(-2)), Int::from(-4));
        assert_eq!(Int::from(7).div_ceil(&Int::from(-2)), Int::from(-3));
    }

    #[test]
    fn ordering_across_reprs() {
        let huge = big("170141183460469231731687303715884105729");
        let small = Int::from(5);
        assert!(huge > small);
        assert!(-huge.clone() < small);
        assert!(-huge.clone() < -small.clone());
        assert!(huge == huge.clone());
    }

    #[test]
    fn pow_and_to_f64() {
        assert_eq!(
            Int::from(2).pow(100).to_string(),
            "1267650600228229401496703205376"
        );
        let x = Int::from(2).pow(100).to_f64();
        assert!((x - 1.2676506002282294e30).abs() / x < 1e-12);
    }

    #[test]
    fn key_bytes_tiers() {
        let enc = |v: &Int| {
            let mut b = Vec::new();
            v.push_key_bytes(&mut b);
            b
        };
        assert_eq!(enc(&Int::from(0)).len(), 2, "i8 tier");
        assert_eq!(enc(&Int::from(-128)).len(), 2);
        assert_eq!(enc(&Int::from(128)).len(), 5, "i32 tier");
        assert_eq!(enc(&Int::from(1i64 << 40)).len(), 17, "i128 tier");
        assert!(enc(&big("170141183460469231731687303715884105728")).len() > 17);
    }

    /// Key bytes recorded from the encoding used while `i128` was the
    /// inline width: the tiers are chosen by value, so these must never
    /// move (the serve cache key and the shard routing hash are built
    /// from them).
    const KEY_BYTES: &[(&str, &str)] = &[
        ("0", "0100"),
        ("-1", "01ff"),
        ("127", "017f"),
        ("-128", "0180"),
        ("128", "0280000000"),
        ("-129", "027fffffff"),
        ("2147483647", "02ffffff7f"),
        ("-2147483648", "0200000080"),
        ("2147483648", "0300000080000000000000000000000000"),
        ("9223372036854775807", "03ffffffffffffff7f0000000000000000"),
        ("-9223372036854775808", "030000000000000080ffffffffffffffff"),
        ("9223372036854775808", "0300000000000000800000000000000000"),
        ("-9223372036854775809", "03ffffffffffffff7fffffffffffffffff"),
        ("18446744073709551615", "03ffffffffffffffff0000000000000000"),
        (
            "170141183460469231731687303715884105727",
            "03ffffffffffffffffffffffffffffff7f",
        ),
        (
            "-170141183460469231731687303715884105728",
            "0300000000000000000000000000000080",
        ),
        (
            "170141183460469231731687303715884105728",
            "040200000000000000000000000000000000000080",
        ),
        (
            "-170141183460469231731687303715884105729",
            "050200000001000000000000000000000000000080",
        ),
        (
            "1020847100762815390279443357853047324675",
            "04030000000300000000000000faffffffffffffff0200000000000000",
        ),
    ];

    fn key_hex(v: &Int) -> String {
        let mut b = Vec::new();
        v.push_key_bytes(&mut b);
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// A `Hasher` that keeps the bytes it is fed, so hashes compare
    /// exactly and independently of any hash function.
    #[derive(Default)]
    struct HashBytes(Vec<u8>);

    impl Hasher for HashBytes {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
        fn finish(&self) -> u64 {
            0
        }
    }

    fn hash_bytes(v: &impl Hash) -> Vec<u8> {
        let mut h = HashBytes::default();
        v.hash(&mut h);
        h.0
    }

    /// Inline iff the value fits in `i64`; boxed limbs are trimmed.
    fn is_canonical(v: &Int) -> bool {
        match &v.0 {
            Repr::Small(_) => true,
            Repr::Big(b) => {
                b.limbs.last().is_some_and(|l| *l != 0)
                    && b.to_i128().and_then(|x| i64::try_from(x).ok()).is_none()
            }
        }
    }

    /// An operand near a tier boundary: `0`, `2⁶³` or `2¹²⁷`, shifted by
    /// a few units and maybe negated — or a random `i64`.
    fn edge((tier, off, neg, r): (u8, i64, bool, i64)) -> Int {
        let base = match tier {
            0 => Int::zero(),
            1 => Int::from(1i128 << 63),
            2 => Int::from(i128::MAX) + Int::one(),
            _ => Int::from(r),
        };
        let v = base + Int::from(off);
        if neg {
            -v
        } else {
            v
        }
    }

    /// `a op b` on the limb path, bypassing every machine-word fast path.
    fn via_limbs(a: &Int, op: char, b: &Int) -> Int {
        let (an, al) = a.sign_limbs();
        let (bn, bl) = b.sign_limbs();
        match op {
            '+' => add_limbs(an, &al, bn, &bl),
            '-' => add_limbs(an, &al, !bn, &bl),
            '*' => Int::from_sign_limbs(an != bn, limbs_mul(&al, &bl)),
            '/' => Int::from_sign_limbs(an != bn, limbs_divrem(&al, &bl).0),
            '%' => Int::from_sign_limbs(an, limbs_divrem(&al, &bl).1),
            _ => unreachable!("unknown operator {op}"),
        }
    }

    fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    #[test]
    fn key_bytes_pinned() {
        for (text, hex) in KEY_BYTES {
            let v: Int = text.parse().unwrap();
            assert!(is_canonical(&v), "{text}");
            assert_eq!(key_hex(&v), *hex, "{text}");
        }
    }

    #[test]
    fn tier_boundary_edge_cases() {
        let two63 = "9223372036854775808";
        assert_eq!((Int::from(i64::MIN) / Int::from(-1)).to_string(), two63);
        assert_eq!(Int::from(i64::MIN) % Int::from(-1), Int::zero());
        assert_eq!((Int::from(i64::MAX) + Int::one()).to_string(), two63);
        assert_eq!((-Int::from(i64::MIN)).to_string(), two63);
        assert_eq!(Int::from(i64::MIN).abs().to_string(), two63);
        assert_eq!(
            gcd(&Int::from(i64::MIN), &Int::from(i64::MIN)).to_string(),
            two63
        );
        let (q, r) = Int::from(i128::MIN).div_rem(&Int::from(-1));
        assert_eq!(q.to_string(), "170141183460469231731687303715884105728");
        assert!(r.is_zero());
        // u64 and usize values above i64::MAX land in the boxed tier.
        for v in [
            Int::from(u64::MAX),
            Int::from(usize::MAX),
            Int::from(1u64 << 63),
        ] {
            assert!(matches!(v.0, Repr::Big(_)), "{v}");
            assert!(is_canonical(&v));
            assert_eq!(v.to_i64(), None);
            assert!(v.to_i128().is_some());
        }
        assert_eq!(Int::from(u64::MAX).to_string(), "18446744073709551615");
        // Crossing back into i64 demotes to the inline tier.
        let back = Int::from(u64::MAX) - Int::from(u64::MAX - 5);
        assert!(matches!(back.0, Repr::Small(5)));
        assert_eq!(Int::from(i128::MIN).to_i128(), Some(i128::MIN));
        assert_eq!(Int::from(i128::MAX).to_i128(), Some(i128::MAX));
    }

    #[test]
    fn promotions_count_only_past_i128() {
        use presburger_trace::{enable_counters, snapshot, Counter};
        let was = presburger_trace::counting();
        enable_counters(true);
        let before = snapshot();
        let p = Int::from(1i64 << 62) * Int::from(1i64 << 62);
        let inside = snapshot().delta(&before);
        let q = &p * &Int::from(16); // 2¹²⁸
        let past = snapshot().delta(&before);
        enable_counters(was);
        assert_eq!(p.to_i128(), Some(1i128 << 124));
        assert!(matches!(p.0, Repr::Big(_)), "2¹²⁴ sits in the boxed tier");
        assert_eq!(inside.get(Counter::IntPromotions), 0);
        assert_eq!(inside.get(Counter::MaxCoeffBits), 0);
        assert_eq!(q.to_i128(), None);
        assert_eq!(past.get(Counter::IntPromotions), 1);
        assert_eq!(past.get(Counter::MaxCoeffBits), 129);
    }

    proptest! {
        /// Every operation across both tier boundaries matches an `i128`
        /// reference wherever the result fits, and the limb path always.
        #[test]
        fn ops_match_reference_across_tiers(
            a in (0u8..4, -3i64..=3, any::<bool>(), any::<i64>()),
            b in (0u8..4, -3i64..=3, any::<bool>(), any::<i64>()),
        ) {
            let (a, b) = (edge(a), edge(b));
            let (x, y) = (a.to_i128(), b.to_i128());
            let reference = |f: fn(i128, i128) -> Option<i128>| {
                x.zip(y).and_then(|(x, y)| f(x, y)).map(Int::from)
            };
            let mut checks = vec![
                (a.clone() + b.clone(), via_limbs(&a, '+', &b), reference(i128::checked_add)),
                (&a - &b, via_limbs(&a, '-', &b), reference(i128::checked_sub)),
                (&a * &b, via_limbs(&a, '*', &b), reference(i128::checked_mul)),
            ];
            if !b.is_zero() {
                let (q, r) = a.div_rem(&b);
                checks.push((q, via_limbs(&a, '/', &b), reference(i128::checked_div)));
                checks.push((r, via_limbs(&a, '%', &b), reference(i128::checked_rem)));
            }
            for (got, limbs, want) in checks {
                prop_assert!(is_canonical(&got), "{got} not canonical");
                prop_assert_eq!(&got, &limbs);
                if let Some(want) = want {
                    prop_assert_eq!(&got, &want);
                }
            }
            let mut sum = a.clone();
            sum += &b;
            prop_assert_eq!(&sum, &(&a + &b));
            let mut diff = a.clone();
            diff -= &b;
            prop_assert_eq!(&diff, &(&a - &b));
            let mut prod = a.clone();
            prod *= &b;
            prop_assert_eq!(&prod, &(&a * &b));

            match x.zip(y) {
                Some((x, y)) => prop_assert_eq!(a.cmp(&b), x.cmp(&y)),
                None => prop_assert_eq!(a.cmp(&b), via_limbs(&a, '-', &b).cmp(&Int::zero())),
            }

            if !b.is_zero() {
                let babs = b.abs();
                let f = a.div_floor(&b);
                let rf = &a - &(&f * &b);
                prop_assert!(rf.is_zero() || rf.is_negative() == b.is_negative());
                prop_assert!(rf.abs() < babs);
                let c = a.div_ceil(&b);
                let rc = &a - &(&c * &b);
                prop_assert!(rc.is_zero() || rc.is_negative() != b.is_negative());
                prop_assert!(rc.abs() < babs);
                let e = a.rem_euclid(&b);
                prop_assert!(!e.is_negative() && e < babs);
                prop_assert!(b.divides(&(&a - &e)));
                if let (Some(x), Some(y)) = (x, y) {
                    if let Some(q) = x.checked_div(y) {
                        let r = x % y;
                        let fl = if r != 0 && (r < 0) != (y < 0) { q - 1 } else { q };
                        let ce = if r != 0 && (r < 0) == (y < 0) { q + 1 } else { q };
                        prop_assert_eq!(f, Int::from(fl));
                        prop_assert_eq!(c, Int::from(ce));
                        prop_assert_eq!(e, Int::from(x.rem_euclid(y)));
                    }
                }
            }

            let g = gcd(&a, &b);
            let (g2, s, t) = crate::egcd(&a, &b);
            prop_assert!(is_canonical(&g) && !g.is_negative());
            prop_assert_eq!(&g, &g2);
            prop_assert_eq!(&(&(&a * &s) + &(&b * &t)), &g, "Bézout certificate");
            prop_assert!(g.divides(&a) && g.divides(&b));
            let l = lcm(&a, &b);
            prop_assert!(is_canonical(&l) && !l.is_negative());
            prop_assert_eq!(&l * &g, (&a * &b).abs());
            if let (Some(x), Some(y)) = (x, y) {
                let gw = gcd_u128(x.unsigned_abs(), y.unsigned_abs());
                if let Ok(gw) = i128::try_from(gw) {
                    prop_assert_eq!(&g, &Int::from(gw));
                    if gw != 0 {
                        if let Some(lw) = (x / gw).checked_mul(y).and_then(i128::checked_abs) {
                            prop_assert_eq!(&l, &Int::from(lw));
                        }
                    }
                }
            }
        }

        /// Equal values reached by different routes (arithmetic, `From`,
        /// `FromStr`) share one canonical form, one hash and one key.
        #[test]
        fn routes_agree_on_form_hash_and_key(a in (0u8..4, -3i64..=3, any::<bool>(), any::<i64>())) {
            let v = edge(a);
            let mut routes = vec![v.to_string().parse::<Int>().unwrap(), &(&v + &v) - &v];
            if let Some(w) = v.to_i128() {
                routes.push(Int::from(w));
                if let Ok(u) = u64::try_from(w) {
                    routes.push(Int::from(u));
                }
                // In i128 range the hash is that of (0u8, the i128).
                prop_assert_eq!(hash_bytes(&v), hash_bytes(&(0u8, w)));
            }
            prop_assert!(is_canonical(&v));
            for r in &routes {
                prop_assert!(is_canonical(r));
                prop_assert_eq!(r, &v);
                prop_assert_eq!(hash_bytes(r), hash_bytes(&v));
                prop_assert_eq!(key_hex(r), key_hex(&v));
            }
        }

        #[test]
        fn key_bytes_injective(a in any::<i64>(), b in any::<i64>(), p in 0u32..5) {
            // Mix in big values via pow to cross the representation tiers.
            let x = Int::from(a).pow(p.max(1));
            let y = Int::from(b).pow(p.max(1));
            let mut bx = Vec::new();
            let mut by = Vec::new();
            x.push_key_bytes(&mut bx);
            y.push_key_bytes(&mut by);
            prop_assert_eq!(bx == by, x == y, "equal bytes iff equal values");
        }

        #[test]
        fn add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let r = Int::from(a) + Int::from(b);
            prop_assert_eq!(r, Int::from(a as i128 + b as i128));
        }

        #[test]
        fn mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let r = Int::from(a) * Int::from(b);
            prop_assert_eq!(r, Int::from(a as i128 * b as i128));
        }

        #[test]
        fn divrem_invariant_small(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |b| *b != 0)) {
            let (q, r) = Int::from(a).div_rem(&Int::from(b));
            prop_assert_eq!(&q * &Int::from(b) + &r, Int::from(a));
            prop_assert!(r.abs() < Int::from(b).abs());
        }

        #[test]
        fn divrem_invariant_big(al in proptest::collection::vec(any::<u64>(), 1..6),
                                bl in proptest::collection::vec(any::<u64>(), 1..4),
                                an in any::<bool>(), bn in any::<bool>()) {
            let a = Int::from_sign_limbs(an, al);
            let b = Int::from_sign_limbs(bn, bl);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(&q * &b + &r, a.clone());
            prop_assert!(r.abs() < b.abs());
            // remainder sign matches dividend (truncating division)
            prop_assert!(r.is_zero() || (r.is_negative() == a.is_negative()));
        }

        #[test]
        fn string_roundtrip(al in proptest::collection::vec(any::<u64>(), 1..5), neg in any::<bool>()) {
            let a = Int::from_sign_limbs(neg, al);
            let s = a.to_string();
            prop_assert_eq!(s.parse::<Int>().unwrap(), a);
        }

        #[test]
        fn ord_consistent_with_sub(al in proptest::collection::vec(any::<u64>(), 1..4),
                                   bl in proptest::collection::vec(any::<u64>(), 1..4),
                                   an in any::<bool>(), bn in any::<bool>()) {
            let a = Int::from_sign_limbs(an, al);
            let b = Int::from_sign_limbs(bn, bl);
            let d = &a - &b;
            prop_assert_eq!(a.cmp(&b), d.cmp(&Int::zero()));
        }

        #[test]
        fn floor_ceil_match_f64_small(a in -10_000i64..10_000, b in (1i64..200)) {
            let f = Int::from(a).div_floor(&Int::from(b));
            prop_assert_eq!(f, Int::from((a as f64 / b as f64).floor() as i64));
            let c = Int::from(a).div_ceil(&Int::from(b));
            prop_assert_eq!(c, Int::from((a as f64 / b as f64).ceil() as i64));
        }
    }
}
