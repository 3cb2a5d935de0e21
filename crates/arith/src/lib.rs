//! Exact arithmetic substrate for the `presburger` workspace.
//!
//! The Omega test and the symbolic summation engine built on top of it
//! require arithmetic that never overflows and never rounds:
//!
//! * [`Int`] — arbitrary-precision signed integers in 16 bytes, with an
//!   inline `i64` fast path and a boxed limb tier (Fourier–Motzkin
//!   products and Smith-normal-form pivots can grow coefficients well
//!   past machine width);
//! * [`Rat`] — exact rationals (Bernoulli numbers and Faulhaber
//!   coefficients are not integers);
//! * [`Matrix`] — dense integer matrices with unimodular
//!   row/column operations;
//! * [`smith`] — Hermite and Smith normal forms, plus a general solver
//!   for systems of linear Diophantine equations (used by the paper's
//!   §4.5.2 "projected sums").
//!
//! The crate is dependency-free by design: the reproduction target
//! predates the mature bignum ecosystem, and building the substrate from
//! scratch keeps the workspace self-contained (see `DESIGN.md` §2).
//!
//! # Example
//!
//! ```
//! use presburger_arith::{Int, Rat};
//!
//! let big = Int::from(1_000_000_007i64).pow(5);
//! assert_eq!(&big % &Int::from(1_000_000_007i64), Int::zero());
//!
//! let half = Rat::new(Int::from(1), Int::from(2));
//! assert_eq!(half.clone() + half, Rat::from(Int::one()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod int;
mod matrix;
mod rat;
pub mod row;
pub mod smith;

pub use int::Int;
pub use matrix::Matrix;
pub use rat::Rat;
pub use row::Row;

/// Greatest common divisor of two [`Int`]s; always non-negative.
///
/// `gcd(0, 0)` is defined as `0`.
///
/// ```
/// use presburger_arith::{gcd, Int};
/// assert_eq!(gcd(&Int::from(12), &Int::from(-18)), Int::from(6));
/// ```
pub fn gcd(a: &Int, b: &Int) -> Int {
    if let (Some(x), Some(y)) = (a.to_i64(), b.to_i64()) {
        return Int::from(gcd_u64(x.unsigned_abs(), y.unsigned_abs()));
    }
    let mut a = a.abs();
    let mut b = b.abs();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// Euclid's algorithm on machine-word magnitudes.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple of two [`Int`]s; always non-negative.
///
/// `lcm(0, x)` is `0`.
///
/// ```
/// use presburger_arith::{lcm, Int};
/// assert_eq!(lcm(&Int::from(4), &Int::from(6)), Int::from(12));
/// ```
pub fn lcm(a: &Int, b: &Int) -> Int {
    if a.is_zero() || b.is_zero() {
        return Int::zero();
    }
    if let (Some(x), Some(y)) = (a.to_i64(), b.to_i64()) {
        let (x, y) = (x.unsigned_abs(), y.unsigned_abs());
        // (x / g) · y ≤ 2¹²⁶, so the product fits in i128.
        return Int::from(((x / gcd_u64(x, y)) as u128 * y as u128) as i128);
    }
    let g = gcd(a, b);
    (&(a / &g) * b).abs()
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y == g == gcd(a, b)` and `g >= 0`.
///
/// ```
/// use presburger_arith::{egcd, Int};
/// let (g, x, y) = egcd(&Int::from(240), &Int::from(46));
/// assert_eq!(g, Int::from(2));
/// assert_eq!(&Int::from(240) * &x + &Int::from(46) * &y, g);
/// ```
pub fn egcd(a: &Int, b: &Int) -> (Int, Int, Int) {
    let (mut old_r, mut r) = (a.clone(), b.clone());
    let (mut old_s, mut s) = (Int::one(), Int::zero());
    let (mut old_t, mut t) = (Int::zero(), Int::one());
    while !r.is_zero() {
        let q = old_r.div_floor(&r);
        let tmp = &old_r - &(&q * &r);
        old_r = std::mem::replace(&mut r, tmp);
        let tmp = &old_s - &(&q * &s);
        old_s = std::mem::replace(&mut s, tmp);
        let tmp = &old_t - &(&q * &t);
        old_t = std::mem::replace(&mut t, tmp);
    }
    if old_r.is_negative() {
        (-old_r, -old_s, -old_t)
    } else {
        (old_r, old_s, old_t)
    }
}

/// Symmetric ("balanced") modulus used by the Omega test's equality
/// elimination: the representative of `a mod m` in `(-m/2, m/2]`.
///
/// ```
/// use presburger_arith::{mod_balanced, Int};
/// assert_eq!(mod_balanced(&Int::from(7), &Int::from(4)), Int::from(-1));
/// assert_eq!(mod_balanced(&Int::from(6), &Int::from(4)), Int::from(2));
/// ```
///
/// # Panics
///
/// Panics if `m <= 0`.
pub fn mod_balanced(a: &Int, m: &Int) -> Int {
    assert!(m.is_positive(), "modulus must be positive");
    let r = a.rem_euclid(m); // in [0, m)
    let half = m.div_floor(&Int::from(2));
    if r > half {
        &r - m
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(&Int::zero(), &Int::zero()), Int::zero());
        assert_eq!(gcd(&Int::zero(), &Int::from(-5)), Int::from(5));
        assert_eq!(gcd(&Int::from(21), &Int::from(14)), Int::from(7));
        assert_eq!(lcm(&Int::zero(), &Int::from(9)), Int::zero());
        assert_eq!(lcm(&Int::from(-4), &Int::from(10)), Int::from(20));
    }

    #[test]
    fn egcd_bezout() {
        for (a, b) in [(240i64, 46), (-17, 5), (0, 7), (12, 0), (-9, -24)] {
            let (a, b) = (Int::from(a), Int::from(b));
            let (g, x, y) = egcd(&a, &b);
            assert_eq!(g, gcd(&a, &b));
            assert_eq!(&a * &x + &b * &y, g);
        }
    }

    #[test]
    fn balanced_mod_range() {
        let m = Int::from(5);
        for a in -12i64..=12 {
            let r = mod_balanced(&Int::from(a), &m);
            assert!(r > Int::from(-3) && r <= Int::from(2), "a={a} r={r}");
            assert_eq!((&Int::from(a) - &r).rem_euclid(&m), Int::zero());
        }
        let m = Int::from(4);
        for a in -9i64..=9 {
            let r = mod_balanced(&Int::from(a), &m);
            assert!(r > Int::from(-2) && r <= Int::from(2), "a={a} r={r}");
        }
    }
}
