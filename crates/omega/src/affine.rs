//! Affine (linear-plus-constant) integer expressions.

use crate::space::{Space, VarId};
use presburger_arith::{gcd, Int, Row};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine expression `Σ cᵢ·xᵢ + c` with integer coefficients.
///
/// Zero coefficients are never stored, so structural equality coincides
/// with syntactic equality of the normal form. Coefficients live in an
/// [`arith::Row`](presburger_arith::Row): expressions with at most four
/// variables — the common case — carry their terms inline with no heap
/// spine, mirroring the [`Int`] small-value fast path.
///
/// ```
/// use presburger_omega::{Affine, Space};
///
/// let mut s = Space::new();
/// let x = s.var("x");
/// let e = Affine::var(x) * 3 + Affine::constant(7);
/// assert_eq!(e.coeff(x), presburger_arith::Int::from(3));
/// assert_eq!(e.to_string(&s), "3x + 7");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Affine {
    terms: Row<VarId>,
    constant: Int,
}

impl Affine {
    /// The zero expression.
    pub fn zero() -> Affine {
        Affine::default()
    }

    /// A constant expression.
    pub fn constant(c: impl Into<Int>) -> Affine {
        Affine {
            terms: Row::new(),
            constant: c.into(),
        }
    }

    /// The expression `v` (coefficient 1).
    pub fn var(v: VarId) -> Affine {
        Affine::term(v, 1)
    }

    /// The expression `c·v`.
    pub fn term(v: VarId, c: impl Into<Int>) -> Affine {
        let c = c.into();
        let mut terms = Row::new();
        if !c.is_zero() {
            terms.insert(v, c);
        }
        Affine {
            terms,
            constant: Int::zero(),
        }
    }

    /// Builds `Σ coeffs[i]·vars[i] + c` from parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_terms(pairs: &[(VarId, i64)], c: i64) -> Affine {
        let mut e = Affine::constant(c);
        for &(v, k) in pairs {
            e = e + Affine::term(v, k);
        }
        e
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: VarId) -> Int {
        self.terms.get(&v).cloned().unwrap_or_else(Int::zero)
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Int {
        &self.constant
    }

    /// Returns `true` if the expression is a constant (no variables).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// Iterates over `(variable, coefficient)` pairs (non-zero only).
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &Int)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, c))
    }

    /// The variables with non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.keys().copied()
    }

    /// Returns `true` if `v` occurs with non-zero coefficient.
    pub fn mentions(&self, v: VarId) -> bool {
        self.terms.contains_key(&v)
    }

    /// Returns `true` if any variable in `vs` occurs.
    pub fn mentions_any(&self, vs: &[VarId]) -> bool {
        vs.iter().any(|v| self.mentions(*v))
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// The gcd of all variable coefficients (zero for constants).
    pub fn content(&self) -> Int {
        let mut g = Int::zero();
        for c in self.terms.values() {
            g = gcd(&g, c);
        }
        g
    }

    /// Sets the coefficient of `v` (removing the term when zero).
    pub fn set_coeff(&mut self, v: VarId, c: Int) {
        if c.is_zero() {
            self.terms.remove(&v);
        } else {
            self.terms.insert(v, c);
        }
    }

    /// Adds `k` to the constant term.
    pub fn add_constant(&mut self, k: &Int) {
        self.constant += k;
    }

    /// `self += k·other`, in place.
    pub fn add_scaled_mut(&mut self, other: &Affine, k: &Int) {
        if k.is_zero() {
            return;
        }
        for (v, c) in &other.terms {
            let p = c * k;
            match self.terms.get_mut(v) {
                Some(sc) => {
                    *sc += &p;
                    if sc.is_zero() {
                        self.terms.remove(v);
                    }
                }
                None => {
                    self.terms.insert(*v, p);
                }
            }
        }
        self.constant += &(&other.constant * k);
    }

    /// `self + k·other` without consuming either operand.
    pub fn add_scaled(&self, other: &Affine, k: &Int) -> Affine {
        let mut out = self.clone();
        out.add_scaled_mut(other, k);
        out
    }

    /// `self *= k`, in place.
    fn scale_mut(&mut self, k: &Int) {
        if k.is_zero() {
            *self = Affine::zero();
            return;
        }
        for c in self.terms.values_mut() {
            *c *= k;
        }
        self.constant *= k;
    }

    /// Substitutes `replacement` for `v`: every occurrence `c·v` becomes
    /// `c·replacement`.
    pub fn substitute(&self, v: VarId, replacement: &Affine) -> Affine {
        let c = self.coeff(v);
        if c.is_zero() {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(&v);
        out.add_scaled_mut(replacement, &c);
        out
    }

    /// Divides every coefficient and the constant exactly by `d`.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is not divisible by `d` or `d` is zero.
    pub fn div_exact(&self, d: &Int) -> Affine {
        let mut out = Affine::constant(0);
        for (v, c) in &self.terms {
            assert!(d.divides(c), "non-exact division of affine expression");
            out.terms.insert(*v, c / d);
        }
        assert!(d.divides(&self.constant), "non-exact division of constant");
        out.constant = &self.constant / d;
        out
    }

    /// Evaluates the expression under `assign` (a total map for the
    /// variables that occur).
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from the assignment.
    pub fn eval(&self, assign: &dyn Fn(VarId) -> Int) -> Int {
        let mut acc = self.constant.clone();
        for (v, c) in &self.terms {
            acc += &(c * &assign(*v));
        }
        acc
    }

    /// Appends a canonical byte encoding of the expression to `out`,
    /// for cache and routing keys: term count, then `(VarId, coeff)`
    /// pairs in ascending variable order, then the constant. Injective
    /// over expressions in the same space — equal bytes iff structurally
    /// equal — and stable across threads and processes (raw `VarId`
    /// indices).
    pub fn push_key_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.terms.len() as u32).to_le_bytes());
        for (v, c) in self.terms.iter() {
            out.extend_from_slice(&(v.index() as u32).to_le_bytes());
            c.push_key_bytes(out);
        }
        self.constant.push_key_bytes(out);
    }

    /// Renders the expression with variable names from `space`.
    pub fn to_string(&self, space: &Space) -> String {
        if self.terms.is_empty() {
            return self.constant.to_string();
        }
        let mut s = String::new();
        for (i, (v, c)) in self.terms.iter().enumerate() {
            let name = space.name(*v);
            if i == 0 {
                if c.is_one() {
                    s.push_str(name);
                } else if *c == Int::from(-1) {
                    s.push('-');
                    s.push_str(name);
                } else {
                    s.push_str(&format!("{c}{name}"));
                }
            } else if c.is_negative() {
                let a = c.abs();
                if a.is_one() {
                    s.push_str(&format!(" - {name}"));
                } else {
                    s.push_str(&format!(" - {a}{name}"));
                }
            } else if c.is_one() {
                s.push_str(&format!(" + {name}"));
            } else {
                s.push_str(&format!(" + {c}{name}"));
            }
        }
        if self.constant.is_positive() {
            s.push_str(&format!(" + {}", self.constant));
        } else if self.constant.is_negative() {
            s.push_str(&format!(" - {}", self.constant.abs()));
        }
        s
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (v, c) in &self.terms {
            write!(f, "{c}·{v:?} + ")?;
        }
        write!(f, "{}", self.constant)
    }
}

// The owned operators update their left operand in place; the
// borrowed ones clone it once and do the same.
impl Add for Affine {
    type Output = Affine;
    fn add(mut self, rhs: Affine) -> Affine {
        self.add_scaled_mut(&rhs, &Int::one());
        self
    }
}
impl Add for &Affine {
    type Output = Affine;
    fn add(self, rhs: &Affine) -> Affine {
        self.add_scaled(rhs, &Int::one())
    }
}
impl Sub for Affine {
    type Output = Affine;
    fn sub(mut self, rhs: Affine) -> Affine {
        self.add_scaled_mut(&rhs, &Int::from(-1));
        self
    }
}
impl Sub for &Affine {
    type Output = Affine;
    fn sub(self, rhs: &Affine) -> Affine {
        self.add_scaled(rhs, &Int::from(-1))
    }
}
impl Neg for Affine {
    type Output = Affine;
    fn neg(mut self) -> Affine {
        self.scale_mut(&Int::from(-1));
        self
    }
}
impl Neg for &Affine {
    type Output = Affine;
    fn neg(self) -> Affine {
        -self.clone()
    }
}
impl Mul<i64> for Affine {
    type Output = Affine;
    fn mul(mut self, k: i64) -> Affine {
        self.scale_mut(&Int::from(k));
        self
    }
}
impl Mul<&Int> for &Affine {
    type Output = Affine;
    fn mul(self, k: &Int) -> Affine {
        let mut out = self.clone();
        out.scale_mut(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Space, VarId, VarId) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        (s, x, y)
    }

    #[test]
    fn construction_and_coeffs() {
        let (_, x, y) = setup();
        let e = Affine::from_terms(&[(x, 2), (y, -3)], 5);
        assert_eq!(e.coeff(x), Int::from(2));
        assert_eq!(e.coeff(y), Int::from(-3));
        assert_eq!(*e.constant_term(), Int::from(5));
        assert_eq!(e.num_vars(), 2);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let (_, x, _) = setup();
        let e = Affine::term(x, 0);
        assert!(e.is_zero());
        let e = Affine::var(x) - Affine::var(x);
        assert!(e.is_zero());
        assert!(!e.mentions(x));
    }

    #[test]
    fn substitution() {
        let (_, x, y) = setup();
        // 2x + 1 with x := y - 3  ->  2y - 5
        let e = Affine::from_terms(&[(x, 2)], 1);
        let r = e.substitute(x, &Affine::from_terms(&[(y, 1)], -3));
        assert_eq!(r, Affine::from_terms(&[(y, 2)], -5));
        // substituting an absent variable is a no-op
        assert_eq!(r.substitute(x, &Affine::constant(99)), r);
    }

    #[test]
    fn content_and_exact_division() {
        let (_, x, y) = setup();
        let e = Affine::from_terms(&[(x, 6), (y, -9)], 12);
        assert_eq!(e.content(), Int::from(3));
        let d = e.div_exact(&Int::from(3));
        assert_eq!(d, Affine::from_terms(&[(x, 2), (y, -3)], 4));
    }

    #[test]
    #[should_panic(expected = "non-exact")]
    fn div_exact_panics_on_remainder() {
        let (_, x, _) = setup();
        let _ = Affine::from_terms(&[(x, 3)], 1).div_exact(&Int::from(3));
    }

    #[test]
    fn eval() {
        let (_, x, y) = setup();
        let e = Affine::from_terms(&[(x, 2), (y, -1)], 4);
        let val = e.eval(&|v| if v == x { Int::from(10) } else { Int::from(3) });
        assert_eq!(val, Int::from(21));
    }

    /// Copying a constraint costs what its live terms cost only while
    /// the value types stay this small.
    #[test]
    fn value_sizes_stay_small() {
        assert_eq!(std::mem::size_of::<Int>(), 16);
        assert!(std::mem::size_of::<Affine>() <= 128);
    }

    #[test]
    fn in_place_updates_match_operators() {
        let (_, x, y) = setup();
        let e = Affine::from_terms(&[(x, 2), (y, -3)], 5);
        let f = Affine::from_terms(&[(x, -1), (y, 4)], -2);
        let mut g = e.clone();
        g.add_scaled_mut(&f, &Int::from(2));
        assert_eq!(g, Affine::from_terms(&[(y, 5)], 1), "x cancels out");
        assert_eq!(g, e.add_scaled(&f, &Int::from(2)));
        assert_eq!(e.clone() + f.clone(), &e + &f);
        assert_eq!(e.clone() - f.clone(), &e - &f);
        assert_eq!(-e.clone(), Affine::from_terms(&[(x, -2), (y, 3)], -5));
        assert_eq!(-&e, -e.clone());
        assert_eq!(e.clone() * 3, &e * &Int::from(3));
        assert_eq!(&e * &Int::zero(), Affine::zero());
        let mut h = e.clone();
        h.add_scaled_mut(&f, &Int::zero());
        assert_eq!(h, e);
    }

    #[test]
    fn display() {
        let (s, x, y) = setup();
        assert_eq!(Affine::constant(0).to_string(&s), "0");
        assert_eq!(
            Affine::from_terms(&[(x, 1), (y, -2)], -7).to_string(&s),
            "x - 2y - 7"
        );
        assert_eq!(Affine::from_terms(&[(x, -1)], 0).to_string(&s), "-x");
    }
}
