//! Faulhaber power-sum formulas (§4.1).
//!
//! `Fₚ(n) = Σ_{i=1}^{n} iᵖ` is a polynomial of degree `p + 1` in `n`.
//! Its rational coefficients live in one table per thread: row `p`
//! holds `Fₚ`'s coefficients in ascending powers of `n`. Rows are
//! derived on demand from the recurrence
//! `(n+1)^{p+1} − 1 = Σ_{j=0}^{p} C(p+1, j)·Fⱼ(n)`, so a thread pays
//! only for the powers its sums reach. Every reader — [`power_sum`],
//! [`power_sum_at`], [`sum_powers`] and [`telescope`] — takes its
//! coefficients from that table. The paper hard-codes formulas for
//! `p ≤ 10`; the table reaches any `p ≤ MAX_POWER`.
//!
//! Because `Fₚ(n) − Fₚ(n−1) = nᵖ` is a *polynomial identity*, the
//! telescoped form `Fₚ(U) − Fₚ(L−1)` equals `Σ_{i=L}^{U} iᵖ` for **any**
//! integers `L ≤ U`, including negative bounds — which is why the
//! summation engine can use it directly instead of the paper's §4.2
//! four-piece decomposition (kept in `presburger-counting` as an
//! alternate, property-tested path). To sum a whole summand
//! `z(v) = Σₚ cₚ·vᵖ`, [`telescope`] builds the antidifference
//! `G = Σₚ cₚ·Fₚ` once and returns `G(U) − G(L−1)`, evaluating each
//! side by Horner's rule.

use crate::qpoly::QPoly;
use presburger_arith::{Int, Rat};
use presburger_omega::VarId;
use presburger_trace::{self as trace, Counter};
use std::cell::RefCell;

/// Maximum supported exponent.
pub const MAX_POWER: u32 = 32;

thread_local! {
    /// Row `p` holds the `p + 2` coefficients of `Fₚ` in ascending
    /// powers of `n` (the constant one is always zero).
    static TABLE: RefCell<Vec<Vec<Rat>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the table's rows `0..=p`, deriving the missing ones.
///
/// # Panics
///
/// Panics if `p > MAX_POWER`.
fn with_rows<R>(p: usize, f: impl FnOnce(&[Vec<Rat>]) -> R) -> R {
    assert!(
        p <= MAX_POWER as usize,
        "power sum exponent {p} exceeds {MAX_POWER}"
    );
    TABLE.with(|table| {
        let mut rows = table.borrow_mut();
        while rows.len() <= p {
            let q = rows.len() as u32;
            // F_q = [ (n+1)^{q+1} − 1 − Σ_{j<q} C(q+1, j)·F_j ] / (q+1)
            let mut row: Vec<Rat> = (0..=q + 1)
                .map(|k| match k {
                    0 => Rat::zero(),
                    _ => Rat::from(binomial(q + 1, k)),
                })
                .collect();
            for (j, fj) in rows.iter().enumerate() {
                let c = Rat::from(binomial(q + 1, j as u32));
                for (k, a) in fj.iter().enumerate() {
                    row[k] -= &(&c * a);
                }
            }
            let inv = Rat::new(Int::one(), Int::from(q + 1));
            for a in &mut row {
                *a *= &inv;
            }
            rows.push(row);
        }
        f(&rows[..=p])
    })
}

/// `Σₖ coeffs[k]·xᵏ` by Horner's rule.
fn horner(coeffs: &[QPoly], x: &QPoly) -> QPoly {
    let mut acc = QPoly::zero();
    for c in coeffs.iter().rev() {
        acc = acc * x.clone() + c.clone();
    }
    acc
}

/// `Fₚ`'s coefficients in ascending powers of `n`.
pub(crate) fn power_sum_coeffs(p: u32) -> Vec<Rat> {
    with_rows(p as usize, |rows| rows[p as usize].clone())
}

/// Binomial coefficient `C(n, k)` as an exact integer.
///
/// ```
/// use presburger_polyq::faulhaber::binomial;
/// assert_eq!(binomial(10, 3), presburger_arith::Int::from(120));
/// ```
pub fn binomial(n: u32, k: u32) -> Int {
    if k > n {
        return Int::zero();
    }
    let k = k.min(n - k);
    let mut num = Int::one();
    let mut den = Int::one();
    for i in 0..k {
        num = num * Int::from(n - i);
        den = den * Int::from(i + 1);
    }
    num / den
}

/// The polynomial `Fₚ(v) = Σ_{i=1}^{v} iᵖ` in the variable `v`.
///
/// `F₀(v) = v`, `F₁(v) = v(v+1)/2`, `F₂(v) = v(v+1)(2v+1)/6`, …
///
/// ```
/// use presburger_arith::{Int, Rat};
/// use presburger_omega::Space;
/// use presburger_polyq::faulhaber::power_sum;
///
/// let mut s = Space::new();
/// let n = s.var("n");
/// let f2 = power_sum(2, n);
/// // 1 + 4 + 9 + 16 = 30
/// assert_eq!(f2.eval(&|_| Int::from(4)), Rat::from(30));
/// ```
///
/// # Panics
///
/// Panics if `p > MAX_POWER`.
pub fn power_sum(p: u32, v: VarId) -> QPoly {
    power_sum_at(p, &QPoly::var(v))
}

/// `Fₚ(x)` for a polynomial argument `x`, by Horner's rule.
///
/// # Panics
///
/// Panics if `p > MAX_POWER`.
pub fn power_sum_at(p: u32, x: &QPoly) -> QPoly {
    let coeffs: Vec<QPoly> = power_sum_coeffs(p)
        .into_iter()
        .map(QPoly::constant)
        .collect();
    horner(&coeffs, x)
}

/// The antidifference `G = Σₚ cₚ·Fₚ` of `z(v) = Σₚ cₚ·vᵖ`, where
/// `coeffs[p] = cₚ`: its coefficients in ascending powers of the
/// summed variable. `G(n) − G(n−1) = z(n)` identically.
///
/// Bumps the `FaulhaberDeg*` counter of every non-zero `cₚ`.
fn antidifference(coeffs: &[QPoly]) -> Vec<QPoly> {
    let Some(top) = coeffs.iter().rposition(|c| !c.is_zero()) else {
        return Vec::new();
    };
    with_rows(top, |rows| {
        let mut g = vec![QPoly::zero(); top + 2];
        for (p, cp) in coeffs[..=top].iter().enumerate() {
            if cp.is_zero() {
                continue;
            }
            trace::bump(match p {
                0 => Counter::FaulhaberDeg0,
                1 => Counter::FaulhaberDeg1,
                2 => Counter::FaulhaberDeg2,
                3 => Counter::FaulhaberDeg3,
                _ => Counter::FaulhaberDegHi,
            });
            for (gk, a) in g.iter_mut().zip(&rows[p]) {
                if !a.is_zero() {
                    *gk = std::mem::take(gk) + cp.scale(a);
                }
            }
        }
        g
    })
}

/// `Σ_{v=L}^{U} z(v)` for `z(v) = Σₚ cₚ·vᵖ` given as `coeffs[p] = cₚ`
/// (what [`QPoly::coefficients_in`] returns): `G(U) − G(L−1)` for the
/// antidifference `G = Σₚ cₚ·Fₚ`, built once, each side evaluated by
/// Horner's rule.
///
/// The result is correct whenever `L ≤ U + 1` (the caller guards the
/// sum); bounds may be arbitrary polynomials (e.g. containing mod
/// atoms).
///
/// # Panics
///
/// Panics if `coeffs` has a non-zero entry past `MAX_POWER`.
///
/// ```
/// use presburger_arith::{Int, Rat};
/// use presburger_polyq::{faulhaber::telescope, QPoly};
///
/// // Σ_{i=-3}^{4} (2 + i²) = 8·2 + 44 = 60
/// let z = [QPoly::constant(Rat::from(2)), QPoly::zero(), QPoly::one()];
/// let lo = QPoly::constant(Rat::from(-3));
/// let hi = QPoly::constant(Rat::from(4));
/// assert_eq!(telescope(&z, &lo, &hi).as_constant(), Some(Rat::from(60)));
/// ```
pub fn telescope(coeffs: &[QPoly], lower: &QPoly, upper: &QPoly) -> QPoly {
    let g = antidifference(coeffs);
    horner(&g, upper) - horner(&g, &(lower.clone() - QPoly::one()))
}

/// `Σ_{i=L}^{U} iᵖ` as a polynomial in whatever `lower` and `upper`
/// mention: `Fₚ(U) − Fₚ(L−1)`, the one-power case of [`telescope`].
///
/// The result is correct whenever `L ≤ U + 1` (the caller guards the
/// sum); bounds may be arbitrary polynomials (e.g. containing mod
/// atoms).
pub fn sum_powers(p: u32, lower: &QPoly, upper: &QPoly) -> QPoly {
    let mut coeffs = vec![QPoly::zero(); p as usize + 1];
    coeffs[p as usize] = QPoly::one();
    telescope(&coeffs, lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_omega::{Affine, Space};
    use proptest::prelude::*;

    #[test]
    fn binomials() {
        assert_eq!(binomial(0, 0), Int::one());
        assert_eq!(binomial(5, 0), Int::one());
        assert_eq!(binomial(5, 5), Int::one());
        assert_eq!(binomial(5, 2), Int::from(10));
        assert_eq!(binomial(3, 7), Int::zero());
        assert_eq!(binomial(30, 15), Int::from(155117520));
    }

    #[test]
    fn known_formulas() {
        let mut s = Space::new();
        let n = s.var("n");
        // F_1(n) = n(n+1)/2
        let f1 = power_sum(1, n);
        let expect = (QPoly::var(n) * (QPoly::var(n) + QPoly::one()))
            .scale(&Rat::new(Int::one(), Int::from(2)));
        assert_eq!(f1, expect);
        // F_3(10) = (55)^2 = 3025
        let f3 = power_sum(3, n);
        assert_eq!(f3.eval(&|_| Int::from(10)), Rat::from(3025));
    }

    /// Every row of the table against `Σ_{i=1}^{n} iᵖ` computed
    /// directly, for every `p ≤ MAX_POWER`.
    #[test]
    fn table_matches_brute_force_for_every_power() {
        let mut s = Space::new();
        let n = s.var("n");
        for p in 0..=MAX_POWER {
            let f = power_sum(p, n);
            assert_eq!(f.degree_in(n), p + 1, "p={p}");
            let mut brute = Int::zero();
            for nv in 0i64..=9 {
                if nv > 0 {
                    brute += &Int::from(nv).pow(p);
                }
                assert_eq!(
                    f.eval(&|_| Int::from(nv)),
                    Rat::from(brute.clone()),
                    "p={p} n={nv}"
                );
            }
        }
    }

    #[test]
    fn telescoping_handles_negative_bounds() {
        for p in 0..=4u32 {
            for l in -6i64..=6 {
                for u in l - 1..=6 {
                    let lp = QPoly::constant(Rat::from(l));
                    let up = QPoly::constant(Rat::from(u));
                    let val = sum_powers(p, &lp, &up).as_constant().expect("constant");
                    let brute: i128 = (l as i128..=u as i128).map(|i| i.pow(p)).sum();
                    assert_eq!(val, Rat::from(Int::from(brute)), "p={p} L={l} U={u}");
                }
            }
        }
    }

    #[test]
    fn polynomial_identity_fp_difference() {
        // F_p(n) - F_p(n-1) == n^p as polynomials
        let mut s = Space::new();
        let n = s.var("n");
        for p in 0..=6u32 {
            let f = power_sum(p, n);
            let shifted = f.substitute(n, &(QPoly::var(n) - QPoly::one()));
            let mut npow = QPoly::one();
            for _ in 0..p {
                npow = npow * QPoly::var(n);
            }
            assert_eq!(f.clone() - shifted, npow, "p={p}");
        }
    }

    proptest! {
        /// `telescope` builds one antidifference and evaluates it twice;
        /// the per-power form `Σₚ cₚ·(Fₚ(U) − Fₚ(L−1))`, each `Fₚ`
        /// substituted separately, must give the same polynomial. The
        /// summand's coefficients mention a parameter `n` and both
        /// bounds carry a mod atom in `n` and `k`.
        #[test]
        fn telescope_equals_per_power_substitution(
            cs in proptest::collection::vec((-3i64..=3, -2i64..=2), 0..=6),
            lo in (-2i64..=2, -5i64..=5, -2i64..=2),
            hi in (-2i64..=2, -5i64..=5, -2i64..=2),
            m in 2i64..=5,
        ) {
            let mut s = Space::new();
            let t = s.var("t");
            let n = s.var("n");
            let k = s.var("k");
            let coeffs: Vec<QPoly> = cs
                .iter()
                .map(|&(a, b)| QPoly::constant(Rat::from(a)) + QPoly::var(n).scale(&Rat::from(b)))
                .collect();
            let md = QPoly::modulo(&Affine::from_terms(&[(n, 1), (k, 2)], 1), &Int::from(m));
            let bound = |(a, b, c): (i64, i64, i64)| {
                QPoly::var(n).scale(&Rat::from(a))
                    + QPoly::constant(Rat::from(b))
                    + md.scale(&Rat::from(c))
            };
            let (l, u) = (bound(lo), bound(hi));
            let mut expect = QPoly::zero();
            for (p, cp) in coeffs.iter().enumerate() {
                let f = power_sum(p as u32, t);
                let diff = f.substitute(t, &u) - f.substitute(t, &(l.clone() - QPoly::one()));
                expect = expect + cp.clone() * diff;
            }
            prop_assert_eq!(telescope(&coeffs, &l, &u), expect);
        }
    }

    #[test]
    fn antidifference_of_zero_is_empty() {
        assert!(antidifference(&[QPoly::zero(), QPoly::zero()]).is_empty());
        assert!(telescope(&[], &QPoly::one(), &QPoly::one()).is_zero());
    }

    #[test]
    fn high_power_is_exact() {
        let mut s = Space::new();
        let n = s.var("n");
        let f = power_sum(20, n);
        let brute: i128 = (1..=8i128).map(|i| i.pow(20)).sum();
        assert_eq!(f.eval(&|_| Int::from(8)), Rat::from(Int::from(brute)));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn powers_past_the_maximum_panic() {
        let mut s = Space::new();
        let n = s.var("n");
        power_sum(MAX_POWER + 1, n);
    }
}
