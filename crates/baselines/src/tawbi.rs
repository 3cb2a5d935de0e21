//! Tawbi's summation algorithm (\[Taw91, TF92, Taw94\], §6 Example 1).
//!
//! Tawbi sums a polynomial over a polytope with three restrictions the
//! paper's method lifts:
//!
//! 1. variables are eliminated in a **fixed, predetermined order**
//!    (innermost first);
//! 2. **no redundant-constraint elimination** is attempted;
//! 3. emptiness is handled by an up-front **polyhedral splitting** so
//!    that no summation can be empty — which, because it respects the
//!    fixed order, "may split a summation into more pieces" than
//!    necessary.
//!
//! The implementation reuses the workspace's exact telescoping, so the
//! *answers* agree with the main engine; the interesting output is the
//! piece count, reproduced in experiment E4/A2.

use presburger_arith::Int;
use presburger_omega::{Conjunct, Space, VarId};
use presburger_polyq::{GuardedValue, QPoly};

/// The result of a Tawbi-style summation.
#[derive(Clone, Debug)]
pub struct TawbiResult {
    /// The (correct) guarded value.
    pub value: GuardedValue,
    /// Number of leaf summations performed — the paper's "terms".
    pub pieces: usize,
}

/// Sums `z` over the conjunction `c` eliminating `ordered_vars` exactly
/// in the given order (innermost first). Bounds must have unit
/// coefficients (Tawbi's rational-bound handling computed averages; the
/// comparison experiments only need the polytope case).
///
/// # Panics
///
/// Panics if a variable is unbounded or a bound has a non-unit
/// coefficient.
pub fn tawbi_sum(
    c: &Conjunct,
    ordered_vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
) -> TawbiResult {
    let mut pieces = 0usize;
    let value = rec(c, ordered_vars, z, space, &mut pieces);
    TawbiResult { value, pieces }
}

fn rec(
    c: &Conjunct,
    vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
    pieces: &mut usize,
) -> GuardedValue {
    let mut c = c.clone();
    c.normalize();
    if c.is_false() || z.is_zero() {
        return GuardedValue::zero();
    }
    let Some((&v, rest_vars)) = vars.split_first() else {
        if !presburger_omega::feasible::is_feasible(&c, space) {
            return GuardedValue::zero();
        }
        *pieces += 1;
        presburger_trace::bump(presburger_trace::Counter::TawbiSplits);
        presburger_trace::explain(|| format!("Tawbi leaf: {}", c.to_string(space)));
        return GuardedValue::piece(c, z.clone());
    };
    let (lowers, uppers) = c.bounds_on(v);
    assert!(
        !lowers.is_empty() && !uppers.is_empty(),
        "Tawbi summation requires bounded variables"
    );
    assert!(
        lowers.iter().chain(uppers.iter()).all(|b| b.coeff.is_one()),
        "Tawbi summation requires unit bound coefficients"
    );
    // Polyhedral splitting on which bound is extremal — WITHOUT first
    // removing redundant constraints, so provably-redundant bounds
    // still multiply the case count (restriction 2).
    if uppers.len() > 1 || lowers.len() > 1 {
        let split_upper = uppers.len() > 1;
        let bounds = if split_upper { &uppers } else { &lowers };
        let mut acc = GuardedValue::zero();
        for i in 0..bounds.len() {
            let mut cl = Conjunct::new();
            for e in c.eqs() {
                cl.add_eq(e.clone());
            }
            for (m, e) in c.strides() {
                cl.add_stride(m.clone(), e.clone());
            }
            for e in c.geqs() {
                let coeff = e.coeff(v);
                let competing = if split_upper {
                    coeff.is_negative()
                } else {
                    coeff.is_positive()
                };
                if !competing {
                    cl.add_geq(e.clone());
                }
            }
            let bi = &bounds[i];
            if split_upper {
                let mut e = bi.expr.clone();
                e.set_coeff(v, Int::from(-1));
                cl.add_geq(e);
            } else {
                let mut e = -&bi.expr;
                e.set_coeff(v, Int::one());
                cl.add_geq(e);
            }
            for (j, bj) in bounds.iter().enumerate() {
                if j == i {
                    continue;
                }
                let mut ord = if split_upper {
                    &bj.expr - &bi.expr
                } else {
                    &bi.expr - &bj.expr
                };
                if j < i {
                    ord.add_constant(&Int::from(-1));
                }
                cl.add_geq(ord);
            }
            cl.normalize();
            if !cl.is_false() {
                acc.add(rec(&cl, vars, z, space, pieces));
            }
        }
        return acc;
    }
    // single bounds: telescope, guarding non-emptiness up front
    let beta = &lowers[0].expr;
    let alpha = &uppers[0].expr;
    let inner = presburger_polyq::faulhaber::telescope(
        &z.coefficients_in(v),
        &QPoly::from_affine(beta),
        &QPoly::from_affine(alpha),
    );
    let mut rest = Conjunct::new();
    for e in c.eqs() {
        rest.add_eq(e.clone());
    }
    for (m, e) in c.strides() {
        rest.add_stride(m.clone(), e.clone());
    }
    for e in c.geqs() {
        if !e.mentions(v) {
            rest.add_geq(e.clone());
        }
    }
    rest.add_geq(alpha - beta); // non-emptiness split
    rec(&rest, rest_vars, &inner, space, pieces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_arith::Rat;
    use presburger_omega::Affine;

    /// §6 Example 1 (Tawbi): Σ over 1≤i≤n, 1≤j≤i, j≤k≤m.
    /// The paper reports Tawbi needs 3 terms where the free-order
    /// method needs 2.
    #[test]
    fn example1_piece_count() {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let k = s.var("k");
        let n = s.var("n");
        let m = s.var("m");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(i, 1)], -1)); // 1 <= i
        c.add_geq(Affine::from_terms(&[(n, 1), (i, -1)], 0)); // i <= n
        c.add_geq(Affine::from_terms(&[(j, 1)], -1)); // 1 <= j
        c.add_geq(Affine::from_terms(&[(i, 1), (j, -1)], 0)); // j <= i
        c.add_geq(Affine::from_terms(&[(k, 1), (j, -1)], 0)); // j <= k
        c.add_geq(Affine::from_terms(&[(m, 1), (k, -1)], 0)); // k <= m
                                                              // innermost-first fixed order: k, j, i
        let r = tawbi_sum(&c, &[k, j, i], &QPoly::one(), &mut s);
        assert_eq!(r.pieces, 3, "Tawbi's fixed order needs 3 terms here");
        // and the value is still correct
        for nv in 0i64..=6 {
            for mv in 0i64..=6 {
                let mut brute = 0i64;
                for iv in 1..=nv {
                    for jv in 1..=iv {
                        brute += (jv..=mv).count() as i64;
                    }
                }
                let got = r.value.eval(&s, &|w| {
                    if w == n {
                        Int::from(nv)
                    } else {
                        Int::from(mv)
                    }
                });
                assert_eq!(got, Rat::from(brute), "n={nv} m={mv}");
            }
        }
    }

    #[test]
    fn simple_box_is_one_piece() {
        let mut s = Space::new();
        let i = s.var("i");
        let n = s.var("n");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(i, 1)], -1));
        c.add_geq(Affine::from_terms(&[(n, 1), (i, -1)], 0));
        let r = tawbi_sum(&c, &[i], &QPoly::one(), &mut s);
        assert_eq!(r.pieces, 1);
        assert_eq!(r.value.eval(&s, &|_| Int::from(7)), Rat::from(7));
    }
}
