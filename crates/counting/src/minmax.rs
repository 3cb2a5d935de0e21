//! The min/max answer form the paper developed and rejected (§6):
//!
//! > "We have developed a way of introducing min's and max's into the
//! > result. Although it sometimes allows us to avoid splitting a
//! > summation because of a multiple upper or lower bound, the results
//! > tend to be much more complicated. We have decided that in general
//! > it is not worth generating min's and max's."
//!
//! [`sum_var_minmax`] sums a polynomial over one variable with
//! *multiple* unit-coefficient bounds without any case split: the
//! bounds collapse into `max(L₁, L₂, …) ≤ v ≤ min(U₁, U₂, …)` and the
//! telescoped Faulhaber form is guarded by `p(U − L + 1)`. The
//! experiments compare the resulting expression complexity against the
//! guarded-piece answer of the main engine (ablation A5).

use crate::CountError;
use presburger_omega::{Conjunct, VarId};
use presburger_polyq::mexpr::{faulhaber_mexpr, MExpr};

/// The result of a min/max summation.
#[derive(Clone, Debug)]
pub struct MinMaxSum {
    /// The single closed-form expression.
    pub expr: MExpr,
    /// How many bounds were folded into `min`/`max` (0 means the sum
    /// had single bounds and gained nothing from this form).
    pub folded_bounds: usize,
}

/// Sums `Σₖ coeffs[k]·vᵏ` over the values of `v` admitted by the
/// inequalities of `c` that mention `v` — without splitting multiple
/// bounds.
///
/// Constraints of `c` not mentioning `v` are ignored (they guard the
/// enclosing context); every constraint mentioning `v` must have a
/// unit coefficient on `v` (the natural habitat of this answer form —
/// rational bounds would force mod terms anyway).
///
/// # Errors
///
/// Returns [`CountError::TooComplex`] if a bound has a non-unit
/// coefficient on `v`, and [`CountError::Unbounded`] if `v` lacks a
/// lower or upper bound.
pub fn sum_var_minmax(c: &Conjunct, v: VarId, coeffs: &[MExpr]) -> Result<MinMaxSum, CountError> {
    let (lowers, uppers) = c.bounds_on(v);
    if lowers.is_empty() || uppers.is_empty() {
        return Err(CountError::Unbounded {
            var: format!("v{}", v.index()),
        });
    }
    if lowers
        .iter()
        .chain(uppers.iter())
        .any(|b| !b.coeff.is_one())
    {
        return Err(CountError::TooComplex(
            "min/max summation requires unit bound coefficients".to_string(),
        ));
    }
    let fold = |bounds: &[presburger_omega::Bound], is_min: bool| -> MExpr {
        let mut it = bounds.iter().map(|b| MExpr::from_affine(&b.expr));
        let first = it.next().expect(
            "invariant: fold is only applied to the bound lists already \
             checked non-empty above (the Unbounded early-return)",
        );
        it.fold(first, |acc, e| {
            if is_min {
                MExpr::min2(acc, e)
            } else {
                MExpr::max2(acc, e)
            }
        })
    };
    let upper = fold(&uppers, true);
    let lower = fold(&lowers, false);
    let folded_bounds = (lowers.len() - 1) + (uppers.len() - 1);

    // p(U − L + 1) · Σₖ coeffs[k]·(Fₖ(U) − Fₖ(L−1))
    let mut total = Vec::new();
    for (k, cf) in coeffs.iter().enumerate() {
        if *cf == MExpr::int(0) {
            continue;
        }
        let f_u = faulhaber_mexpr(k as u32, &upper);
        let lm1 = MExpr::Add(vec![lower.clone(), MExpr::int(-1)]);
        let f_l = faulhaber_mexpr(k as u32, &lm1);
        total.push(MExpr::Mul(vec![
            cf.clone(),
            MExpr::Add(vec![f_u, MExpr::Mul(vec![MExpr::int(-1), f_l])]),
        ]));
    }
    let range = MExpr::Add(vec![
        upper,
        MExpr::Mul(vec![MExpr::int(-1), lower]),
        MExpr::int(1),
    ]);
    let expr = MExpr::Mul(vec![MExpr::pos(range), MExpr::Add(total)]);
    Ok(MinMaxSum {
        expr,
        folded_bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_arith::{Int, Rat};
    use presburger_omega::{Affine, Space};

    /// Σ_{x : 1 ≤ x ≤ n ∧ x ≤ m} 1 = max(0, min(n, m)) — one
    /// expression instead of the exact engine's two pieces.
    #[test]
    fn double_upper_bound_without_split() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let m = s.var("m");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -1));
        c.add_geq(Affine::from_terms(&[(n, 1), (x, -1)], 0));
        c.add_geq(Affine::from_terms(&[(m, 1), (x, -1)], 0));
        let r = sum_var_minmax(&c, x, &[MExpr::int(1)]).unwrap();
        assert_eq!(r.folded_bounds, 1);
        assert!(r.expr.minmax_count() >= 2); // a min and the p()
        for nv in -2i64..=6 {
            for mv in -2i64..=6 {
                let expect = nv.min(mv).max(0);
                let got = r.expr.eval(&|w| {
                    if w == n {
                        Int::from(nv)
                    } else {
                        Int::from(mv)
                    }
                });
                assert_eq!(got, Rat::from(expect), "n={nv} m={mv}");
            }
        }
    }

    /// Quadratic summand with two lower bounds.
    #[test]
    fn double_lower_bound_quadratic() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let m = s.var("m");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1), (n, -1)], 0)); // x >= n
        c.add_geq(Affine::from_terms(&[(x, 1), (m, -1)], 0)); // x >= m
        c.add_geq(Affine::from_terms(&[(x, -1)], 10)); // x <= 10
        let r = sum_var_minmax(&c, x, &[MExpr::int(0), MExpr::int(0), MExpr::int(1)]).unwrap();
        for nv in -2i64..=12 {
            for mv in -2i64..=12 {
                let lo = nv.max(mv);
                let brute: i64 = (lo..=10).map(|x| x * x).sum();
                let got = r.expr.eval(&|w| {
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
    fn non_unit_coefficient_is_rejected() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], 0));
        c.add_geq(Affine::from_terms(&[(n, 1), (x, -2)], 0)); // 2x <= n
        assert!(matches!(
            sum_var_minmax(&c, x, &[MExpr::int(1)]),
            Err(CountError::TooComplex(_))
        ));
    }

    #[test]
    fn unbounded_is_rejected() {
        let mut s = Space::new();
        let x = s.var("x");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], 0));
        assert!(matches!(
            sum_var_minmax(&c, x, &[MExpr::int(1)]),
            Err(CountError::Unbounded { .. })
        ));
    }

    /// The paper's verdict: the min/max answer is "much more
    /// complicated" — measure it against the guarded form.
    #[test]
    fn complexity_comparison() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let m = s.var("m");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -1));
        c.add_geq(Affine::from_terms(&[(n, 1), (x, -1)], 0));
        c.add_geq(Affine::from_terms(&[(m, 1), (x, -1)], 0));
        let mm = sum_var_minmax(&c, x, &[MExpr::int(0), MExpr::int(1)]).unwrap();
        // guarded form via the exact engine
        let f = c.to_formula();
        let exact = crate::sum_polynomial(&s, &f, &[x], &presburger_polyq::QPoly::var(x));
        // both agree numerically…
        for nv in 0i64..=6 {
            for mv in 0i64..=6 {
                let lo = 1;
                let hi = nv.min(mv);
                let brute: i64 = (lo..=hi).sum();
                assert_eq!(
                    mm.expr
                        .eval(&|w| if w == n { Int::from(nv) } else { Int::from(mv) }),
                    Rat::from(brute)
                );
                assert_eq!(exact.eval_i64(&[("n", nv), ("m", mv)]), Some(brute));
            }
        }
        // …but the min/max form carries min/max operators while the
        // guarded form carries pieces: the paper's trade-off.
        assert!(mm.expr.minmax_count() >= 2);
        assert!(exact.num_pieces() >= 2);
    }
}
