//! General sums over arbitrary Presburger formulas (§4.5).
//!
//! The formula is simplified to **disjoint** DNF (§4.5.1 — overlapping
//! clauses would double-count; the paper's alternative, inclusion–
//! exclusion, needs `2^k − 1` summations for `k` clauses), then each
//! clause is summed independently through the projected transform
//! (§4.5.2) and the convex engine (§4.4). The clauses are summed one
//! after another, in clause order, by the clause loop in `pipeline.rs`.

use crate::pipeline::sum_clauses;
use crate::{CountError, CountOptions};
use presburger_omega::dnf::{simplify, SimplifyOptions};
use presburger_omega::{Formula, Space, VarId};
use presburger_polyq::{GuardedValue, QPoly};

/// Computes `(Σ vars : f : z)` as a guarded quasi-polynomial over the
/// remaining free variables of `f`.
pub fn sum_formula(
    f: &Formula,
    vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
    opts: &CountOptions,
) -> Result<GuardedValue, CountError> {
    let _span = presburger_trace::span("sum_formula");
    let dnf = simplify(f, space, &SimplifyOptions::disjoint());
    // The clauses are disjoint, so their sums add; the earliest failing
    // clause's error is the one reported.
    let mut acc = GuardedValue::zero();
    for out in sum_clauses(dnf.clauses, vars, z, space, opts, None) {
        acc.add(out.result?);
    }
    Ok(polish(acc, space, opts))
}

/// Polishes a merged answer: compacts equal-guard pieces and strips
/// redundant constraints from each guard (§2.3 — guards come out of
/// the engine with shadow by-products). Shared by the plain and the
/// [governed](crate::govern) entry points.
pub(crate) fn polish(
    mut acc: GuardedValue,
    space: &mut Space,
    opts: &CountOptions,
) -> GuardedValue {
    acc.compact();
    if opts.remove_redundant {
        acc = acc.map_guards(|g| presburger_omega::redundant::remove_redundant(g, space));
        acc.compact();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate;
    use presburger_arith::{Int, Rat};
    use presburger_omega::Affine;

    /// Helper: count with the engine and compare against brute force
    /// for every n in `ns`.
    fn check_count(
        space: &Space,
        f: &Formula,
        vars: &[VarId],
        sym: VarId,
        ns: std::ops::RangeInclusive<i64>,
        brute_range: std::ops::RangeInclusive<i64>,
    ) {
        let mut s = space.clone();
        let v = sum_formula(f, vars, &QPoly::one(), &mut s, &CountOptions::default())
            .expect("countable");
        for nv in ns {
            let expected = {
                let mut sp = space.clone();
                let d = simplify(f, &mut sp, &SimplifyOptions::default());
                enumerate::count_dnf(&d, &sp, vars, brute_range.clone(), &|w| {
                    assert_eq!(w, sym);
                    Int::from(nv)
                })
            };
            let got = v.eval(&s, &|_| Int::from(nv));
            assert_eq!(
                got,
                Rat::from(expected as i64),
                "n={nv}: {}",
                v.to_string(&s)
            );
        }
    }

    #[test]
    fn rectangle() {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        let f = Formula::and(vec![
            Formula::between(Affine::constant(1), i, Affine::var(n)),
            Formula::between(Affine::constant(1), j, Affine::var(n)),
        ]);
        check_count(&s, &f, &[i, j], n, -2..=7, -1..=8);
    }

    #[test]
    fn union_of_intervals() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        // [1, n] ∪ [5, 12] — overlapping for n ≥ 5
        let f = Formula::or(vec![
            Formula::between(Affine::constant(1), x, Affine::var(n)),
            Formula::between(Affine::constant(5), x, Affine::constant(12)),
        ]);
        check_count(&s, &f, &[x], n, -2..=15, -3..=20);
    }

    #[test]
    fn strided_interval() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let f = Formula::and(vec![
            Formula::between(Affine::constant(0), x, Affine::var(n)),
            Formula::stride(4, Affine::var(x) + Affine::constant(1)),
        ]);
        check_count(&s, &f, &[x], n, -2..=13, -2..=15);
    }

    #[test]
    fn rational_upper_bound() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        // 1 ≤ x ∧ 3x ≤ n  ⇒  ⌊n/3⌋ points
        let f = Formula::and(vec![
            Formula::le(Affine::constant(1), Affine::var(x)),
            Formula::le(Affine::term(x, 3), Affine::var(n)),
        ]);
        check_count(&s, &f, &[x], n, -2..=13, -1..=6);
    }

    #[test]
    fn triangle_with_rational_inner_bound() {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        // 1 ≤ j ≤ n ∧ 1 ≤ i ∧ 2i ≤ 3j  (Example 6 shape)
        let f = Formula::and(vec![
            Formula::between(Affine::constant(1), j, Affine::var(n)),
            Formula::le(Affine::constant(1), Affine::var(i)),
            Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
        ]);
        check_count(&s, &f, &[i, j], n, -1..=8, -1..=13);
    }

    #[test]
    fn negation_produces_holes() {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        // 0 ≤ x ≤ n ∧ ¬(3 ≤ x ≤ 5)
        let f = Formula::and(vec![
            Formula::between(Affine::constant(0), x, Affine::var(n)),
            Formula::not(Formula::between(
                Affine::constant(3),
                x,
                Affine::constant(5),
            )),
        ]);
        check_count(&s, &f, &[x], n, -2..=9, -1..=11);
    }

    #[test]
    fn sum_of_squares() {
        let mut s = Space::new();
        let i = s.var("i");
        let n = s.var("n");
        let f = Formula::between(Affine::constant(1), i, Affine::var(n));
        let z = QPoly::var(i) * QPoly::var(i);
        let mut s2 = s.clone();
        let v = sum_formula(&f, &[i], &z, &mut s2, &CountOptions::default()).unwrap();
        for nv in -2i64..=8 {
            let brute: i64 = (1..=nv).map(|x| x * x).sum();
            assert_eq!(v.eval(&s2, &|_| Int::from(nv)), Rat::from(brute), "n={nv}");
        }
    }

    #[test]
    fn exists_in_formula() {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        // count x: ∃y: x = 3y ∧ 0 ≤ y ∧ x ≤ n
        let f = Formula::exists(
            vec![y],
            Formula::and(vec![
                Formula::eq(Affine::var(x), Affine::term(y, 3)),
                Formula::le(Affine::constant(0), Affine::var(y)),
                Formula::le(Affine::var(x), Affine::var(n)),
            ]),
        );
        check_count(&s, &f, &[x], n, -2..=10, -2..=12);
    }

    #[test]
    fn two_symbols() {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        let m = s.var("m");
        // the paper's intro example: 1 ≤ i ≤ n ∧ i ≤ j ≤ m
        let f = Formula::and(vec![
            Formula::between(Affine::constant(1), i, Affine::var(n)),
            Formula::between(Affine::var(i), j, Affine::var(m)),
        ]);
        let mut s2 = s.clone();
        let v = sum_formula(
            &f,
            &[i, j],
            &QPoly::one(),
            &mut s2,
            &CountOptions::default(),
        )
        .unwrap();
        for nv in -1i64..=6 {
            for mv in -1i64..=6 {
                let mut brute = 0i64;
                for iv in 1..=nv {
                    for jv in iv..=mv {
                        let _ = jv;
                        brute += 1;
                    }
                }
                let got = v.eval(&s2, &|w| {
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
    fn unbounded_is_an_error() {
        let mut s = Space::new();
        let x = s.var("x");
        let f = Formula::le(Affine::constant(0), Affine::var(x));
        let r = sum_formula(
            &f,
            &[x],
            &QPoly::one(),
            &mut s.clone(),
            &CountOptions::default(),
        );
        assert!(matches!(r, Err(CountError::Unbounded { .. })));
    }

    #[test]
    fn empty_region_is_zero_everywhere() {
        let mut s = Space::new();
        let x = s.var("x");
        let f = Formula::and(vec![
            Formula::le(Affine::constant(5), Affine::var(x)),
            Formula::le(Affine::var(x), Affine::constant(3)),
        ]);
        let v = sum_formula(
            &f,
            &[x],
            &QPoly::one(),
            &mut s.clone(),
            &CountOptions::default(),
        )
        .unwrap();
        assert!(v.is_zero());
    }
}
