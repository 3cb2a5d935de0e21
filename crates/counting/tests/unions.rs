//! Multi-clause unions against brute force: each formula simplifies to
//! several disjoint clauses, whose sums the engine adds in clause
//! order. Every count is checked by enumeration at sampled values of
//! the symbol `n`.

use presburger_arith::Int;
use presburger_counting::{enumerate, try_count_solutions, CountOptions};
use presburger_omega::{Affine, Formula, Space, VarId};
use proptest::prelude::*;

/// Counts `f` and checks it against brute force for every `n` in `ns`.
fn check_against_brute(
    s: &Space,
    f: &Formula,
    vars: &[VarId],
    brute_range: std::ops::RangeInclusive<i64>,
    ns: std::ops::RangeInclusive<i64>,
) -> Result<(), TestCaseError> {
    let sym = try_count_solutions(s, f, vars, &CountOptions::default())
        .map_err(|e| TestCaseError::fail(format!("count failed: {e}")))?;
    for nv in ns {
        let brute = enumerate::count_formula(f, vars, brute_range.clone(), &|_| Int::from(nv));
        prop_assert_eq!(sym.eval_i64(&[("n", nv)]), Some(brute as i64), "n={}", nv);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unions of shifted boxes: each disjunct becomes (at least) one
    /// disjoint clause.
    #[test]
    fn interval_unions(k in 2usize..=6, w in 1i64..=4) {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let f = Formula::or(
            (0..k as i64)
                .map(|o| {
                    Formula::between(
                        Affine::constant(1 + 2 * o),
                        x,
                        Affine::var(n) + Affine::constant(2 * o + w),
                    )
                })
                .collect(),
        );
        check_against_brute(&s, &f, &[x], -2..=30, -2..=8)?;
    }

    /// 2-D union with strides and a coupling constraint: clauses that
    /// each splinter further.
    #[test]
    fn strided_union_2d(m in 2i64..=3, r in 0i64..=1, c in 1i64..=3) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        let band = Formula::and(vec![
            Formula::between(Affine::constant(0), x, Affine::var(n)),
            Formula::between(Affine::var(x), y, Affine::var(n)),
            Formula::stride(m, Affine::var(x) + Affine::constant(r)),
        ]);
        let blob = Formula::and(vec![
            Formula::between(Affine::constant(-2), x, Affine::constant(4)),
            Formula::le(Affine::term(y, 2), Affine::term(x, 3) + Affine::constant(c)),
            Formula::le(Affine::constant(-3), Affine::var(y)),
        ]);
        let f = Formula::or(vec![band, blob]);
        check_against_brute(&s, &f, &[x, y], -4..=12, -1..=9)?;
    }

    /// Negation-induced DNF blowup: box minus a union of holes turns
    /// into many disjoint clauses.
    #[test]
    fn holes_via_negation(h in 0i64..=3, g in 2i64..=4) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        let holes = Formula::or(vec![
            Formula::between(Affine::constant(h), x, Affine::constant(h + 1)),
            Formula::between(Affine::constant(h + g), y, Affine::constant(h + g + 1)),
        ]);
        let f = Formula::and(vec![
            Formula::between(Affine::constant(-1), x, Affine::var(n)),
            Formula::between(Affine::constant(-1), y, Affine::var(n)),
            Formula::not(holes),
        ]);
        check_against_brute(&s, &f, &[x, y], -3..=10, -2..=8)?;
    }

    /// Mixed arity: one equality-constrained clause, one triangular
    /// clause, one strided clause.
    #[test]
    fn heterogeneous_clauses(a in 1i64..=2, off in -1i64..=2) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        let eq_clause = Formula::and(vec![
            Formula::eq(Affine::term(x, a), Affine::var(y) + Affine::constant(off)),
            Formula::between(Affine::constant(0), x, Affine::constant(6)),
            Formula::between(Affine::constant(-4), y, Affine::var(n)),
        ]);
        let tri_clause = Formula::and(vec![
            Formula::between(Affine::constant(1), x, Affine::var(n)),
            Formula::between(Affine::constant(1), y, Affine::var(x)),
        ]);
        let stride_clause = Formula::and(vec![
            Formula::between(Affine::constant(-3), x, Affine::constant(9)),
            Formula::eq(Affine::var(y), Affine::constant(-7)),
            Formula::stride(3, Affine::var(x)),
        ]);
        let f = Formula::or(vec![eq_clause, tri_clause, stride_clause]);
        check_against_brute(&s, &f, &[x, y], -8..=12, -2..=7)?;
    }
}

/// A two-clause union, one clause symbolic and one constant.
#[test]
fn two_clause_union() {
    let mut s = Space::new();
    let x = s.var("x");
    let n = s.var("n");
    let f = Formula::or(vec![
        Formula::between(Affine::constant(1), x, Affine::var(n)),
        Formula::between(Affine::constant(20), x, Affine::constant(25)),
    ]);
    let count = try_count_solutions(&s, &f, &[x], &CountOptions::default()).unwrap();
    for nv in -1i64..=30 {
        let brute = enumerate::count_formula(&f, &[x], -2..=40, &|_| Int::from(nv));
        assert_eq!(count.eval_i64(&[("n", nv)]), Some(brute as i64), "n={nv}");
    }
}
