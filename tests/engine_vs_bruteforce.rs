//! Randomized differential testing: the symbolic engine against the
//! shared brute-force oracle (`presburger::gen::oracle`) on generated
//! formulas. Grammar-directed generation with shrinking lives in
//! `tests/fuzz_differential.rs`; this file keeps the hand-shaped
//! proptest workloads.
//!
//! Every generated workload bounds the summation variables inside a
//! box so the brute-force reference is effective; the symbolic answer
//! is then evaluated at many concrete symbol values and compared.

use presburger::gen::oracle::{brute_force, brute_sum};
use presburger::prelude::*;
use presburger_arith::Int as BigInt;
use presburger_counting::{try_count_solutions, try_sum_polynomial};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Raw coefficients for one extra constraint `a·i + b·j + c·n + k ≥ 0`.
type RawAtom = (i64, i64, i64, i64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counts over random conjunctions match brute force.
    #[test]
    fn random_conjunctions(
        atoms in proptest::collection::vec(
            (-3i64..=3, -3i64..=3, -1i64..=1, -6i64..=6),
            1..4,
        )
    ) {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        let mut parts = vec![
            Formula::between(Affine::constant(-4), i, Affine::constant(6)),
            Formula::between(Affine::constant(-4), j, Affine::constant(6)),
        ];
        for (a, b, c, k) in atoms {
            let _: RawAtom = (a, b, c, k);
            parts.push(Formula::ge(Affine::from_terms(&[(i, a), (j, b), (n, c)], k)));
        }
        let f = Formula::and(parts);
        let sym = try_count_solutions(&s, &f, &[i, j], &CountOptions::default()).unwrap();
        for nv in -3i64..=5 {
            let brute = brute_force(&f, &[i, j], -10..=12, &|_| BigInt::from(nv));
            let got = sym.eval_i64(&[("n", nv)]);
            prop_assert_eq!(got, Some(brute as i64), "n={}", nv);
        }
    }

    /// Counts over random unions (disjoint-DNF path) match brute force.
    #[test]
    fn random_unions(a0 in -3i64..3, a1 in -3i64..3, b0 in 0i64..5, b1 in 0i64..5) {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let f = Formula::or(vec![
            Formula::between(Affine::constant(a0), x, Affine::constant(a0 + b0)),
            Formula::between(Affine::constant(a1), x, Affine::constant(a1 + b1)),
            Formula::and(vec![
                Formula::between(Affine::constant(0), x, Affine::var(n)),
                Formula::stride(2, Affine::var(x)),
            ]),
        ]);
        let sym = try_count_solutions(&s, &f, &[x], &CountOptions::default()).unwrap();
        for nv in -2i64..=8 {
            let brute = brute_force(&f, &[x], -10..=14, &|_| BigInt::from(nv));
            prop_assert_eq!(sym.eval_i64(&[("n", nv)]), Some(brute as i64), "n={}", nv);
        }
    }

    /// Polynomial summation matches brute force.
    #[test]
    fn random_polynomial_sums(c0 in -2i64..=2, c1 in -2i64..=2, c2 in 0i64..=2) {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        let f = Formula::and(vec![
            Formula::between(Affine::constant(1), i, Affine::var(n)),
            Formula::between(Affine::var(i), j, Affine::var(n)),
        ]);
        // z = c0 + c1·i + c2·i·j
        let z = QPoly::constant(presburger_arith::Rat::from(c0))
            + QPoly::var(i).scale(&presburger_arith::Rat::from(c1))
            + (QPoly::var(i) * QPoly::var(j)).scale(&presburger_arith::Rat::from(c2));
        let sym = try_sum_polynomial(&s, &f, &[i, j], &z, &CountOptions::default()).unwrap();
        for nv in -1i64..=7 {
            let brute = brute_sum(&f, &[i, j], -1..=8, &|_| BigInt::from(nv), &z);
            prop_assert_eq!(sym.eval_rat(&[("n", nv)]), brute, "n={}", nv);
        }
    }

    /// Strided (non-unit coefficient) bounds match brute force.
    #[test]
    fn random_rational_bounds(a in 2i64..=4, b in 2i64..=4, k in -3i64..=3) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        // a·x ≤ n + k ∧ 1 ≤ x ∧ b·y ≤ 3x ∧ 0 ≤ y
        let f = Formula::and(vec![
            Formula::le(Affine::constant(1), Affine::var(x)),
            Formula::le(Affine::term(x, a), Affine::var(n) + Affine::constant(k)),
            Formula::le(Affine::constant(0), Affine::var(y)),
            Formula::le(Affine::term(y, b), Affine::term(x, 3)),
        ]);
        let sym = try_count_solutions(&s, &f, &[x, y], &CountOptions::default()).unwrap();
        for nv in -2i64..=14 {
            let brute = brute_force(&f, &[x, y], -2..=30, &|_| BigInt::from(nv));
            prop_assert_eq!(sym.eval_i64(&[("n", nv)]), Some(brute as i64), "n={}", nv);
        }
    }

    /// Equality-constrained (projected) counts match brute force.
    #[test]
    fn random_projected(a in 1i64..=3, b in 1i64..=3, c in -2i64..=2) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        // a·x + b·y = n + c within a box
        let f = Formula::and(vec![
            Formula::eq(
                Affine::from_terms(&[(x, a), (y, b)], 0),
                Affine::var(n) + Affine::constant(c),
            ),
            Formula::between(Affine::constant(-6), x, Affine::constant(9)),
            Formula::between(Affine::constant(-6), y, Affine::constant(9)),
        ]);
        let sym = try_count_solutions(&s, &f, &[x, y], &CountOptions::default()).unwrap();
        for nv in -6i64..=12 {
            let brute = brute_force(&f, &[x, y], -8..=11, &|_| BigInt::from(nv));
            prop_assert_eq!(sym.eval_i64(&[("n", nv)]), Some(brute as i64), "n={}", nv);
        }
    }

    /// Negation (holes) matches brute force.
    #[test]
    fn random_negations(h0 in -2i64..=4, h1 in 0i64..=4) {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let f = Formula::and(vec![
            Formula::between(Affine::constant(-3), x, Affine::var(n)),
            Formula::not(Formula::between(
                Affine::constant(h0),
                x,
                Affine::constant(h0 + h1),
            )),
        ]);
        let sym = try_count_solutions(&s, &f, &[x], &CountOptions::default()).unwrap();
        for nv in -5i64..=9 {
            let brute = brute_force(&f, &[x], -8..=12, &|_| BigInt::from(nv));
            prop_assert_eq!(sym.eval_i64(&[("n", nv)]), Some(brute as i64), "n={}", nv);
        }
    }

    /// Upper/lower bound modes always bracket the exact count.
    #[test]
    fn approximation_brackets(a in 2i64..=5, k in -2i64..=2) {
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let f = Formula::and(vec![
            Formula::le(Affine::constant(0), Affine::var(x)),
            Formula::le(Affine::term(x, a), Affine::var(n) + Affine::constant(k)),
        ]);
        let exact = try_count_solutions(&s, &f, &[x], &CountOptions::default()).unwrap();
        let hi = try_count_solutions(&s, &f, &[x], &CountOptions {
            mode: Mode::UpperBound, ..CountOptions::default()
        }).unwrap();
        let lo = try_count_solutions(&s, &f, &[x], &CountOptions {
            mode: Mode::LowerBound, ..CountOptions::default()
        }).unwrap();
        for nv in 0i64..=16 {
            let e = exact.eval_rat(&[("n", nv)]);
            let u = hi.eval_rat(&[("n", nv)]);
            let l = lo.eval_rat(&[("n", nv)]);
            prop_assert!(l <= e && e <= u, "n={}: {} <= {} <= {} violated", nv, l, e, u);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Governed counting is total: under tight budgets and a deadline,
    /// random formulas never panic — they return Exact, Bounded, or a
    /// structured error — and never run past ~2× the deadline (the
    /// degrade-deadline guarantee).
    #[test]
    fn no_panic_under_governed_budgets(
        atoms in proptest::collection::vec(
            (-4i64..=4, -4i64..=4, -1i64..=1, -8i64..=8),
            1..5,
        ),
        m in 2i64..=4,
        hole in (-2i64..=3, 0i64..=3),
    ) {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        let mut parts = vec![
            Formula::between(Affine::constant(-4), i, Affine::constant(6)),
            Formula::between(Affine::constant(-4), j, Affine::constant(6)),
            Formula::stride(m, Affine::var(i)),
            Formula::not(Formula::between(
                Affine::constant(hole.0),
                j,
                Affine::constant(hole.0 + hole.1),
            )),
        ];
        for (a, b, c, k) in atoms {
            let _: RawAtom = (a, b, c, k);
            parts.push(Formula::ge(Affine::from_terms(&[(i, a), (j, b), (n, c)], k)));
        }
        let f = Formula::and(parts);
        const DEADLINE: Duration = Duration::from_millis(250);
        let gov = Governor::new(Budgets {
            deadline: Some(DEADLINE),
            max_splinters: Some(8),
            max_dnf_clauses: Some(64),
            max_depth: Some(4),
            max_pieces: Some(16),
            max_coeff_bits: Some(128),
        });
        let started = Instant::now();
        // Totality IS the assertion: a panic here fails the test.
        let outcome = try_count_solutions_governed(&s, &f, &[i, j], &CountOptions::default(), &gov);
        let elapsed = started.elapsed();
        // 2× the deadline plus slack for scheduling noise and the
        // ungoverned polish pass.
        prop_assert!(
            elapsed <= DEADLINE * 2 + Duration::from_millis(750),
            "governed run took {:?}",
            elapsed
        );
        match outcome {
            Ok(Outcome::Exact(_)) | Ok(Outcome::Bounded { .. }) => {}
            Err(
                CountError::Unbounded { .. }
                | CountError::TooComplex(_)
                | CountError::BudgetExceeded { .. }
                | CountError::Deadline { .. },
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The kitchen sink: unions of conjunctions with strides,
    /// equalities and negations, counted against brute force.
    #[test]
    fn random_full_mix(
        g1 in (-3i64..=3, -3i64..=3, -6i64..=6),
        g2 in (-3i64..=3, -3i64..=3, -6i64..=6),
        m in 2i64..=3,
        r in 0i64..=2,
        eq in (1i64..=2, 1i64..=2, -3i64..=3),
        hole in (-2i64..=3, 0i64..=3),
    ) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        let boxed = Formula::and(vec![
            Formula::between(Affine::constant(-4), x, Affine::constant(7)),
            Formula::between(Affine::constant(-4), y, Affine::constant(7)),
        ]);
        let branch1 = Formula::and(vec![
            boxed.clone(),
            Formula::ge(Affine::from_terms(&[(x, g1.0), (y, g1.1), (n, 1)], g1.2)),
            Formula::stride(m, Affine::var(x) + Affine::constant(r)),
        ]);
        let branch2 = Formula::and(vec![
            boxed.clone(),
            Formula::ge(Affine::from_terms(&[(x, g2.0), (y, g2.1), (n, -1)], g2.2)),
            Formula::eq(
                Affine::from_terms(&[(x, eq.0), (y, eq.1)], 0),
                Affine::var(n) + Affine::constant(eq.2),
            ),
        ]);
        let branch3 = Formula::and(vec![
            boxed,
            Formula::not(Formula::between(
                Affine::constant(hole.0),
                x,
                Affine::constant(hole.0 + hole.1),
            )),
            Formula::le(Affine::var(y), Affine::var(x)),
        ]);
        let f = Formula::or(vec![branch1, branch2, branch3]);
        let sym = try_count_solutions(&s, &f, &[x, y], &CountOptions::default()).unwrap();
        for nv in -3i64..=6 {
            let brute = brute_force(&f, &[x, y], -6..=9, &|_| BigInt::from(nv));
            prop_assert_eq!(sym.eval_i64(&[("n", nv)]), Some(brute as i64), "n={}", nv);
        }
    }
}
