//! Differential tests of the Omega-test primitives against brute
//! force, on randomized three-variable systems with strides and
//! equalities, and on systems in the hard regime (large coefficients
//! and moduli, a wildcard) whose feasibility witnesses are checked as
//! well.

use presburger_arith::Int;
use presburger_gen::oracle::{conjunct_feasible, conjunct_sat};
use presburger_omega::dnf::project_wildcards;
use presburger_omega::eliminate::Shadow;
use presburger_omega::feasible::is_feasible;
use presburger_omega::{Affine, Conjunct, Space, VarId};
use proptest::prelude::*;

const R: i64 = 7;

/// Box of the hard-regime systems: every variable lies in `-H..=H`.
const H: i64 = 6;

/// The point the feasibility search pooled for `c` in a space that held
/// no witness before: it must satisfy the normalized clause, wildcards
/// included (variables the point does not list read 0).
fn check_witness(c: &Conjunct, s: &Space) -> Result<(), TestCaseError> {
    let point = s.witnesses().first();
    prop_assert!(point.is_some(), "no witness pooled for {}", c.to_string(s));
    let point = point.unwrap();
    let mut norm = c.clone();
    norm.normalize();
    let at = |v: VarId| {
        point
            .iter()
            .find(|(w, _)| *w == v)
            .map_or_else(Int::zero, |(_, x)| x.clone())
    };
    prop_assert!(
        conjunct_sat(&norm, &at),
        "witness {:?} fails {}",
        point,
        norm.to_string(s)
    );
    Ok(())
}

/// A small constraint `a·x + b·y + e·w + k` as `(a, b, e, k)`.
type Small = (i64, i64, i64, i64);

/// The one hard feature of a hard-regime system: `(kind, at, big, sign,
/// terms, modulus)`. Kind 0 adds the inequality `terms ± big·v ≥ 0`
/// with `v` the `at`-th of `x, y, w`; kind 1 the stride
/// `modulus | terms`; kind 2 the equality `terms ± big·w = 0` (the
/// projected format of a stride on `terms`).
type Hard = (u8, usize, i64, bool, Small, i64);

/// A hard-regime system over `x, y` and the wildcard `w`, all boxed to
/// `-H..=H`: small inequalities and equalities plus one constraint with
/// a coefficient of 100..=130 or a modulus of 64..=100. (Several such
/// constraints in one system can make the exact search splinter into
/// the millions.)
fn build_hard(s: &mut Space, geqs: &[Small], eqs: &[Small], hard: Hard) -> (Conjunct, [VarId; 3]) {
    let vars = [s.var("x"), s.var("y"), s.var("w")];
    let [x, y, w] = vars;
    let small = |&(a, b, e, k): &Small| Affine::from_terms(&[(x, a), (y, b), (w, e)], k);
    let mut c = Conjunct::new();
    c.add_wildcard(w);
    for v in vars {
        c.add_geq(Affine::from_terms(&[(v, 1)], H));
        c.add_geq(Affine::from_terms(&[(v, -1)], H));
    }
    for t in geqs {
        c.add_geq(small(t));
    }
    for t in eqs {
        c.add_eq(small(t));
    }
    let (kind, at, big, negative, terms, modulus) = hard;
    let big = if negative { -big } else { big };
    match kind {
        0 => c.add_geq(small(&terms) + Affine::term(vars[at], big)),
        1 => c.add_stride(Int::from(modulus), small(&terms)),
        _ => c.add_eq(small(&terms) + Affine::term(w, big)),
    }
    (c, vars)
}

fn build(
    s: &mut Space,
    geqs: &[(i64, i64, i64, i64)],
    eqs: &[(i64, i64, i64, i64)],
    strides: &[(i64, i64, i64, i64, i64)],
) -> (Conjunct, [VarId; 3]) {
    let x = s.var("x");
    let y = s.var("y");
    let z = s.var("z");
    let mut c = Conjunct::new();
    for v in [x, y, z] {
        c.add_geq(Affine::from_terms(&[(v, 1)], R));
        c.add_geq(Affine::from_terms(&[(v, -1)], R));
    }
    for &(a, b, d, k) in geqs {
        c.add_geq(Affine::from_terms(&[(x, a), (y, b), (z, d)], k));
    }
    for &(a, b, d, k) in eqs {
        c.add_eq(Affine::from_terms(&[(x, a), (y, b), (z, d)], k));
    }
    for &(m, a, b, d, k) in strides {
        if m >= 2 {
            c.add_stride(
                Int::from(m),
                Affine::from_terms(&[(x, a), (y, b), (z, d)], k),
            );
        }
    }
    (c, [x, y, z])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The complete feasibility test agrees with brute force on
    /// bounded systems with inequalities, equalities and strides.
    #[test]
    fn feasibility_matches_brute_force(
        geqs in proptest::collection::vec((-4i64..=4, -4i64..=4, -4i64..=4, -9i64..=9), 0..4),
        eqs in proptest::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6), 0..2),
        strides in proptest::collection::vec((2i64..=4, -2i64..=2, -2i64..=2, -2i64..=2, -3i64..=3), 0..2),
    ) {
        let mut s = Space::new();
        let (c, vars) = build(&mut s, &geqs, &eqs, &strides);
        let expected = conjunct_feasible(&c, &vars, -R..=R, &|v| {
            panic!("unbound variable {}", s.name(v))
        });
        prop_assert_eq!(is_feasible(&c, &mut s), expected, "{}", c.to_string(&s));
        if expected {
            check_witness(&c, &s)?;
        }
    }

    /// Projecting away one existential variable is exact, in both
    /// splintering modes, including through strides and equalities.
    #[test]
    fn wildcard_projection_is_exact(
        geqs in proptest::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3, -9i64..=9), 1..4),
        eqs in proptest::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6), 0..2),
        strides in proptest::collection::vec((2i64..=3, -2i64..=2, -2i64..=2, -2i64..=2, -3i64..=3), 0..2),
        mode_pick in 0usize..2,
    ) {
        let mut s = Space::new();
        let (mut c, [x, _y, z]) = build(&mut s, &geqs, &eqs, &strides);
        c.add_wildcard(z);
        let mode = [Shadow::ExactOverlapping, Shadow::ExactDisjoint][mode_pick];
        let parts = project_wildcards(&c, &mut s, mode);
        for xv in -R..=R {
            for yv in -R..=R {
                let outer = |v: VarId| if v == x { Int::from(xv) } else { Int::from(yv) };
                let truth = (-R..=R).any(|zv| {
                    conjunct_sat(&c, &|v| if v == z { Int::from(zv) } else { outer(v) })
                });
                let assign = |v: VarId| if v == x { Int::from(xv) } else { Int::from(yv) };
                let hits = parts.iter().filter(|p| p.contains_point(&s, &assign)).count();
                prop_assert_eq!(hits > 0, truth, "mode {:?} x={} y={}", mode, xv, yv);
                if mode == Shadow::ExactDisjoint {
                    prop_assert!(hits <= 1, "overlap at x={} y={}", xv, yv);
                }
            }
        }
    }
}

proptest! {
    // Infeasible systems with a large-modulus stride over three
    // variables take the exact search hundreds of thousands of
    // splinters, so this block runs fewer cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hard regime — a coefficient of 100..=130 or a modulus of
    /// 64..=100 next to equalities, inequalities and an existential
    /// wildcard — agrees with brute force, every feasible verdict
    /// leaves a witness of its clause, and a narrower clause checked in
    /// the same space (where pooled points may answer) agrees with brute
    /// force too.
    #[test]
    fn hard_regime_feasibility_and_witnesses(
        geqs in proptest::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3, -9i64..=9), 1..4),
        eqs in proptest::collection::vec((-3i64..=3, -3i64..=3, -3i64..=3, -5i64..=5), 0..2),
        hard in (0u8..3, 0usize..3, 100i64..=130, any::<bool>(),
                 (-3i64..=3, -3i64..=3, -3i64..=3, -300i64..=300), 64i64..=100),
        extra in (-3i64..=3, -3i64..=3, -3i64..=3, -9i64..=9),
    ) {
        let mut s = Space::new();
        let (c, vars) = build_hard(&mut s, &geqs, &eqs, hard);
        let unbound = |v: VarId| -> Int { panic!("unbound variable {v:?}") };
        let expected = conjunct_feasible(&c, &vars, -H..=H, &unbound);
        prop_assert_eq!(is_feasible(&c, &mut s), expected, "{}", c.to_string(&s));
        if expected {
            check_witness(&c, &s)?;
        }
        let [x, y, w] = vars;
        let mut narrower = c.clone();
        narrower.add_geq(Affine::from_terms(&[(x, extra.0), (y, extra.1), (w, extra.2)], extra.3));
        let expected = conjunct_feasible(&narrower, &vars, -H..=H, &unbound);
        prop_assert_eq!(is_feasible(&narrower, &mut s), expected, "{}", narrower.to_string(&s));
    }
}

mod roundtrip {
    use presburger_arith::Int;
    use presburger_omega::dnf::formula_equivalent;
    use presburger_omega::{parse_formula, Affine, Formula, Space};
    use proptest::prelude::*;

    /// Builds a random small formula over x, y, n.
    fn random_formula(s: &mut Space, spec: &[(u8, i64, i64, i64, i64)]) -> Formula {
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        let mut parts = vec![
            Formula::between(Affine::constant(-3), x, Affine::constant(6)),
            Formula::between(Affine::constant(-3), y, Affine::constant(6)),
        ];
        for &(kind, a, b, c, k) in spec {
            let e = Affine::from_terms(&[(x, a), (y, b), (n, c)], k);
            parts.push(match kind % 4 {
                0 => Formula::ge(e),
                1 => Formula::eq0(e),
                2 => Formula::not(Formula::ge(e)),
                _ => Formula::stride(2 + i64::from(kind % 3), e),
            });
        }
        Formula::and(parts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// print → parse is the identity up to semantic equivalence.
        #[test]
        fn print_parse_roundtrip(
            spec in proptest::collection::vec(
                (any::<u8>(), -3i64..=3, -3i64..=3, -1i64..=1, -5i64..=5),
                0..3,
            )
        ) {
            let mut s = Space::new();
            let f = random_formula(&mut s, &spec);
            let text = f.to_string(&s);
            let g = parse_formula(&text, &mut s)
                .unwrap_or_else(|e| panic!("unparseable printout {text:?}: {e}"));
            prop_assert!(
                formula_equivalent(&f, &g, &mut s),
                "round-trip changed meaning: {}",
                text
            );
        }

        /// quantified formulas also round-trip.
        #[test]
        fn quantified_roundtrip(m in 2i64..=4, lo in -2i64..=2, hi in 3i64..=6) {
            let mut s = Space::new();
            let x = s.var("x");
            let w = s.var("w");
            let f = Formula::and(vec![
                Formula::between(Affine::constant(lo), x, Affine::constant(hi)),
                Formula::exists(
                    vec![w],
                    Formula::and(vec![
                        Formula::eq(Affine::var(x), Affine::term(w, m)),
                        Formula::le(Affine::constant(0), Affine::var(w)),
                    ]),
                ),
            ]);
            let text = f.to_string(&s);
            let g = parse_formula(&text, &mut s)
                .unwrap_or_else(|e| panic!("unparseable printout {text:?}: {e}"));
            for xv in -4i64..=8 {
                let mut s1 = s.clone();
                let d1 = presburger_omega::dnf::simplify(&f, &mut s1, &Default::default());
                let mut s2 = s.clone();
                let d2 = presburger_omega::dnf::simplify(&g, &mut s2, &Default::default());
                prop_assert_eq!(
                    d1.contains_point(&s1, &|_| Int::from(xv)),
                    d2.contains_point(&s2, &|_| Int::from(xv)),
                    "x={} text={}", xv, text
                );
            }
        }
    }
}
