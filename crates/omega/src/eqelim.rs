//! Exact elimination of an existential variable through an equality
//! constraint.
//!
//! Given `∃v : a·v + R = 0 ∧ rest(v)`, integer `v` exists with
//! `a·v = -R` iff `|a|` divides `R`; and every other constraint
//! `c·v + S ⋈ 0` can be scaled by `|a| > 0` (which preserves `⋈` for
//! `=`, `≥` and stride constraints) so that `c·v` can be replaced by
//! `-sign(a)·c·R / 1`:
//!
//! ```text
//! |a|·(c·v + S)  =  -sign(a)·c·R + |a|·S
//! ```
//!
//! This gives a *single* exact result clause with one extra stride
//! constraint — no splintering. (The original Omega test uses a
//! balanced-modulus substitution to keep coefficients machine-sized;
//! with arbitrary-precision [`Int`]s the scaling approach is simpler
//! and exact. Normalization immediately re-divides each scaled
//! constraint by its content, so coefficient growth is transient.)

use crate::affine::Affine;
use crate::conjunct::Conjunct;
use crate::space::VarId;
use presburger_arith::Int;

/// Eliminates `v` from `c` using the equality at `eq_idx`, which must
/// mention `v`. Returns the exact projection of `c` onto the remaining
/// variables (a single conjunct, possibly with a new stride).
///
/// The caller must treat `v` as existentially quantified.
///
/// # Panics
///
/// Panics if the equality at `eq_idx` does not mention `v`.
pub fn eliminate_via_equality(c: &Conjunct, v: VarId, eq_idx: usize) -> Conjunct {
    let eq = &c.eqs()[eq_idx];
    let a = eq.coeff(v);
    assert!(!a.is_zero(), "equality does not mention the variable");
    let abs_a = a.abs();
    let sign_pos = a.is_positive();
    // R = eq without the v term; the equality is a·v + R = 0.
    let mut r = eq.clone();
    r.set_coeff(v, Int::zero());

    let mut out = Conjunct::new();
    for w in c.wildcards() {
        if *w != v {
            out.add_wildcard(*w);
        }
    }
    // substitute into the other constraints, scaling by |a|
    let subst = |e: &Affine| -> Affine {
        let cv = e.coeff(v);
        if cv.is_zero() {
            return e.clone();
        }
        let mut rest = e.clone();
        rest.set_coeff(v, Int::zero());
        // |a|·e = |a|·rest + |a|·cv·v ; and a·v = -R so
        // |a|·cv·v = sign·cv·(a·v) = -sign·cv·R  (sign = +1 if a>0)
        let k = if sign_pos { -&cv } else { cv.clone() };
        let mut t = Affine::zero().add_scaled(&rest, &abs_a);
        t = t.add_scaled(&r, &k);
        t
    };
    for (i, e) in c.eqs().iter().enumerate() {
        if i != eq_idx {
            out.add_eq(subst(e));
        }
    }
    for e in c.geqs() {
        out.add_geq(subst(e));
    }
    for (m, e) in c.strides() {
        let cv = e.coeff(v);
        if cv.is_zero() {
            out.add_stride(m.clone(), e.clone());
        } else {
            // m | e  ⇔  m·|a| divides |a|·e
            out.add_stride(m * &abs_a, subst(e));
        }
    }
    // the divisibility requirement |a| divides R
    if !abs_a.is_one() {
        out.add_stride(abs_a, r);
    }
    out.normalize();
    out
}

/// Eliminates, for every wildcard that occurs in some equality, that
/// wildcard from the whole conjunct (repeatedly). On return no equality
/// mentions a wildcard. Stride constraints that mention wildcards are
/// first converted to equalities so the wildcards can be removed from
/// them as well.
///
/// This is the engine behind converting the paper's *projected format*
/// into *stride format* (§2.1).
pub fn solve_wildcard_equalities(c: &mut Conjunct, space: &mut crate::space::Space) {
    solve_with_fuel(c, space, EQELIM_FUEL);
}

/// Elimination steps one [`solve_wildcard_equalities`] call may take;
/// exhaustion unwinds as an `"eqelim_fuel"` budget trip.
const EQELIM_FUEL: u64 = 1000;

/// [`solve_wildcard_equalities`] with an explicit step budget.
pub(crate) fn solve_with_fuel(c: &mut Conjunct, space: &mut crate::space::Space, fuel: u64) {
    let mut left = fuel;
    // Input-reachable (a wildcard system that keeps producing
    // equalities): unwind as a budget trip instead of aborting.
    let mut step = || {
        left = left.saturating_sub(1);
        if left == 0 {
            presburger_trace::govern::trip("eqelim_fuel", fuel, fuel);
        }
    };
    loop {
        c.normalize();
        if c.is_false() {
            return;
        }
        // (a) a wildcard with a unit coefficient in some equality:
        //     plain substitution, no stride is created.
        let mut target = None;
        'unit: for w in c.wildcards() {
            for (idx, e) in c.eqs().iter().enumerate() {
                if e.coeff(*w).abs().is_one() {
                    target = Some((*w, idx));
                    break 'unit;
                }
            }
        }
        // (b) a wildcard that occurs in an equality and also elsewhere.
        if target.is_none() {
            'multi: for w in c.wildcards() {
                let occ = occurrences(c, *w);
                if occ >= 2 {
                    if let Some(idx) = c.eqs().iter().position(|e| e.mentions(*w)) {
                        target = Some((*w, idx));
                        break 'multi;
                    }
                }
            }
        }
        if let Some((w, idx)) = target {
            *c = eliminate_via_equality(c, w, idx);
            step();
            continue;
        }
        // (c) an equality whose wildcards all occur only in it:
        //     ∃w̄ : Σ aᵢwᵢ + S = 0  ⇔  gcd(aᵢ) | S.
        let lone_eq = c
            .eqs()
            .iter()
            .position(|e| c.wildcards().iter().any(|w| e.mentions(*w)));
        if let Some(idx) = lone_eq {
            // every wildcard here has occurrence count 1 (cases a/b failed)
            let e = c.eqs()[idx].clone();
            let mut g = Int::zero();
            let mut s = e.clone();
            let ws: Vec<VarId> = c
                .wildcards()
                .iter()
                .copied()
                .filter(|w| e.mentions(*w))
                .collect();
            for w in &ws {
                g = presburger_arith::gcd(&g, &e.coeff(*w));
                s.set_coeff(*w, Int::zero());
            }
            c.eqs.remove(idx);
            if !g.is_one() {
                c.add_stride(g, s);
            }
            step();
            continue;
        }
        // (d) strides whose wildcards also occur in equalities or
        //     inequalities must be converted so cases a–c can see them.
        let convertible: Vec<usize> = c
            .strides()
            .iter()
            .enumerate()
            .filter(|(_, (_, e))| {
                c.wildcards()
                    .iter()
                    .any(|w| e.mentions(*w) && occurs_outside_strides(c, *w))
            })
            .map(|(i, _)| i)
            .collect();
        if convertible.is_empty() {
            return;
        }
        for i in convertible.into_iter().rev() {
            let (m, e) = c.strides.remove(i);
            let alpha = space.fresh("s");
            c.add_wildcard(alpha);
            c.eqs.push(e.add_scaled(&Affine::var(alpha), &-m));
        }
        step();
    }
}

/// Number of constraints (of any kind) mentioning `w`.
fn occurrences(c: &Conjunct, w: VarId) -> usize {
    c.eqs().iter().filter(|e| e.mentions(w)).count()
        + c.geqs().iter().filter(|e| e.mentions(w)).count()
        + c.strides().iter().filter(|(_, e)| e.mentions(w)).count()
}

fn occurs_outside_strides(c: &Conjunct, w: VarId) -> bool {
    c.eqs().iter().any(|e| e.mentions(w)) || c.geqs().iter().any(|e| e.mentions(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    fn setup() -> (Space, VarId, VarId, VarId) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let w = s.var("w");
        (s, x, y, w)
    }

    #[test]
    fn unit_coefficient_substitution() {
        let (space, x, y, w) = setup();
        // exists w: w = x + 1  &&  w <= y   ==>   x + 1 <= y
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_eq(Affine::from_terms(&[(w, 1), (x, -1)], -1));
        c.add_geq(Affine::from_terms(&[(y, 1), (w, -1)], 0));
        let r = eliminate_via_equality(&c, w, 0);
        assert!(r.wildcards().is_empty());
        assert!(r.eqs().is_empty());
        assert_eq!(r.geqs().len(), 1);
        assert_eq!(r.geqs()[0], Affine::from_terms(&[(x, -1), (y, 1)], -1));
        let _ = space;
    }

    #[test]
    fn non_unit_creates_stride() {
        let (_, x, _, w) = setup();
        // exists w: 2w = x   ==>   2 | x
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_eq(Affine::from_terms(&[(w, 2), (x, -1)], 0));
        let r = eliminate_via_equality(&c, w, 0);
        assert!(r.wildcards().is_empty());
        assert_eq!(r.strides().len(), 1);
        let (m, e) = &r.strides()[0];
        assert_eq!(*m, Int::from(2));
        assert_eq!(*e, Affine::from_terms(&[(x, 1)], 0));
    }

    #[test]
    fn scaling_preserves_inequalities() {
        let (space, x, _, w) = setup();
        // exists w: 3w = x  &&  1 <= w <= 4   ==>   3 | x && 3 <= x <= 12
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_eq(Affine::from_terms(&[(w, 3), (x, -1)], 0));
        c.add_geq(Affine::from_terms(&[(w, 1)], -1));
        c.add_geq(Affine::from_terms(&[(w, -1)], 4));
        let r = eliminate_via_equality(&c, w, 0);
        // check semantics pointwise on x in -2..=15
        for xv in -2i64..=15 {
            let expected = xv % 3 == 0 && (3..=12).contains(&xv);
            let got = r.contains_point(&space, &|v| {
                assert_eq!(v, x);
                Int::from(xv)
            });
            assert_eq!(got, expected, "x = {xv}");
        }
    }

    #[test]
    fn negative_coefficient() {
        let (space, x, _, w) = setup();
        // exists w: -2w + x = 0 && w >= 2  ==> 2 | x && x >= 4
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_eq(Affine::from_terms(&[(w, -2), (x, 1)], 0));
        c.add_geq(Affine::from_terms(&[(w, 1)], -2));
        let r = eliminate_via_equality(&c, w, 0);
        for xv in -1i64..=10 {
            let expected = xv % 2 == 0 && xv >= 4;
            let got = r.contains_point(&space, &|_| Int::from(xv));
            assert_eq!(got, expected, "x = {xv}");
        }
    }

    #[test]
    fn exhausted_fuel_is_a_named_trip() {
        let (mut space, x, _, w) = setup();
        // exists w: x = 2w — one elimination step drives the fuel to zero
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_eq(Affine::from_terms(&[(x, 1), (w, -2)], 0));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve_with_fuel(&mut c, &mut space, 1)
        }))
        .expect_err("fuel 1 must trip");
        let trip = payload
            .downcast::<presburger_trace::govern::Trip>()
            .expect("a Trip payload");
        assert_eq!(trip.resource, "eqelim_fuel");
        assert_eq!((trip.limit, trip.spent), (1, 1));
    }

    #[test]
    fn solve_wildcards_full() {
        let (mut space, x, y, w) = setup();
        let w2 = space.var("w2");
        // exists w, w2:  x = 2w  &&  y = 3w2  &&  w = w2
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_wildcard(w2);
        c.add_eq(Affine::from_terms(&[(x, 1), (w, -2)], 0));
        c.add_eq(Affine::from_terms(&[(y, 1), (w2, -3)], 0));
        c.add_eq(Affine::from_terms(&[(w, 1), (w2, -1)], 0));
        solve_wildcard_equalities(&mut c, &mut space);
        assert!(!c.is_false());
        // solutions: x = 2t, y = 3t  =>  3x = 2y, 2|x, 3|y
        for xv in -6i64..=6 {
            for yv in -9i64..=9 {
                let expected = xv % 2 == 0 && yv == 3 * (xv / 2);
                let got = c.contains_point(&space, &|v| {
                    if v == x {
                        Int::from(xv)
                    } else {
                        Int::from(yv)
                    }
                });
                assert_eq!(got, expected, "x={xv} y={yv} c={}", c.to_string(&space));
            }
        }
    }
}
