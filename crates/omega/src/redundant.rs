//! Redundant-constraint elimination, the `gist` operator, and
//! implication verification (§2.3–§2.4).
//!
//! Normalization already removes constraints made redundant by a single
//! other constraint (same slope, looser constant). The *complete* test
//! implemented here removes a constraint `c` when `P ∖ {c} ∧ ¬c` is
//! integer-infeasible, which catches redundancy witnessed by arbitrary
//! combinations of the remaining constraints.

use crate::affine::Affine;
use crate::conjunct::Conjunct;
use crate::feasible::is_feasible;
use crate::space::Space;
use presburger_arith::Int;
use presburger_trace::{self as trace, Counter};

/// Removes every inequality of `c` that is implied by the remaining
/// constraints (§2.3). Returns the slimmed conjunct, or a contradiction
/// if `c` is infeasible.
///
/// Per the paper, a *fast but incomplete* test screens constraints
/// first — here, a constraint that is the **only** one bounding some
/// variable from one side is *definitely not redundant* (dropping it
/// would unbound that variable over a non-empty region) and skips the
/// expensive complete test. The single-constraint subsumption test
/// (same slope, weaker constant) already runs inside normalization.
pub fn remove_redundant(c: &Conjunct, space: &mut Space) -> Conjunct {
    let mut c = c.clone();
    c.normalize();
    if c.is_false() {
        return c;
    }
    if !is_feasible(&c, space) {
        return Conjunct::f();
    }
    // Try to drop each inequality in turn. Dropping one constraint can
    // make another non-redundant, so test against the current residual.
    let mut i = 0;
    while i < c.geqs().len() {
        if definitely_not_redundant(&c, i) {
            trace::bump(Counter::RedundantFastSkips);
            i += 1;
            continue;
        }
        let mut trial = c.clone();
        let e = trial.remove_geq(i);
        // ¬(e ≥ 0)  ≡  −e − 1 ≥ 0
        let mut neg = trial.clone();
        let mut ne = -&e;
        ne.add_constant(&Int::from(-1));
        neg.add_geq(ne);
        if !is_feasible(&neg, space) {
            trace::bump(Counter::RedundantRemovedComplete);
            trace::explain(|| format!("redundant (complete test): {} ≥ 0", e.to_string(space)));
            c = trial; // e was redundant
        } else {
            i += 1;
        }
    }
    c
}

/// Fast incomplete screen (§2.3): the inequality at `idx` is the sole
/// upper (or lower) bound on some variable that no equality pins down,
/// so removing it would enlarge the region — definitely not redundant.
fn definitely_not_redundant(c: &Conjunct, idx: usize) -> bool {
    let e = &c.geqs()[idx];
    'vars: for (v, coeff) in e.iter() {
        // wildcards are projected away — unbounding one need not grow
        // the projection; and variables pinned by equalities are not
        // obviously freed by dropping an inequality
        if c.is_wildcard(v) || c.eqs().iter().any(|q| q.mentions(v)) {
            continue;
        }
        let want_negative = coeff.is_negative();
        for (j, other) in c.geqs().iter().enumerate() {
            if j == idx {
                continue;
            }
            let oc = other.coeff(v);
            if (want_negative && oc.is_negative()) || (!want_negative && oc.is_positive()) {
                continue 'vars; // someone else bounds v from this side
            }
        }
        return true; // sole bound for v on this side
    }
    false
}

/// `gist p given q` (§2.3): a minimal subset `G` of `p`'s constraints
/// such that `G ∧ q  ≡  p ∧ q`. Returns a trivially-true conjunct when
/// `q` already implies all of `p`, and a contradiction when `p ∧ q` is
/// infeasible.
///
/// Wildcards of `q` are treated as free variables here (sound: it only
/// makes the "given" information weaker).
pub fn gist(p: &Conjunct, q: &Conjunct, space: &mut Space) -> Conjunct {
    trace::bump(Counter::GistCalls);
    let mut combined = p.clone();
    combined.and(q);
    combined.normalize();
    if combined.is_false() || !is_feasible(&combined, space) {
        return Conjunct::f();
    }
    let mut result = p.clone();
    result.normalize();
    // inequalities
    let mut i = 0;
    while i < result.geqs().len() {
        let mut rest = result.clone();
        let e = rest.remove_geq(i);
        let mut ctx = rest.clone();
        ctx.and(q);
        let mut ne = -&e;
        ne.add_constant(&Int::from(-1));
        ctx.add_geq(ne);
        if !is_feasible(&ctx, space) {
            result = rest;
        } else {
            i += 1;
        }
    }
    // equalities: drop when both directions are implied
    let mut i = 0;
    while i < result.eqs().len() {
        let mut rest = result.clone();
        let e = rest.remove_eq(i);
        let implied = {
            let mut up = rest.clone();
            up.and(q);
            let mut pe = e.clone();
            pe.add_constant(&Int::from(-1));
            up.add_geq(pe); // e >= 1
            let mut down = rest.clone();
            down.and(q);
            let mut ne = -&e;
            ne.add_constant(&Int::from(-1));
            down.add_geq(ne); // e <= -1
            !is_feasible(&up, space) && !is_feasible(&down, space)
        };
        if implied {
            result = rest;
        } else {
            i += 1;
        }
    }
    // strides: drop when the negation is infeasible in context
    let mut i = 0;
    while i < result.strides().len() {
        let mut rest = result.clone();
        let (m, e) = rest.remove_stride(i);
        let mut ctx = rest.clone();
        ctx.and(q);
        add_negated_stride(&mut ctx, &m, &e, space);
        if !is_feasible(&ctx, space) {
            result = rest;
        } else {
            i += 1;
        }
    }
    result.normalize();
    result
}

/// Adds the constraint `¬(m | e)`, i.e. `∃α : m·α < e < m·(α+1)`
/// (§3.2), to `c`.
pub fn add_negated_stride(c: &mut Conjunct, m: &Int, e: &Affine, space: &mut Space) {
    let alpha = space.fresh("n");
    c.add_wildcard(alpha);
    // e - m·α ≥ 1   and   m·α + m − 1 − e ≥ 0  (e ≤ m·α + m − 1)
    let ma = Affine::term(alpha, 1i64);
    let ma = Affine::zero().add_scaled(&ma, m);
    let mut lower = e - &ma;
    lower.add_constant(&Int::from(-1));
    c.add_geq(lower);
    let mut upper = &ma - e;
    upper.add_constant(&(m - &Int::one()));
    c.add_geq(upper);
}

/// Verifies the implication `p ⇒ q` (§2.4): every constraint of `q`
/// must be implied by `p`. Both conjuncts may contain wildcards;
/// `p`'s wildcards are implicitly universally quantified on the left of
/// the implication, which is exactly what the feasibility encoding
/// `p ∧ ¬c` checks.
pub fn implies(p: &Conjunct, q: &Conjunct, space: &mut Space) -> bool {
    // q's wildcards make the right-hand side existential; the
    // constraint-by-constraint check below is only valid when q has no
    // wildcards entangled across constraints. Handle the common cases:
    // no wildcards, or wildcards only in strides (checked via
    // add_negated_stride which re-quantifies).
    for e in q.eqs() {
        let mut up = p.clone();
        let mut pe = e.clone();
        pe.add_constant(&Int::from(-1));
        up.add_geq(pe);
        if is_feasible(&up, space) {
            return false;
        }
        let mut down = p.clone();
        let mut ne = -e;
        ne.add_constant(&Int::from(-1));
        down.add_geq(ne);
        if is_feasible(&down, space) {
            return false;
        }
    }
    for e in q.geqs() {
        let mut ctx = p.clone();
        let mut ne = -e;
        ne.add_constant(&Int::from(-1));
        ctx.add_geq(ne);
        if is_feasible(&ctx, space) {
            return false;
        }
    }
    for (m, e) in q.strides() {
        let mut ctx = p.clone();
        add_negated_stride(&mut ctx, m, e, space);
        if is_feasible(&ctx, space) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VarId;

    fn setup() -> (Space, VarId, VarId) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        (s, x, y)
    }

    #[test]
    fn drops_combination_redundancy() {
        let (mut s, x, y) = setup();
        // x >= 0, y >= 0, x + y >= -5 (redundant by combination)
        let mut c = Conjunct::new();
        c.add_geq(Affine::var(x));
        c.add_geq(Affine::var(y));
        c.add_geq(Affine::from_terms(&[(x, 1), (y, 1)], 5));
        let r = remove_redundant(&c, &mut s);
        assert_eq!(r.geqs().len(), 2);
    }

    #[test]
    fn keeps_necessary_constraints() {
        let (mut s, x, y) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::var(x));
        c.add_geq(Affine::var(y));
        c.add_geq(Affine::from_terms(&[(x, -1), (y, -1)], 10));
        let r = remove_redundant(&c, &mut s);
        assert_eq!(r.geqs().len(), 3);
    }

    #[test]
    fn infeasible_becomes_false() {
        let (mut s, x, _) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 2)], -3)); // 2x >= 3
        c.add_geq(Affine::from_terms(&[(x, -2)], 3)); // 2x <= 3
        let r = remove_redundant(&c, &mut s);
        assert!(r.is_false());
    }

    #[test]
    fn integer_redundancy_is_detected() {
        let (mut s, x, _) = setup();
        // 2x >= 1 over the integers is x >= 1, so x >= 1 is redundant.
        // (normalization tightens 2x >= 1 to x >= 1 already; the
        // complete test must agree.)
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 2)], -1));
        c.add_geq(Affine::from_terms(&[(x, 1)], -1));
        let r = remove_redundant(&c, &mut s);
        assert_eq!(r.geqs().len(), 1);
    }

    #[test]
    fn gist_paper_semantics() {
        let (mut s, x, y) = setup();
        // gist (0 <= x <= 10) given (x = y && 0 <= y <= 5)  ->  TRUE-ish
        let mut p = Conjunct::new();
        p.add_geq(Affine::var(x));
        p.add_geq(Affine::from_terms(&[(x, -1)], 10));
        let mut q = Conjunct::new();
        q.add_eq(Affine::from_terms(&[(x, 1), (y, -1)], 0));
        q.add_geq(Affine::var(y));
        q.add_geq(Affine::from_terms(&[(y, -1)], 5));
        let g = gist(&p, &q, &mut s);
        assert!(g.is_trivially_true(), "gist = {}", g.to_string(&s));
    }

    #[test]
    fn gist_keeps_interesting_part() {
        let (mut s, x, y) = setup();
        // gist (x >= 0 && x <= y) given (y <= 100):
        // x >= 0 stays interesting; x <= y stays interesting.
        let mut p = Conjunct::new();
        p.add_geq(Affine::var(x));
        p.add_geq(Affine::from_terms(&[(y, 1), (x, -1)], 0));
        let mut q = Conjunct::new();
        q.add_geq(Affine::from_terms(&[(y, -1)], 100));
        let g = gist(&p, &q, &mut s);
        assert_eq!(g.geqs().len(), 2);
    }

    #[test]
    fn gist_false_when_incompatible() {
        let (mut s, x, _) = setup();
        let mut p = Conjunct::new();
        p.add_geq(Affine::from_terms(&[(x, 1)], -10)); // x >= 10
        let mut q = Conjunct::new();
        q.add_geq(Affine::from_terms(&[(x, -1)], 5)); // x <= 5
        let g = gist(&p, &q, &mut s);
        assert!(g.is_false());
    }

    #[test]
    fn implication() {
        let (mut s, x, y) = setup();
        // (1 <= x <= 5 && x = y) => (0 <= y <= 10)
        let mut p = Conjunct::new();
        p.add_geq(Affine::from_terms(&[(x, 1)], -1));
        p.add_geq(Affine::from_terms(&[(x, -1)], 5));
        p.add_eq(Affine::from_terms(&[(x, 1), (y, -1)], 0));
        let mut q = Conjunct::new();
        q.add_geq(Affine::var(y));
        q.add_geq(Affine::from_terms(&[(y, -1)], 10));
        assert!(implies(&p, &q, &mut s));
        // but not => (y >= 2)
        let mut q2 = Conjunct::new();
        q2.add_geq(Affine::from_terms(&[(y, 1)], -2));
        assert!(!implies(&p, &q2, &mut s));
    }

    #[test]
    fn implication_with_strides() {
        let (mut s, x, _) = setup();
        // 4 | x  =>  2 | x
        let mut p = Conjunct::new();
        p.add_stride(Int::from(4), Affine::var(x));
        let mut q = Conjunct::new();
        q.add_stride(Int::from(2), Affine::var(x));
        assert!(implies(&p, &q, &mut s));
        assert!(!implies(&q, &p, &mut s));
    }

    #[test]
    fn negated_stride_constraint() {
        let (mut s, x, _) = setup();
        // ¬(3 | x) && x = 6  infeasible; && x = 7 feasible
        let mut c = Conjunct::new();
        add_negated_stride(&mut c, &Int::from(3), &Affine::var(x), &mut s);
        let mut c6 = c.clone();
        c6.add_eq(Affine::from_terms(&[(x, 1)], -6));
        assert!(!is_feasible(&c6, &mut s));
        let mut c7 = c.clone();
        c7.add_eq(Affine::from_terms(&[(x, 1)], -7));
        assert!(is_feasible(&c7, &mut s));
    }
}
