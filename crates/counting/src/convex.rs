//! Summation over convex regions (§4.1–§4.4).
//!
//! `sum_convex` sums a quasi-polynomial over the integer points of a
//! conjunction of inequalities, one variable at a time:
//!
//! 1. remove redundant constraints;
//! 2. pick the variable with the fewest bounds, preferring bounds that
//!    need no floors or ceilings (§4.4);
//! 3. split multiple upper/lower bounds into *disjoint* cases;
//! 4. with a single `β ≤ b·v` / `a·v ≤ α` pair:
//!    * unit coefficients — telescope with Faulhaber polynomials,
//!      guarding with `β ≤ α` (§4.2);
//!    * non-unit with symbolic-only bound expressions — substitute
//!      `⌊α/a⌋ = (α − (α mod a))/a`, producing mod atoms (§4.2.1), with
//!      the guard obtained from exact disjoint elimination of `v`;
//!    * non-unit with bounds involving deeper summation variables —
//!      splinter on `α mod a` (§4.2.1) and restart through the
//!      projected-sum transform;
//!    * in approximate modes, use rational bound substitutions and the
//!      real/dark shadow guards instead of splintering (§4.6).

use crate::projected::{sum_clause, Ctx};
use crate::{CountError, Mode};
use presburger_arith::{Int, Rat};
use presburger_omega::eliminate::{eliminate, Shadow};
use presburger_omega::{Affine, Conjunct, VarId};
use presburger_polyq::faulhaber::sum_powers;
use presburger_polyq::{GuardedValue, QPoly};
use presburger_trace::{self as trace, Counter};

/// Sums `z` over the integer points of `c` in the variables `vars`.
///
/// Preconditions (enforced by [`crate::projected::sum_clause`], the
/// public entry): `c` has no wildcards and no equality or stride
/// constraints mentioning a variable of `vars`.
pub(crate) fn sum_convex(
    c: &Conjunct,
    vars: &[VarId],
    z: &QPoly,
    ctx: &mut Ctx<'_>,
) -> Result<GuardedValue, CountError> {
    ctx.spend()?;
    let mut c = c.clone();
    c.normalize();
    if c.is_false() || z.is_zero() {
        return Ok(GuardedValue::zero());
    }
    // Base case: everything summed; the clause is the guard.
    if vars.is_empty() {
        if !presburger_omega::feasible::is_feasible(&c, ctx.space) {
            return Ok(GuardedValue::zero());
        }
        trace::bump(Counter::ConvexLeafPieces);
        trace::explain(|| format!("leaf piece: {}", c.to_string(ctx.space)));
        return Ok(GuardedValue::piece(c, z.clone()));
    }
    // Normalization can (re)introduce equalities on summation
    // variables — e.g. an opposite inequality pair collapsing to an
    // equality. Route those back through the projected transform.
    if vars.iter().any(|v| {
        c.eqs().iter().any(|e| e.mentions(*v)) || c.strides().iter().any(|(_, e)| e.mentions(*v))
    }) {
        return sum_clause(&c, vars, z, ctx);
    }

    // §4.4 step 1: remove redundant constraints. (The complete test;
    // the ablation A1 disables this through CountOptions.)
    if ctx.opts_redundancy() {
        c = presburger_omega::redundant::remove_redundant(&c, ctx.space);
        if c.is_false() {
            return Ok(GuardedValue::zero());
        }
    }

    // §4.4 step 2: pick a variable.
    let v = pick_variable(&c, vars, ctx)?;
    trace::explain(|| {
        format!(
            "sum over {} (innermost of {} vars)",
            ctx.space.name(v),
            vars.len()
        )
    });
    let rest_vars: Vec<VarId> = vars.iter().copied().filter(|x| *x != v).collect();

    // If the summand's mod atoms mention v, the polynomial is only
    // piecewise in v: split on v's residue first (§4.2.1 splintering).
    // The added stride sends the clause back through the projected
    // transform, which substitutes v = m·t + r; the canonicalized mod
    // atoms then drop v.
    if let Some((_, m)) = z.mod_atoms().into_iter().find(|(e, _)| e.mentions(v)) {
        let mut acc = GuardedValue::zero();
        let mut r = Int::zero();
        while r < m {
            let mut cl = c.clone();
            let mut e = Affine::var(v);
            e.add_constant(&-r.clone());
            cl.add_stride(m.clone(), e);
            acc.add(sum_clause(&cl, vars, z, ctx)?);
            r += &Int::one();
        }
        return Ok(acc);
    }

    let (lowers, uppers) = c.bounds_on(v);
    if lowers.is_empty() || uppers.is_empty() {
        return Err(CountError::Unbounded {
            var: ctx.space.name(v).to_string(),
        });
    }

    // §4.4 steps 3–4: split multiple bounds into disjoint cases.
    if uppers.len() > 1 {
        return split_bounds(&c, v, vars, z, ctx, /*upper=*/ true);
    }
    if lowers.len() > 1 {
        return split_bounds(&c, v, vars, z, ctx, /*upper=*/ false);
    }

    let lo = &lowers[0];
    let up = &uppers[0];
    let b = &lo.coeff;
    let a = &up.coeff;

    if a.is_one() && b.is_one() {
        // §4.2 with exact integral bounds β ≤ v ≤ α.
        let pieces = telescope_pieces(z, v, &lo.expr, &up.expr, ctx);
        let base = without_var(&c, v);
        let mut acc = GuardedValue::zero();
        for (extra, inner) in pieces {
            let mut cl = base.clone();
            for g in extra {
                cl.add_geq(g);
            }
            acc.add(sum_convex(&cl, &rest_vars, &inner, ctx)?);
        }
        return Ok(acc);
    }

    // Non-unit coefficients: rational bounds (§4.2.1).
    match ctx.mode() {
        Mode::Exact => {
            // Symbolic answer with mod atoms: v ranges over
            // [⌈β/b⌉, ⌊α/a⌋]. The bound expressions may mention deeper
            // summation variables; their mod atoms are dealt with when
            // those variables are summed (the residue split above).
            let lq = ceil_q(&lo.expr, b);
            let uq = floor_q(&up.expr, a);
            let inner = telescope(z, v, &lq, &uq);
            // Exact, disjoint guards: the projection of the clause.
            let guards = eliminate(&c, v, ctx.space, Shadow::ExactDisjoint);
            let mut acc = GuardedValue::zero();
            for g in guards.clauses {
                acc.add(sum_clause(&g, &rest_vars, &inner, ctx)?);
            }
            Ok(acc)
        }
        Mode::UpperBound | Mode::LowerBound => {
            let upper_mode = ctx.mode() == Mode::UpperBound;
            // §4.6: replace ⌊α/a⌋ and ⌈β/b⌉ by rational bounds and the
            // guard by the real (upper) or dark (lower) shadow.
            let (lq, uq) = if upper_mode {
                // widest range: L' = β/b, U' = α/a
                (
                    QPoly::from_affine(&lo.expr).scale(&Rat::new(Int::one(), b.clone())),
                    QPoly::from_affine(&up.expr).scale(&Rat::new(Int::one(), a.clone())),
                )
            } else {
                // narrowest range: L' = (β+b−1)/b, U' = (α−a+1)/a
                let mut lo2 = lo.expr.clone();
                lo2.add_constant(&(b - &Int::one()));
                let mut up2 = up.expr.clone();
                up2.add_constant(&(&Int::one() - a));
                (
                    QPoly::from_affine(&lo2).scale(&Rat::new(Int::one(), b.clone())),
                    QPoly::from_affine(&up2).scale(&Rat::new(Int::one(), a.clone())),
                )
            };
            let inner = telescope(z, v, &lq, &uq);
            let shadow = if upper_mode {
                Shadow::Real
            } else {
                Shadow::Dark
            };
            let guards = eliminate(&c, v, ctx.space, shadow);
            let mut acc = GuardedValue::zero();
            for g in guards.clauses {
                acc.add(sum_clause(&g, &rest_vars, &inner, ctx)?);
            }
            Ok(acc)
        }
    }
}

/// §4.4 step 2: prefer variables whose bounds are floor-free (unit
/// coefficients) and few.
fn pick_variable(c: &Conjunct, vars: &[VarId], ctx: &mut Ctx<'_>) -> Result<VarId, CountError> {
    let mut best: Option<(VarId, u64)> = None;
    for v in vars {
        let n = c.bound_counts(*v);
        if n.lowers == 0 || n.uppers == 0 {
            // unbounded (or not mentioned at all): the sum diverges
            return Err(CountError::Unbounded {
                var: ctx.space.name(*v).to_string(),
            });
        }
        let unit = n.unit_lowers == n.lowers && n.unit_uppers == n.uppers;
        let pairs = (n.lowers * n.uppers) as u64;
        let cost = pairs + if unit { 0 } else { 1000 };
        if best.as_ref().is_none_or(|(_, bc)| cost < *bc) {
            best = Some((*v, cost));
        }
    }
    Ok(best
        .expect(
            "invariant: pick_variable is only called with the non-empty list \
             of summation variables the clause still mentions",
        )
        .0)
}

/// §4.4 step 3: replace p upper (or lower) bounds with p disjoint
/// cases; in case `i`, bound `i` is the extremal one.
fn split_bounds(
    c: &Conjunct,
    v: VarId,
    vars: &[VarId],
    z: &QPoly,
    ctx: &mut Ctx<'_>,
    upper: bool,
) -> Result<GuardedValue, CountError> {
    let (lowers, uppers) = c.bounds_on(v);
    let bounds = if upper { &uppers } else { &lowers };
    let mut acc = GuardedValue::zero();
    for i in 0..bounds.len() {
        // start from the clause without any of the competing bounds
        let mut cl = Conjunct::new();
        for w in c.wildcards() {
            cl.add_wildcard(*w);
        }
        for e in c.eqs() {
            cl.add_eq(e.clone());
        }
        for (m, e) in c.strides() {
            cl.add_stride(m.clone(), e.clone());
        }
        for e in c.geqs() {
            let coeff = e.coeff(v);
            let is_competing = if upper {
                coeff.is_negative()
            } else {
                coeff.is_positive()
            };
            if !is_competing {
                cl.add_geq(e.clone());
            }
        }
        // re-add the chosen bound
        let bi = &bounds[i];
        if upper {
            // a·v ≤ α  ⇒  α − a·v ≥ 0
            let mut e = bi.expr.clone();
            e.set_coeff(v, -bi.coeff.clone());
            cl.add_geq(e);
        } else {
            // β ≤ b·v  ⇒  b·v − β ≥ 0
            let mut e = -&bi.expr;
            e.set_coeff(v, bi.coeff.clone());
            cl.add_geq(e);
        }
        // ordering constraints making case i the unique extremal bound
        for (j, bj) in bounds.iter().enumerate() {
            if j == i {
                continue;
            }
            // upper: bound_i ≤ bound_j  ⇔  a_j·α_i ≤ a_i·α_j
            // lower: bound_i ≥ bound_j  ⇔  b_j·β_i ≥ b_i·β_j
            let lhs = Affine::zero().add_scaled(&bi.expr, &bj.coeff);
            let rhs = Affine::zero().add_scaled(&bj.expr, &bi.coeff);
            let mut ord = if upper { &rhs - &lhs } else { &lhs - &rhs };
            if j < i {
                // strict for earlier bounds: ties go to the lowest index
                ord.add_constant(&Int::from(-1));
            }
            cl.add_geq(ord);
        }
        cl.normalize();
        if cl.is_false() {
            continue;
        }
        trace::bump(Counter::ConvexSplitCases);
        trace::explain(|| {
            format!(
                "case {i}: {} bound {} of {} is extremal for {}",
                if upper { "upper" } else { "lower" },
                i + 1,
                bounds.len(),
                ctx.space.name(v),
            )
        });
        acc.add(sum_convex(&cl, vars, z, ctx)?);
    }
    Ok(acc)
}

/// The clause without the constraints mentioning `v`.
fn without_var(c: &Conjunct, v: VarId) -> Conjunct {
    let mut r = Conjunct::new();
    for w in c.wildcards() {
        r.add_wildcard(*w);
    }
    for e in c.eqs() {
        if !e.mentions(v) {
            r.add_eq(e.clone());
        }
    }
    for e in c.geqs() {
        if !e.mentions(v) {
            r.add_geq(e.clone());
        }
    }
    for (m, e) in c.strides() {
        if !e.mentions(v) {
            r.add_stride(m.clone(), e.clone());
        }
    }
    r
}

/// `Σ_{v=L}^{U} z(v)` by telescoping Faulhaber polynomials (§4.2–§4.3).
/// Valid wherever `L ≤ U`; the caller supplies the guard.
pub(crate) fn telescope(z: &QPoly, v: VarId, lower: &QPoly, upper: &QPoly) -> QPoly {
    let coeffs = z.coefficients_in(v);
    let mut acc = QPoly::zero();
    for (p, cp) in coeffs.into_iter().enumerate() {
        if cp.is_zero() {
            continue;
        }
        acc = acc + cp * sum_powers(p as u32, lower, upper, v);
    }
    acc
}

/// Telescoping with integral affine bounds, returning `(extra guards,
/// value)` pieces. The default path produces one piece guarded by
/// `β ≤ α`; with [`crate::CountOptions::four_piece`] set, the paper's
/// §4.2 decomposition is used instead (five pieces, identical total).
fn telescope_pieces(
    z: &QPoly,
    v: VarId,
    beta: &Affine,
    alpha: &Affine,
    ctx: &Ctx<'_>,
) -> Vec<(Vec<Affine>, QPoly)> {
    let nonempty = alpha - beta; // α − β ≥ 0
    if !ctx.four_piece() {
        let inner = telescope(z, v, &QPoly::from_affine(beta), &QPoly::from_affine(alpha));
        return vec![(vec![nonempty], inner)];
    }
    // §4.2: Σ_{i=L}^{U} iᵖ =
    //     (Σ 1≤i≤U: iᵖ)            when U ≥ 1
    //   − (Σ 1≤i≤L−1: iᵖ)          when L ≥ 2
    //   + (−1)ᵖ (Σ 1≤i≤−L: iᵖ)     when L ≤ −1
    //   − (−1)ᵖ (Σ 1≤i≤−U−1: iᵖ)   when U ≤ −2
    // all under the guard L ≤ U; p = 0 contributes U − L + 1 directly.
    let coeffs = z.coefficients_in(v);
    let one = QPoly::one();
    let mut pieces: Vec<(Vec<Affine>, QPoly)> = Vec::new();
    // p = 0 piece
    if !coeffs[0].is_zero() {
        let mut range = QPoly::from_affine(alpha) - QPoly::from_affine(beta) + one.clone();
        range = coeffs[0].clone() * range;
        pieces.push((vec![nonempty.clone()], range));
    }
    let mut p1 = QPoly::zero(); // Σ over 1..U
    let mut p2 = QPoly::zero(); // −Σ over 1..L−1
    let mut p3 = QPoly::zero(); // (−1)^p Σ over 1..−L
    let mut p4 = QPoly::zero(); // −(−1)^p Σ over 1..−U−1
    for (p, cp) in coeffs.iter().enumerate().skip(1) {
        if cp.is_zero() {
            continue;
        }
        let p = p as u32;
        let sign = if p.is_multiple_of(2) {
            Rat::one()
        } else {
            -Rat::one()
        };
        let f_at = |x: &QPoly| presburger_polyq::faulhaber::power_sum(p, v).substitute(v, x);
        let u = QPoly::from_affine(alpha);
        let l = QPoly::from_affine(beta);
        p1 = p1 + cp.clone() * f_at(&u);
        p2 = p2 - cp.clone() * f_at(&(l.clone() - QPoly::one()));
        p3 = p3 + (cp.clone() * f_at(&(-l.clone()))).scale(&sign);
        p4 = p4 - (cp.clone() * f_at(&(-u.clone() - QPoly::one()))).scale(&sign);
    }
    // guards: U ≥ 1; L ≥ 2; L ≤ −1; U ≤ −2 (each together with L ≤ U)
    let g_u1 = {
        let mut e = alpha.clone();
        e.add_constant(&Int::from(-1));
        e
    };
    let g_l2 = {
        let mut e = beta.clone();
        e.add_constant(&Int::from(-2));
        e
    };
    let g_lneg = {
        let mut e = -beta;
        e.add_constant(&Int::from(-1));
        e
    };
    let g_uneg = {
        let mut e = -alpha;
        e.add_constant(&Int::from(-2));
        e
    };
    for (g, poly) in [(g_u1, p1), (g_l2, p2), (g_lneg, p3), (g_uneg, p4)] {
        if !poly.is_zero() {
            pieces.push((vec![nonempty.clone(), g], poly));
        }
    }
    pieces
}

/// `⌊e/d⌋` as a quasi-polynomial: `(e − (e mod d))/d` (§4.2.1).
pub(crate) fn floor_q(e: &Affine, d: &Int) -> QPoly {
    if d.is_one() {
        return QPoly::from_affine(e);
    }
    if e.is_constant() {
        return QPoly::constant(Rat::from(e.constant_term().div_floor(d)));
    }
    let inv = Rat::new(Int::one(), d.clone());
    (QPoly::from_affine(e) - QPoly::modulo(e, d)).scale(&inv)
}

/// `⌈e/d⌉ = −⌊−e/d⌋` as a quasi-polynomial.
pub(crate) fn ceil_q(e: &Affine, d: &Int) -> QPoly {
    -floor_q(&-e, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_omega::Space;

    #[test]
    fn floor_ceil_qpolys() {
        let mut s = Space::new();
        let n = s.var("n");
        let f = floor_q(&Affine::var(n), &Int::from(3));
        let cq = ceil_q(&Affine::var(n), &Int::from(3));
        for nv in -9i64..=9 {
            assert_eq!(
                f.eval(&|_| Int::from(nv)),
                Rat::from(Int::from(nv).div_floor(&Int::from(3))),
                "floor n={nv}"
            );
            assert_eq!(
                cq.eval(&|_| Int::from(nv)),
                Rat::from(Int::from(nv).div_ceil(&Int::from(3))),
                "ceil n={nv}"
            );
        }
    }

    #[test]
    fn telescope_quadratic() {
        let mut s = Space::new();
        let i = s.var("i");
        let n = s.var("n");
        // Σ_{i=1}^{n} (i² + i)
        let z = QPoly::var(i) * QPoly::var(i) + QPoly::var(i);
        let t = telescope(&z, i, &QPoly::one(), &QPoly::var(n));
        for nv in 1i64..=8 {
            let brute: i64 = (1..=nv).map(|x| x * x + x).sum();
            assert_eq!(t.eval(&|_| Int::from(nv)), Rat::from(brute), "n={nv}");
        }
    }

    #[test]
    fn constant_fold_floor() {
        let f = floor_q(&Affine::constant(-7), &Int::from(2));
        assert_eq!(f.as_constant(), Some(Rat::from(-4)));
    }
}
