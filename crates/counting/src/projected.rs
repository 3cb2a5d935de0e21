//! Projected sums (§4.5.2): reducing an arbitrary clause to a convex
//! sum by re-parametrizing the solution lattice with the Smith normal
//! form.
//!
//! A clause produced by the Omega test may constrain the summation
//! variables through equalities, stride constraints, and existential
//! wildcards. `sum_clause` — the entry point used for every clause of
//! the disjoint DNF — eliminates each in turn:
//!
//! 1. wildcards are projected out exactly (disjoint splintering);
//! 2. strides on summation variables become equalities with fresh
//!    *parameter* variables (the determined quotient);
//! 3. the equality system `A·ȳ = rhs(s̄)` over the summation variables
//!    and parameters is solved with the Smith normal form
//!    `U·A·V = D`: divisibility conditions on the symbolic right-hand
//!    side become stride *guards*, determined coordinates become
//!    (rational) affine expressions of the symbols, and the free
//!    coordinates become the new summation variables — an affine 1-1
//!    mapping exactly as in the paper;
//! 4. what remains is a convex sum (§4.4).

use crate::convex::sum_convex;
use crate::{CountError, CountOptions, Mode};
use presburger_arith::{lcm, smith::smith_normal_form, Int, Matrix};
use presburger_omega::dnf::project_wildcards;
use presburger_omega::eliminate::Shadow;
use presburger_omega::{Affine, Conjunct, Space, VarId};
use presburger_polyq::{GuardedValue, QPoly};

/// Shared state threaded through the counting recursion.
pub(crate) struct Ctx<'a> {
    /// The variable space (fresh parameters are interned here).
    pub space: &'a mut Space,
    opts: &'a CountOptions,
    budget: u64,
    /// Current [`sum_clause`] recursion depth, reported as the
    /// `sum_depth` gauge (which the governor can cap).
    depth: u64,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(space: &'a mut Space, opts: &'a CountOptions) -> Ctx<'a> {
        Ctx {
            space,
            opts,
            budget: 100_000,
            depth: 0,
        }
    }

    /// Consumes one unit of work; errors when the budget is exhausted.
    pub(crate) fn spend(&mut self) -> Result<(), CountError> {
        if self.budget == 0 {
            return Err(CountError::TooComplex(
                "summation recursion budget exhausted".to_string(),
            ));
        }
        self.budget -= 1;
        Ok(())
    }

    pub(crate) fn mode(&self) -> Mode {
        self.opts.mode
    }

    pub(crate) fn four_piece(&self) -> bool {
        self.opts.four_piece
    }

    pub(crate) fn opts_redundancy(&self) -> bool {
        self.opts.remove_redundant
    }
}

/// Sums `z` over the integer points of an arbitrary clause (§4.5).
pub(crate) fn sum_clause(
    c: &Conjunct,
    vars: &[VarId],
    z: &QPoly,
    ctx: &mut Ctx<'_>,
) -> Result<GuardedValue, CountError> {
    // Depth bookkeeping around the real body: the gauge is what the
    // governor's elimination-recursion budget charges against. The
    // counter is not restored on unwind, but a trip discards the whole
    // Ctx with it.
    ctx.depth += 1;
    presburger_trace::record_max(presburger_trace::Counter::SumDepth, ctx.depth);
    let r = sum_clause_inner(c, vars, z, ctx);
    ctx.depth -= 1;
    r
}

fn sum_clause_inner(
    c: &Conjunct,
    vars: &[VarId],
    z: &QPoly,
    ctx: &mut Ctx<'_>,
) -> Result<GuardedValue, CountError> {
    ctx.spend()?;
    let _span = presburger_trace::span("sum_clause");
    let mut c = c.clone();
    c.normalize();
    if c.is_false() || z.is_zero() {
        return Ok(GuardedValue::zero());
    }

    // 1. project wildcards out (exactly, with disjoint splinters so the
    //    resulting clauses can be summed independently).
    let has_wildcards = c.wildcards().iter().any(|w| c.mentions(*w));
    if has_wildcards {
        let parts = project_wildcards(&c, ctx.space, Shadow::ExactDisjoint);
        let mut acc = GuardedValue::zero();
        for p in parts {
            acc.add(sum_clause(&p, vars, z, ctx)?);
        }
        return Ok(acc);
    }

    // 2. strides on summation variables → equalities with fresh
    //    parameter variables (γ = e/m is determined by the point).
    let mut strides_on_vars = Vec::new();
    let mut kept_strides = Vec::new();
    for (m, e) in c.strides() {
        if e.mentions_any(vars) {
            strides_on_vars.push((m.clone(), e.clone()));
        } else {
            kept_strides.push((m.clone(), e.clone()));
        }
    }
    let has_eq_on_vars = c.eqs().iter().any(|e| e.mentions_any(vars));
    if strides_on_vars.is_empty() && !has_eq_on_vars {
        return sum_convex(&c, vars, z, ctx);
    }

    // Build the equality system over unknowns = (summation variables
    // mentioned in equalities/strides) ∪ (stride parameters).
    let mut work = Conjunct::new();
    for e in c.geqs() {
        work.add_geq(e.clone());
    }
    for (m, e) in kept_strides {
        work.add_stride(m, e);
    }
    let mut eqs: Vec<Affine> = Vec::new();
    for e in c.eqs() {
        eqs.push(e.clone());
    }
    let mut unknowns: Vec<VarId> = Vec::new();
    let mut stride_params: Vec<VarId> = Vec::new();
    for (m, e) in strides_on_vars {
        let gamma = ctx.space.fresh("g");
        stride_params.push(gamma);
        // e − m·γ = 0
        eqs.push(e.add_scaled(&Affine::var(gamma), &-m));
    }
    // split equalities into those touching summation vars / params and
    // pure symbol guards
    let relevant = |e: &Affine| e.mentions_any(vars) || e.mentions_any(&stride_params);
    let mut sys: Vec<Affine> = Vec::new();
    for e in eqs {
        if relevant(&e) {
            sys.push(e);
        } else {
            work.add_eq(e); // symbols-only guard
        }
    }
    for v in vars {
        if sys.iter().any(|e| e.mentions(*v)) {
            unknowns.push(*v);
        }
    }
    unknowns.extend(stride_params.iter().copied());

    // A·ȳ + rhs(s̄) = 0
    let rows = sys.len();
    let cols = unknowns.len();
    let mut a = Matrix::zero(rows, cols);
    let mut rhs: Vec<Affine> = Vec::with_capacity(rows);
    for (i, e) in sys.iter().enumerate() {
        let mut rest = e.clone();
        for (j, u) in unknowns.iter().enumerate() {
            a[(i, j)] = e.coeff(*u);
            rest.set_coeff(*u, Int::zero());
        }
        rhs.push(-rest); // A·ȳ = −rest
    }

    let snf = smith_normal_form(&a);
    // h = U·rhs (affine in symbols)
    let h: Vec<Affine> = (0..rows)
        .map(|i| {
            let mut acc = Affine::zero();
            for (j, r) in rhs.iter().enumerate() {
                acc.add_scaled_mut(r, &snf.u[(i, j)]);
            }
            acc
        })
        .collect();

    // determine ẑ coordinates: ẑᵢ = hᵢ/dᵢ for i < rank, fresh free
    // parameters for i ≥ rank; rows past the rank require hᵢ = 0.
    #[derive(Clone)]
    enum Coord {
        Determined { num: Affine, den: Int },
        Free(VarId),
    }
    let mut coords: Vec<Coord> = Vec::with_capacity(cols);
    #[allow(clippy::needless_range_loop)] // i indexes both D and h
    for i in 0..cols {
        if i < snf.rank {
            let d = snf.d[(i, i)].clone();
            let hi = h[i].clone();
            if d.is_one() {
                coords.push(Coord::Determined {
                    num: hi,
                    den: Int::one(),
                });
            } else if hi.is_constant() {
                if !d.divides(hi.constant_term()) {
                    return Ok(GuardedValue::zero()); // no integer solutions
                }
                coords.push(Coord::Determined {
                    num: Affine::constant(hi.constant_term().div_floor(&d)),
                    den: Int::one(),
                });
            } else {
                // divisibility becomes a stride guard on the symbols
                work.add_stride(d.clone(), hi.clone());
                coords.push(Coord::Determined { num: hi, den: d });
            }
        } else {
            let t = ctx.space.fresh("t");
            coords.push(Coord::Free(t));
        }
    }
    // rows past the rank have an all-zero diagonal: 0 = hᵢ must hold
    for hi in h.iter().skip(snf.rank) {
        if hi.is_constant() {
            if !hi.constant_term().is_zero() {
                return Ok(GuardedValue::zero());
            }
        } else {
            work.add_eq(hi.clone()); // symbols-only guard equality
        }
    }

    // ȳⱼ = Σₖ V[j,k]·ẑₖ as rational affine (num/den)
    struct RatAffine {
        num: Affine,
        den: Int,
    }
    let ybar: Vec<RatAffine> = (0..cols)
        .map(|j| {
            // common denominator
            let mut den = Int::one();
            for (k, coord) in coords.iter().enumerate() {
                if snf.v[(j, k)].is_zero() {
                    continue;
                }
                if let Coord::Determined { den: dk, .. } = coord {
                    den = lcm(&den, dk);
                }
            }
            let mut num = Affine::zero();
            for (k, coord) in coords.iter().enumerate() {
                let vj = &snf.v[(j, k)];
                if vj.is_zero() {
                    continue;
                }
                match coord {
                    Coord::Determined { num: nk, den: dk } => {
                        let scale = vj * &(&den / dk);
                        num.add_scaled_mut(nk, &scale);
                    }
                    Coord::Free(t) => {
                        let cur = num.coeff(*t) + vj * &den;
                        num.set_coeff(*t, cur);
                    }
                }
            }
            RatAffine { num, den }
        })
        .collect();

    // rewrite the inequalities: scale each by the lcm of the involved
    // denominators so the substituted constraint stays integral
    let mut new_clause = Conjunct::new();
    for e in work.eqs() {
        new_clause.add_eq(e.clone());
    }
    for (m, e) in work.strides() {
        new_clause.add_stride(m.clone(), e.clone());
    }
    for e in work.geqs() {
        let mut scale = Int::one();
        for (j, u) in unknowns.iter().enumerate() {
            if !e.coeff(*u).is_zero() {
                scale = lcm(&scale, &ybar[j].den);
            }
        }
        // scaled non-unknown part
        let mut out = e * &scale;
        for u in &unknowns {
            out.set_coeff(*u, Int::zero());
        }
        for (j, u) in unknowns.iter().enumerate() {
            let cj = e.coeff(*u);
            if cj.is_zero() {
                continue;
            }
            let k = &cj * &(&scale / &ybar[j].den);
            out.add_scaled_mut(&ybar[j].num, &k);
        }
        new_clause.add_geq(out);
    }

    // substitute into the summand
    let mut new_z = z.clone();
    for (j, u) in unknowns.iter().enumerate() {
        if !new_z.mentions(*u) {
            continue;
        }
        // integrality of num/den on the solution set is guaranteed by
        // the stride guards added above
        new_z = new_z.substitute_rational(*u, &ybar[j].num, &ybar[j].den);
    }

    // the new summation variables: untouched old ones + free parameters
    let mut new_vars: Vec<VarId> = vars
        .iter()
        .copied()
        .filter(|v| !unknowns.contains(v))
        .collect();
    for coord in &coords {
        if let Coord::Free(t) = coord {
            new_vars.push(*t);
        }
    }

    sum_clause(&new_clause, &new_vars, &new_z, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_arith::Rat;

    fn count(c: &Conjunct, vars: &[VarId], space: &mut Space) -> GuardedValue {
        let opts = CountOptions::default();
        let mut ctx = Ctx::new(space, &opts);
        sum_clause(c, vars, &QPoly::one(), &mut ctx).expect("countable")
    }

    #[test]
    fn equality_line_segment() {
        // count (x, y) with x + y = n, 0 ≤ x, 0 ≤ y  ⇒  n + 1 (n ≥ 0)
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        let mut c = Conjunct::new();
        c.add_eq(Affine::from_terms(&[(x, 1), (y, 1), (n, -1)], 0));
        c.add_geq(Affine::var(x));
        c.add_geq(Affine::var(y));
        let v = count(&c, &[x, y], &mut s);
        for nv in -2i64..=8 {
            let expected = if nv >= 0 { nv + 1 } else { 0 };
            assert_eq!(
                v.eval(&s, &|w| {
                    assert_eq!(w, n);
                    Int::from(nv)
                }),
                Rat::from(expected),
                "n={nv}"
            );
        }
    }

    #[test]
    fn stride_on_count_var() {
        // count x with 0 ≤ x ≤ n and 3 | x  ⇒  ⌊n/3⌋ + 1 for n ≥ 0
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let mut c = Conjunct::new();
        c.add_geq(Affine::var(x));
        c.add_geq(Affine::from_terms(&[(x, -1), (n, 1)], 0));
        c.add_stride(Int::from(3), Affine::var(x));
        let v = count(&c, &[x], &mut s);
        for nv in -3i64..=12 {
            let expected = if nv >= 0 { nv / 3 + 1 } else { 0 };
            assert_eq!(
                v.eval(&s, &|_| Int::from(nv)),
                Rat::from(expected),
                "n={nv}"
            );
        }
    }

    #[test]
    fn diagonal_equality_with_modulus() {
        // count (x, y): 2x = 3y, 0 ≤ x ≤ n  ⇒  x ∈ {0, 3, 6, …} ⇒ ⌊n/3⌋+1
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let n = s.var("n");
        let mut c = Conjunct::new();
        c.add_eq(Affine::from_terms(&[(x, 2), (y, -3)], 0));
        c.add_geq(Affine::var(x));
        c.add_geq(Affine::from_terms(&[(x, -1), (n, 1)], 0));
        let v = count(&c, &[x, y], &mut s);
        for nv in 0i64..=12 {
            let expected = nv / 3 + 1;
            assert_eq!(
                v.eval(&s, &|_| Int::from(nv)),
                Rat::from(expected),
                "n={nv}"
            );
        }
    }

    #[test]
    fn wildcard_projection_before_counting() {
        // count x: ∃α: x = 2α ∧ 1 ≤ α ≤ n  ⇒  n for n ≥ 1
        let mut s = Space::new();
        let x = s.var("x");
        let n = s.var("n");
        let alpha = s.fresh("a");
        let mut c = Conjunct::new();
        c.add_wildcard(alpha);
        c.add_eq(Affine::from_terms(&[(x, 1), (alpha, -2)], 0));
        c.add_geq(Affine::from_terms(&[(alpha, 1)], -1));
        c.add_geq(Affine::from_terms(&[(alpha, -1), (n, 1)], 0));
        let v = count(&c, &[x], &mut s);
        for nv in -1i64..=7 {
            let expected = nv.max(0);
            assert_eq!(
                v.eval(&s, &|_| Int::from(nv)),
                Rat::from(expected),
                "n={nv}"
            );
        }
    }
}
