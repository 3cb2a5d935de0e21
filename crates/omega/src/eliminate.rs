//! Integer variable elimination: real shadow, dark shadow, and the
//! paper's two splintering algorithms (Figure 1).
//!
//! Eliminating `z` from a conjunction combines every lower bound
//! `β ≤ b·z` with every upper bound `a·z ≤ α`:
//!
//! * the **real shadow** constraint `a·β ≤ b·α` is satisfied by every
//!   point whose fiber contains a *rational* `z` — an upper
//!   approximation of the integer projection;
//! * the **dark shadow** constraint `a·β + (a−1)(b−1) ≤ b·α` guarantees
//!   an *integer* `z` exists — a lower approximation;
//! * when `a = 1` or `b = 1` for every pair the two coincide and the
//!   projection is exact;
//! * otherwise the points missed by the dark shadow are covered by
//!   finitely many **splinters**, each carrying an equality on `z` that
//!   allows exact elimination via [`crate::eqelim`].
//!
//! [`eliminate`] implements four modes; `ExactDisjoint` reproduces the
//! disjoint splintering of §5.2 where the result clauses are pairwise
//! disjoint *in the projected space* — the property the counting engine
//! needs (§4.5.1).

use crate::affine::Affine;
use crate::conjunct::{Bound, Conjunct};
use crate::eqelim::eliminate_via_equality;
use crate::space::{Space, VarId};
use presburger_arith::Int;
use presburger_trace::{self as trace, Counter};

/// How to approximate (or not) when eliminating an integer variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shadow {
    /// Keep only the real shadow: an **over**-approximation (§4.6).
    Real,
    /// Keep only the dark shadow: an **under**-approximation (§4.6).
    Dark,
    /// Exact; splinters may overlap (Figure 1, left).
    ExactOverlapping,
    /// Exact; result clauses are disjoint in the projected space
    /// (Figure 1, right / §5.2).
    ExactDisjoint,
}

/// Result of an elimination.
#[derive(Clone, Debug)]
pub struct Eliminated {
    /// Whether the union of `clauses` is exactly the integer projection.
    pub exact: bool,
    /// Whether the clauses are guaranteed pairwise disjoint.
    pub disjoint: bool,
    /// The projection, as a disjunction of conjuncts.
    pub clauses: Vec<Conjunct>,
}

/// Eliminates `v` (treated as existentially quantified) from `c`.
///
/// Strides mentioning `v` are converted to wildcard equalities first;
/// an equality mentioning `v` always gives a single exact clause.
///
/// When memoization is [active](presburger_trace::memo::active) the
/// stride-free path — a pure function of the normalized conjunct — is
/// served from the memo table under `MemoDomain::Eliminate`, keyed on
/// the conjunct's canonical bytes plus `v` and the mode. The
/// stride-on-`v` path interns fresh wildcards into `space`
/// ([`Conjunct::stride_to_wildcard`]), so its result depends on space
/// state and is recomputed every time.
pub fn eliminate(c: &Conjunct, v: VarId, space: &mut Space, mode: Shadow) -> Eliminated {
    eliminate_with(c, v, space, mode, disjoint_splinters)
}

/// Appends the §5.2 disjoint splinters of `c` on `v` to `clauses`,
/// given `v`'s lower and upper bounds.
type SplinterFn = fn(&Conjunct, VarId, &[Bound], &[Bound], &Space, &mut Vec<Conjunct>);

/// [`eliminate`] with the §5.2 splinter enumeration as a parameter,
/// so the tests can run the unit-stepped reference through the same
/// path.
fn eliminate_with(
    c: &Conjunct,
    v: VarId,
    space: &mut Space,
    mode: Shadow,
    splinters: SplinterFn,
) -> Eliminated {
    let mut c = c.clone();
    c.add_wildcard(v);
    c.normalize();
    if c.is_false() {
        return Eliminated {
            exact: true,
            disjoint: true,
            clauses: vec![],
        };
    }
    if c.strides().iter().any(|(_, e)| e.mentions(v)) {
        c.stride_to_wildcard(space);
        c.normalize();
        if c.is_false() {
            return Eliminated {
                exact: true,
                disjoint: true,
                clauses: vec![],
            };
        }
        // Fresh wildcards were interned just above: the clauses below
        // name them, so this result is a function of `space`, not of
        // the canonical key — never memoize it.
        return eliminate_normalized(&c, v, space, mode, splinters);
    }

    use presburger_trace::memo::{self, MemoDomain};
    if !memo::active() {
        return eliminate_normalized(&c, v, space, mode, splinters);
    }
    let mut key = Vec::with_capacity(96);
    c.push_key_bytes(&mut key);
    key.extend_from_slice(&(v.index() as u32).to_le_bytes());
    key.push(match mode {
        Shadow::Real => 0,
        Shadow::Dark => 1,
        Shadow::ExactOverlapping => 2,
        Shadow::ExactDisjoint => 3,
    });
    if let Some(hit) = memo::lookup(MemoDomain::Eliminate, &key) {
        if let Ok(r) = hit.downcast::<Eliminated>() {
            return (*r).clone();
        }
    }
    let guard = memo::begin_record();
    let r = eliminate_normalized(&c, v, space, mode, splinters);
    let delta = guard.finish();
    let bytes = r
        .clauses
        .iter()
        .map(|cl| 64 + 48 * (cl.eqs().len() + cl.geqs().len() + cl.strides().len()))
        .sum::<usize>();
    memo::record(
        MemoDomain::Eliminate,
        &key,
        std::sync::Arc::new(r.clone()),
        delta,
        bytes,
    );
    r
}

/// The elimination body proper, on a conjunct that is already
/// normalized, carries `v` as a wildcard, and has no stride on `v`
/// (unless called directly from the stride conversion path). Reads
/// `space` only for trace labels.
fn eliminate_normalized(
    c: &Conjunct,
    v: VarId,
    space: &mut Space,
    mode: Shadow,
    splinters: SplinterFn,
) -> Eliminated {
    let mut c = c.clone();
    if let Some(idx) = c.eqs().iter().position(|e| e.mentions(v)) {
        trace::bump(Counter::EliminateViaEquality);
        trace::explain(|| format!("eliminate {} via equality", space.name(v)));
        let r = eliminate_via_equality(&c, v, idx);
        let clauses = if r.is_false() { vec![] } else { vec![r] };
        return Eliminated {
            exact: true,
            disjoint: true,
            clauses,
        };
    }
    if !c.mentions(v) {
        c.remove_wildcard(v);
        return Eliminated {
            exact: true,
            disjoint: true,
            clauses: vec![c],
        };
    }

    let (lowers, uppers) = c.bounds_on(v);
    // Unbounded on one side: an integer v always exists.
    if lowers.is_empty() || uppers.is_empty() {
        let mut r = base_without(&c, v);
        r.normalize();
        return Eliminated {
            exact: true,
            disjoint: true,
            clauses: if r.is_false() { vec![] } else { vec![r] },
        };
    }

    // Exact when every lower×upper pair has a unit coefficient.
    let pair_exact = lowers
        .iter()
        .all(|l| uppers.iter().all(|u| l.coeff.is_one() || u.coeff.is_one()));

    if pair_exact || mode == Shadow::Real {
        trace::bump(Counter::EliminateReal);
        trace::explain(|| {
            format!(
                "eliminate {}: real shadow{}",
                space.name(v),
                if pair_exact {
                    " (exact)"
                } else {
                    " (over-approx)"
                }
            )
        });
        let mut r = base_without(&c, v);
        add_shadow(&mut r, &lowers, &uppers, false);
        r.normalize();
        return Eliminated {
            exact: pair_exact,
            disjoint: true,
            clauses: if r.is_false() { vec![] } else { vec![r] },
        };
    }
    if mode == Shadow::Dark {
        trace::bump(Counter::EliminateDark);
        trace::explain(|| format!("eliminate {}: dark shadow (under-approx)", space.name(v)));
        let mut r = base_without(&c, v);
        add_shadow(&mut r, &lowers, &uppers, true);
        r.normalize();
        return Eliminated {
            exact: false,
            disjoint: true,
            clauses: if r.is_false() { vec![] } else { vec![r] },
        };
    }

    match mode {
        Shadow::ExactOverlapping => {
            trace::bump(Counter::EliminateExactOverlapping);
            let _span = trace::span_dyn(|| {
                format!("eliminate {} (exact, overlapping splinters)", space.name(v))
            });
            let mut clauses = Vec::new();
            let mut dark = base_without(&c, v);
            add_shadow(&mut dark, &lowers, &uppers, true);
            dark.normalize();
            if !dark.is_false() {
                trace::bump(Counter::DarkShadowClauses);
                trace::explain(|| format!("dark shadow: {}", dark.to_string(space)));
                clauses.push(dark);
            }
            // Splinters (Figure 1, left): for each lower bound β ≤ b·v,
            // try b·v = β + i for i = 0 .. ((a_max−1)(b−1)−1)/a_max.
            let amax = uppers
                .iter()
                .map(|u| &u.coeff)
                .max()
                .expect("invariant: the splinter branch requires an upper bound")
                .clone();
            for l in &lowers {
                if l.coeff.is_one() {
                    continue;
                }
                let top = (&(&amax - &Int::one()) * &(&l.coeff - &Int::one()) - Int::one())
                    .div_floor(&amax);
                let mut i = Int::zero();
                while i <= top {
                    trace::bump(Counter::SplintersGenerated);
                    let mut s = c.clone();
                    // b·v - β - i = 0
                    let mut eq = -&l.expr;
                    eq.set_coeff(v, l.coeff.clone());
                    eq.add_constant(&-&i);
                    s.add_eq(eq);
                    s.normalize();
                    let mut kept = false;
                    if !s.is_false() {
                        let idx = s.eqs().iter().position(|e| e.mentions(v)).expect(
                            "invariant: the splinter construction just added an \
                                 equality c·v = e + i that mentions v, and normalize \
                                 never drops an equality over a live variable",
                        );
                        let r = eliminate_via_equality(&s, v, idx);
                        if !r.is_false() {
                            trace::explain(|| {
                                format!(
                                    "splinter {}·{} = β + {i}: {}",
                                    l.coeff,
                                    space.name(v),
                                    r.to_string(space)
                                )
                            });
                            clauses.push(r);
                            kept = true;
                        }
                    }
                    if !kept {
                        trace::bump(Counter::SplintersPruned);
                    }
                    i += &Int::one();
                }
            }
            Eliminated {
                exact: true,
                disjoint: false,
                clauses,
            }
        }
        Shadow::ExactDisjoint => {
            // §5.2: the dark shadow plus splinters that are pairwise
            // disjoint in the projected space.
            trace::bump(Counter::EliminateExactDisjoint);
            let _span = trace::span_dyn(|| {
                format!("eliminate {} (exact, disjoint splinters)", space.name(v))
            });
            let mut clauses = Vec::new();
            let mut dark = base_without(&c, v);
            add_shadow(&mut dark, &lowers, &uppers, true);
            dark.normalize();
            if !dark.is_false() {
                trace::bump(Counter::DarkShadowClauses);
                trace::explain(|| format!("dark shadow: {}", dark.to_string(space)));
                clauses.push(dark);
            }
            splinters(&c, v, &lowers, &uppers, space, &mut clauses);
            Eliminated {
                exact: true,
                disjoint: true,
                clauses,
            }
        }
        _ => unreachable!(
            "invariant: only Shadow::ExactOverlapping and \
             Shadow::ExactDisjoint reach the splinter match; Real and \
             Dark return before it"
        ),
    }
}

/// The §5.2 disjoint splinters: partition the part of the projection
/// outside the dark shadow by the first lower×upper pair whose
/// dark-shadow constraint fails, and within it by the constant value
/// `i` of `b·α − a·β`. Each region holds one splinter per offset `j`
/// with `a·b·v = a·β + j`, `0 ≤ j ≤ i`.
///
/// Offsets step through residue classes rather than by one: `normalize`
/// refutes the equation `e − t = 0` unless `content(e)` divides
/// `const(e) − t` (or `t = const(e)` when `e` is constant), so only
/// those `(i, j)` are built (DESIGN.md §6). Every skipped pair is one
/// the unit-stepped loop built and `normalize` discarded, so the kept
/// clauses and their order are unchanged.
fn disjoint_splinters(
    c: &Conjunct,
    v: VarId,
    lowers: &[Bound],
    uppers: &[Bound],
    space: &Space,
    clauses: &mut Vec<Conjunct>,
) {
    let pairs: Vec<(&Bound, &Bound)> = lowers
        .iter()
        .flat_map(|l| uppers.iter().map(move |u| (l, u)))
        .collect();
    for (k, (l, u)) in pairs.iter().enumerate() {
        let gap = &(&l.coeff - &Int::one()) * &(&u.coeff - &Int::one());
        if gap.is_zero() {
            continue; // dark == real for this pair, never fails alone
        }
        // Earlier pairs' dark constraints hold in this pair's regions.
        let mut prefix = c.clone();
        for (l2, u2) in pairs.iter().take(k) {
            prefix.add_geq(dark_constraint(l2, u2));
        }
        // region i: b·α − a·β − i = 0 (no v involved)
        let region_eq = shadow_expr(l, u);
        // splinter j: a·b·v − a·β − j = 0
        let mut v_eq = -(&l.expr * &u.coeff);
        v_eq.set_coeff(v, &l.coeff * &u.coeff);
        // v_eq mentions v, so its offsets form a proper residue class.
        let (j0, j_step) = first_offset(&v_eq, &Int::zero())
            .expect("invariant: a non-constant equation has offsets above any bound");
        // Start at the first i with some j ≤ i, so every region built
        // charges at least one splinter.
        let Some((mut i, i_step)) = first_offset(&region_eq, &j0) else {
            continue;
        };
        while i < gap {
            let mut region = prefix.clone();
            let mut eq = region_eq.clone();
            eq.add_constant(&-&i);
            region.add_eq(eq);
            // within the region: a·β ≤ a·b·v ≤ b·α = a·β + i,
            // so a·b·v = a·β + j for exactly one j in 0..=i.
            let mut j = j0.clone();
            while j <= i {
                trace::bump(Counter::SplintersGenerated);
                let mut s = region.clone();
                let mut eqv = v_eq.clone();
                eqv.add_constant(&-&j);
                s.add_eq(eqv);
                s.normalize();
                let mut kept = false;
                if !s.is_false() {
                    if let Some(idx) = s.eqs().iter().position(|e| e.mentions(v)) {
                        let r = eliminate_via_equality(&s, v, idx);
                        if !r.is_false() {
                            trace::explain(|| {
                                format!("splinter (pair {k}, offset {j}): {}", r.to_string(space))
                            });
                            clauses.push(r);
                            kept = true;
                        }
                    }
                }
                if !kept {
                    trace::bump(Counter::SplintersPruned);
                }
                j += &j_step;
            }
            if i_step.is_zero() {
                break;
            }
            i += &i_step;
        }
    }
}

/// The least offset `t ≥ lo` for which `e − t = 0` survives
/// `normalize`'s equality pass, and the step to the next one: offsets
/// run over `t ≡ const(e) (mod content(e))`. A constant `e` admits
/// only `t = const(e)` (step zero); `None` when that is below `lo`.
fn first_offset(e: &Affine, lo: &Int) -> Option<(Int, Int)> {
    let g = e.content();
    let c = e.constant_term();
    if g.is_zero() {
        return (c >= lo).then(|| (c.clone(), Int::zero()));
    }
    Some((lo + &(c - lo).rem_euclid(&g), g))
}

/// The conjunct without any constraint mentioning `v` (and without `v`
/// in the wildcard list).
fn base_without(c: &Conjunct, v: VarId) -> Conjunct {
    let mut r = Conjunct::new();
    for w in c.wildcards() {
        if *w != v {
            r.add_wildcard(*w);
        }
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

/// `b·α − a·β` for a lower bound `β ≤ a·v` and an upper bound
/// `b·v ≤ α`: the real-shadow expression of the pair.
fn shadow_expr(l: &Bound, u: &Bound) -> Affine {
    let mut e = &u.expr * &l.coeff;
    e.add_scaled_mut(&l.expr, &-&u.coeff);
    e
}

/// The dark- (or real-) shadow constraint for a lower/upper bound pair:
/// `b·α − a·β − (a−1)(b−1) ≥ 0` (dark) or `b·α − a·β ≥ 0` (real).
fn dark_constraint(l: &Bound, u: &Bound) -> Affine {
    let mut e = shadow_expr(l, u);
    let gap = &(&l.coeff - &Int::one()) * &(&u.coeff - &Int::one());
    e.add_constant(&-gap);
    e
}

fn add_shadow(r: &mut Conjunct, lowers: &[Bound], uppers: &[Bound], dark: bool) {
    for l in lowers {
        for u in uppers {
            if dark {
                r.add_geq(dark_constraint(l, u));
            } else {
                r.add_geq(shadow_expr(l, u));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;

    /// Brute-force ranges for named variables: free variables are
    /// enumerated over theirs, and an eliminated variable is searched
    /// over its own (wide enough to hold every witness).
    type Boxes = [(VarId, std::ops::RangeInclusive<i64>)];

    fn range_of(boxes: &Boxes, v: VarId) -> Option<std::ops::RangeInclusive<i64>> {
        boxes.iter().find(|(w, _)| *w == v).map(|(_, r)| r.clone())
    }

    /// Ground truth: does an integer `v` in `range` satisfy all the
    /// constraints of `c` (where `v` is not a wildcard) once the other
    /// variables are fixed by `at`? Only the values `c`'s bounds on `v`
    /// allow are tried.
    fn exists_v(
        c: &Conjunct,
        space: &Space,
        v: VarId,
        range: std::ops::RangeInclusive<i64>,
        at: &dyn Fn(VarId) -> Int,
    ) -> bool {
        within_bounds(c, v, range, at)
            .any(|vv| holds(c, space, &|x| if x == v { Int::from(vv) } else { at(x) }))
    }

    /// [`Conjunct::contains_point`], evaluated constraint by constraint
    /// when no wildcard is left to decide.
    fn holds(c: &Conjunct, space: &Space, at: &dyn Fn(VarId) -> Int) -> bool {
        if c.wildcards().iter().any(|w| c.mentions(*w)) {
            return c.contains_point(space, at);
        }
        !c.is_false()
            && c.eqs().iter().all(|e| e.eval(at).is_zero())
            && c.geqs().iter().all(|e| !e.eval(at).is_negative())
            && c.strides().iter().all(|(m, e)| m.divides(&e.eval(at)))
    }

    /// The values of `range` that `c`'s wildcard-free bounds on `v`
    /// allow at the point `at`: the only candidates the brute-force
    /// search needs to try.
    fn within_bounds(
        c: &Conjunct,
        v: VarId,
        range: std::ops::RangeInclusive<i64>,
        at: &dyn Fn(VarId) -> Int,
    ) -> std::ops::RangeInclusive<i64> {
        let (lowers, uppers) = c.bounds_on(v);
        let value = |b: &Bound| {
            b.expr
                .vars()
                .all(|x| !c.is_wildcard(x))
                .then(|| b.expr.eval(at))
        };
        let mut lo = *range.start();
        let mut hi = *range.end();
        for b in &lowers {
            if let Some(e) = value(b) {
                lo = lo.max(e.div_ceil(&b.coeff).to_i64().unwrap_or(i64::MAX));
            }
        }
        for b in &uppers {
            if let Some(e) = value(b) {
                hi = hi.min(e.div_floor(&b.coeff).to_i64().unwrap_or(i64::MIN));
            }
        }
        lo..=hi
    }

    /// Checks `got`, the elimination of `v` from `c`, against brute
    /// force at every point of the free variables' boxes: its clauses
    /// cover exactly the projection, and disjoint ones never overlap.
    /// A boxed `v` is searched over its box; a fresh wildcard without
    /// one is left to `contains_point`.
    fn check_elimination(c: &Conjunct, v: VarId, got: &Eliminated, space: &Space, boxes: &Boxes) {
        let free: Vec<VarId> = c
            .mentioned_vars()
            .into_iter()
            .filter(|x| *x != v && !c.is_wildcard(*x))
            .collect();
        let ranges: Vec<_> = free
            .iter()
            .map(|x| range_of(boxes, *x).unwrap_or_else(|| panic!("no box for {}", space.name(*x))))
            .collect();
        let mut body = c.clone();
        body.remove_wildcard(v);
        let mut point: Vec<i64> = ranges.iter().map(|r| *r.start()).collect();
        loop {
            let at = |x: VarId| Int::from(point[free.iter().position(|f| *f == x).unwrap()]);
            let expected = match range_of(boxes, v) {
                Some(vr) => exists_v(&body, space, v, vr, &at),
                None => c.contains_point(space, &at),
            };
            let hits = got
                .clauses
                .iter()
                .filter(|cl| holds(cl, space, &at))
                .count();
            assert_eq!(hits > 0, expected, "{} at {point:?}", c.to_string(space));
            if got.disjoint {
                assert!(hits <= 1, "clauses overlap at {point:?}");
            }
            // odometer step
            let mut k = 0;
            loop {
                if k == point.len() {
                    return;
                }
                if point[k] < *ranges[k].end() {
                    point[k] += 1;
                    break;
                }
                point[k] = *ranges[k].start();
                k += 1;
            }
        }
    }

    /// The paper's §5.2 example: ∃β : 0 ≤ 3β − α ≤ 7 ∧ 1 ≤ α − 2β ≤ 5.
    /// Integer solutions: α = 3, 5 ≤ α ≤ 27, α = 29.
    fn paper_example(space: &mut Space) -> (Conjunct, VarId, VarId) {
        let alpha = space.var("alpha");
        let beta = space.var("beta");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(beta, 3), (alpha, -1)], 0)); // 3β − α ≥ 0
        c.add_geq(Affine::from_terms(&[(beta, -3), (alpha, 1)], 7)); // 3β − α ≤ 7
        c.add_geq(Affine::from_terms(&[(alpha, 1), (beta, -2)], -1)); // α − 2β ≥ 1
        c.add_geq(Affine::from_terms(&[(alpha, -1), (beta, 2)], 5)); // α − 2β ≤ 5
        (c, alpha, beta)
    }

    fn check_paper_52(mode: Shadow) {
        let mut space = Space::new();
        let (c, alpha, beta) = paper_example(&mut space);
        let r = eliminate(&c, beta, &mut space, mode);
        assert!(r.exact, "mode {mode:?} should be exact");
        assert_eq!(r.disjoint, mode == Shadow::ExactDisjoint);
        let boxes = [(alpha, -40..=40), (beta, -100..=100)];
        check_elimination(&c, beta, &r, &space, &boxes);
    }

    #[test]
    fn paper_52_overlapping() {
        check_paper_52(Shadow::ExactOverlapping);
    }

    #[test]
    fn paper_52_disjoint() {
        check_paper_52(Shadow::ExactDisjoint);
    }

    #[test]
    fn paper_52_dark_shadow_is_sound() {
        let mut space = Space::new();
        let (c, _alpha, beta) = paper_example(&mut space);
        let r = eliminate(&c, beta, &mut space, Shadow::Dark);
        assert!(!r.exact);
        // every dark-shadow point must have an integer β
        for av in -5i64..=40 {
            let assign = |_x: VarId| Int::from(av);
            let in_dark = r
                .clauses
                .iter()
                .any(|cl| cl.contains_point(&space, &assign));
            if in_dark {
                assert!(
                    exists_v(&c, &space, beta, -100..=100, &assign),
                    "alpha={av}"
                );
            }
        }
        // and the dark shadow must cover the bulk 5..=27 region
        // (per the analysis in the paper, up to the exact pairing used)
        let mid = |av: i64| {
            r.clauses
                .iter()
                .any(|cl| cl.contains_point(&space, &|_| Int::from(av)))
        };
        assert!(mid(10) && mid(20));
        assert!(!mid(3) && !mid(29), "edges are not in the dark shadow");
    }

    #[test]
    fn real_shadow_is_complete() {
        let mut space = Space::new();
        let (c, alpha, beta) = paper_example(&mut space);
        let r = eliminate(&c, beta, &mut space, Shadow::Real);
        for av in -5i64..=40 {
            let assign = |_x: VarId| Int::from(av);
            if exists_v(&c, &space, beta, -100..=100, &assign) {
                assert!(
                    r.clauses
                        .iter()
                        .any(|cl| cl.contains_point(&space, &assign)),
                    "real shadow must contain alpha={av}"
                );
            }
        }
        let _ = alpha;
    }

    #[test]
    fn exact_when_unit_coefficient() {
        // ∃y: x ≤ y ≤ x + 5 ∧ 2y ≤ z  — lower coeff 1 ⇒ exact, no splinters
        let mut space = Space::new();
        let x = space.var("x");
        let y = space.var("y");
        let z = space.var("z");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(y, 1), (x, -1)], 0));
        c.add_geq(Affine::from_terms(&[(y, -1), (x, 1)], 5));
        c.add_geq(Affine::from_terms(&[(z, 1), (y, -2)], 0));
        let r = eliminate(&c, y, &mut space, Shadow::ExactOverlapping);
        assert!(r.exact);
        assert_eq!(r.clauses.len(), 1);
        for xv in -6i64..=6 {
            for zv in -6i64..=12 {
                let assign = |v: VarId| if v == x { Int::from(xv) } else { Int::from(zv) };
                let expected = (xv..=xv + 5).any(|yv| 2 * yv <= zv);
                let got = r.clauses[0].contains_point(&space, &assign);
                assert_eq!(got, expected, "x={xv} z={zv}");
            }
        }
        let _ = z;
    }

    #[test]
    fn stride_on_v_is_handled() {
        // ∃y: 2 | y ∧ x ≤ y ≤ x + 1  ⇔  true for every x (one of two
        // consecutive integers is even)
        let mut space = Space::new();
        let x = space.var("x");
        let y = space.var("y");
        let mut c = Conjunct::new();
        c.add_stride(Int::from(2), Affine::var(y));
        c.add_geq(Affine::from_terms(&[(y, 1), (x, -1)], 0));
        c.add_geq(Affine::from_terms(&[(y, -1), (x, 1)], 1));
        let r = eliminate(&c, y, &mut space, Shadow::ExactOverlapping);
        assert!(r.exact);
        for xv in -10i64..=10 {
            let got = r
                .clauses
                .iter()
                .any(|cl| cl.contains_point(&space, &|_| Int::from(xv)));
            assert!(got, "x={xv}");
        }
    }

    #[test]
    fn equality_elimination_is_preferred() {
        // ∃y: 3y = x ∧ 0 ≤ y ≤ 5  ⇒  3 | x ∧ 0 ≤ x ≤ 15
        let mut space = Space::new();
        let x = space.var("x");
        let y = space.var("y");
        let mut c = Conjunct::new();
        c.add_eq(Affine::from_terms(&[(y, 3), (x, -1)], 0));
        c.add_geq(Affine::var(y));
        c.add_geq(Affine::from_terms(&[(y, -1)], 5));
        let r = eliminate(&c, y, &mut space, Shadow::ExactOverlapping);
        assert!(r.exact);
        assert_eq!(r.clauses.len(), 1);
        for xv in -3i64..=18 {
            let expected = xv % 3 == 0 && (0..=15).contains(&xv);
            let got = r.clauses[0].contains_point(&space, &|_| Int::from(xv));
            assert_eq!(got, expected, "x={xv}");
        }
    }

    #[test]
    fn unbounded_side_drops_constraints() {
        let mut space = Space::new();
        let x = space.var("x");
        let y = space.var("y");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(y, 2), (x, -1)], 0)); // 2y >= x, no upper
        c.add_geq(Affine::var(x)); // x >= 0
        let r = eliminate(&c, y, &mut space, Shadow::ExactOverlapping);
        assert!(r.exact);
        assert_eq!(r.clauses.len(), 1);
        assert_eq!(r.clauses[0].geqs().len(), 1);
    }

    /// The unit-stepped §5.2 loop that [`disjoint_splinters`] replaced:
    /// it builds every `(i, j)` with `0 ≤ j ≤ i < gap` and leaves the
    /// infeasible ones to `normalize`. Kept as the exactness reference
    /// for the residue-stepped loop.
    fn unit_stepped_splinters(
        c: &Conjunct,
        v: VarId,
        lowers: &[Bound],
        uppers: &[Bound],
        _space: &Space,
        clauses: &mut Vec<Conjunct>,
    ) {
        let pairs: Vec<(&Bound, &Bound)> = lowers
            .iter()
            .flat_map(|l| uppers.iter().map(move |u| (l, u)))
            .collect();
        for (k, (l, u)) in pairs.iter().enumerate() {
            let gap = &(&l.coeff - &Int::one()) * &(&u.coeff - &Int::one());
            let mut i = Int::zero();
            while i < gap {
                let mut region = c.clone();
                for (l2, u2) in pairs.iter().take(k) {
                    region.add_geq(dark_constraint(l2, u2));
                }
                let balpha = Affine::zero().add_scaled(&u.expr, &l.coeff);
                let abeta = Affine::zero().add_scaled(&l.expr, &u.coeff);
                let mut eq = &balpha - &abeta;
                eq.add_constant(&-&i);
                region.add_eq(eq);
                let mut j = Int::zero();
                while j <= i {
                    trace::bump(Counter::SplintersGenerated);
                    let mut s = region.clone();
                    let mut eqv = -&abeta;
                    eqv.set_coeff(v, &l.coeff * &u.coeff);
                    eqv.add_constant(&-&j);
                    s.add_eq(eqv);
                    s.normalize();
                    let mut kept = false;
                    if !s.is_false() {
                        if let Some(idx) = s.eqs().iter().position(|e| e.mentions(v)) {
                            let r = eliminate_via_equality(&s, v, idx);
                            if !r.is_false() {
                                clauses.push(r);
                                kept = true;
                            }
                        }
                    }
                    if !kept {
                        trace::bump(Counter::SplintersPruned);
                    }
                    j += &Int::one();
                }
                i += &Int::one();
            }
        }
    }

    /// Splinters built by the residue-stepped and the unit-stepped
    /// loops over one [`differential`] run.
    #[derive(Default)]
    struct Built {
        stepped: u64,
        unit: u64,
    }

    fn splinters_built(f: impl FnOnce() -> Eliminated) -> (Eliminated, u64) {
        trace::enable_counters(true);
        let before = trace::snapshot();
        let r = f();
        let n = trace::snapshot()
            .delta(&before)
            .get(Counter::SplintersGenerated);
        trace::enable_counters(false);
        (r, n)
    }

    /// Eliminates `order` from `c` one variable at a time in
    /// `ExactDisjoint` mode, then any wildcard left in an inequality,
    /// following every resulting clause. At each step the clauses must
    /// render exactly as the unit-stepped reference's, in the same
    /// order, and be pairwise disjoint with the brute-force projection
    /// as their union.
    fn differential(
        c: &Conjunct,
        order: &[VarId],
        space: &mut Space,
        boxes: &Boxes,
        built: &mut Built,
    ) {
        let (v, rest) = match order.split_first() {
            Some((v, rest)) => (*v, rest),
            None => match c
                .wildcards()
                .iter()
                .copied()
                .find(|w| c.geqs().iter().any(|e| e.mentions(*w)))
            {
                Some(w) => (w, order),
                None => return,
            },
        };
        let mut ref_space = space.clone();
        let (reference, unit) = splinters_built(|| {
            eliminate_with(
                c,
                v,
                &mut ref_space,
                Shadow::ExactDisjoint,
                unit_stepped_splinters,
            )
        });
        let (got, stepped) = splinters_built(|| eliminate(c, v, space, Shadow::ExactDisjoint));
        built.unit += unit;
        built.stepped += stepped;
        let render = |r: &Eliminated, sp: &Space| -> Vec<String> {
            r.clauses.iter().map(|cl| cl.to_string(sp)).collect()
        };
        assert_eq!(
            render(&got, space),
            render(&reference, &ref_space),
            "eliminating {} from {}",
            space.name(v),
            c.to_string(space)
        );
        assert!(got.exact && got.disjoint);
        check_elimination(c, v, &got, space, boxes);
        for cl in &got.clauses {
            differential(cl, rest, space, boxes, built);
        }
    }

    /// The §3.3 mapping `t = l + B·p + B·P·c`, `0 ≤ l < B`,
    /// `0 ≤ p < P`, `0 ≤ c`, over `T(0:1024)`.
    fn hpf(space: &mut Space, procs: i64, block: i64) -> (Conjunct, [VarId; 4]) {
        let [t, p, c, l] = ["t", "p", "c", "l"].map(|n| space.var(n));
        let mut k = Conjunct::new();
        k.add_eq(Affine::from_terms(
            &[(t, 1), (l, -1), (p, -block), (c, -procs * block)],
            0,
        ));
        k.add_geq(Affine::var(l));
        k.add_geq(Affine::from_terms(&[(l, -1)], block - 1));
        k.add_geq(Affine::var(p));
        k.add_geq(Affine::from_terms(&[(p, -1)], procs - 1));
        k.add_geq(Affine::var(c));
        k.add_geq(Affine::var(t));
        k.add_geq(Affine::from_terms(&[(t, -1)], 1024));
        (k, [t, p, c, l])
    }

    #[test]
    fn residue_stepping_matches_unit_stepping_on_paper_instances() {
        let mut built = Built::default();

        let mut space = Space::new();
        let (c, alpha, beta) = paper_example(&mut space);
        let boxes = [(alpha, -5..=40), (beta, -5..=30)];
        differential(&c, &[beta], &mut space, &boxes, &mut built);

        // perfbench's HPF slots plus the paper's P=8, B=4
        for (procs, block) in [
            (4, 2),
            (2, 4),
            (3, 4),
            (4, 3),
            (4, 4),
            (8, 2),
            (4, 5),
            (6, 4),
            (8, 4),
        ] {
            let mut space = Space::new();
            let (c, [t, p, cyc, l]) = hpf(&mut space, procs, block);
            let boxes = [
                (t, -1..=procs * block + 3),
                (p, -1..=procs),
                (cyc, -2..=2),
                (l, -1..=block),
            ];
            differential(&c, &[l, cyc, t], &mut space, &boxes, &mut built);
        }

        // §6 Example 4's coupled subscripts x = a·e1 + b·e2 − 7
        for (a, b) in [(6, 9), (9, 6)] {
            let mut space = Space::new();
            let [x, e1, e2] = ["x", "e1", "e2"].map(|n| space.var(n));
            let mut c = Conjunct::new();
            c.add_eq(Affine::from_terms(&[(x, 1), (e1, -a), (e2, -b)], 7));
            c.add_geq(Affine::from_terms(&[(e1, 1)], -1));
            c.add_geq(Affine::from_terms(&[(e1, -1)], 8));
            c.add_geq(Affine::from_terms(&[(e2, 1)], -1));
            c.add_geq(Affine::from_terms(&[(e2, -1)], 5));
            let boxes = [(x, a + b - 8..=8 * a + 5 * b - 6), (e1, 0..=9), (e2, 0..=6)];
            differential(&c, &[e1, e2], &mut space, &boxes, &mut built);
        }
        // The reference pays for the pairs normalize refutes; E10's
        // single bound pair alone accounts for 462,237 of them.
        assert!(
            built.unit >= built.stepped + 462_237,
            "{} vs {}",
            built.unit,
            built.stepped
        );
    }

    /// xorshift64*: a small deterministic generator for the sweep.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }

        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as u64) as i64
        }
    }

    #[test]
    fn residue_stepping_matches_unit_stepping_on_a_seeded_sweep() {
        // Bound coefficients 2..=12 and constants −40..=40: large
        // strides and offsets next to each other, beyond what the
        // formula generator draws.
        let mut rng = Rng(0x5EED_0052);
        let mut built = Built::default();
        for _ in 0..48 {
            let mut space = Space::new();
            let [x, y, v] = ["x", "y", "v"].map(|n| space.var(n));
            let two_d = rng.below(3) == 0;
            // Share the symbol part across bounds now and then, so that
            // b·U − a·L is constant and region offsets collapse.
            let shared = rng.range(-2, 2);
            let bound = |rng: &mut Rng, coeff: i64| {
                let cx = if rng.below(3) == 0 {
                    shared * coeff
                } else {
                    rng.range(-3, 3)
                };
                let cy = if two_d { rng.range(-2, 2) } else { 0 };
                (cx, cy, rng.range(-40, 40))
            };
            let mut c = Conjunct::new();
            for _ in 0..rng.range(1, 3) {
                // lower bound x·cx + y·cy + k ≤ b·v
                let b = rng.range(2, 12);
                let (cx, cy, k) = bound(&mut rng, b);
                c.add_geq(Affine::from_terms(&[(v, b), (x, -cx), (y, -cy)], -k));
            }
            for _ in 0..rng.range(1, 2) {
                // upper bound a·v ≤ x·cx + y·cy + k
                let a = rng.range(2, 12);
                let (cx, cy, k) = bound(&mut rng, a);
                c.add_geq(Affine::from_terms(&[(v, -a), (x, cx), (y, cy)], k));
            }
            if rng.below(4) == 0 {
                // a stride on v: eliminated through a fresh wildcard
                c.add_stride(
                    Int::from(rng.range(2, 3)),
                    Affine::from_terms(&[(v, 1), (x, 1)], 0),
                );
            }
            let boxes = [(x, -12..=12), (y, -3..=3), (v, -60..=60)];
            differential(&c, &[v], &mut space, &boxes, &mut built);
        }
        assert!(
            built.unit > built.stepped,
            "{} vs {}",
            built.unit,
            built.stepped
        );
    }
}
