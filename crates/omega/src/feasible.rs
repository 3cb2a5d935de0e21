//! Complete integer feasibility test (§2.2), with witnesses.
//!
//! Treats every variable of the conjunct as existentially quantified
//! and eliminates them one by one. Equalities are eliminated exactly;
//! inequalities go through the dark shadow first (if the dark shadow is
//! feasible, so is the original problem) and fall back to the exact
//! splinters only when needed.
//!
//! # Witnesses
//!
//! The test is constructive. When the search reaches a clause with no
//! variable left, it back-substitutes along the branch it took: each
//! eliminated variable's one-dimensional problem (equalities, bounds,
//! strides) in its parent clause is solved given the child's point.
//! Parent variables the child no longer mentions are unconstrained and
//! read 0 — unless they are wildcards that normalization projected out
//! of a stride, which are solved together with the eliminated variable.
//! The point is checked against the normalized clause and pooled in the
//! [`Space`] (see its witness pool). Every later test
//! first tries the pooled points — solving the clause's wildcards one
//! at a time — and answers `true` on the first point that meets every
//! equality, inequality and stride. A point can only confirm
//! feasibility: `false` still comes only from the search running out of
//! branches, so answers never depend on the pool.

use crate::affine::Affine;
use crate::conjunct::Conjunct;
use crate::eliminate::{eliminate, Shadow};
use crate::space::{Point, Space, VarId};
use presburger_arith::{egcd, gcd, Int};
use presburger_trace::{self as trace, Counter};

/// Search steps one feasibility test may take; exhaustion unwinds as a
/// `"feasibility_fuel"` budget trip.
const FEASIBILITY_FUEL: u64 = 200_000;

/// Decides whether the conjunct has an integer solution (over **all**
/// its variables, wildcards and free variables alike).
///
/// ```
/// use presburger_omega::{Affine, Conjunct, Space};
/// use presburger_omega::feasible::is_feasible;
///
/// let mut s = Space::new();
/// let x = s.var("x");
/// let mut c = Conjunct::new();
/// c.add_geq(Affine::from_terms(&[(x, 2)], -3)); // 2x >= 3
/// c.add_geq(Affine::from_terms(&[(x, -2)], 4)); // 2x <= 4
/// assert!(is_feasible(&c, &mut s)); // x = 2
/// assert_eq!(s.witnesses()[0], vec![(x, 2.into())]);
/// ```
pub fn is_feasible(c: &Conjunct, space: &mut Space) -> bool {
    feasible_with_fuel(c, space, FEASIBILITY_FUEL)
}

/// [`is_feasible`] with an explicit search budget.
pub(crate) fn feasible_with_fuel(c: &Conjunct, space: &mut Space, fuel: u64) -> bool {
    trace::bump(Counter::FeasibilityChecks);
    let mut root = c.clone();
    root.normalize();
    if root.is_false() {
        return false;
    }
    if let Some(i) = space
        .witnesses()
        .iter()
        .position(|p| holds_at_pooled(&root, p))
    {
        trace::bump(Counter::WitnessHits);
        space.promote_witness(i);
        return true;
    }
    search(root, space, fuel)
}

/// The depth-first elimination search on a normalized, non-false
/// clause. On success the branch's point is back-substituted and, if
/// every clause on the branch holds at it, pooled.
fn search(root: Conjunct, space: &mut Space, fuel: u64) -> bool {
    // The branch above the clause being examined: each expanded
    // ancestor's normalized clause and the variable eliminated from it.
    let mut path: Vec<(Conjunct, VarId)> = Vec::new();
    // Clauses still to examine, with their depth; the root (depth 0)
    // is already normalized.
    let mut work: Vec<(Conjunct, usize)> = vec![(root, 0)];
    let mut left = fuel;
    while let Some((mut c, depth)) = work.pop() {
        left = left.saturating_sub(1);
        if left == 0 {
            trace::govern::trip("feasibility_fuel", fuel, fuel);
        }
        // Depth-first order: the first `depth` entries are this
        // clause's ancestors.
        path.truncate(depth);
        if depth > 0 {
            c.normalize();
            if c.is_false() {
                continue;
            }
        }
        let vars = c.mentioned_vars();
        if vars.is_empty() {
            // normalization already verified all constant constraints
            if let Some(p) = back_substitute(&path) {
                space.remember_witness(p);
            }
            return true;
        }
        let v = pick_variable(&c, &vars);
        let r = eliminate(&c, v, space, Shadow::ExactOverlapping);
        path.push((c, v));
        // Check cheap clauses first: the dark shadow (or the single
        // exact clause) is pushed last so it is popped first.
        for cl in r.clauses.into_iter().rev() {
            work.push((cl, depth + 1));
        }
    }
    false
}

/// Builds a point of the root clause from a feasible leaf below `path`,
/// or `None` if the greedy solve misses. Walking up, each ancestor's
/// variables that the point does not fix yet are solved in the
/// ancestor's clause, which is then checked: the eliminated variable,
/// which exists because every child clause lies inside its parent's
/// projection, and variables the child no longer mentions. Those are
/// unconstrained, or wildcards that normalization projected out of the
/// child, which must be solved jointly with the eliminated variable —
/// so [`solve_node`] searches a little.
fn back_substitute(path: &[(Conjunct, VarId)]) -> Option<Point> {
    let mut point = Point::new();
    for (clause, v) in path.iter().rev() {
        let open: Vec<VarId> = clause
            .mentioned_vars()
            .into_iter()
            .filter(|x| x != v && lookup(&point, *x).is_none())
            .collect();
        point = solve_node(clause, *v, &open, point)?;
    }
    Some(point)
}

/// Nudges [`solve_node`] gives the first variable of an order: its
/// preferred value moves through `0, 1, −1, 2, −2, …` up to ±16.
const NUDGES: i64 = 33;

/// Extends `point` to `v` and `open` so that `clause` holds, or `None`.
/// Tries the orders "open, then `v`" and "`v`, then open" with
/// [`solve_in_order`], nudging the first variable's preferred value
/// until the whole clause holds.
fn solve_node(clause: &Conjunct, v: VarId, open: &[VarId], point: Point) -> Option<Point> {
    let mut orders = vec![[open, &[v]].concat()];
    if !open.is_empty() {
        orders.push([&[v], open].concat());
    }
    for order in &orders {
        for k in 0..NUDGES {
            let nudge = if k % 2 == 1 { (k + 1) / 2 } else { -(k / 2) };
            let base = [(order[0], Int::from(nudge))];
            let mut trial = point.clone();
            if solve_in_order(clause, order, &base, &mut trial)
                && satisfies(clause, &|x| value(x, &trial, &[]))
            {
                return Some(trial);
            }
        }
    }
    None
}

/// Whether a pooled point `p` extends to a point of `c`: `c`'s free
/// variables take their values from `p` (0 when absent), its wildcards
/// are solved one at a time, and every constraint is then checked.
fn holds_at_pooled(c: &Conjunct, p: &[(VarId, Int)]) -> bool {
    let ws = c.wildcards();
    if ws.is_empty() {
        return satisfies(c, &|v| value(v, &[], p));
    }
    // Constraints over free variables alone reject most points cheaply.
    let free_only = |e: &Affine| !e.mentions_any(ws);
    if !satisfies_where(c, &|v| value(v, &[], p), &free_only) {
        return false;
    }
    let mut solved = Point::new();
    solve_in_order(c, ws, p, &mut solved)
        && satisfies_where(c, &|v| value(v, &solved, p), &|e| e.mentions_any(ws))
}

/// Solves `order`'s variables one at a time into `solved`, each with
/// the variables after it left open and every other variable read from
/// `solved`, then `base`, then 0; each prefers its `base` value.
/// Greedy, so it can fail where a solution exists — callers check the
/// result and treat failure as "no point", never as infeasible.
fn solve_in_order(
    c: &Conjunct,
    order: &[VarId],
    base: &[(VarId, Int)],
    solved: &mut Point,
) -> bool {
    for (k, &u) in order.iter().enumerate() {
        let open = &order[k + 1..];
        let hint = value(u, &[], base);
        let Some(x) = solve_var(
            c,
            u,
            &|y| value(y, solved, base),
            &|y| open.contains(&y),
            &hint,
        ) else {
            return false;
        };
        insert(solved, u, x);
    }
    true
}

/// Whether every constraint of `c` holds at `val`.
fn satisfies(c: &Conjunct, val: &dyn Fn(VarId) -> Int) -> bool {
    satisfies_where(c, val, &|_| true)
}

/// Whether every constraint of `c` that `filter` selects holds at `val`.
fn satisfies_where(
    c: &Conjunct,
    val: &dyn Fn(VarId) -> Int,
    filter: &dyn Fn(&Affine) -> bool,
) -> bool {
    c.eqs()
        .iter()
        .filter(|e| filter(e))
        .all(|e| e.eval(val).is_zero())
        && c.geqs()
            .iter()
            .filter(|e| filter(e))
            .all(|e| !e.eval(val).is_negative())
        && c.strides()
            .iter()
            .filter(|(_, e)| filter(e))
            .all(|(m, e)| m.divides(&e.eval(val)))
}

/// An integer value for `v` meeting `c`'s constraints on it, with the
/// variables `open` selects left unknown and every other variable
/// fixed by `val`. Equalities and inequalities over an open variable
/// are skipped; a stride `m | a·v + Σ cᵢ·uᵢ + e` over open `uᵢ` becomes
/// `gcd(m, cᵢ) | a·v + e`, the condition for the `uᵢ` to have values
/// at all. Picks the value nearest `hint` from above, else from below.
fn solve_var(
    c: &Conjunct,
    v: VarId,
    val: &dyn Fn(VarId) -> Int,
    open: &dyn Fn(VarId) -> bool,
    hint: &Int,
) -> Option<Int> {
    let known = |e: &Affine| e.vars().all(|x| x == v || !open(x));
    let rest = |e: &Affine| {
        e.eval(&|x| {
            if x == v || open(x) {
                Int::zero()
            } else {
                val(x)
            }
        })
    };
    let mut line = Line::default();
    for e in c.eqs().iter().filter(|e| e.mentions(v) && known(e)) {
        line.eq(&e.coeff(v), &rest(e))?;
    }
    for e in c.geqs().iter().filter(|e| e.mentions(v) && known(e)) {
        line.geq(&e.coeff(v), &rest(e));
    }
    for (m, e) in c.strides().iter().filter(|(_, e)| e.mentions(v)) {
        let m = e
            .iter()
            .filter(|(x, _)| *x != v && open(*x))
            .fold(m.clone(), |g, (_, a)| gcd(&g, a));
        if !m.is_one() {
            line.stride(&m, &e.coeff(v), &rest(e))?;
        }
    }
    line.pick(hint)
}

/// The integer solutions of one variable's constraints once every
/// other variable is fixed: `fixed` if an equality pins it, and the
/// integers of `[lo, hi]` congruent to `residue` modulo `modulus`.
#[derive(Clone)]
struct Line {
    lo: Option<Int>,
    hi: Option<Int>,
    fixed: Option<Int>,
    residue: Int,
    modulus: Int,
}

impl Default for Line {
    fn default() -> Line {
        Line {
            lo: None,
            hi: None,
            fixed: None,
            residue: Int::zero(),
            modulus: Int::one(),
        }
    }
}

impl Line {
    /// `a·v + s = 0`; `None` when no integer (or no common) value fits.
    fn eq(&mut self, a: &Int, s: &Int) -> Option<()> {
        if !a.divides(s) {
            return None;
        }
        let x = -&(s / a);
        match &self.fixed {
            Some(f) if *f != x => None,
            _ => {
                self.fixed = Some(x);
                Some(())
            }
        }
    }

    /// `a·v + s ≥ 0`.
    fn geq(&mut self, a: &Int, s: &Int) {
        if a.is_positive() {
            let l = (-s).div_ceil(a);
            if self.lo.as_ref().is_none_or(|lo| l > *lo) {
                self.lo = Some(l);
            }
        } else {
            let h = s.div_floor(&a.abs());
            if self.hi.as_ref().is_none_or(|hi| h < *hi) {
                self.hi = Some(h);
            }
        }
    }

    /// `m | a·v + s`; `None` when no value (or no value of the
    /// congruence class so far) fits.
    fn stride(&mut self, m: &Int, a: &Int, s: &Int) -> Option<()> {
        let a = a.rem_euclid(m);
        if a.is_zero() {
            return m.divides(s).then_some(());
        }
        let g = gcd(&a, m);
        if !g.divides(s) {
            return None;
        }
        // (a/g)·v ≡ −s/g  (mod m/g), with a/g invertible mod m/g
        let m = m / &g;
        let (_, inv, _) = egcd(&(&a / &g), &m);
        let r = (&-&(s / &g) * &inv).rem_euclid(&m);
        self.congruent(&r, &m)
    }

    /// Intersects the class with `v ≡ r (mod m)` (Chinese remaindering
    /// for moduli that need not be coprime).
    fn congruent(&mut self, r: &Int, m: &Int) -> Option<()> {
        let (g, p, _) = egcd(&self.modulus, m);
        let diff = r - &self.residue;
        if !g.divides(&diff) {
            return None;
        }
        let step = m / &g;
        let k = (&(&diff / &g) * &p).rem_euclid(&step);
        let modulus = &self.modulus * &step;
        self.residue = (&self.residue + &(&self.modulus * &k)).rem_euclid(&modulus);
        self.modulus = modulus;
        Some(())
    }

    /// A member of the solution set: the nearest to `hint` from above,
    /// else from below.
    fn pick(&self, hint: &Int) -> Option<Int> {
        let fits = |x: &Int| {
            self.lo.as_ref().is_none_or(|l| l <= x)
                && self.hi.as_ref().is_none_or(|h| x <= h)
                && self.modulus.divides(&(x - &self.residue))
        };
        if let Some(x) = &self.fixed {
            return fits(x).then(|| x.clone());
        }
        let mut t = hint.clone();
        if let Some(l) = self.lo.as_ref().filter(|l| t < **l) {
            t = l.clone();
        }
        if let Some(h) = self.hi.as_ref().filter(|h| t > **h) {
            t = h.clone();
        }
        let up = &t + &(&self.residue - &t).rem_euclid(&self.modulus);
        if fits(&up) {
            return Some(up);
        }
        let down = &t - &(&t - &self.residue).rem_euclid(&self.modulus);
        fits(&down).then_some(down)
    }
}

/// `v`'s value in a sorted point.
fn lookup(p: &[(VarId, Int)], v: VarId) -> Option<&Int> {
    p.binary_search_by_key(&v, |(w, _)| *w)
        .ok()
        .map(|i| &p[i].1)
}

/// `v`'s value in `over`, else in `base`, else 0.
fn value(v: VarId, over: &[(VarId, Int)], base: &[(VarId, Int)]) -> Int {
    lookup(over, v)
        .or_else(|| lookup(base, v))
        .cloned()
        .unwrap_or_else(Int::zero)
}

/// Sets `v` to `x` in a sorted point.
fn insert(p: &mut Point, v: VarId, x: Int) {
    match p.binary_search_by_key(&v, |(w, _)| *w) {
        Ok(i) => p[i].1 = x,
        Err(i) => p.insert(i, (v, x)),
    }
}

/// Chooses the cheapest variable to eliminate: prefer one constrained
/// by an equality; otherwise minimize the number of lower×upper bound
/// pairs, preferring exact (unit-coefficient) eliminations.
fn pick_variable(c: &Conjunct, vars: &[VarId]) -> VarId {
    for v in vars {
        if c.eqs().iter().any(|e| e.mentions(*v)) {
            return *v;
        }
    }
    let mut best: Option<(VarId, u64)> = None;
    for v in vars {
        let n = c.bound_counts(*v);
        let in_stride = c.strides().iter().any(|(_, e)| e.mentions(*v));
        let exact = n.unit_lowers == n.lowers || n.unit_uppers == n.uppers;
        let pairs = (n.lowers * n.uppers) as u64;
        // crude cost model: exact eliminations are much cheaper;
        // strides force a conversion first.
        let cost = pairs * if exact { 1 } else { 100 } + if in_stride { 1000 } else { 0 };
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((*v, cost));
        }
    }
    best.expect(
        "invariant: pick_variable is only called when the clause still \
         mentions a variable (the caller returns before this otherwise)",
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use presburger_arith::Int;

    /// (terms, constant, is_eq)
    type Spec = (Vec<(VarId, i64)>, i64, bool);

    fn brute(cs: &[Spec], vars: &[VarId], lo: i64, hi: i64) -> bool {
        fn rec(
            cs: &[Spec],
            vars: &[VarId],
            assign: &mut Vec<(VarId, i64)>,
            lo: i64,
            hi: i64,
        ) -> bool {
            if let Some((&v, rest)) = vars.split_first() {
                for val in lo..=hi {
                    assign.push((v, val));
                    if rec(cs, rest, assign, lo, hi) {
                        return true;
                    }
                    assign.pop();
                }
                false
            } else {
                cs.iter().all(|(terms, k, is_eq)| {
                    let s: i64 = terms
                        .iter()
                        .map(|(v, c)| c * assign.iter().find(|(a, _)| a == v).unwrap().1)
                        .sum::<i64>()
                        + k;
                    if *is_eq {
                        s == 0
                    } else {
                        s >= 0
                    }
                })
            }
        }
        rec(cs, vars, &mut Vec::new(), lo, hi)
    }

    #[test]
    fn pooled_points_only_confirm() {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        // A: 0 <= x <= 3 && y = x + 1
        let mut a = Conjunct::new();
        a.add_geq(Affine::from_terms(&[(x, 1)], 0));
        a.add_geq(Affine::from_terms(&[(x, -1)], 3));
        a.add_eq(Affine::from_terms(&[(y, 1), (x, -1)], -1));
        assert!(is_feasible(&a, &mut s));
        let pooled = s.witnesses().to_vec();
        assert_eq!(pooled.len(), 1);
        // B = A && x >= 2 && 5 | y is infeasible (y is 3 or 4), which
        // only the search can tell
        let mut b = a.clone();
        b.add_geq(Affine::from_terms(&[(x, 1)], -2));
        b.add_stride(Int::from(5), Affine::var(y));
        assert!(!normalized(&b).is_false());
        assert!(!is_feasible(&b, &mut s));
        assert_eq!(
            s.witnesses(),
            pooled,
            "an infeasible check leaves the pool alone"
        );
        // B feasible, but no pooled point satisfies it: the search runs
        // and pools a point of B in front
        let mut b = Conjunct::new();
        b.add_geq(Affine::from_terms(&[(x, 1)], -10));
        b.add_stride(Int::from(7), Affine::from_terms(&[(x, 1), (y, 2)], 0));
        assert!(is_feasible(&b, &mut s));
        assert_eq!(s.witnesses().len(), 2);
        assert_eq!(s.witnesses()[1..], pooled[..]);
        let p = &s.witnesses()[0];
        let at = |v| value(v, &[], p);
        assert!(satisfies(&b, &at));
    }

    #[test]
    fn a_pooled_point_confirms_after_solving_wildcards() {
        let mut s = Space::new();
        let x = s.var("x");
        let w = s.var("w");
        let first = vec![(x, Int::from(9))];
        let second = vec![(x, Int::from(7))];
        s.remember_witness(first.clone());
        s.remember_witness(second.clone());
        // exists w : x = 3w && x >= 5 — x = 7 fails, x = 9 (w = 3) holds
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_eq(Affine::from_terms(&[(x, 1), (w, -3)], 0));
        c.add_geq(Affine::from_terms(&[(x, 1)], -5));
        assert!(is_feasible(&c, &mut s));
        assert_eq!(s.witnesses(), [first, second], "the hit moves to the front");
        // a point that no wildcard value extends does not confirm
        let mut c = Conjunct::new();
        c.add_wildcard(w);
        c.add_eq(Affine::from_terms(&[(x, 1), (w, -4)], 0));
        c.add_geq(Affine::from_terms(&[(x, 1)], -5));
        c.add_geq(Affine::from_terms(&[(x, -1)], 9));
        assert!(holds_at_pooled(
            &normalized(&c),
            &[(x, Int::from(8)), (w, Int::from(0))]
        ));
        assert!(!holds_at_pooled(&normalized(&c), &[(x, Int::from(9))]));
        assert!(!holds_at_pooled(&normalized(&c), &[(x, Int::from(4))]));
    }

    #[test]
    fn line_solves_bounds_and_congruences() {
        // 3 <= v <= 40, v ≡ 1 (mod 4), v ≡ 5 (mod 6)  =>  v ≡ 5 (mod 12)
        let mut l = Line::default();
        l.geq(&Int::from(2), &Int::from(-5)); // 2v >= 5
        l.geq(&Int::from(-1), &Int::from(40));
        l.stride(&Int::from(4), &Int::from(1), &Int::from(-1))
            .unwrap();
        l.stride(&Int::from(6), &Int::from(5), &Int::from(5))
            .unwrap(); // 6 | 5v + 5
        assert_eq!(l.pick(&Int::zero()), Some(Int::from(5)));
        assert_eq!(l.pick(&Int::from(20)), Some(Int::from(29)));
        assert_eq!(l.pick(&Int::from(100)), Some(Int::from(29)));
        // v ≡ 0 (mod 2) contradicts v ≡ 1 (mod 4)
        assert!(l
            .clone()
            .stride(&Int::from(2), &Int::one(), &Int::zero())
            .is_none());
        // 4 | 2v + 1 has no solution
        assert!(Line::default()
            .stride(&Int::from(4), &Int::from(2), &Int::one())
            .is_none());
        // an equality pins the value, which must fit the class
        let mut l = Line::default();
        l.stride(&Int::from(3), &Int::one(), &Int::zero()).unwrap();
        assert!(l.eq(&Int::from(2), &Int::from(-12)).is_some()); // v = 6
        assert_eq!(l.pick(&Int::zero()), Some(Int::from(6)));
        assert!(l.eq(&Int::from(1), &Int::from(-5)).is_none()); // v = 5 too
    }

    #[test]
    fn back_substitution_solves_wildcards_normalization_projected() {
        // Found by the generative harness: eliminating v1 leaves the
        // wildcard a only in the stride 2 | a + 1, normalization
        // projects it away, and the point must still give a an odd
        // value for the equality 2·w1 − 2·w2 + 3·a = 7 above it.
        let mut s = Space::new();
        let v: Vec<VarId> = (0..5).map(|i| s.var(&format!("v{i}"))).collect();
        let (w1, w2) = (s.var("w1"), s.var("w2"));
        let mut c = Conjunct::new();
        c.add_wildcard(w1);
        c.add_wildcard(w2);
        c.add_eq(Affine::from_terms(&[(v[0], 1), (w1, -2)], 0));
        c.add_eq(Affine::from_terms(&[(v[2], 3), (v[3], -1)], 19));
        let geqs: [(&[(VarId, i64)], i64); 4] = [
            (&[(v[0], -3), (v[2], -3), (v[3], -5), (w2, 6)], 1),
            (
                &[(v[0], 2), (v[1], 2), (v[2], -3), (v[3], 1), (v[4], -1)],
                -13,
            ),
            (&[(v[0], 2), (v[1], 2), (v[4], -1)], 6),
            (&[(v[0], 3), (v[2], 3), (v[3], 5), (w2, -6)], 3),
        ];
        for (terms, k) in geqs {
            c.add_geq(Affine::from_terms(terms, k));
        }
        assert!(is_feasible(&c, &mut s));
        let p = &s.witnesses()[0];
        assert!(satisfies(&normalized(&c), &|x| value(x, &[], p)), "{p:?}");
    }

    fn normalized(c: &Conjunct) -> Conjunct {
        let mut c = c.clone();
        c.normalize();
        c
    }

    #[test]
    fn exhausted_fuel_is_a_named_trip() {
        let mut s = Space::new();
        let x = s.var("x");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -5));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            feasible_with_fuel(&c, &mut s, 1)
        }))
        .expect_err("fuel 1 must trip");
        let trip = payload
            .downcast::<presburger_trace::govern::Trip>()
            .expect("a Trip payload");
        assert_eq!(trip.resource, "feasibility_fuel");
        assert_eq!((trip.limit, trip.spent), (1, 1));
    }

    #[test]
    fn simple_box() {
        let mut s = Space::new();
        let x = s.var("x");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -5));
        c.add_geq(Affine::from_terms(&[(x, -1)], 10));
        assert!(is_feasible(&c, &mut s));
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -11));
        c.add_geq(Affine::from_terms(&[(x, -1)], 10));
        assert!(!is_feasible(&c, &mut s));
    }

    #[test]
    fn gap_without_integer_point() {
        // 3 <= 2x <= 3 has no integer solution
        let mut s = Space::new();
        let x = s.var("x");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 2)], -3));
        c.add_geq(Affine::from_terms(&[(x, -2)], 3));
        assert!(!is_feasible(&c, &mut s));
    }

    #[test]
    fn dark_shadow_miss_found_by_splinter() {
        // The classic: ∃x,y: 27 ≤ 11x + 13y ≤ 45 ∧ -10 ≤ 7x − 9y ≤ 4
        // (Pugh's example of a problem whose dark shadow is empty but
        // which has integer solutions... actually this one has none;
        // assert the test agrees with brute force.)
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 11), (y, 13)], -27));
        c.add_geq(Affine::from_terms(&[(x, -11), (y, -13)], 45));
        c.add_geq(Affine::from_terms(&[(x, 7), (y, -9)], 10));
        c.add_geq(Affine::from_terms(&[(x, -7), (y, 9)], 4));
        let expected = brute(
            &[
                (vec![(x, 11), (y, 13)], -27, false),
                (vec![(x, -11), (y, -13)], 45, false),
                (vec![(x, 7), (y, -9)], 10, false),
                (vec![(x, -7), (y, 9)], 4, false),
            ],
            &[x, y],
            -50,
            50,
        );
        assert_eq!(is_feasible(&c, &mut s), expected);
    }

    #[test]
    fn equality_systems() {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        // 6x + 9y = 21 solvable; 6x + 9y = 22 not
        let mut c = Conjunct::new();
        c.add_eq(Affine::from_terms(&[(x, 6), (y, 9)], -21));
        assert!(is_feasible(&c, &mut s));
        let mut c = Conjunct::new();
        c.add_eq(Affine::from_terms(&[(x, 6), (y, 9)], -22));
        assert!(!is_feasible(&c, &mut s));
    }

    #[test]
    fn strides_interact_with_bounds() {
        let mut s = Space::new();
        let x = s.var("x");
        // 5 | x && 6 <= x <= 9  -> infeasible
        let mut c = Conjunct::new();
        c.add_stride(Int::from(5), Affine::var(x));
        c.add_geq(Affine::from_terms(&[(x, 1)], -6));
        c.add_geq(Affine::from_terms(&[(x, -1)], 9));
        assert!(!is_feasible(&c, &mut s));
        // 5 | x && 6 <= x <= 11  -> x = 10
        let mut c = Conjunct::new();
        c.add_stride(Int::from(5), Affine::var(x));
        c.add_geq(Affine::from_terms(&[(x, 1)], -6));
        c.add_geq(Affine::from_terms(&[(x, -1)], 11));
        assert!(is_feasible(&c, &mut s));
    }

    #[test]
    fn random_agreement_with_brute_force() {
        // deterministic pseudo-random systems over 2 vars
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..60 {
            let mut s = Space::new();
            let x = s.var("x");
            let y = s.var("y");
            let mut c = Conjunct::new();
            let mut spec = Vec::new();
            let n = 2 + (rng() % 3) as usize;
            for _ in 0..n {
                let a = (rng() % 9) as i64 - 4;
                let b = (rng() % 9) as i64 - 4;
                let k = (rng() % 21) as i64 - 10;
                let is_eq = rng() % 4 == 0;
                if is_eq {
                    c.add_eq(Affine::from_terms(&[(x, a), (y, b)], k));
                } else {
                    c.add_geq(Affine::from_terms(&[(x, a), (y, b)], k));
                }
                spec.push((vec![(x, a), (y, b)], k, is_eq));
            }
            // bound the search region so brute force is meaningful
            c.add_geq(Affine::from_terms(&[(x, 1)], 12));
            c.add_geq(Affine::from_terms(&[(x, -1)], 12));
            c.add_geq(Affine::from_terms(&[(y, 1)], 12));
            c.add_geq(Affine::from_terms(&[(y, -1)], 12));
            spec.push((vec![(x, 1)], 12, false));
            spec.push((vec![(x, -1)], 12, false));
            spec.push((vec![(y, 1)], 12, false));
            spec.push((vec![(y, -1)], 12, false));
            let expected = brute(&spec, &[x, y], -12, 12);
            assert_eq!(
                is_feasible(&c, &mut s),
                expected,
                "trial {trial}: {}",
                c.to_string(&s)
            );
        }
    }
}
