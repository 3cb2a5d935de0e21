//! Conjunctions of linear constraints — the Omega test's working
//! representation.
//!
//! A [`Conjunct`] denotes the set of integer points satisfying
//!
//! ```text
//! ∃ wildcards :  eqs = 0  ∧  geqs ≥ 0  ∧  strides
//! ```
//!
//! where *wildcards* are clause-local existentially quantified
//! variables (the paper's "auxiliary variables" of the projected
//! format, §2.1) and a stride `m | e` asserts that `m` evenly divides
//! the affine expression `e` (§3.2). The two non-convex representations
//! the paper describes — stride format and projected format — are both
//! available and interconvertible ([`Conjunct::stride_to_wildcard`] and
//! the equality solver in [`crate::eqelim`]).

use crate::affine::Affine;
use crate::space::{Space, VarId};
use presburger_arith::{gcd, Int};
use std::collections::BTreeSet;

/// A conjunction of affine equalities, inequalities and stride
/// constraints over interned variables, with clause-local existential
/// wildcards.
///
/// ```
/// use presburger_omega::{Affine, Conjunct, Space};
///
/// let mut s = Space::new();
/// let x = s.var("x");
/// let mut c = Conjunct::new();
/// c.add_geq(Affine::var(x) - Affine::constant(1));    // x >= 1
/// c.add_geq(Affine::constant(10) - Affine::var(x));   // x <= 10
/// assert!(!c.is_false());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Conjunct {
    /// Clause-local existentially quantified variables.
    pub(crate) wildcards: Vec<VarId>,
    /// Affine expressions constrained to equal zero.
    pub(crate) eqs: Vec<Affine>,
    /// Affine expressions constrained to be non-negative.
    pub(crate) geqs: Vec<Affine>,
    /// Stride constraints `(m, e)` meaning `m | e`, with `m >= 2`.
    pub(crate) strides: Vec<(Int, Affine)>,
    /// Set when normalization discovers a contradiction.
    pub(crate) contradiction: bool,
}

/// One-sided bound on a variable extracted from a conjunct:
/// `expr <= coeff·v` (lower) or `coeff·v <= expr` (upper), with
/// `coeff > 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bound {
    /// Positive coefficient of the bounded variable.
    pub coeff: Int,
    /// The bounding expression (does not mention the variable).
    pub expr: Affine,
}

impl Conjunct {
    /// The trivially true conjunct (no constraints).
    pub fn new() -> Conjunct {
        Conjunct::default()
    }

    /// A contradictory (unsatisfiable) conjunct.
    pub fn f() -> Conjunct {
        Conjunct {
            contradiction: true,
            ..Conjunct::default()
        }
    }

    /// Returns `true` if normalization has already proven this conjunct
    /// unsatisfiable. (`false` does **not** imply satisfiability — use
    /// [`crate::feasible::is_feasible`] for a complete test.)
    pub fn is_false(&self) -> bool {
        self.contradiction
    }

    /// Returns `true` if the conjunct has no constraints at all.
    pub fn is_trivially_true(&self) -> bool {
        !self.contradiction
            && self.eqs.is_empty()
            && self.geqs.is_empty()
            && self.strides.is_empty()
    }

    /// Adds the constraint `e == 0`.
    pub fn add_eq(&mut self, e: Affine) {
        self.eqs.push(e);
    }

    /// Adds the constraint `e >= 0`.
    pub fn add_geq(&mut self, e: Affine) {
        self.geqs.push(e);
    }

    /// Adds the constraint `lhs <= rhs`.
    pub fn add_le(&mut self, lhs: Affine, rhs: Affine) {
        self.geqs.push(rhs - lhs);
    }

    /// Adds the stride constraint `m | e`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or negative.
    pub fn add_stride(&mut self, m: Int, e: Affine) {
        assert!(m.is_positive(), "stride modulus must be positive");
        if !m.is_one() {
            self.strides.push((m, e));
        }
    }

    /// Registers `w` as a clause-local existential wildcard.
    pub fn add_wildcard(&mut self, w: VarId) {
        if !self.wildcards.contains(&w) {
            self.wildcards.push(w);
        }
    }

    /// The wildcard variables of this clause.
    pub fn wildcards(&self) -> &[VarId] {
        &self.wildcards
    }

    /// The equality constraints (each `== 0`).
    pub fn eqs(&self) -> &[Affine] {
        &self.eqs
    }

    /// The inequality constraints (each `>= 0`).
    pub fn geqs(&self) -> &[Affine] {
        &self.geqs
    }

    /// The stride constraints (`m | e` pairs).
    pub fn strides(&self) -> &[(Int, Affine)] {
        &self.strides
    }

    /// Returns `true` if `v` is a wildcard of this clause.
    pub fn is_wildcard(&self, v: VarId) -> bool {
        self.wildcards.contains(&v)
    }

    /// All variables mentioned by any constraint.
    pub fn mentioned_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        for e in self.eqs.iter().chain(self.geqs.iter()) {
            out.extend(e.vars());
        }
        for (_, e) in &self.strides {
            out.extend(e.vars());
        }
        out
    }

    /// Variables mentioned that are not wildcards.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut s = self.mentioned_vars();
        for w in &self.wildcards {
            s.remove(w);
        }
        s
    }

    /// Returns `true` if any constraint mentions `v`.
    pub fn mentions(&self, v: VarId) -> bool {
        self.eqs.iter().any(|e| e.mentions(v))
            || self.geqs.iter().any(|e| e.mentions(v))
            || self.strides.iter().any(|(_, e)| e.mentions(v))
    }

    /// Substitutes `replacement` for `v` in every constraint.
    ///
    /// The caller is responsible for removing `v` from the wildcard list
    /// if appropriate.
    pub fn substitute(&mut self, v: VarId, replacement: &Affine) {
        for e in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
            *e = e.substitute(v, replacement);
        }
        for (_, e) in self.strides.iter_mut() {
            *e = e.substitute(v, replacement);
        }
    }

    /// Merges another conjunct into this one (logical conjunction).
    /// Wildcard lists are concatenated; the caller must ensure they are
    /// disjoint (fresh variables).
    pub fn and(&mut self, other: &Conjunct) {
        self.contradiction |= other.contradiction;
        self.eqs.extend(other.eqs.iter().cloned());
        self.geqs.extend(other.geqs.iter().cloned());
        self.strides.extend(other.strides.iter().cloned());
        for w in &other.wildcards {
            self.add_wildcard(*w);
        }
    }

    /// Rewrites every stride `m | e` as a wildcard equality
    /// `e - m·α = 0` with a fresh wildcard `α` (stride format →
    /// projected format, §2.1).
    pub fn stride_to_wildcard(&mut self, space: &mut Space) {
        for (m, e) in std::mem::take(&mut self.strides) {
            let alpha = space.fresh("s");
            self.add_wildcard(alpha);
            // e - m·alpha == 0
            self.eqs.push(e.add_scaled(&Affine::var(alpha), &-m));
        }
    }

    /// Normalizes the conjunct in place:
    ///
    /// * equalities are divided by the gcd of their coefficients
    ///   (contradiction if the gcd does not divide the constant) and
    ///   sign-canonicalized;
    /// * inequalities are *tightened*: `Σaᵢxᵢ + c ≥ 0` becomes
    ///   `Σ(aᵢ/g)xᵢ + ⌊c/g⌋ ≥ 0` where `g = gcd(aᵢ)`;
    /// * strides are reduced (`m | e` with all of `e`'s coefficients
    ///   divisible by `g = gcd(m, content(e))` becomes a stride mod
    ///   `m/gcd`… conservatively we reduce constants into `[0, m)`);
    /// * constant constraints are checked and dropped;
    /// * duplicate and single-constraint-redundant inequalities are
    ///   dropped; opposite inequality pairs become equalities;
    /// * unused wildcards are dropped.
    ///
    /// Sets the contradiction flag (see [`Conjunct::is_false`]) when a
    /// syntactic contradiction is found.
    pub fn normalize(&mut self) {
        self.normalize_with(opposite_pairs);
    }

    /// [`Conjunct::normalize`] with the opposite-pair matcher as a
    /// parameter, so the tests can run the quadratic reference scan
    /// through the same path.
    fn normalize_with(&mut self, opposite: OppositeFn) {
        // The innermost heartbeat of the whole pipeline: every clause
        // manipulation funnels through here, which makes this counter
        // the governor's most responsive deadline/cancellation
        // checkpoint (a single thread-local load when ungoverned).
        presburger_trace::bump(presburger_trace::Counter::NormalizeCalls);
        if self.contradiction {
            return;
        }
        // --- equalities
        let mut eqs = std::mem::take(&mut self.eqs);
        eqs.retain_mut(|e| {
            if e.is_constant() {
                if !e.constant_term().is_zero() {
                    self.contradiction = true;
                }
                return false;
            }
            let g = e.content();
            if !g.is_one() {
                if !g.divides(e.constant_term()) {
                    self.contradiction = true;
                    return false;
                }
                *e = e.div_exact(&g);
            }
            // canonical sign: first (lowest VarId) coefficient positive
            let flip = e.iter().next().is_some_and(|(_, c)| c.is_negative());
            if flip {
                *e = -&*e;
            }
            true
        });
        eqs.sort_by(cmp_affine);
        eqs.dedup();
        self.eqs = eqs;
        if self.contradiction {
            return;
        }

        // --- inequalities: tighten
        let mut geqs = std::mem::take(&mut self.geqs);
        geqs.retain_mut(|e| {
            if e.is_constant() {
                if e.constant_term().is_negative() {
                    self.contradiction = true;
                }
                return false;
            }
            let g = e.content();
            if !g.is_one() {
                let c = e.constant_term().div_floor(&g);
                let mut t = Affine::constant(c);
                for (v, a) in e.iter() {
                    t.set_coeff(v, a / &g);
                }
                *e = t;
            }
            true
        });
        if self.contradiction {
            return;
        }
        // keep only the tightest inequality for each slope
        geqs.sort_by(cmp_affine);
        let mut kept: Vec<Affine> = Vec::with_capacity(geqs.len());
        for e in geqs {
            if let Some(last) = kept.last_mut() {
                if same_slope(last, &e) {
                    // same variable part: smaller constant is tighter
                    if e.constant_term() < last.constant_term() {
                        *last = e;
                    }
                    continue;
                }
            }
            kept.push(e);
        }
        // opposite pairs: t + c1 >= 0 and -t + c2 >= 0
        let Some(tight) = opposite(&kept) else {
            self.contradiction = true;
            return;
        };
        if !tight.is_empty() {
            let mut dropped = vec![false; kept.len()];
            for &(i, j) in &tight {
                self.eqs.push(kept[i].clone());
                dropped[i] = true;
                dropped[j] = true;
            }
            self.geqs = kept
                .into_iter()
                .zip(dropped)
                .filter(|(_, d)| !d)
                .map(|(e, _)| e)
                .collect();
            // re-normalize to canonicalize the new equalities
            self.normalize_with(opposite);
            return;
        }
        self.geqs = kept;

        // --- strides
        let mut strides = std::mem::take(&mut self.strides);
        strides.retain_mut(|(m, e)| {
            debug_assert!(m.is_positive());
            if m.is_one() {
                return false;
            }
            // reduce coefficients and constant modulo m
            let mut t = Affine::constant(e.constant_term().rem_euclid(m));
            for (v, a) in e.iter() {
                t.set_coeff(v, a.rem_euclid(m));
            }
            *e = t;
            if e.is_constant() {
                if !e.constant_term().is_zero() {
                    self.contradiction = true;
                }
                return false;
            }
            // m | e with g = gcd(content(e), m): if g > 1 and g | const,
            // the constraint is equivalent to (m/g) | (e/g).
            let g = gcd(&e.content(), m);
            if !g.is_one() && g.divides(e.constant_term()) {
                *e = e.div_exact(&g);
                *m = &*m / &g;
                if m.is_one() {
                    return false;
                }
            }
            true
        });
        strides.sort_by(|(m1, e1), (m2, e2)| m1.cmp(m2).then_with(|| cmp_affine(e1, e2)));
        strides.dedup();
        self.strides = strides;
        if self.contradiction {
            return;
        }

        // --- wildcards whose only occurrence is inside a single stride:
        // ∃w : m | c·w + S  ⇔  gcd(c, m) | S
        if !self.wildcards.is_empty() {
            let lone: Vec<VarId> = self
                .wildcards
                .iter()
                .copied()
                .filter(|w| {
                    let in_eq = self.eqs.iter().any(|e| e.mentions(*w));
                    let in_geq = self.geqs.iter().any(|e| e.mentions(*w));
                    let n_strides = self.strides.iter().filter(|(_, e)| e.mentions(*w)).count();
                    !in_eq && !in_geq && n_strides == 1
                })
                .collect();
            if !lone.is_empty() {
                let mut changed = false;
                for (m, e) in self.strides.iter_mut() {
                    let mut g = m.clone();
                    let mut any = false;
                    for w in &lone {
                        let c = e.coeff(*w);
                        if !c.is_zero() {
                            g = gcd(&g, &c);
                            e.set_coeff(*w, Int::zero());
                            any = true;
                        }
                    }
                    if any {
                        *m = g;
                        changed = true;
                    }
                }
                if changed {
                    // moduli may now be 1 or constraints constant
                    self.strides.retain(|(m, _)| !m.is_one());
                    self.normalize_with(opposite);
                    return;
                }
            }
        }

        // --- drop unused wildcards
        let mentioned = self.mentioned_vars();
        self.wildcards.retain(|w| mentioned.contains(w));
    }

    /// Extracts the lower and upper bounds on `v` from the inequality
    /// constraints, plus the list of inequalities not mentioning `v`.
    ///
    /// Lower bounds satisfy `expr <= coeff·v`; upper bounds satisfy
    /// `coeff·v <= expr`.
    pub fn bounds_on(&self, v: VarId) -> (Vec<Bound>, Vec<Bound>, Vec<Affine>) {
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        let mut rest = Vec::new();
        for e in &self.geqs {
            let a = e.coeff(v);
            if a.is_zero() {
                rest.push(e.clone());
            } else if a.is_positive() {
                // a·v + r >= 0  =>  -r <= a·v
                let mut r = e.clone();
                r.set_coeff(v, Int::zero());
                lowers.push(Bound {
                    coeff: a,
                    expr: -&r,
                });
            } else {
                // -a'·v + r >= 0  =>  a'·v <= r
                let mut r = e.clone();
                r.set_coeff(v, Int::zero());
                uppers.push(Bound {
                    coeff: -&a,
                    expr: r,
                });
            }
        }
        (lowers, uppers, rest)
    }

    /// Decides whether a concrete point satisfies this conjunct, given
    /// values for every *non-wildcard* variable the conjunct mentions.
    ///
    /// Wildcards are handled by substituting the known values and
    /// running the complete integer feasibility test on what remains.
    pub fn contains_point(&self, space: &Space, assign: &dyn Fn(VarId) -> Int) -> bool {
        if self.contradiction {
            return false;
        }
        let mut c = self.clone();
        let vars: Vec<VarId> = c
            .mentioned_vars()
            .into_iter()
            .filter(|v| !c.is_wildcard(*v))
            .collect();
        for v in vars {
            let val = Affine::constant(assign(v));
            c.substitute(v, &val);
        }
        crate::feasible::is_feasible(&c, &mut space.clone())
    }

    /// Rebuilds the conjunct as a [`crate::Formula`] (wildcards become
    /// an existential quantifier).
    pub fn to_formula(&self) -> crate::Formula {
        use crate::formula::{Constraint, Formula};
        if self.contradiction {
            return Formula::False;
        }
        let mut parts = Vec::new();
        for e in &self.eqs {
            parts.push(Formula::Atom(Constraint::Eq(e.clone())));
        }
        for e in &self.geqs {
            parts.push(Formula::Atom(Constraint::Ge(e.clone())));
        }
        for (m, e) in &self.strides {
            parts.push(Formula::Atom(Constraint::Stride(m.clone(), e.clone())));
        }
        Formula::exists(self.wildcards.clone(), Formula::and(parts))
    }

    /// Appends a canonical byte encoding of the conjunct to `out`, for
    /// memo-table and cache keys: the contradiction flag, then the
    /// wildcard list, equalities, inequalities and strides, each
    /// length-prefixed and in stored order. Injective over conjuncts of
    /// the same space, and stable across threads and processes (raw
    /// `VarId` indices, never arena-local handles) — run `normalize`
    /// first when a canonical constraint order matters.
    pub fn push_key_bytes(&self, out: &mut Vec<u8>) {
        out.push(self.contradiction as u8);
        out.extend_from_slice(&(self.wildcards.len() as u32).to_le_bytes());
        for w in &self.wildcards {
            out.extend_from_slice(&(w.index() as u32).to_le_bytes());
        }
        out.extend_from_slice(&(self.eqs.len() as u32).to_le_bytes());
        for e in &self.eqs {
            e.push_key_bytes(out);
        }
        out.extend_from_slice(&(self.geqs.len() as u32).to_le_bytes());
        for e in &self.geqs {
            e.push_key_bytes(out);
        }
        out.extend_from_slice(&(self.strides.len() as u32).to_le_bytes());
        for (m, e) in &self.strides {
            m.push_key_bytes(out);
            e.push_key_bytes(out);
        }
    }

    /// Renders the conjunct with variable names from `space`.
    pub fn to_string(&self, space: &Space) -> String {
        if self.contradiction {
            return "FALSE".to_string();
        }
        let mut parts: Vec<String> = Vec::new();
        for e in &self.eqs {
            parts.push(format!("{} = 0", e.to_string(space)));
        }
        for e in &self.geqs {
            parts.push(format!("{} >= 0", e.to_string(space)));
        }
        for (m, e) in &self.strides {
            parts.push(format!("{} | {}", m, e.to_string(space)));
        }
        let body = if parts.is_empty() {
            "TRUE".to_string()
        } else {
            parts.join(" && ")
        };
        if self.wildcards.is_empty() {
            body
        } else {
            let ws: Vec<&str> = self.wildcards.iter().map(|w| space.name(*w)).collect();
            format!("exists {} : {}", ws.join(","), body)
        }
    }
}

fn cmp_affine(a: &Affine, b: &Affine) -> std::cmp::Ordering {
    // Lexicographic over the (VarId, coeff) terms, then the constant —
    // without materializing (and cloning) the term lists: this runs
    // inside every sort `normalize` performs.
    use std::cmp::Ordering;
    let mut ai = a.iter();
    let mut bi = b.iter();
    loop {
        match (ai.next(), bi.next()) {
            (Some((v1, c1)), Some((v2, c2))) => {
                let o = v1.cmp(&v2).then_with(|| c1.cmp(c2));
                if o != Ordering::Equal {
                    return o;
                }
            }
            (Some(_), None) => return Ordering::Greater,
            (None, Some(_)) => return Ordering::Less,
            (None, None) => return a.constant_term().cmp(b.constant_term()),
        }
    }
}

/// Same variable part (coefficients), possibly different constants.
fn same_slope(a: &Affine, b: &Affine) -> bool {
    a.num_vars() == b.num_vars()
        && a.iter()
            .zip(b.iter())
            .all(|((v1, c1), (v2, c2))| v1 == v2 && c1 == c2)
}

/// Matches the opposite inequality pairs `t + c₁ ≥ 0`, `−t + c₂ ≥ 0` of
/// a list with pairwise distinct slopes: `None` when some pair has
/// `c₁ + c₂ < 0` (a contradiction), else the index pairs `(i, j)`,
/// `i < j`, with `c₁ + c₂ = 0`, ordered by `i`.
type OppositeFn = fn(&[Affine]) -> Option<Vec<(usize, usize)>>;

/// [`OppositeFn`] by a sign-canonical slope order: flipping each slope
/// so its first coefficient is positive makes opposite slopes equal,
/// so after sorting the two halves of a pair sit next to each other.
/// Slopes are distinct, so equal canonical slopes always differ in
/// sign.
fn opposite_pairs(kept: &[Affine]) -> Option<Vec<(usize, usize)>> {
    let mut tight = Vec::new();
    if kept.len() < 2 {
        return Some(tight);
    }
    let mut order: Vec<usize> = (0..kept.len()).collect();
    order.sort_by(|&a, &b| cmp_canonical_slope(&kept[a], &kept[b]));
    for w in order.windows(2) {
        let (a, b) = (&kept[w[0]], &kept[w[1]]);
        if cmp_canonical_slope(a, b).is_ne() {
            continue;
        }
        let s = a.constant_term() + b.constant_term();
        if s.is_negative() {
            return None;
        }
        if s.is_zero() {
            tight.push((w[0].min(w[1]), w[0].max(w[1])));
        }
    }
    tight.sort_unstable();
    Some(tight)
}

/// Orders slopes with each one's sign flipped to make its first
/// coefficient positive.
fn cmp_canonical_slope(a: &Affine, b: &Affine) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let leads_negative = |e: &Affine| e.iter().next().is_some_and(|(_, c)| c.is_negative());
    let (fa, fb) = (leads_negative(a), leads_negative(b));
    let mut ai = a.iter();
    let mut bi = b.iter();
    loop {
        match (ai.next(), bi.next()) {
            (Some((v1, c1)), Some((v2, c2))) => {
                let o = v1.cmp(&v2).then_with(|| match (fa, fb) {
                    (false, false) => c1.cmp(c2),
                    (true, true) => c2.cmp(c1),
                    (true, false) => (-c1).cmp(c2),
                    (false, true) => c1.cmp(&-c2),
                });
                if o != Ordering::Equal {
                    return o;
                }
            }
            (Some(_), None) => return Ordering::Greater,
            (None, Some(_)) => return Ordering::Less,
            (None, None) => return Ordering::Equal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quadratic opposite-pair scan [`opposite_pairs`] replaced,
    /// kept as the reference it must agree with.
    fn opposite_pairs_quadratic(kept: &[Affine]) -> Option<Vec<(usize, usize)>> {
        let mut tight = Vec::new();
        let mut drop_idx: BTreeSet<usize> = BTreeSet::new();
        for i in 0..kept.len() {
            if drop_idx.contains(&i) {
                continue;
            }
            let neg = -&kept[i];
            for (j, other) in kept.iter().enumerate().skip(i + 1) {
                if drop_idx.contains(&j) {
                    continue;
                }
                if same_slope(&neg, other) {
                    let s = kept[i].constant_term() + other.constant_term();
                    if s.is_negative() {
                        return None;
                    }
                    if s.is_zero() {
                        tight.push((i, j));
                        drop_idx.insert(i);
                        drop_idx.insert(j);
                    }
                }
            }
        }
        Some(tight)
    }

    #[test]
    fn opposite_pairs_match_the_quadratic_scan() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut s = Space::new();
        let vars: Vec<VarId> = ["x", "y", "z", "w"].iter().map(|n| s.var(n)).collect();
        let mut contradictions = 0;
        let mut pairs = 0;
        for trial in 0..2000 {
            let mut c = Conjunct::new();
            let mut pool: Vec<Affine> = Vec::new();
            for _ in 0..1 + rng(10) {
                // draw from a small slope pool so opposites are common
                let e = if !pool.is_empty() && rng(3) == 0 {
                    let mut e = -&pool[rng(pool.len() as u64) as usize];
                    e.add_constant(&Int::from(rng(7) as i64 - 3));
                    e
                } else {
                    let mut e = Affine::constant(rng(13) as i64 - 6);
                    for &v in &vars {
                        if rng(2) == 0 {
                            e.set_coeff(v, Int::from(rng(7) as i64 - 3));
                        }
                    }
                    e
                };
                pool.push(e.clone());
                c.add_geq(e);
            }
            if rng(4) == 0 {
                c.add_eq(Affine::from_terms(&[(vars[0], 1), (vars[1], -2)], 1));
            }
            if rng(4) == 0 {
                c.add_stride(Int::from(3), Affine::from_terms(&[(vars[2], 1)], 1));
            }
            let mut fast = c.clone();
            fast.normalize();
            let mut reference = c.clone();
            reference.normalize_with(opposite_pairs_quadratic);
            assert_eq!(fast, reference, "trial {trial}: {}", c.to_string(&s));
            contradictions += fast.is_false() as usize;
            pairs += fast.eqs().len();
        }
        assert!(
            contradictions > 50 && pairs > 50,
            "{contradictions} {pairs}"
        );
    }

    fn setup() -> (Space, VarId, VarId) {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        (s, x, y)
    }

    #[test]
    fn tightening() {
        let (_, x, _) = setup();
        // 2x - 3 >= 0  ->  x - 2 >= 0  (x >= 3/2 means x >= 2)
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 2)], -3));
        c.normalize();
        assert_eq!(c.geqs(), &[Affine::from_terms(&[(x, 1)], -2)]);
    }

    #[test]
    fn equality_gcd_contradiction() {
        let (_, x, y) = setup();
        // 2x + 4y + 1 = 0 has no integer solutions
        let mut c = Conjunct::new();
        c.add_eq(Affine::from_terms(&[(x, 2), (y, 4)], 1));
        c.normalize();
        assert!(c.is_false());
    }

    #[test]
    fn constant_constraints() {
        let (_, _, _) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::constant(5));
        c.add_eq(Affine::constant(0));
        c.normalize();
        assert!(c.is_trivially_true());

        let mut c = Conjunct::new();
        c.add_geq(Affine::constant(-1));
        c.normalize();
        assert!(c.is_false());
    }

    #[test]
    fn same_slope_keeps_tightest() {
        let (_, x, _) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -5)); // x >= 5
        c.add_geq(Affine::from_terms(&[(x, 1)], -9)); // x >= 9 (tighter)
        c.normalize();
        assert_eq!(c.geqs(), &[Affine::from_terms(&[(x, 1)], -9)]);
    }

    #[test]
    fn opposite_pair_becomes_equality() {
        let (_, x, y) = setup();
        let mut c = Conjunct::new();
        let t = Affine::from_terms(&[(x, 1), (y, -1)], -3);
        c.add_geq(t.clone()); // x - y - 3 >= 0
        c.add_geq(-&t); // x - y - 3 <= 0
        c.normalize();
        assert!(c.geqs().is_empty());
        assert_eq!(c.eqs().len(), 1);
        assert_eq!(c.eqs()[0], t);
    }

    #[test]
    fn opposite_pair_contradiction() {
        let (_, x, _) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -5)); // x >= 5
        c.add_geq(Affine::from_terms(&[(x, -1)], 3)); // x <= 3
        c.normalize();
        assert!(c.is_false());
    }

    #[test]
    fn stride_normalization() {
        let (mut s, x, _) = setup();
        let _ = &mut s;
        // 3 | (4x + 7)  ->  3 | (x + 1)
        let mut c = Conjunct::new();
        c.add_stride(Int::from(3), Affine::from_terms(&[(x, 4)], 7));
        c.normalize();
        assert_eq!(c.strides().len(), 1);
        let (m, e) = &c.strides()[0];
        assert_eq!(*m, Int::from(3));
        assert_eq!(*e, Affine::from_terms(&[(x, 1)], 1));
    }

    #[test]
    fn stride_constant_checks() {
        let (_, _, _) = setup();
        let mut c = Conjunct::new();
        c.add_stride(Int::from(3), Affine::constant(7));
        c.normalize();
        assert!(c.is_false());

        let mut c = Conjunct::new();
        c.add_stride(Int::from(3), Affine::constant(9));
        c.normalize();
        assert!(c.is_trivially_true());
    }

    #[test]
    fn bounds_extraction() {
        let (_, x, y) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 2), (y, 1)], 0)); // 2x + y >= 0: lower -y <= 2x
        c.add_geq(Affine::from_terms(&[(x, -3), (y, 1)], 5)); // 3x <= y + 5
        c.add_geq(Affine::from_terms(&[(y, 1)], -1)); // y >= 1 (no x)
        let (lo, up, rest) = c.bounds_on(x);
        assert_eq!(lo.len(), 1);
        assert_eq!(lo[0].coeff, Int::from(2));
        assert_eq!(lo[0].expr, Affine::from_terms(&[(y, -1)], 0));
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].coeff, Int::from(3));
        assert_eq!(up[0].expr, Affine::from_terms(&[(y, 1)], 5));
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn display() {
        let (s, x, y) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1), (y, -1)], 0));
        c.add_stride(Int::from(2), Affine::var(x));
        assert_eq!(c.to_string(&s), "x - y >= 0 && 2 | x");
    }
}
