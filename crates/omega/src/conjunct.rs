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
    wildcards: Vec<VarId>,
    /// Affine expressions constrained to equal zero.
    eqs: Vec<Affine>,
    /// Affine expressions constrained to be non-negative.
    geqs: Vec<Affine>,
    /// Stride constraints `(m, e)` meaning `m | e`, with `m >= 2`.
    strides: Vec<(Int, Affine)>,
    /// Set when normalization discovers a contradiction.
    contradiction: bool,
    /// Set by [`Conjunct::normalize`], cleared by every mutation: the
    /// constraints are in normal form and normalizing again is a no-op.
    normalized: Mark,
}

/// The normal-form mark. It records how a conjunct was reached, not
/// what it denotes, so equality and hashing ignore it.
#[derive(Clone, Copy, Debug, Default)]
struct Mark(bool);

impl PartialEq for Mark {
    fn eq(&self, _: &Mark) -> bool {
        true
    }
}

impl Eq for Mark {}

impl std::hash::Hash for Mark {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
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
        self.touch().eqs.push(e);
    }

    /// Adds the constraint `e >= 0`.
    pub fn add_geq(&mut self, e: Affine) {
        self.touch().geqs.push(e);
    }

    /// Adds the constraint `lhs <= rhs`.
    pub fn add_le(&mut self, lhs: Affine, rhs: Affine) {
        self.touch().geqs.push(rhs - lhs);
    }

    /// Adds the stride constraint `m | e`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or negative.
    pub fn add_stride(&mut self, m: Int, e: Affine) {
        assert!(m.is_positive(), "stride modulus must be positive");
        if !m.is_one() {
            self.touch().strides.push((m, e));
        }
    }

    /// Registers `w` as a clause-local existential wildcard.
    pub fn add_wildcard(&mut self, w: VarId) {
        if !self.wildcards.contains(&w) {
            self.touch().wildcards.push(w);
        }
    }

    /// Removes and returns the equality at `i`.
    pub fn remove_eq(&mut self, i: usize) -> Affine {
        self.touch().eqs.remove(i)
    }

    /// Removes and returns the inequality at `i`.
    pub fn remove_geq(&mut self, i: usize) -> Affine {
        self.touch().geqs.remove(i)
    }

    /// Removes and returns the stride at `i`.
    pub fn remove_stride(&mut self, i: usize) -> (Int, Affine) {
        self.touch().strides.remove(i)
    }

    /// Drops `w` from the wildcard list (its occurrences, if any, become
    /// free variables).
    pub fn remove_wildcard(&mut self, w: VarId) {
        if let Some(i) = self.wildcards.iter().position(|x| *x == w) {
            self.touch().wildcards.remove(i);
        }
    }

    /// Clears the normal-form mark ahead of a mutation.
    fn touch(&mut self) -> &mut Conjunct {
        self.normalized = Mark(false);
        self
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

    /// All variables mentioned by any constraint, sorted and distinct.
    pub fn mentioned_vars(&self) -> Vec<VarId> {
        let mut out: Vec<VarId> = self
            .eqs
            .iter()
            .chain(self.geqs.iter())
            .chain(self.strides.iter().map(|(_, e)| e))
            .flat_map(Affine::vars)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Variables mentioned that are not wildcards, sorted and distinct.
    pub fn free_vars(&self) -> Vec<VarId> {
        let mut out = self.mentioned_vars();
        out.retain(|v| !self.is_wildcard(*v));
        out
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
        let this = self.touch();
        for e in this.eqs.iter_mut().chain(this.geqs.iter_mut()) {
            *e = e.substitute(v, replacement);
        }
        for (_, e) in this.strides.iter_mut() {
            *e = e.substitute(v, replacement);
        }
    }

    /// Merges another conjunct into this one (logical conjunction).
    /// Wildcard lists are concatenated; the caller must ensure they are
    /// disjoint (fresh variables).
    pub fn and(&mut self, other: &Conjunct) {
        let this = self.touch();
        this.contradiction |= other.contradiction;
        this.eqs.extend(other.eqs.iter().cloned());
        this.geqs.extend(other.geqs.iter().cloned());
        this.strides.extend(other.strides.iter().cloned());
        for w in &other.wildcards {
            this.add_wildcard(*w);
        }
    }

    /// Rewrites every stride `m | e` as a wildcard equality
    /// `e - m·α = 0` with a fresh wildcard `α` (stride format →
    /// projected format, §2.1).
    pub fn stride_to_wildcard(&mut self, space: &mut Space) {
        for (m, e) in std::mem::take(&mut self.touch().strides) {
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
    /// * strides `m | e` have `e`'s coefficients and constant reduced
    ///   into `[0, m)`; then, with `g = gcd(content(e), m)`, if `g`
    ///   divides the constant the stride becomes `m/g | e/g` (and is
    ///   dropped when `m/g = 1`);
    /// * constant constraints are checked and dropped;
    /// * duplicate and single-constraint-redundant inequalities are
    ///   dropped; opposite inequality pairs become equalities;
    /// * wildcards whose only occurrence is a single stride are
    ///   projected out of it, and unused wildcards are dropped.
    ///
    /// Sets the contradiction flag (see [`Conjunct::is_false`]) when a
    /// syntactic contradiction is found.
    ///
    /// The result carries a normal-form mark that every mutation
    /// clears; normalizing a marked conjunct returns at once. Either way
    /// the call counts in `NormalizeCalls`, the governor's heartbeat.
    pub fn normalize(&mut self) {
        if self.normalized.0 {
            // Still a heartbeat (see `normalize_with`): the governor,
            // the fault matrix and the counter baselines see every call.
            presburger_trace::bump(presburger_trace::Counter::NormalizeCalls);
            debug_assert!(
                {
                    let mut fresh = self.clone();
                    fresh.normalized = Mark(false);
                    fresh.normalize_with(opposite_pairs, false);
                    fresh == *self
                },
                "stale normal-form mark: {self:?}"
            );
            return;
        }
        self.normalize_with(opposite_pairs, true);
    }

    /// [`Conjunct::normalize`] without the fast path, with the
    /// opposite-pair matcher as a parameter (so the tests can run the
    /// quadratic reference scan through the same path) and with the
    /// `NormalizeCalls` bump optional (so the debug check of a mark
    /// neither counts nor reaches the governor).
    fn normalize_with(&mut self, opposite: OppositeFn, count: bool) {
        // The innermost heartbeat of the whole pipeline: every clause
        // manipulation funnels through here, which makes this counter
        // the governor's most responsive deadline/cancellation
        // checkpoint (a single thread-local load when ungoverned).
        if count {
            presburger_trace::bump(presburger_trace::Counter::NormalizeCalls);
        }
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
            if leads_negative(e) {
                *e = -&*e;
            }
            true
        });
        eqs.sort_unstable_by(cmp_affine);
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
        // keep only the tightest inequality for each slope: the sort
        // puts a slope's smallest constant first
        geqs.sort_unstable_by(cmp_affine);
        geqs.dedup_by(|e, first| same_slope(first, e));
        // opposite pairs: t + c1 >= 0 and -t + c2 >= 0
        let paired = self.eqs.len();
        if !opposite(&mut geqs, &mut self.eqs) {
            self.contradiction = true;
            return;
        }
        self.geqs = geqs;
        if self.eqs.len() > paired {
            // re-normalize to canonicalize the new equalities
            self.normalize_with(opposite, count);
            return;
        }

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
        strides.sort_unstable_by(|(m1, e1), (m2, e2)| m1.cmp(m2).then_with(|| cmp_affine(e1, e2)));
        strides.dedup();
        self.strides = strides;
        if self.contradiction {
            return;
        }

        // --- wildcards whose only occurrence is inside a single stride:
        // ∃w : m | c·w + S  ⇔  gcd(c, m) | S. Projecting one such
        // wildcard leaves the others' occurrences alone, so they go one
        // at a time.
        let mut changed = false;
        for &w in &self.wildcards {
            if self.eqs.iter().any(|e| e.mentions(w)) || self.geqs.iter().any(|e| e.mentions(w)) {
                continue;
            }
            let mut hits = self
                .strides
                .iter()
                .enumerate()
                .filter(|(_, (_, e))| e.mentions(w));
            let (Some((k, _)), None) = (hits.next(), hits.next()) else {
                continue;
            };
            let (m, e) = &mut self.strides[k];
            *m = gcd(m, &e.coeff(w));
            e.set_coeff(w, Int::zero());
            changed = true;
        }
        if changed {
            // moduli may now be 1 or constraints constant
            self.strides.retain(|(m, _)| !m.is_one());
            self.normalize_with(opposite, count);
            return;
        }

        // --- drop unused wildcards
        let mut wildcards = std::mem::take(&mut self.wildcards);
        wildcards.retain(|w| self.mentions(*w));
        self.wildcards = wildcards;
        self.normalized = Mark(true);
    }

    /// Extracts the lower and upper bounds on `v` from the inequality
    /// constraints; inequalities not mentioning `v` contribute neither.
    ///
    /// Lower bounds satisfy `expr <= coeff·v`; upper bounds satisfy
    /// `coeff·v <= expr`.
    pub fn bounds_on(&self, v: VarId) -> (Vec<Bound>, Vec<Bound>) {
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        for e in &self.geqs {
            let a = e.coeff(v);
            if a.is_zero() {
                continue;
            }
            let mut r = e.clone();
            r.set_coeff(v, Int::zero());
            if a.is_positive() {
                // a·v + r >= 0  =>  -r <= a·v
                lowers.push(Bound { coeff: a, expr: -r });
            } else {
                // -a'·v + r >= 0  =>  a'·v <= r
                uppers.push(Bound {
                    coeff: -&a,
                    expr: r,
                });
            }
        }
        (lowers, uppers)
    }

    /// Counts the bounds [`Conjunct::bounds_on`] would extract for `v`,
    /// without building them.
    pub fn bound_counts(&self, v: VarId) -> BoundCounts {
        let mut n = BoundCounts::default();
        for e in &self.geqs {
            let a = e.coeff(v);
            if a.is_positive() {
                n.lowers += 1;
                n.unit_lowers += a.is_one() as usize;
            } else if a.is_negative() {
                n.uppers += 1;
                n.unit_uppers += (-&a).is_one() as usize;
            }
        }
        n
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

/// Whether the first (lowest `VarId`) coefficient is negative.
fn leads_negative(e: &Affine) -> bool {
    e.iter().next().is_some_and(|(_, c)| c.is_negative())
}

/// Turns the opposite inequality pairs `t + c₁ ≥ 0`, `−t + c₂ ≥ 0` of
/// `geqs` (sorted by [`cmp_affine`], slopes pairwise distinct) with
/// `c₁ + c₂ = 0` into equalities: appends one half of each pair to
/// `eqs` and removes both halves from `geqs`. Returns `false`, touching
/// neither list, when some pair has `c₁ + c₂ < 0` (a contradiction).
type OppositeFn = fn(&mut Vec<Affine>, &mut Vec<Affine>) -> bool;

/// [`OppositeFn`] by binary search: each slope whose first coefficient
/// is negative looks up its negation in the sorted list. Allocates
/// nothing unless a pair is tight.
fn opposite_pairs(geqs: &mut Vec<Affine>, eqs: &mut Vec<Affine>) -> bool {
    let paired = eqs.len();
    for e in geqs.iter().filter(|e| leads_negative(e)) {
        let Ok(j) = geqs.binary_search_by(|f| cmp_slope_to_negation(f, e)) else {
            continue;
        };
        let s = e.constant_term() + geqs[j].constant_term();
        if s.is_negative() {
            eqs.truncate(paired);
            return false;
        }
        if s.is_zero() {
            eqs.push(e.clone());
        }
    }
    if eqs.len() > paired {
        let tight = &eqs[paired..];
        geqs.retain(|f| {
            !tight
                .iter()
                .any(|t| same_slope(t, f) || cmp_slope_to_negation(f, t).is_eq())
        });
    }
    true
}

/// Orders `a`'s slope against the negation of `b`'s, ignoring both
/// constants — consistent with [`cmp_affine`], so a list sorted by it
/// can be binary-searched for a slope's opposite.
fn cmp_slope_to_negation(a: &Affine, b: &Affine) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let mut ai = a.iter();
    let mut bi = b.iter();
    loop {
        match (ai.next(), bi.next()) {
            (Some((v1, c1)), Some((v2, c2))) => {
                let o = v1.cmp(&v2).then_with(|| c1.cmp(&-c2));
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

/// How many lower and upper bounds a variable has in a conjunct, and
/// how many of each have a unit coefficient (see
/// [`Conjunct::bound_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundCounts {
    /// Inequalities with a positive coefficient on the variable.
    pub lowers: usize,
    /// Inequalities with a negative coefficient on the variable.
    pub uppers: usize,
    /// Lower bounds whose coefficient is 1.
    pub unit_lowers: usize,
    /// Upper bounds whose coefficient is −1.
    pub unit_uppers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The quadratic opposite-pair scan [`opposite_pairs`] replaced,
    /// kept as the reference it must agree with.
    fn opposite_pairs_quadratic(geqs: &mut Vec<Affine>, eqs: &mut Vec<Affine>) -> bool {
        let mut tight = Vec::new();
        let mut drop_idx: BTreeSet<usize> = BTreeSet::new();
        for i in 0..geqs.len() {
            if drop_idx.contains(&i) {
                continue;
            }
            let neg = -&geqs[i];
            for (j, other) in geqs.iter().enumerate().skip(i + 1) {
                if drop_idx.contains(&j) {
                    continue;
                }
                if same_slope(&neg, other) {
                    let s = geqs[i].constant_term() + other.constant_term();
                    if s.is_negative() {
                        return false;
                    }
                    if s.is_zero() {
                        tight.push(i);
                        drop_idx.insert(i);
                        drop_idx.insert(j);
                    }
                }
            }
        }
        eqs.extend(tight.iter().map(|&i| geqs[i].clone()));
        let mut k = 0;
        geqs.retain(|_| {
            k += 1;
            !drop_idx.contains(&(k - 1))
        });
        true
    }

    /// A seeded xorshift draw in `0..n`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut seed = seed;
        move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        }
    }

    /// A random conjunct over `vars`: inequalities drawn from a small
    /// slope pool so that opposite pairs are common, sometimes an
    /// equality and a stride, and — when `wild` — random equalities and
    /// strides with non-unit content and some of `vars` as wildcards.
    fn random_conjunct(rng: &mut impl FnMut(u64) -> u64, vars: &[VarId], wild: bool) -> Conjunct {
        let affine = |rng: &mut dyn FnMut(u64) -> u64, spread: u64| {
            let mut e = Affine::constant(rng(2 * spread + 1) as i64 - spread as i64);
            for &v in vars {
                if rng(2) == 0 {
                    e.set_coeff(v, Int::from(rng(7) as i64 - 3));
                }
            }
            e
        };
        let mut c = Conjunct::new();
        let mut pool: Vec<Affine> = Vec::new();
        for _ in 0..1 + rng(10) {
            let e = if !pool.is_empty() && rng(3) == 0 {
                let mut e = -&pool[rng(pool.len() as u64) as usize];
                e.add_constant(&Int::from(rng(7) as i64 - 3));
                e
            } else {
                affine(rng, 6)
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
        if wild {
            for _ in 0..rng(3) {
                let k = Int::from(1 + rng(3) as i64);
                c.add_eq(&affine(rng, 6) * &k);
            }
            for _ in 0..rng(3) {
                let e = affine(rng, 9);
                c.add_stride(Int::from(2 + rng(5) as i64), e);
            }
            for &v in vars {
                if rng(3) == 0 {
                    c.add_wildcard(v);
                }
            }
        }
        c
    }

    #[test]
    fn opposite_pairs_match_the_quadratic_scan() {
        let mut rng = rng(0x9e37_79b9_7f4a_7c15);
        let mut s = Space::new();
        let vars: Vec<VarId> = ["x", "y", "z", "w"].iter().map(|n| s.var(n)).collect();
        let mut contradictions = 0;
        let mut pairs = 0;
        for trial in 0..2000 {
            let c = random_conjunct(&mut rng, &vars, false);
            let mut fast = c.clone();
            fast.normalize();
            let mut reference = c.clone();
            reference.normalize_with(opposite_pairs_quadratic, true);
            assert_eq!(fast, reference, "trial {trial}: {}", c.to_string(&s));
            contradictions += fast.is_false() as usize;
            pairs += fast.eqs().len();
        }
        assert!(
            contradictions > 50 && pairs > 50,
            "{contradictions} {pairs}"
        );
    }

    #[test]
    fn normalizing_is_idempotent_and_the_mark_changes_nothing() {
        let mut rng = rng(0x2545_f491_4f6c_dd1d);
        let mut s = Space::new();
        let vars: Vec<VarId> = ["x", "y", "z", "w"].iter().map(|n| s.var(n)).collect();
        let (mut marked, mut with_wildcards) = (0, 0);
        for trial in 0..2000 {
            let c = random_conjunct(&mut rng, &vars, true);
            let mut once = c.clone();
            once.normalize();
            let mut twice = once.clone();
            twice.normalize();
            let mut unmarked = once.clone();
            unmarked.normalized = Mark(false);
            unmarked.normalize();
            let show = || c.to_string(&s);
            assert_eq!(twice, once, "trial {trial}: {}", show());
            assert_eq!(unmarked, once, "trial {trial}: {}", show());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            once.push_key_bytes(&mut a);
            unmarked.push_key_bytes(&mut b);
            assert_eq!(a, b, "trial {trial}: {}", show());
            assert_eq!(
                once.normalized.0,
                !once.is_false(),
                "trial {trial}: {}",
                show()
            );
            marked += once.normalized.0 as usize;
            with_wildcards += (!once.wildcards().is_empty()) as usize;
        }
        assert!(
            marked > 200 && with_wildcards > 50,
            "{marked} {with_wildcards}"
        );
    }

    #[test]
    fn a_marked_normalize_still_counts_as_a_call() {
        use presburger_trace::{self as trace, Counter};
        let (_, x, _) = setup();
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 2)], -3));
        c.normalize();
        trace::enable_counters(true);
        let before = trace::snapshot();
        c.normalize();
        let calls = trace::snapshot()
            .delta(&before)
            .get(Counter::NormalizeCalls);
        trace::enable_counters(false);
        assert_eq!(calls, 1);
    }

    #[test]
    fn every_mutator_clears_the_mark() {
        let (mut s, x, y) = setup();
        let mut base = Conjunct::new();
        base.add_wildcard(y);
        base.add_eq(Affine::from_terms(&[(x, 1), (y, -2)], 0));
        base.add_geq(Affine::from_terms(&[(x, 1)], 0));
        base.add_geq(Affine::from_terms(&[(x, -1)], 9));
        base.add_stride(Int::from(3), Affine::from_terms(&[(x, 1)], 1));
        base.normalize();
        assert!(base.normalized.0);
        let e = || Affine::from_terms(&[(x, 1)], -1);
        type Mutator<'a> = Box<dyn Fn(&mut Conjunct, &mut Space) + 'a>;
        let mutators: Vec<(&str, Mutator)> = vec![
            ("add_eq", Box::new(|c, _| c.add_eq(e()))),
            ("add_geq", Box::new(|c, _| c.add_geq(e()))),
            ("add_le", Box::new(|c, _| c.add_le(e(), Affine::zero()))),
            (
                "add_stride",
                Box::new(|c, _| c.add_stride(Int::from(2), e())),
            ),
            ("add_wildcard", Box::new(|c, s| c.add_wildcard(s.var("t")))),
            ("substitute", Box::new(|c, _| c.substitute(x, &e()))),
            ("and", Box::new(|c, _| c.and(&Conjunct::new()))),
            (
                "stride_to_wildcard",
                Box::new(|c, s| c.stride_to_wildcard(s)),
            ),
            ("remove_eq", Box::new(|c, _| drop(c.remove_eq(0)))),
            ("remove_geq", Box::new(|c, _| drop(c.remove_geq(0)))),
            ("remove_stride", Box::new(|c, _| drop(c.remove_stride(0)))),
            ("remove_wildcard", Box::new(|c, _| c.remove_wildcard(y))),
        ];
        for (name, mutate) in &mutators {
            let mut c = base.clone();
            mutate(&mut c, &mut s);
            assert!(!c.normalized.0, "{name} kept the mark");
        }
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
        let (lo, up) = c.bounds_on(x);
        assert_eq!(lo.len(), 1);
        assert_eq!(lo[0].coeff, Int::from(2));
        assert_eq!(lo[0].expr, Affine::from_terms(&[(y, -1)], 0));
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].coeff, Int::from(3));
        assert_eq!(up[0].expr, Affine::from_terms(&[(y, 1)], 5));
        let counts = c.bound_counts(x);
        assert_eq!((counts.lowers, counts.uppers), (1, 1));
        assert_eq!((counts.unit_lowers, counts.unit_uppers), (0, 0));
        let counts = c.bound_counts(y);
        assert_eq!((counts.lowers, counts.uppers), (3, 0));
        assert_eq!((counts.unit_lowers, counts.unit_uppers), (3, 0));
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
