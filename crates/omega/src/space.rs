//! Variable interning.
//!
//! Every formula, constraint and polynomial in the workspace refers to
//! variables through small integer [`VarId`]s interned in a [`Space`].
//! The space records the human-readable name of each variable; *roles*
//! (symbolic constant vs. counted variable vs. clause-local wildcard)
//! are decided by the operations that consume the ids, not by the space.
//! Ids are dense: the `k`-th variable interned has index `k`.
//!
//! # Witness pool
//!
//! A space also keeps the last few integer points the feasibility test
//! found ([`crate::feasible`]), most recently used first. The counting
//! engine sums a formula's clauses one after another on one space, so
//! a point found for one clause can answer a feasibility test in the
//! next. [`Space::absorb`] does not merge pools, so the pool's contents
//! are a pure function of the query, never of earlier requests.

use presburger_arith::Int;
use std::fmt;

/// Identifier of an interned variable, ordered by creation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index of this variable within its [`Space`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An integer point: a value for each listed variable, sorted by id;
/// every variable not listed reads 0.
pub type Point = Vec<(VarId, Int)>;

/// How many witnesses a [`Space`] keeps.
const WITNESS_POOL: usize = 8;

/// An interner mapping variable names to [`VarId`]s.
///
/// ```
/// use presburger_omega::Space;
///
/// let mut space = Space::new();
/// let n = space.var("n");
/// assert_eq!(space.var("n"), n);       // interning is idempotent
/// assert_eq!(space.name(n), "n");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Space {
    /// Names by id: variable `k` is `names[k]`.
    names: Vec<String>,
    /// At least every `k` of a `…$k` name in this space, so
    /// [`Space::fresh`] coins `hint$(fresh_counter + 1)` without a
    /// lookup.
    fresh_counter: u32,
    /// Integer points of recently feasible clauses, most recently used
    /// first (see the module docs).
    witnesses: Vec<Point>,
}

impl Space {
    /// Creates an empty space.
    pub fn new() -> Space {
        Space::default()
    }

    fn alloc(&mut self, name: String) -> VarId {
        let id = u32::try_from(self.names.len()).expect("Space: variable id range exhausted");
        if let Some(k) = fresh_suffix(&name) {
            self.fresh_counter = self.fresh_counter.max(k);
        }
        self.names.push(name);
        VarId(id)
    }

    /// Interns `name`, returning its id (existing or new).
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(v) = self.lookup(name) {
            v
        } else {
            self.alloc(name.to_string())
        }
    }

    /// Alias of [`Space::var`] that reads better when declaring symbolic
    /// constants.
    pub fn symbol(&mut self, name: &str) -> VarId {
        self.var(name)
    }

    /// Looks up a variable by name without interning.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Creates a fresh variable guaranteed not to collide with any
    /// existing name in this space. Used for wildcards introduced
    /// during elimination.
    pub fn fresh(&mut self, hint: &str) -> VarId {
        // Every `…$k` name here has k ≤ fresh_counter, so the next
        // suffix is new.
        self.alloc(format!("{hint}${}", self.fresh_counter + 1))
    }

    /// Unions another space into this one, for combining results that
    /// stem from the same base space: the ids both spaces have must
    /// agree by name, and the longer space's extra ids are appended.
    ///
    /// # Panics
    ///
    /// Panics if the spaces disagree on the name of a shared id.
    pub fn absorb(&mut self, other: &Space) {
        let shared = self.names.len().min(other.names.len());
        for i in 0..shared {
            assert_eq!(
                self.names[i], other.names[i],
                "Space::absorb: spaces disagree on variable v{i}"
            );
        }
        self.names.extend(other.names[shared..].iter().cloned());
        self.fresh_counter = self.fresh_counter.max(other.fresh_counter);
    }

    /// The integer points the feasibility test pooled, most recently
    /// used first; each is a point of the normalized clause the search
    /// found it for.
    pub fn witnesses(&self) -> &[Point] {
        &self.witnesses
    }

    /// Pools a new witness in front, evicting the least recently used
    /// one when the pool is full.
    pub(crate) fn remember_witness(&mut self, p: Point) {
        self.witnesses.truncate(WITNESS_POOL - 1);
        self.witnesses.insert(0, p);
    }

    /// Moves the witness at `i` to the front of the pool.
    pub(crate) fn promote_witness(&mut self, i: usize) {
        self.witnesses[..=i].rotate_right(1);
    }

    /// The name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this space.
    pub fn name(&self, v: VarId) -> &str {
        self.names
            .get(v.index())
            .unwrap_or_else(|| panic!("VarId v{} is unknown to this space", v.0))
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no variables have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all interned variable ids in creation order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.names.len() as u32).map(VarId)
    }
}

/// The `k` of a name `…$k`, the shape [`Space::fresh`] coins.
fn fresh_suffix(name: &str) -> Option<u32> {
    let (_, k) = name.rsplit_once('$')?;
    k.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut s = Space::new();
        let a = s.var("a");
        let b = s.var("b");
        assert_ne!(a, b);
        assert_eq!(s.var("a"), a);
        assert_eq!(s.lookup("b"), Some(b));
        assert_eq!(s.lookup("zz"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn fresh_never_collides() {
        let mut s = Space::new();
        s.var("w$1");
        let f = s.fresh("w");
        assert_ne!(s.name(f), "w$1");
        let g = s.fresh("w");
        assert_ne!(f, g);
    }

    #[test]
    fn iteration_order_is_creation_order() {
        let mut s = Space::new();
        let ids: Vec<VarId> = ["x", "y", "z"].iter().map(|n| s.var(n)).collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn absorb_appends_the_longer_tail() {
        let mut base = Space::new();
        let n = base.var("n");
        let mut grown = base.clone();
        let w = grown.fresh("w");
        grown.fresh("w");
        base.absorb(&grown);
        assert_eq!(base.name(n), "n");
        assert_eq!(base.name(w), "w$1");
        assert_eq!(base.len(), 3);
        // The counter came along: the next coined name is new.
        let next = base.fresh("w");
        assert_eq!(base.name(next), "w$3");
        // Absorbing a prefix of this space changes nothing.
        let before = base.len();
        base.absorb(&grown);
        assert_eq!(base.len(), before);
    }

    #[test]
    #[should_panic(expected = "disagree on variable v1")]
    fn absorb_rejects_spaces_from_different_bases() {
        let mut a = Space::new();
        a.var("n");
        a.var("x");
        let mut b = Space::new();
        b.var("n");
        b.var("y");
        a.absorb(&b);
    }

    #[test]
    fn absorb_never_merges_the_witness_pool() {
        let mut s = Space::new();
        let x = s.var("x");
        let point = |v: i64| vec![(x, Int::from(v))];
        s.remember_witness(point(1));
        let mut other = s.clone();
        other.remember_witness(point(2));
        s.absorb(&other);
        assert_eq!(s.witnesses(), [point(1)]);
    }

    #[test]
    fn the_witness_pool_is_bounded_and_most_recently_used_first() {
        let mut s = Space::new();
        let x = s.var("x");
        let point = |v: i64| vec![(x, Int::from(v))];
        for v in 0..20 {
            s.remember_witness(point(v));
        }
        let expect: Vec<Point> = (12..20).rev().map(point).collect();
        assert_eq!(s.witnesses(), expect);
        s.promote_witness(5); // the point 14
        assert_eq!(s.witnesses()[0], point(14));
        assert_eq!(s.witnesses()[1..6], expect[..5]);
        assert_eq!(s.witnesses()[6..], expect[6..]);
    }

    #[test]
    #[should_panic(expected = "unknown to this space")]
    fn foreign_id_panics() {
        let s = Space::new();
        let mut other = s.clone();
        let w = other.fresh("w");
        s.name(w);
    }
}
