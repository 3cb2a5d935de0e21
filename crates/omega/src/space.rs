//! Variable interning.
//!
//! Every formula, constraint and polynomial in the workspace refers to
//! variables through small integer [`VarId`]s interned in a [`Space`].
//! The space records the human-readable name of each variable; *roles*
//! (symbolic constant vs. counted variable vs. clause-local wildcard)
//! are decided by the operations that consume the ids, not by the space.
//!
//! # Forking
//!
//! A space can be [forked](Space::fork): the child sees every variable
//! the parent had at fork time and allocates any *new* ids from a block
//! of the id range disjoint from the parent's (and from every sibling's).
//! Ids therefore never collide between a parent and its forks, which
//! lets independent tasks intern fresh variables concurrently without
//! sharing `&mut` access to one space. Because the blocks are carved
//! deterministically (by fork order, not by scheduling), the ids a task
//! allocates are a pure function of the fork tree — the foundation of
//! the counting engine's any-thread-count determinism. Re-uniting a
//! child is a conflict-free union ([`Space::adopt`]): no renumbering
//! ever happens.
//!
//! # Witness pool
//!
//! A space also keeps the last few integer points the feasibility test
//! found ([`crate::feasible`]), most recently used first. Children
//! start with a copy of their parent's pool, and neither
//! [`Space::adopt`] nor [`Space::absorb`] merges pools back, so the
//! pool's contents are a pure function of the query and the fork tree
//! — never of thread scheduling or of earlier requests.

use presburger_arith::Int;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an interned variable. Ordered by creation within one
/// space; fork blocks order after the densely allocated prefix.
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
#[derive(Clone, Debug)]
pub struct Space {
    /// Names of the densely allocated prefix: ids `0..names.len()`.
    names: Vec<String>,
    /// Names of ids allocated inside fork blocks (sparse).
    forked: BTreeMap<u32, String>,
    fresh_counter: u32,
    /// The next id this space hands out.
    next: u32,
    /// Exclusive end of the id range this space may allocate from.
    hi: u32,
    /// Integer points of recently feasible clauses, most recently used
    /// first (see the module docs).
    witnesses: Vec<Point>,
}

impl Default for Space {
    fn default() -> Space {
        Space {
            names: Vec::new(),
            forked: BTreeMap::new(),
            fresh_counter: 0,
            next: 0,
            hi: u32::MAX,
            witnesses: Vec::new(),
        }
    }
}

impl Space {
    /// Creates an empty space.
    pub fn new() -> Space {
        Space::default()
    }

    fn alloc(&mut self, name: String) -> VarId {
        assert!(
            self.next < self.hi,
            "Space: variable id range exhausted (too many forks or fresh variables)"
        );
        let id = self.next;
        self.next += 1;
        if id as usize == self.names.len() {
            self.names.push(name);
        } else {
            self.forked.insert(id, name);
        }
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

    /// Looks up a variable by name without interning. When forks have
    /// introduced duplicate names, the lowest id wins.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Some(VarId(i as u32));
        }
        self.forked
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(&id, _)| VarId(id))
    }

    /// Creates a fresh variable guaranteed not to collide with any
    /// existing name *in this space*. Used for wildcards introduced
    /// during elimination. Sibling forks may coin the same display name
    /// for different ids; identity is always the id.
    pub fn fresh(&mut self, hint: &str) -> VarId {
        loop {
            self.fresh_counter += 1;
            let name = format!("{hint}${}", self.fresh_counter);
            if self.lookup(&name).is_none() {
                return self.alloc(name);
            }
        }
    }

    /// Splits off a child space that shares every variable interned so
    /// far and allocates new ids from a block disjoint from the
    /// parent's remaining range. Equivalent to `fork_many(1)`.
    pub fn fork(&mut self) -> Space {
        self.fork_many(1)
            .pop()
            .expect("fork_many(1) yields one child")
    }

    /// Splits off `k` child spaces with pairwise disjoint allocation
    /// blocks (each also disjoint from the parent's remaining range).
    /// The carve depends only on this space's state and `k` — never on
    /// scheduling — so repeated runs produce identical ids.
    ///
    /// # Panics
    ///
    /// Panics if the remaining id range is too small to carve `k`
    /// useful blocks (requires pathologically deep fork nesting).
    pub fn fork_many(&mut self, k: usize) -> Vec<Space> {
        if k == 0 {
            return Vec::new();
        }
        // Keep the lower half of the unallocated range for ourselves;
        // slice the upper half evenly among the children.
        let avail = self.hi - self.next;
        let mid = self.next + avail / 2;
        let slice = (self.hi - mid) / k as u32;
        assert!(
            slice >= 2,
            "Space: id range exhausted by forking ({k} children from {avail} free ids)"
        );
        let children = (0..k as u32)
            .map(|i| Space {
                names: self.names.clone(),
                forked: self.forked.clone(),
                fresh_counter: self.fresh_counter,
                next: mid + i * slice,
                hi: mid + (i + 1) * slice,
                witnesses: self.witnesses.clone(),
            })
            .collect();
        self.hi = mid;
        children
    }

    /// Re-unites a fork: records the child's block-allocated names so
    /// this space can resolve ids the child created. Blocks are
    /// disjoint by construction, so this is a conflict-free union — no
    /// id is ever renumbered (the "merge is a no-op" guarantee).
    pub fn adopt(&mut self, child: &Space) {
        for (id, name) in &child.forked {
            self.forked.entry(*id).or_insert_with(|| name.clone());
        }
    }

    /// Unions another space into this one, for combining results that
    /// stem from the same base space.
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
        if other.names.len() > self.names.len() {
            let was_dense = self.next as usize == self.names.len();
            self.names
                .extend(other.names[self.names.len()..].iter().cloned());
            if was_dense {
                self.next = self.names.len() as u32;
            }
        }
        for (id, name) in &other.forked {
            match self.forked.get(id) {
                Some(existing) => assert_eq!(
                    existing, name,
                    "Space::absorb: spaces disagree on variable v{id}"
                ),
                None => {
                    self.forked.insert(*id, name.clone());
                }
            }
        }
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
    /// Panics if `v` was not created by this space (or a fork it has
    /// since [adopted](Space::adopt)).
    pub fn name(&self, v: VarId) -> &str {
        if v.index() < self.names.len() {
            &self.names[v.index()]
        } else {
            self.forked
                .get(&v.0)
                .unwrap_or_else(|| panic!("VarId v{} is unknown to this space", v.0))
        }
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len() + self.forked.len()
    }

    /// Returns `true` if no variables have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty() && self.forked.is_empty()
    }

    /// Iterates over all interned variable ids, densely allocated ids
    /// first, then fork-block ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.names.len() as u32)
            .chain(self.forked.keys().copied())
            .map(VarId)
    }
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
    fn forks_allocate_disjoint_ids() {
        let mut s = Space::new();
        let n = s.var("n");
        let mut kids = s.fork_many(3);
        let parent_new = s.fresh("p");
        let mut seen = vec![parent_new];
        for k in &mut kids {
            assert_eq!(k.name(n), "n"); // inherited
            let a = k.fresh("w");
            let b = k.var("brand-new");
            seen.push(a);
            seen.push(b);
        }
        let mut dedup = seen.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "ids collided: {seen:?}");
    }

    #[test]
    fn fork_carve_is_deterministic() {
        let build = || {
            let mut s = Space::new();
            s.var("n");
            let mut kids = s.fork_many(4);
            kids.iter_mut()
                .map(|k| (k.fresh("w"), k.fresh("t")))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn adopt_makes_child_names_resolvable() {
        let mut s = Space::new();
        s.var("n");
        let mut child = s.fork();
        let w = child.fresh("w");
        let name = child.name(w).to_string();
        s.adopt(&child);
        assert_eq!(s.name(w), name);
        assert_eq!(s.lookup(&name), Some(w));
        assert_eq!(s.len(), 2);
        assert!(s.iter().any(|v| v == w));
    }

    #[test]
    fn nested_forks_stay_disjoint() {
        let mut s = Space::new();
        s.var("n");
        let mut child = s.fork();
        let grandkids = child.fork_many(2);
        let mut ids: Vec<VarId> = Vec::new();
        ids.push(s.fresh("a"));
        ids.push(child.fresh("b"));
        for mut g in grandkids {
            ids.push(g.fresh("c"));
        }
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids collided: {ids:?}");
    }

    #[test]
    fn absorb_unions_names() {
        let mut base = Space::new();
        base.var("n");
        let mut a = base.clone();
        let mut b = base.clone();
        let x = a.var("x");
        let y = b.fork().fresh("y"); // fork id, unknown to `a`
        let mut b2 = base.clone();
        let child = {
            let mut c = b2.fork();
            let got = c.fresh("y");
            assert_eq!(got, y); // deterministic carve
            c
        };
        b2.adopt(&child);
        a.absorb(&b2);
        assert_eq!(a.name(x), "x");
        assert!(a.name(y).starts_with("y$"));
    }

    #[test]
    fn forks_inherit_the_witness_pool_and_never_merge_it_back() {
        let mut s = Space::new();
        let x = s.var("x");
        let point = |v: i64| vec![(x, Int::from(v))];
        s.remember_witness(point(1));
        let mut kids = s.fork_many(2);
        for k in &kids {
            assert_eq!(k.witnesses(), [point(1)]);
        }
        kids[0].remember_witness(point(2));
        kids[1].remember_witness(point(3));
        s.adopt(&kids[0]);
        s.absorb(&kids[1]);
        assert_eq!(s.witnesses(), [point(1)]);
        assert_eq!(kids[0].witnesses(), [point(2), point(1)]);
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
    fn foreign_fork_id_panics() {
        let mut s = Space::new();
        let mut child = s.fork();
        let w = child.fresh("w");
        s.name(w); // never adopted
    }
}
