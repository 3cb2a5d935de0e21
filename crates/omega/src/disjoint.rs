//! Conversion of overlapping DNF into **disjoint** DNF (§5.3).
//!
//! Counting the points of a union clause-by-clause requires the clauses
//! to be pairwise disjoint (§4.5.1) — otherwise inclusion–exclusion
//! needs `2^k − 1` summations. The paper's conversion:
//!
//! 1. drop clauses that are subsets of other clauses;
//! 2. split the clauses into connected components of the overlap graph
//!    (components never interact);
//! 3. within a component, extract one clause `C₁` — preferably an
//!    articulation point of the graph, otherwise the clause with the
//!    fewest constraints — and rewrite `C₁ ∨ rest` as
//!    `C₁ + (¬C₁ ∧ rest)`;
//! 4. shrink `¬C₁` with `gist C₁ given Cⱼ` before distributing, and use
//!    *disjoint negation* `¬c₁ + c₁∧¬c₂ + c₁∧c₂∧¬c₃ + …` so the pieces
//!    never overlap each other.

use crate::conjunct::Conjunct;
use crate::dnf::{negate_clause, prune_subsets_where};
use crate::feasible::is_feasible;
use crate::redundant::gist;
use crate::space::Space;

/// Extraction rounds shared by every component of one conversion;
/// exhaustion unwinds as a `"disjoint_conversion_fuel"` budget trip.
const DISJOINT_FUEL: u64 = 500;

/// Converts a list of possibly-overlapping clauses into an equivalent
/// list of pairwise-disjoint clauses.
///
/// Every input clause must be feasible (as [`crate::dnf::simplify`]'s
/// cleanup leaves them): step 1 tests implication only between clauses
/// that meet, and an empty clause meets none.
pub fn make_disjoint(clauses: Vec<Conjunct>, space: &mut Space) -> Vec<Conjunct> {
    let _span = presburger_trace::span("make_disjoint");
    Overlaps::pruned(clauses, space).make_disjoint(space)
}

/// Clauses with their overlap graph: `adj[i][j]` iff clauses `i` and
/// `j` share an integer point. One conversion builds the graph once
/// and keeps it up to date as extraction replaces clauses.
pub(crate) struct Overlaps {
    clauses: Vec<Conjunct>,
    adj: Vec<Vec<bool>>,
}

impl Overlaps {
    /// Builds the overlap graph of feasible `clauses` and drops the
    /// clauses that are subsets of others (§5.3 step 1). A non-empty
    /// clause is never a subset of a clause it does not meet, so
    /// implication is tested only along the graph's edges.
    pub(crate) fn pruned(clauses: Vec<Conjunct>, space: &mut Space) -> Overlaps {
        let n = clauses.len();
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let meet = meets(&clauses[i], &clauses[j], space);
                adj[i][j] = meet;
                adj[j][i] = meet;
            }
        }
        let (kept, clauses): (Vec<usize>, Vec<Conjunct>) =
            prune_subsets_where(clauses, space, |i, j| adj[i][j])
                .into_iter()
                .unzip();
        Overlaps {
            adj: induced(&adj, &kept),
            clauses,
        }
    }

    /// The number of clauses.
    pub(crate) fn len(&self) -> usize {
        self.clauses.len()
    }

    /// §5.3 steps 2–4: the clauses as a pairwise-disjoint list.
    pub(crate) fn make_disjoint(self, space: &mut Space) -> Vec<Conjunct> {
        let mut out = Vec::new();
        let mut fuel = DISJOINT_FUEL;
        for component in self.components() {
            out.extend(component.disjoint(space, &mut fuel));
        }
        out
    }

    /// Splits the clauses into the connected components of the overlap
    /// graph (§5.3 step 2), each with its induced subgraph.
    fn components(self) -> Vec<Overlaps> {
        let n = self.clauses.len();
        let mut seen = vec![false; n];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let mut member = vec![start];
            let mut next = 0;
            while let Some(&i) = member.get(next) {
                next += 1;
                for (j, seen_j) in seen.iter_mut().enumerate() {
                    if self.adj[i][j] && !*seen_j {
                        *seen_j = true;
                        member.push(j);
                    }
                }
            }
            member.sort_unstable(); // keep each component in input order
            members.push(member);
        }
        let mut clauses: Vec<Option<Conjunct>> = self.clauses.into_iter().map(Some).collect();
        members
            .iter()
            .map(|m| Overlaps {
                adj: induced(&self.adj, m),
                clauses: m
                    .iter()
                    .map(|&i| {
                        clauses[i]
                            .take()
                            .expect("invariant: the components partition the clauses")
                    })
                    .collect(),
            })
            .collect()
    }

    /// Extracts clauses one at a time until the rest no longer overlap
    /// (§5.3 steps 3–4).
    fn disjoint(mut self, space: &mut Space, fuel: &mut u64) -> Vec<Conjunct> {
        let mut out = Vec::new();
        loop {
            *fuel -= 1;
            if *fuel == 0 {
                // Input-reachable (§5.3 extraction can keep producing
                // overlap on adversarial unions): unwind as a budget trip
                // instead of aborting the process.
                presburger_trace::govern::trip(
                    "disjoint_conversion_fuel",
                    DISJOINT_FUEL,
                    DISJOINT_FUEL,
                );
            }
            // if the component has become disconnected, split it
            if self.clauses.len() <= 1 || !self.adj.iter().flatten().any(|b| *b) {
                out.extend(self.clauses);
                return out;
            }
            // §5.3 step 3: pick an articulation point if one exists,
            // otherwise the clause with the fewest constraints.
            let pick =
                articulation_point(&self.adj).unwrap_or_else(|| fewest_constraints(&self.clauses));
            let (c1, rest) = self.extract(pick, space);
            out.push(c1);
            self = rest;
        }
    }

    /// Removes clause `pick` as `C₁` and rewrites `C₁ ∨ rest` as
    /// `C₁ + (¬C₁ ∧ rest)`, returning `C₁` and the new rest with its
    /// overlap graph.
    fn extract(self, pick: usize, space: &mut Space) -> (Conjunct, Overlaps) {
        let Overlaps { mut clauses, adj } = self;
        let c1 = clauses.remove(pick);
        let parents: Vec<usize> = (0..adj.len()).filter(|&j| j != pick).collect();
        // Each new clause with its parent's index in `adj` and whether
        // it is that parent unchanged.
        let mut rest: Vec<(usize, bool, Conjunct)> = Vec::new();
        for (cj, j) in clauses.into_iter().zip(parents) {
            if !adj[pick][j] {
                rest.push((j, true, cj)); // already disjoint from C₁
                continue;
            }
            // step 4: gist C₁ given Cⱼ before negating
            let g = gist(&c1, &cj, space);
            if g.is_trivially_true() {
                // Cⱼ ⊆ C₁ entirely; drop it
                continue;
            }
            for neg in negate_clause(&g, space) {
                let mut piece = cj.clone();
                piece.and(&neg);
                piece.normalize();
                if !piece.is_false() && is_feasible(&piece, space) {
                    rest.push((j, false, piece));
                }
            }
        }
        // A piece lies inside its parent, and the pieces of one parent
        // are disjoint (disjoint negation), so only pieces of two
        // overlapping parents need a test.
        let n = rest.len();
        let mut next = vec![vec![false; n]; n];
        for a in 0..n {
            for b in a + 1..n {
                let ((pa, whole_a, ca), (pb, whole_b, cb)) = (&rest[a], &rest[b]);
                let meet =
                    pa != pb && adj[*pa][*pb] && ((*whole_a && *whole_b) || meets(ca, cb, space));
                next[a][b] = meet;
                next[b][a] = meet;
            }
        }
        let rest = Overlaps {
            clauses: rest.into_iter().map(|(_, _, c)| c).collect(),
            adj: next,
        };
        (c1, rest)
    }
}

/// Whether two clauses share an integer point.
fn meets(a: &Conjunct, b: &Conjunct, space: &mut Space) -> bool {
    let mut both = a.clone();
    both.and(b);
    is_feasible(&both, space)
}

/// The subgraph of `adj` induced by the vertices `keep`, renumbered in
/// order.
fn induced(adj: &[Vec<bool>], keep: &[usize]) -> Vec<Vec<bool>> {
    keep.iter()
        .map(|&i| keep.iter().map(|&j| adj[i][j]).collect())
        .collect()
}

/// Finds a vertex whose removal disconnects the graph, if any.
fn articulation_point(adj: &[Vec<bool>]) -> Option<usize> {
    let n = adj.len();
    if n <= 2 {
        return None;
    }
    let count_components = |skip: Option<usize>| -> usize {
        let mut seen = vec![false; n];
        if let Some(skip) = skip {
            seen[skip] = true;
        }
        let mut comps = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            comps += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(i) = stack.pop() {
                for j in 0..n {
                    if adj[i][j] && !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        comps
    };
    let base = count_components(None);
    (0..n).find(|&v| count_components(Some(v)) > base)
}

fn fewest_constraints(clauses: &[Conjunct]) -> usize {
    let size = |c: &Conjunct| c.eqs().len() + c.geqs().len() + c.strides().len();
    (0..clauses.len())
        .min_by_key(|&i| size(&clauses[i]))
        .expect("invariant: fewest_constraints is only called with clauses present")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use crate::space::VarId;
    use presburger_arith::Int;

    fn interval(x: VarId, lo: i64, hi: i64) -> Conjunct {
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(x, 1)], -lo));
        c.add_geq(Affine::from_terms(&[(x, -1)], hi));
        c
    }

    fn check_equivalent_and_disjoint(
        before: &[Conjunct],
        after: &[Conjunct],
        space: &Space,
        range: std::ops::RangeInclusive<i64>,
        vars: &[VarId],
    ) {
        assert_eq!(vars.len(), 1, "helper supports 1 free var");
        for xv in range {
            let assign = |_: VarId| Int::from(xv);
            let was = before.iter().any(|c| c.contains_point(space, &assign));
            let hits = after
                .iter()
                .filter(|c| c.contains_point(space, &assign))
                .count();
            assert_eq!(hits > 0, was, "coverage differs at {xv}");
            assert!(hits <= 1, "overlap at {xv}: {hits} clauses");
        }
    }

    #[test]
    fn two_overlapping_intervals() {
        let mut s = Space::new();
        let x = s.var("x");
        let before = vec![interval(x, 1, 6), interval(x, 4, 10)];
        let after = make_disjoint(before.clone(), &mut s);
        check_equivalent_and_disjoint(&before, &after, &s, -2..=12, &[x]);
    }

    #[test]
    fn chain_of_three() {
        let mut s = Space::new();
        let x = s.var("x");
        let before = vec![interval(x, 1, 5), interval(x, 4, 9), interval(x, 8, 12)];
        let after = make_disjoint(before.clone(), &mut s);
        check_equivalent_and_disjoint(&before, &after, &s, -2..=14, &[x]);
    }

    #[test]
    fn disjoint_input_is_unchanged_in_meaning() {
        let mut s = Space::new();
        let x = s.var("x");
        let before = vec![interval(x, 1, 3), interval(x, 7, 9)];
        let after = make_disjoint(before.clone(), &mut s);
        assert_eq!(after.len(), 2);
        check_equivalent_and_disjoint(&before, &after, &s, -2..=11, &[x]);
    }

    #[test]
    fn subset_is_dropped() {
        let mut s = Space::new();
        let x = s.var("x");
        let before = vec![interval(x, 2, 4), interval(x, 1, 10)];
        let after = make_disjoint(before.clone(), &mut s);
        assert_eq!(after.len(), 1);
        check_equivalent_and_disjoint(&before, &after, &s, -2..=12, &[x]);
    }

    #[test]
    fn strided_overlap() {
        let mut s = Space::new();
        let x = s.var("x");
        // evens in 0..=10 and all of 4..=6
        let mut evens = interval(x, 0, 10);
        evens.add_stride(Int::from(2), Affine::var(x));
        let before = vec![evens, interval(x, 4, 6)];
        let after = make_disjoint(before.clone(), &mut s);
        check_equivalent_and_disjoint(&before, &after, &s, -2..=12, &[x]);
    }

    #[test]
    fn two_dimensional_boxes() {
        let mut s = Space::new();
        let x = s.var("x");
        let y = s.var("y");
        let boxy = |x0: i64, x1: i64, y0: i64, y1: i64| {
            let mut c = Conjunct::new();
            c.add_geq(Affine::from_terms(&[(x, 1)], -x0));
            c.add_geq(Affine::from_terms(&[(x, -1)], x1));
            c.add_geq(Affine::from_terms(&[(y, 1)], -y0));
            c.add_geq(Affine::from_terms(&[(y, -1)], y1));
            c
        };
        let before = vec![boxy(0, 4, 0, 4), boxy(2, 6, 2, 6), boxy(5, 8, 0, 3)];
        let after = make_disjoint(before.clone(), &mut s);
        for xv in -1i64..=9 {
            for yv in -1i64..=7 {
                let assign = |v: VarId| if v == x { Int::from(xv) } else { Int::from(yv) };
                let was = before.iter().any(|c| c.contains_point(&s, &assign));
                let hits = after
                    .iter()
                    .filter(|c| c.contains_point(&s, &assign))
                    .count();
                assert_eq!(hits > 0, was, "coverage differs at ({xv},{yv})");
                assert!(hits <= 1, "overlap at ({xv},{yv})");
            }
        }
    }
}
