//! §5.3 conversion on structured clause families: chains, stars
//! (articulation points), grids, and stride-mixed unions — asserting
//! equivalence, disjointness, and that clause counts stay civilized.

use presburger_arith::Int;
use presburger_omega::disjoint::make_disjoint;
use presburger_omega::{Affine, Conjunct, Space, VarId};

fn interval(x: VarId, lo: i64, hi: i64) -> Conjunct {
    let mut c = Conjunct::new();
    c.add_geq(Affine::from_terms(&[(x, 1)], -lo));
    c.add_geq(Affine::from_terms(&[(x, -1)], hi));
    c
}

fn check(
    before: &[Conjunct],
    space: &mut Space,
    x: VarId,
    range: std::ops::RangeInclusive<i64>,
) -> Vec<Conjunct> {
    let after = make_disjoint(before.to_vec(), space);
    for xv in range {
        let assign = |v: VarId| {
            assert_eq!(v, x);
            Int::from(xv)
        };
        let was = before.iter().any(|c| c.contains_point(space, &assign));
        let hits = after
            .iter()
            .filter(|c| c.contains_point(space, &assign))
            .count();
        assert_eq!(hits > 0, was, "coverage differs at {xv}");
        assert!(hits <= 1, "overlap at {xv}: {hits}");
    }
    after
}

/// A star: one long interval overlapping five short disjoint ones.
/// The long interval is the articulation point §5.3 step 3 prefers.
#[test]
fn star_family() {
    let mut s = Space::new();
    let x = s.var("x");
    let mut family = vec![interval(x, 0, 50)];
    for k in 0..5 {
        family.push(interval(x, k * 10, k * 10 + 3));
    }
    let after = check(&family, &mut s, x, -5..=55);
    // the short intervals are all inside the long one: a single clause
    // should survive
    assert_eq!(after.len(), 1, "subset pruning should collapse the star");
}

/// A chain of 5 overlapping intervals.
#[test]
fn chain_family() {
    let mut s = Space::new();
    let x = s.var("x");
    let family: Vec<Conjunct> = (0..5).map(|k| interval(x, k * 4, k * 4 + 6)).collect();
    let after = check(&family, &mut s, x, -3..=30);
    assert!(
        after.len() <= 9,
        "chain of 5 should not explode: got {}",
        after.len()
    );
}

/// Mixed strides and intervals.
#[test]
fn strided_family() {
    let mut s = Space::new();
    let x = s.var("x");
    let mut evens = interval(x, 0, 20);
    evens.add_stride(Int::from(2), Affine::var(x));
    let mut threes = interval(x, 0, 20);
    threes.add_stride(Int::from(3), Affine::var(x));
    let family = vec![evens, threes, interval(x, 8, 11)];
    check(&family, &mut s, x, -2..=22);
}

/// Two dimensions: an L-shaped union plus a bar through it.
#[test]
fn two_dimensional_family() {
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
    let family = vec![boxy(0, 8, 0, 2), boxy(0, 2, 0, 8), boxy(1, 6, 1, 6)];
    let after = make_disjoint(family.clone(), &mut s);
    for xv in -1i64..=9 {
        for yv in -1i64..=9 {
            let assign = |v: VarId| if v == x { Int::from(xv) } else { Int::from(yv) };
            let was = family.iter().any(|c| c.contains_point(&s, &assign));
            let hits = after
                .iter()
                .filter(|c| c.contains_point(&s, &assign))
                .count();
            assert_eq!(hits > 0, was, "coverage differs at ({xv},{yv})");
            assert!(hits <= 1, "overlap at ({xv},{yv})");
        }
    }
}

/// Diagonal strips (non-axis-aligned overlaps).
#[test]
fn diagonal_strips() {
    let mut s = Space::new();
    let x = s.var("x");
    let y = s.var("y");
    let strip = |lo: i64, hi: i64| {
        let mut c = Conjunct::new();
        // lo <= x + y <= hi within a box
        c.add_geq(Affine::from_terms(&[(x, 1), (y, 1)], -lo));
        c.add_geq(Affine::from_terms(&[(x, -1), (y, -1)], hi));
        c.add_geq(Affine::from_terms(&[(x, 1)], 5));
        c.add_geq(Affine::from_terms(&[(x, -1)], 5));
        c.add_geq(Affine::from_terms(&[(y, 1)], 5));
        c.add_geq(Affine::from_terms(&[(y, -1)], 5));
        c
    };
    let family = vec![strip(-3, 1), strip(0, 4), strip(3, 7)];
    let after = make_disjoint(family.clone(), &mut s);
    for xv in -6i64..=6 {
        for yv in -6i64..=6 {
            let assign = |v: VarId| if v == x { Int::from(xv) } else { Int::from(yv) };
            let was = family.iter().any(|c| c.contains_point(&s, &assign));
            let hits = after
                .iter()
                .filter(|c| c.contains_point(&s, &assign))
                .count();
            assert_eq!(hits > 0, was, "coverage differs at ({xv},{yv})");
            assert!(hits <= 1, "overlap at ({xv},{yv})");
        }
    }
}

/// The 12-clause residue union `1 ≤ i ∧ 1 ≤ j ≤ n ∧ 2i ≤ 3j ∧
/// 12 | i − c`, `c = 0..12` (the experiments' S2 input). Its clauses are
/// already disjoint, so §5.3 has only to see that: the overlap graph has
/// no edge, and subset implication — whose negated stride would build a
/// residue band and splinter it — is tested on no pair.
#[test]
fn residue_union_converts_without_splinters() {
    use presburger_omega::dnf::{simplify, SimplifyOptions};
    use presburger_omega::Formula;
    use presburger_trace::{self as trace, Counter};

    let mut s = Space::new();
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let clauses = (0..12)
        .map(|c| {
            Formula::and(vec![
                Formula::le(Affine::constant(1), Affine::var(i)),
                Formula::le(Affine::constant(1), Affine::var(j)),
                Formula::le(Affine::var(j), Affine::var(n)),
                Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
                Formula::stride(12, Affine::var(i) - Affine::constant(c)),
            ])
        })
        .collect();
    let f = Formula::or(clauses);
    trace::enable_counters(true);
    let before = trace::snapshot();
    let d = simplify(&f, &mut s, &SimplifyOptions::disjoint());
    let stats = trace::snapshot().delta(&before);
    trace::enable_counters(false);
    assert_eq!(d.clauses.len(), 12);
    assert_eq!(stats.get(Counter::SplintersGenerated), 0, "{stats}");
    // 66 pair tests for the overlap graph plus the per-clause cleanup
    // (90 in all); implication tests both ways on every pair, twice
    // over, took 1,146.
    assert!(stats.get(Counter::FeasibilityChecks) <= 100, "{stats}");
    for nv in 0i64..=6 {
        for jv in -1i64..=nv + 1 {
            for iv in -1i64..=3 * jv / 2 + 1 {
                let assign = |v: VarId| {
                    Int::from(if v == i {
                        iv
                    } else if v == j {
                        jv
                    } else {
                        nv
                    })
                };
                let inside = 1 <= iv && 1 <= jv && jv <= nv && 2 * iv <= 3 * jv;
                let hits = d
                    .clauses
                    .iter()
                    .filter(|c| c.contains_point(&s, &assign))
                    .count();
                assert_eq!(hits, usize::from(inside), "i={iv} j={jv} n={nv}");
            }
        }
    }
}
