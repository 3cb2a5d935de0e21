//! Hermite and Smith normal forms, and a solver for systems of linear
//! Diophantine equations.
//!
//! The paper's §4.5.2 ("Projected Sums") rewrites a clause whose
//! variables are defined through auxiliary existentially-quantified
//! variables into an explicit parametric form. The engine behind that
//! rewrite is the Smith normal form `U·A·V = D` computed here, and the
//! derived [`solve_diophantine`] routine which returns the full integer
//! solution set `x = x0 + B·t` of `A·x = b`.

use crate::{Int, Matrix};

/// The Smith normal form decomposition `U * A * V = D` of an integer
/// matrix, with `U` and `V` unimodular and `D` diagonal with
/// non-negative entries satisfying `D[i,i] | D[i+1,i+1]`.
#[derive(Clone, Debug)]
pub struct SmithNormalForm {
    /// Left unimodular transform (`rows x rows`).
    pub u: Matrix,
    /// Diagonal matrix (`rows x cols`).
    pub d: Matrix,
    /// Right unimodular transform (`cols x cols`).
    pub v: Matrix,
    /// Rank of the matrix (number of non-zero diagonal entries).
    pub rank: usize,
}

/// Computes the Smith normal form of `a`.
///
/// ```
/// use presburger_arith::{Matrix, smith::smith_normal_form};
///
/// let a = Matrix::from_i64(2, 2, &[2, 4, 6, 8]);
/// let snf = smith_normal_form(&a);
/// assert_eq!(&(&snf.u * &a) * &snf.v, snf.d);
/// assert_eq!(snf.rank, 2);
/// ```
pub fn smith_normal_form(a: &Matrix) -> SmithNormalForm {
    presburger_trace::bump(presburger_trace::Counter::SmithNormalFormCalls);
    let rows = a.rows();
    let cols = a.cols();
    let mut d = a.clone();
    let mut u = Matrix::identity(rows);
    let mut v = Matrix::identity(cols);

    let dim = rows.min(cols);
    let mut t = 0;
    while t < dim {
        // Find the entry with the smallest non-zero magnitude in the
        // trailing submatrix; it makes the best pivot.
        let mut pivot: Option<(usize, usize)> = None;
        for i in t..rows {
            for j in t..cols {
                if !d[(i, j)].is_zero()
                    && pivot.is_none_or(|(pi, pj)| d[(i, j)].abs() < d[(pi, pj)].abs())
                {
                    pivot = Some((i, j));
                }
            }
        }
        let Some((pi, pj)) = pivot else { break };
        d.swap_rows(t, pi);
        u.swap_rows(t, pi);
        d.swap_cols(t, pj);
        v.swap_cols(t, pj);

        // Reduce the pivot row and column to zero (outside the pivot).
        let mut dirty = true;
        while dirty {
            dirty = false;
            for i in t + 1..rows {
                if !d[(i, t)].is_zero() {
                    let q = d[(i, t)].div_floor(&d[(t, t)]);
                    d.add_row_multiple(i, t, &-q.clone());
                    u.add_row_multiple(i, t, &-q);
                    if !d[(i, t)].is_zero() {
                        // Remainder became the new, smaller pivot.
                        d.swap_rows(t, i);
                        u.swap_rows(t, i);
                        dirty = true;
                    }
                }
            }
            for j in t + 1..cols {
                if !d[(t, j)].is_zero() {
                    let q = d[(t, j)].div_floor(&d[(t, t)]);
                    d.add_col_multiple(j, t, &-q.clone());
                    v.add_col_multiple(j, t, &-q);
                    if !d[(t, j)].is_zero() {
                        d.swap_cols(t, j);
                        v.swap_cols(t, j);
                        dirty = true;
                    }
                }
            }
        }
        if d[(t, t)].is_negative() {
            d.negate_row(t);
            u.negate_row(t);
        }
        t += 1;
    }

    // Enforce the divisibility chain d[i] | d[i+1].
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..dim.saturating_sub(1) {
            let (di, dj) = (d[(i, i)].clone(), d[(i + 1, i + 1)].clone());
            if di.is_zero() || dj.is_zero() || (&dj % &di).is_zero() {
                continue;
            }
            // Standard trick: add column i+1 to column i, then re-reduce
            // the 2x2 block with row/column operations.
            d.add_col_multiple(i, i + 1, &Int::one());
            v.add_col_multiple(i, i + 1, &Int::one());
            // Re-run the reduction at position i (the block is now
            // non-diagonal); simplest correct approach: full restart of
            // the reduction for the 2x2 block via euclidean steps.
            loop {
                // d[(i+1, i)] is zero; only d[(i,i)] and d[(i, i+1)]=0,
                // d[(i+1, i)] = dj now? After the col op: column i gets
                // column i+1 added: d[(i,i)] stays di (row i col i+1 is 0)
                // and d[(i+1, i)] becomes dj.
                if d[(i + 1, i)].is_zero() {
                    break;
                }
                let q = d[(i + 1, i)].div_floor(&d[(i, i)]);
                d.add_row_multiple(i + 1, i, &-q.clone());
                u.add_row_multiple(i + 1, i, &-q);
                if d[(i + 1, i)].is_zero() {
                    break;
                }
                d.swap_rows(i, i + 1);
                u.swap_rows(i, i + 1);
            }
            // Now clear the fill-in at (i, i+1).
            loop {
                if d[(i, i + 1)].is_zero() {
                    break;
                }
                let q = d[(i, i + 1)].div_floor(&d[(i, i)]);
                d.add_col_multiple(i + 1, i, &-q.clone());
                v.add_col_multiple(i + 1, i, &-q);
                if d[(i, i + 1)].is_zero() {
                    break;
                }
                d.swap_cols(i, i + 1);
                v.swap_cols(i, i + 1);
            }
            if d[(i, i)].is_negative() {
                d.negate_row(i);
                u.negate_row(i);
            }
            if d[(i + 1, i + 1)].is_negative() {
                d.negate_row(i + 1);
                u.negate_row(i + 1);
            }
            changed = true;
        }
    }

    let rank = (0..dim).take_while(|&i| !d[(i, i)].is_zero()).count();
    SmithNormalForm { u, d, v, rank }
}

/// The integer solution set of `A·x = b`: all solutions are
/// `x = particular + basis · t` for integer parameter vectors `t`.
#[derive(Clone, Debug)]
pub struct DiophantineSolution {
    /// One solution of the system.
    pub particular: Vec<Int>,
    /// Basis of the solution lattice of `A·x = 0`, stored as the columns
    /// of an `n x k` matrix (k = dimension of the kernel).
    pub basis: Matrix,
}

/// Solves `A·x = b` over the integers.
///
/// Returns `None` if the system has no integer solution.
///
/// ```
/// use presburger_arith::{Int, Matrix, smith::solve_diophantine};
///
/// // x + 2y = 5, solutions x = 5 - 2t, y = t
/// let a = Matrix::from_i64(1, 2, &[1, 2]);
/// let sol = solve_diophantine(&a, &[Int::from(5)]).unwrap();
/// assert_eq!(a.mul_vec(&sol.particular), vec![Int::from(5)]);
/// assert_eq!(sol.basis.cols(), 1);
/// assert_eq!(a.mul_vec(&sol.basis.col(0)), vec![Int::zero()]);
/// ```
pub fn solve_diophantine(a: &Matrix, b: &[Int]) -> Option<DiophantineSolution> {
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    let n = a.cols();
    let snf = smith_normal_form(a);
    let c = snf.u.mul_vec(b);
    let mut y = vec![Int::zero(); n];
    for (i, ci) in c.iter().enumerate() {
        if i < snf.rank {
            let di = &snf.d[(i, i)];
            if !di.divides(ci) {
                return None;
            }
            y[i] = ci / di;
        } else if !ci.is_zero() {
            return None;
        }
    }
    let particular = snf.v.mul_vec(&y);
    let k = n - snf.rank;
    let mut basis = Matrix::zero(n, k);
    for (idx, j) in (snf.rank..n).enumerate() {
        for i in 0..n {
            basis[(i, idx)] = snf.v[(i, j)].clone();
        }
    }
    Some(DiophantineSolution { particular, basis })
}

/// Computes the (column-style) Hermite normal form `H = A * Q` of `a`,
/// with `Q` unimodular and `H` lower triangular with non-negative
/// entries below positive pivots.
///
/// Returns `(h, q)`.
pub fn hermite_normal_form(a: &Matrix) -> (Matrix, Matrix) {
    let rows = a.rows();
    let cols = a.cols();
    let mut h = a.clone();
    let mut q = Matrix::identity(cols);
    let mut pivot_col = 0;
    for r in 0..rows {
        if pivot_col >= cols {
            break;
        }
        // Euclidean reduction across columns pivot_col..cols on row r.
        loop {
            // Find smallest non-zero |entry| in row r at >= pivot_col.
            let mut best: Option<usize> = None;
            for j in pivot_col..cols {
                if !h[(r, j)].is_zero() && best.is_none_or(|bj| h[(r, j)].abs() < h[(r, bj)].abs())
                {
                    best = Some(j);
                }
            }
            let Some(bj) = best else { break };
            h.swap_cols(pivot_col, bj);
            q.swap_cols(pivot_col, bj);
            let mut any = false;
            for j in pivot_col + 1..cols {
                if !h[(r, j)].is_zero() {
                    let k = -h[(r, j)].div_floor(&h[(r, pivot_col)]);
                    h.add_col_multiple(j, pivot_col, &k);
                    q.add_col_multiple(j, pivot_col, &k);
                    if !h[(r, j)].is_zero() {
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        if h[(r, pivot_col)].is_zero() {
            continue; // row has no pivot; next row reuses this column
        }
        if h[(r, pivot_col)].is_negative() {
            h.negate_col(pivot_col);
            q.negate_col(pivot_col);
        }
        // Reduce the entries to the left of the pivot into [0, pivot).
        for j in 0..pivot_col {
            let k = -h[(r, j)].div_floor(&h[(r, pivot_col)]);
            if !k.is_zero() {
                h.add_col_multiple(j, pivot_col, &k);
                q.add_col_multiple(j, pivot_col, &k);
            }
        }
        pivot_col += 1;
    }
    (h, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check_snf(a: &Matrix) {
        let snf = smith_normal_form(a);
        // U A V == D
        assert_eq!(&(&snf.u * a) * &snf.v, snf.d, "UAV != D for {a:?}");
        // D is diagonal with non-negative entries and divisibility chain.
        for i in 0..snf.d.rows() {
            for j in 0..snf.d.cols() {
                if i != j {
                    assert!(snf.d[(i, j)].is_zero(), "off-diagonal non-zero");
                }
            }
        }
        let dim = snf.d.rows().min(snf.d.cols());
        for i in 0..dim {
            assert!(!snf.d[(i, i)].is_negative());
            if i + 1 < dim && !snf.d[(i, i)].is_zero() && !snf.d[(i + 1, i + 1)].is_zero() {
                assert!(
                    snf.d[(i, i)].divides(&snf.d[(i + 1, i + 1)]),
                    "divisibility chain broken: {:?}",
                    snf.d
                );
            }
            if snf.d[(i, i)].is_zero() && i + 1 < dim {
                assert!(snf.d[(i + 1, i + 1)].is_zero(), "zeros must trail");
            }
        }
    }

    #[test]
    fn snf_small_examples() {
        check_snf(&Matrix::from_i64(2, 2, &[2, 4, 6, 8]));
        check_snf(&Matrix::from_i64(2, 3, &[1, 2, 3, 4, 5, 6]));
        check_snf(&Matrix::from_i64(3, 2, &[0, 0, 0, 0, 0, 0]));
        check_snf(&Matrix::from_i64(1, 1, &[-7]));
        check_snf(&Matrix::from_i64(3, 3, &[2, 0, 0, 0, 3, 0, 0, 0, 5]));
    }

    #[test]
    fn snf_known_diagonal() {
        // classic example: [[2,4,4],[-6,6,12],[10,-4,-16]] has SNF diag(2,6,12)
        let a = Matrix::from_i64(3, 3, &[2, 4, 4, -6, 6, 12, 10, -4, -16]);
        let snf = smith_normal_form(&a);
        assert_eq!(snf.d[(0, 0)], Int::from(2));
        assert_eq!(snf.d[(1, 1)], Int::from(6));
        assert_eq!(snf.d[(2, 2)], Int::from(12));
    }

    #[test]
    fn diophantine_simple() {
        // 6x + 9y = 21 has solutions (2,1)+t(3,-2)
        let a = Matrix::from_i64(1, 2, &[6, 9]);
        let sol = solve_diophantine(&a, &[Int::from(21)]).unwrap();
        assert_eq!(a.mul_vec(&sol.particular), vec![Int::from(21)]);
        assert_eq!(sol.basis.cols(), 1);
        assert_eq!(a.mul_vec(&sol.basis.col(0)), vec![Int::zero()]);
        // The kernel generator must be primitive: (3, -2) up to sign.
        let g = crate::gcd(&sol.basis[(0, 0)], &sol.basis[(1, 0)]);
        assert!(g.is_one());
    }

    #[test]
    fn diophantine_no_solution() {
        // 2x + 4y = 7 has no integer solution
        let a = Matrix::from_i64(1, 2, &[2, 4]);
        assert!(solve_diophantine(&a, &[Int::from(7)]).is_none());
        // inconsistent system: x = 1, x = 2
        let a = Matrix::from_i64(2, 1, &[1, 1]);
        assert!(solve_diophantine(&a, &[Int::from(1), Int::from(2)]).is_none());
    }

    #[test]
    fn diophantine_full_rank_unique() {
        // x + y = 3, x - y = 1 -> unique (2, 1)
        let a = Matrix::from_i64(2, 2, &[1, 1, 1, -1]);
        let sol = solve_diophantine(&a, &[Int::from(3), Int::from(1)]).unwrap();
        assert_eq!(sol.particular, vec![Int::from(2), Int::from(1)]);
        assert_eq!(sol.basis.cols(), 0);
    }

    #[test]
    fn hermite_form_shape() {
        let a = Matrix::from_i64(2, 3, &[4, 7, 2, 0, 0, 3]);
        let (h, q) = hermite_normal_form(&a);
        assert_eq!(&a * &q, h);
        // row 0: pivot at column 0, zeros to its right
        assert!(h[(0, 0)].is_positive());
        assert!(h[(0, 1)].is_zero() && h[(0, 2)].is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn snf_random(entries in proptest::collection::vec(-20i64..20, 6),
                      shape in 0usize..3) {
            let (r, c) = [(2, 3), (3, 2), (1, 6)][shape];
            check_snf(&Matrix::from_i64(r, c, &entries));
        }

        #[test]
        fn diophantine_random_consistent(entries in proptest::collection::vec(-9i64..9, 6),
                                         x in proptest::collection::vec(-9i64..9, 3)) {
            // Build b = A x for a known x, so a solution must exist.
            let a = Matrix::from_i64(2, 3, &entries);
            let xv: Vec<Int> = x.iter().map(|&v| Int::from(v)).collect();
            let b = a.mul_vec(&xv);
            let sol = solve_diophantine(&a, &b).expect("constructed system must be solvable");
            prop_assert_eq!(a.mul_vec(&sol.particular), b.clone());
            for j in 0..sol.basis.cols() {
                let z = a.mul_vec(&sol.basis.col(j));
                prop_assert!(z.iter().all(Int::is_zero));
            }
            // x - particular must lie in the lattice spanned by the basis:
            // verified indirectly by solving D y = U(b) uniquely; here we
            // just re-check that the affine map reproduces b.
        }
    }
}
