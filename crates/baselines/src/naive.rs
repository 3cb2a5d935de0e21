//! Naive computer-algebra summation (§1).
//!
//! Symbolic math packages of the paper's era (Mathematica, Maple)
//! computed nested sums by telescoping **assuming every summation is
//! non-empty**. The paper's opening example: they report
//!
//! ```text
//! Σ_{i=1}^{n} Σ_{j=i}^{m} 1  =  n(2m − n + 1)/2
//! ```
//!
//! which is correct only when `1 ≤ n ≤ m`; for `1 ≤ m < n` the true
//! answer is `m(m+1)/2`. This module reproduces the naive behaviour so
//! the experiments can quantify exactly where it goes wrong.

use presburger_omega::{Affine, Space, VarId};
use presburger_polyq::QPoly;

/// One summation level: `Σ_{var = lower}^{upper}` (single bounds, as a
/// CAS would require).
#[derive(Clone, Debug)]
pub struct SumSpec {
    /// Summation variable.
    pub var: VarId,
    /// Lower bound expression.
    pub lower: Affine,
    /// Upper bound expression.
    pub upper: Affine,
}

/// Computes the nested sum naively: innermost first (the order given),
/// telescoping without emptiness guards.
///
/// The result is a plain polynomial — *not* guarded — and is incorrect
/// whenever some inner range is empty for part of the outer range.
///
/// ```
/// use presburger_arith::{Int, Rat};
/// use presburger_baselines::naive::{naive_sum, SumSpec};
/// use presburger_omega::{Affine, Space};
/// use presburger_polyq::QPoly;
///
/// let mut s = Space::new();
/// let i = s.var("i");
/// let n = s.var("n");
/// let spec = vec![SumSpec { var: i, lower: Affine::constant(1), upper: Affine::var(n) }];
/// let p = naive_sum(&spec, &QPoly::one());
/// assert_eq!(p.eval(&|_| Int::from(10)), Rat::from(10));
/// // …but for n = -5 the naive answer is -5, not 0:
/// assert_eq!(p.eval(&|_| Int::from(-5)), Rat::from(-5));
/// ```
pub fn naive_sum(levels: &[SumSpec], z: &QPoly) -> QPoly {
    let mut acc = z.clone();
    for level in levels {
        let coeffs = acc.coefficients_in(level.var);
        let lower = QPoly::from_affine(&level.lower);
        let upper = QPoly::from_affine(&level.upper);
        acc = presburger_polyq::faulhaber::telescope(&coeffs, &lower, &upper);
    }
    acc
}

/// The paper's intro example, packaged for the experiments:
/// `Σ_{i=1}^{n} Σ_{j=i}^{m} 1` computed naively.
pub fn intro_example(space: &mut Space) -> (QPoly, VarId, VarId) {
    let i = space.var("i");
    let j = space.var("j");
    let n = space.var("n");
    let m = space.var("m");
    let levels = vec![
        SumSpec {
            var: j,
            lower: Affine::var(i),
            upper: Affine::var(m),
        },
        SumSpec {
            var: i,
            lower: Affine::constant(1),
            upper: Affine::var(n),
        },
    ];
    (naive_sum(&levels, &QPoly::one()), n, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_arith::{Int, Rat};

    #[test]
    fn intro_matches_mathematica_formula() {
        // naive answer: n(2m − n + 1)/2 for ALL n, m
        let mut s = Space::new();
        let (p, n, _m) = intro_example(&mut s);
        for nv in -3i64..=8 {
            for mv in -3i64..=8 {
                let formula = Rat::new(Int::from(nv * (2 * mv - nv + 1)), Int::from(2));
                let got = p.eval(&|v| if v == n { Int::from(nv) } else { Int::from(mv) });
                assert_eq!(got, formula, "n={nv} m={mv}");
            }
        }
    }

    #[test]
    fn intro_correct_only_when_ranges_nonempty() {
        let mut s = Space::new();
        let (p, n, _m) = intro_example(&mut s);
        let brute = |nv: i64, mv: i64| -> i64 { (1..=nv).map(|iv| (iv..=mv).count() as i64).sum() };
        // correct when 1 ≤ n ≤ m
        for (nv, mv) in [(1, 1), (2, 5), (5, 5), (3, 9)] {
            assert_eq!(
                p.eval(&|v| if v == n { Int::from(nv) } else { Int::from(mv) }),
                Rat::from(brute(nv, mv)),
                "n={nv} m={mv} should be correct"
            );
        }
        // WRONG when m < n (the paper's point): true = m(m+1)/2
        let (nv, mv) = (5i64, 2i64);
        let naive = p.eval(&|v| if v == n { Int::from(nv) } else { Int::from(mv) });
        assert_ne!(naive, Rat::from(brute(nv, mv)));
        assert_eq!(brute(nv, mv), mv * (mv + 1) / 2);
    }
}
