//! Faulhaber power-sum formulas (§4.1).
//!
//! `power_sum(p, n)` returns the polynomial `Fₚ(n) = Σ_{i=1}^{n} iᵖ`.
//! Because `Fₚ(n) − Fₚ(n−1) = nᵖ` is a *polynomial identity*, the
//! telescoped form `Fₚ(U) − Fₚ(L−1)` equals `Σ_{i=L}^{U} iᵖ` for **any**
//! integers `L ≤ U`, including negative bounds — which is why the
//! summation engine can use it directly instead of the paper's §4.2
//! four-piece decomposition (kept in `presburger-counting` as an
//! alternate, property-tested path).
//!
//! The paper hard-codes formulas for `p ≤ 10`; we compute them for any
//! `p ≤ 32` from the recurrence
//! `(n+1)^{p+1} − 1 = Σ_{j=0}^{p} C(p+1, j)·Fⱼ(n)`.

use crate::qpoly::QPoly;
use presburger_arith::{Int, Rat};
use presburger_omega::VarId;

/// Maximum supported exponent.
pub const MAX_POWER: u32 = 32;

/// Binomial coefficient `C(n, k)` as an exact integer.
///
/// ```
/// use presburger_polyq::faulhaber::binomial;
/// assert_eq!(binomial(10, 3), presburger_arith::Int::from(120));
/// ```
pub fn binomial(n: u32, k: u32) -> Int {
    if k > n {
        return Int::zero();
    }
    let k = k.min(n - k);
    let mut num = Int::one();
    let mut den = Int::one();
    for i in 0..k {
        num = num * Int::from(n - i);
        den = den * Int::from(i + 1);
    }
    num / den
}

/// The polynomial `Fₚ(v) = Σ_{i=1}^{v} iᵖ` in the variable `v`.
///
/// `F₀(v) = v`, `F₁(v) = v(v+1)/2`, `F₂(v) = v(v+1)(2v+1)/6`, …
///
/// ```
/// use presburger_arith::{Int, Rat};
/// use presburger_omega::Space;
/// use presburger_polyq::faulhaber::power_sum;
///
/// let mut s = Space::new();
/// let n = s.var("n");
/// let f2 = power_sum(2, n);
/// // 1 + 4 + 9 + 16 = 30
/// assert_eq!(f2.eval(&|_| Int::from(4)), Rat::from(30));
/// ```
///
/// # Panics
///
/// Panics if `p > MAX_POWER`.
pub fn power_sum(p: u32, v: VarId) -> QPoly {
    assert!(p <= MAX_POWER, "power sum exponent {p} exceeds {MAX_POWER}");
    // Compute F_0 .. F_p by the recurrence
    //   (n+1)^{p+1} - 1 = sum_{j=0}^{p} C(p+1, j) F_j(n)
    // => F_p = [ (n+1)^{p+1} - 1 - sum_{j<p} C(p+1,j) F_j ] / (p+1)
    let n = QPoly::var(v);
    let n_plus_1 = n.clone() + QPoly::one();
    let mut fs: Vec<QPoly> = Vec::with_capacity(p as usize + 1);
    for q in 0..=p {
        // (n+1)^{q+1} - 1
        let mut lhs = QPoly::one();
        for _ in 0..=q {
            lhs = lhs * n_plus_1.clone();
        }
        lhs = lhs - QPoly::one();
        for (j, fj) in fs.iter().enumerate() {
            let c = Rat::from(binomial(q + 1, j as u32));
            lhs = lhs - fj.scale(&c);
        }
        fs.push(lhs.scale(&Rat::new(Int::one(), Int::from(q + 1))));
    }
    fs.pop().unwrap()
}

/// `Σ_{i=L}^{U} iᵖ` as a polynomial in whatever `lower` and `upper`
/// mention: `Fₚ(U) − Fₚ(L−1)`.
///
/// The result is correct whenever `L ≤ U` (the caller guards the sum);
/// bounds may be arbitrary polynomials (e.g. containing mod atoms).
pub fn sum_powers(p: u32, lower: &QPoly, upper: &QPoly, scratch: VarId) -> QPoly {
    presburger_trace::bump(match p {
        0 => presburger_trace::Counter::FaulhaberDeg0,
        1 => presburger_trace::Counter::FaulhaberDeg1,
        2 => presburger_trace::Counter::FaulhaberDeg2,
        3 => presburger_trace::Counter::FaulhaberDeg3,
        _ => presburger_trace::Counter::FaulhaberDegHi,
    });
    let f = power_sum(p, scratch);
    let at_upper = f.substitute(scratch, upper);
    let lm1 = lower.clone() - QPoly::one();
    let at_lower = f.substitute(scratch, &lm1);
    at_upper - at_lower
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_omega::Space;

    #[test]
    fn binomials() {
        assert_eq!(binomial(0, 0), Int::one());
        assert_eq!(binomial(5, 0), Int::one());
        assert_eq!(binomial(5, 5), Int::one());
        assert_eq!(binomial(5, 2), Int::from(10));
        assert_eq!(binomial(3, 7), Int::zero());
        assert_eq!(binomial(30, 15), Int::from(155117520));
    }

    #[test]
    fn known_formulas() {
        let mut s = Space::new();
        let n = s.var("n");
        // F_1(n) = n(n+1)/2
        let f1 = power_sum(1, n);
        let expect = (QPoly::var(n) * (QPoly::var(n) + QPoly::one()))
            .scale(&Rat::new(Int::one(), Int::from(2)));
        assert_eq!(f1, expect);
        // F_3(10) = (55)^2 = 3025
        let f3 = power_sum(3, n);
        assert_eq!(f3.eval(&|_| Int::from(10)), Rat::from(3025));
    }

    #[test]
    fn matches_brute_force_up_to_p10() {
        let mut s = Space::new();
        let n = s.var("n");
        for p in 0..=10u32 {
            let f = power_sum(p, n);
            for nv in 0i64..=12 {
                let brute: i128 = (1..=nv as i128).map(|i| i.pow(p)).sum();
                assert_eq!(
                    f.eval(&|_| Int::from(nv)),
                    Rat::from(Int::from(brute)),
                    "p={p} n={nv}"
                );
            }
        }
    }

    #[test]
    fn telescoping_handles_negative_bounds() {
        let mut s = Space::new();
        let scratch = s.var("t");
        for p in 0..=4u32 {
            for l in -6i64..=6 {
                for u in l..=6 {
                    let lp = QPoly::constant(Rat::from(l));
                    let up = QPoly::constant(Rat::from(u));
                    let val = sum_powers(p, &lp, &up, scratch)
                        .as_constant()
                        .expect("constant");
                    let brute: i128 = (l as i128..=u as i128).map(|i| i.pow(p)).sum();
                    assert_eq!(val, Rat::from(Int::from(brute)), "p={p} L={l} U={u}");
                }
            }
        }
    }

    #[test]
    fn polynomial_identity_fp_difference() {
        // F_p(n) - F_p(n-1) == n^p as polynomials
        let mut s = Space::new();
        let n = s.var("n");
        for p in 0..=6u32 {
            let f = power_sum(p, n);
            let shifted = f.substitute(n, &(QPoly::var(n) - QPoly::one()));
            let mut npow = QPoly::one();
            for _ in 0..p {
                npow = npow * QPoly::var(n);
            }
            assert_eq!(f.clone() - shifted, npow, "p={p}");
        }
    }

    #[test]
    fn high_power_is_exact() {
        let mut s = Space::new();
        let n = s.var("n");
        let f = power_sum(20, n);
        let brute: i128 = (1..=8i128).map(|i| i.pow(20)).sum();
        assert_eq!(f.eval(&|_| Int::from(8)), Rat::from(Int::from(brute)));
    }
}
