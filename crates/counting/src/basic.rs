//! Simple and basic sums (§4.1–§4.2) as a standalone API.
//!
//! These are the building blocks the convex engine uses internally,
//! exposed directly for callers that just need `Σ_{i=L}^{U} iᵖ` with
//! affine bounds, in both of the forms the paper discusses:
//!
//! * [`simple_sum`] — §4.1's `(Σ i : 1 ≤ i ≤ n : iᵖ)` with guard
//!   `1 ≤ n`;
//! * [`basic_sum`] — §4.2's general bounds via the four-piece
//!   decomposition (each piece reduces to a simple sum over `1..k`);
//! * [`basic_sum_telescoped`] — the telescoped equivalent this
//!   implementation prefers (one piece, guard `L ≤ U`).
//!
//! The two general forms are algebraically identical under their
//! guards; the property tests below verify this, and ablation A1 in
//! the bench crate measures the difference in piece count.

use presburger_arith::{Int, Rat};
use presburger_omega::{Affine, Conjunct, VarId};
use presburger_polyq::faulhaber::{power_sum, power_sum_at, sum_powers};
use presburger_polyq::{GuardedValue, QPoly};

/// §4.1: `(Σ i : 1 ≤ i ≤ n : iᵖ)` — a Faulhaber polynomial guarded by
/// `1 ≤ n`.
///
/// ```
/// use presburger_omega::Space;
/// use presburger_counting::basic::simple_sum;
///
/// let mut s = Space::new();
/// let n = s.var("n");
/// let v = simple_sum(2, n);
/// assert_eq!(v.eval_i64(&s, &[("n", 4)]), Some(30));
/// assert_eq!(v.eval_i64(&s, &[("n", -3)]), Some(0)); // guarded
/// ```
pub fn simple_sum(p: u32, n: VarId) -> GuardedValue {
    let mut guard = Conjunct::new();
    guard.add_geq(Affine::from_terms(&[(n, 1)], -1)); // n >= 1
    GuardedValue::piece(guard, power_sum(p, n))
}

/// §4.2: `Σ_{i=L}^{U} iᵖ` for arbitrary affine bounds, via the paper's
/// four-piece decomposition. Every piece's guard is affine; the pieces
/// overlap additively (they are contributions, not cases).
pub fn basic_sum(p: u32, lower: &Affine, upper: &Affine) -> GuardedValue {
    let nonempty = upper - lower; // U − L ≥ 0
    let mut out = GuardedValue::zero();
    if p == 0 {
        // count: U − L + 1
        let mut g = Conjunct::new();
        g.add_geq(nonempty);
        let mut range = upper - lower;
        range.add_constant(&Int::one());
        out.push(g, QPoly::from_affine(&range));
        return out;
    }
    let f_at = |x: QPoly| power_sum_at(p, &x);
    let sign = if p.is_multiple_of(2) {
        Rat::one()
    } else {
        -Rat::one()
    };
    let u = QPoly::from_affine(upper);
    let l = QPoly::from_affine(lower);
    // (Σ 1≤i≤U) when U ≥ 1
    {
        let mut g = Conjunct::new();
        g.add_geq(nonempty.clone());
        let mut e = upper.clone();
        e.add_constant(&Int::from(-1));
        g.add_geq(e);
        out.push(g, f_at(u.clone()));
    }
    // −(Σ 1≤i≤L−1) when L ≥ 2
    {
        let mut g = Conjunct::new();
        g.add_geq(nonempty.clone());
        let mut e = lower.clone();
        e.add_constant(&Int::from(-2));
        g.add_geq(e);
        out.push(g, -f_at(l.clone() - QPoly::one()));
    }
    // +(−1)ᵖ(Σ 1≤i≤−L) when L ≤ −1
    {
        let mut g = Conjunct::new();
        g.add_geq(nonempty.clone());
        let mut e = -lower;
        e.add_constant(&Int::from(-1));
        g.add_geq(e);
        out.push(g, f_at(-l).scale(&sign));
    }
    // −(−1)ᵖ(Σ 1≤i≤−U−1) when U ≤ −2
    {
        let mut g = Conjunct::new();
        g.add_geq(nonempty);
        let mut e = -upper;
        e.add_constant(&Int::from(-2));
        g.add_geq(e);
        out.push(g, -f_at(-u - QPoly::one()).scale(&sign));
    }
    out
}

/// The telescoped form of [`basic_sum`]: one piece
/// `Fₚ(U) − Fₚ(L−1)` guarded by `L ≤ U` (valid for negative bounds too
/// because `Fₚ(n) − Fₚ(n−1) = nᵖ` is a polynomial identity).
pub fn basic_sum_telescoped(p: u32, lower: &Affine, upper: &Affine) -> GuardedValue {
    let mut g = Conjunct::new();
    g.add_geq(upper - lower);
    let value = sum_powers(p, &QPoly::from_affine(lower), &QPoly::from_affine(upper));
    GuardedValue::piece(g, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presburger_omega::Space;
    use proptest::prelude::*;

    fn brute(p: u32, l: i64, u: i64) -> i128 {
        (l as i128..=u as i128).map(|i| i.pow(p)).sum()
    }

    #[test]
    fn simple_sums_match_paper_table() {
        // §4.1 example: Σ i² = n(n+1)(2n+1)/6 guarded by 1 ≤ n
        let mut s = Space::new();
        let n = s.var("n");
        let v = simple_sum(2, n);
        assert_eq!(v.eval_i64(&s, &[("n", 10)]), Some(385));
        assert_eq!(v.eval_i64(&s, &[("n", 0)]), Some(0));
        assert_eq!(v.pieces().len(), 1);
    }

    #[test]
    fn four_piece_concrete() {
        let mut s = Space::new();
        let l = s.var("l");
        let u = s.var("u");
        for p in 0..=4u32 {
            let v = basic_sum(p, &Affine::var(l), &Affine::var(u));
            for lv in -5i64..=5 {
                for uv in -5i64..=5 {
                    let expected = if lv <= uv { brute(p, lv, uv) } else { 0 };
                    let got = v.eval(&s, &|w| {
                        if w == l {
                            Int::from(lv)
                        } else {
                            Int::from(uv)
                        }
                    });
                    assert_eq!(got, Rat::from(Int::from(expected)), "p={p} L={lv} U={uv}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn four_piece_equals_telescoped(p in 0u32..=5, lv in -20i64..20, uv in -20i64..20) {
            let mut s = Space::new();
            let l = s.var("l");
            let u = s.var("u");
            let four = basic_sum(p, &Affine::var(l), &Affine::var(u));
            let tele = basic_sum_telescoped(p, &Affine::var(l), &Affine::var(u));
            let assign = |w: VarId| if w == l { Int::from(lv) } else { Int::from(uv) };
            prop_assert_eq!(four.eval(&s, &assign), tele.eval(&s, &assign));
        }
    }

    #[test]
    fn piece_counts() {
        let mut s = Space::new();
        let l = s.var("l");
        let u = s.var("u");
        let four = basic_sum(3, &Affine::var(l), &Affine::var(u));
        let tele = basic_sum_telescoped(3, &Affine::var(l), &Affine::var(u));
        assert_eq!(four.pieces().len(), 4);
        assert_eq!(tele.pieces().len(), 1);
    }
}
