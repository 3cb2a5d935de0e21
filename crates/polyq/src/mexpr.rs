//! Min/max/`p(·)` expressions — the answer form of \[HP93a\] and of
//! the paper's rejected alternative (§6: "We have developed a way of
//! introducing min's and max's into the result… the results tend to be
//! much more complicated").
//!
//! [`MExpr`] is a small expression language over integers with `min`,
//! `max` and the positivity indicator `p(x)` (1 if `x > 0`, else 0),
//! plus complexity metrics used by the experiments to compare answer
//! forms against guarded quasi-polynomials.

use presburger_arith::{Int, Rat};
use presburger_omega::{Affine, Space, VarId};

/// An expression over integers with `min`, `max` and the positivity
/// indicator `p(·)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MExpr {
    /// A rational constant.
    Const(Rat),
    /// A variable.
    Var(VarId),
    /// Sum of terms.
    Add(Vec<MExpr>),
    /// Product of factors.
    Mul(Vec<MExpr>),
    /// Binary minimum.
    Min(Box<MExpr>, Box<MExpr>),
    /// Binary maximum.
    Max(Box<MExpr>, Box<MExpr>),
    /// `p(x)`: 1 if `x > 0`, else 0.
    Pos(Box<MExpr>),
}

impl MExpr {
    /// Integer constant helper.
    pub fn int(v: i64) -> MExpr {
        MExpr::Const(Rat::from(v))
    }

    /// Converts an affine expression.
    pub fn from_affine(e: &Affine) -> MExpr {
        let mut terms = vec![MExpr::Const(Rat::from(e.constant_term().clone()))];
        for (v, c) in e.iter() {
            terms.push(MExpr::Mul(vec![
                MExpr::Const(Rat::from(c.clone())),
                MExpr::Var(v),
            ]));
        }
        MExpr::Add(terms)
    }

    /// Binary minimum helper.
    pub fn min2(a: MExpr, b: MExpr) -> MExpr {
        MExpr::Min(Box::new(a), Box::new(b))
    }

    /// Binary maximum helper.
    pub fn max2(a: MExpr, b: MExpr) -> MExpr {
        MExpr::Max(Box::new(a), Box::new(b))
    }

    /// The positivity guard `p(x)`.
    pub fn pos(x: MExpr) -> MExpr {
        MExpr::Pos(Box::new(x))
    }

    /// Evaluates the expression at a concrete point.
    pub fn eval(&self, assign: &dyn Fn(VarId) -> Int) -> Rat {
        match self {
            MExpr::Const(c) => c.clone(),
            MExpr::Var(v) => Rat::from(assign(*v)),
            MExpr::Add(ts) => ts.iter().map(|t| t.eval(assign)).sum(),
            MExpr::Mul(ts) => ts.iter().fold(Rat::one(), |acc, t| acc * t.eval(assign)),
            MExpr::Min(a, b) => a.eval(assign).min(b.eval(assign)),
            MExpr::Max(a, b) => a.eval(assign).max(b.eval(assign)),
            MExpr::Pos(x) => {
                if x.eval(assign).is_positive() {
                    Rat::one()
                } else {
                    Rat::zero()
                }
            }
        }
    }

    /// Number of nodes — a proxy for expression complexity.
    pub fn size(&self) -> usize {
        1 + match self {
            MExpr::Const(_) | MExpr::Var(_) => 0,
            MExpr::Add(ts) | MExpr::Mul(ts) => ts.iter().map(MExpr::size).sum(),
            MExpr::Min(a, b) | MExpr::Max(a, b) => a.size() + b.size(),
            MExpr::Pos(x) => x.size(),
        }
    }

    /// Number of `min`/`max`/`p` operators — the paper's qualitative
    /// complaint about this answer form.
    pub fn minmax_count(&self) -> usize {
        match self {
            MExpr::Const(_) | MExpr::Var(_) => 0,
            MExpr::Add(ts) | MExpr::Mul(ts) => ts.iter().map(MExpr::minmax_count).sum(),
            MExpr::Min(a, b) | MExpr::Max(a, b) => 1 + a.minmax_count() + b.minmax_count(),
            MExpr::Pos(x) => 1 + x.minmax_count(),
        }
    }

    /// Renders the expression with names from `space`.
    pub fn to_string(&self, space: &Space) -> String {
        match self {
            MExpr::Const(c) => c.to_string(),
            MExpr::Var(v) => space.name(*v).to_string(),
            MExpr::Add(ts) => {
                let parts: Vec<String> = ts.iter().map(|t| t.to_string(space)).collect();
                format!("({})", parts.join(" + "))
            }
            MExpr::Mul(ts) => {
                let parts: Vec<String> = ts.iter().map(|t| t.to_string(space)).collect();
                parts.join("·")
            }
            MExpr::Min(a, b) => format!("min({}, {})", a.to_string(space), b.to_string(space)),
            MExpr::Max(a, b) => format!("max({}, {})", a.to_string(space), b.to_string(space)),
            MExpr::Pos(x) => format!("p({})", x.to_string(space)),
        }
    }
}

/// The Faulhaber polynomial `Fₖ` evaluated at an [`MExpr`] argument.
pub fn faulhaber_mexpr(k: u32, at: &MExpr) -> MExpr {
    let mut terms = Vec::new();
    for (p, c) in crate::faulhaber::power_sum_coeffs(k)
        .into_iter()
        .enumerate()
    {
        if c.is_zero() {
            continue;
        }
        let mut fac = vec![MExpr::Const(c)];
        for _ in 0..p {
            fac.push(at.clone());
        }
        terms.push(MExpr::Mul(fac));
    }
    if terms.is_empty() {
        MExpr::int(0)
    } else {
        MExpr::Add(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_and_eval() {
        let e = MExpr::min2(MExpr::int(3), MExpr::max2(MExpr::int(1), MExpr::int(2)));
        assert_eq!(e.minmax_count(), 2);
        assert_eq!(e.size(), 5);
        assert_eq!(e.eval(&|_| Int::zero()), Rat::from(2));
    }

    #[test]
    fn from_affine_matches() {
        let mut s = Space::new();
        let n = s.var("n");
        let e = MExpr::from_affine(&Affine::from_terms(&[(n, 3)], -4));
        for nv in -5i64..=5 {
            assert_eq!(e.eval(&|_| Int::from(nv)), Rat::from(3 * nv - 4));
        }
    }

    #[test]
    fn faulhaber_at_min() {
        let mut s = Space::new();
        let n = s.var("n");
        // F_2(min(n, 3)) = sum of squares up to min(n, 3)
        let at = MExpr::min2(MExpr::Var(n), MExpr::int(3));
        let f = faulhaber_mexpr(2, &at);
        for nv in 0i64..=6 {
            let top = nv.min(3);
            let brute: i64 = (1..=top).map(|x| x * x).sum();
            assert_eq!(f.eval(&|_| Int::from(nv)), Rat::from(brute), "n={nv}");
        }
    }

    #[test]
    fn pos_guard() {
        let mut s = Space::new();
        let n = s.var("n");
        let e = MExpr::pos(MExpr::Var(n));
        assert_eq!(e.eval(&|_| Int::from(5)), Rat::one());
        assert_eq!(e.eval(&|_| Int::from(0)), Rat::zero());
        assert_eq!(e.eval(&|_| Int::from(-2)), Rat::zero());
    }

    #[test]
    fn display() {
        let mut s = Space::new();
        let n = s.var("n");
        let e = MExpr::pos(MExpr::min2(MExpr::Var(n), MExpr::int(3)));
        assert_eq!(e.to_string(&s), "p(min(n, 3))");
    }
}
