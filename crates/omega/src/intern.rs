//! Canonical key bytes for formulas.
//!
//! [`formula_push_key_bytes`] encodes a parsed formula as a byte string
//! that is equal for two formulas exactly when they are structurally
//! equal (DESIGN.md §13). The serving layer keys its result cache and
//! hashes shard routing on these bytes. They name variables by raw
//! `VarId` index, so they are stable across threads and processes.

use crate::formula::{Constraint, Formula};

/// Does nothing: there is no interning arena any more. Removed with
/// ROADMAP item 5's benchmark change.
pub fn clear() {}

/// Appends a canonical byte encoding of `f` to `out`: a tag per node,
/// children length-prefixed, atoms via the affine/Int encoders, and
/// quantifier binders as raw `VarId` indices. Injective over formulas
/// in the same space, stable across threads and processes.
pub fn formula_push_key_bytes(f: &Formula, out: &mut Vec<u8>) {
    match f {
        Formula::True => out.push(0),
        Formula::False => out.push(1),
        Formula::Atom(c) => {
            out.push(2);
            constraint_push_key_bytes(c, out);
        }
        Formula::And(parts) => {
            out.push(3);
            out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
            for p in parts {
                formula_push_key_bytes(p, out);
            }
        }
        Formula::Or(parts) => {
            out.push(4);
            out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
            for p in parts {
                formula_push_key_bytes(p, out);
            }
        }
        Formula::Not(p) => {
            out.push(5);
            formula_push_key_bytes(p, out);
        }
        Formula::Exists(vs, p) => {
            out.push(6);
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                out.extend_from_slice(&(v.index() as u32).to_le_bytes());
            }
            formula_push_key_bytes(p, out);
        }
        Formula::Forall(vs, p) => {
            out.push(7);
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                out.extend_from_slice(&(v.index() as u32).to_le_bytes());
            }
            formula_push_key_bytes(p, out);
        }
    }
}

/// Appends a canonical byte encoding of an atomic constraint.
pub fn constraint_push_key_bytes(c: &Constraint, out: &mut Vec<u8>) {
    match c {
        Constraint::Ge(e) => {
            out.push(0);
            e.push_key_bytes(out);
        }
        Constraint::Eq(e) => {
            out.push(1);
            e.push_key_bytes(out);
        }
        Constraint::Stride(m, e) => {
            out.push(2);
            m.push_key_bytes(out);
            e.push_key_bytes(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use crate::space::Space;
    use proptest::prelude::*;

    fn affine_of(pairs: &[(u32, i64)], c: i64, s: &mut Space) -> Affine {
        let vars: Vec<_> = (0..8).map(|i| s.var(&format!("x{i}"))).collect();
        let terms: Vec<_> = pairs
            .iter()
            .map(|&(v, k)| (vars[v as usize % 8], k))
            .collect();
        Affine::from_terms(&terms, c)
    }

    #[test]
    fn formula_keys_distinguish_structure() {
        let mut s = Space::new();
        let x = s.var("x");
        let atom = Formula::ge(Affine::var(x));
        let enc = |f: &Formula| {
            let mut b = Vec::new();
            formula_push_key_bytes(f, &mut b);
            b
        };
        let and = Formula::and(vec![atom.clone(), atom.clone()]);
        let or = Formula::or(vec![atom.clone(), atom.clone()]);
        assert_ne!(enc(&and), enc(&or), "And/Or tags differ");
        assert_eq!(enc(&and), enc(&and.clone()));
        let not = Formula::Not(Box::new(atom.clone()));
        assert_ne!(enc(&atom), enc(&not));
    }

    proptest! {
        /// Constraint keys are canonical: equal bytes iff the terms are
        /// structurally equal.
        #[test]
        fn constraint_keys_are_injective(
            a in proptest::collection::vec((0u32..8, -9i64..9), 0..5),
            ca in -20i64..20,
            b in proptest::collection::vec((0u32..8, -9i64..9), 0..5),
            cb in -20i64..20)
        {
            let mut s = Space::new();
            let ea = affine_of(&a, ca, &mut s);
            let mut s2 = Space::new();
            let eb = affine_of(&b, cb, &mut s2);
            let enc = |e: &Affine| {
                let mut out = Vec::new();
                constraint_push_key_bytes(&Constraint::Ge(e.clone()), &mut out);
                out
            };
            prop_assert_eq!(enc(&ea) == enc(&eb), ea == eb);
        }
    }
}
