//! The Omega test (§2): integer linear constraint manipulation for the
//! `presburger` workspace.
//!
//! This crate implements the constraint substrate of Pugh's *Counting
//! Solutions to Presburger Formulas* (PLDI 1994):
//!
//! * [`Space`] / [`VarId`] — variable interning;
//! * [`Affine`] — affine integer expressions;
//! * [`Formula`] — the Presburger AST with [`Desugar`] for floors,
//!   ceilings and mods (§3);
//! * [`Conjunct`] — conjunctions with wildcards and strides (the
//!   stride/projected formats of §2.1);
//! * [`eliminate`](eliminate::eliminate) — real/dark shadow and exact
//!   splintered elimination, overlapping and disjoint (Fig. 1, §5.2);
//! * [`feasible`](feasible::is_feasible) — the complete integer
//!   satisfiability test (§2.2);
//! * [`redundant`] — redundant-constraint removal, `gist`, implication
//!   verification (§2.3–§2.4);
//! * [`dnf`](dnf::simplify) — simplification of arbitrary formulas to
//!   (disjoint) DNF (§2.5–§2.6, §5.3);
//! * [`hull`] — uniformly-generated-set summarization (§5.1);
//! * [`parse_formula`] — a text syntax for formulas, in the spirit of
//!   the Omega project's calculator.
//!
//! # Example
//!
//! ```
//! use presburger_omega::{Affine, Formula, Space};
//! use presburger_omega::dnf::{simplify, SimplifyOptions};
//!
//! let mut s = Space::new();
//! let x = s.var("x");
//! let y = s.var("y");
//! // ∃y : x = 2y ∧ 1 ≤ y ≤ 4   —   the even numbers 2..=8
//! let f = Formula::exists(vec![y], Formula::and(vec![
//!     Formula::eq(Affine::var(x), Affine::term(y, 2)),
//!     Formula::between(Affine::constant(1), y, Affine::constant(4)),
//! ]));
//! let d = simplify(&f, &mut s, &SimplifyOptions::default());
//! assert!(d.contains_point(&s, &|_| presburger_arith::Int::from(6)));
//! assert!(!d.contains_point(&s, &|_| presburger_arith::Int::from(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affine;
mod conjunct;
pub mod disjoint;
pub mod dnf;
pub mod eliminate;
pub mod eqelim;
pub mod feasible;
mod formula;
pub mod hull;
pub mod intern;
mod parse;
pub mod redundant;
mod space;

pub use affine::Affine;
pub use conjunct::{Bound, Conjunct};
pub use dnf::{Dnf, SimplifyOptions};
pub use formula::{Constraint, Desugar, Formula};
pub use parse::{parse_affine, parse_formula, ParseError, ParseFormulaError};
pub use space::{Point, Space, VarId};
