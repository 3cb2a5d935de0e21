//! The clause loop: sums the clauses of a disjoint DNF one after
//! another, in clause order, on the caller's [`Space`].
//!
//! §4.5.1's disjoint DNF makes each clause summable on its own, and the
//! per-clause sums simply add. Two things still need the clause
//! boundary, both for §4.6 per-clause degrading ([`crate::govern`]):
//!
//! - each clause runs under its own [`std::panic::catch_unwind`], and
//!   in a governed run inside its own governed region
//!   ([`Runtime::enter_task`]), so a budget
//!   [trip](presburger_trace::govern::trip) or a panic is charged to
//!   one clause and surfaces as that clause's [`CountError`];
//! - every clause runs even when an earlier one failed, and the results
//!   come back in clause order, so the governed merge can re-sum the
//!   failed clauses under the §4.6 bound modes.
//!
//! Fresh variables a clause interns go into the caller's space, and
//! the feasibility test's witness pool carries over from one clause to
//! the next.

use crate::govern::{error_from_panic, Runtime};
use crate::projected::{sum_clause, Ctx};
use crate::{CountError, CountOptions};
use presburger_omega::{Conjunct, Space, VarId};
use presburger_polyq::{GuardedValue, QPoly};
use presburger_trace as trace;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What summing one clause produced: the clause (kept so a governed run
/// can re-sum it under §4.6 bound modes) and the result.
pub(crate) struct ClauseOutcome {
    pub(crate) clause: Conjunct,
    pub(crate) result: Result<GuardedValue, CountError>,
}

/// Sums `z` over each clause in turn and returns the per-clause
/// outcomes in clause order. The clauses must be pairwise disjoint (the
/// caller obtains them from `SimplifyOptions::disjoint()`). With
/// `gov: Some(..)` each clause runs in a governed region of its own, so
/// budget trips are charged per clause.
pub(crate) fn sum_clauses(
    clauses: Vec<Conjunct>,
    vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
    opts: &CountOptions,
    gov: Option<&Runtime>,
) -> Vec<ClauseOutcome> {
    clauses
        .into_iter()
        .enumerate()
        .map(|(seq, clause)| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _g = gov.map(Runtime::enter_task);
                let _span = trace::span_dyn(|| format!("clause #{seq}"));
                sum_clause(&clause, vars, z, &mut Ctx::new(space, opts))
            }))
            .unwrap_or_else(|payload| Err(error_from_panic(payload)));
            ClauseOutcome { clause, result }
        })
        .collect()
}
