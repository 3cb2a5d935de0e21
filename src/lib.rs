//! Facade crate for the presburger-counting workspace.
//!
//! Re-exports the public API of every sub-crate so that downstream users
//! (and the examples/integration tests in this repository) can depend on
//! a single crate:
//!
//! * [`arith`] — exact integers, rationals, lattice linear algebra;
//! * [`omega`] — the Omega test: simplification, projection, disjoint DNF;
//! * [`polyq`] — quasi-polynomials and guarded piecewise values;
//! * [`counting`] — symbolic counting and summation (the paper's core);
//! * [`apps`] — compiler-analysis applications (loop nests, cache, HPF);
//! * [`baselines`] — the algorithms the paper compares against;
//! * [`gen`] — generative differential testing: random-formula
//!   generation, multi-oracle cross-checks, shrinking, seed corpus;
//! * [`trace`] — zero-dependency observability: pipeline counters,
//!   timing spans, human-readable `explain` derivations, and
//!   request-scoped metrics (log-bucketed histograms with Prometheus
//!   text exposition);
//! * [`serve`] — a hardened request-serving layer: admission control,
//!   load shedding, circuit breaking, result caching, graceful drain,
//!   and per-request telemetry with a slow-request flight recorder.
//!
//! # Quickstart
//!
//! Count the iterations of the triangular loop
//! `for i in 1..=n { for j in i..=n { ... } }` symbolically:
//!
//! ```
//! use presburger::prelude::*;
//!
//! let mut space = Space::new();
//! let n = space.symbol("n");
//! let i = space.var("i");
//! let j = space.var("j");
//! let f = Formula::and(vec![
//!     Formula::ge(Affine::var(i) - Affine::constant(1)),           // 1 <= i
//!     Formula::ge(Affine::var(j) - Affine::var(i)),                // i <= j
//!     Formula::ge(Affine::var(n) - Affine::var(j)),                // j <= n
//! ]);
//! let count = count_solutions(&space, &f, &[i, j]);
//! // n*(n+1)/2 when n >= 1
//! assert_eq!(count.eval_i64(&[("n", 10)]).unwrap(), 55);
//! assert_eq!(count.eval_i64(&[("n", 0)]).unwrap(), 0);
//! ```

pub use presburger_apps as apps;
pub use presburger_arith as arith;
pub use presburger_baselines as baselines;
pub use presburger_counting as counting;
pub use presburger_gen as gen;
pub use presburger_omega as omega;
pub use presburger_polyq as polyq;
pub use presburger_serve as serve;
pub use presburger_trace as trace;

/// Turns pipeline counters on or off for the current thread.
///
/// With counters off (the default) every instrumentation hook in the
/// pipeline is a single thread-local boolean load.
///
/// ```
/// use presburger::prelude::*;
///
/// presburger::enable_stats(true);
/// presburger::reset_stats();
/// let mut space = Space::new();
/// let n = space.symbol("n");
/// let i = space.var("i");
/// let f = Formula::and(vec![
///     Formula::ge(Affine::var(i) - Affine::constant(1)),
///     Formula::ge(Affine::var(n) - Affine::var(i)),
/// ]);
/// let _ = count_solutions(&space, &f, &[i]);
/// let stats = presburger::stats();
/// assert!(stats.get(presburger::trace::Counter::FeasibilityChecks) > 0);
/// presburger::enable_stats(false);
/// ```
pub fn enable_stats(on: bool) {
    presburger_trace::enable_counters(on);
}

/// A snapshot of the pipeline counters accumulated on this thread.
pub fn stats() -> presburger_trace::PipelineStats {
    presburger_trace::snapshot()
}

/// Clears the pipeline counters (and any collected span tree) on this
/// thread.
pub fn reset_stats() {
    presburger_trace::reset();
}

/// Resource-governed counting: budgets, deadlines, cancellation, and
/// graceful degradation to the paper's §4.6 bounds. See
/// [`counting::govern`] for the full story.
///
/// ```
/// use presburger::prelude::*;
/// use std::time::Duration;
///
/// let mut space = Space::new();
/// let n = space.symbol("n");
/// let i = space.var("i");
/// let f = Formula::and(vec![
///     Formula::ge(Affine::var(i) - Affine::constant(1)),
///     Formula::ge(Affine::var(n) - Affine::var(i)),
/// ]);
/// let gov = Governor::new(Budgets {
///     deadline: Some(Duration::from_secs(5)),
///     ..Budgets::unlimited()
/// });
/// let out =
///     try_count_solutions_governed(&space, &f, &[i], &CountOptions::default(), &gov).unwrap();
/// assert!(out.is_exact());
/// ```
pub use presburger_counting::{
    try_count_solutions_governed, try_sum_polynomial_bounds, try_sum_polynomial_governed, Budgets,
    ClauseStatus, CountError, DegradePolicy, EvalError, Governor, Outcome,
};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use presburger_arith::{Int, Rat};
    pub use presburger_counting::{
        count_solutions, sum_polynomial, try_count_solutions, try_count_solutions_governed,
        try_sum_polynomial_bounds, try_sum_polynomial_governed, Budgets, ClauseStatus, CountError,
        CountOptions, DegradePolicy, EvalError, Governor, Mode, Outcome,
    };
    pub use presburger_omega::{Affine, Constraint, Formula, Space, VarId};
    pub use presburger_polyq::{GuardedValue, QPoly};
}
