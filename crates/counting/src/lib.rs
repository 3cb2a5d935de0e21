//! Symbolic counting and summation over Presburger formulas — the core
//! of Pugh, *Counting Solutions to Presburger Formulas: How and Why*
//! (PLDI 1994).
//!
//! Given a Presburger formula `P` with free variables split into
//! *summation variables* `V` and *symbolic constants*, this crate
//! computes the paper's
//!
//! ```text
//! (Σ V : P : z)
//! ```
//!
//! — the sum of the polynomial `z` over all integer assignments of `V`
//! satisfying `P` — as a **guarded quasi-polynomial** in the symbolic
//! constants. `(Σ V : P : 1)` is the number of solutions.
//!
//! # Example
//!
//! ```
//! use presburger_omega::{Affine, Formula, Space};
//! use presburger_counting::count_solutions;
//!
//! let mut s = Space::new();
//! let n = s.symbol("n");
//! let i = s.var("i");
//! let j = s.var("j");
//! // 1 ≤ i ≤ j ≤ n  — the triangle: n(n+1)/2 points
//! let f = Formula::and(vec![
//!     Formula::le(Affine::constant(1), Affine::var(i)),
//!     Formula::le(Affine::var(i), Affine::var(j)),
//!     Formula::le(Affine::var(j), Affine::var(n)),
//! ]);
//! let count = count_solutions(&s, &f, &[i, j]);
//! assert_eq!(count.eval_i64(&[("n", 10)]), Some(55));
//! assert_eq!(count.eval_i64(&[("n", 0)]), Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod basic;
pub mod convex;
pub mod enumerate;
pub mod general;
pub mod govern;
pub mod minmax;
mod pipeline;
pub mod projected;

pub use govern::{
    try_count_solutions_governed, try_sum_polynomial_bounds, try_sum_polynomial_governed, Budgets,
    ClauseStatus, DegradePolicy, Governor, Outcome,
};

use presburger_arith::{Int, Rat};
use presburger_omega::{Formula, Space, VarId};
use presburger_polyq::{GuardedValue, QPoly};

/// Whether to compute exact answers or cheaper bounds (§4.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mode {
    /// Exact symbolic answer (may splinter and introduce mod atoms).
    #[default]
    Exact,
    /// An upper bound on the sum (requires a non-negative summand).
    UpperBound,
    /// A lower bound on the sum (requires a non-negative summand).
    LowerBound,
}

/// Options for the counting engine.
#[derive(Clone, Copy, Debug)]
pub struct CountOptions {
    /// Exact or approximate computation.
    pub mode: Mode,
    /// Use the paper's §4.2 four-piece decomposition instead of direct
    /// telescoping (for ablation studies; results are identical).
    pub four_piece: bool,
    /// Run complete redundant-constraint elimination before each
    /// variable choice (§4.4 step 1). Disabling this reproduces the
    /// Tawbi-style behaviour the paper compares against (ablation A1).
    pub remove_redundant: bool,
    /// Ignored: the engine sums the clauses on the calling thread.
    /// Removed with ROADMAP item 4's benchmark change.
    pub threads: usize,
    /// Ignored: the engine memoizes nothing. Removed with ROADMAP
    /// item 4's benchmark change.
    pub memo: bool,
}

impl Default for CountOptions {
    fn default() -> CountOptions {
        CountOptions {
            mode: Mode::Exact,
            four_piece: false,
            remove_redundant: true,
            threads: 1,
            memo: false,
        }
    }
}

/// Errors reported by the counting engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CountError {
    /// A summation variable is unbounded (the sum diverges).
    Unbounded {
        /// Name of the unbounded variable.
        var: String,
    },
    /// The computation exceeded its recursion budget.
    TooComplex(String),
    /// A [`Governor`] budget was exhausted.
    BudgetExceeded {
        /// Stable name of the exhausted resource (a counter name or an
        /// engine fuel pool such as `wildcard_projection_fuel`).
        resource: &'static str,
        /// The configured limit.
        limit: u64,
        /// The amount spent when the trip fired.
        spent: u64,
    },
    /// The [`Governor`] wall-clock deadline passed.
    Deadline {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
        /// Elapsed milliseconds when the miss was observed.
        elapsed_ms: u64,
    },
    /// The [`Governor`] cancellation token was set.
    Cancelled,
    /// Summing a clause panicked; the panic was caught, the remaining
    /// clauses still ran, and the message is reported here instead of
    /// aborting the process.
    Internal(String),
}

impl CountError {
    /// A stable machine-readable name for the error variant, used by
    /// the serving layer's wire protocol and the calculator's JSON
    /// error objects.
    pub fn kind(&self) -> &'static str {
        match self {
            CountError::Unbounded { .. } => "unbounded",
            CountError::TooComplex(_) => "too_complex",
            CountError::BudgetExceeded { .. } => "budget",
            CountError::Deadline { .. } => "deadline",
            CountError::Cancelled => "cancelled",
            CountError::Internal(_) => "internal",
        }
    }

    /// Whether a governed run may degrade this error to §4.6 bounds
    /// (budget-style exhaustion: yes; divergence, cancellation and
    /// panics: no).
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            CountError::BudgetExceeded { .. }
                | CountError::Deadline { .. }
                | CountError::TooComplex(_)
        )
    }
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountError::Unbounded { var } => {
                write!(f, "summation variable {var} is unbounded")
            }
            CountError::TooComplex(what) => write!(f, "computation too complex: {what}"),
            CountError::BudgetExceeded {
                resource,
                limit,
                spent,
            } => write!(
                f,
                "budget exceeded: {resource} limit {limit}, spent {spent}"
            ),
            CountError::Deadline {
                limit_ms,
                elapsed_ms,
            } => write!(
                f,
                "deadline exceeded: {limit_ms} ms limit, {elapsed_ms} ms elapsed"
            ),
            CountError::Cancelled => write!(f, "cancelled"),
            CountError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for CountError {}

/// Errors from evaluating a [`Symbolic`] result at a concrete point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The value mentions a symbol the caller did not bind.
    MissingSymbol {
        /// Name of the first unbound symbol encountered.
        name: String,
    },
    /// The value is not an integer at that point (for counts this
    /// indicates a bug — counts are always integral).
    NotIntegral {
        /// The rational value, rendered.
        value: String,
    },
}

impl EvalError {
    /// A stable machine-readable name for the error variant (see
    /// [`CountError::kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            EvalError::MissingSymbol { .. } => "missing_symbol",
            EvalError::NotIntegral { .. } => "not_integral",
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::MissingSymbol { name } => write!(f, "no binding for symbol {name}"),
            EvalError::NotIntegral { value } => {
                write!(f, "value {value} is not an integer")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A symbolic result together with the space its guards refer to.
///
/// Counting may intern fresh auxiliary variables, so the result carries
/// its own copy of the space for evaluation and printing.
#[derive(Clone, Debug)]
pub struct Symbolic {
    /// The space in which guards and polynomials are interpreted.
    pub space: Space,
    /// The guarded quasi-polynomial value.
    pub value: GuardedValue,
}

impl Symbolic {
    /// Evaluates the result with symbols bound by name.
    ///
    /// Returns `None` if the value is not an integer at that point
    /// (indicating a bug — counts are always integral).
    ///
    /// # Panics
    ///
    /// Panics if a mentioned symbol has no binding; service callers
    /// should prefer [`Symbolic::try_eval_i64`].
    pub fn eval_i64(&self, bindings: &[(&str, i64)]) -> Option<i64> {
        match self.try_eval_i64(bindings) {
            Ok(v) => Some(v),
            Err(EvalError::NotIntegral { .. }) => None,
            Err(e @ EvalError::MissingSymbol { .. }) => panic!("{e}"),
        }
    }

    /// Evaluates to an exact rational with symbols bound by name.
    ///
    /// # Panics
    ///
    /// Panics if a mentioned symbol has no binding; service callers
    /// should prefer [`Symbolic::try_eval_rat`].
    pub fn eval_rat(&self, bindings: &[(&str, i64)]) -> Rat {
        self.try_eval_rat(bindings)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible version of [`Symbolic::eval_i64`]: reports an unbound
    /// symbol or a non-integral value as an [`EvalError`] instead of
    /// panicking / losing the distinction in an `Option`.
    pub fn try_eval_i64(&self, bindings: &[(&str, i64)]) -> Result<i64, EvalError> {
        let r = self.try_eval_rat(bindings)?;
        r.to_int()
            .and_then(|i| i.to_i64())
            .ok_or_else(|| EvalError::NotIntegral {
                value: r.to_string(),
            })
    }

    /// Fallible version of [`Symbolic::eval_rat`]: reports the first
    /// unbound symbol as [`EvalError::MissingSymbol`] instead of
    /// panicking.
    pub fn try_eval_rat(&self, bindings: &[(&str, i64)]) -> Result<Rat, EvalError> {
        // `GuardedValue::eval` drives evaluation through an infallible
        // assignment closure; record the first miss on the side (and
        // substitute zero to keep going) rather than threading Results
        // through every guard and polynomial.
        let missing: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
        let value = self.value.eval(&self.space, &|v| {
            let name = self.space.name(v);
            match bindings.iter().find(|(n, _)| *n == name) {
                Some((_, val)) => Int::from(*val),
                None => {
                    missing.borrow_mut().get_or_insert_with(|| name.to_string());
                    Int::zero()
                }
            }
        });
        match missing.into_inner() {
            Some(name) => Err(EvalError::MissingSymbol { name }),
            None => Ok(value),
        }
    }

    /// Evaluates with an arbitrary assignment function.
    pub fn eval_with(&self, assign: &dyn Fn(VarId) -> Int) -> Rat {
        self.value.eval(&self.space, assign)
    }

    /// Number of guarded pieces in the answer.
    pub fn num_pieces(&self) -> usize {
        self.value.pieces().len()
    }

    /// Renders the value in the paper's `(Σ : P : z)` notation.
    pub fn to_display_string(&self) -> String {
        self.value.to_string(&self.space)
    }

    /// Adds another symbolic value (e.g. combining footprints of two
    /// arrays). Both must stem from the same base [`Space`]: the
    /// variables they share by index must agree by name.
    ///
    /// # Panics
    ///
    /// Panics if the spaces disagree on a shared variable name.
    pub fn add(&self, other: &Symbolic) -> Symbolic {
        let mut space = self.space.clone();
        space.absorb(&other.space);
        let mut value = self.value.clone();
        value.add(other.value.clone());
        value.compact();
        Symbolic { space, value }
    }

    /// Scales the value by a rational factor (e.g. bytes per element).
    pub fn scale(&self, k: &Rat) -> Symbolic {
        Symbolic {
            space: self.space.clone(),
            value: self.value.scale(k),
        }
    }
}

/// Counts the integer solutions of `f` over `vars`, symbolically in the
/// remaining free variables.
///
/// # Panics
///
/// Panics if the count is infinite (a variable is unbounded) or the
/// computation exceeds its budget; use [`try_count_solutions`] for a
/// fallible version.
pub fn count_solutions(space: &Space, f: &Formula, vars: &[VarId]) -> Symbolic {
    try_count_solutions(space, f, vars, &CountOptions::default())
        .unwrap_or_else(|e| panic!("count_solutions failed: {e}"))
}

/// Fallible, configurable version of [`count_solutions`].
pub fn try_count_solutions(
    space: &Space,
    f: &Formula,
    vars: &[VarId],
    opts: &CountOptions,
) -> Result<Symbolic, CountError> {
    try_sum_polynomial(space, f, vars, &QPoly::one(), opts)
}

/// Sums `poly` over the integer solutions of `f` in `vars` (the paper's
/// `(Σ V : P : z)`).
///
/// # Panics
///
/// Panics when the sum diverges or the computation exceeds its budget;
/// use [`try_sum_polynomial`] for a fallible version.
pub fn sum_polynomial(space: &Space, f: &Formula, vars: &[VarId], poly: &QPoly) -> Symbolic {
    try_sum_polynomial(space, f, vars, poly, &CountOptions::default())
        .unwrap_or_else(|e| panic!("sum_polynomial failed: {e}"))
}

/// Fallible, configurable version of [`sum_polynomial`].
pub fn try_sum_polynomial(
    space: &Space,
    f: &Formula,
    vars: &[VarId],
    poly: &QPoly,
    opts: &CountOptions,
) -> Result<Symbolic, CountError> {
    let mut space = space.clone();
    let value = general::sum_formula(f, vars, poly, &mut space, opts)?;
    Ok(Symbolic { space, value })
}
