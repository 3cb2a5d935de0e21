//! Resource-governed counting: budgets, deadlines, cancellation, panic
//! isolation, and graceful degradation to the paper's §4.6 bounds.
//!
//! Counting is worst-case exponential — splintering (§5.2), DNF
//! expansion (§2.5) and Fourier–Motzkin coefficient growth can each
//! blow up on adversarial input. A [`Governor`] puts hard edges on a
//! run: per-resource [`Budgets`], a wall-clock deadline, and a
//! shareable cancellation token. The hot loops already announce their
//! progress through the trace counters, so the governor piggybacks on
//! those hooks (see [`presburger_trace::govern`]) and costs nothing
//! when disabled.
//!
//! # The degradation ladder: Exact → Bounded → Error
//!
//! When an individual clause exhausts a budget in [`Mode::Exact`], the
//! run does not have to die: under [`DegradePolicy::Bounds`] the clause
//! is re-summed in the paper's §4.6 [`Mode::LowerBound`] /
//! [`Mode::UpperBound`] modes — which avoid the splinter blowup — and
//! the whole answer becomes [`Outcome::Bounded`] with `lower ≤ exact ≤
//! upper` and a per-clause [`ClauseStatus`] record. Only budget-style
//! exhaustion degrades ([`CountError::is_degradable`]); cancellation,
//! divergence and panics always surface as errors.
//!
//! Degraded reruns run with the count budgets lifted (the §4.6 modes
//! skip the splintering the budgets guard against, and a depth or
//! piece cap that tripped the exact pass would otherwise trip the
//! rerun identically) under a *degrade deadline* of twice the original
//! budget — a governed run never takes more than ~2× its deadline.
//!
//! # Determinism
//!
//! Count budgets are charged per clause against totals that reset with
//! each clause, so whether a clause trips depends on that clause alone,
//! and the degraded answer is the same on every run. Only the deadline
//! and the cancellation token observe real time and are therefore
//! outside that guarantee.
//!
//! # Panic isolation
//!
//! Every clause (governed or not) runs under
//! [`std::panic::catch_unwind`]; a panic is caught, the remaining
//! clauses still run, and the panic surfaces as a clause-ordered
//! [`CountError::Internal`] instead of aborting the process. The same
//! boundary catches the governor's budget trips. An injected fault
//! ([`Governor::with_fault`], see [`presburger_trace::govern`])
//! exercises both paths from tests.

use crate::general::polish;
use crate::pipeline::sum_clauses;
use crate::projected::{sum_clause, Ctx};
use crate::{CountError, CountOptions, Mode, Symbolic};
use presburger_omega::dnf::{simplify, SimplifyOptions};
use presburger_omega::{Conjunct, Formula, Space, VarId};
use presburger_polyq::{GuardedValue, QPoly};
use presburger_trace::counters::NUM_COUNTERS;
use presburger_trace::govern::{FaultSpec, Limits, Trip};
use presburger_trace::{self as trace, Counter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource budgets for one governed run. Every field is optional; the
/// default is unlimited. Each cap is charged against a per-clause
/// total (so a budget bounds the work of each independent clause, and
/// trips deterministically — see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Budgets {
    /// Wall-clock deadline for the run. Degraded reruns get twice this
    /// (total, shared across all reruns), bounding a governed run at
    /// roughly 2× the deadline.
    pub deadline: Option<Duration>,
    /// Cap on splinters generated by exact elimination (§5.2).
    pub max_splinters: Option<u64>,
    /// Cap on clauses materialized during DNF expansion (§2.5).
    pub max_dnf_clauses: Option<u64>,
    /// Cap on the `sum_clause` elimination-recursion depth (§4.5).
    pub max_depth: Option<u64>,
    /// Cap on guarded pieces produced by the convex engine (§4.4).
    pub max_pieces: Option<u64>,
    /// Cap on coefficient bit-length (Fourier–Motzkin growth).
    pub max_coeff_bits: Option<u64>,
}

impl Budgets {
    /// No limits at all (the `Default`, spelled out).
    pub fn unlimited() -> Budgets {
        Budgets::default()
    }
}

/// What a governed run does when a clause exhausts a budget in
/// [`Mode::Exact`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Re-sum the offending clause under the §4.6 bound modes and
    /// return [`Outcome::Bounded`].
    #[default]
    Bounds,
    /// Fail the run with the budget error.
    Error,
}

/// Per-clause record of how an [`Outcome::Bounded`] answer was built,
/// in DNF clause order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClauseStatus {
    /// The clause was summed exactly; it contributes the same value to
    /// both bounds.
    Exact,
    /// The clause exhausted a budget and was re-summed in bound modes.
    Degraded {
        /// The budget error that triggered the degradation.
        why: CountError,
    },
}

/// The result of a governed count: exact if every clause finished
/// within budget, otherwise a bracket.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every clause was summed exactly.
    Exact(Symbolic),
    /// At least one clause was degraded to §4.6 bounds. The exact
    /// answer satisfies `lower ≤ exact ≤ upper` pointwise.
    Bounded {
        /// A lower bound on the exact answer.
        lower: Symbolic,
        /// An upper bound on the exact answer.
        upper: Symbolic,
        /// The budget error from the first (in clause order) degraded
        /// clause.
        why: CountError,
        /// Per-clause exact/degraded status, in DNF clause order.
        clauses: Vec<ClauseStatus>,
    },
}

impl Outcome {
    /// Whether every clause was summed exactly.
    pub fn is_exact(&self) -> bool {
        matches!(self, Outcome::Exact(_))
    }

    /// The exact value, if [`Outcome::Exact`].
    pub fn exact(&self) -> Option<&Symbolic> {
        match self {
            Outcome::Exact(s) => Some(s),
            Outcome::Bounded { .. } => None,
        }
    }
}

/// Budgets plus run-control state: the degrade policy, a shareable
/// cancellation token, and an optional injected fault.
///
/// ```
/// use presburger_counting::{try_count_solutions_governed, Budgets, CountOptions, Governor};
/// use presburger_omega::{Affine, Formula, Space};
/// use std::time::Duration;
///
/// let mut s = Space::new();
/// let n = s.symbol("n");
/// let i = s.var("i");
/// let f = Formula::between(Affine::constant(1), i, Affine::var(n));
/// let gov = Governor::new(Budgets {
///     deadline: Some(Duration::from_secs(5)),
///     max_splinters: Some(10_000),
///     ..Budgets::unlimited()
/// });
/// let out = try_count_solutions_governed(&s, &f, &[i], &CountOptions::default(), &gov).unwrap();
/// assert!(out.is_exact());
/// ```
#[derive(Clone, Debug)]
pub struct Governor {
    /// The resource budgets.
    pub budgets: Budgets,
    /// What to do when a clause exhausts a budget.
    pub degrade: DegradePolicy,
    cancel: Arc<AtomicBool>,
    fault: Option<FaultSpec>,
}

impl Governor {
    /// A governor with the given budgets, the default
    /// [`DegradePolicy::Bounds`], a fresh cancellation token, and no
    /// injected fault.
    pub fn new(budgets: Budgets) -> Governor {
        Governor {
            budgets,
            degrade: DegradePolicy::default(),
            cancel: Arc::new(AtomicBool::new(false)),
            fault: None,
        }
    }

    /// Sets the degradation policy.
    pub fn with_degrade(mut self, policy: DegradePolicy) -> Governor {
        self.degrade = policy;
        self
    }

    /// Arms an injected fault from a `<site>:<nth>[:panic]` spec (see
    /// `presburger_trace::govern`). This is the only way to arm one.
    pub fn with_fault(mut self, spec: &str) -> Result<Governor, String> {
        self.fault = Some(trace::govern::parse_fault(spec)?);
        Ok(self)
    }

    /// A clone of the cancellation token: set it to `true` from any
    /// thread to stop the run with [`CountError::Cancelled`].
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Replaces the governor's cancellation token with a shared one, so
    /// one switch can stop many governors at once. The serving layer
    /// hands every in-flight request the same drain token: when a drain
    /// deadline expires, a single store cancels them all.
    pub fn with_cancel_token(mut self, token: Arc<AtomicBool>) -> Governor {
        self.cancel = token;
        self
    }

    /// Requests cancellation of every run sharing this governor.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// The per-run view of a [`Governor`]: budgets mapped to counter caps
/// and the deadline durations anchored to the run's start instant.
/// Shared (`&Runtime`) by every clause of one run.
pub(crate) struct Runtime {
    caps: [Option<u64>; NUM_COUNTERS],
    deadline: Option<(Instant, u64)>,
    degrade_deadline: Option<(Instant, u64)>,
    cancel: Arc<AtomicBool>,
    fault: Option<FaultSpec>,
    policy: DegradePolicy,
}

impl Runtime {
    fn new(gov: &Governor) -> Runtime {
        let now = Instant::now();
        let b = &gov.budgets;
        let mut caps = [None; NUM_COUNTERS];
        caps[Counter::SplintersGenerated as usize] = b.max_splinters;
        caps[Counter::DnfWorkClauses as usize] = b.max_dnf_clauses;
        caps[Counter::SumDepth as usize] = b.max_depth;
        caps[Counter::ConvexLeafPieces as usize] = b.max_pieces;
        caps[Counter::MaxCoeffBits as usize] = b.max_coeff_bits;
        let ms = |d: Duration| u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
        Runtime {
            caps,
            deadline: b
                .deadline
                .and_then(|d| now.checked_add(d).map(|at| (at, ms(d)))),
            degrade_deadline: b.deadline.and_then(|d| {
                now.checked_add(d.saturating_mul(2))
                    .map(|at| (at, ms(d).saturating_mul(2)))
            }),
            cancel: gov.cancel.clone(),
            fault: gov.fault,
            policy: gov.degrade,
        }
    }

    /// Installs the exact-pass limits on the current thread for the
    /// duration of one governed region (a clause or the DNF
    /// phase).
    pub(crate) fn enter_task(&self) -> trace::govern::Installed {
        trace::govern::install(self.limits(false))
    }

    /// The limits of one governed region. Degraded reruns drop the
    /// count caps (see the module docs), run against the 2× degrade
    /// deadline, and disarm the injected fault so the degradation path
    /// completes under an armed fault.
    fn limits(&self, degraded: bool) -> Limits {
        Limits {
            caps: if degraded {
                [None; NUM_COUNTERS]
            } else {
                self.caps
            },
            deadline: if degraded {
                self.degrade_deadline
            } else {
                self.deadline
            },
            cancel: Some(self.cancel.clone()),
            fault: self.fault,
            fault_active: !degraded,
        }
    }

    /// The limits of a direct-to-bounds region
    /// ([`try_sum_polynomial_bounds`]): the count caps and deadline stay
    /// armed — there was no exact pass to validate the input, so even
    /// the bound modes must not run away — but the injected fault is
    /// disarmed, because degrade-first exists to route *around* a
    /// failing exact path.
    fn limits_bounds(&self) -> Limits {
        Limits {
            caps: self.caps,
            deadline: self.deadline,
            cancel: Some(self.cancel.clone()),
            fault: self.fault,
            fault_active: false,
        }
    }
}

/// Converts a caught unwind payload into a structured [`CountError`]:
/// governor [`Trip`]s become their budget/deadline/cancellation
/// variants, anything else is a genuine panic and becomes
/// [`CountError::Internal`].
pub(crate) fn error_from_panic(payload: Box<dyn std::any::Any + Send>) -> CountError {
    match payload.downcast::<Trip>() {
        Ok(t) => match t.resource {
            "deadline" => CountError::Deadline {
                limit_ms: t.limit,
                elapsed_ms: t.spent,
            },
            "cancelled" => CountError::Cancelled,
            _ => CountError::BudgetExceeded {
                resource: t.resource,
                limit: t.limit,
                spent: t.spent,
            },
        },
        Err(payload) => {
            trace::bump(Counter::WorkerPanics);
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "worker panicked with a non-string payload".to_string()
            };
            CountError::Internal(msg)
        }
    }
}

/// Governed version of [`crate::try_count_solutions`]: counts the
/// integer solutions of `f` over `vars` under the governor's budgets,
/// degrading to §4.6 bounds per [`Governor::degrade`].
pub fn try_count_solutions_governed(
    space: &Space,
    f: &Formula,
    vars: &[VarId],
    opts: &CountOptions,
    gov: &Governor,
) -> Result<Outcome, CountError> {
    try_sum_polynomial_governed(space, f, vars, &QPoly::one(), opts, gov)
}

/// Governed version of [`crate::try_sum_polynomial`]. `opts.mode` must
/// be [`Mode::Exact`] — the §4.6 modes are what governed runs degrade
/// *to*; asking for bounds directly needs no governor ladder.
pub fn try_sum_polynomial_governed(
    space: &Space,
    f: &Formula,
    vars: &[VarId],
    poly: &QPoly,
    opts: &CountOptions,
    gov: &Governor,
) -> Result<Outcome, CountError> {
    let mut space = space.clone();
    let rt = Runtime::new(gov);
    sum_formula_governed(f, vars, poly, &mut space, opts, &rt)
}

fn sum_formula_governed(
    f: &Formula,
    vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
    opts: &CountOptions,
    rt: &Runtime,
) -> Result<Outcome, CountError> {
    let _span = trace::span("sum_formula_governed");

    // Phase A: simplification to disjoint DNF, governed as one region.
    // A trip here precedes any clause, so there is nothing to degrade
    // clause-by-clause yet: it surfaces as the error itself.
    let dnf = catch_unwind(AssertUnwindSafe(|| {
        let _g = rt.enter_task();
        simplify(f, space, &SimplifyOptions::disjoint())
    }))
    .map_err(error_from_panic)?;

    // Phase B: one governed region per clause; every clause runs even
    // when an earlier one trips.
    let outcomes = sum_clauses(dnf.clauses, vars, z, space, opts, Some(rt));

    // Phase C: deterministic degrading merge, in clause order. Exact
    // clauses contribute identically to both accumulators; degraded
    // clauses are re-summed under the §4.6 bound modes. The DNF is
    // disjoint, so per-clause brackets sum to a bracket of the whole.
    let mut lower = GuardedValue::zero();
    let mut upper = GuardedValue::zero();
    let mut statuses = Vec::with_capacity(outcomes.len());
    let mut first_why: Option<CountError> = None;
    for out in outcomes {
        match out.result {
            Ok(v) => {
                statuses.push(ClauseStatus::Exact);
                lower.add(v.clone());
                upper.add(v);
            }
            Err(why) if rt.policy == DegradePolicy::Bounds && why.is_degradable() => {
                trace::bump(Counter::ClausesDegraded);
                // Degrade limits: no count caps, 2× deadline, fault
                // disarmed.
                for (mode, acc) in [
                    (Mode::LowerBound, &mut lower),
                    (Mode::UpperBound, &mut upper),
                ] {
                    let v = bound_clause(&out.clause, vars, z, space, opts, rt.limits(true), mode)?;
                    acc.add(v);
                }
                if first_why.is_none() {
                    first_why = Some(why.clone());
                }
                statuses.push(ClauseStatus::Degraded { why });
            }
            Err(e) => return Err(e),
        }
    }

    match first_why {
        None => {
            // No clause degraded: `lower` and `upper` accumulated the
            // same exact values; either is the answer.
            let value = polish(lower, space, opts);
            Ok(Outcome::Exact(Symbolic {
                space: space.clone(),
                value,
            }))
        }
        Some(why) => {
            let lower = polish(lower, space, opts);
            let upper = polish(upper, space, opts);
            Ok(Outcome::Bounded {
                lower: Symbolic {
                    space: space.clone(),
                    value: lower,
                },
                upper: Symbolic {
                    space: space.clone(),
                    value: upper,
                },
                why,
                clauses: statuses,
            })
        }
    }
}

/// Computes the §4.6 bracket directly under the governor's budgets,
/// without attempting the exact sum first. This is the degrade-first
/// primitive the serving layer uses when its circuit breaker is open or
/// a drain deadline has cancelled a request: the exact path is known
/// (or presumed) bad, so the run goes straight to `lower ≤ exact ≤
/// upper`.
///
/// Unlike the per-clause degraded reruns inside
/// [`try_sum_polynomial_governed`] — which lift the count caps because
/// an exact pass already walked the clause — this run keeps the caps
/// and deadline armed: nothing has validated the input, and the bound
/// modes still pay for simplification and DNF expansion, which can blow
/// up on adversarial formulas. The injected fault is disarmed
/// (degrade-first exists to route around a failing exact path), and the
/// governor's cancellation token stays live.
pub fn try_sum_polynomial_bounds(
    space: &Space,
    f: &Formula,
    vars: &[VarId],
    poly: &QPoly,
    opts: &CountOptions,
    gov: &Governor,
) -> Result<(Symbolic, Symbolic), CountError> {
    let _span = trace::span("sum_polynomial_bounds");
    let mut space = space.clone();
    let rt = Runtime::new(gov);

    let dnf = catch_unwind(AssertUnwindSafe(|| {
        let _g = trace::govern::install(rt.limits_bounds());
        simplify(f, &mut space, &SimplifyOptions::disjoint())
    }))
    .map_err(error_from_panic)?;

    // The DNF is disjoint, so per-clause bounds sum to bounds of the
    // whole.
    let mut lower = GuardedValue::zero();
    let mut upper = GuardedValue::zero();
    for clause in &dnf.clauses {
        for (mode, acc) in [
            (Mode::LowerBound, &mut lower),
            (Mode::UpperBound, &mut upper),
        ] {
            let v = bound_clause(
                clause,
                vars,
                poly,
                &mut space,
                opts,
                rt.limits_bounds(),
                mode,
            )?;
            acc.add(v);
        }
    }

    let lower = polish(lower, &mut space, opts);
    let upper = polish(upper, &mut space, opts);
    Ok((
        Symbolic {
            space: space.clone(),
            value: lower,
        },
        Symbolic {
            space,
            value: upper,
        },
    ))
}

/// Sums one clause in a §4.6 bound mode as its own governed region
/// under `limits`, behind its own unwind boundary. Budget totals reset
/// per region, so a trip is a pure function of the clause.
fn bound_clause(
    clause: &Conjunct,
    vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
    opts: &CountOptions,
    limits: Limits,
    mode: Mode,
) -> Result<GuardedValue, CountError> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _g = trace::govern::install(limits);
        let bound_opts = CountOptions { mode, ..*opts };
        let mut ctx = Ctx::new(space, &bound_opts);
        sum_clause(clause, vars, z, &mut ctx)
    }));
    result.unwrap_or_else(|p| Err(error_from_panic(p)))
}
