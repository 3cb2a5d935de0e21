//! Integration tests for resource-governed execution: budgets,
//! deadlines, cancellation, panic isolation, and graceful degradation
//! to the paper's §4.6 bounds.
//!
//! The `fault_injection_from_env` test is the target of the check.sh
//! fault matrix: it maps `PRESBURGER_FAULT=<site>:<nth>[:panic]` onto
//! `Governor::with_fault` and asserts the documented Outcome/CountError
//! for whichever site is armed (see DESIGN.md §9). The library itself
//! reads no environment variable.

use presburger::prelude::*;
use presburger::trace::govern::{parse_fault, FaultSite};
use presburger::trace::{self, Counter, PipelineStats};
use presburger_counting::{enumerate, Symbolic};
use std::time::Duration;

/// Example 9: `1 ≤ i ∧ 1 ≤ j ≤ n ∧ 2i ≤ 3j` over `[i, j]` — closed
/// form `(3n² + 2n − (n mod 2)) / 4`.
fn e9(s: &mut Space) -> (Formula, Vec<VarId>) {
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::le(Affine::constant(1), Affine::var(i)),
        Formula::between(Affine::constant(1), j, Affine::var(n)),
        Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
    ]);
    (f, vec![i, j])
}

/// The paper's intro example (E4): `1 ≤ i ≤ n ∧ i ≤ j ≤ m`.
fn e4(s: &mut Space) -> (Formula, Vec<VarId>) {
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let m = s.var("m");
    let f = Formula::and(vec![
        Formula::between(Affine::constant(1), i, Affine::var(n)),
        Formula::between(Affine::var(i), j, Affine::var(m)),
    ]);
    (f, vec![i, j])
}

/// Example 11: `∃β: 3β−α ≥ 0 ∧ −3β+α+7 ≥ 0 ∧ α−2β−1 ≥ 0 ∧ −α+2β+5 ≥ 0`
/// counted over α — ground truth α ∈ {3} ∪ [5, 27] ∪ {29}, 25 points.
fn e11(s: &mut Space) -> (Formula, Vec<VarId>) {
    let a = s.var("alpha");
    let b = s.var("beta");
    let f = Formula::exists(
        vec![b],
        Formula::and(vec![
            Formula::ge(Affine::from_terms(&[(b, 3), (a, -1)], 0)),
            Formula::ge(Affine::from_terms(&[(b, -3), (a, 1)], 7)),
            Formula::ge(Affine::from_terms(&[(a, 1), (b, -2)], -1)),
            Formula::ge(Affine::from_terms(&[(a, -1), (b, 2)], 5)),
        ]),
    );
    (f, vec![a])
}

/// A three-clause union, for multi-clause degradation and determinism.
fn union3(s: &mut Space) -> (Formula, Vec<VarId>) {
    let x = s.var("x");
    let n = s.var("n");
    let f = Formula::or(vec![
        Formula::between(Affine::constant(1), x, Affine::var(n)),
        Formula::between(Affine::constant(20), x, Affine::constant(30)),
        Formula::and(vec![
            Formula::between(Affine::constant(40), x, Affine::constant(60)),
            Formula::stride(3, Affine::var(x)),
        ]),
    ]);
    (f, vec![x])
}

fn governed(s: &Space, f: &Formula, vars: &[VarId], gov: &Governor) -> Result<Outcome, CountError> {
    try_count_solutions_governed(s, f, vars, &CountOptions::default(), gov)
}

/// Runs `f` with counters on and returns the counter delta it caused.
fn metered<T>(f: impl FnOnce() -> T) -> (T, PipelineStats) {
    trace::enable_counters(true);
    let before = trace::snapshot();
    let out = f();
    let delta = trace::snapshot().delta(&before);
    trace::enable_counters(false);
    (out, delta)
}

/// Asserts `lower ≤ exact ≤ upper` pointwise over the sample bindings.
fn assert_brackets(
    exact: &Symbolic,
    lower: &Symbolic,
    upper: &Symbolic,
    bindings: &[Vec<(&str, i64)>],
) {
    for b in bindings {
        let e = exact.eval_rat(b);
        let l = lower.eval_rat(b);
        let u = upper.eval_rat(b);
        assert!(
            l <= e && e <= u,
            "bracket violated at {b:?}: {l} <= {e} <= {u}"
        );
    }
}

/// Runs a formula with every clause forced to degrade (the `sum_depth`
/// fault fires on the first recursion step of every clause) and
/// checks the §4.6 bracket against the ungoverned exact answer.
fn check_degraded_brackets(s: &Space, f: &Formula, vars: &[VarId], bindings: &[Vec<(&str, i64)>]) {
    let exact = try_count_solutions(s, f, vars, &CountOptions::default()).expect("countable");
    let gov = Governor::new(Budgets::unlimited())
        .with_fault("sum_depth:1")
        .expect("valid spec");
    match governed(s, f, vars, &gov).expect("degrades, not errors") {
        Outcome::Exact(_) => panic!("sum_depth:1 must degrade every clause"),
        Outcome::Bounded {
            lower,
            upper,
            why,
            clauses,
        } => {
            assert!(
                matches!(
                    why,
                    CountError::BudgetExceeded {
                        resource: "sum_depth",
                        ..
                    }
                ),
                "unexpected why: {why}"
            );
            assert!(clauses
                .iter()
                .all(|c| matches!(c, ClauseStatus::Degraded { .. })));
            assert_brackets(&exact, &lower, &upper, bindings);
        }
    }
}

#[test]
fn degraded_brackets_e9() {
    let mut s = Space::new();
    let (f, vars) = e9(&mut s);
    let bindings: Vec<Vec<(&str, i64)>> = (-2..=20).map(|n| vec![("n", n)]).collect();
    check_degraded_brackets(&s, &f, &vars, &bindings);
}

#[test]
fn degraded_brackets_e4() {
    let mut s = Space::new();
    let (f, vars) = e4(&mut s);
    let mut bindings: Vec<Vec<(&str, i64)>> = Vec::new();
    for n in -1..=8 {
        for m in -1..=8 {
            bindings.push(vec![("n", n), ("m", m)]);
        }
    }
    check_degraded_brackets(&s, &f, &vars, &bindings);
}

#[test]
fn degraded_brackets_e11() {
    let mut s = Space::new();
    let (f, vars) = e11(&mut s);
    // no symbols: the single binding is empty; exact count is 25
    let exact = try_count_solutions(&s, &f, &vars, &CountOptions::default()).unwrap();
    assert_eq!(exact.eval_i64(&[]), Some(25));
    check_degraded_brackets(&s, &f, &vars, &[vec![]]);
}

#[test]
fn governed_without_budgets_matches_plain() {
    let mut s = Space::new();
    let (f, vars) = e9(&mut s);
    let plain = try_count_solutions(&s, &f, &vars, &CountOptions::default()).unwrap();
    let gov = Governor::new(Budgets::unlimited());
    match governed(&s, &f, &vars, &gov).unwrap() {
        Outcome::Exact(sym) => {
            assert_eq!(sym.to_display_string(), plain.to_display_string());
        }
        Outcome::Bounded { why, .. } => panic!("degraded without budgets: {why}"),
    }
}

#[test]
fn pre_cancelled_token_errors() {
    let mut s = Space::new();
    let (f, vars) = e9(&mut s);
    let gov = Governor::new(Budgets::unlimited());
    gov.cancel();
    match governed(&s, &f, &vars, &gov) {
        Err(CountError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn zero_deadline_errors() {
    let mut s = Space::new();
    let (f, vars) = e9(&mut s);
    let gov = Governor::new(Budgets {
        deadline: Some(Duration::ZERO),
        ..Budgets::unlimited()
    });
    // An already-expired deadline trips in the DNF phase, before any
    // clause exists to degrade: the deadline surfaces as the error.
    match governed(&s, &f, &vars, &gov) {
        Err(CountError::Deadline { limit_ms: 0, .. }) => {}
        other => panic!("expected a deadline error, got {other:?}"),
    }
}

#[test]
fn degrade_policy_error_fails_instead_of_bounding() {
    let mut s = Space::new();
    let (f, vars) = e9(&mut s);
    let gov = Governor::new(Budgets::unlimited())
        .with_fault("sum_depth:1")
        .unwrap()
        .with_degrade(DegradePolicy::Error);
    match governed(&s, &f, &vars, &gov) {
        Err(CountError::BudgetExceeded {
            resource: "sum_depth",
            ..
        }) => {}
        other => panic!("expected a budget error, got {other:?}"),
    }
}

#[test]
fn splinter_budget_degrades_e11() {
    // E11's exact count splinters (§5.2); a splinter cap of zero forces
    // the degradation ladder through a real budget (not a fault).
    let mut s = Space::new();
    let (f, vars) = e11(&mut s);
    let gov = Governor::new(Budgets {
        max_splinters: Some(0),
        ..Budgets::unlimited()
    });
    match governed(&s, &f, &vars, &gov) {
        // Splinters can be charged while the DNF phase projects the
        // existential variable (an error) or inside a clause
        // (degrades): both must name the splinter budget.
        Ok(Outcome::Bounded {
            lower, upper, why, ..
        }) => {
            assert!(
                matches!(
                    why,
                    CountError::BudgetExceeded {
                        resource: "splinters_generated",
                        ..
                    }
                ),
                "unexpected why: {why}"
            );
            let l = lower.eval_rat(&[]);
            let u = upper.eval_rat(&[]);
            assert!(
                l <= Rat::from(25) && Rat::from(25) <= u,
                "bracket violated: {l} <= 25 <= {u}"
            );
        }
        Err(CountError::BudgetExceeded {
            resource: "splinters_generated",
            ..
        }) => {}
        other => panic!("expected the splinter budget to fire, got {other:?}"),
    }
}

/// The count of `b` over `n ≤ 1001b ∧ 1002b ≤ n + 5000`: one non-unit
/// bound pair with gap `(1001−1)(1002−1) ≥ 10⁶` and offsets stepping
/// by 1002. Its exact splinters would number about 5·10⁸; the convex
/// sum guards the telescoped value with the real shadow instead and
/// builds none.
fn wide_52(s: &mut Space) -> (Formula, Vec<VarId>) {
    let b = s.var("b");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::le(Affine::var(n), Affine::term(b, 1001)),
        Formula::le(
            Affine::term(b, 1002),
            Affine::var(n) + Affine::constant(5000),
        ),
    ]);
    (f, vec![b])
}

/// The same pair as a literal existential, counted over `0 ≤ a ≤ 10⁶`:
/// projecting `b` out of the clause needs the exact §5.2 splinters, one
/// or more for every region of the residue-stepped loop.
fn wide_52_exists(s: &mut Space) -> (Formula, Vec<VarId>) {
    let a = s.var("a");
    let b = s.var("b");
    let f = Formula::and(vec![
        Formula::between(Affine::constant(0), a, Affine::constant(1_000_000)),
        Formula::exists(
            vec![b],
            Formula::and(vec![
                Formula::le(Affine::var(a), Affine::term(b, 1001)),
                Formula::le(
                    Affine::term(b, 1002),
                    Affine::var(a) + Affine::constant(5000),
                ),
            ]),
        ),
    ]);
    (f, vec![a])
}

#[test]
fn splinter_budget_bounds_wide_disjoint_splintering() {
    let deadline = Duration::from_secs(2);
    let capped = || {
        Governor::new(Budgets {
            max_splinters: Some(10_000),
            deadline: Some(deadline),
            ..Budgets::unlimited()
        })
    };

    // The count of `b` is exact under the cap: no splinter at all.
    let mut s = Space::new();
    let (f, vars) = wide_52(&mut s);
    let (outcome, stats) = metered(|| governed(&s, &f, &vars, &capped()));
    let exact = match outcome {
        Ok(Outcome::Exact(r)) => r,
        other => panic!("expected an exact count, got {other:?}"),
    };
    assert_eq!(stats.get(Counter::SplintersGenerated), 0, "{stats}");
    for n in [
        -5i64, 0, 1, 2, 5, 10, 100, 999, 1000, 4_004_000, 5_005_000, 5_005_001,
    ] {
        // b ∈ [⌈n/1001⌉, ⌊(n+5000)/1002⌋]
        let expect = ((n + 5000).div_euclid(1002) + (-n).div_euclid(1001) + 1).max(0);
        assert_eq!(exact.eval_i64(&[("n", n)]), Some(expect), "n={n}");
    }

    // A stride over non-unit coefficients still splinters in the exact
    // pass (74 splinters); under a cap of 10 the clause degrades and the
    // §4.6 rerun brackets the true count.
    let mut s = Space::new();
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::between(Affine::constant(0), i, Affine::var(n)),
        Formula::between(Affine::constant(0), j, Affine::var(n)),
        Formula::stride(7, Affine::from_terms(&[(i, 2), (j, 3), (n, 1)], 0)),
    ]);
    let gov = Governor::new(Budgets {
        max_splinters: Some(10),
        deadline: Some(deadline),
        ..Budgets::unlimited()
    });
    let started = std::time::Instant::now();
    let outcome = governed(&s, &f, &[i, j], &gov);
    let elapsed = started.elapsed();
    assert!(elapsed < deadline, "took {elapsed:?}");
    match outcome {
        Ok(Outcome::Bounded {
            lower, upper, why, ..
        }) => {
            assert!(
                matches!(
                    why,
                    CountError::BudgetExceeded {
                        resource: "splinters_generated",
                        ..
                    }
                ),
                "unexpected why: {why}"
            );
            for nv in 0i64..=30 {
                let truth = (0..=nv)
                    .flat_map(|iv| (0..=nv).map(move |jv| 2 * iv + 3 * jv + nv))
                    .filter(|e| e % 7 == 0)
                    .count();
                let truth = Rat::from(truth as i64);
                let binding = [("n", nv)];
                let (l, u) = (lower.eval_rat(&binding), upper.eval_rat(&binding));
                assert!(
                    l <= truth && truth <= u,
                    "bracket violated at n={nv}: {l} <= {truth} <= {u}"
                );
            }
        }
        other => panic!("expected the splinter budget to bound the count, got {other:?}"),
    }

    // The literal existential over `a` still splinters widely: projecting
    // `b` out exactly needs the §5.2 loop over ~10⁶ regions.
    // Under DegradePolicy::Error the exact pass's splinter trip is the
    // answer, so this times the capped loop alone.
    let mut s = Space::new();
    let (f, vars) = wide_52_exists(&mut s);
    let started = std::time::Instant::now();
    let outcome = governed(&s, &f, &vars, &capped().with_degrade(DegradePolicy::Error));
    let elapsed = started.elapsed();
    assert!(elapsed < deadline, "took {elapsed:?}");
    assert!(
        matches!(
            outcome,
            Err(CountError::BudgetExceeded {
                resource: "splinters_generated",
                ..
            })
        ),
        "expected the splinter budget to fire, got {outcome:?}"
    );
}

#[test]
fn coeff_bits_budget_trips_on_bignum_growth() {
    // Σ x⁵ over 1 ≤ a·x ≤ n with a ≈ 3·10⁹: the closed form carries
    // coefficients with denominator a⁶ ≈ 7·10⁵⁶ (≈ 190 bits), which
    // promotes past i128 and charges the max_coeff_bits gauge.
    let mut s = Space::new();
    let x = s.var("x");
    let n = s.var("n");
    const A: i64 = 3_000_000_019;
    let f = Formula::and(vec![
        Formula::le(Affine::constant(1), Affine::term(x, A)),
        Formula::le(Affine::term(x, A), Affine::var(n)),
    ]);
    let z = QPoly::var(x) * QPoly::var(x) * QPoly::var(x) * QPoly::var(x) * QPoly::var(x);
    let opts = CountOptions::default();

    // Ungoverned sanity: Σ_{x=1}^{3} x⁵ = 276 at n = 3a.
    let plain = presburger_counting::try_sum_polynomial(&s, &f, &[x], &z, &opts).unwrap();
    assert_eq!(plain.eval_rat(&[("n", 3 * A)]), Rat::from(276));

    let gov = Governor::new(Budgets {
        max_coeff_bits: Some(100),
        ..Budgets::unlimited()
    });
    match try_sum_polynomial_governed(&s, &f, &[x], &z, &opts, &gov) {
        Ok(Outcome::Bounded { why, .. }) => assert!(
            matches!(
                why,
                CountError::BudgetExceeded {
                    resource: "max_coeff_bits",
                    ..
                }
            ),
            "unexpected why: {why}"
        ),
        Err(CountError::BudgetExceeded {
            resource: "max_coeff_bits",
            ..
        }) => {}
        other => panic!("expected the coefficient budget to fire, got {other:?}"),
    }
}

#[test]
fn union3_degrades_clause_by_clause_in_order() {
    // `sum_depth:1` trips the first recursion step of every clause, so
    // each disjoint clause of the union degrades on its own: one status
    // per clause, in clause order, and the summed brackets still hold
    // the brute-force count.
    let mut s = Space::new();
    let (f, vars) = union3(&mut s);
    let mut clause_space = s.clone();
    let clauses = presburger::omega::dnf::simplify(
        &f,
        &mut clause_space,
        &presburger::omega::dnf::SimplifyOptions::disjoint(),
    )
    .clauses
    .len();
    assert!(clauses >= 3, "union3 has {clauses} disjoint clauses");
    let gov = Governor::new(Budgets::unlimited())
        .with_fault("sum_depth:1")
        .unwrap();
    let Outcome::Bounded {
        lower,
        upper,
        why,
        clauses: statuses,
    } = governed(&s, &f, &vars, &gov).unwrap()
    else {
        panic!("sum_depth:1 must degrade");
    };
    let is_depth_trip = |e: &CountError| {
        matches!(
            e,
            CountError::BudgetExceeded {
                resource: "sum_depth",
                ..
            }
        )
    };
    assert!(is_depth_trip(&why), "unexpected why: {why}");
    assert_eq!(statuses.len(), clauses);
    for (k, st) in statuses.iter().enumerate() {
        match st {
            ClauseStatus::Degraded { why } => assert!(is_depth_trip(why), "clause {k}: {why}"),
            other => panic!("clause {k} did not degrade: {other:?}"),
        }
    }
    for n in 0i64..=12 {
        let brute = enumerate::count_formula(&f, &vars, -5..=70, &|_| Int::from(n));
        let b = [("n", n)];
        let exact = Rat::from(brute as i64);
        let (l, u) = (lower.eval_rat(&b), upper.eval_rat(&b));
        assert!(l <= exact && exact <= u, "n={n}: {l} <= {exact} <= {u}");
    }
}

/// The check.sh fault-matrix target. Arms `PRESBURGER_FAULT` with
/// `Governor::with_fault`, runs a formula that charges the armed site,
/// and asserts the documented Outcome/CountError for that site
/// (DESIGN.md §9). A no-op when the variable is unset, so plain
/// `cargo test` runs are unaffected.
#[test]
fn fault_injection_from_env() {
    let Ok(spec) = std::env::var("PRESBURGER_FAULT") else {
        return;
    };
    let fault = parse_fault(&spec).expect("matrix specs are valid");
    let gov = Governor::new(Budgets {
        deadline: Some(Duration::from_secs(30)),
        ..Budgets::unlimited()
    })
    .with_fault(&spec)
    .expect("matrix specs are valid");

    // E11 charges every site except max_coeff_bits (splinters, DNF
    // work, depth, pieces, normalize heartbeats); bignum growth needs
    // the dedicated Σ x⁵ workload.
    let mut s = Space::new();
    let is_coeff_site = matches!(
        fault.site,
        FaultSite::Counter(c) if c.name() == "max_coeff_bits"
    );
    let outcome = if is_coeff_site {
        let x = s.var("x");
        let n = s.var("n");
        const A: i64 = 3_000_000_019;
        let f = Formula::and(vec![
            Formula::le(Affine::constant(1), Affine::term(x, A)),
            Formula::le(Affine::term(x, A), Affine::var(n)),
        ]);
        let z = QPoly::var(x) * QPoly::var(x) * QPoly::var(x) * QPoly::var(x) * QPoly::var(x);
        try_sum_polynomial_governed(&s, &f, &[x], &z, &CountOptions::default(), &gov)
    } else {
        let (f, vars) = e11(&mut s);
        governed(&s, &f, &vars, &gov)
    };

    if fault.panic {
        // Injected panics exercise panic isolation: caught, reported
        // as a deterministic Internal error, never a process abort.
        match outcome {
            Err(CountError::Internal(msg)) => {
                assert!(msg.contains("injected fault"), "was: {msg}")
            }
            other => panic!("expected Internal from {spec}, got {other:?}"),
        }
        return;
    }
    match fault.site {
        FaultSite::Cancel => match outcome {
            Err(CountError::Cancelled) => {}
            other => panic!("expected Cancelled from {spec}, got {other:?}"),
        },
        FaultSite::Deadline => match outcome {
            // Degradable: Bounded when tripped inside a clause,
            // the error itself when tripped in the DNF phase.
            Ok(Outcome::Bounded { why, .. }) => {
                assert!(matches!(why, CountError::Deadline { .. }), "why: {why}")
            }
            Err(CountError::Deadline { .. }) => {}
            other => panic!("expected a deadline outcome from {spec}, got {other:?}"),
        },
        FaultSite::Counter(c) => match outcome {
            Ok(Outcome::Bounded { why, .. }) => match why {
                CountError::BudgetExceeded { resource, .. } => {
                    assert_eq!(resource, c.name(), "spec {spec}")
                }
                other => panic!("expected a budget why from {spec}, got {other}"),
            },
            Err(CountError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, c.name(), "spec {spec}")
            }
            other => panic!("expected a budget outcome from {spec}, got {other:?}"),
        },
    }
}

/// `Governor::new` arms no fault, whatever the environment holds. With
/// `PRESBURGER_FAULT` unset, this test re-runs itself in a child process
/// with the variable set; the child asserts that E11, whose exact count
/// charges `sum_depth`, still comes back exact.
#[test]
fn governor_new_ignores_the_environment() {
    const NAME: &str = "governor_new_ignores_the_environment";
    if std::env::var_os("PRESBURGER_FAULT").is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("current_exe"))
            .args(["--exact", NAME, "--test-threads=1"])
            .env("PRESBURGER_FAULT", "sum_depth:1")
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child run failed: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let mut s = Space::new();
    let (f, vars) = e11(&mut s);
    let gov = Governor::new(Budgets::unlimited());
    match governed(&s, &f, &vars, &gov) {
        Ok(Outcome::Exact(_)) => {}
        other => panic!("Governor::new armed a fault from the environment: {other:?}"),
    }
}

mod random_budget_brackets {
    use super::*;
    use presburger::gen::{generate, BudgetChoice, GenConfig, Rng};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// §4.6 bracketing as a property: for grammar-generated
        /// formulas under random budget mixes, every `Bounded` outcome
        /// satisfies `lower ≤ exact ≤ upper` at every parameter point,
        /// where `exact` is the ungoverned answer.
        #[test]
        fn bounded_outcomes_bracket_exact(case_seed in 0u64..10_000, budget_seed in 0u64..10_000) {
            let case = generate(&mut Rng::new(0xB0B).fork(case_seed), &GenConfig::default());
            let bc = BudgetChoice::draw(&mut Rng::new(0xB0B5).fork(budget_seed));
            let union = case.union();

            // The reference answer must itself be cheap: gate on a
            // governed deadline-only run so this test never hangs on a
            // pathological case.
            let ref_gov = Governor::new(Budgets {
                deadline: Some(Duration::from_secs(2)),
                ..Budgets::unlimited()
            });
            let exact = match try_count_solutions_governed(
                &case.space, &union, &case.vars, &CountOptions::default(), &ref_gov,
            ) {
                Ok(Outcome::Exact(sym)) => sym,
                _ => return Ok(()), // too heavy or degenerate: not a bracketing subject
            };

            // An Exact outcome or a structured budget error are both
            // fine here (exactness is family 3's job in
            // fuzz_differential); only Bounded carries the claim.
            let gov = Governor::new(bc.budgets);
            if let Ok(Outcome::Bounded { lower, upper, .. }) = try_count_solutions_governed(
                &case.space, &union, &case.vars, &CountOptions::default(), &gov,
            ) {
                let points: Vec<Vec<(String, i64)>> = if case.symbols.is_empty() {
                    vec![Vec::new()]
                } else {
                    (-3i64..=3)
                        .map(|v| {
                            case.symbols
                                .iter()
                                .map(|s| (case.space.name(*s).to_string(), v))
                                .collect()
                        })
                        .collect()
                };
                for bind in &points {
                    let refs: Vec<(&str, i64)> =
                        bind.iter().map(|(n, v)| (n.as_str(), *v)).collect();
                    let e = exact.eval_rat(&refs);
                    let l = lower.eval_rat(&refs);
                    let u = upper.eval_rat(&refs);
                    prop_assert!(
                        l <= e && e <= u,
                        "bracket violated at {:?} under {:?}: {} <= {} <= {}\n{}",
                        bind, bc.budgets, l, e, u, case.describe()
                    );
                }
            }
        }
    }
}
