//! The differential harness: runs one generated (or replayed) case
//! through four independent oracle/metamorphic families.
//!
//! 1. **Brute force** — the engine's count of `A ∨ B`, evaluated at
//!    concrete parameter points, must equal exhaustive enumeration
//!    over the case's box ([`crate::oracle`]).
//! 2. **Metamorphic laws** — inclusion–exclusion
//!    (`|A∪B| = |A| + |B| − |A∩B|`), invariance under variable
//!    renaming, and invariance under integer translation
//!    ([`crate::metamorphic`]).
//! 3. **Robustness** — governed runs under random budgets must
//!    satisfy `lower ≤ exact ≤ upper` for every [`Outcome::Bounded`],
//!    and agree with the ungoverned answer on every
//!    [`Outcome::Exact`].
//! 4. **Baselines** — on their supported fragment, the Tawbi and
//!    Haghighat–Polychronopoulos baselines are exact single sums, so
//!    they must equal (and in particular never fall below) the
//!    engine's exact count.
//!
//! Every engine call runs under a [`Governor`] wall-clock deadline, so
//! a pathological case degrades (and is skipped) rather than hanging
//! the gate. Setting `PRESBURGER_GEN_FAULT=count_off_by_one` or
//! `=miscount_stride` injects a deliberate bug into the engine-side
//! answer; the harness must then detect it and the shrinker must
//! minimize it — that closed loop is asserted by `scripts/check.sh`.

use crate::grammar::GenCase;
use crate::metamorphic;
use crate::oracle;
use crate::rng::Rng;
use presburger_arith::{Int, Rat};
use presburger_baselines::hp::hp_sum_once;
use presburger_baselines::tawbi::tawbi_sum;
use presburger_counting::{
    try_count_solutions_governed, Budgets, CountError, CountOptions, Governor, Outcome,
};
use presburger_omega::{Affine, Conjunct, Constraint, Formula, Space, VarId};
use presburger_polyq::mexpr::MExpr;
use presburger_polyq::QPoly;
use std::time::Duration;

/// A deliberately injected engine-side bug (`PRESBURGER_GEN_FAULT`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Every engine count is reported one too high.
    CountOffByOne,
    /// Counts of formulas containing a stride atom are one too high.
    MiscountStride,
}

impl Fault {
    /// Parses a fault name (`count_off_by_one` | `miscount_stride`).
    pub fn parse(s: &str) -> Option<Fault> {
        match s.trim() {
            "count_off_by_one" => Some(Fault::CountOffByOne),
            "miscount_stride" => Some(Fault::MiscountStride),
            _ => None,
        }
    }

    /// Reads `PRESBURGER_GEN_FAULT`. Unknown names panic, so a typo in
    /// a CI matrix cannot silently disable the check.
    pub fn from_env() -> Option<Fault> {
        match std::env::var("PRESBURGER_GEN_FAULT") {
            Ok(s) if !s.trim().is_empty() => Some(
                Fault::parse(&s)
                    .unwrap_or_else(|| panic!("unknown PRESBURGER_GEN_FAULT value {s:?}")),
            ),
            _ => None,
        }
    }

    fn applies_to(&self, f: &Formula) -> bool {
        match self {
            Fault::CountOffByOne => true,
            Fault::MiscountStride => {
                let mut found = false;
                f.for_each_atom(&mut |c| {
                    if matches!(c, Constraint::Stride(..)) {
                        found = true;
                    }
                });
                found
            }
        }
    }
}

/// Harness configuration shared by all families.
#[derive(Clone, Debug)]
pub struct Harness {
    /// Wall-clock deadline for each engine call (via the Governor).
    pub deadline: Duration,
    /// Injected engine-side bug, if any.
    pub fault: Option<Fault>,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness {
            deadline: Duration::from_secs(2),
            fault: None,
        }
    }
}

impl Harness {
    /// Default deadline plus the fault from `PRESBURGER_GEN_FAULT`.
    pub fn from_env() -> Harness {
        Harness {
            fault: Fault::from_env(),
            ..Harness::default()
        }
    }
}

/// The random budget configuration family 3 stresses a case with.
#[derive(Clone, Debug)]
pub struct BudgetChoice {
    /// The budgets handed to the Governor.
    pub budgets: Budgets,
}

impl BudgetChoice {
    /// Draws a random budget mix (kept fixed while shrinking a case).
    pub fn draw(rng: &mut Rng) -> BudgetChoice {
        fn opt(rng: &mut Rng, menu: &[u64]) -> Option<u64> {
            if rng.chance(1, 2) {
                None
            } else {
                Some(menu[rng.below(menu.len() as u64) as usize])
            }
        }
        BudgetChoice {
            budgets: Budgets {
                deadline: Some(Duration::from_millis(rng.range(50, 500) as u64)),
                max_splinters: opt(rng, &[0, 1, 2, 8, 64]),
                max_dnf_clauses: opt(rng, &[1, 2, 8, 64]),
                max_depth: opt(rng, &[1, 2, 4, 8]),
                max_pieces: opt(rng, &[1, 4, 16, 64]),
                max_coeff_bits: opt(rng, &[64, 128]),
            },
        }
    }
}

/// A reported failure: which family, which kind, and the full story.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Oracle family: `brute`, `metamorphic`, `robustness`, `baseline`.
    pub family: &'static str,
    /// Failure kind within the family (`mismatch`, `ie`, `rename`,
    /// `translate`, `governed-exact`, `bracket`, `engine-error`, …).
    pub kind: &'static str,
    /// Human-readable details (bindings, values, formula text).
    pub detail: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}/{}] {}", self.family, self.kind, self.detail)
    }
}

/// The engine's answer for one formula across all parameter points.
enum Engine {
    /// Exact values, one per binding, with any injected fault applied.
    Values(Vec<i64>),
    /// Budget/deadline degradation — family skipped for this formula.
    Skipped,
}

/// Concrete parameter points: one vector of `(name, value)` per point.
fn bindings(space: &Space, symbols: &[VarId]) -> Vec<Vec<(String, i64)>> {
    match symbols.len() {
        0 => vec![Vec::new()],
        1 => (-3i64..=4)
            .map(|v| vec![(space.name(symbols[0]).to_string(), v)])
            .collect(),
        _ => {
            // Cross the first two symbols over a smaller grid; further
            // symbols (the generator makes at most two) would get 0.
            let mut out = Vec::new();
            for a in -2i64..=2 {
                for b in -2i64..=2 {
                    let mut bind: Vec<(String, i64)> = symbols
                        .iter()
                        .skip(2)
                        .map(|s| (space.name(*s).to_string(), 0))
                        .collect();
                    bind.push((space.name(symbols[0]).to_string(), a));
                    bind.push((space.name(symbols[1]).to_string(), b));
                    out.push(bind);
                }
            }
            out
        }
    }
}

fn as_refs(bind: &[(String, i64)]) -> Vec<(&str, i64)> {
    bind.iter().map(|(n, v)| (n.as_str(), *v)).collect()
}

/// Runs the engine (governed by the harness deadline) on `f` and
/// evaluates at every binding, applying any injected fault.
fn engine_counts(
    h: &Harness,
    space: &Space,
    f: &Formula,
    vars: &[VarId],
    binds: &[Vec<(String, i64)>],
    family: &'static str,
) -> Result<Engine, CaseFailure> {
    let gov = Governor::new(Budgets {
        deadline: Some(h.deadline),
        ..Budgets::unlimited()
    });
    let outcome = try_count_solutions_governed(space, f, vars, &CountOptions::default(), &gov);
    let sym = match outcome {
        Ok(Outcome::Exact(sym)) => sym,
        Ok(Outcome::Bounded { .. }) => {
            return Ok(Engine::Skipped);
        }
        Err(e)
            if e.is_degradable()
                || matches!(e, CountError::Deadline { .. } | CountError::TooComplex(_)) =>
        {
            return Ok(Engine::Skipped);
        }
        Err(e) => {
            return Err(CaseFailure {
                family,
                kind: "engine-error",
                detail: format!("engine failed on {}: {e}", f.to_string(space)),
            });
        }
    };
    let nudge = i64::from(h.fault.map(|ft| ft.applies_to(f)).unwrap_or(false));
    let mut vals = Vec::with_capacity(binds.len());
    for bind in binds {
        match sym.try_eval_i64(&as_refs(bind)) {
            Ok(v) => vals.push(v + nudge),
            Err(e) => {
                return Err(CaseFailure {
                    family,
                    kind: "engine-error",
                    detail: format!(
                        "non-integral/uneval answer at {bind:?} for {}: {e}",
                        f.to_string(space)
                    ),
                });
            }
        }
    }
    Ok(Engine::Values(vals))
}

/// Checks one case against all four families. `Ok(())` means every
/// applicable check passed (inapplicable/over-budget checks skip).
pub fn check_case(case: &GenCase, h: &Harness, budgets: &BudgetChoice) -> Result<(), CaseFailure> {
    let binds = bindings(&case.space, &case.symbols);
    let union = case.union();

    let eu = engine_counts(h, &case.space, &union, &case.vars, &binds, "brute")?;

    family_brute(case, h, &binds, &union, &eu)?;
    family_metamorphic(case, h, &binds, &union, &eu)?;
    family_robustness(case, h, budgets, &binds, &union, &eu)?;
    family_baseline(case, h, &binds)?;
    Ok(())
}

fn family_brute(
    case: &GenCase,
    _h: &Harness,
    binds: &[Vec<(String, i64)>],
    union: &Formula,
    eu: &Engine,
) -> Result<(), CaseFailure> {
    let Engine::Values(vals) = eu else {
        return Ok(());
    };
    for (bind, &got) in binds.iter().zip(vals) {
        let sym = lookup_fn(&case.space, bind);
        let brute = oracle::brute_force(union, &case.vars, case.brute_range(), &sym) as i64;
        if got != brute {
            return Err(CaseFailure {
                family: "brute",
                kind: "mismatch",
                detail: format!(
                    "engine={got} brute={brute} at {bind:?}\n{}",
                    case.describe()
                ),
            });
        }
    }
    Ok(())
}

fn family_metamorphic(
    case: &GenCase,
    h: &Harness,
    binds: &[Vec<(String, i64)>],
    union: &Formula,
    eu: &Engine,
) -> Result<(), CaseFailure> {
    let fam = "metamorphic";
    // Inclusion–exclusion: |A∪B| = |A| + |B| − |A∩B|.
    let inter = Formula::and(vec![case.body_a.clone(), case.body_b.clone()]);
    let ea = engine_counts(h, &case.space, &case.body_a, &case.vars, binds, fam)?;
    let eb = engine_counts(h, &case.space, &case.body_b, &case.vars, binds, fam)?;
    let ei = engine_counts(h, &case.space, &inter, &case.vars, binds, fam)?;
    if let (Engine::Values(u), Engine::Values(a), Engine::Values(b), Engine::Values(i)) =
        (eu, &ea, &eb, &ei)
    {
        for (k, bind) in binds.iter().enumerate() {
            if u[k] != a[k] + b[k] - i[k] {
                return Err(CaseFailure {
                    family: fam,
                    kind: "ie",
                    detail: format!(
                        "|A∪B|={} but |A|+|B|−|A∩B|={}+{}−{} at {bind:?}\n{}",
                        u[k],
                        a[k],
                        b[k],
                        i[k],
                        case.describe()
                    ),
                });
            }
        }
    }
    let Engine::Values(uvals) = eu else {
        return Ok(());
    };
    // Renaming invariance.
    let r = metamorphic::rename_free(&case.space, union, &case.vars, &case.symbols);
    let rbinds: Vec<Vec<(String, i64)>> = binds
        .iter()
        .map(|b| b.iter().map(|(n, v)| (format!("{n}_r"), *v)).collect())
        .collect();
    if let Engine::Values(rv) = engine_counts(h, &r.space, &r.formula, &r.vars, &rbinds, fam)? {
        for (k, bind) in binds.iter().enumerate() {
            if rv[k] != uvals[k] {
                return Err(CaseFailure {
                    family: fam,
                    kind: "rename",
                    detail: format!(
                        "renamed count {} != original {} at {bind:?}\n{}",
                        rv[k],
                        uvals[k],
                        case.describe()
                    ),
                });
            }
        }
    }
    // Translation invariance.
    let shifts: Vec<i64> = (0..case.vars.len()).map(|i| [3, -2, 5][i % 3]).collect();
    let t = metamorphic::translate(union, &case.vars, &shifts);
    if let Engine::Values(tv) = engine_counts(h, &case.space, &t, &case.vars, binds, fam)? {
        for (k, bind) in binds.iter().enumerate() {
            if tv[k] != uvals[k] {
                return Err(CaseFailure {
                    family: fam,
                    kind: "translate",
                    detail: format!(
                        "translated count {} != original {} at {bind:?} (shifts {shifts:?})\n{}",
                        tv[k],
                        uvals[k],
                        case.describe()
                    ),
                });
            }
        }
    }
    Ok(())
}

fn family_robustness(
    case: &GenCase,
    h: &Harness,
    bc: &BudgetChoice,
    binds: &[Vec<(String, i64)>],
    union: &Formula,
    eu: &Engine,
) -> Result<(), CaseFailure> {
    let fam = "robustness";
    // Only exercise this family when the deadline-governed engine run
    // finished comfortably, so there is an exact answer to bracket.
    let Engine::Values(exact) = eu else {
        return Ok(());
    };
    // Governed bracketing: any Bounded outcome under random budgets
    // must bracket the exact answer.
    let gov = Governor::new(bc.budgets);
    match try_count_solutions_governed(
        &case.space,
        union,
        &case.vars,
        &CountOptions::default(),
        &gov,
    ) {
        Ok(Outcome::Exact(sym)) => {
            let nudge = i64::from(h.fault.map(|ft| ft.applies_to(union)).unwrap_or(false));
            for (k, bind) in binds.iter().enumerate() {
                let got = sym.try_eval_i64(&as_refs(bind)).map(|v| v + nudge).ok();
                if got != Some(exact[k]) {
                    return Err(CaseFailure {
                        family: fam,
                        kind: "governed-exact",
                        detail: format!(
                            "governed Exact {:?} != ungoverned {} at {bind:?}\n{}",
                            got,
                            exact[k],
                            case.describe()
                        ),
                    });
                }
            }
        }
        Ok(Outcome::Bounded { lower, upper, .. }) => {
            for (k, bind) in binds.iter().enumerate() {
                let refs = as_refs(bind);
                let lo = lower.eval_rat(&refs);
                let hi = upper.eval_rat(&refs);
                let ex = Rat::from(exact[k]);
                if !(lo <= ex && ex <= hi) {
                    return Err(CaseFailure {
                        family: fam,
                        kind: "bracket",
                        detail: format!(
                            "Bounded {lo} ≤ {ex} ≤ {hi} violated at {bind:?} under {:?}\n{}",
                            bc.budgets,
                            case.describe()
                        ),
                    });
                }
            }
        }
        Err(e)
            if e.is_degradable()
                || matches!(e, CountError::Deadline { .. } | CountError::TooComplex(_)) => {}
        Err(e) => {
            return Err(CaseFailure {
                family: fam,
                kind: "engine-error",
                detail: format!("governed run failed structurally: {e}\n{}", case.describe()),
            });
        }
    }
    Ok(())
}

fn family_baseline(
    case: &GenCase,
    h: &Harness,
    binds: &[Vec<(String, i64)>],
) -> Result<(), CaseFailure> {
    let fam = "baseline";
    for body in [&case.body_a, &case.body_b] {
        let Some(conj) = tawbi_fragment(body, &case.vars) else {
            continue;
        };
        let Engine::Values(exact) = engine_counts(h, &case.space, body, &case.vars, binds, fam)?
        else {
            continue;
        };
        // Tawbi is exact on this fragment, so "never below the exact
        // count" sharpens to equality. The fragment check above is
        // syntactic; `tawbi_sum`'s own asserts are the final authority
        // (e.g. a tight box can normalize `lo ≤ x ≤ hi` into an
        // equality, leaving no `≥` bounds), so a panic means "out of
        // fragment" and skips the baseline for this body.
        let mut s2 = case.space.clone();
        let r = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tawbi_sum(&conj, &case.vars, &QPoly::one(), &mut s2)
        })) {
            Ok(r) => r,
            Err(_) => continue,
        };
        for (k, bind) in binds.iter().enumerate() {
            let tv = r.value.eval(&s2, &lookup_fn(&s2, bind));
            if tv != Rat::from(exact[k]) {
                return Err(CaseFailure {
                    family: fam,
                    kind: "tawbi",
                    detail: format!(
                        "tawbi={} engine={} at {bind:?} for {}\n{}",
                        tv,
                        exact[k],
                        body.to_string(&case.space),
                        case.describe()
                    ),
                });
            }
        }
        // Haghighat–Polychronopoulos: single-variable affine bounds.
        if case.vars.len() == 1 {
            let x = case.vars[0];
            if let Some((lo, hi)) = hp_fragment(&conj, x) {
                let hp = hp_sum_once(&lo, &hi, &[MExpr::int(1)]);
                for (k, bind) in binds.iter().enumerate() {
                    let hv = hp.expr.eval(&lookup_fn(&case.space, bind));
                    if hv != Rat::from(exact[k]) {
                        return Err(CaseFailure {
                            family: fam,
                            kind: "hp",
                            detail: format!(
                                "hp={} engine={} at {bind:?} for {}\n{}",
                                hv,
                                exact[k],
                                body.to_string(&case.space),
                                case.describe()
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// The symbol-assignment closure for a binding: resolves a variable's
/// name in `space` against the bound parameter values (counted vars
/// are supplied elsewhere; anything reaching this must be bound).
fn lookup_fn<'a>(space: &'a Space, bind: &'a [(String, i64)]) -> impl Fn(VarId) -> Int + 'a {
    move |v: VarId| {
        let name = space.name(v);
        bind.iter()
            .find(|(n, _)| n == name)
            .map(|(_, val)| Int::from(*val))
            .unwrap_or_else(|| panic!("no binding for {name}"))
    }
}

/// If `f` is a pure conjunction of `≥` atoms with unit coefficients on
/// every counted variable, and every counted variable has both a lower
/// and an upper bound, returns the conjunct Tawbi supports.
fn tawbi_fragment(f: &Formula, vars: &[VarId]) -> Option<Conjunct> {
    let mut atoms = Vec::new();
    if !collect_ges(f, &mut atoms) {
        return None;
    }
    for &v in vars {
        let mut has_lo = false;
        let mut has_hi = false;
        for e in &atoms {
            let c = e.coeff(v);
            match c.to_i64() {
                Some(0) => {}
                Some(1) => has_lo = true,
                Some(-1) => has_hi = true,
                _ => return None, // non-unit coefficient
            }
        }
        if !(has_lo && has_hi) {
            return None;
        }
    }
    let mut c = Conjunct::new();
    for e in atoms {
        c.add_geq(e);
    }
    Some(c)
}

fn collect_ges(f: &Formula, out: &mut Vec<Affine>) -> bool {
    match f {
        Formula::True => true,
        Formula::Atom(Constraint::Ge(e)) => {
            out.push(e.clone());
            true
        }
        Formula::And(fs) => fs.iter().all(|g| collect_ges(g, out)),
        _ => false,
    }
}

/// If every atom of the conjunct mentions `x` (with unit coefficient),
/// returns HP's `(max of lower bounds, min of upper bounds)` as
/// min/max expressions over the symbols.
fn hp_fragment(c: &Conjunct, x: VarId) -> Option<(MExpr, MExpr)> {
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    for e in c.geqs() {
        let coeff = e.coeff(x).to_i64()?;
        let mut rest = e.clone();
        rest.set_coeff(x, Int::zero());
        match coeff {
            // x + rest ≥ 0  ⇔  x ≥ −rest
            1 => lowers.push(MExpr::from_affine(&(-rest))),
            // −x + rest ≥ 0  ⇔  x ≤ rest
            -1 => uppers.push(MExpr::from_affine(&rest)),
            _ => return None, // pure-symbol atom or non-unit: out of fragment
        }
    }
    let fold = |mut v: Vec<MExpr>, max: bool| -> Option<MExpr> {
        let mut acc = v.pop()?;
        while let Some(e) = v.pop() {
            acc = if max {
                MExpr::max2(acc, e)
            } else {
                MExpr::min2(acc, e)
            };
        }
        Some(acc)
    };
    Some((fold(lowers, true)?, fold(uppers, false)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate, GenConfig};

    fn smoke(seed: u64, n: u64, fault: Option<Fault>) -> usize {
        let h = Harness {
            fault,
            ..Harness::default()
        };
        let cfg = GenConfig::default();
        let mut failures = 0;
        for i in 0..n {
            let mut rng = Rng::new(seed).fork(i);
            let case = generate(&mut rng, &cfg);
            let bc = BudgetChoice::draw(&mut rng);
            if check_case(&case, &h, &bc).is_err() {
                failures += 1;
            }
        }
        failures
    }

    /// A small clean smoke run: every family passes on every case.
    #[test]
    fn clean_cases_pass_all_families() {
        assert_eq!(smoke(0xA5EED, 12, None), 0);
    }

    /// With an injected off-by-one, the harness catches it quickly.
    #[test]
    fn injected_fault_is_caught() {
        assert!(smoke(0xA5EED, 12, Some(Fault::CountOffByOne)) > 0);
    }
}
