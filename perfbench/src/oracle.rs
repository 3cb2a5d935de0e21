//! The correctness oracle: every distinct engine answer is evaluated at
//! its instance's symbol points and compared with a brute-force count
//! from `counting::enumerate`. Brute force runs once per base instance;
//! a renaming is checked against its base's counts under its own names.

use crate::inputs::Instance;
use presburger::arith::Int;
use presburger::counting::{enumerate, Symbolic};
use presburger::omega::dnf::{simplify, SimplifyOptions};
use presburger::omega::{parse_formula, Space, VarId};
use std::collections::{BTreeSet, HashMap};

/// Brute-force counts of `inst` at each of its points.
pub fn brute(inst: &Instance) -> Result<Vec<i64>, String> {
    let mut space = Space::new();
    let vars: Vec<VarId> = inst.vars.iter().map(|v| space.var(v)).collect();
    let f = parse_formula(&inst.formula, &mut space).map_err(|e| e.to_string())?;
    let dnf = simplify(&f, &mut space, &SimplifyOptions::default());
    let counts = inst
        .points
        .iter()
        .map(|point| {
            let sym = |v: VarId| {
                let name = space.name(v);
                inst.symbols
                    .iter()
                    .position(|s| s == name)
                    .map_or_else(Int::zero, |k| Int::from(point[k]))
            };
            enumerate::count_dnf(&dnf, &space, &vars, inst.range.0..=inst.range.1, &sym) as i64
        })
        .collect();
    Ok(counts)
}

/// Whether `answer` takes the values `counts` at `inst`'s points.
pub fn agrees(inst: &Instance, answer: &Symbolic, counts: &[i64]) -> bool {
    inst.points.iter().zip(counts).all(|(point, &want)| {
        let bindings: Vec<(&str, i64)> = inst
            .symbols
            .iter()
            .map(String::as_str)
            .zip(point.iter().copied())
            .collect();
        answer.try_eval_i64(&bindings) == Ok(want)
    })
}

/// `f` over `items` on up to two threads, results in order. The oracle
/// runs after the timed phase, so it may use both cores.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2);
    if half == 0 {
        return Vec::new();
    }
    let f = &f;
    std::thread::scope(|s| {
        let parts: Vec<_> = items
            .chunks(half)
            .map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Checks `answers[k]` (where present) for `instances[k]`; returns how
/// many disagree with brute force.
pub fn check(instances: &[Instance], answers: &[Option<&Symbolic>]) -> u64 {
    let bases: Vec<usize> = instances
        .iter()
        .zip(answers)
        .filter(|(_, a)| a.is_some())
        .map(|(i, _)| i.base)
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .collect();
    let counts: HashMap<usize, Result<Vec<i64>, String>> = bases
        .iter()
        .copied()
        .zip(par_map(&bases, |&b| brute(&instances[b])))
        .collect();
    let mut wrong = 0;
    for (inst, answer) in instances.iter().zip(answers) {
        let Some(answer) = answer else { continue };
        let ok = match &counts[&inst.base] {
            Ok(want) => agrees(inst, answer, want),
            Err(e) => {
                eprintln!("perfbench: brute force failed for {:?}: {e}", inst.body());
                false
            }
        };
        if !ok {
            eprintln!(
                "perfbench: WRONG ANSWER for {:?}: {}",
                inst.body(),
                answer.to_display_string()
            );
            wrong += 1;
        }
    }
    wrong
}
