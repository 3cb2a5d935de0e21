//! `perfbench compare A.jsonl B.jsonl`: for each workload and metric,
//! the median and quartiles of each side, the ratio B/A, and — for the
//! end-to-end metrics — a verdict under the bounds in the BENCHMARK.json
//! beside this package.
//! The files hold the records `--out` appends, one run per line; A is
//! the base (the parent commit), B the change.

use crate::report::{quantile, Json};
use std::collections::{BTreeMap, BTreeSet};

/// One result record: `(workload, traced)` → metric → `(seed, value)`.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<(u64, f64)>>>;

fn read(path: &str) -> Result<(Runs, BTreeMap<String, String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    let mut units = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("{path}:{}: no {k:?}", n + 1));
        let workload = field("workload")?.str().unwrap_or_default().to_string();
        let seed = field("seed")?.num().unwrap_or(0.0) as u64;
        let traced = field("trace")?.num() == Some(1.0);
        let Some(Json::Obj(metrics)) = field("result")?.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        let slot = runs.entry((workload, traced)).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
            if let Some(u) = m.get("unit").and_then(Json::str) {
                units.insert(name.clone(), u.to_string());
            }
            slot.entry(name.clone()).or_default().push((seed, value));
        }
    }
    Ok((runs, units))
}

/// The bounds file: the `BENCHMARK.json` next to this package.
const BOUNDS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `name` → (lower is better, bound) for every end-to-end metric.
fn bounds() -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(BOUNDS).map_err(|e| format!("{BOUNDS}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{BOUNDS}: {e}"))?;
    let Some(Json::Arr(list)) = spec.get("end_to_end") else {
        return Err(format!("{BOUNDS}: no end_to_end list"));
    };
    Ok(list
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.str()?.to_string();
            let lower = m.get("better")?.str()? == "lower";
            Some((name, (lower, m.get("bound")?.num()?)))
        })
        .collect())
}

struct Side {
    q1: f64,
    median: f64,
    q3: f64,
    n: usize,
}

fn side(vals: &[(u64, f64)]) -> Side {
    let xs: Vec<f64> = vals.iter().map(|&(_, v)| v).collect();
    Side {
        q1: quantile(&xs, 0.25),
        median: quantile(&xs, 0.5),
        q3: quantile(&xs, 0.75),
        n: xs.len(),
    }
}

/// Fewer seed pairs than this never give `better`.
const MIN_PAIRS: usize = 10;

/// A's and B's runs paired by seed and, within one seed, by their order
/// in each file: with repeated seeds, A's first run at a seed meets B's
/// first run at it, the second the second, and so on. Runs without a
/// partner are left out.
fn pairs(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let mut b_runs: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(seed, v) in b {
        b_runs.entry(seed).or_default().push(v);
    }
    let mut taken: BTreeMap<u64, usize> = BTreeMap::new();
    a.iter()
        .filter_map(|&(seed, va)| {
            let k = taken.entry(seed).or_default();
            let vb = *b_runs.get(&seed)?.get(*k)?;
            *k += 1;
            Some((va, vb))
        })
        .collect()
}

/// The verdict on B against A for a metric with `bound`:
/// - `worse`: B's median is worse than A's by more than the bound;
/// - `better`: there are at least [`MIN_PAIRS`] seed pairs, B wins at
///   least 9 in 10 of them, and its median is better than A's by more
///   than A's quartile spread;
/// - `unresolved`: A's own spread exceeds the bound and not every run of
///   B beats every run of A;
/// - `same`: none of these.
fn verdict(a: &[(u64, f64)], b: &[(u64, f64)], lower: bool, bound: f64) -> &'static str {
    let (sa, sb) = (side(a), side(b));
    let gain = |from: f64, to: f64| {
        if lower {
            (from - to) / from
        } else {
            (to - from) / from
        }
    };
    if -gain(sa.median, sb.median) > bound {
        return "worse";
    }
    let better = |x: f64, y: f64| if lower { y < x } else { y > x };
    let pairs = pairs(a, b);
    let wins = pairs.iter().filter(|&&(va, vb)| better(va, vb)).count();
    let spread = (sa.q3 - sa.q1) / sa.median.abs();
    if pairs.len() >= MIN_PAIRS
        && wins * 10 >= pairs.len() * 9
        && gain(sa.median, sb.median) > spread
    {
        return "better";
    }
    let all_better = a
        .iter()
        .all(|&(_, va)| b.iter().all(|&(_, vb)| better(va, vb)));
    if spread > bound && !all_better {
        return "unresolved";
    }
    "same"
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare <A.jsonl> <B.jsonl>");
        return 2;
    };
    let loaded = read(a).and_then(|a| Ok((a, read(b)?, bounds()?)));
    let ((a, mut units), (b, units_b), bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    units.extend(units_b);
    let keys: BTreeSet<&(String, bool)> = a.keys().chain(b.keys()).collect();
    println!(
        "{:18} {:40} {:>6} | {:>32} | {:>32} | {:>8} | verdict",
        "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "B/A"
    );
    let mut any_worse = false;
    let empty = BTreeMap::new();
    for key in keys {
        let (ma, mb) = (a.get(key).unwrap_or(&empty), b.get(key).unwrap_or(&empty));
        let names: BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
        for name in names {
            let (va, vb) = (
                ma.get(name).map_or(&[][..], Vec::as_slice),
                mb.get(name).map_or(&[][..], Vec::as_slice),
            );
            let fmt = |s: &Side| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
            let (sa, sb) = (side(va), side(vb));
            let verdict = match bounds.get(name.as_str()) {
                Some(&(lower, bound)) if !va.is_empty() && !vb.is_empty() => {
                    verdict(va, vb, lower, bound)
                }
                _ => "-",
            };
            any_worse |= verdict == "worse";
            println!(
                "{:18} {:40} {:>6} | {:>32} | {:>32} | {:>8.4} | {verdict}",
                format!("{}{}", key.0, if key.1 { " (traced)" } else { "" }),
                name,
                units.get(name.as_str()).map_or("", String::as_str),
                fmt(&sa),
                fmt(&sb),
                sb.median / sa.median,
            );
        }
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(vals: &[f64]) -> Vec<(u64, f64)> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    /// The README's own check runs one seed repeatedly. Each A run meets
    /// the B run in the same position, so one lucky B run does not win
    /// every pair.
    #[test]
    fn repeated_seeds_pair_in_order() {
        let at_seed_1 = |vals: &[f64]| vals.iter().map(|&v| (1, v)).collect::<Vec<_>>();
        let a = at_seed_1(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        let b = at_seed_1(&[80.0, 102.0, 102.0, 98.0, 98.0, 98.0, 98.0, 98.0, 98.0, 98.0]);
        assert_eq!(
            pairs(&a, &b)[..3],
            [(100.0, 80.0), (101.0, 102.0), (99.0, 102.0)]
        );
        assert_eq!(verdict(&a, &b, true, 0.1), "same");
        // Fewer than ten pairs never give `better`.
        let faster: Vec<(u64, f64)> = a.iter().map(|&(s, v)| (s, v * 0.8)).collect();
        assert_eq!(verdict(&a, &faster, true, 0.1), "better");
        assert_eq!(verdict(&a[..5], &faster[..5], true, 0.1), "same");
        // Runs without a partner are left out.
        assert_eq!(pairs(&a, &b[..4]).len(), 4);
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        let slower: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 1.2)).collect();
        let faster: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 0.8)).collect();
        assert_eq!(verdict(&base, &slower, true, 0.1), "worse");
        assert_eq!(verdict(&base, &faster, true, 0.1), "better");
        assert_eq!(verdict(&base, &base, true, 0.1), "same");
        // Higher-is-better metrics read the other way round.
        assert_eq!(verdict(&base, &slower, false, 0.1), "better");
        let noisy = runs(&[
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ]);
        assert_eq!(verdict(&noisy, &noisy, true, 0.1), "unresolved");
    }
}
