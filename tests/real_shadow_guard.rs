//! Counts whose innermost variable has one non-unit bound pair
//! `β ≤ b·v`, `a·v ≤ α`. The convex sum telescopes
//! `F(⌊α/a⌋) − F(⌈β/b⌉ − 1)` and guards it with the real shadow
//! `a·β ≤ b·α`: on the one-short empty range the value is `F(x) − F(x)
//! = 0`, so the guard is exact for the sum although not for the set,
//! and no splinter is needed for it.
//!
//! Each row is checked against brute force for a range of `n`, and its
//! splinters are held under a ceiling. With exact splinters as the
//! guard the first two rows took 3,668 and 9,463 splinters, the third
//! would have taken ~5·10⁸, and the last failed with
//! `too_complex: summation recursion budget exhausted`.

use presburger::prelude::*;
use presburger::trace::{self, Counter};
use presburger_omega::parse_formula;

struct Row {
    formula: &'static str,
    vars: &'static [&'static str],
    /// The count at `n`, by enumeration.
    brute: fn(i64) -> i64,
    ns: &'static [i64],
    max_splinters: u64,
}

/// Points of the box `0 ≤ xᵢ ≤ n` (`dims` coordinates) where `m`
/// divides `Σ cᵢ·xᵢ + k·n`.
fn box_stride(n: i64, dims: usize, c: &[i64], k: i64, m: i64) -> i64 {
    let mut hits = 0;
    let side = (n + 1).max(0) as usize;
    for idx in 0..side.pow(dims as u32) {
        let mut rest = idx;
        let mut e = k * n;
        for ci in &c[..dims] {
            e += ci * (rest % side) as i64;
            rest /= side;
        }
        hits += i64::from(e.rem_euclid(m) == 0);
    }
    hits
}

const ROWS: &[Row] = &[
    Row {
        formula: "0 <= i <= n && 0 <= j <= n && 7 | 2i + 3j + n",
        vars: &["i", "j"],
        brute: |n| box_stride(n, 2, &[2, 3], 1, 7),
        ns: &[0, 1, 2, 3, 5, 6, 7, 8, 13, 14, 20, 27, 33, 40],
        max_splinters: 80,
    },
    Row {
        formula: "0 <= i <= n && 0 <= j <= n && 11 | 2i + 3j + n",
        vars: &["i", "j"],
        brute: |n| box_stride(n, 2, &[2, 3], 1, 11),
        ns: &[0, 1, 2, 3, 5, 10, 11, 12, 21, 22, 30, 37, 44],
        max_splinters: 90,
    },
    Row {
        formula: "n <= 1001b && 1002b <= n + 5000",
        vars: &["b"],
        // b ∈ [⌈n/1001⌉, ⌊(n+5000)/1002⌋]
        brute: |n| ((n + 5000).div_euclid(1002) + (-n).div_euclid(1001) + 1).max(0),
        ns: &[
            -5000, -5, 0, 1, 2, 5, 10, 100, 999, 1000, 1001, 4_004_000, 5_005_000, 5_005_001,
        ],
        max_splinters: 0,
    },
    Row {
        formula: "0 <= i <= n && 0 <= j <= n && 0 <= k <= n && 5 | 2i + 3j + 4k",
        vars: &["i", "j", "k"],
        brute: |n| box_stride(n, 3, &[2, 3, 4], 0, 5),
        ns: &[0, 1, 2, 3, 4, 5, 6, 9, 10, 11],
        max_splinters: 850,
    },
];

#[test]
fn non_unit_pairs_match_brute_force_within_splinter_ceilings() {
    for row in ROWS {
        let mut s = Space::new();
        let f = parse_formula(row.formula, &mut s).expect("parses");
        let vars: Vec<VarId> = row
            .vars
            .iter()
            .map(|v| s.lookup(v).expect("bound variable"))
            .collect();
        trace::enable_counters(true);
        let before = trace::snapshot();
        let answer = try_count_solutions(&s, &f, &vars, &CountOptions::default());
        let stats = trace::snapshot().delta(&before);
        trace::enable_counters(false);
        let answer = answer.unwrap_or_else(|e| panic!("{}: {e}", row.formula));
        let splinters = stats.get(Counter::SplintersGenerated);
        assert!(
            splinters <= row.max_splinters,
            "{}: {splinters} splinters, ceiling {}",
            row.formula,
            row.max_splinters
        );
        for &n in row.ns {
            assert_eq!(
                answer.eval_i64(&[("n", n)]),
                Some((row.brute)(n)),
                "{} at n={n}",
                row.formula
            );
        }
    }
}
