//! One function per paper experiment (see `DESIGN.md` §3 for the
//! index). Each returns a [`Report`] comparing the paper's claim with
//! what this implementation measures.

use presburger_apps::{distinct_cache_lines, distinct_locations, ArrayRef, BlockCyclic, LoopNest};
use presburger_arith::{Int, Rat};
use presburger_baselines::{example2_hp_answer, fst_locations, intro_example, tawbi_sum, MExpr};
use presburger_counting::{enumerate, try_count_solutions, CountOptions, Mode, Symbolic};
use presburger_omega::dnf::{simplify, SimplifyOptions};
use presburger_omega::eliminate::{eliminate, Shadow};
use presburger_omega::hull::{summarize_offsets, zero_one_encoding};
use presburger_omega::{Affine, Conjunct, Formula, Space, VarId};
use presburger_polyq::QPoly;
use presburger_trace::{self as trace, Counter, PipelineStats};
use std::time::{Duration, Instant};

/// The outcome of one experiment.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id (matches DESIGN.md §3).
    pub id: &'static str,
    /// Short human-readable title.
    pub title: &'static str,
    /// What the paper reports.
    pub paper: String,
    /// What this implementation measures.
    pub measured: String,
    /// Whether the measured result matches the paper's claim (shape,
    /// not absolute timing).
    pub pass: bool,
    /// Wall time for the whole experiment (checks included) — filled by
    /// [`all_experiments`].
    pub wall: Duration,
    /// Pipeline counters accumulated during the experiment — filled by
    /// [`all_experiments`].
    pub counters: PipelineStats,
    /// Wall-clock speedup of the clause pipeline at 4 worker threads
    /// over 1, measured by the stress experiments (`None` elsewhere).
    pub par_speedup: Option<f64>,
    /// Memo-table hit rate over the S3 zipf request stream
    /// (`hits / (hits + misses)`, `None` elsewhere).
    pub memo_hit_rate: Option<f64>,
    /// Wall-clock speedup of the S3 zipf request stream with the memo
    /// on over the same stream with it off, each side's fastest of five
    /// runs (`None` elsewhere).
    pub memo_speedup: Option<f64>,
}

impl Report {
    fn new(
        id: &'static str,
        title: &'static str,
        paper: impl Into<String>,
        measured: impl Into<String>,
        pass: bool,
    ) -> Report {
        Report {
            id,
            title,
            paper: paper.into(),
            measured: measured.into(),
            pass,
            wall: Duration::ZERO,
            counters: PipelineStats::default(),
            par_speedup: None,
            memo_hit_rate: None,
            memo_speedup: None,
        }
    }

    /// The headline pipeline counters as a compact `name=value` list
    /// (EXPERIMENTS.md table cell). Low-level counters (feasibility
    /// checks, Faulhaber histogram, gist calls) are left to the full
    /// JSON dump.
    pub fn counter_summary(&self) -> String {
        const HEADLINE: [Counter; 14] = [
            Counter::SplintersGenerated,
            Counter::SplintersPruned,
            Counter::DarkShadowClauses,
            Counter::ConvexLeafPieces,
            Counter::ConvexSplitCases,
            Counter::DnfClausesClean,
            Counter::DnfClausesDisjoint,
            Counter::RedundantRemovedComplete,
            Counter::SmithNormalFormCalls,
            Counter::WitnessHits,
            Counter::TawbiSplits,
            Counter::HpRewriteSteps,
            Counter::FstSummations,
            Counter::AdaptiveExactFallbacks,
        ];
        let mut out = String::new();
        for c in HEADLINE {
            let v = self.counters.get(c);
            if v == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!("{}={v}", c.name()));
        }
        if out.is_empty() {
            out.push('—');
        }
        out
    }
}

/// Runs every experiment, in DESIGN.md order, with pipeline counters
/// collected per experiment.
pub fn all_experiments() -> Vec<Report> {
    let fns: [fn() -> Report; 21] = [
        e1_simple_sums,
        e2_intro_naive,
        e3_simplification,
        e4_example1_tawbi,
        e5_example2_hp,
        e6_example3_hp,
        e7_example4_fst,
        e8_example5_sor,
        e9_example6_parity,
        e10_hpf_block_cyclic,
        e11_disjoint_splintering,
        e12_stencil_summaries,
        a1_redundancy_ablation,
        a2_order_ablation,
        a3_disjoint_vs_inclusion_exclusion,
        a4_exact_vs_approximate,
        a5_minmax_answer_form,
        a6_adaptive_bounds,
        s1_manyclause_determinism,
        s2_manyclause_speedup,
        s3_memo_zipf,
    ];
    fns.iter().map(|f| run_instrumented(*f)).collect()
}

/// Runs one experiment with counters enabled, recording wall time and
/// the counter delta attributable to it.
fn run_instrumented(f: fn() -> Report) -> Report {
    let was_counting = trace::counting();
    trace::enable_counters(true);
    let before = trace::snapshot();
    let t = Instant::now();
    let mut r = f();
    r.wall = t.elapsed();
    r.counters = trace::snapshot().delta(&before);
    trace::enable_counters(was_counting);
    r
}

fn count(space: &Space, f: &Formula, vars: &[VarId]) -> Symbolic {
    try_count_solutions(space, f, vars, &CountOptions::default()).expect("experiment count failed")
}

/// E1 (§1 table): the four introductory sums.
pub fn e1_simple_sums() -> Report {
    let mut s = Space::new();
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");

    // Σ 1..10 1 = 10
    let c1 = count(
        &s,
        &Formula::between(Affine::constant(1), i, Affine::constant(10)),
        &[i],
    );
    let ok1 = c1.eval_i64(&[]) == Some(10);

    // Σ 1..n 1 = n if 1 ≤ n
    let c2 = count(
        &s,
        &Formula::between(Affine::constant(1), i, Affine::var(n)),
        &[i],
    );
    let ok2 = (0..=8i64).all(|nv| c2.eval_i64(&[("n", nv)]) == Some(nv.max(0)));

    // Σ over the square = n² if 1 ≤ n
    let square = Formula::and(vec![
        Formula::between(Affine::constant(1), i, Affine::var(n)),
        Formula::between(Affine::constant(1), j, Affine::var(n)),
    ]);
    let c3 = count(&s, &square, &[i, j]);
    let ok3 = (0..=8i64).all(|nv| c3.eval_i64(&[("n", nv)]) == Some((nv.max(0)).pow(2)));

    // Σ over 1 ≤ i < j ≤ n = n(n−1)/2 if 2 ≤ n
    let tri = Formula::and(vec![
        Formula::le(Affine::constant(1), Affine::var(i)),
        Formula::lt(Affine::var(i), Affine::var(j)),
        Formula::le(Affine::var(j), Affine::var(n)),
    ]);
    let c4 = count(&s, &tri, &[i, j]);
    let ok4 = (0..=8i64).all(|nv| c4.eval_i64(&[("n", nv)]) == Some(nv * (nv - 1) / 2));

    Report::new(
        "E1",
        "simple sums (§1 table)",
        "10; ⟨n | 1≤n⟩; ⟨n² | 1≤n⟩; ⟨n(n−1)/2 | 2≤n⟩",
        format!("10={ok1}; n={ok2}; n²={ok3}; n(n−1)/2={ok4}"),
        ok1 && ok2 && ok3 && ok4,
    )
}

/// E2 (§1): the naive CAS answer vs the guarded answer.
pub fn e2_intro_naive() -> Report {
    let mut s = Space::new();
    let (naive, n, m) = intro_example(&mut s);
    let i = s.var("i");
    let j = s.var("j");
    let f = Formula::and(vec![
        Formula::between(Affine::constant(1), i, Affine::var(n)),
        Formula::between(Affine::var(i), j, Affine::var(m)),
    ]);
    let exact = count(&s, &f, &[i, j]);
    let brute = |nv: i64, mv: i64| -> i64 { (1..=nv).map(|iv| (iv..=mv).count() as i64).sum() };
    let mut naive_wrong_somewhere = false;
    let mut exact_right_everywhere = true;
    for nv in -2i64..=8 {
        for mv in -2i64..=8 {
            let b = brute(nv, mv);
            let nv_val = naive.eval(&|v| if v == n { Int::from(nv) } else { Int::from(mv) });
            let ev = exact.eval_rat(&[("n", nv), ("m", mv)]);
            if nv_val != Rat::from(b) {
                naive_wrong_somewhere = true;
            }
            if ev != Rat::from(b) {
                exact_right_everywhere = false;
            }
        }
    }
    // the specific wrong point the paper calls out: 1 ≤ m < n
    let naive_at = naive.eval(&|v| if v == n { Int::from(5) } else { Int::from(2) });
    // n(2m−n+1)/2 at (n,m) = (5,2) is 5·0/2 = 0 — not the true 3
    let paper_wrong = naive_at == Rat::zero();
    Report::new(
        "E2",
        "intro: Mathematica-style vs guarded (§1)",
        "naive n(2m−n+1)/2 wrong for m<n; true answer m(m+1)/2 there",
        format!(
            "naive wrong somewhere={naive_wrong_somewhere}, matches n(2m−n+1)/2 at (5,2)={paper_wrong}, ours exact everywhere={exact_right_everywhere}"
        ),
        naive_wrong_somewhere && paper_wrong && exact_right_everywhere,
    )
}

/// Builds the §2.6 formula.
pub fn section26_formula(s: &mut Space) -> (Formula, VarId, VarId, VarId) {
    let i = s.var("i");
    let ip = s.var("ip");
    let n = s.var("n");
    let i2 = s.var("i2");
    let j = s.var("j");
    let inner = |parity: i64| {
        Formula::exists(
            vec![i2, j],
            Formula::and(vec![
                Formula::between(Affine::constant(1), i2, Affine::term(n, 2)),
                Formula::between(Affine::constant(1), j, Affine::var(n) - Affine::constant(1)),
                Formula::lt(Affine::var(i), Affine::var(i2)),
                Formula::eq(Affine::var(i2), Affine::var(ip)),
                Formula::eq(
                    Affine::term(j, 2) + Affine::constant(parity),
                    Affine::var(i2),
                ),
            ]),
        )
    };
    let f = Formula::and(vec![
        Formula::between(Affine::constant(1), i, Affine::term(n, 2)),
        Formula::between(Affine::constant(1), ip, Affine::term(n, 2)),
        Formula::eq(Affine::var(i), Affine::var(ip)),
        Formula::not(inner(0)),
        Formula::not(inner(1)),
    ]);
    (f, i, ip, n)
}

/// E3 (§2.6): simplifying the dependence formula; the paper reports
/// 12 ms on a 1992 Sun Sparc IPX.
pub fn e3_simplification() -> Report {
    let mut s = Space::new();
    let (f, i, ip, _n) = section26_formula(&mut s);
    let t = Instant::now();
    let d = simplify(&f, &mut s, &SimplifyOptions::default());
    let elapsed = t.elapsed();
    // semantic check against brute force
    let mut ok = true;
    for nv in 0i64..=4 {
        for iv in 0..=2 * nv + 1 {
            for ipv in 0..=2 * nv + 1 {
                let base = 1 <= iv && iv <= 2 * nv && iv == ipv;
                let blocked = (1..=2 * nv).any(|i2v| {
                    (1..=nv - 1)
                        .any(|jv| iv < i2v && i2v == ipv && (2 * jv == i2v || 2 * jv + 1 == i2v))
                });
                let expected = base && !blocked;
                let got = d.contains_point(&s, &|v| {
                    if v == i {
                        Int::from(iv)
                    } else if v == ip {
                        Int::from(ipv)
                    } else {
                        Int::from(nv)
                    }
                });
                ok &= got == expected;
            }
        }
    }
    Report::new(
        "E3",
        "formula simplification (§2.6)",
        "simplifies to a 2-clause union; 12 ms on a Sun Sparc IPX",
        format!(
            "{} clause(s) in {:.1} ms; semantics verified={ok}",
            d.clauses.len(),
            elapsed.as_secs_f64() * 1e3
        ),
        ok && !d.clauses.is_empty(),
    )
}

/// The Example 1 constraint system (§6, from \[Taw94\]).
fn example1_system(s: &mut Space) -> (Conjunct, [VarId; 3], VarId, VarId) {
    let i = s.var("i");
    let j = s.var("j");
    let k = s.var("k");
    let n = s.var("n");
    let m = s.var("m");
    let mut c = Conjunct::new();
    c.add_geq(Affine::from_terms(&[(i, 1)], -1));
    c.add_geq(Affine::from_terms(&[(n, 1), (i, -1)], 0));
    c.add_geq(Affine::from_terms(&[(j, 1)], -1));
    c.add_geq(Affine::from_terms(&[(i, 1), (j, -1)], 0));
    c.add_geq(Affine::from_terms(&[(k, 1), (j, -1)], 0));
    c.add_geq(Affine::from_terms(&[(m, 1), (k, -1)], 0));
    (c, [i, j, k], n, m)
}

/// E4 (§6 Example 1): free order + redundancy elimination needs 2
/// terms where Tawbi's fixed order needs 3.
pub fn e4_example1_tawbi() -> Report {
    let mut s = Space::new();
    let (c, [i, j, k], n, _m) = example1_system(&mut s);
    let f = conjunct_to_formula(&c);
    let ours = count(&s, &f, &[i, j, k]);
    let tawbi = tawbi_sum(&c, &[k, j, i], &QPoly::one(), &mut s.clone());
    let brute = |nv: i64, mv: i64| -> i64 {
        let mut t = 0;
        for iv in 1..=nv {
            for jv in 1..=iv {
                t += (jv..=mv).count() as i64;
            }
        }
        t
    };
    let mut both_right = true;
    for nv in 0i64..=6 {
        for mv in 0i64..=6 {
            let b = brute(nv, mv);
            both_right &= ours.eval_i64(&[("n", nv), ("m", mv)]) == Some(b);
            both_right &= tawbi.value.eval(&s, &|v| {
                if v == n {
                    Int::from(nv)
                } else {
                    Int::from(mv)
                }
            }) == Rat::from(b);
        }
    }
    Report::new(
        "E4",
        "Example 1: free vs fixed elimination order",
        "ours needs 2 terms; Tawbi's splitting needs 3",
        format!(
            "ours {} pieces; Tawbi {} pieces; values correct={both_right}",
            ours.num_pieces(),
            tawbi.pieces
        ),
        ours.num_pieces() == 2 && tawbi.pieces == 3 && both_right,
    )
}

/// E5 (§6 Example 2 from \[HP93a\]): Σ over 1≤i≤n, 3≤j≤i, j≤k≤5.
pub fn e5_example2_hp() -> Report {
    let mut s = Space::new();
    let i = s.var("i");
    let j = s.var("j");
    let k = s.var("k");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::between(Affine::constant(1), i, Affine::var(n)),
        Formula::between(Affine::constant(3), j, Affine::var(i)),
        Formula::between(Affine::var(j), k, Affine::constant(5)),
    ]);
    let ours = count(&s, &f, &[i, j, k]);
    let hp = example2_hp_answer(n);
    let brute = |nv: i64| -> i64 {
        let mut t = 0;
        for iv in 1..=nv {
            for jv in 3..=iv {
                t += (jv..=5).count() as i64;
            }
        }
        t
    };
    let mut ok = true;
    let mut tail_ok = true;
    for nv in 0i64..=12 {
        let b = brute(nv);
        ok &= ours.eval_i64(&[("n", nv)]) == Some(b);
        ok &= hp.eval(&|_| Int::from(nv)) == Rat::from(b);
        if nv > 5 {
            tail_ok &= b == 6 * nv - 16; // the paper's 6n−16 region
        }
    }
    Report::new(
        "E5",
        "Example 2: vs Haghighat–Polychronopoulos",
        "ours: (6n−16 | 5<n) + cubic piece on 3≤n<5; HP's min/max form takes 9 steps",
        format!(
            "values match brute force={ok}; 6n−16 tail verified={tail_ok}; ours {} pieces; HP published form has {} min/max/p operators",
            ours.num_pieces(),
            hp.minmax_count()
        ),
        ok && tail_ok,
    )
}

/// E6 (§6 Example 3 from \[HP93a\]): Σ over 1≤i≤2n, 1≤j≤i, i+j≤2n = n².
pub fn e6_example3_hp() -> Report {
    let mut s = Space::new();
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::between(Affine::constant(1), i, Affine::term(n, 2)),
        Formula::between(Affine::constant(1), j, Affine::var(i)),
        Formula::le(Affine::var(i) + Affine::var(j), Affine::term(n, 2)),
    ]);
    let ours = count(&s, &f, &[i, j]);
    let ok = (0i64..=8).all(|nv| ours.eval_i64(&[("n", nv)]) == Some((nv.max(0)).pow(2)));
    Report::new(
        "E6",
        "Example 3: min(i, 2n−i) triangle",
        "n² (guard 1 ≤ n); HP's derivation takes 15 steps",
        format!(
            "n² verified for n=0..8: {ok}; ours {} piece(s)",
            ours.num_pieces()
        ),
        ok,
    )
}

/// E7 (§6 Example 4 from \[FST91\]): 25 distinct locations of
/// a(6i+9j−7); FST's coupled-subscript fallback gives 40.
pub fn e7_example4_fst() -> Report {
    let mut nest = LoopNest::new();
    let i = nest.add_loop("i", Affine::constant(1), Affine::constant(8));
    let j = nest.add_loop("j", Affine::constant(1), Affine::constant(5));
    let r = ArrayRef::new("a", vec![Affine::from_terms(&[(i, 6), (j, 9)], -7)]);
    let ours = distinct_locations(&nest, std::slice::from_ref(&r));
    let fst = fst_locations(&nest, &[r], 1);
    let got = ours.eval_i64(&[]);
    let fst_got = fst.value.eval_i64(&[]);
    Report::new(
        "E7",
        "Example 4: coupled subscript footprint",
        "25 distinct locations; [FST91] cannot handle coupled subscripts",
        format!(
            "ours={got:?}; FST conservative fallback={fst_got:?} (exact={})",
            fst.exact
        ),
        got == Some(25) && fst_got == Some(40) && !fst.exact,
    )
}

/// E8 (§6 Example 5): the SOR loop's memory and cache footprints.
pub fn e8_example5_sor() -> Report {
    let (nest, refs) = sor_nest();
    let loc = distinct_locations(&nest, &refs);
    let lines = distinct_cache_lines(&nest, &refs, 16);
    let loc500 = loc.eval_i64(&[("N", 500)]);
    let lines500 = lines.eval_i64(&[("N", 500)]);
    let sym_ok = [4i64, 10, 33, 100]
        .iter()
        .all(|&nv| loc.eval_i64(&[("N", nv)]) == Some(nv * nv - 4));
    let line_formula_ok = [10i64, 17, 20, 33, 100].iter().all(|&nv| {
        let base = nv * (1 + (nv - 2) / 16);
        let extra = if nv >= 17 && nv % 16 == 1 { nv - 2 } else { 0 };
        lines.eval_i64(&[("N", nv)]) == Some(base + extra)
    });
    Report::new(
        "E8",
        "Example 5: SOR footprint and cache lines",
        "249 996 locations and 16 000 cache lines at N=500; symbolically N²−4 and N(1+(N−2)÷16) [+ (N−2) when N≡1 (16), N≥17]",
        format!(
            "locations(500)={loc500:?}; lines(500)={lines500:?}; N²−4 checks={sym_ok}; line formula checks={line_formula_ok}"
        ),
        loc500 == Some(249_996) && lines500 == Some(16_000) && sym_ok && line_formula_ok,
    )
}

fn sor_nest() -> (LoopNest, Vec<ArrayRef>) {
    let mut nest = LoopNest::new();
    let n = nest.symbol("N");
    let i = nest.add_loop(
        "i",
        Affine::constant(2),
        Affine::var(n) - Affine::constant(1),
    );
    let j = nest.add_loop(
        "j",
        Affine::constant(2),
        Affine::var(n) - Affine::constant(1),
    );
    let a = |di: i64, dj: i64| {
        ArrayRef::new(
            "a",
            vec![
                Affine::var(i) + Affine::constant(di),
                Affine::var(j) + Affine::constant(dj),
            ],
        )
    };
    (nest, vec![a(0, 0), a(-1, 0), a(1, 0), a(0, -1), a(0, 1)])
}

/// E9 (§6 Example 6): the even/odd splinter sum.
pub fn e9_example6_parity() -> Report {
    let mut s = Space::new();
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::le(Affine::constant(1), Affine::var(i)),
        Formula::le(Affine::constant(1), Affine::var(j)),
        Formula::le(Affine::var(j), Affine::var(n)),
        Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
    ]);
    let ours = count(&s, &f, &[i, j]);
    let ok = (0i64..=12).all(|nv| {
        let expect = if nv >= 1 {
            (3 * nv * nv + 2 * nv - nv.rem_euclid(2)) / 4
        } else {
            0
        };
        ours.eval_i64(&[("n", nv)]) == Some(expect)
    });
    Report::new(
        "E9",
        "Example 6: parity splinter",
        "(3n² + 2n − (n mod 2))/4 with guard 1 ≤ n",
        format!("verified for n=0..12: {ok}; {} pieces", ours.num_pieces()),
        ok,
    )
}

/// E10 (§3.3): the HPF block-cyclic mapping.
pub fn e10_hpf_block_cyclic() -> Report {
    let d = BlockCyclic::new(8, 4);
    // block assignment spot checks from the paper's prose
    let prose = (0..=3).all(|t| d.owner(t) == 0)
        && (4..=7).all(|t| d.owner(t) == 1)
        && (28..=31).all(|t| d.owner(t) == 7)
        && (32..=35).all(|t| d.owner(t) == 0);
    // ownership counts over T(0:1024)
    let mut s = Space::new();
    let p = s.var("p");
    let counts = d.elements_on_processor(&s, Affine::constant(0), Affine::constant(1024), p);
    let mut per = Vec::new();
    let mut total = 0i64;
    for pv in 0..8i64 {
        let v = counts.eval_i64(&[("p", pv)]).unwrap_or(-1);
        per.push(v);
        total += v;
    }
    let counts_ok = per[0] == 129 && per[1..].iter().all(|&v| v == 128) && total == 1025;
    Report::new(
        "E10",
        "HPF block-cyclic distribution (§3.3)",
        "T(0:1024), 8 procs, block 4: mapping matches prose; proc 0 owns one extra cell",
        format!("prose checks={prose}; per-proc={per:?} (Σ={total})"),
        prose && counts_ok,
    )
}

/// E11 (§5.2): disjoint splintering when eliminating β from
/// 0 ≤ 3β − α ≤ 7 ∧ 1 ≤ α − 2β ≤ 5.
pub fn e11_disjoint_splintering() -> Report {
    let mut s = Space::new();
    let alpha = s.var("alpha");
    let beta = s.var("beta");
    let mut c = Conjunct::new();
    c.add_geq(Affine::from_terms(&[(beta, 3), (alpha, -1)], 0));
    c.add_geq(Affine::from_terms(&[(beta, -3), (alpha, 1)], 7));
    c.add_geq(Affine::from_terms(&[(alpha, 1), (beta, -2)], -1));
    c.add_geq(Affine::from_terms(&[(alpha, -1), (beta, 2)], 5));
    let overlapping = eliminate(&c, beta, &mut s, Shadow::ExactOverlapping);
    let disjoint = eliminate(&c, beta, &mut s, Shadow::ExactDisjoint);
    // ground truth: α ∈ {3} ∪ [5, 27] ∪ {29}
    let truth = |av: i64| av == 3 || (5..=27).contains(&av) || av == 29;
    let mut exact_ok = true;
    let mut disjoint_ok = true;
    for av in -5i64..=40 {
        let assign = |_: VarId| Int::from(av);
        let in_dis = disjoint
            .clauses
            .iter()
            .filter(|cl| cl.contains_point(&s, &assign))
            .count();
        let in_ovl = overlapping
            .clauses
            .iter()
            .any(|cl| cl.contains_point(&s, &assign));
        exact_ok &= in_ovl == truth(av) && (in_dis > 0) == truth(av);
        disjoint_ok &= in_dis <= 1;
    }
    Report::new(
        "E11",
        "disjoint splintering (§5.2)",
        "solutions α ∈ {3} ∪ [5..] ∪ {…}; disjoint clauses cover each α once",
        format!(
            "overlapping {} clauses, disjoint {} clauses; exact={exact_ok}; disjoint={disjoint_ok}",
            overlapping.clauses.len(),
            disjoint.clauses.len()
        ),
        exact_ok && disjoint_ok,
    )
}

/// E12 (§5.1): stencil summarization — hull method vs 0-1 encoding.
pub fn e12_stencil_summaries() -> Report {
    let mut s = Space::new();
    let d0 = s.var("d0");
    let d1 = s.var("d1");
    let five = vec![vec![0, 0], vec![-1, 0], vec![1, 0], vec![0, -1], vec![0, 1]];
    let four = vec![vec![0, 0], vec![-1, 0], vec![0, -1], vec![1, 0]];
    let mut nine = Vec::new();
    for a in -1..=1 {
        for b in -1..=1 {
            nine.push(vec![a, b]);
        }
    }
    let s5 = summarize_offsets(&five, &[d0, d1]);
    let s4 = summarize_offsets(&four, &[d0, d1]);
    let s9 = summarize_offsets(&nine, &[d0, d1]);
    // 0-1 encoding sizes: count clauses after projecting the z's
    let clauses_01 = |pts: &[Vec<i64>]| -> Option<usize> {
        let mut s2 = Space::new();
        let v0 = s2.var("d0");
        let v1 = s2.var("d1");
        let c = zero_one_encoding(pts, &[v0, v1], &mut s2);
        // A budget-exhaustion panic here is the expected outcome for
        // the 9-point stencil; silence the default hook while probing.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            presburger_omega::dnf::project_wildcards(&c, &mut s2, Shadow::ExactOverlapping).len()
        }));
        std::panic::set_hook(prev);
        out.ok()
    };
    let c5 = clauses_01(&five);
    let c9 = clauses_01(&nine);
    let hull_ok = s4.exact && s5.exact && s9.exact;
    Report::new(
        "E12",
        "stencil summarization (§5.1)",
        "hull+strides summarize 4/5-point exactly; the 0-1 encoding works for 4/5-point but defeats the simplifier on 9-point",
        format!(
            "hull exact: 4pt={}, 5pt={}, 9pt={}; 0-1 projection clauses: 5pt={c5:?}, 9pt={c9:?}",
            s4.exact, s5.exact, s9.exact
        ),
        hull_ok,
    )
}

/// A1: redundant-constraint elimination on/off (§4.4 step 1).
pub fn a1_redundancy_ablation() -> Report {
    let mut s = Space::new();
    let (c, [i, j, k], n, _m) = example1_system(&mut s);
    let f = conjunct_to_formula(&c);
    let with = try_count_solutions(&s, &f, &[i, j, k], &CountOptions::default()).unwrap();
    let without = try_count_solutions(
        &s,
        &f,
        &[i, j, k],
        &CountOptions {
            remove_redundant: false,
            ..CountOptions::default()
        },
    )
    .unwrap();
    let mut agree = true;
    for nv in 0i64..=5 {
        for mv in 0i64..=5 {
            agree &=
                with.eval_i64(&[("n", nv), ("m", mv)]) == without.eval_i64(&[("n", nv), ("m", mv)]);
        }
    }
    let _ = n;
    Report::new(
        "A1",
        "ablation: redundant-constraint elimination",
        "eliminating redundant constraints reduces case splits (§6 conclusions)",
        format!(
            "pieces with elimination={}, without={}; values agree={agree}",
            with.num_pieces(),
            without.num_pieces()
        ),
        agree && with.num_pieces() <= without.num_pieces(),
    )
}

/// A2: free vs fixed elimination order across triangular depths.
pub fn a2_order_ablation() -> Report {
    let mut rows = Vec::new();
    let mut pass = true;
    let mut strictly_better_somewhere = false;
    for depth in 3..=5usize {
        // generalized Example 1:
        //   1 ≤ v₁ ≤ n;  1 ≤ vₜ ≤ vₜ₋₁ (t = 2..depth−1);
        //   v_{depth−1} ≤ v_depth ≤ m
        let mut s = Space::new();
        let vars: Vec<VarId> = (0..depth).map(|d| s.var(&format!("v{d}"))).collect();
        let n = s.var("n");
        let m = s.var("m");
        let mut c = Conjunct::new();
        c.add_geq(Affine::from_terms(&[(vars[0], 1)], -1)); // 1 ≤ v1
        c.add_geq(Affine::from_terms(&[(n, 1), (vars[0], -1)], 0)); // v1 ≤ n
        for t in 1..depth - 1 {
            c.add_geq(Affine::from_terms(&[(vars[t], 1)], -1)); // 1 ≤ vt
            c.add_geq(Affine::from_terms(&[(vars[t - 1], 1), (vars[t], -1)], 0));
            // vt ≤ vt−1
        }
        c.add_geq(Affine::from_terms(
            &[(vars[depth - 1], 1), (vars[depth - 2], -1)],
            0,
        )); // v_{d−1} ≤ v_d
        c.add_geq(Affine::from_terms(&[(m, 1), (vars[depth - 1], -1)], 0)); // v_d ≤ m
        let f = conjunct_to_formula(&c);
        let ours = count(&s, &f, &vars);
        let mut order = vars.clone();
        order.reverse(); // innermost (last) first
        let tw = tawbi_sum(&c, &order, &QPoly::one(), &mut s.clone());
        rows.push(format!(
            "depth {depth}: ours={} tawbi={}",
            ours.num_pieces(),
            tw.pieces
        ));
        pass &= ours.num_pieces() <= tw.pieces;
        strictly_better_somewhere |= ours.num_pieces() < tw.pieces;
    }
    pass &= strictly_better_somewhere;
    Report::new(
        "A2",
        "ablation: free vs fixed elimination order",
        "free order never needs more pieces than the fixed order",
        rows.join("; "),
        pass,
    )
}

/// A3: disjoint DNF vs inclusion–exclusion (§4.5.1): number of
/// summations for k overlapping references.
pub fn a3_disjoint_vs_inclusion_exclusion() -> Report {
    let mut rows = Vec::new();
    let mut pass = true;
    for k in 2..=5usize {
        let mut nest = LoopNest::new();
        let n = nest.symbol("N");
        let i = nest.add_loop("i", Affine::constant(1), Affine::var(n));
        let refs: Vec<ArrayRef> = (0..k as i64)
            .map(|o| ArrayRef::new("a", vec![Affine::var(i) + Affine::constant(o)]))
            .collect();
        let ours = distinct_locations(&nest, &refs);
        let fst = fst_locations(&nest, &refs, k);
        let mut agree = true;
        for nv in 0i64..=8 {
            agree &= ours.eval_i64(&[("N", nv)]) == fst.value.eval_i64(&[("N", nv)]);
        }
        rows.push(format!(
            "k={k}: incl-excl {} summations (2^k−1={}), ours 1 query; agree={agree}",
            fst.summations,
            (1 << k) - 1
        ));
        pass &= agree && fst.summations == (1 << k) - 1;
    }
    Report::new(
        "A3",
        "ablation: disjoint DNF vs inclusion–exclusion",
        "inclusion–exclusion needs 2^k−1 summations; disjoint DNF needs one pass",
        rows.join("; "),
        pass,
    )
}

/// A4: exact vs approximate counting (§4.6).
pub fn a4_exact_vs_approximate() -> Report {
    let mut s = Space::new();
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::le(Affine::constant(1), Affine::var(i)),
        Formula::le(Affine::constant(1), Affine::var(j)),
        Formula::le(Affine::var(j), Affine::var(n)),
        Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
    ]);
    let exact = count(&s, &f, &[i, j]);
    let upper = try_count_solutions(
        &s,
        &f,
        &[i, j],
        &CountOptions {
            mode: Mode::UpperBound,
            ..CountOptions::default()
        },
    )
    .unwrap();
    let lower = try_count_solutions(
        &s,
        &f,
        &[i, j],
        &CountOptions {
            mode: Mode::LowerBound,
            ..CountOptions::default()
        },
    )
    .unwrap();
    let mut bracket = true;
    let mut sample = String::new();
    for nv in 1i64..=12 {
        let e = exact.eval_rat(&[("n", nv)]);
        let u = upper.eval_rat(&[("n", nv)]);
        let l = lower.eval_rat(&[("n", nv)]);
        bracket &= l <= e && e <= u;
        if nv == 9 {
            sample = format!("n=9: {} ≤ {} ≤ {}", l, e, u);
        }
    }
    Report::new(
        "A4",
        "ablation: exact vs approximate (§4.6)",
        "upper/lower bounds bracket the exact count; bounds avoid splintering",
        format!(
            "bracketing holds for n=1..12; {sample}; pieces exact={} upper={} lower={}",
            exact.num_pieces(),
            upper.num_pieces(),
            lower.num_pieces()
        ),
        bracket,
    )
}

/// A5: the min/max answer form the paper developed and rejected (§6).
pub fn a5_minmax_answer_form() -> Report {
    use presburger_counting::minmax::sum_var_minmax;
    use presburger_polyq::mexpr::MExpr;
    let mut s = Space::new();
    let x = s.var("x");
    let n = s.var("n");
    let m = s.var("m");
    let k = s.var("k");
    // three competing upper bounds: 1 <= x <= min(n, m, k)
    let mut c = Conjunct::new();
    c.add_geq(Affine::from_terms(&[(x, 1)], -1));
    for sym in [n, m, k] {
        c.add_geq(Affine::from_terms(&[(sym, 1), (x, -1)], 0));
    }
    let mm = sum_var_minmax(&c, x, &[MExpr::int(1)]).expect("min/max summable");
    let exact = count(&s, &c.to_formula(), &[x]);
    let mut agree = true;
    for nv in 0i64..=5 {
        for mv in 0i64..=5 {
            for kv in 0i64..=5 {
                let brute = nv.min(mv).min(kv).max(0);
                let got_mm = mm.expr.eval(&|w| {
                    if w == n {
                        Int::from(nv)
                    } else if w == m {
                        Int::from(mv)
                    } else {
                        Int::from(kv)
                    }
                });
                agree &= got_mm == Rat::from(brute);
                agree &= exact.eval_i64(&[("n", nv), ("m", mv), ("k", kv)]) == Some(brute);
            }
        }
    }
    Report::new(
        "A5",
        "ablation: min/max answer form (§6, rejected alternative)",
        "avoids bound splits but the results are \"much more complicated\"",
        format!(
            "min/max: 1 expr, {} min/max/p ops, size {}; guarded: {} pieces; agree={agree}",
            mm.expr.minmax_count(),
            mm.expr.size(),
            exact.num_pieces()
        ),
        agree && mm.expr.minmax_count() >= 3 && exact.num_pieces() >= 3,
    )
}

/// A6: adaptive bounds-first counting (§4's cost advice).
pub fn a6_adaptive_bounds() -> Report {
    use presburger_counting::adaptive::count_adaptive;
    let mut s = Space::new();
    let x = s.var("x");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::le(Affine::constant(0), Affine::var(x)),
        Formula::le(Affine::term(x, 7), Affine::var(n)),
    ]);
    // small n: large relative gap -> exact pass taken
    let tight = count_adaptive(&s, &f, &[x], &[&[("n", 5)]], 0.05).expect("countable");
    // large n: gap negligible -> bounds suffice
    let loose = count_adaptive(&s, &f, &[x], &[&[("n", 70_000)]], 0.01).expect("countable");
    let pass = tight.exact.is_some() && loose.exact.is_none();
    Report::new(
        "A6",
        "ablation: bounds-first adaptive counting (§4)",
        "\"compute both bounds; only if far apart compute the exact answer\"",
        format!(
            "gap at n=5: {:.2} -> exact computed; gap at n=70000: {:.5} -> bounds kept",
            tight.max_relative_gap, loose.max_relative_gap
        ),
        pass,
    )
}

/// The A3-style stencil union: locations touched by `a[i+o]` for
/// `o < k` over `i ∈ [1, n]`, i.e. the union of `k` overlapping
/// intervals `[1+o, n+o]` — `make_disjoint` turns them into `k`
/// disjoint clause tasks.
pub fn stress_stencil_union(s: &mut Space, k: usize) -> (Formula, Vec<VarId>) {
    let x = s.var("x");
    let n = s.var("n");
    let clauses = (0..k as i64)
        .map(|o| {
            Formula::between(
                Affine::constant(1 + o),
                x,
                Affine::var(n) + Affine::constant(o),
            )
        })
        .collect();
    (Formula::or(clauses), vec![x])
}

/// The heavy per-clause stress family: the E9 parity region
/// `1 ≤ i ∧ 1 ≤ j ≤ n ∧ 2i ≤ 3j` partitioned into `k` clauses by the
/// residue of `i` mod `k`. Every clause carries a stride and a non-unit
/// coefficient, so every clause task splinters — the worst case the
/// parallel pipeline is built for. The union telescopes back to E9's
/// closed form `(3n² + 2n − (n mod 2))/4`.
pub fn stress_residue_stencil(s: &mut Space, k: usize) -> (Formula, Vec<VarId>) {
    let i = s.var("i");
    let j = s.var("j");
    let n = s.var("n");
    let clauses = (0..k as i64)
        .map(|c| {
            Formula::and(vec![
                Formula::le(Affine::constant(1), Affine::var(i)),
                Formula::le(Affine::constant(1), Affine::var(j)),
                Formula::le(Affine::var(j), Affine::var(n)),
                Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
                Formula::stride(k as i64, Affine::var(i) - Affine::constant(c)),
            ])
        })
        .collect();
    (Formula::or(clauses), vec![i, j])
}

fn count_with_threads(space: &Space, f: &Formula, vars: &[VarId], threads: usize) -> Symbolic {
    let opts = CountOptions {
        threads,
        ..CountOptions::default()
    };
    try_count_solutions(space, f, vars, &opts).expect("stress count failed")
}

/// S1: many-clause determinism — identical answers and identical
/// counter totals at every thread count, for both stress families.
pub fn s1_manyclause_determinism() -> Report {
    let mut pass = true;
    let mut rows = Vec::new();
    for k in [8usize, 10, 12] {
        let mut s = Space::new();
        let (f, vars) = stress_stencil_union(&mut s, k);
        let meter = |threads: usize| {
            let before = trace::snapshot();
            let r = count_with_threads(&s, &f, &vars, threads);
            (r, trace::snapshot().delta(&before))
        };
        let (r1, c1) = meter(1);
        let (r2, c2) = meter(2);
        let (r4, c4) = meter(4);
        let identical = r1.to_display_string() == r2.to_display_string()
            && r1.to_display_string() == r4.to_display_string();
        // Memo hit/miss patterns legitimately vary with table warmth
        // and thread partitioning; every replayed counter must not.
        let counters_match = c1.without_memo_meta() == c2.without_memo_meta()
            && c1.without_memo_meta() == c4.without_memo_meta();
        // the union of the k shifted intervals sweeps [1, n+k−1]
        let values_ok = (0i64..=9).all(|nv| {
            let expect = if nv >= 1 { nv + k as i64 - 1 } else { 0 };
            r4.eval_i64(&[("n", nv)]) == Some(expect)
        });
        pass &= identical && counters_match && values_ok;
        rows.push(format!(
            "k={k}: identical={identical} counters_match={counters_match} values_ok={values_ok}"
        ));
    }
    {
        let mut s = Space::new();
        let (f, vars) = stress_residue_stencil(&mut s, 8);
        let r1 = count_with_threads(&s, &f, &vars, 1);
        let r4 = count_with_threads(&s, &f, &vars, 4);
        let identical = r1.to_display_string() == r4.to_display_string();
        let closed_form_ok = (0i64..=12).all(|nv| {
            let expect = if nv >= 1 {
                (3 * nv * nv + 2 * nv - nv.rem_euclid(2)) / 4
            } else {
                0
            };
            r4.eval_i64(&[("n", nv)]) == Some(expect)
        });
        pass &= identical && closed_form_ok;
        rows.push(format!(
            "residue k=8: identical={identical} closed_form_ok={closed_form_ok}"
        ));
    }
    Report::new(
        "S1",
        "stress: many-clause determinism at 1/2/4 threads",
        "byte-identical answers and counter totals at any thread count",
        rows.join("; "),
        pass,
    )
}

/// S2: many-clause wall-clock — the 12-clause residue stencil summed at
/// 1 and 4 worker threads. The speedup lands in the `par_speedup`
/// column; the pass criterion is determinism (timing depends on the
/// machine's core count and is reported, not gated, here — see
/// `scripts/check.sh` for the cross-thread-count output gate).
pub fn s2_manyclause_speedup() -> Report {
    const K: usize = 12;
    let mut s = Space::new();
    let (f, vars) = stress_residue_stencil(&mut s, K);
    let time_at = |threads: usize| {
        let mut best = Duration::MAX;
        let mut result = None;
        for _ in 0..3 {
            let t = Instant::now();
            let r = count_with_threads(&s, &f, &vars, threads);
            best = best.min(t.elapsed());
            result = Some(r);
        }
        (result.expect("three runs"), best)
    };
    let (r1, t1) = time_at(1);
    let (r4, t4) = time_at(4);
    let identical = r1.to_display_string() == r4.to_display_string();
    let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut r = Report::new(
        "S2",
        "stress: 12-clause pipeline wall-clock at 4 threads",
        "clause tasks are independent (§4.5.1), so wall time scales with cores",
        format!("identical answers at 1 and 4 threads: {identical} (speedup in par_speedup column; {cores} core(s) available)"),
        identical,
    );
    r.par_speedup = Some(speedup);
    r
}

/// S3: cross-request memoization under a zipf-skewed request mix.
///
/// A serving process sees the same few queries over and over (a few hot
/// formulas, a long tail); this experiment replays that shape against
/// the sub-problem memo. A fixed-seed stream of requests is drawn
/// zipf-style over a pool of distinct splinter-heavy queries, then run
/// as five alternating pairs, each run from a cold table: memo off, then
/// memo on. The pass criterion is transparency (byte-identical rendered
/// answers in every run, with at least one hit). The hit rate comes from
/// the first pair; the wall-clock speedup is the ratio of the two sides'
/// fastest runs, so one noisy sample cannot decide it. Both land in
/// `memo_hit_rate` / `memo_speedup` in `BENCH_counters.json`, where
/// `scripts/check.sh`'s memo gate enforces them.
pub fn s3_memo_zipf() -> Report {
    const POOL: usize = 16;
    const REQUESTS: usize = 120;
    const PAIRS: usize = 5;
    // The query pool: each entry owns its space, mirroring independent
    // requests — nothing is shared except what the memo deduplicates.
    let mut pool: Vec<(Space, Formula, Vec<VarId>)> = Vec::new();
    for k in 3..=10 {
        let mut s = Space::new();
        let (f, vars) = stress_residue_stencil(&mut s, k);
        pool.push((s, f, vars));
    }
    for k in [6usize, 8, 10, 12, 14, 16, 18, 20] {
        let mut s = Space::new();
        let (f, vars) = stress_stencil_union(&mut s, k);
        pool.push((s, f, vars));
    }
    assert_eq!(pool.len(), POOL);
    // Zipf(1.0): request rank i is drawn with probability ∝ 1/(i+1),
    // sampled with a fixed-seed LCG so the stream is reproducible.
    let weights: Vec<f64> = (0..POOL).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let stream: Vec<usize> = (0..REQUESTS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let mut acc = 0.0;
            for (i, w) in weights.iter().enumerate() {
                acc += w;
                if u < acc {
                    return i;
                }
            }
            POOL - 1
        })
        .collect();
    let run_stream = |memo: bool| -> (Vec<String>, Duration, PipelineStats) {
        trace::memo::clear_local();
        trace::memo::clear_shared();
        let before = trace::snapshot();
        let t = Instant::now();
        let answers: Vec<String> = stream
            .iter()
            .map(|&q| {
                let (s, f, vars) = &pool[q];
                let opts = CountOptions {
                    memo,
                    ..CountOptions::default()
                };
                try_count_solutions(s, f, vars, &opts)
                    .expect("zipf request failed")
                    .to_display_string()
            })
            .collect();
        (answers, t.elapsed(), trace::snapshot().delta(&before))
    };
    let (off_answers, mut t_off, _) = run_stream(false);
    let (on_answers, mut t_on, on_stats) = run_stream(true);
    let mut identical = off_answers == on_answers;
    // The extra pairs only add timing samples: with counters off they
    // leave the row's counters those of the first pair.
    let was_counting = trace::counting();
    trace::enable_counters(false);
    for _ in 1..PAIRS {
        let (off, t, _) = run_stream(false);
        t_off = t_off.min(t);
        let (on, t, _) = run_stream(true);
        t_on = t_on.min(t);
        identical &= off == off_answers && on == off_answers;
    }
    trace::enable_counters(was_counting);
    let hits = on_stats.get(Counter::MemoHit);
    let misses = on_stats.get(Counter::MemoMiss);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let speedup = t_off.as_secs_f64() / t_on.as_secs_f64().max(1e-9);
    let mut r = Report::new(
        "S3",
        "stress: zipf request mix, memo-on vs memo-off",
        "skewed request mixes repeat sub-problems; memoization shortcuts them without changing any answer",
        format!(
            "identical answers across {REQUESTS} zipf requests over {POOL} distinct queries, \
             memo-on vs memo-off: {identical} (hit rate and speedup in BENCH_counters.json)"
        ),
        identical && hits > 0,
    );
    r.memo_hit_rate = Some(hit_rate);
    r.memo_speedup = Some(speedup);
    r
}

/// Rebuilds a (wildcard-free) conjunct as a formula.
fn conjunct_to_formula(c: &Conjunct) -> Formula {
    let mut parts = Vec::new();
    for e in c.eqs() {
        parts.push(Formula::eq0(e.clone()));
    }
    for e in c.geqs() {
        parts.push(Formula::ge(e.clone()));
    }
    for (m, e) in c.strides() {
        parts.push(Formula::stride(m.clone(), e.clone()));
    }
    Formula::and(parts)
}

/// Re-export used by benches for workload generation.
pub fn brute_force_reference(
    f: &Formula,
    vars: &[VarId],
    range: std::ops::RangeInclusive<i64>,
    sym: &dyn Fn(VarId) -> Int,
) -> u64 {
    enumerate::count_formula(f, vars, range, sym)
}

/// Helper for benches: the MExpr type's evaluation cost sample.
pub fn hp_answer_sample(n: VarId) -> MExpr {
    example2_hp_answer(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_pass() {
        for r in all_experiments() {
            assert!(
                r.pass,
                "{} {} failed: measured {}",
                r.id, r.title, r.measured
            );
        }
    }
}
