//! Asserts the paper's *counter-based* claims straight from the
//! pipeline's own instrumentation (`presburger::trace`), instead of
//! re-deriving them from output shapes:
//!
//! * §6 Example 1 — the free-order engine sums 2 convex pieces where
//!   Tawbi's fixed order needs 3;
//! * §5.2 — exact elimination generates splinters plus a dark-shadow
//!   clause; the paper's dark shadow is `5 ≤ α ≤ 25` (this
//!   implementation derives the sound, slightly wider `5 ≤ α ≤ 27` —
//!   see EXPERIMENTS.md);
//! * §4.5.1 — inclusion–exclusion performs `2^k − 1` summations where
//!   the disjoint-DNF pass needs one query.

use presburger::prelude::*;
use presburger::trace::{self, Counter, PipelineStats};
use presburger_apps::{distinct_locations, ArrayRef, BlockCyclic, LoopNest};
use presburger_baselines::{fst_locations, tawbi_sum};
use presburger_omega::eliminate::{eliminate, Shadow};
use presburger_omega::Conjunct;

/// Runs `f` with counters on and returns the counter delta it caused.
fn metered<T>(f: impl FnOnce() -> T) -> (T, PipelineStats) {
    trace::enable_counters(true);
    let before = trace::snapshot();
    let out = f();
    let delta = trace::snapshot().delta(&before);
    trace::enable_counters(false);
    (out, delta)
}

/// §6 Example 1 (from [Taw94]): 1 ≤ i ≤ n ∧ 1 ≤ j ≤ i ∧ j ≤ k ≤ m.
fn example1(s: &mut Space) -> (Conjunct, [VarId; 3]) {
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
    (c, [i, j, k])
}

#[test]
fn e4_free_order_beats_tawbi_by_counters() {
    let mut s = Space::new();
    let (c, [i, j, k]) = example1(&mut s);

    let (_, ours) = metered(|| {
        presburger_counting::try_count_solutions(
            &s,
            &c.to_formula(),
            &[i, j, k],
            &CountOptions::default(),
        )
        .expect("countable")
    });
    // The paper: "we only need to consider two separate cases" (§6).
    assert_eq!(ours.get(Counter::ConvexLeafPieces), 2, "{ours}");
    assert_eq!(ours.get(Counter::TawbiSplits), 0, "{ours}");

    let (_, tawbi) = metered(|| {
        let mut s2 = s.clone();
        tawbi_sum(&c, &[k, j, i], &QPoly::one(), &mut s2)
    });
    // Tawbi's fixed innermost-first order splits into three.
    assert_eq!(tawbi.get(Counter::TawbiSplits), 3, "{tawbi}");
}

/// §6 Example 2 (from [HP93a]): 1 ≤ i ≤ n ∧ 3 ≤ j ≤ i ∧ j ≤ k ≤ 5.
fn example2(s: &mut Space) -> (Formula, [VarId; 3]) {
    let i = s.var("i");
    let j = s.var("j");
    let k = s.var("k");
    let n = s.var("n");
    let f = Formula::and(vec![
        Formula::between(Affine::constant(1), i, Affine::var(n)),
        Formula::between(Affine::constant(3), j, Affine::var(i)),
        Formula::between(Affine::var(j), k, Affine::constant(5)),
    ]);
    (f, [i, j, k])
}

/// One `FaulhaberDeg*` count per non-zero power of a telescoped
/// summand: pinned on §6 Examples 1 and 2 so the degree histogram (and
/// perfbench's `polyq.faulhaber.calls`, its sum) cannot drift when the
/// telescoping is reorganized.
#[test]
fn faulhaber_degree_counters_of_examples_1_and_2() {
    let mut s = Space::new();
    let (c, vars) = example1(&mut s);
    let (_, ex1) = metered(|| {
        presburger_counting::try_count_solutions(
            &s,
            &c.to_formula(),
            &vars,
            &CountOptions::default(),
        )
        .expect("countable")
    });
    assert_eq!(
        ex1.faulhaber_histogram(),
        [("0", 4), ("1", 2), ("2", 2), ("3", 0), ("4+", 0)],
        "{ex1}"
    );

    let mut s = Space::new();
    let (f, vars) = example2(&mut s);
    let (_, ex2) = metered(|| {
        presburger_counting::try_count_solutions(&s, &f, &vars, &CountOptions::default())
            .expect("countable")
    });
    assert_eq!(
        ex2.faulhaber_histogram(),
        [("0", 4), ("1", 2), ("2", 2), ("3", 0), ("4+", 0)],
        "{ex2}"
    );
}

/// The §5.2 system: 0 ≤ 3β − α ≤ 7 ∧ 1 ≤ α − 2β ≤ 5.
fn section52_system(s: &mut Space) -> (Conjunct, VarId) {
    let alpha = s.var("alpha");
    let beta = s.var("beta");
    let mut c = Conjunct::new();
    c.add_geq(Affine::from_terms(&[(beta, 3), (alpha, -1)], 0));
    c.add_geq(Affine::from_terms(&[(beta, -3), (alpha, 1)], 7));
    c.add_geq(Affine::from_terms(&[(alpha, 1), (beta, -2)], -1));
    c.add_geq(Affine::from_terms(&[(alpha, -1), (beta, 2)], 5));
    (c, beta)
}

#[test]
fn e11_splinter_counters_match_the_mechanics() {
    let mut s = Space::new();
    let (c, beta) = section52_system(&mut s);

    let (overlapping, ovl) = metered(|| eliminate(&c, beta, &mut s, Shadow::ExactOverlapping));
    assert_eq!(ovl.get(Counter::EliminateExactOverlapping), 1, "{ovl}");
    // One dark-shadow clause plus splinters. The paper's worked example
    // (§5.2) quotes dark shadow 5 ≤ α ≤ 25, but the pairwise condition
    // bU − aL ≥ (a−1)(b−1) applied to β's bounds
    //   3β ≥ α, 3β ≤ α+7, 2β ≥ α−5, 2β ≤ α−1
    // gives exactly:
    //   (b=3, a=2): 3(α−1) − 2α = α−3 ≥ 2      ⇒ α ≥ 5
    //   (b=2, a=3): 2(α+7) − 3(α−5) = 29−α ≥ 2 ⇒ α ≤ 27
    // (the other two pairs hold unconditionally), so the dark shadow is
    // 5 ≤ α ≤ 27 — and it is genuinely inhabited at the top: α = 26 and
    // α = 27 are both satisfied by β = 11 (3·11−26 = 7 ∈ [0,7],
    // 26−22 = 4 ∈ [1,5]; and 3·11−27 = 6, 27−22 = 5). The exact
    // projection is {3} ∪ [5,27] ∪ {29}, so the paper's 25 under-claims
    // the dark shadow; ours is the tight pairwise bound. Our splinter
    // bound `top = ((b−1)(a−1) − 1) / a` generates 3 per-lower-bound
    // candidates here (none pruned).
    assert_eq!(ovl.get(Counter::DarkShadowClauses), 1, "{ovl}");
    assert_eq!(ovl.get(Counter::SplintersGenerated), 3, "{ovl}");
    assert_eq!(
        overlapping.clauses.len() as u64,
        1 + ovl.get(Counter::SplintersGenerated) - ovl.get(Counter::SplintersPruned),
        "clauses = dark shadow + surviving splinters"
    );

    let (disjoint, dis) = metered(|| eliminate(&c, beta, &mut s, Shadow::ExactDisjoint));
    assert_eq!(dis.get(Counter::EliminateExactDisjoint), 1, "{dis}");
    assert_eq!(dis.get(Counter::DarkShadowClauses), 1, "{dis}");
    assert_eq!(
        disjoint.clauses.len() as u64,
        1 + dis.get(Counter::SplintersGenerated) - dis.get(Counter::SplintersPruned),
        "clauses = dark shadow + surviving splinters"
    );
    // For a bound pair L ≤ b·β, a·β ≤ U the disjoint mode builds a
    // splinter only for the (region i, offset j) pairs whose equations
    // b·U − a·L = i and a·b·β = a·L + j survive normalization's gcd
    // test. The pairs (b=3, a=3) and (b=2, a=2) have constant
    // b·U − a·L (21 and 8, at least their gap (a−1)(b−1)), so they
    // have no region. The two mixed pairs have gap 2, regions i = 0
    // and 1, and offsets j ≡ 0 (mod 2) and j ≡ 0 (mod 3), so only
    // j = 0 in each region: 4 splinters, none refuted.
    assert_eq!(dis.get(Counter::SplintersGenerated), 4, "{dis}");
    assert_eq!(dis.get(Counter::SplintersPruned), 0, "{dis}");

    // Per the derivation above the dark shadow is exactly 5 ≤ α ≤ 27
    // (the paper's quoted 5 ≤ α ≤ 25 under-claims it): the first clause
    // must contain all of α = 5..=27 — including 26 and 27, which have
    // the witness β = 11 — and exclude 4 and 28.
    let dark = &overlapping.clauses[0];
    for av in 5..=27i64 {
        assert!(
            dark.contains_point(&s, &|_| Int::from(av)),
            "dark shadow should contain α = {av}"
        );
    }
    for av in [4i64, 28] {
        assert!(
            !dark.contains_point(&s, &|_| Int::from(av)),
            "dark shadow should not contain α = {av}"
        );
    }
}

#[test]
fn e10_hpf_ownership_builds_few_splinters() {
    // §3.3: T(0:1024) over 8 processors in blocks of 4. Projecting the
    // cycle index c out of 0 ≤ t − 4p − 32c ≤ 3 pairs bounds with
    // coefficient 32 on both sides (gap 31² = 961), but b·U − a·L is
    // the constant 96 and offsets step by 32, so only the 4 splinters
    // j = 0, 32, 64, 96 of region 96 are built.
    let mut s = Space::new();
    let p = s.var("p");
    let (counts, st) = metered(|| {
        BlockCyclic::new(8, 4).elements_on_processor(
            &s,
            Affine::constant(0),
            Affine::constant(1024),
            p,
        )
    });
    assert!(st.get(Counter::SplintersGenerated) <= 8, "{st}");
    let per: Vec<i64> = (0..8)
        .map(|pv| counts.eval_i64(&[("p", pv)]).expect("integral count"))
        .collect();
    assert_eq!(per, [129, 128, 128, 128, 128, 128, 128, 128]);
}

#[test]
fn a3_inclusion_exclusion_counter_grows_exponentially() {
    for k in 2..=5usize {
        let mut nest = LoopNest::new();
        let n = nest.symbol("N");
        let i = nest.add_loop("i", Affine::constant(1), Affine::var(n));
        let refs: Vec<ArrayRef> = (0..k as i64)
            .map(|o| ArrayRef::new("a", vec![Affine::var(i) + Affine::constant(o)]))
            .collect();

        let (_, fst) = metered(|| fst_locations(&nest, &refs, k));
        assert_eq!(
            fst.get(Counter::FstSummations),
            (1 << k) - 1,
            "k={k}: inclusion–exclusion needs 2^k − 1 summations\n{fst}"
        );

        let (_, ours) = metered(|| distinct_locations(&nest, &refs));
        assert_eq!(ours.get(Counter::FstSummations), 0, "k={k}: {ours}");
        // The disjoint-DNF path scales linearly: the k overlapping
        // footprints become at most k disjoint clauses, each summed
        // into one leaf piece.
        assert!(
            ours.get(Counter::DnfClausesDisjoint) <= k as u64,
            "k={k}: {ours}"
        );
        assert!(
            ours.get(Counter::ConvexLeafPieces) <= k as u64,
            "k={k}: {ours}"
        );
    }
}

#[test]
fn disabled_counters_stay_zero() {
    trace::enable_counters(false);
    trace::reset();
    let mut s = Space::new();
    let i = s.var("i");
    let n = s.var("n");
    let f = Formula::between(Affine::constant(1), i, Affine::var(n));
    let _ = count_solutions(&s, &f, &[i]);
    assert!(trace::snapshot().is_empty());
}

#[test]
fn facade_stats_roundtrip() {
    presburger::enable_stats(true);
    presburger::reset_stats();
    let mut s = Space::new();
    let i = s.var("i");
    let n = s.var("n");
    let f = Formula::between(Affine::constant(1), i, Affine::var(n));
    let _ = count_solutions(&s, &f, &[i]);
    let stats = presburger::stats();
    assert!(stats.get(Counter::ConvexLeafPieces) >= 1, "{stats}");
    assert!(stats.get(Counter::FeasibilityChecks) >= 1, "{stats}");
    let js = stats.to_json();
    assert!(js.contains("\"convex_leaf_pieces\""), "{js}");
    presburger::enable_stats(false);
    presburger::reset_stats();
}

/// A few queries of the S3 zipf stream (`presburger-bench`'s
/// experiments): the E9 parity region split into `k` stride clauses,
/// and the union of `k` shifted intervals.
fn zipf_stream_queries() -> Vec<(Space, Formula, Vec<VarId>)> {
    let mut out = Vec::new();
    for k in [3i64, 4, 7] {
        let mut s = Space::new();
        let i = s.var("i");
        let j = s.var("j");
        let n = s.var("n");
        let clauses = (0..k)
            .map(|c| {
                Formula::and(vec![
                    Formula::le(Affine::constant(1), Affine::var(i)),
                    Formula::le(Affine::constant(1), Affine::var(j)),
                    Formula::le(Affine::var(j), Affine::var(n)),
                    Formula::le(Affine::term(i, 2), Affine::term(j, 3)),
                    Formula::stride(k, Affine::var(i) - Affine::constant(c)),
                ])
            })
            .collect();
        out.push((s, Formula::or(clauses), vec![i, j]));
    }
    let mut s = Space::new();
    let x = s.var("x");
    let n = s.var("n");
    let clauses = (0..8i64)
        .map(|o| {
            Formula::between(
                Affine::constant(1 + o),
                x,
                Affine::var(n) + Affine::constant(o),
            )
        })
        .collect();
    out.push((s, Formula::or(clauses), vec![x]));
    out
}

/// Tracing must not change what it measures: with spans and explain
/// events on, every answer renders the same and every counter (gauges
/// included) reads the same as with them off. Each query is metered
/// from zeroed counters so a gauge describes that query alone.
#[test]
fn tracing_changes_no_counter_and_no_answer() {
    let queries = zipf_stream_queries();
    let mut e11 = Space::new();
    let (c, beta) = section52_system(&mut e11);
    let alpha = e11.lookup("alpha").expect("interned above");
    let projection = Formula::exists(vec![beta], c.to_formula());
    let opts = CountOptions::default();

    let measure = |traced: bool, work: &mut dyn FnMut() -> String| {
        trace::enable_counters(true);
        trace::enable_tracing(traced);
        trace::reset();
        let answer = work();
        let counters = trace::snapshot();
        let tree = trace::span::take_tree();
        trace::enable_tracing(false);
        trace::enable_counters(false);
        assert_eq!(tree.is_empty(), !traced, "spans recorded iff traced");
        (answer, counters)
    };
    let run = |traced: bool| {
        let mut out = Vec::new();
        for mode in [Shadow::ExactOverlapping, Shadow::ExactDisjoint] {
            let mut s = e11.clone();
            out.push(measure(traced, &mut || {
                let r = eliminate(&c, beta, &mut s, mode);
                let clauses: Vec<String> = r.clauses.iter().map(|cl| cl.to_string(&s)).collect();
                clauses.join(" || ")
            }));
        }
        out.push(measure(traced, &mut || {
            presburger_counting::try_count_solutions(&e11, &projection, &[alpha], &opts)
                .expect("countable")
                .to_display_string()
        }));
        for (s, f, vars) in &queries {
            out.push(measure(traced, &mut || {
                presburger_counting::try_count_solutions(s, f, vars, &opts)
                    .expect("countable")
                    .to_display_string()
            }));
        }
        out
    };
    let plain = run(false);
    let traced = run(true);
    for (k, (p, t)) in plain.iter().zip(&traced).enumerate() {
        assert_eq!(p.0, t.0, "query {k}: answer changed under tracing");
        assert_eq!(p.1, t.1, "query {k}: counters changed under tracing");
    }
    assert!(
        plain
            .iter()
            .any(|(_, st)| st.get(Counter::SplintersGenerated) > 0),
        "the mix must splinter"
    );
}
