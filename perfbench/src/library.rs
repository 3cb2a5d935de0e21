//! The library path: parse → disjoint DNF → count → render, called the
//! way a compiler calls it, once per query and cold.

use crate::inputs::{Instance, Rng};
use crate::report::{Measured, Metrics, Recorder, Spans, Tally, Verdict};
use presburger::counting::{try_count_solutions, CountOptions, Mode, Symbolic};
use presburger::omega::dnf::{simplify, SimplifyOptions};
use presburger::omega::{parse_formula, Formula, Space, VarId};
use presburger::trace::{self, Counter, PipelineStats};
use std::hint::black_box;
use std::time::Instant;

/// Every option spelled out, so nothing comes from the environment.
pub fn options() -> CountOptions {
    CountOptions {
        mode: Mode::Exact,
        four_piece: false,
        remove_redundant: true,
        threads: 1,
        memo: true,
    }
}

/// Drops all engine state a query could inherit from its predecessors:
/// the thread's counters, both memo tiers and the interning arena.
pub fn cold_reset() {
    trace::reset();
    trace::memo::clear_local();
    trace::memo::clear_shared();
    presburger::omega::intern::clear();
}

/// A counted answer and its rendering.
pub struct Answer {
    pub symbolic: Symbolic,
    pub text: String,
}

fn parse(inst: &Instance) -> Result<(Space, Formula, Vec<VarId>), String> {
    let mut space = Space::new();
    let vars: Vec<VarId> = inst.vars.iter().map(|v| space.var(v)).collect();
    let f = parse_formula(&inst.formula, &mut space).map_err(|e| e.to_string())?;
    Ok((space, f, vars))
}

/// One query: parse, count, render.
pub fn answer(inst: &Instance) -> Result<Answer, String> {
    let (space, f, vars) = parse(inst)?;
    let symbolic = try_count_solutions(&space, &f, &vars, &options()).map_err(|e| e.to_string())?;
    let text = symbolic.to_display_string();
    Ok(Answer { symbolic, text })
}

/// The library's answers to `instances`, the reference a server's
/// replies are checked against: each computed cold, on up to two
/// threads, with the shared memo tier cleared and off and the thread's
/// local tier cleared first. No answer reuses a sub-result a server or
/// an earlier query computed, so a memo bug cannot agree with itself.
pub fn reference_answers(instances: &[Instance]) -> Vec<Result<Answer, String>> {
    trace::memo::enable_shared(false);
    trace::memo::clear_shared();
    crate::oracle::par_map(instances, |inst| {
        trace::memo::clear_local();
        answer(inst)
    })
}

/// One query timed layer by layer. The disjoint DNF is computed on its
/// own first (the same call the counting entry point makes), then the
/// engine state is reset and the count runs, so the count's time minus
/// the DNF time is the clause sum (elimination, convex sums, Faulhaber).
/// Counters are those of the count call alone.
pub struct Metered {
    pub parse_us: f64,
    pub dnf_us: f64,
    pub count_us: f64,
    pub render_us: f64,
    pub counters: PipelineStats,
    pub pieces: usize,
    pub bytes: usize,
}

impl Metered {
    /// The time of the work an untraced query does: parse, count,
    /// render. The standalone DNF and the reset after it are left out.
    pub fn query_us(&self) -> f64 {
        self.parse_us + self.count_us + self.render_us
    }
}

/// Runs `inst` with counters on and bench-side spans around each layer.
pub fn meter(
    inst: &Instance,
    spans: &mut Spans,
    trace_id: u64,
) -> Result<(Metered, Answer), String> {
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let (space, f, vars) = parse(inst)?;
    let t1 = Instant::now();
    let mut dnf_space = space.clone();
    black_box(simplify(&f, &mut dnf_space, &SimplifyOptions::disjoint()));
    let t2 = Instant::now();
    cold_reset();
    let t3 = Instant::now();
    let symbolic = try_count_solutions(&space, &f, &vars, &options()).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let text = symbolic.to_display_string();
    let t5 = Instant::now();
    let counters = trace::snapshot();
    spans.record(trace_id, "query", None, t0, t5);
    spans.record(trace_id, "omega.parse", Some("query"), t0, t1);
    spans.record(trace_id, "omega.dnf", Some("query"), t1, t2);
    spans.record(trace_id, "counting.count", Some("query"), t3, t4);
    spans.record(trace_id, "polyq.render", Some("query"), t4, t5);
    let metered = Metered {
        parse_us: us(t0, t1),
        dnf_us: us(t1, t2),
        count_us: us(t3, t4),
        render_us: us(t4, t5),
        counters,
        pieces: symbolic.num_pieces(),
        bytes: text.len(),
    };
    Ok((metered, Answer { symbolic, text }))
}

/// What a closed loop over whole rounds measured.
pub struct Rounds {
    /// Windows end at round ends, so each holds whole rounds.
    pub measured: Measured,
    /// An answer that differs from the same instance's first answer is
    /// wrong.
    pub tally: Tally,
    /// The first answer per instance, for the oracle.
    pub answers: Vec<Option<Answer>>,
}

/// Runs every instance of `pool` once per round, in a fresh seeded order,
/// each query after [`cold_reset`]. Rounds are whole, so every run and
/// every window measures the same mix; a round starts only while the
/// longest round so far still fits in `seconds` (the first always runs).
/// `query` returns the latency in ms and the answer.
pub fn run_rounds(
    pool: &[Instance],
    seconds: f64,
    rng: &mut Rng,
    mut query: impl FnMut(&Instance) -> Result<(f64, Answer), String>,
) -> Rounds {
    let mut tally = Tally::default();
    let mut answers: Vec<Option<Answer>> = (0..pool.len()).map(|_| None).collect();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut rec = Recorder::start();
    let mut longest = 0.0f64;
    while tally.attempted == 0 || rec.elapsed_s() + longest <= seconds {
        rng.shuffle(&mut order);
        let round = Instant::now();
        for &i in &order {
            cold_reset();
            let verdict = match query(&pool[i]) {
                Ok((ms, answer)) => {
                    rec.op(ms);
                    match &answers[i] {
                        Some(first) if first.text != answer.text => Verdict::Wrong,
                        Some(_) => Verdict::Ok,
                        None => {
                            answers[i] = Some(answer);
                            Verdict::Ok
                        }
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: query {:?} failed: {e}", pool[i].body());
                    Verdict::Failed
                }
            };
            tally.add(verdict);
        }
        rec.mark();
        longest = longest.max(round.elapsed().as_secs_f64());
    }
    Rounds {
        measured: rec.finish(),
        tally,
        answers,
    }
}

/// One untraced query as a round-loop step.
pub fn timed_answer(inst: &Instance) -> Result<(f64, Answer), String> {
    let t = Instant::now();
    let a = answer(inst)?;
    Ok((t.elapsed().as_secs_f64() * 1e3, a))
}

/// Per-layer sums over metered queries.
#[derive(Default)]
pub struct Layers {
    n: u64,
    parse_us: f64,
    dnf_us: f64,
    count_us: f64,
    render_us: f64,
    /// Summed counters, indexed like `Counter::ALL` (gauges included,
    /// which per-query resets make per-query maxima).
    totals: Vec<u64>,
    pieces: u64,
    bytes: u64,
}

impl Layers {
    pub fn add(&mut self, m: &Metered) {
        self.n += 1;
        self.parse_us += m.parse_us;
        self.dnf_us += m.dnf_us;
        self.count_us += m.count_us;
        self.render_us += m.render_us;
        self.totals.resize(Counter::ALL.len(), 0);
        for (total, c) in self.totals.iter_mut().zip(Counter::ALL) {
            *total += m.counters.get(c);
        }
        self.pieces += m.pieces as u64;
        self.bytes += m.bytes as u64;
    }

    pub fn metrics(&self) -> Metrics {
        let n = self.n.max(1) as f64;
        let total = |c: Counter| self.totals.get(c as usize).copied().unwrap_or(0) as f64;
        let per = |c: Counter| total(c) / n;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut m = Metrics::default();
        m.set("omega.parse.us", self.parse_us / n);
        m.set("omega.dnf.us", self.dnf_us / n);
        m.set("counting.clause_sum.us", (self.count_us - self.dnf_us) / n);
        m.set("polyq.render.us", self.render_us / n);
        m.set("omega.dnf.clauses_in", per(Counter::DnfClausesIn));
        m.set(
            "omega.dnf.clauses_disjoint",
            per(Counter::DnfClausesDisjoint),
        );
        m.set("omega.dnf.work_clauses", per(Counter::DnfWorkClauses));
        m.set("omega.feasibility_checks", per(Counter::FeasibilityChecks));
        let generated = total(Counter::SplintersGenerated);
        let pruned = total(Counter::SplintersPruned);
        m.set("omega.eliminate.splinters_generated", generated / n);
        m.set("omega.eliminate.splinters_pruned", pruned / n);
        m.set(
            "omega.eliminate.splinter_yield",
            ratio(generated - pruned, generated),
        );
        m.set(
            "omega.eliminate.normalize_calls",
            per(Counter::NormalizeCalls),
        );
        m.set(
            "omega.eliminate.dark_shadow_clauses",
            per(Counter::DarkShadowClauses),
        );
        m.set(
            "counting.convex.leaf_pieces",
            per(Counter::ConvexLeafPieces),
        );
        m.set(
            "counting.convex.split_cases",
            per(Counter::ConvexSplitCases),
        );
        let faulhaber = [
            Counter::FaulhaberDeg0,
            Counter::FaulhaberDeg1,
            Counter::FaulhaberDeg2,
            Counter::FaulhaberDeg3,
            Counter::FaulhaberDegHi,
        ];
        m.set(
            "polyq.faulhaber.calls",
            faulhaber.iter().map(|&c| per(c)).sum(),
        );
        m.set("arith.smith.calls", per(Counter::SmithNormalFormCalls));
        m.set("polyq.answer.pieces", self.pieces as f64 / n);
        m.set("polyq.answer.bytes", self.bytes as f64 / n);
        m.set("arith.int_promotions", per(Counter::IntPromotions));
        m.set("arith.max_coeff_bits", per(Counter::MaxCoeffBits));
        let hits = total(Counter::MemoHit);
        let misses = total(Counter::MemoMiss);
        m.set("trace.memo.hits", hits / n);
        m.set("trace.memo.misses", misses / n);
        m.set("trace.memo.hit_rate", ratio(hits, hits + misses));
        m.set("trace.memo.bytes_peak", per(Counter::MemoBytes));
        m
    }
}

/// Meters every instance once, cold, and returns the layer sums (the
/// per-layer probe a serving workload runs on its own formulas).
pub fn meter_all(instances: &[&Instance], spans: &mut Spans, first_trace_id: u64) -> Layers {
    trace::memo::enable_shared(false);
    trace::enable_counters(true);
    let mut layers = Layers::default();
    for (k, inst) in instances.iter().enumerate() {
        cold_reset();
        match meter(inst, spans, first_trace_id + k as u64) {
            Ok((m, _)) => layers.add(&m),
            Err(e) => eprintln!("perfbench: probe query {:?} failed: {e}", inst.body()),
        }
    }
    trace::enable_counters(false);
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, Family, PAPER_MIX};

    fn position(family: fn(&Family) -> bool) -> usize {
        PAPER_MIX
            .iter()
            .position(family)
            .expect("family in the mix")
    }

    /// Every counter a metered query reports, gauges and memo
    /// meta-counters included, belongs to that query alone: the same
    /// query metered after two different predecessors reads the same.
    #[test]
    fn counters_are_scoped_to_one_query() {
        let pool = inputs::paper_cold(11, true);
        let target = &pool[position(|f| matches!(f, Family::Residue(3)))];
        let first = &pool[position(|f| matches!(f, Family::Union(5)))];
        let second = &pool[position(|f| matches!(f, Family::Dep26))];
        let mut spans = Spans::new();
        trace::enable_counters(true);
        let mut after = |predecessor: &Instance| {
            cold_reset();
            meter(predecessor, &mut spans, 0).expect("predecessor counts");
            cold_reset();
            meter(target, &mut spans, 1)
                .expect("target counts")
                .0
                .counters
        };
        let a = after(first);
        let b = after(second);
        trace::enable_counters(false);
        assert!(a.get(Counter::SplintersGenerated) > 0, "{a}");
        assert!(a.get(Counter::MemoMiss) > 0, "{a}");
        assert_eq!(a, b);
    }
}
