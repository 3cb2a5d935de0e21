//! The pipeline counter registry.
//!
//! Counters are plain thread-local `Cell<u64>`s indexed by the
//! [`Counter`] enum; a [`PipelineStats`] is an owned snapshot of all of
//! them, with set-difference ([`PipelineStats::delta`]) so callers can
//! meter a single region of work.

use crate::json::JsonObject;
use std::cell::Cell;
use std::fmt;

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal / $kind:ident,)*) => {
        /// Everything the pipeline counts. The `&'static str` names
        /// (see [`Counter::name`]) are the stable identifiers used in
        /// JSON output and EXPERIMENTS.md columns.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        /// Number of distinct counters.
        pub const NUM_COUNTERS: usize = [$(Counter::$variant,)*].len();

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: [Counter; NUM_COUNTERS] = [$(Counter::$variant,)*];

            /// The stable snake_case name used in reports and JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// Gauges hold a high-water mark rather than a running
            /// count; [`PipelineStats::delta`] keeps them as-is instead
            /// of subtracting.
            pub fn is_gauge(self) -> bool {
                match self {
                    $(Counter::$variant => counters!(@gauge $kind),)*
                }
            }
        }
    };
    (@gauge count) => { false };
    (@gauge gauge) => { true };
}

counters! {
    /// Inequality eliminations that used only the real shadow (§2.1).
    EliminateReal => "eliminate_real" / count,
    /// Inequality eliminations that used only the dark shadow (§2.2).
    EliminateDark => "eliminate_dark" / count,
    /// Exact eliminations in the overlapping dark-shadow + splinters mode.
    EliminateExactOverlapping => "eliminate_exact_overlapping" / count,
    /// Exact eliminations in the §5.2 disjoint-splinters mode.
    EliminateExactDisjoint => "eliminate_exact_disjoint" / count,
    /// Variables eliminated exactly through an equality or unit bound.
    EliminateViaEquality => "eliminate_via_equality" / count,
    /// Splinter clauses exact elimination actually built, each charged
    /// against the `max_splinters` budget. §5.2 offsets whose equations
    /// normalization would refute are skipped, never built or counted.
    SplintersGenerated => "splinters_generated" / count,
    /// Built splinter clauses that came out empty: normalization or
    /// equality elimination proved them false.
    SplintersPruned => "splinters_pruned" / count,
    /// Dark-shadow clauses emitted by exact elimination.
    DarkShadowClauses => "dark_shadow_clauses" / count,
    /// Constraints removed by the complete redundancy test (§2.3).
    RedundantRemovedComplete => "redundant_removed_complete" / count,
    /// Constraints certified non-redundant by the fast screen (skipping
    /// the complete test).
    RedundantFastSkips => "redundant_fast_skips" / count,
    /// Calls to `gist` (§2.3).
    GistCalls => "gist_calls" / count,
    /// Complete integer feasibility tests (§2.2).
    FeasibilityChecks => "feasibility_checks" / count,
    /// Feasibility tests answered by a pooled witness point instead of
    /// the elimination search.
    WitnessHits => "witness_hits" / count,
    /// Clauses entering `simplify`'s cleanup from the raw DNF expansion.
    DnfClausesIn => "dnf_clauses_in" / count,
    /// Clauses surviving cleanup (feasibility + redundancy + subset
    /// pruning), before any disjoint conversion.
    DnfClausesClean => "dnf_clauses_clean" / count,
    /// Clauses emitted by `make_disjoint` (§5.3).
    DnfClausesDisjoint => "dnf_clauses_disjoint" / count,
    /// Disjoint case splits introduced by the §4.4 bound analysis.
    ConvexSplitCases => "convex_split_cases" / count,
    /// Closed-form leaf summations produced by the convex engine — the
    /// number Pugh compares against Tawbi's "pieces".
    ConvexLeafPieces => "convex_leaf_pieces" / count,
    /// Faulhaber telescoping at polynomial degree 0.
    FaulhaberDeg0 => "faulhaber_deg0" / count,
    /// Faulhaber telescoping at polynomial degree 1.
    FaulhaberDeg1 => "faulhaber_deg1" / count,
    /// Faulhaber telescoping at polynomial degree 2.
    FaulhaberDeg2 => "faulhaber_deg2" / count,
    /// Faulhaber telescoping at polynomial degree 3.
    FaulhaberDeg3 => "faulhaber_deg3" / count,
    /// Faulhaber telescoping at polynomial degree ≥ 4.
    FaulhaberDegHi => "faulhaber_deg_hi" / count,
    /// Smith-normal-form decompositions (projected sums, §4.5).
    SmithNormalFormCalls => "smith_normal_form_calls" / count,
    /// `Int` values materialized beyond the inline i128 representation.
    IntPromotions => "int_promotions" / count,
    /// Widest bignum materialized, in bits (gauge).
    MaxCoeffBits => "max_coeff_bits" / gauge,
    /// Adaptive counting: bound-pair computations (§4.6).
    AdaptiveBoundsPasses => "adaptive_bounds_passes" / count,
    /// Adaptive counting: falls back to the exact engine.
    AdaptiveExactFallbacks => "adaptive_exact_fallbacks" / count,
    /// Tawbi baseline: polyhedral case splits (leaf summations).
    TawbiSplits => "tawbi_splits" / count,
    /// Haghighat–Polychronopoulos baseline: min/max rewrite steps.
    HpRewriteSteps => "hp_rewrite_steps" / count,
    /// Fahringer (FST) baseline: inclusion–exclusion summation terms.
    FstSummations => "fst_summations" / count,
    /// Clauses produced by DNF cross-products (§2.5) — charged
    /// incrementally, so runaway expansion is observable (and
    /// governable) *while* it happens, not after.
    DnfWorkClauses => "dnf_work_clauses" / count,
    /// `Conjunct::normalize` passes — the innermost heartbeat of the
    /// pipeline, and the governor's most frequent deadline checkpoint.
    NormalizeCalls => "normalize_calls" / count,
    /// Deepest `sum_clause` recursion reached (gauge).
    SumDepth => "sum_depth" / gauge,
    /// Budget / deadline / cancellation trips raised by the governor.
    GovernorTrips => "governor_trips" / count,
    /// Clauses degraded from exact counting to §4.6 bounds.
    ClausesDegraded => "clauses_degraded" / count,
    /// Panics caught and isolated at a clause boundary.
    WorkerPanics => "worker_panics" / count,
    /// Requests admitted by the serving layer (`presburger-serve`).
    ServeRequests => "serve_requests" / count,
    /// Load-shedding replies issued by the serving layer's admission
    /// queue (queue full or draining).
    ServeSheds => "serve_sheds" / count,
    /// Circuit-breaker closed→open transitions in the serving layer.
    ServeBreakerOpens => "serve_breaker_opens" / count,
    /// Most severe circuit-breaker state reached (gauge: 0 closed,
    /// 1 half-open, 2 open).
    ServeBreakerState => "serve_breaker_state" / gauge,
    /// Result-cache hits in the serving layer.
    ServeCacheHits => "serve_cache_hits" / count,
    /// Result-cache misses in the serving layer.
    ServeCacheMisses => "serve_cache_misses" / count,
    /// Deepest admission-queue depth observed by the serving layer
    /// (gauge).
    ServeQueueDepthPeak => "serve_queue_depth_peak" / gauge,
    /// Poisoned locks recovered by the serving layer instead of
    /// propagating the poison (a worker panic under a held lock costs
    /// one request, never the lock).
    ServeLockRecovered => "serve_lock_recovered" / count,
    /// Never bumped: the sub-problem memo is gone. Removed with
    /// ROADMAP item 5's benchmark change.
    MemoHit => "memo_hits" / count,
    /// Never bumped. Removed with ROADMAP item 5's benchmark change.
    MemoMiss => "memo_misses" / count,
    /// Never raised. Removed with ROADMAP item 5's benchmark change.
    MemoBytes => "memo_bytes" / gauge,
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    static CELLS: [Cell<u64>; NUM_COUNTERS] = const {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Cell<u64> = Cell::new(0);
        [ZERO; NUM_COUNTERS]
    };
}

pub(crate) fn add_raw(counter: Counter, n: u64) {
    CELLS.with(|cells| {
        let cell = &cells[counter as usize];
        cell.set(cell.get().saturating_add(n));
    });
}

pub(crate) fn max_raw(counter: Counter, value: u64) {
    CELLS.with(|cells| {
        let cell = &cells[counter as usize];
        if value > cell.get() {
            cell.set(value);
        }
    });
}

pub(crate) fn snapshot() -> PipelineStats {
    CELLS.with(|cells| {
        let mut values = [0u64; NUM_COUNTERS];
        for (v, c) in values.iter_mut().zip(cells.iter()) {
            *v = c.get();
        }
        PipelineStats { values }
    })
}

pub(crate) fn reset() {
    CELLS.with(|cells| {
        for c in cells {
            c.set(0);
        }
    });
}

/// An owned snapshot of every pipeline counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineStats {
    values: [u64; NUM_COUNTERS],
}

impl Default for PipelineStats {
    /// All-zero (the registry now exceeds the array sizes `derive`
    /// handles).
    fn default() -> PipelineStats {
        PipelineStats {
            values: [0; NUM_COUNTERS],
        }
    }
}

impl PipelineStats {
    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Counters attributable to the work done between `earlier` and
    /// `self`: running counts are subtracted, gauges keep their final
    /// high-water mark.
    #[must_use]
    pub fn delta(&self, earlier: &PipelineStats) -> PipelineStats {
        let mut values = [0u64; NUM_COUNTERS];
        for c in Counter::ALL {
            let i = c as usize;
            values[i] = if c.is_gauge() {
                self.values[i]
            } else {
                self.values[i].saturating_sub(earlier.values[i])
            };
        }
        PipelineStats { values }
    }

    /// `(counter, value)` pairs for every counter with a nonzero value.
    pub fn nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .into_iter()
            .map(|c| (c, self.get(c)))
            .filter(|&(_, v)| v > 0)
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Total splinters generated across both exact elimination modes.
    pub fn splinters(&self) -> u64 {
        self.get(Counter::SplintersGenerated)
    }

    /// The Faulhaber degree histogram as `(degree-label, count)` pairs.
    pub fn faulhaber_histogram(&self) -> [(&'static str, u64); 5] {
        [
            ("0", self.get(Counter::FaulhaberDeg0)),
            ("1", self.get(Counter::FaulhaberDeg1)),
            ("2", self.get(Counter::FaulhaberDeg2)),
            ("3", self.get(Counter::FaulhaberDeg3)),
            ("4+", self.get(Counter::FaulhaberDegHi)),
        ]
    }

    /// A compact one-line `name=value` listing of the nonzero counters,
    /// suitable for table cells. Empty string when nothing fired.
    pub fn brief(&self) -> String {
        let mut out = String::new();
        for (c, v) in self.nonzero() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(c.name());
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }

    /// All counters (zero included) as one JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for c in Counter::ALL {
            obj.field_u64(c.name(), self.get(c));
        }
        obj.finish()
    }

    /// Only the nonzero counters as one JSON object (in declaration
    /// order). Row-oriented reports pair this with a schema header
    /// listing [`Counter::ALL`], so diffs track signal, not permanent
    /// zeros.
    pub fn to_json_nonzero(&self) -> String {
        let mut obj = JsonObject::new();
        for (c, v) in self.nonzero() {
            obj.field_u64(c.name(), v);
        }
        obj.finish()
    }
}

impl fmt::Display for PipelineStats {
    /// One `name = value` line per nonzero counter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(all counters zero)");
        }
        let width = self
            .nonzero()
            .map(|(c, _)| c.name().len())
            .max()
            .unwrap_or(0);
        for (c, v) in self.nonzero() {
            writeln!(f, "{:width$} = {v}", c.name())?;
        }
        Ok(())
    }
}
