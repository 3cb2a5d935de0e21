//! Zero-dependency instrumentation for the presburger counting
//! pipeline: **counters**, **spans**, and **explain events**.
//!
//! Pugh's evaluation of the counting algorithm is fundamentally
//! *counter-based* — "2 splinters vs Tawbi's 3", "HP needs 9 rewrite
//! steps", "2^k−1 summations for inclusion–exclusion". This crate makes
//! those quantities observable without changing any algorithm:
//!
//! - [`counters`]: a thread-local [`Counter`] registry with a
//!   [`PipelineStats`] snapshot type. Collection is off by default;
//!   every hook is a single thread-local boolean load when disabled.
//! - [`span`](mod@span): an RAII span stack with monotonic timings, rendered as
//!   an indented tree or hand-rolled JSON (no serde).
//! - [`explain`]: human-readable derivation steps
//!   attached to the innermost open span.
//! - [`metrics`]: process-wide serving metrics — lock-free log-bucketed
//!   histograms and `{verb, outcome}` counter families with Prometheus
//!   text exposition (the dual of the thread-local counters, for the
//!   many-threaded request path).
//!
//! Everything is per-thread: enabling collection on one thread does not
//! observe or perturb work on another. The counting engine runs a query
//! on the calling thread, so that thread's collectors see all of it.
//!
//! # Example
//!
//! ```
//! use presburger_trace as trace;
//!
//! trace::enable_counters(true);
//! trace::reset();
//! trace::bump(trace::Counter::GistCalls);
//! trace::add(trace::Counter::DnfClausesIn, 3);
//! let stats = trace::snapshot();
//! assert_eq!(stats.get(trace::Counter::GistCalls), 1);
//! assert_eq!(stats.get(trace::Counter::DnfClausesIn), 3);
//! trace::enable_counters(false);
//! ```

pub mod counters;
pub mod govern;
pub mod json;
pub mod memo;
pub mod metrics;
pub mod shard;
pub mod span;

pub use counters::{Counter, PipelineStats};
pub use metrics::{Histogram, HistogramSnapshot, ReqOutcome, ReqVerb, RequestMetrics};
pub use span::{explain, span, span_dyn, SpanGuard, SpanTree};

use std::cell::Cell;

/// Counter collection is on for the current thread.
pub(crate) const FLAG_COUNTING: u8 = 1 << 0;
/// Span/explain collection is on for the current thread.
pub(crate) const FLAG_TRACING: u8 = 1 << 1;
/// A governed region ([`govern::install`]) is active on this thread:
/// counter hooks also charge its budgets.
pub(crate) const FLAG_GOVERNED: u8 = 1 << 2;

thread_local! {
    /// All per-thread instrumentation switches in one byte, so the
    /// disabled fast path of every hook is a single thread-local load.
    static FLAGS: Cell<u8> = const { Cell::new(0) };
}

#[inline]
fn flags() -> u8 {
    FLAGS.with(Cell::get)
}

pub(crate) fn set_flag(bit: u8, on: bool) {
    FLAGS.with(|f| {
        let v = f.get();
        f.set(if on { v | bit } else { v & !bit });
    });
}

/// Turns counter collection on or off for the current thread.
pub fn enable_counters(on: bool) {
    set_flag(FLAG_COUNTING, on);
}

/// Whether counters are being collected on the current thread.
#[inline]
pub fn counting() -> bool {
    flags() & FLAG_COUNTING != 0
}

/// Turns span/explain collection on or off for the current thread.
/// Spans allocate (labels, tree nodes), so they are gated separately
/// from the cheap counters.
pub fn enable_tracing(on: bool) {
    set_flag(FLAG_TRACING, on);
}

/// Whether spans and explain events are being collected on the current
/// thread.
#[inline]
pub fn tracing() -> bool {
    flags() & FLAG_TRACING != 0
}

/// Adds 1 to `counter` (no-op unless [`enable_counters`] is on or a
/// governed region is installed).
#[inline]
pub fn bump(counter: Counter) {
    add(counter, 1);
}

/// Adds `n` to `counter`. Collected when [`enable_counters`] is on;
/// additionally charged against the installed [`govern`] region, if
/// any. A no-op (one thread-local load) when both are off.
#[inline]
pub fn add(counter: Counter, n: u64) {
    let f = flags();
    if f & (FLAG_COUNTING | FLAG_GOVERNED) == 0 {
        return;
    }
    if f & FLAG_COUNTING != 0 {
        counters::add_raw(counter, n);
    }
    // Charge the governor last: a charge may trip (unwind), and the
    // collected value must reflect the work that ran.
    if f & FLAG_GOVERNED != 0 {
        govern::charge(counter, n);
    }
}

/// Raises the gauge `counter` to `value` if it is currently lower.
/// Collected when [`enable_counters`] is on; additionally charged
/// against the installed [`govern`] region, if any.
#[inline]
pub fn record_max(counter: Counter, value: u64) {
    let f = flags();
    if f & (FLAG_COUNTING | FLAG_GOVERNED) == 0 {
        return;
    }
    if f & FLAG_COUNTING != 0 {
        counters::max_raw(counter, value);
    }
    if f & FLAG_GOVERNED != 0 {
        govern::charge_gauge(counter, value);
    }
}

/// A snapshot of every counter on the current thread.
pub fn snapshot() -> PipelineStats {
    counters::snapshot()
}

/// Zeroes every counter and discards any collected spans and explain
/// events on the current thread.
pub fn reset() {
    counters::reset();
    span::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_do_nothing() {
        enable_counters(false);
        reset();
        bump(Counter::GistCalls);
        add(Counter::DnfClausesIn, 7);
        record_max(Counter::MaxCoeffBits, 99);
        assert_eq!(snapshot().get(Counter::GistCalls), 0);
        assert_eq!(snapshot().get(Counter::DnfClausesIn), 0);
        assert_eq!(snapshot().get(Counter::MaxCoeffBits), 0);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        enable_counters(true);
        reset();
        bump(Counter::SplintersGenerated);
        bump(Counter::SplintersGenerated);
        add(Counter::TawbiSplits, 3);
        record_max(Counter::MaxCoeffBits, 130);
        record_max(Counter::MaxCoeffBits, 90);
        let s = snapshot();
        assert_eq!(s.get(Counter::SplintersGenerated), 2);
        assert_eq!(s.get(Counter::TawbiSplits), 3);
        assert_eq!(s.get(Counter::MaxCoeffBits), 130);
        reset();
        assert_eq!(snapshot().get(Counter::SplintersGenerated), 0);
        enable_counters(false);
    }

    #[test]
    fn delta_subtracts_counts_but_keeps_gauges() {
        enable_counters(true);
        reset();
        bump(Counter::GistCalls);
        let before = snapshot();
        bump(Counter::GistCalls);
        bump(Counter::GistCalls);
        record_max(Counter::MaxCoeffBits, 200);
        let after = snapshot();
        let d = after.delta(&before);
        assert_eq!(d.get(Counter::GistCalls), 2);
        assert_eq!(d.get(Counter::MaxCoeffBits), 200);
        enable_counters(false);
    }

    #[test]
    fn spans_render_as_a_tree() {
        enable_tracing(true);
        span::reset();
        {
            let _outer = span("simplify");
            explain(|| "3 clauses in".to_string());
            {
                let _inner = span_dyn(|| "eliminate x".to_string());
            }
        }
        let tree = span::take_tree();
        let text = tree.render();
        assert!(text.contains("simplify"), "tree was: {text}");
        assert!(text.contains("eliminate x"), "tree was: {text}");
        assert!(text.contains("3 clauses in"), "tree was: {text}");
        let js = tree.to_json();
        assert!(js.contains("\"label\":\"simplify\""), "json was: {js}");
        enable_tracing(false);
    }

    #[test]
    fn stats_json_is_wellformed_enough() {
        enable_counters(true);
        reset();
        bump(Counter::EliminateDark);
        let js = snapshot().to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"eliminate_dark\":1"), "json was: {js}");
        enable_counters(false);
    }
}
