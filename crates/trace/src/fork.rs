//! Fork/merge protocol for worker threads.
//!
//! All collection state in this crate is `thread_local!`, so work done
//! on a worker thread would silently vanish from the parent's counters
//! and span tree. The protocol here carries it across the join:
//!
//! 1. the parent calls [`fork_scope`] *before* spawning, capturing
//!    whether counting/tracing are enabled (a [`ForkScope`] is `Copy` +
//!    `Send` — two booleans);
//! 2. each worker calls [`ForkScope::begin`] once, which enables the
//!    same collection modes on the worker thread and snapshots a
//!    baseline;
//! 3. when the worker is done it calls [`ForkHandle::finish`], yielding
//!    a `Send`-able [`ForkPart`] with the counter deltas and the span
//!    subtree collected on that thread;
//! 4. after joining, the parent calls [`merge_fork_part`] on each part:
//!    running counts are added, gauges take the high-water mark, and
//!    span roots are grafted under the parent's innermost open span.
//!
//! When collection is disabled every step is a few boolean moves — no
//! snapshot, no allocation — so spawning workers costs nothing on the
//! disabled path (the `overhead_smoke` gate measures this).

use crate::counters::{self, PipelineStats};
use crate::span::{self, SpanTree};

/// A parent thread's collection state, captured for handing to workers.
#[derive(Clone, Copy, Debug)]
pub struct ForkScope {
    counting: bool,
    tracing: bool,
}

/// Captures the current thread's collection state so worker threads can
/// inherit it: two thread-local boolean loads.
pub fn fork_scope() -> ForkScope {
    ForkScope {
        counting: crate::counting(),
        tracing: crate::tracing(),
    }
}

impl ForkScope {
    /// Called once on the worker thread: enables the parent's
    /// collection modes there and snapshots the
    /// baseline the final delta is taken against.
    pub fn begin(self) -> ForkHandle {
        let baseline = if self.counting {
            crate::enable_counters(true);
            Some(counters::snapshot())
        } else {
            None
        };
        if self.tracing {
            crate::enable_tracing(true);
        }
        ForkHandle {
            tracing: self.tracing,
            baseline,
        }
    }
}

/// A worker thread's live collection session (not `Send`; stays on the
/// worker).
pub struct ForkHandle {
    tracing: bool,
    baseline: Option<PipelineStats>,
}

impl ForkHandle {
    /// Closes the session: takes what the worker collected and turns
    /// collection back off on the worker thread.
    pub fn finish(self) -> ForkPart {
        let counters = self.baseline.map(|base| {
            let delta = counters::snapshot().delta(&base);
            crate::enable_counters(false);
            delta
        });
        let spans = if self.tracing {
            crate::enable_tracing(false);
            Some(span::take_tree())
        } else {
            None
        };
        ForkPart { counters, spans }
    }
}

/// What one worker thread measured; `Send` it back to the parent and
/// apply with [`merge_fork_part`].
#[derive(Debug, Default)]
pub struct ForkPart {
    counters: Option<PipelineStats>,
    spans: Option<SpanTree>,
}

impl ForkPart {
    /// True when the worker collected nothing (collection was off).
    pub fn is_empty(&self) -> bool {
        self.counters.is_none() && self.spans.is_none()
    }
}

/// Merges a worker's measurements into the current thread's collectors:
/// counts are added, gauges raised to the worker's high-water mark, the
/// worker's span roots become children of the innermost open span (or
/// new roots when none is open).
pub fn merge_fork_part(part: ForkPart) {
    if let Some(stats) = part.counters {
        counters::merge(&stats);
    }
    if let Some(tree) = part.spans {
        span::merge_tree(tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn worker_counters_merge_into_parent() {
        crate::enable_counters(true);
        crate::reset();
        crate::bump(Counter::GistCalls);
        let scope = fork_scope();
        let part = std::thread::scope(|s| {
            s.spawn(move || {
                let h = scope.begin();
                crate::bump(Counter::GistCalls);
                crate::add(Counter::SplintersGenerated, 3);
                crate::record_max(Counter::MaxCoeffBits, 128);
                h.finish()
            })
            .join()
            .unwrap()
        });
        merge_fork_part(part);
        let stats = crate::snapshot();
        assert_eq!(stats.get(Counter::GistCalls), 2);
        assert_eq!(stats.get(Counter::SplintersGenerated), 3);
        assert_eq!(stats.get(Counter::MaxCoeffBits), 128);
        crate::enable_counters(false);
    }

    #[test]
    fn worker_spans_graft_under_open_span() {
        crate::enable_tracing(true);
        span::reset();
        let tree = {
            let _outer = crate::span("parent work");
            let scope = fork_scope();
            let part = std::thread::scope(|s| {
                s.spawn(move || {
                    let h = scope.begin();
                    {
                        let _inner = crate::span("worker task");
                        crate::explain(|| "computed on a worker".to_string());
                    }
                    h.finish()
                })
                .join()
                .unwrap()
            });
            merge_fork_part(part);
            drop(_outer);
            span::take_tree()
        };
        crate::enable_tracing(false);
        assert_eq!(tree.roots.len(), 1);
        let parent = &tree.roots[0];
        assert_eq!(parent.label, "parent work");
        assert_eq!(parent.children.len(), 1);
        assert_eq!(parent.children[0].label, "worker task");
        assert_eq!(parent.children[0].events, ["computed on a worker"]);
    }

    #[test]
    fn nested_fork_scopes_merge_gauges_max_of_max() {
        // Three levels: parent → mid worker → leaf worker. Each level
        // raises the same gauge to a different value and bumps the same
        // running count. After both merges the count is the sum across
        // all levels while the gauge is the max over every level's
        // high-water mark (max-of-max) — merging must not add gauges and
        // must not let an inner merge mask an outer maximum.
        crate::enable_counters(true);
        crate::reset();
        crate::bump(Counter::GistCalls);
        crate::record_max(Counter::MaxCoeffBits, 64);
        crate::record_max(Counter::SumDepth, 9);
        let scope = fork_scope();
        let part = std::thread::scope(|s| {
            s.spawn(move || {
                let h = scope.begin();
                crate::bump(Counter::GistCalls);
                crate::record_max(Counter::MaxCoeffBits, 32); // below the leaf's
                crate::record_max(Counter::SumDepth, 2);
                let inner_scope = fork_scope();
                let inner = std::thread::scope(|s2| {
                    s2.spawn(move || {
                        let h2 = inner_scope.begin();
                        crate::bump(Counter::GistCalls);
                        crate::record_max(Counter::MaxCoeffBits, 200); // global max
                        crate::record_max(Counter::SumDepth, 5);
                        h2.finish()
                    })
                    .join()
                    .unwrap()
                });
                // The mid worker folds the leaf's part into its own
                // session before finishing, exactly like the clause
                // pipeline does.
                merge_fork_part(inner);
                h.finish()
            })
            .join()
            .unwrap()
        });
        merge_fork_part(part);
        let stats = crate::snapshot();
        assert_eq!(stats.get(Counter::GistCalls), 3, "counts add across levels");
        assert_eq!(
            stats.get(Counter::MaxCoeffBits),
            200,
            "gauge is max-of-max: the leaf's 200 must survive two merges"
        );
        assert_eq!(
            stats.get(Counter::SumDepth),
            9,
            "gauge is max-of-max: the parent's own 9 must not be lowered"
        );
        crate::enable_counters(false);
    }

    #[test]
    fn disabled_fork_is_inert() {
        crate::enable_counters(false);
        crate::enable_tracing(false);
        crate::reset();
        let scope = fork_scope();
        let part = std::thread::scope(|s| {
            s.spawn(move || {
                let h = scope.begin();
                crate::bump(Counter::GistCalls); // still disabled on worker
                h.finish()
            })
            .join()
            .unwrap()
        });
        assert!(part.is_empty());
        merge_fork_part(part);
        assert_eq!(crate::snapshot().get(Counter::GistCalls), 0);
    }
}
