//! The engine core: a deterministic, parallel clause-task pipeline.
//!
//! §4.5.1's disjoint DNF makes each clause of a formula summable
//! *independently* — this module cashes that independence in. Every
//! clause becomes a self-contained, `Send`-able [`ClauseTask`] carrying
//! its own [forked](Space::fork_many) variable space, so no task needs
//! `&mut` access to shared state. A work queue is drained either inline
//! (`threads = 1`, the default) or by `std::thread::scope` workers.
//!
//! # Determinism guarantee
//!
//! Results are **byte-identical at every thread count**:
//!
//! - the task decomposition (one task per clause, in DNF clause order)
//!   is fixed before any worker starts;
//! - each task's forked space block is assigned by clause order, so the
//!   fresh variables a task interns are a pure function of the input —
//!   never of scheduling;
//! - partial results land in a slot indexed by the task's sequence
//!   number and are merged (and the forked spaces
//!   [adopted](Space::adopt)) in that order after all tasks finish.
//!
//! Trace counters measured on workers are folded back into the calling
//! thread through [`presburger_trace::fork_scope`]; totals equal the
//! sequential run's. Span subtrees are grafted under the caller's open
//! span (their relative order across workers follows worker index, and
//! timings naturally vary run to run).
//!
//! # Panic isolation
//!
//! Each task body runs under [`std::panic::catch_unwind`]: a panic (or
//! a governor budget [trip](presburger_trace::govern::trip)) in one
//! clause is caught on the worker, converted to a [`CountError`], and
//! merged in clause order like any other per-task result — the
//! remaining tasks still run, and the process never aborts.

use crate::govern::{error_from_panic, Runtime};
use crate::projected::{sum_clause, Ctx};
use crate::{CountError, CountOptions};
use presburger_omega::{Conjunct, Space, VarId};
use presburger_polyq::{GuardedValue, QPoly};
use presburger_trace as trace;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// One independent unit of work: a clause of the disjoint DNF together
/// with a private fork of the variable space. Everything it touches is
/// owned, so the task can run on any thread.
pub(crate) struct ClauseTask {
    /// Position of the clause in the DNF — the merge slot.
    seq: usize,
    clause: Conjunct,
    space: Space,
}

/// Resolves a [`CountOptions::threads`] request to a concrete worker
/// count: `0` means one per available core.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// What one clause task produced: its forked space (to be adopted by
/// the caller, in clause order), the clause it summed (kept so a
/// governed run can re-sum it under §4.6 bound modes), and the result.
pub(crate) struct TaskOutcome {
    pub(crate) space: Space,
    pub(crate) clause: Conjunct,
    pub(crate) result: Result<GuardedValue, CountError>,
}

/// Sums `z` over every clause and merges the partial results in clause
/// order. The clauses must be pairwise disjoint (the caller obtains
/// them from `SimplifyOptions::disjoint()`); fresh variables any task
/// interns are adopted back into `space`.
///
/// Every task runs to completion even when one fails, so the work done
/// (and the trace counters) do not depend on scheduling; the error
/// reported is the one from the earliest clause.
pub(crate) fn run_clause_tasks(
    clauses: Vec<Conjunct>,
    vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
    opts: &CountOptions,
) -> Result<GuardedValue, CountError> {
    let outcomes = run_clause_tasks_raw(clauses, vars, z, space, opts, None);
    let mut acc = GuardedValue::zero();
    let mut first_err: Option<CountError> = None;
    for out in outcomes {
        space.adopt(&out.space);
        match out.result {
            Ok(v) => {
                if first_err.is_none() {
                    acc.add(v);
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(acc),
    }
}

/// The pipeline core: runs every clause task (inline or on scoped
/// workers) and returns the per-task outcomes **in clause order**,
/// leaving space adoption and result merging to the caller. With
/// `gov: Some(..)` each task installs a governed region for its
/// duration, so budget trips are charged per task.
pub(crate) fn run_clause_tasks_raw(
    clauses: Vec<Conjunct>,
    vars: &[VarId],
    z: &QPoly,
    space: &mut Space,
    opts: &CountOptions,
    gov: Option<&Runtime>,
) -> Vec<TaskOutcome> {
    let n = clauses.len();
    if n == 0 {
        return Vec::new();
    }
    let forks = space.fork_many(n);
    let tasks: VecDeque<ClauseTask> = clauses
        .into_iter()
        .zip(forks)
        .enumerate()
        .map(|(seq, (clause, space))| ClauseTask { seq, clause, space })
        .collect();

    let threads = resolve_threads(opts.threads).min(n);
    let mut slots: Vec<Option<TaskOutcome>> = (0..n).map(|_| None).collect();

    if threads <= 1 {
        for mut task in tasks {
            let result = run_task_caught(&mut task, vars, z, opts, gov);
            slots[task.seq] = Some(TaskOutcome {
                space: task.space,
                clause: task.clause,
                result,
            });
        }
    } else {
        let queue = Mutex::new(tasks);
        let fork = trace::fork_scope();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let queue = &queue;
                    s.spawn(move || {
                        let handle = fork.begin();
                        let mut done = Vec::new();
                        loop {
                            // A task body cannot poison the lock (its
                            // panics are caught inside run_task_caught),
                            // but stay tolerant anyway: the queue is a
                            // plain VecDeque, valid at every point.
                            let task = queue
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .pop_front();
                            let Some(mut task) = task else { break };
                            let result = run_task_caught(&mut task, vars, z, opts, gov);
                            done.push((
                                task.seq,
                                TaskOutcome {
                                    space: task.space,
                                    clause: task.clause,
                                    result,
                                },
                            ));
                        }
                        (done, handle.finish())
                    })
                })
                .collect();
            for w in workers {
                let (done, part) = w.join().expect(
                    "invariant: worker bodies catch task panics (run_task_caught), \
                     so a worker thread itself never panics",
                );
                trace::merge_fork_part(part);
                for (seq, outcome) in done {
                    slots[seq] = Some(outcome);
                }
            }
        });
    }

    slots
        .into_iter()
        .map(|s| s.expect("invariant: the queue drains fully, so every slot was filled"))
        .collect()
}

/// Runs one task under `catch_unwind`, installing the governed region
/// (when present) inside the boundary so both budget trips and genuine
/// panics surface as per-task `CountError`s.
fn run_task_caught(
    task: &mut ClauseTask,
    vars: &[VarId],
    z: &QPoly,
    opts: &CountOptions,
    gov: Option<&Runtime>,
) -> Result<GuardedValue, CountError> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _g = gov.map(Runtime::enter_task);
        run_task(task, vars, z, opts)
    }));
    result.unwrap_or_else(|payload| Err(error_from_panic(payload)))
}

fn run_task(
    task: &mut ClauseTask,
    vars: &[VarId],
    z: &QPoly,
    opts: &CountOptions,
) -> Result<GuardedValue, CountError> {
    let _span = trace::span_dyn(|| format!("clause task #{}", task.seq));
    let mut ctx = Ctx::new(&mut task.space, opts);
    sum_clause(&task.clause, vars, z, &mut ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_request_resolution() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }
}
