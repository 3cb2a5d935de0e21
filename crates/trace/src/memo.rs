//! Stateless stand-ins for the removed sub-problem memo.
//!
//! The engine calls its pure functions (elimination, Smith normal
//! form, Faulhaber power sums) directly; nothing is cached between or
//! within queries. These no-ops remain only because the benchmark
//! package still calls them. They are removed with ROADMAP item 5's
//! benchmark change.

/// Does nothing. Removed with ROADMAP item 5's benchmark change.
pub fn clear_local() {}

/// Does nothing. Removed with ROADMAP item 5's benchmark change.
pub fn clear_shared() {}

/// Does nothing. Removed with ROADMAP item 5's benchmark change.
pub fn enable_shared(_on: bool) {}
