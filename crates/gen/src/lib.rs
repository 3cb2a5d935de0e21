//! presburger-gen: a generative differential-testing subsystem for the
//! Presburger counting pipeline.
//!
//! The paper's value proposition is *exact* symbolic counts, so the
//! reproduction lives or dies by correctness under adversarial inputs.
//! This crate provides the correctness layer:
//!
//! * [`grammar`] — a seedable, grammar-directed generator covering the
//!   full input language: affine atoms with strides, conjunction /
//!   disjunction / negation, bounded existential and universal
//!   quantifiers, and symbolic parameters ([`generate`]).
//! * [`oracle`] — the shared brute-force oracle (quantifier-aware
//!   enumeration over a bounded box) used by every differential test
//!   in the repository ([`oracle::brute_force`]).
//! * [`metamorphic`] — count-preserving rewrites (renaming,
//!   translation) for engine-vs-engine cross-checks.
//! * [`harness`] — four oracle/metamorphic families per case:
//!   brute force, inclusion–exclusion + invariances, governed
//!   bracketing, and baseline (Tawbi/HP) sanity ([`check_case`]).
//! * [`shrink`] — a delta-debugging minimizer that reduces a failing
//!   case before it is reported ([`shrink_case`]).
//! * [`corpus`] — the persistent `tests/corpus/*.pres` seed corpus
//!   replayed on every run.
//!
//! # Reproducing a failure
//!
//! The fuzz harness (`tests/fuzz_differential.rs` at the workspace
//! root) derives case `i` from `Rng::new(seed).fork(i)` and prints both
//! numbers on failure:
//!
//! ```text
//! PRESBURGER_GEN_SEED=<seed> cargo test --test fuzz_differential
//! ```
//!
//! # Environment knobs
//!
//! * `PRESBURGER_GEN_SEED` — base seed (default in the harness).
//! * `PRESBURGER_GEN_CASES` — number of generated cases per run.
//! * `PRESBURGER_GEN_FAULT` — inject a deliberate engine-side bug
//!   (`count_off_by_one` | `miscount_stride`) to prove the harness
//!   catches and shrinks real miscounts (see [`harness::Fault`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod grammar;
pub mod harness;
pub mod metamorphic;
pub mod oracle;
pub mod requests;
pub mod rng;
pub mod shrink;

pub use grammar::{generate, GenCase, GenConfig};
pub use harness::{check_case, BudgetChoice, CaseFailure, Fault, Harness};
pub use requests::{
    admission_request_lines, batched_request_lines, count_request, request_lines, AdmissionMix,
    GenRequest,
};
pub use rng::Rng;
pub use shrink::{constraint_count, shrink_case};

/// The base seed used when `PRESBURGER_GEN_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0x5EED_CA5E;

/// Reads `PRESBURGER_GEN_SEED` (decimal `u64`), defaulting to
/// [`DEFAULT_SEED`].
pub fn seed_from_env() -> u64 {
    std::env::var("PRESBURGER_GEN_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Reads `PRESBURGER_GEN_CASES`, defaulting to `default`.
pub fn cases_from_env(default: usize) -> usize {
    std::env::var("PRESBURGER_GEN_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}
