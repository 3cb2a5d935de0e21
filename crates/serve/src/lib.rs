//! presburger-serve: a hardened request-serving layer for the counting
//! engine.
//!
//! Long-running services that answer counting queries need more than a
//! correct engine — they need *overload behavior*: what happens when
//! requests arrive faster than they can be answered, when one request
//! panics a worker, when a stream of adversarial formulas would burn a
//! full deadline each, and when the process has to go away without
//! dropping in-flight work. This crate packages those behaviors around
//! the governed counting pipeline ([`presburger_counting::Governor`]).
//!
//! There is one front door: a supervised [`ShardPool`]. Every request —
//! over stdin/stdout ([`run_stdio`], a one-shard pool), over TCP
//! ([`PoolTcpServer`]), or in process ([`PoolHandle::submit`]) — is
//! admitted by the pool and answered by one of its shards:
//!
//! * **Admission control** — each shard has a bounded queue; a full
//!   queue (or a draining pool) answers `SHED retry_after_ms=…` instead
//!   of queueing unboundedly. In front of it sits a deadline-aware
//!   admission layer ([`admission`], DESIGN.md §16): strict-priority
//!   lanes (`prio=interactive|batch|background`) with a background
//!   anti-starvation credit, and eviction of requests whose deadline
//!   expired while queued (answered with §4.6 bounds instead of
//!   burning a worker).
//! * **Panic isolation** — every request runs under `catch_unwind`; a
//!   poisoned request answers `ERR … internal` and the worker lives.
//! * **Circuit breaking** — after K consecutive internal/deadline
//!   failures, new requests degrade-first to §4.6 bounds until a
//!   half-open probe proves the exact path healthy again
//!   ([`breaker::Breaker`]).
//! * **Result caching** — a bounded LRU keyed by the *canonical*
//!   (re-rendered) query, with an opt-in verify mode that recomputes a
//!   sample of hits and alarms on mismatch ([`cache::ResultCache`]).
//! * **Graceful drain** — stop admitting, finish or cancel-and-bound
//!   in-flight work within a drain deadline, emit a final stats line.
//! * **Request-scoped telemetry** — per-request latency / queue-wait /
//!   overhead / splinter histograms with Prometheus exposition (the
//!   `metrics` verb), a slow-request flight recorder (`flightrec`),
//!   and an opt-in JSONL event log ([`telemetry`], DESIGN.md §12).
//!   Telemetry is observational only: responses and replay transcripts
//!   are byte-identical with it on or off.
//! * **Supervised sharding** — the pool runs N bulkhead-isolated shards
//!   behind a consistent-hash router and a supervisor that detects
//!   crashed/wedged shards, restarts them with capped backoff, and
//!   re-dispatches orphaned requests to siblings or the replacement
//!   (falling back to §4.6 bounds) so an admitted request never loses
//!   its response — even with armed chaos ([`chaos`]) killing a shard
//!   mid-run. (DESIGN.md §14.)
//!
//! The wire protocol is newline-delimited text or, auto-detected per
//! connection, the binary codec of [`wire`]; see [`protocol`] for the
//! grammar and DESIGN.md §11 for the design rationale. The
//! `serve_stress` binary floods pools with generated request streams
//! and asserts zero lost/duplicated/misordered responses and
//! byte-identical replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod protocol;
pub mod server;
pub mod shard;
mod sync;
pub mod telemetry;
pub mod wire;

pub use admission::Lane;
pub use breaker::{Breaker, Plan};
pub use cache::ResultCache;
pub use chaos::{Chaos, ChaosSite};
pub use protocol::{parse_request, Overrides, ProtocolError, Query, Request, ServeError, Verb};
pub use server::{run_stdio, Gate, ServeConfig, Slot};
pub use shard::{routing_hash, PoolHandle, PoolTcpServer, Ring, ShardPool, ShardPoolConfig};
pub use telemetry::{FlightRecord, RequestTelemetry, Telemetry, TelemetrySettings};
pub use wire::{serve_binary_connection, BinClient, Reply, WireRequest};
