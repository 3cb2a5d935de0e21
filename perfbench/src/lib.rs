//! The repository's benchmark: seeded workloads over the counting
//! library and the TCP serving path, with end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. See README.md.

pub mod compare;
pub mod inputs;
pub mod library;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod workloads;
