//! End-to-end planning benchmark for the `mjoin` workspace.
//!
//! Three seeded workloads drive the entry points a user reaches —
//! `mjoin_cli::run` in process, and `mjoin_serve::Server` with
//! `mjoin_cli::MjoinEngine` on loopback — and a separate traced run splits
//! each request by layer. See `planbench/README.md`.

pub mod check;
pub mod cli;
pub mod corpus;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
