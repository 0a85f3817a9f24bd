//! # sliq-bench
//!
//! The benchmark harness that reproduces the evaluation section of the paper:
//!
//! * [`runner`] — runs a circuit on a chosen backend through the
//!   [`sliq_exec::Session`] layer with a per-case wall-clock timeout and a
//!   node limit (the scaled-down analogue of the paper's 7200 s TO / 2 GB MO
//!   protocol) and aggregates `TO/MO/err` counts.  Cases run one at a time,
//!   as the paper timed them.
//! * [`tables`] — generates the benchmark families and renders rows in the
//!   layout of Tables III–VI, plus the accuracy and bit-width ablations, the
//!   batched-sampling throughput sweep (`tables -- sample`) and the memory
//!   sweep (`tables -- memory`).
//! * [`serve`] — the serving load generator (`tables -- serve`): an
//!   in-process `sliq-serve` instance under concurrent client threads,
//!   reporting sessions/s, req/s and p50/p99 latency cold vs warm cache.
//! * [`report`] — the one JSON writer behind every `BENCH_*.json` and the
//!   one comparer that gates a report against its committed baseline in
//!   `baselines/`.
//!
//! The `tables` binary (`cargo run -p sliq-bench --release --bin tables`)
//! prints any of the tables; the Criterion bench under `benches/`
//! (`gate_ops`) times single gate applications per backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod serve;
pub mod tables;

pub use runner::{
    auto_reorder_env, bench_smoke_env, kernel_stats_report, run_case, Backend, CaseLimits,
    CaseResult, CaseStatus, RowSummary,
};
pub use serve::{format_serve, serve_report, ServeReport};
pub use tables::Scale;
