//! The timing harness behind the one `micro` bench target.
//!
//! Performance numbers for anything an op of the repo benchmark crosses
//! (`benchmark/`, `BENCHMARK.json`) come from there; `benches/micro.rs`
//! holds the rows it cannot see and `BENCH_micro.json` at the repo root
//! their last committed run. The paper's figures are pinned by
//! `tests/figures.rs`, not timed here.

#![forbid(unsafe_code)]

pub mod harness;

pub use harness::Harness;
