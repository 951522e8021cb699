//! `ps-core` — the public façade of the PS compiler reproduction.
//!
//! This crate wires the full pipeline of Gokhale's ICPP'87 paper together:
//!
//! ```text
//!        ps-lang          ps-depgraph        ps-scheduler
//! source ──────▶ HIR ───────────▶ dep graph ───────────▶ DO/DOALL flowchart
//!                                                  │            │
//!                     ps-hyperplane (Section 4) ◀──┘            ├─▶ ps-codegen (C)
//!                      wavefront transform                      └─▶ ps-runtime (execute)
//! ```
//!
//! Quick start:
//!
//! ```
//! use ps_core::{compile, programs, CompileOptions};
//!
//! let comp = compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap();
//! let fc = comp.compact_flowchart();
//! assert!(fc.starts_with("DOALL I (DOALL J (eq.1))"));
//! ```
//!
//! [`compile`] stops at the schedule (and the Section-4 transform when
//! asked): it writes no text. The C of the diagram's upper branch is
//! produced on demand by [`Compilation::emit_c`] /
//! [`TransformedArtifacts::emit_c`], as `psc --emit c` does.
//!
//! # Compile once, run many
//!
//! Execution splits along the compile/run seam: [`Program::compile`]
//! performs schedule analysis, store layout planning, and tape lowering
//! exactly once, and [`Program::run`] serves each request by binding
//! parameter registers and executing against pooled run state — the shape
//! a service answering many small solves needs. `&Program` is
//! `Send + Sync`, so worker threads share one artifact. [`execute`] /
//! [`execute_transformed`] remain as compile-and-run-once conveniences.
//!
//! # Serving many clients
//!
//! On top of that seam, [`Service`] (re-exported from `ps-service`) is the
//! embeddable concurrent solve service: a compile-once [`Registry`] of
//! owned [`Program`]s keyed by `(source, RuntimeOptions)` — the same
//! bounded LRU table (`ps_support::cache`) each program keeps its
//! parameter-layout specializations in — worker threads that
//! micro-batch requests sharing a program onto one pooled run-slot
//! session, panic isolation at the request boundary, and p50/p99 latency
//! counters. The `ps-serve` binary puts a newline-delimited TCP server in
//! front of it.
//!
//! See `examples/` for runnable end-to-end programs (`quickstart.rs`
//! demonstrates the compile-once / run-many API, `solve_service.rs` the
//! embedded service). The paper's figures are pinned by `tests/figures.rs`;
//! performance is measured by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`), and `ps-bench`'s one `micro` target times the three
//! costs too small to show in one of its ops (region dispatch, a trace
//! site, checked writes).

pub mod pipeline;
pub mod programs;
pub mod report;

pub use pipeline::{
    analyze, compile, execute, execute_transformed, Compilation, CompileError, CompileOptions,
    Program, TransformedArtifacts,
};

// Re-export the building blocks so downstream users need one dependency.
pub use ps_codegen::{emit_main, emit_module, CodegenOptions};
pub use ps_depgraph::{build_depgraph, DepGraph};
pub use ps_eqfront::translate_equation;
pub use ps_executor::{
    CancelToken, Cancelled, Executor, PoolStatsSnapshot, Sequential, ThreadPool,
};
pub use ps_hyperplane::{
    find_recursive_target, hyperplane_transform, schedule_transformed, HyperplaneResult,
    StorageMode,
};
pub use ps_lang::{frontend, HirModule};
pub use ps_runtime::{
    analyze_compiled, run_module, run_naive, AnalysisLevel, AnalysisReport, AnalysisVerdict,
    Inputs, Outputs, OwnedArray, RuntimeOptions, ScalarReason, StoreArena, StorePlan, StripVerdict,
    Value, SPEC_CACHE_CAP, STRIP_LANES,
};
pub use ps_scheduler::{
    schedule_module, validate_flowchart, Flowchart, MemoryPlan, PickPolicy, ScheduleOptions,
    ScheduleResult,
};
pub use ps_service::{
    proto, ProgramKey, Registry, ResponseHandle, Service, ServiceError, ServiceOptions,
    ServiceStats, SolveError, SolveRequest,
};
pub use ps_support::faults::{FaultInjector, FaultPoint, FaultSpec};
pub use ps_support::rng::Lcg;
// The tracing layer is a façade citizen too: embedders enable it, export
// Chrome traces, and read per-stage histograms through one dependency.
pub use ps_trace;
