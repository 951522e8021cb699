//! Shared substrate for the PS compiler workspace.
//!
//! This crate holds the infrastructure every other crate leans on:
//!
//! * [`span`] — byte spans and the [`source::SourceMap`] that resolves them
//!   to file/line/column positions,
//! * [`diag`] — structured diagnostics with severities, error codes and
//!   rendered source excerpts,
//! * [`intern`] — a global string interner producing copyable [`intern::Symbol`]s,
//! * [`fxhash`] — the Fx multiply-xor hasher (deterministic, fast for the
//!   small integer/symbol keys the compiler uses everywhere), vendored so
//!   the workspace stays free of external crates,
//! * [`idx`] — strongly-typed index newtypes and [`idx::IndexVec`],
//! * [`pretty`] — an indenting text writer used by all renderers,
//! * [`rng`] — a seeded LCG driving the deterministic property tests,
//! * [`small`] — [`SmallVec`], up to three items without a heap allocation
//!   (affine terms, subscript terms),
//! * [`faults`] — the seeded fault-injection switchboard the chaos suites
//!   drive (worker panics, slow solves, socket stalls, ...),
//! * [`cache`] — [`LruCache`], the bounded compile-once table both the
//!   solve service's registry and each program's specialization cache use.
//!
//! Nothing in here is specific to the PS language; it is the kind of support
//! layer the paper's 24,000-line Pascal implementation would have carried
//! implicitly.

#![forbid(unsafe_code)]

pub mod cache;
pub mod diag;
pub mod faults;
pub mod fxhash;
pub mod idx;
pub mod intern;
pub mod pretty;
pub mod rng;
pub mod small;
pub mod source;
pub mod span;

pub use cache::LruCache;
pub use diag::{Diagnostic, DiagnosticSink, Severity};
pub use faults::{FaultInjector, FaultPoint, FaultSpec};
pub use fxhash::{FxHashMap, FxHashSet};
pub use intern::Symbol;
pub use rng::Lcg;
pub use small::SmallVec;
pub use source::{FileId, SourceMap};
pub use span::Span;
