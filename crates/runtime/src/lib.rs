//! Execution of scheduled PS programs, split along the **compile-once /
//! run-many** seam.
//!
//! The scheduled interpreter ([`interp`]) walks a flowchart produced by
//! `ps-scheduler`, executing `DO` loops in order and mapping each `DOALL`
//! loop onto a [`ps_executor::Executor`] as a region over its own counter.
//! Array storage honours the virtual-dimension [`MemoryPlan`]: windowed
//! dimensions are allocated `window` planes and indexed modulo the window,
//! exactly like the C the paper's compiler emits.
//!
//! # The compile / run split
//!
//! Serving many small solves pays for compilation once, not per request:
//!
//! * [`Program`] (see [`program`]) — the immutable, shareable artifact:
//!   the [`StorePlan`] (scalar-slot layout + window decisions), the
//!   parameter-independent instruction tapes, a per-parameter-layout
//!   specialization cache, and a pooled run arena. `&Program` is
//!   `Send + Sync`; independent runs execute concurrently.
//! * [`Program::run`] — the cheap per-run half: bind parameter registers,
//!   evaluate array bounds, draw buffers/frames from the arena, execute.
//!   Steady-state runs do **zero lowering or validation allocations**.
//! * [`run_module`] — compile-and-run-once convenience over the same
//!   machinery.
//!
//! ```
//! use ps_runtime::{Inputs, Program, RuntimeOptions};
//!
//! let m = ps_lang::frontend(
//!     "T: module (n: int; gain: real): [y: real];
//!      type K = 2 .. n;
//!      var a: array [1 .. n] of real;
//!      define
//!         a[1] = gain;
//!         a[K] = a[K-1] * gain + 1.0;
//!         y = a[n];
//!      end T;",
//! )
//! .unwrap();
//! let dg = ps_depgraph::build_depgraph(&m);
//! let sched = ps_scheduler::schedule_module(&m, &dg, Default::default()).unwrap();
//!
//! // Compile once...
//! let prog = Program::new(&m, &sched.flowchart, &sched.memory, RuntimeOptions::default());
//! // ...run many times, with different parameters each time.
//! let a = prog
//!     .run(&Inputs::new().set_int("n", 4).set_real("gain", 2.0), &ps_executor::Sequential)
//!     .unwrap();
//! let b = prog
//!     .run(&Inputs::new().set_int("n", 6).set_real("gain", 0.5), &ps_executor::Sequential)
//!     .unwrap();
//! assert_eq!(a.scalar("y").as_real(), 23.0);
//! assert_eq!(b.scalar("y").as_real(), 1.953125);
//! ```
//!
//! # One engine, one oracle
//!
//! **The engine.** Every scheduled equation is lowered **once per
//! [`Program`]** to a flat postorder tape of typed instructions over
//! untagged `f64`/`i64`/`bool` registers, with types synthesized ahead of
//! time from the checked HIR. Module parameters live in *registers* bound
//! at run start (pure-integer parameter expressions hoist into derived
//! registers), so the tapes are valid for every parameter vector. Affine
//! array subscripts strength-reduce — per cached parameter layout — into
//! `base + Σ cᵢ·regᵢ` dot products against each array's *physical* layout
//! (the window `mod` survives only for genuinely windowed dimensions), and
//! loop counters are the leading registers of each equation's frame. An
//! iteration is a non-recursive tape walk with direct buffer loads and
//! stores and **zero per-iteration heap allocations** — the interpretive
//! cost the paper's loop-level speedups would otherwise drown in.
//! Single-equation innermost `DOALL` bodies go one step further and run
//! **strip-mined**: a rectangle of a `DOALL I (DOALL J)` nest (a row
//! segment, for a lone `DOALL`) resolves its branches once, and each pass
//! of the straight-line path they select — one op, or two fused — is
//! dispatched once per [`STRIP_LANES`] iterations and applied to that many
//! lanes ([`Program::strip_report`] says
//! which equations do, along which paths, and why the others do not).
//!
//! **The oracle.** [`naive`] is a demand-driven memoizing evaluator
//! executing the nonprocedural semantics straight from the equations:
//! slow, sequential, and obviously correct. A schedule is only one legal
//! order of evaluating the equations, so the oracle needs none: it shares
//! with the engine nothing but `ps-lang` (the checked HIR), the
//! [`Inputs`]/[`Outputs`]/[`Value`] types a caller hands over and gets
//! back, and [`store::Store::bounds_of`] (declared array bounds) — no
//! flowchart, no [`MemoryPlan`], no store, no tape. The differential suites
//! (`engine_diff`, `strip_diff`) assert **bit-identical** outputs against
//! it on random programs, on `Sequential` and on a pool, with and without
//! `check_writes`, and across one `Program`'s sequential and concurrent
//! runs; because the oracle has no schedule and no windows, a wrong
//! `DO`/`DOALL` classification or an undersized window fails there too.
//!
//! Writes from `DOALL` iterations go through interior-mutability cells; the
//! single-assignment discipline (enforced by the checker and the scheduler)
//! guarantees disjointness. `RuntimeOptions::check_writes` additionally
//! tags every physical slot with the logical index it holds, catching both
//! double writes and window-eviction races in tests: the tapes run in a
//! checked mode that maintains the tags inline.
//!
//! # Static verification ([`analysis`])
//!
//! `RuntimeOptions::analysis` = [`AnalysisLevel::Verify`] runs the
//! `ps-analyze` static verifier over the compiled tapes at
//! [`Program::try_new`] time. Three analyses, per scheduled region:
//! **def-before-use** (every register defined along all control paths
//! before it is read), **in-bounds addressing** (interval analysis over
//! the affine subscripts against declared bounds, for all admissible
//! parameter vectors), and **`DOALL` write-disjointness** (store
//! addresses injective in the loop counters). Rejections surface as
//! rendered `E06xx` diagnostics; arrays whose every access is *proven*
//! safe skip the checked-write tag machinery entirely — proving most of
//! `check_writes`' cost away while keeping runtime checks exactly where
//! the proof fell back (e.g. dynamic gather subscripts).
//!
//! [`MemoryPlan`]: ps_scheduler::MemoryPlan

pub mod analysis;
mod compiled;
pub mod interp;
pub mod naive;
pub mod ndarray;
pub mod program;
pub mod store;
mod strip;
pub mod value;

pub use analysis::analyze_compiled;
pub use interp::{run_module, AnalysisLevel, RuntimeOptions};
pub use naive::run_naive;
pub use program::{Program, RunSession, SPEC_CACHE_CAP};
pub use ps_analyze::{Report as AnalysisReport, Verdict as AnalysisVerdict};
pub use store::{Inputs, Outputs, StoreArena, StorePlan};
pub use strip::{ScalarReason, StripVerdict, W as STRIP_LANES};
pub use value::{OwnedArray, Value};
