//! C code generation — the back end of the paper's compiler.
//!
//! > "The code generation phase generates C declarations and assignment
//! > statements. [...] Each loop is annotated to indicate whether it is an
//! > iterative or concurrent for."
//!
//! [`emit_module`] lowers a scheduled module to a self-contained C
//! translation unit:
//!
//! * one function per module taking parameters (scalars by value, arrays as
//!   flat `const double*`/`long*` pointers) and result arrays as out
//!   pointers;
//! * local arrays `malloc`ed with **windowed extents** from the memory plan
//!   and indexed modulo the window, exactly as Section 3.4 prescribes;
//! * `DO` loops as plain `for`; `DOALL` loops annotated with a comment and
//!   an OpenMP `#pragma omp parallel for` so a procedural multiprocessor
//!   compiler can pick them up;
//! * `if` expressions as C conditional expressions;
//! * a loop a transform narrowed (the windowed-hyperplane *drain*, inside
//!   the wavefront loop) with its bounds under `ps_lmax`/`ps_lmin`.
//!
//! [`emit_main`] additionally generates a `main` that fills inputs with a
//! deterministic pattern and prints a checksum — used by the end-to-end
//! test that compiles the emitted C with the system compiler and compares
//! against the Rust interpreter.

#![forbid(unsafe_code)]

pub mod cemit;
pub mod ctypes;
pub mod names;

pub use cemit::{emit_main, emit_module, CodegenOptions};
