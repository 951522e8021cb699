//! Front end for the **PS** ("Problem Specification") nonprocedural dataflow
//! language of Gokhale's ICPP'87 paper.
//!
//! A PS program is a set of *modules*; each module declares typed inputs,
//! results, subrange/array/record/enum types and local variables, and then a
//! `define` section of unordered single-assignment *equations*. There is no
//! control flow — the compiler's scheduler derives the execution order (and
//! the DO/DOALL loop nesting) from the data dependency graph.
//!
//! Pipeline implemented here:
//!
//! ```text
//! source ──lexer──▶ tokens ──parser──▶ AST ──check──▶ HIR (typed, normalized)
//! ```
//!
//! The HIR is the hand-off point to `ps-depgraph`: every array reference is
//! expanded to full rank, every subscript is classified into the paper's
//! Figure-2 forms (`I`, `I - constant`, *other*), and implicit slice
//! assignments (`A[1] = InitialA`) are expanded with synthesized index
//! variables so the scheduler can generate the `DOALL I (DOALL J (eq.1))`
//! nests of Figure 5.

#![forbid(unsafe_code)]

pub mod ast;
pub mod bounds;
pub mod check;
pub mod hir;
pub mod lexer;
pub mod parser;
pub mod print;
pub mod region;
pub mod token;
pub mod types;

pub use bounds::Affine;
pub use check::{check_module, check_program};
pub use hir::{
    DataId, DataItem, DataKind, EqId, Equation, HExpr, HirModule, IvId, LhsSub, SubscriptExpr,
};
pub use lexer::lex;
pub use parser::parse_program;
pub use types::{ScalarTy, Subrange, SubrangeId, Ty};

use ps_support::{DiagnosticSink, SourceMap};

/// Convenience: lex, parse and check a single-module source string.
///
/// Returns the checked module or the rendered diagnostics.
pub fn frontend(source: &str) -> Result<hir::HirModule, String> {
    let sink = DiagnosticSink::new();
    // The source map copies the text and indexes its lines; only a
    // diagnostic reads either, so it is built when there is one to render.
    let render = || {
        let mut sources = SourceMap::new();
        let file = sources.add_file("<input>", source);
        sink.render_all(file, &sources)
    };
    let tokens = lexer::lex(source, &sink);
    let program = parser::parse_program(&tokens, &sink);
    if sink.has_errors() {
        return Err(render());
    }
    let module = program
        .modules
        .into_iter()
        .next()
        .ok_or_else(|| "no module in source".to_string())?;
    let hir = check::check_module(&module, &sink);
    if sink.has_errors() {
        return Err(render());
    }
    hir.ok_or_else(|| "internal: checker produced no module without errors".to_string())
}
