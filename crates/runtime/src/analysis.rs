//! Glue between the compiled tapes and the `ps-analyze` static verifier.
//!
//! The analyzer is deliberately runtime-agnostic: it consumes a neutral
//! [`pa::AProgram`] — per-equation step lists, affine addresses, declared
//! array bounds, and the scheduled loop tree. This module lowers a
//! compiled `Tapes` into that form (the instruction-level conversion
//! itself lives with the private `Insn` type in `compiled.rs`),
//! runs the three analyses, and maps the per-array verdicts back onto
//! `DataId`s as the tag-elision mask [`crate::Program`] threads through
//! instantiation and specialization.
//!
//! Elision policy (sound by construction):
//!
//! * only Local/Result arrays elide — parameter inputs never allocate
//!   tags in the first place;
//! * windowed arrays never elide (their tags also catch window
//!   evictions, which the interval domain does not model);
//! * arrays touched by a hyperplane drain never elide (the drain copies
//!   through `ArrayInstance`'s checked accessors, outside the tapes the
//!   analyzer saw);
//! * everything else elides only when every store is proven in-bounds,
//!   injective over all enclosing counters, and pairwise disjoint across
//!   equations, and every load is proven in-bounds.

use crate::compiled::{compile_tapes, Tapes};
use crate::store::StorePlan;
use ps_analyze as pa;
use ps_lang::hir::DataKind;
use ps_lang::{DataId, HirModule};
use ps_scheduler::{Descriptor, Flowchart, LoopKind, MemoryPlan};
use ps_support::idx::Idx;

/// The result of verifying one compiled program.
pub(crate) struct AnalysisOutcome {
    pub(crate) report: pa::Report,
    /// Tag-elision mask, indexed by `DataId`.
    pub(crate) verified: Vec<bool>,
}

/// Run the static verifier over an already-compiled tape set.
pub(crate) fn analyze_tapes(
    module: &HirModule,
    flowchart: &Flowchart,
    plan: &StorePlan,
    tapes: &Tapes,
) -> AnalysisOutcome {
    // Array table: every declared array, in data order.
    let mut array_ix: Vec<usize> = vec![usize::MAX; module.data.len()];
    let mut array_ids: Vec<DataId> = Vec::new();
    let mut arrays: Vec<pa::ArrayInfo> = Vec::new();
    for (id, item) in module.data.iter_enumerated() {
        if !item.is_array() {
            continue;
        }
        array_ix[id.index()] = arrays.len();
        array_ids.push(id);
        arrays.push(pa::ArrayInfo {
            name: item.name.to_string(),
            dims: item
                .dims()
                .iter()
                .map(|&sr| {
                    let s = module.subrange(sr);
                    pa::DimInfo {
                        lo: s.lo.clone(),
                        hi: s.hi.clone(),
                    }
                })
                .collect(),
            windowed: plan.is_windowed(id),
            elidable: matches!(item.kind, DataKind::Local | DataKind::Result),
            input: item.kind == DataKind::Param,
        });
    }
    // Drained arrays copy through `ArrayInstance`'s checked accessors,
    // outside anything the analyzer inspects: never elide either side.
    let mut drained: Vec<DataId> = Vec::new();
    collect_drains(&flowchart.items, &mut drained);
    for id in drained {
        let ix = array_ix[id.index()];
        if ix != usize::MAX {
            arrays[ix].elidable = false;
        }
    }

    // Equation tapes, indexed densely in flowchart order.
    let lookup = |id: DataId| array_ix[id.index()];
    let mut eq_ix: Vec<usize> = vec![usize::MAX; module.equations.len()];
    let mut eqs: Vec<pa::EqTape> = Vec::new();
    for eq_id in flowchart.equations() {
        match tapes.analysis_tape(eq_id, module, &lookup) {
            Some(tape) => {
                eq_ix[eq_id.index()] = eqs.len();
                eqs.push(tape);
            }
            None => {
                // A scheduled equation without a tape (cannot happen with
                // the current compiler): its writes are invisible to the
                // analysis, so its target must keep runtime checks.
                let ix = array_ix[module.equations[eq_id].lhs.index()];
                if ix != usize::MAX {
                    arrays[ix].elidable = false;
                }
            }
        }
    }

    let schedule = convert_items(module, &flowchart.items, &eq_ix);
    let program = pa::AProgram {
        arrays,
        eqs,
        schedule,
    };
    let report = pa::analyze(&program);

    // Scatter the per-array verdicts back onto DataIds.
    let mut verified = vec![false; module.data.len()];
    for (ix, ok) in report.verified_mask().into_iter().enumerate() {
        verified[array_ids[ix].index()] = ok;
    }
    AnalysisOutcome { report, verified }
}

/// Compile the given scheduled module's tapes and verify them: the
/// standalone entry point for linters and tests (no [`crate::Program`]
/// needed). The report carries one verdict per declared array plus any
/// `E06xx` diagnostics; [`pa::Report::has_errors`] is the gate.
pub fn analyze_compiled(
    module: &HirModule,
    flowchart: &Flowchart,
    memory: &MemoryPlan,
) -> pa::Report {
    let plan = StorePlan::new(module, memory);
    let tapes = compile_tapes(module, &plan, flowchart, false, true);
    analyze_tapes(module, flowchart, &plan, &tapes).report
}

fn collect_drains(items: &[Descriptor], out: &mut Vec<DataId>) {
    for d in items {
        match d {
            Descriptor::Equation(_) => {}
            Descriptor::Loop(l) => collect_drains(&l.body, out),
            Descriptor::Drain(spec) => {
                out.push(spec.dst);
                out.push(spec.src);
            }
        }
    }
}

fn convert_items(module: &HirModule, items: &[Descriptor], eq_ix: &[usize]) -> Vec<pa::Node> {
    let mut out = Vec::new();
    for d in items {
        match d {
            Descriptor::Equation(eq) => {
                let ix = eq_ix[eq.index()];
                if ix != usize::MAX {
                    out.push(pa::Node::Eq(ix));
                }
            }
            Descriptor::Loop(l) => {
                let s = module.subrange(l.subrange);
                out.push(pa::Node::Loop {
                    parallel: l.kind == LoopKind::Doall,
                    name: l.name.clone(),
                    lo: s.lo.clone(),
                    hi: s.hi.clone(),
                    bindings: l
                        .bindings
                        .iter()
                        .filter(|(eq, _)| eq_ix[eq.index()] != usize::MAX)
                        .map(|&(eq, iv)| (eq_ix[eq.index()], iv.index() as u16))
                        .collect(),
                    body: convert_items(module, &l.body, eq_ix),
                });
            }
            // The drain is not an equation tape; its safety is delegated
            // to the runtime accessors (see module docs).
            Descriptor::Drain(_) => {}
        }
    }
    out
}
