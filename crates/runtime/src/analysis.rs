//! Glue between the compiled tapes and the `ps-analyze` static verifier.
//!
//! The analyzer knows nothing of buffers, layouts or executors: it consumes
//! a [`pa::AProgram`] — per equation the tape and its address table, the
//! registers preset on entry, declared array bounds, and the scheduled loop
//! tree. The tapes need no translation: the instruction set is
//! `ps_analyze::ir`'s own, so each [`pa::EqTape`] borrows its equation's
//! instructions, and its address table is a slice of one program-wide
//! table of `(array, subscripts)` entries that borrow the tapes'
//! dimensions. This module builds that description from a compiled
//! `Tapes` and the module's names and bounds, runs the three analyses, and
//! maps the per-array verdicts back onto `DataId`s as the tag-elision mask
//! [`crate::Program`] threads through instantiation and specialization.
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

use crate::compiled::{compile_tapes, CompiledEq, PInt, SymAddr, Tapes};
use crate::store::StorePlan;
use ps_analyze::{self as pa, ADim};
use ps_lang::hir::DataKind;
use ps_lang::{Affine, DataId, EqId, HirModule};
use ps_scheduler::{Descriptor, Flowchart, LoopKind, MemoryPlan};
use ps_support::idx::Idx;
use ps_support::SmallVec;

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
            name: item.name.as_str(),
            dims: item
                .dims()
                .iter()
                .map(|&sr| {
                    let s = module.subrange(sr);
                    pa::DimInfo {
                        lo: &s.lo,
                        hi: &s.hi,
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

    // Equation tapes, indexed densely in flowchart order, each borrowing
    // its slice of one program-wide address table.
    let order = flowchart.equations();
    let lowered = || order.iter().filter_map(|&eq_id| tapes.eqs[eq_id].as_ref());
    let n_addrs = lowered().map(|ceq| ceq.sym_addrs.len()).sum();
    let mut addrs: Vec<(usize, &[ADim])> = Vec::with_capacity(n_addrs);
    for ceq in lowered() {
        let access = |sym: &SymAddr| (array_ix[sym.array.index()], ceq.dims(sym));
        addrs.extend(ceq.sym_addrs.iter().map(access));
    }
    let mut rest = &addrs[..];
    let mut eq_ix: Vec<usize> = vec![usize::MAX; module.equations.len()];
    let mut eqs: Vec<pa::EqTape> = Vec::with_capacity(order.len());
    for eq_id in order {
        match &tapes.eqs[eq_id] {
            Some(ceq) => {
                let (mine, tail) = rest.split_at(ceq.sym_addrs.len());
                rest = tail;
                eq_ix[eq_id.index()] = eqs.len();
                eqs.push(eq_tape(module, tapes, eq_id, ceq, mine));
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
    for (a, id) in report.arrays.iter().zip(&array_ids) {
        verified[id.index()] = a.verified;
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
    let tapes = compile_tapes(module, &plan, flowchart, false);
    analyze_tapes(module, flowchart, &plan, &tapes).report
}

/// Describe one compiled equation for the verifier: its tape and `addrs`
/// (its slice of the address table) borrowed, plus what its registers hold
/// on entry — counters (the leading [`ps_lang::IvId`]-ordered
/// i-registers), exact affine forms (constants, preloaded parameters,
/// affine derived registers), opaque preset values (`min`/`max`/`abs`
/// derived forms), or tape temporaries.
pub(crate) fn eq_tape<'t>(
    module: &'t HirModule,
    tapes: &Tapes,
    eq_id: EqId,
    ceq: &'t CompiledEq,
    addrs: &'t [(usize, &'t [ADim])],
) -> pa::EqTape<'t> {
    let eq = &module.equations[eq_id];
    let params = tapes.params();
    let mut ivals = vec![pa::IVal::Temp; ceq.n_i as usize];
    for c in ivals.iter_mut().take(eq.ivs.len()) {
        *c = pa::IVal::Counter;
    }
    for &(r, v) in &ceq.consts_i {
        ivals[r as usize] = pa::IVal::Exact(Affine::constant(v));
    }
    for &(r, p) in &ceq.preload_i {
        let name = module.data[params[p as usize]].name;
        ivals[r as usize] = pa::IVal::Exact(Affine::param(name));
    }
    for (r, pint) in &ceq.derived_i {
        ivals[*r as usize] = match pint_affine(pint, params, module) {
            Some(a) => pa::IVal::Exact(a),
            None => pa::IVal::Opaque,
        };
    }
    pa::EqTape {
        label: &eq.label,
        n_f: ceq.n_f,
        n_i: ceq.n_i,
        n_b: ceq.n_b,
        entry_f: preset(&ceq.consts_f, &ceq.preload_f),
        entry_b: preset(&ceq.consts_b, &ceq.preload_b),
        ivals,
        insns: &ceq.insns,
        addrs,
        store: ceq.out.mem().map(|m| m.addr),
        result: ceq.src,
    }
}

/// The registers a constant pool and a preload table fill before entry.
fn preset<T>(consts: &[(u16, T)], preloads: &[(u16, u16)]) -> SmallVec<u16> {
    let consts = consts.iter().map(|&(r, _)| r);
    consts.chain(preloads.iter().map(|&(r, _)| r)).collect()
}

/// A derived register's value as an affine form over the module's integer
/// parameters (`params` is the tapes' parameter table), when it is one
/// (`min`/`max`/`abs` are not).
fn pint_affine(p: &PInt, params: &[DataId], module: &HirModule) -> Option<Affine> {
    let affine = |q| pint_affine(q, params, module);
    Some(match p {
        PInt::Const(v) => Affine::constant(*v),
        PInt::Param(ix) => Affine::param(module.data[params[*ix as usize]].name),
        PInt::Add(a, b) => affine(a)?.add(&affine(b)?),
        PInt::Sub(a, b) => affine(a)?.sub(&affine(b)?),
        PInt::Mul(a, b) => {
            let (x, y) = (affine(a)?, affine(b)?);
            if let Some(k) = x.as_constant() {
                y.scale(k)
            } else if let Some(k) = y.as_constant() {
                x.scale(k)
            } else {
                return None;
            }
        }
        PInt::Neg(a) => affine(a)?.scale(-1),
        PInt::Min(..) | PInt::Max(..) | PInt::Abs(..) => return None,
    })
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

fn convert_items<'m>(
    module: &'m HirModule,
    items: &'m [Descriptor],
    eq_ix: &[usize],
) -> Vec<pa::Node<'m>> {
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
                    name: &l.name,
                    lo: &s.lo,
                    hi: &s.hi,
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
