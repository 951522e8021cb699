//! Virtual-dimension analysis (paper Section 3.4).
//!
//! > "A data node dimension is virtual if the dimension is mapped to a
//! > 'window' of elements, and the width of the window is smaller than the
//! > PS declared size."
//!
//! While Schedule-Component schedules a dimension of component `Mi`, every
//! *local* data node `Nr` in `Mi` is examined: the scheduled dimension is
//! marked virtual when each read edge out of `Nr` is either
//!
//! 1. an `I` / `I - constant` reference at that dimension whose target is
//!    inside `Mi`, or
//! 2. an edge leaving the component whose subscript at that dimension is the
//!    *upper bound* of the dimension's subrange (only the last plane is used
//!    outside the loop).
//!
//! The window width is `1 + max offset` over the form-1 references (2 for
//! the Relaxation array `A`, 3 for the transformed `A'` of Section 4).
//!
//! The analysis must inspect *all* read edges — including edges deactivated
//! while scheduling outer dimensions — because storage must accommodate
//! every reference in the program, not just the ones still active.
//!
//! One soundness refinement over the paper's literal wording: a dimension
//! is only windowed when every in-component reference has a **zero offset
//! in all previously scheduled (outer) dimensions**. A reference like
//! `t[I-1, J]` (outer offset 1) reaches back across a full sweep of the
//! inner `J` loop, so a `J` window of 2 would have evicted the element; the
//! paper's running example never exhibits this case, but the 2-D wavefront
//! table does, and the runtime's write checker catches the eviction.

use crate::dims::DimMatch;
use crate::memory::MemoryPlan;
use crate::schedule::SchedState;
use ps_depgraph::{DepNodeKind, EdgeKind, SubscriptForm};
use ps_lang::hir::{DataKind, HirModule, LhsSub};

/// Run the analysis for one scheduled dimension of the component `state` is
/// working on, recording windows into `memory`. `state` also carries which
/// dimensions are already scheduled (the enclosing loops).
pub fn analyze(module: &HirModule, state: &SchedState, m: &DimMatch, memory: &mut MemoryPlan) {
    let dg = state.dg;
    for &(node, dim) in &m.data {
        let DepNodeKind::Data(data_id) = dg.node_kind(node) else {
            continue;
        };
        // Only local variables are windowed; parameters arrive whole and
        // results leave whole (the paper's NewA footnote).
        if module.data[data_id].kind != DataKind::Local {
            continue;
        }

        let mut ok = true;
        let mut max_offset: i64 = 0;
        // All read edges out of this data node, deleted or not.
        for &e in dg.graph.out_edge_list(node) {
            let edge = dg.graph.edge(e);
            if edge.kind != EdgeKind::Read {
                continue;
            }
            let label = &edge.labels[dim];
            if state.in_component(dg.graph.edge_target(e)) {
                // Form 1: I or I - constant, target inside the component.
                match label.form {
                    SubscriptForm::Identity => {}
                    SubscriptForm::OffsetBack => {
                        max_offset = max_offset.max(-label.delta);
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
                // Soundness: the reference must not reach across an outer
                // (already scheduled) loop iteration — an outer offset
                // means the inner window has cycled by the time of use.
                for (outer, l) in edge.labels.iter().enumerate() {
                    if outer != dim
                        && state.is_data_scheduled(node, outer)
                        && !(l.form == SubscriptForm::Identity)
                    {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    break;
                }
            } else {
                // Form 2: reference from outside must read the last plane.
                if !(label.form == SubscriptForm::Constant && label.at_upper_bound) {
                    ok = false;
                    break;
                }
            }
        }

        // Initialization writes from outside the component (eq.1's
        // `A[1] = InitialA`) land before the loop runs; they are compatible
        // with a window only when they write a single constant plane within
        // window distance of the loop's first iteration. (A Var-plane
        // initializer like the table's `t[I,1] = 1` pre-writes many planes,
        // which the window would evict before the loop reads them.)
        if ok {
            let loop_lo = &module.subranges[m.subrange].lo;
            for &e in dg.graph.in_edge_list(node) {
                let src = dg.graph.edge_source(e);
                if dg.graph.edge(e).kind != EdgeKind::Def || state.in_component(src) {
                    continue;
                }
                let DepNodeKind::Equation(eq_id) = dg.node_kind(src) else {
                    continue;
                };
                match module.equations[eq_id].lhs_subs.get(dim) {
                    Some(LhsSub::Const(c)) => match loop_lo.const_difference(c) {
                        Some(k) if k >= 0 && k <= max_offset => {}
                        _ => {
                            ok = false;
                            break;
                        }
                    },
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
        }

        if ok {
            memory.set_window(data_id, dim, 1 + max_offset);
        }
    }
}
