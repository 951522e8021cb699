//! Dimension matching: step 2–3 of Schedule-Component.
//!
//! A *dimension* of a component is an equivalence between one index variable
//! of each equation node and one dimension position of each data node,
//! induced by the subscript structure. The paper states the requirement as:
//!
//! > "verify that the subrange associated with that dimension appears in a
//! > consistent position in each node of the component, and that the only
//! > subscript expressions used in that dimension are either `I` or
//! > `I - constant`."
//!
//! Starting from a seed `(equation, index variable)`, [`try_match`]
//! propagates the assignment across def and read edges to a fixed point,
//! rejecting the candidate on any conflict (the paper's footnote example
//! `A[I,J] = A[I,J-1] + A[J,I]` fails here: `I` would need to sit at both
//! position 0 and position 1 of `A`).

use crate::schedule::SchedState;
use ps_depgraph::{DepNodeKind, EdgeKind, SubscriptForm};
use ps_graph::{EdgeId, NodeId};
use ps_lang::hir::{HirModule, LhsSub};
use ps_lang::{IvId, SubrangeId};

/// A verified dimension assignment for a component.
#[derive(Clone, Debug)]
pub struct DimMatch {
    /// Matched index variable per equation node of the component.
    pub eqs: Vec<(NodeId, IvId)>,
    /// Matched dimension position per data node of the component.
    pub data: Vec<(NodeId, usize)>,
    /// Read edges with `I - constant` form at the matched dimension — the
    /// edges Schedule-Component deletes (step 4).
    pub deletable: Vec<EdgeId>,
    /// Display name (the seed index variable's name).
    pub name: String,
    /// The subrange the generated loop iterates over.
    pub subrange: SubrangeId,
}

/// Attempt to extend the seed `(seed_eq_node, seed_iv)` to a consistent
/// dimension over the component `state` is working on, whose nodes are
/// `comp`. Returns `None` when the paper's step-3 verification fails.
pub fn try_match(
    module: &HirModule,
    state: &mut SchedState,
    comp: &[NodeId],
    seed_eq_node: NodeId,
    seed_iv: IvId,
) -> Option<DimMatch> {
    let dg = state.dg;
    let equation = |n: NodeId| match dg.node_kind(n) {
        DepNodeKind::Equation(eq) => Some(&module.equations[eq]),
        _ => None,
    };
    state.matched.clear();
    state.work.clear();
    assign(state, seed_eq_node, seed_iv.0);

    // Fixed-point propagation over the component's undeleted edges.
    while let Some(n) = state.work.pop() {
        let at = state.matched.get(n).expect("queued when assigned");
        if let Some(eq) = equation(n) {
            let v = IvId(at);

            // Def edge: the LHS dimension bound to v fixes the position of
            // the defined array.
            let lhs_node = dg.data_node(eq.lhs);
            if state.in_component(lhs_node) {
                let pos = eq
                    .lhs_subs
                    .iter()
                    .position(|s| matches!(s, LhsSub::Var(iv) if *iv == v))?;
                if !assign(state, lhs_node, pos as u32) {
                    return None;
                }
            }

            // Read edges into this equation: labels using v fix the source
            // array's position.
            for &e in dg.graph.in_edge_list(n) {
                let edge = dg.graph.edge(e);
                let src = dg.graph.edge_source(e);
                if edge.kind != EdgeKind::Read || state.is_deleted(e) || !state.in_component(src) {
                    continue;
                }
                let mut pos_for_v: Option<usize> = None;
                for (d, l) in edge.labels.iter().enumerate() {
                    if l.iv == Some(v) && pos_for_v.replace(d).is_some() {
                        // v used at two positions of the same reference.
                        return None;
                    }
                }
                if let Some(d) = pos_for_v {
                    if !assign(state, src, d as u32) {
                        return None;
                    }
                }
            }
        } else {
            // Data node with a known position: every in-component reference
            // at that position must be `I` / `I - constant` over a single
            // index variable of the target equation; every in-component
            // definition must bind a variable there.
            let d = at as usize;
            for &e in dg.graph.out_edge_list(n) {
                let edge = dg.graph.edge(e);
                let tgt = dg.graph.edge_target(e);
                if edge.kind != EdgeKind::Read || state.is_deleted(e) || !state.in_component(tgt) {
                    continue;
                }
                let l = edge.labels.get(d)?;
                match l.form {
                    SubscriptForm::Identity | SubscriptForm::OffsetBack => {
                        let v = l.iv.expect("identity/offset labels carry an iv");
                        if !assign(state, tgt, v.0) {
                            return None;
                        }
                    }
                    // `I + constant`, general affine, dynamic, or constant:
                    // the paper's step-3 verification fails.
                    SubscriptForm::Other | SubscriptForm::Constant => return None,
                }
            }
            for &e in dg.graph.in_edge_list(n) {
                let src = dg.graph.edge_source(e);
                if dg.graph.edge(e).kind != EdgeKind::Def
                    || state.is_deleted(e)
                    || !state.in_component(src)
                {
                    continue;
                }
                let Some(eq) = equation(src) else { continue };
                match eq.lhs_subs.get(d) {
                    Some(LhsSub::Var(v)) => {
                        if !assign(state, src, v.0) {
                            return None;
                        }
                    }
                    // A constant plane at the scheduled dimension inside the
                    // recursion: not schedulable in this dimension.
                    _ => return None,
                }
            }
        }
    }

    // Every node of the component must participate in the dimension; the
    // matched variables and positions must be unscheduled, and all equation
    // loops must range over provably identical subranges.
    let seed = &equation(seed_eq_node).expect("seeds are equations").ivs[seed_iv];
    let mut m = DimMatch {
        eqs: Vec::new(),
        data: Vec::new(),
        deletable: Vec::new(),
        name: seed.name.to_string(),
        subrange: seed.subrange,
    };
    for &n in comp {
        let at = state.matched.get(n)?;
        if let Some(eq) = equation(n) {
            let v = IvId(at);
            let sr = eq.ivs[v].subrange;
            if state.is_eq_scheduled(n, v)
                || (sr != m.subrange
                    && !module.subranges[sr].same_bounds(&module.subranges[m.subrange]))
            {
                return None;
            }
            m.eqs.push((n, v));
        } else {
            if state.is_data_scheduled(n, at as usize) {
                return None;
            }
            m.data.push((n, at as usize));
        }
    }

    // Collect the deletable `I - constant` edges (step 4): in-component read
    // edges whose label at the source's matched position is OffsetBack.
    for &(src, d) in &m.data {
        for &e in dg.graph.out_edge_list(src) {
            let edge = dg.graph.edge(e);
            if edge.kind == EdgeKind::Read
                && !state.is_deleted(e)
                && state.in_component(dg.graph.edge_target(e))
                && edge.labels[d].form == SubscriptForm::OffsetBack
            {
                m.deletable.push(e);
            }
        }
    }
    Some(m)
}

/// Record `node ↦ value` (an equation's index variable or a data node's
/// position, as a raw index) and queue the node; `false` when it conflicts
/// with what the node was assigned before.
fn assign(state: &mut SchedState, node: NodeId, value: u32) -> bool {
    match state.matched.get(node) {
        Some(existing) => existing == value,
        None => {
            state.matched.set(node, value);
            state.work.push(node);
            true
        }
    }
}
