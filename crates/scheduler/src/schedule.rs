//! Schedule-Graph / Schedule-Component (paper Section 3.3).

use crate::dims::{try_match, DimMatch};
use crate::flowchart::{Descriptor, Flowchart, LoopDescriptor, LoopKind};
use crate::memory::MemoryPlan;
use crate::virtualdim;
use ps_depgraph::{DepGraph, DepNodeKind};
use ps_graph::{EdgeId, NodeId, SccScratch, Sccs};
use ps_lang::hir::HirModule;
use ps_lang::IvId;

/// How Schedule-Component picks among candidate dimensions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PickPolicy {
    /// The paper's behaviour: first unscheduled dimension in declaration
    /// order (equation nodes in id order, index variables in LHS order).
    #[default]
    DeclarationOrder,
    /// Ablation: among verifiable candidates, prefer one that deletes no
    /// edges (yielding an outer DOALL) before falling back.
    PreferParallel,
}

/// Options for [`schedule_module`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleOptions {
    pub pick: PickPolicy,
}

/// Scheduling failure: the algorithm of the paper signals an error when a
/// multi-node component has no schedulable dimension left (step 2a).
#[derive(Clone, Debug)]
pub struct ScheduleError {
    pub message: String,
    /// Node names of the offending component.
    pub component: Vec<String>,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (component: {})",
            self.message,
            self.component.join(", ")
        )
    }
}

impl std::error::Error for ScheduleError {}

/// The output of the scheduler.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    pub flowchart: Flowchart,
    /// Virtual-dimension memory plan (Section 3.4).
    pub memory: MemoryPlan,
    /// Top-level MSCCs in scheduling order, as node ids: the rows of the
    /// Figure-5 table. [`ScheduleResult::component_rows`] pairs them with
    /// their flowcharts; `render` turns both into text when asked.
    pub components: Sccs,
    /// How many top-level flowchart items components `0..=i` produced.
    component_item_ends: Vec<u32>,
}

impl ScheduleResult {
    /// Each top-level MSCC with the flowchart Schedule-Component returned
    /// for it (empty — "null" — for a data node).
    pub fn component_rows(&self) -> impl Iterator<Item = (&[NodeId], &[Descriptor])> + '_ {
        let items = &self.flowchart.items;
        let mut start = 0;
        let ends = self.component_item_ends.iter().map(|&end| end as usize);
        self.components.iter().zip(ends).map(move |(nodes, end)| {
            let row = (nodes, &items[start..end]);
            start = end;
            row
        })
    }
}

/// A per-node table that empties in O(1): an entry counts only while its
/// stamp is the current epoch.
pub(crate) struct Stamped {
    epoch: u32,
    cells: Vec<(u32, u32)>,
}

impl Stamped {
    fn new(nodes: usize) -> Stamped {
        Stamped {
            epoch: 1,
            cells: vec![(0, 0); nodes],
        }
    }

    pub(crate) fn clear(&mut self) {
        self.epoch += 1;
    }

    pub(crate) fn get(&self, node: NodeId) -> Option<u32> {
        let (stamp, value) = self.cells[node.0 as usize];
        (stamp == self.epoch).then_some(value)
    }

    pub(crate) fn set(&mut self, node: NodeId, value: u32) {
        self.cells[node.0 as usize] = (self.epoch, value);
    }
}

/// Scheduling state shared with the dimension matcher and the window
/// analysis. The dependence graph is borrowed and never modified: deleting
/// an edge (step 4) sets its bit in a mask here.
pub struct SchedState<'a> {
    pub dg: &'a DepGraph,
    /// Per edge id: deleted while scheduling an enclosing dimension.
    deleted: Vec<bool>,
    /// `scheduled[dim_base[n] + k]`: dimension `k` of node `n` is scheduled
    /// (`k` an equation's index variable, or a data node's position).
    dim_base: Vec<u32>,
    scheduled: Vec<bool>,
    /// Membership in the component Schedule-Component is working on.
    comp: Stamped,
    /// The matcher's per-node assignment and worklist.
    pub(crate) matched: Stamped,
    pub(crate) work: Vec<NodeId>,
}

impl<'a> SchedState<'a> {
    fn new(dg: &'a DepGraph) -> SchedState<'a> {
        let nodes = dg.graph.node_count();
        let mut dim_base = Vec::with_capacity(nodes + 1);
        let mut dims = 0;
        for n in dg.graph.node_ids() {
            dim_base.push(dims);
            dims += dg.graph.node(n).dim_subranges.len() as u32;
        }
        dim_base.push(dims);
        SchedState {
            dg,
            deleted: vec![false; dg.graph.edge_count()],
            dim_base,
            scheduled: vec![false; dims as usize],
            comp: Stamped::new(nodes),
            matched: Stamped::new(nodes),
            work: Vec::new(),
        }
    }

    fn dim_slot(&self, node: NodeId, dim: usize) -> usize {
        let slot = self.dim_base[node.0 as usize] as usize + dim;
        debug_assert!(slot < self.dim_base[node.0 as usize + 1] as usize);
        slot
    }

    pub fn is_eq_scheduled(&self, node: NodeId, iv: IvId) -> bool {
        self.scheduled[self.dim_slot(node, iv.0 as usize)]
    }

    pub fn is_data_scheduled(&self, node: NodeId, dim: usize) -> bool {
        self.scheduled[self.dim_slot(node, dim)]
    }

    fn mark_scheduled(&mut self, node: NodeId, dim: usize) {
        let slot = self.dim_slot(node, dim);
        self.scheduled[slot] = true;
    }

    /// Has Schedule-Component deleted this edge (for an enclosing loop)?
    pub fn is_deleted(&self, edge: EdgeId) -> bool {
        self.deleted[edge.0 as usize]
    }

    /// Is `node` in the component being scheduled?
    pub fn in_component(&self, node: NodeId) -> bool {
        self.comp.get(node).is_some()
    }
}

struct Scheduler<'a> {
    module: &'a HirModule,
    state: SchedState<'a>,
    scc: SccScratch,
    memory: MemoryPlan,
    options: ScheduleOptions,
}

/// Run the scheduling algorithm over a module's dependency graph.
pub fn schedule_module(
    module: &HirModule,
    dg: &DepGraph,
    options: ScheduleOptions,
) -> Result<ScheduleResult, ScheduleError> {
    let mut sched = Scheduler {
        module,
        state: SchedState::new(dg),
        scc: SccScratch::default(),
        memory: MemoryPlan::new(),
        options,
    };

    // Top level of Schedule-Graph, remembering which items each component
    // produced (the Figure-5 table).
    let all: Vec<NodeId> = dg.graph.node_ids().collect();
    let components = sched.decompose(&all);
    let mut flowchart = Flowchart::new();
    let mut component_item_ends = Vec::with_capacity(components.len());
    for comp in components.iter() {
        flowchart.concat(sched.schedule_component(comp)?);
        component_item_ends.push(flowchart.items.len() as u32);
    }

    Ok(ScheduleResult {
        flowchart,
        memory: sched.memory,
        components,
        component_item_ends,
    })
}

impl<'a> Scheduler<'a> {
    /// MSCCs of the subgraph induced by `nodes`, minus the deleted edges.
    fn decompose(&mut self, nodes: &[NodeId]) -> Sccs {
        let state = &self.state;
        self.scc
            .components(&state.dg.graph, nodes, |e| !state.is_deleted(e))
    }

    /// Schedule-Graph: MSCC decomposition in topological order. Scheduling
    /// deletes edges but never nodes, so the decomposition stays valid
    /// while its components are scheduled.
    fn schedule_graph(&mut self, nodes: &[NodeId]) -> Result<Flowchart, ScheduleError> {
        if nodes.len() == 1 {
            return self.schedule_component(nodes); // its own component
        }
        let mut fc = Flowchart::new();
        for comp in self.decompose(nodes).iter() {
            fc.concat(self.schedule_component(comp)?);
        }
        Ok(fc)
    }

    /// Schedule-Component: steps 1–8 of the paper.
    fn schedule_component(&mut self, comp: &[NodeId]) -> Result<Flowchart, ScheduleError> {
        // Step 1: a single data node schedules to null.
        if comp.len() == 1 && self.state.dg.is_data(comp[0]) {
            return Ok(Flowchart::new());
        }

        // In id order: the declaration order of the seeds, and the order
        // the decomposition of the loop body takes its DFS roots in.
        let mut nodes = comp.to_vec();
        nodes.sort_unstable();
        self.state.comp.clear();
        for &n in &nodes {
            self.state.comp.set(n, 0);
        }
        let candidates = self.candidates(&nodes);

        if candidates.is_empty() {
            // Step 2a/2b: no dimensions left.
            if comp.len() == 1 {
                if let DepNodeKind::Equation(eq) = self.state.dg.node_kind(comp[0]) {
                    return Ok(Flowchart {
                        items: vec![Descriptor::Equation(eq)],
                    });
                }
            }
            return Err(self.not_schedulable(comp, "no unscheduled dimension is available"));
        }

        // Steps 2–3: try candidates until one verifies. Prefer-parallel
        // keeps looking for one that deletes nothing (an outer DOALL) and
        // falls back to the first that verified.
        let mut chosen: Option<DimMatch> = None;
        for (seed_node, seed_iv) in candidates {
            let Some(m) = try_match(self.module, &mut self.state, &nodes, seed_node, seed_iv)
            else {
                continue;
            };
            let parallel = m.deletable.is_empty();
            if chosen.is_none() || parallel {
                chosen = Some(m);
            }
            if self.options.pick == PickPolicy::DeclarationOrder || parallel {
                break;
            }
        }
        let Some(m) = chosen else {
            return Err(self.not_schedulable(
                comp,
                "no dimension appears in a consistent position with only \
                 `I` / `I - constant` subscripts",
            ));
        };

        // Section 3.4: virtual-dimension analysis runs while the component
        // is being scheduled (it looks at every reference, including edges
        // deleted for outer dimensions).
        virtualdim::analyze(self.module, &self.state, &m, &mut self.memory);

        // Step 4: delete the `I - constant` edges.
        for &e in &m.deletable {
            self.state.deleted[e.0 as usize] = true;
        }
        // Step 6: iterative if edges were deleted, parallel otherwise.
        let kind = if m.deletable.is_empty() {
            LoopKind::Doall
        } else {
            LoopKind::Do
        };

        // Step 5: mark the dimension scheduled.
        let mut bindings = Vec::with_capacity(m.eqs.len());
        for &(node, iv) in &m.eqs {
            self.state.mark_scheduled(node, iv.0 as usize);
            if let DepNodeKind::Equation(eq) = self.state.dg.node_kind(node) {
                bindings.push((eq, iv));
            }
        }
        bindings.sort_by_key(|(eq, _)| *eq);
        for &(node, dim) in &m.data {
            self.state.mark_scheduled(node, dim);
        }

        // Steps 7–8: recurse on the subgraph and wrap in the loop.
        let body = self.schedule_graph(&nodes)?;
        Ok(Flowchart {
            items: vec![Descriptor::Loop(LoopDescriptor {
                kind,
                subrange: m.subrange,
                name: m.name,
                bindings,
                body: body.items,
            })],
        })
    }

    /// Candidate seeds: unscheduled index variables of the component's
    /// equation nodes (`nodes` in id order), in declaration order.
    fn candidates(&self, nodes: &[NodeId]) -> Vec<(NodeId, IvId)> {
        let mut out = Vec::new();
        for &n in nodes {
            if let DepNodeKind::Equation(eq) = self.state.dg.node_kind(n) {
                for (iv, _) in self.module.equations[eq].ivs.iter_enumerated() {
                    if !self.state.is_eq_scheduled(n, iv) {
                        out.push((n, iv));
                    }
                }
            }
        }
        out
    }

    fn not_schedulable(&self, comp: &[NodeId], reason: &str) -> ScheduleError {
        ScheduleError {
            message: format!("equations cannot be scheduled by this algorithm: {reason}"),
            component: comp
                .iter()
                .map(|&n| self.state.dg.graph.node(n).name.clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_depgraph::build_depgraph;
    use ps_lang::frontend;

    pub(crate) use crate::testprogs::RELAXATION_V1;

    pub(crate) use crate::testprogs::RELAXATION_V2;

    fn run(src: &str) -> (ps_lang::HirModule, ScheduleResult) {
        let m = frontend(src).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        (m, r)
    }

    fn compact(m: &ps_lang::HirModule, fc: &Flowchart) -> String {
        fc.compact(&|e| m.equations[e].label.clone())
    }

    #[test]
    fn figure6_schedule_for_v1() {
        let (m, r) = run(RELAXATION_V1);
        assert_eq!(
            compact(&m, &r.flowchart),
            "DOALL I (DOALL J (eq.1)); DO K (DOALL I (DOALL J (eq.3))); \
             DOALL I (DOALL J (eq.2))"
        );
        assert_eq!(r.flowchart.loop_counts(), (1, 6));
    }

    #[test]
    fn figure7_schedule_for_v2() {
        let (m, r) = run(RELAXATION_V2);
        assert_eq!(
            compact(&m, &r.flowchart),
            "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); \
             DOALL I (DOALL J (eq.2))"
        );
    }

    #[test]
    fn figure5_component_table() {
        let m = frontend(RELAXATION_V1).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        // Seven MSCCs (paper Figure 5).
        assert_eq!(r.components.len(), 7);
        let components = crate::render::component_rows(&m, &dg, &r);
        let names: Vec<Vec<String>> = components.iter().map(|c| c.nodes.clone()).collect();
        // The multi-node component is exactly {A, eq.3}.
        let multi: Vec<_> = names.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(multi.len(), 1);
        let mut ab = multi[0].clone();
        ab.sort();
        assert_eq!(ab, vec!["A".to_string(), "eq.3".to_string()]);
        // Data-only components schedule to null.
        for c in &components {
            if c.nodes.len() == 1 && !c.nodes[0].starts_with("eq.") {
                assert_eq!(c.flowchart, "null");
            }
        }
        // eq.1 must come before the recursive component, which precedes eq.2.
        let pos = |label: &str| {
            components
                .iter()
                .position(|c| c.flowchart.contains(label))
                .unwrap()
        };
        assert!(pos("eq.1") < pos("eq.3"));
        assert!(pos("eq.3") < pos("eq.2"));
    }

    #[test]
    fn virtual_window_for_v1() {
        let (m, r) = run(RELAXATION_V1);
        let a = m.data_by_name("A").unwrap();
        // Dimension K of A is virtual with window 2; I and J physical.
        assert_eq!(r.memory.window(a, 0), Some(2));
        assert_eq!(r.memory.window(a, 1), None);
        assert_eq!(r.memory.window(a, 2), None);
    }

    #[test]
    fn virtual_window_for_v2_matches_paper() {
        // "The virtual dimension analysis gives the same result as in the
        //  previous version: the first dimension of A is virtual with window
        //  of two elements."
        let (m, r) = run(RELAXATION_V2);
        let a = m.data_by_name("A").unwrap();
        assert_eq!(r.memory.window(a, 0), Some(2));
        assert_eq!(r.memory.window(a, 1), None, "I has I+1 references");
        assert_eq!(r.memory.window(a, 2), None, "J has J+1 references");
    }

    #[test]
    fn footnote_inconsistent_positions_rejected() {
        // A[I,J] = A[I,J-1] + A[J,I]: I and J are not in consistent
        // positions (paper footnote 2) — and no other dimension works.
        let m = frontend(
            "T: module (n: int; init: array[I] of real): [y: real];
             type I, J = 1 .. n;
             var a: array [I, J] of real;
             define
                a[I, J] = if (I = 1) or (J = 1) then 0.5
                          else a[I, J-1] + a[J, I];
                y = a[n, n];
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let err = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap_err();
        assert!(err.component.contains(&"a".to_string()), "{err}");
    }

    #[test]
    fn simple_recurrence_is_iterative() {
        let m = frontend(
            "T: module (n: int): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = 1.0;
                a[K] = a[K-1] * 2.0;
                y = a[n];
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let s = r.flowchart.compact(&|e| m.equations[e].label.clone());
        assert_eq!(s, "eq.1; DO K (eq.2); eq.3");
        // Window 2 on the only dimension.
        let a = m.data_by_name("a").unwrap();
        assert_eq!(r.memory.window(a, 0), Some(2));
    }

    #[test]
    fn independent_equations_all_parallel() {
        let m = frontend(
            "T: module (n: int; b: array[1..n] of real): [y: real];
             type I = 1 .. n;
             var a, c: array [I] of real;
             define
                a[I] = b[I] * 2.0;
                c[I] = b[I] + 1.0;
                y = a[1] + c[1];
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let (do_n, doall_n) = r.flowchart.loop_counts();
        assert_eq!(do_n, 0);
        assert_eq!(doall_n, 2);
    }

    #[test]
    fn offset_two_gives_window_three() {
        let m = frontend(
            "T: module (n: int): [y: real];
             type K = 3 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = 0.0;
                a[2] = 1.0;
                a[K] = a[K-1] + a[K-2];
                y = a[n];
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let a = m.data_by_name("a").unwrap();
        assert_eq!(r.memory.window(a, 0), Some(3), "fibonacci needs 3 planes");
    }

    #[test]
    fn result_read_not_at_upper_bound_blocks_window() {
        // y reads a[1] (not the upper bound) from outside the component:
        // rule 2 fails, dimension must stay physical.
        let m = frontend(
            "T: module (n: int): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = 1.0;
                a[K] = a[K-1] * 2.0;
                y = a[1];
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let a = m.data_by_name("a").unwrap();
        assert_eq!(r.memory.window(a, 0), None);
    }

    #[test]
    fn scalar_cycle_not_schedulable() {
        // Mutually recursive scalars (via arrays) cannot be scheduled.
        let m = frontend(
            "T: module (n: int): [y: real];
             type I = 1 .. n;
             var a: array [I] of real; s: real;
             define
                s = a[n];
                a[I] = s + 1.0;
                y = s;
             end T;",
        )
        .unwrap();
        let dg = build_depgraph(&m);
        let err = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap_err();
        assert!(err.message.contains("cannot be scheduled"));
    }
}
