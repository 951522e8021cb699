//! Strongly connected components (iterative Tarjan) in scheduling order.
//!
//! `Schedule-Graph` step 1 is "Find the MSCC's of the graph", and the
//! scheduler repeats it on every component after each loop level deletes
//! edges. One routine, [`SccScratch::components`], serves every level: it
//! decomposes the subgraph induced by a node slice, counting only the edges
//! an activity predicate accepts, in time proportional to those nodes and
//! their out-edges. The per-node state lives in a scratch the caller keeps
//! and is reset only where a call touched it, so the size of the rest of
//! the graph never enters.
//!
//! Components come out in *the* topological order of the condensation that
//! breaks ties by the smallest node id in each component (Kahn's algorithm
//! over a min-heap): producers precede consumers, independent components
//! appear in node-insertion (declaration) order, and the order does not
//! depend on how the DFS happened to walk. Inside a component, nodes are in
//! DFS discovery order, roots taken in slice order.

use crate::digraph::{DiGraph, EdgeId, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Consecutive groups of items in one allocation.
#[derive(Clone, Debug)]
struct Groups<T> {
    items: Vec<T>,
    /// `ends[i]` is where group `i` ends in `items` (exclusive).
    ends: Vec<u32>,
}

impl<T> Default for Groups<T> {
    fn default() -> Self {
        Groups {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T> Groups<T> {
    fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &[T] {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.items[start..self.ends[i] as usize]
    }

    /// End the group that the items pushed since the last call form.
    fn close(&mut self) {
        self.ends.push(self.items.len() as u32);
    }
}

/// An SCC decomposition: the components' node lists in scheduling order (if
/// an edge runs from component X to component Y ≠ X, X comes first).
#[derive(Clone, Debug)]
pub struct Sccs(Groups<NodeId>);

impl Sccs {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// The components in order.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.len()).map(|i| self.0.get(i))
    }
}

/// `index` of a node outside the slice being decomposed (every node,
/// between calls).
const OUTSIDE: u32 = u32::MAX;
/// `index` of a slice node the DFS has not reached yet.
const UNVISITED: u32 = u32::MAX - 1;
/// `comp` of a visited node whose component is still on Tarjan's stack.
const OPEN: u32 = u32::MAX;

/// Working storage of [`SccScratch::components`]. Keep one per graph and
/// reuse it: the per-node vectors are sized once and a call resets only
/// the entries of its own slice.
#[derive(Default)]
pub struct SccScratch {
    /// Per node: `OUTSIDE`, `UNVISITED`, or the DFS index.
    index: Vec<u32>,
    lowlink: Vec<u32>,
    /// Per slice node: its component in closing order, `OPEN` until closed.
    comp: Vec<u32>,
    next_index: u32,
    stack: Vec<NodeId>,
    /// DFS frames: a node and a cursor into its out-edge list.
    frames: Vec<(NodeId, u32)>,
    /// Components in the order Tarjan closes them (consumers first).
    closed: Groups<NodeId>,
    /// Per closed component, the component at the far end of each edge
    /// leaving it — all closed earlier, so the lists are final when built.
    succ: Groups<u32>,
    in_deg: Vec<u32>,
    min_id: Vec<u32>,
    ready: BinaryHeap<Reverse<(u32, u32)>>,
}

impl SccScratch {
    /// Decompose the subgraph of `graph` induced by `nodes`, over the edges
    /// for which `active` holds. Nodes outside the slice belong to no
    /// component and edges to them are ignored; `active` is asked about an
    /// edge at most twice and must answer the same both times.
    pub fn components<N, E>(
        &mut self,
        graph: &DiGraph<N, E>,
        nodes: &[NodeId],
        mut active: impl FnMut(EdgeId) -> bool,
    ) -> Sccs {
        if self.index.len() < graph.node_count() {
            self.index.resize(graph.node_count(), OUTSIDE);
            self.lowlink.resize(graph.node_count(), 0);
            self.comp.resize(graph.node_count(), OPEN);
        }
        for &v in nodes {
            self.index[v.0 as usize] = UNVISITED;
            self.comp[v.0 as usize] = OPEN;
        }
        self.next_index = 0;
        self.closed.clear();
        self.succ.clear();
        self.in_deg.clear();
        self.min_id.clear();

        for &root in nodes {
            if self.index[root.0 as usize] != UNVISITED {
                continue;
            }
            self.enter(root);
            while let Some(&(v, cursor)) = self.frames.last() {
                let vi = v.0 as usize;
                if let Some(&e) = graph.out_edge_list(v).get(cursor as usize) {
                    self.frames.last_mut().expect("frame just read").1 += 1;
                    let w = graph.edge_target(e);
                    let wi = w.0 as usize;
                    if self.index[wi] == OUTSIDE || !active(e) {
                        continue;
                    }
                    if self.index[wi] == UNVISITED {
                        self.enter(w);
                    } else if self.comp[wi] == OPEN {
                        self.lowlink[vi] = self.lowlink[vi].min(self.index[wi]);
                    }
                } else {
                    // v is finished: fold its lowlink into the parent, and
                    // close a component if v is its root.
                    self.frames.pop();
                    if let Some(&(parent, _)) = self.frames.last() {
                        let pi = parent.0 as usize;
                        self.lowlink[pi] = self.lowlink[pi].min(self.lowlink[vi]);
                    }
                    if self.lowlink[vi] == self.index[vi] {
                        self.close(graph, v, &mut active);
                    }
                }
            }
        }

        // Kahn over the condensation, smallest member id first among the
        // ready components.
        let mut ordered = Groups {
            items: Vec::with_capacity(self.closed.items.len()),
            ends: Vec::with_capacity(self.closed.len()),
        };
        self.ready.clear();
        for c in 0..self.closed.len() {
            if self.in_deg[c] == 0 {
                self.ready.push(Reverse((self.min_id[c], c as u32)));
            }
        }
        while let Some(Reverse((_, c))) = self.ready.pop() {
            ordered.items.extend_from_slice(self.closed.get(c as usize));
            ordered.close();
            for &s in self.succ.get(c as usize) {
                self.in_deg[s as usize] -= 1;
                if self.in_deg[s as usize] == 0 {
                    self.ready.push(Reverse((self.min_id[s as usize], s)));
                }
            }
        }
        debug_assert_eq!(ordered.len(), self.closed.len(), "condensation is acyclic");

        for &v in nodes {
            self.index[v.0 as usize] = OUTSIDE;
        }
        Sccs(ordered)
    }

    /// First visit of `v`: number it and open a DFS frame.
    fn enter(&mut self, v: NodeId) {
        self.index[v.0 as usize] = self.next_index;
        self.lowlink[v.0 as usize] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.frames.push((v, 0));
    }

    /// `root` is the root of a finished component: move its members off the
    /// stack and record the edges leaving it. Everything an active edge of
    /// a member reaches is in this component or in one closed before it.
    fn close<N, E>(
        &mut self,
        graph: &DiGraph<N, E>,
        root: NodeId,
        active: &mut impl FnMut(EdgeId) -> bool,
    ) {
        let c = self.closed.len() as u32;
        let at = self.stack.iter().rposition(|&m| m == root);
        let first = self.closed.items.len();
        self.closed
            .items
            .extend(self.stack.drain(at.expect("a root is on the stack")..));
        self.closed.close();
        let members = &self.closed.items[first..];
        for &m in members {
            self.comp[m.0 as usize] = c;
        }
        self.min_id
            .push(members.iter().map(|m| m.0).min().expect("non-empty"));
        self.in_deg.push(0);
        for &m in members {
            for &e in graph.out_edge_list(m) {
                let wi = graph.edge_target(e).0 as usize;
                if self.index[wi] == OUTSIDE || self.comp[wi] == c || !active(e) {
                    continue;
                }
                self.succ.items.push(self.comp[wi]);
                self.in_deg[self.comp[wi] as usize] += 1;
            }
        }
        self.succ.close();
    }
}

/// SCCs of the whole graph over its active edges.
pub fn strongly_connected_components<N, E>(graph: &DiGraph<N, E>) -> Sccs {
    let nodes: Vec<NodeId> = graph.node_ids().collect();
    SccScratch::default().components(graph, &nodes, |e| graph.is_edge_active(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a → b → c → a (cycle), c → d, d → e, e → d (cycle)
    fn two_cycles() -> (DiGraph<&'static str, ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ns: Vec<_> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|&w| g.add_node(w))
            .collect();
        g.add_edge(ns[0], ns[1], ());
        g.add_edge(ns[1], ns[2], ());
        g.add_edge(ns[2], ns[0], ());
        g.add_edge(ns[2], ns[3], ());
        g.add_edge(ns[3], ns[4], ());
        g.add_edge(ns[4], ns[3], ());
        (g, ns)
    }

    /// Position of the component holding `n`, `None` when it is in none.
    fn component_of(sccs: &Sccs, n: NodeId) -> Option<usize> {
        sccs.iter().position(|c| c.contains(&n))
    }

    fn same_component(sccs: &Sccs, a: NodeId, b: NodeId) -> bool {
        component_of(sccs, a) == component_of(sccs, b)
    }

    #[test]
    fn finds_both_cycles() {
        let (g, ns) = two_cycles();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 2);
        assert!(same_component(&sccs, ns[0], ns[2]));
        assert!(same_component(&sccs, ns[3], ns[4]));
        assert!(!same_component(&sccs, ns[0], ns[3]));
    }

    #[test]
    fn topological_order_of_components() {
        let (g, ns) = two_cycles();
        let sccs = strongly_connected_components(&g);
        // {a,b,c} feeds {d,e}, so it must come first.
        assert!(
            component_of(&sccs, ns[0]) < component_of(&sccs, ns[3]),
            "producer component must precede consumer"
        );
    }

    #[test]
    fn singleton_components_in_dag() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let sccs = strongly_connected_components(&g);
        let order: Vec<&[NodeId]> = sccs.iter().collect();
        assert_eq!(order, [&[a][..], &[b][..], &[c][..]]);
    }

    #[test]
    fn deactivated_edges_break_cycles() {
        let (mut g, ns) = two_cycles();
        // Break the a→b→c→a cycle.
        let e = g.edges_connecting(ns[2], ns[0])[0];
        g.deactivate_edge(e);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 4); // a, b, c singletons + {d,e}
        assert!(!same_component(&sccs, ns[0], ns[2]));
        assert!(same_component(&sccs, ns[3], ns[4]));
    }

    #[test]
    fn filtered_nodes_excluded() {
        let (g, ns) = two_cycles();
        // Leave c out of the slice: the first cycle disappears.
        let slice = [ns[0], ns[1], ns[3], ns[4]];
        let mut scratch = SccScratch::default();
        let sccs = scratch.components(&g, &slice, |_| true);
        assert!(!same_component(&sccs, ns[0], ns[1]));
        assert!(same_component(&sccs, ns[3], ns[4]));
        assert_eq!(component_of(&sccs, ns[2]), None, "c is in no component");
        // The scratch is clean again: the whole graph decomposes as ever.
        let all = scratch.components(&g, &ns, |_| true);
        assert_eq!(all.len(), 2);
        assert!(same_component(&all, ns[0], ns[2]));
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, a, ());
        g.add_edge(a, b, ());
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs.iter().next(), Some(&[a][..]));
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<(), ()> = DiGraph::new();
        let sccs = strongly_connected_components(&g);
        assert!(sccs.is_empty());
    }

    #[test]
    fn large_cycle_does_not_overflow_stack() {
        // The iterative implementation must handle deep graphs.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let n = 200_000;
        let nodes: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], ());
        }
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs.iter().next().map(<[NodeId]>::len), Some(n));
    }
}
