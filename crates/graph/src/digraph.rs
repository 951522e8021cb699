//! Adjacency-list directed multigraph.

use ps_support::new_index_type;

new_index_type! {
    /// Node handle within a [`DiGraph`].
    pub struct NodeId; "n"
}
new_index_type! {
    /// Edge handle within a [`DiGraph`].
    pub struct EdgeId; "e"
}

#[derive(Clone, Debug)]
struct NodeData<N> {
    weight: N,
    /// Outgoing edge ids, in insertion order.
    out_edges: Vec<EdgeId>,
    /// Incoming edge ids, in insertion order.
    in_edges: Vec<EdgeId>,
}

#[derive(Clone, Debug)]
struct EdgeData<E> {
    weight: E,
    source: NodeId,
    target: NodeId,
}

/// A directed multigraph. Parallel edges and self-loops are allowed (the
/// dependency graph for a recursive equation has several parallel `A → eq`
/// edges, one per array reference).
#[derive(Clone, Debug)]
pub struct DiGraph<N, E> {
    nodes: Vec<NodeData<N>>,
    edges: Vec<EdgeData<E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        DiGraph::new()
    }
}

impl<N, E> DiGraph<N, E> {
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            weight,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        });
        id
    }

    /// Add an edge `source → target`.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(source.0 < self.nodes.len() as u32, "source out of bounds");
        assert!(target.0 < self.nodes.len() as u32, "target out of bounds");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            weight,
            source,
            target,
        });
        self.nodes[source.0 as usize].out_edges.push(id);
        self.nodes[target.0 as usize].in_edges.push(id);
        id
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0 as usize].weight
    }

    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edges[id.0 as usize].weight
    }

    pub fn edge_source(&self, id: EdgeId) -> NodeId {
        self.edges[id.0 as usize].source
    }

    pub fn edge_target(&self, id: EdgeId) -> NodeId {
        self.edges[id.0 as usize].target
    }

    /// `(source, target)` endpoints of an edge.
    pub fn edge_endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[id.0 as usize];
        (e.source, e.target)
    }

    /// Iterate all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + 'static {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + 'static {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Every outgoing edge of `node`, in insertion order. Callers that
    /// count only some edges filter it themselves (the SCC routine's
    /// predicate, the scheduler's deletion mask).
    pub fn out_edge_list(&self, node: NodeId) -> &[EdgeId] {
        &self.nodes[node.0 as usize].out_edges
    }

    /// Every incoming edge of `node`, in insertion order.
    pub fn in_edge_list(&self, node: NodeId) -> &[EdgeId] {
        &self.nodes[node.0 as usize].in_edges
    }

    /// Successor nodes (with multiplicity).
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edge_list(node)
            .iter()
            .map(|&e| self.edge_target(e))
    }

    /// Predecessor nodes (with multiplicity).
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edge_list(node).iter().map(|&e| self.edge_source(e))
    }

    /// All edges `source → target`.
    pub fn edges_connecting(&self, source: NodeId, target: NodeId) -> Vec<EdgeId> {
        let out = self.out_edge_list(source).iter().copied();
        out.filter(|&e| self.edge_target(e) == target).collect()
    }

    /// Map node weights, preserving structure.
    pub fn map_nodes<M>(&self, mut f: impl FnMut(NodeId, &N) -> M) -> DiGraph<M, E>
    where
        E: Clone,
    {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeData {
                    weight: f(NodeId(i as u32), &n.weight),
                    out_edges: n.out_edges.clone(),
                    in_edges: n.in_edges.clone(),
                })
                .collect(),
            edges: self.edges.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, Vec<NodeId>) {
        // a → b → d, a → c → d
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 0);
        g.add_edge(a, c, 1);
        g.add_edge(b, d, 2);
        g.add_edge(c, d, 3);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn counts_and_weights() {
        let (g, ns) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(ns[0]), "a");
    }

    #[test]
    fn successors_and_predecessors() {
        let (g, ns) = diamond();
        let succ: Vec<_> = g.successors(ns[0]).collect();
        assert_eq!(succ, vec![ns[1], ns[2]]);
        let pred: Vec<_> = g.predecessors(ns[3]).collect();
        assert_eq!(pred, vec![ns[1], ns[2]]);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g: DiGraph<(), &str> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, "one");
        g.add_edge(a, b, "two");
        g.add_edge(a, a, "loop");
        assert_eq!(g.edges_connecting(a, b).len(), 2);
        assert_eq!(g.edges_connecting(a, a).len(), 1);
        assert_eq!(g.successors(a).count(), 3);
    }

    #[test]
    fn map_nodes_preserves_structure() {
        let (g, _) = diamond();
        let mapped = g.map_nodes(|id, w| format!("{id:?}:{w}"));
        assert_eq!(mapped.node_count(), 4);
        assert_eq!(mapped.node(NodeId(0)), "n0:a");
        assert_eq!(mapped.edge_count(), 4);
    }

    #[test]
    fn edge_endpoints_reported() {
        let (g, ns) = diamond();
        let e = g.edges_connecting(ns[1], ns[3])[0];
        assert_eq!(g.edge_endpoints(e), (ns[1], ns[3]));
        assert_eq!(*g.edge(e), 2);
    }
}
