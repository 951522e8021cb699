//! Node, edge, and label types for the dependency graph.

use ps_graph::{DiGraph, EdgeId, NodeId};
use ps_lang::{DataId, EqId, IvId, SubrangeId};
use ps_support::{FxHashMap, Symbol};

/// What a dependency-graph node represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepNodeKind {
    /// A data item (parameter, result, or local variable).
    Data(DataId),
    /// One field of a record variable (the paper's hierarchical structure:
    /// fields are nodes of their own, related to the record node).
    Field(DataId, usize),
    /// An equation.
    Equation(EqId),
}

/// One dimension of an equation node: the bound index variable and its
/// subrange. Data-node dimensions are just the declared subranges, kept on
/// the `HirModule`; equation dimensions need the iv ↔ subrange pairing.
#[derive(Clone, Copy, Debug)]
pub struct EqDim {
    pub iv: IvId,
    pub subrange: SubrangeId,
    pub name: Symbol,
}

/// A dependency-graph node with its per-dimension node labels.
#[derive(Clone, Debug)]
pub struct DepNode {
    pub kind: DepNodeKind,
    /// Node labels: for data nodes, the declared dimension subranges; for
    /// equation nodes, the subranges of the bound index variables.
    pub dim_subranges: Vec<SubrangeId>,
    /// Equation dimensions (empty for data nodes).
    pub eq_dims: Vec<EqDim>,
    /// Display name (`A`, `eq.3`).
    pub name: String,
}

/// The paper's Figure-2 "Subscript Expression Type".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubscriptForm {
    /// `I` — the identity reference.
    Identity,
    /// `I - constant` with positive offset: a *recursive* reference to an
    /// element produced `offset` iterations back. These are the edges
    /// Schedule-Component deletes (footnote 3 of the paper).
    OffsetBack,
    /// A parameter-affine constant subscript (`1`, `maxK`).
    Constant,
    /// Any other expression (`I + constant`, multi-variable affine,
    /// dynamic).
    Other,
}

/// Edge label for one dimension of the *source* node of a read edge
/// (Figure 2: position in target, subscript expression type, offset).
#[derive(Clone, Debug)]
pub struct DimLabel {
    /// The form of the subscript used at this source dimension.
    pub form: SubscriptForm,
    /// For `Identity`/`OffsetBack`/single-variable `Other` forms: the index
    /// variable of the *target equation* used here — the paper's "position
    /// in target of this source subscript".
    pub iv: Option<IvId>,
    /// Subscript = `iv + delta` when `iv` is set (`delta < 0` ⇔ OffsetBack).
    pub delta: i64,
    /// For `Constant` forms: does the subscript provably equal the declared
    /// upper bound of this dimension's subrange? (Virtual-dimension rule 2.)
    pub at_upper_bound: bool,
}

impl DimLabel {
    /// The paper's "offset amount" for `I - constant` labels.
    pub fn back_offset(&self) -> Option<i64> {
        (self.form == SubscriptForm::OffsetBack).then_some(-self.delta)
    }

    /// Render as the paper writes subscripts (`K-1`, `I`, `maxK`, `other`).
    pub fn render(&self, iv_name: impl Fn(IvId) -> String) -> String {
        match (self.form, self.iv) {
            (SubscriptForm::Identity, Some(iv)) => iv_name(iv),
            (SubscriptForm::OffsetBack, Some(iv)) => {
                format!("{}-{}", iv_name(iv), -self.delta)
            }
            (SubscriptForm::Other, Some(iv)) if self.delta > 0 => {
                format!("{}+{}", iv_name(iv), self.delta)
            }
            (SubscriptForm::Constant, _) => {
                if self.at_upper_bound {
                    "hi".to_string()
                } else {
                    "const".to_string()
                }
            }
            _ => "other".to_string(),
        }
    }
}

/// The kind of a dependency edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// RHS reference: `variable → equation`. Carries one [`DimLabel`] per
    /// source dimension.
    Read,
    /// Definition: `equation → variable`.
    Def,
    /// Subrange-bound dependence: `parameter → variable`.
    Bound,
    /// Record structure: `field → record` ("used to show the relationship
    /// between the fields of a record and the record itself").
    Hierarchical,
}

/// Edge payload.
#[derive(Clone, Debug)]
pub struct DepEdge {
    pub kind: EdgeKind,
    /// One label per source-node dimension (read edges only).
    pub labels: Vec<DimLabel>,
}

/// The dependency graph of one module.
#[derive(Clone, Debug)]
pub struct DepGraph {
    pub graph: DiGraph<DepNode, DepEdge>,
    data_nodes: FxHashMap<DataId, NodeId>,
    field_nodes: FxHashMap<(DataId, usize), NodeId>,
    eq_nodes: FxHashMap<EqId, NodeId>,
}

impl DepGraph {
    pub(crate) fn new() -> DepGraph {
        DepGraph {
            graph: DiGraph::new(),
            data_nodes: FxHashMap::default(),
            field_nodes: FxHashMap::default(),
            eq_nodes: FxHashMap::default(),
        }
    }

    pub(crate) fn insert_data(&mut self, id: DataId, node: DepNode) -> NodeId {
        let n = self.graph.add_node(node);
        self.data_nodes.insert(id, n);
        n
    }

    pub(crate) fn insert_field(&mut self, id: DataId, field: usize, node: DepNode) -> NodeId {
        let n = self.graph.add_node(node);
        self.field_nodes.insert((id, field), n);
        n
    }

    pub(crate) fn insert_eq(&mut self, id: EqId, node: DepNode) -> NodeId {
        let n = self.graph.add_node(node);
        self.eq_nodes.insert(id, n);
        n
    }

    /// Graph node for a data item.
    pub fn data_node(&self, id: DataId) -> NodeId {
        self.data_nodes[&id]
    }

    /// Graph node for an equation.
    pub fn eq_node(&self, id: EqId) -> NodeId {
        self.eq_nodes[&id]
    }

    /// Graph node for a record field.
    pub fn field_node(&self, id: DataId, field: usize) -> NodeId {
        self.field_nodes[&(id, field)]
    }

    /// Reverse lookup.
    pub fn node_kind(&self, node: NodeId) -> DepNodeKind {
        self.graph.node(node).kind
    }

    /// Is this node a data node (including record fields)?
    pub fn is_data(&self, node: NodeId) -> bool {
        matches!(
            self.node_kind(node),
            DepNodeKind::Data(_) | DepNodeKind::Field(..)
        )
    }

    /// All read edges arriving at equation `eq` from data node `src`.
    pub fn read_edges_from(&self, src: NodeId, eq: NodeId) -> Vec<EdgeId> {
        self.graph
            .edges_connecting(src, eq)
            .into_iter()
            .filter(|&e| self.graph.edge(e).kind == EdgeKind::Read)
            .collect()
    }

    /// Number of nodes by kind: `(data, equations)`.
    pub fn node_counts(&self) -> (usize, usize) {
        let mut data = 0;
        let mut eqs = 0;
        for n in self.graph.node_ids() {
            match self.node_kind(n) {
                DepNodeKind::Data(_) | DepNodeKind::Field(..) => data += 1,
                DepNodeKind::Equation(_) => eqs += 1,
            }
        }
        (data, eqs)
    }

    /// Number of edges by kind: `(read, def, bound)`. Hierarchical edges
    /// are reported separately by [`DepGraph::hierarchical_edge_count`].
    pub fn edge_counts(&self) -> (usize, usize, usize) {
        let mut read = 0;
        let mut def = 0;
        let mut bound = 0;
        for e in self.graph.edge_ids() {
            match self.graph.edge(e).kind {
                EdgeKind::Read => read += 1,
                EdgeKind::Def => def += 1,
                EdgeKind::Bound => bound += 1,
                EdgeKind::Hierarchical => {}
            }
        }
        (read, def, bound)
    }

    /// Number of hierarchical (field → record) edges.
    pub fn hierarchical_edge_count(&self) -> usize {
        self.graph
            .edge_ids()
            .filter(|&e| self.graph.edge(e).kind == EdgeKind::Hierarchical)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_label_rendering() {
        let name = |_: IvId| "K".to_string();
        let identity = DimLabel {
            form: SubscriptForm::Identity,
            iv: Some(IvId(0)),
            delta: 0,
            at_upper_bound: false,
        };
        assert_eq!(identity.render(name), "K");
        let back = DimLabel {
            form: SubscriptForm::OffsetBack,
            iv: Some(IvId(0)),
            delta: -2,
            at_upper_bound: false,
        };
        assert_eq!(back.render(name), "K-2");
        assert_eq!(back.back_offset(), Some(2));
        let fwd = DimLabel {
            form: SubscriptForm::Other,
            iv: Some(IvId(0)),
            delta: 1,
            at_upper_bound: false,
        };
        assert_eq!(fwd.render(name), "K+1");
        assert_eq!(fwd.back_offset(), None);
        let ub = DimLabel {
            form: SubscriptForm::Constant,
            iv: None,
            delta: 0,
            at_upper_bound: true,
        };
        assert_eq!(ub.render(name), "hi");
    }
}
