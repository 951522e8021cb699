//! The paper's **data dependency graph** (Section 3.1).
//!
//! > "The dependency graph G = (N, E), where the set of nodes N contains the
//! > data items and equations of the module, and E contains directed edges
//! > between nodes. A directed edge is drawn from node i to node j if data
//! > produced in i is used in j."
//!
//! Nodes are *data items* (parameters, results, locals) and *equations*.
//! Edges are:
//!
//! * **read edges** `variable → equation` for every right-hand-side
//!   reference (one edge per reference — eq.3 of the Relaxation module gets
//!   five parallel `A → eq.3` edges),
//! * **def edges** `equation → variable` for the left-hand side,
//! * **bound edges** `parameter → variable` when the parameter appears in a
//!   subrange bound of one of the variable's dimensions (`M → InitialA`),
//!
//! Each node carries one *node label* per dimension; each read edge carries
//! one *edge label* per source dimension classifying the subscript in the
//! Figure-2 forms ([`SubscriptForm`]).
//!
//! The paper also mentions *hierarchical* edges relating record fields to
//! their record; this implementation does not give fields their own nodes —
//! field definitions appear as def edges on the record's node (a deliberate
//! substitution).

#![forbid(unsafe_code)]

pub mod build;
pub mod dot;
pub mod graph;
pub mod stats;

pub use build::build_depgraph;
pub use graph::{
    DepEdge, DepGraph, DepNode, DepNodeKind, DimLabel, EdgeKind, EqDim, SubscriptForm,
};
pub use stats::GraphStats;
