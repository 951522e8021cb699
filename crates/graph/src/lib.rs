//! Directed-graph substrate for the PS compiler.
//!
//! The scheduler in the paper is driven entirely by graph structure: it
//! decomposes the dependency graph into *Maximally Strongly Connected
//! Components* (MSCCs), visits them in topological order, and repeatedly
//! re-runs the decomposition on subgraphs with edges deleted. This crate
//! provides the generic machinery:
//!
//! * [`DiGraph`] — an adjacency-list directed multigraph with typed node and
//!   edge ids. It has no notion of a deleted edge: the scheduler "deletes"
//!   `I - constant` edges in a mask of its own and reads the raw edge lists
//!   ([`DiGraph::out_edge_list`]), so the graph it schedules is never
//!   copied or modified,
//! * [`scc`] — iterative Tarjan over a *node slice* and an edge-activity
//!   predicate ([`SccScratch::components`]), returning the components in
//!   the one topological order that breaks ties by smallest node id. **Cost
//!   model:** the work of a call is proportional to the nodes of the slice
//!   plus their out-edges (the predicate is asked about each at most
//!   twice) plus a heap operation per component — never to the size of the
//!   graph around the slice; per-node state lives in a caller-owned scratch
//!   that is sized once and reset only where a call touched it.

#![forbid(unsafe_code)]

pub mod digraph;
pub mod scc;

pub use digraph::{DiGraph, EdgeId, NodeId};
pub use scc::{strongly_connected_components, SccScratch, Sccs};
