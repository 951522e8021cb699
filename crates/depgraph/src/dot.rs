//! DOT rendering of dependency graphs (Figure 3 as Graphviz).

use crate::graph::{DepGraph, DepNodeKind, EdgeKind};
use ps_lang::HirModule;
use ps_support::pretty::PrettyWriter;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render the dependency graph to Graphviz DOT. Equations are boxes, data
/// items are ellipses; read edges carry their subscript labels (`K-1,I,J+1`),
/// bound edges the label `bound`.
pub fn depgraph_dot(module: &HirModule, dg: &DepGraph) -> String {
    let graph = &dg.graph;
    let mut w = PrettyWriter::with_indent_str("  ");
    w.linef(format_args!(
        "digraph \"{}\" {{",
        escape(&format!("{}_deps", module.name))
    ));
    w.indented(|w| {
        w.line("rankdir=TB;");
        for id in graph.node_ids() {
            let node = graph.node(id);
            let attrs = match node.kind {
                DepNodeKind::Equation(_) => ", shape=box",
                DepNodeKind::Field(..) => ", shape=diamond",
                DepNodeKind::Data(_) => "",
            };
            w.linef(format_args!(
                "n{} [label=\"{}\"{attrs}];",
                id.0,
                escape(&node.name)
            ));
        }
        for eid in graph.edge_ids() {
            let e = graph.edge(eid);
            let (s, t) = graph.edge_endpoints(eid);
            let label = match e.kind {
                EdgeKind::Read if !e.labels.is_empty() => {
                    // Reconstruct iv names from the target equation node.
                    let node = graph.node(t);
                    let name_of = |iv: ps_lang::IvId| {
                        node.eq_dims
                            .iter()
                            .find(|d| d.iv == iv)
                            .map(|d| d.name.to_string())
                            .unwrap_or_else(|| format!("{iv:?}"))
                    };
                    e.labels
                        .iter()
                        .map(|l| l.render(name_of))
                        .collect::<Vec<_>>()
                        .join(",")
                }
                EdgeKind::Bound => "bound".to_string(),
                EdgeKind::Hierarchical => "field-of".to_string(),
                _ => String::new(),
            };
            if label.is_empty() {
                w.linef(format_args!("n{} -> n{};", s.0, t.0));
            } else {
                w.linef(format_args!(
                    "n{} -> n{} [label=\"{}\"];",
                    s.0,
                    t.0,
                    escape(&label)
                ));
            }
        }
    });
    w.line("}");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_depgraph;
    use ps_lang::frontend;

    const RECURSIVE: &str = "T: module (n: int): [y: real];
             type K = 2 .. n;
             var a: array [1 .. n] of real;
             define
                a[1] = 0.0;
                a[K] = a[K-1] + 1.0;
                y = a[n];
             end T;";

    #[test]
    fn dot_contains_labelled_recursive_edge() {
        let m = frontend(RECURSIVE).unwrap();
        let dg = build_depgraph(&m);
        let dot = depgraph_dot(&m, &dg);
        assert!(dot.contains("digraph"), "{dot}");
        assert!(dot.contains("label=\"K-1\""), "{dot}");
        assert!(dot.contains("shape=box"), "{dot}");
        assert!(dot.contains("label=\"bound\""), "{dot}");
    }

    #[test]
    fn renders_nodes_and_edges() {
        let m = frontend(RECURSIVE).unwrap();
        let dg = build_depgraph(&m);
        let dot = depgraph_dot(&m, &dg);
        assert!(
            dot.starts_with("digraph \"T_deps\" {\n  rankdir=TB;\n"),
            "{dot}"
        );
        assert!(dot.ends_with("}\n"), "{dot}");
        let nodes = dot
            .lines()
            .filter(|l| l.contains(" [label=\"") && !l.contains("->"));
        assert_eq!(nodes.count(), dg.graph.node_ids().count(), "{dot}");
        let edges = dot.lines().filter(|l| l.contains(" -> "));
        assert_eq!(edges.count(), dg.graph.edge_ids().count(), "{dot}");
        assert!(dot.contains("n0 [label=\"n\"]"), "{dot}");
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("say \"hi\"\nnow"), "say \\\"hi\\\"\\nnow");
        assert_eq!(escape("a\\b"), "a\\\\b");
    }
}
