//! Textual renderings of scheduler output: the paper's Figures 5, 6 and 7.

use crate::flowchart::{Descriptor, Flowchart};
use crate::schedule::ScheduleResult;
use ps_depgraph::DepGraph;
use ps_lang::hir::HirModule;
use ps_support::pretty::PrettyWriter;

/// Figure 6/7 style indented rendering:
///
/// ```text
/// DOALL I (
///   DOALL J (
///     eq.1
///   )
/// )
/// ```
///
/// A drain nest's first line names the plane it copies: `DRAIN K': DOALL I (`.
pub fn render_flowchart(module: &HirModule, fc: &Flowchart) -> String {
    let mut w = PrettyWriter::with_indent_str("  ");
    fn go(module: &HirModule, items: &[Descriptor], w: &mut PrettyWriter) {
        for d in items {
            match d {
                Descriptor::Equation(e) => {
                    w.line(&module.equations[*e].label);
                }
                Descriptor::Loop(l) => {
                    let head = format!("{} {} (", l.kind.keyword(), l.name);
                    match l.drain_of {
                        Some(time) => w.line(&format!("DRAIN {time}: {head}")),
                        None => w.line(&head),
                    }
                    w.indented(|w| go(module, &l.body, w));
                    w.line(")");
                }
            }
        }
    }
    go(module, &fc.items, &mut w);
    w.finish()
}

/// A row of the Figure-5 table, formatted.
#[derive(Clone, Debug)]
pub struct ComponentInfo {
    /// Names of the nodes in the MSCC (`["A", "eq.3"]`).
    pub nodes: Vec<String>,
    /// Compact flowchart returned by Schedule-Component for this component.
    pub flowchart: String,
}

/// The Figure-5 rows of `result`, which must be the schedule of `module`
/// over `dg`: the scheduler records node ids and flowchart items only, and
/// names them here, when someone reads the table.
pub fn component_rows(
    module: &HirModule,
    dg: &DepGraph,
    result: &ScheduleResult,
) -> Vec<ComponentInfo> {
    let label = |e| module.equations[e].label.clone();
    result
        .component_rows()
        .map(|(nodes, items)| ComponentInfo {
            nodes: nodes
                .iter()
                .map(|&n| dg.graph.node(n).name.clone())
                .collect(),
            flowchart: if items.is_empty() {
                "null".to_string()
            } else {
                Flowchart::compact_items(items, &label)
            },
        })
        .collect()
}

/// Figure 5 style table: one row per top-level MSCC.
pub fn render_component_table(
    module: &HirModule,
    dg: &DepGraph,
    result: &ScheduleResult,
) -> String {
    let mut w = PrettyWriter::new();
    w.line("Component | Node(s)            | Flowchart");
    w.line("----------|--------------------|----------");
    for (i, c) in component_rows(module, dg, result).iter().enumerate() {
        w.line(&format!(
            "{:<9} | {:<18} | {}",
            i + 1,
            c.nodes.join(", "),
            c.flowchart
        ));
    }
    w.finish()
}

/// Memory-plan summary: which dimensions are windowed.
pub fn render_memory_plan(module: &HirModule, result: &ScheduleResult) -> String {
    let mut w = PrettyWriter::new();
    let mut any = false;
    for (id, item) in module.data.iter_enumerated() {
        if !item.is_array() {
            continue;
        }
        let descr: Vec<String> = (0..item.dims().len())
            .map(|d| match result.memory.window(id, d) {
                Some(win) => format!("virtual(window {win})"),
                None => "physical".to_string(),
            })
            .collect();
        if descr.iter().any(|d| d.starts_with("virtual")) {
            any = true;
        }
        w.line(&format!("{}: [{}]", item.name, descr.join(", ")));
    }
    if !any {
        w.line("(no virtual dimensions)");
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule_module, ScheduleOptions};
    use ps_depgraph::build_depgraph;
    use ps_lang::frontend;

    #[test]
    fn figure6_indented_rendering() {
        let m = frontend(crate::testprogs::RELAXATION_V1).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let text = render_flowchart(&m, &r.flowchart);
        let expected = "\
DOALL I (
  DOALL J (
    eq.1
  )
)
DO K (
  DOALL I (
    DOALL J (
      eq.3
    )
  )
)
DOALL I (
  DOALL J (
    eq.2
  )
)
";
        assert_eq!(text, expected);
    }

    #[test]
    fn component_table_lists_all() {
        let m = frontend(crate::testprogs::RELAXATION_V1).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let table = render_component_table(&m, &dg, &r);
        assert_eq!(table.lines().count(), 2 + 7);
        assert!(table.contains("null"));
    }

    #[test]
    fn memory_plan_rendering() {
        let m = frontend(crate::testprogs::RELAXATION_V1).unwrap();
        let dg = build_depgraph(&m);
        let r = schedule_module(&m, &dg, ScheduleOptions::default()).unwrap();
        let text = render_memory_plan(&m, &r);
        assert!(text.contains("A: [virtual(window 2), physical, physical]"));
    }
}
