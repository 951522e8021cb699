//! Figure renderers: regenerate the paper's figures as text.

use crate::pipeline::Compilation;
use ps_depgraph::stats::stats;
use ps_hyperplane::solve::render_inequalities;
use ps_scheduler::render::{render_component_table, render_flowchart, render_memory_plan};
use ps_support::pretty::PrettyWriter;

/// Figure 3: the dependency graph, as a structural summary plus DOT.
pub fn figure3(comp: &Compilation) -> String {
    let mut w = PrettyWriter::new();
    w.line(&format!(
        "Figure 3 — dependency graph for module {}",
        comp.module.name
    ));
    w.line(&format!("{}", stats(&comp.depgraph)));
    w.blank();
    w.line("DOT rendering:");
    w.write(&ps_depgraph::dot::depgraph_dot(
        &comp.module,
        &comp.depgraph,
    ));
    w.finish()
}

/// Figure 5: the component table (MSCCs and their per-component
/// flowcharts).
pub fn figure5(comp: &Compilation) -> String {
    let mut w = PrettyWriter::new();
    w.line("Figure 5 — component graph and corresponding flowchart");
    w.write(&render_component_table(
        &comp.module,
        &comp.depgraph,
        &comp.schedule,
    ));
    w.finish()
}

/// Figure 6 / Figure 7: the module flowchart, indented.
pub fn figure6or7(comp: &Compilation) -> String {
    let mut w = PrettyWriter::new();
    w.line(&format!("Flowchart for module {}", comp.module.name));
    w.write(&render_flowchart(&comp.module, &comp.schedule.flowchart));
    w.blank();
    w.line("Virtual dimensions (Section 3.4):");
    w.write(&render_memory_plan(&comp.module, &comp.schedule));
    w.finish()
}

/// Section 4: the hyperplane derivation — dependence inequalities, the time
/// vector, the transform, the transformed schedule and window.
pub fn section4(comp: &Compilation) -> String {
    let Some(t) = &comp.transformed else {
        return "(no hyperplane transformation was requested)".to_string();
    };
    let r = &t.result;
    let mut w = PrettyWriter::new();
    w.line("Section 4 — restructuring transformation");
    w.line("dependence vectors (element x depends on x - d):");
    for d in &r.dep_vectors {
        w.line(&format!("  d = {d:?}"));
    }
    w.line("dependence inequalities:");
    for ineq in render_inequalities(&r.dep_vectors) {
        w.line(&format!("  {ineq}"));
    }
    w.line(&format!("least time vector: pi = {:?}", r.pi));
    w.line("unimodular transform T (first row = pi):");
    for row in r.t_mat.rows() {
        w.line(&format!("  {row:?}"));
    }
    w.line("inverse (original coords from transformed):");
    for row in r.t_inv.rows() {
        w.line(&format!("  {row:?}"));
    }
    w.line("transformed dependences T*d (time offsets first):");
    for d in &r.transformed_deps {
        w.line(&format!("  {d:?}"));
    }
    w.line(&format!("window on the time dimension: {}", r.window));
    w.blank();
    w.line("transformed schedule:");
    w.write(&render_flowchart(&r.module, &t.schedule.flowchart));
    w.blank();
    w.line("memory plan of the transformed module:");
    w.write(&render_memory_plan(&r.module, &t.schedule));
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};
    use crate::programs;
    use ps_hyperplane::StorageMode;

    #[test]
    fn figures_render() {
        let comp = compile(
            programs::RELAXATION_V2,
            CompileOptions {
                hyperplane: Some(StorageMode::Windowed),
                ..Default::default()
            },
        )
        .unwrap();
        let f3 = figure3(&comp);
        assert!(f3.contains("8 (5 data + 3 equations)"), "{f3}");
        let f5 = figure5(&comp);
        assert!(f5.contains("A, eq.3") || f5.contains("eq.3, A"), "{f5}");
        let f7 = figure6or7(&comp);
        assert!(f7.contains("DO K ("), "{f7}");
        assert!(f7.contains("A: [virtual(window 2), physical, physical]"));
        let s4 = section4(&comp);
        assert!(s4.contains("pi = [2, 1, 1]"), "{s4}");
        assert!(s4.contains("a > c"), "{s4}");
        assert!(s4.contains("window on the time dimension: 3"), "{s4}");
    }
}
