//! Figure-exact integration tests: every figure of the paper is reproduced
//! and asserted structurally.

use ps_core::{compile, programs, CompileOptions, StorageMode};

fn v1() -> ps_core::Compilation {
    compile(programs::RELAXATION_V1, CompileOptions::default()).unwrap()
}

fn v2_windowed() -> ps_core::Compilation {
    compile(
        programs::RELAXATION_V2,
        CompileOptions {
            hyperplane: Some(StorageMode::Windowed),
            ..Default::default()
        },
    )
    .unwrap()
}

/// Figure 1: the Relaxation module parses, type-checks, and round-trips
/// through the pretty-printer.
#[test]
fn fig1_roundtrip() {
    let sink = ps_support::DiagnosticSink::new();
    let toks = ps_lang::lexer::lex(programs::RELAXATION_V1, &sink);
    let prog = ps_lang::parser::parse_program(&toks, &sink);
    assert!(!sink.has_errors());
    let printed = ps_lang::print::print_module(&prog.modules[0]);

    // Re-parse and re-print: fixed point.
    let sink2 = ps_support::DiagnosticSink::new();
    let prog2 = ps_lang::parser::parse_program(&ps_lang::lexer::lex(&printed, &sink2), &sink2);
    assert!(!sink2.has_errors(), "{printed}");
    assert_eq!(printed, ps_lang::print::print_module(&prog2.modules[0]));

    // And the printed text still checks.
    ps_lang::frontend(&printed).expect("printed module type-checks");
}

/// Figure 2: edge-label attributes — the three subscript expression forms
/// plus offsets are all observable on the Relaxation graph.
#[test]
fn fig2_edge_labels() {
    use ps_depgraph::SubscriptForm;
    let comp = v1();
    let m = &comp.module;
    let dg = &comp.depgraph;
    let a = dg.data_node(m.data_by_name("A").unwrap());
    let eq3 = dg.eq_node(m.equation_by_label("eq.3").unwrap());
    let mut saw_identity = false;
    let mut saw_offset = false;
    let mut saw_other = false;
    for e in dg.read_edges_from(a, eq3) {
        for l in &dg.graph.edge(e).labels {
            match l.form {
                SubscriptForm::Identity => saw_identity = true,
                SubscriptForm::OffsetBack => {
                    saw_offset = true;
                    assert_eq!(l.back_offset(), Some(1), "K-1 has offset amount 1");
                }
                SubscriptForm::Other => saw_other = true,
                SubscriptForm::Constant => {}
            }
        }
    }
    assert!(saw_identity && saw_offset && saw_other);
}

/// Figure 3: dependency-graph structure for the Relaxation module.
#[test]
fn fig3_depgraph_structure() {
    let comp = v1();
    let s = ps_depgraph::stats::stats(&comp.depgraph);
    assert_eq!(s.data_nodes, 5, "InitialA, M, maxK, newA, A");
    assert_eq!(s.equation_nodes, 3);
    assert_eq!(s.read_edges, 8, "InitialA->eq1, A->eq2, 5x A->eq3, M->eq3");
    assert_eq!(s.def_edges, 3);
    assert_eq!(s.bound_edges, 4, "M->InitialA/A/newA, maxK->A");
    assert_eq!(s.offset_back_edges, 5, "all five A references use K-1");

    // The DOT rendering carries the labelled edges.
    let dot = ps_depgraph::dot::depgraph_dot(&comp.module, &comp.depgraph);
    assert!(dot.contains("label=\"K-1,I,J\""), "{dot}");
    assert!(dot.contains("label=\"K-1,I,J+1\""), "{dot}");
}

/// Figure 5: seven MSCCs; data components null; the recursive component is
/// {A, eq.3}; per-component flowcharts match the table.
#[test]
fn fig5_component_table() {
    let comp = v1();
    let comps = &ps_scheduler::render::component_rows(&comp.module, &comp.depgraph, &comp.schedule);
    assert_eq!(comps.len(), 7);

    let find = |name: &str| {
        comps
            .iter()
            .find(|c| c.nodes.len() == 1 && c.nodes[0] == name)
            .unwrap_or_else(|| panic!("no singleton component {name}"))
    };
    for data in ["InitialA", "M", "maxK", "newA"] {
        assert_eq!(find(data).flowchart, "null");
    }
    assert_eq!(find("eq.1").flowchart, "DOALL I (DOALL J (eq.1))");
    assert_eq!(find("eq.2").flowchart, "DOALL I (DOALL J (eq.2))");
    let multi = comps.iter().find(|c| c.nodes.len() == 2).expect("MSCC");
    let mut nodes = multi.nodes.clone();
    nodes.sort();
    assert_eq!(nodes, vec!["A", "eq.3"]);
    assert_eq!(multi.flowchart, "DO K (DOALL I (DOALL J (eq.3)))");
}

/// Figure 6: the complete flowchart for Relaxation (version 1), with the
/// virtual window of two on dimension K of A.
#[test]
fn fig6_flowchart_and_window() {
    let comp = v1();
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
    assert_eq!(
        ps_scheduler::render::render_flowchart(&comp.module, &comp.schedule.flowchart),
        expected
    );
    let a = comp.module.data_by_name("A").unwrap();
    assert_eq!(comp.schedule.memory.window(a, 0), Some(2));
    assert_eq!(comp.schedule.memory.window(a, 1), None);
    assert_eq!(comp.schedule.memory.window(a, 2), None);
}

/// Figure 7: the revised eq.3 forces all three loops iterative; the window
/// analysis still gives two planes.
#[test]
fn fig7_revised_eq3() {
    let comp = compile(programs::RELAXATION_V2, CompileOptions::default()).unwrap();
    assert_eq!(
        comp.compact_flowchart(),
        "DOALL I (DOALL J (eq.1)); DO K (DO I (DO J (eq.3))); DOALL I (DOALL J (eq.2))"
    );
    let a = comp.module.data_by_name("A").unwrap();
    assert_eq!(comp.schedule.memory.window(a, 0), Some(2));
}

/// Section 4: the full derivation — inequalities, pi = (2,1,1), the paper's
/// T and its inverse, the transformed reference offsets, window 3, and a
/// schedule with the Figure-6 loop structure.
#[test]
fn sec4_hyperplane_derivation() {
    let comp = v2_windowed();
    let t = comp.transformed.as_ref().unwrap();
    let r = &t.result;

    // Five dependence inequalities exactly as printed in the paper.
    let ineqs = ps_hyperplane::solve::render_inequalities(&r.dep_vectors);
    for expected in ["a > 0", "b > 0", "c > 0", "a > c", "a > b"] {
        assert!(ineqs.contains(&expected.to_string()), "{ineqs:?}");
    }
    assert_eq!(r.pi, vec![2, 1, 1], "t = 2K + I + J");

    // K' = 2K+I+J, I' = K, J' = I.
    assert_eq!(r.t_mat.row(0), &[2, 1, 1]);
    assert_eq!(r.t_mat.row(1), &[1, 0, 0]);
    assert_eq!(r.t_mat.row(2), &[0, 1, 0]);
    // K = I', I = J', J = K' - 2I' - J'.
    assert_eq!(r.t_inv.row(0), &[0, 1, 0]);
    assert_eq!(r.t_inv.row(1), &[0, 0, 1]);
    assert_eq!(r.t_inv.row(2), &[1, -2, -1]);

    // The rewritten recurrence's references (as transformed dependences).
    for d in [
        vec![1, 0, 0],
        vec![1, 0, 1],
        vec![1, 1, 0],
        vec![1, 1, -1],
        vec![2, 1, 0],
    ] {
        assert!(r.transformed_deps.contains(&d), "{:?}", r.transformed_deps);
    }

    // Window 3: "we can allocate an array 3 x maxK x M".
    assert_eq!(r.window, 3);
    assert_eq!(t.schedule.memory.window(r.new_array, 0), Some(3));

    // "the schedule is identical to that of Figure 6" (outer DO, inner
    // DOALLs over the recurrence).
    let fc = comp.transformed_flowchart().unwrap();
    assert!(
        fc.contains("DO K' (DOALL I' (DOALL J' (eq.3)); DRAIN K')"),
        "{fc}"
    );
}

/// The transformed equation literally contains the paper's rewritten
/// references (`A'[K'-2, I'-1, J']` etc.), checked via the HIR printer.
#[test]
fn sec4_rewritten_equation_text() {
    let comp = v2_windowed();
    let t = comp.transformed.as_ref().unwrap();
    let m = &t.result.module;
    let eq = m
        .equation_by_label(&t.result.merged_label)
        .expect("merged equation");
    let text = ps_lang::print::print_hexpr(m, &m.equations[eq], &m.equations[eq].rhs);
    for expected in [
        "A'[K'-2, I'-1, J']",
        "A'[K'-1, I', J']",
        "A'[K'-1, I', J'-1]",
        "A'[K'-1, I'-1, J']",
        "A'[K'-1, I'-1, J'+1]",
        "InitialA[J'",
    ] {
        assert!(text.contains(expected), "missing `{expected}` in:\n{text}");
    }
}

/// Memory accounting from the paper: window-2 storage is 2*(M+2)^2 instead
/// of maxK*(M+2)^2; the transformed window-3 storage is 3*maxK*(M+2).
#[test]
fn sec4_memory_accounting() {
    use ps_support::{FxHashMap, Symbol};
    let comp = v2_windowed();
    let mut params = FxHashMap::default();
    params.insert(Symbol::intern("M"), 64i64);
    params.insert(Symbol::intern("maxK"), 100i64);

    let a = comp.module.data_by_name("A").unwrap();
    let side = 66u64; // M + 2
    assert_eq!(
        ps_scheduler::MemoryPlan::full_elements(&comp.module, a, &params),
        Some(100 * side * side)
    );
    assert_eq!(
        comp.schedule
            .memory
            .alloc_elements(&comp.module, a, &params),
        Some(2 * side * side)
    );

    let t = comp.transformed.as_ref().unwrap();
    let ap = t.result.new_array;
    assert_eq!(
        t.schedule
            .memory
            .alloc_elements(&t.result.module, ap, &params),
        Some(3 * 100 * side),
        "3 planes x maxK x (M+2)"
    );
}

/// The schedules of both versions and the transformed program validate
/// under the conservative replay checker.
#[test]
fn all_schedules_validate() {
    use ps_support::{FxHashMap, Symbol};
    let mut params = FxHashMap::default();
    params.insert(Symbol::intern("M"), 5i64);
    params.insert(Symbol::intern("maxK"), 6i64);

    let c1 = v1();
    ps_core::validate_flowchart(&c1.module, &c1.schedule.flowchart, &params).unwrap();

    let c2 = v2_windowed();
    ps_core::validate_flowchart(&c2.module, &c2.schedule.flowchart, &params).unwrap();
    let t = c2.transformed.as_ref().unwrap();
    ps_core::validate_flowchart(&t.result.module, &t.schedule.flowchart, &params).unwrap();
}
