//! Analyzer acceptance implies runtime safety.
//!
//! Property: every random program from the `engine_diff` generators that
//! the static verifier ACCEPTS (no `E06xx` diagnostics) runs cleanly with
//! checked writes enabled — the tag machinery that panics on any double
//! write or window eviction never trips — and an analysis-elided checked
//! run (proven arrays drop their tags) stays bit-identical both to the
//! fully-tagged checked run and to the unchecked baseline. A wrong
//! elision verdict would show up here as a divergence or a panic on the
//! still-tagged side.

#[path = "generators.rs"]
mod generators;

use generators::{arb_chain, arb_grid, assert_bits_eq, grid_inputs, shrink_chain, shrink_grid};
use ps_core::{
    analyze, compile, programs, AnalysisLevel, CompileOptions, Inputs, Program, RuntimeOptions,
    Sequential,
};
use ps_support::rng::check;

fn checked(analysis: AnalysisLevel) -> RuntimeOptions {
    RuntimeOptions {
        check_writes: true,
        analysis,
        ..Default::default()
    }
}

/// Accept → run elided-checked, full-checked, and unchecked; all three
/// must complete without tripping a runtime check and agree bit-for-bit.
fn accepted_runs_clean(src: &str, inputs: &Inputs) -> Result<(), String> {
    let comp = compile(src, CompileOptions::default()).map_err(|e| format!("{e}\n{src}"))?;
    let report = analyze(&comp);
    if report.has_errors() {
        return Err(format!(
            "analyzer rejected a front-end-legal program:\n{}\n{src}",
            report.render()
        ));
    }
    let elided = Program::try_compile(&comp, checked(AnalysisLevel::Verify))
        .map_err(|e| format!("verify gate: {e}\n{src}"))?;
    let a = elided
        .run(inputs, &Sequential)
        .map_err(|e| format!("elided checked run: {e}\n{src}"))?;
    let full = Program::compile(&comp, checked(AnalysisLevel::Off));
    let b = full
        .run(inputs, &Sequential)
        .map_err(|e| format!("full checked run: {e}\n{src}"))?;
    assert_bits_eq("elided vs full-checked", &a, &b).map_err(|e| format!("{e}\n{src}"))?;
    let base = Program::compile(&comp, RuntimeOptions::default());
    let c = base
        .run(inputs, &Sequential)
        .map_err(|e| format!("baseline run: {e}\n{src}"))?;
    assert_bits_eq("elided vs unchecked baseline", &a, &c).map_err(|e| format!("{e}\n{src}"))
}

#[test]
fn accepted_random_chains_never_trip_checked_writes() {
    check(0xa11a_c3e1, 48, arb_chain, shrink_chain, |prog| {
        accepted_runs_clean(&prog.source(), &prog.inputs())
    });
}

#[test]
fn accepted_random_grids_never_trip_checked_writes() {
    check(0xa11a_c3e2, 16, arb_grid, shrink_grid, |prog| {
        accepted_runs_clean(&prog.source(), &grid_inputs(5, 5))
    });
}

/// The report's lines are formatted by `render()`, not by the analysis;
/// the text is pinned whole against files captured while it was eager.
#[test]
fn builtin_reports_render_like_the_goldens() {
    let goldens = [
        (
            "relaxation_v1",
            include_str!("golden/analyze_relaxation_v1.txt"),
        ),
        (
            "relaxation_v2",
            include_str!("golden/analyze_relaxation_v2.txt"),
        ),
        ("heat_1d", include_str!("golden/analyze_heat_1d.txt")),
        (
            "recurrence_1d",
            include_str!("golden/analyze_recurrence_1d.txt"),
        ),
        ("pipeline", include_str!("golden/analyze_pipeline.txt")),
        ("gather", include_str!("golden/analyze_gather.txt")),
        ("table_2d", include_str!("golden/analyze_table_2d.txt")),
        ("wave_1d", include_str!("golden/analyze_wave_1d.txt")),
    ];
    assert_eq!(goldens.len(), programs::ALL.len());
    for ((name, src), (golden_name, golden)) in programs::ALL.iter().zip(goldens) {
        assert_eq!(*name, golden_name);
        let comp = compile(src, CompileOptions::default()).unwrap();
        assert_eq!(analyze(&comp).render(), golden, "{name}");
        // The elisions the report prints are the ones the runtime takes.
        let elided = Program::compile(&comp, checked(AnalysisLevel::Verify));
        assert_eq!(
            elided.verified_arrays(),
            golden.matches("[checked-writes elided]").count(),
            "{name}"
        );
    }
}
