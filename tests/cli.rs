//! Integration tests for the `psc` command-line interface.

use std::process::Command;

#[path = "generators.rs"]
mod generators;

fn psc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_psc"))
        .args(args)
        .output()
        .expect("psc runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn list_names_builtins() {
    let (stdout, _, ok) = psc(&["--list"]);
    assert!(ok);
    for name in [
        "@relaxation_v1",
        "@relaxation_v2",
        "@heat_1d",
        "@wave_1d",
        "@table_2d",
    ] {
        assert!(stdout.contains(name), "{stdout}");
    }
}

#[test]
fn flowchart_emission() {
    let (stdout, _, ok) = psc(&["@relaxation_v1"]);
    assert!(ok);
    assert!(stdout.contains("DO K ("), "{stdout}");
    assert!(stdout.contains("DOALL I ("), "{stdout}");
    assert!(stdout.contains("virtual(window 2)"), "{stdout}");
}

#[test]
fn c_emission() {
    let (stdout, _, ok) = psc(&["@relaxation_v1", "--emit", "c"]);
    assert!(ok);
    assert!(stdout.contains("void ps_Relaxation"), "{stdout}");
    assert!(stdout.contains("#pragma omp parallel for"), "{stdout}");
}

#[test]
fn hyperplane_flag() {
    let (stdout, _, ok) = psc(&["@relaxation_v2", "--hyperplane", "windowed"]);
    assert!(ok);
    assert!(stdout.contains("pi = [2, 1, 1]"), "{stdout}");
    assert!(
        stdout.contains("window on the time dimension: 3"),
        "{stdout}"
    );
}

#[test]
fn components_and_depgraph_emission() {
    let (stdout, _, ok) = psc(&["@relaxation_v1", "--emit", "components"]);
    assert!(ok);
    assert!(stdout.contains("null"), "{stdout}");
    let (stdout, _, ok) = psc(&["@relaxation_v1", "--emit", "depgraph"]);
    assert!(ok);
    assert!(stdout.contains("digraph"), "{stdout}");
}

#[test]
fn equation_translation() {
    let (stdout, _, ok) = psc(&[
        "--equation",
        "A^{k}_{i} = (A^{k-1}_{i-1} + A^{k-1}_{i+1}) / 2",
    ]);
    assert!(ok);
    assert!(stdout.contains("Translated: module"), "{stdout}");
    assert!(stdout.contains("A[K-1,I-1]"), "{stdout}");
}

#[test]
fn file_input_and_errors() {
    let dir = std::env::temp_dir().join(format!("psc_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("mini.ps");
    std::fs::write(
        &f,
        "Mini: module (x: int): [y: int]; define y = x * 2; end Mini;",
    )
    .unwrap();
    let (stdout, _, ok) = psc(&[f.to_str().unwrap(), "--emit", "hir"]);
    assert!(ok);
    assert!(stdout.contains("module Mini"), "{stdout}");

    // Bad source reports diagnostics and fails.
    let bad = dir.join("bad.ps");
    std::fs::write(&bad, "Bad: module (): [y: int]; define y = zzz; end Bad;").unwrap();
    let (_, stderr, ok) = psc(&[bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("E0246"), "{stderr}");

    // Unknown builtin.
    let (_, stderr, ok) = psc(&["@nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown built-in"), "{stderr}");
}

#[test]
fn wave_builtin_schedules_with_window_three() {
    let (stdout, _, ok) = psc(&["@wave_1d"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("virtual(window 3)"), "{stdout}");
}

/// The strip report is exact and repeats, so it is pinned whole: a
/// lowering change that un-fuses a path (a load back to an op of its own,
/// a copy back to load-then-store, a pair back to two passes, a sunk store
/// back to a pass of its own) or splits one fails here, not in a noisy
/// timing. Figure 6's stencil is one copy for all four guards and two
/// passes of interior: three adds and the multiply `/ 4` became, fused in
/// pairs, the second writing the store's cells.
/// Its three equations walk their `DOALL I (DOALL J)` nests as one, in
/// rectangles; `heat_1d`'s `DOALL` sits in a `DO` and `pipeline`'s are 1-D.
/// Every builtin is here, and two hyperplane variants: the scheduler emits
/// one equation per `DOALL`, so no report says `multi-equation body`.
#[test]
fn strips_report_pins_paths_and_op_counts() {
    let pinned = [
        (
            "@relaxation_v1",
            "eq.1: stripped along J within I — 1 path: copy(1)
             eq.3: stripped along J within I — 2 paths: copy(1), compute(2)
             eq.2: stripped along J within I — 1 path: copy(1)",
        ),
        (
            "@relaxation_v2",
            "eq.1: stripped along J within I — 1 path: copy(1)
             eq.3: scalar: not a DOALL body
             eq.2: stripped along J within I — 1 path: copy(1)",
        ),
        (
            "@heat_1d",
            "eq.1: stripped along X — 1 path: copy(1)
             eq.3: stripped along X — 2 paths: copy(1), compute(3)
             eq.2: stripped along X — 1 path: copy(1)",
        ),
        (
            "@recurrence_1d",
            "eq.1: scalar: not a DOALL body
             eq.2: scalar: not a DOALL body
             eq.3: scalar: not a DOALL body",
        ),
        (
            "@pipeline",
            "eq.1: stripped along I — 1 path: compute(1)
             eq.2: stripped along L — 1 path: compute(1)
             eq.3: stripped along T — 1 path: compute(2)",
        ),
        ("@gather", "eq.1: scalar: dynamic subscript"),
        (
            "@table_2d",
            "eq.1: stripped along i1 — 1 path: compute(1)
             eq.2: stripped along I — 1 path: compute(1)
             eq.3: scalar: not a DOALL body
             eq.4: scalar: not a DOALL body",
        ),
        (
            "@wave_1d",
            "eq.1: stripped along X — 1 path: copy(1)
             eq.2: stripped along X — 1 path: copy(1)
             eq.4: stripped along X — 2 paths: copy(1), compute(4)
             eq.3: stripped along X — 1 path: copy(1)",
        ),
        (
            "@relaxation_v2 --hyperplane windowed",
            "eq.3: scalar: non-f write",
        ),
        (
            "@table_2d --hyperplane full",
            "eq.3: scalar: non-f write
             eq.4: scalar: not a DOALL body",
        ),
    ];
    for (program, report) in pinned {
        let mut args: Vec<&str> = program.split(' ').collect();
        args.push("strips");
        let (stdout, _, ok) = psc(&args);
        assert!(ok, "{program}");
        let want: Vec<&str> = report.lines().map(str::trim).collect();
        assert_eq!(stdout.lines().collect::<Vec<_>>(), want, "{program}");
    }
}

/// `compile` emits no C; `--emit c` asks for it. The text is pinned whole
/// against files captured before C became lazy.
#[test]
fn c_emission_matches_the_goldens() {
    let pinned: [(&[&str], &str); 3] = [
        (
            &["@relaxation_v1", "--emit", "c"],
            include_str!("golden/relaxation_v1.c"),
        ),
        (
            &["@relaxation_v2", "--hyperplane", "windowed", "--emit", "c"],
            include_str!("golden/relaxation_v2.windowed.c"),
        ),
        (
            &["@table_2d", "--hyperplane", "full", "--emit", "c"],
            include_str!("golden/table_2d.full.c"),
        ),
    ];
    for (args, golden) in pinned {
        let (stdout, _, ok) = psc(args);
        assert!(ok, "{args:?}");
        assert!(stdout == golden, "{args:?} differs from its golden");
    }
}

/// Everything the scheduler decides, as `psc` prints it — the Figure-5
/// table, the flowchart with its windows, the memory plan — pinned whole
/// against text captured from the binary of the commit before Schedule-Graph
/// was rewritten to cost what its component costs: the eight builtins under
/// both pick policies, the two hyperplane variants, and two generated
/// chains. Each golden is a list of `## psc <args>` headers, each
/// followed by that command's output; `chainN.ps` stands for a file holding
/// `generators::chain_source(N)`.
#[test]
fn scheduler_reports_match_the_goldens() {
    let goldens = [
        include_str!("golden/sched_relaxation_v1.txt"),
        include_str!("golden/sched_relaxation_v2.txt"),
        include_str!("golden/sched_heat_1d.txt"),
        include_str!("golden/sched_recurrence_1d.txt"),
        include_str!("golden/sched_pipeline.txt"),
        include_str!("golden/sched_gather.txt"),
        include_str!("golden/sched_table_2d.txt"),
        include_str!("golden/sched_wave_1d.txt"),
        include_str!("golden/sched_prefer_parallel.txt"),
        include_str!("golden/sched_relaxation_v2.windowed.txt"),
        include_str!("golden/sched_table_2d.full.txt"),
        include_str!("golden/sched_chain16.txt"),
        include_str!("golden/sched_chain64.txt"),
    ];
    let dir = std::env::temp_dir().join(format!("psc_sched_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut commands = 0;
    for golden in goldens {
        let mut got = String::new();
        for header in golden.lines().filter(|l| l.starts_with("## psc ")) {
            let mut args: Vec<String> = header.split(' ').skip(2).map(str::to_string).collect();
            if let Some(n) = args[0]
                .strip_prefix("chain")
                .and_then(|rest| rest.strip_suffix(".ps"))
            {
                let file = dir.join(&args[0]);
                std::fs::write(&file, generators::chain_source(n.parse().unwrap())).unwrap();
                args[0] = file.to_str().unwrap().to_string();
            }
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let (stdout, stderr, ok) = psc(&args);
            assert!(ok, "{header}: {stderr}");
            got.push_str(&format!("{header}\n{stdout}"));
            commands += 1;
        }
        assert!(got == golden, "differs from its golden:\n{got}");
    }
    assert_eq!(commands, 8 * 3 * 2 + 2 * 2 + 2 * 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// An unknown `--emit` target is a usage error, caught before the program
/// is read or compiled (the built-in named here does not exist).
#[test]
fn unknown_emit_target_is_rejected_before_compiling() {
    let (stdout, stderr, ok) = psc(&["@nope", "--emit", "bogus"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown --emit target `bogus`"), "{stderr}");
    assert!(stderr.contains("usage: psc"), "{stderr}");
    assert!(!stderr.contains("unknown built-in"), "{stderr}");
}

/// An unknown option is named, then the usage follows with its option
/// lines indented; all of it before the program is read.
#[test]
fn unknown_option_is_named_before_compiling() {
    let (stdout, stderr, ok) = psc(&["@nope", "--fuse"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown option `--fuse`"), "{stderr}");
    assert!(stderr.contains("usage: psc"), "{stderr}");
    assert!(!stderr.contains("unknown built-in"), "{stderr}");
    assert!(stderr.contains("\n  --emit c|"), "{stderr}");
    assert!(stderr.contains("\n  --list "), "{stderr}");
}
