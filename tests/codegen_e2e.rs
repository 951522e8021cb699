//! Compile the emitted C with the system compiler (when available) and
//! compare its checksum against the Rust interpreter on identical inputs.
//!
//! Skipped silently when no C compiler is installed.

use ps_core::{
    compile, emit_main, execute, CodegenOptions, CompileOptions, Inputs, OwnedArray,
    RuntimeOptions, Sequential, StorageMode,
};
use std::process::Command;

fn find_cc() -> Option<&'static str> {
    ["cc", "gcc", "clang"]
        .into_iter()
        .find(|&cc| {
            Command::new(cc)
                .arg("--version")
                .output()
                .map(|o| o.status.success())
                .unwrap_or(false)
        })
        .map(|v| v as _)
}

/// Fill pattern matching `emit_main`: reals get `(flat % 97) * 0.25 + 1.0`.
fn pattern_real(extent: usize) -> Vec<f64> {
    (0..extent).map(|i| (i % 97) as f64 * 0.25 + 1.0).collect()
}

/// Compile C source + main, run it, and parse `name=value` checksums.
fn run_c(cc: &str, c_code: &str, main_code: &str, tag: &str) -> Vec<(String, f64)> {
    let dir = std::env::temp_dir().join(format!("ps_codegen_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.c");
    let bin = dir.join("prog");
    std::fs::write(&src, format!("{c_code}\n{main_code}")).unwrap();
    let out = Command::new(cc)
        .arg("-O1")
        .arg("-o")
        .arg(&bin)
        .arg(&src)
        .arg("-lm")
        .output()
        .expect("compiler runs");
    assert!(
        out.status.success(),
        "cc failed:\n{}\n--- source ---\n{c_code}\n{main_code}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = Command::new(&bin).output().expect("binary runs");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    stdout
        .lines()
        .filter_map(|l| {
            let (name, value) = l.split_once('=')?;
            Some((name.to_string(), value.trim().parse::<f64>().ok()?))
        })
        .collect()
}

#[test]
fn relaxation_v1_c_matches_interpreter() {
    let Some(cc) = find_cc() else {
        eprintln!("skipping: no C compiler found");
        return;
    };
    let (m, maxk) = (8i64, 10i64);
    let comp = compile(ps_core::programs::RELAXATION_V1, CompileOptions::default()).unwrap();
    let main_code = emit_main(&comp.module, &[("M", m), ("maxK", maxk)]);
    let checks = run_c(
        cc,
        &comp.emit_c(CodegenOptions::default()),
        &main_code,
        "v1",
    );

    let side = (m + 2) as usize;
    let inputs = Inputs::new()
        .set_int("M", m)
        .set_int("maxK", maxk)
        .set_array(
            "InitialA",
            OwnedArray::real(vec![(0, m + 1), (0, m + 1)], pattern_real(side * side)),
        );
    let out = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    let rust_sum: f64 = out.array("newA").as_real_slice().iter().sum();

    let (name, c_sum) = &checks[0];
    assert_eq!(name, "newA");
    assert!(
        (c_sum - rust_sum).abs() < 1e-6 * rust_sum.abs().max(1.0),
        "C {c_sum} vs Rust {rust_sum}"
    );
}

#[test]
fn wavefront_c_matches_interpreter() {
    let Some(cc) = find_cc() else {
        eprintln!("skipping: no C compiler found");
        return;
    };
    let (m, maxk) = (6i64, 7i64);
    let comp = compile(
        ps_core::programs::RELAXATION_V2,
        CompileOptions {
            hyperplane: Some(StorageMode::Windowed),
            ..Default::default()
        },
    )
    .unwrap();

    // Untransformed C.
    let main_plain = emit_main(&comp.module, &[("M", m), ("maxK", maxk)]);
    let plain = run_c(
        cc,
        &comp.emit_c(CodegenOptions::default()),
        &main_plain,
        "v2_plain",
    );

    // Transformed (windowed wavefront with drain) C.
    let art = comp.transformed.as_ref().unwrap();
    let main_wave = emit_main(&art.result.module, &[("M", m), ("maxK", maxk)]);
    let wave = run_c(
        cc,
        &art.emit_c(CodegenOptions::default()),
        &main_wave,
        "v2_wave",
    );

    assert_eq!(plain[0].0, "newA");
    assert_eq!(wave[0].0, "newA");
    assert!(
        (plain[0].1 - wave[0].1).abs() < 1e-6 * plain[0].1.abs().max(1.0),
        "plain C {} vs wavefront C {}",
        plain[0].1,
        wave[0].1
    );

    // And both agree with the Rust interpreter.
    let side = (m + 2) as usize;
    let inputs = Inputs::new()
        .set_int("M", m)
        .set_int("maxK", maxk)
        .set_array(
            "InitialA",
            OwnedArray::real(vec![(0, m + 1), (0, m + 1)], pattern_real(side * side)),
        );
    let out = execute(&comp, &inputs, &Sequential, RuntimeOptions::default()).unwrap();
    let rust_sum: f64 = out.array("newA").as_real_slice().iter().sum();
    assert!((plain[0].1 - rust_sum).abs() < 1e-6 * rust_sum.abs().max(1.0));
}

#[test]
fn builtin_programs_emit_compilable_c() {
    let Some(cc) = find_cc() else {
        eprintln!("skipping: no C compiler found");
        return;
    };
    // Compile-only smoke test over the whole program library.
    for (name, src) in ps_core::programs::ALL {
        let comp = compile(src, CompileOptions::default()).unwrap();
        let c_code = comp.emit_c(CodegenOptions::default());
        let dir =
            std::env::temp_dir().join(format!("ps_codegen_smoke_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let srcf = dir.join("mod.c");
        std::fs::write(&srcf, &c_code).unwrap();
        let out = Command::new(cc)
            .arg("-c")
            .arg("-O1")
            .arg("-o")
            .arg(dir.join("mod.o"))
            .arg(&srcf)
            .output()
            .expect("compiler runs");
        assert!(
            out.status.success(),
            "{name}: cc failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stderr),
            c_code
        );
    }
}
