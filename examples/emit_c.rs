//! Print the C the compiler generates — the paper's actual output format —
//! for both Relaxation variants and the transformed wavefront. `compile`
//! itself writes no C; `Compilation::emit_c` produces it on demand.
//!
//! ```sh
//! cargo run --example emit_c            # Figure-1 module
//! cargo run --example emit_c -- v2      # revised eq.3 + hyperplane
//! ```

use ps_core::{compile, emit_main, programs, CodegenOptions, CompileOptions, StorageMode};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "v1".to_string());
    match which.as_str() {
        "v1" => {
            let comp =
                compile(programs::RELAXATION_V1, CompileOptions::default()).expect("compiles");
            println!("/* ==== module (Jacobi; DOALL-parallel inner loops) ==== */");
            print!("{}", comp.emit_c(CodegenOptions::default()));
            println!("\n/* ==== standalone driver ==== */");
            print!("{}", emit_main(&comp.module, &[("M", 64), ("maxK", 100)]));
        }
        "v2" => {
            let comp = compile(
                programs::RELAXATION_V2,
                CompileOptions {
                    hyperplane: Some(StorageMode::Windowed),
                    ..Default::default()
                },
            )
            .expect("compiles");
            println!("/* ==== untransformed (Gauss-Seidel; fully iterative) ==== */");
            print!("{}", comp.emit_c(CodegenOptions::default()));
            let art = comp.transformed.as_ref().unwrap();
            println!("\n/* ==== hyperplane wavefront (window 3 + drain) ==== */");
            print!("{}", art.emit_c(CodegenOptions::default()));
        }
        other => {
            eprintln!("unknown variant `{other}`; use v1 or v2");
            std::process::exit(2);
        }
    }
}
