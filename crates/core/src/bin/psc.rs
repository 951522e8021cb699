//! `psc` — the PS compiler command line.
//!
//! ```text
//! psc <file.ps | @builtin> [--emit c|flowchart|depgraph|components|hir|memory]
//!     [--hyperplane windowed|full] [--prefer-parallel]
//! psc <file.ps | @builtin> strips   which equations run strip-mined (paths, ops), and why not
//! psc --list                 list built-in programs
//! psc --equation '<tex>'     translate TeX-style recurrence to PS
//! ```

use ps_core::{compile, programs, CompileOptions, Program, RuntimeOptions, StorageMode};
use ps_scheduler::PickPolicy;
use std::process::ExitCode;

/// What `--emit` accepts; `strips` is reached by its own subcommand word.
const EMIT_TARGETS: [&str; 6] = ["c", "flowchart", "depgraph", "components", "hir", "memory"];

fn usage() -> ! {
    eprintln!(
        "\
usage: psc <file.ps | @builtin> [options]

options:
  --emit c|flowchart|depgraph|components|hir|memory   (default: flowchart)
  --hyperplane windowed|full   apply the Section-4 transformation
  --prefer-parallel            pick dimensions that yield DOALL first
  strips                       per equation: strip-mined (paths, ops), or scalar and why
  --list                       list built-in programs (@name)
  --equation '<tex>'           translate e.g. 'A^{{k}}_{{i,j}} = ...' to PS"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    if args[0] == "--list" {
        for (name, _) in programs::ALL {
            println!("@{name}");
        }
        return ExitCode::SUCCESS;
    }
    if args[0] == "--equation" {
        let Some(eq) = args.get(1) else { usage() };
        match ps_core::translate_equation(eq, "Translated") {
            Ok(ps) => {
                println!("{ps}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let input = &args[0];
    let mut emit = "flowchart".to_string();
    let mut options = CompileOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--emit" => {
                i += 1;
                emit = match args.get(i) {
                    Some(target) if EMIT_TARGETS.contains(&target.as_str()) => target.clone(),
                    Some(target) => {
                        eprintln!("unknown --emit target `{target}`\n");
                        usage()
                    }
                    None => usage(),
                };
            }
            "--hyperplane" => {
                i += 1;
                options.hyperplane = match args.get(i).map(|s| s.as_str()) {
                    Some("windowed") => Some(StorageMode::Windowed),
                    Some("full") => Some(StorageMode::Full),
                    _ => usage(),
                };
            }
            "--prefer-parallel" => options.schedule.pick = PickPolicy::PreferParallel,
            "strips" => emit = "strips".to_string(),
            other => {
                eprintln!("unknown option `{other}`\n");
                usage()
            }
        }
        i += 1;
    }

    let source = if let Some(name) = input.strip_prefix('@') {
        match programs::ALL.iter().find(|(n, _)| *n == name) {
            Some((_, src)) => src.to_string(),
            None => {
                eprintln!("unknown built-in `@{name}`; try --list");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match std::fs::read_to_string(input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let comp = match compile(&source, options) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    match emit.as_str() {
        "c" => {
            print!("{}", comp.emit_c(options.codegen));
            if let Some(t) = &comp.transformed {
                println!("\n/* ---- transformed (hyperplane) version ---- */\n");
                print!("{}", t.emit_c(options.codegen));
            }
        }
        "flowchart" => {
            print!("{}", ps_core::report::figure6or7(&comp));
            if comp.transformed.is_some() {
                println!();
                print!("{}", ps_core::report::section4(&comp));
            }
        }
        "depgraph" => print!("{}", ps_core::report::figure3(&comp)),
        "components" => print!("{}", ps_core::report::figure5(&comp)),
        "memory" => {
            print!(
                "{}",
                ps_scheduler::render::render_memory_plan(&comp.module, &comp.schedule)
            );
        }
        "hir" => print!("{}", ps_lang::print::print_hir(&comp.module)),
        "strips" => {
            let prog = match &comp.transformed {
                Some(_) => Program::compile_transformed(&comp, RuntimeOptions::default()),
                None => Program::compile(&comp, RuntimeOptions::default()),
            };
            for (label, verdict) in prog.strip_report() {
                println!("{label}: {verdict}");
            }
        }
        other => unreachable!("`{other}` passed argument parsing"),
    }
    ExitCode::SUCCESS
}
