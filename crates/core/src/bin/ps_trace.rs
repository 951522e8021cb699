//! `ps-trace` — summarize a Chrome `trace_event` file written by
//! `ps-serve --trace-out` (or [`ps_trace::write_chrome_trace`]).
//!
//! ```text
//! ps-trace summarize FILE    validate + per-stage p50/p99, steal and
//!                            region-overlap counters, top spans by time
//! ps-trace validate FILE     JSON well-formedness check only
//! ```
//!
//! Exits nonzero when the file is missing, not valid JSON, or not a trace
//! array — the `serve_tcp` suite leans on that to prove exported traces
//! stay machine-readable.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage:\n  ps-trace summarize FILE\n  ps-trace validate FILE");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(cmd), Some(path)) if args.len() == 2 => (cmd.as_str(), path.as_str()),
        _ => return usage(),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "validate" => match ps_trace::validate_json(&text) {
            Ok(()) => {
                println!("{path}: valid JSON");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        },
        "summarize" => match ps_trace::parse_trace(&text) {
            Ok(records) => {
                print!("{}", ps_trace::summarize(&records));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
