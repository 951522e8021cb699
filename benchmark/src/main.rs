//! `ps-benchmark` — the repo's benchmark (see `benchmark/README.md`).
//!
//! ```text
//! ps-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ps-benchmark setup-probe W [--seed N] [--smoke]
//! ps-benchmark aa [--passes N] [--seed N] [--seconds S]
//! ```
//!
//! With `--workload` it makes one run in this process and ends with the
//! contract's one-line JSON result: that workload end to end (`--trace 0`),
//! or the traced pass over all five workloads (`--trace 1`, the same pass
//! whichever workload is named). Without, it runs every workload, each in
//! a child process of its own, or with `--trace` the one traced pass, and
//! prints a summary. `run.sh` builds everything and then execs this binary.

mod aa;
mod compile;
mod gen;
mod kernels;
mod layers;
mod report;
mod serve;
mod stats;
mod stencil;
mod trace;
mod wire;
mod workloads;

use report::{Provenance, Rows};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{plan, Env, Kind, Length, Running};

/// Seed used when none is given (the paper's year).
const DEFAULT_SEED: u64 = 1987;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 30;

#[derive(Clone)]
pub struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    passes: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        passes: 10,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("{flag}: `{s}` is not a whole number"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                o.workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => o.seed = number(value(&mut i, "--seed")?, "--seed")?,
            "--seconds" => o.seconds = number(value(&mut i, "--seconds")?, "--seconds")?.max(1),
            "--passes" => o.passes = number(value(&mut i, "--passes")?, "--passes")? as usize,
            "--smoke" => o.smoke = true,
            // `--trace` alone, or the driver's `--trace 0|1`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    o.traced = true;
                    i += 1;
                }
                _ => o.traced = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(o)
}

fn env() -> Env {
    let path = |key: &str, default: &str| {
        PathBuf::from(std::env::var(key).unwrap_or_else(|_| default.to_string()))
    };
    Env {
        serve_bin: path("PS_BENCH_SERVE", "target/release/ps-serve"),
        out_dir: path("PS_BENCH_OUT", "benchmark/out"),
    }
}

fn write_out(env: &Env, file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(&env.out_dir).map_err(|e| e.to_string())?;
    let path = env.out_dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Time one fresh process from spawn to its `ready` line: generate inputs →
/// compile → build the artifact → start pool / server → first op verified →
/// warm-up. Seconds.
fn probe_once(kind: Kind, o: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["setup-probe", kind.name(), "--seed", &o.seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let began = Instant::now();
    let mut child = cmd.spawn().map_err(|e| e.to_string())?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("stdout was piped")).read_line(&mut line);
    let took = began.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    read.map_err(|e| e.to_string())?;
    if line.trim() != "ready" || !status.success() {
        return Err(format!("set-up probe of {} failed ({status})", kind.name()));
    }
    Ok(took)
}

/// The child side of [`probe_once`].
fn setup_probe(kind: Kind, o: &Options) -> Result<(), String> {
    let length = if o.smoke { Length::Smoke } else { Length::Full };
    let mut w = Running::setup(kind, o.seed, &env(), None)?;
    w.warm(plan(kind, o.seconds, length))?;
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    w.finish()
}

/// One untraced run of one workload in this process.
fn run_untraced(kind: Kind, o: &Options) -> Result<(Rows, u64, u64), String> {
    let env = env();
    let length = if o.smoke { Length::Smoke } else { Length::Full };
    let p = plan(kind, o.seconds, length);
    // The probes are split around the timed phase, so that a slow few
    // seconds of the box cannot cover most of them.
    let probe =
        |n: usize| -> Result<Vec<f64>, String> { (0..n).map(|_| probe_once(kind, o)).collect() };
    let mut probes = probe(p.probes / 2)?;
    let mut w = Running::setup(kind, o.seed, &env, None)?;
    w.warm(p)?;
    let samples = w.measure(p.slices, p.ops_per_slice, 0, None);
    let peak_rss_mb = w.peak_rss_mb()?;
    w.finish()?;
    probes.extend(probe(p.probes - p.probes / 2)?);

    let mut rows = Rows::new();
    rows.insert("quiet_ops_per_s".into(), samples.quiet_ops_per_s());
    rows.insert("setup_s".into(), stats::median(&probes));
    rows.insert("peak_rss_mb".into(), peak_rss_mb);
    // The whole-run figures, ungated: per-layer rows of this workload.
    let (percentile, tail_us) = samples.op_tail_us();
    let whole_run = [
        (
            "ops_per_s",
            samples.ops_per_s(),
            "median of 20 coarse slices".to_string(),
        ),
        (
            "op_p50_us",
            samples.op_p50_us(),
            format!("median over {} ops", samples.op_us.len()),
        ),
        ("op_tail_us", tail_us, format!("p{percentile}")),
    ];
    for (row, value, _) in &whole_run {
        rows.insert(format!("{}.{row}", kind.name()), *value);
    }

    report::print_rows(
        &format!(
            "{} (seed {}, {} s{})",
            kind.name(),
            o.seed,
            o.seconds,
            if kind.gated() { "" } else { ", not gated" }
        ),
        &rows,
        false,
    );
    for (row, value, note) in &whole_run {
        let name = format!("{}.{row}", kind.name());
        let unit = if *row == "ops_per_s" { "1/s" } else { "us" };
        println!("{name:<36} {value:>16.4} {unit}  ({note})");
    }
    println!("{:<36} {:>16}", "ops_attempted", samples.attempted);
    println!("{:<36} {:>16}", "ops_failed", samples.failed);
    let record = report::record_json(
        kind.name(),
        false,
        &Provenance::from_env(o.seed, o.seconds),
        &[(kind.name(), p.slices as u64, p.ops_per_slice)],
        samples.attempted,
        samples.failed,
        &rows,
    );
    write_out(&env, &format!("{}.json", kind.name()), &record)?;
    Ok((rows, samples.attempted, samples.failed))
}

/// The traced pass over all five workloads, in this process.
fn run_traced(o: &Options) -> Result<(Rows, u64, u64), String> {
    let env = env();
    let length = if o.smoke {
        Length::Smoke
    } else {
        Length::Quarter
    };
    let traced = layers::run(o.seed, o.seconds, length, &env)?;
    report::print_rows(
        &format!("layers, traced (seed {}, {} s)", o.seed, o.seconds),
        &traced.rows,
        true,
    );
    println!("{:<36} {:>16}", "ops_attempted", traced.attempted);
    println!("{:<36} {:>16}", "ops_failed", traced.failed);
    let record = report::record_json(
        "all",
        true,
        &Provenance::from_env(o.seed, o.seconds),
        &traced.op_counts,
        traced.attempted,
        traced.failed,
        &traced.rows,
    );
    write_out(&env, "layers.json", &record)?;
    Ok((traced.rows, traced.attempted, traced.failed))
}

/// Run `ps-benchmark <args>` as a child, pass its output through, and
/// return its last line (the JSON result).
pub fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("stdout was piped")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        println!("{line}");
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "`ps-benchmark {}` failed ({status})",
            args.join(" ")
        ));
    }
    Ok(last)
}

/// Arguments of one untraced run of `kind` in a child process.
pub fn child_args(kind: Kind, o: &Options) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        kind.name(),
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        "0",
    ]
    .map(String::from)
    .into();
    if o.smoke {
        args.push("--smoke".into());
    }
    args
}

/// Every workload end to end, each in its own process so that peak-memory
/// marks do not leak from one to the next; with `--trace`, the traced pass
/// instead. A smoke run does both, so that every code path and every row
/// is exercised.
fn run_all(o: &Options) -> Result<bool, String> {
    let mut correct = true;
    if !o.traced {
        for kind in Kind::ALL {
            let last = run_child(&child_args(kind, o))?;
            correct &= last.starts_with("{\"correct\": true");
        }
    }
    if o.traced || o.smoke {
        correct &= run_traced(o)?.2 == 0;
    }
    println!(
        "== all workloads {}; records are in {}",
        if correct { "correct" } else { "NOT correct" },
        env().out_dir.display()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Result<bool, String> {
        match args.first().map(String::as_str) {
            Some("setup-probe") => {
                let name = args.get(1).ok_or("setup-probe needs a workload")?;
                let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                setup_probe(kind, &parse_options(&args[2..])?)?;
                Ok(true)
            }
            Some("aa") => aa::run(&parse_options(&args[1..])?),
            _ => {
                let o = parse_options(&args)?;
                let Some(kind) = o.workload else {
                    return run_all(&o);
                };
                let (rows, attempted, failed) = if o.traced {
                    run_traced(&o)?
                } else {
                    run_untraced(kind, &o)?
                };
                println!(
                    "{}",
                    report::result_line(&rows, o.traced, attempted, failed)?
                );
                Ok(true)
            }
        }
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ps-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
