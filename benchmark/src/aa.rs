//! The A/A check: two sets of N full passes of the same checkout,
//! alternating sets, every pass on its own seed. Prints, per workload ×
//! end-to-end metric, both sets' medians and quartiles, each set's spread
//! (quartile distance over median), the relative difference of the medians
//! and the bound. On a gated workload it fails if the medians differ by
//! more than **half** the bound, or if either set's spread exceeds the
//! bound — a metric that unsteady cannot resolve a regression of its
//! bound, whatever the medians say. `setup_s` is held to the medians
//! alone, as the driver holds it. The ungated workloads are run and
//! tabulated the same way, which is the record of why they are ungated.

use crate::report::END_TO_END;
use crate::stats::{median, quartiles};
use crate::workloads::Kind;
use crate::{child_args, run_child, Options};
use ps_core::ps_trace::summary::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

type Values = BTreeMap<(usize, &'static str), [Vec<f64>; 2]>;

fn metric(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no `{name}` in a child's result line"))
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s.
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// The verdict on one gated row: `diff` is the relative difference of the
/// two medians, `spread` the wider of the two sets' spreads.
fn verdict(name: &str, diff: f64, spread: f64, bound: f64) -> &'static str {
    if diff > bound / 2.0 {
        "DISAGREE"
    } else if name != "setup_s" && spread > bound {
        "TOO NOISY"
    } else {
        "agree"
    }
}

pub fn run(o: &Options) -> Result<bool, String> {
    if o.passes < 2 {
        return Err("aa needs at least two passes per set".into());
    }
    let mut values = Values::new();
    let mut failed_ops = 0.0;
    for pass in 0..o.passes {
        for set in 0..2 {
            let pass_options = Options {
                seed: o.seed + pass as u64,
                ..o.clone()
            };
            for (w, kind) in Kind::ALL.into_iter().enumerate() {
                let last = run_child(&child_args(kind, &pass_options))?;
                let result = parse_json(&last)?;
                failed_ops += result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
                for (name, ..) in END_TO_END {
                    values.entry((w, name)).or_default()[set].push(metric(&result, name)?);
                }
            }
        }
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | \
         |A−B| / A | B worse by | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|"
    );
    let mut agree = true;
    for ((w, name), sets) in &values {
        let (_, _, better, bound) = END_TO_END
            .into_iter()
            .find(|m| m.0 == *name)
            .expect("names come from the table");
        let [a, b] = [&sets[0], &sets[1]].map(|v| (median(v), quartiles(v)));
        let spread = |(m, q): (f64, [f64; 3])| (q[2] - q[0]) / m;
        let diff = (a.0 - b.0).abs() / a.0;
        let kind = Kind::ALL[*w];
        let verdict = if kind.gated() {
            verdict(name, diff, spread(a).max(spread(b)), bound)
        } else {
            "not gated"
        };
        agree &= matches!(verdict, "agree" | "not gated");
        let cell = |(m, q): (f64, [f64; 3])| format!("{m:.4} [{:.4}, {:.4}]", q[0], q[2]);
        let _ = writeln!(
            table,
            "| {} | {name} | {} | {} | {:.2} % | {:.2} % | {:.2} % | {:+.2} % | {:.0} % | {} |",
            kind.name(),
            cell(a),
            cell(b),
            spread(a) * 100.0,
            spread(b) * 100.0,
            diff * 100.0,
            worse_by(a.0, b.0, better) * 100.0,
            bound * 100.0,
            verdict
        );
    }
    let provenance = crate::report::Provenance::from_env(o.seed, o.seconds);
    let header = format!(
        "A/A: two sets of {} passes of the same checkout, alternating, seeds {}..{}, {} s per \
         run; {} ops failed. nproc {}, {}, commit {}. Spread is quartile distance over median \
         within a set. A gated row agrees when the medians differ by at most half the bound \
         and (setup_s apart) neither spread exceeds the bound.\n\n",
        o.passes,
        o.seed,
        o.seed + o.passes as u64 - 1,
        o.seconds,
        failed_ops,
        provenance.nproc,
        provenance.rustc,
        provenance.commit
    );
    println!("\n{header}{table}");
    crate::write_out(&crate::env(), "AA.md", &format!("{header}{table}"))?;
    Ok(agree && failed_ops == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
    }

    #[test]
    fn agreeing_medians_do_not_excuse_a_spread_past_the_bound() {
        assert_eq!(verdict("ops_per_s", 0.02, 0.04, 0.10), "agree");
        assert_eq!(verdict("ops_per_s", 0.06, 0.04, 0.10), "DISAGREE");
        assert_eq!(verdict("ops_per_s", 0.02, 0.12, 0.10), "TOO NOISY");
        // The driver gates setup_s on its medians only.
        assert_eq!(verdict("setup_s", 0.02, 0.30, 0.10), "agree");
        assert_eq!(verdict("setup_s", 0.06, 0.01, 0.10), "DISAGREE");
    }

    #[test]
    fn a_result_line_round_trips_through_the_parser() {
        let mut rows = crate::report::Rows::new();
        for (name, ..) in END_TO_END {
            rows.insert(name.to_string(), 2.5);
        }
        let line = crate::report::result_line(&rows, false, 3, 0).unwrap();
        let doc = parse_json(&line).unwrap();
        assert_eq!(metric(&doc, "setup_s"), Ok(2.5));
        assert!(metric(&doc, "nope").is_err());
    }
}
