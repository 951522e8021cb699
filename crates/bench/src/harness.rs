//! A minimal, std-only timing harness replacing `criterion`.
//!
//! The `micro` bench target sets `harness = false` and drives one
//! [`Harness`] from its `main`. Two modes:
//!
//! * **Full** (`cargo bench`, which passes `--bench` to the binary):
//!   warmup runs followed by `N` timed samples per row; reports quiet /
//!   median / min / max wall-clock per iteration.
//! * **Smoke** (`cargo test --benches`, no `--bench` argument): every
//!   closure runs exactly once, so the assertions inside the timed
//!   closures stay part of the test suite without paying for timing.
//!
//! **Iteration batching** (full mode): a calibration run sizes a batch of
//! `B` closure calls per `Instant` sample so each sample is well above the
//! clock resolution; reported durations are per iteration (`elapsed / B`).
//!
//! **One estimator.** Interference (preemption, a noisy neighbour, a page
//! fault) only ever adds time, so the figure to compare between runs is
//! `quiet`: the median of the fastest quarter of the samples (of the
//! fastest one, below four samples). It is the rule of the repo
//! benchmark's `quiet_ops_per_s` (`benchmark/src/stats.rs::quiet_rate`),
//! restated here because `benchmark/` is not a workspace member. Nothing
//! is discarded: `min`, `median` and `max` are over all samples and are
//! reported beside it.
//!
//! Tuning knobs (full mode): `PS_BENCH_WARMUP` (default 3) runs and
//! `PS_BENCH_SAMPLES` (default 15) samples per row.
//!
//! Machine-readable output: pass `--bench-json <path>` (after `--` under
//! `cargo bench`) and [`Harness::finish`] writes every measurement as a
//! JSON document — `group`, `mode`, `nproc` (a pool row means nothing
//! without the CPU count it was taken on), and per row name, samples,
//! batch, quiet/median/min/max in nanoseconds and element throughput at
//! `quiet`. Smoke mode records its single run so the JSON pipeline itself
//! can be exercised cheaply.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target per-sample wall time the auto-calibrator aims for: comfortably
/// above `Instant` resolution, small enough to keep full runs quick.
const BATCH_TARGET: Duration = Duration::from_micros(200);

/// Hard cap on the calibrated batch size.
const BATCH_MAX: usize = 16_384;

/// One summarised measurement. Durations are per iteration
/// (batch-normalised); `quiet` is the figure to compare between runs.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median of the fastest quarter of the samples.
    pub quiet: Duration,
    pub median: Duration,
    pub min: Duration,
    pub max: Duration,
    pub samples: usize,
    /// Closure invocations per timed sample.
    pub batch: usize,
}

impl Summary {
    /// Summarise per-iteration sample times (at least one).
    fn of(mut times: Vec<Duration>, batch: usize) -> Summary {
        times.sort();
        Summary {
            quiet: quiet(&times),
            median: median(&times),
            min: times[0],
            max: times[times.len() - 1],
            samples: times.len(),
            batch,
        }
    }
}

/// One row of the `--bench-json` report.
#[derive(Clone, Debug)]
struct JsonEntry {
    name: String,
    summary: Summary,
    /// Units of work per closure call (regions, emits, cells).
    elements: u64,
}

/// One bench target's rows.
pub struct Harness {
    group: String,
    full: bool,
    warmup: usize,
    samples: usize,
    json_path: Option<String>,
    entries: Vec<JsonEntry>,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// CPUs this process may run on; 0 when the platform cannot say.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Render a duration compactly (ns / µs / ms / s, three significant-ish
/// digits), close to criterion's formatting.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Size a batch so one sample spans roughly [`BATCH_TARGET`], given one
/// timed run of the closure.
fn calibrate_batch(once: Duration) -> usize {
    if once >= BATCH_TARGET {
        return 1;
    }
    let once_ns = once.as_nanos().max(1);
    ((BATCH_TARGET.as_nanos() / once_ns).max(1) as usize).min(BATCH_MAX)
}

/// Median of a non-empty ascending slice (mean of the two middle samples
/// for even counts).
fn median(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// The quiet estimate of a non-empty ascending slice: the median of its
/// fastest quarter (of the fastest sample, below four). A slowdown of the
/// code shows here in full; a neighbour that slows three quarters of the
/// samples does not show at all.
fn quiet(sorted: &[Duration]) -> Duration {
    median(&sorted[..(sorted.len() / 4).max(1)])
}

impl Harness {
    /// Create a group. Mode is taken from the command line: `cargo bench`
    /// invokes bench binaries with `--bench`, `cargo test` does not. A
    /// `--bench-json <path>` pair selects the machine-readable report.
    pub fn new(group: &str) -> Harness {
        let args: Vec<String> = std::env::args().collect();
        let full = args.iter().any(|a| a == "--bench");
        let json_path = args
            .iter()
            .position(|a| a == "--bench-json")
            .and_then(|i| args.get(i + 1))
            .cloned();
        let h = Harness {
            group: group.to_string(),
            full,
            warmup: env_usize("PS_BENCH_WARMUP", 3),
            samples: env_usize("PS_BENCH_SAMPLES", 15),
            json_path,
            entries: Vec::new(),
        };
        if h.full {
            println!(
                "## {} (warmup {}, samples {}, nproc {})",
                h.group,
                h.warmup,
                h.samples,
                nproc()
            );
        } else {
            println!("## {} (smoke mode; run `cargo bench` for timings)", h.group);
        }
        h
    }

    /// Time `f`, which does `elements` units of work per call, as the row
    /// `name`. Returns the summary in full mode, `None` in smoke mode
    /// (where `f` runs once for its assertions).
    pub fn bench<T>(
        &mut self,
        name: &str,
        elements: u64,
        mut f: impl FnMut() -> T,
    ) -> Option<Summary> {
        let summary = if self.full {
            for _ in 0..self.warmup {
                black_box(f());
            }
            // Calibrate the batch size off one timed run (which doubles as
            // an extra warmup): fast closures get batched until a sample
            // spans BATCH_TARGET, slow ones keep batch = 1.
            let t0 = Instant::now();
            black_box(f());
            let batch = calibrate_batch(t0.elapsed());
            let times = (0..self.samples)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..batch {
                        black_box(f());
                    }
                    t0.elapsed() / batch as u32
                })
                .collect();
            let s = Summary::of(times, batch);
            println!(
                "  {name:<40} quiet {:>10}  median {:>10}  min {:>10}  max {:>10}  \
                 (batch {batch}, {:.2} ns/elem)",
                fmt_duration(s.quiet),
                fmt_duration(s.median),
                fmt_duration(s.min),
                fmt_duration(s.max),
                s.quiet.as_secs_f64() * 1e9 / elements as f64,
            );
            s
        } else {
            // Smoke: one timed run keeps the JSON pipeline exercisable
            // without paying for warmup and sampling.
            let t0 = Instant::now();
            black_box(f());
            println!("  {name}: ok");
            Summary::of(vec![t0.elapsed()], 1)
        };
        self.entries.push(JsonEntry {
            name: name.to_string(),
            summary,
            elements,
        });
        self.full.then_some(summary)
    }

    /// Render the collected measurements as a JSON document.
    fn render_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"group\": \"{}\",\n  \"mode\": \"{}\",\n  \"nproc\": {},\n  \
             \"benchmarks\": [\n",
            json_escape(&self.group),
            if self.full { "full" } else { "smoke" },
            nproc()
        );
        for (i, e) in self.entries.iter().enumerate() {
            let s = &e.summary;
            let quiet_s = s.quiet.as_secs_f64();
            let throughput = if quiet_s > 0.0 {
                format!("{:.1}", e.elements as f64 / quiet_s)
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"samples\": {}, \"batch\": {}, \
                 \"quiet_ns\": {}, \"median_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"elements\": {}, \
                 \"throughput_elems_per_s\": {}}}{}\n",
                json_escape(&e.name),
                s.samples,
                s.batch,
                s.quiet.as_nanos(),
                s.median.as_nanos(),
                s.min.as_nanos(),
                s.max.as_nanos(),
                e.elements,
                throughput,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// End the group: flush stdout and, when `--bench-json <path>` was
    /// given, write the machine-readable report.
    pub fn finish(self) {
        use std::io::Write;
        if let Some(path) = &self.json_path {
            let doc = self.render_json();
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("bench-json: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("  bench-json written to {path}");
        }
        let _ = std::io::stdout().flush();
    }
}

/// Escape a string for a JSON literal (labels are plain ASCII identifiers,
/// so only quotes and backslashes matter; control characters are dropped).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {}
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_covers_all_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(4)), "4.000 s");
    }

    #[test]
    fn smoke_mode_runs_once() {
        // Unit tests see no `--bench` argument, so this exercises smoke mode.
        let mut h = Harness::new("harness_selftest");
        let mut runs = 0;
        let out = h.bench("counts", 1, || {
            runs += 1;
            runs
        });
        assert!(out.is_none());
        assert_eq!(runs, 1);
        h.finish();
    }

    #[test]
    fn json_report_has_all_fields() {
        let mut h = Harness::new("json_selftest");
        h.bench("plain/row", 1000, || 1);
        h.bench("other", 1, || 2);
        let doc = h.render_json();
        assert!(doc.contains("\"group\": \"json_selftest\""));
        assert!(doc.contains("\"mode\": \"smoke\""));
        assert!(doc.contains(&format!("\"nproc\": {},", nproc())), "{doc}");
        assert!(doc.contains("\"name\": \"plain/row\""));
        assert!(doc.contains("\"elements\": 1000"));
        assert!(doc.contains("\"samples\": 1"));
        for key in [
            "quiet_ns",
            "median_ns",
            "min_ns",
            "max_ns",
            "throughput_elems_per_s",
            "batch",
        ] {
            assert_eq!(
                doc.matches(&format!("\"{key}\"")).count(),
                2,
                "{key}\n{doc}"
            );
        }
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn batch_calibration_targets_sample_floor() {
        // Slow closures stay unbatched.
        assert_eq!(calibrate_batch(Duration::from_millis(5)), 1);
        assert_eq!(calibrate_batch(BATCH_TARGET), 1);
        // A 100 ns closure needs ~2000 iterations to span 200 µs.
        assert_eq!(calibrate_batch(Duration::from_nanos(100)), 2000);
        // Zero-duration runs clamp at the cap instead of dividing by zero.
        assert_eq!(calibrate_batch(Duration::ZERO), BATCH_MAX);
    }

    #[test]
    fn quiet_ignores_interference_but_not_a_slower_program() {
        let ms = Duration::from_millis;
        // 15 samples, fastest quarter = 3: {10, 11, 12} → 11.
        let calm: Vec<Duration> = (0..15).map(|i| ms(10 + i)).collect();
        let s = Summary::of(calm.clone(), 1);
        assert_eq!(
            (s.quiet, s.median, s.min, s.max),
            (ms(11), ms(17), ms(10), ms(24))
        );
        // Perturb the slow three quarters: quiet holds, median and max move.
        let noisy: Vec<Duration> = calm
            .iter()
            .map(|&t| if t > ms(12) { t * 40 } else { t })
            .collect();
        let s = Summary::of(noisy, 1);
        assert_eq!((s.quiet, s.min, s.samples), (ms(11), ms(10), 15));
        assert_eq!((s.median, s.max), (ms(17) * 40, ms(24) * 40));
        // A program a tenth slower everywhere is seen in full.
        let slower: Vec<Duration> = calm.iter().map(|&t| t * 11 / 10).collect();
        assert_eq!(Summary::of(slower, 1).quiet, ms(11) * 11 / 10);
        // Fewer than four samples: the fastest.
        assert_eq!(quiet(&[ms(1), ms(2), ms(900)]), ms(1));
        // An even quarter takes the mean of its two middle samples.
        let sixteen: Vec<Duration> = (1..=16).map(ms).collect();
        assert_eq!(quiet(&sixteen), ms(2) + ms(1) / 2);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tabhere");
        assert_eq!(json_escape("plain/label_1"), "plain/label_1");
    }
}
