//! Estimators. The box is a shared 2-vCPU VM on which the same binary's
//! per-op time wanders by tens of percent in phases lasting seconds to
//! minutes. Interference only ever adds time, so the gated throughput is
//! read off the quieter part of a run: the timed phase is cut into slices
//! of a fixed op count and [`quiet_rate`] takes the median of the fastest
//! quarter. The whole-run medians are reported beside it, ungated.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the A/A table reads the same as the driver's own check.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Ops per second of each consecutive slice of `ops_per_slice`
/// completions. `done_s[i]` is when op `i` completed (seconds since the
/// phase began, any order: several threads may complete ops at once). A
/// slice runs from the previous slice's last completion to its own; a
/// ragged tail is dropped.
pub fn slice_rates(done_s: &[f64], ops_per_slice: usize) -> Vec<f64> {
    let mut done = done_s.to_vec();
    done.sort_by(f64::total_cmp);
    let mut began = 0.0;
    done.chunks_exact(ops_per_slice)
        .map(|chunk| {
            let ended = *chunk.last().expect("chunks_exact yields full chunks");
            let rate = ops_per_slice as f64 / (ended - began).max(1e-12);
            began = ended;
            rate
        })
        .collect()
}

/// The rate of a phase's quieter stretches: the median of the fastest
/// quarter of its slice rates (of all of them, if there are fewer than
/// four) — the slice rate's 87.5th percentile. A change that slows the
/// program shows here unless it leaves an eighth of the slices, each
/// several ops long, untouched; a neighbour that slows seven eighths of
/// the run does not.
pub fn quiet_rate(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v.truncate((v.len() / 4).max(1));
    median(&v)
}

/// The tail row: the highest percentile that still has at least ten
/// samples beyond it, from a fixed ladder. Returns `(percentile, value)`;
/// with fewer than 20 samples even p50 has under ten beyond it and the
/// maximum is reported as p100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    // In hundredths of a percent, so ranks are exact integers.
    const LADDER: [usize; 5] = [9999, 9990, 9900, 9500, 9000];
    let n = sorted.len();
    for p in LADDER {
        let rank = (p * n).div_ceil(10_000);
        if rank >= 1 && n - rank >= 10 {
            return (p as f64 / 100.0, sorted[rank - 1]);
        }
    }
    if n >= 20 {
        return (50.0, sorted[n.div_ceil(2) - 1]);
    }
    (100.0, *sorted.last().expect("tail of no samples"))
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak RSS of process `pid` ("self" for this process), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_mb(&status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn completions_cut_into_fixed_count_slices() {
        // Seven completions out of order, three per slice: two slices, the
        // ragged seventh dropped.
        let done = [0.4, 0.1, 0.2, 0.3, 0.9, 0.5, 1.0];
        let rates = slice_rates(&done, 3);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 3.0 / 0.3).abs() < 1e-9);
        assert!((rates[1] - 3.0 / 0.6).abs() < 1e-9);
    }

    #[test]
    fn interference_on_under_half_a_run_does_not_move_the_median_slice_rate() {
        // 20 slices of 2 ops at 10 ops/s; then the same run with 9 of the
        // slices slowed threefold.
        let run = |slow: usize| -> Vec<f64> {
            let mut t = 0.0;
            (0..40)
                .map(|op| {
                    t += if op / 2 < slow { 0.3 } else { 0.1 };
                    t
                })
                .collect()
        };
        let undisturbed = median(&slice_rates(&run(0), 2));
        assert!((undisturbed - 10.0).abs() < 1e-9);
        assert!((median(&slice_rates(&run(9), 2)) - undisturbed).abs() < 1e-9);
        // Ops over wall time would have dropped by almost half.
        assert!(40.0 / run(9)[39] < 0.6 * undisturbed);
    }

    #[test]
    fn the_quiet_rate_ignores_interference_but_not_a_slower_program() {
        // 40 slices at rate 10, then the same run with 30 of them slowed.
        let mut run = vec![10.0; 40];
        assert_eq!(quiet_rate(&run), 10.0);
        for r in &mut run[..30] {
            *r = 6.0;
        }
        assert_eq!(quiet_rate(&run), 10.0);
        assert_eq!(median(&run), 6.0);
        // One freak fast slice does not set the figure.
        run.push(14.0);
        assert_eq!(quiet_rate(&run), 10.0);
        // A program a tenth slower everywhere is seen in full.
        assert_eq!(quiet_rate(&[9.0; 40]), 9.0);
        // Fewer than four slices: the fastest one.
        assert_eq!(quiet_rate(&[4.0, 2.0]), 4.0);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail(&ramp(10)), (100.0, 10.0));
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        assert_eq!(tail(&ramp(280)), (95.0, 266.0));
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(10_000)), (99.9, 9990.0));
        assert_eq!(tail(&ramp(400_000)), (99.99, 399_960.0));
        // Every choice leaves at least ten samples beyond it.
        for n in [20, 99, 100, 199, 200, 999, 1000, 5000] {
            let v = ramp(n);
            let (_, x) = tail(&v);
            assert!(v.iter().filter(|&&y| y > x).count() >= 10, "n = {n}");
        }
    }

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status =
            "Name:\tps-serve\nVmPeak:\t  123456 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(5.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert!(peak_rss_mb("self").expect("linux exposes VmHWM") > 0.0);
    }
}
