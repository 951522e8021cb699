//! The five workloads behind one interface: set up, run a timed phase of
//! fixed-count slices, report peak memory, shut down. The full run, the
//! traced run, the set-up probe and the smoke run all go through here and
//! differ only in counts.

use crate::compile::CompileCold;
use crate::serve::{client_threads, ServeTcp};
use crate::stats;
use crate::stencil::{Problem, Stencil};
use crate::trace::{Span, Tracer, NO_PARENT};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    CompileCold,
    StencilSeq,
    StencilPar,
    WavefrontPar,
    ServeTcp,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::CompileCold,
        Kind::StencilSeq,
        Kind::StencilPar,
        Kind::WavefrontPar,
        Kind::ServeTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CompileCold => "compile_cold",
            Kind::StencilSeq => "stencil_seq",
            Kind::StencilPar => "stencil_par",
            Kind::WavefrontPar => "wavefront_par",
            Kind::ServeTcp => "serve_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Ops per second of timed phase **at the commit that defined the
    /// benchmark**, on its 2-vCPU box. A constant, never re-measured: ops
    /// per slice derive from it and `--seconds` alone, so two commits
    /// given the same `--seconds` do identical work.
    fn ops_per_second(self) -> f64 {
        match self {
            Kind::CompileCold => 280.0,
            Kind::StencilSeq => 14.0,
            Kind::StencilPar => 24.0,
            Kind::WavefrontPar => 17.0,
            Kind::ServeTcp => 44_000.0,
        }
    }

    /// Ops per slice: ≈ 35–350 ms of work, at least five ops, so that a
    /// cost paid every few ops lands in every slice.
    fn ops_per_slice(self) -> u64 {
        match self {
            Kind::CompileCold => 10,
            Kind::StencilSeq | Kind::StencilPar | Kind::WavefrontPar => 5,
            Kind::ServeTcp => 2_000,
        }
    }

    /// Whether `BENCHMARK.json` lists the workload, so that its end-to-end
    /// metrics gate later changes. The three workloads that keep both vCPUs
    /// busy are measured and printed like the others, but their run-to-run
    /// spread on this box exceeds any bound worth having (see `AA.md`), so
    /// their figures are per-layer rows.
    pub fn gated(self) -> bool {
        matches!(self, Kind::CompileCold | Kind::StencilSeq)
    }

    /// Warm-up ops between the first verified op and the timed phase,
    /// sized so a set-up probe takes ≈ 0.3–0.5 s at the defining commit.
    fn warmup_ops(self) -> u64 {
        match self {
            Kind::CompileCold => 100,
            Kind::StencilSeq => 4,
            Kind::StencilPar => 7,
            Kind::WavefrontPar => 4,
            Kind::ServeTcp => 10_000,
        }
    }
}

/// Coarse slices behind the whole-run `ops_per_s` row (the median of their
/// rates), whatever the run's length.
const COARSE_SLICES: usize = 20;

/// How long one phase is, in counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    pub slices: usize,
    pub ops_per_slice: u64,
    pub warmup: u64,
    /// Fresh child processes timed for `setup_s`.
    pub probes: usize,
}

/// Which run the counts are for.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Length {
    /// Slices filling `--seconds` at the defining commit.
    Full,
    /// The traced run: a quarter of the slices.
    Quarter,
    /// One slice and one probe: every code path, quickly.
    Smoke,
}

pub fn plan(kind: Kind, seconds: u64, length: Length) -> Plan {
    // serve_tcp splits a slice evenly over its client threads.
    let threads = match kind {
        Kind::ServeTcp => client_threads() as u64,
        _ => 1,
    };
    let ops_per_slice = kind.ops_per_slice().next_multiple_of(threads);
    let full = (kind.ops_per_second() * seconds as f64 / ops_per_slice as f64).round() as usize;
    let (slices, warmup, probes) = match length {
        Length::Full => (full, kind.warmup_ops(), 7),
        Length::Quarter => (full.div_ceil(4), kind.warmup_ops(), 0),
        Length::Smoke => (1, ops_per_slice, 1),
    };
    Plan {
        slices: slices.max(1),
        ops_per_slice,
        warmup: warmup.next_multiple_of(threads),
        probes,
    }
}

/// Paths the workloads need: the `ps-serve` binary and the output directory.
pub struct Env {
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// What a timed phase observed.
pub struct Samples {
    /// Latency of every timed op, µs (per request on `serve_tcp`).
    pub op_us: Vec<f64>,
    /// When each op completed, seconds since the phase began (same order
    /// as `op_us`).
    pub done_s: Vec<f64>,
    pub ops_per_slice: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// `quiet_ops_per_s`: the rate of the phase's quieter stretches (see
    /// [`stats::quiet_rate`]).
    pub fn quiet_ops_per_s(&self) -> f64 {
        stats::quiet_rate(&stats::slice_rates(
            &self.done_s,
            self.ops_per_slice as usize,
        ))
    }

    /// `ops_per_s`: the median rate of the phase cut into `COARSE_SLICES`
    /// slices, so an interference phase covering under half the run cannot
    /// move it.
    pub fn ops_per_s(&self) -> f64 {
        let coarse = (self.done_s.len() / COARSE_SLICES).max(1);
        stats::median(&stats::slice_rates(&self.done_s, coarse))
    }

    /// `op_p50_us`: the median latency over every timed op.
    pub fn op_p50_us(&self) -> f64 {
        stats::median(&self.op_us)
    }

    /// Highest percentile with at least ten samples beyond it.
    pub fn op_tail_us(&self) -> (f64, f64) {
        let mut sorted = self.op_us.clone();
        sorted.sort_by(f64::total_cmp);
        stats::tail(&sorted)
    }
}

/// A workload that has been set up and can run ops.
pub enum Running {
    Compile(CompileCold),
    Stencil(Box<Stencil>),
    Serve(ServeTcp),
}

impl Running {
    /// Generate inputs from `seed` → compile → build the artifact → start
    /// the pool / server. `server_trace` (serve_tcp only) turns the server's
    /// own tracing on and names its trace file.
    pub fn setup(
        kind: Kind,
        seed: u64,
        env: &Env,
        server_trace: Option<&Path>,
    ) -> Result<Running, String> {
        let nproc = client_threads();
        let stencil = |problem, threads| -> Result<Running, String> {
            Ok(Running::Stencil(Box::new(Stencil::new(
                problem, threads, seed,
            )?)))
        };
        Ok(match kind {
            Kind::CompileCold => Running::Compile(CompileCold::new(seed)?),
            Kind::StencilSeq => stencil(Problem::Jacobi, None)?,
            Kind::StencilPar => stencil(Problem::Jacobi, Some(nproc))?,
            Kind::WavefrontPar => stencil(Problem::Wavefront, Some(nproc))?,
            Kind::ServeTcp => Running::Serve(ServeTcp::new(seed, &env.serve_bin, server_trace)?),
        })
    }

    /// The first op, verified, then the warm-up; any failure aborts.
    pub fn warm(&mut self, plan: Plan) -> Result<(), String> {
        let first = match self {
            Running::Serve(_) => client_threads() as u64,
            _ => 1,
        };
        for ops in [first, plan.warmup] {
            let warm = self.measure(1, ops, 0, None);
            if warm.failed > 0 {
                return Err(format!("{} of {ops} warm-up ops failed", warm.failed));
            }
        }
        Ok(())
    }

    /// One timed phase: `slices × ops_per_slice` back-to-back ops, every
    /// op checked. Op ids count from `first_op`. With a tracer, each call
    /// into a crate is recorded as a span, and `compile_cold` goes through
    /// the crates layer by layer instead of through `ps_core::compile`.
    pub fn measure(
        &mut self,
        slices: usize,
        ops_per_slice: u64,
        first_op: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Samples {
        let mut samples = Samples {
            op_us: Vec::with_capacity(slices * ops_per_slice as usize),
            done_s: Vec::with_capacity(slices * ops_per_slice as usize),
            ops_per_slice,
            attempted: slices as u64 * ops_per_slice,
            failed: 0,
        };
        if let Running::Serve(serve) = self {
            // Requests complete on several threads at once; slices are cut
            // afterwards from the merged completion times.
            let epoch = tracer.as_ref().map_or_else(Instant::now, |t| t.epoch());
            let began_ns = epoch.elapsed().as_nanos() as u64;
            let runs = serve.drive_all(samples.attempted, epoch);
            for (thread, run) in runs.iter().enumerate() {
                samples.failed += run.failed;
                for (i, (&sent, &done)) in run.sent_ns.iter().zip(&run.done_ns).enumerate() {
                    samples.op_us.push((done - sent) as f64 / 1e3);
                    samples.done_s.push((done - began_ns) as f64 / 1e9);
                    if let Some(t) = tracer.as_deref_mut() {
                        t.spans.push(Span {
                            name: "ps_serve.request",
                            start_ns: sent,
                            end_ns: done,
                            parent: NO_PARENT,
                            op: first_op + i as u64 * runs.len() as u64 + thread as u64,
                            thread: thread as u32 + 1,
                        });
                    }
                }
            }
            return samples;
        }
        let phase_began = Instant::now();
        for op in first_op..first_op + samples.attempted {
            let (ns, ok) = match (&*self, tracer.as_deref_mut()) {
                (Running::Compile(c), None) => c.sweep(op),
                (Running::Compile(c), Some(t)) => {
                    let (ns, ok, _) = c.sweep_layers(op, t);
                    (ns, ok)
                }
                (Running::Stencil(s), None) => s.run(),
                (Running::Stencil(s), Some(t)) => {
                    let start_ns = t.now_ns();
                    let (ns, ok) = s.run();
                    t.spans.push(Span {
                        name: "runtime.run",
                        start_ns,
                        end_ns: start_ns + ns,
                        parent: NO_PARENT,
                        op,
                        thread: 0,
                    });
                    (ns, ok)
                }
                (Running::Serve(_), _) => unreachable!("handled above"),
            };
            samples.op_us.push(ns as f64 / 1e3);
            samples.failed += u64::from(!ok);
            samples.done_s.push(phase_began.elapsed().as_secs_f64());
        }
        samples
    }

    /// The stencil behind the three stencil workloads.
    ///
    /// # Panics
    /// On `compile_cold` and `serve_tcp`.
    pub fn stencil(&self) -> &Stencil {
        match self {
            Running::Stencil(s) => s,
            _ => panic!("not a stencil workload"),
        }
    }

    /// `VmHWM` of the process that runs the program: this one, or the
    /// `ps-serve` child.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        match self {
            Running::Serve(s) => s.server().peak_rss_mb().map_err(|e| e.to_string()),
            _ => stats::peak_rss_mb("self").ok_or_else(|| "no VmHWM for this process".into()),
        }
    }

    /// Stop what `setup` started and wait for it (only `serve_tcp` has
    /// anything to stop).
    pub fn finish(self) -> Result<(), String> {
        match self {
            Running::Serve(s) => s.finish(),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_never_with_time() {
        let p = plan(Kind::StencilSeq, 30, Length::Full);
        assert_eq!((p.slices, p.ops_per_slice, p.probes), (84, 5, 7));
        assert_eq!(plan(Kind::StencilSeq, 10, Length::Full).slices, 28);
        let c = plan(Kind::CompileCold, 30, Length::Full);
        assert_eq!((c.slices, c.ops_per_slice), (840, 10));
        assert_eq!(plan(Kind::StencilSeq, 30, Length::Quarter).slices, 21);
        let smoke = plan(Kind::StencilSeq, 30, Length::Smoke);
        assert_eq!((smoke.slices, smoke.ops_per_slice, smoke.probes), (1, 5, 1));
        // A 1-second run still does whole slices.
        assert!(plan(Kind::StencilSeq, 1, Length::Quarter).slices >= 1);
        let threads = client_threads() as u64;
        for length in [Length::Full, Length::Quarter, Length::Smoke] {
            let p = plan(Kind::ServeTcp, 30, length);
            assert_eq!(p.ops_per_slice % threads, 0);
            assert_eq!(p.warmup % threads, 0);
        }
        for k in Kind::ALL {
            assert!(k.ops_per_slice() >= 5);
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
    }

    #[test]
    fn a_small_phase_of_each_in_process_workload_is_correct() {
        let env = Env {
            serve_bin: PathBuf::new(),
            out_dir: PathBuf::new(),
        };
        for kind in [Kind::CompileCold, Kind::StencilSeq, Kind::WavefrontPar] {
            let mut w = Running::setup(kind, 5, &env, None).expect("sets up");
            let s = w.measure(2, 2, 0, None);
            assert_eq!((s.attempted, s.failed), (4, 0), "{kind:?}");
            assert_eq!((s.op_us.len(), s.done_s.len()), (4, 4));
            assert!(s.quiet_ops_per_s() > 0.0 && s.ops_per_s() > 0.0 && s.op_p50_us() > 0.0);
            assert!(w.peak_rss_mb().unwrap() > 0.0);
            w.finish().unwrap();
        }
    }
}
