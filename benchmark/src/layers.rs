//! The traced run: every layer measured from outside, by timing calls into
//! the crates' public functions with `ps_trace` enabled, never mixed into
//! the end-to-end numbers. One pass walks all five workloads at a quarter
//! of the slices and emits every per-layer row. Each workload first runs an
//! untraced twin with the same counts: the two quiet rates give
//! `trace.overhead_share.<workload>`, and the twin gives the whole-run
//! `<workload>.ops_per_s` / `op_p50_us` rows.

use crate::compile::{self, SweepCounts};
use crate::report::Rows;
use crate::serve::{client_threads, InProcess};
use crate::stats::median;
use crate::stencil::{Problem, Stencil};
use crate::trace::{Tracer, NO_PARENT};
use crate::wire::stat_field;
use crate::workloads::{plan, Env, Kind, Length, Plan, Running, Samples};
use ps_core::ps_trace::{self, Stage};
use ps_core::{proto, Executor, PoolStatsSnapshot};
use std::time::Instant;

/// Ops timed for a side measurement (native kernel, sequential twins of a
/// parallel workload); the figure is their median.
const SIDE_OPS: u64 = 12;

pub struct Traced {
    pub rows: Rows,
    pub attempted: u64,
    pub failed: u64,
    /// (workload, slices, ops per slice) of each traced phase.
    pub op_counts: Vec<(&'static str, u64, u64)>,
}

struct Section<'a> {
    env: &'a Env,
    seed: u64,
    seconds: u64,
    length: Length,
    tracer: Tracer,
    out: Traced,
    next_op: u64,
}

impl Section<'_> {
    fn plan(&self, kind: Kind) -> Plan {
        plan(kind, self.seconds, self.length)
    }

    fn put(&mut self, name: &str, value: f64) {
        self.out.rows.insert(name.to_string(), value);
    }

    fn account(&mut self, s: &Samples) {
        self.out.attempted += s.attempted;
        self.out.failed += s.failed;
    }

    /// The workload's untraced twin: a set-up of its own, the traced
    /// phase's counts and code path, `ps_trace` off. The whole-run rows,
    /// and an ungated workload's quiet rate, are read off it.
    fn twin(&mut self, kind: Kind) -> Result<Samples, String> {
        let p = self.plan(kind);
        ps_trace::disable();
        let mut w = Running::setup(kind, self.seed, self.env, None)?;
        w.warm(p)?;
        let s = w.measure(p.slices, p.ops_per_slice, 0, Some(&mut Tracer::new()));
        w.finish()?;
        ps_trace::enable();
        self.account(&s);
        self.put(&format!("{}.ops_per_s", kind.name()), s.ops_per_s());
        self.put(&format!("{}.op_p50_us", kind.name()), s.op_p50_us());
        if !kind.gated() {
            self.put(
                &format!("{}.quiet_ops_per_s", kind.name()),
                s.quiet_ops_per_s(),
            );
        }
        Ok(s)
    }

    /// Warm `w` and run its traced phase; emits the tail row and the
    /// overhead row against `twin`.
    fn traced(&mut self, kind: Kind, w: &mut Running, twin: &Samples) -> Result<Samples, String> {
        let p = self.plan(kind);
        w.warm(p)?;
        let s = w.measure(
            p.slices,
            p.ops_per_slice,
            self.next_op,
            Some(&mut self.tracer),
        );
        self.next_op += s.attempted;
        self.account(&s);
        self.out
            .op_counts
            .push((kind.name(), p.slices as u64, p.ops_per_slice));
        self.put(&format!("{}.op_tail_us", kind.name()), s.op_tail_us().1);
        self.put(
            &format!("trace.overhead_share.{}", kind.name()),
            1.0 - s.quiet_ops_per_s() / twin.quiet_ops_per_s(),
        );
        Ok(s)
    }

    /// Median µs over `SIDE_OPS` runs of a side measurement; a wrong result
    /// counts as a failed op.
    fn side(&mut self, mut run: impl FnMut() -> (u64, bool)) -> f64 {
        let us: Vec<f64> = (0..SIDE_OPS)
            .map(|_| {
                let (ns, ok) = run();
                self.out.attempted += 1;
                self.out.failed += u64::from(!ok);
                ns as f64 / 1e3
            })
            .collect();
        median(&us)
    }
}

/// Run the traced pass over all five workloads: `ps_trace` is on
/// throughout, except while a twin runs.
pub fn run(seed: u64, seconds: u64, length: Length, env: &Env) -> Result<Traced, String> {
    std::fs::create_dir_all(&env.out_dir).map_err(|e| e.to_string())?;
    let mut s = Section {
        env,
        seed,
        seconds,
        length,
        tracer: Tracer::new(),
        out: Traced {
            rows: Rows::new(),
            attempted: 0,
            failed: 0,
            op_counts: Vec::new(),
        },
        next_op: 0,
    };
    ps_trace::enable();
    compile_cold(&mut s)?;
    let seq_p50_us = stencil_seq(&mut s)?;
    stencil_par(&mut s, seq_p50_us)?;
    wavefront_par(&mut s)?;
    serve_tcp(&mut s)?;
    ps_trace::disable();

    let path = env.out_dir.join("trace.json");
    std::fs::write(&path, s.tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(s.out)
}

/// Compile layers: µs per sweep of the corpus, from the spans.
fn compile_cold(s: &mut Section) -> Result<(), String> {
    let kind = Kind::CompileCold;
    let twin = s.twin(kind)?;
    let mut w = Running::setup(kind, s.seed, s.env, None)?;
    let first_op = s.next_op;
    s.traced(kind, &mut w, &twin)?;
    let ops = first_op..s.next_op;
    let mut unattributed = s.tracer.micros_per_op("compile.program", ops.clone());
    for layer in compile::LAYERS {
        let layer_us = s.tracer.micros_per_op(layer, ops.clone());
        for (rest, us) in unattributed.iter_mut().zip(&layer_us) {
            *rest -= us;
        }
        s.put(&format!("{layer}_us"), median(&layer_us));
    }
    s.put("compile.unattributed_us", median(&unattributed));

    let Running::Compile(corpus) = &w else {
        unreachable!("compile_cold sets up a corpus")
    };
    let (_, ok, counts) = corpus.sweep_layers(s.next_op, &mut Tracer::new());
    s.out.attempted += 1;
    s.out.failed += u64::from(!ok);
    let SweepCounts {
        source_bytes,
        depgraph_nodes,
        depgraph_edges,
        doall_loops,
        do_loops,
        c_bytes,
        proven_arrays,
    } = counts;
    for (name, count) in [
        ("lang.source_bytes", source_bytes),
        ("depgraph.nodes", depgraph_nodes),
        ("depgraph.edges", depgraph_edges),
        ("scheduler.doall_loops", doall_loops),
        ("scheduler.do_loops", do_loops),
        ("codegen.c_bytes", c_bytes),
        ("analyze.proven_arrays", proven_arrays),
    ] {
        s.put(name, count as f64);
    }
    Ok(())
}

/// The tape interpreter alone, against the native kernel on the same grid.
/// Returns the traced median op time, for `stencil_par`'s speed-up.
fn stencil_seq(s: &mut Section) -> Result<f64, String> {
    let kind = Kind::StencilSeq;
    let twin = s.twin(kind)?;
    let mut w = Running::setup(kind, s.seed, s.env, None)?;
    let samples = s.traced(kind, &mut w, &twin)?;
    s.put("runtime.specialize_us", w.stencil().specialize_us()?);
    let p50_us = samples.op_p50_us();
    let stencil = w.stencil();
    let cells = stencil.cells() as f64;
    let native_us = s.side(|| (stencil.run_native(), true));
    s.put("runtime.ns_per_cell", p50_us * 1e3 / cells);
    s.put("runtime.native_ns_per_cell", native_us * 1e3 / cells);
    s.put("runtime.gap_vs_native", p50_us / native_us);
    Ok(p50_us)
}

/// Executor rows under prefix `prefix` from the pool counters around one
/// traced phase, plus the dispatch cost of an empty region of the phase's
/// mean region size on the same pool.
fn executor_rows(
    s: &mut Section,
    prefix: &str,
    stencil: &Stencil,
    before: PoolStatsSnapshot,
    ops: u64,
) -> f64 {
    let pool = stencil.pool().expect("parallel workloads own a pool");
    let after = pool.stats();
    let delta = |f: fn(&PoolStatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let (regions, chunks, items) = (
        delta(|p| p.regions),
        delta(|p| p.chunks),
        delta(|p| p.items),
    );
    s.put(&format!("{prefix}.regions_per_op"), regions / ops as f64);
    s.put(&format!("{prefix}.chunks_per_op"), chunks / ops as f64);
    s.put(
        &format!("{prefix}.steal_share"),
        delta(|p| p.steals) / chunks.max(1.0),
    );
    s.put(
        &format!("{prefix}.inline_share"),
        delta(|p| p.inline_regions) / regions.max(1.0),
    );

    let region_items = (items / regions.max(1.0)).round().max(2.0) as i64;
    let empty_regions = 2_000;
    let began = Instant::now();
    for _ in 0..empty_regions {
        pool.for_chunks(0, region_items - 1, &|lo, hi| {
            std::hint::black_box((lo, hi));
        });
    }
    let dispatch_ns = began.elapsed().as_nanos() as f64 / empty_regions as f64;
    s.put(&format!("{prefix}.dispatch_ns_per_region"), dispatch_ns);
    items / ops as f64
}

/// A few large DOALL regions per op on the pool.
fn stencil_par(s: &mut Section, seq_p50_us: f64) -> Result<(), String> {
    let kind = Kind::StencilPar;
    let twin = s.twin(kind)?;
    let mut w = Running::setup(kind, s.seed, s.env, None)?;
    let before = w.stencil().pool().expect("stencil_par owns a pool").stats();
    let samples = s.traced(kind, &mut w, &twin)?;
    // Every op since set-up: the first, the warm-up and the timed ones.
    let ops = 1 + s.plan(kind).warmup + samples.attempted;
    executor_rows(s, "executor", w.stencil(), before, ops);
    let speedup = seq_p50_us / samples.op_p50_us();
    s.put("executor.speedup_vs_seq", speedup);
    s.put("executor.efficiency", speedup / client_threads() as f64);
    Ok(())
}

/// The transformed Gauss–Seidel: the same runtime and executor, used
/// through guarded, window-addressed bodies and hundreds of small regions.
fn wavefront_par(s: &mut Section) -> Result<(), String> {
    let kind = Kind::WavefrontPar;
    let twin = s.twin(kind)?;
    let mut w = Running::setup(kind, s.seed, s.env, None)?;
    let before = w
        .stencil()
        .pool()
        .expect("wavefront_par owns a pool")
        .stats();
    let samples = s.traced(kind, &mut w, &twin)?;
    let ops = 1 + s.plan(kind).warmup + samples.attempted;
    let items_per_op = executor_rows(s, "wavefront", w.stencil(), before, ops);
    let cells = w.stencil().cells() as f64;
    s.put("hyperplane.iter_inflation", items_per_op / cells);

    // Sequential twins: the transformed program without the pool, and the
    // untransformed Figure-7 schedule, on the same grid.
    let transformed = Stencil::new(Problem::Wavefront, None, s.seed)?;
    let untransformed = Stencil::new(Problem::GaussSeidel, None, s.seed)?;
    for sequential in [&transformed, &untransformed] {
        if !sequential.run().1 {
            return Err("a sequential twin of wavefront_par is wrong".into());
        }
    }
    let transformed_us = s.side(|| transformed.run());
    let untransformed_us = s.side(|| untransformed.run());
    s.put("hyperplane.ns_per_cell", transformed_us * 1e3 / cells);
    s.put(
        "hyperplane.vs_untransformed",
        transformed_us / untransformed_us,
    );
    let speedup = transformed_us / samples.op_p50_us();
    s.put("wavefront.speedup_vs_seq", speedup);
    s.put("wavefront.efficiency", speedup / client_threads() as f64);
    Ok(())
}

/// One warm request from the socket inwards.
fn serve_tcp(s: &mut Section) -> Result<(), String> {
    let kind = Kind::ServeTcp;
    let twin = s.twin(kind)?;
    let server_trace = s.env.out_dir.join("serve_trace.json");
    let mut w = Running::setup(kind, s.seed, s.env, Some(&server_trace))?;
    let samples = s.traced(kind, &mut w, &twin)?;
    let rtt_us = samples.op_p50_us();
    let Running::Serve(serve) = &w else {
        unreachable!("serve_tcp sets up a server")
    };
    let stats = serve.server().stats().map_err(|e| e.to_string())?;
    let field = |key: &str| -> Result<f64, String> {
        stat_field(&stats, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no `{key}` in the server's stats line"))
    };
    let (hits, compiles) = (field("cache_hits")?, field("compiles")?);
    s.put(
        "service.batch_mean",
        field("responses")? / field("batches")?.max(1.0),
    );
    s.put("service.cache_hit_share", hits / (hits + compiles).max(1.0));
    s.put("service.rejected", field("rejected")?);
    // Shutting down makes the server write its own trace rings out.
    w.finish()?;

    // Stage times at ns resolution from the server's own trace (the stats
    // line carries them in whole µs, too coarse for 2–5 µs stages).
    let text = std::fs::read_to_string(&server_trace)
        .map_err(|e| format!("{}: {e}", server_trace.display()))?;
    // `ps_trace::parse_trace` is quadratic in document size (92 s for this
    // 3.5 MB file); the exporter writes one record per line, so parse
    // line by line.
    let mut records = Vec::new();
    for line in text.lines().map(|l| l.trim_end_matches(',')) {
        if line.starts_with('{') {
            records.extend(ps_trace::parse_trace(&format!("[{line}]"))?);
        }
    }
    let summary = ps_trace::summarize(&records);
    for (row, event) in [
        ("service.queue_wait_us", "queue_wait"),
        ("service.solve_us", "solve"),
        ("service.reply_us", "reply"),
    ] {
        let stage = summary
            .durations
            .iter()
            .find(|d| d.name == event)
            .ok_or_else(|| format!("no `{event}` events in the server's trace"))?;
        s.put(row, stage.p50_us);
    }

    // The same mix without sockets: in-process submit → wait.
    let service = InProcess::new(s.seed);
    let mut lines = Vec::new();
    let mut outputs = Vec::new();
    for (which, (_, request)) in service.pool.iter().enumerate() {
        lines.push(request.line());
        outputs.push(service.solve(which)?);
    }
    let (inproc, stats) = service.drive_all(samples.attempted / 4);
    s.account(&inproc);
    let inproc_us = inproc.op_p50_us();
    s.put("ps_serve.rtt_us", rtt_us);
    s.put("service.inproc_us_per_req", inproc_us);
    s.put("ps_serve.front_end_us", rtt_us - inproc_us);
    s.put(
        "service.specialize_us",
        stats.stages.get(Stage::Specialize).mean_ns() as f64 / 1e3,
    );

    // The codec alone, on the workload's own lines. Costs differ by
    // request kind and every pool entry is equally frequent in the mix, so
    // the row is the mean over entries of each entry's median time.
    let entries = lines.len();
    let (mut parse_us, mut format_us) = (vec![Vec::new(); entries], vec![Vec::new(); entries]);
    for _ in 0..64 {
        for which in 0..entries {
            let op = s.next_op + which as u64;
            let at = s.tracer.spans.len();
            let parsed = s.tracer.call("proto.parse", NO_PARENT, op, || {
                proto::parse_request_limited(&lines[which], 64 * 1024)
            });
            let line = s.tracer.call("proto.format", NO_PARENT, op, || {
                proto::format_outputs(&outputs[which])
            });
            std::hint::black_box((parsed.is_ok(), line.len()));
            parse_us[which].push(s.tracer.spans[at].micros());
            format_us[which].push(s.tracer.spans[at + 1].micros());
        }
    }
    let mix_mean =
        |per_entry: &[Vec<f64>]| per_entry.iter().map(|v| median(v)).sum::<f64>() / entries as f64;
    s.put("proto.parse_us", mix_mean(&parse_us));
    s.put("proto.format_us", mix_mean(&format_us));
    Ok(())
}
