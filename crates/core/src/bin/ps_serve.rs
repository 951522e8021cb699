//! `ps-serve` — the TCP front-end over [`ps_core::Service`], speaking the
//! newline protocol of `ps_service::proto`.
//!
//! ```text
//! ps-serve listen [--addr 127.0.0.1:0] [--workers N] [--solve-threads N]
//!                 [--batch-max N] [--registry-capacity N] [--queue-cap N]
//!                 [--deadline-ms MS] [--drain-timeout SECS]
//!                 [--io-timeout SECS] [--max-frame BYTES] [--inflight N]
//!                 [--chaos SPEC] [--trace-out FILE]
//! ```
//!
//! `listen` prints `listening on <addr>` (with the kernel-chosen port when
//! `--addr` ends in `:0`) and serves until a client sends `shutdown`.
//! Programs are addressed by built-in name (`psc --list`); each
//! connection's requests are answered in order (pipelined up to
//! `--inflight` deep), while the service workers batch across
//! connections. Connections are defended: reads and writes time out after
//! `--io-timeout`, a frame longer than `--max-frame` is answered with a
//! structured error (the oversized bytes are discarded, the connection
//! survives), and malformed lines get an `err` reply instead of a
//! disconnect. `--chaos seed=42,panic=50,slow=100,stall=80,disconnect=40`
//! arms the seeded fault injector across the service *and* the socket
//! layer — the chaos suite's reproducible adversary.
//!
//! `--trace-out FILE` turns on `ps_trace` for the process: every request
//! lifecycle event (frame read, parse, queue, batch, compile, solve,
//! per-chunk executor work, reply) lands in per-thread lock-free rings,
//! and at shutdown the rings are exported as Chrome `trace_event` JSON to
//! FILE — open it in `chrome://tracing`/Perfetto or summarize with the
//! `ps-trace` CLI. The wire `stats` reply additionally carries executor
//! counters (`steals`, `max_live_regions`, `cancelled_chunks`) and the
//! per-stage latency histograms (`stages=...`).
//!
//! The binary is only a server. The client that measures it is the repo
//! benchmark's `serve_tcp` workload (`benchmark/src/wire.rs`); the client
//! the tests drive it with is `tests/serve_harness.rs`.
//!
//! `shutdown` drains **every** live connection, not just the issuing one:
//! the server stops accepting, half-closes the read side of all other
//! connections (in-flight requests still complete and their responses
//! still flush — only the *next* read sees EOF), waits for those
//! connection threads to finish (bounded by `--drain-timeout`), then
//! answers `ok bye` and exits.

use ps_core::{
    programs, proto, FaultInjector, FaultPoint, FaultSpec, ProgramKey, ResponseHandle,
    RuntimeOptions, Service, ServiceOptions, SolveRequest,
};
use ps_trace::{EvKind, Phase};
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Live-connection table for the graceful cross-connection drain.
///
/// Each connection thread registers a `try_clone` handle on accept and
/// deregisters on exit. The first `shutdown` command flips `draining`
/// (new connections are refused), half-closes every *other* connection's
/// read side — their in-flight frame still completes and its response
/// flushes, because only the read direction is shut — and waits for the
/// table to drain down to the issuing connection.
struct ConnTable {
    conns: Mutex<HashMap<u64, TcpStream>>,
    changed: Condvar,
    draining: AtomicBool,
    next_id: AtomicU64,
    /// Budget for `wait_drained` (`--drain-timeout`).
    drain_timeout: Duration,
}

impl ConnTable {
    fn new(drain_timeout: Duration) -> ConnTable {
        ConnTable {
            conns: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            drain_timeout,
        }
    }

    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let handle = stream.try_clone().ok()?;
        self.conns
            .lock()
            .expect("connection table poisoned")
            .insert(id, handle);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.conns
            .lock()
            .expect("connection table poisoned")
            .remove(&id);
        self.changed.notify_all();
    }

    /// First caller wins the drain coordinator role; later `shutdown`
    /// commands just close their own connection.
    fn begin_drain(&self, me: u64) -> bool {
        if self
            .draining
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        let conns = self.conns.lock().expect("connection table poisoned");
        for (&id, stream) in conns.iter() {
            if id != me {
                // Half-close: the peer's in-flight request still gets its
                // response; its next read returns EOF and the connection
                // thread exits cleanly.
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        true
    }

    /// Block until only connection `me` remains (bounded by the drain
    /// timeout: a connection wedged in a pathological solve cannot hold
    /// the exit hostage forever).
    fn wait_drained(&self, me: u64) {
        let deadline = Instant::now() + self.drain_timeout;
        let mut conns = self.conns.lock().expect("connection table poisoned");
        while !conns.keys().all(|&id| id == me) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                eprintln!("shutdown: drain timed out; exiting with connections live");
                return;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(conns, left)
                .expect("connection table poisoned");
            conns = guard;
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         ps-serve listen [--addr 127.0.0.1:0] [--workers N] [--solve-threads N]\n\
         \x20                [--batch-max N] [--registry-capacity N] [--queue-cap N]\n\
         \x20                [--deadline-ms MS] [--drain-timeout SECS]\n\
         \x20                [--io-timeout SECS] [--max-frame BYTES] [--inflight N]\n\
         \x20                [--chaos seed=S,panic=P,slow=P,compile=P,compile_panic=P,stall=P,disconnect=P]\n\
         \x20                [--trace-out FILE]"
    );
    std::process::exit(2)
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            usage()
        })
        .clone()
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag}: `{s}` is not a number");
        usage()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("listen") => listen(&args[1..]),
        _ => usage(),
    }
}

/// Per-connection defence knobs shared by every connection thread.
struct ConnLimits {
    /// Socket read/write timeout; a peer silent (or unwritable) this long
    /// is dropped.
    io_timeout: Duration,
    /// Longest accepted request line, in bytes. Longer frames get an
    /// `err` reply and are discarded without unbounded buffering.
    max_frame: usize,
    /// Responses a connection may have in flight before the reader stops
    /// pulling new requests off the socket (pipelining depth).
    inflight: usize,
}

fn listen(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut options = ServiceOptions::default();
    let mut limits = ConnLimits {
        io_timeout: Duration::from_secs(30),
        max_frame: 64 * 1024,
        inflight: 4,
    };
    let mut chaos = FaultInjector::disabled();
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take_value(args, &mut i, "--addr"),
            "--trace-out" => trace_out = Some(take_value(args, &mut i, "--trace-out")),
            "--workers" => {
                options.workers = parse_num(&take_value(args, &mut i, "--workers"), "--workers")
            }
            "--solve-threads" => {
                options.solve_threads = parse_num(
                    &take_value(args, &mut i, "--solve-threads"),
                    "--solve-threads",
                )
            }
            "--batch-max" => {
                options.batch_max =
                    parse_num(&take_value(args, &mut i, "--batch-max"), "--batch-max")
            }
            "--registry-capacity" => {
                options.registry_capacity = parse_num(
                    &take_value(args, &mut i, "--registry-capacity"),
                    "--registry-capacity",
                )
            }
            "--queue-cap" => {
                options.queue_cap =
                    parse_num(&take_value(args, &mut i, "--queue-cap"), "--queue-cap")
            }
            "--deadline-ms" => {
                let ms = parse_num(&take_value(args, &mut i, "--deadline-ms"), "--deadline-ms");
                options.default_deadline = (ms > 0).then(|| Duration::from_millis(ms as u64));
            }
            "--drain-timeout" => {
                options.drain_timeout = Duration::from_secs(parse_num(
                    &take_value(args, &mut i, "--drain-timeout"),
                    "--drain-timeout",
                ) as u64)
            }
            "--io-timeout" => {
                limits.io_timeout = Duration::from_secs(parse_num(
                    &take_value(args, &mut i, "--io-timeout"),
                    "--io-timeout",
                ) as u64)
            }
            "--max-frame" => {
                limits.max_frame =
                    parse_num(&take_value(args, &mut i, "--max-frame"), "--max-frame").max(64)
            }
            "--inflight" => {
                limits.inflight =
                    parse_num(&take_value(args, &mut i, "--inflight"), "--inflight").max(1)
            }
            "--chaos" => {
                let spec = take_value(args, &mut i, "--chaos");
                match FaultSpec::parse(&spec) {
                    Ok(spec) => chaos = FaultInjector::new(spec),
                    Err(e) => {
                        eprintln!("error: --chaos: {e}");
                        usage()
                    }
                }
            }
            other => {
                eprintln!("error: unknown flag `{other}`");
                usage()
            }
        }
        i += 1;
    }
    // One injector drives both layers: the service draws the worker-side
    // points (panic, slow, compile), the connection writers draw the
    // socket-side points (stall, disconnect) — all from one seed.
    options.faults = chaos.clone();
    let drain_timeout = options.drain_timeout;
    if trace_out.is_some() {
        ps_trace::enable();
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener.local_addr().expect("bound socket has an address");
    // The port line is the startup handshake scripts wait for.
    println!("listening on {local}");
    std::io::stdout().flush().ok();

    let service = Arc::new(Service::new(options));
    // Program names resolve to built-in sources; keys are precomputed so
    // the per-request path does no hashing of source text.
    let keys: Arc<HashMap<&'static str, ProgramKey>> = Arc::new(
        programs::ALL
            .iter()
            .map(|&(name, src)| (name, ProgramKey::new(src, RuntimeOptions::default())))
            .collect(),
    );

    let limits = Arc::new(limits);
    let chaos = Arc::new(chaos);
    let trace_out = Arc::new(trace_out);
    let table = Arc::new(ConnTable::new(drain_timeout));
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        // Refuse connections accepted after a drain began (the drain
        // coordinator exits the process; until then, just close).
        if table.draining.load(Ordering::SeqCst) {
            drop(stream);
            continue;
        }
        let Some(id) = table.register(&stream) else {
            continue;
        };
        let service = Arc::clone(&service);
        let keys = Arc::clone(&keys);
        let table = Arc::clone(&table);
        let limits = Arc::clone(&limits);
        let chaos = Arc::clone(&chaos);
        let trace_out = Arc::clone(&trace_out);
        std::thread::spawn(move || {
            let flow = serve_connection(stream, &service, &keys, &table, &limits, &chaos, id);
            table.deregister(id);
            if flow == Flow::Shutdown {
                // This thread won the drain: every other connection has
                // finished its in-flight frames and closed (see
                // `ConnTable`), so the process can end — after flushing
                // the trace rings, while the service still lives.
                if let Some(path) = trace_out.as_deref() {
                    match ps_trace::write_chrome_trace(path) {
                        Ok(n) => eprintln!("trace: wrote {n} events to {path}"),
                        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
                    }
                }
                std::process::exit(0);
            }
        });
    }
    ExitCode::SUCCESS
}

#[derive(PartialEq)]
enum Flow {
    Closed,
    Shutdown,
}

/// One frame pulled off a connection.
enum Frame {
    Line(String),
    /// The line exceeded the frame limit; `0` bytes of it were kept. The
    /// payload is how much was buffered when the limit tripped.
    Oversized(usize),
    Closed,
}

/// A bounded, timeout-aware line reader: buffers at most `max_frame`
/// bytes looking for a newline; past it, the frame is reported oversized
/// and its remainder discarded (up to a hard budget) so one hostile line
/// cannot balloon memory or kill the connection.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    fn next_frame(&mut self) -> Frame {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                if pos > self.max_frame {
                    // The newline arrived in the same read burst as the
                    // oversized payload: the whole frame is already
                    // buffered, so discarding is just dropping it.
                    self.buf.drain(..=pos);
                    return Frame::Oversized(pos);
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Frame::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.buf.len() > self.max_frame {
                let had = self.buf.len();
                return if self.discard_to_newline() {
                    Frame::Oversized(had)
                } else {
                    Frame::Closed
                };
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Frame::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                // Read timeout or socket error: drop the connection. A
                // peer that goes silent mid-frame is indistinguishable
                // from a dead one.
                Err(_) => return Frame::Closed,
            }
        }
    }

    /// Swallow the rest of an oversized frame so the *next* line can be
    /// served. Bounded: a peer streaming more than 8× the frame limit
    /// with no newline is cut off instead of drained forever.
    fn discard_to_newline(&mut self) -> bool {
        let mut discarded = 0usize;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                self.buf.drain(..=pos);
                return true;
            }
            discarded = discarded.saturating_add(self.buf.len());
            self.buf.clear();
            if discarded > self.max_frame.saturating_mul(8) {
                return false;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => return false,
            }
        }
    }
}

/// One queued reply, written strictly in submission order.
enum Reply {
    Line(String),
    /// A pipelined solve; the writer blocks on the handle when its turn
    /// comes, so slow solves never reorder responses.
    Solve(ResponseHandle),
}

fn serve_connection(
    stream: TcpStream,
    service: &Service,
    keys: &HashMap<&'static str, ProgramKey>,
    table: &ConnTable,
    limits: &ConnLimits,
    chaos: &FaultInjector,
    my_id: u64,
) -> Flow {
    let _ = stream.set_read_timeout(Some(limits.io_timeout));
    let _ = stream.set_write_timeout(Some(limits.io_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return Flow::Closed;
    };
    let Ok(ctl) = stream.try_clone() else {
        return Flow::Closed;
    };
    // Writer thread: replies leave in submission order while the reader
    // keeps pulling requests — pipelining bounded by the in-flight cap
    // (the sync_channel depth). `dead` flips when the socket broke, so
    // the reader stops parsing requests whose replies can never land.
    let dead = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::sync_channel::<Reply>(limits.inflight);
    let writer = {
        let dead = Arc::clone(&dead);
        let chaos = chaos.clone();
        let stages = service.stages();
        std::thread::spawn(move || writer_loop(&write_half, &rx, &chaos, &dead, &stages))
    };
    let mut frames = FrameReader {
        stream,
        buf: Vec::new(),
        max_frame: limits.max_frame,
    };
    let mut flow = Flow::Closed;
    loop {
        if dead.load(Ordering::Relaxed) {
            break;
        }
        let line = match frames.next_frame() {
            Frame::Closed => break,
            Frame::Oversized(len) => {
                // Malformed-frame recovery: answer, keep the connection.
                let err = proto::format_error(&format!(
                    "frame exceeds {} bytes (got {len} and counting); request dropped",
                    limits.max_frame
                ));
                if tx.send(Reply::Line(err)).is_err() {
                    break;
                }
                continue;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        ps_trace::emit(
            EvKind::FrameRead,
            Phase::Instant,
            0,
            line.len() as u64,
            my_id,
        );
        let parse_t0 = ps_trace::enabled().then(Instant::now);
        let parsed = proto::parse_request_limited(&line, limits.max_frame);
        if let Some(t0) = parse_t0 {
            ps_trace::emit(
                EvKind::Parse,
                Phase::Complete,
                0,
                t0.elapsed().as_nanos() as u64,
                my_id,
            );
        }
        let reply = match parsed {
            Err(msg) => Reply::Line(proto::format_error(&msg)),
            Ok(proto::WireCommand::Quit) => break,
            Ok(proto::WireCommand::Shutdown) => {
                flow = Flow::Shutdown;
                break;
            }
            Ok(proto::WireCommand::Stats) => Reply::Line(stats_line(service, chaos)),
            Ok(proto::WireCommand::Solve { program, inputs }) => {
                match keys.get(program.trim_start_matches('@')) {
                    None => Reply::Line(proto::format_error(&format!(
                        "unknown program `{program}` (try psc --list)"
                    ))),
                    // Submit without waiting: the writer resolves the
                    // handle when this reply's turn comes.
                    Some(key) => {
                        Reply::Solve(service.submit(SolveRequest::new(key.clone(), inputs)))
                    }
                }
            }
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
    // Let the writer flush every reply accepted so far (quit and shutdown
    // both promise in-flight responses), then close or coordinate.
    drop(tx);
    let _ = writer.join();
    if flow == Flow::Shutdown {
        let coordinator = table.begin_drain(my_id);
        if coordinator {
            // Every other connection finishes its in-flight frames and
            // closes before we acknowledge.
            table.wait_drained(my_id);
        }
        let mut w = BufWriter::new(ctl);
        let _ = writeln!(w, "ok bye");
        let _ = w.flush();
        if coordinator {
            return Flow::Shutdown;
        }
        // A concurrent shutdown already owns the drain; just acknowledge
        // and close this connection.
    }
    Flow::Closed
}

fn writer_loop(
    stream: &TcpStream,
    rx: &Receiver<Reply>,
    chaos: &FaultInjector,
    dead: &AtomicBool,
    stages: &ps_trace::StageSet,
) {
    let mut writer = BufWriter::new(stream);
    let mut broken = false;
    for reply in rx.iter() {
        if broken {
            // Keep draining so the reader can never wedge on a full
            // channel; dropped solve handles resolve in the service and
            // are simply discarded.
            continue;
        }
        let (line, span) = match reply {
            Reply::Line(line) => (line, 0),
            Reply::Solve(handle) => {
                let span = handle.trace_span();
                let line = match handle.wait() {
                    Ok(outputs) => proto::format_outputs(&outputs),
                    Err(e) => proto::format_error(&e.to_string()),
                };
                (line, span)
            }
        };
        // Reply stage: serialization already happened above; time the
        // write + flush (the socket side of answering), per solve reply.
        let reply_t0 = ps_trace::enabled().then(Instant::now);
        if chaos.should_fire(FaultPoint::SocketStall) {
            ps_trace::emit(
                EvKind::Fault,
                Phase::Instant,
                span,
                ps_trace::label_if_enabled("socket_stall"),
                0,
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        if chaos.should_fire(FaultPoint::MidFrameDisconnect) {
            // A hostile server-side death: half the reply, then the
            // socket drops. Clients must treat the partial line as a
            // failed request and retry on a fresh connection.
            ps_trace::emit(
                EvKind::Fault,
                Phase::Instant,
                span,
                ps_trace::label_if_enabled("mid_frame_disconnect"),
                0,
            );
            let _ = writer.write_all(&line.as_bytes()[..line.len() / 2]);
            let _ = writer.flush();
            let _ = stream.shutdown(Shutdown::Both);
            broken = true;
            dead.store(true, Ordering::Relaxed);
            continue;
        }
        if writeln!(writer, "{line}")
            .and_then(|_| writer.flush())
            .is_err()
        {
            broken = true;
            dead.store(true, Ordering::Relaxed);
        }
        if let Some(t0) = reply_t0 {
            let took = t0.elapsed();
            ps_trace::emit(
                EvKind::Reply,
                Phase::Complete,
                span,
                took.as_nanos() as u64,
                span,
            );
            if span != 0 {
                stages.record(ps_trace::Stage::Reply, took);
            }
        }
    }
}

fn stats_line(service: &Service, chaos: &FaultInjector) -> String {
    let s = service.stats();
    let mut line = format!(
        "ok requests={} rejected={} responses={} errors={} panics={} deadline_expired={} \
         batches={} max_batch={} queue_depth={} compiles={} cache_hits={} \
         cache_evictions={} p50_us={} p99_us={}",
        s.requests,
        s.rejected,
        s.responses,
        s.errors,
        s.panics,
        s.deadline_expired,
        s.batches,
        s.max_batch,
        s.queue_depth,
        s.compiles,
        s.cache_hits,
        s.cache_evictions,
        s.p50.as_micros(),
        s.p99.as_micros()
    );
    // Executor-level counters (the shared solve pool, when one exists):
    // proof of overlap, stealing, and genuine cancellation under load.
    if let Some(pool) = service.pool_stats() {
        line.push_str(&format!(
            " steals={} max_live_regions={} cancelled_chunks={}",
            pool.steals, pool.max_live_regions, pool.cancelled_chunks
        ));
    }
    // Per-stage latency histograms (populated while tracing is on).
    line.push_str(&format!(" stages={}", s.stages.wire_form()));
    if chaos.is_enabled() {
        line.push_str(&format!(" chaos={}", chaos.summary()));
    }
    line
}
