//! End-to-end TCP tests for the `ps-serve` front-end: concurrent round
//! trips checked byte for byte against in-process runs, a traced server on
//! a solve pool whose export the `ps-trace` CLI accepts, and the graceful
//! cross-connection shutdown drain — `shutdown` must stop accepting, let
//! every live connection finish its in-flight frame, and only then
//! acknowledge and exit.

#[path = "serve_harness.rs"]
mod serve_harness;

use ps_core::{compile, programs, proto, CompileOptions, Program, RuntimeOptions, Sequential};
use serve_harness::{stat_count, Server};
use std::io::BufRead;
use std::process::Command;
use std::time::{Duration, Instant};

/// Two client threads, each on its own connection, send 16 solve lines
/// for `program` with `n` cycling over 8..=24 after `params`. Returns
/// every (request, reply) pair.
fn two_clients_solve(server: &Server, program: &str, params: &str) -> Vec<(String, String)> {
    let per_client = server.on_clients(2, |client, c| {
        (0..16)
            .map(|r| {
                let n = 8 + (client * 31 + r) % 17;
                let line = format!("solve {program} {params}n={n}");
                c.send(&line);
                let reply = c.read_line();
                (line, reply)
            })
            .collect::<Vec<_>>()
    });
    per_client.into_iter().flatten().collect()
}

/// Assert every reply equals, byte for byte, what `ps-serve` formats for
/// an in-process `Program::run` of the same request line.
fn assert_replies_exact(source: &str, exchanges: &[(String, String)]) {
    let comp = compile(source, CompileOptions::default()).expect("builtin compiles");
    let program = Program::compile(&comp, RuntimeOptions::default());
    for (line, reply) in exchanges {
        let Ok(proto::WireCommand::Solve { inputs, .. }) = proto::parse_request(line) else {
            panic!("`{line}` is a solve line");
        };
        let outputs = program.run(&inputs, &Sequential).expect("in-process run");
        assert_eq!(*reply, proto::format_outputs(&outputs), "reply to `{line}`");
    }
}

/// The `stats` reply, from a fresh probe connection.
fn stats_line(server: &Server) -> String {
    let mut c = server.connect();
    c.send("stats");
    c.read_line()
}

#[test]
fn solve_round_trip_over_tcp() {
    let mut server = Server::spawn(&[]);
    let mut c = server.connect();
    c.send("solve recurrence_1d rate=0.5 n=4");
    let reply = c.read_line();
    // balance[4] = 1.5^3
    assert_eq!(reply, "ok final=3.375");
    c.send("badcmd");
    assert!(c.read_line().starts_with("err "), "junk gets an err line");
    c.send("quit");
    c.expect_eof();
    let mut d = server.connect();
    d.send("shutdown");
    assert_eq!(d.read_line(), "ok bye");
    assert!(server.wait_exit(), "clean exit after shutdown");
}

#[test]
fn shutdown_drains_the_other_connections_in_flight_request() {
    // One service worker so the slow solve occupies the server while the
    // shutdown arrives on a different connection.
    let mut server = Server::spawn(&["--workers", "1"]);

    // Client B fires a slow request (an 8M-element recurrence takes long
    // enough to still be in flight below) and leaves it pending.
    let mut b = server.connect();
    b.send("solve recurrence_1d rate=0.0000001 n=8000000");

    // Wait until the server demonstrably *accepted* B's request: the
    // connection thread submits synchronously, so once the counter moves
    // the frame is in flight server-side.
    let deadline = Instant::now() + Duration::from_secs(30);
    while stat_count(&stats_line(&server), "requests") < 1 {
        assert!(
            Instant::now() < deadline,
            "server never accepted the slow request"
        );
        std::thread::yield_now();
    }

    // Client A asks for shutdown while B's request is in flight.
    let mut a = server.connect();
    a.send("shutdown");

    // B's in-flight request still completes with a full response...
    let reply = b.read_line();
    assert!(
        reply.starts_with("ok final="),
        "in-flight request was answered, got {reply:?}"
    );
    // ...and only then does B's connection close.
    b.expect_eof();

    // The drain acknowledges A after B finished, and the process exits.
    assert_eq!(a.read_line(), "ok bye");
    assert!(server.wait_exit(), "clean exit after drain");
}

#[test]
fn concurrent_shutdowns_do_not_wedge_the_drain() {
    let mut server = Server::spawn(&[]);
    // Two clients race shutdown: one wins the drain, the other is just
    // acknowledged and closed; the server must still exit.
    let mut a = server.connect();
    let mut b = server.connect();
    a.send("shutdown");
    b.send("shutdown");
    // The drain winner always gets `ok bye` (its frame was read — that is
    // what started the drain — so its socket closes with a clean FIN). The
    // loser gets the acknowledgement, a clean EOF, or a connection reset:
    // if the process exits before its frame was read, the kernel answers
    // the close-with-unread-data with RST. Neither may hang.
    let mut byes = 0;
    for c in [&mut a, &mut b] {
        let mut line = String::new();
        match c.reader.read_line(&mut line) {
            Ok(n) => {
                if n > 0 {
                    assert_eq!(line.trim_end(), "ok bye");
                    byes += 1;
                }
            }
            Err(e) => assert_eq!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset,
                "loser may only fail with a reset, got {e:?}"
            ),
        }
    }
    assert!(byes >= 1, "the drain winner is acknowledged");
    assert!(server.wait_exit(), "clean exit with racing shutdowns");
}

/// Two concurrent clients, 32 `recurrence_1d` solves over 17 distinct
/// sizes: every reply is exactly the in-process answer, nothing errors,
/// and the registry compiles each program once and then hits.
#[test]
fn concurrent_round_trips_match_in_process_runs_and_hit_the_registry() {
    let mut server = Server::spawn(&["--workers", "2"]);
    let exchanges = two_clients_solve(&server, "recurrence_1d", "rate=0.05 ");
    assert_eq!(exchanges.len(), 32);
    assert_replies_exact(programs::RECURRENCE_1D, &exchanges);

    let stats = stats_line(&server);
    assert_eq!(stat_count(&stats, "errors"), 0, "{stats}");
    assert!(
        stat_count(&stats, "cache_hits") >= 1,
        "warm registry: {stats}"
    );

    let mut d = server.connect();
    d.send("shutdown");
    assert_eq!(d.read_line(), "ok bye");
    assert!(server.wait_exit(), "clean exit after the round trips");
}

/// A traced server on a 2-thread solve pool: `table_2d`'s two 1-D
/// `DOALL`s publish regions, the stats line carries the stage histograms
/// and executor counters, and the `--trace-out` export written at
/// shutdown validates and summarizes with no timestamp regressions.
#[test]
fn traced_pool_server_reports_regions_and_exports_a_valid_trace() {
    let trace = format!("{}/serve_tcp_traced.json", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(&trace);
    let mut server = Server::spawn(&[
        "--workers",
        "2",
        "--solve-threads",
        "2",
        "--trace-out",
        &trace,
    ]);
    let exchanges = two_clients_solve(&server, "table_2d", "");
    assert_replies_exact(programs::TABLE_2D, &exchanges);

    let stats = stats_line(&server);
    assert!(stats.contains(" stages="), "per-stage histograms: {stats}");
    assert!(stats.contains(" steals="), "executor counters: {stats}");
    assert!(
        stat_count(&stats, "max_live_regions") >= 1,
        "the pool published a region: {stats}"
    );

    let mut d = server.connect();
    d.send("shutdown");
    assert_eq!(d.read_line(), "ok bye");
    assert!(server.wait_exit(), "clean exit after the traced load");
    let bytes = std::fs::metadata(&trace).expect("trace written").len();
    assert!(bytes > 0, "--trace-out wrote an empty file");

    let ps_trace = |cmd: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_ps-trace"))
            .args([cmd, &trace])
            .output()
            .expect("run ps-trace");
        assert!(out.status.success(), "ps-trace {cmd}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    ps_trace("validate");
    let summary = ps_trace("summarize");
    assert!(summary.contains("ts_regressions=0"), "{summary}");
    assert!(summary.contains("solve"), "{summary}");
}
