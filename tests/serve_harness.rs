//! The TCP client the `ps-serve` suites (`serve_tcp`, `chaos`) drive the
//! server with: a `ps-serve listen` child on an ephemeral port, line-level
//! connections to it, a reader for the `stats` reply's `key=value` fields,
//! and the one reconnect-and-retry request loop for servers whose socket
//! layer is under chaos.
//!
//! Included per-suite via `#[path = "serve_harness.rs"] mod serve_harness;`
//! the way `generators.rs` is — each integration test is its own crate.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A listening `ps-serve` child whose port was parsed from the startup
/// handshake line. Killed on drop so a failing test cannot leak servers.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    pub fn spawn(extra_args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ps-serve"))
            .arg("listen")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ps-serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let banner = BufReader::new(stdout)
            .lines()
            .next()
            .expect("ps-serve prints a startup line")
            .expect("readable startup line");
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        Server { child, addr }
    }

    pub fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("connect to ps-serve");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }

    /// Run `each` on `clients` threads at once, each with its own
    /// connection and its client index; returns the results in client
    /// order.
    pub fn on_clients<T: Send>(
        &self,
        clients: usize,
        each: impl Fn(usize, &mut Client) -> T + Sync,
    ) -> Vec<T> {
        std::thread::scope(|scope| {
            let each = &each;
            let threads: Vec<_> = (0..clients)
                .map(|c| scope.spawn(move || each(c, &mut self.connect())))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread"))
                .collect()
        })
    }

    /// Send `line` on `conn` and return its reply. A connection the server
    /// dropped (EOF, a socket error, or a partial line from a mid-frame
    /// disconnect) is redialled into `conn` and the line re-sent, up to
    /// `attempts` sends in all.
    pub fn request(&self, conn: &mut Client, line: &str, attempts: u32) -> String {
        for attempt in 0..attempts {
            if attempt > 0 {
                *conn = self.connect();
            }
            if let Some(reply) = conn.try_request(line) {
                return reply;
            }
        }
        panic!("`{line}`: no answer in {attempts} attempts");
    }

    /// Wait (bounded) for the server process to exit and return its
    /// success flag.
    pub fn wait_exit(&mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.success();
            }
            assert!(
                Instant::now() < deadline,
                "ps-serve did not exit after shutdown"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct Client {
    pub reader: BufReader<TcpStream>,
    pub writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().expect("flush request");
    }

    pub fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection mid-conversation");
        line.trim_end().to_string()
    }

    /// The next read must observe a clean EOF (the server closed us).
    pub fn expect_eof(&mut self) {
        let mut buf = [0u8; 64];
        let n = self.reader.read(&mut buf).expect("read at EOF");
        assert_eq!(n, 0, "expected EOF, got {:?}", &buf[..n]);
    }

    /// Send one line and read its whole reply; `None` when the connection
    /// is unusable.
    fn try_request(&mut self, line: &str) -> Option<String> {
        writeln!(self.writer, "{line}").ok()?;
        self.writer.flush().ok()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).ok()?;
        (n > 0 && reply.ends_with('\n')).then(|| reply.trim_end().to_string())
    }
}

/// The count `key=N` in a `stats` reply; panics naming the key when the
/// server did not report it (e.g. no shared pool → no `steals=`).
pub fn stat_count(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or_else(|| panic!("no numeric {key}= in {line:?}"))
}
