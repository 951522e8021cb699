//! Everything that knows the `ps-serve` wire format and process protocol:
//! starting and stopping the server child, the pipelined closed-loop client,
//! and parsing replies. It lives in this one file so that a later benchmark
//! issue can swap it when the codec changes.

use crate::gen::{draw_digits, Request, Rng};
use crate::kernels::{answer, pipeline, Expected};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Requests each connection keeps in flight (the server is started with a
/// matching `--inflight`). Pipelining keeps both cores busy, so the
/// figures are CPU cost per request rather than wake-up luck.
pub const WINDOW: usize = 8;

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// A `ps-serve listen` child on a kernel-chosen loopback port.
pub struct Server {
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Start the server and wait for its `listening on <addr>` handshake.
    /// `trace_out` turns the server's own `ps-trace` rings on.
    pub fn start(bin: &Path, trace_out: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args(["listen", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--inflight", &WINDOW.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| other(format!("cannot start {}: {e}", bin.display())))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let handshake = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        handshake?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => server.addr = addr.to_string(),
            // Dropping `server` kills and reaps the child.
            None => return Err(other(format!("unexpected handshake `{}`", line.trim()))),
        }
        Ok(server)
    }

    /// The server's `stats` reply line.
    pub fn stats(&self) -> io::Result<String> {
        let mut conn = Client::connect(&self.addr)?;
        let mut line = String::new();
        conn.round_trip("stats", &mut line)?;
        conn.send("quit")?;
        Ok(line)
    }

    /// `VmHWM` of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
            .ok_or_else(|| other("no VmHWM for the server process"))
    }

    /// Ask the server to drain and exit, and wait until it has.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = Client::connect(&self.addr)?;
        let mut line = String::new();
        conn.round_trip("shutdown", &mut line)?;
        if line.trim() != "ok bye" {
            return Err(other(format!("shutdown answered `{}`", line.trim())));
        }
        let status = self.child.wait()?;
        if !status.success() {
            return Err(other(format!("server exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for Server {
    /// Never leave a server behind: a no-op after a clean `shutdown`,
    /// otherwise (an error path) kill and reap.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn push(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.push(line)?;
        self.writer.flush()
    }

    /// Read one reply line into `buf` (cleared first, terminator kept off).
    pub fn recv(&mut self, buf: &mut String) -> io::Result<()> {
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(other("server closed the connection"));
        }
        if buf.pop() != Some('\n') {
            return Err(other("connection dropped mid-reply"));
        }
        Ok(())
    }

    pub fn round_trip(&mut self, line: &str, buf: &mut String) -> io::Result<()> {
        self.send(line)?;
        self.recv(buf)
    }
}

/// How a timed reply is checked against the native kernels.
enum Check {
    /// Every output depends on the varied scalar: parse the whole reply
    /// and compare it bit for bit with the kernel's answer.
    Whole,
    /// Only the first output element does (`pipeline` is pointwise): the
    /// reply must equal, byte for byte around that element, a reply that
    /// passed the whole check during set-up, and the element must equal the
    /// kernel's bit for bit. Parsing 256 reals per reply would cost the
    /// client half of what the request costs the server.
    FirstElement { head: String, tail: String },
}

/// One pool entry ready to send: its line split around the varied scalar,
/// and how to check a reply.
pub struct Entry {
    pub request: Request,
    head: String,
    tail: String,
    check: Check,
}

impl Entry {
    /// Send `request` once over `conn` with `digits` and check the whole
    /// reply against the native kernel; an entry only exists if it passed.
    pub fn verified(request: Request, digits: u64, conn: &mut Client) -> io::Result<Entry> {
        let (head, tail) = request.line_around_varied();
        let mut entry = Entry {
            request,
            head,
            tail,
            check: Check::Whole,
        };
        entry.push(digits, conn)?;
        conn.writer.flush()?;
        let mut reply = String::new();
        conn.recv(&mut reply)?;
        if !entry.reply_ok(&reply, digits) {
            return Err(other(format!(
                "{} answered `{reply:.80}`, not the native reference",
                entry.request.program()
            )));
        }
        if let Request::Pipeline { .. } = entry.request {
            let first = reply.find("=@").and_then(|at| {
                let colon = at + reply[at..].match_indices(':').nth(1)?.0;
                Some((colon + 1, colon + reply[colon..].find(',')?))
            });
            let (from, to) = first.ok_or_else(|| other("no first element in a verified reply"))?;
            entry.check = Check::FirstElement {
                head: reply[..from].to_string(),
                tail: reply[to..].to_string(),
            };
        }
        Ok(entry)
    }

    fn push(&self, digits: u64, conn: &mut Client) -> io::Result<()> {
        conn.writer.write_all(self.head.as_bytes())?;
        conn.writer
            .write_all(self.request.varied_text(digits).as_bytes())?;
        conn.writer.write_all(self.tail.as_bytes())?;
        conn.writer.write_all(b"\n")
    }

    /// Whether `reply` answers this entry sent with `digits`.
    fn reply_ok(&self, reply: &str, digits: u64) -> bool {
        let request = self.request.vary(digits);
        match (&self.check, &request) {
            (Check::FirstElement { head, tail }, Request::Pipeline { xs }) => reply
                .strip_prefix(head.as_str())
                .and_then(|rest| rest.strip_suffix(tail.as_str()))
                .and_then(|first| first.parse::<f64>().ok())
                .is_some_and(|got| got.to_bits() == pipeline(&xs[..1])[0].to_bits()),
            _ => reply_matches(reply, &answer(&request)),
        }
    }
}

/// What one client thread observed: per request, when it was sent and when
/// its reply arrived (ns since the phase epoch), and how many replies were
/// wrong or missing.
#[derive(Default)]
pub struct ClientRun {
    pub sent_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    pub failed: u64,
}

/// Drive `count` requests over one connection, closed loop, `WINDOW` in
/// flight: the next request leaves only when a reply has come back.
/// Request `i` is `entries[order[(first + i) % order.len()]]` with digits
/// freshly drawn from `rng`, and its reply is checked against the native
/// kernels. An I/O error counts every unanswered request as failed.
pub fn drive(
    conn: &mut Client,
    entries: &[Entry],
    order: &[usize],
    first: usize,
    count: u64,
    epoch: Instant,
    rng: &mut Rng,
) -> ClientRun {
    let mut run = ClientRun {
        sent_ns: Vec::with_capacity(count as usize),
        done_ns: Vec::with_capacity(count as usize),
        failed: 0,
    };
    let mut in_flight: VecDeque<(usize, u64)> = VecDeque::with_capacity(WINDOW);
    let mut reply = String::new();
    let mut sent = 0u64;
    let result: io::Result<()> = (|| {
        while (run.done_ns.len() as u64) < count {
            while sent < count && in_flight.len() < WINDOW {
                let which = order[(first + sent as usize) % order.len()];
                let digits = draw_digits(rng);
                run.sent_ns.push(epoch.elapsed().as_nanos() as u64);
                entries[which].push(digits, conn)?;
                in_flight.push_back((which, digits));
                sent += 1;
            }
            conn.writer.flush()?;
            conn.recv(&mut reply)?;
            run.done_ns.push(epoch.elapsed().as_nanos() as u64);
            let (which, digits) = in_flight.pop_front().expect("a reply implies a request");
            if !entries[which].reply_ok(&reply, digits) {
                run.failed += 1;
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("client: {e}");
        run.failed += count - run.done_ns.len() as u64;
        run.sent_ns.truncate(run.done_ns.len());
    }
    run
}

/// Whether `reply` is `ok <name>=<value>` carrying exactly the expected
/// value, compared bit for bit after parsing (the server formats reals in
/// shortest round-trip form, so parsing recovers the exact bits).
pub fn reply_matches(reply: &str, expected: &Expected) -> bool {
    let Some(body) = reply.strip_prefix("ok ") else {
        return false;
    };
    let Some((name, value)) = body.split_once('=') else {
        return false;
    };
    if value.contains(' ') {
        return false;
    }
    match expected {
        Expected::Scalar(want_name, want) => {
            name == *want_name
                && value
                    .parse::<f64>()
                    .is_ok_and(|v| v.to_bits() == want.to_bits())
        }
        Expected::Array(want_name, want_lo, want) => {
            let Some(rest) = value.strip_prefix('@') else {
                return false;
            };
            let mut parts = rest.splitn(3, ':');
            let lo = parts.next().and_then(|s| s.parse::<i64>().ok());
            let hi = parts.next().and_then(|s| s.parse::<i64>().ok());
            let Some(elems) = parts.next() else {
                return false;
            };
            let got: Option<Vec<f64>> = elems.split(',').map(|s| s.parse().ok()).collect();
            name == *want_name
                && lo == Some(*want_lo)
                && hi == Some(*want_lo + want.len() as i64 - 1)
                && got.is_some_and(|g| crate::kernels::same_bits(&g, want))
        }
    }
}

/// `key=value` from a stats reply line.
pub fn stat_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_compared_bit_for_bit() {
        let scalar = Expected::Scalar("final", 1.5);
        assert!(reply_matches("ok final=1.5", &scalar));
        assert!(!reply_matches("ok final=1.5000000000000002", &scalar));
        assert!(!reply_matches("ok other=1.5", &scalar));
        assert!(!reply_matches("err deadline exceeded", &scalar));
        assert!(!reply_matches("ok final=1.5 extra=2", &scalar));
        let array = Expected::Array("uT", 0, vec![1.0, 0.1, -2.5]);
        assert!(reply_matches("ok uT=@0:2:1.0,0.1,-2.5", &array));
        assert!(!reply_matches("ok uT=@1:3:1.0,0.1,-2.5", &array));
        assert!(!reply_matches("ok uT=@0:1:1.0,0.1", &array));
        assert!(!reply_matches(
            "ok uT=@0:2:1.0,0.10000000000000002,-2.5",
            &array
        ));
    }

    #[test]
    fn stats_fields_are_found_by_key() {
        let line = "ok requests=12 rejected=0 batches=5 stages=queue_wait:12:3:9,solve:12:4:8";
        assert_eq!(stat_field(line, "requests"), Some("12"));
        assert_eq!(stat_field(line, "batches"), Some("5"));
        assert_eq!(stat_field(line, "missing"), None);
    }
}
