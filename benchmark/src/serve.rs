//! `serve_tcp`: a `ps-serve listen` child on loopback, driven closed loop
//! by `nproc` client threads (one connection each, `wire::WINDOW` requests
//! in flight per connection) with a seeded mix of tiny solves — so frame
//! read, `proto` parse/format, queueing, registry hits, micro-batching and
//! the reply threads do most of the work. Every request carries a freshly
//! drawn scalar and every reply is checked against the native kernels, so
//! a server that remembered replies would gain nothing. Also the same mix through an
//! in-process `Service`, for the traced run's front-end row.

use crate::gen::{draw_digits, request_mix, Mix, Request, Rng};
use crate::kernels::{answer, same_bits, Expected};
use crate::wire::{drive, Client, ClientRun, Entry, Server, WINDOW};
use crate::workloads::Samples;
use ps_core::{
    programs, Outputs, ProgramKey, RuntimeOptions, Service, ServiceOptions, ServiceStats,
    SolveRequest,
};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// Client threads and connections: one per hardware thread.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The generator each client thread draws its requests' digits from.
fn thread_rng(seed: u64, thread: usize) -> Rng {
    Rng::new(seed ^ (0xD161_7500 + thread as u64))
}

pub struct ServeTcp {
    server: Server,
    entries: Vec<Entry>,
    order: Vec<usize>,
    /// One connection and one digit generator per client thread.
    conns: Vec<(Client, Rng)>,
}

impl ServeTcp {
    /// Generate the mix, start the server, connect, and verify one reply
    /// per pool entry against its native reference.
    pub fn new(seed: u64, serve_bin: &Path, trace_out: Option<&Path>) -> Result<ServeTcp, String> {
        let Mix { pool, order } = request_mix(seed);
        let server = Server::start(serve_bin, trace_out).map_err(|e| e.to_string())?;
        let mut conns = Vec::new();
        for thread in 0..client_threads() {
            let conn = Client::connect(&server.addr).map_err(|e| e.to_string())?;
            conns.push((conn, thread_rng(seed, thread)));
        }
        let mut entries = Vec::new();
        for request in pool {
            let (conn, rng) = &mut conns[0];
            entries
                .push(Entry::verified(request, draw_digits(rng), conn).map_err(|e| e.to_string())?);
        }
        Ok(ServeTcp {
            server,
            entries,
            order,
            conns,
        })
    }

    /// Send `total` requests, split evenly over the client threads, and
    /// return each thread's observations (times relative to `epoch`).
    pub fn drive_all(&mut self, total: u64, epoch: Instant) -> Vec<ClientRun> {
        let threads = self.conns.len();
        let per_thread = total / threads as u64;
        let (entries, order) = (&self.entries, &self.order);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(t, (conn, rng))| {
                    // Threads start at different points of the cycle.
                    let first = t * order.len() / threads;
                    scope.spawn(move || drive(conn, entries, order, first, per_thread, epoch, rng))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Close the connections, then stop the server and wait for it.
    pub fn finish(mut self) -> Result<(), String> {
        for (conn, _) in &mut self.conns {
            let _ = conn.send("quit");
        }
        drop(self.conns);
        self.server.shutdown().map_err(|e| e.to_string())
    }
}

fn outputs_match(out: &Outputs, expected: &Expected) -> bool {
    match expected {
        Expected::Scalar(name, want) => out
            .scalars
            .get(*name)
            .is_some_and(|v| matches!(v, ps_core::Value::Real(r) if r.to_bits() == want.to_bits())),
        Expected::Array(name, lo, want) => out.arrays.get(*name).is_some_and(|a| {
            a.dims == [(*lo, *lo + want.len() as i64 - 1)] && same_bits(a.as_real_slice(), want)
        }),
    }
}

/// The mix prepared for in-process use: registry keys beside the pool.
pub struct InProcess {
    service: Service,
    seed: u64,
    pub pool: Vec<(ProgramKey, Request)>,
    order: Vec<usize>,
}

impl InProcess {
    pub fn new(seed: u64) -> InProcess {
        let Mix { pool, order } = request_mix(seed);
        let service = Service::new(ServiceOptions {
            workers: 2,
            ..Default::default()
        });
        let pool = pool
            .into_iter()
            .map(|request| {
                let source = programs::ALL
                    .iter()
                    .find(|(name, _)| *name == request.program())
                    .expect("builtin exists")
                    .1;
                (ProgramKey::new(source, RuntimeOptions::default()), request)
            })
            .collect();
        InProcess {
            service,
            seed,
            pool,
            order,
        }
    }

    /// One verified solve of pool entry `which` (set-up and `proto` rows).
    pub fn solve(&self, which: usize) -> Result<Outputs, String> {
        let (key, request) = &self.pool[which];
        let out = self
            .service
            .solve(key, request.inputs())
            .map_err(|e| e.to_string())?;
        if !outputs_match(&out, &answer(request)) {
            return Err(format!("pool entry {which} differs from its reference"));
        }
        Ok(out)
    }

    /// `total` requests through `Service::submit` → `wait`, from the same
    /// number of threads and with the same window as the TCP clients.
    /// Returns the samples and the service's counters afterwards.
    pub fn drive_all(&self, total: u64) -> (Samples, ServiceStats) {
        let threads = client_threads();
        let per_thread = total / threads as u64;
        let began = Instant::now();
        let per: Vec<(Vec<f64>, Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || self.drive(t, threads, per_thread, began)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter thread panicked"))
                .collect()
        });
        let mut samples = Samples {
            op_us: Vec::new(),
            done_s: Vec::new(),
            // One slice: only latencies are read off these samples.
            ops_per_slice: per_thread * threads as u64,
            attempted: per_thread * threads as u64,
            failed: 0,
        };
        for (op_us, done_s, failed) in per {
            samples.op_us.extend(op_us);
            samples.done_s.extend(done_s);
            samples.failed += failed;
        }
        (samples, self.service.stats())
    }

    fn drive(
        &self,
        thread: usize,
        threads: usize,
        count: u64,
        began: Instant,
    ) -> (Vec<f64>, Vec<f64>, u64) {
        let first = thread * self.order.len() / threads;
        let mut rng = thread_rng(self.seed, thread);
        let mut op_us = Vec::with_capacity(count as usize);
        let mut done_s = Vec::with_capacity(count as usize);
        let mut failed = 0;
        let mut in_flight = VecDeque::with_capacity(WINDOW);
        let mut sent = 0u64;
        while (op_us.len() as u64) < count {
            while sent < count && in_flight.len() < WINDOW {
                let (key, base) =
                    &self.pool[self.order[(first + sent as usize) % self.order.len()]];
                let request = base.vary(draw_digits(&mut rng));
                let inputs = request.inputs();
                let started = Instant::now();
                let handle = self.service.submit(SolveRequest::new(key.clone(), inputs));
                in_flight.push_back((request, started, handle));
                sent += 1;
            }
            let (request, started, handle) = in_flight.pop_front().expect("window is not empty");
            let result = handle.wait();
            op_us.push(started.elapsed().as_nanos() as f64 / 1e3);
            done_s.push(began.elapsed().as_secs_f64());
            if !result.is_ok_and(|out| outputs_match(&out, &answer(&request))) {
                failed += 1;
            }
        }
        (op_us, done_s, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_in_process_mix_is_verified_against_the_native_kernels() {
        let svc = InProcess::new(1987);
        for which in 0..svc.pool.len() {
            svc.solve(which).expect("matches its reference");
        }
        let (samples, stats) = svc.drive_all(200);
        assert_eq!(samples.failed, 0);
        assert_eq!(samples.op_us.len() as u64, samples.attempted);
        assert_eq!(samples.op_us.len(), samples.done_s.len());
        assert!(stats.cache_hits > 0);
    }
}
