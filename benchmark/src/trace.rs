//! The benchmark's own span recorder: one span (name, start, end, parent,
//! op id) around each public call the traced run makes into a crate. Spans
//! stay in memory until the run ends, then go to `benchmark/out/trace.json`
//! in Chrome `trace_event` form (open in Perfetto or `chrome://tracing`).
//! Spans inside the program are `ps-trace`'s business, not this module's.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in [`Tracer::spans`]; `NO_PARENT` for a root.
pub type SpanId = usize;
pub const NO_PARENT: SpanId = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The op (sweep, run, request) this span belongs to; spans of one op
    /// share it.
    pub op: u64,
    /// Recording thread (0 = main; client threads count from 1).
    pub thread: u32,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            thread: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span around one call and return the call's result.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// The instant span times count from; client threads time against it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Per op, the summed duration (µs) of that op's spans called `name`,
    /// in op order. A layer called once per corpus program sums to its
    /// cost per sweep.
    pub fn micros_per_op(&self, name: &str, ops: std::ops::Range<u64>) -> Vec<f64> {
        let mut sums = vec![0.0; (ops.end - ops.start) as usize];
        for s in self.spans.iter().filter(|s| s.name == name) {
            if ops.contains(&s.op) {
                sums[(s.op - ops.start) as usize] += s.micros();
            }
        }
        sums
    }

    /// Chrome `trace_event` JSON: complete (`X`) events, `ts`/`dur` in µs,
    /// `args` carrying the span's id, parent id (-1 for a root) and op id.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 8);
        out.push_str("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.op
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_sum_per_op_and_export_valid_json() {
        let mut t = Tracer::new();
        for op in 0..2u64 {
            let root = t.begin("sweep", NO_PARENT, op);
            for _ in 0..3 {
                t.call("layer", root, op, || std::hint::black_box(1 + 1));
            }
            t.end(root);
        }
        assert_eq!(t.spans.iter().filter(|s| s.name == "layer").count(), 6);
        let per_op = t.micros_per_op("layer", 0..2);
        assert_eq!(per_op.len(), 2);
        let root = &t.spans[0];
        let kids: f64 = t.spans[1..4].iter().map(Span::micros).sum();
        assert!(kids <= root.micros(), "children fit inside their parent");
        assert!((per_op[0] - kids).abs() < 1e-9);
        let json = t.to_json();
        let records = ps_core::ps_trace::parse_trace(&json).expect("valid trace_event JSON");
        assert_eq!(records.len(), 8);
        assert!(json.contains("\"parent\":-1") && json.contains("\"parent\":0"));
    }
}
