//! In-memory spans and the sample statistics the metrics are built from.
//!
//! Every timed call in the benchmark goes through [`Tracer::op`] (one root
//! span per end-to-end operation) and [`Tracer::span`] (one child span per
//! call into a layer's public functions). Both always time their closure,
//! because the end-to-end metrics are those timings; only a tracer built
//! with `on = true` also records the spans, which [`Tracer::write_jsonl`]
//! writes out when the run ends. A record carries its operation id, its
//! own id, its parent's id, its name and its start and end in nanoseconds
//! since the tracer was built, so a span's self time is its duration minus
//! the part of it its children cover.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct SpanRec {
    op: u64,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    /// Open spans, innermost last: `(op, id)`.
    stack: Vec<(u64, u64)>,
    next_id: u64,
    next_op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            next_op: 0,
        }
    }

    /// Run `f` as the root span of a new operation; returns its result and
    /// wall time.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, Duration) {
        assert!(
            self.stack.is_empty(),
            "operation {name} opened inside another"
        );
        self.next_op += 1;
        let op = self.next_op;
        self.timed(name, op, None, f)
    }

    /// Run `f` as a child span of the innermost open span; returns its
    /// result and wall time.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let (op, parent) = *self.stack.last().expect("a span runs inside an operation");
        self.timed(name, op, Some(parent), |_| f())
    }

    fn timed<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Duration) {
        self.next_id += 1;
        let id = self.next_id;
        self.stack.push((op, id));
        let t0 = Instant::now();
        let out = f(self);
        let t1 = Instant::now();
        self.stack.pop();
        if self.on {
            self.spans.push(SpanRec {
                op,
                id,
                parent,
                name,
                start_ns: t0.duration_since(self.origin).as_nanos(),
                end_ns: t1.duration_since(self.origin).as_nanos(),
            });
        }
        (out, t1 - t0)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans, one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut spans: Vec<&SpanRec> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Timing samples of one quantity, in the unit they are reported in.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `q` in `(0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "percentile of no samples");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        assert!(!self.0.is_empty(), "median of no samples");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }
}
