//! Benchmark-side spans: name, start, end, parent and request ID, kept in
//! memory and written once the run ends.

use crate::util::json_str;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records a span that started at `t0` and ends now; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        t0: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Opens a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t0 = Instant::now();
        self.record(name, t0, parent, 0)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Every span as JSON, one object per line.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "  {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}",
                    json_str(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.req
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}
