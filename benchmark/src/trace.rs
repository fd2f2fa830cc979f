//! In-memory spans around the probes' calls into each layer, written
//! out as JSON lines when the traced run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call (or loop of `n` identical calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one replayed batch share this id; 0 outside a replay.
    pub batch: u64,
    /// Calls the span covers: per-call cost is its duration over `n`.
    pub n: u64,
}

/// Span storage for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` and records it as a span covering `n` calls; returns
    /// the span's index (for children to name as parent) and `f`'s
    /// result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: u64,
        n: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent,
            batch,
            n,
        });
        (id, result)
    }

    /// The calls the span at `id` covers; set after the fact by loops
    /// that only know their iteration count once their budget is spent.
    pub fn set_calls(&mut self, id: usize, n: u64) {
        self.spans[id].n = n;
    }

    /// `(duration, calls covered)` of the span at `id`.
    pub fn span(&self, id: usize) -> (u64, u64) {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns, s.n)
    }

    /// `(total duration, calls covered)` over every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + s.n))
    }

    /// Self time of the spans named `name`: their duration minus their
    /// direct children's.
    pub fn self_ns(&self, name: &str) -> u64 {
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, children)| dur(s).saturating_sub(children))
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"batch\":{},\"n\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch, s.n
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "pool.apply_batch",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                batch: 1,
                n: 8,
            },
            Span {
                name: "storage.execute_batch",
                start_ns: 200,
                end_ns: 260,
                parent: Some(0),
                batch: 1,
                n: 8,
            },
            Span {
                name: "pool.apply_batch",
                start_ns: 300,
                end_ns: 350,
                parent: None,
                batch: 2,
                n: 8,
            },
        ];
        assert_eq!(t.total("pool.apply_batch"), (150, 16));
        assert_eq!(t.self_ns("pool.apply_batch"), 90);
        assert_eq!(t.self_ns("storage.execute_batch"), 60);
    }
}
