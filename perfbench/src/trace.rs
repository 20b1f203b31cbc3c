//! In-memory spans recorded around the benchmark's calls into each
//! layer: name, start, end, parent, and how many operations the span
//! covers. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished (or open) span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operations (windows, calls) the span covers.
    pub ops: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            ops: 1,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Closes a span that covered `ops` operations.
    pub fn end_ops(&mut self, id: usize, ops: u64) {
        self.spans[id].ops = ops;
        self.end(id);
    }

    /// Times `f` as one span covering `ops` operations.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        ops: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end_ops(id, ops);
        out
    }

    /// Per layer name: (self time in ns, operations). Self time is a
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.1 += span.ops;
        }
        out
    }

    /// Total (not self) time in ns of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per operation in ns for `name`; NaN when absent.
    pub fn per_op_ns(&self, name: &str) -> f64 {
        match self.self_times().get(name) {
            Some(&(ns, ops)) if ops > 0 => ns as f64 / ops as f64,
            _ => f64::NAN,
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"ops\": {}}}",
                s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.spans = vec![
            span("window", 0, 100, None),
            span("observe", 10, 50, Some(0)),
            span("metrics", 60, 70, Some(0)),
            span("observe", 200, 230, None),
        ];
        let times = tr.self_times();
        assert_eq!(times["window"], (50, 1));
        assert_eq!(times["observe"], (70, 2));
        assert_eq!(tr.per_op_ns("observe"), 35.0);
        assert_eq!(tr.total_ns("window"), 100);
        assert!(tr.per_op_ns("absent").is_nan());
    }
}
