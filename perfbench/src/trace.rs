//! The benchmark's own span records, taken around calls into each layer's
//! public functions. Spans are kept in memory and written as JSON lines
//! when the run ends; nothing here reaches inside the program.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: its layer name, the case it belongs to, and the span
/// that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub case: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread. Recorders of several
/// threads that share an `origin` merge with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, case: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            case,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, case: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, case);
        let value = f();
        self.end(span);
        value
    }

    /// Records a span whose duration was measured elsewhere (a figure a
    /// public report carries), ending now, under the innermost open span.
    pub fn record(&mut self, name: &'static str, case: u64, nanos: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            case,
            parent: self.open.last().copied(),
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
        });
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Milliseconds of the most recent span named `name` (0 if none).
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.nanos() as f64 / 1e6)
    }

    /// Moves another thread's spans in, re-basing their parent links;
    /// its top-level spans become children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base).or(parent);
            span
        }));
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean milliseconds per span named `name` (0 when there is none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_ms(name) / n as f64
        }
    }

    /// Share of the time of spans named `root` that no child span covers:
    /// their summed self time over their summed duration. Children that
    /// ran in parallel count once for the interval they cover together.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let (mut total, mut own) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if span.name != root {
                continue;
            }
            let intervals = &mut children[i];
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            total += span.nanos();
            own += span.nanos().saturating_sub(covered);
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"case\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.case, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
