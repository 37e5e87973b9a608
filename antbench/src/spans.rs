//! Benchmark-owned spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program's own `ANT_TRACE` tracing stays off). They
//! are held in memory and written as JSONL when the run ends; per-layer
//! busy and self times are computed from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread. Spans nest through
/// [`Spans::time`]; recorders of other threads merge in with
/// [`Spans::absorb`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Opens a span and returns its id; pair with [`Spans::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open span).
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Moves another thread's spans in; its roots become children of
    /// `parent`. Both recorders must share one origin.
    pub fn absorb(&mut self, other: Spans, parent: Option<usize>) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.id += offset;
            span.parent = match span.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// Busy and self time per span name over the subtree rooted at `root`
    /// (the root itself included), or over every span for `None`. Self
    /// time is a span's duration minus the time its direct children cover.
    pub fn layer_times(&self, root: Option<usize>) -> BTreeMap<&'static str, LayerTime> {
        let first = root.unwrap_or(0);
        let mut inside = vec![root.is_none(); self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents always precede their children, so one forward pass
        // marks the subtree and one pass sums child time.
        if let Some(root) = root {
            for span in &self.spans[root..] {
                inside[span.id] = span.id == root || span.parent.is_some_and(|p| inside[p]);
            }
        }
        for span in &self.spans[first..] {
            if let (true, Some(p)) = (inside[span.id] && Some(span.id) != root, span.parent) {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for span in self.spans[first..].iter().filter(|s| inside[s.id]) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.busy_ns += span.dur_ns();
            entry.self_ns += span.dur_ns().saturating_sub(child_ns[span.id]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, run_id: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run_id}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }
}
