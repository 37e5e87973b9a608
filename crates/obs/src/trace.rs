//! The global trace sink: env-gated, thread-safe, JSONL-emitting.
//!
//! Tracing is off by default and costs one relaxed atomic load per check.
//! It turns on either from `ANT_OBS=trace` (writing
//! `<experiments_dir>/<stem>.trace.jsonl`; `ANT_OBS=pairs` adds hot
//! per-pair detail events) or programmatically via [`install`] (used by
//! tests and by tools that post-process their own trace).
//!
//! Every emitted record is one line of JSON with a fixed envelope:
//!
//! ```json
//! {"kind":"span","name":"phase","ts_us":12,"dur_us":34,
//!  "span":3,"parent":1,"path":"experiment/network/phase",
//!  "fields":{"machine":"ANT","mults":512}}
//! ```
//!
//! `ts_us` is microseconds since the process's trace anchor (first use), so
//! two runs of the same binary are directly diffable.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

use crate::config;
use crate::json::{write_json_string, Value};

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();
static SINK: Mutex<Option<Arc<Sink>>> = Mutex::new(None);
static TRACE_FILE: Mutex<Option<PathBuf>> = Mutex::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds since the process's trace anchor.
pub fn now_us() -> u64 {
    anchor().elapsed().as_micros() as u64
}

/// Allocates a fresh span id (unique per process).
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

fn ensure_init() {
    INIT.call_once(|| {
        anchor();
        let flags = config::flags();
        if !flags.trace {
            return;
        }
        let path = config::sidecar("trace.jsonl");
        match Sink::to_path(&path) {
            Ok(sink) => {
                install_inner(Arc::new(sink), flags.pairs, Some(path.clone()));
                eprintln!("[ant-obs] tracing to {}", path.display());
            }
            Err(err) => {
                eprintln!(
                    "[ant-obs] ANT_OBS=trace set but cannot open {}: {err}",
                    path.display()
                );
            }
        }
    });
}

/// Whether tracing is active. One relaxed load after first use.
pub fn enabled() -> bool {
    ensure_init();
    ENABLED.load(Ordering::Relaxed)
}

/// Whether hot-path detail events (per channel pair) should also be emitted.
/// Always implies [`enabled`].
pub fn detail_enabled() -> bool {
    enabled() && DETAIL.load(Ordering::Relaxed)
}

/// The file currently backing the sink, if it is file-backed.
pub fn trace_file() -> Option<PathBuf> {
    ensure_init();
    TRACE_FILE.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

fn install_inner(sink: Arc<Sink>, detail: bool, path: Option<PathBuf>) {
    *SINK.lock().unwrap_or_else(|p| p.into_inner()) = Some(sink);
    *TRACE_FILE.lock().unwrap_or_else(|p| p.into_inner()) = path;
    DETAIL.store(detail, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Installs `sink` as the process-wide trace sink and enables tracing.
///
/// `detail` additionally enables per-pair detail events. Replaces any sink
/// installed earlier (including one from the environment).
pub fn install(sink: Arc<Sink>, detail: bool) {
    ensure_init();
    install_inner(sink, detail, None);
}

/// Disables tracing and drops the current sink (flushing it first).
pub fn uninstall() {
    ensure_init();
    ENABLED.store(false, Ordering::Relaxed);
    DETAIL.store(false, Ordering::Relaxed);
    let old = SINK.lock().unwrap_or_else(|p| p.into_inner()).take();
    *TRACE_FILE.lock().unwrap_or_else(|p| p.into_inner()) = None;
    if let Some(sink) = old {
        sink.flush();
    }
}

/// Flushes the current sink, if any. File sinks write through on every
/// line already; this exists for symmetry and future buffered sinks.
pub fn flush() {
    let sink = SINK.lock().unwrap_or_else(|p| p.into_inner()).clone();
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// One trace record, borrowed; serialized to a JSONL line by [`emit`].
#[derive(Debug)]
pub struct Event<'a> {
    /// Record kind: `"span"`, `"event"`, `"progress"`, `"metrics"`.
    pub kind: &'a str,
    /// Record name (span name, event name).
    pub name: &'a str,
    /// Span id, for `kind == "span"`.
    pub span: Option<u64>,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Slash-joined ancestry (`"experiment/network/phase"`), for spans.
    pub path: Option<&'a str>,
    /// Span duration in microseconds, for spans.
    pub dur_us: Option<u64>,
    /// Typed payload fields.
    pub fields: &'a [(&'a str, Value)],
}

impl Event<'_> {
    fn to_json_line(&self, ts_us: u64) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        out.push_str("{\"kind\":");
        write_json_string(self.kind, &mut out);
        out.push_str(",\"name\":");
        write_json_string(self.name, &mut out);
        out.push_str(",\"ts_us\":");
        out.push_str(&ts_us.to_string());
        if let Some(dur) = self.dur_us {
            out.push_str(",\"dur_us\":");
            out.push_str(&dur.to_string());
        }
        if let Some(span) = self.span {
            out.push_str(",\"span\":");
            out.push_str(&span.to_string());
        }
        if let Some(parent) = self.parent {
            out.push_str(",\"parent\":");
            out.push_str(&parent.to_string());
        }
        if let Some(path) = self.path {
            out.push_str(",\"path\":");
            write_json_string(path, &mut out);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(key, &mut out);
                out.push(':');
                value.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Serializes `event` and writes it to the current sink. No-op when
/// tracing is disabled or no sink is installed.
pub fn emit(event: &Event<'_>) {
    emit_at(event, now_us());
}

/// Like [`emit`], but with an explicit `ts_us` (spans stamp their entry
/// time, not the time the record is written).
pub fn emit_at(event: &Event<'_>, ts_us: u64) {
    if !enabled() {
        return;
    }
    let sink = SINK.lock().unwrap_or_else(|p| p.into_inner()).clone();
    if let Some(sink) = sink {
        if let Err(err) = sink.write_line(&event.to_json_line(ts_us)) {
            // One warning, then the sink is gone: the run keeps simulating,
            // and tracing does not retry a dead file on every record.
            eprintln!("[ant-obs] trace sink write failed ({err}); tracing disabled, run continues");
            uninstall();
        }
    }
}

enum SinkTarget {
    File(fs::File),
    Memory(Arc<Mutex<String>>),
}

/// A line-oriented trace destination. Writes are serialized internally, one
/// record per line, written through immediately (no buffering to lose on
/// abnormal exit).
pub struct Sink {
    target: Mutex<SinkTarget>,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sink { .. }")
    }
}

impl Sink {
    /// A sink writing to `path`, creating parent directories and truncating
    /// any previous contents.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn to_path(path: &Path) -> io::Result<Sink> {
        config::create_parent(path)?;
        let file = fs::File::create(path)?;
        Ok(Sink {
            target: Mutex::new(SinkTarget::File(file)),
        })
    }

    /// An in-memory sink plus a handle for reading back what was written.
    /// Used by tests and by tools that post-process their own trace.
    pub fn in_memory() -> (Sink, MemorySink) {
        let buffer = Arc::new(Mutex::new(String::new()));
        (
            Sink {
                target: Mutex::new(SinkTarget::Memory(Arc::clone(&buffer))),
            },
            MemorySink { buffer },
        )
    }

    /// Appends one record line (the newline is added here).
    ///
    /// # Errors
    ///
    /// Surfaces the underlying IO error for file-backed sinks so the
    /// caller can disable tracing instead of retrying every record against
    /// a dead file. Memory sinks never fail.
    pub fn write_line(&self, line: &str) -> io::Result<()> {
        let mut target = self.target.lock().unwrap_or_else(|p| p.into_inner());
        match &mut *target {
            SinkTarget::File(file) => {
                file.write_all(line.as_bytes())?;
                file.write_all(b"\n")
            }
            SinkTarget::Memory(buffer) => {
                let mut buffer = buffer.lock().unwrap_or_else(|p| p.into_inner());
                buffer.push_str(line);
                buffer.push('\n');
                Ok(())
            }
        }
    }

    /// Flushes the destination.
    pub fn flush(&self) {
        let mut target = self.target.lock().unwrap_or_else(|p| p.into_inner());
        if let SinkTarget::File(file) = &mut *target {
            let _ = file.flush();
        }
    }
}

/// Read-back handle for [`Sink::in_memory`].
#[derive(Debug, Clone)]
pub struct MemorySink {
    buffer: Arc<Mutex<String>>,
}

impl MemorySink {
    /// Everything written so far.
    pub fn contents(&self) -> String {
        self.buffer.lock().unwrap().clone()
    }

    /// The records written so far, one per line, parsed back from JSON.
    ///
    /// # Panics
    ///
    /// Panics if a line is not valid JSON — the sink only ever writes valid
    /// JSON, so that indicates sink corruption.
    pub fn parsed(&self) -> Vec<crate::json::Json> {
        self.contents()
            .lines()
            .map(|line| crate::json::parse(line).expect("sink wrote invalid JSON"))
            .collect()
    }

    /// Discards everything written so far.
    pub fn clear(&self) {
        self.buffer.lock().unwrap().clear();
    }
}
