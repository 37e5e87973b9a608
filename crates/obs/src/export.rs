//! The workspace's one embedded HTTP server, and the `/metrics` exporter
//! that runs on it (`ANT_METRICS_ADDR`).
//!
//! [`Server`] is a zero-dependency, std-only listener: one short-lived
//! connection at a time, a bounded request reader (head plus
//! `Content-Length` body, at most 256 KiB; larger bodies get `413`), 2 s
//! socket timeouts, and a non-blocking accept poll so
//! [`Server::shutdown`] stops and joins the thread promptly. Every server
//! answers three shared routes:
//!
//! - `GET /metrics` — the process-wide [`Registry`](crate::metrics::Registry)
//!   rendered as Prometheus text exposition (format 0.0.4). Counters render
//!   as `counter` families, gauges as `gauge`, and each histogram expands to
//!   `_count` (counter) plus `_min`/`_mean`/`_p50`/`_p95`/`_max` gauges.
//!   Names are sanitized to the exposition grammar by [`sanitize_metric_name`].
//! - `GET /status` — the most recent `ant-status/1` JSON published by any
//!   [`StatusReporter`](crate::progress::StatusReporter) in this process,
//!   straight from memory (no file read). `503` until the first publish.
//! - `GET /healthz` — liveness: always `200 ok`.
//!
//! An application adds its own routes ([`Routes`]) in front of these; the
//! `ant-sweepd` daemon serves its `/jobs` API that way.
//!
//! The exporter is off by default: with `ANT_METRICS_ADDR` unset the only
//! cost is one read of the parsed configuration ([`crate::config`]), no
//! thread, no socket, no allocation on any hot path. When the variable
//! names a `host:port`, [`init_from_env`] starts a server there for the
//! lifetime of the process. Binding to port `0` picks a free port; the
//! resolved address is written to `<experiments_dir>/<stem>.metrics.addr`
//! so a harness that requested port `0` can discover where to scrape.
//!
//! The shared routes are strictly read-only over state the run already
//! maintains — serving a scrape never touches simulated state, so the
//! byte-identity and steady-state-allocation gates hold with it enabled.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config;
use crate::metrics::{registry, InstrumentSnapshot};
use crate::progress::latest_status_json;

/// Per-connection socket timeout: a stalled client must never wedge the
/// serving thread for long.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request (head + body) a server will buffer.
const MAX_REQUEST_BYTES: usize = 256 * 1024;

/// Accept-poll interval while idle; bounds shutdown latency.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// One parsed request, as a route table sees it.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Request method (`GET`, `POST`, ...).
    pub method: &'a str,
    /// Request path, query string stripped.
    pub path: &'a str,
    /// Request body (empty for bodiless requests).
    pub body: &'a str,
}

/// One response: status line (`"200 OK"`), content type, body.
pub type Response = (&'static str, &'static str, String);

/// Application routes a [`Server`] consults before the shared ones;
/// returning `None` falls through to `/metrics`, `/status`, `/healthz`,
/// then `404`/`405`.
pub type Routes = Box<dyn Fn(&Request<'_>) -> Option<Response> + Send + Sync>;

/// A running HTTP server: one background thread serving the shared routes
/// plus any application [`Routes`].
///
/// Dropping a `Server` detaches its thread, which then serves until the
/// process exits (the metrics exporter runs that way); call
/// [`Server::shutdown`] to stop it.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and spawns the serving thread, named `name`.
    ///
    /// # Errors
    ///
    /// Propagates bind, socket-option, and thread-spawn failures.
    pub fn start(addr: &str, name: &str, routes: Option<Routes>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !flag.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Back to blocking IO (with timeouts) per
                            // connection: requests are tiny, and serialized
                            // handling keeps the server allocation-bounded.
                            let _ = stream.set_nonblocking(false);
                            handle_connection(stream, routes.as_ref());
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            })?;
        Ok(Server {
            addr: bound,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful after requesting port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the serving thread; returns within one
    /// accept poll (plus any request in flight).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join_thread();
    }

    /// Blocks until the serving thread exits, i.e. until another handle
    /// stops it or the process ends.
    pub fn join(mut self) {
        self.join_thread();
    }

    fn join_thread(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Starts the exporter if `ANT_METRICS_ADDR` is set, once per process.
///
/// Returns the bound address (useful when the variable requested port `0`),
/// or `None` when the exporter is disabled or failed to bind. Idempotent:
/// every call after the first returns the cached outcome, so runner and
/// harness code can call it freely.
pub fn init_from_env() -> Option<SocketAddr> {
    static STATE: OnceLock<Option<SocketAddr>> = OnceLock::new();
    *STATE.get_or_init(|| {
        let addr = config::flags().metrics_addr.as_deref()?;
        match serve(addr) {
            Ok(bound) => {
                write_addr_file(&bound);
                eprintln!("[ant-obs] metrics exporter listening on http://{bound}");
                Some(bound)
            }
            Err(err) => {
                eprintln!("[ant-obs] metrics exporter failed to bind {addr}: {err}");
                None
            }
        }
    })
}

/// Whether the exporter is (now) running. Starts it if `ANT_METRICS_ADDR`
/// asks for one and it has not started yet.
pub fn active() -> bool {
    init_from_env().is_some()
}

/// Sleeps for `ANT_METRICS_LINGER_MS` milliseconds when the exporter is
/// active, keeping short-lived experiment processes scrapeable after their
/// run completes. No-op when the exporter is off or the variable is
/// unset/zero/unparsable.
pub fn linger_from_env() {
    let ms = config::flags().linger_ms;
    if ms == 0 || !active() {
        return;
    }
    eprintln!("[ant-obs] lingering {ms}ms for final scrapes (ANT_METRICS_LINGER_MS)");
    std::thread::sleep(Duration::from_millis(ms));
}

/// Starts a shared-routes-only [`Server`] on `addr` that serves until the
/// process exits. Public so tests (and tools that manage their own
/// lifecycle) can run an exporter without touching the environment;
/// production code should go through [`init_from_env`].
pub fn serve(addr: &str) -> std::io::Result<SocketAddr> {
    Ok(Server::start(addr, "ant-metrics", None)?.addr())
}

/// Best-effort write of the bound address for port-0 discovery, to
/// `<experiments_dir>/<stem>.metrics.addr`.
fn write_addr_file(bound: &SocketAddr) {
    let path = config::sidecar("metrics.addr");
    if config::create_parent(&path).is_ok() {
        let _ = std::fs::write(&path, format!("{bound}\n"));
    }
}

/// Reads one request (head, then `Content-Length` bytes of body), routes
/// it, writes one response, closes.
fn handle_connection(mut stream: TcpStream, routes: Option<&Routes>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut raw = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let mut head_end = None;
    // Phase 1: read until the blank line separating head from body.
    while head_end.is_none() && raw.len() < MAX_REQUEST_BYTES {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
            }
        }
    }
    let Some(head_end) = head_end else {
        let body = "{\"error\":\"malformed request\"}\n".to_string();
        respond(&mut stream, ("400 Bad Request", "application/json", body));
        return;
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let content_length = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            if name.trim().eq_ignore_ascii_case("content-length") {
                value.trim().parse::<usize>().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    if content_length > MAX_REQUEST_BYTES {
        let body = "{\"error\":\"body too large\"}\n".to_string();
        respond(
            &mut stream,
            ("413 Payload Too Large", "application/json", body),
        );
        return;
    }
    // Phase 2: the rest of the body.
    while raw.len() < head_end + content_length {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    let body = String::from_utf8_lossy(&raw[head_end..]).to_string();
    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("");
    let target = request_line.next().unwrap_or("");
    // Ignore any query string; routing is by path only.
    let path = target.split('?').next().unwrap_or(target);
    let request = Request {
        method,
        path,
        body: &body,
    };
    let response = routes
        .and_then(|routes| routes(&request))
        .unwrap_or_else(|| route(method, path));
    respond(&mut stream, response);
}

fn respond(stream: &mut TcpStream, (status, content_type, body): Response) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// The shared routes: maps `(method, path)` to a [`Response`].
fn route(method: &str, path: &str) -> Response {
    match (method, path) {
        ("GET", "/metrics") => {
            let mut body = render_build_info();
            body.push_str(&render_prometheus(&registry().snapshot_instruments()));
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
        }
        ("GET", "/status") => match latest_status_json() {
            Some(json) => ("200 OK", "application/json", json + "\n"),
            None => (
                "503 Service Unavailable",
                "application/json",
                "{\"error\":\"no status published yet\"}\n".to_string(),
            ),
        },
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics, /status, /healthz\n".to_string(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "unsupported method\n".to_string(),
        ),
    }
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n` per the exposition grammar).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// The constant `ant_build_info` family: a gauge fixed at 1 whose
/// `git_revision` label identifies the build serving the scrape — the same
/// revision every run manifest records in its host section, so a scraped
/// series can be joined back to the manifests it was produced by. The label
/// is empty when the revision cannot be resolved (e.g. no `.git`).
pub fn render_build_info() -> String {
    let revision = crate::manifest::git_revision_cached().unwrap_or_default();
    format!(
        "# TYPE ant_build_info gauge\nant_build_info{{git_revision=\"{}\"}} 1\n",
        escape_label_value(&revision)
    )
}

/// Rewrites `name` into the Prometheus metric-name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): an `ant_` namespace prefix, with every
/// character outside `[a-zA-Z0-9_]` replaced by `_`. The prefix both
/// namespaces the export and guarantees a legal leading character for raw
/// names that start with a digit.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("ant_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a sample value per the exposition grammar (Go-style floats;
/// `NaN`, `+Inf`, `-Inf` spelled exactly so).
fn format_sample(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{value}")
    }
}

/// Renders a typed registry snapshot as Prometheus text exposition.
///
/// Each instrument becomes one metric family with a `# TYPE` line. Raw
/// names that sanitize to the same family name are disambiguated with a
/// numeric suffix (`_2`, `_3`, …) in snapshot (sorted-name) order, so the
/// output never declares one family twice.
pub fn render_prometheus(snapshot: &[(String, InstrumentSnapshot)]) -> String {
    let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut unique_name = |raw: &str| -> String {
        let base = sanitize_metric_name(raw);
        let mut candidate = base.clone();
        let mut n = 2;
        while !used.insert(candidate.clone()) {
            candidate = format!("{base}_{n}");
            n += 1;
        }
        candidate
    };
    let mut out = String::with_capacity(64 * snapshot.len() + 64);
    for (raw, instrument) in snapshot {
        let family = unique_name(raw);
        match instrument {
            InstrumentSnapshot::Counter(value) => {
                out.push_str(&format!("# TYPE {family} counter\n{family} {value}\n"));
            }
            InstrumentSnapshot::Gauge(value) => {
                out.push_str(&format!(
                    "# TYPE {family} gauge\n{family} {}\n",
                    format_sample(*value)
                ));
            }
            InstrumentSnapshot::Histogram(hist) => {
                for (suffix, value) in hist.series() {
                    let series = format!("{family}_{suffix}");
                    let kind = if suffix == "count" {
                        "counter"
                    } else {
                        "gauge"
                    };
                    out.push_str(&format!(
                        "# TYPE {series} {kind}\n{series} {}\n",
                        format_sample(value)
                    ));
                }
            }
        }
    }
    out
}

/// A minimal `http://host:port/path` GET client for the server's own
/// endpoints (used by `obsctl status` against a live run). Returns the
/// status code and body.
///
/// # Errors
///
/// Propagates connection and IO failures; HTTP-level errors come back as
/// the status code in the tuple.
pub fn http_get(url: &str) -> std::io::Result<(u16, String)> {
    request(url, "GET", None)
}

/// The `POST` sibling of [`http_get`] (JSON body), used by tests, `obsctl`,
/// and harness scripts to submit `ant-sweepd` jobs.
///
/// # Errors
///
/// As [`http_get`].
pub fn http_post(url: &str, body: &str) -> std::io::Result<(u16, String)> {
    request(url, "POST", Some(body))
}

fn request(url: &str, method: &str, body: Option<&str>) -> std::io::Result<(u16, String)> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host_port, path) = match rest.find('/') {
        Some(idx) => (&rest[..idx], &rest[idx..]),
        None => (rest, "/"),
    };
    let mut stream = TcpStream::connect(host_port)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut message = format!("{method} {path} HTTP/1.1\r\nHost: {host_port}\r\n");
    if let Some(body) = body {
        message.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    message.push_str("Connection: close\r\n\r\n");
    message.push_str(body.unwrap_or(""));
    stream.write_all(message.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let mut parts = response.splitn(2, "\r\n\r\n");
    let head = parts.next().unwrap_or("");
    let body = parts.next().unwrap_or("").to_string();
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .unwrap_or(0);
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    #[test]
    fn sanitize_covers_existing_metric_name_shapes() {
        assert_eq!(
            sanitize_metric_name("runner.pairs_done"),
            "ant_runner_pairs_done"
        );
        assert_eq!(
            sanitize_metric_name("runner.worker.00.executed"),
            "ant_runner_worker_00_executed"
        );
        assert_eq!(
            sanitize_metric_name("kernel/bitmask_and/min_us"),
            "ant_kernel_bitmask_and_min_us"
        );
        assert_eq!(sanitize_metric_name("0weird"), "ant_0weird");
        assert_eq!(sanitize_metric_name(""), "ant_");
    }

    #[test]
    fn sanitized_names_match_exposition_grammar() {
        for raw in [
            "runner.pairs_done",
            "kernel/fnir_scan/p50_us",
            "a b\tc",
            "Ünïcode-→-name",
        ] {
            let name = sanitize_metric_name(raw);
            let mut chars = name.chars();
            let first = chars.next().expect("non-empty");
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
        }
    }

    #[test]
    fn render_emits_typed_families() {
        let snapshot = vec![
            (
                "runner.pairs_done".to_string(),
                InstrumentSnapshot::Counter(42),
            ),
            ("runner.util".to_string(), InstrumentSnapshot::Gauge(0.5)),
        ];
        let text = render_prometheus(&snapshot);
        assert!(text.contains("# TYPE ant_runner_pairs_done counter\n"));
        assert!(text.contains("ant_runner_pairs_done 42\n"));
        assert!(text.contains("# TYPE ant_runner_util gauge\n"));
        assert!(text.contains("ant_runner_util 0.5\n"));
    }

    #[test]
    fn render_expands_histograms_and_skips_missing_stats() {
        let empty = HistogramSnapshot {
            count: 0,
            min: None,
            mean: None,
            p50: None,
            p95: None,
            max: None,
        };
        let text =
            render_prometheus(&[("pair_us".to_string(), InstrumentSnapshot::Histogram(empty))]);
        assert!(text.contains("# TYPE ant_pair_us_count counter\nant_pair_us_count 0\n"));
        assert!(
            !text.contains("ant_pair_us_min"),
            "empty histogram has no stats: {text}"
        );

        let full = HistogramSnapshot {
            count: 3,
            min: Some(1.0),
            mean: Some(2.0),
            p50: Some(2.0),
            p95: Some(3.0),
            max: Some(3.0),
        };
        let text =
            render_prometheus(&[("pair_us".to_string(), InstrumentSnapshot::Histogram(full))]);
        for series in [
            "ant_pair_us_count 3",
            "ant_pair_us_min 1",
            "ant_pair_us_mean 2",
            "ant_pair_us_p50 2",
            "ant_pair_us_p95 3",
            "ant_pair_us_max 3",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
    }

    #[test]
    fn render_disambiguates_sanitized_collisions() {
        let snapshot = vec![
            ("a.b".to_string(), InstrumentSnapshot::Counter(1)),
            ("a/b".to_string(), InstrumentSnapshot::Counter(2)),
        ];
        let text = render_prometheus(&snapshot);
        assert!(text.contains("ant_a_b 1\n"));
        assert!(text.contains("ant_a_b_2 2\n"));
        // Exactly one TYPE line per family.
        assert_eq!(text.matches("# TYPE ant_a_b counter").count(), 1);
        assert_eq!(text.matches("# TYPE ant_a_b_2 counter").count(), 1);
    }

    #[test]
    fn build_info_gauge_carries_the_manifest_git_revision() {
        let line = render_build_info();
        assert!(line.starts_with("# TYPE ant_build_info gauge\n"));
        let revision = crate::manifest::git_revision_cached().unwrap_or_default();
        assert!(
            line.contains(&format!(
                "ant_build_info{{git_revision=\"{revision}\"}} 1\n"
            )),
            "unexpected build info: {line}"
        );
        // The /metrics body leads with the build-info family.
        let (status, _, body) = route("GET", "/metrics");
        assert_eq!(status, "200 OK");
        assert!(body.starts_with("# TYPE ant_build_info gauge\n"), "{body}");
    }

    #[test]
    fn label_values_escape_exposition_metacharacters() {
        assert_eq!(escape_label_value("abc123"), "abc123");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn non_finite_samples_use_exposition_spellings() {
        assert_eq!(format_sample(f64::NAN), "NaN");
        assert_eq!(format_sample(f64::INFINITY), "+Inf");
        assert_eq!(format_sample(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_sample(1.5), "1.5");
        assert_eq!(format_sample(7.0), "7");
    }
}
