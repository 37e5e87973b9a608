//! Console progress reporting shared by the experiment binaries, plus the
//! opt-in live run-status reporter (`ANT_OBS=progress`).
//!
//! Status lines go to **stderr** so they never contaminate table/CSV output
//! on stdout; each step also emits a `"progress"` trace record when tracing
//! is on, so a run's pacing is visible in the trace too.
//!
//! The [`StatusReporter`] half of this module is the machine-facing side:
//! under `ANT_OBS=progress`, the parallel runner periodically publishes
//! a [`RunStatus`] — layers/pairs completed, throughput, ETA, quarantine and
//! retry counts — as one stderr line *and* an atomically-rewritten JSON
//! file (write-temp-then-rename, so a poller never reads a torn write). The
//! file is the artifact a sweep service polls; its schema is `ant-status/1`
//! (see `docs/OBSERVABILITY.md`).

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::config;
use crate::json::{write_json_string, Value};
use crate::span;

/// The most recently published `ant-status/1` JSON, process-wide. The
/// embedded metrics exporter ([`crate::export`]) serves this on
/// `GET /status` so a poller never has to race the status file on disk.
fn latest_status() -> &'static Mutex<Option<String>> {
    static LATEST: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    LATEST.get_or_init(|| Mutex::new(None))
}

/// The last `ant-status/1` JSON any [`StatusReporter`] published in this
/// process, or `None` before the first publish.
pub fn latest_status_json() -> Option<String> {
    latest_status()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Prints the experiment banner (title plus underline) to stdout, matching
/// the look the experiment binaries had before they shared a helper.
pub fn banner(title: &str) {
    println!("{title}");
    println!("{}", "=".repeat(title.chars().count().min(100)));
}

/// Prints a one-line note to stderr and mirrors it into the trace.
pub fn note(text: &str) {
    eprintln!("{text}");
    span::event("note", &[("text", Value::Str(text.to_string()))]);
}

/// A step counter over a known amount of work.
#[derive(Debug)]
pub struct Progress {
    label: String,
    total: usize,
    done: usize,
    started: Instant,
}

impl Progress {
    /// Starts tracking `total` steps under `label`.
    pub fn new(label: impl Into<String>, total: usize) -> Self {
        Self {
            label: label.into(),
            total,
            done: 0,
            started: Instant::now(),
        }
    }

    /// Marks one step (named `item`) done and prints the running count.
    pub fn step(&mut self, item: &str) {
        self.done += 1;
        eprintln!("[{}] {}/{} {}", self.label, self.done, self.total, item);
        span::event(
            "progress",
            &[
                ("label", Value::Str(self.label.clone())),
                ("done", Value::U64(self.done as u64)),
                ("total", Value::U64(self.total as u64)),
                ("item", Value::Str(item.to_string())),
            ],
        );
    }

    /// Prints the closing line with elapsed wall time.
    pub fn finish(self) {
        let secs = self.started.elapsed().as_secs_f64();
        eprintln!(
            "[{}] finished {}/{} in {:.2}s",
            self.label, self.done, self.total, secs
        );
        span::event(
            "progress",
            &[
                ("label", Value::Str(self.label.clone())),
                ("done", Value::U64(self.done as u64)),
                ("total", Value::U64(self.total as u64)),
                ("finished", Value::Bool(true)),
                ("elapsed_s", Value::F64(secs)),
            ],
        );
    }
}

/// Where this process's status JSON goes:
/// `<experiments_dir>/<stem>.status.json`.
pub fn status_file() -> PathBuf {
    config::sidecar("status.json")
}

/// One snapshot of a run's health — the unit a [`StatusReporter`] publishes.
///
/// Counts are cumulative over the run; rates and the ETA are derived by the
/// publisher from `pairs_done` and elapsed wall time. Everything here is
/// host-side bookkeeping: publishing a status never touches simulated state,
/// which is what keeps progress reporting byte-identical-safe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStatus {
    /// Run name (typically the experiment or binary name).
    pub name: String,
    /// Network currently being simulated.
    pub network: String,
    /// Machine (accelerator model) currently being simulated.
    pub machine: String,
    /// `"running"` while work remains, `"done"` on the final publish.
    pub state: &'static str,
    /// Worker threads executing pair jobs.
    pub threads: u64,
    /// Layers fully merged so far.
    pub layers_done: u64,
    /// Total layers in the run.
    pub layers_total: u64,
    /// Channel-pair jobs completed so far.
    pub pairs_done: u64,
    /// Total channel-pair jobs in the run.
    pub pairs_total: u64,
    /// Wall seconds since the run started.
    pub elapsed_s: f64,
    /// Completed pairs per wall second (0 until the first pair lands).
    pub pairs_per_sec: f64,
    /// Estimated seconds to completion (0 when unknown or done).
    pub eta_s: f64,
    /// Pair jobs quarantined after panicking twice.
    pub quarantined: u64,
    /// Pair jobs that panicked once and succeeded on retry.
    pub retries: u64,
    /// Git revision of the build publishing this status (`None` when the
    /// revision could not be determined; serialized as JSON `null`).
    pub git_revision: Option<String>,
}

impl RunStatus {
    /// Fraction of pair jobs completed, in `[0, 1]` (1 when there are none).
    pub fn fraction_done(&self) -> f64 {
        if self.pairs_total == 0 {
            1.0
        } else {
            self.pairs_done as f64 / self.pairs_total as f64
        }
    }

    /// Serializes the status as one `ant-status/1` JSON object. The
    /// `schema` key comes first; every other key is emitted in sorted
    /// order, so consecutive files diff cleanly.
    pub fn to_json(&self) -> String {
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let mut out = String::with_capacity(384);
        out.push_str("{\"schema\":\"ant-status/1\"");
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        // `None` serializes as JSON `null` (our `Value` enum has no null
        // variant); keys stay in sorted order.
        let entries: [(&str, Option<Value>); 16] = [
            ("elapsed_s", Some(Value::F64(finite(self.elapsed_s)))),
            ("eta_s", Some(Value::F64(finite(self.eta_s)))),
            ("git_revision", self.git_revision.clone().map(Value::Str)),
            ("layers_done", Some(Value::U64(self.layers_done))),
            ("layers_total", Some(Value::U64(self.layers_total))),
            ("machine", Some(Value::Str(self.machine.clone()))),
            ("name", Some(Value::Str(self.name.clone()))),
            ("network", Some(Value::Str(self.network.clone()))),
            ("pairs_done", Some(Value::U64(self.pairs_done))),
            (
                "pairs_per_sec",
                Some(Value::F64(finite(self.pairs_per_sec))),
            ),
            ("pairs_total", Some(Value::U64(self.pairs_total))),
            ("quarantined", Some(Value::U64(self.quarantined))),
            ("retries", Some(Value::U64(self.retries))),
            ("state", Some(Value::Str(self.state.to_string()))),
            ("threads", Some(Value::U64(self.threads))),
            ("updated_at_unix_ms", Some(Value::U64(unix_ms))),
        ];
        for (key, value) in &entries {
            out.push(',');
            write_json_string(key, &mut out);
            out.push(':');
            match value {
                Some(v) => v.write_json(&mut out),
                None => out.push_str("null"),
            }
        }
        out.push('}');
        out
    }

    /// The one-line stderr rendering of this status.
    fn console_line(&self) -> String {
        format!(
            "[progress] {}/{}: layers {}/{} pairs {}/{} ({:.1}%) {:.0} pairs/s eta {:.1}s q={} retry={}",
            self.network,
            self.machine,
            self.layers_done,
            self.layers_total,
            self.pairs_done,
            self.pairs_total,
            self.fraction_done() * 100.0,
            self.pairs_per_sec,
            self.eta_s,
            self.quarantined,
            self.retries,
        )
    }
}

/// Publishes [`RunStatus`] snapshots: a rate-limited stderr line plus an
/// atomically-rewritten JSON file a sweep service can poll.
///
/// Publishing is strictly best-effort — I/O failures are swallowed, because
/// a broken status pipe must never take a run down with it.
#[derive(Debug)]
pub struct StatusReporter {
    path: PathBuf,
    min_interval: Duration,
    last_publish: Option<Instant>,
    console: bool,
}

impl StatusReporter {
    /// Default minimum spacing between rate-limited publishes.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(200);

    /// A reporter writing to `path` with the default rate limit.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self::with_interval(path, Self::DEFAULT_INTERVAL)
    }

    /// A reporter writing to `path`, publishing at most once per
    /// `min_interval` through [`StatusReporter::maybe_publish`].
    pub fn with_interval(path: impl Into<PathBuf>, min_interval: Duration) -> Self {
        Self {
            path: path.into(),
            min_interval,
            last_publish: None,
            console: true,
        }
    }

    /// Enables or disables the stderr line per publish. The JSON file, the
    /// trace event, and the in-process [`latest_status_json`] slot are
    /// unaffected — a run driven only by the metrics exporter stays silent
    /// on the console while `/status` keeps serving live data.
    pub fn set_console(&mut self, console: bool) -> &mut Self {
        self.console = console;
        self
    }

    /// The status-file path this reporter writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Publishes unless a publish already happened within the rate-limit
    /// window. Returns whether the status was published.
    pub fn maybe_publish(&mut self, status: &RunStatus) -> bool {
        if let Some(last) = self.last_publish {
            if last.elapsed() < self.min_interval {
                return false;
            }
        }
        self.publish(status);
        true
    }

    /// Publishes unconditionally: stderr line, trace event, and the atomic
    /// file rewrite. Use for the final `"done"` status.
    pub fn publish(&mut self, status: &RunStatus) {
        self.last_publish = Some(Instant::now());
        let json = status.to_json();
        *latest_status().lock().unwrap_or_else(|p| p.into_inner()) = Some(json.clone());
        if self.console {
            eprintln!("{}", status.console_line());
        }
        span::event(
            "status",
            &[
                ("network", Value::Str(status.network.clone())),
                ("machine", Value::Str(status.machine.clone())),
                ("state", Value::Str(status.state.to_string())),
                ("pairs_done", Value::U64(status.pairs_done)),
                ("pairs_total", Value::U64(status.pairs_total)),
                ("quarantined", Value::U64(status.quarantined)),
            ],
        );
        self.rewrite_file(&json);
    }

    /// Write-temp-then-rename so the file is replaced atomically: a reader
    /// sees either the previous complete status or the new one, never a
    /// partial write.
    fn rewrite_file(&self, json: &str) {
        if config::create_parent(&self.path).is_err() {
            return;
        }
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        if std::fs::write(&tmp, format!("{json}\n")).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    /// Serializes tests that publish (the latest-status slot is global).
    fn publish_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn sample_status() -> RunStatus {
        RunStatus {
            name: "fig09".to_string(),
            network: "resnet18".to_string(),
            machine: "ANT".to_string(),
            state: "running",
            threads: 4,
            layers_done: 3,
            layers_total: 10,
            pairs_done: 120,
            pairs_total: 400,
            elapsed_s: 0.5,
            pairs_per_sec: 240.0,
            eta_s: 1.2,
            quarantined: 1,
            retries: 2,
            git_revision: None,
        }
    }

    #[test]
    fn status_json_parses_with_schema_and_sorted_keys() {
        let text = sample_status().to_json();
        let json = parse(&text).expect("status JSON parses");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("ant-status/1")
        );
        assert_eq!(json.get("state").and_then(Json::as_str), Some("running"));
        assert_eq!(json.get("network").and_then(Json::as_str), Some("resnet18"));
        assert_eq!(json.get("pairs_done").and_then(Json::as_u64), Some(120));
        assert_eq!(json.get("pairs_total").and_then(Json::as_u64), Some(400));
        assert_eq!(json.get("layers_done").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("quarantined").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("retries").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("eta_s").and_then(Json::as_f64), Some(1.2));
        assert!(json
            .get("updated_at_unix_ms")
            .and_then(Json::as_u64)
            .is_some());
        // Keys after `schema` appear in sorted order.
        let body = text.trim_start_matches("{\"schema\":\"ant-status/1\",");
        let keys: Vec<&str> = body
            .split(',')
            .filter_map(|kv| kv.split(':').next())
            .map(|k| k.trim_matches(|c| c == '"' || c == '}' || c == '{'))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "status keys must be sorted");
    }

    #[test]
    fn git_revision_and_resumed_from_render_per_schema() {
        // Unknown revision: git_revision is null; `resumed_from` is not
        // part of the schema.
        let fresh = sample_status().to_json();
        assert!(
            fresh.contains("\"git_revision\":null"),
            "null revision: {fresh}"
        );
        assert!(!fresh.contains("resumed_from"), "retired key: {fresh}");

        // Known revision: a string, keys stay sorted.
        let status = RunStatus {
            git_revision: Some("abc1234".to_string()),
            ..sample_status()
        };
        let text = status.to_json();
        let json = parse(&text).expect("parses");
        assert_eq!(
            json.get("git_revision").and_then(Json::as_str),
            Some("abc1234")
        );
        let body = text.trim_start_matches("{\"schema\":\"ant-status/1\",");
        let keys: Vec<&str> = body
            .split(',')
            .filter_map(|kv| kv.split(':').next())
            .map(|k| k.trim_matches(|c| c == '"' || c == '}' || c == '{'))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "status keys must stay sorted");
    }

    #[test]
    fn latest_status_slot_tracks_publishes() {
        let _guard = publish_lock();
        let dir = std::env::temp_dir().join(format!("ant_obs_latest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reporter = StatusReporter::new(dir.join("status.json"));
        reporter.set_console(false);
        let mut status = sample_status();
        status.pairs_done = 321;
        reporter.publish(&status);
        let latest = latest_status_json().expect("slot filled after publish");
        let json = parse(&latest).expect("slot holds valid JSON");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("ant-status/1")
        );
        assert_eq!(json.get("pairs_done").and_then(Json::as_u64), Some(321));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_rates_serialize_as_zero() {
        let status = RunStatus {
            pairs_per_sec: f64::INFINITY,
            eta_s: f64::NAN,
            ..sample_status()
        };
        let json = parse(&status.to_json()).expect("parses");
        assert_eq!(json.get("pairs_per_sec").and_then(Json::as_f64), Some(0.0));
        assert_eq!(json.get("eta_s").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn fraction_done_handles_zero_totals() {
        let mut status = sample_status();
        assert!((status.fraction_done() - 0.3).abs() < 1e-12);
        status.pairs_total = 0;
        assert_eq!(status.fraction_done(), 1.0);
    }

    #[test]
    fn reporter_rewrites_file_atomically_and_rate_limits() {
        let _guard = publish_lock();
        let dir = std::env::temp_dir().join(format!("ant_obs_status_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/status.json");
        let mut reporter = StatusReporter::with_interval(&path, Duration::from_secs(60));

        let mut status = sample_status();
        assert!(
            reporter.maybe_publish(&status),
            "first publish goes through"
        );
        let body = std::fs::read_to_string(&path).expect("status file written");
        let json = parse(body.trim()).expect("file is complete JSON");
        assert_eq!(json.get("pairs_done").and_then(Json::as_u64), Some(120));
        assert!(
            !path.with_extension("json.tmp").exists(),
            "temp file must be renamed away"
        );

        // Within the rate-limit window nothing is written.
        status.pairs_done = 200;
        assert!(!reporter.maybe_publish(&status), "rate limit suppresses");
        let unchanged = std::fs::read_to_string(&path).expect("still readable");
        assert_eq!(unchanged, body);

        // The unconditional publish replaces the contents.
        status.state = "done";
        reporter.publish(&status);
        let final_body = std::fs::read_to_string(&path).expect("readable");
        let json = parse(final_body.trim()).expect("parses");
        assert_eq!(json.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(json.get("pairs_done").and_then(Json::as_u64), Some(200));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_file_default_lands_in_target_experiments() {
        let dir = config::experiments_dir_under(None);
        assert_eq!(
            config::sidecar_in(&dir, "fig09_speedup_energy", "status.json"),
            Path::new("target/experiments/fig09_speedup_energy.status.json")
        );
    }
}
