//! Span-tree aggregation and collapsed-stack flamegraph export.
//!
//! While flame collection is on, every closing [`crate::Span`] folds its
//! wall time into a process-wide table keyed by the span's slash-joined
//! ancestry path. [`aggregate`] rolls that table up into per-path
//! **total** time (span open to close) and **self** time (total minus the
//! time spent in direct children), and [`to_collapsed`] renders it in the
//! collapsed-stack ("folded") format that `inferno-flamegraph` and
//! <https://speedscope.app> ingest directly:
//!
//! ```text
//! experiment;network;layer;phase 48713
//! experiment;network;layer 1204
//! ```
//!
//! One line per call path, frames joined by `;`, the trailing integer the
//! path's self time in microseconds.
//!
//! Collection is gated like tracing: `ANT_OBS=flame` turns it on (spans
//! are timed and folded even without `ANT_OBS=trace`), and the file is
//! `<experiments_dir>/<stem>.folded`. The bench harness
//! (`ant_bench::obs::Experiment`) writes it at the end of every binary
//! when the gate is set.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::config;

/// Programmatic override: -1 defer to `ANT_OBS`, 0 force off, 1 force on.
/// Tests and tools use [`set_enabled`].
static OVERRIDE: AtomicI8 = AtomicI8::new(-1);

/// Whether spans should fold their wall time into the flame table.
/// One relaxed load plus (after first use) one read of the parsed flags.
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => config::flags().flame,
    }
}

/// Forces collection on or off, overriding `ANT_OBS`. Pass-through for
/// tests and tools that aggregate their own runs.
pub fn set_enabled(on: bool) {
    OVERRIDE.store(i8::from(on), Ordering::Relaxed);
}

/// Where the collapsed-stack file goes: `<experiments_dir>/<stem>.folded`.
pub fn output_path(stem: &str) -> PathBuf {
    config::sidecar_in(&config::experiments_dir(), stem, "folded")
}

#[derive(Debug, Default, Clone, Copy)]
struct Node {
    count: u64,
    total_us: u64,
    /// Wall time attributed to *direct* children (each child adds its
    /// duration here when it closes).
    child_us: u64,
}

fn table() -> &'static Mutex<BTreeMap<String, Node>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, Node>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Folds one closed span into the table: `path` is the slash-joined
/// ancestry (`"experiment/network/phase"`), `dur_us` its wall time. Called
/// by [`crate::Span`] on drop when [`enabled`]; safe to call directly for
/// replayed traces.
pub fn record(path: &str, dur_us: u64) {
    let mut table = table().lock().unwrap();
    {
        let node = table.entry(path.to_string()).or_default();
        node.count += 1;
        node.total_us += dur_us;
    }
    if let Some((parent, _)) = path.rsplit_once('/') {
        table.entry(parent.to_string()).or_default().child_us += dur_us;
    }
}

/// One call path's rollup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Slash-joined span ancestry.
    pub path: String,
    /// How many spans closed on this path.
    pub count: u64,
    /// Wall time from open to close, summed (children included).
    pub total_us: u64,
    /// `total_us` minus time spent in direct children (clamped at zero —
    /// child clocks can jitter past the parent's by a microsecond).
    pub self_us: u64,
}

/// The current rollup, sorted by path. Paths that only ever appeared as a
/// parent (children closed, parent still open) report zero total.
pub fn aggregate() -> Vec<SpanStat> {
    table()
        .lock()
        .unwrap()
        .iter()
        .map(|(path, node)| SpanStat {
            path: path.clone(),
            count: node.count,
            total_us: node.total_us,
            self_us: node.total_us.saturating_sub(node.child_us),
        })
        .collect()
}

/// Renders the table in collapsed-stack format: one `frame;frame;... N`
/// line per path with positive self time, `N` the self time in
/// microseconds. Frame text swaps `;` and whitespace for `_` so the folded
/// grammar (frames `;`-separated, weight after the last space) survives
/// arbitrary span names.
pub fn to_collapsed() -> String {
    let mut out = String::new();
    for stat in aggregate() {
        if stat.self_us == 0 {
            continue;
        }
        let stack: Vec<String> = stat
            .path
            .split('/')
            .map(|frame| {
                frame
                    .chars()
                    .map(|c| {
                        if c == ';' || c.is_whitespace() {
                            '_'
                        } else {
                            c
                        }
                    })
                    .collect()
            })
            .collect();
        out.push_str(&stack.join(";"));
        out.push(' ');
        out.push_str(&stat.self_us.to_string());
        out.push('\n');
    }
    out
}

/// Drops every recorded path (tests use this between cases).
pub fn reset() {
    table().lock().unwrap().clear();
}

/// Writes [`to_collapsed`] to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_collapsed(path: &Path) -> io::Result<()> {
    config::create_parent(path)?;
    std::fs::write(path, to_collapsed())
}

/// Writes the collapsed stacks to [`output_path`]`(stem)` when collection
/// is [`enabled`] and anything was recorded; returns the path written.
///
/// # Errors
///
/// Propagates write failures (the gate being off or the table being empty
/// is `Ok(None)`, not an error).
pub fn write_if_enabled(stem: &str) -> io::Result<Option<PathBuf>> {
    if !enabled() || table().lock().unwrap().is_empty() {
        return Ok(None);
    }
    let path = output_path(stem);
    write_collapsed(&path)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table is process-global; unit tests share it, so each test
    /// works against its own unique path prefix instead of resetting.
    #[test]
    fn self_time_subtracts_direct_children() {
        record("t1_root", 100);
        record("t1_root/child", 30);
        record("t1_root/child", 20);
        record("t1_root/child/leaf", 10);
        let stats = aggregate();
        let get = |p: &str| stats.iter().find(|s| s.path == p).unwrap().clone();
        assert_eq!(get("t1_root").total_us, 100);
        assert_eq!(get("t1_root").self_us, 50);
        assert_eq!(get("t1_root/child").count, 2);
        assert_eq!(get("t1_root/child").total_us, 50);
        assert_eq!(get("t1_root/child").self_us, 40);
        assert_eq!(get("t1_root/child/leaf").self_us, 10);
    }

    #[test]
    fn child_overshoot_clamps_to_zero_self() {
        record("t2_root", 10);
        record("t2_root/child", 11);
        let stats = aggregate();
        let root = stats.iter().find(|s| s.path == "t2_root").unwrap();
        assert_eq!(root.self_us, 0);
    }

    #[test]
    fn collapsed_lines_are_well_formed() {
        record("t3_exp", 100);
        record("t3_exp/net work;x", 40);
        let folded = to_collapsed();
        let lines: Vec<&str> = folded.lines().filter(|l| l.starts_with("t3_")).collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').expect("space before weight");
            assert!(weight.parse::<u64>().is_ok(), "weight not integer: {line}");
            assert!(
                stack.split(';').all(|f| !f.is_empty()),
                "empty frame: {line}"
            );
            assert!(!stack.contains(' '), "unescaped space: {line}");
        }
        assert!(lines.contains(&"t3_exp 60"));
        assert!(lines.contains(&"t3_exp;net_work_x 40"));
    }

    #[test]
    fn zero_self_paths_are_omitted() {
        record("t4_root", 10);
        record("t4_root/child", 10);
        let folded = to_collapsed();
        assert!(!folded.lines().any(|l| l.starts_with("t4_root ")));
        assert!(folded.contains("t4_root;child 10"));
    }

    #[test]
    fn output_path_honours_stem() {
        assert!(output_path("flame_test_stem")
            .to_string_lossy()
            .ends_with("flame_test_stem.folded"));
    }
}
