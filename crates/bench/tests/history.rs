//! End-to-end tests of the bench-history ledger: record a real (tiny)
//! run, append/load round-trips through a file, and the regression gate's
//! acceptance behavior (10% injected cycle regression flagged, self-compare
//! clean, host metrics gated only against the candidate's host).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ant_bench::history::{
    self, HistoryEntry, Host, WorkloadSet, DEFAULT_THRESHOLD,
};

fn temp_ledger(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ant-bench-history-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn record_tiny_produces_complete_entry() {
    let entry = history::record(WorkloadSet::Tiny, 2).expect("tiny set records");
    assert_eq!(entry.label, "tiny");
    assert_eq!(entry.repeats, 2);
    for metric in [
        "tiny/scnn_cycles",
        "tiny/ant_cycles",
        "tiny/scnn_energy_uj",
        "tiny/ant_energy_uj",
        "tiny/wall_us",
        "tiny/wall_us_spread",
        "tiny/effectual_macs_per_sec",
    ] {
        assert!(entry.metrics.contains_key(metric), "missing {metric}");
    }
    assert!(entry.metrics["tiny/scnn_cycles"] > 0.0);
    assert!(entry.metrics["tiny/ant_cycles"] > 0.0);
    // The test binary links ant-bench, so the counting allocator is the
    // global allocator and record() enables it: alloc metrics must exist
    // and show real traffic.
    assert!(
        entry.metrics.get("tiny/alloc_bytes").copied().unwrap_or(0.0) > 0.0,
        "counting allocator saw no traffic: {:?}",
        entry.metrics
    );
    assert!(entry.metrics["tiny/allocs"] > 0.0);
}

#[test]
fn record_is_deterministic_in_simulated_metrics() {
    let a = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    let b = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    for metric in [
        "tiny/scnn_cycles",
        "tiny/ant_cycles",
        "tiny/scnn_energy_uj",
        "tiny/ant_energy_uj",
    ] {
        assert_eq!(a.metrics[metric], b.metrics[metric], "{metric} drifted");
    }
}

#[test]
fn ledger_appends_and_loads_round_trip() {
    let path = temp_ledger("round-trip");
    let first = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    history::append(&path, &first).expect("append first");
    let mut second = first.clone();
    second.timestamp_unix_ms += 1;
    history::append(&path, &second).expect("append second");
    let loaded = history::load(&path).expect("load");
    assert_eq!(loaded.len(), 2);
    assert_eq!(loaded[0], first);
    assert_eq!(loaded[1], second);
    std::fs::remove_file(&path).ok();
}

#[test]
fn loading_missing_ledger_is_empty_not_error() {
    let path = temp_ledger("never-written");
    std::fs::remove_file(&path).ok();
    assert_eq!(history::load(&path).expect("missing file ok"), Vec::new());
}

#[test]
fn loading_corrupt_ledger_names_the_line() {
    let path = temp_ledger("corrupt");
    std::fs::write(&path, "{\"schema\":\"ant-bench-history/1\"\nnot json\n").expect("write");
    let err = history::load(&path).expect_err("corrupt ledger");
    assert!(err.to_string().contains(":1:"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn lenient_load_skips_corrupt_lines_and_counts_them() {
    // A killed run can truncate the last line mid-write; the compare path
    // must still see every intact entry rather than refusing the ledger.
    let path = temp_ledger("lenient");
    let good = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    history::append(&path, &good).expect("append good");
    let mut text = std::fs::read_to_string(&path).expect("read back");
    text.push_str("not json at all\n");
    text.push_str(&good.to_json_line()[..40]); // truncated mid-write
    text.push('\n');
    std::fs::write(&path, text).expect("corrupt");
    let (entries, skipped) = history::load_lenient(&path).expect("lenient load");
    assert_eq!(entries, vec![good]);
    assert_eq!(skipped, 2);
    std::fs::remove_file(&path).ok();
}

/// Acceptance: a recorded run compared against itself reports zero
/// regressions, and the same run with a 10% injected cycle regression is
/// flagged at the default 5% threshold.
#[test]
fn self_compare_is_clean_and_injected_regression_is_flagged() {
    let entry = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");

    let self_report = history::compare(&entry, &entry, DEFAULT_THRESHOLD);
    assert!(
        !self_report.has_regressions(),
        "self-compare regressed: {:?}",
        self_report.regressions()
    );

    let mut regressed = entry.clone();
    let cycles = regressed.metrics["tiny/ant_cycles"];
    regressed
        .metrics
        .insert("tiny/ant_cycles".to_string(), cycles * 1.10);
    let report = history::compare(&entry, &regressed, DEFAULT_THRESHOLD);
    assert!(report.has_regressions());
    let names: Vec<&str> = report
        .regressions()
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    assert_eq!(names, vec!["tiny/ant_cycles"]);
    let markdown = report.to_markdown();
    assert!(markdown.contains("tiny/ant_cycles"));
    assert!(markdown.contains("REGRESSED"));
}

#[test]
fn median_window_gates_like_a_single_baseline() {
    let base = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    let mut jitter = base.clone();
    // Wall-time noise across window entries must not leak into the median's
    // deterministic metrics.
    jitter
        .metrics
        .insert("tiny/wall_us".to_string(), base.metrics["tiny/wall_us"] * 3.0);
    let window = [&base, &jitter, &base];
    let median = history::median_of(&window);
    assert_eq!(
        median.metrics["tiny/ant_cycles"],
        base.metrics["tiny/ant_cycles"]
    );
    let report = history::compare(&median, &base, DEFAULT_THRESHOLD);
    assert!(!report.has_regressions(), "{:?}", report.regressions());
}

/// `entry` as if recorded on `host` with 10x the wall time.
fn ten_times_slower(entry: &HistoryEntry, host: Option<Host>) -> HistoryEntry {
    let mut slow = entry.clone();
    slow.host = host;
    let wall = slow.metrics["tiny/wall_us"];
    slow.metrics.insert("tiny/wall_us".to_string(), wall * 10.0);
    slow
}

/// The compare `bench_history compare` runs with no refs over `ledger`.
fn gate(ledger: &[HistoryEntry]) -> history::CompareReport {
    let selection = history::select(ledger, None, 5).expect("something to compare");
    history::compare(&selection.baseline, selection.candidate, DEFAULT_THRESHOLD)
}

fn status<'a>(report: &'a history::CompareReport, name: &str) -> &'a str {
    report
        .deltas
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.status())
        .unwrap_or_else(|| panic!("{name} not compared"))
}

#[test]
fn host_metrics_gate_only_against_the_candidates_host() {
    let a = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    assert_eq!(a.host, Some(Host::current()));
    let host_b = Some(Host {
        nproc: a.host.as_ref().map_or(1, |h| h.nproc) + 62,
        cpu_model: Some("another CPU".to_string()),
        arch: "another-arch".to_string(),
    });

    // Host B runs 10x slower at equal cycles: its wall time is not gated
    // against host A's median, and the report says why.
    let on_b = ten_times_slower(&a, host_b.clone());
    let report = gate(&[a.clone(), a.clone(), on_b.clone()]);
    assert!(!report.has_regressions(), "{:?}", report.regressions());
    assert_eq!(status(&report, "tiny/wall_us"), "other host");
    assert_eq!(status(&report, "tiny/alloc_bytes"), "other host");
    assert_eq!(status(&report, "tiny/ant_cycles"), "ok");
    let warning = report.host_warning.as_deref().expect("cross-host warning");
    assert!(warning.contains("another CPU"), "{warning}");
    assert!(report.to_markdown().contains("other host"));
    let json = ant_obs::parse_json(&report.to_json()).expect("valid JSON");
    let metrics = json.get("metrics").and_then(|m| m.as_array()).expect("metrics");
    assert!(metrics.iter().any(|m| {
        m.get("name").and_then(|s| s.as_str()) == Some("tiny/wall_us")
            && m.get("status").and_then(|s| s.as_str()) == Some("other host")
    }));

    // Cycles still gate across hosts: +20% on host B regresses.
    let mut worse = on_b.clone();
    let cycles = worse.metrics["tiny/ant_cycles"];
    worse.metrics.insert("tiny/ant_cycles".to_string(), cycles * 1.2);
    let report = gate(&[a.clone(), a.clone(), worse.clone()]);
    let names: Vec<&str> = report.regressions().iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, vec!["tiny/ant_cycles"]);
    // An explicit pair follows the same rule.
    let names: Vec<String> = history::compare(&a, &worse, DEFAULT_THRESHOLD)
        .regressions()
        .iter()
        .map(|d| d.name.clone())
        .collect();
    assert_eq!(names, vec!["tiny/ant_cycles".to_string()]);

    // The same 10x wall jump on one host regresses.
    let report = gate(&[a.clone(), a.clone(), ten_times_slower(&a, a.host.clone())]);
    assert_eq!(status(&report, "tiny/wall_us"), "regressed");
    assert!(report.host_warning.is_none());

    // A prior host-B entry becomes the candidate's host baseline, while
    // cycles keep the median over both hosts.
    let report = gate(&[a.clone(), on_b.clone(), on_b]);
    assert!(!report.has_regressions(), "{:?}", report.regressions());
    assert_eq!(status(&report, "tiny/wall_us"), "ok");
    assert!(report.host_warning.is_none());
}

#[test]
fn unstamped_and_stamped_lines_round_trip() {
    let path = temp_ledger("host-stamps");
    let stamped = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    let mut legacy = stamped.clone();
    legacy.host = None;
    assert!(!legacy.to_json_line().contains("\"host\""));
    assert!(stamped.to_json_line().contains("\"host\":{\"nproc\":"));
    history::append(&path, &legacy).expect("append legacy");
    history::append(&path, &stamped).expect("append stamped");
    assert_eq!(history::load(&path).expect("load"), vec![legacy, stamped]);
    std::fs::remove_file(&path).ok();

    // Every committed ledger line predates host stamps and still loads.
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_history.jsonl");
    let (entries, skipped) = history::load_lenient(&committed).expect("committed ledger");
    assert_eq!(skipped, 0);
    assert!(!entries.is_empty());
}

#[test]
fn unknown_label_is_rejected_but_known_labels_parse() {
    assert_eq!(WorkloadSet::from_label("fig09"), Some(WorkloadSet::Fig09));
    assert_eq!(
        WorkloadSet::from_label("fig09@16"),
        Some(WorkloadSet::Fig09At16)
    );
    assert_eq!(WorkloadSet::Fig09At16.label(), "fig09@16");
    assert!(!WorkloadSet::Fig09At16.warm_cache());
    assert_eq!(WorkloadSet::from_label("tiny"), Some(WorkloadSet::Tiny));
    assert_eq!(
        WorkloadSet::from_label("fig09-warm"),
        Some(WorkloadSet::Fig09Warm)
    );
    assert_eq!(
        WorkloadSet::from_label("tiny-warm"),
        Some(WorkloadSet::TinyWarm)
    );
    assert!(WorkloadSet::Fig09Warm.warm_cache());
    assert!(!WorkloadSet::Fig09.warm_cache());
    assert_eq!(WorkloadSet::Fig09Warm.label(), "fig09-warm");
    assert_eq!(WorkloadSet::TinyWarm.label(), "tiny-warm");
    assert_eq!(
        WorkloadSet::from_label("microbench"),
        Some(WorkloadSet::Microbench)
    );
    assert_eq!(
        WorkloadSet::from_label("microbench-tiny"),
        Some(WorkloadSet::MicrobenchTiny)
    );
    assert_eq!(WorkloadSet::Microbench.label(), "microbench");
    assert_eq!(WorkloadSet::MicrobenchTiny.label(), "microbench-tiny");
    assert!(!WorkloadSet::Microbench.warm_cache());
    assert_eq!(WorkloadSet::from_label("bogus"), None);
}

#[test]
fn entries_with_nonfinite_metrics_round_trip_as_absent() {
    // Non-finite rates (e.g. a zero-wall-time throughput division guarded
    // upstream) serialize as null and drop out on parse instead of
    // poisoning comparisons.
    let mut metrics = BTreeMap::new();
    metrics.insert("tiny/ant_cycles".to_string(), 100.0);
    metrics.insert("tiny/broken_per_sec".to_string(), f64::INFINITY);
    let entry = HistoryEntry {
        label: "tiny".to_string(),
        git_revision: None,
        timestamp_unix_ms: 1,
        repeats: 1,
        host: None,
        metrics,
    };
    let parsed = HistoryEntry::parse(&entry.to_json_line()).expect("parse");
    assert_eq!(parsed.metrics.len(), 1);
    assert!(parsed.metrics.contains_key("tiny/ant_cycles"));
}
