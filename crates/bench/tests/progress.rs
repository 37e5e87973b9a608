//! End-to-end test of the `ANT_OBS=progress` live status reporter through
//! the parallel runner.
//!
//! This file intentionally holds a single test: it redirects the process's
//! sidecars (the programmatic experiments-dir and stem overrides), which
//! would move the files of sibling tests in the same binary.

use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_obs::json::Json;
use ant_sim::scnn::ScnnPlus;
use ant_workloads::models::NetworkModel;

fn tiny_net() -> NetworkModel {
    NetworkModel {
        name: "tiny",
        layers: vec![
            ant_workloads::ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ant_workloads::ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

#[test]
fn progress_reporter_writes_final_status_file() {
    let dir = std::env::temp_dir().join(format!("ant_bench_progress_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ant_obs::config::set_experiments_dir(&dir);
    ant_obs::config::set_stem("progress_test");
    let status_path = dir.join("progress_test.status.json");
    assert_eq!(ant_obs::progress::status_file(), status_path);

    let cfg = ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    };
    let net = tiny_net();
    let opts = RunOptions {
        threads: Some(3),
        progress: Some(true),
        ..RunOptions::default()
    };
    let result =
        try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts).unwrap();
    assert!(!result.partial);

    let body = std::fs::read_to_string(&status_path).expect("status file written");
    let json = ant_obs::parse_json(body.trim()).expect("status file is valid JSON");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("ant-status/1")
    );
    assert_eq!(json.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(json.get("network").and_then(Json::as_str), Some("tiny"));
    assert_eq!(json.get("machine").and_then(Json::as_str), Some("SCNN+"));
    assert_eq!(json.get("threads").and_then(Json::as_u64), Some(3));
    // 2 layers x 3 phases x (2x2 sampled pairs) = 24 jobs, all completed.
    assert_eq!(json.get("pairs_total").and_then(Json::as_u64), Some(24));
    assert_eq!(json.get("pairs_done").and_then(Json::as_u64), Some(24));
    assert_eq!(json.get("layers_total").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("layers_done").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("quarantined").and_then(Json::as_u64), Some(0));
    assert_eq!(json.get("retries").and_then(Json::as_u64), Some(0));
    assert!(json.get("elapsed_s").and_then(Json::as_f64).is_some());
    assert!(json.get("pairs_per_sec").and_then(Json::as_f64).is_some());
    assert_eq!(json.get("eta_s").and_then(Json::as_f64), Some(0.0));
    assert!(json
        .get("updated_at_unix_ms")
        .and_then(Json::as_u64)
        .is_some());
    // Build identity: the key is always present (a string in a git
    // checkout, null outside one).
    assert!(
        json.get("git_revision").is_some(),
        "git_revision key present"
    );
    // No torn-write temp file is left behind.
    assert!(!dir.join("progress_test.status.json.tmp").exists());

    // With progress off (explicitly), the file is not rewritten.
    std::fs::remove_file(&status_path).unwrap();
    let opts_off = RunOptions {
        threads: Some(2),
        progress: Some(false),
        ..RunOptions::default()
    };
    let _ =
        try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts_off).unwrap();
    assert!(!status_path.exists(), "progress off must not write status");

    let _ = std::fs::remove_dir_all(&dir);
}
