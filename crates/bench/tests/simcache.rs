//! End-to-end tests of the content-addressed simulation cache and the
//! analytic fast path through the parallel runner.
//!
//! This file intentionally holds a single test: the cache activation
//! override is process-global (like chaos injection), so scenarios run
//! sequentially inside one test body.

use ant_bench::runner::{
    simulate_network, try_simulate_network_parallel, ExperimentConfig, NetworkResult, RunOptions,
};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_sim::inner::DenseInnerProduct;
use ant_sim::scnn::ScnnPlus;
use ant_sim::ConvSim;
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

fn config() -> ExperimentConfig {
    ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    }
}

fn run<S: ConvSim + Sync>(pe: &S, threads: usize) -> NetworkResult {
    let opts = RunOptions {
        threads: Some(threads),
        ..RunOptions::default()
    };
    try_simulate_network_parallel(pe, &tiny_net(), &config(), &opts).expect("run succeeds")
}

/// Byte-level equality of everything the figures consume.
fn assert_identical(a: &NetworkResult, b: &NetworkResult, what: &str) {
    assert_eq!(a.total, b.total, "{what}: totals diverged");
    assert_eq!(a.wall_cycles, b.wall_cycles, "{what}: wall cycles diverged");
    for pi in 0..3 {
        assert_eq!(a.per_phase[pi].1, b.per_phase[pi].1, "{what}: phase {pi}");
    }
    assert_eq!(a.per_layer.len(), b.per_layer.len(), "{what}: layer count");
    for (la, lb) in a.per_layer.iter().zip(&b.per_layer) {
        assert_eq!(la.stats, lb.stats, "{what}: layer {} stats", la.name);
        assert_eq!(la.phases, lb.phases, "{what}: layer {} phases", la.name);
    }
}

#[test]
fn cache_serves_warm_runs_byte_identically() {
    let scnn = ScnnPlus::paper_default();
    let dense = DenseInnerProduct::paper_default();

    // Reference runs with the cache forced off.
    simcache::set_override(CacheOverride::Off);
    let baseline = run(&scnn, 3);
    let dense_baseline = run(&dense, 3);
    assert_eq!(baseline.cache_hits, 0);
    assert_eq!(baseline.cache_misses, 0);
    assert_eq!(baseline.analytic_pairs, 0);

    // --- In-memory tier ---------------------------------------------------
    simcache::set_override(CacheOverride::On(SimCacheConfig::default()));
    let cold = run(&scnn, 3);
    assert_identical(&cold, &baseline, "cold cache run");
    assert_eq!(cold.cache_hits, 0, "nothing cached yet");
    assert_eq!(cold.cache_misses, 2, "both layers recorded");
    assert_eq!(cold.analytic_pairs, 0, "SCNN+ has no closed form");

    let warm = run(&scnn, 3);
    assert_identical(&warm, &baseline, "warm cache run");
    assert_eq!(warm.cache_hits, 2, "both layers served from cache");
    assert_eq!(warm.cache_misses, 0);

    // Bit-identical for any thread count with the cache on.
    for threads in [1, 2, 5] {
        let again = run(&scnn, threads);
        assert_identical(&again, &baseline, "warm run thread-count sweep");
        assert_eq!(again.cache_hits, 2);
    }

    // Tier 2: the dense machine answers every pair analytically, so a cold
    // cache-enabled run dispatches zero jobs and still matches emulation.
    let dense_cold = run(&dense, 3);
    assert_identical(&dense_cold, &dense_baseline, "dense analytic run");
    assert_eq!(dense_cold.analytic_pairs, 24, "2 layers x 3 phases x 4 pairs");
    assert_eq!(dense_cold.cache_misses, 2);
    let dense_warm = run(&dense, 3);
    assert_identical(&dense_warm, &dense_baseline, "dense warm run");
    assert_eq!(dense_warm.cache_hits, 2);
    assert_eq!(dense_warm.analytic_pairs, 0, "cache hit precedes analytic");

    // --- On-disk tier -----------------------------------------------------
    let dir = std::env::temp_dir().join(format!("ant_bench_simcache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(dir.clone()),
    }));
    let disk_cold = run(&scnn, 3);
    assert_identical(&disk_cold, &baseline, "disk cold run");
    assert_eq!(disk_cold.cache_misses, 2);
    let store = dir.join("simcache.jsonl");
    let body = std::fs::read_to_string(&store).expect("store written");
    assert_eq!(body.lines().count(), 2, "one line per clean layer");
    assert!(body.starts_with("{\"schema\":\"ant-simcache/1\""));

    // A fresh activation starts from an empty in-memory map and reloads the
    // persisted entries: the warm run is served entirely from disk.
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(dir.clone()),
    }));
    let disk_warm = run(&scnn, 3);
    assert_identical(&disk_warm, &baseline, "disk warm run");
    assert_eq!(disk_warm.cache_hits, 2);
    let stats = simcache::stats().expect("cache active");
    assert_eq!(stats.loaded, 2);
    assert_eq!(stats.skipped_corrupt + stats.skipped_stale + stats.skipped_poisoned, 0);

    // --- Robustness: corrupt, truncated, stale, poisoned lines ------------
    let good = std::fs::read_to_string(&store).unwrap();
    let mut lines: Vec<&str> = good.lines().collect();
    assert_eq!(lines.len(), 2);
    let keep = lines.remove(0);
    let victim = lines.remove(0);
    let truncated = &victim[..victim.len() / 2];
    let stale = keep.replacen("ant-simcache/1", "ant-simcache/0", 1);
    // Poison the kept line's counters without touching its check hash.
    let needle = "\"pe_cycles\":";
    let at = victim.find(needle).expect("counters serialized") + needle.len();
    let mut poisoned = String::new();
    poisoned.push_str(&victim[..at]);
    poisoned.push('9');
    poisoned.push_str(&victim[at..]);
    let tampered = format!("{keep}\nnot json at all\n{truncated}\n{stale}\n{poisoned}\n");

    // The salvaged store mixes a cached and a fresh layer in one run; both
    // must match the serial reference, at one worker and at several.
    let reference = simulate_network(&scnn, &tiny_net(), &config());
    for threads in [3, 1, 5] {
        std::fs::write(&store, &tampered).unwrap();
        simcache::set_override(CacheOverride::On(SimCacheConfig {
            dir: Some(dir.clone()),
        }));
        let salvaged = run(&scnn, threads);
        let what = format!("salvaged store run, threads={threads}");
        assert_identical(&salvaged, &baseline, &what);
        assert_identical(&salvaged, &reference, &what);
        let stats = simcache::stats().expect("cache active");
        assert_eq!(stats.loaded, 1, "only the intact line survives");
        assert_eq!(stats.skipped_corrupt, 2, "garbage + truncated");
        assert_eq!(stats.skipped_stale, 1, "schema-bumped line");
        assert_eq!(stats.skipped_poisoned, 1, "tampered counters fail the check");
        assert_eq!(salvaged.cache_hits, 1, "intact layer served");
        assert_eq!(salvaged.cache_misses, 1, "lost layer resimulated and re-recorded");
    }

    // The resimulated layer was appended back: a final activation serves
    // both layers again.
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(dir.clone()),
    }));
    let healed = run(&scnn, 3);
    assert_identical(&healed, &baseline, "healed store run");
    assert_eq!(healed.cache_hits, 2);

    simcache::set_override(CacheOverride::Env);
    let _ = std::fs::remove_dir_all(&dir);
}
