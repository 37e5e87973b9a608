//! Degradation and recovery behaviour of the hardened runner: bad configs
//! come back as typed errors, a zero worker count sizes to the CPUs, and a
//! sweep resumes byte-identically from a persistent layer cache.

use ant_bench::runner::{
    simulate_network, try_simulate_network_parallel, ExperimentConfig, NetworkResult, RunOptions,
};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_sim::scnn::ScnnPlus;
use ant_sim::AntError;
use ant_workloads::{ConvLayerSpec, NetworkModel};

fn tiny_net() -> NetworkModel {
    NetworkModel {
        name: "robust-tiny",
        layers: vec![
            ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

/// Held by the test that turns the process-wide layer cache on and by the
/// tests that count jobs: with the cache on, the analytic tier answers
/// pairs before they are dealt, so a concurrent run deals fewer jobs.
static CACHE_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn cache_state() -> std::sync::MutexGuard<'static, ()> {
    CACHE_STATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn assert_same_result(a: &NetworkResult, b: &NetworkResult, label: &str) {
    assert_eq!(a.total, b.total, "{label}");
    assert_eq!(a.wall_cycles, b.wall_cycles, "{label}");
    for ((pa, sa), (pb, sb)) in a.per_phase.iter().zip(b.per_phase.iter()) {
        assert_eq!(pa, pb, "{label}");
        assert_eq!(sa, sb, "{label}");
    }
    assert_eq!(a.per_layer.len(), b.per_layer.len(), "{label}");
    for (la, lb) in a.per_layer.iter().zip(b.per_layer.iter()) {
        assert_eq!(la.stats, lb.stats, "{label} layer {}", la.name);
    }
}

#[test]
fn zero_threads_sizes_the_pool_to_the_available_cpus() {
    let _cache_off = cache_state();
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let serial = simulate_network(&pe, &net, &cfg);
    let opts = RunOptions {
        threads: Some(0),
        telemetry: Some(true),
        ..RunOptions::default()
    };
    let zero = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("zero threads run");
    assert_same_result(&serial, &zero, "threads=0");
    assert!(!zero.partial);
    // Zero means "size to the CPUs", like `None`: one worker per available
    // CPU, capped by the job count (2 layers x 3 phases x 4x2 and 4x4
    // sampled pairs = 72 jobs).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(zero.workers.len(), cpus.min(72), "threads=0 worker count");
}

#[test]
fn empty_network_and_empty_result_are_valid() {
    let cfg = ExperimentConfig::paper_default();
    let net = NetworkModel {
        name: "empty",
        layers: vec![],
    };
    let pe = ScnnPlus::paper_default();
    let result = try_simulate_network_parallel(&pe, &net, &cfg, &RunOptions::default())
        .expect("empty network is valid");
    assert_eq!(result.per_layer.len(), 0);
    assert_eq!(result.total, ant_sim::SimStats::default());
    assert!(result.failures.is_clean());
}

#[test]
fn invalid_configs_come_back_as_typed_errors() {
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let opts = RunOptions::default();

    let mut zero_pes = ExperimentConfig::paper_default();
    zero_pes.num_pes = 0;
    let err = try_simulate_network_parallel(&pe, &net, &zero_pes, &opts).unwrap_err();
    assert!(
        matches!(
            err,
            AntError::InvalidConfig {
                param: "num_pes",
                ..
            }
        ),
        "{err}"
    );

    let mut bad_sparsity = ExperimentConfig::paper_default();
    bad_sparsity.sparsity.weight = 1.5;
    let err = try_simulate_network_parallel(&pe, &net, &bad_sparsity, &opts).unwrap_err();
    assert!(
        matches!(
            err,
            AntError::InvalidConfig {
                param: "sparsity.weight",
                ..
            }
        ),
        "{err}"
    );

    let cfg = ExperimentConfig::paper_default();
    let bad_layer = NetworkModel {
        name: "bad",
        layers: vec![ConvLayerSpec::new("l0", 4, 2, 0, 16, 1, 1, 1)],
    };
    let err = try_simulate_network_parallel(&pe, &bad_layer, &cfg, &opts).unwrap_err();
    assert!(
        matches!(err, AntError::InvalidConfig { param: "layer", .. }),
        "{err}"
    );
}

#[test]
fn generous_deadline_leaves_results_bit_identical() {
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let serial = simulate_network(&pe, &net, &cfg);
    // A deadline that never fires checks the clock at every pair boundary
    // and changes nothing: no pair skipped, nothing partial.
    let opts = RunOptions {
        threads: Some(2),
        deadline_us: Some(60_000_000),
        ..RunOptions::default()
    };
    let bounded = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("bounded run");
    assert_same_result(&serial, &bounded, "deadline");
    assert!(!bounded.partial && !bounded.deadline_exceeded);
    assert_eq!(bounded.failures.deadline_skipped, 0);
}

/// The JSON object the layer cache persists for one phase's counters
/// (field order as in `SimStats::fields`), used to find a layer's line.
fn phase_object(stats: &ant_sim::SimStats) -> String {
    let fields: Vec<String> = stats
        .fields()
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[test]
fn checkpointed_sweep_resumes_byte_identically() {
    // Resume is a warm run against a persistent layer cache. The cache is
    // process-wide and other tests in this binary run concurrently, so
    // this test uses its own seed: their entries never share its keys.
    let _cache_on = cache_state();
    let cfg = ExperimentConfig {
        seed: 0x5E50E,
        ..ExperimentConfig::paper_default()
    };
    let net = tiny_net();
    let layers = net.layers.len() as u64;
    let pe = ScnnPlus::paper_default();
    let opts = RunOptions::default();
    let serial = simulate_network(&pe, &net, &cfg);
    let dir = std::env::temp_dir().join(format!("ant-robustness-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reload = || {
        simcache::set_override(CacheOverride::On(SimCacheConfig {
            dir: Some(dir.clone()),
        }))
    };

    // First pass: everything simulates, every layer persists.
    reload();
    let first = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("first pass");
    assert_same_result(&serial, &first, "first pass");
    assert_eq!((first.cache_hits, first.cache_misses), (0, layers));

    // Second pass reloads the store from disk: every layer resolves before
    // synthesis — no simulation — and the merge is byte-identical.
    reload();
    let resumed = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("resumed pass");
    assert_same_result(&serial, &resumed, "resumed pass");
    assert_eq!((resumed.cache_hits, resumed.cache_misses), (layers, 0));

    // A corrupted store degrades to a partial resume, never a wrong
    // result: the damaged line is skipped and its layer re-simulates. The
    // cache is off while the file is rewritten, so no append can race it.
    simcache::set_override(CacheOverride::Off);
    let path = dir.join("simcache.jsonl");
    let text = std::fs::read_to_string(&path).expect("read store");
    let first_layer = phase_object(&first.per_layer[0].phases[0]);
    let found = text.lines().filter(|l| l.contains(&first_layer)).count();
    assert_eq!(found, 1, "layer 0 has exactly one line in the store");
    let damaged: String = text
        .lines()
        .map(|line| {
            if line.contains(&first_layer) {
                line.replacen("\"phases\"", "\"phasez\"", 1)
            } else {
                line.to_string()
            }
        })
        .chain([
            "{\"schema\":\"something-else\"}".to_string(),
            "garbage".to_string(),
        ])
        .map(|line| line + "\n")
        .collect();
    std::fs::write(&path, damaged).expect("corrupt store");
    reload();
    let partial = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("partial resume");
    assert_same_result(&serial, &partial, "partially resumed pass");
    assert_eq!((partial.cache_hits, partial.cache_misses), (layers - 1, 1));
    let stats = simcache::stats().expect("cache active");
    assert_eq!(
        (stats.skipped_corrupt, stats.skipped_stale),
        (2, 1),
        "{stats:?}"
    );
    simcache::set_override(CacheOverride::Env);
    let _ = std::fs::remove_dir_all(&dir);
}
