//! Deterministic fault-injection tests for the hardened parallel runner.
//!
//! The chaos harness (`ant_sim::chaos`) makes every injected fault a pure
//! function of `(seed, layer, phase, pair, attempt)`, so the test computes
//! the exact expected quarantine set up front, runs the sweep under
//! injection, and asserts the [`FailureReport`] matches it — and that the
//! layers the faults did *not* touch come out byte-identical to a clean
//! run. The runner simulates one resident image per job; a fault on one
//! pair must quarantine exactly that pair while the other pairs of its
//! image job still count.
//!
//! Chaos state is process-global, so everything lives in one `#[test]` to
//! keep activation windows from overlapping.

use std::collections::{BTreeSet, HashMap};

use ant_bench::redundancy::RedundancyLedger;
use ant_bench::runner::{
    pair_jobs, simulate_network, try_simulate_network_parallel, ExperimentConfig, RunOptions,
};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_conv::efficiency::TrainingPhase;
use ant_sim::chaos::{self, ChaosConfig, Fault};
use ant_sim::scnn::ScnnPlus;
use ant_sim::SimStats;
use ant_workloads::{ConvLayerSpec, NetworkModel};

fn phase_index(phase: TrainingPhase) -> usize {
    match phase {
        TrainingPhase::Forward => 0,
        TrainingPhase::Backward => 1,
        TrainingPhase::Update => 2,
    }
}

fn chaos_net() -> NetworkModel {
    NetworkModel {
        name: "chaos-tiny",
        layers: vec![
            ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
            ConvLayerSpec::new("l3", 2, 4, 3, 8, 1, 1, 1),
        ],
    }
}

/// Every sampled `(layer, phase-index, pair)` coordinate of the network
/// with the pair's raw counters, in serial simulation order.
fn job_coordinates(
    net: &NetworkModel,
    cfg: &ExperimentConfig,
) -> Vec<((usize, usize, usize), SimStats)> {
    let pe = ScnnPlus::paper_default();
    let mut next_pair: HashMap<(usize, usize), usize> = HashMap::new();
    pair_jobs(&pe, net, cfg)
        .iter()
        .map(|job| {
            let slot = next_pair
                .entry((job.layer_index, phase_index(job.phase)))
                .or_insert(0);
            let coord = (job.layer_index, phase_index(job.phase), *slot);
            *slot += 1;
            (coord, job.stats)
        })
        .collect()
}

#[test]
fn seeded_chaos_quarantines_exactly_the_injected_failures() {
    let cfg = ExperimentConfig::paper_default();
    let net = chaos_net();
    let pe = ScnnPlus::paper_default();
    let jobs = job_coordinates(&net, &cfg);
    let coords: Vec<(usize, usize, usize)> = jobs.iter().map(|&(coord, _)| coord).collect();
    assert!(coords.len() > 50, "net too small to exercise chaos");

    // Find a seed whose pure fault schedule kills at least three pair jobs
    // across at least two layers while leaving at least one layer clean.
    // `fault_for` is pure, so the first qualifying seed is stable forever.
    let mut found = None;
    for seed in 0..5_000u64 {
        let config = ChaosConfig {
            panic_prob: 0.10,
            truncate_prob: 0.05,
            shape_prob: 0.05,
            ..ChaosConfig::quiet(seed)
        };
        let quarantined: BTreeSet<(usize, usize, usize)> = coords
            .iter()
            .filter(|&&(l, p, r)| {
                config.fault_for(l, p, r, 0).is_some() && config.fault_for(l, p, r, 1).is_some()
            })
            .copied()
            .collect();
        let hit_layers: BTreeSet<usize> = quarantined.iter().map(|&(l, _, _)| l).collect();
        let clean_layer = (0..net.layers.len()).any(|l| !hit_layers.contains(&l));
        if quarantined.len() >= 3 && hit_layers.len() >= 2 && clean_layer {
            found = Some((config, quarantined));
            break;
        }
    }
    let (config, expected) = found.expect("no qualifying chaos seed in 0..5000");
    let expected_retries = coords
        .iter()
        .filter(|&&(l, p, r)| config.fault_for(l, p, r, 0).is_some())
        .count() as u64;

    let clean_serial = simulate_network(&pe, &net, &cfg);
    let opts = RunOptions {
        threads: Some(3),
        ..RunOptions::default()
    };

    // Injected panics would spray backtraces over the test output; the
    // runner catches every one, so silence the hook for the window.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_override(Some(config));
    let run_a = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("chaos run completes");
    let run_b = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("chaos run completes");
    chaos::set_override(None);
    std::panic::set_hook(prev_hook);

    // The report holds exactly the injected quarantine set, in
    // deterministic (layer, phase, pair) order.
    assert!(run_a.partial, "quarantined run must be flagged partial");
    let got: Vec<(usize, usize, usize)> = run_a
        .failures
        .failures
        .iter()
        .map(|f| (f.layer_index, phase_index(f.phase), f.pair))
        .collect();
    assert!(
        got.windows(2).all(|w| w[0] < w[1]),
        "report not sorted: {got:?}"
    );
    assert_eq!(got.iter().copied().collect::<BTreeSet<_>>(), expected);
    assert_eq!(got.len(), expected.len());
    assert_eq!(run_a.failures.retries, expected_retries);
    for f in &run_a.failures.failures {
        assert_eq!(f.machine, "SCNN+");
        assert_eq!(f.layer, net.layers[f.layer_index].name);
        assert_eq!(f.attempts, 2);
        // The report carries the retry's fault, exactly as a per-pair job
        // would: the image session changes nothing about a pair's error.
        let retry_fault = config.fault_for(f.layer_index, phase_index(f.phase), f.pair, 1);
        let kinds: &[&str] = match retry_fault.expect("quarantined pairs failed their retry") {
            Fault::WorkerPanic => &["panic"],
            Fault::TruncatedCsr => &["sparse"],
            Fault::CorruptShape => &["shape", "operand"],
        };
        assert!(
            kinds.contains(&f.error.kind()),
            "unexpected failure kind {:?} ({})",
            f.error.kind(),
            f.error
        );
    }

    // Exactly the quarantined pairs are missing: every other pair — the
    // siblings sharing a faulted pair's image job included — is simulated
    // and counted once.
    let mut surviving = SimStats::default();
    for (coord, stats) in &jobs {
        if !expected.contains(coord) {
            surviving.accumulate(stats);
        }
    }
    assert_eq!(
        run_a.simulated, surviving,
        "siblings of a quarantined pair lost work"
    );

    // Bit-identical across reruns under the same injection.
    assert_eq!(run_a.total, run_b.total);
    assert_eq!(
        run_b
            .failures
            .failures
            .iter()
            .map(|f| (f.layer_index, phase_index(f.phase), f.pair))
            .collect::<Vec<_>>(),
        got
    );

    // Layers no fault touched are byte-identical to the clean serial run;
    // the quarantined layers lost work.
    let hit_layers: BTreeSet<usize> = expected.iter().map(|&(l, _, _)| l).collect();
    for (clean_layer, chaos_layer) in clean_serial.per_layer.iter().zip(run_a.per_layer.iter()) {
        assert_eq!(clean_layer.index, chaos_layer.index);
        if hit_layers.contains(&chaos_layer.index) {
            assert!(
                chaos_layer.stats.mults <= clean_layer.stats.mults,
                "quarantined layer gained work"
            );
        } else {
            assert_eq!(
                clean_layer.stats, chaos_layer.stats,
                "unaffected layer {} diverged under chaos",
                clean_layer.name
            );
        }
    }
    assert_ne!(clean_serial.total, run_a.total);

    // The redundancy ledger reflects the quarantine deterministically:
    // rows for fault-hit layers are flagged partial and never count the
    // quarantined pairs' products, clean-layer rows are byte-identical to
    // the clean serial run's rows, and a rerun under the same injection
    // produces the identical ledger.
    let mut clean_ledger = RedundancyLedger::new();
    clean_ledger.add_network(&clean_serial, &net);
    let mut ledger_a = RedundancyLedger::new();
    ledger_a.add_network(&run_a, &net);
    let mut ledger_b = RedundancyLedger::new();
    ledger_b.add_network(&run_b, &net);
    assert_eq!(ledger_a.rows(), ledger_b.rows(), "ledger not deterministic");
    assert_eq!(ledger_a.len(), clean_ledger.len());
    for (clean_row, chaos_row) in clean_ledger.rows().iter().zip(ledger_a.rows()) {
        assert_eq!(clean_row.layer_index, chaos_row.layer_index);
        assert_eq!(clean_row.phase, chaos_row.phase);
        if hit_layers.contains(&chaos_row.layer_index) {
            assert!(chaos_row.partial, "fault-hit layer row not flagged partial");
            assert!(
                chaos_row.record.pairs_total <= clean_row.record.pairs_total,
                "quarantined pairs leaked into the ledger: {chaos_row:?}"
            );
        } else {
            assert!(!chaos_row.partial, "clean layer row flagged partial");
            assert_eq!(
                clean_row, chaos_row,
                "clean-layer ledger row diverged under chaos"
            );
        }
    }
    // At least one phase row actually lost quarantined products.
    assert!(
        clean_ledger
            .rows()
            .iter()
            .zip(ledger_a.rows())
            .any(|(c, a)| c.record.pairs_total > a.record.pairs_total),
        "quarantine removed no products from the ledger"
    );
    assert_ne!(clean_ledger.totals(), ledger_a.totals());

    // With chaos cleared the same entry point is clean and byte-identical
    // to the serial baseline again.
    let clean_parallel =
        try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("clean run completes");
    assert!(clean_parallel.failures.is_clean());
    assert!(!clean_parallel.partial);
    assert_eq!(clean_parallel.failures.retries, 0);
    assert_eq!(clean_parallel.total, clean_serial.total);

    // The simulation cache must stand down entirely under chaos injection:
    // no lookups, no analytic substitution, and — critically — no entries
    // recorded from a run whose layers may be quarantined.
    simcache::set_override(CacheOverride::On(SimCacheConfig::default()));
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_override(Some(config));
    let chaos_cached = try_simulate_network_parallel(&pe, &net, &cfg, &opts)
        .expect("chaos run with cache enabled completes");
    chaos::set_override(None);
    std::panic::set_hook(prev_hook);
    assert_eq!(chaos_cached.total, run_a.total, "cache changed a chaos run");
    assert_eq!(chaos_cached.cache_hits, 0);
    assert_eq!(chaos_cached.cache_misses, 0);
    assert_eq!(chaos_cached.analytic_pairs, 0);
    let stats = simcache::stats().expect("cache override active");
    assert_eq!(
        stats.entries, 0,
        "a chaos run (quarantined layers included) must record nothing"
    );

    // With chaos cleared the same cache activation records every layer,
    // and the warm run serves all of them byte-identically.
    let cache_cold =
        try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("clean cache run completes");
    assert_eq!(cache_cold.total, clean_serial.total);
    assert_eq!(cache_cold.cache_misses, net.layers.len() as u64);
    let cache_warm =
        try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("warm cache run completes");
    assert_eq!(cache_warm.total, clean_serial.total);
    assert_eq!(cache_warm.cache_hits, net.layers.len() as u64);
    simcache::set_override(CacheOverride::Env);
}
