//! Warm-cache ledger recording: `record(TinyWarm)` must pre-warm the
//! simulation cache, serve every timed repeat from it, and report
//! byte-identical simulated metrics to the cold `tiny` set.
//!
//! One `#[test]` only: [`ant_bench::history::record`] flips the
//! process-global cache override for warm sets, so this scenario gets its
//! own process (like `tests/simcache.rs`).

use ant_bench::history::{self, WorkloadSet};

#[test]
fn warm_record_is_byte_identical_to_cold_and_served_from_cache() {
    let cold = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    let warm = history::record(WorkloadSet::TinyWarm, 1).expect("tiny set records");
    assert_eq!(cold.label, "tiny");
    assert_eq!(warm.label, "tiny-warm");

    // The cache may only change speed, never results: every deterministic
    // simulated metric matches the cold run bit-for-bit.
    for metric in [
        "tiny/scnn_cycles",
        "tiny/ant_cycles",
        "tiny/scnn_energy_uj",
        "tiny/ant_energy_uj",
    ] {
        assert_eq!(
            warm.metrics[metric], cold.metrics[metric],
            "{metric} diverged under the warm cache"
        );
    }

    // The warm entry proves its repeats were actually served warm: both
    // machines hit on both layers of the tiny network.
    assert_eq!(warm.metrics["tiny/cache_hits"], 4.0);
    // Cold entries never carry the key (labels gate separately, but keep
    // the cold metric set unchanged regardless).
    assert!(!cold.metrics.contains_key("tiny/cache_hits"));

    // The entry survives the ledger line format under its new label.
    let parsed =
        history::HistoryEntry::parse(&warm.to_json_line()).expect("warm entry round-trips");
    assert_eq!(parsed, warm);

    // record() restored the override: a following cold record sees no
    // cache (its metrics match the first cold entry's deterministic set).
    let cold_again = history::record(WorkloadSet::Tiny, 1).expect("tiny set records");
    assert_eq!(
        cold_again.metrics["tiny/ant_cycles"],
        cold.metrics["tiny/ant_cycles"]
    );
    assert!(!cold_again.metrics.contains_key("tiny/cache_hits"));
}
