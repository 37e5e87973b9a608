//! Metric catalog, summary statistics, and the result line.
//!
//! Every metric the benchmark can print is declared once here with its
//! unit; `BENCHMARK.json` must name the same metrics with the same units
//! (the self-test checks it).

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// The six simulated machines, by metric key.
pub const MACHINE_KEYS: [&str; 6] = [
    "scnn_plus",
    "ant",
    "dadiannao",
    "tensordash",
    "gospa",
    "dst",
];

/// Per-layer metrics (traced run), with units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("workloads.synth_ms", "ms");
    add("workloads.synth_calls", "count");
    add("workloads.synth_distinct_frac", "fraction");
    add("nn.materialize_ms", "ms");
    add("nn.pairs_materialized", "count");
    add("nn.materialized_mb", "MB");
    for m in MACHINE_KEYS {
        add(&format!("sim.{m}.pair_ns"), "ns");
    }
    add("sim.scnn_plus.host_ns_per_sim_cycle", "ns");
    add("sim.ant.host_ns_per_sim_cycle", "ns");
    add("sim.pairs", "count");
    add("sim.pair_ms", "ms");
    add("sim.matmul_ms", "ms");
    add("sim.analytic_pair_frac", "fraction");
    add("sim.fig09_geomean_speedup", "x");
    add("sim.fig09_geomean_energy_reduction", "x");
    add("sim.fig09_speedup_err_pct", "%");
    add("sim.fig09_energy_err_pct", "%");
    add("sim.ant.rcps_avoided_frac", "fraction");
    for m in ["ant", "scnn_plus"] {
        for cause in ant_sim::CycleCause::ALL {
            add(&format!("sim.{m}.cycles_{}_frac", cause.name()), "fraction");
        }
    }
    add("sparse.bitmask_and_count_ns", "ns");
    add("sparse.csr_compress_us", "us");
    add("core.fnir_scan_us", "us");
    add("fingerprint.plane_us", "us");
    add("runner.wall_ms", "ms");
    add("runner.calls", "count");
    add("runner.self_ms", "ms");
    add("runner.self_frac", "fraction");
    add("runner.sim_pairs_per_s", "1/s");
    add("runner.worker_utilization", "fraction");
    add("runner.steal_frac", "fraction");
    add("runner.pair_retries", "count");
    add("runner.pair_failures", "count");
    add("simcache.hits", "count");
    add("simcache.misses", "count");
    add("simcache.hit_frac", "fraction");
    add("simcache.entries", "count");
    add("simcache.store_mb", "MB");
    add("checkpoint.files", "count");
    add("checkpoint.mb", "MB");
    add("checkpoint.replayed_jobs", "count");
    add("serve.jobs", "count");
    add("serve.post_ms_p50", "ms");
    add("serve.get_ms_p50", "ms");
    add("serve.polls_per_job", "count");
    add("serve.wait_ms_p50", "ms");
    add("serve.run_ms_p50", "ms");
    add("serve.run_overhead_ms_p50", "ms");
    add("serve.repeat_cell_frac", "fraction");
    add("serve.shed", "count");
    add("serve.retries", "count");
    add("serve.spool_mb", "MB");
    add("harness.trace_overhead_frac", "fraction");
    out
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank-interpolated percentile of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Per-metric medians across iterations (each iteration a name → value map).
pub fn median_maps(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = maps.iter().flat_map(|m| m.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vals: Vec<f64> = maps.iter().filter_map(|m| m.get(k).copied()).collect();
            (k.clone(), median(&vals))
        })
        .collect()
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (see each workload for what an
    /// operation is).
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Keeps only the metrics of one kind, filling any the workload does
    /// not exercise with 0 so every run prints the full set.
    pub fn select(&self, trace: bool) -> Vec<(String, f64, &'static str)> {
        let names: Vec<(String, &'static str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        names
            .into_iter()
            .map(|(n, u)| {
                let v = self.metrics.get(&n).copied().unwrap_or(0.0);
                (n, v, u)
            })
            .collect()
    }
}

/// Formats a finite number as JSON with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The JSON result line: correctness, operation counts, and every selected
/// metric with its unit.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.check_failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.select(trace).iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    line.push_str("}}");
    line
}

/// Prints every selected metric by name with its unit, then the result
/// line, which is the last line of standard output.
pub fn print_result(outcome: &Outcome, trace: bool) {
    for (name, value, unit) in outcome.select(trace) {
        println!("metric {name:<40} {value:>16.6} {unit}");
    }
    for failure in &outcome.check_failures {
        println!("check FAILED: {failure}");
    }
    println!("{}", result_line(outcome, trace));
}
