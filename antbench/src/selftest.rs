//! `--self-test`: runs every workload at a tiny size in both modes, checks
//! that every metric `BENCHMARK.json` names is printed with its unit, and
//! checks that each output check fires on a deliberately perturbed result.

use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_obs::Json;
use ant_sim::ant::AntAccelerator;
use ant_sim::CycleCause;
use ant_workloads::synth::LayerSparsity;

use crate::report::{self, Outcome};
use crate::{grid, service, Args, WORKLOADS};

/// Metric (name, unit) pairs of one `BENCHMARK.json` section.
fn section(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn check_manifest(failures: &mut Vec<String>) -> Option<Json> {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            failures.push(format!("BENCHMARK.json: {e}"));
            return None;
        }
    };
    let doc = match ant_obs::parse_json(&text) {
        Ok(d) => d,
        Err(e) => {
            failures.push(format!("BENCHMARK.json: {e}"));
            return None;
        }
    };
    let names: Vec<String> = section(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    if names != WORKLOADS {
        failures.push(format!(
            "BENCHMARK.json workloads {names:?} != {WORKLOADS:?}"
        ));
    }
    for (key, catalog) in [
        (
            "end_to_end",
            report::END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>(),
        ),
        (
            "per_layer",
            report::per_layer()
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect(),
        ),
    ] {
        let declared = section(&doc, key);
        if declared != catalog {
            failures.push(format!(
                "BENCHMARK.json {key} differs from the benchmark's catalog"
            ));
        }
    }
    Some(doc)
}

/// Every metric of `section` appears in the result line with its unit.
fn check_printed(doc: &Json, key: &str, line: &str, what: &str, failures: &mut Vec<String>) {
    let Ok(result) = ant_obs::parse_json(line) else {
        failures.push(format!("{what}: result line is not JSON"));
        return;
    };
    for (name, unit) in section(doc, key) {
        let metric = result.get("metrics").and_then(|m| m.get(&name));
        let ok = metric.is_some_and(|m| {
            m.get("value").and_then(Json::as_f64).is_some()
                && m.get("unit").and_then(Json::as_str) == Some(unit.as_str())
        });
        if !ok {
            failures.push(format!(
                "{what}: metric {name} not printed with unit {unit}"
            ));
        }
    }
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        failures.push(format!("{what}: run not correct"));
    }
}

/// Each output check must reject a perturbed result.
fn check_checks(failures: &mut Vec<String>) {
    let mut net = ant_workloads::models::resnet18_cifar();
    net.layers.truncate(2);
    let cfg = ExperimentConfig {
        sparsity: LayerSparsity::uniform(0.9),
        max_channels: 2,
        num_pes: 64,
        seed: 7,
    };
    let opts = RunOptions {
        threads: Some(2),
        progress: Some(false),
        ..RunOptions::default()
    };
    let Ok(clean) =
        try_simulate_network_parallel(&AntAccelerator::paper_default(), &net, &cfg, &opts)
    else {
        failures.push("perturbation: reference run failed".to_string());
        return;
    };
    let fires = |r: &ant_bench::runner::NetworkResult| {
        let mut out = Outcome::default();
        grid::check_result(&mut out, "perturbed", r);
        !out.check_failures.is_empty()
    };
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("perturbation: {what}"));
        }
    };
    expect(!fires(&clean), "clean result rejected");
    let mut partial = clean.clone();
    partial.partial = true;
    expect(fires(&partial), "partial result accepted");
    let mut unattributed = clean.clone();
    *unattributed.total.cycles.get_mut(CycleCause::Compute) += 1;
    expect(
        fires(&unattributed),
        "cycles.total() != total_cycles() accepted",
    );
    let mut drifted = clean.clone();
    drifted.total.mults += 1;
    expect(grid::same_stats(&clean, &clean), "identical stats rejected");
    expect(
        !grid::same_stats(&clean, &drifted),
        "differing stats accepted",
    );
    let mut layer_drift = clean.clone();
    layer_drift.per_layer[0].phases[0].mults += 1;
    expect(
        !grid::same_stats(&clean, &layer_drift),
        "differing layer stats accepted",
    );

    let fields = clean.total.fields().to_vec();
    let row = |stats: &ant_sim::SimStats| {
        let body: Vec<String> = stats
            .fields()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{\"stats\":{{{}}}}}", body.join(","))
    };
    expect(
        service::cell_matches(&fields, &row(&clean.total)),
        "matching cell rejected",
    );
    expect(
        !service::cell_matches(&fields, &row(&drifted.total)),
        "differing cell accepted",
    );
}

/// The refusal of ambient `ANT_*` knobs, checked on a child process.
fn check_refusal(failures: &mut Vec<String>) {
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let status = std::process::Command::new(exe)
        .args(["--workload", "fig09-cold", "--seconds", "1"])
        .env("ANT_TRACE", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    if !matches!(status, Ok(s) if s.code() == Some(2)) {
        failures.push("an ANT_* variable did not stop the run".to_string());
    }
}

pub fn run() -> i32 {
    let mut failures = Vec::new();
    let doc = check_manifest(&mut failures);
    check_checks(&mut failures);
    check_refusal(&mut failures);
    for workload in WORKLOADS {
        for trace in [false, true] {
            let what = format!("{workload} trace={}", u8::from(trace));
            let args = Args {
                workload: workload.to_string(),
                seed: 3,
                seconds: 0.5,
                trace,
            };
            match crate::run(&args, true) {
                Ok(out) => {
                    let line = report::result_line(&out, trace);
                    failures.extend(out.check_failures.iter().map(|f| format!("{what}: {f}")));
                    if let Some(doc) = &doc {
                        let key = if trace { "per_layer" } else { "end_to_end" };
                        check_printed(doc, key, &line, &what, &mut failures);
                    }
                }
                Err(e) => failures.push(format!("{what}: {e}")),
            }
        }
    }
    for f in &failures {
        println!("self-test FAILED: {f}");
    }
    println!(
        "self-test: {}",
        if failures.is_empty() { "ok" } else { "FAILED" }
    );
    i32::from(!failures.is_empty())
}
