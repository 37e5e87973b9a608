//! Figure 9: ANT speedup and energy consumption relative to SCNN+ for
//! DenseNet-121, ResNet18, VGG16, WRN-16-8 (CIFAR, SWAT-style 90%) and
//! ResNet-50 (ImageNet, synthetic 90%).
//!
//! Paper reference: geometric mean 3.71x speedup and 4.40x lower energy.

use ant_bench::obs::Experiment;
use ant_bench::report::{geomean, percent, ratio, Table};
use ant_bench::runner::{
    energy_ratio, speedup, try_simulate_network_parallel, ExperimentConfig, RunOptions,
};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{AntError, EnergyModel};
use ant_workloads::models::figure9_networks;

fn main() -> Result<(), AntError> {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "fig09: unexpected argument {arg:?}; the sweep takes no arguments \
             (resume an interrupted sweep with ANT_CACHE_DIR=path)"
        );
        std::process::exit(2);
    }
    let cfg = ExperimentConfig::paper_default();
    let opts = RunOptions::default();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();

    let mut exp = Experiment::start(
        "fig09_speedup_energy",
        "Figure 9: ANT vs SCNN+ at 90% sparse training",
    );
    exp.config("sparsity", 0.9).config_experiment(&cfg);
    println!(
        "(config: n={}, k={}, {} PEs, channel sample {})\n",
        4, 16, cfg.num_pes, cfg.max_channels
    );

    let mut table = Table::new(&[
        "network",
        "SCNN+ cycles",
        "ANT cycles",
        "SCNN+ energy (uJ)",
        "ANT energy (uJ)",
        "speedup",
        "energy ratio",
        "RCPs avoided",
    ]);
    let networks = figure9_networks();
    let mut progress = exp.progress(networks.len());
    let mut speedups = Vec::new();
    let mut energies = Vec::new();
    let mut sim_total = ant_sim::SimStats::default();
    let mut sim_wall_us = 0u64;
    // Per-worker scheduler telemetry across the whole sweep (populated
    // only under ANT_TELEMETRY; see docs/OBSERVABILITY.md).
    let mut worker_table = ant_bench::telemetry::WorkerTable::new();
    // Per-(network, machine) simulation-cache activity across the sweep
    // (populated only under ANT_CACHE; `obsctl cache` reads it back from
    // the manifest host section).
    let mut cache_table = ant_bench::telemetry::CacheTable::new();
    // Per-(layer, phase, machine) RCP attribution for the whole sweep —
    // the `ant-redundancy/1` sidecar `obsctl redundancy` analyzes.
    let mut ledger = ant_bench::redundancy::RedundancyLedger::new();
    for net in networks {
        let s = try_simulate_network_parallel(&scnn, &net, &cfg, &opts)?;
        let a = try_simulate_network_parallel(&ant, &net, &cfg, &opts)?;
        ledger.add_network(&s, &net);
        ledger.add_network(&a, &net);
        sim_total.accumulate(&s.total);
        sim_total.accumulate(&a.total);
        sim_wall_us += s.host_wall_us + a.host_wall_us;
        worker_table.add(&s.workers);
        worker_table.add(&a.workers);
        cache_table.add(&s);
        cache_table.add(&a);
        let sp = speedup(&s, &a);
        let er = energy_ratio(&s, &a, &energy);
        speedups.push(sp);
        energies.push(er);
        table.push_row(vec![
            net.name.to_string(),
            s.wall_cycles.to_string(),
            a.wall_cycles.to_string(),
            format!("{:.3}", s.total.energy_pj(&energy) / 1e6),
            format!("{:.3}", a.total.energy_pj(&energy) / 1e6),
            ratio(sp),
            ratio(er),
            percent(a.total.rcps_avoided_fraction()),
        ]);
        progress.step(net.name);
    }
    progress.finish();
    print!("{}", table.render());
    let geo_speedup = geomean(&speedups);
    let geo_energy = geomean(&energies);
    println!(
        "\ngeomean speedup: {}   geomean energy reduction: {}",
        ratio(geo_speedup),
        ratio(geo_energy)
    );
    println!("paper:           3.71x                              4.40x");
    exp.stat("geomean_speedup", geo_speedup)
        .stat("geomean_energy_reduction", geo_energy)
        .stat("networks", speedups.len() as u64);
    // Host performance of the sweep itself: wall time plus simulated work
    // per wall second, for the bench-history ledger and regression reports.
    exp.host_stat("sim_wall_us", sim_wall_us)
        .host_throughput(&sim_total, sim_wall_us as f64 / 1e6);

    // Per-phase detail for one network: where the win comes from.
    let net = ant_workloads::models::resnet18_cifar();
    let s = try_simulate_network_parallel(&scnn, &net, &cfg, &opts)?;
    let a = try_simulate_network_parallel(&ant, &net, &cfg, &opts)?;
    worker_table.add(&s.workers);
    worker_table.add(&a.workers);
    cache_table.add(&s);
    cache_table.add(&a);
    for (key, value) in worker_table.host_stats() {
        exp.manifest().host_stat(key, value);
    }
    for (key, value) in cache_table.host_stats() {
        exp.manifest().host_stat(key, value);
    }
    println!("\nper-phase multiplications, {} (SCNN+ vs ANT):", net.name);
    for ((phase, ss), (_, aa)) in s.per_phase.iter().zip(a.per_phase.iter()) {
        println!(
            "  {:>6}: {:>12} vs {:>12}  ({} saved)",
            phase.to_string(),
            ss.mults,
            aa.mults,
            percent(1.0 - aa.mults as f64 / ss.mults.max(1) as f64)
        );
    }
    // Redundancy observatory outputs: the per-(layer, phase, machine)
    // sidecar, the manifest's aggregate RCP counters (CI cross-checks them
    // against `obsctl redundancy --json`), and the live-exporter gauges.
    ledger.record_metrics();
    ledger.record_manifest_stats(exp.manifest());
    match ledger.write(exp.name()) {
        Ok(path) => {
            exp.manifest().output(path.display().to_string());
            println!("redundancy: {}", path.display());
        }
        Err(err) => eprintln!("redundancy sidecar write failed: {err}"),
    }
    exp.finish(&table);
    Ok(())
}
