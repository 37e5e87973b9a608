//! Table 5: proportion of RCPs avoided by ANT per network at 90% sparse
//! training.
//!
//! Paper reference: DenseNet-121 93.6%, ResNet18 98.0%, VGG16 74.9%,
//! WRN-16-8 94.8%, ResNet50 91.9% — average 90.3%.

use ant_bench::obs::Experiment;
use ant_bench::redundancy::RedundancyLedger;
use ant_bench::report::{percent, Table};
use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_sim::ant::AntAccelerator;
use ant_workloads::models::figure9_networks;

fn main() -> Result<(), ant_sim::AntError> {
    let cfg = ExperimentConfig::paper_default();
    let ant = AntAccelerator::paper_default();
    let mut exp = Experiment::start(
        "tab05_rcps_avoided",
        "Table 5: RCPs avoided by ANT at 90% sparsity",
    )?;
    exp.config("sparsity", 0.9).config_experiment(&cfg);
    println!();
    let paper = [93.6, 98.0, 74.9, 94.8, 91.9];
    let mut table = Table::new(&["network", "RCPs avoided", "paper"]);
    let mut sum = 0.0;
    let nets = figure9_networks();
    let mut ledger = RedundancyLedger::new();
    let mut progress = exp.progress(nets.len());
    for (net, paper_pct) in nets.iter().zip(paper.iter()) {
        let result = try_simulate_network_parallel(&ant, net, &cfg, &RunOptions::default())?;
        ledger.add_network(&result, net);
        let avoided = result.total.rcps_avoided_fraction();
        sum += avoided;
        table.push_row(vec![
            net.name.to_string(),
            percent(avoided),
            format!("{paper_pct:.1}%"),
        ]);
        progress.step(net.name);
    }
    progress.finish();
    print!("{}", table.render());
    let average = sum / nets.len() as f64;
    println!("\naverage: {}   (paper average: 90.3%)", percent(average));
    exp.stat("average_rcps_avoided", average)
        .stat("networks", nets.len() as u64);
    // Table 5 is *the* RCP table, so it carries the full per-layer
    // attribution sidecar too; CI equates `obsctl redundancy --json`
    // totals over it with the aggregate counters mirrored here.
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
