//! Figure 10: ANT speedup and energy vs a *dense* (zero-sparsity) SCNN+
//! baseline across ReSprop-style sparsity levels on ResNet18/CIFAR.
//!
//! Paper reference: up to 28.1x speedup and 40x energy savings at 42%/85%
//! (activation-gradient / activation) sparsity. ReSprop leaves the weights
//! dense, so only `A` and `G_A` sparsities vary.

use ant_bench::report::{ratio, Table};
use ant_bench::runner::{
    energy_ratio, speedup, try_simulate_network_parallel, ExperimentConfig, RunOptions,
};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{AntError, EnergyModel};
use ant_workloads::models::resnet18_cifar;
use ant_workloads::synth::LayerSparsity;

fn main() -> Result<(), AntError> {
    let net = resnet18_cifar();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();

    // Dense baseline: SCNN+ on fully dense traces.
    let dense_cfg = ExperimentConfig {
        sparsity: LayerSparsity::uniform(0.0),
        ..ExperimentConfig::paper_default()
    };
    let dense = try_simulate_network_parallel(&scnn, &net, &dense_cfg, &RunOptions::default())?;

    println!("Figure 10: ANT vs dense SCNN+ (ResNet18/CIFAR, ReSprop-style)\n");
    let mut table = Table::new(&["G_A/A sparsity", "speedup vs dense", "energy vs dense"]);
    // The paper's x-axis labels measured gradient/activation sparsity pairs.
    let sweep = [
        (0.30, 0.60),
        (0.42, 0.85),
        (0.53, 0.88),
        (0.70, 0.90),
        (0.90, 0.93),
    ];
    for (g, a) in sweep {
        let cfg = ExperimentConfig {
            sparsity: LayerSparsity {
                weight: 0.0,
                activation: a,
                gradient: g,
            },
            ..ExperimentConfig::paper_default()
        };
        let result = try_simulate_network_parallel(&ant, &net, &cfg, &RunOptions::default())?;
        table.push_row(vec![
            format!("{:.0}%/{:.0}%", g * 100.0, a * 100.0),
            ratio(speedup(&dense, &result)),
            ratio(energy_ratio(&dense, &result, &energy)),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper: up to 28.1x speedup / 40x energy at 42%/85%.");
    match table.write_csv("fig10_vs_dense") {
        Ok(path) => println!("\ncsv: {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    Ok(())
}
