//! Extra experiment: where the energy goes.
//!
//! Splits the operation-counter energy (paper Section 6.3) into its stack —
//! multiplies, accumulator adds, index operations, SRAM reads, accumulator
//! writes — for SCNN+ and ANT on the same 90%-sparse ResNet18 workload.
//! Shows *why* ANT saves 4x+: the RCP multiplications and, just as
//! importantly, the kernel SRAM traffic skipped via the CSR indirection
//! (paper Fig. 7).

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, Table};
use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{AntError, EnergyModel};
use ant_workloads::models::resnet18_cifar;

fn main() -> Result<(), AntError> {
    let opts = RunOptions::default();
    let cfg = ExperimentConfig::paper_default();
    let model = EnergyModel::paper_7nm();
    let net = resnet18_cifar();
    let s = try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts)?;
    let a = try_simulate_network_parallel(&AntAccelerator::paper_default(), &net, &cfg, &opts)?;
    let sb = s.total.energy_breakdown(&model);
    let ab = a.total.energy_breakdown(&model);

    let mut exp = Experiment::start(
        "extra_energy_breakdown",
        "Extra: energy breakdown (ResNet18/CIFAR @ 90% sparsity)",
    )?;
    exp.config("network", net.name)
        .config("sparsity", 0.9)
        .config_experiment(&cfg);
    println!();
    let mut table = Table::new(&["category", "SCNN+ (uJ)", "ANT (uJ)", "ANT saves"]);
    let rows = [
        ("bf16 multiplies", sb.multiply_pj, ab.multiply_pj),
        ("accumulator adds", sb.accumulate_pj, ab.accumulate_pj),
        ("index operations", sb.index_pj, ab.index_pj),
        ("SRAM reads", sb.sram_read_pj, ab.sram_read_pj),
        ("accumulator writes", sb.sram_write_pj, ab.sram_write_pj),
        ("total", sb.total(), ab.total()),
    ];
    for (label, scnn_pj, ant_pj) in rows {
        table.push_row(vec![
            label.to_string(),
            format!("{:.1}", scnn_pj / 1e6),
            format!("{:.1}", ant_pj / 1e6),
            percent(1.0 - ant_pj / scnn_pj.max(f64::MIN_POSITIVE)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nBoth the multiplication energy (RCPs skipped) and the SRAM-read energy\n\
         (Fig. 7's indirection skipping) shrink; accumulator traffic is identical\n\
         because both machines write exactly the useful products."
    );
    exp.finish(&table);
    Ok(())
}
