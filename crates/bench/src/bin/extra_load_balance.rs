//! Extra experiment: how costly is the paper's perfect-load-balance
//! assumption?
//!
//! The evaluation (Section 6.1) assumes a perfect load balancer across the
//! 64 PEs. This binary tiles real sparse activation planes SCNN-style
//! (Section 2.3), distributes tiles round-robin, and measures the actual
//! `max/mean` PE-work imbalance and the halo (cross-tile) product fraction —
//! the two quantities a real scheduler must manage.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, Table};
use ant_sim::tiling::{halo_products, load_balance, Tiling};
use ant_sparse::{sparsify, CsrMatrix};
use ant_workloads::models::ConvLayerSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), ant_sim::AntError> {
    let mut exp = Experiment::start(
        "extra_load_balance",
        "Extra: tiling load balance and halo traffic (8x8 PE grid)",
    )?;
    exp.config("pe_grid", "8x8").config("seed", 0x10adu64);
    println!();
    let mut table = Table::new(&[
        "plane",
        "sparsity",
        "imbalance (max/mean)",
        "halo / useful products",
    ]);
    let layers = [
        ConvLayerSpec::new("CIFAR 32x32", 1, 1, 3, 32, 1, 1, 1),
        ConvLayerSpec::new("ImageNet 56x56", 1, 1, 3, 56, 1, 1, 1),
        ConvLayerSpec::new("ImageNet 112x112", 1, 1, 3, 112, 1, 1, 1),
    ];
    for layer in &layers {
        for sparsity in [0.5f64, 0.9, 0.99] {
            let mut rng = StdRng::seed_from_u64(0x10ad);
            let h = layer.input_h + 2 * layer.padding;
            let image =
                CsrMatrix::from_dense(&sparsify::random_with_sparsity(h, h, sparsity, &mut rng));
            let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(
                layer.kernel_h,
                layer.kernel_w,
                0.5,
                &mut rng,
            ));
            let shape =
                ant_conv::ConvShape::new(layer.kernel_h, layer.kernel_w, h, h, layer.stride)
                    .expect("valid layer");
            let tiling = Tiling::grid(h, h, 8, 8);
            let lb = load_balance(&tiling.nnz_per_tile(&image), 64);
            let halo = halo_products(&kernel, &image, &shape, &tiling);
            let useful = ant_conv::rcp::count_useful_products(&kernel, &image, &shape).max(1);
            table.push_row(vec![
                layer.name.clone(),
                format!("{:.0}%", sparsity * 100.0),
                format!("{:.2}", lb.imbalance),
                percent(halo as f64 / useful as f64),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\nAt 99% sparsity a 64-PE tiling of a CIFAR plane leaves PEs with only a\n\
         handful of non-zeros each, so imbalance grows — quantifying why the paper\n\
         (and DESIGN.md) call load balancing out as the key future-work lever."
    );
    exp.finish(&table);
    Ok(())
}
