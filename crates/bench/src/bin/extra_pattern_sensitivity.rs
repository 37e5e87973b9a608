//! Extra experiment: sensitivity of ANT to the *spatial pattern* of
//! sparsity, not just its level.
//!
//! The paper remarks that "sparsity does not correlate directly with speed
//! up since sparsity distributions have some effect on the effectiveness of
//! ANT" (Section 7.2). This binary fixes the sparsity level and varies the
//! pattern — uniform random vs. spatially clustered blobs (ReLU-like dead
//! regions) — on the update-phase geometry where anticipation does its
//! work.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, ratio, Table};
use ant_conv::ConvShape;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::ConvSim;
use ant_sparse::{sparsify, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), ant_sim::AntError> {
    let mut exp = Experiment::start(
        "extra_pattern_sensitivity",
        "Extra: sparsity-pattern sensitivity (update-phase 32x32 (*) 34x34)",
    )?;
    exp.config("seed", 0xBA7u64)
        .config("sparsities", "0.8,0.9,0.95");
    println!();
    let shape = ConvShape::new(32, 32, 34, 34, 1).expect("valid shape");
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();
    let mut table = Table::new(&[
        "pattern",
        "sparsity",
        "ANT speedup vs SCNN+",
        "RCPs avoided",
    ]);
    for sparsity in [0.8f64, 0.9, 0.95] {
        for (label, blob) in [
            ("uniform", 0usize),
            ("clustered 3x3", 3),
            ("clustered 6x6", 6),
        ] {
            let mut rng = StdRng::seed_from_u64(0xBA7);
            let gen = |rows: usize, cols: usize, rng: &mut StdRng| {
                if blob == 0 {
                    sparsify::random_with_sparsity(rows, cols, sparsity, rng)
                } else {
                    sparsify::clustered_with_sparsity(rows, cols, sparsity, blob, rng)
                }
            };
            let kernel = CsrMatrix::from_dense(&gen(32, 32, &mut rng));
            let image = CsrMatrix::from_dense(&gen(34, 34, &mut rng));
            let s = scnn.simulate_conv_pair(&kernel, &image, &shape);
            let a = ant.simulate_conv_pair(&kernel, &image, &shape);
            table.push_row(vec![
                label.to_string(),
                format!("{:.0}%", sparsity * 100.0),
                ratio(s.total_cycles() as f64 / a.total_cycles() as f64),
                percent(a.rcps_avoided_fraction()),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\nClustered non-zeros tighten the per-group index ranges (smaller\n\
         min/max spans), so anticipation sharpens — the mechanism behind the\n\
         paper's remark that distribution, not just level, drives ANT's gains."
    );
    exp.finish(&table);
    Ok(())
}
