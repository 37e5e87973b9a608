//! Per-kernel microbenchmark harness, recorded into the bench-history
//! ledger by `bench_history record --label microbench` (the full grid) and
//! `--label microbench-tiny` (one sparsity point, for CI).
//!
//! Whole-run wall time in the bench-history ledger answers "did the build
//! get slower?" but not "*which kernel* got slower?". This module times the
//! simulator's hot kernels in isolation — the same functions the per-pair
//! hot path leans on — over synthesized inputs spanning the sparsity grid,
//! so a ledger regression can be attributed to one kernel instead of
//! bisected by hand:
//!
//! * `bitmask_and_count` / `bitmask_and_assign` — the word-parallel
//!   [`Bitmask`] intersection kernels behind pair pre-screening.
//! * `fnir_scan` — the FNIR kernel-scan walk ([`scan_kernel_into`]) with
//!   bounded ranges, reusing a [`KernelScan`] scratch like the simulator.
//! * `accum_conflict` — banked-accumulator conflict accounting
//!   ([`AccumulatorBanks::conflict_cycles_with`]) with a caller-owned
//!   occupancy buffer.
//! * `csr_compress` — once-per-layer CSR compression
//!   ([`CsrMatrix::from_dense`]).
//! * `fingerprint` — once-per-layer content keying for the simulation
//!   cache ([`KeyBuilder::write_csr`] over a ResNet-scale plane).
//!
//! The full grid adds fixed-geometry cases of the wider pipeline, each at
//! one input point: FNIR selection by window width (`fnir_select`), range
//! computation and the allocating kernel scan on the update-phase geometry,
//! the whole anticipator (`anticipator_run_conv`), one channel pair on each
//! inner-loop machine for the forward and update geometries
//! (`simulate_pair/<geometry>/<machine>`), one resident image with 16
//! kernels streaming past it on SCNN+ and ANT, the runner's unit of work
//! (`simulate_image_group/<geometry>/<machine>`), and the sparse substrate
//! (`csr_from_dense`, `csr_rotate180`, `count_useful_products`,
//! `image_nz_counter_build`, `sparse_conv_outer`).
//!
//! Each bench takes min-of-K batch timings (`std::hint::black_box` on every
//! checksum so nothing folds away) and lands in the ledger as
//! `kernel/<name>/<case>/ns_per_op` plus an informational `_spread`, which
//! `bench_history compare` gates as [`MetricClass::Kernel`] with the
//! [`KERNEL_NOISE_FLOOR`] allowance.
//!
//! [`MetricClass::Kernel`]: crate::history::MetricClass::Kernel
//! [`KERNEL_NOISE_FLOOR`]: crate::history::KERNEL_NOISE_FLOOR

use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use ant_conv::outer::sparse_conv_outer;
use ant_conv::rcp::{count_useful_products, IndexRange, NzCounterScratch};
use ant_conv::ConvShape;
use ant_core::anticipator::{AntConfig, Anticipator};
use ant_core::fnir::Fnir;
use ant_core::range::{compute_ranges, GroupRanges};
use ant_core::scan::{scan_kernel, scan_kernel_into, KernelScan};
use ant_sim::accum::AccumulatorBanks;
use ant_sim::ant::AntAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::scnn::ScnnPlus;
use ant_sim::{AntError, ConvSim, ImageSession, SimScratch};
use ant_sparse::{sparsify, Bitmask, CsrMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fingerprint::KeyBuilder;

/// Which sparsity points the standard benches synthesize inputs at, and
/// whether the fixed-geometry pipeline cases run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The tracked grid: 50%, 90%, and 99% sparse inputs, plus the
    /// fixed-geometry pipeline cases.
    Full,
    /// One point (90%) of the hot kernels only — a seconds-scale smoke grid
    /// for CI.
    Tiny,
}

impl Grid {
    /// The sparsity points.
    pub fn sparsities(self) -> &'static [f64] {
        match self {
            Grid::Full => &[0.5, 0.9, 0.99],
            Grid::Tiny => &[0.9],
        }
    }
}

/// One isolated kernel benchmark: a name, a case label, and an operation
/// closure returning a checksum (consumed via `black_box` so the work
/// cannot fold away).
pub struct KernelBench {
    kernel: &'static str,
    case: String,
    iters_per_batch: u32,
    runner: Box<dyn FnMut() -> u64>,
}

impl fmt::Debug for KernelBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelBench")
            .field("kernel", &self.kernel)
            .field("case", &self.case)
            .field("iters_per_batch", &self.iters_per_batch)
            .finish_non_exhaustive()
    }
}

/// One bench's timing outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMeasurement {
    /// Best (minimum over repeats) per-operation time in nanoseconds.
    pub ns_per_op: f64,
    /// Relative min-to-max spread over the repeats — the bench's own noise
    /// estimate, recorded as the `_spread` metric.
    pub spread: f64,
    /// Wrapping sum of every operation's checksum (keeps the optimizer
    /// honest; also a cheap cross-run sanity value for fixed seeds).
    pub checksum: u64,
}

/// One bench's identity plus its measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel name (`bitmask_and_count`, `fnir_scan`, ...).
    pub kernel: &'static str,
    /// Case label (`s90`, ...).
    pub case: String,
    /// The timing.
    pub measurement: KernelMeasurement,
}

impl KernelResult {
    /// The ledger metric name: `kernel/<name>/<case>/ns_per_op`.
    pub fn metric_name(&self) -> String {
        format!("kernel/{}/{}/ns_per_op", self.kernel, self.case)
    }
}

impl KernelBench {
    /// Builds a bench. `iters_per_batch` operations are timed per batch so
    /// sub-microsecond kernels still get a clean clock reading.
    pub fn new(
        kernel: &'static str,
        case: impl Into<String>,
        iters_per_batch: u32,
        runner: Box<dyn FnMut() -> u64>,
    ) -> Self {
        Self {
            kernel,
            case: case.into(),
            iters_per_batch: iters_per_batch.max(1),
            runner,
        }
    }

    /// Kernel name.
    pub fn kernel(&self) -> &'static str {
        self.kernel
    }

    /// Case label.
    pub fn case(&self) -> &str {
        &self.case
    }

    /// Runs one warm-up batch, then `repeats` timed batches, keeping the
    /// minimum per-op time (min-of-K rejects one-sided scheduler noise) and
    /// the min-to-max spread.
    pub fn measure(&mut self, repeats: u32) -> KernelMeasurement {
        let repeats = repeats.max(1);
        let iters = self.iters_per_batch;
        let mut checksum = 0u64;
        let mut batch = |checksum: &mut u64| {
            let started = Instant::now();
            for _ in 0..iters {
                *checksum = checksum.wrapping_add(black_box((self.runner)()));
            }
            started.elapsed().as_nanos() as f64 / f64::from(iters)
        };
        // Warm-up: first-touch page faults and cache fills land here.
        let _ = batch(&mut checksum);
        let mut best = f64::INFINITY;
        let mut worst = 0.0f64;
        for _ in 0..repeats {
            let ns = batch(&mut checksum);
            best = best.min(ns);
            worst = worst.max(ns);
        }
        let spread = if best > 0.0 {
            (worst - best) / best
        } else {
            0.0
        };
        KernelMeasurement {
            ns_per_op: best,
            spread,
            checksum,
        }
    }
}

/// Case label for a sparsity point (`0.9` -> `"s90"`).
fn case_label(sparsity: f64) -> String {
    format!("s{:02}", (sparsity * 100.0).round() as u32)
}

/// Deterministic per-(kernel, case) seed so recorded inputs are identical
/// across runs and machines.
fn seed_for(kernel: &str, sparsity: f64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for b in kernel
        .bytes()
        .chain(((sparsity * 100.0).round() as u32).to_le_bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The standard bench set: every hot kernel at every grid sparsity, plus the
/// fixed-geometry pipeline cases on the full grid.
///
/// # Errors
///
/// Returns the error of an input that cannot be built (a convolution shape
/// or FNIR block its constructor rejects).
pub fn standard_benches(grid: Grid) -> Result<Vec<KernelBench>, AntError> {
    let mut benches = Vec::new();
    for &sparsity in grid.sparsities() {
        let case = case_label(sparsity);

        // Pair pre-screen: AND-popcount of two 128x128 role masks.
        let mut rng = StdRng::seed_from_u64(seed_for("bitmask_and_count", sparsity));
        let a = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        let b = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        benches.push(KernelBench::new(
            "bitmask_and_count",
            case.clone(),
            256,
            Box::new(move || a.and_count_ones(&b) as u64),
        ));

        // In-place mask intersection (idempotent after the warm-up batch,
        // so the steady state times the word loop; the popcount checksum
        // keeps the stores observable).
        let mut rng = StdRng::seed_from_u64(seed_for("bitmask_and_assign", sparsity));
        let mut scratch = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        let other = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        benches.push(KernelBench::new(
            "bitmask_and_assign",
            case.clone(),
            256,
            Box::new(move || {
                scratch.and_assign(&other);
                scratch.count_ones() as u64
            }),
        ));

        // FNIR kernel scan with bounded ranges (middle half of a 64x64
        // kernel), paper-default 4x4 array with a 16-wide window, reusing
        // the KernelScan scratch exactly like the simulator hot path.
        let mut rng = StdRng::seed_from_u64(seed_for("fnir_scan", sparsity));
        let kernel =
            CsrMatrix::from_dense(&sparsify::random_with_sparsity(64, 64, sparsity, &mut rng));
        let ranges = GroupRanges {
            r: IndexRange { min: 16, max: 47 },
            s: IndexRange { min: 16, max: 47 },
            ops: Default::default(),
        };
        let fnir = Fnir::new(4, 16)?;
        let mut scan = KernelScan::default();
        benches.push(KernelBench::new(
            "fnir_scan",
            case.clone(),
            64,
            Box::new(move || {
                scan_kernel_into(&kernel, &ranges, &fnir, &mut scan);
                scan.value_reads + scan.cycles + scan.colidx_reads
            }),
        ));

        // Accumulator bank conflicts for one multiplier-array cycle: the
        // valid-product count shrinks with sparsity (a 4x4 array emits up
        // to 16 products per cycle when dense).
        let mut rng = StdRng::seed_from_u64(seed_for("accum_conflict", sparsity));
        let banks = AccumulatorBanks::scnn_provisioned(4);
        let products = ((16.0 * (1.0 - sparsity)).round() as usize).max(1);
        let indices: Vec<usize> = (0..products).map(|_| rng.gen_range(0..1024)).collect();
        let mut counts: Vec<u32> = Vec::new();
        benches.push(KernelBench::new(
            "accum_conflict",
            case.clone(),
            512,
            Box::new(move || banks.conflict_cycles_with(&indices, &mut counts)),
        ));

        // Once-per-layer CSR compression of a 64x64 plane.
        let mut rng = StdRng::seed_from_u64(seed_for("csr_compress", sparsity));
        let dense = sparsify::random_with_sparsity(64, 64, sparsity, &mut rng);
        benches.push(KernelBench::new(
            "csr_compress",
            case.clone(),
            64,
            Box::new(move || CsrMatrix::from_dense(&dense).nnz() as u64),
        ));

        // Content fingerprinting of a ResNet-scale CSR plane (256x256 ~ a
        // flattened mid-network weight plane): the once-per-layer keying
        // cost the simulation cache (`ANT_CACHE`) pays before it can skip a
        // layer, timed over the same [`KeyBuilder`] path the runner uses.
        let mut rng = StdRng::seed_from_u64(seed_for("fingerprint", sparsity));
        let plane = CsrMatrix::from_dense(&sparsify::random_with_sparsity(
            256, 256, sparsity, &mut rng,
        ));
        benches.push(KernelBench::new(
            "fingerprint",
            case,
            64,
            Box::new(move || {
                let mut key = KeyBuilder::default();
                key.write_str("microbench-fingerprint");
                key.write_csr(&plane);
                let key = key.finish();
                key.hi ^ key.lo
            }),
        ));
    }
    if grid == Grid::Full {
        benches.extend(pipeline_benches()?);
    }
    Ok(benches)
}

/// A seeded kernel/image operand pair at `sparsity` for `shape`.
fn sparse_pair(shape: &ConvShape, sparsity: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kernel =
        sparsify::random_with_sparsity(shape.kernel_h(), shape.kernel_w(), sparsity, &mut rng);
    let image =
        sparsify::random_with_sparsity(shape.image_h(), shape.image_w(), sparsity, &mut rng);
    (
        CsrMatrix::from_dense(&kernel),
        CsrMatrix::from_dense(&image),
    )
}

/// The fixed-geometry cases of the full grid: the anticipation primitives,
/// one channel pair per inner-loop machine, and the sparse substrate, each
/// at 90% sparsity unless its case names another point. Batch sizes keep a
/// timed batch near a millisecond.
fn pipeline_benches() -> Result<Vec<KernelBench>, AntError> {
    let mut benches = Vec::new();
    let update = ConvShape::new(32, 32, 34, 34, 1)?;

    for k in [8usize, 16, 32] {
        let fnir = Fnir::new(4, k)?;
        let window: Vec<i64> = (0..k as i64).map(|i| (i * 7) % 31).collect();
        benches.push(KernelBench::new(
            "fnir_select",
            k.to_string(),
            16_384,
            Box::new(move || {
                let out = fnir.select(black_box(5), black_box(20), &window);
                out.comparator_ops() + out.positions().len() as u64
            }),
        ));
    }

    let coords = [(3, 7), (3, 20), (4, 1), (4, 29)];
    benches.push(KernelBench::new(
        "range_computation",
        "32x32",
        65_536,
        Box::new(move || {
            let ranges = compute_ranges(black_box(&update), black_box(&coords));
            ranges.ops.comparisons + ranges.ops.additions
        }),
    ));

    let (kernel, _) = sparse_pair(&update, 0.9, seed_for("kernel_scan_update_phase", 0.9));
    let ranges = compute_ranges(&update, &[(10, 5), (10, 17), (11, 2), (11, 30)]);
    let fnir = Fnir::new(4, 16)?;
    benches.push(KernelBench::new(
        "kernel_scan_update_phase",
        case_label(0.9),
        8_192,
        Box::new(move || {
            let scan = scan_kernel(&kernel, &ranges, &fnir);
            scan.value_reads + scan.cycles
        }),
    ));

    // The whole anticipator on the update-phase geometry, the hot path of
    // every network experiment. One checked run up front turns a shape
    // error into this function's error; the timed runs cannot fail.
    for (sparsity, iters) in [(0.5, 16), (0.9, 128)] {
        let (kernel, image) = sparse_pair(
            &update,
            sparsity,
            seed_for("anticipator_run_conv", sparsity),
        );
        let ant = Anticipator::new(AntConfig::paper_default());
        ant.run_conv(&kernel, &image, &update)?;
        benches.push(KernelBench::new(
            "anticipator_run_conv",
            case_label(sparsity),
            iters,
            Box::new(move || {
                ant.run_conv(&kernel, &image, &update)
                    .map_or(0, |run| run.counters.multiplications)
            }),
        ));
    }

    for (geometry, shape) in [
        ("forward_3x3", ConvShape::new(3, 3, 34, 34, 1)?),
        ("update_32x32", update),
    ] {
        let (kernel, image) = sparse_pair(&shape, 0.9, seed_for("simulate_pair", 0.9));
        let machines: [(&str, u32, Box<dyn ConvSim>); 4] = [
            ("scnn_plus", 256, Box::new(ScnnPlus::paper_default())),
            ("ant", 256, Box::new(AntAccelerator::paper_default())),
            (
                "dense_ip",
                32_768,
                Box::new(DenseInnerProduct::paper_default()),
            ),
            ("tensordash", 32_768, Box::new(TensorDash::paper_default())),
        ];
        for (machine, iters, sim) in machines {
            let (kernel, image) = (kernel.clone(), image.clone());
            // One pair per call on a warm worker arena: a one-kernel session.
            let mut scratch = SimScratch::new();
            benches.push(KernelBench::new(
                "simulate_pair",
                format!("{geometry}/{machine}"),
                iters,
                Box::new(move || {
                    ImageSession::open(sim.as_ref(), &image, &shape, &mut scratch)
                        .simulate(&kernel)
                        .total_cycles()
                }),
            ));
        }
    }

    // The runner's unit of work: one resident image prepared once, then 16
    // kernels streamed past it on a warm worker arena. The operands are the
    // `simulate_pair` case's, its kernel streamed 16 times, so
    // `16 x simulate_pair - simulate_image_group` is exactly the per-image
    // work a session hoists out of the pair loop.
    for (geometry, shape) in [
        ("forward_3x3", ConvShape::new(3, 3, 34, 34, 1)?),
        ("update_32x32", update),
    ] {
        let (kernel, image) = sparse_pair(&shape, 0.9, seed_for("simulate_pair", 0.9));
        let machines: [(&str, Box<dyn ConvSim>); 2] = [
            ("scnn_plus", Box::new(ScnnPlus::paper_default())),
            ("ant", Box::new(AntAccelerator::paper_default())),
        ];
        for (machine, sim) in machines {
            let (kernel, image) = (kernel.clone(), image.clone());
            let mut scratch = SimScratch::new();
            benches.push(KernelBench::new(
                "simulate_image_group",
                format!("{geometry}/{machine}"),
                16,
                Box::new(move || {
                    let mut session =
                        ImageSession::open(sim.as_ref(), &image, &shape, &mut scratch);
                    (0..16)
                        .map(|_| session.simulate(&kernel).total_cycles())
                        .sum()
                }),
            ));
        }
    }

    for (size, iters) in [(64usize, 256), (128, 64)] {
        let mut rng = StdRng::seed_from_u64(seed_for("csr_from_dense", 0.9));
        let dense = sparsify::random_with_sparsity(size, size, 0.9, &mut rng);
        benches.push(KernelBench::new(
            "csr_from_dense",
            size.to_string(),
            iters,
            Box::new(move || CsrMatrix::from_dense(&dense).nnz() as u64),
        ));
    }

    let mut rng = StdRng::seed_from_u64(seed_for("csr_rotate180", 0.9));
    let plane = CsrMatrix::from_dense(&sparsify::random_with_sparsity(112, 112, 0.9, &mut rng));
    benches.push(KernelBench::new(
        "csr_rotate180",
        "112x112",
        256,
        Box::new(move || plane.rotate180().nnz() as u64),
    ));

    // The exact useful-product counter behind the ImageNet-scale Figure 1,
    // and the prefix-sum table it builds per image.
    let wide = ConvShape::new(112, 112, 114, 114, 1)?;
    let (kernel, image) = sparse_pair(&wide, 0.9, seed_for("count_useful_products", 0.9));
    let counter_image = image.clone();
    benches.push(KernelBench::new(
        "count_useful_products",
        "112x112",
        16,
        Box::new(move || count_useful_products(&kernel, &image, &wide)),
    ));
    // A fresh counter per call: the planes' allocation and build, then one
    // O(1) lookup for the kernel's corner element.
    let corner = CsrMatrix::from_triplets(112, 112, [(0, 0, 1.0)])?;
    benches.push(KernelBench::new(
        "image_nz_counter_build",
        "114x114",
        16,
        Box::new(move || {
            let mut counter = NzCounterScratch::new();
            counter.prepare(&counter_image, &wide);
            counter.count_useful(&corner, &wide)
        }),
    ));

    // The reference outer-product convolution on a small update phase.
    let small = ConvShape::new(14, 14, 16, 16, 1)?;
    let (kernel, image) = sparse_pair(&small, 0.9, seed_for("sparse_conv_outer", 0.9));
    sparse_conv_outer(&kernel, &image, &small)?;
    benches.push(KernelBench::new(
        "sparse_conv_outer",
        "update_phase",
        512,
        Box::new(move || {
            sparse_conv_outer(&kernel, &image, &small).map_or(0, |result| result.useful)
        }),
    ));
    Ok(benches)
}

/// Measures every bench.
pub fn run_benches(benches: Vec<KernelBench>, repeats: u32) -> Vec<KernelResult> {
    benches
        .into_iter()
        .map(|mut bench| {
            let measurement = bench.measure(repeats);
            KernelResult {
                kernel: bench.kernel,
                case: bench.case,
                measurement,
            }
        })
        .collect()
}

/// Folds measured results into ledger metrics: a `.../ns_per_op` metric
/// plus its informational `.../ns_per_op_spread` noise floor per bench.
fn metrics(results: &[KernelResult]) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    for r in results {
        let name = r.metric_name();
        metrics.insert(format!("{name}_spread"), r.measurement.spread);
        metrics.insert(name, r.measurement.ns_per_op);
    }
    metrics
}

/// Runs the standard set at `grid` and returns its ledger metrics — the
/// record path of the `microbench` and `microbench-tiny` ledger labels
/// ([`crate::history::record`]).
///
/// # Errors
///
/// As [`standard_benches`].
pub fn record(grid: Grid, repeats: u32) -> Result<BTreeMap<String, f64>, AntError> {
    Ok(metrics(&run_benches(standard_benches(grid)?, repeats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{
        self, compare, HistoryEntry, Host, MetricClass, WorkloadSet, DEFAULT_THRESHOLD,
    };

    const GRID_KERNELS: [&str; 6] = [
        "bitmask_and_count",
        "bitmask_and_assign",
        "fnir_scan",
        "accum_conflict",
        "csr_compress",
        "fingerprint",
    ];

    #[test]
    fn standard_benches_cover_every_kernel_at_every_point() {
        for (grid, points) in [(Grid::Full, 3), (Grid::Tiny, 1)] {
            let benches = standard_benches(grid).expect("bench inputs build");
            let names: std::collections::BTreeSet<String> = benches
                .iter()
                .map(|b| format!("{}/{}", b.kernel(), b.case()))
                .collect();
            assert_eq!(names.len(), benches.len(), "bench names must be unique");
            for kernel in GRID_KERNELS {
                assert_eq!(
                    benches.iter().filter(|b| b.kernel() == kernel).count(),
                    points,
                    "{kernel} must appear once per grid point"
                );
            }
            // The fixed-geometry pipeline cases run on the full grid only,
            // so the CI grid stays small.
            let pipeline = [
                "fnir_select/8",
                "fnir_select/16",
                "fnir_select/32",
                "range_computation/32x32",
                "kernel_scan_update_phase/s90",
                "anticipator_run_conv/s50",
                "anticipator_run_conv/s90",
                "simulate_pair/forward_3x3/scnn_plus",
                "simulate_pair/forward_3x3/ant",
                "simulate_pair/forward_3x3/dense_ip",
                "simulate_pair/forward_3x3/tensordash",
                "simulate_pair/update_32x32/scnn_plus",
                "simulate_pair/update_32x32/ant",
                "simulate_pair/update_32x32/dense_ip",
                "simulate_pair/update_32x32/tensordash",
                "simulate_image_group/forward_3x3/scnn_plus",
                "simulate_image_group/forward_3x3/ant",
                "simulate_image_group/update_32x32/scnn_plus",
                "simulate_image_group/update_32x32/ant",
                "csr_from_dense/64",
                "csr_from_dense/128",
                "csr_rotate180/112x112",
                "count_useful_products/112x112",
                "image_nz_counter_build/114x114",
                "sparse_conv_outer/update_phase",
            ];
            let full = grid == Grid::Full;
            for name in pipeline {
                assert_eq!(names.contains(name), full, "{name} on {grid:?}");
            }
            assert_eq!(
                benches.len(),
                6 * points + if full { pipeline.len() } else { 0 }
            );
        }
    }

    #[test]
    fn tiny_grid_measures_and_builds_a_ledger_entry() {
        let entry = history::record(WorkloadSet::MicrobenchTiny, 2).expect("tiny grid records");
        assert_eq!(entry.label, "microbench-tiny");
        assert_eq!(entry.repeats, 2);
        assert_eq!(entry.host, Some(Host::current()));
        assert_eq!(entry.metrics.len(), 12); // ns_per_op + _spread per bench
        for kernel in GRID_KERNELS {
            let name = format!("kernel/{kernel}/s90/ns_per_op");
            assert!(
                entry.metrics[&name] > 0.0,
                "{name} must take measurable time"
            );
            assert!(entry.metrics[&format!("{name}_spread")] >= 0.0);
            assert_eq!(history::classify(&name), MetricClass::Kernel);
            assert_eq!(
                history::classify(&format!("{name}_spread")),
                MetricClass::InfoOnly
            );
        }
        // The entry survives the ledger line format.
        let parsed = HistoryEntry::parse(&entry.to_json_line()).expect("round trip");
        assert_eq!(parsed, entry);
    }

    #[test]
    fn fixed_seed_inputs_give_identical_checksums() {
        let take = |grid| {
            run_benches(standard_benches(grid).expect("bench inputs build"), 1)
                .into_iter()
                .map(|r| (r.metric_name(), r.measurement.checksum))
                .collect::<Vec<_>>()
        };
        assert_eq!(take(Grid::Tiny), take(Grid::Tiny));
    }

    /// A busy-wait bench: `spin` black-boxed additions per op. Scaling the
    /// count scales the measured time near-linearly.
    fn busy_bench(spin: u64) -> KernelBench {
        KernelBench::new(
            "busy_wait",
            "x1",
            8,
            Box::new(move || {
                let mut acc = 0u64;
                for i in 0..spin {
                    acc = black_box(acc.wrapping_add(i));
                }
                acc
            }),
        )
    }

    /// A microbench ledger entry from this host over `bench`.
    fn busy_entry(bench: KernelBench) -> HistoryEntry {
        HistoryEntry {
            label: "microbench".to_string(),
            git_revision: None,
            timestamp_unix_ms: 0,
            repeats: 3,
            host: Some(Host::current()),
            metrics: metrics(&run_benches(vec![bench], 3)),
        }
    }

    #[test]
    fn slowed_kernel_is_flagged_through_the_real_ledger_path() {
        // Record a fast baseline and a ~20x-slowed candidate through the
        // actual append/load/compare pipeline; the regression must surface
        // under the "kernel" class, attributed by metric name.
        let dir = std::env::temp_dir().join(format!("ant_microbench_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let ledger = dir.join("ledger.jsonl");

        let base = busy_entry(busy_bench(2_000));
        let slow = busy_entry(busy_bench(40_000));
        history::append(&ledger, &base).expect("append baseline");
        history::append(&ledger, &slow).expect("append candidate");

        let entries = history::load(&ledger).expect("load ledger");
        assert_eq!(entries.len(), 2);
        let report = compare(&entries[0], &entries[1], DEFAULT_THRESHOLD);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "exactly the slowed kernel regresses");
        assert_eq!(regs[0].name, "kernel/busy_wait/x1/ns_per_op");
        assert_eq!(regs[0].class, MetricClass::Kernel);
        assert_eq!(regs[0].class.name(), "kernel");
        assert!(regs[0].rel_change > history::KERNEL_NOISE_FLOOR);
        // The machine-readable report carries the same verdict.
        let json = ant_obs::parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(json.get("regressed").and_then(|b| b.as_bool()), Some(true));

        // The reverse direction is an improvement, not a regression.
        let reversed = compare(&entries[1], &entries[0], DEFAULT_THRESHOLD);
        assert!(!reversed.has_regressions());
        assert!(reversed.deltas.iter().any(|d| d.improved));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
