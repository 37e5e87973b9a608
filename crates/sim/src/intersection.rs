//! A GoSPA-like *intersection* machine (paper Section 2.2, Table 1).
//!
//! Intersection accelerators identify matching non-zero kernel/image pairs
//! *before* multiplying, so they execute neither zero products nor RCPs —
//! only the useful multiplications. Their weakness for training is dynamic
//! sparsity: GoSPA's efficiency comes from precomputing a Static Sparsity
//! Filter (SSF, effectively a bitmask of the weight matrix) once per
//! *model*; with two-sided dynamic sparsity the filter must be rebuilt for
//! every convolution, and the intersection itself must run against freshly
//! compressed operands (paper: "recomputing the entire intersection
//! operation for every weight, activation, and gradient introduces large
//! performance overheads").
//!
//! The model here charges exactly that: useful-only MACs, plus a per-pair
//! filter rebuild proportional to the kernel's dense extent (unpacking CSR
//! into a bitmask), plus one intersection test per non-zero image element
//! per kernel row it overlaps. It reproduces the qualitative Table 1 story:
//! excellent on inference-style static sparsity, overhead-bound at training
//! granularity.

use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_sparse::{Bitmask, CsrMatrix};

use crate::accelerator::{ConvSim, MatmulSim, STARTUP_CYCLES};
use crate::breakdown::CycleBreakdown;
use crate::scratch::SimScratch;
use crate::stats::SimStats;

/// The GoSPA-like intersection PE model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntersectionAccelerator {
    multipliers: usize,
    /// Bitmask bits written per cycle when rebuilding the sparsity filter.
    filter_bits_per_cycle: usize,
    /// Whether the kernel operand's filter can be reused across pairs
    /// (true models inference with static weights; false models training
    /// with dynamic sparsity, the paper's argument).
    static_kernel: bool,
}

impl IntersectionAccelerator {
    /// Creates an intersection PE.
    ///
    /// # Panics
    ///
    /// Panics if `multipliers == 0` or `filter_bits_per_cycle == 0`.
    pub fn new(multipliers: usize, filter_bits_per_cycle: usize, static_kernel: bool) -> Self {
        assert!(multipliers > 0, "need at least one multiplier");
        assert!(
            filter_bits_per_cycle > 0,
            "filter bandwidth must be non-zero"
        );
        Self {
            multipliers,
            filter_bits_per_cycle,
            static_kernel,
        }
    }

    /// Training configuration: the sparsity filter is rebuilt every pair
    /// (64-bit SRAM port = 64 bits/cycle).
    pub fn training_default() -> Self {
        Self::new(16, 64, false)
    }

    /// Inference configuration: the kernel filter is precomputed offline
    /// (the regime GoSPA was designed for).
    pub fn inference_default() -> Self {
        Self::new(16, 64, true)
    }

    fn simulate(
        &self,
        kernel: &CsrMatrix,
        nnz_image: usize,
        useful: u64,
        outputs: u64,
    ) -> SimStats {
        let nnz_kernel = kernel.nnz();
        if nnz_kernel == 0 || nnz_image == 0 {
            return SimStats::default();
        }
        // Dynamic-sparsity overhead: unpack the kernel CSR into the sparsity
        // filter bitmask (GoSPA's SSF). The word count is the mask extent the
        // filter would occupy — a pure function of the kernel's dense shape,
        // so no mask is actually materialized.
        let filter_cycles = if self.static_kernel {
            0
        } else {
            let words = Bitmask::words_for(kernel.rows(), kernel.cols());
            (words as u64 * 64).div_ceil(self.filter_bits_per_cycle as u64) + nnz_kernel as u64
        };
        // Intersection tests: each non-zero image element probes the filter
        // for each kernel row that overlaps it; first-order, one probe per
        // non-zero pair of rows ~ nnz_image.
        let intersection_ops = nnz_image as u64 + nnz_kernel as u64;
        let mac_cycles = useful.div_ceil(self.multipliers as u64);
        let probe_cycles = intersection_ops / 4;
        let stats = SimStats {
            pe_cycles: filter_cycles + mac_cycles + probe_cycles,
            startup_cycles: STARTUP_CYCLES,
            mults: useful,
            useful_mults: useful,
            rcps_executed: 0,
            rcps_skipped: 0,
            pairs_total: nnz_kernel as u64 * nnz_image as u64,
            kernel_value_reads: useful,
            kernel_index_reads: nnz_kernel as u64,
            rowptr_reads: 0,
            image_reads: 2 * nnz_image as u64,
            index_ops: intersection_ops,
            accumulator_writes: outputs.min(useful),
            accumulator_adds: useful,
            // Filter rebuilds are SRAM traffic (CSR → bitmask unpacking);
            // intersection probes are index-scan work, the machine's
            // analogue of ANT's FNIR walk.
            cycles: CycleBreakdown {
                compute: mac_cycles,
                fnir_scan: probe_cycles,
                sram_fetch: filter_cycles,
                startup: STARTUP_CYCLES,
                ..CycleBreakdown::default()
            },
        };
        stats.debug_assert_cycles_attributed("GoSPA");
        stats
    }
}

impl ConvSim for IntersectionAccelerator {
    fn name(&self) -> &'static str {
        if self.static_kernel {
            "GoSPA-like (static filter)"
        } else {
            "GoSPA-like (dynamic filter)"
        }
    }

    fn prepare_image(&self, image: &CsrMatrix, shape: &ConvShape, scratch: &mut SimScratch) {
        scratch.nz_counter.prepare(image, shape);
    }

    fn simulate_prepared_kernel(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        let useful = scratch.nz_counter.count_useful(kernel, shape);
        self.simulate(
            kernel,
            image.nnz(),
            useful,
            shape.out_h() as u64 * shape.out_w() as u64,
        )
    }

    fn cache_identity(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }
}

impl MatmulSim for IntersectionAccelerator {
    fn name(&self) -> &'static str {
        ConvSim::name(self)
    }

    fn simulate_matmul_pair_scratch(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        let useful = shape.useful_products(image, kernel, &mut scratch.col_nnz);
        self.simulate(
            kernel,
            image.nnz(),
            useful,
            shape.image_h() as u64 * shape.kernel_s() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::AntAccelerator;
    use crate::scnn::ScnnPlus;
    use ant_sparse::sparsify;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_pair(shape: &ConvShape, sparsity: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
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

    #[test]
    fn intersection_executes_only_useful_mults() {
        let shape = ConvShape::new(8, 8, 12, 12, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 1);
        let scnn = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let isect =
            IntersectionAccelerator::training_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(isect.mults, scnn.useful_mults);
        assert_eq!(isect.rcps_executed, 0);
    }

    #[test]
    fn dynamic_filter_costs_cycles_vs_static() {
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.9, 2);
        let dynamic =
            IntersectionAccelerator::training_default().simulate_conv_pair(&kernel, &image, &shape);
        let static_f = IntersectionAccelerator::inference_default()
            .simulate_conv_pair(&kernel, &image, &shape);
        assert!(dynamic.pe_cycles > static_f.pe_cycles);
        assert_eq!(dynamic.mults, static_f.mults);
    }

    #[test]
    fn training_granularity_erodes_intersection_advantage() {
        // Paper Table 1 story: per training pair the useful work is tiny,
        // so rebuilding the filter each time costs more than ANT's scan.
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.9, 3);
        let isect =
            IntersectionAccelerator::training_default().simulate_conv_pair(&kernel, &image, &shape);
        let ant = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert!(
            ant.total_cycles() < isect.total_cycles(),
            "ant {} vs intersection {}",
            ant.total_cycles(),
            isect.total_cycles()
        );
    }

    #[test]
    fn empty_operands_are_free() {
        let shape = ConvShape::new(3, 3, 6, 6, 1).unwrap();
        let kernel = CsrMatrix::empty(3, 3);
        let image = CsrMatrix::empty(6, 6);
        let stats =
            IntersectionAccelerator::training_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(stats, SimStats::default());
    }

    #[test]
    fn matmul_useful_matches_scnn() {
        let mut rng = StdRng::seed_from_u64(4);
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(8, 10, 0.6, &mut rng));
        let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(10, 6, 0.6, &mut rng));
        let shape = MatmulShape::new(8, 10, 10, 6).unwrap();
        let s = ScnnPlus::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        let i = IntersectionAccelerator::training_default()
            .simulate_matmul_pair(&image, &kernel, &shape);
        assert_eq!(i.mults, s.useful_mults);
    }
}
