//! The SCNN+ baseline: an SCNN-like outer-product PE with the kernel matrix
//! split across PEs (paper Sections 2.3 and 6.1).
//!
//! SCNN fetches `n` non-zero image values and `n` non-zero kernel values per
//! cycle and computes their full cartesian product on an `n x n` multiplier
//! array. Every non-zero pair is multiplied — useful or RCP — and the output
//! index computation discards the RCPs after the fact. SRAM traffic covers
//! the whole compressed kernel once per stationary image group.
//!
//! The model is analytic (no per-product loop): multiplications are
//! `nnz(kernel) * nnz(image)` by construction and the useful subset comes
//! from the exact [`ant_conv::rcp::count_useful_products`] counter. The
//! counter's prefix-sum planes depend only on the resident image, so an
//! [`ImageSession`](crate::ImageSession) builds them once per image and
//! each kernel then costs `O(nnz(kernel))`.

use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_sparse::CsrMatrix;

use crate::accelerator::{ConvSim, MatmulSim};
use crate::analytic;
use crate::scratch::SimScratch;
use crate::stats::SimStats;

/// The SCNN+ PE model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScnnPlus {
    n: usize,
}

impl ScnnPlus {
    /// Creates an SCNN+ PE with an `n x n` multiplier array.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "multiplier array dimension must be non-zero");
        Self { n }
    }

    /// The paper's default 4x4 configuration (Table 4).
    pub fn paper_default() -> Self {
        Self::new(4)
    }

    /// Multiplier array dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    fn simulate_products(
        &self,
        nnz_kernel: usize,
        nnz_image: usize,
        kernel_rows: usize,
        useful: u64,
    ) -> SimStats {
        analytic::scnn_products(self.n, nnz_kernel, nnz_image, kernel_rows, useful)
    }
}

impl ConvSim for ScnnPlus {
    fn name(&self) -> &'static str {
        "SCNN+"
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
        debug_assert_eq!(kernel.shape(), (shape.kernel_h(), shape.kernel_w()));
        debug_assert_eq!(image.shape(), (shape.image_h(), shape.image_w()));
        let useful = scratch.nz_counter.count_useful(kernel, shape);
        let stats = self.simulate_products(kernel.nnz(), image.nnz(), kernel.rows(), useful);
        crate::accelerator::trace_pair(ConvSim::name(self), "conv", kernel, image, &stats);
        stats
    }

    fn cache_identity(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }
    // No `analytic_conv_pair`: the useful-product count requires a pass
    // over the operands' index structure, so SCNN+ pairs always dispatch.
}

impl MatmulSim for ScnnPlus {
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
        debug_assert_eq!(image.shape(), (shape.image_h(), shape.image_w()));
        debug_assert_eq!(kernel.shape(), (shape.kernel_r(), shape.kernel_s()));
        let useful = shape.useful_products(image, kernel, &mut scratch.col_nnz);
        let stats = self.simulate_products(kernel.nnz(), image.nnz(), kernel.rows(), useful);
        crate::accelerator::trace_pair(ConvSim::name(self), "matmul", kernel, image, &stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_sparse::sparsify;
    use ant_sparse::DenseMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_pair_counts() {
        let shape = ConvShape::new(2, 2, 4, 4, 1).unwrap();
        let kernel = CsrMatrix::from_dense(&DenseMatrix::from_fn(2, 2, |_, _| 1.0));
        let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(4, 4, |_, _| 1.0));
        let stats = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(stats.mults, 4 * 16);
        // Useful = R*S*out_h*out_w = 4 * 9 = 36 for dense stride-1 inputs.
        assert_eq!(stats.useful_mults, 36);
        assert_eq!(stats.rcps_executed, 64 - 36);
        assert_eq!(stats.rcps_skipped, 0);
        // ceil(16/4) * ceil(4/4) = 4 cycles + 5 startup.
        assert_eq!(stats.pe_cycles, 4);
        assert_eq!(stats.startup_cycles, 5);
    }

    #[test]
    fn empty_operand_is_free() {
        let shape = ConvShape::new(2, 2, 4, 4, 1).unwrap();
        let kernel = CsrMatrix::empty(2, 2);
        let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(4, 4, |_, _| 1.0));
        let stats = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(stats, SimStats::default());
    }

    #[test]
    fn kernel_streams_once_per_image_group() {
        let shape = ConvShape::new(3, 3, 9, 9, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(3, 3, 0.0, &mut rng));
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(9, 9, 0.5, &mut rng));
        let stats = ScnnPlus::new(4).simulate_conv_pair(&kernel, &image, &shape);
        let groups = (image.nnz() as u64).div_ceil(4);
        assert_eq!(stats.kernel_value_reads, groups * kernel.nnz() as u64);
        assert_eq!(stats.image_reads, 2 * image.nnz() as u64);
    }

    #[test]
    fn larger_array_reduces_cycles() {
        let shape = ConvShape::new(6, 6, 12, 12, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(6, 6, 0.5, &mut rng));
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(12, 12, 0.5, &mut rng));
        let s4 = ScnnPlus::new(4).simulate_conv_pair(&kernel, &image, &shape);
        let s8 = ScnnPlus::new(8).simulate_conv_pair(&kernel, &image, &shape);
        assert!(s8.pe_cycles < s4.pe_cycles);
        // Work is identical; only the spatial parallelism changes.
        assert_eq!(s8.mults, s4.mults);
    }

    #[test]
    fn matmul_useful_matches_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let image_d = sparsify::random_with_sparsity(6, 8, 0.5, &mut rng);
        let kernel_d = sparsify::random_with_sparsity(8, 5, 0.5, &mut rng);
        let image = CsrMatrix::from_dense(&image_d);
        let kernel = CsrMatrix::from_dense(&kernel_d);
        let shape = MatmulShape::new(6, 8, 8, 5).unwrap();
        let stats = ScnnPlus::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        let reference = ant_conv::matmul::sparse_matmul_outer(&image, &kernel, &shape).unwrap();
        assert_eq!(stats.useful_mults, reference.useful);
        assert_eq!(stats.mults, reference.products);
    }

    #[test]
    fn update_phase_geometry_wastes_most_mults() {
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(14, 14, 0.9, &mut rng));
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(16, 16, 0.9, &mut rng));
        let stats = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert!(
            stats.rcps_executed as f64 / stats.mults as f64 > 0.85,
            "rcp share {}",
            stats.rcps_executed as f64 / stats.mults as f64
        );
    }
}
