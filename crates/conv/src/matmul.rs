//! The matrix-multiplication extension of ANT (paper Section 5).
//!
//! Fully-connected, transformer, and RNN layers are matrix multiplications.
//! Mapping a matmul of an `H x W` *image* with an `R x S` *kernel*
//! (`W == R`) onto an outer product multiplies every non-zero pair, but the
//! product of image element `(x, y)` and kernel element `(s, r)` is valid
//! only when `r == x` (paper Eq. 14); the output index is then
//! `out_x = s, out_y = y` (Eq. 13). Only `1/R` of the cartesian products are
//! valid, so RCP anticipation matters even more than for convolutions
//! (paper Table 3).

use ant_sparse::{CsrMatrix, DenseMatrix};

use crate::error::ConvError;

/// Dimensions of a matrix multiplication mapped onto an outer product:
/// `H x W` image times `R x S` kernel with `W == R`, producing `H x S`.
///
/// # Example
///
/// ```
/// use ant_conv::matmul::MatmulShape;
///
/// // Paper Table 3 row 1: 512x72 image, 72x512 kernel.
/// let shape = MatmulShape::new(512, 72, 72, 512)?;
/// assert!((shape.outer_product_efficiency() - 1.0 / 72.0).abs() < 1e-12);
/// # Ok::<(), ant_conv::ConvError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulShape {
    image_h: usize,
    image_w: usize,
    kernel_r: usize,
    kernel_s: usize,
}

impl MatmulShape {
    /// Creates a matmul shape, checking the inner-dimension contract.
    ///
    /// # Errors
    ///
    /// * [`ConvError::ZeroDimension`] for zero dimensions.
    /// * [`ConvError::MatmulInnerMismatch`] when `W != R`.
    pub fn new(
        image_h: usize,
        image_w: usize,
        kernel_r: usize,
        kernel_s: usize,
    ) -> Result<Self, ConvError> {
        if image_h == 0 || image_w == 0 || kernel_r == 0 || kernel_s == 0 {
            return Err(ConvError::ZeroDimension);
        }
        if image_w != kernel_r {
            return Err(ConvError::MatmulInnerMismatch { image_w, kernel_r });
        }
        Ok(Self {
            image_h,
            image_w,
            kernel_r,
            kernel_s,
        })
    }

    /// Image height `H` (= output height).
    pub fn image_h(&self) -> usize {
        self.image_h
    }

    /// Image width `W` (= kernel rows `R`, the contracted dimension).
    pub fn image_w(&self) -> usize {
        self.image_w
    }

    /// Kernel rows `R`.
    pub fn kernel_r(&self) -> usize {
        self.kernel_r
    }

    /// Kernel columns `S` (= output width).
    pub fn kernel_s(&self) -> usize {
        self.kernel_s
    }

    /// Output dimensions `(H, S)`.
    pub fn out_shape(&self) -> (usize, usize) {
        (self.image_h, self.kernel_s)
    }

    /// Whether the product of image element `(x, y)` and kernel element
    /// `(s, r)` is valid (paper Eq. 14): `r == x`.
    pub fn is_valid_product(&self, x: usize, r: usize) -> bool {
        r == x
    }

    /// Analytical outer-product efficiency: `1 / R` (paper Section 5:
    /// `H*W*S` useful products out of `H*W*R*S`).
    pub fn outer_product_efficiency(&self) -> f64 {
        1.0 / self.kernel_r as f64
    }

    /// Total outer products for dense operands: `H*W*R*S`.
    pub fn outer_products(&self) -> u64 {
        self.image_h as u64 * self.image_w as u64 * self.kernel_r as u64 * self.kernel_s as u64
    }

    /// Useful products for dense operands: `H*W*S`.
    pub fn direct_products(&self) -> u64 {
        self.image_h as u64 * self.image_w as u64 * self.kernel_s as u64
    }

    /// The useful (`r == x`, both-non-zero) products of sparse
    /// `image x kernel`, exactly: each kernel row `r` pairs with the image
    /// non-zeros of column `r`. `col_nnz` is caller-owned scratch for the
    /// per-column counts, re-initialized on entry, so a warm buffer makes
    /// the count allocation-free.
    pub fn useful_products(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        col_nnz: &mut Vec<u64>,
    ) -> u64 {
        col_nnz.clear();
        col_nnz.resize(self.image_w, 0);
        for (_, x, _) in image.iter() {
            col_nnz[x] += 1;
        }
        (0..self.kernel_r)
            .map(|r| kernel.row_range(r).len() as u64 * col_nnz[r])
            .sum()
    }
}

/// Result of executing a sparse matmul as a cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct MatmulOuterResult {
    /// The `H x S` product matrix.
    pub output: DenseMatrix,
    /// Products executed (`nnz(image) * nnz(kernel)`).
    pub products: u64,
    /// Products with matching inner index (`r == x`).
    pub useful: u64,
    /// `products - useful`.
    pub rcps: u64,
}

/// Executes `image x kernel` as a complete sparse cartesian product,
/// accumulating only the valid (`r == x`) pairs.
///
/// # Errors
///
/// Returns [`ConvError::OperandShapeMismatch`] when the operands disagree
/// with `shape`.
pub fn sparse_matmul_outer(
    image: &CsrMatrix,
    kernel: &CsrMatrix,
    shape: &MatmulShape,
) -> Result<MatmulOuterResult, ConvError> {
    if image.shape() != (shape.image_h(), shape.image_w()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "image",
            expected: (shape.image_h(), shape.image_w()),
            actual: image.shape(),
        });
    }
    if kernel.shape() != (shape.kernel_r(), shape.kernel_s()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "kernel",
            expected: (shape.kernel_r(), shape.kernel_s()),
            actual: kernel.shape(),
        });
    }
    let mut output = DenseMatrix::zeros(shape.image_h(), shape.kernel_s());
    let mut useful = 0u64;
    for (y, x, iv) in image.iter() {
        for (r, s, kv) in kernel.iter() {
            if shape.is_valid_product(x, r) {
                output[(y, s)] += iv * kv;
                useful += 1;
            }
        }
    }
    let products = image.nnz() as u64 * kernel.nnz() as u64;
    Ok(MatmulOuterResult {
        output,
        products,
        useful,
        rcps: products - useful,
    })
}

/// One row of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatmulEfficiencyRow {
    /// Phase label in the paper's notation.
    pub phase: &'static str,
    /// The matmul shape.
    pub shape: MatmulShape,
    /// Analytical outer-product efficiency (`1/R`).
    pub efficiency: f64,
}

/// Reproduces the rows of the paper's Table 3 (text-translation transformer
/// and text-classification RNN matmul dimensions).
///
/// # Panics
///
/// Never panics in practice; the embedded shapes are all valid.
pub fn table3_rows() -> Vec<MatmulEfficiencyRow> {
    let mk = |phase, h, w, r, s| {
        let shape = MatmulShape::new(h, w, r, s).expect("valid table row");
        MatmulEfficiencyRow {
            phase,
            shape,
            efficiency: shape.outer_product_efficiency(),
        }
    };
    vec![
        mk("AxW, G_AxW", 512, 72, 72, 512),
        mk("AxG_A", 72, 512, 512, 512),
        mk("AxW", 64, 10, 10, 10),
        mk("G_AxW", 10, 10, 10, 64),
        mk("AxG_A", 10, 64, 64, 10),
        mk("AxW", 300, 3, 3, 1200),
        mk("G_AxW", 1200, 3, 3, 300),
        mk("AxG_A", 3, 300, 300, 1200),
        mk("AxW", 300, 8, 8, 1200),
        mk("G_AxW", 1200, 8, 8, 300),
        mk("AxG_A", 8, 300, 300, 1200),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_sparse::sparsify;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table3_matches_paper_percentages() {
        let expected = [
            1.39, 0.20, 10.00, 10.00, 1.56, 33.33, 33.33, 0.33, 12.50, 12.50, 0.33,
        ];
        let rows = table3_rows();
        assert_eq!(rows.len(), expected.len());
        for (row, &exp) in rows.iter().zip(expected.iter()) {
            let eff = row.efficiency * 100.0;
            assert!(
                (eff - exp).abs() < 0.05,
                "{:?}: {eff:.2}% != {exp}%",
                row.shape
            );
        }
    }

    #[test]
    fn inner_mismatch_rejected() {
        assert!(matches!(
            MatmulShape::new(4, 5, 6, 7),
            Err(ConvError::MatmulInnerMismatch { .. })
        ));
        assert_eq!(MatmulShape::new(0, 5, 5, 7), Err(ConvError::ZeroDimension));
    }

    #[test]
    fn sparse_matmul_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let image = sparsify::random_with_sparsity(6, 8, 0.5, &mut rng);
        let kernel = sparsify::random_with_sparsity(8, 5, 0.5, &mut rng);
        let shape = MatmulShape::new(6, 8, 8, 5).unwrap();
        let result = sparse_matmul_outer(
            &CsrMatrix::from_dense(&image),
            &CsrMatrix::from_dense(&kernel),
            &shape,
        )
        .unwrap();
        let reference = image.matmul(&kernel).unwrap();
        assert!(result.output.approx_eq(&reference, 1e-4));
    }

    #[test]
    fn dense_matmul_efficiency_is_one_over_r() {
        let shape = MatmulShape::new(4, 8, 8, 3).unwrap();
        let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(4, 8, |_, _| 1.0));
        let kernel = CsrMatrix::from_dense(&DenseMatrix::from_fn(8, 3, |_, _| 1.0));
        let result = sparse_matmul_outer(&image, &kernel, &shape).unwrap();
        let measured = result.useful as f64 / result.products as f64;
        assert!((measured - shape.outer_product_efficiency()).abs() < 1e-12);
        assert_eq!(result.products, shape.outer_products());
        assert_eq!(result.useful, shape.direct_products());
    }

    #[test]
    fn counters_partition_products() {
        let mut rng = StdRng::seed_from_u64(22);
        let image = sparsify::random_with_sparsity(5, 6, 0.6, &mut rng);
        let kernel = sparsify::random_with_sparsity(6, 4, 0.6, &mut rng);
        let shape = MatmulShape::new(5, 6, 6, 4).unwrap();
        let result = sparse_matmul_outer(
            &CsrMatrix::from_dense(&image),
            &CsrMatrix::from_dense(&kernel),
            &shape,
        )
        .unwrap();
        assert_eq!(result.products, result.useful + result.rcps);
    }

    #[test]
    fn operand_shape_checked() {
        let shape = MatmulShape::new(5, 6, 6, 4).unwrap();
        let image = CsrMatrix::empty(5, 5);
        let kernel = CsrMatrix::empty(6, 4);
        assert!(matches!(
            sparse_matmul_outer(&image, &kernel, &shape),
            Err(ConvError::OperandShapeMismatch { .. })
        ));
    }
}
