//! Redundant Cartesian Product (RCP) detection, classification, and counting.
//!
//! An RCP is a product of a non-zero kernel element and a non-zero image
//! element that maps to no valid output index (paper Section 3). This module
//! provides:
//!
//! * [`classify`] — which of the paper's Figure-4 cases (kernel shifted too
//!   far up/left/down/right) a given element pair falls into;
//! * [`passes_element_test`] — the paper's per-element anticipation test
//!   (Eqs. 7–8);
//! * [`r_range`] / [`s_range`] — the per-vector conservative index ranges ANT
//!   computes in hardware (Eqs. 9–12), generalized to dilation;
//! * [`ProductBreakdown`] — the Figure-1 partial-product accounting (useful
//!   vs. RCP vs. zero-operand), with an `O(H*W)`-preprocessing /
//!   `O(1)`-per-kernel-element exact counter that scales to ImageNet-sized
//!   layers.

use ant_sparse::{CsrMatrix, DenseMatrix};

use crate::error::ConvError;
use crate::shape::ConvShape;

/// Which invalid-kernel-shift cases (paper Fig. 4) a product falls into.
///
/// `misaligned` is a fifth cause that only exists for `stride > 1`: the
/// product's offset is inside the output range but not divisible by the
/// stride, so it belongs to no output element. The paper's four cases cover
/// everything at stride 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RcpCases {
    /// Case a: kernel shifted above the image (`y < dilation*r`).
    pub above: bool,
    /// Case b: kernel shifted left of the image (`x < dilation*s`).
    pub left: bool,
    /// Case c: kernel shifted below the last valid output row.
    pub below: bool,
    /// Case d: kernel shifted right of the last valid output column.
    pub right: bool,
    /// Stride misalignment (`stride > 1` only; not one of the paper's four).
    pub misaligned: bool,
}

impl RcpCases {
    /// Whether any case applies, i.e. the product is an RCP.
    pub fn is_rcp(&self) -> bool {
        self.above || self.left || self.below || self.right || self.misaligned
    }
}

/// Classifies a product of image element `(x, y)` and kernel element
/// `(s, r)` into the Figure-4 RCP cases.
///
/// All-false means the product is valid (contributes to some output).
pub fn classify(shape: &ConvShape, x: usize, y: usize, s: usize, r: usize) -> RcpCases {
    let d = shape.dilation();
    let stride = shape.stride();
    let mut cases = RcpCases::default();
    if y < d * r {
        cases.above = true;
    } else if y - d * r > stride * (shape.out_h() - 1) {
        cases.below = true;
    }
    if x < d * s {
        cases.left = true;
    } else if x - d * s > stride * (shape.out_w() - 1) {
        cases.right = true;
    }
    if !cases.is_rcp() {
        let dy = y - d * r;
        let dx = x - d * s;
        if !dy.is_multiple_of(stride) || !dx.is_multiple_of(stride) {
            cases.misaligned = true;
        }
    }
    cases
}

/// The paper's ideal per-element anticipation test (Eqs. 7–8):
///
/// `(y - stride*H_out) + 1 <= dilation*r <= y` and
/// `(x - stride*W_out) + 1 <= dilation*s <= x`.
///
/// At stride 1 / dilation 1 this is exact (true iff the product is valid).
/// For `stride > 1` the paper's bound is deliberately conservative: it never
/// rejects a valid product but lets stride-misaligned RCPs through.
pub fn passes_element_test(shape: &ConvShape, x: usize, y: usize, s: usize, r: usize) -> bool {
    let d = shape.dilation() as i64;
    let stride = shape.stride() as i64;
    let (x, y, s, r) = (x as i64, y as i64, s as i64, r as i64);
    let r_ok = (y - stride * shape.out_h() as i64) < d * r && d * r <= y;
    let s_ok = (x - stride * shape.out_w() as i64) < d * s && d * s <= x;
    r_ok && s_ok
}

/// An inclusive index range `[min, max]`; empty when `min > max`.
///
/// `min` may be negative before clamping (the hardware clamps when indexing
/// the Kernel Indices Buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange {
    /// Inclusive lower bound (possibly negative).
    pub min: i64,
    /// Inclusive upper bound.
    pub max: i64,
}

impl IndexRange {
    /// Whether the range contains no indices.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Whether `value` lies within the range.
    pub fn contains(&self, value: i64) -> bool {
        self.min <= value && value <= self.max
    }

    /// The range clamped to `[0, limit)` as usize bounds, or `None` if the
    /// clamped range is empty.
    pub fn clamp_to(&self, limit: usize) -> Option<(usize, usize)> {
        let lo = self.min.max(0) as usize;
        let hi = if self.max < 0 {
            return None;
        } else {
            (self.max as usize).min(limit.saturating_sub(1))
        };
        if lo > hi {
            None
        } else {
            Some((lo, hi))
        }
    }

    /// Number of integer indices in the range (0 when empty).
    pub fn len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.max - self.min + 1) as usize
        }
    }
}

/// Computes the acceptable kernel-row range for a vector of image rows
/// (paper Eq. 12 via Eq. 9):
///
/// `r_min = y_min - stride*H_out + 1`, `r_max = y_max` (dilation 1);
/// for dilation `d` the bounds divide through by `d` (conservatively).
///
/// Every valid product's `r` is guaranteed to be inside the returned range;
/// the range may also admit some RCPs (that is what makes Algorithm 2
/// conservative relative to Algorithm 1).
pub fn r_range(shape: &ConvShape, y_min: usize, y_max: usize) -> IndexRange {
    let d = shape.dilation() as i64;
    let stride = shape.stride() as i64;
    let lower = (y_min as i64 - stride * shape.out_h() as i64) + 1;
    IndexRange {
        min: div_ceil(lower, d),
        max: y_max as i64 / d,
    }
}

/// Computes the acceptable kernel-column range for a vector of image columns
/// (paper Eq. 11 via Eq. 10): `s_min = x_min - stride*W_out + 1`,
/// `s_max = x_max` (dilation 1).
pub fn s_range(shape: &ConvShape, x_min: usize, x_max: usize) -> IndexRange {
    let d = shape.dilation() as i64;
    let stride = shape.stride() as i64;
    let lower = (x_min as i64 - stride * shape.out_w() as i64) + 1;
    IndexRange {
        min: div_ceil(lower, d),
        max: x_max as i64 / d,
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    if a >= 0 {
        (a + b - 1) / b
    } else {
        -((-a) / b)
    }
}

/// Partial-product accounting for one kernel/image pair, the quantity behind
/// the paper's Figure 1.
///
/// The five counters partition the full `R*S*H*W` element-pair space:
/// `total = useful + nonzero_rcp + kernel_zero_only + image_zero_only +
/// both_zero`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductBreakdown {
    /// All element pairs: `R*S*H*W`.
    pub total: u64,
    /// Both operands non-zero and the product maps to a valid output.
    pub useful: u64,
    /// Both operands non-zero but the product is an RCP.
    pub nonzero_rcp: u64,
    /// Kernel operand zero, image operand non-zero.
    pub kernel_zero_only: u64,
    /// Image operand zero, kernel operand non-zero.
    pub image_zero_only: u64,
    /// Both operands zero.
    pub both_zero: u64,
}

impl ProductBreakdown {
    /// Fraction of *non-zero* products that are RCPs (the blue share in
    /// paper Fig. 1).
    pub fn rcp_fraction_of_nonzero(&self) -> f64 {
        let nonzero = self.useful + self.nonzero_rcp;
        if nonzero == 0 {
            0.0
        } else {
            self.nonzero_rcp as f64 / nonzero as f64
        }
    }

    /// Fraction of all products that are useful.
    pub fn useful_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.useful as f64 / self.total as f64
        }
    }

    /// Merges counts from another breakdown (e.g. accumulating across
    /// channel pairs or layers).
    pub fn accumulate(&mut self, other: &ProductBreakdown) {
        self.total += other.total;
        self.useful += other.useful;
        self.nonzero_rcp += other.nonzero_rcp;
        self.kernel_zero_only += other.kernel_zero_only;
        self.image_zero_only += other.image_zero_only;
        self.both_zero += other.both_zero;
    }
}

/// Fills `prefix` with the per-stride-phase 2-D prefix-sum planes for
/// `image`, reusing the buffer's capacity. Returns `(phase_cols, plane_len)`.
fn fill_prefix(image: &CsrMatrix, shape: &ConvShape, prefix: &mut Vec<u32>) -> (usize, usize) {
    assert_eq!(
        image.shape(),
        (shape.image_h(), shape.image_w()),
        "image shape mismatch"
    );
    let stride = shape.stride();
    let h = shape.image_h();
    let w = shape.image_w();
    let cols = w + 1;
    let plane_len = (h + 1) * cols;
    prefix.clear();
    prefix.resize(stride * stride * plane_len, 0);
    for (y, x, _) in image.iter() {
        let phase = (y % stride) * stride + (x % stride);
        prefix[phase * plane_len + (y + 1) * cols + (x + 1)] += 1;
    }
    for plane in prefix.chunks_mut(plane_len) {
        for y in 1..=h {
            for x in 1..=w {
                plane[y * cols + x] =
                    plane[y * cols + x] + plane[(y - 1) * cols + x] + plane[y * cols + (x - 1)]
                        - plane[(y - 1) * cols + (x - 1)];
            }
        }
    }
    (cols, plane_len)
}

/// Exact counter of valid non-zero image partners, over reusable
/// prefix-sum planes of one image. One scratch per worker; it grows to the
/// largest image seen and is then reused as-is.
///
/// [`NzCounterScratch::prepare`] builds the planes once per resident image
/// in `O(H * W)` (per stride phase); [`NzCounterScratch::count_useful`]
/// then answers any number of kernels against that image in
/// `O(nnz_kernel)` each, since the number of non-zero image elements that
/// form a *valid* product with one kernel element is an `O(1)` lookup.
/// This is what lets the Figure-1/Table-5 experiments run exact counts on
/// ImageNet-scale layers instead of brute-forcing `R*S*H*W` pairs.
#[derive(Debug, Clone, Default)]
pub struct NzCounterScratch {
    // Flat storage of stride*stride planes, each `plane_len` long. Within
    // plane (py, px), the 2-D inclusive prefix-sum over the indicator of
    // non-zero image elements restricted to that stride phase, with a
    // sentinel row/column of zeros at index 0.
    prefix: Vec<u32>,
    phase_cols: usize,
    plane_len: usize,
}

impl NzCounterScratch {
    /// An empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the prefix-sum planes of `image` under `shape`, replacing
    /// whatever image was prepared before.
    ///
    /// # Panics
    ///
    /// Panics if the image dimensions disagree with `shape`.
    pub fn prepare(&mut self, image: &CsrMatrix, shape: &ConvShape) {
        (self.phase_cols, self.plane_len) = fill_prefix(image, shape, &mut self.prefix);
    }

    /// The useful (valid, both-non-zero) products between `kernel` and the
    /// image last passed to [`NzCounterScratch::prepare`] with the same
    /// `shape`.
    pub fn count_useful(&self, kernel: &CsrMatrix, shape: &ConvShape) -> u64 {
        kernel
            .iter()
            .map(|(r, s, _)| self.count_valid(shape, s, r))
            .sum()
    }

    /// Number of non-zero image elements `(x, y)` of the prepared image for
    /// which the product with kernel element `(s, r)` is valid.
    fn count_valid(&self, shape: &ConvShape, s: usize, r: usize) -> u64 {
        let d = shape.dilation();
        let stride = shape.stride();
        let y0 = d * r;
        let x0 = d * s;
        if y0 >= shape.image_h() || x0 >= shape.image_w() {
            return 0;
        }
        let y1 = (y0 + stride * (shape.out_h() - 1)).min(shape.image_h() - 1);
        let x1 = (x0 + stride * (shape.out_w() - 1)).min(shape.image_w() - 1);
        let phase = (y0 % stride) * stride + (x0 % stride);
        let c = self.phase_cols;
        let p = &self.prefix[phase * self.plane_len..(phase + 1) * self.plane_len];
        let total = p[(y1 + 1) * c + (x1 + 1)] as i64
            - p[y0 * c + (x1 + 1)] as i64
            - p[(y1 + 1) * c + x0] as i64
            + p[y0 * c + x0] as i64;
        total as u64
    }
}

/// Counts the useful (valid, both-non-zero) products between a sparse kernel
/// and sparse image, exactly, in `O(H*W*stride^2 + nnz_kernel)`. The
/// simulator machines use the same counter through a caller-owned
/// [`NzCounterScratch`], preparing each resident image once.
///
/// # Panics
///
/// Panics if the image dimensions disagree with `shape`.
pub fn count_useful_products(kernel: &CsrMatrix, image: &CsrMatrix, shape: &ConvShape) -> u64 {
    let mut planes = NzCounterScratch::new();
    planes.prepare(image, shape);
    planes.count_useful(kernel, shape)
}

/// Computes the full partial-product breakdown for a kernel/image pair.
///
/// # Errors
///
/// Returns [`ConvError::OperandShapeMismatch`] if the operands disagree with
/// `shape`.
pub fn breakdown(
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    shape: &ConvShape,
) -> Result<ProductBreakdown, ConvError> {
    if kernel.shape() != (shape.kernel_h(), shape.kernel_w()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "kernel",
            expected: (shape.kernel_h(), shape.kernel_w()),
            actual: kernel.shape(),
        });
    }
    if image.shape() != (shape.image_h(), shape.image_w()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "image",
            expected: (shape.image_h(), shape.image_w()),
            actual: image.shape(),
        });
    }
    let kernel_elems = shape.kernel_h() as u64 * shape.kernel_w() as u64;
    let image_elems = shape.image_h() as u64 * shape.image_w() as u64;
    let nnz_k = kernel.nnz() as u64;
    let nnz_i = image.nnz() as u64;
    let useful = count_useful_products(kernel, image, shape);
    let nonzero_pairs = nnz_k * nnz_i;
    Ok(ProductBreakdown {
        total: kernel_elems * image_elems,
        useful,
        nonzero_rcp: nonzero_pairs - useful,
        kernel_zero_only: (kernel_elems - nnz_k) * nnz_i,
        image_zero_only: nnz_k * (image_elems - nnz_i),
        both_zero: (kernel_elems - nnz_k) * (image_elems - nnz_i),
    })
}

/// Brute-force breakdown used as a test oracle (`O(R*S*H*W)`).
pub fn breakdown_brute(
    kernel: &DenseMatrix,
    image: &DenseMatrix,
    shape: &ConvShape,
) -> ProductBreakdown {
    let mut b = ProductBreakdown::default();
    for r in 0..shape.kernel_h() {
        for s in 0..shape.kernel_w() {
            let k_nz = kernel.get(r, s) != 0.0;
            for y in 0..shape.image_h() {
                for x in 0..shape.image_w() {
                    let i_nz = image.get(y, x) != 0.0;
                    b.total += 1;
                    match (k_nz, i_nz) {
                        (true, true) => {
                            if shape.is_valid_product(x, y, s, r) {
                                b.useful += 1;
                            } else {
                                b.nonzero_rcp += 1;
                            }
                        }
                        (false, true) => b.kernel_zero_only += 1,
                        (true, false) => b.image_zero_only += 1,
                        (false, false) => b.both_zero += 1,
                    }
                }
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_sparse::sparsify;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shape2233() -> ConvShape {
        ConvShape::new(2, 2, 3, 3, 1).unwrap()
    }

    #[test]
    fn classify_matches_validity_everywhere() {
        for shape in [
            ConvShape::new(2, 2, 3, 3, 1).unwrap(),
            ConvShape::new(3, 3, 8, 8, 1).unwrap(),
            ConvShape::new(2, 2, 7, 7, 2).unwrap(),
            ConvShape::with_dilation(2, 2, 7, 7, 1, 2).unwrap(),
        ] {
            for r in 0..shape.kernel_h() {
                for s in 0..shape.kernel_w() {
                    for y in 0..shape.image_h() {
                        for x in 0..shape.image_w() {
                            let cases = classify(&shape, x, y, s, r);
                            assert_eq!(
                                !cases.is_rcp(),
                                shape.is_valid_product(x, y, s, r),
                                "{shape} x={x} y={y} s={s} r={r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn classify_identifies_directions() {
        let shape = shape2233();
        // Image (0,0) with kernel (1,1): shifted up AND left.
        let c = classify(&shape, 0, 0, 1, 1);
        assert!(c.above && c.left && !c.below && !c.right);
        // Image (2,2) with kernel (0,0): shifted down AND right.
        let c = classify(&shape, 2, 2, 0, 0);
        assert!(c.below && c.right && !c.above && !c.left);
    }

    #[test]
    fn element_test_is_exact_at_stride1() {
        let shape = ConvShape::new(3, 3, 10, 10, 1).unwrap();
        for r in 0..3 {
            for s in 0..3 {
                for y in 0..10 {
                    for x in 0..10 {
                        assert_eq!(
                            passes_element_test(&shape, x, y, s, r),
                            shape.is_valid_product(x, y, s, r)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn element_test_is_conservative_at_stride2() {
        let shape = ConvShape::new(3, 3, 11, 11, 2).unwrap();
        let mut passed_invalid = 0u32;
        for r in 0..3 {
            for s in 0..3 {
                for y in 0..11 {
                    for x in 0..11 {
                        let valid = shape.is_valid_product(x, y, s, r);
                        let passes = passes_element_test(&shape, x, y, s, r);
                        // Never rejects a valid product.
                        assert!(!valid || passes, "valid product rejected");
                        if passes && !valid {
                            passed_invalid += 1;
                        }
                    }
                }
            }
        }
        // Stride misalignment slips through the paper's test.
        assert!(passed_invalid > 0);
    }

    #[test]
    fn ranges_match_paper_equations_at_stride1() {
        let shape = ConvShape::new(5, 5, 20, 20, 1).unwrap();
        // H_out = W_out = 16.
        let rr = r_range(&shape, 3, 17);
        assert_eq!(rr.min, 3 - 16 + 1);
        assert_eq!(rr.max, 17);
        let sr = s_range(&shape, 0, 4);
        assert_eq!(sr.min, 0 - 16 + 1);
        assert_eq!(sr.max, 4);
    }

    #[test]
    fn ranges_are_sound_for_all_shapes() {
        // Every valid product's kernel index falls inside the vector range
        // computed from any y/x window containing the image element.
        for shape in [
            ConvShape::new(4, 4, 9, 9, 1).unwrap(),
            ConvShape::new(3, 3, 11, 11, 2).unwrap(),
            ConvShape::with_dilation(3, 3, 9, 9, 1, 2).unwrap(),
        ] {
            for y in 0..shape.image_h() {
                for x in 0..shape.image_w() {
                    for r in 0..shape.kernel_h() {
                        for s in 0..shape.kernel_w() {
                            if shape.is_valid_product(x, y, s, r) {
                                assert!(r_range(&shape, y, y).contains(r as i64));
                                assert!(s_range(&shape, x, x).contains(s as i64));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn range_clamp_behaviour() {
        let r = IndexRange { min: -3, max: 2 };
        assert_eq!(r.clamp_to(10), Some((0, 2)));
        assert_eq!(r.clamp_to(2), Some((0, 1)));
        let empty = IndexRange { min: 5, max: 2 };
        assert!(empty.is_empty());
        assert_eq!(empty.clamp_to(10), None);
        assert_eq!(empty.len(), 0);
        let negative = IndexRange { min: -5, max: -1 };
        assert_eq!(negative.clamp_to(10), None);
    }

    #[test]
    fn breakdown_matches_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for (shape, sparsity) in [
            (ConvShape::new(3, 3, 8, 8, 1).unwrap(), 0.5),
            (ConvShape::new(4, 4, 9, 9, 1).unwrap(), 0.9),
            (ConvShape::new(3, 3, 11, 11, 2).unwrap(), 0.7),
            (ConvShape::with_dilation(3, 3, 11, 11, 1, 2).unwrap(), 0.6),
        ] {
            let kernel = sparsify::random_with_sparsity(
                shape.kernel_h(),
                shape.kernel_w(),
                sparsity,
                &mut rng,
            );
            let image = sparsify::random_with_sparsity(
                shape.image_h(),
                shape.image_w(),
                sparsity,
                &mut rng,
            );
            let fast = breakdown(
                &CsrMatrix::from_dense(&kernel),
                &CsrMatrix::from_dense(&image),
                &shape,
            )
            .unwrap();
            let brute = breakdown_brute(&kernel, &image, &shape);
            assert_eq!(fast, brute, "shape {shape}");
        }
    }

    #[test]
    fn breakdown_partitions_total() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = ConvShape::new(3, 3, 10, 10, 1).unwrap();
        let kernel = sparsify::random_with_sparsity(3, 3, 0.5, &mut rng);
        let image = sparsify::random_with_sparsity(10, 10, 0.8, &mut rng);
        let b = breakdown(
            &CsrMatrix::from_dense(&kernel),
            &CsrMatrix::from_dense(&image),
            &shape,
        )
        .unwrap();
        assert_eq!(
            b.total,
            b.useful + b.nonzero_rcp + b.kernel_zero_only + b.image_zero_only + b.both_zero
        );
    }

    #[test]
    fn dense_breakdown_matches_analytical_efficiency() {
        // With fully dense operands at stride 1, useful / nonzero ==
        // the analytical outer-product efficiency (Eq. 6).
        let shape = ConvShape::new(4, 4, 12, 12, 1).unwrap();
        let kernel = DenseMatrix::from_fn(4, 4, |_, _| 1.0);
        let image = DenseMatrix::from_fn(12, 12, |_, _| 1.0);
        let b = breakdown(
            &CsrMatrix::from_dense(&kernel),
            &CsrMatrix::from_dense(&image),
            &shape,
        )
        .unwrap();
        let measured = b.useful as f64 / (b.useful + b.nonzero_rcp) as f64;
        assert!((measured - shape.outer_product_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn update_phase_is_rcp_dominated() {
        // Table 2's insight: for the G_A * A phase, RCPs dominate even at
        // modest sizes.
        let mut rng = StdRng::seed_from_u64(9);
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let kernel = sparsify::random_with_sparsity(14, 14, 0.9, &mut rng);
        let image = sparsify::random_with_sparsity(16, 16, 0.9, &mut rng);
        let b = breakdown(
            &CsrMatrix::from_dense(&kernel),
            &CsrMatrix::from_dense(&image),
            &shape,
        )
        .unwrap();
        assert!(
            b.rcp_fraction_of_nonzero() > 0.85,
            "rcp fraction {:.3}",
            b.rcp_fraction_of_nonzero()
        );
    }

    #[test]
    fn reused_counter_scratch_matches_fresh_counts() {
        // One scratch across images of different shapes and strides must
        // reproduce the allocating count exactly, for every kernel streamed
        // past a prepared image.
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = NzCounterScratch::new();
        for (shape, sparsity) in [
            (ConvShape::new(3, 3, 12, 12, 1).unwrap(), 0.6),
            (ConvShape::new(4, 4, 9, 9, 1).unwrap(), 0.9),
            (ConvShape::new(3, 3, 11, 11, 2).unwrap(), 0.7),
            (ConvShape::with_dilation(3, 3, 11, 11, 1, 2).unwrap(), 0.5),
            (ConvShape::new(2, 2, 6, 6, 1).unwrap(), 0.3),
        ] {
            let kernel = sparsify::random_with_sparsity(
                shape.kernel_h(),
                shape.kernel_w(),
                sparsity,
                &mut rng,
            );
            let image = sparsify::random_with_sparsity(
                shape.image_h(),
                shape.image_w(),
                sparsity,
                &mut rng,
            );
            let (kernel, image) = (
                CsrMatrix::from_dense(&kernel),
                CsrMatrix::from_dense(&image),
            );
            let rotated = kernel.rotate180();
            scratch.prepare(&image, &shape);
            for kernel in [&kernel, &rotated] {
                assert_eq!(
                    scratch.count_useful(kernel, &shape),
                    count_useful_products(kernel, &image, &shape),
                    "shape {shape}"
                );
            }
        }
    }

    #[test]
    fn counter_counts_zero_outside_reach() {
        let shape = ConvShape::with_dilation(3, 3, 9, 9, 1, 4);
        // dilation 4 * (3-1) + 1 = 9 fits exactly.
        let shape = shape.unwrap();
        let image = CsrMatrix::from_triplets(9, 9, vec![(0, 0, 1.0)]).unwrap();
        let mut counter = NzCounterScratch::new();
        counter.prepare(&image, &shape);
        let element = |r, s| CsrMatrix::from_triplets(3, 3, vec![(r, s, 1.0)]).unwrap();
        // Kernel element (2,2) starts at image (8,8): cannot reach (0,0).
        assert_eq!(counter.count_useful(&element(2, 2), &shape), 0);
        assert_eq!(counter.count_useful(&element(0, 0), &shape), 1);
    }

    #[test]
    fn explicit_output_shrinks_the_valid_set() {
        // The stride-2 update phase uses an explicit (smaller) output;
        // products reaching the trimmed region must classify as RCPs.
        let natural = ConvShape::with_dilation(4, 4, 9, 9, 1, 2).unwrap();
        assert_eq!((natural.out_h(), natural.out_w()), (3, 3));
        let trimmed = ConvShape::with_output(4, 4, 9, 9, 1, 2, 2, 2).unwrap();
        let mut demoted = 0u32;
        for r in 0..4 {
            for s in 0..4 {
                for y in 0..9 {
                    for x in 0..9 {
                        let nat_valid = natural.is_valid_product(x, y, s, r);
                        let trim_valid = trimmed.is_valid_product(x, y, s, r);
                        // Trimming only removes validity, never adds it.
                        assert!(!trim_valid || nat_valid);
                        if nat_valid && !trim_valid {
                            demoted += 1;
                            // classify() must agree.
                            assert!(classify(&trimmed, x, y, s, r).is_rcp());
                        }
                    }
                }
            }
        }
        assert!(demoted > 0, "trimming the output must demote some products");
    }

    #[test]
    fn element_test_respects_explicit_output() {
        let trimmed = ConvShape::with_output(3, 3, 10, 10, 1, 1, 4, 4).unwrap();
        for r in 0..3 {
            for s in 0..3 {
                for y in 0..10 {
                    for x in 0..10 {
                        // At stride 1 the element test is exact even with an
                        // explicit output.
                        assert_eq!(
                            passes_element_test(&trimmed, x, y, s, r),
                            trimmed.is_valid_product(x, y, s, r),
                            "x={x} y={y} s={s} r={r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = ProductBreakdown {
            total: 10,
            useful: 1,
            nonzero_rcp: 2,
            kernel_zero_only: 3,
            image_zero_only: 4,
            both_zero: 0,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total, 20);
        assert_eq!(a.useful, 2);
    }
}
