//! Trace extraction: turning a trained layer's tensors into the 2-D
//! kernel/image pairs the accelerator simulators consume.
//!
//! A convolution layer step involves three convolutions (paper Section 2.1):
//! `W * A` (forward), `R(W) * G_A` (backward, on the dilated+padded
//! gradient), and `G_A * A` (update). On an SCNN-like machine each
//! decomposes into per-channel-pair 2-D convolutions; [`ConvTrace`] stores
//! the per-channel planes and materializes those pairs.

use std::sync::Arc;

use ant_conv::dense as cdense;
use ant_conv::{ConvError, ConvShape};
use ant_core::AntError;
use ant_sparse::{CsrMatrix, DenseMatrix};

use crate::layers::Conv2d;
use crate::tensor::Tensor4;

/// One simulator work unit: a sparse kernel, a sparse image, and the
/// convolution shape connecting them. Operand planes are shared, never
/// copied: each is compressed once per phase.
#[derive(Debug, Clone)]
pub struct ConvPair {
    /// The convolution kernel (CSR). The update phase shares `G_A[k]`
    /// across the pairs of output channel `k`.
    pub kernel: Arc<CsrMatrix>,
    /// The convolution image (CSR), shared by every pair of the phase that
    /// keeps this plane resident; pairs with pointer-equal images belong to
    /// one resident image.
    pub image: Arc<CsrMatrix>,
    /// Dimension bookkeeping for RCP detection.
    pub shape: ConvShape,
}

/// The captured tensors of one convolution layer at one training step, for
/// one sample of the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvTrace {
    /// Layer label (for reports).
    pub name: String,
    /// Forward stride.
    pub stride: usize,
    /// Effective weight planes `[k][c]`, each `R x S`.
    pub weights: Vec<Vec<DenseMatrix>>,
    /// Padded input activation planes `[c]`, each `H_pad x W_pad`.
    pub activations: Vec<DenseMatrix>,
    /// Output activation gradient planes `[k]`, each `H_out x W_out`.
    pub grad_out: Vec<DenseMatrix>,
}

impl ConvTrace {
    /// Captures a trace from a conv layer after its forward pass, given the
    /// (possibly sparsified) gradient at its output, for batch element
    /// `sample`.
    ///
    /// # Panics
    ///
    /// Panics if the layer has not run `forward`, or `sample` is out of
    /// range.
    pub fn from_layer(name: &str, conv: &Conv2d, grad_out: &Tensor4, sample: usize) -> Self {
        let padded = conv
            .cached_input_padded()
            .expect("capture requires a forward pass");
        assert!(sample < padded.n(), "sample out of range");
        let weights = (0..conv.out_channels())
            .map(|k| {
                (0..conv.in_channels())
                    .map(|c| conv.kernel_plane(k, c))
                    .collect()
            })
            .collect();
        let activations = (0..conv.in_channels())
            .map(|c| padded.channel(sample, c))
            .collect();
        let grads = (0..conv.out_channels())
            .map(|k| grad_out.channel(sample, k))
            .collect();
        let trace = Self {
            name: name.to_string(),
            stride: conv.stride(),
            weights,
            activations,
            grad_out: grads,
        };
        if ant_obs::enabled() {
            ant_obs::event(
                "trace_capture",
                &[
                    ("layer", name.into()),
                    ("out_channels", (trace.out_channels() as u64).into()),
                    ("in_channels", (trace.in_channels() as u64).into()),
                    ("weight_sparsity", trace.weight_sparsity().into()),
                    ("activation_sparsity", trace.activation_sparsity().into()),
                    ("gradient_sparsity", trace.gradient_sparsity().into()),
                ],
            );
        }
        trace
    }

    /// Builds a trace directly from planes (used by `ant-workloads` for
    /// synthetic traces).
    ///
    /// # Panics
    ///
    /// Panics if the plane collections are empty or ragged. Use
    /// [`ConvTrace::try_from_planes`] for a fallible constructor.
    pub fn from_planes(
        name: &str,
        stride: usize,
        weights: Vec<Vec<DenseMatrix>>,
        activations: Vec<DenseMatrix>,
        grad_out: Vec<DenseMatrix>,
    ) -> Self {
        Self::try_from_planes(name, stride, weights, activations, grad_out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a trace directly from planes, rejecting empty or ragged
    /// collections with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidConfig`] when any plane collection is
    /// empty, when the weight rows don't match the output-gradient channel
    /// count, or when a weight row is ragged against the input channels.
    pub fn try_from_planes(
        name: &str,
        stride: usize,
        weights: Vec<Vec<DenseMatrix>>,
        activations: Vec<DenseMatrix>,
        grad_out: Vec<DenseMatrix>,
    ) -> Result<Self, AntError> {
        if weights.is_empty() || activations.is_empty() || grad_out.is_empty() {
            return Err(AntError::invalid_config(
                "trace_planes",
                format!(
                    "trace planes must be non-empty (layer {name:?}: \
                     {} weight rows, {} activations, {} gradients)",
                    weights.len(),
                    activations.len(),
                    grad_out.len()
                ),
            ));
        }
        if weights.len() != grad_out.len() {
            return Err(AntError::invalid_config(
                "trace_planes",
                format!(
                    "layer {name:?} needs one weight row per output channel \
                     ({} weight rows, {} gradient planes)",
                    weights.len(),
                    grad_out.len()
                ),
            ));
        }
        if let Some(row) = weights.iter().position(|row| row.len() != activations.len()) {
            return Err(AntError::invalid_config(
                "trace_planes",
                format!(
                    "layer {name:?} weight row {row} has {} planes but there \
                     are {} input channels",
                    weights[row].len(),
                    activations.len()
                ),
            ));
        }
        Ok(Self {
            name: name.to_string(),
            stride,
            weights,
            activations,
            grad_out,
        })
    }

    /// Output channel count `K`.
    pub fn out_channels(&self) -> usize {
        self.weights.len()
    }

    /// Input channel count `C`.
    pub fn in_channels(&self) -> usize {
        self.activations.len()
    }

    /// The forward convolution shape (`R x S` over the padded image).
    ///
    /// # Errors
    ///
    /// Propagates [`ConvError`] for degenerate captured planes.
    pub fn forward_shape(&self) -> Result<ConvShape, ConvError> {
        let w = &self.weights[0][0];
        let a = &self.activations[0];
        ConvShape::with_output(
            w.rows(),
            w.cols(),
            a.rows(),
            a.cols(),
            self.stride,
            1,
            self.grad_out[0].rows(),
            self.grad_out[0].cols(),
        )
    }

    /// The update-phase shape (`G_A` dilated by the stride over the padded
    /// image, producing `R x S`).
    ///
    /// # Errors
    ///
    /// Propagates [`ConvError`] for degenerate captured planes.
    pub fn update_shape(&self) -> Result<ConvShape, ConvError> {
        let w = &self.weights[0][0];
        let a = &self.activations[0];
        let g = &self.grad_out[0];
        ConvShape::with_output(
            g.rows(),
            g.cols(),
            a.rows(),
            a.cols(),
            1,
            self.stride,
            w.rows(),
            w.cols(),
        )
    }

    /// The `W * A` forward pairs: kernel `W[k][c]`, image `A[c]`, for every
    /// `(k, c)`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConvError`] from shape construction.
    pub fn forward_pairs(&self) -> Result<Vec<ConvPair>, ConvError> {
        let mut span = self.pairs_span("forward");
        let shape = self.forward_shape()?;
        // Compress each resident image plane once; every output channel
        // shares it.
        let images = self.compressed_activations();
        let mut pairs = Vec::with_capacity(self.out_channels() * self.in_channels());
        for k in 0..self.out_channels() {
            for (c, image) in images.iter().enumerate() {
                pairs.push(ConvPair {
                    kernel: Arc::new(CsrMatrix::from_dense(&self.weights[k][c])),
                    image: Arc::clone(image),
                    shape,
                });
            }
        }
        span.record("pairs", pairs.len() as u64);
        Ok(pairs)
    }

    /// The `G_A * A` update pairs: kernel `G_A[k]` (dilated by the forward
    /// stride via the shape), image `A[c]`, for every `(k, c)`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConvError`] from shape construction.
    pub fn update_pairs(&self) -> Result<Vec<ConvPair>, ConvError> {
        let mut span = self.pairs_span("update");
        let shape = self.update_shape()?;
        // Same plane-level reuse as `forward_pairs`: each operand plane is
        // compressed exactly once.
        let images = self.compressed_activations();
        let mut pairs = Vec::with_capacity(self.out_channels() * self.in_channels());
        for k in 0..self.out_channels() {
            let kernel = Arc::new(CsrMatrix::from_dense(&self.grad_out[k]));
            for image in &images {
                pairs.push(ConvPair {
                    kernel: Arc::clone(&kernel),
                    image: Arc::clone(image),
                    shape,
                });
            }
        }
        span.record("pairs", pairs.len() as u64);
        Ok(pairs)
    }

    /// The `R(W) * G_A` backward pairs: kernel = rotated `W[k][c]`, image =
    /// the dilated (by stride) and `R-1`-padded gradient `G_A[k]`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConvError`] from shape construction.
    pub fn backward_pairs(&self) -> Result<Vec<ConvPair>, ConvError> {
        let mut span = self.pairs_span("backward");
        let w0 = &self.weights[0][0];
        let mut pairs = Vec::with_capacity(self.out_channels() * self.in_channels());
        for k in 0..self.out_channels() {
            let dilated = cdense::dilate(&self.grad_out[k], self.stride);
            let padded = cdense::pad(&dilated, w0.rows() - 1, w0.cols() - 1);
            let image = Arc::new(CsrMatrix::from_dense(&padded));
            let shape = ConvShape::new(w0.rows(), w0.cols(), padded.rows(), padded.cols(), 1)?;
            for c in 0..self.in_channels() {
                pairs.push(ConvPair {
                    kernel: Arc::new(CsrMatrix::from_dense(&self.weights[k][c].rotate180())),
                    image: Arc::clone(&image),
                    shape,
                });
            }
        }
        span.record("pairs", pairs.len() as u64);
        Ok(pairs)
    }

    /// The activation planes, each compressed once for sharing.
    fn compressed_activations(&self) -> Vec<Arc<CsrMatrix>> {
        self.activations
            .iter()
            .map(|plane| Arc::new(CsrMatrix::from_dense(plane)))
            .collect()
    }

    /// Opens the span under which one phase's pairs are materialized.
    fn pairs_span(&self, phase: &'static str) -> ant_obs::Span {
        let mut span = ant_obs::span("materialize_pairs");
        if span.is_recording() {
            span.record("layer", self.name.as_str()).record("phase", phase);
        }
        span
    }

    /// Mean sparsity of the weight planes.
    pub fn weight_sparsity(&self) -> f64 {
        mean_sparsity(self.weights.iter().flatten())
    }

    /// Mean sparsity of the activation planes.
    pub fn activation_sparsity(&self) -> f64 {
        mean_sparsity(self.activations.iter())
    }

    /// Mean sparsity of the gradient planes.
    pub fn gradient_sparsity(&self) -> f64 {
        mean_sparsity(self.grad_out.iter())
    }
}

fn mean_sparsity<'a>(planes: impl Iterator<Item = &'a DenseMatrix>) -> f64 {
    let mut zeros = 0usize;
    let mut total = 0usize;
    for p in planes {
        zeros += p.len() - p.nnz();
        total += p.len();
    }
    if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;

    fn traced_layer() -> (Conv2d, Tensor4, Tensor4) {
        let mut conv = Conv2d::new(2, 3, 3, 3, 1, 1, 11);
        let input = Tensor4::from_fn(1, 3, 6, 6, |_, c, h, w| {
            (((c + 1) * (h * 6 + w)) as f32 * 0.37).sin().max(0.0)
        });
        let out = conv.forward(&input);
        (conv, input, out)
    }

    #[test]
    fn capture_dimensions() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        assert_eq!(trace.out_channels(), 2);
        assert_eq!(trace.in_channels(), 3);
        assert_eq!(trace.activations[0].shape(), (8, 8)); // padded 6+2
        assert_eq!(trace.grad_out[0].shape(), (6, 6));
        assert_eq!(trace.weights[1][2].shape(), (3, 3));
    }

    #[test]
    fn forward_pairs_shape_and_count() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.forward_pairs().unwrap();
        assert_eq!(pairs.len(), 6);
        assert_eq!((pairs[0].shape.out_h(), pairs[0].shape.out_w()), (6, 6));
    }

    #[test]
    fn update_pairs_produce_weight_gradient_shape() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.update_pairs().unwrap();
        assert_eq!(pairs.len(), 6);
        assert_eq!((pairs[0].shape.out_h(), pairs[0].shape.out_w()), (3, 3));
        // The update kernel is the gradient plane.
        assert_eq!(pairs[0].kernel.shape(), (6, 6));
    }

    #[test]
    fn backward_pairs_recover_padded_input_dims() {
        let (conv, input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.backward_pairs().unwrap();
        assert_eq!(pairs.len(), 6);
        // Output of the backward conv covers the padded input.
        assert_eq!(
            (pairs[0].shape.out_h(), pairs[0].shape.out_w()),
            (input.h() + 2, input.w() + 2)
        );
    }

    #[test]
    fn pairs_share_one_image_per_resident_plane() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let (k_n, c_n) = (trace.out_channels(), trace.in_channels());
        let forward = trace.forward_pairs().unwrap();
        let update = trace.update_pairs().unwrap();
        let backward = trace.backward_pairs().unwrap();
        for k in 0..k_n {
            for c in 0..c_n {
                let i = k * c_n + c;
                // Forward and update keep activation plane c resident.
                assert!(Arc::ptr_eq(&forward[i].image, &forward[c].image));
                assert!(Arc::ptr_eq(&update[i].image, &update[c].image));
                // Backward keeps gradient plane k resident.
                assert!(Arc::ptr_eq(&backward[i].image, &backward[k * c_n].image));
            }
        }
        assert!(!Arc::ptr_eq(&forward[0].image, &forward[1].image));
        assert!(!Arc::ptr_eq(&backward[0].image, &backward[c_n].image));
    }

    /// The decomposed per-channel pairs must reproduce the layer's own
    /// forward computation when summed over input channels.
    #[test]
    fn forward_pairs_functionally_correct() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.forward_pairs().unwrap();
        let shape = trace.forward_shape().unwrap();
        for k in 0..trace.out_channels() {
            let mut acc = DenseMatrix::zeros(shape.out_h(), shape.out_w());
            for c in 0..trace.in_channels() {
                let pair = &pairs[k * trace.in_channels() + c];
                let partial =
                    ant_conv::outer::sparse_conv_outer(&pair.kernel, &pair.image, &pair.shape)
                        .unwrap();
                for (r, col, v) in partial.output.iter_nonzero() {
                    acc[(r, col)] += v;
                }
            }
            // Compare against the layer's own output (minus bias, which the
            // pair decomposition does not carry). Bias is zero-initialized.
            let expected = out.channel(0, k);
            assert!(acc.approx_eq(&expected, 1e-3), "channel {k}");
        }
    }

    /// The update pairs must compute the true weight gradient.
    #[test]
    fn update_pairs_functionally_correct() {
        let (mut conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        // Use the forward output as a stand-in gradient; run real backward.
        let _ = conv.backward(&out);
        let pairs = trace.update_pairs().unwrap();
        // Pair (k=0, c=0): reproduce grad_weight[0][0].
        let pair = &pairs[0];
        let result =
            ant_conv::outer::sparse_conv_outer(&pair.kernel, &pair.image, &pair.shape).unwrap();
        // Reference: finite loop from the captured planes.
        let g = &trace.grad_out[0];
        let a = &trace.activations[0];
        let mut expected = DenseMatrix::zeros(3, 3);
        for r in 0..3 {
            for s in 0..3 {
                let mut acc = 0.0;
                for oy in 0..g.rows() {
                    for ox in 0..g.cols() {
                        acc += g.get(oy, ox) * a.get(oy + r, ox + s);
                    }
                }
                expected[(r, s)] = acc;
            }
        }
        assert!(result.output.approx_eq(&expected, 1e-2));
    }

    #[test]
    fn sparsity_reporting() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        assert!(trace.weight_sparsity() < 0.2); // dense init
        assert!(trace.activation_sparsity() > 0.0); // ReLU'd input has zeros
        let _ = trace.gradient_sparsity();
    }
}
