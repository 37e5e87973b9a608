//! The machine traits and the image session.

use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_core::AntError;
use ant_sparse::CsrMatrix;

use crate::scratch::SimScratch;
use crate::stats::SimStats;

/// Pipeline start-up cost charged per matrix pair handed to a PE
/// (paper Section 6.1: "a five-cycle start-up cost whenever a PE is given
/// new image and kernel matrices").
pub const STARTUP_CYCLES: u64 = 5;

/// Emits a detail-gated trace event for one simulated pair. Free when
/// `ANT_OBS=pairs` is off (one atomic load); on the hot simulation path,
/// so every machine routes through this single helper.
pub(crate) fn trace_pair(
    machine: &'static str,
    op: &'static str,
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    stats: &SimStats,
) {
    if !ant_obs::detail_enabled() {
        return;
    }
    let mut fields: Vec<(&str, ant_obs::Value)> = Vec::with_capacity(25);
    fields.push(("machine", machine.into()));
    fields.push(("op", op.into()));
    fields.push(("kernel_nnz", (kernel.nnz() as u64).into()));
    fields.push(("image_nnz", (image.nnz() as u64).into()));
    for (name, value) in stats.fields() {
        fields.push((name, value.into()));
    }
    ant_obs::event("pair", &fields);
}

/// Checks that a convolution pair's operands agree with its shape before a
/// machine touches them. O(1): only the CSR headers are inspected; the CSR
/// invariants themselves (monotone row pointers, in-bounds columns, nnz
/// consistency) are enforced by `CsrMatrix` construction.
pub fn validate_conv_pair(
    machine: &'static str,
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    shape: &ConvShape,
) -> Result<(), AntError> {
    check_operand(
        machine,
        "kernel",
        kernel,
        (shape.kernel_h(), shape.kernel_w()),
    )?;
    check_operand(machine, "image", image, (shape.image_h(), shape.image_w()))
}

fn check_operand(
    machine: &'static str,
    operand: &'static str,
    matrix: &CsrMatrix,
    want: (usize, usize),
) -> Result<(), AntError> {
    if matrix.shape() != want {
        return Err(AntError::invalid_operand(
            machine,
            operand,
            format!("is {:?} but shape wants {want:?}", matrix.shape()),
        ));
    }
    Ok(())
}

/// A machine that can simulate one kernel/image convolution pair.
///
/// A "pair" is one 2-D kernel against one 2-D image plane — the granularity
/// at which SCNN-style PEs receive work; multi-channel layers decompose into
/// many pairs (one per input-channel/output-channel combination).
///
/// The dataflow is image-stationary (paper Section 6.1): one image plane
/// stays resident while every kernel streams past it. An [`ImageSession`]
/// mirrors that on the host — [`ConvSim::prepare_image`] builds the state
/// that depends only on the image and shape once, then
/// [`ConvSim::simulate_prepared_kernel`] simulates each kernel against it.
/// Those two methods are a machine's one conv simulation body; the pair
/// entry points are provided as one-kernel sessions.
///
/// A machine that needs no per-image state implements only `name` and
/// `simulate_prepared_kernel`, and every entry point agrees:
///
/// ```
/// use ant_conv::ConvShape;
/// use ant_sim::{ConvSim, CycleBreakdown, ImageSession, SimScratch, SimStats};
/// use ant_sparse::{CsrMatrix, DenseMatrix};
///
/// /// Multiplies every non-zero pair, one product per cycle.
/// struct Cartesian;
///
/// impl ConvSim for Cartesian {
///     fn name(&self) -> &'static str {
///         "cartesian"
///     }
///
///     fn simulate_prepared_kernel(
///         &self,
///         kernel: &CsrMatrix,
///         image: &CsrMatrix,
///         _shape: &ConvShape,
///         _scratch: &mut SimScratch,
///     ) -> SimStats {
///         let products = (kernel.nnz() * image.nnz()) as u64;
///         SimStats {
///             pe_cycles: products,
///             mults: products,
///             cycles: CycleBreakdown { compute: products, ..CycleBreakdown::default() },
///             ..SimStats::default()
///         }
///     }
/// }
///
/// let shape = ConvShape::new(2, 2, 5, 5, 1)?;
/// let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(5, 5, |r, c| ((r + c) % 2) as f32));
/// let kernels = [
///     CsrMatrix::from_dense(&DenseMatrix::from_fn(2, 2, |r, _| r as f32)),
///     CsrMatrix::from_dense(&DenseMatrix::from_fn(2, 2, |_, _| 1.0)),
/// ];
/// let mut scratch = SimScratch::new();
/// let mut session = ImageSession::open(&Cartesian, &image, &shape, &mut scratch);
/// let streamed: Vec<SimStats> = kernels.iter().map(|k| session.simulate(k)).collect();
/// for (kernel, stats) in kernels.iter().zip(&streamed) {
///     assert_eq!(Cartesian.simulate_conv_pair(kernel, &image, &shape), *stats);
///     let checked = Cartesian.try_simulate_conv_pair(kernel, &image, &shape, &mut scratch)?;
///     assert_eq!(checked, *stats);
/// }
/// assert_eq!(streamed[1].mults, 4 * image.nnz() as u64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait ConvSim {
    /// Short machine name for reports.
    fn name(&self) -> &'static str;

    /// Builds, in `scratch`, the per-image state that
    /// [`ConvSim::simulate_prepared_kernel`] reads for every kernel of an
    /// [`ImageSession`]. The default prepares nothing. Callers go through
    /// [`ImageSession`], which pairs each prepare with the kernels it
    /// serves.
    fn prepare_image(&self, image: &CsrMatrix, shape: &ConvShape, scratch: &mut SimScratch) {
        let _ = (image, shape, scratch);
    }

    /// Simulates `kernel` against the image that the last
    /// [`ConvSim::prepare_image`] on `scratch` prepared with this `image`
    /// and `shape`, returning per-pair operation and cycle counts. Results
    /// must not depend on what else `scratch` held before (pinned by the
    /// golden proptests, which also check the exact useful-product counts
    /// against brute force).
    fn simulate_prepared_kernel(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> SimStats;

    /// A stable identity string covering the machine's name and every
    /// hardware parameter that influences its results — the machine's
    /// contribution to a content-addressed cache key. `None` (the default)
    /// declares the machine uncacheable: the result cache must never store
    /// or replay its pairs. Implementations MUST fold every
    /// behaviour-affecting parameter into the string; two machines with
    /// equal identity strings must produce byte-identical stats for
    /// identical operands.
    fn cache_identity(&self) -> Option<String> {
        None
    }

    /// Closed-form fast path: returns `Some(stats)` when this machine's
    /// result for the pair is computable without cycle-accurate emulation
    /// (see [`crate::analytic`]), `None` when emulation is required.
    ///
    /// `Some` results MUST be byte-identical to the emulated path (pinned
    /// by the golden proptests). Callers that substitute this result for a
    /// dispatched job should only do so while detail tracing is off — the
    /// fast path intentionally skips per-pair trace events.
    fn analytic_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> Option<SimStats> {
        let _ = (kernel, image, shape);
        None
    }

    /// Simulates one kernel/image pair as a one-kernel [`ImageSession`] on
    /// a fresh arena. Callers that loop over pairs hold one [`SimScratch`]
    /// and use [`ConvSim::try_simulate_conv_pair`] or a session instead.
    fn simulate_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> SimStats {
        ImageSession::open(self, image, shape, &mut SimScratch::new()).simulate(kernel)
    }

    /// Validated one-kernel session on a caller-owned arena: rejects
    /// operands that disagree with `shape` with a typed
    /// [`AntError::InvalidOperand`] before simulating, instead of panicking
    /// (or silently mis-simulating) inside the machine.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidOperand`] naming this machine and the
    /// offending operand.
    fn try_simulate_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> Result<SimStats, AntError> {
        validate_conv_pair(self.name(), kernel, image, shape)?;
        Ok(ImageSession::open(self, image, shape, scratch).simulate(kernel))
    }
}

/// One resident image plane on one machine: the image-stationary unit of
/// work. Opening the session prepares the image once
/// ([`ConvSim::prepare_image`]); each kernel then streams past it. It
/// borrows the worker's [`SimScratch`] for its lifetime, so the prepared
/// state lives exactly as long as the session and never across calls.
///
/// ```
/// use ant_conv::ConvShape;
/// use ant_sim::{ConvSim, ImageSession, SimScratch};
/// use ant_sim::scnn::ScnnPlus;
/// use ant_sparse::{CsrMatrix, DenseMatrix};
///
/// let shape = ConvShape::new(2, 2, 5, 5, 1)?;
/// let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(5, 5, |r, c| ((r + c) % 2) as f32));
/// let kernels = [
///     CsrMatrix::from_dense(&DenseMatrix::from_fn(2, 2, |r, _| r as f32)),
///     CsrMatrix::from_dense(&DenseMatrix::from_fn(2, 2, |_, c| c as f32)),
/// ];
/// let scnn = ScnnPlus::paper_default();
/// let mut scratch = SimScratch::new();
/// let mut session = ImageSession::open(&scnn, &image, &shape, &mut scratch);
/// for kernel in &kernels {
///     assert_eq!(session.simulate(kernel), scnn.simulate_conv_pair(kernel, &image, &shape));
/// }
/// # Ok::<(), ant_conv::ConvError>(())
/// ```
pub struct ImageSession<'a, S: ConvSim + ?Sized> {
    pe: &'a S,
    image: &'a CsrMatrix,
    shape: &'a ConvShape,
    scratch: &'a mut SimScratch,
}

impl<'a, S: ConvSim + ?Sized> ImageSession<'a, S> {
    /// Opens a session on `image`, preparing it in `scratch`.
    ///
    /// # Panics
    ///
    /// A machine may panic when the image disagrees with `shape`, as its
    /// pair entry point would; [`ImageSession::try_open`] checks first.
    pub fn open(
        pe: &'a S,
        image: &'a CsrMatrix,
        shape: &'a ConvShape,
        scratch: &'a mut SimScratch,
    ) -> Self {
        pe.prepare_image(image, shape, scratch);
        Self {
            pe,
            image,
            shape,
            scratch,
        }
    }

    /// Validated [`ImageSession::open`].
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidOperand`] when the image disagrees with
    /// `shape`.
    pub fn try_open(
        pe: &'a S,
        image: &'a CsrMatrix,
        shape: &'a ConvShape,
        scratch: &'a mut SimScratch,
    ) -> Result<Self, AntError> {
        check_operand(
            pe.name(),
            "image",
            image,
            (shape.image_h(), shape.image_w()),
        )?;
        Ok(Self::open(pe, image, shape, scratch))
    }

    /// Simulates one kernel against the resident image: bit-identical to
    /// [`ConvSim::simulate_conv_pair`] on the pair.
    pub fn simulate(&mut self, kernel: &CsrMatrix) -> SimStats {
        self.pe
            .simulate_prepared_kernel(kernel, self.image, self.shape, self.scratch)
    }

    /// Validated [`ImageSession::simulate`]: the same checks, in the same
    /// order, as [`ConvSim::try_simulate_conv_pair`].
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidOperand`] naming the offending operand.
    pub fn try_simulate(&mut self, kernel: &CsrMatrix) -> Result<SimStats, AntError> {
        validate_conv_pair(self.pe.name(), kernel, self.image, self.shape)?;
        Ok(self.simulate(kernel))
    }

    /// Swaps in a fresh arena and prepares the image again: the retry path
    /// after a failed kernel, whose panic may have left the arena
    /// mid-mutation. Allocates; the clean path never calls it.
    pub fn reopen_fresh(&mut self) {
        *self.scratch = SimScratch::new();
        self.pe.prepare_image(self.image, self.shape, self.scratch);
    }
}

impl<S: ConvSim + ?Sized> std::fmt::Debug for ImageSession<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageSession")
            .field("machine", &self.pe.name())
            .field("image", &self.image.shape())
            .field("shape", self.shape)
            .finish_non_exhaustive()
    }
}

/// A machine that can simulate a matrix-multiplication pair
/// (paper Section 5).
pub trait MatmulSim {
    /// Short machine name for reports and error attribution.
    fn name(&self) -> &'static str;

    /// Simulates `image x kernel` in a caller-owned [`SimScratch`] arena,
    /// returning operation and cycle counts: the machine's one matmul
    /// simulation body.
    fn simulate_matmul_pair_scratch(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut SimScratch,
    ) -> SimStats;

    /// [`MatmulSim::simulate_matmul_pair_scratch`] on a fresh arena.
    fn simulate_matmul_pair(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
    ) -> SimStats {
        self.simulate_matmul_pair_scratch(image, kernel, shape, &mut SimScratch::new())
    }
}
