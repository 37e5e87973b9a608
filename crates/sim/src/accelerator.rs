//! Accelerator traits and the multi-PE wrapper.

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
    check_operand(machine, "kernel", kernel, (shape.kernel_h(), shape.kernel_w()))?;
    check_operand(machine, "image", image, (shape.image_h(), shape.image_w()))
}

/// Checks that a matmul pair's operands agree with its shape. O(1); see
/// [`validate_conv_pair`].
pub fn validate_matmul_pair(
    machine: &'static str,
    image: &CsrMatrix,
    kernel: &CsrMatrix,
    shape: &MatmulShape,
) -> Result<(), AntError> {
    check_operand(machine, "image", image, (shape.image_h(), shape.image_w()))?;
    check_operand(machine, "kernel", kernel, (shape.kernel_r(), shape.kernel_s()))
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
/// Machines with such state implement their pair entry point as a
/// one-kernel session, so each keeps exactly one simulation body.
pub trait ConvSim {
    /// Short machine name for reports.
    fn name(&self) -> &'static str;

    /// Simulates the convolution of one kernel/image pair, returning
    /// per-pair operation and cycle counts.
    fn simulate_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> SimStats;

    /// Like [`ConvSim::simulate_conv_pair`], but with a caller-owned
    /// [`SimScratch`] arena so the steady state allocates nothing.
    ///
    /// Results MUST be bit-identical to [`ConvSim::simulate_conv_pair`]
    /// (see the golden proptests in `ant-sim/tests`). The default simply
    /// forwards, which is already allocation-free for the analytic
    /// machines; machines with real working sets override this and route
    /// their plain entry point through the shared thread scratch.
    fn simulate_conv_pair_scratch(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        let _ = scratch;
        self.simulate_conv_pair(kernel, image, shape)
    }

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
    /// and `shape`. Results MUST be bit-identical to
    /// [`ConvSim::simulate_conv_pair`] on the same pair (pinned by the
    /// golden proptests). The default simply forwards to
    /// [`ConvSim::simulate_conv_pair_scratch`].
    fn simulate_prepared_kernel(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        self.simulate_conv_pair_scratch(kernel, image, shape, scratch)
    }

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
    /// The contract mirrors [`ConvSim::simulate_conv_pair_scratch`]:
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

    /// Validated entry point: rejects operands that disagree with `shape`
    /// with a typed [`AntError::InvalidOperand`] before simulating, instead
    /// of panicking (or silently mis-simulating) inside the machine.
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
        Ok(self.simulate_conv_pair_scratch(kernel, image, shape, scratch))
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
        check_operand(pe.name(), "image", image, (shape.image_h(), shape.image_w()))?;
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

    /// Simulates `image x kernel`, returning operation and cycle counts.
    fn simulate_matmul_pair(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
    ) -> SimStats;

    /// Like [`MatmulSim::simulate_matmul_pair`], but with a caller-owned
    /// [`SimScratch`] arena (see
    /// [`ConvSim::simulate_conv_pair_scratch`] for the contract).
    fn simulate_matmul_pair_scratch(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        let _ = scratch;
        self.simulate_matmul_pair(image, kernel, shape)
    }

    /// Validated entry point: rejects operands that disagree with `shape`
    /// with a typed [`AntError::InvalidOperand`] before simulating.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidOperand`] naming this machine and the
    /// offending operand.
    fn try_simulate_matmul_pair(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut SimScratch,
    ) -> Result<SimStats, AntError> {
        validate_matmul_pair(self.name(), image, kernel, shape)?;
        Ok(self.simulate_matmul_pair_scratch(image, kernel, shape, scratch))
    }
}

/// A PE model replicated across `num_pes` processing elements with the
/// paper's perfect-load-balancing assumption (Section 6.1): wall-clock
/// cycles are the accumulated PE cycles divided by the PE count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accelerator<S> {
    sim: S,
    num_pes: usize,
}

impl<S> Accelerator<S> {
    /// Wraps a PE model with `num_pes` PEs (paper Table 4: 64).
    ///
    /// # Panics
    ///
    /// Panics if `num_pes == 0`. Use [`Accelerator::try_new`] for a
    /// fallible constructor.
    pub fn new(sim: S, num_pes: usize) -> Self {
        Self::try_new(sim, num_pes).expect("accelerator needs at least one PE")
    }

    /// Wraps a PE model, rejecting a zero PE count with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidConfig`] when `num_pes == 0`.
    pub fn try_new(sim: S, num_pes: usize) -> Result<Self, AntError> {
        if num_pes == 0 {
            return Err(AntError::invalid_config(
                "num_pes",
                "accelerator needs at least one PE (got 0)",
            ));
        }
        Ok(Self { sim, num_pes })
    }

    /// The wrapped PE model.
    pub fn pe(&self) -> &S {
        &self.sim
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Wall-clock cycles under perfect load balancing.
    pub fn wall_cycles(&self, total: &SimStats) -> u64 {
        total.total_cycles().div_ceil(self.num_pes as u64)
    }
}

impl<S: ConvSim> Accelerator<S> {
    /// Simulates a sequence of kernel/image pairs and accumulates the stats.
    pub fn simulate_conv_pairs<'a>(
        &self,
        pairs: impl IntoIterator<Item = (&'a CsrMatrix, &'a CsrMatrix, ConvShape)>,
    ) -> SimStats {
        let mut scratch = SimScratch::new();
        let mut total = SimStats::default();
        for (kernel, image, shape) in pairs {
            total.accumulate(&self.sim.simulate_conv_pair_scratch(
                kernel,
                image,
                &shape,
                &mut scratch,
            ));
        }
        total
    }
}

impl<S: MatmulSim> Accelerator<S> {
    /// Simulates a sequence of matmul pairs and accumulates the stats.
    pub fn simulate_matmul_pairs<'a>(
        &self,
        pairs: impl IntoIterator<Item = (&'a CsrMatrix, &'a CsrMatrix, MatmulShape)>,
    ) -> SimStats {
        let mut scratch = SimScratch::new();
        let mut total = SimStats::default();
        for (image, kernel, shape) in pairs {
            total.accumulate(&self.sim.simulate_matmul_pair_scratch(
                image,
                kernel,
                &shape,
                &mut scratch,
            ));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scnn::ScnnPlus;
    use ant_sparse::DenseMatrix;

    #[test]
    fn wall_cycles_divide_by_pes() {
        let acc = Accelerator::new(ScnnPlus::paper_default(), 64);
        let stats = SimStats {
            pe_cycles: 6400,
            startup_cycles: 0,
            ..SimStats::default()
        };
        assert_eq!(acc.wall_cycles(&stats), 100);
        let stats2 = SimStats {
            pe_cycles: 6401,
            ..stats
        };
        assert_eq!(acc.wall_cycles(&stats2), 101);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _ = Accelerator::new(ScnnPlus::paper_default(), 0);
    }

    #[test]
    fn pair_iteration_accumulates() {
        let acc = Accelerator::new(ScnnPlus::paper_default(), 4);
        let kernel = CsrMatrix::from_dense(&DenseMatrix::from_fn(2, 2, |_, _| 1.0));
        let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(4, 4, |_, _| 1.0));
        let shape = ConvShape::new(2, 2, 4, 4, 1).unwrap();
        let one = acc.simulate_conv_pairs(vec![(&kernel, &image, shape)]);
        let two = acc.simulate_conv_pairs(vec![(&kernel, &image, shape); 2]);
        assert_eq!(two.mults, 2 * one.mults);
        assert_eq!(two.startup_cycles, 2 * one.startup_cycles);
    }
}
