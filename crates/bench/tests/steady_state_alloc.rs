//! Steady-state allocation regression test, backed by the `ANT_ALLOC`
//! counting allocator that every `ant-bench` test binary installs.
//!
//! The scratch-arena contract (see `ant_sim::scratch`): after one warm-up
//! pair has grown a worker's [`SimScratch`] buffers, simulating further
//! pairs of the same shapes performs **zero** heap allocations, on every
//! machine — and so does a second [`ImageSession`], the runner's unit of
//! work, preparing its image and streaming several kernels past it. A
//! regression here means a `Vec`/`Box` crept back into the per-pair or
//! per-image hot path.
//!
//! This file deliberately holds a single `#[test]`: the allocator counters
//! are process-global, and a sibling test thread allocating concurrently
//! would make the zero-delta assertion meaningless.

use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_sim::accum::AccumulatorBanks;
use ant_sim::ant::AntAccelerator;
use ant_sim::dst::DstAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::intersection::IntersectionAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, ImageSession, MatmulSim, SimScratch};
use ant_sparse::{sparsify, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

// The test crate must reference ant-bench, or the linker drops the rlib —
// and with it the `#[global_allocator]` registration under test.
use ant_bench as _;

fn conv_pair(shape: &ConvShape, sparsity: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
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
fn second_pair_on_a_warm_worker_allocates_nothing() {
    let conv_machines: Vec<Box<dyn ConvSim>> = vec![
        Box::new(AntAccelerator::paper_default()),
        Box::new(AntAccelerator::paper_default().with_accumulator_banks(
            AccumulatorBanks::scnn_provisioned(4),
        )),
        Box::new(ScnnPlus::paper_default()),
        Box::new(DenseInnerProduct::paper_default()),
        Box::new(TensorDash::paper_default()),
        Box::new(DstAccelerator::paper_default()),
        Box::new(IntersectionAccelerator::training_default()),
    ];
    let shape = ConvShape::new(3, 3, 16, 16, 1).unwrap();
    let (k1, i1) = conv_pair(&shape, 0.9, 1);
    let (k2, i2) = conv_pair(&shape, 0.9, 2);
    let streamed: Vec<CsrMatrix> = (3..7).map(|seed| conv_pair(&shape, 0.9, seed).0).collect();

    let mshape = MatmulShape::new(12, 16, 16, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let m_image1 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(12, 16, 0.9, &mut rng));
    let m_kernel1 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(16, 8, 0.9, &mut rng));
    let m_image2 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(12, 16, 0.9, &mut rng));
    let m_kernel2 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(16, 8, 0.9, &mut rng));
    let matmul_machines: Vec<(&'static str, Box<dyn MatmulSim>)> = vec![
        ("ANT", Box::new(AntAccelerator::paper_default())),
        ("SCNN+", Box::new(ScnnPlus::paper_default())),
        ("dense", Box::new(DenseInnerProduct::paper_default())),
        ("TensorDash", Box::new(TensorDash::paper_default())),
        ("DST", Box::new(DstAccelerator::paper_default())),
        (
            "GoSPA",
            Box::new(IntersectionAccelerator::training_default()),
        ),
    ];

    ant_obs::alloc::enable();
    assert!(
        ant_obs::alloc::counting_active(),
        "counting allocator must be installed in ant-bench test binaries"
    );

    // One worker-owned arena shared by every machine, exactly like a
    // scheduler worker slot.
    let mut scratch = SimScratch::new();
    for machine in &conv_machines {
        // Warm-up pair grows the buffers to this shape.
        let warm = machine.simulate_conv_pair_scratch(&k1, &i1, &shape, &mut scratch);
        // Steady state: a second, different pair of the same shape.
        let before = ant_obs::alloc::snapshot();
        let steady = machine.simulate_conv_pair_scratch(&k2, &i2, &shape, &mut scratch);
        let delta = ant_obs::alloc::snapshot().delta_from(&before);
        assert_eq!(
            delta.allocs,
            0,
            "{} allocated {} times ({} bytes) on a warm worker",
            machine.name(),
            delta.allocs,
            delta.allocated_bytes
        );
        // Sanity: both runs did real work.
        assert!(warm.pairs_total > 0 && steady.pairs_total > 0);

        // Image sessions: the first warms the per-image state, the second
        // prepares another image and streams its kernels allocation-free.
        let mut session = ImageSession::open(machine.as_ref(), &i1, &shape, &mut scratch);
        for kernel in &streamed {
            session.simulate(kernel);
        }
        let before = ant_obs::alloc::snapshot();
        let mut session = ImageSession::open(machine.as_ref(), &i2, &shape, &mut scratch);
        let mut pairs_total = 0;
        for kernel in &streamed {
            pairs_total += session.simulate(kernel).pairs_total;
        }
        let delta = ant_obs::alloc::snapshot().delta_from(&before);
        assert_eq!(
            delta.allocs,
            0,
            "{} image session allocated {} times ({} bytes) on a warm worker",
            machine.name(),
            delta.allocs,
            delta.allocated_bytes
        );
        assert!(pairs_total > 0);
    }

    for (label, machine) in &matmul_machines {
        let _ = machine.simulate_matmul_pair_scratch(&m_image1, &m_kernel1, &mshape, &mut scratch);
        let before = ant_obs::alloc::snapshot();
        let _ = machine.simulate_matmul_pair_scratch(&m_image2, &m_kernel2, &mshape, &mut scratch);
        let delta = ant_obs::alloc::snapshot().delta_from(&before);
        assert_eq!(
            delta.allocs, 0,
            "{label} matmul allocated {} times ({} bytes) on a warm worker",
            delta.allocs, delta.allocated_bytes
        );
    }

    ant_obs::alloc::disable();
}
