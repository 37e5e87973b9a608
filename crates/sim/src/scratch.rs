//! Reusable per-worker scratch arena for the per-pair simulation hot path.
//!
//! Simulating a network runs hundreds of thousands of kernel/image pairs
//! through the machines. Each pair's working set (anticipator buffers,
//! prefix-sum planes, per-column counts) is shape-bounded and identical in
//! structure from pair to pair, so one [`SimScratch`] per worker amortizes
//! every allocation: after the first pair warms the buffers up to the
//! largest shapes seen, the steady state performs **zero** heap allocations
//! (asserted by the alloc-regression tests in `ant-bench` via the
//! counting allocator).
//!
//! # Ownership rules (for machine authors)
//!
//! * The scratch is owned by the *worker* (thread or scheduler slot), never
//!   by a machine: machines receive `&mut SimScratch` per call.
//! * State may live for one image session and never across calls. What
//!   [`ConvSim::prepare_image`](crate::ConvSim::prepare_image) builds for
//!   the resident image (prefix-sum planes, anticipator group entries and
//!   range table) is read by the kernels of that one
//!   [`ImageSession`](crate::ImageSession), which borrows the scratch for
//!   its lifetime; the next session or pair call rebuilds it. Everything
//!   else must be fully re-initialized by the run that reads it
//!   (`clear()` + `extend`, `reset_zeroed`, `resize(_, 0)` — never assume
//!   prior contents).
//! * Results must not depend on the arena's history: a fresh arena and
//!   one reused across machines, shapes and sessions give bit-identical
//!   stats. The golden proptests in `ant-sim/tests` check this, and pin
//!   the useful-product counts to brute-force oracles.
//! * A machine that needs a new buffer adds a field here (grow-only, reused
//!   via `clear`), so all machines share one arena per worker.
//! * Callers that loop over pairs hold one arena. The plain
//!   [`ConvSim::simulate_conv_pair`](crate::ConvSim::simulate_conv_pair) and
//!   [`MatmulSim::simulate_matmul_pair`](crate::MatmulSim::simulate_matmul_pair)
//!   open a fresh one per call.

use ant_conv::rcp::NzCounterScratch;
use ant_core::AntScratch;

/// Per-worker scratch arena borrowed by an
/// [`ImageSession`](crate::ImageSession) and threaded through
/// [`MatmulSim::simulate_matmul_pair_scratch`](crate::MatmulSim::simulate_matmul_pair_scratch).
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// Anticipator working memory (entries, range tables, scan, output).
    pub ant: AntScratch,
    /// Prefix-sum planes for exact useful-product counting
    /// (SCNN+/DST/intersection conv paths).
    pub nz_counter: NzCounterScratch,
    /// Per-column non-zero counts for matmul outer products.
    pub col_nnz: Vec<u64>,
    /// Per-bank occupancy counts for accumulator-conflict modelling
    /// (ANT with [`crate::accum::AccumulatorBanks`] enabled).
    pub bank_counts: Vec<u32>,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
