//! Cycle-level simulator for outer-product sparse training accelerators.
//!
//! Models the four machines the paper evaluates (Section 6.1), under the
//! paper's stated assumptions — single-cycle SRAM, a five-cycle PE start-up
//! per matrix pair, an output accumulator that never stalls, and perfect
//! load balancing across PEs:
//!
//! * [`scnn::ScnnPlus`] — the SCNN-like outer-product baseline with the
//!   kernel matrix split across PEs ("SCNN+", Section 6.1). Executes the
//!   full cartesian product, RCPs included.
//! * [`ant::AntAccelerator`] — SCNN+ plus the ANT anticipation pipeline
//!   (ranges → FNIR scan → multiplier), skipping RCPs and their SRAM
//!   accesses.
//! * [`inner::DenseInnerProduct`] — a DaDianNao-like dense inner-product
//!   machine (no sparsity exploitation).
//! * [`inner::TensorDash`] — a TensorDash-like sparse inner-product machine
//!   exploiting *one-sided* sparsity with a bounded lookahead window.
//!
//! All machines produce the same [`stats::SimStats`] so speedup/energy
//! ratios (Figures 9–14, Section 7.7) compare like for like. Energy follows
//! the paper's operation-counter methodology (Section 6.3) via
//! [`energy::EnergyModel`].
//!
//! # Example
//!
//! ```
//! use ant_conv::ConvShape;
//! use ant_sim::{Accelerator, ConvSim, EnergyModel};
//! use ant_sim::scnn::ScnnPlus;
//! use ant_sim::ant::AntAccelerator;
//! use ant_sparse::{CsrMatrix, DenseMatrix};
//!
//! let shape = ConvShape::new(4, 4, 6, 6, 1)?;
//! let kernel = CsrMatrix::from_dense(&DenseMatrix::from_fn(4, 4, |r, c| {
//!     if (r + c) % 3 == 0 { 1.0 } else { 0.0 }
//! }));
//! let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(6, 6, |r, c| {
//!     if (r * c) % 2 == 0 { 1.0 } else { 0.0 }
//! }));
//! let scnn = ScnnPlus::paper_default();
//! let ant = AntAccelerator::paper_default();
//! let s = scnn.simulate_conv_pair(&kernel, &image, &shape);
//! let a = ant.simulate_conv_pair(&kernel, &image, &shape);
//! // ANT executes no more multiplications than SCNN+ and finds the same
//! // useful work.
//! assert!(a.mults <= s.mults);
//! assert_eq!(a.useful_mults, s.useful_mults);
//! let energy = EnergyModel::paper_7nm();
//! assert!(a.energy_pj(&energy) <= s.energy_pj(&energy));
//! # Ok::<(), ant_conv::ConvError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accelerator;
pub mod accum;
pub mod analytic;
pub mod ant;
pub mod breakdown;
pub mod cache;
pub mod chaos;
pub mod dst;
pub mod energy;
pub mod inner;
pub mod intersection;
pub mod partition;
pub mod redundancy;
pub mod schedule;
pub mod scnn;
pub mod scratch;
pub mod stats;
pub mod tiling;

pub use accelerator::{
    validate_conv_pair, validate_matmul_pair, Accelerator, ConvSim, ImageSession, MatmulSim,
};
pub use ant_core::AntError;
pub use breakdown::{CycleBreakdown, CycleCause};
pub use cache::{CacheKey, LayerCache, MODEL_VERSION};
pub use chaos::{ChaosConfig, Fault, IoDomain, IoFault, ServiceFault};
pub use energy::EnergyModel;
pub use redundancy::RedundancyRecord;
pub use scratch::{with_thread_scratch, SimScratch};
pub use stats::{EnergyBreakdown, SimStats, Throughput};
