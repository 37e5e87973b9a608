//! Single-kernel timings on a workload's own operands: the `sparse`,
//! `core`, and `fingerprint` layers the simulator and the cache lean on.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ant_bench::fingerprint::KeyBuilder;
use ant_conv::rcp::IndexRange;
use ant_core::fnir::Fnir;
use ant_core::range::GroupRanges;
use ant_core::scan::{scan_kernel_into, KernelScan};
use ant_sparse::{Bitmask, CsrMatrix};
use ant_workloads::synth::SynthesizedLayer;

/// Time budget per kernel.
const BUDGET_MS: f64 = 40.0;

/// Median per-operation time of `op` over rounds that each apply it to
/// every input once, in nanoseconds.
fn per_op_ns<T>(inputs: &[T], mut op: impl FnMut(&T) -> u64) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || started.elapsed().as_secs_f64() * 1e3 < BUDGET_MS {
        let t = Instant::now();
        let mut sink = 0u64;
        for x in inputs {
            sink = sink.wrapping_add(op(black_box(x)));
        }
        black_box(sink);
        rounds.push(t.elapsed().as_nanos() as f64 / inputs.len() as f64);
        if rounds.len() >= 1000 {
            break;
        }
    }
    crate::report::median(&rounds)
}

/// Times each kernel over the planes of `layers` and returns the metrics.
pub fn time_kernels(layers: &[SynthesizedLayer]) -> BTreeMap<String, f64> {
    let dense: Vec<_> = layers
        .iter()
        .flat_map(|l| l.trace.activations.iter().chain(l.trace.grad_out.iter()))
        .cloned()
        .collect();
    let csr: Vec<CsrMatrix> = dense.iter().map(CsrMatrix::from_dense).collect();
    // Adjacent activation planes of one layer share a shape: the pairs a
    // pre-screen intersects.
    let mask_pairs: Vec<(Bitmask, Bitmask)> = layers
        .iter()
        .flat_map(|l| {
            l.trace
                .activations
                .windows(2)
                .map(|w| (Bitmask::from_dense(&w[0]), Bitmask::from_dense(&w[1])))
                .collect::<Vec<_>>()
        })
        .collect();
    // Gradient planes are the large kernels of the update phase, the
    // FNIR scan's heaviest input; scan them over their full index range.
    let kernels: Vec<CsrMatrix> = layers
        .iter()
        .flat_map(|l| l.trace.grad_out.iter().map(CsrMatrix::from_dense))
        .collect();
    let fnir = Fnir::new(4, 16).expect("non-zero FNIR parameters");
    let mut scan = KernelScan::default();

    let mut out = BTreeMap::new();
    out.insert(
        "sparse.csr_compress_us".to_string(),
        per_op_ns(&dense, |d| CsrMatrix::from_dense(d).nnz() as u64) / 1e3,
    );
    out.insert(
        "sparse.bitmask_and_count_ns".to_string(),
        per_op_ns(&mask_pairs, |(a, b)| a.and_count_ones(b) as u64),
    );
    out.insert(
        "core.fnir_scan_us".to_string(),
        per_op_ns(&kernels, |k| {
            let ranges = GroupRanges {
                r: IndexRange {
                    min: 0,
                    max: k.rows() as i64 - 1,
                },
                s: IndexRange {
                    min: 0,
                    max: k.cols() as i64 - 1,
                },
                ops: Default::default(),
            };
            scan_kernel_into(k, &ranges, &fnir, &mut scan);
            scan.value_reads + scan.cycles
        }) / 1e3,
    );
    out.insert(
        "fingerprint.plane_us".to_string(),
        per_op_ns(&csr, |m| {
            let mut key = KeyBuilder::default();
            key.write_csr(m);
            let key = key.finish();
            key.hi ^ key.lo
        }) / 1e3,
    );
    out
}
