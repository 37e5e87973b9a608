//! Cross-crate integration: simulator machines vs each other and vs the
//! analytical models, on real workload geometries.

use ant_bench::runner::{energy_ratio, simulate_network, speedup, ExperimentConfig};
use ant_conv::matmul::MatmulShape;
use ant_sim::ant::AntAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::scnn::ScnnPlus;
use ant_sim::{EnergyModel, MatmulSim};
use ant_workloads::models;
use ant_workloads::synth::{synthesize_matmul, LayerSparsity};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_cfg() -> ExperimentConfig {
    ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    }
}

/// ANT vs SCNN+ invariants on every paper network: identical useful work,
/// strictly fewer executed multiplications, wall-clock and energy wins at
/// 90% sparsity.
#[test]
fn ant_dominates_scnn_on_all_networks() {
    let cfg = small_cfg();
    let energy = EnergyModel::paper_7nm();
    for net in models::figure9_networks() {
        let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        assert_eq!(a.total.useful_mults, s.total.useful_mults, "{}", net.name);
        assert!(a.total.mults < s.total.mults, "{}", net.name);
        assert!(speedup(&s, &a) > 1.0, "{}", net.name);
        assert!(energy_ratio(&s, &a, &energy) > 1.0, "{}", net.name);
        assert!(
            a.total.rcps_avoided_fraction() > 0.6,
            "{}: avoided {:.3}",
            net.name,
            a.total.rcps_avoided_fraction()
        );
    }
}

/// Section 7.7 ordering: ANT > TensorDash > dense inner product at 90%.
#[test]
fn machine_ordering_at_high_sparsity() {
    let cfg = small_cfg();
    let net = models::resnet18_cifar();
    let dense = simulate_network(&DenseInnerProduct::paper_default(), &net, &cfg);
    let td = simulate_network(&TensorDash::paper_default(), &net, &cfg);
    let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    assert!(td.wall_cycles < dense.wall_cycles);
    assert!(ant.wall_cycles < td.wall_cycles);
}

/// The update phase is where ANT's advantage concentrates.
#[test]
fn update_phase_carries_the_win() {
    let cfg = small_cfg();
    let net = models::wrn_16_8_cifar();
    let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
    let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    let phase = |r: &ant_bench::NetworkResult, p| {
        r.per_phase
            .iter()
            .find(|(q, _)| *q == p)
            .expect("phase present")
            .1
    };
    use ant_conv::efficiency::TrainingPhase::*;
    let upd_saving = phase(&s, Update).mults as f64 / phase(&a, Update).mults.max(1) as f64;
    let fwd_saving = phase(&s, Forward).mults as f64 / phase(&a, Forward).mults.max(1) as f64;
    assert!(
        upd_saving > 2.0 * fwd_saving,
        "update saving {upd_saving:.2} vs forward {fwd_saving:.2}"
    );
}

/// Multi-PE wall-clock: 64 PEs are ~64x faster than 1 PE under perfect load
/// balancing.
#[test]
fn perfect_load_balance_scaling() {
    let net = models::NetworkModel {
        name: "one layer",
        layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 4, 3, 16, 1, 1, 1)],
    };
    let cfg = |num_pes| ExperimentConfig {
        num_pes,
        max_channels: 4,
        sparsity: LayerSparsity::uniform(0.8),
        ..ExperimentConfig::paper_default()
    };
    let one = simulate_network(&ScnnPlus::paper_default(), &net, &cfg(1));
    let many = simulate_network(&ScnnPlus::paper_default(), &net, &cfg(64));
    assert_eq!(one.total, many.total);
    assert_eq!(one.wall_cycles, one.total.total_cycles());
    assert_eq!(many.wall_cycles, one.total.total_cycles().div_ceil(64));
    assert!(many.wall_cycles * 60 < one.wall_cycles);
}

/// Matmul machines agree on useful work across the Table 3 geometries.
#[test]
fn matmul_machines_agree_on_useful_work() {
    for spec in models::transformer_matmuls()
        .into_iter()
        .chain(models::rnn_matmuls())
    {
        let shape: MatmulShape = spec.shape();
        let mut rng = StdRng::seed_from_u64(17);
        let (image, kernel) = synthesize_matmul(&shape, 0.9, 0.9, &mut rng);
        let s = ScnnPlus::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        let a = AntAccelerator::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        assert_eq!(s.useful_mults, a.useful_mults, "{}", spec.name);
        assert!(a.mults <= s.mults, "{}", spec.name);
        assert!(
            a.rcps_avoided_fraction() > 0.95,
            "{}: {:.4}",
            spec.name,
            a.rcps_avoided_fraction()
        );
    }
}

/// Energy accounting is consistent: ANT saves SRAM traffic as well as
/// multiplications (the Fig. 7 mechanism).
#[test]
fn ant_saves_sram_traffic() {
    let cfg = small_cfg();
    let net = models::resnet18_cifar();
    let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
    let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    assert!(a.total.kernel_value_reads < s.total.kernel_value_reads);
    assert!(a.total.sram_reads() < s.total.sram_reads());
}

/// The accumulator-bank observer sees exactly the useful products: summing
/// per-cycle output counts equals the useful multiplication counter, and a
/// 1-bank accumulator's stall cycles equal `useful - mult_cycles_with_work`.
#[test]
fn observer_accounts_for_every_useful_product() {
    use ant_core::anticipator::{AntConfig, AntScratch, Anticipator};
    use ant_sim::accum::AccumulatorBanks;
    let shape = ant_conv::ConvShape::new(8, 8, 12, 12, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let kernel = ant_sparse::CsrMatrix::from_dense(&ant_sparse::sparsify::random_with_sparsity(
        8, 8, 0.6, &mut rng,
    ));
    let image = ant_sparse::CsrMatrix::from_dense(&ant_sparse::sparsify::random_with_sparsity(
        12, 12, 0.6, &mut rng,
    ));
    let ant = Anticipator::new(AntConfig::paper_default());
    let mut seen = 0u64;
    let mut cycles_with_work = 0u64;
    let banks = AccumulatorBanks::new(1);
    let mut serialized = 0u64;
    let mut scratch = AntScratch::new();
    ant.prepare_conv_image(&image, &shape, &mut scratch)
        .unwrap();
    let counters = ant
        .scan_conv_kernel(&kernel, &shape, &mut scratch, |outputs| {
            seen += outputs.len() as u64;
            if !outputs.is_empty() {
                cycles_with_work += 1;
            }
            serialized += banks.conflict_cycles(outputs);
        })
        .unwrap();
    assert_eq!(seen, counters.useful);
    // One bank serializes everything: conflicts = useful - productive cycles.
    assert_eq!(serialized, seen - cycles_with_work);
}

/// Determinism: the same config and seed reproduce identical results across
/// machines and runs.
#[test]
fn experiments_are_reproducible() {
    let cfg = small_cfg();
    let net = models::vgg16_cifar();
    let a1 = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    let a2 = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    assert_eq!(a1.total, a2.total);
    assert_eq!(a1.wall_cycles, a2.wall_cycles);
}

/// Golden numbers: a pinned mini-experiment guards the whole pipeline
/// (synthesis -> pair decomposition -> machines) against silent behavioural
/// drift. StdRng (the workspace's deterministic xoshiro256** stand-in) is
/// stable across platforms, so these counters are exact.
#[test]
fn golden_mini_experiment() {
    let cfg = ExperimentConfig {
        sparsity: LayerSparsity::uniform(0.9),
        max_channels: 2,
        num_pes: 64,
        seed: 0xA17,
    };
    let net = ant_workloads::NetworkModel {
        name: "golden",
        layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 4, 3, 16, 1, 1, 1)],
    };
    let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
    let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    // Useful work is identical by construction; pin it plus each machine's
    // executed multiplications.
    assert_eq!(s.total.useful_mults, a.total.useful_mults);
    let golden = (s.total.mults, a.total.mults, s.total.useful_mults);
    assert_eq!(
        golden,
        (11648, 3352, 1148),
        "pipeline behaviour drifted: got {golden:?}"
    );
}
