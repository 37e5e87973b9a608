//! The two cold grid workloads: `fig09-cold` and `grid-cold`.
//!
//! A *runner call* simulates one network on one machine at one
//! configuration through `try_simulate_network_parallel`; a workload
//! iteration makes every call of its plan once (plus, on `grid-cold`, the
//! serial matmul path). The untraced run repeats iterations for the
//! measured time. The traced run first makes one multi-worker reference
//! iteration, then repeats traced iterations in which each runner call is
//! replayed single-threaded through the public stage functions and then
//! made again with one worker.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use ant_bench::runner::{
    energy_ratio, simulate_matmul_layers, speedup, try_simulate_network_parallel, ExperimentConfig,
    NetworkResult, RunOptions,
};
use ant_bench::serve::JobSpec;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, CycleCause, EnergyModel, MatmulSim, SimScratch, SimStats};
use ant_workloads::models::{self, MatmulLayerSpec, NetworkModel};
use ant_workloads::synth::{synthesize_layer, LayerSparsity, SynthesizedLayer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, percentile, Outcome, MACHINE_KEYS};
use crate::spans::Spans;

/// The paper's Fig. 9 geomeans, the only reference the model has.
pub const PAPER_SPEEDUP: f64 = 3.71;
pub const PAPER_ENERGY: f64 = 4.40;

/// Sweepd registry names of the six machines, in [`MACHINE_KEYS`] order.
const REGISTRY: [&str; 6] = ["scnn+", "ant", "dadiannao", "tensordash", "gospa", "dst"];
/// Replay span per machine, in [`MACHINE_KEYS`] order.
const SIM_SPANS: [&str; 6] = [
    "sim.pair.scnn_plus",
    "sim.pair.ant",
    "sim.pair.dadiannao",
    "sim.pair.tensordash",
    "sim.pair.gospa",
    "sim.pair.dst",
];

type Machine = Box<dyn ConvSim + Send + Sync>;

struct Call {
    net: usize,
    /// Index into [`MACHINE_KEYS`] (and the plan's machine list).
    machine: usize,
    cfg: ExperimentConfig,
}

struct MatmulCall {
    specs: Vec<MatmulLayerSpec>,
    ant: bool,
    sparsity: f64,
    seed: u64,
}

/// Everything one grid workload runs, generated from its seed.
pub struct Plan {
    pub channel_sample: usize,
    fig09: bool,
    networks: Vec<NetworkModel>,
    machines: Vec<Machine>,
    calls: Vec<Call>,
    matmuls: Vec<MatmulCall>,
    ant: AntAccelerator,
    scnn: ScnnPlus,
}

fn machine(key_index: usize) -> Machine {
    JobSpec::build_machine(REGISTRY[key_index]).expect("registry machine")
}

impl Plan {
    /// `fig09-cold`: the five Fig. 9 networks on SCNN+ and ANT at 90%
    /// uniform sparsity, channel sample 16, 64 PEs.
    pub fn fig09(seed: u64, tiny: bool) -> Plan {
        let mut networks = models::figure9_networks();
        let channel_sample = if tiny { 2 } else { 16 };
        if tiny {
            networks.iter_mut().for_each(|n| n.layers.truncate(2));
        }
        let cfg = ExperimentConfig {
            sparsity: LayerSparsity::uniform(0.9),
            max_channels: channel_sample,
            num_pes: 64,
            seed,
        };
        let calls = (0..networks.len())
            .flat_map(|net| (0..2).map(move |machine| Call { net, machine, cfg }))
            .collect();
        Plan {
            channel_sample,
            fig09: true,
            networks,
            machines: vec![machine(0), machine(1)],
            calls,
            matmuls: Vec::new(),
            ant: AntAccelerator::paper_default(),
            scnn: ScnnPlus::paper_default(),
        }
    }

    /// `grid-cold`: ResNet18, VGG16, WRN-16-8 x six machines x four
    /// sparsities at channel sample 8, plus the transformer and RNN matmul
    /// layers on ANT and SCNN+ at the same sparsities.
    pub fn grid(seed: u64, tiny: bool) -> Plan {
        let mut networks = vec![
            models::resnet18_cifar(),
            models::vgg16_cifar(),
            models::wrn_16_8_cifar(),
        ];
        let channel_sample = if tiny { 2 } else { 8 };
        let sparsities = [0.5, 0.8, 0.95, 0.99];
        if tiny {
            networks.iter_mut().for_each(|n| n.layers.truncate(2));
        }
        let mut calls = Vec::new();
        for net in 0..networks.len() {
            for &s in &sparsities {
                let cfg = ExperimentConfig {
                    sparsity: LayerSparsity::uniform(s),
                    max_channels: channel_sample,
                    num_pes: 64,
                    seed,
                };
                calls.extend((0..6).map(|machine| Call { net, machine, cfg }));
            }
        }
        let mut matmuls = Vec::new();
        for specs in [models::transformer_matmuls(), models::rnn_matmuls()] {
            let specs = if tiny { specs[..1].to_vec() } else { specs };
            for &sparsity in &sparsities {
                for ant in [true, false] {
                    matmuls.push(MatmulCall {
                        specs: specs.clone(),
                        ant,
                        sparsity,
                        seed: seed ^ 0x5ec78,
                    });
                }
            }
        }
        Plan {
            channel_sample,
            fig09: false,
            networks,
            machines: (0..6).map(machine).collect(),
            calls,
            matmuls,
            ant: AntAccelerator::paper_default(),
            scnn: ScnnPlus::paper_default(),
        }
    }

    /// Sampled pair jobs one call dispatches (three phases per layer).
    fn call_pairs(&self, call: &Call) -> u64 {
        let mc = call.cfg.max_channels;
        self.networks[call.net]
            .layers
            .iter()
            .map(|l| 3 * (l.out_channels.min(mc) * l.in_channels.min(mc)) as u64)
            .sum()
    }

    fn run_call(
        &self,
        call: &Call,
        threads: usize,
        telemetry: bool,
    ) -> Result<NetworkResult, String> {
        let opts = RunOptions {
            threads: Some(threads),
            telemetry: Some(telemetry),
            progress: Some(false),
            ..RunOptions::default()
        };
        try_simulate_network_parallel(
            self.machines[call.machine].as_ref(),
            &self.networks[call.net],
            &call.cfg,
            &opts,
        )
        .map_err(|e| e.to_string())
    }

    fn run_matmul(&self, m: &MatmulCall) -> SimStats {
        let pe: &dyn MatmulSim = if m.ant { &self.ant } else { &self.scnn };
        simulate_matmul_layers(pe, &m.specs, m.sparsity, m.seed)
    }

    fn label(&self, call: &Call) -> String {
        format!(
            "{}/{}@{}",
            self.networks[call.net].name, MACHINE_KEYS[call.machine], call.cfg.sparsity.weight
        )
    }

    /// Layers of the first network at the first configuration, for the
    /// single-kernel timings.
    pub fn sample_layers(&self) -> Vec<SynthesizedLayer> {
        let cfg = self.calls[0].cfg;
        self.networks[0]
            .layers
            .iter()
            .enumerate()
            .take(6)
            .map(|(li, layer)| {
                let mut rng = layer_rng(&cfg, li);
                synthesize_layer(layer, &cfg.sparsity, cfg.max_channels, &mut rng)
            })
            .collect()
    }
}

/// The runner's per-layer RNG: seeded from the config seed and the layer
/// index alone. The replay must mirror it; the replay-equals-runner check
/// catches any drift.
fn layer_rng(cfg: &ExperimentConfig, layer_index: usize) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ (layer_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The runner's sampled-to-full-layer accounting: start-up clamped to five
/// cycles per distinct resident image, then channel and multiplicity
/// scaling.
fn finalize(mut raw: SimStats, distinct_images: u64, scale: f64) -> SimStats {
    raw.startup_cycles = raw
        .startup_cycles
        .min(ant_sim::accelerator::STARTUP_CYCLES * distinct_images);
    raw.cycles.startup = raw.startup_cycles;
    raw.scaled_f64(scale)
}

/// Per-iteration counters the replay gathers beside its spans.
#[derive(Default)]
struct ReplayCounters {
    pairs_materialized: u64,
    materialized_bytes: u64,
    sim_pairs: [u64; 6],
    sim_cycles: [u64; 6],
}

fn csr_bytes(m: &ant_sparse::CsrMatrix) -> u64 {
    (m.row_ptr().len() * 8 + m.col_idx().len() * 8 + m.values().len() * 4) as u64
}

/// Replays one runner call single-threaded through the public stage
/// functions: operand synthesis, pair materialization, pair simulation,
/// and the runner's finalize accounting. Returns the network total.
fn replay(
    s: &mut Spans,
    pe: &dyn ConvSim,
    key: usize,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    scratch: &mut SimScratch,
    acc: &mut ReplayCounters,
) -> Result<SimStats, String> {
    let mut total = SimStats::default();
    for (li, layer) in net.layers.iter().enumerate() {
        let mut rng = layer_rng(cfg, li);
        let synth = s.time("workloads.synthesize_layer", |_| {
            synthesize_layer(layer, &cfg.sparsity, cfg.max_channels, &mut rng)
        });
        let trace = &synth.trace;
        let (in_images, out_images) = (trace.in_channels() as u64, trace.out_channels() as u64);
        let phases = s
            .time(
                "nn.materialize_pairs",
                |_| -> Result<_, ant_conv::ConvError> {
                    Ok([
                        (trace.forward_pairs()?, in_images),
                        (trace.backward_pairs()?, out_images),
                        (trace.update_pairs()?, in_images),
                    ])
                },
            )
            .map_err(|e| e.to_string())?;
        let scale = synth.channel_scale * layer.count as f64;
        for (pairs, distinct) in &phases {
            acc.pairs_materialized += pairs.len() as u64;
            acc.materialized_bytes += pairs
                .iter()
                .map(|p| csr_bytes(&p.kernel) + csr_bytes(&p.image))
                .sum::<u64>();
            let raw = s.time(SIM_SPANS[key], |_| -> Result<SimStats, String> {
                let mut raw = SimStats::default();
                for p in pairs {
                    let stats = pe
                        .try_simulate_conv_pair(&p.kernel, &p.image, &p.shape, scratch)
                        .map_err(|e| e.to_string())?;
                    raw.accumulate(&stats);
                }
                Ok(raw)
            })?;
            acc.sim_pairs[key] += pairs.len() as u64;
            acc.sim_cycles[key] += raw.total_cycles();
            total.accumulate(&finalize(raw, *distinct, scale));
        }
    }
    Ok(total)
}

/// Whether every counter set of a result keeps the cycle-attribution
/// invariant `cycles.total() == total_cycles()`.
fn attributed(r: &NetworkResult) -> bool {
    r.total.cycles_attributed()
        && r.per_phase.iter().all(|(_, s)| s.cycles_attributed())
        && r.per_layer.iter().all(|l| {
            l.stats.cycles_attributed() && l.phases.iter().all(SimStats::cycles_attributed)
        })
}

/// Whether two results carry byte-identical simulated counters.
pub fn same_stats(a: &NetworkResult, b: &NetworkResult) -> bool {
    a.total == b.total
        && a.wall_cycles == b.wall_cycles
        && a.per_phase
            .iter()
            .zip(&b.per_phase)
            .all(|(x, y)| x.1 == y.1)
        && a.per_layer.len() == b.per_layer.len()
        && a.per_layer
            .iter()
            .zip(&b.per_layer)
            .all(|(x, y)| x.stats == y.stats && x.phases == y.phases)
}

/// Output checks on one runner result.
pub fn check_result(out: &mut Outcome, label: &str, r: &NetworkResult) {
    out.check(!r.partial && r.failures.is_clean(), || {
        format!(
            "{label}: partial result ({} quarantined pairs)",
            r.failures.failures.len()
        )
    });
    out.check(attributed(r), || {
        format!("{label}: cycles.total() != total_cycles()")
    });
}

/// One iteration's results: every runner call, then every matmul call.
struct Iteration {
    results: Vec<NetworkResult>,
    matmul: Vec<SimStats>,
    call_ms: Vec<f64>,
    wall: Duration,
}

fn iterate(plan: &Plan, out: &mut Outcome, threads: usize, telemetry: bool) -> Option<Iteration> {
    let started = Instant::now();
    let mut it = Iteration {
        results: Vec::with_capacity(plan.calls.len()),
        matmul: Vec::with_capacity(plan.matmuls.len()),
        call_ms: Vec::new(),
        wall: Duration::ZERO,
    };
    for call in &plan.calls {
        let t = Instant::now();
        let result = plan.run_call(call, threads, telemetry);
        it.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += plan.call_pairs(call);
        match result {
            Ok(r) => {
                out.failed += r.failures.failures.len() as u64;
                check_result(out, &plan.label(call), &r);
                it.results.push(r);
            }
            Err(e) => {
                out.failed += plan.call_pairs(call);
                out.check(false, || format!("{}: {e}", plan.label(call)));
                return None;
            }
        }
    }
    for m in &plan.matmuls {
        let t = Instant::now();
        let stats = plan.run_matmul(m);
        it.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += m.specs.len() as u64;
        out.check(stats.cycles_attributed(), || {
            format!("matmul@{}: cycles.total() != total_cycles()", m.sparsity)
        });
        it.matmul.push(stats);
    }
    it.wall = started.elapsed();
    Some(it)
}

fn same_iteration(a: &Iteration, b: &Iteration) -> bool {
    a.results.len() == b.results.len()
        && a.results
            .iter()
            .zip(&b.results)
            .all(|(x, y)| same_stats(x, y))
        && a.matmul == b.matmul
}

/// One untimed iteration on a single inline worker, for a peak-memory
/// probe in a fresh process: with no worker threads every allocation comes
/// from one allocator arena, so the peak reflects what the program holds
/// rather than how threads happened to spread it over arenas. Returns
/// whether the iteration ran clean.
pub fn run_once(plan: &Plan) -> bool {
    let mut out = Outcome::default();
    iterate(plan, &mut out, 1, false).is_some() && out.check_failures.is_empty()
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(plan: &Plan, seconds: f64, out: &mut Outcome) {
    let threads = crate::prov::nproc();
    let started = Instant::now();
    let mut first: Option<Iteration> = None;
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut calls = 0usize;
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let Some(it) = iterate(plan, out, threads, false) else {
            return;
        };
        walls.push(it.wall.as_secs_f64());
        latencies.extend_from_slice(&it.call_ms);
        calls += it.call_ms.len();
        match &first {
            None => first = Some(it),
            Some(f) => out.check(same_iteration(f, &it), || {
                "results differ between iterations of one seed".to_string()
            }),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(f) = &first {
        print_accuracy(plan, f);
    }
    let m = &mut out.metrics;
    m.insert("wall_s".into(), median(&walls));
    m.insert("job_latency_p50_ms".into(), percentile(&latencies, 50.0));
    m.insert("job_latency_p90_ms".into(), percentile(&latencies, 90.0));
    m.insert("jobs_per_s".into(), calls as f64 / elapsed);
    println!(
        "samples: {} iterations (wall q1 {:.4} s, median {:.4} s, q3 {:.4} s), {} runner calls \
         (job = one runner call)",
        walls.len(),
        percentile(&walls, 25.0),
        median(&walls),
        percentile(&walls, 75.0),
        latencies.len()
    );
}

/// Fig. 9 geomeans from one iteration's results (SCNN+, ANT per network).
fn fig09_geomeans(plan: &Plan, it: &Iteration) -> (f64, f64) {
    let energy = EnergyModel::paper_7nm();
    let (mut sp, mut er) = (Vec::new(), Vec::new());
    for pair in it.results.chunks(2) {
        sp.push(speedup(&pair[0], &pair[1]));
        er.push(energy_ratio(&pair[0], &pair[1], &energy));
    }
    debug_assert!(plan.fig09);
    (
        ant_bench::report::geomean(&sp),
        ant_bench::report::geomean(&er),
    )
}

fn print_accuracy(plan: &Plan, it: &Iteration) {
    if !plan.fig09 {
        return;
    }
    let (sp, er) = fig09_geomeans(plan, it);
    println!(
        "accuracy (channel sample {}): geomean speedup {sp:.3}x vs paper {PAPER_SPEEDUP}x ({:+.1}%), \
         geomean energy reduction {er:.3}x vs paper {PAPER_ENERGY}x ({:+.1}%); the only reference \
         is the paper's published figure, so the model is unvalidated against hardware",
        plan.channel_sample,
        (sp / PAPER_SPEEDUP - 1.0) * 100.0,
        (er / PAPER_ENERGY - 1.0) * 100.0,
    );
}

/// The traced run: per-layer metrics from benchmark-owned spans.
pub fn run_traced(plan: &Plan, seconds: f64, out: &mut Outcome, spans: &mut Spans) {
    let threads = crate::prov::nproc();
    let started = Instant::now();
    let reference_span = spans.open("reference");
    let reference = iterate(plan, out, threads, true);
    spans.close(reference_span);
    let Some(reference) = reference else { return };
    print_accuracy(plan, &reference);

    let mut iterations: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut scratch = SimScratch::new();
    while iterations.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let root = spans.open("iteration");
        let mut acc = ReplayCounters::default();
        for (ci, call) in plan.calls.iter().enumerate() {
            let label = plan.label(call);
            let pe = plan.machines[call.machine].as_ref();
            let net = &plan.networks[call.net];
            let replayed = spans.time("replay", |s| {
                replay(s, pe, call.machine, net, &call.cfg, &mut scratch, &mut acc)
            });
            let single = spans.time("runner", |_| plan.run_call(call, 1, false));
            match (replayed, single) {
                (Ok(total), Ok(single)) => {
                    check_result(out, &label, &single);
                    out.check(same_stats(&single, &reference.results[ci]), || {
                        format!("{label}: 1-worker stats differ from the {threads}-worker run")
                    });
                    out.check(total == single.total, || {
                        format!("{label}: stage replay disagrees with the runner")
                    });
                }
                (Err(e), _) | (_, Err(e)) => out.check(false, || format!("{label}: {e}")),
            }
        }
        for (mi, m) in plan.matmuls.iter().enumerate() {
            let stats = spans.time("sim.matmul", |_| plan.run_matmul(m));
            out.check(stats == reference.matmul[mi], || {
                format!("matmul@{}: stats differ between runs", m.sparsity)
            });
        }
        spans.close(root);
        iterations.push(iteration_metrics(spans, root, &acc, plan));
        if !out.check_failures.is_empty() {
            break;
        }
    }
    let mut metrics = crate::report::median_maps(&iterations);
    let reference_s = reference.wall.as_secs_f64();
    let traced_s = metrics.remove("iteration_s").unwrap_or(0.0);
    metrics.insert(
        "harness.trace_overhead_frac".into(),
        traced_s / reference_s - 1.0,
    );
    metrics.extend(reference_metrics(plan, &reference));
    metrics.extend(crate::kernels::time_kernels(&plan.sample_layers()));
    out.metrics.extend(metrics);
    println!("samples: {} traced iterations", iterations.len());
}

/// Per-layer metrics of one traced iteration, from its spans and counters.
fn iteration_metrics(
    spans: &Spans,
    root: usize,
    acc: &ReplayCounters,
    plan: &Plan,
) -> BTreeMap<String, f64> {
    let times = spans.layer_times(Some(root));
    let busy = |name: &str| times.get(name).map_or(0.0, |t| t.busy_ms());
    let mut m = BTreeMap::new();
    let synth_ms = busy("workloads.synthesize_layer");
    let materialize_ms = busy("nn.materialize_pairs");
    let pair_ms: f64 = SIM_SPANS.iter().map(|s| busy(s)).sum();
    let runner_ms = busy("runner");
    let synth_calls = times
        .get("workloads.synthesize_layer")
        .map_or(0, |t| t.count);
    let distinct: BTreeSet<(usize, usize, u64, u64)> = plan
        .calls
        .iter()
        .flat_map(|c| {
            (0..plan.networks[c.net].layers.len())
                .map(move |li| (c.net, li, c.cfg.sparsity.weight.to_bits(), c.cfg.seed))
        })
        .collect();
    let pairs: u64 = acc.sim_pairs.iter().sum();
    m.insert("iteration_s".into(), busy("iteration") / 1e3);
    m.insert("workloads.synth_ms".into(), synth_ms);
    m.insert("workloads.synth_calls".into(), synth_calls as f64);
    m.insert(
        "workloads.synth_distinct_frac".into(),
        distinct.len() as f64 / synth_calls.max(1) as f64,
    );
    m.insert("nn.materialize_ms".into(), materialize_ms);
    m.insert(
        "nn.pairs_materialized".into(),
        acc.pairs_materialized as f64,
    );
    m.insert(
        "nn.materialized_mb".into(),
        acc.materialized_bytes as f64 / 1e6,
    );
    for (k, key) in MACHINE_KEYS.iter().enumerate() {
        let ns = busy(SIM_SPANS[k]) * 1e6;
        let per_pair = if acc.sim_pairs[k] > 0 {
            ns / acc.sim_pairs[k] as f64
        } else {
            0.0
        };
        m.insert(format!("sim.{key}.pair_ns"), per_pair);
        if k < 2 {
            let per_cycle = if acc.sim_cycles[k] > 0 {
                ns / acc.sim_cycles[k] as f64
            } else {
                0.0
            };
            m.insert(format!("sim.{key}.host_ns_per_sim_cycle"), per_cycle);
        }
    }
    m.insert("sim.pairs".into(), pairs as f64);
    m.insert("sim.pair_ms".into(), pair_ms);
    m.insert("sim.matmul_ms".into(), busy("sim.matmul"));
    let runner_calls = times.get("runner").map_or(0, |t| t.count);
    let self_ms = runner_ms - synth_ms - materialize_ms - pair_ms;
    m.insert("runner.wall_ms".into(), runner_ms);
    m.insert("runner.calls".into(), runner_calls as f64);
    m.insert("runner.self_ms".into(), self_ms);
    m.insert(
        "runner.self_frac".into(),
        self_ms / runner_ms.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "runner.sim_pairs_per_s".into(),
        pairs as f64 / (runner_ms / 1e3).max(f64::MIN_POSITIVE),
    );
    m
}

/// Metrics of the multi-worker reference iteration: scheduler telemetry,
/// failure counts, and the model's own outputs (not gated).
fn reference_metrics(plan: &Plan, it: &Iteration) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let workers = it.results.iter().flat_map(|r| &r.workers);
    let (mut busy, mut wall, mut stolen, mut executed) = (0u64, 0u64, 0u64, 0u64);
    for w in workers {
        busy += w.busy_ns;
        wall += w.wall_ns;
        stolen += w.stolen;
        executed += w.executed;
    }
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.insert("runner.worker_utilization".into(), frac(busy, wall));
    m.insert("runner.steal_frac".into(), frac(stolen, executed));
    let retries: u64 = it.results.iter().map(|r| r.failures.retries).sum();
    let failures: usize = it.results.iter().map(|r| r.failures.failures.len()).sum();
    m.insert("runner.pair_retries".into(), retries as f64);
    m.insert("runner.pair_failures".into(), failures as f64);
    let analytic: u64 = it.results.iter().map(|r| r.analytic_pairs).sum();
    let pairs: u64 = plan.calls.iter().map(|c| plan.call_pairs(c)).sum();
    m.insert("sim.analytic_pair_frac".into(), frac(analytic, pairs));

    // Model output of the two Fig. 9 machines over every call they made.
    for (k, key) in ["scnn_plus", "ant"].iter().enumerate() {
        let mut total = SimStats::default();
        for (call, r) in plan.calls.iter().zip(&it.results) {
            if call.machine == k {
                total.accumulate(&r.total);
            }
        }
        for cause in CycleCause::ALL {
            m.insert(
                format!("sim.{key}.cycles_{}_frac", cause.name()),
                frac(total.cycles.get(cause), total.total_cycles()),
            );
        }
        if *key == "ant" {
            m.insert(
                "sim.ant.rcps_avoided_frac".into(),
                total.rcps_avoided_fraction(),
            );
        }
    }
    if plan.fig09 {
        let (sp, er) = fig09_geomeans(plan, it);
        m.insert("sim.fig09_geomean_speedup".into(), sp);
        m.insert("sim.fig09_geomean_energy_reduction".into(), er);
        m.insert(
            "sim.fig09_speedup_err_pct".into(),
            (sp / PAPER_SPEEDUP - 1.0) * 100.0,
        );
        m.insert(
            "sim.fig09_energy_err_pct".into(),
            (er / PAPER_ENERGY - 1.0) * 100.0,
        );
    }
    m
}
