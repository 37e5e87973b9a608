//! Drives network workloads through simulator machines.
//!
//! The decomposition mirrors the paper's methodology (Section 6): every conv
//! layer contributes its three training-phase convolutions (`W*A`, `W*G_A`,
//! `G_A*A`), each decomposed into per-channel-pair 2-D convolutions. Layers
//! are synthesized at the target sparsities with channel sampling
//! (`max_channels`), and the sampled counters are scaled linearly back to
//! the full layer (and by the layer's multiplicity).
//!
//! [`try_simulate_network_parallel`] is the one entry point experiments
//! use. [`simulate_network`] is the serial reference it is tested against.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ant_conv::efficiency::TrainingPhase;
use ant_conv::ConvShape;
use ant_nn::trace::ConvPair;
use ant_sim::cache::{CacheKey, MODEL_VERSION};
use ant_sim::chaos::{self, ChaosConfig, Fault};
use ant_sim::{validate_conv_pair, AntError, ConvSim, ImageSession, SimScratch, SimStats};
use ant_sparse::CsrMatrix;
use ant_workloads::models::NetworkModel;
use ant_workloads::synth::{synthesize_layer, LayerSparsity};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fingerprint::{Fingerprint, KeyBuilder};
use crate::simcache;

/// Configuration of one network-level experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Target sparsities for W / A / G_A.
    pub sparsity: LayerSparsity,
    /// Maximum output/input channels materialized per layer (counters scale
    /// back linearly; see DESIGN.md "Sampling").
    pub max_channels: usize,
    /// PE count for wall-clock division (paper Table 4: 64).
    pub num_pes: usize,
    /// Base RNG seed; per-layer seeds derive deterministically.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's default setting: 90% uniform sparsity, 64 PEs, and a
    /// 4-channel sample per layer side.
    pub fn paper_default() -> Self {
        Self {
            sparsity: LayerSparsity::uniform(0.9),
            max_channels: 4,
            num_pes: 64,
            seed: 0xA17,
        }
    }
}

/// Tuning knobs for [`try_simulate_network_parallel`]. `Default` sizes the
/// pool to the available CPUs and takes the pair wall budget from the
/// `ANT_PAIR_BUDGET_US` environment variable (unset = no watchdog).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Worker count. `None` (or `Some(0)`) sizes to the available CPUs;
    /// a resolved count of 1 runs inline with no thread spawns unless the
    /// watchdog or live progress needs a thread of its own.
    pub threads: Option<usize>,
    /// Wall-clock budget per pair job, in microseconds. When set, a
    /// watchdog thread flags in-flight jobs exceeding it (they are *not*
    /// killed — simulation jobs hold no cancellable resources) and
    /// completed over-budget jobs are reported in
    /// [`FailureReport::slow`]. `None` falls back to `ANT_PAIR_BUDGET_US`.
    pub pair_budget_us: Option<u64>,
    /// Per-worker scheduler telemetry (busy/idle timing, steal and deque
    /// counters surfaced as `runner.worker.*` metrics and
    /// [`NetworkResult::workers`]). `None` falls back to `ANT_TELEMETRY`.
    /// The flag is resolved **once per run** into a plain bool captured by
    /// the worker closures, so the disabled path costs zero atomic
    /// operations per pair job — telemetry never perturbs the
    /// steady-state-allocation or bit-identity gates.
    pub telemetry: Option<bool>,
    /// Live run-status reporting ([`ant_obs::StatusReporter`]): layers and
    /// pairs completed, throughput, ETA, quarantine/watchdog counts, as
    /// rate-limited stderr lines plus an atomically-rewritten JSON file.
    /// `None` falls back to `ANT_PROGRESS` (file path from
    /// `ANT_PROGRESS_FILE`). Like `telemetry`, resolved once per run;
    /// status snapshots read shared counters that are only ever *written*
    /// when reporting is on.
    pub progress: Option<bool>,
    /// Wall-clock budget for the *whole run*, in microseconds from run
    /// start — the job-level generalization of `pair_budget_us` used by the
    /// sweepd deadline scheduler. Once exceeded, workers cancel at the next
    /// pair boundary: remaining pairs are skipped (counted in
    /// [`FailureReport::deadline_skipped`]), the affected layers are left
    /// out of the layer cache (a rerun re-simulates exactly them), and the
    /// result is flagged
    /// [`NetworkResult::deadline_exceeded`] + partial. `None` (the
    /// default) never cancels.
    pub deadline_us: Option<u64>,
}

/// One quarantined pair job: the job failed its first attempt and its
/// retry, so its counters are missing from the run.
#[derive(Debug, Clone)]
pub struct PairFailure {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Source layer name.
    pub layer: String,
    /// Which training-phase convolution the pair belonged to.
    pub phase: TrainingPhase,
    /// Pair index within the phase.
    pub pair: usize,
    /// Machine that was simulating the pair.
    pub machine: &'static str,
    /// The error from the final (retry) attempt.
    pub error: AntError,
    /// Total attempts made before quarantining (currently always 2: the
    /// first attempt plus one retry).
    pub attempts: u32,
}

/// A pair job whose first attempt failed but whose retry succeeded — the
/// per-pair detail behind the `runner.pair_retries` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRetry {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Phase index (0 = forward, 1 = backward, 2 = update).
    pub phase: usize,
    /// Pair index within the phase.
    pub pair: usize,
    /// Total attempts made (currently always 2).
    pub attempts: u32,
}

/// A pair job that completed but exceeded the configured wall budget.
#[derive(Debug, Clone, Copy)]
pub struct SlowJob {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Phase index (0 = forward, 1 = backward, 2 = update).
    pub phase: usize,
    /// Pair index within the phase.
    pub pair: usize,
    /// Observed wall time, in microseconds.
    pub wall_us: u64,
}

/// Everything that went wrong (or was merely slow) during one network run.
/// Deterministically ordered by `(layer, phase, pair)` regardless of worker
/// count or steal order.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Quarantined pair jobs (failed twice; counters missing from stats).
    pub failures: Vec<PairFailure>,
    /// Completed jobs that exceeded the watchdog's wall budget.
    pub slow: Vec<SlowJob>,
    /// Pairs whose first attempt failed but whose retry succeeded, in
    /// deterministic `(layer, phase, pair)` order — the per-pair detail the
    /// `runner.pair_retries` counter alone loses.
    pub retried: Vec<PairRetry>,
    /// First-attempt failures that triggered a retry (including those whose
    /// retry then also failed): `retried.len() + failures.len()` as a `u64`.
    pub retries: u64,
    /// Pairs skipped because the run exceeded its
    /// [`RunOptions::deadline_us`] budget; their layers are re-simulated by
    /// a rerun.
    pub deadline_skipped: u64,
}

impl FailureReport {
    /// Whether the run completed with no quarantined jobs.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Per-worker scheduler telemetry from one parallel run, collected when
/// [`RunOptions::telemetry`] (or `ANT_TELEMETRY`) is on. Everything here is
/// host-side bookkeeping — the simulated counters are untouched, so a run
/// with telemetry on is byte-identical to one with it off.
#[derive(Debug, Clone, Default)]
pub struct WorkerTelemetry {
    /// Worker index (0-based, dense).
    pub worker: usize,
    /// Image jobs this worker completed (own deque + stolen). A job is
    /// one resident image of one (layer, phase) with the kernels that
    /// stream past it.
    pub executed: u64,
    /// Jobs this worker stole from other workers' deques.
    pub stolen: u64,
    /// Steal probes issued (a probe locks one victim deque and tries a
    /// back-pop).
    pub steal_attempts: u64,
    /// Steal probes that found the victim's deque empty.
    pub failed_steals: u64,
    /// Jobs dealt to this worker's deque up front. Jobs are never pushed
    /// after dealing, so this is also the deque's high-water mark.
    pub dealt: u64,
    /// Nanoseconds spent executing jobs (including retries).
    pub busy_ns: u64,
    /// Nanoseconds alive but not executing jobs: scheduling overhead, lock
    /// waits, and the tail wait after the pool drains.
    pub idle_ns: u64,
    /// Total wall nanoseconds from worker start to exit.
    pub wall_ns: u64,
    /// Per-job wall-time slices, recorded only when `ANT_PROFILE` is also
    /// on (they feed the Perfetto host-worker tracks); empty otherwise.
    pub slices: Vec<JobSlice>,
}

impl WorkerTelemetry {
    /// Busy fraction of this worker's wall time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// One executed image job's host wall-time extent, for the Perfetto
/// host-worker tracks (timestamps are microseconds since the run started).
#[derive(Debug, Clone, Copy)]
pub struct JobSlice {
    /// Job start, µs since run start.
    pub start_us: u64,
    /// Job wall duration in µs.
    pub dur_us: u64,
    /// Index of the source layer in the network spec.
    pub layer: usize,
    /// Phase index (0 = forward, 1 = backward, 2 = update).
    pub phase: usize,
    /// Index of the job's first pair within the phase.
    pub pair: usize,
    /// Whether the job was stolen from another worker's deque.
    pub stolen: bool,
    /// The worker's own deque length right after this job was claimed.
    pub deque_len: u64,
}

/// Aggregated result of simulating one network on one machine.
#[derive(Debug, Clone)]
pub struct NetworkResult {
    /// Network label.
    pub network: &'static str,
    /// Machine label.
    pub machine: &'static str,
    /// Accumulated (scaled) counters across all layers and phases.
    pub total: SimStats,
    /// Raw counters of the pairs this run actually simulated: summed
    /// before the start-up clamp and channel scaling, with cache-served
    /// layers contributing nothing. The host rates
    /// ([`NetworkResult::throughput`]) divide these, not `total`.
    pub simulated: SimStats,
    /// Per-phase accumulated counters.
    pub per_phase: [(TrainingPhase, SimStats); 3],
    /// Per-layer accumulated (scaled) counters, in layer order.
    pub per_layer: Vec<LayerStats>,
    /// Wall-clock cycles after perfect load balancing over `num_pes`.
    pub wall_cycles: u64,
    /// Host wall time spent simulating this network, in microseconds
    /// (simulator speed, not modeled-hardware time).
    pub host_wall_us: u64,
    /// Quarantined/slow-job report (empty on a clean run).
    pub failures: FailureReport,
    /// True when quarantined jobs left the stats incomplete.
    pub partial: bool,
    /// Per-worker scheduler telemetry, populated by the parallel runner
    /// when [`RunOptions::telemetry`] (or `ANT_TELEMETRY`) is on; empty
    /// otherwise (and always empty from the serial reference).
    pub workers: Vec<WorkerTelemetry>,
    /// Layers whose finalized stats came from the simulation cache
    /// (`ANT_CACHE`); zero when the cache is off.
    pub cache_hits: u64,
    /// Layers that were cacheable but had to be simulated afresh (they are
    /// recorded for the next run); zero when the cache is off.
    pub cache_misses: u64,
    /// Pair jobs answered by the tier-2 analytic fast path instead of being
    /// dispatched to the worker pool; zero when the cache is off.
    pub analytic_pairs: u64,
    /// True when the run was cancelled at a pair boundary because it
    /// exceeded [`RunOptions::deadline_us`]. With the layer cache on, every
    /// completed layer is stored, so a rerun picks up where this one
    /// stopped.
    pub deadline_exceeded: bool,
}

impl NetworkResult {
    fn empty(network: &'static str, machine: &'static str, layers: usize) -> Self {
        NetworkResult {
            network,
            machine,
            total: SimStats::default(),
            simulated: SimStats::default(),
            per_phase: [
                (TrainingPhase::Forward, SimStats::default()),
                (TrainingPhase::Backward, SimStats::default()),
                (TrainingPhase::Update, SimStats::default()),
            ],
            per_layer: Vec::with_capacity(layers),
            wall_cycles: 0,
            host_wall_us: 0,
            failures: FailureReport::default(),
            partial: false,
            workers: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            analytic_pairs: 0,
            deadline_exceeded: false,
        }
    }

    /// Host rates of this network's run: the work actually simulated
    /// ([`NetworkResult::simulated`]) per second of host wall time (see
    /// [`ant_sim::Throughput`]). The channel-scaled `total` is the work the
    /// run *represents*; dividing it by host time would credit the host
    /// with pairs it never simulated.
    pub fn throughput(&self) -> ant_sim::Throughput {
        self.simulated.throughput(self.host_wall_us as f64 / 1e6)
    }

    /// Appends one layer's finalized phases and adds them to the network
    /// and per-phase totals.
    fn push_layer(&mut self, index: usize, name: &str, phases: [SimStats; 3]) {
        let mut stats = SimStats::default();
        for (pi, phase) in phases.iter().enumerate() {
            self.total.accumulate(phase);
            self.per_phase[pi].1.accumulate(phase);
            stats.accumulate(phase);
        }
        self.per_layer.push(LayerStats {
            index,
            name: name.to_string(),
            stats,
            phases,
        });
    }

    /// Closes a run started at `started`: wall-clock cycles over `num_pes`,
    /// host wall time and its registry metrics (snapshotted into manifests),
    /// and the span's summary fields (`extra` goes after `layers`).
    fn finish(
        &mut self,
        num_pes: usize,
        started: Instant,
        span: &mut ant_obs::Span,
        extra: impl IntoIterator<Item = (&'static str, ant_obs::Value)>,
    ) {
        self.wall_cycles = self.total.total_cycles().div_ceil(num_pes as u64).max(1);
        self.host_wall_us = started.elapsed().as_micros() as u64;
        let registry = ant_obs::registry();
        registry
            .histogram("runner.network_wall_us")
            .record(self.host_wall_us as f64);
        for (name, value) in self.throughput().fields() {
            registry.gauge(&format!("runner.{name}")).set(value);
        }
        if span.is_recording() {
            span.record("layers", self.per_layer.len());
            span.record_all(extra);
            span.record("wall_cycles", self.wall_cycles);
            span.record_all(stats_fields(&self.total));
            span.record("host_wall_us", self.host_wall_us);
            span.record_all(throughput_fields(&self.simulated, self.host_wall_us));
        }
    }
}

/// One layer's accumulated (scaled) counters across all three phases.
#[derive(Debug, Clone)]
pub struct LayerStats {
    /// Index of the layer in the network spec.
    pub index: usize,
    /// Layer name from the spec.
    pub name: String,
    /// Scaled counters summed over the layer's three training phases.
    pub stats: SimStats,
    /// Finalized (scaled) counters of each training phase, in
    /// `[Forward, Backward, Update]` order. `stats` is exactly their sum;
    /// the parallel runner and the serial reference both produce them
    /// through the shared [`finalize_phase`] accounting, so they stay
    /// bit-identical. The redundancy observatory attributes per-(layer,
    /// phase) rows from these.
    pub phases: [SimStats; 3],
}

/// Simulates a full network (all layers, all three training phases) on one
/// PE model, pair by pair on the calling thread: the reference the tests
/// hold [`try_simulate_network_parallel`] to. It has no scheduler, layer
/// cache, analytic tier, fault isolation or chaos injection, so a
/// disagreement at any worker count points at the parallel runner.
///
/// # Panics
///
/// Panics if the network contains a layer whose phase shapes cannot be
/// constructed (malformed spec).
pub fn simulate_network<S: ConvSim + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
) -> NetworkResult {
    let started = Instant::now();
    let mut span = ant_obs::span("network");
    span.record("network", net.name).record("machine", pe.name());
    let mut result = NetworkResult::empty(net.name, pe.name(), net.layers.len());
    for (li, layer) in net.layers.iter().enumerate() {
        accumulate_layer(pe, layer, li, cfg, &mut result);
    }
    result.finish(cfg.num_pes, started, &mut span, []);
    result
}

/// A SimStats snapshot as typed span fields.
fn stats_fields(stats: &SimStats) -> impl Iterator<Item = (&'static str, ant_obs::Value)> {
    stats
        .fields()
        .into_iter()
        .map(|(name, value)| (name, ant_obs::Value::U64(value)))
}

/// Derived throughput rates (simulated work per wall second) as typed span
/// fields, for a region whose raw, unscaled simulated counters are `stats`
/// and whose host wall time was `wall_us`.
fn throughput_fields(
    stats: &SimStats,
    wall_us: u64,
) -> impl Iterator<Item = (&'static str, ant_obs::Value)> {
    stats
        .throughput(wall_us as f64 / 1e6)
        .fields()
        .into_iter()
        .map(|(name, value)| (name, ant_obs::Value::F64(value)))
}

/// Simulates a full network on a work-stealing worker pool; the runner
/// every experiment uses. Results are bit-identical to the reference
/// [`simulate_network`] for any worker count.
///
/// The configuration is validated up front, and every pair job runs behind
/// `catch_unwind`: a failed job is retried once, then quarantined into
/// [`NetworkResult::failures`] with the stats marked
/// [`NetworkResult::partial`] and a warning on stderr. The worker count
/// comes from [`RunOptions::threads`]; zero sizes the pool to the available
/// CPUs, like `None`.
///
/// A run has four stages, each bit-identical to the reference: `synthesize`
/// resolves every layer from the cache or synthesizes it, `deal` hands one
/// job per resident image (the image plus the kernels that stream past it)
/// to per-worker deques, `execute` runs them on the work-stealing pool, and
/// `merge` finalizes the layers in order.
///
/// # Errors
///
/// Returns [`AntError::InvalidConfig`] for unusable configurations (zero
/// PEs, sparsities outside `[0, 1]`, zero-dimension layer specs),
/// [`AntError::Shape`] when a layer's phase shapes cannot be constructed,
/// and [`AntError::Panic`] if a worker thread dies outside the per-job
/// isolation boundary. Individual pair-job failures do NOT error the run —
/// they are quarantined and reported.
pub fn try_simulate_network_parallel<S: ConvSim + Sync + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    opts: &RunOptions,
) -> Result<NetworkResult, AntError> {
    validate_experiment(net, cfg)?;
    let run = RunFlags::resolve(pe, opts);
    let mut span = ant_obs::span("network");
    let slots = synthesize(net, cfg, run.threads, run.cache_identity.as_deref())?;
    let pool = deal(pe, net, &run, slots);
    span.record("network", net.name)
        .record("machine", pe.name())
        .record("threads", pool.deques.len())
        .record("parallel", true)
        .record("scheduler", "work-steal")
        .record("jobs", pool.dealt.iter().sum::<u64>());
    let outputs = execute(&pool)?;
    let mut result = merge(&pool, &outputs);
    let report = &result.failures;
    let registry = ant_obs::registry();
    registry.counter("runner.pair_failures").add(report.failures.len() as u64);
    registry.counter("runner.pair_retries").add(report.retries);
    if report.deadline_skipped > 0 {
        registry.counter("runner.deadline_skipped").add(report.deadline_skipped);
    }
    if run.cache_identity.is_some() {
        span.record("cache_hits", result.cache_hits)
            .record("analytic_pairs", result.analytic_pairs);
        // Registry counters only materialize on cache-enabled runs, so
        // manifests of cache-off runs keep their existing key set.
        registry.counter("runner.cache.hits").add(result.cache_hits);
        registry.counter("runner.cache.misses").add(result.cache_misses);
        registry
            .counter("runner.cache.analytic_hits")
            .add(result.analytic_pairs);
    }
    let jobs_stolen: u64 = outputs.iter().map(|o| o.telemetry.stolen).sum();
    let span_extra = [
        ("jobs_stolen", jobs_stolen.into()),
        ("jobs_failed", result.failures.failures.len().into()),
        ("job_retries", result.failures.retries.into()),
        ("partial", result.partial.into()),
    ];
    result.finish(cfg.num_pes, run.started, &mut span, span_extra);
    if run.telemetry {
        result.workers = outputs.into_iter().map(|o| o.telemetry).collect();
        record_worker_metrics(&result.workers);
    }
    if !result.failures.is_clean() {
        eprintln!(
            "ant-bench: warning: {}/{} completed with {} quarantined pair failure(s); \
             stats are partial",
            net.name,
            pe.name(),
            result.failures.failures.len()
        );
    }
    Ok(result)
}

/// Rejects configurations the runners cannot execute, with structured
/// context. An empty network is valid (the run yields an empty result).
fn validate_experiment(net: &NetworkModel, cfg: &ExperimentConfig) -> Result<(), AntError> {
    if cfg.num_pes == 0 {
        return Err(AntError::invalid_config(
            "num_pes",
            "wall-clock division needs at least one PE (got 0)",
        ));
    }
    if cfg.max_channels == 0 {
        return Err(AntError::invalid_config(
            "max_channels",
            "channel sampling needs at least one channel per side (got 0)",
        ));
    }
    for (name, s) in [
        ("sparsity.weight", cfg.sparsity.weight),
        ("sparsity.activation", cfg.sparsity.activation),
        ("sparsity.gradient", cfg.sparsity.gradient),
    ] {
        if !(0.0..=1.0).contains(&s) {
            return Err(AntError::InvalidConfig {
                param: name,
                reason: format!("sparsity {s} outside [0, 1]"),
            });
        }
    }
    for (li, layer) in net.layers.iter().enumerate() {
        for (dim, value) in [
            ("out_channels", layer.out_channels),
            ("in_channels", layer.in_channels),
            ("kernel_h", layer.kernel_h),
            ("kernel_w", layer.kernel_w),
            ("input_h", layer.input_h),
            ("input_w", layer.input_w),
            ("stride", layer.stride),
        ] {
            if value == 0 {
                return Err(AntError::invalid_config(
                    "layer",
                    format!("layer {li} ({:?}): {dim} must be non-zero", layer.name),
                ));
            }
        }
    }
    Ok(())
}

/// The pair wall budget from `ANT_PAIR_BUDGET_US`, resolved once. An
/// unparsable value warns and disables the watchdog.
fn budget_from_env() -> Option<u64> {
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| match std::env::var("ANT_PAIR_BUDGET_US") {
        Ok(raw) if !raw.trim().is_empty() => match raw.trim().parse::<u64>() {
            Ok(us) if us > 0 => Some(us),
            _ => {
                eprintln!("ant-bench: ignoring invalid ANT_PAIR_BUDGET_US={raw:?} (want a positive integer)");
                None
            }
        },
        _ => None,
    })
}

/// Whether `ANT_TELEMETRY` requests per-worker scheduler telemetry,
/// resolved once. Truthiness matches `ANT_TRACE`.
fn telemetry_from_env() -> bool {
    static TELEMETRY: OnceLock<bool> = OnceLock::new();
    *TELEMETRY.get_or_init(|| {
        std::env::var("ANT_TELEMETRY")
            .map(|v| !matches!(v.trim(), "" | "0" | "false" | "off" | "no"))
            .unwrap_or(false)
    })
}

/// One run's [`RunOptions`], resolved against the environment once. The
/// workers capture plain values, so a disabled switch adds no atomic
/// operation per pair job.
struct RunFlags {
    started: Instant,
    threads: usize,
    budget_us: Option<u64>,
    deadline_us: Option<u64>,
    telemetry: bool,
    /// The stderr progress line was asked for.
    progress_requested: bool,
    /// Status snapshots publish: asked for, or the metrics exporter is up.
    progress: bool,
    /// Per-job Perfetto slices: only worth their memory when both the
    /// telemetry flag and the profiler sidecar are on.
    profile_slices: bool,
    chaos: Option<ChaosConfig>,
    /// The machine's identity when the layer cache and the analytic tier
    /// are on for this run.
    cache_identity: Option<String>,
}

impl RunFlags {
    fn resolve<S: ConvSim + ?Sized>(pe: &S, opts: &RunOptions) -> Self {
        let started = Instant::now();
        let threads = opts
            .threads
            .filter(|&t| t > 0)
            .or_else(|| std::thread::available_parallelism().map(|n| n.get()).ok())
            .unwrap_or(1);
        let telemetry = opts.telemetry.unwrap_or_else(telemetry_from_env);
        // Status snapshots publish when explicitly requested (ANT_PROGRESS
        // or `RunOptions::progress`) *or* when the embedded metrics exporter
        // is up — `/status` should be live on any scrapeable run. The stderr
        // progress line stays tied to the explicit request so the exporter
        // alone never changes console output.
        let progress_requested = opts.progress.unwrap_or_else(ant_obs::progress::status_enabled);
        let chaos = chaos::active();
        // The two-tier redundancy eliminator (docs/PERFORMANCE.md): both
        // tiers are strictly opt-in (`ANT_CACHE` / `ANT_CACHE_DIR` or a test
        // override) and stand down whenever chaos injection could taint
        // results or detail tracing needs to observe every pair. A machine
        // that returns no identity string is uncacheable and also keeps the
        // analytic tier off, so one flag governs both. IO- and service-only
        // chaos specs (torn writes, ENOSPC, job death) strike around the
        // simulation and cannot taint counters, so only a result-perturbing
        // spec stands the cache down.
        let chaos_taints = chaos.is_some_and(|c| c.perturbs_results());
        let cache_identity = (simcache::enabled() && !chaos_taints && !ant_obs::detail_enabled())
            .then(|| pe.cache_identity())
            .flatten();
        RunFlags {
            started,
            threads,
            budget_us: opts.pair_budget_us.or_else(budget_from_env),
            deadline_us: opts.deadline_us,
            telemetry,
            progress_requested,
            progress: progress_requested || ant_obs::export::active(),
            profile_slices: telemetry && ant_obs::timeline::enabled(),
            chaos,
            cache_identity,
        }
    }
}

/// Live progress of one run: the status every snapshot starts from, plus
/// shared counters. Workers only touch these when progress is enabled for
/// the run; the reporter thread reads them relaxed — approximate mid-run
/// snapshots are fine, the final publish happens after every worker has
/// joined.
#[derive(Default)]
struct ProgressShared {
    base: ant_obs::RunStatus,
    /// Outstanding pairs per layer; a layer is done at zero.
    remaining: Vec<AtomicU64>,
    pairs_done: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
    slow: AtomicU64,
}

/// The reporter thread: periodically snapshots [`ProgressShared`] into a
/// [`ant_obs::RunStatus`] and lets the rate-limited reporter publish it.
/// The final `"done"` status is published by the calling thread once the
/// workers joined, not here, so the file always ends on exact counts.
fn progress_loop(
    stop: &AtomicBool,
    shared: &ProgressShared,
    reporter: &mut ant_obs::StatusReporter,
    run_start: &Instant,
) {
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
        reporter.maybe_publish(&snapshot_status(shared, run_start, "running"));
    }
}

/// Builds one status snapshot from the shared counters.
fn snapshot_status(
    shared: &ProgressShared,
    run_start: &Instant,
    state: &'static str,
) -> ant_obs::RunStatus {
    let pairs_done = shared.pairs_done.load(Ordering::Relaxed);
    let elapsed_s = run_start.elapsed().as_secs_f64();
    let pairs_per_sec = if elapsed_s > 0.0 {
        pairs_done as f64 / elapsed_s
    } else {
        0.0
    };
    let remaining = shared.base.pairs_total.saturating_sub(pairs_done);
    let eta_s = if state == "done" || remaining == 0 {
        0.0
    } else if pairs_per_sec > 0.0 {
        remaining as f64 / pairs_per_sec
    } else {
        0.0
    };
    ant_obs::RunStatus {
        state,
        layers_done: shared
            .remaining
            .iter()
            .filter(|r| r.load(Ordering::Relaxed) == 0)
            .count() as u64,
        pairs_done,
        elapsed_s,
        pairs_per_sec,
        eta_s,
        quarantined: shared.failures.load(Ordering::Relaxed),
        retries: shared.retries.load(Ordering::Relaxed),
        watchdog_slow: shared.slow.load(Ordering::Relaxed),
        ..shared.base.clone()
    }
}

/// Encodes a [`PairTask`] into one word for the watchdog's atomic slots.
fn encode_task(task: PairTask) -> u64 {
    ((task.layer as u64) << 40) | ((task.phase as u64) << 32) | (task.pair as u64 & 0xFFFF_FFFF)
}

fn decode_task(word: u64) -> (usize, usize, usize) {
    (
        (word >> 40) as usize,
        ((word >> 32) & 0xFF) as usize,
        (word & 0xFFFF_FFFF) as usize,
    )
}

/// Per-worker watchdog slot: which job the worker is on and when it
/// started, published so the watchdog thread can flag stuck jobs.
#[derive(Default)]
struct WatchSlot {
    /// Job start as `elapsed_us + 1` since run start; 0 = idle.
    start_us: AtomicU64,
    /// The in-flight task, [`encode_task`]-encoded.
    task: AtomicU64,
}

/// The error a chaos-truncated CSR plane produces: rebuilds the kernel with
/// its last row pointer dropped and returns the validation failure.
fn truncated_csr_error(kernel: &CsrMatrix) -> AntError {
    let (rows, cols) = kernel.shape();
    let mut row_ptr = kernel.row_ptr().to_vec();
    row_ptr.pop();
    match CsrMatrix::from_raw(
        rows,
        cols,
        row_ptr,
        kernel.col_idx().to_vec(),
        kernel.values().to_vec(),
    ) {
        Err(e) => e.into(),
        Ok(_) => AntError::corrupt("chaos", "truncated row_ptr unexpectedly validated"),
    }
}

/// The error a chaos-corrupted shape produces: the shape disagrees with the
/// operands, so either its construction fails (kernel outgrew the image) or
/// the operand check does.
fn corrupt_shape_error(machine: &'static str, pair: &ConvPair) -> AntError {
    let shape = match ConvShape::new(
        pair.shape.kernel_h() + 1,
        pair.shape.kernel_w() + 1,
        pair.shape.image_h(),
        pair.shape.image_w(),
        pair.shape.stride(),
    ) {
        Ok(shape) => shape,
        Err(e) => return e.into(),
    };
    match validate_conv_pair(machine, &pair.kernel, &pair.image, &shape) {
        Err(e) => e,
        Ok(()) => AntError::corrupt("chaos", "corrupted shape unexpectedly validated"),
    }
}

/// Opens the image session of one job behind the isolation boundary: a
/// mismatched image or a panicking prepare comes back as the error every
/// pair of the job then fails with.
fn open_session<'s, S: ConvSim + Sync + ?Sized>(
    pe: &'s S,
    image: &'s CsrMatrix,
    shape: &'s ConvShape,
    scratch: &'s mut SimScratch,
) -> Result<ImageSession<'s, S>, AntError> {
    let open = move || {
        let scratch = scratch; // moved, so the session may keep the borrow
        ImageSession::try_open(pe, image, shape, scratch)
    };
    catch_unwind(AssertUnwindSafe(open))
        .unwrap_or_else(|payload| Err(AntError::from_panic("image prepare", payload.as_ref())))
}

/// Simulates one pair of a job against its open image session, behind the
/// isolation boundary, applying an injected chaos fault if one is scheduled
/// for this attempt.
fn run_pair_job<S: ConvSim + Sync + ?Sized>(
    machine: &'static str,
    session: &mut Result<ImageSession<'_, S>, AntError>,
    pair: &ConvPair,
    fault: Option<Fault>,
) -> Result<SimStats, AntError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| match fault {
        Some(Fault::WorkerPanic) => panic!("chaos: injected worker panic"),
        Some(Fault::TruncatedCsr) => Err(truncated_csr_error(&pair.kernel)),
        Some(Fault::CorruptShape) => Err(corrupt_shape_error(machine, pair)),
        None => match session {
            Ok(session) => session.try_simulate(&pair.kernel),
            Err(e) => Err(e.clone()),
        },
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(AntError::from_panic("pair job", payload.as_ref())),
    }
}

/// Runs `body(worker)` on `workers` workers and returns their outputs in
/// worker order. Each helper runs on a thread of its own beside the
/// workers and sees its stop flag set once every worker has returned. One
/// worker with no helpers runs inline on the calling thread: the thread
/// round-trip dominates sub-millisecond workloads. A worker panic comes
/// back as [`AntError::Panic`].
fn run_pool<T: Send>(
    workers: usize,
    helpers: &[&(dyn Fn(&AtomicBool) + Sync)],
    body: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, AntError> {
    if workers == 1 && helpers.is_empty() {
        return Ok(vec![body(0)]);
    }
    let stop = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        for helper in helpers {
            scope.spawn(move || helper(stop));
        }
        let body = &body;
        let handles: Vec<_> = (0..workers)
            .map(|me| scope.spawn(move || body(me)))
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Release);
        joined
            .into_iter()
            .map(|j| j.map_err(|payload| AntError::from_panic("pool worker", payload.as_ref())))
            .collect()
    })
}

/// One layer of a parallel run, from synthesis to merge.
enum LayerSlot {
    /// Finalized phases served by the layer cache.
    Cached(Box<[SimStats; 3]>),
    /// A synthesized layer still to simulate, with the memo and content
    /// keys to record its result under when the cache is on.
    Work(Box<LayerWork>, Option<(CacheKey, CacheKey)>),
}

/// Stage 1: resolves every layer to a [`LayerSlot`], served by the cache or
/// synthesized on up to `threads` workers. Each layer's RNG seed derives
/// from its index alone, so synthesis order is free.
fn synthesize(
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    threads: usize,
    cache_identity: Option<&str>,
) -> Result<Vec<LayerSlot>, AntError> {
    // Tier 1, pre-synthesis: resolve each layer's memo key against the
    // cache. A hit skips synthesis, hashing, and simulation — the warm
    // sweep's (and a resumed sweep's) fast path.
    let (synth_keys, memo): (Vec<Option<CacheKey>>, Vec<Option<[SimStats; 3]>>) = net
        .layers
        .iter()
        .enumerate()
        .map(|(li, layer)| {
            let key = cache_identity.map(|id| synth_cache_key(id, layer, li, cfg));
            (key, key.as_ref().and_then(simcache::lookup_memo))
        })
        .unzip();
    let pending = memo.iter().filter(|hit| hit.is_none()).count();
    // Workers claim layer indices from a shared atomic and tag each result
    // with its index; sorting restores layer order.
    let next = AtomicUsize::new(0);
    let claimed = run_pool(threads.clamp(1, pending.max(1)), &[], |_| {
        let mut done = Vec::new();
        loop {
            let li = next.fetch_add(1, Ordering::Relaxed);
            let Some(layer) = net.layers.get(li) else { break };
            let slot = match memo[li] {
                Some(phases) => Ok(LayerSlot::Cached(Box::new(phases))),
                None => try_synthesize_layer_work(layer, li, cfg)
                    .map(|w| LayerSlot::Work(Box::new(w), None)),
            };
            done.push((li, slot));
        }
        done
    })?;
    let mut claimed: Vec<_> = claimed.into_iter().flatten().collect();
    claimed.sort_unstable_by_key(|(li, _)| *li);
    let mut slots = claimed.into_iter().map(|(_, slot)| slot).collect::<Result<Vec<_>, _>>()?;

    // Tier 1, post-synthesis: content-address the freshly synthesized
    // layers. A hit here (e.g. a cache populated by a different config that
    // synthesized identical planes) still skips every pair job; the
    // association is recorded so the *next* run resolves pre-synthesis.
    let Some(id) = cache_identity else {
        return Ok(slots);
    };
    for (slot, synth_key) in slots.iter_mut().zip(synth_keys) {
        let (LayerSlot::Work(work, keys), Some(skey)) = (&mut *slot, synth_key) else { continue };
        let ckey = content_cache_key(id, work);
        match simcache::lookup(&ckey) {
            Some(phases) => {
                simcache::record(skey, ckey, &phases);
                *slot = LayerSlot::Cached(Box::new(phases));
            }
            None => *keys = Some((skey, ckey)),
        }
    }
    Ok(slots)
}

/// The coordinates of one pair: indices into the synthesized [`LayerWork`]
/// of a slot. Chaos faults, quarantine records and the watchdog address
/// pairs by them.
#[derive(Debug, Clone, Copy)]
struct PairTask {
    layer: usize,
    phase: usize,
    pair: usize,
}

/// One unit for the work-stealing scheduler: a resident image of one
/// (layer, phase) and the pairs whose kernels stream past it, as the range
/// `start..end` of [`Pool::job_pairs`].
#[derive(Debug, Clone, Copy)]
struct ImageJob {
    layer: usize,
    phase: usize,
    start: usize,
    end: usize,
}

/// One run's layers and dealt jobs, plus the state its workers share.
struct Pool<'a, S: ?Sized> {
    pe: &'a S,
    net: &'a NetworkModel,
    run: &'a RunFlags,
    slots: Vec<LayerSlot>,
    /// One deque per worker, each holding a contiguous chunk of the jobs.
    deques: Vec<Mutex<VecDeque<ImageJob>>>,
    /// The pair indices of every job, job after job.
    job_pairs: Vec<usize>,
    /// Jobs dealt to each deque. Nothing is pushed after the deal, so this
    /// is also the deque's high-water mark.
    dealt: Vec<u64>,
    /// Per-(layer, phase) sums of the pairs the analytic tier answered;
    /// empty when the tier is off.
    analytic: Vec<SimStats>,
    analytic_pairs: u64,
    watch: Vec<WatchSlot>,
    progress: Option<ProgressShared>,
}

/// Stage 2: turns every resident image of the synthesized layers into one
/// job, in serial simulation order, and deals the jobs to at most
/// `run.threads` deques in contiguous chunks: a worker prepares each image
/// once and streams its kernels past it, then moves on to the layer's next
/// like-shaped image with its [`SimScratch`] warm. With the analytic tier
/// on, pairs whose machine provides a closed form (byte-identical by the
/// golden proptests) are answered here instead. Also sets up the watchdog
/// slots and the live-progress state the workers share.
fn deal<'a, S: ConvSim + ?Sized>(
    pe: &'a S,
    net: &'a NetworkModel,
    run: &'a RunFlags,
    slots: Vec<LayerSlot>,
) -> Pool<'a, S> {
    let analytic = run.cache_identity.is_some();
    let analytic_len = if analytic { slots.len() * 3 } else { 0 };
    let mut analytic_partial = vec![SimStats::default(); analytic_len];
    let mut analytic_pairs = 0u64;
    let mut per_layer = vec![0u64; slots.len()];
    let mut jobs: Vec<ImageJob> = Vec::new();
    let mut job_pairs: Vec<usize> = Vec::new();
    for (li, slot) in slots.iter().enumerate() {
        let LayerSlot::Work(work, _) = slot else { continue };
        for (pi, phase) in work.phases.iter().enumerate() {
            for image in &phase.images {
                let start = job_pairs.len();
                for &pair_index in image {
                    let pair = &phase.pairs[pair_index];
                    if analytic {
                        if let Some(stats) =
                            pe.analytic_conv_pair(&pair.kernel, &pair.image, &pair.shape)
                        {
                            analytic_partial[li * 3 + pi].accumulate(&stats);
                            analytic_pairs += 1;
                            continue;
                        }
                    }
                    job_pairs.push(pair_index);
                }
                let end = job_pairs.len();
                if end > start {
                    per_layer[li] += (end - start) as u64;
                    jobs.push(ImageJob {
                        layer: li,
                        phase: pi,
                        start,
                        end,
                    });
                }
            }
        }
    }
    let workers = run.threads.clamp(1, jobs.len().max(1));
    let chunk = jobs.len().div_ceil(workers).max(1);
    let chunk_of = |w: usize| &jobs[(w * chunk).min(jobs.len())..((w + 1) * chunk).min(jobs.len())];
    let progress = run.progress.then(|| ProgressShared {
        base: ant_obs::RunStatus {
            name: net.name.to_string(),
            network: net.name.to_string(),
            machine: pe.name().to_string(),
            state: "running",
            threads: workers as u64,
            layers_total: net.layers.len() as u64,
            pairs_total: job_pairs.len() as u64,
            // Build identity: resolved once per process, and only when a
            // status will actually be published.
            git_revision: ant_obs::manifest::git_revision_cached(),
            ..ant_obs::RunStatus::default()
        },
        // Layers with no pairs to run — cache-resolved or fully answered
        // by the analytic tier — count as done up front.
        remaining: per_layer.into_iter().map(AtomicU64::new).collect(),
        ..ProgressShared::default()
    });
    Pool {
        pe,
        net,
        run,
        deques: (0..workers)
            .map(|w| Mutex::new(chunk_of(w).iter().copied().collect()))
            .collect(),
        dealt: (0..workers).map(|w| chunk_of(w).len() as u64).collect(),
        job_pairs,
        analytic: analytic_partial,
        analytic_pairs,
        watch: (0..workers).map(|_| WatchSlot::default()).collect(),
        progress,
        slots,
    }
}

/// One worker's harvest: per-(layer, phase) partial sums plus everything
/// the failure report needs.
#[derive(Default)]
struct WorkerOutput {
    partial: Vec<SimStats>,
    failures: Vec<PairFailure>,
    slow: Vec<SlowJob>,
    retried: Vec<PairRetry>,
    /// Layers of the pairs drained unexecuted after the run deadline passed.
    skipped: Vec<usize>,
    /// Scheduler telemetry. Job and steal counts are always kept; timing
    /// and slices only when telemetry is on for the run.
    telemetry: WorkerTelemetry,
}

/// Stage 3: runs the dealt jobs on the work-stealing pool, beside the
/// watchdog and the live-progress reporter when they are on. An idle worker
/// steals from the *back* of a victim's deque, the work its owner is
/// furthest from reaching. Each worker folds raw pair counters into
/// per-(layer, phase) partials; the counters are `u64` sums, so
/// accumulation order cannot change the result.
fn execute<S: ConvSim + Sync + ?Sized>(pool: &Pool<'_, S>) -> Result<Vec<WorkerOutput>, AntError> {
    let run = pool.run;
    let reporter = || {
        let mut reporter = ant_obs::StatusReporter::new(ant_obs::progress::status_file());
        reporter.set_console(run.progress_requested);
        reporter
    };
    let watchdog = run.budget_us.map(|budget| {
        move |stop: &AtomicBool| watchdog_loop(stop, &pool.watch, &run.started, budget)
    });
    let reporter_loop = |stop: &AtomicBool| {
        if let Some(shared) = &pool.progress {
            progress_loop(stop, shared, &mut reporter(), &run.started);
        }
    };
    let mut helpers: Vec<&(dyn Fn(&AtomicBool) + Sync)> = Vec::new();
    if let Some(watchdog) = &watchdog {
        helpers.push(watchdog);
    }
    if pool.progress.is_some() {
        helpers.push(&reporter_loop);
    }
    let outputs = run_pool(pool.deques.len(), &helpers, |me| pool.work(me))?;
    if let Some(shared) = &pool.progress {
        // Every worker has joined, so the shared counters are exact here
        // (mid-run snapshots are relaxed approximations).
        reporter().publish(&snapshot_status(shared, &run.started, "done"));
    }
    Ok(outputs)
}

impl<S: ConvSim + Sync + ?Sized> Pool<'_, S> {
    /// One work-stealing worker: drains its own deque front to back, then
    /// steals, until every deque is empty.
    fn work(&self, me: usize) -> WorkerOutput {
        let worker_started = Instant::now();
        let mut worker_span = ant_obs::span("steal_worker");
        worker_span.record("worker", me);
        let mut scratch = SimScratch::new();
        let mut out = WorkerOutput {
            partial: vec![SimStats::default(); self.net.layers.len() * 3],
            telemetry: WorkerTelemetry {
                worker: me,
                dealt: self.dealt[me],
                ..WorkerTelemetry::default()
            },
            ..WorkerOutput::default()
        };
        let deques = &self.deques;
        loop {
            // A worker that caught a panic may have poisoned a deque lock
            // mid-pop on older toolchains; the deque holds Copy tasks, so
            // recovering the guard is always safe.
            let (own, own_len) = {
                let mut deque = deques[me].lock().unwrap_or_else(|p| p.into_inner());
                (deque.pop_front(), deque.len() as u64)
            };
            let stolen = own.is_none();
            let task = own.or_else(|| {
                (1..deques.len()).find_map(|off| {
                    let victim = (me + off) % deques.len();
                    let task = deques[victim]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .pop_back();
                    out.telemetry.steal_attempts += 1;
                    out.telemetry.failed_steals += u64::from(task.is_none());
                    task
                })
            });
            // No new jobs are ever produced, so one full empty scan means
            // the pool is drained for good.
            let Some(job) = task else { break };
            out.telemetry.stolen += u64::from(stolen);
            self.run_job(me, job, own_len, stolen, &mut scratch, &mut out);
        }
        let telemetry = &mut out.telemetry;
        if self.run.telemetry {
            telemetry.wall_ns = worker_started.elapsed().as_nanos() as u64;
            telemetry.idle_ns = telemetry.wall_ns.saturating_sub(telemetry.busy_ns);
        }
        if worker_span.is_recording() {
            worker_span.record("jobs_executed", telemetry.executed);
            worker_span.record("jobs_stolen", telemetry.stolen);
            worker_span.record("jobs_failed", out.failures.len());
            if self.run.telemetry {
                worker_span.record("busy_ns", telemetry.busy_ns);
                worker_span.record("idle_ns", telemetry.idle_ns);
                worker_span.record("steal_attempts", telemetry.steal_attempts);
                worker_span.record("failed_steals", telemetry.failed_steals);
            }
        }
        out
    }

    /// Opens the job's image session once and simulates each of its pairs
    /// behind the isolation boundary — a failed pair is retried once on a
    /// fresh scratch arena (which re-prepares the image), then quarantined
    /// — booking counters, failures, watchdog, progress and telemetry
    /// records into `out`. Everything but the telemetry is kept per pair.
    fn run_job(
        &self,
        me: usize,
        job: ImageJob,
        own_len: u64,
        stolen: bool,
        scratch: &mut SimScratch,
        out: &mut WorkerOutput,
    ) {
        let LayerSlot::Work(work, _) = &self.slots[job.layer] else {
            return;
        };
        let phase = &work.phases[job.phase];
        let pair_indices = &self.job_pairs[job.start..job.end];
        let run = self.run;
        let shared = self.progress.as_ref();
        // Telemetry timing is separate from the watchdog's so neither
        // flag changes the other's behaviour.
        let telemetry_started = run.telemetry.then(|| (run.started.elapsed(), Instant::now()));
        let resident = &phase.pairs[pair_indices[0]];
        let mut session = open_session(self.pe, &resident.image, &resident.shape, scratch);
        for &pair_index in pair_indices {
            // Job-level deadline: cancellation happens only at a pair
            // boundary (a running pair holds no cancellable resources, same
            // contract as the watchdog). Remaining pairs drain unexecuted;
            // their layers are left out of the cache so a rerun
            // re-simulates exactly them.
            if run.deadline_us.is_some_and(|d| run.started.elapsed().as_micros() as u64 >= d) {
                out.skipped.push(job.layer);
                continue;
            }
            let task = PairTask {
                layer: job.layer,
                phase: job.phase,
                pair: pair_index,
            };
            self.run_pair(me, task, phase, &mut session, out);
            if let Some(shared) = shared {
                shared.pairs_done.fetch_add(1, Ordering::Relaxed);
                shared.remaining[job.layer].fetch_sub(1, Ordering::Relaxed);
            }
        }
        if let Some((since_run_start, job_t0)) = telemetry_started {
            let dur = job_t0.elapsed();
            out.telemetry.busy_ns += dur.as_nanos() as u64;
            if run.profile_slices {
                out.telemetry.slices.push(JobSlice {
                    start_us: since_run_start.as_micros() as u64,
                    dur_us: dur.as_micros() as u64,
                    layer: job.layer,
                    phase: job.phase,
                    pair: pair_indices[0],
                    stolen,
                    deque_len: if stolen { 0 } else { own_len },
                });
            }
        }
        out.telemetry.executed += 1;
    }

    /// One pair of an image job: the first attempt, a retry on a fresh
    /// arena if it failed, and the watchdog, counter and failure records.
    fn run_pair(
        &self,
        me: usize,
        task: PairTask,
        phase: &PhaseWork,
        session: &mut Result<ImageSession<'_, S>, AntError>,
        out: &mut WorkerOutput,
    ) {
        let pair = &phase.pairs[task.pair];
        let run = self.run;
        let shared = self.progress.as_ref();
        let machine = self.pe.name();
        let job_started = run.budget_us.map(|_| {
            let slot = &self.watch[me];
            slot.task.store(encode_task(task), Ordering::Relaxed);
            slot.start_us
                .store(run.started.elapsed().as_micros() as u64 + 1, Ordering::Release);
            Instant::now()
        });
        let fault = |attempt| {
            run.chaos.and_then(|c| c.fault_for(task.layer, task.phase, task.pair, attempt))
        };
        let mut result = run_pair_job(machine, session, pair, fault(0));
        let mut attempts = 1u32;
        if result.is_err() {
            if let Some(shared) = shared {
                shared.retries.fetch_add(1, Ordering::Relaxed);
            }
            // The caught panic may have left the arena mid-mutation; retry
            // on a fresh one, prepared again for the resident image
            // (failure path only — the clean path stays allocation-free).
            if let Ok(open) = session {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| open.reopen_fresh())) {
                    *session = Err(AntError::from_panic("image prepare", payload.as_ref()));
                }
            }
            result = run_pair_job(machine, session, pair, fault(1));
            attempts = 2;
            if result.is_ok() {
                out.retried.push(PairRetry {
                    layer_index: task.layer,
                    phase: task.phase,
                    pair: task.pair,
                    attempts,
                });
            }
        }
        if let Some(job_started) = job_started {
            self.watch[me].start_us.store(0, Ordering::Release);
            let wall_us = job_started.elapsed().as_micros() as u64;
            if wall_us > run.budget_us.unwrap_or(u64::MAX) {
                out.slow.push(SlowJob {
                    layer_index: task.layer,
                    phase: task.phase,
                    pair: task.pair,
                    wall_us,
                });
                if let Some(shared) = shared {
                    shared.slow.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match result {
            Ok(stats) => out.partial[task.layer * 3 + task.phase].accumulate(&stats),
            Err(error) => {
                out.failures.push(PairFailure {
                    layer_index: task.layer,
                    layer: self.net.layers[task.layer].name.clone(),
                    phase: phase.phase,
                    pair: task.pair,
                    machine,
                    error,
                    attempts,
                });
                if let Some(shared) = shared {
                    shared.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Collects the workers' failures, slow jobs and retries into one report,
/// sorted by job coordinates: worker attribution depends on steal order,
/// but the set of jobs does not, so the report is the same for any worker
/// count. Emits the trace events for it.
fn failure_report(machine: &'static str, outputs: &[WorkerOutput]) -> FailureReport {
    let mut report = FailureReport::default();
    for out in outputs {
        report.failures.extend(out.failures.iter().cloned());
        report.slow.extend(out.slow.iter().copied());
        report.retried.extend(out.retried.iter().copied());
        report.deadline_skipped += out.skipped.len() as u64;
    }
    // Every quarantined job was retried first.
    report.retries = (report.retried.len() + report.failures.len()) as u64;
    report
        .failures
        .sort_by_key(|f| (f.layer_index, f.phase as usize, f.pair));
    report.slow.sort_by_key(|s| (s.layer_index, s.phase, s.pair));
    report.retried.sort_by_key(|r| (r.layer_index, r.phase, r.pair));
    if ant_obs::enabled() {
        for f in &report.failures {
            ant_obs::event(
                "pair_failure",
                &[
                    ("layer", f.layer.as_str().into()),
                    ("layer_index", (f.layer_index as u64).into()),
                    ("phase", f.phase.paper_name().into()),
                    ("pair", (f.pair as u64).into()),
                    ("machine", f.machine.into()),
                    ("kind", f.error.kind().into()),
                    ("error", f.error.to_string().as_str().into()),
                ],
            );
        }
        for r in &report.retried {
            ant_obs::event(
                "pair_retry",
                &[
                    ("layer_index", (r.layer_index as u64).into()),
                    ("phase", (r.phase as u64).into()),
                    ("pair", (r.pair as u64).into()),
                    ("machine", machine.into()),
                    ("attempts", r.attempts.into()),
                ],
            );
        }
    }
    report
}

/// Stage 4: sums the workers' partials and finalizes every layer in layer
/// order through the same [`finalize_phase`] as the reference, so every
/// aggregate matches it. Records each fresh, clean layer to the cache.
fn merge<S: ConvSim + ?Sized>(pool: &Pool<'_, S>, outputs: &[WorkerOutput]) -> NetworkResult {
    let (pe, net) = (pool.pe, pool.net);
    let report = failure_report(pe.name(), outputs);
    // A layer is clean only when no pair was quarantined *and* none was
    // skipped by deadline cancellation — either way its stats are
    // incomplete and replaying them would poison every later run.
    let dirty: std::collections::BTreeSet<usize> = report
        .failures
        .iter()
        .map(|f| f.layer_index)
        .chain(outputs.iter().flat_map(|o| o.skipped.iter().copied()))
        .collect();
    let mut merged = NetworkResult::empty(net.name, pe.name(), net.layers.len());
    for (li, (layer, slot)) in net.layers.iter().zip(&pool.slots).enumerate() {
        let (work, keys) = match slot {
            // The stored phases are the finalized outputs of a
            // byte-identical earlier simulation (same content key, same
            // machine identity, same model version); nothing fresh is
            // recorded.
            LayerSlot::Cached(phases) => {
                merged.cache_hits += 1;
                merged.push_layer(li, &layer.name, **phases);
                continue;
            }
            LayerSlot::Work(work, keys) => (work, keys),
        };
        let mut layer_span = ant_obs::span("layer");
        layer_span
            .record("layer", layer.name.as_str())
            .record("layer_index", li)
            .record("network", net.name)
            .record("machine", pe.name())
            .record("channel_scale", work.channel_scale);
        let mut phases = [SimStats::default(); 3];
        for (pi, phase) in work.phases.iter().enumerate() {
            let mut phase_stats = SimStats::default();
            for out in outputs {
                phase_stats.accumulate(&out.partial[li * 3 + pi]);
            }
            // Pairs answered by the analytic tier fold in here; their stats
            // are byte-identical to the dispatched path and the counters
            // are u64 sums, so accumulation order cannot matter.
            if let Some(partial) = pool.analytic.get(li * 3 + pi) {
                phase_stats.accumulate(partial);
            }
            merged.simulated.accumulate(&phase_stats);
            phases[pi] = finalize_phase(phase_stats, phase.distinct_images(), work.scale);
            // Same phase-delta contract as the reference's spans; the pairs
            // ran interleaved across workers, so no per-phase host wall
            // time is attributable here.
            let mut phase_span = ant_obs::span("phase");
            if phase_span.is_recording() {
                phase_span
                    .record("phase", phase.phase.paper_name())
                    .record("network", net.name)
                    .record("machine", pe.name())
                    .record("layer", layer.name.as_str())
                    .record("pairs", phase.pairs.len());
                phase_span.record_all(stats_fields(&phases[pi]));
            }
        }
        if let Some((skey, ckey)) = *keys {
            merged.cache_misses += 1;
            if !dirty.contains(&li) {
                simcache::record(skey, ckey, &phases);
            }
        }
        merged.push_layer(li, &layer.name, phases);
    }
    merged.analytic_pairs = pool.analytic_pairs;
    merged.deadline_exceeded = report.deadline_skipped > 0;
    merged.partial = !report.is_clean() || merged.deadline_exceeded;
    merged.failures = report;
    merged
}

/// Feeds one run's per-worker telemetry into the process-wide registry.
/// Instrument names are worker-count-independent (histograms over the
/// worker population plus run-wide counters), so manifests that snapshot
/// the registry stay key-stable across thread counts.
fn record_worker_metrics(workers: &[WorkerTelemetry]) {
    let registry = ant_obs::registry();
    registry.gauge("runner.worker.count").set(workers.len() as f64);
    for t in workers {
        registry
            .histogram("runner.worker.executed")
            .record(t.executed as f64);
        registry
            .histogram("runner.worker.busy_us")
            .record(t.busy_ns as f64 / 1e3);
        registry
            .histogram("runner.worker.idle_us")
            .record(t.idle_ns as f64 / 1e3);
        registry
            .histogram("runner.worker.utilization")
            .record(t.utilization());
        registry
            .histogram("runner.worker.deque_hwm")
            .record(t.dealt as f64);
        registry.counter("runner.worker.steals").add(t.stolen);
        registry
            .counter("runner.worker.steal_attempts")
            .add(t.steal_attempts);
        registry
            .counter("runner.worker.steal_failures")
            .add(t.failed_steals);
    }
}

/// The watchdog: samples every worker's in-flight job and warns (once per
/// job) when one exceeds the wall budget. Jobs are flagged, not killed —
/// a stuck job holds no cancellable resources, and the warning is the
/// operator's cue to lower the workload or raise the budget.
fn watchdog_loop(stop: &AtomicBool, watch: &[WatchSlot], run_start: &Instant, budget_us: u64) {
    let mut warned: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let tick = Duration::from_micros((budget_us / 4).clamp(1_000, 50_000));
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        let now_us = run_start.elapsed().as_micros() as u64;
        for (w, slot) in watch.iter().enumerate() {
            let start_plus_one = slot.start_us.load(Ordering::Acquire);
            if start_plus_one == 0 {
                continue;
            }
            let elapsed = now_us.saturating_sub(start_plus_one - 1);
            let task = slot.task.load(Ordering::Relaxed);
            if elapsed > budget_us && warned.insert(task) {
                let (layer, phase, pair) = decode_task(task);
                eprintln!(
                    "ant-bench: watchdog: worker {w} pair job \
                     layer={layer} phase={phase} pair={pair} \
                     in flight {elapsed}us (budget {budget_us}us)"
                );
            }
        }
    }
}

/// One layer's synthesized sample plus the constants needed to reproduce
/// the serial accounting. Built once per layer (by either path) and
/// consumed read-only.
#[derive(Debug)]
struct LayerWork {
    /// `channel_scale * layer.count`: factor from sampled to full-layer
    /// counters.
    scale: f64,
    /// Channel-sampling scale alone (for span parity with older traces).
    channel_scale: f64,
    /// The three training phases, in `[Forward, Backward, Update]` order.
    phases: [PhaseWork; 3],
}

/// One training phase of a synthesized layer: its sampled pairs, grouped
/// by resident image.
#[derive(Debug)]
struct PhaseWork {
    phase: TrainingPhase,
    pairs: Vec<ConvPair>,
    /// Pair indices per resident image, in order of first appearance, each
    /// group in pair order. Image-stationary reuse (paper Sections 2.3 and
    /// 6.1): the resident image plane is held while every kernel streams
    /// past it — an input-channel plane in the forward and update phases, a
    /// gradient plane in the backward phase. The runner simulates one group
    /// per job, and the group count bounds the start-up charge, paid once
    /// per *image*, not once per (k, c) pair, on every machine alike.
    images: Vec<Vec<usize>>,
}

impl PhaseWork {
    /// Groups `pairs` by resident image: pairs sharing one image plane
    /// (pointer-equal [`ConvPair::image`]) and shape.
    fn new(phase: TrainingPhase, pairs: Vec<ConvPair>) -> Self {
        let mut residents: Vec<(*const CsrMatrix, ConvShape)> = Vec::new();
        let mut images: Vec<Vec<usize>> = Vec::new();
        for (index, pair) in pairs.iter().enumerate() {
            let key = (Arc::as_ptr(&pair.image), pair.shape);
            match residents.iter().position(|resident| *resident == key) {
                Some(group) => images[group].push(index),
                None => {
                    residents.push(key);
                    images.push(vec![index]);
                }
            }
        }
        Self {
            phase,
            pairs,
            images,
        }
    }

    /// The distinct resident images, which bound the start-up charge.
    fn distinct_images(&self) -> u64 {
        self.images.len() as u64
    }
}

/// The pre-synthesis memo key for one layer: hashes everything that
/// *determines* the synthesized operands and their finalized stats by
/// construction — the experiment fingerprint (seed, sampling, sparsities),
/// the layer spec and its index (per-layer RNG seeds derive from the
/// index), the machine identity string, and [`MODEL_VERSION`]. A warm run
/// that resolves this key skips synthesis entirely; the authoritative
/// content key below is what entries are stored under.
fn synth_cache_key(
    machine_identity: &str,
    layer: &ant_workloads::ConvLayerSpec,
    layer_index: usize,
    cfg: &ExperimentConfig,
) -> CacheKey {
    let mut key = KeyBuilder::default();
    key.write_str("ant-simcache-synth");
    key.write_u64(u64::from(MODEL_VERSION));
    key.write_str(machine_identity);
    Fingerprint::of(cfg).write_to(&mut key);
    key.write_usize(layer_index);
    key.write_str(&layer.name);
    for dim in [
        layer.out_channels,
        layer.in_channels,
        layer.kernel_h,
        layer.kernel_w,
        layer.input_h,
        layer.input_w,
        layer.stride,
        layer.padding,
        layer.count,
    ] {
        key.write_usize(dim);
    }
    key.finish()
}

/// The content-addressed cache key for one synthesized layer: hashes the
/// actual CSR planes and shapes of every sampled pair in every phase, the
/// scaling constants, the machine identity string, and [`MODEL_VERSION`].
/// Two layers with equal content keys produce byte-identical finalized
/// stats on the same machine, whatever config synthesized them.
fn content_cache_key(machine_identity: &str, work: &LayerWork) -> CacheKey {
    let mut key = KeyBuilder::default();
    key.write_str("ant-simcache-content");
    key.write_u64(u64::from(MODEL_VERSION));
    key.write_str(machine_identity);
    key.write_f64(work.scale);
    for phase in &work.phases {
        key.write_str(phase.phase.paper_name());
        key.write_u64(phase.distinct_images());
        key.write_usize(phase.pairs.len());
        for pair in &phase.pairs {
            for dim in [
                pair.shape.kernel_h(),
                pair.shape.kernel_w(),
                pair.shape.image_h(),
                pair.shape.image_w(),
                pair.shape.stride(),
                pair.shape.dilation(),
            ] {
                key.write_usize(dim);
            }
            key.write_csr(&pair.kernel);
            key.write_csr(&pair.image);
        }
    }
    key.finish()
}

/// Synthesizes one layer's [`LayerWork`]. The RNG seed derives from
/// `cfg.seed` and the layer index alone, so any execution order (serial,
/// chunked, work-stealing) sees identical operands.
fn synthesize_layer_work(
    layer: &ant_workloads::ConvLayerSpec,
    layer_index: usize,
    cfg: &ExperimentConfig,
) -> LayerWork {
    try_synthesize_layer_work(layer, layer_index, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`synthesize_layer_work`]: trace-extraction errors and
/// panics inside synthesis come back as typed errors tagged with the layer.
fn try_synthesize_layer_work(
    layer: &ant_workloads::ConvLayerSpec,
    layer_index: usize,
    cfg: &ExperimentConfig,
) -> Result<LayerWork, AntError> {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (layer_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let synth = catch_unwind(AssertUnwindSafe(|| {
        synthesize_layer(layer, &cfg.sparsity, cfg.max_channels, &mut rng)
    }))
    .map_err(|payload| {
        let inner = AntError::from_panic("layer synthesis", payload.as_ref());
        AntError::corrupt(
            "synthesis",
            format!("layer {layer_index} ({:?}): {inner}", layer.name),
        )
    })?;
    Ok(LayerWork {
        scale: synth.channel_scale * layer.count as f64,
        channel_scale: synth.channel_scale,
        phases: [
            PhaseWork::new(TrainingPhase::Forward, synth.trace.forward_pairs()?),
            PhaseWork::new(TrainingPhase::Backward, synth.trace.backward_pairs()?),
            PhaseWork::new(TrainingPhase::Update, synth.trace.update_pairs()?),
        ],
    })
}

/// Applies the per-phase start-up clamp and channel scaling to raw
/// accumulated pair counters. Shared by the serial and work-stealing
/// runners: this is the single definition of the sampled-to-full-layer
/// accounting.
fn finalize_phase(mut phase_stats: SimStats, distinct_images: u64, scale: f64) -> SimStats {
    phase_stats.startup_cycles = phase_stats
        .startup_cycles
        .min(ant_sim::accelerator::STARTUP_CYCLES * distinct_images);
    // Mirror the clamp into the attribution: `cycles.startup` tracked the
    // unclamped per-pair start-up, so snapping it to the clamped value
    // keeps `cycles.total() == total_cycles()` exactly.
    phase_stats.cycles.startup = phase_stats.startup_cycles;
    let scaled = phase_stats.scaled_f64(scale);
    scaled.debug_assert_cycles_attributed("runner phase");
    scaled
}

/// The reference's per-layer step: synthesizes the layer, simulates its
/// pairs in order on the calling thread, and finalizes each phase.
fn accumulate_layer<S: ConvSim + ?Sized>(
    pe: &S,
    layer: &ant_workloads::ConvLayerSpec,
    layer_index: usize,
    cfg: &ExperimentConfig,
    out: &mut NetworkResult,
) {
    let mut layer_span = ant_obs::span("layer");
    layer_span
        .record("layer", layer.name.as_str())
        .record("layer_index", layer_index)
        .record("network", out.network)
        .record("machine", pe.name());
    let work = synthesize_layer_work(layer, layer_index, cfg);
    layer_span.record("channel_scale", work.channel_scale);
    let mut phases = [SimStats::default(); 3];
    for (pi, phase) in work.phases.iter().enumerate() {
        let phase_started = Instant::now();
        let mut phase_span = ant_obs::span("phase");
        phase_span
            .record("phase", phase.phase.paper_name())
            .record("network", out.network)
            .record("machine", pe.name())
            .record("layer", layer.name.as_str())
            .record("pairs", phase.pairs.len());
        let mut phase_stats = SimStats::default();
        for pair in &phase.pairs {
            phase_stats.accumulate(&pe.simulate_conv_pair(&pair.kernel, &pair.image, &pair.shape));
        }
        out.simulated.accumulate(&phase_stats);
        phases[pi] = finalize_phase(phase_stats, phase.distinct_images(), work.scale);
        // The scaled stats are exactly this phase's contribution (delta)
        // to the network totals; attach them to the phase span, with the
        // host wall time this phase took to simulate and the derived
        // simulated-work-per-wall-second rates.
        if phase_span.is_recording() {
            let phase_wall_us = phase_started.elapsed().as_micros() as u64;
            phase_span.record_all(stats_fields(&phases[pi]));
            phase_span.record("host_wall_us", phase_wall_us);
            phase_span.record_all(throughput_fields(&phase_stats, phase_wall_us));
        }
        // `per_phase` is built in `[Forward, Backward, Update]` order, the
        // same order `LayerWork::phases` uses, so direct indexing holds.
        debug_assert_eq!(out.per_phase[pi].0, phase.phase);
    }
    out.push_layer(layer_index, &layer.name, phases);
}

/// One schedulable unit of work for profiling: the unscaled stats of a
/// single (kernel, image) pair, tagged with its provenance. Jobs come out
/// in the exact order [`simulate_network`] simulates them (same per-layer
/// seed derivation), so per-PE schedules built from them reflect the
/// sampled simulation.
#[derive(Debug, Clone)]
pub struct PairJob {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Source layer name.
    pub layer: String,
    /// Which training-phase convolution the pair belongs to.
    pub phase: TrainingPhase,
    /// Unscaled per-pair counters (attribution invariant holds).
    pub stats: SimStats,
}

/// Simulates every sampled (kernel, image) pair of `net` individually and
/// returns the per-pair stats, for schedulers and timeline builders that
/// need job granularity rather than network totals.
pub fn pair_jobs<S: ConvSim + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
) -> Vec<PairJob> {
    let mut jobs = Vec::new();
    for (li, layer) in net.layers.iter().enumerate() {
        let work = synthesize_layer_work(layer, li, cfg);
        for phase in &work.phases {
            for pair in &phase.pairs {
                let stats = pe.simulate_conv_pair(&pair.kernel, &pair.image, &pair.shape);
                stats.debug_assert_cycles_attributed("pair job");
                jobs.push(PairJob {
                    layer_index: li,
                    layer: layer.name.clone(),
                    phase: phase.phase,
                    stats,
                });
            }
        }
    }
    jobs
}

/// Simulates a set of matmul layers (transformer/RNN training phases,
/// paper Sections 5 and 7.8) on one PE model at uniform sparsity.
pub fn simulate_matmul_layers<S: ant_sim::MatmulSim + ?Sized>(
    pe: &S,
    layers: &[ant_workloads::models::MatmulLayerSpec],
    sparsity: f64,
    seed: u64,
) -> SimStats {
    let mut span = ant_obs::span("matmul_layers");
    span.record("layers", layers.len()).record("sparsity", sparsity);
    let mut total = SimStats::default();
    for (li, spec) in layers.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let shape = spec.shape();
        let (image, kernel) =
            ant_workloads::synth::synthesize_matmul(&shape, sparsity, sparsity, &mut rng);
        let stats = pe.simulate_matmul_pair(&image, &kernel, &shape);
        total.accumulate(&stats.scaled(spec.count as u64));
    }
    if span.is_recording() {
        span.record_all(stats_fields(&total));
    }
    total
}

/// Speedup of `fast` over `slow` in wall-clock cycles.
pub fn speedup(slow: &NetworkResult, fast: &NetworkResult) -> f64 {
    slow.wall_cycles as f64 / fast.wall_cycles as f64
}

/// Energy ratio `slow / fast` under the given model.
pub fn energy_ratio(
    slow: &NetworkResult,
    fast: &NetworkResult,
    model: &ant_sim::EnergyModel,
) -> f64 {
    slow.total.energy_pj(model) / fast.total.energy_pj(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_sim::ant::AntAccelerator;
    use ant_sim::scnn::ScnnPlus;
    use ant_workloads::models;

    fn tiny_net() -> NetworkModel {
        NetworkModel {
            name: "tiny",
            layers: vec![
                ant_workloads::ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
                ant_workloads::ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
            ],
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let pe = ScnnPlus::paper_default();
        let a = simulate_network(&pe, &net, &cfg);
        let b = simulate_network(&pe, &net, &cfg);
        assert_eq!(a.total, b.total);
        assert_eq!(a.wall_cycles, b.wall_cycles);
    }

    #[test]
    fn phases_sum_to_total() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let result = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let phase_sum: u64 = result.per_phase.iter().map(|(_, s)| s.mults).sum();
        assert_eq!(phase_sum, result.total.mults);
    }

    #[test]
    fn layer_phase_stats_sum_to_layer_and_network() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let result = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        let mut phase_sums = [SimStats::default(); 3];
        for layer in &result.per_layer {
            let mut layer_sum = SimStats::default();
            for (pi, phase) in layer.phases.iter().enumerate() {
                layer_sum.accumulate(phase);
                phase_sums[pi].accumulate(phase);
            }
            assert_eq!(layer_sum, layer.stats, "layer {}", layer.name);
        }
        for (sum, (_, network_phase)) in phase_sums.iter().zip(result.per_phase.iter()) {
            assert_eq!(sum, network_phase);
        }
    }

    #[test]
    fn update_phase_dominates_scnn_multiplications() {
        // The paper's core observation: under sparse training, G_A * A
        // dominates the outer-product work on an SCNN-like machine.
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let result = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let update = result
            .per_phase
            .iter()
            .find(|(p, _)| *p == TrainingPhase::Update)
            .unwrap()
            .1;
        assert!(update.mults > result.total.mults / 2);
    }

    #[test]
    fn ant_beats_scnn_on_cifar_scale_layers() {
        let cfg = ExperimentConfig::paper_default();
        let net = NetworkModel {
            name: "cifar-scale",
            layers: vec![ant_workloads::ConvLayerSpec::new("l", 8, 8, 3, 32, 1, 1, 1)],
        };
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        assert!(
            speedup(&scnn, &ant) > 2.0,
            "speedup {}",
            speedup(&scnn, &ant)
        );
        assert_eq!(ant.total.useful_mults, scnn.total.useful_mults);
        let energy = ant_sim::EnergyModel::paper_7nm();
        assert!(energy_ratio(&scnn, &ant, &energy) > 1.5);
    }

    #[test]
    fn tiny_layers_show_startup_overhead() {
        // Paper Section 7.6: on very small layers the 5-cycle start-up
        // erodes ANT's advantage (up to a 30% slowdown there). Our tiny net
        // should show a muted speedup, not a large one.
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        let s = speedup(&scnn, &ant);
        assert!(s > 0.7 && s < 3.0, "tiny-layer speedup {s}");
    }

    #[test]
    fn multiplicity_scales_counters() {
        let cfg = ExperimentConfig::paper_default();
        let one = NetworkModel {
            name: "x1",
            layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 2, 3, 16, 1, 1, 1)],
        };
        let two = NetworkModel {
            name: "x2",
            layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 2, 3, 16, 1, 1, 2)],
        };
        let r1 = simulate_network(&ScnnPlus::paper_default(), &one, &cfg);
        let r2 = simulate_network(&ScnnPlus::paper_default(), &two, &cfg);
        assert_eq!(r2.total.mults, 2 * r1.total.mults);
    }

    #[test]
    fn parallel_runner_is_bit_identical_to_serial() {
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = models::resnet18_cifar();
        let machines = [
            Box::new(ScnnPlus::paper_default()) as Box<dyn ConvSim + Sync>,
            Box::new(AntAccelerator::paper_default()),
        ];
        for machine in &machines {
            let pe = machine.as_ref();
            let serial = simulate_network(pe, &net, &cfg);
            let assert_matches = |parallel: &NetworkResult, label: &str| {
                assert_eq!(serial.total, parallel.total, "{label}");
                assert_eq!(serial.wall_cycles, parallel.wall_cycles, "{label}");
                for ((_, a), (_, b)) in serial.per_phase.iter().zip(parallel.per_phase.iter()) {
                    assert_eq!(a, b, "{label}");
                }
                assert_eq!(serial.per_layer.len(), parallel.per_layer.len(), "{label}");
                for (a, b) in serial.per_layer.iter().zip(parallel.per_layer.iter()) {
                    assert_eq!(a.index, b.index, "{label}");
                    assert_eq!(a.name, b.name, "{label}");
                    assert_eq!(a.stats, b.stats, "{label} layer {}", a.name);
                    assert_eq!(a.phases, b.phases, "{label} layer {}", a.name);
                }
            };
            // The work-stealing scheduler must be bit-identical for the
            // CPU-sized default (0), one worker, an even count, an odd
            // count, and more workers than layers (forcing heavy stealing
            // and partial deques).
            for threads in [0, 1, 2, 3, 8] {
                let opts = RunOptions {
                    threads: Some(threads),
                    ..RunOptions::default()
                };
                let parallel = try_simulate_network_parallel(pe, &net, &cfg, &opts).unwrap();
                assert_matches(&parallel, &format!("{} threads={threads}", pe.name()));
            }
        }
    }

    #[test]
    fn telemetry_and_progress_do_not_change_results() {
        // Acceptance gate: with scheduler telemetry and live progress both
        // forced on, cycles/energy stay byte-identical to the serial run
        // for any thread count.
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = models::resnet18_cifar();
        let pe = AntAccelerator::paper_default();
        let serial = simulate_network(&pe, &net, &cfg);
        let energy = ant_sim::EnergyModel::paper_7nm();
        for threads in [1, 2, 3, 7, 64] {
            let opts = RunOptions {
                threads: Some(threads),
                telemetry: Some(true),
                progress: Some(true),
                ..RunOptions::default()
            };
            let parallel = try_simulate_network_parallel(&pe, &net, &cfg, &opts).unwrap();
            assert_eq!(serial.total, parallel.total, "threads={threads}");
            assert_eq!(serial.wall_cycles, parallel.wall_cycles, "threads={threads}");
            assert_eq!(
                serial.total.energy_pj(&energy),
                parallel.total.energy_pj(&energy),
                "threads={threads}"
            );
            for ((_, a), (_, b)) in serial.per_phase.iter().zip(parallel.per_phase.iter()) {
                assert_eq!(a, b, "threads={threads}");
            }
        }
    }

    #[test]
    fn worker_telemetry_accounts_for_every_job() {
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = tiny_net();
        // One job per resident image: 2 layers x 3 phases x 2 sampled
        // images = 12 jobs, each streaming 2 kernels (24 pairs).
        let expected_jobs = 12u64;
        for threads in [1usize, 3, 16] {
            let opts = RunOptions {
                threads: Some(threads),
                telemetry: Some(true),
                ..RunOptions::default()
            };
            let result =
                try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts)
                    .unwrap();
            let workers = &result.workers;
            assert_eq!(workers.len(), threads.min(expected_jobs as usize));
            // Worker indices are dense and ordered.
            for (i, t) in workers.iter().enumerate() {
                assert_eq!(t.worker, i);
                assert!(t.wall_ns > 0, "worker {i} wall time");
                assert!(t.busy_ns <= t.wall_ns, "worker {i} busy <= wall");
                assert_eq!(t.idle_ns, t.wall_ns - t.busy_ns, "worker {i} idle");
                assert!(t.utilization() >= 0.0 && t.utilization() <= 1.0);
                // A successful steal is an attempt; failures are the rest.
                assert!(t.stolen + t.failed_steals == t.steal_attempts, "worker {i}");
                // ANT_PROFILE is not on in tests, so no slices are kept.
                assert!(t.slices.is_empty(), "worker {i} slices");
            }
            // Every job is executed exactly once, and the deal covers the
            // whole pool.
            assert_eq!(workers.iter().map(|t| t.executed).sum::<u64>(), expected_jobs);
            assert_eq!(workers.iter().map(|t| t.dealt).sum::<u64>(), expected_jobs);
            // Executed = dealt kept + stolen (globally).
            let stolen: u64 = workers.iter().map(|t| t.stolen).sum();
            assert!(stolen <= expected_jobs);
        }
        // Telemetry off: no worker records at all.
        let off = try_simulate_network_parallel(
            &ScnnPlus::paper_default(),
            &net,
            &cfg,
            &RunOptions {
                threads: Some(3),
                telemetry: Some(false),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(off.workers.is_empty());
    }

    #[test]
    fn worker_metrics_reach_the_registry() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let opts = RunOptions {
            threads: Some(2),
            telemetry: Some(true),
            ..RunOptions::default()
        };
        let _ = try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts)
            .unwrap();
        let registry = ant_obs::registry();
        assert!(registry.histogram("runner.worker.executed").count() >= 2);
        assert!(registry.histogram("runner.worker.busy_us").count() >= 2);
        assert!(registry.histogram("runner.worker.utilization").count() >= 2);
        assert!(registry.gauge("runner.worker.count").get() >= 1.0);
        // Snapshot keys are stable regardless of worker count: worker
        // attribution lives in histogram percentiles, not per-worker keys.
        let snapshot = registry.snapshot();
        assert!(snapshot
            .iter()
            .any(|(k, _)| k == "runner.worker.deque_hwm.count"));
        assert!(!snapshot.iter().any(|(k, _)| k.contains("worker.0.")));
    }

    #[test]
    fn attribution_survives_clamping_and_scaling() {
        // The startup clamp and f64 channel scaling must leave every level
        // of aggregation fully attributed: totals, phases, and layers.
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        for machine in [
            Box::new(ScnnPlus::paper_default()) as Box<dyn ConvSim>,
            Box::new(AntAccelerator::paper_default()),
        ] {
            let result = simulate_network(machine.as_ref(), &net, &cfg);
            assert!(result.total.cycles_attributed(), "total");
            for (phase, stats) in &result.per_phase {
                assert!(stats.cycles_attributed(), "phase {phase}");
            }
            assert_eq!(result.per_layer.len(), net.layers.len());
            let mut layer_sum = SimStats::default();
            for layer in &result.per_layer {
                assert!(layer.stats.cycles_attributed(), "layer {}", layer.name);
                layer_sum.accumulate(&layer.stats);
            }
            assert_eq!(layer_sum, result.total);
        }
    }

    #[test]
    fn pair_jobs_cover_the_sampled_network() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let jobs = super::pair_jobs(&ScnnPlus::paper_default(), &net, &cfg);
        assert!(!jobs.is_empty());
        // l1: 2 in x 4 out = 8 forward + 8 backward + 8 update pairs;
        // l2: 4 x 4 = 16 per phase.
        assert_eq!(jobs.len(), 3 * 8 + 3 * 16);
        for job in &jobs {
            assert!(job.stats.cycles_attributed(), "job in {}", job.layer);
            assert!(job.layer_index < net.layers.len());
        }
        // Jobs arrive in layer order.
        let indices: Vec<usize> = jobs.iter().map(|j| j.layer_index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn host_wall_time_and_throughput_are_populated() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let pe = ScnnPlus::paper_default();
        // The work actually simulated: every sampled pair's raw counters.
        let mut unscaled = SimStats::default();
        for job in pair_jobs(&pe, &net, &cfg) {
            unscaled.accumulate(&job.stats);
        }
        let serial = simulate_network(&pe, &net, &cfg);
        let opts = RunOptions {
            threads: Some(2),
            ..RunOptions::default()
        };
        let parallel = try_simulate_network_parallel(&pe, &net, &cfg, &opts).unwrap();
        for r in [&serial, &parallel] {
            assert_eq!(r.simulated, unscaled);
            // Channel scaling makes the represented work larger than the
            // simulated work; the host rates must not count it.
            assert!(r.total.pairs_total > unscaled.pairs_total);
            let t = r.throughput();
            // A fast machine can finish the tiny net in under a
            // microsecond; throughput then reports zero rates instead of
            // dividing by zero.
            if r.host_wall_us > 0 {
                assert!(t.sim_cycles_per_sec > 0.0);
                assert!(t.effectual_macs_per_sec > 0.0);
                let secs = r.host_wall_us as f64 / 1e6;
                let pairs = t.pairs_per_sec * secs;
                let want = unscaled.pairs_total as f64;
                assert!((pairs - want).abs() <= 1e-9 * want, "{pairs} vs {want}");
            } else {
                assert_eq!(t, ant_sim::Throughput::default());
            }
        }
        // The run fed the host-metrics registry.
        assert!(ant_obs::registry().histogram("runner.network_wall_us").count() > 0);
    }

    #[test]
    fn real_model_runs_end_to_end() {
        // Smoke-test a real shape DB (the smallest) through both machines.
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = models::resnet18_cifar();
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        assert!(scnn.wall_cycles > 0 && ant.wall_cycles > 0);
        assert!(ant.total.rcps_avoided_fraction() > 0.5);
    }
}
