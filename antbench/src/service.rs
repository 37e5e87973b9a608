//! The `sweepd-mixed` workload: an in-process `Sweepd` driven over its
//! `/jobs` HTTP API by two closed-loop tenants.
//!
//! Each tenant submits a job, polls `GET /jobs/{id}` until the job is
//! terminal, then submits its next job. Jobs are small seeded grids; about
//! a third repeat an earlier spec exactly (they replay from checkpoints)
//! and the rest overlap earlier cells (they hit the layer cache), so store
//! writes run beside store reads.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ant_bench::runner::{try_simulate_network_parallel, RunOptions};
use ant_bench::serve::{http_post, JobSpec, Sweepd, SweepdConfig};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_obs::export::http_get;
use ant_obs::Json;
use ant_workloads::synth::synthesize_layer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, percentile, Outcome};
use crate::spans::Spans;

const MODELS: [&str; 3] = ["tiny", "resnet18", "vgg16"];
const MACHINES: [&str; 6] = ["scnn+", "ant", "dadiannao", "tensordash", "gospa", "dst"];
const SPARSITIES: [f64; 4] = [0.5, 0.8, 0.9, 0.95];
const TENANTS: usize = 2;
/// A job that is not terminal after this long fails the run.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// A grid cell: model, machine, and sparsity bits.
type Cell = (&'static str, &'static str, u64);
/// A result's counters by name, as `SimStats::fields` lists them.
type Fields = Vec<(&'static str, u64)>;

/// One generated job: what a tenant submits.
#[derive(Debug, Clone, PartialEq)]
struct Spec {
    model: &'static str,
    machines: Vec<&'static str>,
    sparsities: Vec<f64>,
    /// Index of the earlier job this one repeats exactly, if any.
    repeats: Option<usize>,
}

impl Spec {
    fn body(&self, tenant: usize, seed: u64) -> String {
        let machines: Vec<String> = self.machines.iter().map(|m| format!("\"{m}\"")).collect();
        let sparsities: Vec<String> = self.sparsities.iter().map(|s| format!("{s:?}")).collect();
        format!(
            "{{\"tenant\":\"t{tenant}\",\"model\":\"{}\",\"machines\":[{}],\"sparsities\":[{}],\"seed\":{seed}}}",
            self.model,
            machines.join(","),
            sparsities.join(",")
        )
    }

    fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for m in &self.machines {
            for s in &self.sparsities {
                out.push((self.model, *m, s.to_bits()));
            }
        }
        out
    }
}

/// The job sequence of one run, generated from the seed. Tenant `t` takes
/// jobs `t, t + 2, t + 4, ...`, so the inputs do not depend on timing.
pub struct Plan {
    specs: Vec<Spec>,
    /// The seed every job carries, so jobs share cells.
    job_seed: u64,
    pub min_jobs: usize,
}

impl Plan {
    /// Every third job repeats a seeded earlier fresh job exactly. The others
    /// walk the three models, the four grid shapes (1 or 2 machines x 1 or
    /// 2 sparsities), and seed-shuffled machine and sparsity orders in a
    /// fixed rotation, so every seed gets the same cost mix; the seed picks
    /// the operands, the orders, and which jobs repeat.
    pub fn new(seed: u64, tiny: bool) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ee9d);
        let models: &[&'static str] = if tiny { &MODELS[..1] } else { &MODELS };
        let mut machines = MACHINES;
        let mut sparsities = SPARSITIES;
        for i in (1..machines.len()).rev() {
            machines.swap(i, rng.gen_range(0..i + 1));
        }
        for i in (1..sparsities.len()).rev() {
            sparsities.swap(i, rng.gen_range(0..i + 1));
        }
        let mut specs: Vec<Spec> = Vec::new();
        // Earlier fresh jobs by grid shape: a repeat copies one of the
        // shape the rotation is at, so the cells per job follow the same
        // sequence for every seed.
        let mut by_shape: [Vec<usize>; 4] = Default::default();
        let mut fresh = 0usize;
        for i in 0..4000usize {
            if i % 3 == 2 {
                let same = &by_shape[(i / 3) % 4];
                let j = if same.is_empty() {
                    by_shape[0][rng.gen_range(0..by_shape[0].len())]
                } else {
                    same[rng.gen_range(0..same.len())]
                };
                let mut spec = specs[j].clone();
                spec.repeats = Some(j);
                specs.push(spec);
                continue;
            }
            let k = fresh;
            fresh += 1;
            let shape = (k / 3) % 4;
            by_shape[shape].push(i);
            let (n_machines, n_sparsities) = [(1, 1), (1, 2), (2, 1), (2, 2)][shape];
            specs.push(Spec {
                model: models[k % models.len()],
                machines: (0..n_machines)
                    .map(|r| machines[(k / 3 + 3 * r) % 6])
                    .collect(),
                sparsities: (0..n_sparsities)
                    .map(|r| sparsities[(k / 2 + 2 * r) % 4])
                    .collect(),
                repeats: None,
            });
        }
        Plan {
            specs,
            job_seed: seed,
            min_jobs: if tiny { 6 } else { 100 },
        }
    }
}

/// What one tenant saw of one job.
#[derive(Debug, Clone)]
struct JobRecord {
    index: usize,
    /// Root span of the job in the tenant's recorder (traced passes).
    span: Option<usize>,
    latency_ms: f64,
    post_ms: f64,
    last_get_ms: f64,
    get_ms: Vec<f64>,
    polls: u64,
    /// Final state tag, or an error description for failed submissions.
    state: String,
    shed: bool,
    duration_ms: f64,
    results: Option<(PathBuf, PathBuf)>,
}

/// One pass: a fresh daemon and spool, the tenants' closed loops, and
/// everything they recorded.
struct Pass {
    jobs: Vec<JobRecord>,
    /// Wall seconds until `min_jobs` jobs had completed.
    fixed_wall_s: f64,
    elapsed_s: f64,
    spans: Option<Spans>,
    registry_delta: BTreeMap<&'static str, u64>,
    spool: PathBuf,
}

const COUNTERS: [&str; 4] = [
    "runner.cache.hits",
    "runner.cache.misses",
    "runner.cache.analytic_hits",
    "sweepd.job.retries",
];

fn counters() -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&c| (c, ant_obs::registry().counter(c).get()))
        .collect()
}

/// The daemon configuration: shipped defaults except address, spool, and
/// per-job threads.
pub fn config(spool: &Path) -> SweepdConfig {
    SweepdConfig {
        addr: "127.0.0.1:0".to_string(),
        spool: spool.to_path_buf(),
        threads: Some(crate::prov::nproc()),
        ..SweepdConfig::default()
    }
}

/// Starts a daemon on a fresh spool, with the layer cache persisted inside
/// that spool.
pub fn start(spool: &Path) -> Result<Sweepd, String> {
    let _ = std::fs::remove_dir_all(spool);
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(spool.join("simcache")),
    }));
    Sweepd::start(config(spool)).map_err(|e| e.to_string())
}

/// Runs the tenants' closed loops against `daemon` until at least
/// `min_jobs` jobs completed and `seconds` elapsed.
fn drive(
    plan: &Plan,
    daemon: Sweepd,
    spool: PathBuf,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> Pass {
    let base = format!("http://{}", daemon.addr());
    let before = counters();
    let started = Instant::now();
    let completed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let fixed_wall = Mutex::new(None::<f64>);
    let mut per_tenant: Vec<(Vec<JobRecord>, Option<Spans>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                let (base, completed, stop, fixed_wall) = (&base, &completed, &stop, &fixed_wall);
                scope.spawn(move || {
                    let mut spans = trace.then(|| Spans::new(origin));
                    let mut records = Vec::new();
                    let mut index = tenant;
                    while !stop.load(Ordering::SeqCst) && index < plan.specs.len() {
                        let done = completed.load(Ordering::SeqCst);
                        if done >= plan.min_jobs && started.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let body = plan.specs[index].body(tenant, plan.job_seed);
                        let record = run_job(base, &body, index, spans.as_mut());
                        if completed.fetch_add(1, Ordering::SeqCst) + 1 == plan.min_jobs {
                            *fixed_wall.lock().expect("wall lock") =
                                Some(started.elapsed().as_secs_f64());
                        }
                        // A job that never finished cannot be waited out:
                        // stop both tenants and fail the run.
                        if record.state == "timeout" {
                            stop.store(true, Ordering::SeqCst);
                        }
                        records.push(record);
                        index += TENANTS;
                    }
                    (records, spans)
                })
            })
            .collect();
        for h in handles {
            per_tenant.push(h.join().expect("tenant thread"));
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    daemon.shutdown();
    let after = counters();
    let mut spans = trace.then(|| Spans::new(origin));
    let mut jobs = Vec::new();
    for (mut records, tenant_spans) in per_tenant {
        if let (Some(all), Some(ts)) = (spans.as_mut(), tenant_spans) {
            let offset = all.len();
            for r in &mut records {
                r.span = r.span.map(|s| s + offset);
            }
            all.absorb(ts, None);
        }
        jobs.extend(records);
    }
    jobs.sort_by_key(|j| j.index);
    let fixed_wall_s = fixed_wall
        .into_inner()
        .expect("wall lock")
        .unwrap_or(elapsed_s);
    Pass {
        jobs,
        fixed_wall_s,
        elapsed_s,
        spans,
        registry_delta: after.iter().map(|(k, v)| (*k, v - before[k])).collect(),
        spool,
    }
}

/// Submits one job and polls it to a terminal state.
fn run_job(base: &str, body: &str, index: usize, mut spans: Option<&mut Spans>) -> JobRecord {
    let mut record = JobRecord {
        index,
        span: None,
        latency_ms: 0.0,
        post_ms: 0.0,
        last_get_ms: 0.0,
        get_ms: Vec::new(),
        polls: 0,
        state: String::new(),
        shed: false,
        duration_ms: 0.0,
        results: None,
    };
    let t0 = Instant::now();
    let root = spans.as_deref_mut().map(|s| s.open("serve.job"));
    let post = timed(&mut spans, "serve.post", || {
        http_post(&format!("{base}/jobs"), body)
    });
    record.post_ms = post.1;
    let id = match post.0 {
        Ok((202, text)) => ant_obs::parse_json(text.trim())
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string)),
        Ok((code, text)) => {
            record.shed = code == 429 || code == 503;
            record.state = format!("http {code}: {}", text.trim());
            None
        }
        Err(e) => {
            record.state = format!("post failed: {e}");
            None
        }
    };
    if let Some(id) = id {
        let url = format!("{base}/jobs/{id}");
        loop {
            if t0.elapsed() > JOB_TIMEOUT {
                record.state = "timeout".to_string();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            let (got, ms) = timed(&mut spans, "serve.get", || http_get(&url));
            record.polls += 1;
            record.get_ms.push(ms);
            record.last_get_ms = ms;
            let json = match got {
                Ok((200, text)) => ant_obs::parse_json(text.trim()).ok(),
                Ok((code, _)) => {
                    record.state = format!("http {code} on poll");
                    break;
                }
                Err(e) => {
                    record.state = format!("poll failed: {e}");
                    break;
                }
            };
            let Some(json) = json else {
                record.state = "unparsable job record".to_string();
                break;
            };
            let state = json
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            if matches!(state.as_str(), "done" | "quarantined" | "expired") {
                record.duration_ms = json
                    .get("duration_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let path = |k: &str| json.get(k).and_then(Json::as_str).map(PathBuf::from);
                record.results = path("results_csv").zip(path("results_jsonl"));
                record.state = state;
                break;
            }
        }
    }
    record.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(s), Some(root)) = (spans, root) {
        s.close(root);
        record.span = Some(root);
    }
    record
}

/// Runs `f`, recording a span when tracing; returns its result and
/// wall milliseconds.
fn timed<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = match spans.as_deref_mut() {
        Some(s) => s.time(name, |_| f()),
        None => f(),
    };
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Checks a pass's results and counts its failures. Returns the direct
/// runner milliseconds per cell, keyed by cell.
fn check_pass(plan: &Plan, pass: &Pass, out: &mut Outcome) -> BTreeMap<Cell, f64> {
    out.attempted += pass.jobs.len() as u64;
    let mut first_result: BTreeMap<usize, (String, String)> = BTreeMap::new();
    let mut rows: Vec<(usize, String)> = Vec::new();
    for job in &pass.jobs {
        if job.state != "done" {
            // Shed, refused, quarantined, and expired jobs count as failed
            // operations; a job that never finished also fails the run.
            out.failed += 1;
            out.check(job.state != "timeout", || {
                format!("job {}: not terminal", job.index)
            });
            continue;
        }
        let Some((csv_path, jsonl_path)) = &job.results else {
            out.check(false, || {
                format!("job {}: done without result paths", job.index)
            });
            continue;
        };
        let (Ok(csv), Ok(jsonl)) = (
            std::fs::read_to_string(csv_path),
            std::fs::read_to_string(jsonl_path),
        ) else {
            out.check(false, || {
                format!("job {}: result files unreadable", job.index)
            });
            continue;
        };
        let origin = plan.specs[job.index].repeats.unwrap_or(job.index);
        match first_result.get(&origin) {
            Some((c, j)) => out.check(*c == csv && *j == jsonl, || {
                format!(
                    "job {} (repeat of {origin}): results differ from the first run",
                    job.index
                )
            }),
            None => {
                first_result.insert(origin, (csv, jsonl.clone()));
            }
        }
        rows.push((job.index, jsonl));
    }
    // Every cell must equal a direct runner call with the cache off, so a
    // cache or checkpoint replay cannot hide a wrong answer.
    simcache::set_override(CacheOverride::Off);
    let mut direct: BTreeMap<Cell, (Fields, f64)> = BTreeMap::new();
    for (index, jsonl) in rows {
        let spec = &plan.specs[index];
        let parsed = JobSpec::parse(&spec.body(0, plan.job_seed)).expect("generated spec parses");
        let lines: Vec<&str> = jsonl.lines().collect();
        let cells = spec.cells();
        out.check(lines.len() == cells.len(), || {
            format!(
                "job {index}: {} result rows for {} cells",
                lines.len(),
                cells.len()
            )
        });
        for (line, cell) in lines.iter().zip(&cells) {
            let expected = direct.entry(*cell).or_insert_with(|| {
                let machine = JobSpec::build_machine(cell.1).expect("registry machine");
                let cfg = parsed.experiment_config(f64::from_bits(cell.2));
                let opts = RunOptions {
                    threads: Some(crate::prov::nproc()),
                    progress: Some(false),
                    ..RunOptions::default()
                };
                let t = Instant::now();
                let result = try_simulate_network_parallel(
                    machine.as_ref(),
                    &parsed.build_model(),
                    &cfg,
                    &opts,
                );
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok(r) if !r.partial && r.total.cycles_attributed() => {
                        (r.total.fields().to_vec(), ms)
                    }
                    _ => (Vec::new(), ms),
                }
            });
            out.check(cell_matches(&expected.0, line), || {
                format!("job {index}: cell {cell:?} differs from a direct runner call")
            });
        }
    }
    direct.into_iter().map(|(k, (_, ms))| (k, ms)).collect()
}

/// Whether a result row's stats equal the expected counters exactly.
pub fn cell_matches(expected: &[(&'static str, u64)], line: &str) -> bool {
    let stats = ant_obs::parse_json(line)
        .ok()
        .and_then(|j| j.get("stats").cloned());
    !expected.is_empty()
        && stats.is_some_and(|s| {
            expected
                .iter()
                .all(|(name, v)| s.get(name).and_then(Json::as_u64) == Some(*v))
        })
}

/// The untraced run: end-to-end metrics from one pass.
pub fn run_untraced(plan: &Plan, daemon: Sweepd, spool: PathBuf, seconds: f64, out: &mut Outcome) {
    let pass = drive(plan, daemon, spool, seconds, false, Instant::now());
    check_pass(plan, &pass, out);
    let lat: Vec<f64> = pass.jobs.iter().map(|j| j.latency_ms).collect();
    let done = pass.jobs.iter().filter(|j| j.state == "done").count();
    let m = &mut out.metrics;
    m.insert("wall_s".into(), pass.fixed_wall_s);
    m.insert("job_latency_p50_ms".into(), percentile(&lat, 50.0));
    m.insert("job_latency_p90_ms".into(), percentile(&lat, 90.0));
    m.insert("jobs_per_s".into(), done as f64 / pass.elapsed_s);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.0}", percentile(&lat, d as f64 * 10.0)))
        .collect();
    println!(
        "samples: {} jobs in {:.1} s ({} tenants, closed loop; latency deciles ms {}); \
         wall_s covers the first {}",
        lat.len(),
        pass.elapsed_s,
        TENANTS,
        deciles.join(" "),
        plan.min_jobs
    );
    let _ = std::fs::remove_dir_all(&pass.spool);
}

/// The traced run: an untraced pass, then a traced pass on a fresh daemon
/// and spool with the same jobs; per-layer metrics come from the traced
/// pass's spans.
pub fn run_traced(
    plan: &Plan,
    daemon: Sweepd,
    spool: PathBuf,
    seconds: f64,
    out: &mut Outcome,
    all_spans: &mut Spans,
    origin: Instant,
) {
    let plain = drive(plan, daemon, spool.clone(), seconds / 2.0, false, origin);
    check_pass(plan, &plain, out);
    let _ = std::fs::remove_dir_all(&plain.spool);
    let traced_spool = spool.with_file_name("spool-traced");
    let daemon = match start(&traced_spool) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("second daemon: {e}"));
            return;
        }
    };
    let pass = drive(plan, daemon, traced_spool, seconds / 2.0, true, origin);
    let direct_ms = check_pass(plan, &pass, out);
    let spans = pass.spans.as_ref().expect("traced pass records spans");
    let mut m = BTreeMap::new();

    // Serve layer, per job from its spans: submit, polls, and the rest of
    // the latency split into the record's run time and the wait around it.
    let (mut post, mut get, mut wait, mut run, mut overhead, mut polls) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for job in pass.jobs.iter().filter(|j| j.state == "done") {
        let Some(root) = job.span else { continue };
        let times = spans.layer_times(Some(root));
        let busy = |n: &str| times.get(n).map_or(0.0, |t| t.busy_ms());
        let latency = busy("serve.job");
        post.push(busy("serve.post"));
        get.extend_from_slice(&job.get_ms);
        polls.push(job.polls as f64);
        run.push(job.duration_ms);
        wait.push(latency - busy("serve.post") - job.duration_ms - job.last_get_ms);
        let cells_ms: f64 = plan.specs[job.index]
            .cells()
            .iter()
            .map(|c| direct_ms.get(c).copied().unwrap_or(0.0))
            .sum();
        overhead.push(job.duration_ms - cells_ms);
    }
    m.insert("serve.jobs".to_string(), pass.jobs.len() as f64);
    m.insert("serve.post_ms_p50".to_string(), median(&post));
    m.insert("serve.get_ms_p50".to_string(), median(&get));
    m.insert("serve.polls_per_job".to_string(), median(&polls));
    m.insert("serve.wait_ms_p50".to_string(), median(&wait));
    m.insert("serve.run_ms_p50".to_string(), median(&run));
    m.insert("serve.run_overhead_ms_p50".to_string(), median(&overhead));
    let mut seen = BTreeSet::new();
    let (mut cells, mut repeated) = (0usize, 0usize);
    for job in &pass.jobs {
        for cell in plan.specs[job.index].cells() {
            cells += 1;
            repeated += usize::from(!seen.insert(cell));
        }
    }
    m.insert(
        "serve.repeat_cell_frac".to_string(),
        repeated as f64 / cells.max(1) as f64,
    );
    let shed = pass.jobs.iter().filter(|j| j.shed).count();
    m.insert("serve.shed".to_string(), shed as f64);
    m.insert(
        "serve.retries".to_string(),
        pass.registry_delta["sweepd.job.retries"] as f64,
    );
    m.insert(
        "serve.spool_mb".to_string(),
        crate::prov::dir_mb(&pass.spool),
    );

    // Cache and checkpoint layers, from the registry and the spool.
    let (hits, misses) = (
        pass.registry_delta["runner.cache.hits"],
        pass.registry_delta["runner.cache.misses"],
    );
    m.insert("simcache.hits".to_string(), hits as f64);
    m.insert("simcache.misses".to_string(), misses as f64);
    m.insert(
        "simcache.hit_frac".to_string(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let entries = std::fs::read_to_string(pass.spool.join("simcache").join("simcache.jsonl"))
        .map_or(0, |t| t.lines().count());
    m.insert("simcache.entries".to_string(), entries as f64);
    m.insert(
        "simcache.store_mb".to_string(),
        crate::prov::dir_mb(&pass.spool.join("simcache")),
    );
    let ckpts: Vec<PathBuf> = std::fs::read_dir(&pass.spool)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".jsonl"))
                })
                .collect()
        })
        .unwrap_or_default();
    let ckpt_bytes: u64 = ckpts
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    m.insert("checkpoint.files".to_string(), ckpts.len() as f64);
    m.insert("checkpoint.mb".to_string(), ckpt_bytes as f64 / 1e6);
    let replayed = pass
        .jobs
        .iter()
        .filter(|j| j.state == "done" && plan.specs[j.index].repeats.is_some())
        .count();
    m.insert("checkpoint.replayed_jobs".to_string(), replayed as f64);

    // Analytic tier: pairs it answered over the sampled pairs of every
    // completed cell.
    let pairs: u64 = pass
        .jobs
        .iter()
        .filter(|j| j.state == "done")
        .map(|j| {
            let spec = &plan.specs[j.index];
            let parsed = JobSpec::parse(&spec.body(0, plan.job_seed)).expect("spec");
            let mc = parsed.max_channels;
            let per_cell: u64 = parsed
                .build_model()
                .layers
                .iter()
                .map(|l| 3 * (l.out_channels.min(mc) * l.in_channels.min(mc)) as u64)
                .sum();
            per_cell * spec.cells().len() as u64
        })
        .sum();
    m.insert(
        "sim.analytic_pair_frac".to_string(),
        pass.registry_delta["runner.cache.analytic_hits"] as f64 / pairs.max(1) as f64,
    );

    let plain_per_job = plain.fixed_wall_s / plan.min_jobs as f64;
    let traced_per_job = pass.fixed_wall_s / plan.min_jobs as f64;
    m.insert(
        "harness.trace_overhead_frac".to_string(),
        traced_per_job / plain_per_job - 1.0,
    );
    m.extend(crate::kernels::time_kernels(&sample_layers(plan)));
    out.metrics.extend(m);
    let _ = std::fs::remove_dir_all(&pass.spool);
    if let Some(spans) = pass.spans {
        all_spans.absorb(spans, None);
    }
    println!(
        "samples: {} traced jobs, {} untraced",
        pass.jobs.len(),
        plain.jobs.len()
    );
}

/// The first layers of ResNet18 as the jobs synthesize them, for the
/// single-kernel timings.
fn sample_layers(plan: &Plan) -> Vec<ant_workloads::synth::SynthesizedLayer> {
    let spec = JobSpec::parse(&plan.specs[0].body(0, plan.job_seed)).expect("spec");
    let cfg = spec.experiment_config(0.9);
    ant_workloads::models::resnet18_cifar()
        .layers
        .iter()
        .enumerate()
        .take(6)
        .map(|(li, layer)| {
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            synthesize_layer(layer, &cfg.sparsity, cfg.max_channels, &mut rng)
        })
        .collect()
}
