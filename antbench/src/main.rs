//! End-to-end and per-layer benchmark of the ANT simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path antbench/Cargo.toml -- \
//!     --workload <fig09-cold|grid-cold|sweepd-mixed> --seed N --seconds S --trace <0|1>
//! cargo run --release --offline --manifest-path antbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics,
//! measured from benchmark-owned spans (written to `.antbench_out/`). Every
//! metric is printed by name with its unit; the last line of standard
//! output is the JSON result. An output check that fails makes the run exit
//! with code 1.
//!
//! End-to-end metrics:
//!
//! - `setup_s`: median of repeated set-ups (source digest, the seeded
//!   inputs, and for `sweepd-mixed` `Sweepd::start` on a fresh spool).
//! - `wall_s`: median wall time of one workload iteration; for
//!   `sweepd-mixed`, the time until the first `min_jobs` jobs completed.
//! - `peak_rss_mb`: the process's `VmHWM`; on the grid workloads, the
//!   median `VmHWM` of fresh processes that each run one iteration on a
//!   single inline worker.
//! - `ok_frac`: one minus failed over attempted operations (pair jobs on the
//!   grid workloads, submitted jobs on `sweepd-mixed`).
//! - `job_latency_p50_ms`, `job_latency_p90_ms`, `jobs_per_s`: a job is one
//!   runner call (or one matmul-layer set) on the grid workloads and one
//!   submitted job, from submit to the poll that sees it terminal, on
//!   `sweepd-mixed`.
//!
//! Per-layer metrics of a layer a workload does not exercise print as 0.

mod grid;
mod kernels;
mod prov;
mod report;
mod service;
mod spans;

use std::path::{Path, PathBuf};
use std::time::Instant;

use report::Outcome;
use spans::Spans;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Fresh processes `peak_rss_mb` takes the median of on the grid
/// workloads. Each runs one iteration on a single inline worker: with worker
/// threads, which allocator arena each layer lands in changes from process
/// to process and moves the peak by about 20%.
const RSS_PROBES: usize = 3;
const OUT_DIR: &str = ".antbench_out";
pub const WORKLOADS: [&str; 3] = ["fig09-cold", "grid-cold", "sweepd-mixed"];

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--self-test") {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

/// What set-up produced: the stamp, the workload's inputs, and (for the
/// service workload) the running daemon.
enum Prepared {
    Grid(grid::Plan),
    Service(service::Plan, ant_bench::serve::Sweepd, PathBuf),
}

/// One set-up: the digest of the code under test, the workload's inputs
/// from the seed, and for `sweepd-mixed` a started daemon on a fresh spool.
fn set_up(args: &Args, tiny: bool, spool: &Path) -> Result<(String, Prepared), String> {
    let digest = prov::source_digest();
    let prepared = match args.workload.as_str() {
        "fig09-cold" => Prepared::Grid(grid::Plan::fig09(args.seed, tiny)),
        "grid-cold" => Prepared::Grid(grid::Plan::grid(args.seed, tiny)),
        _ => {
            let plan = service::Plan::new(args.seed, tiny);
            let daemon = service::start(spool)?;
            Prepared::Service(plan, daemon, spool.to_path_buf())
        }
    };
    Ok((digest, prepared))
}

/// Runs one workload and returns its outcome.
fn run(args: &Args, tiny: bool) -> Result<Outcome, String> {
    let origin = Instant::now();
    let run_id = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let out_dir = Path::new(OUT_DIR).join(format!("{run_id}-{}", std::process::id()));
    let spool = out_dir.join("spool");
    // The grid workloads measure the cold path: the layer cache stays off.
    ant_bench::simcache::set_override(ant_bench::simcache::CacheOverride::Off);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (digest, p) = set_up(args, tiny, &spool)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            if let Prepared::Service(_, daemon, _) = p {
                daemon.shutdown();
            }
        } else {
            prepared = Some((digest, p));
        }
    }
    let (digest, prepared) = prepared.expect("at least one set-up");
    // Host and toolchain facts are stamped once, outside the timed set-up:
    // they describe the machine, not the program's set-up cost.
    let stamp = prov::Provenance::collect(digest);

    let (channel_sample, workers) = match &prepared {
        Prepared::Grid(plan) => (plan.channel_sample, prov::nproc()),
        Prepared::Service(..) => (4, prov::nproc()),
    };
    let stamp_json = stamp.json(&args.workload, args.seed, channel_sample, workers);
    println!("provenance {stamp_json}");

    let mut out = Outcome::default();
    let mut spans = Spans::new(origin);
    match (prepared, args.trace) {
        (Prepared::Grid(plan), false) => grid::run_untraced(&plan, args.seconds, &mut out),
        (Prepared::Grid(plan), true) => grid::run_traced(&plan, args.seconds, &mut out, &mut spans),
        (Prepared::Service(plan, daemon, spool), false) => {
            service::run_untraced(&plan, daemon, spool, args.seconds, &mut out)
        }
        (Prepared::Service(plan, daemon, spool), true) => service::run_traced(
            &plan,
            daemon,
            spool,
            args.seconds,
            &mut out,
            &mut spans,
            origin,
        ),
    }
    out.metrics
        .insert("setup_s".into(), report::median(&setup_s));
    let grid = args.workload != "sweepd-mixed";
    let peak = if grid && !args.trace && !tiny {
        probe_peak_rss(args)?
    } else {
        prov::peak_rss_mb()
    };
    out.metrics.insert("peak_rss_mb".into(), peak);
    out.metrics.insert(
        "ok_frac".into(),
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );

    let _ = std::fs::remove_dir_all(&out_dir);
    let stamp_path = Path::new(OUT_DIR).join(format!("{run_id}.provenance.json"));
    let _ = std::fs::create_dir_all(OUT_DIR);
    std::fs::write(&stamp_path, format!("{stamp_json}\n")).map_err(|e| e.to_string())?;
    if args.trace {
        for (name, t) in spans.layer_times(None) {
            println!(
                "span {name:<28} count {:>8} busy {:>12.3} ms self {:>12.3} ms",
                t.count,
                t.busy_ms(),
                t.self_ns as f64 / 1e6
            );
        }
        let path = Path::new(OUT_DIR).join(format!("{run_id}.spans.jsonl"));
        spans
            .write_jsonl(&path, &run_id)
            .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// Median peak memory of one grid iteration over fresh child processes.
fn probe_peak_rss(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--rss-probe", &args.workload, &seed])
            .output()
            .map_err(|e| format!("memory probe: {e}"))?;
        let peak = String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("peak_rss_mb "))
            .and_then(|v| v.parse::<f64>().ok());
        match peak {
            Some(mb) if out.status.success() => peaks.push(mb),
            _ => return Err(format!("memory probe failed ({})", out.status)),
        }
    }
    Ok(report::median(&peaks))
}

/// The child side of [`probe_peak_rss`]: one iteration, then the peak.
fn rss_probe(workload: &str, seed: &str) -> i32 {
    let Ok(seed) = seed.parse::<u64>() else {
        return 2;
    };
    let plan = match workload {
        "fig09-cold" => grid::Plan::fig09(seed, false),
        "grid-cold" => grid::Plan::grid(seed, false),
        _ => return 2,
    };
    ant_bench::simcache::set_override(ant_bench::simcache::CacheOverride::Off);
    if !grid::run_once(&plan) {
        return 1;
    }
    println!("peak_rss_mb {}", prov::peak_rss_mb());
    0
}

/// Refuses to measure while any `ANT_*` knob could change what runs.
fn ambient_knobs() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ANT_"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let knobs = ambient_knobs();
    if !knobs.is_empty() {
        eprintln!("antbench: refusing to run with ANT_* variables set: {knobs:?}");
        std::process::exit(2);
    }
    if let [flag, workload, seed] = args.as_slice() {
        if flag == "--rss-probe" {
            std::process::exit(rss_probe(workload, seed));
        }
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("antbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(args) = parsed else {
        std::process::exit(selftest::run());
    };
    match run(&args, false) {
        Ok(out) => {
            report::print_result(&out, args.trace);
            if !out.check_failures.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("antbench: {e}");
            std::process::exit(2);
        }
    }
}

mod selftest;
