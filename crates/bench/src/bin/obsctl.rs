//! `obsctl`: unified offline analysis over the observability sidecars.
//!
//! ```text
//! obsctl trace      FILE [--name N] [--layer L] [--phase P] [--network NET]
//!                        [--machine M] [--top K] [--json]
//! obsctl flame      diff A.folded B.folded [--top K] [--json]
//! obsctl ledger     trend [--file PATH] [--label L] [--metric SUBSTR]
//!                         [--window N] [--threshold T] [--json]
//! obsctl status     <NAME|PATH|URL> [--follow] [--interval-ms N]
//! obsctl jobs       URL|FILE [--follow] [--interval-ms N]
//! obsctl redundancy FILE [--network NET] [--machine M] [--layer L]
//!                        [--phase P] [--top K] [--json]
//! obsctl cache      MANIFEST [--network NET] [--machine M] [--json]
//! ```
//!
//! Analysis only — every subcommand exits zero unless its input is
//! unusable; regression *gating* stays with `bench_history compare`. The
//! `--json` reports carry stable schemas (`ant-trace-stats/1`,
//! `ant-flame-diff/1`, `ant-ledger-trend/1`, `ant-redundancy-stats/1`,
//! `ant-cache-stats/1`); see `docs/OBSERVABILITY.md` for a walkthrough.

use std::path::PathBuf;
use std::process::ExitCode;

use ant_bench::history::{self, DEFAULT_LEDGER, DEFAULT_THRESHOLD};
use ant_bench::obsctl::{
    cache, flame, jobs, redundancy, status, take_flag, take_parsed, take_switch, trace, trend,
    Source,
};

const USAGE: &str = "usage: obsctl <trace|flame|ledger|status|jobs|redundancy|cache> [options]
  trace      FILE [--name N] [--layer L] [--phase P] [--network NET] [--machine M] [--top K] [--json]
  flame      diff A.folded B.folded [--top K] [--json]
  ledger     trend [--file PATH] [--label L] [--metric SUBSTR] [--window N] [--threshold T] [--json]
  status     <NAME|PATH|URL> [--follow] [--interval-ms N]
  jobs       URL|FILE [--follow] [--interval-ms N]
  redundancy FILE [--network NET] [--machine M] [--layer L] [--phase P] [--top K] [--json]
  cache      MANIFEST [--network NET] [--machine M] [--json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let outcome = match command.as_str() {
        "trace" => cmd_trace(rest),
        "flame" => cmd_flame(rest),
        "ledger" => cmd_ledger(rest),
        "status" => cmd_status(rest),
        "jobs" => cmd_jobs(rest),
        "redundancy" => cmd_redundancy(rest),
        "cache" => cmd_cache(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("obsctl: {message}");
            ExitCode::FAILURE
        }
    }
}

fn no_leftovers(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected arguments: {args:?}"))
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let filter = trace::TraceFilter {
        name: take_flag(&mut args, "--name")?,
        layer: take_flag(&mut args, "--layer")?,
        phase: take_flag(&mut args, "--phase")?,
        network: take_flag(&mut args, "--network")?,
        machine: take_flag(&mut args, "--machine")?,
    };
    let top = take_parsed(&mut args, "--top", 30usize)?;
    let json = take_switch(&mut args, "--json");
    let [file] = args.as_slice() else {
        return Err(format!("trace wants exactly one FILE, got {args:?}"));
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let report = trace::analyze(&text, &filter);
    if json {
        println!("{}", trace::to_json(&report, top));
    } else {
        print!("{}", trace::to_markdown(&report, top));
    }
    Ok(())
}

fn cmd_flame(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("flame wants a subcommand (diff)".to_string());
    };
    if sub != "diff" {
        return Err(format!("unknown flame subcommand {sub:?} (want diff)"));
    }
    let mut args = rest.to_vec();
    let top = take_parsed(&mut args, "--top", 30usize)?;
    let json = take_switch(&mut args, "--json");
    let [a, b] = args.as_slice() else {
        return Err(format!(
            "flame diff wants exactly two .folded files, got {args:?}"
        ));
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|text| flame::FoldedProfile::parse(&text))
            .map_err(|e| format!("cannot read {path}: {e}"))
    };
    let report = flame::diff(&read(a)?, &read(b)?);
    if json {
        println!("{}", flame::to_json(&report, a, b));
    } else {
        print!("{}", flame::to_markdown(&report, a, b, top));
    }
    Ok(())
}

fn cmd_ledger(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("ledger wants a subcommand (trend)".to_string());
    };
    if sub != "trend" {
        return Err(format!("unknown ledger subcommand {sub:?} (want trend)"));
    }
    let mut args = rest.to_vec();
    let path = take_flag(&mut args, "--file")?
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(DEFAULT_LEDGER));
    let opts = trend::TrendOptions {
        label: take_flag(&mut args, "--label")?,
        metric: take_flag(&mut args, "--metric")?,
        window: take_parsed(&mut args, "--window", 5usize)?.max(1),
        threshold: take_parsed(&mut args, "--threshold", DEFAULT_THRESHOLD)?,
    };
    let json = take_switch(&mut args, "--json");
    no_leftovers(&args)?;
    let (entries, skipped) =
        history::load_lenient(&path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    if skipped > 0 {
        eprintln!(
            "obsctl: ignored {skipped} unusable line(s) in {}",
            path.display()
        );
    }
    match trend::analyze(&entries, &opts) {
        trend::TrendOutcome::Report(report) => {
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_markdown());
            }
        }
        // Analysis tool, not a gate: an empty or one-entry ledger is a
        // report ("nothing to compare"), not a failure.
        trend::TrendOutcome::Nothing(reason) => println!("{reason}"),
    }
    Ok(())
}

fn cmd_redundancy(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let filter = redundancy::RedundancyFilter {
        network: take_flag(&mut args, "--network")?,
        machine: take_flag(&mut args, "--machine")?,
        layer: take_flag(&mut args, "--layer")?,
        phase: take_flag(&mut args, "--phase")?,
    };
    let top = take_parsed(&mut args, "--top", 30usize)?;
    let json = take_switch(&mut args, "--json");
    let [file] = args.as_slice() else {
        return Err(format!("redundancy wants exactly one FILE, got {args:?}"));
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let report = redundancy::analyze(&text, &filter);
    if report.rows_matched == 0 && report.lines_skipped > 0 {
        return Err(format!(
            "{file} holds no ant-redundancy/1 rows ({} unusable line(s))",
            report.lines_skipped
        ));
    }
    if json {
        println!("{}", redundancy::to_json(&report, top));
    } else {
        print!("{}", redundancy::to_markdown(&report, top));
    }
    Ok(())
}

fn cmd_cache(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let filter = cache::CacheFilter {
        network: take_flag(&mut args, "--network")?,
        machine: take_flag(&mut args, "--machine")?,
    };
    let json = take_switch(&mut args, "--json");
    let [file] = args.as_slice() else {
        return Err(format!("cache wants exactly one MANIFEST, got {args:?}"));
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let report = cache::analyze(&text, &filter).map_err(|e| format!("{file}: {e}"))?;
    if json {
        println!("{}", cache::to_json(&report));
    } else {
        print!("{}", cache::to_markdown(&report));
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let usage = "status wants exactly one NAME|PATH|URL";
    show(args, usage, status::source, status::render, status::is_done)
}

fn cmd_jobs(args: &[String]) -> Result<(), String> {
    let source = |operand: &str| Source::resolve(operand, "/jobs");
    show(
        args,
        "jobs wants exactly one URL|FILE",
        source,
        jobs::render,
        jobs::all_terminal,
    )
}

/// Renders the one operand's document, re-fetching every `--interval-ms`
/// under `--follow` until `done` says the run or board is finished.
fn show(
    args: &[String],
    usage: &str,
    source: impl Fn(&str) -> Source,
    render: fn(&str) -> Result<String, String>,
    done: fn(&str) -> bool,
) -> Result<(), String> {
    let mut args = args.to_vec();
    let follow = take_switch(&mut args, "--follow");
    let interval_ms = take_parsed(&mut args, "--interval-ms", 500u64)?.max(50);
    let [operand] = args.as_slice() else {
        return Err(format!("{usage}, got {args:?}"));
    };
    let source = source(operand);
    loop {
        let text = source.fetch()?;
        print!("{}", render(&text)?);
        if !follow || done(&text) {
            return Ok(());
        }
        println!("---");
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
