//! `bench_history`: record benchmark runs into the append-only ledger and
//! compare entries with trend-aware regression gating — the one front end
//! over the repository's performance record.
//!
//! ```text
//! bench_history record  [--label LABEL] [--repeats K] [--file PATH]
//! bench_history compare [--file PATH] [--threshold T] [--window N]
//!                       [--self] [--report PATH] [--json PATH] [REF_A REF_B]
//! bench_history list    [--file PATH] [--json]
//! ```
//!
//! `record` measures one workload set and appends one JSONL entry, stamped
//! with the host it ran on, to the ledger (default `BENCH_history.jsonl`
//! in the working directory). Labels: `fig09`, `fig09@16` (channel sample
//! 16), `fig09-warm`, `tiny` and `tiny-warm` rerun networks in-process
//! (min-of-K wall repeats, allocation counting on); `microbench` times the full kernel grid and
//! `microbench-tiny` its one-point CI grid (`kernel/...` metrics).
//!
//! `compare` gates a candidate entry against a baseline and exits non-zero
//! on regression. Refs are ledger indices (`0` oldest, negatives from the
//! end), git-revision prefixes, or `HEAD` (the newest entry). With no refs:
//! the newest entry against the rolling-median baseline of
//! `ant_bench::history::select` over the previous `--window` same-label
//! entries; with no prior same-label entry, it reports that there is
//! nothing to compare and exits zero. Host and kernel metrics gate only
//! when both sides ran on the same known host; otherwise they are listed as
//! `other host` with a warning. `--self` compares the newest entry to
//! itself (a CI smoke: must report zero regressions). `--json PATH`
//! additionally writes the machine-readable report (schema
//! `ant-bench-compare/1`) for CI steps to parse.
//!
//! `list` prints one line per ledger entry; `--json` emits the
//! machine-readable listing instead (schema `ant-bench-list/1`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ant_bench::history::{
    self, CompareReport, HistoryEntry, WorkloadSet, DEFAULT_LEDGER, DEFAULT_THRESHOLD,
};
use ant_bench::obs::Experiment;
use ant_bench::obsctl::{take_flag, take_switch};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: bench_history <record|compare|list> [options]");
        return ExitCode::FAILURE;
    };
    match command.as_str() {
        "record" => cmd_record(rest),
        "compare" => cmd_compare(rest),
        "list" => cmd_list(rest),
        other => {
            eprintln!("bench_history: unknown command {other:?} (want record, compare, or list)");
            ExitCode::FAILURE
        }
    }
}

fn ledger_path(args: &mut Vec<String>) -> Result<PathBuf, String> {
    Ok(take_flag(args, "--file")?
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(DEFAULT_LEDGER)))
}

fn fail(message: &str) -> ExitCode {
    eprintln!("bench_history: {message}");
    ExitCode::FAILURE
}

fn cmd_record(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let path = match ledger_path(&mut args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let label = match take_flag(&mut args, "--label") {
        Ok(v) => v.unwrap_or_else(|| "fig09".to_string()),
        Err(e) => return fail(&e),
    };
    let repeats = match take_flag(&mut args, "--repeats") {
        Ok(v) => match v.as_deref().map(str::parse::<u32>).transpose() {
            Ok(n) => n.unwrap_or(3),
            Err(_) => return fail("--repeats wants an integer"),
        },
        Err(e) => return fail(&e),
    };
    if !args.is_empty() {
        return fail(&format!("unexpected arguments: {args:?}"));
    }
    let Some(set) = WorkloadSet::from_label(&label) else {
        return fail(&format!(
            "unknown label {label:?} (want fig09, fig09@16, fig09-warm, tiny, tiny-warm, microbench, or microbench-tiny)"
        ));
    };

    let mut exp = match Experiment::start("bench_history", "Bench history: record") {
        Ok(exp) => exp,
        Err(e) => return fail(&e.to_string()),
    };
    exp.config("label", label.as_str())
        .config("repeats", repeats as u64)
        .config("ledger", path.display().to_string());
    let entry = match history::record(set, repeats) {
        Ok(entry) => entry,
        Err(e) => return fail(&e.to_string()),
    };
    if let Err(err) = history::append(&path, &entry) {
        eprintln!("bench_history: cannot append to {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "recorded {} ({} metrics, {} repeats) -> {}",
        entry.describe(),
        entry.metrics.len(),
        entry.repeats,
        path.display()
    );
    for (name, value) in &entry.metrics {
        exp.manifest().host_stat(name.clone(), *value);
    }
    exp.stat("metrics", entry.metrics.len() as u64);
    exp.manifest().output(path.display().to_string());
    exp.finish_without_table();
    ExitCode::SUCCESS
}

/// Resolves a compare ref against the ledger: `HEAD`, an index (negatives
/// count from the end), or a git-revision prefix.
fn resolve_ref<'a>(
    entries: &'a [HistoryEntry],
    reference: &str,
) -> Result<&'a HistoryEntry, String> {
    if reference == "HEAD" {
        return entries.last().ok_or_else(|| "ledger is empty".to_string());
    }
    if let Ok(index) = reference.parse::<i64>() {
        let n = entries.len() as i64;
        let resolved = if index < 0 { n + index } else { index };
        return usize::try_from(resolved)
            .ok()
            .and_then(|i| entries.get(i))
            .ok_or_else(|| format!("index {reference} out of range (ledger has {n} entries)"));
    }
    // Newest run of that revision.
    entries
        .iter()
        .rev()
        .find(|e| {
            e.git_revision
                .as_deref()
                .is_some_and(|rev| rev.starts_with(reference))
        })
        .ok_or_else(|| format!("no entry with revision prefix {reference:?}"))
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let path = match ledger_path(&mut args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let threshold = match take_flag(&mut args, "--threshold") {
        Ok(v) => match v.as_deref().map(str::parse::<f64>).transpose() {
            Ok(t) => t.unwrap_or(DEFAULT_THRESHOLD),
            Err(_) => return fail("--threshold wants a number"),
        },
        Err(e) => return fail(&e),
    };
    let window = match take_flag(&mut args, "--window") {
        Ok(v) => match v.as_deref().map(str::parse::<usize>).transpose() {
            Ok(n) => n.unwrap_or(5).max(1),
            Err(_) => return fail("--window wants an integer"),
        },
        Err(e) => return fail(&e),
    };
    let self_compare = take_switch(&mut args, "--self");
    let report_path = match take_flag(&mut args, "--report") {
        Ok(v) => v.map(PathBuf::from),
        Err(e) => return fail(&e),
    };
    let json_path = match take_flag(&mut args, "--json") {
        Ok(v) => v.map(PathBuf::from),
        Err(e) => return fail(&e),
    };
    let entries = match history::load_lenient(&path) {
        Ok((entries, skipped)) => {
            if skipped > 0 {
                eprintln!(
                    "bench_history: ignored {skipped} unusable line(s) in {}",
                    path.display()
                );
            }
            entries
        }
        Err(err) => return fail(&format!("cannot load {}: {err}", path.display())),
    };

    let (baseline, candidate): (HistoryEntry, HistoryEntry) = if self_compare {
        let Some(last) = entries.last() else {
            return fail("--self needs at least one ledger entry");
        };
        (last.clone(), last.clone())
    } else if args.len() == 2 {
        let a = match resolve_ref(&entries, &args[0]) {
            Ok(e) => e.clone(),
            Err(e) => return fail(&e),
        };
        let b = match resolve_ref(&entries, &args[1]) {
            Ok(e) => e.clone(),
            Err(e) => return fail(&e),
        };
        (a, b)
    } else if args.is_empty() {
        match history::select(&entries, None, window) {
            Ok(selection) => (selection.baseline, selection.candidate.clone()),
            Err(reason) => {
                println!("{}: {reason}", path.display());
                return ExitCode::SUCCESS;
            }
        }
    } else {
        return fail("expected zero or two refs (or --self)");
    };

    let report = history::compare(&baseline, &candidate, threshold);
    finish_report(&report, report_path.as_deref(), json_path.as_deref())
}

fn finish_report(
    report: &CompareReport,
    report_path: Option<&Path>,
    json_path: Option<&Path>,
) -> ExitCode {
    let markdown = report.to_markdown();
    print!("{markdown}");
    let out = report_path
        .map(PathBuf::from)
        .unwrap_or_else(|| ant_bench::report::experiments_dir().join("bench_history_compare.md"));
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&out, &markdown) {
        Ok(()) => println!("report: {}", out.display()),
        Err(err) => eprintln!("report write failed ({}): {err}", out.display()),
    }
    if let Some(json_out) = json_path {
        if let Some(parent) = json_out.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        let mut body = report.to_json();
        body.push('\n');
        match std::fs::write(json_out, body) {
            Ok(()) => println!("json report: {}", json_out.display()),
            Err(err) => {
                eprintln!("json report write failed ({}): {err}", json_out.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if report.has_regressions() {
        eprintln!(
            "bench_history: {} regression(s) over gate",
            report.regressions().len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_list(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let path = match ledger_path(&mut args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let json = take_switch(&mut args, "--json");
    if !args.is_empty() {
        return fail(&format!("unexpected arguments: {args:?}"));
    }
    let (entries, skipped) = match history::load_lenient(&path) {
        Ok((entries, skipped)) => {
            if skipped > 0 {
                eprintln!(
                    "bench_history: ignored {skipped} unusable line(s) in {}",
                    path.display()
                );
            }
            (entries, skipped)
        }
        Err(err) => return fail(&format!("cannot load {}: {err}", path.display())),
    };
    if json {
        println!("{}", history::list_json(&entries, skipped));
        return ExitCode::SUCCESS;
    }
    if entries.is_empty() {
        println!("ledger {} is empty", path.display());
        return ExitCode::SUCCESS;
    }
    for (i, entry) in entries.iter().enumerate() {
        println!(
            "[{i}] {}  ts={}  repeats={}  metrics={}",
            entry.describe(),
            entry.timestamp_unix_ms,
            entry.repeats,
            entry.metrics.len()
        );
    }
    ExitCode::SUCCESS
}
