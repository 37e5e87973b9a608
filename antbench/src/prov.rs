//! Run provenance and host measurements.

use std::path::Path;
use std::process::Command;

use ant_bench::fingerprint::StableHasher;

/// What every result is stamped with: the host, the toolchain, the program
/// under test, and the run's inputs.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_revision: Option<String>,
    /// FNV digest of the program's sources (`crates/` and `Cargo.lock`), which
    /// identifies the code under test where no git metadata exists.
    pub source_digest: String,
    pub model_version: u32,
}

impl Provenance {
    /// Collects the stamp; `source_digest` is computed by the caller (it
    /// is part of the timed set-up).
    pub fn collect(source_digest: String) -> Provenance {
        Provenance {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // Only ask git inside a checkout of its own: from a plain
            // directory it would report an enclosing repository's revision.
            git_revision: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten(),
            source_digest,
            model_version: ant_sim::MODEL_VERSION,
        }
    }

    /// The stamp as one JSON object, with the run's inputs added.
    pub fn json(&self, workload: &str, seed: u64, channel_sample: usize, workers: usize) -> String {
        let esc = |s: &str| {
            let mut out = String::new();
            ant_obs::json::write_json_string(s, &mut out);
            out
        };
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_revision\":{},\"source_digest\":{},\
             \"model_version\":{},\"workload\":{},\"seed\":{seed},\"channel_sample\":{channel_sample},\
             \"workers\":{workers}}}",
            self.nproc,
            esc(&self.cpu_model),
            esc(&self.rustc),
            self.git_revision.as_deref().map_or("null".to_string(), esc),
            esc(&self.source_digest),
            self.model_version,
            esc(workload),
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output; waits for the command.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

/// FNV digest of the program's sources, identifying the code under test.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut h = StableHasher::new();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            h.write_bytes(file.to_string_lossy().as_bytes());
            h.write_bytes(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, in MB.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir) as f64 / 1e6
}
