//! The per-binary experiment harness: banner, root span, progress, and
//! run-manifest emission.
//!
//! Every experiment binary follows the same life cycle — print a banner,
//! sweep some networks, render a table, write a CSV. [`Experiment`] wraps
//! that life cycle so each binary also gets, for free:
//!
//! * a root span named after the experiment (all runner spans nest under it
//!   when tracing is on),
//! * [`Experiment::progress`] step reporting on stderr,
//! * a [`ant_obs::RunManifest`] sidecar written next to the CSV recording
//!   config, git revision, wall time, outputs, and final stats.
//!
//! ```no_run
//! use ant_bench::obs::Experiment;
//! use ant_bench::report::Table;
//!
//! # fn main() -> Result<(), ant_sim::AntError> {
//! let mut exp = Experiment::start("fig99_example", "Figure 99: an example")?;
//! exp.config("sparsity", 0.9);
//! let table = Table::new(&["network"]);
//! // ... sweep, push rows ...
//! exp.finish(&table);
//! # Ok(())
//! # }
//! ```

use ant_obs::{ObsConfig, ObsError, RunManifest, Span, Value};
use ant_sim::AntError;

use crate::report::{experiments_dir, Table};

/// A parse of the observability environment ([`ant_obs::config::resolved`])
/// as the bench stack's error, checked at start-up by the harness, the
/// runner and `sweepd`.
///
/// # Errors
///
/// [`AntError::InvalidConfig`] naming the retired variable or `ANT_OBS`.
pub fn obs_config(parsed: &Result<ObsConfig, ObsError>) -> Result<&ObsConfig, AntError> {
    parsed
        .as_ref()
        .map_err(|e| AntError::invalid_config(e.param, e.reason.clone()))
}

/// One experiment binary's run: banner + root span + manifest.
#[derive(Debug)]
pub struct Experiment {
    name: &'static str,
    manifest: RunManifest,
    // Dropped (emitting the span) in `finish`, after the sweep completes.
    span: Span,
}

impl Experiment {
    /// Starts an experiment: checks the observability environment
    /// ([`obs_config`]), names the process's sidecars after `name`, prints
    /// `title` as the banner, opens the root span, and begins the run
    /// manifest.
    ///
    /// # Errors
    ///
    /// [`AntError::InvalidConfig`] for a rejected observability setting.
    pub fn start(name: &'static str, title: &str) -> Result<Self, AntError> {
        obs_config(ant_obs::config::resolved())?;
        // Before the first span: the trace file opens under this stem.
        ant_obs::config::set_stem(name);
        ant_obs::banner(title);
        // Bring up the embedded /metrics exporter when ANT_METRICS_ADDR
        // asks for one (no-op, zero-cost otherwise).
        ant_obs::export::init_from_env();
        let mut span = ant_obs::span("experiment");
        span.record("experiment", name);
        Ok(Self {
            name,
            manifest: RunManifest::new(name),
            span,
        })
    }

    /// The experiment name (used for output file stems).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one configuration entry in the manifest (and on the root
    /// span when tracing).
    pub fn config(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        let value = value.into();
        if self.span.is_recording() {
            self.span.record(key, value.clone());
        }
        self.manifest.config(key, value);
        self
    }

    /// Records the standard [`crate::runner::ExperimentConfig`] knobs.
    pub fn config_experiment(&mut self, cfg: &crate::runner::ExperimentConfig) -> &mut Self {
        self.config("max_channels", cfg.max_channels as u64)
            .config("num_pes", cfg.num_pes as u64)
            .config("seed", cfg.seed)
    }

    /// Records one final-stat entry in the manifest.
    pub fn stat(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        self.manifest.stat(key, value);
        self
    }

    /// Records one host-performance entry (wall-time rates, allocator
    /// counters) in the manifest's `host` section.
    pub fn host_stat(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        self.manifest.host_stat(key, value);
        self
    }

    /// Records a simulated-work-per-wall-second throughput
    /// ([`ant_sim::SimStats::throughput`]) in the manifest's `host` section.
    pub fn host_throughput(&mut self, stats: &ant_sim::SimStats, wall_secs: f64) -> &mut Self {
        for (key, value) in stats.throughput(wall_secs).fields() {
            self.manifest.host_stat(key, value);
        }
        self
    }

    /// A progress tracker labelled with this experiment's name.
    pub fn progress(&self, total: usize) -> ant_obs::Progress {
        ant_obs::Progress::new(self.name, total)
    }

    /// Direct access to the underlying manifest (for extra outputs).
    pub fn manifest(&mut self) -> &mut RunManifest {
        &mut self.manifest
    }

    /// Finishes the run: writes `table` as CSV + JSONL, writes the manifest
    /// sidecar next to them, closes the root span, and prints the output
    /// paths. I/O failures are reported on stderr, not fatal — the console
    /// table has already been shown.
    pub fn finish(self, table: &Table) {
        let Experiment {
            name,
            mut manifest,
            span,
        } = self;
        match table.write_with_manifest(name, &mut manifest) {
            Ok(path) => println!("\ncsv: {}", path.display()),
            Err(err) => eprintln!("output write failed: {err}"),
        }
        finalize(name, manifest, span);
    }

    /// Finishes a run that produced no table (microbenchmark-style
    /// binaries): writes only the manifest.
    pub fn finish_without_table(self) {
        let Experiment {
            name,
            manifest,
            span,
        } = self;
        finalize(name, manifest, span);
    }
}

/// Shared tail of every experiment: close the root span *first* (so its
/// wall time folds into the flame table), write the collapsed-stack
/// flamegraph under `ANT_OBS=flame`, fold host stats (allocator counters,
/// runner wall/throughput metrics) into the manifest, write it, and flush
/// the trace.
fn finalize(name: &'static str, mut manifest: RunManifest, span: Span) {
    span.close();
    match ant_obs::flame::write_if_enabled(name) {
        Ok(Some(path)) => {
            manifest.output(path.display().to_string());
            println!("flamegraph: {}", path.display());
        }
        Ok(None) => {}
        Err(err) => eprintln!("flamegraph write failed: {err}"),
    }
    manifest.record_alloc_stats();
    for (key, value) in ant_obs::registry().snapshot() {
        if key.starts_with("runner.") {
            manifest.host_stat(key, value);
        }
    }
    // Build identity in the host section: which revision produced these
    // host-side numbers — mirrors the same field in the live
    // `ant-status/1`.
    if let Some(rev) = ant_obs::manifest::git_revision_cached() {
        manifest.host_stat("git_revision", rev);
    }
    match manifest.write_to_dir(&experiments_dir()) {
        Ok(path) => println!("manifest: {}", path.display()),
        Err(err) => eprintln!("manifest write failed: {err}"),
    }
    ant_obs::trace::flush();
    // Keep short-lived runs scrapeable: ANT_METRICS_LINGER_MS holds the
    // process open after the run when the exporter is serving.
    ant_obs::export::linger_from_env();
}
