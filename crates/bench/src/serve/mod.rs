//! `ant-sweepd`: a fault-tolerant, multi-tenant sweep service.
//!
//! The `sweepd` binary wraps the work-stealing runner in a long-lived,
//! std-only HTTP/JSONL daemon:
//!
//! - [`spec`] — validated job specifications ([`JobSpec`]): model, machine
//!   list, sparsity grid, tenant, priority weight, deadline. Malformed
//!   submissions are rejected with typed 400s before touching the queue.
//! - [`queue`] — bounded weighted-fair admission ([`FairQueue`], stride
//!   scheduling): a weight-`w` tenant drains `w`× faster, nobody starves,
//!   and submissions past capacity shed with a typed 429.
//! - [`daemon`] — supervision ([`Sweepd`]): every attempt runs under
//!   `catch_unwind`, failures retry on a deterministic exponential-backoff
//!   schedule then quarantine, job deadlines cancel at pair-job boundaries
//!   via [`RunOptions::deadline_us`](crate::runner::RunOptions::deadline_us),
//!   and every state transition persists to a spool so a `kill -9` recovers
//!   to byte-identical results. Completed layers live in the spool's layer
//!   cache (`<spool>/simcache`, the [`crate::simcache`] store), so a
//!   recovered or re-submitted job *resumes* as a warm run. The wire
//!   surface is `POST /jobs` and `GET /jobs[/{id}]`, served on the shared
//!   `ant-obs` HTTP server next to its `GET /status`, `GET /metrics`, and
//!   `GET /healthz`.
//!
//! Service health shows up in the process metrics registry as
//! `sweepd.queue.*` and `sweepd.job.*`, scrapeable from the daemon's own
//! `/metrics` endpoint and renderable with `obsctl`.

pub mod daemon;
pub mod queue;
pub mod spec;

pub use ant_obs::export::http_post;
pub use daemon::{
    backoff_ms, AttemptRecord, Job, JobState, Sweepd, BACKOFF_SEED, ERROR_SCHEMA, JOBS_SCHEMA,
    JOB_SCHEMA, RESULT_SCHEMA,
};
pub use queue::{FairQueue, Shed};
pub use spec::{JobSpec, MACHINES, MAX_WEIGHT, MODELS, SPARSIFIERS};

use std::collections::HashMap;
use std::path::PathBuf;

use ant_obs::experiments_dir;

/// Daemon configuration, resolved once at startup (the three deployment
/// variables plus defaults; see [`SweepdConfig::from_env`]). The tuning
/// fields have no variable: set them in code.
#[derive(Debug, Clone)]
pub struct SweepdConfig {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Spool directory: job records, results, and the layer cache.
    pub spool: PathBuf,
    /// Maximum queued jobs across all tenants; submissions beyond it shed
    /// with a typed 429.
    pub queue_capacity: usize,
    /// Attempts per job before quarantine.
    pub max_attempts: u32,
    /// Base backoff in milliseconds; attempt `n` waits
    /// `base * 2^(n-1) + jitter(BACKOFF_SEED, seq, n)`.
    pub backoff_base_ms: u64,
    /// Where to write the bound address for port-0 discovery; `None` skips.
    pub addr_file: Option<PathBuf>,
    /// Runner worker threads per job (`None` = available CPUs).
    pub threads: Option<usize>,
    /// Whether jobs publish live `ant-status/1` progress (served on
    /// `GET /status`).
    pub progress: bool,
}

impl Default for SweepdConfig {
    fn default() -> Self {
        SweepdConfig {
            addr: "127.0.0.1:0".to_string(),
            spool: experiments_dir().join("sweepd-spool"),
            queue_capacity: 64,
            max_attempts: 3,
            backoff_base_ms: 50,
            addr_file: None,
            threads: None,
            progress: true,
        }
    }
}

impl SweepdConfig {
    /// Resolves the deployment settings from the environment:
    ///
    /// | Variable               | Default                           |
    /// |------------------------|-----------------------------------|
    /// | `ANT_SWEEPD_ADDR`      | `127.0.0.1:0`                     |
    /// | `ANT_SWEEPD_SPOOL`     | `target/experiments/sweepd-spool` |
    /// | `ANT_SWEEPD_ADDR_FILE` | `target/experiments/sweepd.addr`  |
    ///
    /// Empty values keep the default. The retired tuning variables are
    /// refused at start-up by `ant_obs::config::RETIRED`, not here.
    pub fn from_env() -> Self {
        Self::from_vars(
            std::env::vars_os().filter_map(|(k, v)| {
                Some((k.into_string().ok()?, v.to_string_lossy().into_owned()))
            }),
        )
    }

    fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> Self {
        let vars: HashMap<String, String> = vars.into_iter().collect();
        let get = |key: &str| vars.get(key).map(|v| v.trim()).filter(|v| !v.is_empty());
        let mut cfg = SweepdConfig {
            addr_file: Some(experiments_dir().join("sweepd.addr")),
            ..SweepdConfig::default()
        };
        if let Some(addr) = get("ANT_SWEEPD_ADDR") {
            cfg.addr = addr.to_string();
        }
        if let Some(spool) = get("ANT_SWEEPD_SPOOL") {
            cfg.spool = PathBuf::from(spool);
        }
        if let Some(file) = get("ANT_SWEEPD_ADDR_FILE") {
            cfg.addr_file = Some(PathBuf::from(file));
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_without_any_environment() {
        let cfg = SweepdConfig::default();
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.max_attempts, 3);
        assert_eq!(cfg.backoff_base_ms, 50);
        assert!(cfg.addr.ends_with(":0"), "default binds an ephemeral port");
        assert!(cfg.spool.ends_with("sweepd-spool"));
    }

    fn from(vars: &[(&str, &str)]) -> SweepdConfig {
        SweepdConfig::from_vars(vars.iter().map(|(k, v)| (k.to_string(), v.to_string())))
    }

    #[test]
    fn valid_overrides_apply_and_empty_values_keep_defaults() {
        let cfg = from(&[
            ("ANT_SWEEPD_ADDR", "127.0.0.1:9300"),
            ("ANT_SWEEPD_SPOOL", " /tmp/spool "),
            ("ANT_SWEEPD_ADDR_FILE", "/tmp/sweepd.addr"),
            ("ANT_CACHE", "1"),
        ]);
        assert_eq!(cfg.addr, "127.0.0.1:9300");
        assert_eq!(cfg.spool, PathBuf::from("/tmp/spool"));
        assert_eq!(cfg.addr_file, Some(PathBuf::from("/tmp/sweepd.addr")));

        let defaults = from(&[
            ("ANT_SWEEPD_ADDR", ""),
            ("ANT_SWEEPD_SPOOL", " "),
            ("ANT_SWEEPD_ADDR_FILE", ""),
        ]);
        assert_eq!(defaults.addr, "127.0.0.1:0");
        assert_eq!(defaults.spool, SweepdConfig::default().spool);
        assert!(defaults.addr_file.unwrap().ends_with("sweepd.addr"));
    }
}
