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
    backoff_ms, AttemptRecord, Job, JobState, Sweepd, ERROR_SCHEMA, JOBS_SCHEMA, JOB_SCHEMA,
    RESULT_SCHEMA,
};
pub use queue::{FairQueue, Shed};
pub use spec::{JobSpec, MACHINES, MAX_WEIGHT, MODELS, SPARSIFIERS};

use std::collections::HashMap;
use std::path::PathBuf;
use std::str::FromStr;

use ant_obs::experiments_dir;
use ant_sim::AntError;

/// Daemon configuration, resolved once at startup (environment plus
/// defaults; see [`SweepdConfig::from_env`]).
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
    /// `base * 2^(n-1) + jitter(seed, seq, n)`.
    pub backoff_base_ms: u64,
    /// Where to write the bound address for port-0 discovery; `None` skips.
    pub addr_file: Option<PathBuf>,
    /// Runner worker threads per job (`None` = available CPUs).
    pub threads: Option<usize>,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
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
            seed: 0xA17,
            progress: true,
        }
    }
}

impl SweepdConfig {
    /// Resolves configuration from the `ANT_SWEEPD_*` environment:
    ///
    /// | Variable                 | Default                             |
    /// |--------------------------|-------------------------------------|
    /// | `ANT_SWEEPD_ADDR`        | `127.0.0.1:0`                       |
    /// | `ANT_SWEEPD_SPOOL`       | `target/experiments/sweepd-spool`   |
    /// | `ANT_SWEEPD_ADDR_FILE`   | `target/experiments/sweepd.addr`    |
    /// | `ANT_SWEEPD_QUEUE`       | `64`                                |
    /// | `ANT_SWEEPD_MAX_ATTEMPTS`| `3`                                 |
    /// | `ANT_SWEEPD_BACKOFF_MS`  | `50`                                |
    /// | `ANT_SWEEPD_THREADS`     | available CPUs                      |
    /// | `ANT_SWEEPD_SEED`        | `0xA17` (the paper seed)            |
    ///
    /// Empty values keep the default.
    ///
    /// # Errors
    ///
    /// [`AntError::InvalidConfig`] naming the variable when a numeric value
    /// does not parse, or when the queue, attempt or backoff value is zero.
    pub fn from_env() -> Result<Self, AntError> {
        Self::from_vars(
            std::env::vars_os()
                .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned()))),
        )
    }

    fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> Result<Self, AntError> {
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
        let key = "ANT_SWEEPD_QUEUE";
        if let Some(raw) = get(key) {
            cfg.queue_capacity = positive(key, raw)?;
        }
        let key = "ANT_SWEEPD_MAX_ATTEMPTS";
        if let Some(raw) = get(key) {
            cfg.max_attempts = positive(key, raw)?;
        }
        let key = "ANT_SWEEPD_BACKOFF_MS";
        if let Some(raw) = get(key) {
            cfg.backoff_base_ms = positive(key, raw)?;
        }
        let key = "ANT_SWEEPD_THREADS";
        if let Some(raw) = get(key) {
            cfg.threads = Some(number(key, raw)?);
        }
        let key = "ANT_SWEEPD_SEED";
        if let Some(raw) = get(key) {
            cfg.seed = number(key, raw)?;
        }
        Ok(cfg)
    }
}

fn number<T: FromStr>(key: &'static str, raw: &str) -> Result<T, AntError> {
    raw.parse()
        .map_err(|_| AntError::invalid_config(key, format!("{raw:?} is not a non-negative integer")))
}

fn positive<T: FromStr + Default + PartialEq>(key: &'static str, raw: &str) -> Result<T, AntError> {
    let value = number(key, raw)?;
    if value == T::default() {
        return Err(AntError::invalid_config(key, "must be at least 1 (got 0)"));
    }
    Ok(value)
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

    fn from(vars: &[(&str, &str)]) -> Result<SweepdConfig, AntError> {
        SweepdConfig::from_vars(vars.iter().map(|(k, v)| (k.to_string(), v.to_string())))
    }

    fn rejected_param(vars: &[(&str, &str)]) -> &'static str {
        match from(vars) {
            Err(AntError::InvalidConfig { param, .. }) => param,
            other => panic!("expected InvalidConfig for {vars:?}, got {other:?}"),
        }
    }

    const NUMERIC: [&str; 5] = [
        "ANT_SWEEPD_QUEUE",
        "ANT_SWEEPD_MAX_ATTEMPTS",
        "ANT_SWEEPD_BACKOFF_MS",
        "ANT_SWEEPD_THREADS",
        "ANT_SWEEPD_SEED",
    ];

    #[test]
    fn unparsable_numbers_are_rejected_naming_the_variable() {
        for key in NUMERIC {
            for raw in ["abc", "-1", "1.5"] {
                assert_eq!(rejected_param(&[(key, raw)]), key, "{key}={raw}");
            }
        }
    }

    #[test]
    fn zero_is_rejected_where_it_cannot_work() {
        for key in ["ANT_SWEEPD_QUEUE", "ANT_SWEEPD_MAX_ATTEMPTS", "ANT_SWEEPD_BACKOFF_MS"] {
            assert_eq!(rejected_param(&[(key, "0")]), key);
        }
        // Zero threads means "available CPUs"; zero is a valid seed.
        let cfg = from(&[("ANT_SWEEPD_THREADS", "0"), ("ANT_SWEEPD_SEED", "0")]).unwrap();
        assert_eq!((cfg.threads, cfg.seed), (Some(0), 0));
    }

    #[test]
    fn valid_overrides_apply_and_empty_values_keep_defaults() {
        let cfg = from(&[
            ("ANT_SWEEPD_ADDR", "127.0.0.1:9300"),
            ("ANT_SWEEPD_SPOOL", "/tmp/spool"),
            ("ANT_SWEEPD_ADDR_FILE", "/tmp/sweepd.addr"),
            ("ANT_SWEEPD_QUEUE", " 8 "),
            ("ANT_SWEEPD_MAX_ATTEMPTS", "5"),
            ("ANT_SWEEPD_BACKOFF_MS", "7"),
            ("ANT_SWEEPD_THREADS", "2"),
            ("ANT_SWEEPD_SEED", "42"),
            ("ANT_CACHE", "1"),
        ])
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:9300");
        assert_eq!(cfg.spool, PathBuf::from("/tmp/spool"));
        assert_eq!(cfg.addr_file, Some(PathBuf::from("/tmp/sweepd.addr")));
        assert_eq!(
            (cfg.queue_capacity, cfg.max_attempts, cfg.backoff_base_ms),
            (8, 5, 7)
        );
        assert_eq!((cfg.threads, cfg.seed), (Some(2), 42));

        let defaults = from(&[("ANT_SWEEPD_QUEUE", " "), ("ANT_SWEEPD_ADDR", "")]).unwrap();
        assert_eq!(defaults.queue_capacity, 64);
        assert_eq!(defaults.addr, "127.0.0.1:0");
        assert!(defaults.addr_file.unwrap().ends_with("sweepd.addr"));
    }
}
