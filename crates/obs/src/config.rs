//! The one observability switch, parsed once per process.
//!
//! `ANT_OBS` lists the switches — `trace`, `pairs` (implies `trace`),
//! `flame`, `profile`, `progress`, `telemetry`, `alloc`; `""`, `0` or `off`
//! mean none — and `ANT_METRICS_ADDR` / `ANT_METRICS_LINGER_MS` configure
//! the exporter. No other module reads an observability variable. A
//! [`RETIRED`] `ANT_*` variable, an unknown item or a linger that is not a
//! number is an [`ObsError`] that start-up code reports through
//! [`resolved`]; hot paths read [`flags`]. Every
//! sidecar is `<experiments_dir>/<stem>.<ext>` ([`sidecar`]), so no two
//! experiments share one. See `docs/OBSERVABILITY.md`.

use std::ffi::OsStr;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock};

/// The parsed settings: seven switches plus the exporter's address and
/// linger. All off by default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// JSONL span tracing to `<stem>.trace.jsonl`.
    pub trace: bool,
    /// Per-channel-pair detail events in the trace (implies `trace`).
    pub pairs: bool,
    /// Collapsed-stack flamegraph to `<stem>.folded`.
    pub flame: bool,
    /// Per-job host slices for the Perfetto timeline.
    pub profile: bool,
    /// Live run status to stderr and `<stem>.status.json`.
    pub progress: bool,
    /// Per-worker scheduler telemetry in the runner.
    pub telemetry: bool,
    /// Allocation counting by the counting global allocator.
    pub alloc: bool,
    /// `ANT_METRICS_ADDR`, when set and [`truthy`].
    pub metrics_addr: Option<String>,
    /// `ANT_METRICS_LINGER_MS` (0 when unset or empty).
    pub linger_ms: u64,
}

/// A rejected setting: a retired variable, an unknown `ANT_OBS` item or a
/// linger that is not a number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsError {
    /// The offending variable.
    pub param: &'static str,
    /// What was wrong and what to use instead.
    pub reason: String,
}

/// The retired `ANT_*` variables and what replaces each: the observability
/// spellings `ANT_OBS` folded in, the per-pair watchdog budget and sweepd's
/// tuning variables. Every start-up path refuses them through [`resolved`].
pub const RETIRED: [(&str, &str); 18] = [
    ("ANT_TRACE", "use ANT_OBS=trace"),
    ("ANT_TRACE_PAIRS", "use ANT_OBS=pairs (implies trace)"),
    (
        "ANT_TRACE_FILE",
        "ANT_OBS=trace writes <experiments_dir>/<stem>.trace.jsonl",
    ),
    ("ANT_FLAME", "use ANT_OBS=flame"),
    (
        "ANT_FLAME_FILE",
        "ANT_OBS=flame writes <experiments_dir>/<stem>.folded",
    ),
    ("ANT_PROFILE", "use ANT_OBS=profile"),
    (
        "ANT_PROFILE_FILE",
        "ANT_OBS=profile writes <experiments_dir>/<stem>.perfetto.json",
    ),
    ("ANT_PROGRESS", "use ANT_OBS=progress"),
    (
        "ANT_PROGRESS_FILE",
        "ANT_OBS=progress writes <experiments_dir>/<stem>.status.json",
    ),
    ("ANT_TELEMETRY", "use ANT_OBS=telemetry"),
    ("ANT_ALLOC", "use ANT_OBS=alloc"),
    (
        "ANT_METRICS_ADDR_FILE",
        "written to <experiments_dir>/<stem>.metrics.addr; see ANT_OBS",
    ),
    (
        "ANT_PAIR_BUDGET_US",
        "bound a run with RunOptions::deadline_us or a job's deadline_ms",
    ),
    (
        "ANT_SWEEPD_QUEUE",
        "fixed at 64; set SweepdConfig::queue_capacity in code",
    ),
    (
        "ANT_SWEEPD_MAX_ATTEMPTS",
        "fixed at 3; set SweepdConfig::max_attempts in code",
    ),
    (
        "ANT_SWEEPD_BACKOFF_MS",
        "fixed at 50; set SweepdConfig::backoff_base_ms in code",
    ),
    (
        "ANT_SWEEPD_THREADS",
        "the runner sizes to the available CPUs; set SweepdConfig::threads in code",
    ),
    (
        "ANT_SWEEPD_SEED",
        "fixed at the paper seed 0xA17 (serve::BACKOFF_SEED)",
    ),
];

/// Whether a switch value means "on": anything but `""`, `0`, `false`,
/// `off` or `no` (surrounding whitespace ignored). The one truthiness rule
/// of every `ANT_*` switch in the workspace.
pub fn truthy(value: &str) -> bool {
    !matches!(value.trim(), "" | "0" | "false" | "off" | "no")
}

impl ObsConfig {
    /// Parses `(name, value)` pairs: the process environment, or a test's
    /// list. Other names are ignored.
    ///
    /// # Errors
    ///
    /// An [`ObsError`] for any [`RETIRED`] name that is present (whatever
    /// its value), for an unknown `ANT_OBS` item and for a non-empty
    /// `ANT_METRICS_LINGER_MS` that is not a whole number of milliseconds.
    pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<ObsConfig, ObsError>
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut cfg = ObsConfig::default();
        for (name, value) in vars {
            let (name, value) = (name.as_ref(), value.as_ref());
            if let Some(&(param, instead)) = RETIRED.iter().find(|(retired, _)| *retired == name) {
                let reason = format!("retired; {instead}");
                return Err(ObsError { param, reason });
            }
            match name {
                "ANT_OBS" if truthy(value) => {
                    for item in value.split(',').map(str::trim).filter(|i| !i.is_empty()) {
                        *cfg.switch(item)? = true;
                    }
                }
                "ANT_METRICS_ADDR" if truthy(value) => cfg.metrics_addr = Some(value.trim().into()),
                "ANT_METRICS_LINGER_MS" => cfg.linger_ms = linger_ms(value)?,
                _ => {}
            }
        }
        cfg.trace |= cfg.pairs;
        Ok(cfg)
    }

    fn switch(&mut self, item: &str) -> Result<&mut bool, ObsError> {
        Ok(match item {
            "trace" => &mut self.trace,
            "pairs" => &mut self.pairs,
            "flame" => &mut self.flame,
            "profile" => &mut self.profile,
            "progress" => &mut self.progress,
            "telemetry" => &mut self.telemetry,
            "alloc" => &mut self.alloc,
            _ => {
                let reason = format!(
                    "unknown item {item:?}; expected a comma-separated list of trace, pairs, \
                     flame, profile, progress, telemetry, alloc (empty, 0 or off for none)"
                );
                return Err(ObsError {
                    param: "ANT_OBS",
                    reason,
                });
            }
        })
    }
}

/// The exporter linger: empty means none, anything else must be a `u64`.
fn linger_ms(value: &str) -> Result<u64, ObsError> {
    match value.trim() {
        "" => Ok(0),
        raw => raw.parse().map_err(|_| ObsError {
            param: "ANT_METRICS_LINGER_MS",
            reason: format!("{raw:?} is not a whole number of milliseconds"),
        }),
    }
}

/// This process's parse of its environment, resolved on first use. The
/// bench harness, the runner and `sweepd` turn an `Err` into a typed
/// configuration error at start-up.
pub fn resolved() -> &'static Result<ObsConfig, ObsError> {
    static RESOLVED: OnceLock<Result<ObsConfig, ObsError>> = OnceLock::new();
    RESOLVED.get_or_init(|| {
        ObsConfig::parse(std::env::vars_os().filter_map(|(name, value)| {
            let name = name.into_string().ok().filter(|n| n.starts_with("ANT_"))?;
            Some((name, value.to_string_lossy().into_owned()))
        }))
    })
}

/// The switches the hot paths read. A rejected environment reads as all
/// off, with one stderr warning: start-up code reports the error itself,
/// and an accessor never panics or exits.
pub fn flags() -> &'static ObsConfig {
    static OFF: OnceLock<ObsConfig> = OnceLock::new();
    static WARNED: Once = Once::new();
    resolved().as_ref().unwrap_or_else(|err| {
        WARNED
            .call_once(|| eprintln!("[ant-obs] observability off: {}: {}", err.param, err.reason));
        OFF.get_or_init(ObsConfig::default)
    })
}

static STEM: Mutex<Option<String>> = Mutex::new(None);
static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Names this process's sidecars. The bench harness calls it with the
/// experiment name before the first span opens (the trace file opens on
/// first use, under the stem it sees then).
pub fn set_stem(stem: &str) {
    *STEM.lock().unwrap_or_else(|p| p.into_inner()) = Some(stem.to_string());
}

/// The sidecar stem: the one [`set_stem`] set, else the executable's file
/// stem (`"ant"` if even that is unknown).
pub fn stem() -> String {
    let set = STEM.lock().unwrap_or_else(|p| p.into_inner()).clone();
    set.or_else(|| {
        let exe = std::env::current_exe().ok()?;
        Some(exe.file_stem()?.to_string_lossy().into_owned())
    })
    .unwrap_or_else(|| "ant".to_string())
}

/// Redirects [`experiments_dir`] for this process (tests point it at a
/// scratch directory instead of setting `CARGO_TARGET_DIR`).
pub fn set_experiments_dir(dir: impl Into<PathBuf>) {
    *DIR.lock().unwrap_or_else(|p| p.into_inner()) = Some(dir.into());
}

/// Where experiment CSVs and every sidecar go: the [`set_experiments_dir`]
/// override, else [`experiments_dir_under`] `$CARGO_TARGET_DIR`.
pub fn experiments_dir() -> PathBuf {
    let set = DIR.lock().unwrap_or_else(|p| p.into_inner()).clone();
    set.unwrap_or_else(|| experiments_dir_under(std::env::var_os("CARGO_TARGET_DIR").as_deref()))
}

/// `<target_dir>/experiments`, `target/experiments` without a target dir
/// (relative to the working directory).
pub fn experiments_dir_under(target_dir: Option<&OsStr>) -> PathBuf {
    Path::new(target_dir.unwrap_or(OsStr::new("target"))).join("experiments")
}

/// `<dir>/<stem>.<ext>`, the name of every sidecar (`ext` is `trace.jsonl`,
/// `folded`, `perfetto.json`, `status.json` or `metrics.addr`).
pub fn sidecar_in(dir: &Path, stem: &str, ext: &str) -> PathBuf {
    dir.join(format!("{stem}.{ext}"))
}

/// This process's sidecar `ext`, under [`experiments_dir`] and [`stem`].
pub fn sidecar(ext: &str) -> PathBuf {
    sidecar_in(&experiments_dir(), &stem(), ext)
}

/// Creates `path`'s parent directory, so a sidecar can be written there.
///
/// # Errors
///
/// Propagates the directory-creation failure.
pub fn create_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITEMS: [&str; 7] = [
        "trace",
        "pairs",
        "flame",
        "profile",
        "progress",
        "telemetry",
        "alloc",
    ];

    fn parse(vars: &[(&str, &str)]) -> Result<ObsConfig, ObsError> {
        ObsConfig::parse(vars.iter().copied())
    }

    fn obs(value: &str) -> ObsConfig {
        parse(&[("ANT_OBS", value)]).expect("valid ANT_OBS")
    }

    fn switches(c: &ObsConfig) -> [bool; 7] {
        [
            c.trace,
            c.pairs,
            c.flame,
            c.profile,
            c.progress,
            c.telemetry,
            c.alloc,
        ]
    }

    #[test]
    fn every_item_sets_its_switch() {
        assert_eq!(switches(&obs(&ITEMS.join(","))), [true; 7]);
        for (i, item) in ITEMS.iter().enumerate() {
            let got = switches(&obs(item));
            for (j, on) in got.iter().enumerate() {
                // `pairs` (index 1) also turns on `trace` (index 0).
                let expected = i == j || (i == 1 && j == 0);
                assert_eq!(*on, expected, "ANT_OBS={item}: switch {} is {on}", ITEMS[j]);
            }
        }
        // Whitespace and empty entries are tolerated.
        let spaced = obs(" flame , ,alloc ");
        assert_eq!(
            spaced,
            ObsConfig {
                flame: true,
                alloc: true,
                ..ObsConfig::default()
            }
        );
    }

    #[test]
    fn pairs_implies_trace() {
        let cfg = obs("pairs");
        assert!(cfg.pairs && cfg.trace);
    }

    #[test]
    fn empty_zero_and_off_mean_none() {
        for value in ["", "0", "off", " off "] {
            assert_eq!(obs(value), ObsConfig::default(), "ANT_OBS={value:?}");
        }
        assert_eq!(parse(&[]).unwrap(), ObsConfig::default());
    }

    #[test]
    fn unknown_item_is_rejected() {
        let err = parse(&[("ANT_OBS", "trace,bogus")]).unwrap_err();
        assert_eq!(err.param, "ANT_OBS");
        assert!(err.reason.contains("\"bogus\""), "{err:?}");
        for item in ITEMS {
            assert!(err.reason.contains(item), "lists {item}: {err:?}");
        }
    }

    #[test]
    fn every_retired_name_is_rejected_with_its_replacement() {
        let replacements = [
            ("ANT_TRACE", "ANT_OBS=trace"),
            ("ANT_TRACE_PAIRS", "ANT_OBS=pairs"),
            ("ANT_TRACE_FILE", "<experiments_dir>/<stem>.trace.jsonl"),
            ("ANT_FLAME", "ANT_OBS=flame"),
            ("ANT_FLAME_FILE", "<experiments_dir>/<stem>.folded"),
            ("ANT_PROFILE", "ANT_OBS=profile"),
            ("ANT_PROFILE_FILE", "<experiments_dir>/<stem>.perfetto.json"),
            ("ANT_PROGRESS", "ANT_OBS=progress"),
            ("ANT_PROGRESS_FILE", "<experiments_dir>/<stem>.status.json"),
            ("ANT_TELEMETRY", "ANT_OBS=telemetry"),
            ("ANT_ALLOC", "ANT_OBS=alloc"),
            (
                "ANT_METRICS_ADDR_FILE",
                "<experiments_dir>/<stem>.metrics.addr",
            ),
        ];
        let knobs = [
            ("ANT_PAIR_BUDGET_US", "RunOptions::deadline_us"),
            ("ANT_SWEEPD_QUEUE", "SweepdConfig::queue_capacity"),
            ("ANT_SWEEPD_MAX_ATTEMPTS", "SweepdConfig::max_attempts"),
            ("ANT_SWEEPD_BACKOFF_MS", "SweepdConfig::backoff_base_ms"),
            ("ANT_SWEEPD_THREADS", "SweepdConfig::threads"),
            ("ANT_SWEEPD_SEED", "BACKOFF_SEED"),
        ];
        assert_eq!(replacements.len() + knobs.len(), RETIRED.len());
        for (folded, table) in [(true, &replacements[..]), (false, &knobs[..])] {
            for &(name, replacement) in table {
                // Present is enough: even an "off" value fails loudly.
                for value in ["1", "0"] {
                    let err = parse(&[("ANT_OBS", "trace"), (name, value)]).unwrap_err();
                    assert_eq!(err.param, name);
                    assert!(err.reason.contains(replacement), "{name}: {err:?}");
                    if folded {
                        assert!(err.reason.contains("ANT_OBS"), "{name}: {err:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn exporter_settings_parse_beside_the_switches() {
        let cfg = parse(&[
            ("ANT_METRICS_ADDR", " 127.0.0.1:0 "),
            ("ANT_METRICS_LINGER_MS", "250"),
            ("ANT_CACHE", "1"),
        ])
        .unwrap();
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.linger_ms, 250);
        let off = parse(&[("ANT_METRICS_ADDR", "off"), ("ANT_METRICS_LINGER_MS", " ")]).unwrap();
        assert_eq!(off, ObsConfig::default());
        // A typo fails loudly instead of silently dropping the linger.
        for raw in ["x", "-5", "1.5", "250ms"] {
            let err = parse(&[("ANT_METRICS_LINGER_MS", raw)]).unwrap_err();
            assert_eq!(err.param, "ANT_METRICS_LINGER_MS");
            assert!(err.reason.contains(raw), "{raw}: {err:?}");
        }
    }

    #[test]
    fn every_sidecar_is_named_by_stem_beside_the_csv() {
        let dir = experiments_dir_under(None);
        assert_eq!(dir, Path::new("target/experiments"));
        let custom = experiments_dir_under(Some(OsStr::new("/tmp/t")));
        assert_eq!(custom, Path::new("/tmp/t/experiments"));
        for ext in [
            "trace.jsonl",
            "folded",
            "perfetto.json",
            "status.json",
            "metrics.addr",
        ] {
            let path = sidecar_in(&dir, "fig09", ext);
            assert_eq!(
                path,
                Path::new("target/experiments").join(format!("fig09.{ext}"))
            );
        }
    }

    #[test]
    fn truthy_rejects_the_off_spellings() {
        for off in ["", " ", "0", "false", "off", "no"] {
            assert!(!truthy(off), "{off:?}");
        }
        for on in ["1", "yes", "true", "on", "127.0.0.1:0"] {
            assert!(truthy(on), "{on:?}");
        }
    }
}
