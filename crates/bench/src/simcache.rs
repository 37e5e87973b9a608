//! The process-global content-addressed simulation cache (tier 1 of the
//! simulator's redundancy eliminator), gated by `ANT_CACHE` /
//! `ANT_CACHE_DIR`. It is the workspace's one durable result store:
//! resuming an interrupted sweep is a warm run against the same
//! `ANT_CACHE_DIR`, and `ant-sweepd` keeps its completed layers in
//! `<spool>/simcache` for crash recovery and re-submission.
//!
//! The store itself ([`ant_sim::cache::LayerCache`]) is policy-free; this
//! module owns activation and persistence:
//!
//! * **Activation** — off by default. `ANT_CACHE=1` enables the in-memory
//!   cache for the process; `ANT_CACHE_DIR=path` additionally persists
//!   entries to `<path>/simcache.jsonl` (and implies `ANT_CACHE=1`). Tests
//!   and the sweepd daemon drive activation with [`set_override`].
//! * **Persistence** — JSONL, schema [`SCHEMA`]. Every line carries the
//!   [`MODEL_VERSION`] stamp (version-mismatched lines are stale and
//!   skipped), a 128-bit content key plus the pre-synthesis memo key (hex —
//!   JSON numbers are `f64` and cannot hold 64-bit hashes), a self-check
//!   hash over the key and every counter (a poisoned entry — wrong cycles
//!   for its key — fails the check and is skipped), and the three
//!   finalized per-phase counter objects. Corrupt, truncated, stale, and
//!   poisoned lines are skipped and counted, never replayed; entries are
//!   round-trip verified at write time (a counter above 2^53 would come
//!   back rounded, so such entries stay in memory but are not persisted);
//!   a failed append disables persistence and the run continues.
//!
//! The runner decides *what* may enter the cache (clean layers only, never
//! under chaos injection); see `runner.rs` and docs/PERFORMANCE.md.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ant_obs::config::truthy;
use ant_obs::json::Json;
use ant_sim::cache::{CacheKey, LayerCache, LayerPhases, MODEL_VERSION};
use ant_sim::chaos::{self, IoDomain, IoFault};
use ant_sim::SimStats;

use crate::fingerprint::StableHasher;

/// Schema tag on every persisted cache line; bump on incompatible change.
pub const SCHEMA: &str = "ant-simcache/1";

/// Cache activation settings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCacheConfig {
    /// Directory holding `simcache.jsonl`; `None` keeps the cache
    /// in-memory only.
    pub dir: Option<PathBuf>,
}

/// Activation override (process-wide, like
/// [`ant_sim::chaos::set_override`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOverride {
    /// Resolve from `ANT_CACHE` / `ANT_CACHE_DIR` (the default).
    Env,
    /// Force the cache off regardless of the environment.
    Off,
    /// Force the cache on with the given settings.
    On(SimCacheConfig),
}

/// Store-level counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStoreStats {
    /// Layer results currently held in memory.
    pub entries: usize,
    /// Entries loaded from the on-disk store at activation.
    pub loaded: usize,
    /// Unparsable or truncated lines skipped at load.
    pub skipped_corrupt: usize,
    /// Lines with a foreign schema tag or a different [`MODEL_VERSION`].
    pub skipped_stale: usize,
    /// Lines whose self-check hash did not match their counters.
    pub skipped_poisoned: usize,
    /// Entries kept in memory but not persisted (failed the write-time
    /// round-trip verification).
    pub dropped_writes: usize,
}

#[derive(Debug)]
struct Store {
    cache: LayerCache,
    writer: Option<BufWriter<File>>,
    path: Option<PathBuf>,
    loaded: usize,
    skipped_corrupt: usize,
    skipped_stale: usize,
    skipped_poisoned: usize,
    dropped_writes: usize,
    /// Lines appended so far — the deterministic index for injected IO
    /// faults (`ANT_CHAOS` `torn=`/`enospc=`).
    appended: u64,
}

#[derive(Debug)]
struct Global {
    over: CacheOverride,
    /// `Some` iff the cache is active and initialized for the current
    /// activation settings.
    store: Option<Store>,
    /// Whether `store` reflects the current `over`/env resolution.
    resolved: bool,
}

static GLOBAL: Mutex<Global> = Mutex::new(Global {
    over: CacheOverride::Env,
    store: None,
    resolved: false,
});

fn config_from_env() -> Option<SimCacheConfig> {
    let dir = std::env::var("ANT_CACHE_DIR")
        .ok()
        .map(|d| d.trim().to_string())
        .filter(|d| !d.is_empty())
        .map(PathBuf::from);
    match std::env::var("ANT_CACHE") {
        Ok(flag) if !truthy(&flag) => None, // explicit off wins
        Ok(flag) if truthy(&flag) => Some(SimCacheConfig { dir }),
        _ => dir.map(|d| SimCacheConfig { dir: Some(d) }), // dir implies on
    }
}

/// Installs (or clears, with [`CacheOverride::Env`]) an activation
/// override. Used by tests and by `Sweepd::start`; takes effect
/// process-wide and always resets the store (a fresh override starts from
/// an empty in-memory cache, reloading the on-disk store if one is
/// configured).
pub fn set_override(over: CacheOverride) {
    let mut g = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    g.over = over;
    g.store = None;
    g.resolved = false;
}

fn with_store<T>(f: impl FnOnce(&mut Store) -> T) -> Option<T> {
    let mut g = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    if !g.resolved {
        let config = match &g.over {
            CacheOverride::Env => config_from_env(),
            CacheOverride::Off => None,
            CacheOverride::On(cfg) => Some(cfg.clone()),
        };
        g.store = config.map(Store::open);
        g.resolved = true;
    }
    g.store.as_mut().map(f)
}

/// Whether the cache is active (environment or override).
pub fn enabled() -> bool {
    with_store(|_| ()).is_some()
}

/// Resolves a pre-synthesis memo key to stored per-phase stats.
pub fn lookup_memo(synth_key: &CacheKey) -> Option<LayerPhases> {
    with_store(|s| s.cache.get_memoized(synth_key).copied()).flatten()
}

/// Looks up stored per-phase stats by content key.
pub fn lookup(content_key: &CacheKey) -> Option<LayerPhases> {
    with_store(|s| s.cache.get(content_key).copied()).flatten()
}

/// Stores a finalized clean layer under its content key, memoizes the
/// pre-synthesis key, and appends to the on-disk store (when configured).
pub fn record(synth_key: CacheKey, content_key: CacheKey, phases: &LayerPhases) {
    let _ = with_store(|s| s.record(synth_key, content_key, phases));
}

/// Current store counters, `None` when the cache is off.
pub fn stats() -> Option<CacheStoreStats> {
    with_store(|s| CacheStoreStats {
        entries: s.cache.len(),
        loaded: s.loaded,
        skipped_corrupt: s.skipped_corrupt,
        skipped_stale: s.skipped_stale,
        skipped_poisoned: s.skipped_poisoned,
        dropped_writes: s.dropped_writes,
    })
}

impl Store {
    fn open(config: SimCacheConfig) -> Self {
        let mut store = Store {
            cache: LayerCache::new(),
            writer: None,
            path: None,
            loaded: 0,
            skipped_corrupt: 0,
            skipped_stale: 0,
            skipped_poisoned: 0,
            dropped_writes: 0,
            appended: 0,
        };
        let Some(dir) = config.dir else {
            return store;
        };
        let path = dir.join("simcache.jsonl");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_entry(line) {
                        Ok((synth, content, phases)) => {
                            store.cache.insert(content, phases);
                            if let Some(synth) = synth {
                                store.cache.remember(synth, content);
                            }
                            store.loaded += 1;
                        }
                        Err(Skip::Corrupt) => store.skipped_corrupt += 1,
                        Err(Skip::Stale) => store.skipped_stale += 1,
                        Err(Skip::Poisoned) => store.skipped_poisoned += 1,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!(
                    "ant-bench: simcache {}: unreadable ({e}); starting empty",
                    path.display()
                );
            }
        }
        let skipped = store.skipped_corrupt + store.skipped_stale + store.skipped_poisoned;
        if skipped > 0 {
            eprintln!(
                "ant-bench: simcache {}: skipped {skipped} line(s) \
                 ({} corrupt, {} stale, {} poisoned)",
                path.display(),
                store.skipped_corrupt,
                store.skipped_stale,
                store.skipped_poisoned
            );
        }
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match OpenOptions::new().create(true).append(true).open(&path) {
            Ok(file) => store.writer = Some(BufWriter::new(file)),
            Err(e) => {
                eprintln!(
                    "ant-bench: simcache {}: cannot append ({e}); cache stays in-memory",
                    path.display()
                );
            }
        }
        store.path = Some(path);
        store
    }

    fn record(&mut self, synth_key: CacheKey, content_key: CacheKey, phases: &LayerPhases) {
        self.cache.insert(content_key, *phases);
        self.cache.remember(synth_key, content_key);
        if self.writer.is_none() {
            return;
        }
        let line = emit_entry(Some(synth_key), content_key, phases);
        // Round-trip verify before persisting: `Json` numbers are `f64`, so
        // a counter above 2^53 would come back rounded. The in-memory entry
        // stays (it is exact); only the disk write is dropped.
        match parse_entry(&line) {
            Ok((_, parsed_key, parsed)) if parsed_key == content_key && parsed == *phases => {}
            _ => {
                self.dropped_writes += 1;
                eprintln!(
                    "ant-bench: simcache: entry {} does not round-trip losslessly; not persisted",
                    content_key.to_hex()
                );
                return;
            }
        }
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let index = self.appended;
        self.appended += 1;
        match chaos::active().and_then(|c| c.io_fault_for(IoDomain::SimCache, index)) {
            Some(IoFault::TornWrite) => {
                // A torn write leaves a truncated line on disk; it fails to
                // parse at the next load and degrades to a cache miss. The
                // in-memory entry stays exact for this process.
                let torn = &line.as_bytes()[..line.len() / 2];
                let _ = writer
                    .write_all(torn)
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                self.dropped_writes += 1;
                ant_obs::registry().counter("simcache.io_torn").incr();
                eprintln!(
                    "ant-bench: simcache: injected torn write at line {index}; \
                     entry {} degrades to a miss on reload",
                    content_key.to_hex()
                );
                return;
            }
            Some(IoFault::Enospc) => {
                self.dropped_writes += 1;
                ant_obs::registry().counter("simcache.io_enospc").incr();
                eprintln!(
                    "ant-bench: simcache: injected ENOSPC at line {index}; \
                     persistence disabled, run continues"
                );
                self.writer = None;
                return;
            }
            None => {}
        }
        let ok = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if let Err(e) = ok {
            let path = self
                .path
                .as_deref()
                .map(Path::display)
                .map(|d| d.to_string())
                .unwrap_or_default();
            eprintln!(
                "ant-bench: simcache {path}: write failed ({e}); persistence disabled, \
                 run continues"
            );
            self.writer = None;
        }
    }
}

/// The self-check hash over (content key, version, every counter): detects
/// entries whose counters were altered after writing (poisoned) without
/// re-simulating anything at load time.
fn check_hash(content_key: CacheKey, phases: &LayerPhases) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(content_key.hi);
    h.write_u64(content_key.lo);
    h.write_u64(u64::from(MODEL_VERSION));
    for stats in phases {
        for (_, value) in stats.fields() {
            h.write_u64(value);
        }
    }
    h.finish()
}

fn emit_entry(synth_key: Option<CacheKey>, content_key: CacheKey, phases: &LayerPhases) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\"schema\":\"{SCHEMA}\",\"version\":{MODEL_VERSION},\"key\":\"{}\"",
        content_key.to_hex()
    ));
    if let Some(synth) = synth_key {
        out.push_str(&format!(",\"synth\":\"{}\"", synth.to_hex()));
    }
    out.push_str(&format!(
        ",\"check\":\"{:016x}\",\"phases\":[",
        check_hash(content_key, phases)
    ));
    for (pi, stats) in phases.iter().enumerate() {
        if pi > 0 {
            out.push(',');
        }
        out.push('{');
        for (fi, (name, value)) in stats.fields().iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

enum Skip {
    Corrupt,
    Stale,
    Poisoned,
}

type ParsedEntry = (Option<CacheKey>, CacheKey, LayerPhases);

fn parse_entry(line: &str) -> Result<ParsedEntry, Skip> {
    let json = ant_obs::parse_json(line).map_err(|_| Skip::Corrupt)?;
    match json.get("schema").and_then(Json::as_str) {
        Some(schema) if schema == SCHEMA => {}
        Some(_) => return Err(Skip::Stale),
        None => return Err(Skip::Corrupt),
    }
    match json.get("version").and_then(Json::as_u64) {
        Some(v) if v == u64::from(MODEL_VERSION) => {}
        Some(_) => return Err(Skip::Stale),
        None => return Err(Skip::Corrupt),
    }
    let key = json
        .get("key")
        .and_then(Json::as_str)
        .and_then(CacheKey::from_hex)
        .ok_or(Skip::Corrupt)?;
    let synth = match json.get("synth") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .and_then(CacheKey::from_hex)
                .ok_or(Skip::Corrupt)?,
        ),
    };
    let check = json
        .get("check")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(Skip::Corrupt)?;
    let phases_json = json
        .get("phases")
        .and_then(Json::as_array)
        .ok_or(Skip::Corrupt)?;
    if phases_json.len() != 3 {
        return Err(Skip::Corrupt);
    }
    let mut phases = [SimStats::default(); 3];
    for (stats, obj) in phases.iter_mut().zip(phases_json) {
        let Json::Obj(map) = obj else {
            return Err(Skip::Corrupt);
        };
        if map.len() != stats.fields().len() {
            return Err(Skip::Corrupt);
        }
        for (name, value) in map {
            let value = value.as_u64().ok_or(Skip::Corrupt)?;
            if !stats.set_field(name, value) {
                return Err(Skip::Corrupt);
            }
        }
    }
    if check != check_hash(key, &phases) {
        return Err(Skip::Poisoned);
    }
    Ok((synth, key, phases))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(hi: u64, lo: u64) -> CacheKey {
        CacheKey { hi, lo }
    }

    fn sample_phases(salt: u64) -> LayerPhases {
        let mut phases = [SimStats::default(); 3];
        for (pi, stats) in phases.iter_mut().enumerate() {
            for (i, (name, _)) in SimStats::default().fields().iter().enumerate() {
                stats.set_field(name, salt + (pi as u64) * 100 + i as u64);
            }
        }
        phases
    }

    #[test]
    fn entries_round_trip_through_the_line_format() {
        let phases = sample_phases(11);
        let line = emit_entry(Some(key(7, 8)), key(1, 2), &phases);
        let (synth, content, parsed) = parse_entry(&line).ok().expect("parses");
        assert_eq!(synth, Some(key(7, 8)));
        assert_eq!(content, key(1, 2));
        assert_eq!(parsed, phases);
        // Without a memo key.
        let line = emit_entry(None, key(1, 2), &phases);
        let (synth, _, _) = parse_entry(&line).ok().expect("parses");
        assert_eq!(synth, None);
    }

    #[test]
    fn poisoned_counters_fail_the_check_hash() {
        let phases = sample_phases(3);
        let line = emit_entry(None, key(9, 9), &phases);
        // Tamper with one counter value but keep the line well-formed.
        let needle = "\"pe_cycles\":3";
        assert!(line.contains(needle), "fixture drifted: {line}");
        let poisoned = line.replacen(needle, "\"pe_cycles\":4", 1);
        assert!(matches!(parse_entry(&poisoned), Err(Skip::Poisoned)));
    }

    #[test]
    fn stale_and_corrupt_lines_classify() {
        let phases = sample_phases(5);
        let line = emit_entry(None, key(1, 1), &phases);
        let stale_schema = line.replacen(SCHEMA, "ant-simcache/0", 1);
        assert!(matches!(parse_entry(&stale_schema), Err(Skip::Stale)));
        let stale_version = line.replacen(
            &format!("\"version\":{MODEL_VERSION}"),
            &format!("\"version\":{}", MODEL_VERSION + 1),
            1,
        );
        assert!(matches!(parse_entry(&stale_version), Err(Skip::Stale)));
        assert!(matches!(parse_entry("not json"), Err(Skip::Corrupt)));
        let truncated = &line[..line.len() / 2];
        assert!(matches!(parse_entry(truncated), Err(Skip::Corrupt)));
    }
}
