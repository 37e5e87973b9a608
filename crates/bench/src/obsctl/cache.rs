//! `obsctl cache`: simulation-cache effectiveness report from a run
//! manifest.
//!
//! Cache-enabled sweeps (`ANT_CACHE`; see `docs/PERFORMANCE.md`) fold a
//! [`crate::telemetry::CacheTable`] into the manifest's `host` section —
//! `cache.<network>.<machine>.{hits,misses,analytic}` rows plus the
//! sweep-wide `cache.{hits,misses,analytic}` totals — and the runner
//! mirrors the same totals through the metrics registry, which the
//! experiment tail also folds into `host` as `runner.cache.*`. This
//! module reads a manifest back, renders
//! the per-(network, machine) breakdown, and cross-checks the two total
//! sets against each other. The `--json` report carries the stable
//! `ant-cache-stats/1` schema.
//!
//! A manifest without any `cache.*` host keys is a valid report ("no cache
//! activity"), not an error: the tool is analysis, never a gate.

use std::fmt::Write as _;

use ant_obs::json::{write_json_string, Json};

/// Schema tag of the machine-readable report (`--json`).
pub const SCHEMA: &str = "ant-cache-stats/1";

/// Schema tag the input manifest must carry.
pub const MANIFEST_SCHEMA: &str = "ant-manifest/1";

/// Hit/miss/analytic counters for one row or a total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Layers served from the content-addressed cache.
    pub hits: u64,
    /// Cacheable layers simulated afresh (and recorded for next time).
    pub misses: u64,
    /// Pair jobs answered by the tier-2 analytic fast path.
    pub analytic: u64,
}

impl Counts {
    /// Layer-level hit rate: hits / (hits + misses); 0.0 with no traffic.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One `(network, machine)` row of the manifest's cache table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Network label.
    pub network: String,
    /// Machine label.
    pub machine: String,
    /// The row's counters.
    pub counts: Counts,
}

/// Which rows the report lists. Totals always cover the full sweep — they
/// come from the producer's own `cache.*` total keys, not from summing the
/// filtered rows.
#[derive(Debug, Default, Clone)]
pub struct CacheFilter {
    /// Exact `network` value.
    pub network: Option<String>,
    /// Exact `machine` value.
    pub machine: Option<String>,
}

impl CacheFilter {
    fn matches(&self, row: &Row) -> bool {
        self.network.as_ref().is_none_or(|n| n == &row.network)
            && self.machine.as_ref().is_none_or(|m| m == &row.machine)
    }
}

/// The outcome of one `obsctl cache` analysis.
#[derive(Debug, Clone, Default)]
pub struct CacheReport {
    /// The manifest's run name.
    pub name: String,
    /// The manifest's git revision, when recorded.
    pub git_revision: Option<String>,
    /// Filtered per-(network, machine) rows, in sorted key order.
    pub rows: Vec<Row>,
    /// Sweep-wide totals from the `host` section's `cache.*` total keys
    /// (falling back to the sum of all rows when the totals are absent).
    pub totals: Counts,
    /// The registry mirror (`runner.cache.*` host keys, snapshotted from
    /// the runner's counters at experiment finish), when recorded.
    pub registry: Option<Counts>,
    /// Whether `totals` and `registry` agree — `None` without a registry
    /// mirror to compare against.
    pub consistent: Option<bool>,
    /// Rows the filter rejected.
    pub rows_filtered: u64,
    /// `cache.*` host keys that did not parse as a row or total.
    pub keys_skipped: u64,
}

impl CacheReport {
    /// Whether the manifest recorded any cache activity at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.rows_filtered == 0 && self.totals == Counts::default()
    }
}

/// Splits a `cache.`-prefixed host key into its row coordinates. Machine
/// labels never contain `.` (networks may), so the split is right-to-left:
/// field, then machine, with the remainder as the network.
fn split_row_key(rest: &str) -> Option<(String, String, &'static str)> {
    let (rest, field) = match rest {
        _ if rest.ends_with(".hits") => (&rest[..rest.len() - 5], "hits"),
        _ if rest.ends_with(".misses") => (&rest[..rest.len() - 7], "misses"),
        _ if rest.ends_with(".analytic") => (&rest[..rest.len() - 9], "analytic"),
        _ => return None,
    };
    let (network, machine) = rest.rsplit_once('.')?;
    if network.is_empty() || machine.is_empty() {
        return None;
    }
    Some((network.to_string(), machine.to_string(), field))
}

/// Analyzes one `ant-manifest/1` document under `filter`.
///
/// # Errors
///
/// Errors when `text` is not a parseable `ant-manifest/1` document; a
/// manifest with no cache activity is an empty report, not an error.
pub fn analyze(text: &str, filter: &CacheFilter) -> Result<CacheReport, String> {
    let doc = ant_obs::parse_json(text).map_err(|e| format!("not a JSON manifest: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(MANIFEST_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "expected {MANIFEST_SCHEMA}, found schema {other:?}"
            ))
        }
        None => return Err(format!("expected {MANIFEST_SCHEMA}, found no schema tag")),
    }
    let mut report = CacheReport {
        name: doc
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        git_revision: doc
            .get("git_revision")
            .and_then(Json::as_str)
            .map(str::to_string),
        ..CacheReport::default()
    };
    let mut totals: Option<Counts> = None;
    let mut row_sum = Counts::default();
    if let Some(host) = doc.get("host").and_then(Json::as_object) {
        for (key, value) in host {
            let Some(rest) = key.strip_prefix("cache.") else {
                continue;
            };
            let Some(value) = value.as_u64() else {
                report.keys_skipped += 1;
                continue;
            };
            // The three sweep-wide totals have no row coordinates.
            if let "hits" | "misses" | "analytic" = rest {
                let t = totals.get_or_insert_with(Counts::default);
                match rest {
                    "hits" => t.hits = value,
                    "misses" => t.misses = value,
                    _ => t.analytic = value,
                }
                continue;
            }
            let Some((network, machine, field)) = split_row_key(rest) else {
                report.keys_skipped += 1;
                continue;
            };
            let idx = match report
                .rows
                .iter()
                .position(|r| r.network == network && r.machine == machine)
            {
                Some(idx) => idx,
                None => {
                    report.rows.push(Row {
                        network,
                        machine,
                        counts: Counts::default(),
                    });
                    report.rows.len() - 1
                }
            };
            let row = &mut report.rows[idx];
            match field {
                "hits" => row.counts.hits += value,
                "misses" => row.counts.misses += value,
                _ => row.counts.analytic += value,
            }
        }
    }
    for row in &report.rows {
        row_sum.hits += row.counts.hits;
        row_sum.misses += row.counts.misses;
        row_sum.analytic += row.counts.analytic;
    }
    report.totals = totals.unwrap_or(row_sum);
    let mut filtered = 0u64;
    report.rows.retain(|row| {
        let keep = filter.matches(row);
        if !keep {
            filtered += 1;
        }
        keep
    });
    report.rows_filtered = filtered;
    report
        .rows
        .sort_by(|a, b| (&a.network, &a.machine).cmp(&(&b.network, &b.machine)));
    // The registry mirror also lives in `host` (`runner.*` counters are
    // snapshotted there at experiment finish); compare it against the
    // producer's own cache-table totals.
    if let Some(host) = doc.get("host").and_then(Json::as_object) {
        let counter = |key: &str| host.get(key).and_then(Json::as_u64);
        if let (Some(hits), Some(misses)) =
            (counter("runner.cache.hits"), counter("runner.cache.misses"))
        {
            let registry = Counts {
                hits,
                misses,
                analytic: counter("runner.cache.analytic_hits").unwrap_or(0),
            };
            report.consistent = Some(registry == report.totals);
            report.registry = Some(registry);
        }
    }
    Ok(report)
}

fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Renders the report as markdown: a summary block, the per-(network,
/// machine) table, and the registry cross-check verdict.
pub fn to_markdown(report: &CacheReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Simulation cache\n");
    let _ = writeln!(out, "- manifest: {}", report.name);
    if let Some(rev) = &report.git_revision {
        let _ = writeln!(out, "- git revision: {rev}");
    }
    if report.is_empty() {
        let _ = writeln!(
            out,
            "- no cache activity recorded (run with ANT_CACHE=1 to populate)"
        );
        return out;
    }
    let t = &report.totals;
    let _ = writeln!(
        out,
        "- totals: {} hit(s) / {} miss(es) ({} hit rate), {} analytic pair(s)",
        t.hits,
        t.misses,
        pct(t.hit_rate()),
        t.analytic
    );
    match (&report.registry, report.consistent) {
        (Some(_), Some(true)) => {
            let _ = writeln!(out, "- registry cross-check: consistent");
        }
        (Some(r), _) => {
            let _ = writeln!(
                out,
                "- registry cross-check: MISMATCH (runner.cache.* says {} / {} / {})",
                r.hits, r.misses, r.analytic
            );
        }
        (None, _) => {
            let _ = writeln!(out, "- registry cross-check: no runner.cache.* counters");
        }
    }
    if report.rows_filtered > 0 {
        let _ = writeln!(out, "- rows filtered out: {}", report.rows_filtered);
    }
    if report.keys_skipped > 0 {
        let _ = writeln!(
            out,
            "- unusable cache.* key(s) skipped: {}",
            report.keys_skipped
        );
    }
    let _ = writeln!(
        out,
        "\n| network | machine | hits | misses | hit rate | analytic |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|---:|---:|");
    for row in &report.rows {
        let c = &row.counts;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            row.network,
            row.machine,
            c.hits,
            c.misses,
            pct(c.hit_rate()),
            c.analytic
        );
    }
    out
}

fn write_counts(out: &mut String, c: &Counts) {
    let _ = write!(
        out,
        "{{\"hits\":{},\"misses\":{},\"analytic\":{},\"hit_rate\":{}}}",
        c.hits,
        c.misses,
        c.analytic,
        c.hit_rate()
    );
}

/// Serializes the report under the [`SCHEMA`] JSON schema.
pub fn to_json(report: &CacheReport) -> String {
    let mut out = String::with_capacity(256 + report.rows.len() * 120);
    let _ = write!(out, "{{\"schema\":\"{SCHEMA}\",\"name\":");
    write_json_string(&report.name, &mut out);
    out.push_str(",\"git_revision\":");
    match &report.git_revision {
        Some(rev) => write_json_string(rev, &mut out),
        None => out.push_str("null"),
    }
    out.push_str(",\"totals\":");
    write_counts(&mut out, &report.totals);
    out.push_str(",\"registry\":");
    match &report.registry {
        Some(r) => write_counts(&mut out, r),
        None => out.push_str("null"),
    }
    out.push_str(",\"consistent\":");
    match report.consistent {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"rows_filtered\":{},\"keys_skipped\":{},\"rows\":[",
        report.rows_filtered, report.keys_skipped
    );
    for (i, row) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"network\":");
        write_json_string(&row.network, &mut out);
        out.push_str(",\"machine\":");
        write_json_string(&row.machine, &mut out);
        out.push_str(",\"counts\":");
        write_counts(&mut out, &row.counts);
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::CacheTable;
    use ant_obs::json::Value;

    /// A minimal manifest document: `host` carries the cache-table entries
    /// plus the registry mirror (`runner.cache.*`), exactly as the
    /// experiment tail folds them in.
    fn manifest(host: &[(String, Value)], registry: &[(&str, u64)]) -> String {
        let mut out = String::from(
            "{\"schema\":\"ant-manifest/1\",\"name\":\"fig09_speedup_energy\",\
             \"git_revision\":\"abc123\",\"stats\":{},\"host\":{",
        );
        for (i, (key, value)) in host.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(key, &mut out);
            out.push(':');
            value.write_json(&mut out);
        }
        for (key, value) in registry {
            if !host.is_empty() || !out.ends_with('{') {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":{value}");
        }
        out.push_str("}}");
        out
    }

    fn sample_host() -> Vec<(String, Value)> {
        vec![
            ("cache.net-a.SCNN+.hits".to_string(), Value::U64(5)),
            ("cache.net-a.SCNN+.misses".to_string(), Value::U64(3)),
            ("cache.net-a.SCNN+.analytic".to_string(), Value::U64(0)),
            ("cache.net-b.Dense.hits".to_string(), Value::U64(0)),
            ("cache.net-b.Dense.misses".to_string(), Value::U64(2)),
            ("cache.net-b.Dense.analytic".to_string(), Value::U64(24)),
            ("cache.hits".to_string(), Value::U64(5)),
            ("cache.misses".to_string(), Value::U64(5)),
            ("cache.analytic".to_string(), Value::U64(24)),
            ("worker.00.jobs".to_string(), Value::U64(7)),
        ]
    }

    #[test]
    fn analyze_reads_rows_totals_and_registry() {
        let text = manifest(
            &sample_host(),
            &[
                ("runner.cache.hits", 5),
                ("runner.cache.misses", 5),
                ("runner.cache.analytic_hits", 24),
            ],
        );
        let report = analyze(&text, &CacheFilter::default()).expect("analyzes");
        assert_eq!(report.name, "fig09_speedup_energy");
        assert_eq!(report.git_revision.as_deref(), Some("abc123"));
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].network, "net-a");
        assert_eq!(report.rows[0].machine, "SCNN+");
        assert_eq!(
            report.rows[0].counts,
            Counts {
                hits: 5,
                misses: 3,
                analytic: 0
            }
        );
        assert_eq!(
            report.totals,
            Counts {
                hits: 5,
                misses: 5,
                analytic: 24
            }
        );
        assert_eq!(report.consistent, Some(true));
        assert_eq!(report.keys_skipped, 0);
        assert!((report.rows[0].counts.hit_rate() - 0.625).abs() < 1e-12);

        // A registry that disagrees with the host totals is surfaced, not
        // silently preferred.
        let text = manifest(
            &sample_host(),
            &[("runner.cache.hits", 4), ("runner.cache.misses", 5)],
        );
        let report = analyze(&text, &CacheFilter::default()).expect("analyzes");
        assert_eq!(report.consistent, Some(false));
        let markdown = to_markdown(&report);
        assert!(markdown.contains("MISMATCH"), "{markdown}");

        // No registry counters at all: nothing to cross-check.
        let text = manifest(&sample_host(), &[]);
        let report = analyze(&text, &CacheFilter::default()).expect("analyzes");
        assert_eq!(report.consistent, None);
        assert!(report.registry.is_none());
    }

    #[test]
    fn filters_empty_manifests_and_errors() {
        let text = manifest(
            &sample_host(),
            &[("runner.cache.hits", 5), ("runner.cache.misses", 5)],
        );
        let filter = CacheFilter {
            machine: Some("Dense".to_string()),
            ..CacheFilter::default()
        };
        let report = analyze(&text, &filter).expect("analyzes");
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].network, "net-b");
        assert_eq!(report.rows_filtered, 1);
        // Totals stay sweep-wide under a filter (they come from the
        // producer's own total keys).
        assert_eq!(
            report.totals,
            Counts {
                hits: 5,
                misses: 5,
                analytic: 24
            }
        );

        // A cache-off manifest is an empty report, not an error.
        let report = analyze(
            &manifest(&[("worker.00.jobs".to_string(), Value::U64(7))], &[]),
            &CacheFilter::default(),
        )
        .expect("analyzes");
        assert!(report.is_empty());
        assert!(to_markdown(&report).contains("no cache activity"));

        // Non-manifest input is the only hard error.
        assert!(analyze("not json", &CacheFilter::default()).is_err());
        assert!(analyze("{\"schema\":\"other/1\"}", &CacheFilter::default()).is_err());

        // Unrecognized cache.* keys are counted, never fatal.
        let report = analyze(
            &manifest(
                &[
                    ("cache.lonely".to_string(), Value::U64(1)),
                    ("cache.net.M.hits".to_string(), Value::U64(2)),
                ],
                &[],
            ),
            &CacheFilter::default(),
        )
        .expect("analyzes");
        assert_eq!(report.keys_skipped, 1);
        assert_eq!(report.rows.len(), 1);
        // With no producer totals the row sum stands in.
        assert_eq!(
            report.totals,
            Counts {
                hits: 2,
                misses: 0,
                analytic: 0
            }
        );
    }

    #[test]
    fn json_round_trips_what_the_cache_table_wrote() {
        // The producer side: sample_host() mirrors exactly what
        // CacheTable::host_stats emits (format pinned by the telemetry
        // unit tests), so this is the full manifest -> report -> JSON path.
        assert!(CacheTable::new().is_empty());
        let text = manifest(
            &sample_host(),
            &[
                ("runner.cache.hits", 5),
                ("runner.cache.misses", 5),
                ("runner.cache.analytic_hits", 24),
            ],
        );
        let report = analyze(&text, &CacheFilter::default()).expect("analyzes");
        let json = ant_obs::parse_json(&to_json(&report)).expect("valid JSON");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            json.get("totals")
                .and_then(|t| t.get("hits"))
                .and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(json.get("consistent").and_then(Json::as_bool), Some(true));
        let rows = json.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1]
                .get("counts")
                .and_then(|c| c.get("analytic"))
                .and_then(Json::as_u64),
            Some(24)
        );
        let markdown = to_markdown(&report);
        assert!(markdown.contains("# Simulation cache"));
        assert!(markdown.contains("| net-b | Dense | 0 | 2 | 0.0% | 24 |"));
    }
}
