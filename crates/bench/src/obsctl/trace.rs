//! `obsctl trace`: filter and aggregate a span-trace JSONL into per-span
//! statistics.
//!
//! Input is the `ANT_OBS=trace` sink format: one JSON object per line, spans
//! carrying `kind:"span"`, a `name`, a slash-joined ancestry `path`, a
//! `dur_us`, and a `fields` object (the runner records `network`,
//! `machine`, `layer`, and `phase` there). Records are grouped by `path` —
//! one row per distinct call site in the span tree — and reported with
//! count/total/mean/p50/p95/max duration, sorted by total time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ant_obs::json::{write_json_string, Json};

/// Schema tag of the machine-readable report (`--json`).
pub const SCHEMA: &str = "ant-trace-stats/1";

/// Which span records participate in the aggregation. Every populated
/// field must match: `name` by substring on the span name, the rest by
/// exact string equality against the span's `fields` entries.
#[derive(Debug, Default, Clone)]
pub struct TraceFilter {
    /// Substring of the span name (`"phase"`, `"pair"`, ...).
    pub name: Option<String>,
    /// Exact `layer` field value.
    pub layer: Option<String>,
    /// Exact `phase` field value.
    pub phase: Option<String>,
    /// Exact `network` field value.
    pub network: Option<String>,
    /// Exact `machine` field value.
    pub machine: Option<String>,
}

impl TraceFilter {
    fn matches(&self, name: &str, record: &Json) -> bool {
        if let Some(want) = &self.name {
            if !name.contains(want.as_str()) {
                return false;
            }
        }
        let field = |key: &str| {
            record
                .get("fields")
                .and_then(|f| f.get(key))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        for (want, key) in [
            (&self.layer, "layer"),
            (&self.phase, "phase"),
            (&self.network, "network"),
            (&self.machine, "machine"),
        ] {
            if let Some(want) = want {
                if field(key).as_deref() != Some(want.as_str()) {
                    return false;
                }
            }
        }
        true
    }
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Slash-joined ancestry path (falls back to the span name for records
    /// without one).
    pub path: String,
    /// Span name (last path segment).
    pub name: String,
    /// Matching span records.
    pub count: u64,
    /// Sum of `dur_us` over the group.
    pub total_us: f64,
    /// Mean duration.
    pub mean_us: f64,
    /// Nearest-rank median duration.
    pub p50_us: f64,
    /// Nearest-rank 95th-percentile duration.
    pub p95_us: f64,
    /// Longest single duration.
    pub max_us: f64,
}

/// The outcome of one `obsctl trace` aggregation.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Per-path statistics, sorted by `total_us` descending.
    pub spans: Vec<SpanStats>,
    /// Span records the filter matched.
    pub records_matched: u64,
    /// Span records the filter rejected.
    pub records_filtered: u64,
    /// Lines that were not parseable trace records (skipped, not fatal).
    pub lines_skipped: u64,
}

/// Aggregates `text` (trace JSONL) under `filter`.
pub fn analyze(text: &str, filter: &TraceFilter) -> TraceReport {
    let mut durations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut records_matched = 0u64;
    let mut records_filtered = 0u64;
    let mut lines_skipped = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(record) = ant_obs::parse_json(line) else {
            lines_skipped += 1;
            continue;
        };
        if record.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let Some(dur_us) = record.get("dur_us").and_then(Json::as_f64) else {
            continue;
        };
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("(unnamed)")
            .to_string();
        if !filter.matches(&name, &record) {
            records_filtered += 1;
            continue;
        }
        records_matched += 1;
        let path = record
            .get("path")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| name.clone());
        durations.entry(path).or_default().push(dur_us);
    }
    let mut spans: Vec<SpanStats> = durations
        .into_iter()
        .map(|(path, mut durs)| {
            let total_us: f64 = durs.iter().sum();
            let count = durs.len() as u64;
            let name = path.rsplit('/').next().unwrap_or(&path).to_string();
            SpanStats {
                name,
                count,
                total_us,
                mean_us: total_us / count as f64,
                p50_us: super::percentile(&mut durs, 50.0),
                p95_us: super::percentile(&mut durs, 95.0),
                max_us: super::percentile(&mut durs, 100.0),
                path,
            }
        })
        .collect();
    spans.sort_by(|a, b| {
        b.total_us
            .partial_cmp(&a.total_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    TraceReport {
        spans,
        records_matched,
        records_filtered,
        lines_skipped,
    }
}

/// Renders the report as a markdown table of the `top` heaviest paths.
pub fn to_markdown(report: &TraceReport, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Trace span stats\n");
    let _ = writeln!(
        out,
        "- spans matched: {} ({} filtered out, {} unparsable line(s) skipped)\n",
        report.records_matched, report.records_filtered, report.lines_skipped
    );
    let _ = writeln!(
        out,
        "| path | count | total_us | mean_us | p50_us | p95_us | max_us |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|");
    for s in report.spans.iter().take(top) {
        let _ = writeln!(
            out,
            "| {} | {} | {:.0} | {:.1} | {:.1} | {:.1} | {:.1} |",
            s.path, s.count, s.total_us, s.mean_us, s.p50_us, s.p95_us, s.max_us
        );
    }
    if report.spans.len() > top {
        let _ = writeln!(
            out,
            "\n({} more path(s) below --top {top})",
            report.spans.len() - top
        );
    }
    out
}

/// Serializes the report under the [`SCHEMA`] JSON schema. Like the
/// markdown view, the `spans` array is bounded by `top` (heaviest paths
/// first); the number of paths dropped is reported as `truncated` so a
/// consumer can tell a short report from a short trace. The headline
/// `records_*` counts always cover every record.
pub fn to_json(report: &TraceReport, top: usize) -> String {
    let mut out = String::with_capacity(128 + report.spans.len().min(top) * 160);
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"records_matched\":{},\"records_filtered\":{},\"lines_skipped\":{},\"spans\":[",
        report.records_matched, report.records_filtered, report.lines_skipped
    );
    for (i, s) in report.spans.iter().take(top).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        write_json_string(&s.path, &mut out);
        out.push_str(",\"name\":");
        write_json_string(&s.name, &mut out);
        let _ = write!(
            out,
            ",\"count\":{},\"total_us\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"max_us\":{}}}",
            s.count, s.total_us, s.mean_us, s.p50_us, s.p95_us, s.max_us
        );
    }
    let truncated = report.spans.len().saturating_sub(top);
    let _ = write!(out, "],\"truncated\":{truncated}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        [
            r#"{"kind":"span","name":"phase","path":"experiment/network/layer/phase","dur_us":100,"fields":{"layer":"l1","phase":"forward","network":"tiny"}}"#,
            r#"{"kind":"span","name":"phase","path":"experiment/network/layer/phase","dur_us":300,"fields":{"layer":"l1","phase":"backward","network":"tiny"}}"#,
            r#"{"kind":"span","name":"layer","path":"experiment/network/layer","dur_us":500,"fields":{"layer":"l1","network":"tiny"}}"#,
            r#"{"kind":"event","name":"note","fields":{}}"#,
            "not json at all",
        ]
        .join("\n")
    }

    #[test]
    fn groups_by_path_and_sorts_by_total() {
        let report = analyze(&sample_trace(), &TraceFilter::default());
        assert_eq!(report.records_matched, 3);
        assert_eq!(report.lines_skipped, 1);
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].path, "experiment/network/layer");
        assert_eq!(report.spans[0].total_us, 500.0);
        let phase = &report.spans[1];
        assert_eq!(phase.count, 2);
        assert_eq!(phase.total_us, 400.0);
        assert_eq!(phase.mean_us, 200.0);
        assert_eq!(phase.p50_us, 100.0);
        assert_eq!(phase.max_us, 300.0);
        assert_eq!(phase.name, "phase");
    }

    #[test]
    fn filters_compose() {
        let filter = TraceFilter {
            phase: Some("backward".to_string()),
            ..TraceFilter::default()
        };
        let report = analyze(&sample_trace(), &filter);
        assert_eq!(report.records_matched, 1);
        assert_eq!(report.records_filtered, 2);
        assert_eq!(report.spans[0].total_us, 300.0);

        let name_filter = TraceFilter {
            name: Some("lay".to_string()),
            ..TraceFilter::default()
        };
        let report = analyze(&sample_trace(), &name_filter);
        assert_eq!(report.records_matched, 1);
        assert_eq!(report.spans[0].path, "experiment/network/layer");
    }

    #[test]
    fn json_rendering_is_schema_tagged_and_parseable() {
        let report = analyze(&sample_trace(), &TraceFilter::default());
        let json = ant_obs::parse_json(&to_json(&report, 30)).expect("valid JSON");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let spans = json.get("spans").and_then(Json::as_array).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].get("path").and_then(Json::as_str),
            Some("experiment/network/layer")
        );
        assert_eq!(json.get("truncated").and_then(Json::as_u64), Some(0));
        let markdown = to_markdown(&report, 1);
        assert!(markdown.contains("| experiment/network/layer |"));
        assert!(markdown.contains("1 more path(s)"));
    }

    #[test]
    fn json_spans_are_bounded_by_top_with_truncated_count() {
        let report = analyze(&sample_trace(), &TraceFilter::default());
        let json = ant_obs::parse_json(&to_json(&report, 1)).expect("valid JSON");
        let spans = json.get("spans").and_then(Json::as_array).expect("spans");
        // Only the heaviest path survives the bound...
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("path").and_then(Json::as_str),
            Some("experiment/network/layer")
        );
        assert_eq!(json.get("truncated").and_then(Json::as_u64), Some(1));
        // ...but the headline record counts still cover the whole trace.
        assert_eq!(json.get("records_matched").and_then(Json::as_u64), Some(3));
    }
}
