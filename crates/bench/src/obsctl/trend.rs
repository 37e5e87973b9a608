//! `obsctl ledger trend`: per-metric trend report over the bench-history
//! ledger across revisions.
//!
//! The comparison half is deliberately *not* reimplemented: the candidate
//! and baseline come from [`crate::history::select`], the same selection
//! `bench_history compare` makes with no refs, and the per-metric verdicts
//! come from [`crate::history::compare`] itself. What trend adds is the
//! *history*: each metric's value sequence over the window, so a report
//! shows not just "regressed vs baseline" but the shape of the drift that
//! got it there.
//!
//! Unlike `bench_history compare`, trend is an analysis tool, not a gate —
//! it always exits zero; the `regressed` flag in the JSON is informational.

use std::fmt::Write as _;

use ant_obs::json::write_json_string;

use crate::history::{self, CompareReport, HistoryEntry};

/// Schema tag of the machine-readable report (`--json`).
pub const SCHEMA: &str = "ant-ledger-trend/1";

/// Knobs for one trend analysis.
#[derive(Debug, Clone)]
pub struct TrendOptions {
    /// Restrict to entries with this label (default: the newest entry's
    /// label, matching `bench_history compare`).
    pub label: Option<String>,
    /// Only render metrics whose name contains this substring (the
    /// comparison itself still runs over every metric).
    pub metric: Option<String>,
    /// Rolling-median window, in prior same-label entries.
    pub window: usize,
    /// Base regression threshold, as in `bench_history compare`.
    pub threshold: f64,
}

impl Default for TrendOptions {
    fn default() -> Self {
        Self {
            label: None,
            metric: None,
            window: 5,
            threshold: history::DEFAULT_THRESHOLD,
        }
    }
}

/// One metric's value at one ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Entry's git revision, when recorded.
    pub revision: Option<String>,
    /// Entry's timestamp.
    pub timestamp_unix_ms: u64,
    /// Metric value in that entry (`None` when absent there).
    pub value: Option<f64>,
}

/// The outcome of a trend analysis that had something to compare.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// Label the series was restricted to.
    pub label: String,
    /// Window size used for the rolling-median baseline.
    pub window: usize,
    /// The verdicts, verbatim from [`history::compare`].
    pub compare: CompareReport,
    /// Per-metric value sequences over the windowed same-label entries
    /// (oldest first, candidate last), parallel to `compare.deltas` order.
    pub history: Vec<(String, Vec<TrendPoint>)>,
    /// Substring filter applied at render time, if any.
    pub metric_filter: Option<String>,
}

/// A trend analysis either produces a report or a reason there is nothing
/// to compare (empty ledger, unknown label, single entry).
#[derive(Debug, Clone)]
pub enum TrendOutcome {
    /// A full report.
    Report(Box<TrendReport>),
    /// Nothing to compare; the string explains why. Not an error.
    Nothing(String),
}

/// Runs the analysis over `entries` (oldest first, as loaded from the
/// ledger).
pub fn analyze(entries: &[HistoryEntry], opts: &TrendOptions) -> TrendOutcome {
    let selection = match history::select(entries, opts.label.as_deref(), opts.window) {
        Ok(selection) => selection,
        Err(reason) => return TrendOutcome::Nothing(reason),
    };
    let compare = history::compare(&selection.baseline, selection.candidate, opts.threshold);
    let history = compare
        .deltas
        .iter()
        .map(|d| {
            let points = selection
                .series
                .iter()
                .map(|e| TrendPoint {
                    revision: e.git_revision.clone(),
                    timestamp_unix_ms: e.timestamp_unix_ms,
                    value: e.metrics.get(&d.name).copied(),
                })
                .collect();
            (d.name.clone(), points)
        })
        .collect();
    TrendOutcome::Report(Box::new(TrendReport {
        label: selection.candidate.label.clone(),
        window: opts.window,
        compare,
        history,
        metric_filter: opts.metric.clone(),
    }))
}

impl TrendReport {
    fn metric_visible(&self, name: &str) -> bool {
        self.metric_filter
            .as_deref()
            .is_none_or(|f| name.contains(f))
    }

    /// Renders the trend as markdown: identities, then one row per metric
    /// with its windowed value sequence and the compare verdict.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Ledger trend: {}\n", self.label);
        let _ = writeln!(out, "- baseline:  `{}`", self.compare.baseline);
        let _ = writeln!(out, "- candidate: `{}`", self.compare.candidate);
        let _ = writeln!(
            out,
            "- window: {} prior same-label entr{}; threshold {:.1}% (class gates as in `bench_history compare`)\n",
            self.window,
            if self.window == 1 { "y" } else { "ies" },
            self.compare.threshold * 100.0
        );
        if let Some(warning) = &self.compare.host_warning {
            let _ = writeln!(out, "{warning}\n");
        }
        let _ = writeln!(out, "| metric | class | trend (old → new) | change | status |");
        let _ = writeln!(out, "|---|---|---|---:|---|");
        let mut hidden = 0usize;
        for (delta, (name, points)) in self.compare.deltas.iter().zip(&self.history) {
            if !self.metric_visible(name) {
                hidden += 1;
                continue;
            }
            let sequence = points
                .iter()
                .map(|p| match p.value {
                    Some(v) => trim_number(v),
                    None => "-".to_string(),
                })
                .collect::<Vec<_>>()
                .join(" → ");
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:+.1}% | {} |",
                name,
                delta.class.name(),
                sequence,
                delta.rel_change * 100.0,
                delta.status()
            );
        }
        let regressed = self.compare.regressions().len();
        let improved = self.compare.deltas.iter().filter(|d| d.improved).count();
        let _ = writeln!(
            out,
            "\n{} regression{}, {} improvement{}, {} metric{} compared.",
            regressed,
            if regressed == 1 { "" } else { "s" },
            improved,
            if improved == 1 { "" } else { "s" },
            self.compare.deltas.len(),
            if self.compare.deltas.len() == 1 { "" } else { "s" },
        );
        if hidden > 0 {
            let _ = writeln!(out, "({hidden} metric(s) hidden by --metric filter)");
        }
        if !self.compare.missing.is_empty() {
            let _ = writeln!(
                out,
                "\nOnly in one side (not gated): {}.",
                self.compare.missing.join(", ")
            );
        }
        out
    }

    /// Serializes under the [`SCHEMA`] JSON schema. Per-metric `status`,
    /// `gate`, `rel_change`, and the `regressed` summary are byte-for-byte
    /// the verdicts `bench_history compare --json` would emit for the same
    /// ledger; each metric additionally carries its windowed history.
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let mut out = String::with_capacity(512 + self.compare.deltas.len() * 256);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"label\":");
        write_json_string(&self.label, &mut out);
        out.push_str(",\"baseline\":");
        write_json_string(&self.compare.baseline, &mut out);
        out.push_str(",\"candidate\":");
        write_json_string(&self.compare.candidate, &mut out);
        let _ = write!(
            out,
            ",\"window\":{},\"threshold\":{},\"regressed\":{},\"regressions\":{},\"improvements\":{},\"metrics\":[",
            self.window,
            self.compare.threshold,
            self.compare.has_regressions(),
            self.compare.regressions().len(),
            self.compare.deltas.iter().filter(|d| d.improved).count()
        );
        let mut first = true;
        for (delta, (name, points)) in self.compare.deltas.iter().zip(&self.history) {
            if !self.metric_visible(name) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            write_json_string(name, &mut out);
            let _ = write!(
                out,
                ",\"class\":\"{}\",\"baseline\":{},\"candidate\":{},\"rel_change\":{},\"gate\":{},\"status\":\"{}\",\"history\":[",
                delta.class.name(),
                num(delta.baseline),
                num(delta.candidate),
                num(delta.rel_change),
                num(delta.gate),
                delta.status()
            );
            for (i, p) in points.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"revision\":");
                match &p.revision {
                    Some(rev) => write_json_string(rev, &mut out),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"timestamp_unix_ms\":{},\"value\":", p.timestamp_unix_ms);
                match p.value {
                    Some(v) => out.push_str(&num(v)),
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("],\"missing\":[");
        for (i, name) in self.compare.missing.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
        }
        out.push_str("]}");
        out
    }
}

/// Compact numeric rendering for the trend sequence column.
fn trim_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_obs::json::Json;
    use std::collections::BTreeMap;

    fn entry(label: &str, rev: &str, ts: u64, metrics: &[(&str, f64)]) -> HistoryEntry {
        HistoryEntry {
            label: label.to_string(),
            git_revision: Some(rev.to_string()),
            timestamp_unix_ms: ts,
            repeats: 1,
            host: Some(history::Host {
                nproc: 2,
                cpu_model: None,
                arch: "x86_64".to_string(),
            }),
            metrics: metrics
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    fn ledger() -> Vec<HistoryEntry> {
        vec![
            entry("fig09", "aaa1111", 1, &[("net/ant_cycles", 100.0)]),
            entry("other", "bbb2222", 2, &[("x/ant_cycles", 5.0)]),
            entry("fig09", "ccc3333", 3, &[("net/ant_cycles", 101.0)]),
            entry("fig09", "ddd4444", 4, &[("net/ant_cycles", 120.0)]),
        ]
    }

    #[test]
    fn verdicts_match_bench_history_compare_defaults() {
        let entries = ledger();
        let outcome = analyze(&entries, &TrendOptions::default());
        let TrendOutcome::Report(report) = outcome else {
            panic!("expected a report");
        };
        // The selection `bench_history compare` makes with no refs: newest
        // entry (fig09 @ ddd4444) vs median of prior fig09 entries.
        let selection = history::select(&entries, None, 5).expect("something to compare");
        assert!(std::ptr::eq(selection.candidate, &entries[3]));
        let expected = history::compare(
            &selection.baseline,
            selection.candidate,
            history::DEFAULT_THRESHOLD,
        );
        assert_eq!(report.compare.baseline, expected.baseline);
        assert_eq!(report.compare.candidate, expected.candidate);
        assert_eq!(report.compare.deltas.len(), expected.deltas.len());
        for (got, want) in report.compare.deltas.iter().zip(&expected.deltas) {
            assert_eq!(got.name, want.name);
            assert_eq!(got.regressed, want.regressed);
            assert_eq!(got.improved, want.improved);
            assert_eq!(got.rel_change, want.rel_change);
            assert_eq!(got.status(), want.status());
        }
        // +19% cycles over the 100.5 median regresses at the 5% gate...
        assert!(report.compare.has_regressions());
        // ...and the history column carries the fig09 sequence only.
        let (name, points) = &report.history[0];
        assert_eq!(name, "net/ant_cycles");
        let values: Vec<Option<f64>> = points.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![Some(100.0), Some(101.0), Some(120.0)]);
    }

    #[test]
    fn label_filter_selects_that_series() {
        let outcome = analyze(
            &ledger(),
            &TrendOptions {
                label: Some("other".to_string()),
                ..TrendOptions::default()
            },
        );
        // Single "other" entry: nothing to compare.
        let TrendOutcome::Nothing(reason) = outcome else {
            panic!("expected nothing-to-compare");
        };
        assert!(reason.contains("other"), "{reason}");
    }

    #[test]
    fn single_entry_is_nothing_to_compare() {
        let outcome = analyze(&ledger()[..1], &TrendOptions::default());
        let TrendOutcome::Nothing(reason) = outcome else {
            panic!("expected nothing-to-compare");
        };
        assert!(reason.contains("nothing to compare"), "{reason}");
    }

    #[test]
    fn empty_ledger_is_nothing_not_error() {
        let outcome = analyze(&[], &TrendOptions::default());
        assert!(matches!(outcome, TrendOutcome::Nothing(_)));
    }

    #[test]
    fn json_is_schema_tagged_with_history_and_statuses() {
        let TrendOutcome::Report(report) = analyze(&ledger(), &TrendOptions::default()) else {
            panic!("expected report");
        };
        let json = ant_obs::parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(json.get("label").and_then(Json::as_str), Some("fig09"));
        assert_eq!(json.get("regressed").and_then(Json::as_bool), Some(true));
        let metrics = json.get("metrics").and_then(Json::as_array).expect("metrics");
        assert_eq!(metrics.len(), 1);
        assert_eq!(
            metrics[0].get("status").and_then(Json::as_str),
            Some("regressed")
        );
        let history = metrics[0]
            .get("history")
            .and_then(Json::as_array)
            .expect("history");
        assert_eq!(history.len(), 3);
        assert_eq!(history[2].get("value").and_then(Json::as_f64), Some(120.0));
        assert_eq!(
            history[2].get("revision").and_then(Json::as_str),
            Some("ddd4444")
        );
        let md = report.to_markdown();
        assert!(md.contains("100 → 101 → 120"));
        assert!(md.contains("regressed"));
    }

    #[test]
    fn metric_filter_hides_rows_but_keeps_global_verdict() {
        let entries = vec![
            entry("fig09", "a", 1, &[("net/ant_cycles", 100.0), ("net/wall_us", 10.0)]),
            entry(
                "fig09",
                "b",
                2,
                &[("net/ant_cycles", 200.0), ("net/wall_us", 10.0)],
            ),
        ];
        let TrendOutcome::Report(report) = analyze(
            &entries,
            &TrendOptions {
                metric: Some("wall".to_string()),
                ..TrendOptions::default()
            },
        ) else {
            panic!("expected report");
        };
        let json = ant_obs::parse_json(&report.to_json()).expect("valid JSON");
        let metrics = json.get("metrics").and_then(Json::as_array).expect("metrics");
        assert_eq!(metrics.len(), 1, "cycles row hidden");
        assert_eq!(
            metrics[0].get("name").and_then(Json::as_str),
            Some("net/wall_us")
        );
        // The cycles regression still counts in the summary.
        assert_eq!(json.get("regressed").and_then(Json::as_bool), Some(true));
        assert!(report.to_markdown().contains("hidden by --metric"));
    }
}
