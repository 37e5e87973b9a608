//! `obsctl flame diff`: self/total-time deltas between two collapsed-stack
//! flamegraph files.
//!
//! Input is the folded format `crates/obs/src/flame.rs` writes — one line
//! per call path, frames joined by `;`, the trailing integer the path's
//! *self* time in microseconds. A path's *total* time is its self time plus
//! the self time of every descendant path (any path it prefixes at a frame
//! boundary). The diff reports both deltas per path over the union of the
//! two files, sorted by absolute self-time delta, so "where did the time
//! move" is one command instead of two flamegraph renders and eyeballing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ant_obs::json::write_json_string;

/// Schema tag of the machine-readable report (`--json`).
pub const SCHEMA: &str = "ant-flame-diff/1";

/// A parsed folded file: path → self microseconds. Duplicate paths sum
/// (the folded grammar allows repeats); malformed lines are counted, not
/// fatal.
#[derive(Debug, Clone, Default)]
pub struct FoldedProfile {
    /// Self time per `;`-joined path.
    pub self_us: BTreeMap<String, u64>,
    /// Lines that did not parse as `path self_us`.
    pub lines_skipped: u64,
}

impl FoldedProfile {
    /// Parses folded text.
    pub fn parse(text: &str) -> FoldedProfile {
        let mut profile = FoldedProfile::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = line
                .rsplit_once(' ')
                .and_then(|(path, us)| us.parse::<u64>().ok().map(|us| (path, us)))
                .filter(|(path, _)| !path.is_empty());
            match parsed {
                Some((path, us)) => {
                    *profile.self_us.entry(path.to_string()).or_insert(0) += us;
                }
                None => profile.lines_skipped += 1,
            }
        }
        profile
    }

    /// Total time per path: self plus every strict-descendant's self
    /// (descendants share the path as a `;`-boundary prefix).
    pub fn total_us(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (path, &self_us) in &self.self_us {
            // Credit this leaf's self time to itself and every ancestor
            // prefix, walking the `;` boundaries.
            *totals.entry(path.clone()).or_insert(0) += self_us;
            for (idx, _) in path.match_indices(';') {
                *totals.entry(path[..idx].to_string()).or_insert(0) += self_us;
            }
        }
        // Keep only paths that exist in the profile (ancestors with no
        // recorded self line still accumulated descendant time; they are
        // real nodes of the span tree, keep them).
        totals
    }
}

/// One path's movement between the two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDelta {
    /// `;`-joined call path.
    pub path: String,
    /// Self microseconds in the first profile.
    pub self_a_us: u64,
    /// Self microseconds in the second profile.
    pub self_b_us: u64,
    /// `self_b - self_a`.
    pub self_delta_us: i64,
    /// Total microseconds in the first profile.
    pub total_a_us: u64,
    /// Total microseconds in the second profile.
    pub total_b_us: u64,
    /// `total_b - total_a`.
    pub total_delta_us: i64,
}

/// The outcome of diffing two folded profiles.
#[derive(Debug, Clone)]
pub struct FlameDiff {
    /// Per-path deltas over the union of paths, sorted by absolute
    /// self-time delta (largest movement first).
    pub deltas: Vec<PathDelta>,
    /// Sum of self time in the first profile.
    pub total_a_us: u64,
    /// Sum of self time in the second profile.
    pub total_b_us: u64,
    /// Unparsable lines skipped across both inputs.
    pub lines_skipped: u64,
}

/// Diffs `b` against `a` (positive deltas mean `b` is slower).
pub fn diff(a: &FoldedProfile, b: &FoldedProfile) -> FlameDiff {
    let totals_a = a.total_us();
    let totals_b = b.total_us();
    let mut paths: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    paths.extend(totals_a.keys().map(String::as_str));
    paths.extend(totals_b.keys().map(String::as_str));
    let mut deltas: Vec<PathDelta> = paths
        .into_iter()
        .map(|path| {
            let self_a_us = a.self_us.get(path).copied().unwrap_or(0);
            let self_b_us = b.self_us.get(path).copied().unwrap_or(0);
            let total_a_us = totals_a.get(path).copied().unwrap_or(0);
            let total_b_us = totals_b.get(path).copied().unwrap_or(0);
            PathDelta {
                path: path.to_string(),
                self_a_us,
                self_b_us,
                self_delta_us: self_b_us as i64 - self_a_us as i64,
                total_a_us,
                total_b_us,
                total_delta_us: total_b_us as i64 - total_a_us as i64,
            }
        })
        .collect();
    deltas.sort_by(|x, y| {
        y.self_delta_us
            .abs()
            .cmp(&x.self_delta_us.abs())
            .then_with(|| x.path.cmp(&y.path))
    });
    FlameDiff {
        deltas,
        total_a_us: a.self_us.values().sum(),
        total_b_us: b.self_us.values().sum(),
        lines_skipped: a.lines_skipped + b.lines_skipped,
    }
}

/// Renders the diff as a markdown table of the `top` biggest movers.
pub fn to_markdown(report: &FlameDiff, label_a: &str, label_b: &str, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Flamegraph diff\n");
    let _ = writeln!(
        out,
        "- a: `{label_a}` ({} us self total)",
        report.total_a_us
    );
    let _ = writeln!(
        out,
        "- b: `{label_b}` ({} us self total)",
        report.total_b_us
    );
    if report.lines_skipped > 0 {
        let _ = writeln!(out, "- skipped {} unparsable line(s)", report.lines_skipped);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| path | self a | self b | Δself | total a | total b | Δtotal |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|");
    for d in report.deltas.iter().take(top) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:+} | {} | {} | {:+} |",
            d.path,
            d.self_a_us,
            d.self_b_us,
            d.self_delta_us,
            d.total_a_us,
            d.total_b_us,
            d.total_delta_us
        );
    }
    if report.deltas.len() > top {
        let _ = writeln!(
            out,
            "\n({} more path(s) below --top {top})",
            report.deltas.len() - top
        );
    }
    out
}

/// Serializes the diff under the [`SCHEMA`] JSON schema (all paths).
pub fn to_json(report: &FlameDiff, label_a: &str, label_b: &str) -> String {
    let mut out = String::with_capacity(128 + report.deltas.len() * 160);
    out.push_str("{\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"a\":");
    write_json_string(label_a, &mut out);
    out.push_str(",\"b\":");
    write_json_string(label_b, &mut out);
    let _ = write!(
        out,
        ",\"total_a_us\":{},\"total_b_us\":{},\"lines_skipped\":{},\"paths\":[",
        report.total_a_us, report.total_b_us, report.lines_skipped
    );
    for (i, d) in report.deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        write_json_string(&d.path, &mut out);
        let _ = write!(
            out,
            ",\"self_a_us\":{},\"self_b_us\":{},\"self_delta_us\":{},\"total_a_us\":{},\"total_b_us\":{},\"total_delta_us\":{}}}",
            d.self_a_us, d.self_b_us, d.self_delta_us, d.total_a_us, d.total_b_us, d.total_delta_us
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_obs::json::Json;

    const A: &str = "exp;net;layer;phase 100\nexp;net;layer 50\nexp;gone 10\n";
    const B: &str = "exp;net;layer;phase 300\nexp;net;layer 50\nexp;new 20\nbad line here\n";

    #[test]
    fn parse_sums_duplicates_and_counts_bad_lines() {
        let p = FoldedProfile::parse("a;b 10\na;b 5\nnope\n");
        assert_eq!(p.self_us["a;b"], 15);
        assert_eq!(p.lines_skipped, 1);
    }

    #[test]
    fn totals_roll_up_to_ancestors() {
        let p = FoldedProfile::parse(A);
        let totals = p.total_us();
        assert_eq!(totals["exp;net;layer;phase"], 100);
        assert_eq!(totals["exp;net;layer"], 150);
        assert_eq!(totals["exp;net"], 150);
        assert_eq!(totals["exp"], 160);
    }

    #[test]
    fn diff_reports_movement_and_union_paths() {
        let report = diff(&FoldedProfile::parse(A), &FoldedProfile::parse(B));
        assert_eq!(report.total_a_us, 160);
        assert_eq!(report.total_b_us, 370);
        assert_eq!(report.lines_skipped, 1);
        // Largest self mover first.
        assert_eq!(report.deltas[0].path, "exp;net;layer;phase");
        assert_eq!(report.deltas[0].self_delta_us, 200);
        assert_eq!(report.deltas[0].total_delta_us, 200);
        let by_path = |p: &str| {
            report
                .deltas
                .iter()
                .find(|d| d.path == p)
                .unwrap_or_else(|| panic!("path {p} in diff"))
        };
        assert_eq!(by_path("exp;gone").self_delta_us, -10);
        assert_eq!(by_path("exp;new").self_delta_us, 20);
        assert_eq!(by_path("exp;net;layer").self_delta_us, 0);
        assert_eq!(by_path("exp;net;layer").total_delta_us, 200);
        assert_eq!(by_path("exp").total_delta_us, 210);
    }

    #[test]
    fn json_and_markdown_render() {
        let report = diff(&FoldedProfile::parse(A), &FoldedProfile::parse(B));
        let json =
            ant_obs::parse_json(&to_json(&report, "a.folded", "b.folded")).expect("valid JSON");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(json.get("a").and_then(Json::as_str), Some("a.folded"));
        let paths = json.get("paths").and_then(Json::as_array).expect("paths");
        assert!(!paths.is_empty());
        assert_eq!(
            paths[0].get("self_delta_us").and_then(Json::as_f64),
            Some(200.0)
        );
        let md = to_markdown(&report, "a.folded", "b.folded", 2);
        assert!(md.contains("| exp;net;layer;phase | 100 | 300 | +200 |"));
        assert!(md.contains("more path(s)"));
    }
}
