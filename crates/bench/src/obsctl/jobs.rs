//! `obsctl jobs`: pretty-print an `ant-sweepd` job board.
//!
//! The source is a running daemon's `GET /jobs` endpoint (give the base
//! URL; `/jobs` is appended when the URL has no path) or a saved listing
//! on disk. Renders one row per job — tenant, state, queue position, ETA —
//! followed by the supervision history of any job that needed retries:
//! per-attempt errors and the deterministic backoff schedule, plus the
//! pair-level retry/quarantine counts the runner reported. `--follow`
//! re-fetches until every job reaches a terminal state.

use std::fmt::Write as _;

use ant_obs::json::Json;

#[cfg(test)]
use super::Source;

/// True when every listed job is in a terminal state (nothing queued,
/// running, or backing off) — the `--follow` exit condition.
pub fn all_terminal(text: &str) -> bool {
    let Ok(json) = ant_obs::parse_json(text) else {
        return false;
    };
    let Some(jobs) = json.get("jobs").and_then(Json::as_array) else {
        return false;
    };
    jobs.iter().all(|j| {
        matches!(
            j.get("state").and_then(Json::as_str),
            Some("done" | "quarantined" | "expired")
        )
    })
}

fn fmt_ms(ms: u64) -> String {
    if ms >= 60_000 {
        format!("{:.1}m", ms as f64 / 60_000.0)
    } else if ms >= 1_000 {
        format!("{:.1}s", ms as f64 / 1_000.0)
    } else {
        format!("{ms}ms")
    }
}

/// Renders one `ant-sweepd-jobs/1` document as a human-readable board.
///
/// # Errors
///
/// Errors when the text is not valid JSON or not an `ant-sweepd-jobs/1`
/// document.
pub fn render(text: &str) -> Result<String, String> {
    let json =
        ant_obs::parse_json(text).map_err(|e| format!("job board is not valid JSON: {e}"))?;
    let schema = json.get("schema").and_then(Json::as_str);
    if schema != Some("ant-sweepd-jobs/1") {
        return Err(format!(
            "expected an ant-sweepd-jobs/1 document, got schema {:?}",
            schema.unwrap_or("(none)")
        ));
    }
    let jobs = json.get("jobs").and_then(Json::as_array).unwrap_or(&[]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "queue depth {}  jobs {}",
        json.get("queue_depth").and_then(Json::as_u64).unwrap_or(0),
        jobs.len()
    );
    let _ = writeln!(
        out,
        "{:<4} {:<12} {:<12} {:>3} {:>5} {:>8} {:>8} {:>7}",
        "SEQ", "TENANT", "STATE", "WT", "POS", "ETA", "TOOK", "RETRIES"
    );
    for job in jobs {
        let s = |key: &str| job.get(key).and_then(Json::as_str).unwrap_or("?");
        let u = |key: &str| job.get(key).and_then(Json::as_u64);
        let mut state = s("state").to_string();
        if matches!(job.get("recovered"), Some(Json::Bool(true))) {
            state.push('*');
        }
        let _ = writeln!(
            out,
            "{:<4} {:<12} {:<12} {:>3} {:>5} {:>8} {:>8} {:>7}",
            u("seq").unwrap_or(0),
            s("tenant"),
            state,
            u("weight").unwrap_or(0),
            u("position").map_or("-".to_string(), |p| p.to_string()),
            u("eta_ms").map_or("-".to_string(), fmt_ms),
            u("duration_ms").map_or("-".to_string(), fmt_ms),
            u("pair_retries").unwrap_or(0),
        );
        let attempts = job.get("attempts").and_then(Json::as_array).unwrap_or(&[]);
        for a in attempts {
            let error = a.get("error").and_then(Json::as_str).unwrap_or("?");
            let short: String = error.chars().take(72).collect();
            let backoff = a
                .get("backoff_ms")
                .and_then(Json::as_u64)
                .map_or("quarantined".to_string(), |ms| {
                    format!("backoff {}", fmt_ms(ms))
                });
            let _ = writeln!(
                out,
                "     attempt {} failed ({backoff}): {short}",
                a.get("attempt").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        let skipped = u("deadline_skipped").unwrap_or(0);
        if skipped > 0 {
            let _ = writeln!(
                out,
                "     deadline cancelled {skipped} pair job(s); completed layers cached for resume"
            );
        }
    }
    if jobs
        .iter()
        .any(|j| matches!(j.get("recovered"), Some(Json::Bool(true))))
    {
        let _ = writeln!(out, "(* recovered from spool after restart)");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(state: &str) -> String {
        format!(
            concat!(
                r#"{{"schema":"ant-sweepd-jobs/1","queue_depth":1,"jobs":["#,
                r#"{{"schema":"ant-sweepd-job/1","id":"alice-00c0ffee-1","seq":1,"#,
                r#""tenant":"alice","state":"{}","weight":3,"submitted_ms":5,"#,
                r#""deadline_at_ms":null,"position":0,"eta_ms":90000,"recovered":true,"#,
                r#""attempt_count":1,"pair_retries":2,"quarantined_pairs":0,"#,
                r#""deadline_skipped":4,"duration_ms":null,"attempts":["#,
                r#"{{"attempt":1,"error":"panic in sweepd job: chaos","backoff_ms":61}}],"#,
                r#""spec":"{{}}"}}]}}"#
            ),
            state
        )
    }

    #[test]
    fn resolve_maps_operands_to_sources() {
        assert_eq!(
            Source::resolve("http://127.0.0.1:9200", "/jobs"),
            Source::Http("http://127.0.0.1:9200/jobs".to_string())
        );
        assert_eq!(
            Source::resolve("http://127.0.0.1:9200/jobs", "/jobs"),
            Source::Http("http://127.0.0.1:9200/jobs".to_string())
        );
        assert_eq!(
            Source::resolve("saved/jobs.json", "/jobs"),
            Source::File(std::path::PathBuf::from("saved/jobs.json"))
        );
    }

    #[test]
    fn render_formats_the_board_with_attempts_and_backoff() {
        let out = render(&sample("backoff")).expect("renders");
        assert!(out.contains("queue depth 1"), "{out}");
        assert!(out.contains("alice"), "{out}");
        assert!(out.contains("backoff*"), "recovered marker: {out}");
        assert!(out.contains("eta") || out.contains("1.5m"), "{out}");
        assert!(
            out.contains("attempt 1 failed (backoff 61ms)"),
            "backoff schedule surfaced: {out}"
        );
        assert!(out.contains("deadline cancelled 4 pair job(s)"), "{out}");
        assert!(out.contains("recovered from spool"), "{out}");
    }

    #[test]
    fn render_rejects_non_job_documents() {
        assert!(render("nope").is_err());
        assert!(render(r#"{"schema":"ant-status/1"}"#).is_err());
    }

    #[test]
    fn all_terminal_gates_follow_mode() {
        assert!(all_terminal(&sample("done")));
        assert!(all_terminal(&sample("quarantined")));
        assert!(!all_terminal(&sample("backoff")));
        assert!(!all_terminal("garbage"));
    }
}
