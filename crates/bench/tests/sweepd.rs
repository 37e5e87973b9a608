//! End-to-end tests for `ant-sweepd`: typed shedding, weighted-fair
//! multi-tenancy, deterministic retry/backoff under service chaos, crash
//! recovery from the spool, and the deadline/layer-cache interplay.
//!
//! Chaos is process-global, so everything lives in one `#[test]` (its own
//! binary); each phase runs its own daemon on an ephemeral port with its
//! own spool. The `kill -9` byte-identity proof lives in `ci.sh` (it needs
//! a real process to kill); here the same recovery path is driven
//! deterministically by spooling a job record by hand and letting a fresh
//! daemon recover it.

use ant_bench::runner::{
    simulate_network, try_simulate_network_parallel, ExperimentConfig, RunOptions,
};
use ant_bench::serve::{backoff_ms, http_post, Sweepd, SweepdConfig};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_obs::export::http_get;
use ant_obs::json::Json;
use ant_sim::ant::AntAccelerator;
use ant_sim::chaos::{self, ChaosConfig, ServiceFault};
use ant_sim::scnn::ScnnPlus;
use ant_sim::ConvSim;
use ant_workloads::{ConvLayerSpec, NetworkModel};

/// The spec shared by the determinism phases: every daemon that runs it
/// must produce byte-identical result files.
const SPEC_ALICE: &str = r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9]}"#;
const SPEC_BOB: &str = r#"{"tenant":"bob","model":"tiny","machines":["ant"],"sparsities":[0.9]}"#;

fn counter(name: &str) -> u64 {
    ant_obs::registry().counter(name).get()
}

fn daemon(spool: &std::path::Path, queue_capacity: usize) -> (Sweepd, String) {
    let config = SweepdConfig {
        spool: spool.to_path_buf(),
        queue_capacity,
        max_attempts: 3,
        backoff_base_ms: 30,
        threads: Some(2),
        progress: false,
        ..SweepdConfig::default()
    };
    let daemon = Sweepd::start(config).expect("daemon starts");
    let base = format!("http://{}", daemon.addr());
    (daemon, base)
}

fn get(base: &str, path: &str) -> (u16, String) {
    http_get(&format!("{base}{path}")).expect("GET succeeds")
}

fn post_job(base: &str, body: &str) -> (u16, String) {
    http_post(&format!("{base}/jobs"), body).expect("POST succeeds")
}

/// Polls `GET /jobs/{seq}` until the job reaches a terminal state;
/// returns the final job document.
fn wait_terminal(base: &str, seq: u64) -> Json {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let (code, body) = get(base, &format!("/jobs/{seq}"));
        if code == 200 {
            let doc = ant_obs::parse_json(body.trim()).expect("job document parses");
            if matches!(
                doc.get("state").and_then(Json::as_str),
                Some("done" | "quarantined" | "expired")
            ) {
                return doc;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {seq} did not reach a terminal state"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

fn state_of(doc: &Json) -> &str {
    doc.get("state").and_then(Json::as_str).unwrap_or("?")
}

fn tiny_net(name: &'static str) -> NetworkModel {
    NetworkModel {
        name,
        layers: vec![
            ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

/// The CSV bytes the daemon must emit for `SPEC_ALICE`, computed directly
/// from the (serial, reference) runner.
fn expected_alice_csv() -> String {
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net("tiny");
    let machine = AntAccelerator::paper_default();
    let result = simulate_network(&machine, &net, &cfg);
    let mut csv = String::from("network,machine,sparsity");
    for (name, _) in result.total.fields() {
        csv.push(',');
        csv.push_str(name);
    }
    csv.push('\n');
    csv.push_str(&format!("tiny,{},0.9", machine.name()));
    for (_, value) in result.total.fields() {
        csv.push_str(&format!(",{value}"));
    }
    csv.push('\n');
    csv
}

#[test]
fn sweepd_supervises_schedules_recovers_and_sheds() {
    let tmp = std::env::temp_dir().join(format!("ant-sweepd-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp root");
    let alice_csv = expected_alice_csv();

    // --- Phase A: validation and the read-only surface ---------------------
    {
        let (daemon, base) = daemon(&tmp.join("a"), 8);
        let (code, body) = post_job(&base, r#"{"tenant":"alice"}"#);
        assert_eq!(code, 400, "missing fields must 400: {body}");
        assert!(body.contains("\"schema\":\"ant-sweepd-error/1\""), "{body}");
        assert!(body.contains("\"kind\":\"invalid_spec\""), "{body}");
        let (code, body) = post_job(
            &base,
            r#"{"tenant":"alice","model":"tiny","machines":["warp"],"sparsities":[0.9]}"#,
        );
        assert_eq!(code, 400, "unknown machine must 400: {body}");
        assert!(body.contains("machines"), "error names the field: {body}");
        let (code, body) = get(&base, "/healthz");
        assert_eq!((code, body.trim()), (200, "ok"));
        let (code, _) = get(&base, "/nope");
        assert_eq!(code, 404);
        let (code, body) = get(&base, "/jobs");
        assert_eq!(code, 200);
        assert!(body.contains("\"schema\":\"ant-sweepd-jobs/1\""), "{body}");
        let (code, body) = get(&base, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("ant_sweepd_queue_depth"), "{body}");
        daemon.shutdown();
    }

    // --- Phase B: past-deadline submissions shed with a typed 503 ----------
    {
        let (daemon, base) = daemon(&tmp.join("b"), 8);
        let shed_before = counter("sweepd.job.shed");
        let (code, body) = post_job(
            &base,
            r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9],"deadline_ms":0}"#,
        );
        assert_eq!(code, 503, "already-expired deadline must 503: {body}");
        assert!(body.contains("\"kind\":\"past_deadline\""), "{body}");
        assert_eq!(counter("sweepd.job.shed") - shed_before, 1);
        daemon.shutdown();
    }

    // --- Phase C: queue-full submissions shed with a typed 429 -------------
    // Capacity 1 and an injected 25ms stall on every attempt: the first job
    // occupies the scheduler, so the queue still holds a job when the last
    // submission arrives — it must be refused, not silently dropped.
    {
        chaos::set_override(Some(ChaosConfig {
            stall_prob: 1.0,
            ..ChaosConfig::quiet(21)
        }));
        let (daemon, base) = daemon(&tmp.join("c"), 1);
        let shed_before = counter("sweepd.job.shed");
        let (code, _) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202);
        std::thread::sleep(std::time::Duration::from_millis(15));
        let (code_b, _) = post_job(&base, SPEC_BOB);
        let (code_c, body_c) = post_job(&base, SPEC_BOB);
        assert_eq!(code_c, 429, "queue-full must 429: {body_c}");
        assert!(body_c.contains("\"kind\":\"queue_full\""), "{body_c}");
        let refused = u64::from(code_b == 429) + 1;
        assert_eq!(counter("sweepd.job.shed") - shed_before, refused);
        wait_terminal(&base, 1);
        chaos::set_override(None);
        daemon.shutdown();
    }

    // --- Phase D: multi-tenant runs are deterministic ----------------------
    // Same work submitted by two tenants: both complete and their result
    // files are byte-identical (bob's run resolves every layer from the
    // spool's layer cache alice's run filled; cache keys ignore the tenant).
    {
        let spool = tmp.join("d");
        let (daemon, base) = daemon(&spool, 16);
        let (code, body) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202, "{body}");
        assert!(body.contains("\"schema\":\"ant-sweepd-job/1\""), "{body}");
        let (code, _) = post_job(&base, SPEC_BOB);
        assert_eq!(code, 202);
        let alice = wait_terminal(&base, 1);
        let bob = wait_terminal(&base, 2);
        assert_eq!(state_of(&alice), "done");
        assert_eq!(state_of(&bob), "done");
        let read = |seq: u64, ext: &str| {
            std::fs::read_to_string(spool.join(format!("job-{seq}.result.{ext}")))
                .expect("result file exists")
        };
        assert_eq!(read(1, "csv"), alice_csv, "daemon CSV diverged from the runner");
        assert_eq!(read(1, "csv"), read(2, "csv"), "tenants saw different results");
        assert_eq!(read(1, "jsonl"), read(2, "jsonl"));
        // The job board renders through obsctl's jobs view.
        let (_, board) = get(&base, "/jobs");
        let rendered = ant_bench::obsctl::jobs::render(board.trim()).expect("board renders");
        assert!(rendered.contains("alice"), "{rendered}");
        assert!(rendered.contains("bob"), "{rendered}");
        daemon.shutdown();
    }

    // --- Phase E: crash recovery from the spool ----------------------------
    // A job record left in "running" state (exactly what a kill -9 mid-job
    // leaves behind) is recovered on startup, re-enqueued, and runs to the
    // same bytes as a never-interrupted submission.
    {
        let spool = tmp.join("e");
        std::fs::create_dir_all(&spool).expect("create spool");
        let spec_escaped = SPEC_ALICE.replace('"', "\\\"");
        std::fs::write(
            spool.join("job-1.json"),
            format!(
                "{{\"schema\":\"ant-sweepd-job/1\",\"seq\":1,\"id\":\"alice-interrupted-1\",\
                 \"state\":\"running\",\"submitted_ms\":0,\"deadline_at_ms\":null,\
                 \"recovered\":false,\"pair_retries\":0,\"quarantined_pairs\":0,\
                 \"deadline_skipped\":0,\"duration_ms\":null,\"attempts\":[],\
                 \"spec\":\"{spec_escaped}\"}}\n"
            ),
        )
        .expect("spool the interrupted record");
        let recovered_before = counter("sweepd.job.recovered");
        let (daemon, base) = daemon(&spool, 8);
        assert_eq!(counter("sweepd.job.recovered") - recovered_before, 1);
        let doc = wait_terminal(&base, 1);
        assert_eq!(state_of(&doc), "done");
        assert_eq!(doc.get("recovered"), Some(&Json::Bool(true)));
        let csv = std::fs::read_to_string(spool.join("job-1.result.csv")).expect("result");
        assert_eq!(csv, alice_csv, "recovered run diverged");
        daemon.shutdown();
    }

    // --- Phase F: deterministic retry/backoff under service chaos ----------
    // Probe the chaos draw for a probability that kills attempt 1 of seq 1
    // but spares attempt 2: the job must die, back off by *exactly* the
    // schedule backoff_ms(seed, 1, 1, base) predicts, retry, and complete
    // with the same bytes as every other run of this spec.
    {
        let mut picked = None;
        'seeds: for chaos_seed in 1..64u64 {
            for p in 1..20 {
                let cfg = ChaosConfig {
                    job_prob: p as f64 / 20.0,
                    ..ChaosConfig::quiet(chaos_seed)
                };
                if cfg.service_fault_for(1, 1) == Some(ServiceFault::JobDeath)
                    && cfg.service_fault_for(1, 2).is_none()
                {
                    picked = Some(cfg);
                    break 'seeds;
                }
            }
        }
        let cfg = picked.expect("some (seed, prob) kills attempt 1 only");
        chaos::set_override(Some(cfg));
        let spool = tmp.join("f");
        let retries_before = counter("sweepd.job.retries");
        let (daemon, base) = daemon(&spool, 8);
        let (code, _) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202);
        let doc = wait_terminal(&base, 1);
        chaos::set_override(None);
        assert_eq!(state_of(&doc), "done", "job must survive one injected death");
        assert_eq!(counter("sweepd.job.retries") - retries_before, 1);
        let attempts = doc.get("attempts").and_then(Json::as_array).expect("attempts");
        assert_eq!(attempts.len(), 1, "exactly one failed attempt");
        let error = attempts[0].get("error").and_then(Json::as_str).expect("error");
        assert!(error.contains("injected job-worker death"), "{error}");
        // The backoff is a pure function of (daemon seed, seq, attempt).
        let expected = backoff_ms(SweepdConfig::default().seed, 1, 1, 30);
        assert_eq!(
            attempts[0].get("backoff_ms").and_then(Json::as_u64),
            Some(expected),
            "backoff schedule must be deterministic"
        );
        let csv = std::fs::read_to_string(spool.join("job-1.result.csv")).expect("result");
        assert_eq!(csv, alice_csv, "retried run diverged");
        daemon.shutdown();
    }

    // --- Phase G: deadlines expire jobs; a resubmission resumes -----------
    // A 1ms deadline expires before (or at) the first pair boundary; the
    // job ends "expired", never "done" — and an identical re-submission
    // without a deadline completes with the canonical bytes, resolving
    // whatever layers the expired attempt completed from the spool's layer
    // cache. Completed layers live in `<spool>/simcache`, never in per-cell
    // sidecars.
    {
        let spool = tmp.join("g");
        let expired_before = counter("sweepd.job.expired");
        let (daemon, base) = daemon(&spool, 8);
        let (code, _) = post_job(
            &base,
            r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9],"deadline_ms":1}"#,
        );
        assert_eq!(code, 202, "a 1ms deadline is admitted (only 0 is shed)");
        let doc = wait_terminal(&base, 1);
        assert_eq!(state_of(&doc), "expired");
        assert_eq!(counter("sweepd.job.expired") - expired_before, 1);
        assert!(
            !spool.join("job-1.result.csv").exists(),
            "an expired job must not publish results"
        );
        let (code, _) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202);
        let doc = wait_terminal(&base, 2);
        assert_eq!(state_of(&doc), "done");
        let csv = std::fs::read_to_string(spool.join("job-2.result.csv")).expect("result");
        assert_eq!(csv, alice_csv, "post-expiry resubmission diverged");
        daemon.shutdown();
        let store = std::fs::read_to_string(spool.join("simcache").join("simcache.jsonl"))
            .expect("the spool holds the layer cache");
        assert_eq!(store.lines().count(), 2, "one line per tiny layer");
        let names: Vec<String> = std::fs::read_dir(&spool)
            .expect("list spool")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names
                .iter()
                .all(|n| n == "simcache" || n.starts_with("job-")),
            "unexpected spool entries: {names:?}"
        );
    }

    // --- Phase H: the runner-level deadline/layer-cache interplay ----------
    // (no daemon) Layer 0 in a persistent cache plus a zero deadline: the
    // run cancels at the pair boundary (only layer 1's pairs are skipped —
    // cached layers never reach the workers), the store keeps layer 0 and
    // nothing of layer 1, a deadline-free rerun resumes to byte-identical
    // totals, and once fully cached even a zero deadline has nothing to
    // cancel.
    {
        let cfg = ExperimentConfig::paper_default();
        let full = tiny_net("deadline-tiny");
        let prefix = NetworkModel {
            name: "deadline-tiny",
            layers: vec![full.layers[0].clone()],
        };
        let pe = ScnnPlus::paper_default();
        let baseline = simulate_network(&pe, &full, &cfg);
        let opts = RunOptions {
            threads: Some(2),
            ..RunOptions::default()
        };
        let zero_deadline = RunOptions {
            deadline_us: Some(0),
            ..opts
        };
        let store = tmp.join("h-cache");
        let reload = || {
            simcache::set_override(CacheOverride::On(SimCacheConfig {
                dir: Some(store.clone()),
            }));
            simcache::stats().expect("cache active").loaded
        };
        // Cache layer 0 via the one-layer prefix.
        reload();
        try_simulate_network_parallel(&pe, &prefix, &cfg, &opts).expect("prefix run");
        // Zero deadline: cancelled at the boundary, layer 0 untouched.
        assert_eq!(reload(), 1, "layer 0 is stored");
        let cancelled = try_simulate_network_parallel(&pe, &full, &cfg, &zero_deadline)
            .expect("cancelled run still returns");
        assert!(cancelled.deadline_exceeded && cancelled.partial);
        assert_eq!(cancelled.cache_hits, 1);
        assert!(
            cancelled.failures.deadline_skipped > 0,
            "layer 1's pairs are skipped at the boundary"
        );
        // The store survives the cancelled run without its incomplete
        // layer; a deadline-free rerun resumes and lands on the baseline
        // bytes.
        assert_eq!(
            reload(),
            1,
            "cancellation kept layer 0 and stored nothing else"
        );
        let resumed = try_simulate_network_parallel(&pe, &full, &cfg, &opts).expect("resumed run");
        assert!(!resumed.deadline_exceeded && !resumed.partial);
        assert_eq!((resumed.cache_hits, resumed.cache_misses), (1, 1));
        assert_eq!(resumed.total, baseline.total, "resume diverged");
        // Fully cached: a zero deadline has no pair jobs to cancel.
        assert_eq!(reload(), 2);
        let warm =
            try_simulate_network_parallel(&pe, &full, &cfg, &zero_deadline).expect("warm run");
        assert!(
            !warm.deadline_exceeded,
            "resume means restart-free: nothing left to cancel"
        );
        assert_eq!(warm.total, baseline.total);
        simcache::set_override(CacheOverride::Env);
    }

    let _ = std::fs::remove_dir_all(&tmp);
}
