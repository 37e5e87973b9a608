//! A persisted layer result that was altered on disk must never reach a
//! job's results: after a restart, `ant-sweepd` detects the altered line
//! (its self-check hash no longer matches), counts it as poisoned, and
//! re-simulates the layer to the canonical bytes.
//!
//! The daemon points the process-wide layer cache at its spool, so this
//! test has its own binary.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ant_bench::runner::{simulate_network, ExperimentConfig};
use ant_bench::serve::{http_post, Sweepd, SweepdConfig};
use ant_bench::simcache;
use ant_obs::export::http_get;
use ant_obs::json::Json;
use ant_sim::ant::AntAccelerator;
use ant_sim::ConvSim;
use ant_workloads::{ConvLayerSpec, NetworkModel};

const SPEC: &str = r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9]}"#;

fn start(spool: &Path) -> (Sweepd, String) {
    let daemon = Sweepd::start(SweepdConfig {
        spool: spool.to_path_buf(),
        threads: Some(2),
        progress: false,
        ..SweepdConfig::default()
    })
    .expect("daemon starts");
    let base = format!("http://{}", daemon.addr());
    (daemon, base)
}

/// Submits `SPEC`, waits for job `seq` to finish, and returns its CSV.
fn run_job(base: &str, spool: &Path, seq: u64) -> String {
    let (code, body) = http_post(&format!("{base}/jobs"), SPEC).expect("POST succeeds");
    assert_eq!(code, 202, "{body}");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = http_get(&format!("{base}/jobs/{seq}")).expect("GET succeeds");
        if code == 200 {
            let doc = ant_obs::parse_json(body.trim()).expect("job document parses");
            match doc.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some("quarantined" | "expired") => panic!("job {seq} failed: {body}"),
                _ => {}
            }
        }
        assert!(Instant::now() < deadline, "job {seq} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::fs::read_to_string(spool.join(format!("job-{seq}.result.csv"))).expect("result CSV")
}

/// Every persisted per-layer store in the spool: `.jsonl` files that are
/// not job results, anywhere below it.
fn layer_stores(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list spool")
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            found.extend(layer_stores(&path));
        } else if name.ends_with(".jsonl") && !name.starts_with("job-") {
            found.push(path);
        }
    }
    found
}

/// The CSV the daemon must emit for `SPEC`, from the reference runner.
fn canonical_csv() -> String {
    let net = NetworkModel {
        name: "tiny",
        layers: vec![
            ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    };
    let machine = AntAccelerator::paper_default();
    let result = simulate_network(&machine, &net, &ExperimentConfig::paper_default());
    let fields = result.total.fields();
    let names: Vec<&str> = fields.iter().map(|(name, _)| *name).collect();
    let values: Vec<String> = fields.iter().map(|(_, v)| v.to_string()).collect();
    format!(
        "network,machine,sparsity,{}\ntiny,{},0.9,{}\n",
        names.join(","),
        machine.name(),
        values.join(",")
    )
}

#[test]
fn altered_spool_layer_counts_as_poisoned_and_resimulates() {
    let spool = std::env::temp_dir().join(format!("ant-spool-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let canonical = canonical_csv();

    let (daemon, base) = start(&spool);
    assert_eq!(run_job(&base, &spool, 1), canonical, "first run diverged");
    daemon.shutdown();

    // Alter one counter of the first persisted layer line, keeping the
    // line valid JSON.
    let stores = layer_stores(&spool);
    let store = stores.first().expect("the spool persists completed layers");
    let text = std::fs::read_to_string(store).expect("read store");
    let (line, rest) = text.split_once('\n').expect("at least one line");
    let needle = "\"mults\":";
    let at = line.find(needle).expect("line carries a mults counter") + needle.len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    let value: u64 = line[at..at + digits].parse().expect("counter value");
    let altered = format!("{}{}{}", &line[..at], value + 1, &line[at + digits..]);
    assert!(
        ant_obs::parse_json(&altered).is_ok(),
        "altered line stays valid JSON"
    );
    std::fs::write(store, format!("{altered}\n{rest}")).expect("write altered store");

    // Restart on the same spool and resubmit: the altered layer must be
    // rejected and re-simulated, not replayed into the result.
    let (daemon, base) = start(&spool);
    assert_eq!(
        run_job(&base, &spool, 2),
        canonical,
        "altered counter replayed"
    );
    let stats = simcache::stats().expect("the daemon's layer cache is active");
    assert_eq!(stats.skipped_poisoned, 1, "{stats:?}");
    daemon.shutdown();
    simcache::set_override(simcache::CacheOverride::Env);
    let _ = std::fs::remove_dir_all(&spool);
}
