//! End-to-end tests for the embedded HTTP server and the `/metrics`
//! exporter on it: a real listener on a loopback port, driven with the
//! crate's own tiny HTTP client.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use ant_obs::export::{http_get, http_post, serve, Request, Server};
use ant_obs::json::{parse, Json};
use ant_obs::progress::{RunStatus, StatusReporter};

/// Every test scrapes one shared server (the process registry is global
/// anyway), bound lazily on a kernel-assigned port.
fn server_addr() -> String {
    use std::sync::OnceLock;
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let bound = serve("127.0.0.1:0").expect("bind loopback");
        format!("{bound}")
    })
    .clone()
}

/// Validates one exposition document line-by-line against the text-format
/// grammar: `# TYPE <name> <kind>` comments and `<name> <value>` samples.
fn assert_grammar_valid(text: &str) {
    let name_ok = |name: &str| {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(name_ok(name), "bad family name in `{line}`");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "bad kind in `{line}`"
            );
            assert!(parts.next().is_none(), "trailing tokens in `{line}`");
        } else {
            assert!(
                !line.starts_with('#'),
                "only TYPE comments are emitted: `{line}`"
            );
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            // A sample may carry a label set: `name{key="value",...}`.
            let name = match series.split_once('{') {
                Some((name, labels)) => {
                    let labels = labels.strip_suffix('}').expect("unclosed label set");
                    for label in labels.split("\",") {
                        let label = label.strip_suffix('"').unwrap_or(label);
                        let (key, val) = label.split_once("=\"").expect("label has =\"");
                        assert!(name_ok(key), "bad label name in `{line}`");
                        assert!(!val.contains('"'), "unescaped quote in `{line}`");
                    }
                    name
                }
                None => series,
            };
            assert!(name_ok(name), "bad metric name in `{line}`");
            assert!(
                value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
                "bad sample value in `{line}`"
            );
        }
    }
}

#[test]
fn metrics_endpoint_serves_grammar_valid_exposition() {
    ant_obs::registry().counter("runner.pairs_done").add(7);
    ant_obs::registry().gauge("runner.util").set(0.625);
    let hist = ant_obs::registry().histogram("export_test.pair_us");
    hist.record(10.0);
    hist.record(30.0);

    let (code, body) = http_get(&format!("http://{}/metrics", server_addr())).expect("scrape");
    assert_eq!(code, 200, "body: {body}");
    assert_grammar_valid(&body);
    assert!(body.contains("# TYPE ant_runner_pairs_done counter"));
    assert!(body.contains("ant_runner_util 0.625"));
    // The body leads with the build-info gauge, labeled with the same
    // revision the run manifests record.
    assert!(body.starts_with("# TYPE ant_build_info gauge\n"), "{body}");
    let revision = ant_obs::manifest::git_revision_cached().unwrap_or_default();
    assert!(body.contains(&format!(
        "ant_build_info{{git_revision=\"{revision}\"}} 1\n"
    )));
    assert!(body.contains("ant_export_test_pair_us_count 2"));
    assert!(body.contains("ant_export_test_pair_us_min 10"));
    assert!(body.contains("ant_export_test_pair_us_max 30"));
}

#[test]
fn status_endpoint_serves_latest_published_json() {
    let addr = server_addr();
    let dir = std::env::temp_dir().join(format!("ant_export_status_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut reporter = StatusReporter::new(dir.join("status.json"));
    reporter.set_console(false);
    let status = RunStatus {
        name: "export-test".to_string(),
        network: "resnet18".to_string(),
        machine: "ANT".to_string(),
        state: "running",
        threads: 2,
        pairs_done: 5,
        pairs_total: 10,
        git_revision: Some("deadbeef".to_string()),
        ..RunStatus::default()
    };
    reporter.publish(&status);

    let (code, body) = http_get(&format!("http://{addr}/status")).expect("fetch status");
    assert_eq!(code, 200, "body: {body}");
    let json = parse(body.trim()).expect("status body is JSON");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("ant-status/1")
    );
    assert_eq!(json.get("name").and_then(Json::as_str), Some("export-test"));
    assert_eq!(
        json.get("git_revision").and_then(Json::as_str),
        Some("deadbeef")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_and_unknown_paths_route_correctly() {
    let addr = server_addr();
    let (code, body) = http_get(&format!("http://{addr}/healthz")).expect("healthz");
    assert_eq!(code, 200);
    assert_eq!(body, "ok\n");

    let (code, _) = http_get(&format!("http://{addr}/nope")).expect("404 path");
    assert_eq!(code, 404);

    let (code, _) = http_get(&format!("http://{addr}/metrics?debug=1")).expect("query ignored");
    assert_eq!(code, 200);
}

#[test]
fn application_routes_body_bound_and_shutdown() {
    let server = Server::start(
        "127.0.0.1:0",
        "export-test-http",
        Some(Box::new(|req: &Request<'_>| {
            (req.method == "POST" && req.path == "/echo")
                .then(|| ("200 OK", "text/plain", req.body.to_string()))
        })),
    )
    .expect("bind loopback");
    let addr = server.addr();
    let base = format!("http://{addr}");

    // Application routes come first; the shared ones still answer.
    let echoed = http_post(&format!("{base}/echo"), "{\"job\":1}").expect("echo");
    assert_eq!(echoed, (200, "{\"job\":1}".to_string()));
    assert_eq!(
        http_get(&format!("{base}/healthz")).expect("healthz").0,
        200
    );
    assert_eq!(
        http_post(&format!("{base}/healthz"), "").expect("post").0,
        405
    );

    // A declared body above 256 KiB is refused before any of it is read.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 262145\r\n\r\n")
        .expect("send head");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 413 "), "{response}");

    // Shutdown is prompt and releases the listener.
    let started = Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(1), "slow shutdown");
    assert!(
        http_get(&format!("{base}/healthz")).is_err(),
        "still listening"
    );
}

#[test]
fn snapshot_ordering_is_stable_and_sorted() {
    let registry = ant_obs::Registry::new();
    // Register deliberately out of order across instrument kinds.
    registry.counter("z.counter").incr();
    registry.gauge("a.gauge").set(1.0);
    registry.histogram("m.hist").record(2.0);
    registry.counter("b.counter").incr();

    let names = |snap: Vec<(String, ant_obs::InstrumentSnapshot)>| -> Vec<String> {
        snap.into_iter().map(|(n, _)| n).collect()
    };
    let first = names(registry.snapshot_instruments());
    let mut sorted = first.clone();
    sorted.sort();
    assert_eq!(first, sorted, "typed snapshot is name-sorted");
    assert_eq!(
        first,
        names(registry.snapshot_instruments()),
        "stable across calls"
    );

    // The flat snapshot stays sorted too (histograms expand in place).
    let flat: Vec<String> = registry.snapshot().into_iter().map(|(n, _)| n).collect();
    let mut flat_sorted = flat.clone();
    flat_sorted.sort();
    assert_eq!(flat, flat_sorted, "flat snapshot is name-sorted");
}
