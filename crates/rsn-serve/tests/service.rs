//! End-to-end tests driving a real daemon over TCP: every endpoint, the
//! artifact-cache fast path, concurrent mixed clients against a serial
//! baseline, and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use rsn_obs::json::Json;
use rsn_serve::{Server, ServerHandle, ServerOptions};

fn start(workers: usize) -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap: 64,
        deadline: Some(Duration::from_secs(60)),
        ..ServerOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

/// Minimal HTTP client: one request, one response, connection closed.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn request_json(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, text) = request(addr, method, path, body);
    let json = rsn_obs::json::parse(&text)
        .unwrap_or_else(|e| panic!("{method} {path}: bad JSON ({e}): {text}"));
    (status, json)
}

fn shutdown(handle: ServerHandle, thread: JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    thread
        .join()
        .expect("server thread must not panic")
        .expect("server run must succeed");
}

#[test]
fn healthz_and_protocol_errors() {
    let (addr, handle, thread) = start(2);

    let (status, body) = request_json(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));

    let (status, _) = request_json(addr, "GET", "/lint", "");
    assert_eq!(status, 405);
    let (status, _) = request_json(addr, "POST", "/nope", "{}");
    assert_eq!(status, 404);
    let (status, _) = request_json(addr, "POST", "/lint", "not json");
    assert_eq!(status, 400);
    let (status, _) = request_json(addr, "POST", "/lint", "{}");
    assert_eq!(status, 400);

    shutdown(handle, thread);
}

#[test]
fn endpoints_end_to_end_and_cache_fast_path() {
    let (addr, handle, thread) = start(2);
    let fig2 = r#"{"example": "fig2"}"#;

    // First /lint builds the artifacts: a cache miss.
    let (status, body) = request_json(addr, "POST", "/lint", fig2);
    assert_eq!(status, 200);
    assert_eq!(body.get("clean"), Some(&Json::Bool(true)));
    assert!(body.get("report").is_some());
    let misses = body
        .get("request_metrics")
        .and_then(|m| m.get("serve.cache_misses"))
        .and_then(Json::as_f64);
    assert_eq!(misses, Some(1.0), "first request must miss the cache");

    // Second request on the same network: a hit — AccessEngine/CNF
    // construction is skipped, proven by the request's own counters.
    let (status, body) = request_json(addr, "POST", "/sweep", fig2);
    assert_eq!(status, 200);
    let report = body.get("report").expect("sweep report");
    assert!(report.get("fault_count").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(report.get("complete"), Some(&Json::Bool(true)));
    let hits = body
        .get("request_metrics")
        .and_then(|m| m.get("serve.cache_hits"))
        .and_then(Json::as_f64);
    assert_eq!(hits, Some(1.0), "second request must hit the cache");

    let (status, body) = request_json(
        addr,
        "POST",
        "/plan",
        r#"{"example": "fig2", "target": "C"}"#,
    );
    assert_eq!(status, 200);
    let plan = body.get("plan").expect("plan");
    assert_eq!(plan.get("accessible"), Some(&Json::Bool(true)));
    assert!(!matches!(plan.get("path"), Some(Json::Arr(p)) if p.is_empty()));

    let (status, body) = request_json(addr, "POST", "/synth", fig2);
    assert_eq!(status, 200);
    assert!(body
        .get("report")
        .and_then(|r| r.get("added_muxes"))
        .is_some());

    // /metrics is Prometheus text and carries the serve-side counters.
    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("serve_cache_hits"), "metrics: {text}");
    assert!(text.contains("serve_requests"), "metrics: {text}");
    assert!(text.contains("serve_request_ns"), "metrics: {text}");

    shutdown(handle, thread);
}

#[test]
fn synth_reports_the_network_it_cached() {
    let (addr, handle, thread) = start(1);
    let fingerprint = |body: &Json| {
        body.get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint")
            .to_string()
    };
    let (status, synth) = request_json(addr, "POST", "/synth", r#"{"example": "fig2"}"#);
    assert_eq!(status, 200);
    let (status, sweep) = request_json(
        addr,
        "POST",
        "/sweep",
        r#"{"example": "fig2", "synthesize": true}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(fingerprint(&synth), fingerprint(&sweep));
    assert_eq!(synth.get("network"), sweep.get("network"));
    // The FT network /synth cached serves the /sweep: a cache hit.
    let hits = sweep
        .get("request_metrics")
        .and_then(|m| m.get("serve.cache_hits"))
        .and_then(Json::as_f64);
    assert_eq!(hits, Some(1.0));
    let (_, plain) = request_json(addr, "POST", "/sweep", r#"{"example": "fig2"}"#);
    assert_ne!(fingerprint(&synth), fingerprint(&plain));
    shutdown(handle, thread);
}

#[test]
fn synth_accepts_a_synthesized_network() {
    // `"synthesize": true` hands /synth an FT network that already has
    // secondary ports; synthesizing it again keeps them.
    let (addr, handle, thread) = start(1);
    let (status, body) = request_json(
        addr,
        "POST",
        "/synth",
        r#"{"soc": "u226", "synthesize": true}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    let added = body
        .get("report")
        .and_then(|r| r.get("added_edges"))
        .and_then(Json::as_f64);
    assert!(added.is_some_and(|n| n > 0.0), "{body:?}");
    assert_eq!(
        body.get("network").and_then(Json::as_str),
        Some("u226_ft_ft")
    );
    shutdown(handle, thread);
}

#[test]
fn oversized_networks_are_refused_before_they_are_built() {
    let (addr, handle, thread) = start(2);
    for spec in [
        // 16^9 leaves: the build alone would exhaust memory.
        r#"{"example": "sib_tree", "depth": 8, "fanout": 16}"#,
        // 2^32 shadow bits, which wrap a u32 bit count to 0.
        r#"{"example": "chain", "segments": 4096, "bits": 1048576}"#,
        // One chain of 4 294 967 295 bits: a 4.3 GB reset vector.
        r#"{"soc_text": "SocName big\n1 0 0 0 1 : 4294967295\n"}"#,
    ] {
        for path in ["/lint", "/sweep", "/plan", "/synth"] {
            let (status, body) = request_json(addr, "POST", path, spec);
            assert_eq!(status, 400, "{path} {spec}: {body:?}");
            let error = body.get("error").and_then(Json::as_str).unwrap_or_default();
            assert!(
                error.contains("network too large"),
                "{path} {spec}: {error}"
            );
        }
    }
    let (status, _) = request_json(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    shutdown(handle, thread);
}

#[test]
fn lint_explain_reuses_cached_artifacts() {
    let (addr, handle, thread) = start(2);
    let spec = r#"{"example": "sib_tree", "explain": true}"#;

    let (status, body) = request_json(addr, "POST", "/lint", spec);
    assert_eq!(status, 200);
    assert_eq!(body.get("clean"), Some(&Json::Bool(true)));
    // Clean network: no diagnostics, hence no explanation objects.
    let diags = body.get("report").and_then(|r| r.get("diagnostics"));
    assert!(
        matches!(diags, Some(Json::Arr(d)) if d.is_empty()),
        "unexpected diagnostics: {body:?}"
    );

    // Repeat with explain on: the cached artifacts — including the
    // shared CNF model the explanation engine queries — are reused.
    let (status, body) = request_json(addr, "POST", "/lint", spec);
    assert_eq!(status, 200);
    let hits = body
        .get("request_metrics")
        .and_then(|m| m.get("serve.cache_hits"))
        .and_then(Json::as_f64);
    assert_eq!(
        hits,
        Some(1.0),
        "explain request must reuse cached artifacts"
    );

    shutdown(handle, thread);
}

/// The acceptance bar: ≥8 parallel clients with mixed endpoints get
/// bit-identical analysis results to a serial run, with zero panics.
#[test]
fn concurrent_mixed_clients_match_serial() {
    let (addr, handle, thread) = start(8);

    // (method, path, body, result field to compare)
    let jobs: [(&str, &str, &str, &str); 4] = [
        ("POST", "/lint", r#"{"example": "fig2"}"#, "report"),
        ("POST", "/sweep", r#"{"example": "fig2"}"#, "report"),
        (
            "POST",
            "/plan",
            r#"{"example": "fig2", "target": "C"}"#,
            "plan",
        ),
        (
            "POST",
            "/sweep",
            r#"{"example": "chain", "segments": 6, "bits": 4}"#,
            "report",
        ),
    ];

    // Serial baseline: the analysis payload only — `request_metrics`
    // legitimately differs between cold and warm requests.
    let baseline: Vec<String> = jobs
        .iter()
        .map(|(m, p, b, field)| {
            let (status, body) = request_json(addr, m, p, b);
            assert_eq!(status, 200, "serial {p}");
            body.get(field).expect(field).to_string_pretty(0)
        })
        .collect();

    let results: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let job = i % jobs.len();
                scope.spawn(move || {
                    let (m, p, b, field) = jobs[job];
                    let (status, body) = request_json(addr, m, p, b);
                    assert_eq!(status, 200, "concurrent {p}");
                    (job, body.get(field).expect(field).to_string_pretty(0))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (job, result) in results {
        assert_eq!(
            result, baseline[job],
            "concurrent result for {} diverged from serial",
            jobs[job].1
        );
    }

    shutdown(handle, thread);
}

#[test]
fn shutdown_is_graceful_with_no_requests() {
    let (_addr, handle, thread) = start(2);
    shutdown(handle, thread);
}
