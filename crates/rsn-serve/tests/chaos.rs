//! Chaos tests: a real daemon over TCP with `rsn-fail` failpoints armed
//! at every layer — engine panics, artifact-build panics, injected
//! parse errors, budget exhaustion, worker-thread deaths — asserting
//! the crash-only contract: the daemon never dies, every failure is a
//! structured 4xx/5xx with `request_metrics`, workers respawn, the
//! circuit breaker trips and recovers, and a clean run after the chaos
//! window behaves as if nothing happened.
//!
//! Failpoints are process-global, so every test takes the `CHAOS` lock
//! and clears the registry before releasing it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rsn_obs::json::Json;
use rsn_serve::{BreakerConfig, Server, ServerHandle, ServerOptions};

static CHAOS: Mutex<()> = Mutex::new(());

fn lock_chaos() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in one chaos test must not wedge the others.
    CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn start(workers: usize) -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap: 64,
        deadline: Some(Duration::from_secs(60)),
        breaker: BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(200),
        },
        ..ServerOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

/// One raw HTTP exchange; returns the full response text (head + body).
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
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
    raw
}

fn request_json(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let raw = raw_request(addr, method, path, body);
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
    let json = rsn_obs::json::parse(&payload)
        .unwrap_or_else(|e| panic!("{method} {path}: bad JSON ({e}): {payload}"));
    (status, json)
}

fn shutdown(handle: ServerHandle, thread: JoinHandle<std::io::Result<()>>) {
    // Never drain with failpoints still armed: chaos stays inside the test.
    rsn_fail::clear();
    handle.shutdown();
    thread
        .join()
        .expect("server thread must not panic")
        .expect("server run must succeed");
}

/// Retries `req` until it returns 200 or the deadline passes — used for
/// post-chaos recovery where the circuit breaker needs a cooldown plus
/// one successful probe before closing again.
fn eventually_ok(addr: SocketAddr, method: &str, path: &str, body: &str, within: Duration) -> Json {
    let deadline = Instant::now() + within;
    loop {
        let (status, json) = request_json(addr, method, path, body);
        if status == 200 {
            return json;
        }
        assert!(
            Instant::now() < deadline,
            "{method} {path} still failing ({status}) after {within:?}: {json:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The acceptance-bar workload: 100 mixed requests with failpoints
/// armed at every engine entry and inside the serving layer itself. The
/// daemon must survive all of it, answer each request with a structured
/// status, keep `/healthz` green throughout, and serve a clean run
/// (bit-identical to pre-chaos) once the failpoints are cleared.
#[test]
fn mixed_chaos_workload_survives_and_recovers() {
    let _guard = lock_chaos();
    rsn_fail::clear();
    let (addr, handle, thread) = start(4);

    let fig2 = r#"{"example": "fig2"}"#;
    // Pre-chaos baseline for the post-chaos bit-identical comparison.
    let (status, baseline) = request_json(addr, "POST", "/sweep", fig2);
    assert_eq!(status, 200);
    let baseline = baseline.get("report").expect("report").to_string_pretty(0);

    rsn_fail::configure_spec(concat!(
        "sat.solve=panic@0.3,11;",
        "fault.sweep=delay(5)@0.3,13;",
        "verify.run=budget@0.4,14;",
        "serve.parse=err@0.15,15;",
        "serve.cache=panic@0.25,16"
    ))
    .expect("valid chaos spec");

    let panics_before = rsn_obs::counter_get("serve.panics_caught");
    let jobs: [(&str, &str, &str); 4] = [
        ("POST", "/lint", fig2),
        ("POST", "/sweep", fig2),
        ("POST", "/plan", r#"{"example": "fig2", "target": "C"}"#),
        ("POST", "/synth", fig2),
    ];
    for i in 0..100 {
        let (method, path, body) = jobs[i % jobs.len()];
        let (status, json) = request_json(addr, method, path, body);
        assert!(
            matches!(status, 200 | 400 | 408 | 500 | 503),
            "request {i} ({path}): unexpected status {status}: {json:?}"
        );
        assert!(
            json.get("request_metrics").is_some(),
            "request {i} ({path}, {status}): response lacks request_metrics: {json:?}"
        );
        if status == 500 {
            // Engine panics surface their message, injected errors theirs.
            let msg = json
                .get("panic")
                .or_else(|| json.get("error"))
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains("injected") || msg.contains("panic"),
                "request {i}: opaque 500: {json:?}"
            );
        }
        // The daemon stays healthy in the middle of the storm.
        if i % 10 == 9 {
            let (status, health) = request_json(addr, "GET", "/healthz", "");
            assert_eq!(status, 200, "healthz during chaos: {health:?}");
        }
    }

    // The storm actually happened: panics were caught and injections
    // counted, per-point, in the metric registry.
    assert!(
        rsn_obs::counter_get("serve.panics_caught") > panics_before,
        "no panic was ever injected/caught"
    );
    let injected: u64 = [
        "sat.solve",
        "fault.sweep",
        "verify.run",
        "serve.parse",
        "serve.cache",
    ]
    .iter()
    .map(|p| rsn_obs::counter_get(&format!("fail.injected{{point={p}}}")))
    .sum();
    assert!(injected > 0, "fail.injected counters never moved");

    // Chaos over: the service must return to full health — breaker
    // half-open probes succeed, poisoned cache entries were evicted and
    // rebuild cleanly, and results match the pre-chaos baseline bit for
    // bit.
    rsn_fail::clear();
    let recovered = eventually_ok(addr, "POST", "/sweep", fig2, Duration::from_secs(10));
    assert_eq!(
        recovered.get("report").expect("report").to_string_pretty(0),
        baseline,
        "post-chaos sweep diverged from pre-chaos baseline"
    );
    for (method, path, body) in jobs {
        let json = eventually_ok(addr, method, path, body, Duration::from_secs(10));
        assert!(json.get("request_metrics").is_some(), "{path}: {json:?}");
    }
    let (status, _) = request_json(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    shutdown(handle, thread);
}

/// Deterministic breaker lifecycle over HTTP: three consecutive engine
/// panics on one network open its breaker (fast 503 + `Retry-After`),
/// and after the chaos clears, the half-open probe closes it again.
#[test]
fn breaker_trips_on_repeated_panics_and_recovers() {
    let _guard = lock_chaos();
    rsn_fail::clear();
    let (addr, handle, thread) = start(2);
    let fig2 = r#"{"example": "fig2"}"#;

    // Warm the cache first so the panics hit the solver, not the build.
    let (status, _) = request_json(addr, "POST", "/lint", fig2);
    assert_eq!(status, 200);

    rsn_fail::configure("sat.solve", rsn_fail::Action::Panic, 1.0, Some(7));
    for i in 0..3 {
        let (status, json) = request_json(addr, "POST", "/lint", fig2);
        assert_eq!(status, 500, "panic {i} must be a structured 500: {json:?}");
        let panic_msg = json.get("panic").and_then(Json::as_str).unwrap_or_default();
        assert!(
            panic_msg.contains("sat.solve"),
            "500 must carry the panic message: {json:?}"
        );
        assert!(json.get("request_metrics").is_some(), "{json:?}");
    }

    // Breaker open: fail fast without touching the engine.
    let raw = raw_request(addr, "POST", "/lint", fig2);
    assert!(
        raw.starts_with("HTTP/1.1 503 "),
        "breaker must fast-fail: {raw}"
    );
    assert!(raw.contains("Retry-After: "), "missing Retry-After: {raw}");
    assert!(raw.contains("circuit breaker open"), "{raw}");

    // Other networks are unaffected by fig2's breaker.
    let (status, _) = request_json(
        addr,
        "POST",
        "/plan",
        r#"{"example": "chain", "segments": 3, "bits": 4, "target": "seg0"}"#,
    );
    assert!(
        matches!(status, 200 | 400),
        "unrelated network hit fig2's breaker: {status}"
    );

    // Chaos off: after the cooldown the half-open probe succeeds and
    // the breaker closes — requests flow again.
    rsn_fail::clear();
    let json = eventually_ok(addr, "POST", "/lint", fig2, Duration::from_secs(10));
    assert_eq!(json.get("clean"), Some(&Json::Bool(true)));

    shutdown(handle, thread);
}

/// Worker threads killed between requests (the one place a panic
/// escapes every guard) are respawned by the supervisor; no request is
/// lost because the chaos point sits before the queue pop.
#[test]
fn killed_workers_are_respawned_and_service_continues() {
    let _guard = lock_chaos();
    rsn_fail::clear();
    let (addr, handle, thread) = start(3);

    let respawns_before = rsn_obs::counter_get("serve.worker_respawns");
    rsn_fail::configure("serve.worker", rsn_fail::Action::Panic, 0.5, Some(21));
    for _ in 0..30 {
        let (status, _) = request_json(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "healthz must survive worker deaths");
    }
    rsn_fail::clear();
    assert!(
        rsn_obs::counter_get("serve.worker_respawns") > respawns_before,
        "no worker was ever killed and respawned"
    );

    // The pool is back at strength: more requests than workers complete
    // concurrently with chaos off.
    let results: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| scope.spawn(move || request_json(addr, "GET", "/healthz", "").0))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(results.iter().all(|&s| s == 200), "{results:?}");

    shutdown(handle, thread);
}
