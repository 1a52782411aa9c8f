//! The resident daemon: accept loop, supervised worker pool, bounded
//! queue with overload rejection, per-request budgets with
//! client-disconnect cancellation, crash-only request isolation, and
//! graceful drain on shutdown.
//!
//! ## Request lifecycle
//!
//! 1. The accept loop (nonblocking, polling) takes a connection. If the
//!    queue is at capacity the connection is answered `429` inline and
//!    closed (`serve.rejected`) — admission control before any work.
//! 2. A worker pops the connection, reads the request, and builds the
//!    request's [`Budget`]: the configured deadline plus a
//!    [`CancelToken`] that the disconnect
//!    monitor trips if the client hangs up mid-computation
//!    (`serve.cancelled`); engines then stop at their next budget check.
//! 3. The handler runs inside a fresh [`rsn_obs::ScopeHandle`], so the
//!    response can report exactly the metrics this request produced, no
//!    matter how many requests run concurrently.
//! 4. On shutdown (SIGTERM/SIGINT or [`ServerHandle::shutdown`]) the
//!    accept loop stops, queued requests drain, workers exit, and
//!    [`Server::run`] returns.
//!
//! ## Crash-only supervision
//!
//! The daemon assumes any engine can panic (chaos runs inject exactly
//! that, via `rsn-fail`) and is built so no panic is fatal:
//!
//! * Every request handler runs under `catch_unwind`: an engine panic
//!   becomes a structured `500` carrying the panic message and the
//!   request's metrics (`serve.panics_caught`), never a dead worker.
//! * Workers are real supervised threads, not scope children: a panic
//!   that does escape a worker (only possible outside the request
//!   guards) is detected by the supervisor, which respawns the worker
//!   (`serve.worker_respawns`). The fleet never shrinks.
//! * The accept loop guards each iteration, so not even an
//!   accept-path panic stops admission.
//! * Every `Mutex` access recovers from poisoning — a panicked holder
//!   leaves simple state (queues, maps) that the next holder can use.
//! * Sockets carry both read *and* write timeouts: a stalled reader
//!   cannot park a worker in `write_all` forever (response-side
//!   slowloris).
//! * Consecutive failures on one cached network trip a per-fingerprint
//!   circuit breaker ([`crate::breaker`]): fail fast with `503` +
//!   `Retry-After` instead of re-running a crashing analysis.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rsn_budget::{Budget, CancelToken};
use rsn_obs::json::Json;

use crate::api::{handle, ApiContext, ApiResponse, RequestInfo};
use crate::breaker::BreakerConfig;
use crate::http::{read_request, write_response, write_response_ext, HttpError};

/// Tunables of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address, e.g. `127.0.0.1:7223`. Port 0 picks a free port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Pending-connection queue capacity; beyond it new connections get
    /// an immediate `429`.
    pub queue_cap: usize,
    /// Per-request wall-clock deadline. `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Networks kept in the artifact cache.
    pub cache_cap: usize,
    /// Threads per fault sweep (a request-level override caps at 64).
    pub sweep_threads: usize,
    /// Socket read timeout while receiving a request.
    pub read_timeout: Duration,
    /// Socket write timeout while sending a response (slowloris guard).
    pub write_timeout: Duration,
    /// Per-network circuit breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            deadline: Some(Duration::from_secs(30)),
            max_body: 8 * 1024 * 1024,
            cache_cap: 16,
            sweep_threads: 2,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Poison-tolerant lock: a panicked previous holder must never wedge
/// the daemon — the protected state (queues, watch lists) stays valid
/// across an unwind at every await-free point we hold it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wakes workers sleeping on an empty queue.
struct Queue {
    inner: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// A connection being watched for client hang-up while its request
/// computes.
struct Watched {
    id: u64,
    stream: TcpStream,
    token: CancelToken,
}

/// Shared state between the accept loop, workers, the supervisor and
/// the monitor.
struct Shared {
    ctx: ApiContext,
    opts: ServerOptions,
    queue: Queue,
    /// Set once: stop accepting, drain, exit.
    shutdown: AtomicBool,
    /// Connections under computation, polled by the disconnect monitor.
    watched: Mutex<Vec<Watched>>,
    next_watch_id: AtomicU64,
}

/// A bound, not-yet-running server. Splitting bind from run lets callers
/// learn the actual port (and construct a [`ServerHandle`]) before the
/// blocking accept loop starts.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Remote control for a running [`Server`]: trigger shutdown from
/// another thread (tests) or from the signal handler path.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests graceful shutdown: stop accepting, drain the queue,
    /// return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.ready.notify_all();
    }
}

// SIGTERM/SIGINT handling without a libc crate: std already links libc,
// so declare `signal(2)` directly. The handler only sets an atomic —
// the accept loop polls it.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_sig: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for SIGTERM (15) and SIGINT (2).
    pub fn install() {
        let handler = on_term as *const () as usize;
        unsafe {
            signal(15, handler);
            signal(2, handler);
        }
    }

    pub fn terminated() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn terminated() -> bool {
        false
    }
}

impl Server {
    /// Binds the listener. The accept loop starts with [`Server::run`].
    pub fn bind(opts: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            ctx: ApiContext::new(opts.cache_cap, opts.sweep_threads, opts.breaker),
            opts,
            queue: Queue {
                inner: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            watched: Mutex::new(Vec::new()),
            next_watch_id: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Installs signal handlers and runs until shutdown, serving
    /// requests on the supervised worker pool. Returns after the
    /// graceful drain.
    pub fn run(self) -> std::io::Result<()> {
        sig::install();
        let shared = self.shared;

        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rsn-serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn supervisor")
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rsn-serve-monitor".into())
                .spawn(move || monitor_loop(&shared))
                .expect("spawn monitor")
        };

        // Accept loop. Each iteration is panic-guarded: not even an
        // accept-path panic (chaos: `serve.accept`) stops admission.
        loop {
            if shared.shutdown.load(Ordering::SeqCst) || sig::terminated() {
                shared.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            let iteration = catch_unwind(AssertUnwindSafe(|| accept_one(&self.listener, &shared)));
            if iteration.is_err() {
                rsn_obs::counter_add("serve.panics_caught", 1);
            }
        }

        // Drain: workers exit once the queue is empty under shutdown
        // (worker_loop observes the flag); wake any sleepers. The
        // supervisor joins the workers, so joining it completes the
        // drain.
        shared.queue.ready.notify_all();
        let _ = supervisor.join();
        let _ = monitor.join();
        Ok(())
    }
}

/// One accept-loop iteration: admit a connection into the queue, `429`
/// it when the queue is full, or idle briefly.
fn accept_one(listener: &TcpListener, shared: &Arc<Shared>) {
    match listener.accept() {
        Ok((mut stream, _peer)) => {
            // Chaos failpoint: `err`/`budget` drop the connection
            // unserved; `panic` unwinds into the accept-loop guard.
            if rsn_fail::eval("serve.accept").is_some() {
                return;
            }
            let mut q = lock(&shared.queue.inner);
            if q.len() >= shared.opts.queue_cap {
                drop(q);
                rsn_obs::counter_add("serve.rejected", 1);
                let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
                let mut body = Json::obj();
                body.set("error", Json::Str("server overloaded".into()));
                let _ = write_response(
                    &mut stream,
                    429,
                    "application/json",
                    body.to_string_pretty(0).as_bytes(),
                );
            } else {
                q.push_back(stream);
                rsn_obs::gauge_set("serve.queue_depth", q.len() as f64);
                drop(q);
                shared.queue.ready.notify_one();
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
            std::thread::sleep(Duration::from_millis(20));
        }
        Err(_) => std::thread::sleep(Duration::from_millis(20)),
    }
}

/// Keeps the worker fleet at strength: spawns the configured number of
/// workers, reaps any that exit (a panic that escaped the request
/// guards), and respawns them while the daemon is live. On shutdown it
/// joins the drain instead of respawning and returns when the last
/// worker is done.
fn supervisor_loop(shared: &Arc<Shared>) {
    let spawn_worker = |shared: &Arc<Shared>| {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("rsn-serve-worker".into())
            .spawn(move || worker_loop(&shared))
            .expect("spawn worker")
    };
    let mut workers: Vec<_> = (0..shared.opts.workers.max(1))
        .map(|_| spawn_worker(shared))
        .collect();
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let worker = workers.swap_remove(i);
                let _ = worker.join(); // collect a panic payload, if any
                                       // During the drain only clean exits stay down: a worker
                                       // that dies with connections still queued is replaced so
                                       // the drain always completes.
                if !draining || !lock(&shared.queue.inner).is_empty() {
                    rsn_obs::counter_add("serve.worker_respawns", 1);
                    workers.push(spawn_worker(shared));
                }
            } else {
                i += 1;
            }
        }
        if draining && workers.is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Chaos failpoint: a panic here (between requests, outside every
        // guard) kills this worker thread on purpose — proving the
        // supervisor respawns workers. `err`/`budget` are meaningless
        // at this point and ignored.
        let _ = rsn_fail::eval("serve.worker");
        let stream = {
            let mut q = lock(&shared.queue.inner);
            loop {
                if let Some(s) = q.pop_front() {
                    rsn_obs::gauge_set("serve.queue_depth", q.len() as f64);
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _timeout) = shared
                    .queue
                    .ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        let Some(stream) = stream else { return };
        // Belt over the per-request braces: a panic outside `handle`'s
        // own catch_unwind (request framing, response path) drops the
        // connection but keeps the worker.
        if catch_unwind(AssertUnwindSafe(|| serve_connection(shared, stream))).is_err() {
            rsn_obs::counter_add("serve.panics_caught", 1);
        }
    }
}

/// Polls in-flight connections for client hang-up: a zero-byte `peek`
/// on a nonblocking socket means EOF, so the request's token is
/// cancelled and engines stop at their next budget check.
fn monitor_loop(shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Keep watching until the drain finishes so queued requests
            // still get disconnect cancellation.
            let none_left =
                lock(&shared.watched).is_empty() && lock(&shared.queue.inner).is_empty();
            if none_left {
                return;
            }
        }
        {
            let mut watched = lock(&shared.watched);
            watched.retain(|w| {
                let mut probe = [0u8; 1];
                match w.stream.peek(&mut probe) {
                    Ok(0) => {
                        rsn_obs::counter_add("serve.cancelled", 1);
                        w.token.cancel();
                        false
                    }
                    // Pipelined bytes or not-yet-read request data: alive.
                    Ok(_) => true,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
                    Err(_) => {
                        rsn_obs::counter_add("serve.cancelled", 1);
                        w.token.cancel();
                        false
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Best-effort panic message extraction (panics carry `&str` or
/// `String` payloads in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    // Response-side slowloris guard: a client that never reads cannot
    // park this worker in `write_all` forever.
    let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
    let req = match read_request(&mut stream, shared.opts.max_body) {
        Ok(req) => req,
        Err(HttpError::Disconnected) => return,
        Err(e) => {
            rsn_obs::counter_add("serve.errors", 1);
            let mut body = Json::obj();
            body.set("error", Json::Str(e.to_string()));
            let _ = write_response(
                &mut stream,
                e.status(),
                "application/json",
                body.to_string_pretty(0).as_bytes(),
            );
            return;
        }
    };

    let endpoint = req.path.trim_start_matches('/').replace('/', "_");
    rsn_obs::counter_add(&format!("serve.requests{{endpoint={endpoint}}}"), 1);

    // Per-request budget: deadline + cancellation on client hang-up.
    let mut budget = Budget::unlimited();
    if let Some(deadline) = shared.opts.deadline {
        budget = budget.with_deadline(deadline);
    }
    let token = budget.cancel_token();
    let watch_id = shared.next_watch_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        let _ = clone.set_nonblocking(true);
        lock(&shared.watched).push(Watched {
            id: watch_id,
            stream: clone,
            token,
        });
    }

    // Per-request metric scope: handlers see (and report) exactly the
    // writes of this request, no matter what runs concurrently.
    let scope = rsn_obs::ScopeHandle::new();
    let info = RequestInfo::default();
    // Crash-only request isolation: an engine panic becomes a
    // structured 500 (with the panic message and this request's
    // metrics), never a dead worker.
    let (mut response, panicked) = {
        let _guard = scope.enter();
        match catch_unwind(AssertUnwindSafe(|| {
            handle(&shared.ctx, &req, &budget, &scope, &info)
        })) {
            Ok(response) => (response, false),
            Err(payload) => {
                rsn_obs::counter_add("serve.panics_caught", 1);
                let mut resp =
                    ApiResponse::error(500, "engine panic caught; request failed, daemon healthy");
                resp.body
                    .set("panic", Json::Str(panic_message(payload.as_ref())));
                (resp, true)
            }
        }
    };

    lock(&shared.watched).retain(|w| w.id != watch_id);
    // The monitor's clone shares this stream's file description, so its
    // `O_NONBLOCK` outlives the clone: without this, a response larger
    // than the socket buffers stops mid-body with `WouldBlock` whenever
    // the client pauses reading. The write timeout bounds the wait.
    let _ = stream.set_nonblocking(false);

    // Circuit-breaker bookkeeping for the analyzed network. Breaker
    // fast-fails (`retry_after` set) are not outcomes of an admitted
    // request and don't count.
    let fingerprint = info.fingerprint.load(Ordering::Relaxed);
    if fingerprint != 0 && response.retry_after.is_none() {
        let failed = panicked || response.status >= 500;
        shared.ctx.breakers.record(fingerprint, failed);
    }

    // Chaos failpoint on the response path: `err`/`budget` replace the
    // payload with a structured 500 (still written to the client);
    // `panic` unwinds into the worker-level guard; `delay` stalls the
    // write (which the write timeout bounds).
    if rsn_fail::eval("serve.respond").is_some() {
        response = ApiResponse::error(500, "injected failure at failpoint serve.respond");
    }

    // Every response — success, engine error, panic, injected chaos —
    // carries `request_metrics` so failures are as attributable as
    // successes.
    if matches!(response.body, Json::Obj(_)) && response.body.get("request_metrics").is_none() {
        crate::api::attach_request_metrics(&mut response.body, &scope);
    }

    // /metrics renders the process-global registry as Prometheus text —
    // everything else is JSON.
    let outcome = if req.method == "GET" && req.path == "/metrics" {
        let text = rsn_obs::render_prometheus(&rsn_obs::metrics_snapshot());
        write_response(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            text.as_bytes(),
        )
    } else {
        respond_json(&mut stream, &response)
    };
    if outcome.is_ok() {
        rsn_obs::counter_add("serve.responses", 1);
    }
    if response.status >= 400 {
        rsn_obs::counter_add("serve.errors", 1);
    }
    rsn_obs::hist_record("serve.request_ns", started.elapsed().as_nanos() as u64);
}

fn respond_json(stream: &mut TcpStream, response: &ApiResponse) -> std::io::Result<()> {
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = response.retry_after {
        extra.push(("Retry-After", secs.to_string()));
    }
    write_response_ext(
        stream,
        response.status,
        "application/json",
        &extra,
        response.body.to_string_pretty(2).as_bytes(),
    )
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;

    /// Shrinks one of a socket's buffers (`SO_SNDBUF`/`SO_RCVBUF`).
    fn shrink_buffer(fd: &impl AsRawFd, option: i32, bytes: i32) {
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        // SAFETY: the fd is a live socket owned by the caller, and `value`
        // points at an i32 of the length passed.
        let rc = unsafe { setsockopt(fd.as_raw_fd(), SOL_SOCKET, option, &bytes, 4) };
        assert_eq!(rc, 0, "setsockopt({option}) failed");
    }

    /// A client that stops reading right after the first byte of an
    /// answer larger than both peers' socket buffers (a slow link, a busy
    /// consumer) must still receive every byte once it resumes: the
    /// hang-up monitor's non-blocking mode must not leak into the
    /// response write.
    #[test]
    fn slow_reader_receives_the_whole_answer() {
        let server = Server::bind(ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServerOptions::default()
        })
        .expect("bind");
        // The client owns the listening end, so its small receive buffer
        // is in place before the handshake sizes the TCP window.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind client side");
        shrink_buffer(&listener, SO_RCVBUF, 4096);
        let daemon_end = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        shrink_buffer(&daemon_end, SO_SNDBUF, 4096);
        let (mut client, _) = listener.accept().expect("accept");
        // The 404 answer echoes the 48 KiB path: far more than the two
        // shrunken buffers hold.
        let path = format!("/{}", "x".repeat(48 * 1024));
        let reader = std::thread::spawn(move || {
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let head = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
            client.write_all(head.as_bytes()).unwrap();
            let mut raw = vec![0u8; 1];
            client
                .read_exact(&mut raw)
                .expect("first byte of the answer");
            std::thread::sleep(Duration::from_millis(300));
            client.read_to_end(&mut raw).expect("rest of the answer");
            raw
        });
        serve_connection(&server.shared, daemon_end);
        let raw = reader.join().expect("client thread");

        let split = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("complete response head");
        let head = String::from_utf8_lossy(&raw[..split]).to_string();
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .expect("numeric Content-Length");
        assert!(length > 48 * 1024, "the answer echoes the path");
        assert_eq!(raw.len() - split - 4, length, "answer truncated mid-body");
    }
}
