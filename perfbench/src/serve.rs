//! `serve`: the shipped `rsn-serve` binary, default options, as a child
//! process, driven over HTTP by a closed loop of one client (callers wait
//! for their reply before sending the next request).
//!
//! The seeded request list is stratified: per SoC two `/sweep` and one
//! `/lint` on the SIB network and on its `"synthesize": true` variant, two
//! `/plan` on the SIB network and one on the FT network, and one `/synth`
//! — 40/30/20/10 % of 70 requests — so every seed offers the same work and
//! the seed only sets the order and which pooled `/plan`s are sent. A
//! window sends whole covers of the list, never a partial one, so every
//! run measures the same mix. Seven SoCs give 14 networks, inside the
//! daemon's 16-entry cache: after the first touch (in `setup_s`) the
//! steady state is warm.
//!
//! The clients lock an 8 MB receive buffer, so the largest answer (5.4 MB)
//! fits in flight and defect (a) of the README cannot truncate it; the
//! traced run shows that defect with a slow reader instead (see
//! [`Reader`]).
//!
//! Every answer is compared after the window with the direct library
//! call on the same network under the endpoint's documented options, as
//! recorded by `perfbench record`: `/sweep`, `/lint` and `/synth` per
//! network, and `/plan` per request of a fixed pool of (target, fault)
//! pairs from which the seed draws.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_fault::{
    analyze_classes_on_budget, effect_of, fault_universe, plan_faulty_access_on, AccessEngine,
    FaultClasses, HardeningProfile,
};
use rsn_obs::json::Json;
use rsn_synth::SynthesisOptions;
use rsn_verify::{verify_on, verify_with, NetworkSat, VerifyOptions, VerifyReport};

use crate::golden::{Facts, Goldens};
use crate::json::{self, Value};
use crate::rng::Rng;
use crate::stats::{harrell_davis, median};
use crate::{sys, Args, Report};

/// The served SoCs; each contributes its SIB network and its synthesis.
const SOCS: [&str; 7] = [
    "u226", "d281", "g1023", "q12710", "a586710", "d695", "p34392",
];
/// Closed-loop clients. With two, which requests overlapped depended on
/// the seeded order and the host's timing: `req_p95_ms` spread by 0.34
/// and `wall_s` by 0.20 over four seeds, against 0.17 and 0.10 with one
/// client in runs alternating with them.
const CLIENTS: usize = 1;
/// Connections the first touch (set-up) sends its requests over.
const TOUCH_CONNECTIONS: usize = 2;
/// Daemon start-ups timed for the start-to-healthy part of `setup_s`.
const STARTS: usize = 3;
/// Client-side bound on one request; the daemon's own deadline is 30 s.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// `/plan` requests recorded per network; the seed draws from this pool.
const PLAN_POOL: usize = 6;
/// Covers of the list the untraced window sends at least: 210 requests,
/// so that ten or more lie beyond p95 even when a slow host would fit
/// fewer covers in the window.
const MIN_COVERS: usize = 3;
/// Receive buffer the clients ask for (the kernel doubles it): room for
/// the largest answer, so the daemon's write never waits for a read.
const CLIENT_RCVBUF: i32 = 4 << 20;
/// The answer the defect (a) probe requests, and how often.
const PROBE_NET: &str = "p34392-ft";
const PROBES: usize = 2;
/// How long the probe's slow reader pauses after the first answer byte.
const PROBE_STALL: Duration = Duration::from_millis(300);

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Endpoint {
    Lint,
    Sweep,
    Plan,
    Synth,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Lint => "/lint",
            Endpoint::Sweep => "/sweep",
            Endpoint::Plan => "/plan",
            Endpoint::Synth => "/synth",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Endpoint::Lint => "rsn-serve.lint",
            Endpoint::Sweep => "rsn-serve.sweep",
            Endpoint::Plan => "rsn-serve.plan",
            Endpoint::Synth => "rsn-serve.synth",
        }
    }
}

struct Request {
    endpoint: Endpoint,
    /// `soc` or `soc-ft`.
    net: String,
    ft: bool,
    body: String,
    /// Key of the answer's golden: the network, or the pooled `/plan`.
    golden: String,
}

/// The JSON network spec of a request.
fn spec(soc: &str, ft: bool) -> Json {
    let mut j = Json::obj();
    j.set("soc", Json::Str(soc.to_string()));
    if ft {
        j.set("synthesize", Json::Bool(true));
        j.set("profile", Json::Str("hardened".into()));
    }
    j
}

fn profile(ft: bool) -> HardeningProfile {
    if ft {
        HardeningProfile::hardened()
    } else {
        HardeningProfile::unhardened()
    }
}

/// The 14 networks: `(golden key, soc, ft, network)`.
fn networks() -> Vec<(String, &'static str, bool, Rsn)> {
    let mut out = Vec::new();
    for soc in SOCS {
        let sib = rsn_sib::generate(&rsn_itc02::by_name(soc).expect("embedded SoC"))
            .expect("SIB generation succeeds");
        let ft = rsn_synth::synthesize(&sib, &SynthesisOptions::new())
            .expect("synthesis succeeds")
            .rsn;
        out.push((soc.to_string(), soc, false, sib));
        out.push((format!("{soc}-ft"), soc, true, ft));
    }
    out
}

/// Golden key of a pooled `/plan` request; `request_list` parses it.
fn plan_key(net: &str, fault: usize, target: &str) -> String {
    format!("{net}/plan/{fault}/{target}")
}

/// The seeded request list; its `/plan`s are drawn from the recorded pool.
fn request_list(seed: u64, goldens: &Goldens) -> Result<Vec<Request>, String> {
    let mut rng = Rng::new(seed);
    let mut list = Vec::new();
    for soc in SOCS {
        for ft in [false, true] {
            let net = if ft {
                format!("{soc}-ft")
            } else {
                soc.to_string()
            };
            let mut push = |endpoint: Endpoint, body: Json, golden: &str| {
                list.push(Request {
                    endpoint,
                    net: net.clone(),
                    ft,
                    body: body.to_string_pretty(0).replace('\n', ""),
                    golden: golden.to_string(),
                })
            };
            for _ in 0..2 {
                push(Endpoint::Sweep, spec(soc, ft), &net);
            }
            push(Endpoint::Lint, spec(soc, ft), &net);
            if !ft {
                push(Endpoint::Synth, spec(soc, false), &net);
            }
            let prefix = format!("{net}/plan/");
            let mut pool: Vec<&String> = goldens
                .jobs("serve")
                .map(|(k, _)| k)
                .filter(|k| k.starts_with(&prefix))
                .collect();
            if pool.len() < PLAN_POOL {
                return Err(format!(
                    "{net}: {} pooled /plan goldens, {PLAN_POOL} expected",
                    pool.len()
                ));
            }
            rng.shuffle(&mut pool);
            for key in &pool[..if ft { 1 } else { 2 }] {
                let (fault, target) = key[prefix.len()..]
                    .split_once('/')
                    .ok_or_else(|| format!("malformed /plan golden key {key}"))?;
                let fault: f64 = fault
                    .parse()
                    .map_err(|_| format!("malformed /plan golden key {key}"))?;
                let mut body = spec(soc, ft);
                body.set("target", Json::Str(target.to_string()));
                body.set("fault_index", Json::Num(fault));
                push(Endpoint::Plan, body, key);
            }
        }
    }
    rng.shuffle(&mut list);
    Ok(list)
}

/// FNV-1a of `s`, as an exactly representable golden value.
fn fnv(s: &str) -> f64 {
    let mut h: u32 = 0x811c_9dc5;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h as f64
}

/// FNV-1a over the sorted `code@node` list of a lint report: one number
/// standing for the exact diagnostic set.
fn diag_digest(mut items: Vec<String>) -> f64 {
    items.sort();
    fnv(&items.join(";"))
}

fn report_digest(r: &VerifyReport) -> f64 {
    diag_digest(
        r.diagnostics
            .iter()
            .map(|d| format!("{}@{}", d.code.as_str(), d.node_name))
            .collect(),
    )
}

/// Goldens for every network, by the same library calls the endpoints
/// document: `/sweep` (collapsed classes, the request's profile), `/lint`
/// (`VerifyOptions::default()` on a fresh CNF model), `/synth` (default
/// synthesis options), plus the `rsn-lint --ft` verdict on FT networks;
/// and the pool of `/plan` requests (`plan_faulty_access_on` with the
/// request's profile), `PLAN_POOL` random (target, fault) pairs per network.
pub fn record_goldens() -> Vec<(String, Facts)> {
    let mut out = Vec::new();
    let mut rng = Rng::new(0);
    for (key, _, ft, rsn) in networks() {
        let mut f = Facts::new();
        let faults = fault_universe(&rsn);
        let classes = FaultClasses::build(&rsn, &faults, profile(ft));
        let engine = AccessEngine::new(&rsn);
        let r = analyze_classes_on_budget(&engine, &faults, &classes, 1, &Budget::unlimited());
        f.insert("sweep.fault_count".into(), r.fault_count as f64);
        f.insert("sweep.classes".into(), r.classes as f64);
        f.insert("sweep.total_weight".into(), r.total_weight as f64);
        f.insert("sweep.worst_segments".into(), r.worst_segments);
        f.insert("sweep.avg_segments".into(), r.avg_segments);
        f.insert("sweep.worst_bits".into(), r.worst_bits);
        f.insert("sweep.avg_bits".into(), r.avg_bits);
        let sat = NetworkSat::build(&rsn);
        let lint = verify_on(&rsn, &sat, VerifyOptions::default(), &Budget::unlimited());
        f.insert("lint.errors".into(), lint.error_count() as f64);
        f.insert("lint.warnings".into(), lint.warning_count() as f64);
        f.insert("lint.sat_queries".into(), lint.sat_queries as f64);
        f.insert("lint.digest".into(), report_digest(&lint));
        if ft {
            // What `rsn-lint --ft` reports: select checks skipped on
            // placeholder selects.
            let cli = verify_with(&rsn, VerifyOptions::without_select_checks());
            f.insert("cli.errors".into(), cli.error_count() as f64);
        } else {
            let s =
                rsn_synth::synthesize_under(&rsn, &SynthesisOptions::new(), &Budget::unlimited())
                    .expect("synthesis succeeds");
            f.insert("synth.added_edges".into(), s.report.added_edges as f64);
            f.insert("synth.added_muxes".into(), s.report.added_muxes as f64);
            f.insert("synth.added_bits".into(), s.report.added_bits as f64);
            f.insert("synth.nodes".into(), s.rsn.node_count() as f64);
        }
        let segments: Vec<_> = rsn.segments().collect();
        let mut plans = BTreeMap::new();
        while plans.len() < PLAN_POOL {
            let target = segments[rng.below(segments.len())];
            let fault = rng.below(faults.len());
            let effect = effect_of(&rsn, &faults[fault], profile(ft));
            let plan = plan_faulty_access_on(&engine, &effect, target);
            let path: Vec<&str> = plan.as_ref().map_or(Vec::new(), |p| {
                p.path.iter().map(|&n| rsn.node(n).name()).collect()
            });
            let facts = Facts::from([
                ("plan.accessible".into(), plan.is_some() as u8 as f64),
                (
                    "plan.csu_count".into(),
                    plan.as_ref().map_or(0, |p| p.csu_count()) as f64,
                ),
                ("plan.path_len".into(), path.len() as f64),
                ("plan.path_digest".into(), fnv(&path.join(";"))),
            ]);
            plans.insert(plan_key(&key, fault, rsn.node(target).name()), facts);
        }
        out.push((key, f));
        out.extend(plans);
    }
    out
}

/// One HTTP exchange as the client saw it.
struct Response {
    req: usize,
    latency_s: f64,
    status: u16,
    /// Body bytes announced by `Content-Length`.
    announced: Option<usize>,
    body: Vec<u8>,
    error: Option<String>,
}

impl Response {
    fn complete(&self) -> bool {
        self.error.is_none() && self.status == 200 && self.announced == Some(self.body.len())
    }
}

/// How a client reads its answer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reader {
    /// Asks for a `CLIENT_RCVBUF` receive buffer and reads at once: the
    /// benchmark's clients.
    Prompt,
    /// Keeps the kernel's default receive buffer and pauses `PROBE_STALL`
    /// after the first answer byte, as a client behind a slow link would:
    /// the defect (a) probe.
    Slow,
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Option<usize>, Vec<u8>), String> {
    exchange(addr, method, path, body, Reader::Prompt)
}

fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    reader: Reader,
) -> Result<(u16, Option<usize>, Vec<u8>), String> {
    let mut s = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    if reader == Reader::Prompt && !sys::set_rcvbuf(s.as_raw_fd(), CLIENT_RCVBUF) {
        return Err("cannot set the receive buffer".into());
    }
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    s.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
    if reader == Reader::Slow {
        s.peek(&mut [0u8; 1]).map_err(|e| e.to_string())?;
        std::thread::sleep(PROBE_STALL);
    }
    let mut raw = Vec::new();
    // A reset after a partial body still leaves what arrived in `raw`.
    let read = s.read_to_end(&mut raw);
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no response head ({} bytes, {read:?})", raw.len()))?;
    let head = String::from_utf8_lossy(&raw[..end]).to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let announced = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse().ok())?
    });
    Ok((status, announced, raw[end + 4..].to_vec()))
}

/// The daemon child; terminated (SIGTERM, then SIGKILL) and reaped on
/// drop, whatever path the run takes.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn start(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        let mut d = Daemon {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => d.addr = addr,
            _ => return Err(format!("daemon did not announce its address: {line:?}")),
        }
        let t0 = Instant::now();
        while http(d.addr, "GET", "/healthz", "").map(|r| r.0) != Ok(200) {
            if t0.elapsed() > Duration::from_secs(10) {
                return Err("daemon not healthy within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(d)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Counters and histogram sums from `/metrics`, labels summed away.
    fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Ok((200, _, body)) = http(self.addr, "GET", "/metrics", "") else {
            return out;
        };
        for line in String::from_utf8_lossy(&body).lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let base = name.split('{').next().unwrap_or(name);
            if name.contains("le=\"") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                *out.entry(base.to_string()).or_default() += v;
            }
        }
        out
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        sys::terminate(self.child.id());
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        // Drain the pipe so the daemon's farewell line never hits EPIPE.
        let _ = std::io::copy(&mut self.stdout, &mut std::io::sink());
        let _ = self.child.wait();
    }
}

/// What one window of closed-loop traffic produced.
struct Window {
    /// Every response, in list order.
    responses: Vec<Response>,
    /// Whole covers of the list sent.
    covers: usize,
    /// Seconds from the first send to the last reply.
    elapsed: f64,
    /// Client time outside requests, summed over clients.
    idle: f64,
}

/// Hands out request numbers cover by cover. The first `min_covers`
/// covers always run; after them a cover starts only if the previous
/// one's duration still fits in the window, so a window never ends
/// inside a cover.
struct Dispatch {
    len: usize,
    next: usize,
    cover_start: Instant,
    last_cover_s: f64,
    closed: bool,
}

impl Dispatch {
    fn take(&mut self, start: Instant, window: Duration, min_covers: usize) -> Option<usize> {
        if self.closed {
            return None;
        }
        if self.next.is_multiple_of(self.len) {
            let now = Instant::now();
            if self.next > 0 {
                self.last_cover_s = (now - self.cover_start).as_secs_f64();
            }
            let late = (now - start).as_secs_f64() + self.last_cover_s > window.as_secs_f64();
            if self.next / self.len >= min_covers && late {
                self.closed = true;
                return None;
            }
            self.cover_start = now;
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

/// Runs whole covers of `list` through `CLIENTS` closed-loop clients for
/// `window` (see [`Dispatch`]; requests in flight finish). With `traced`,
/// each request gets a client-side span named after its endpoint.
fn drive(
    addr: SocketAddr,
    list: &[Request],
    window: Duration,
    min_covers: usize,
    traced: bool,
) -> Window {
    let start = Instant::now();
    let dispatch = Mutex::new(Dispatch {
        len: list.len(),
        next: 0,
        cover_start: start,
        last_cover_s: 0.0,
        closed: false,
    });
    let responses = Mutex::new(Vec::new());
    let idle = Mutex::new(0.0);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut busy = 0.0;
                let client_start = Instant::now();
                let mut mine = Vec::new();
                loop {
                    let taken = dispatch
                        .lock()
                        .expect("no client panics holding the lock")
                        .take(start, window, min_covers);
                    let Some(i) = taken else { break };
                    let r = &list[i % list.len()];
                    let t0 = Instant::now();
                    let result = if traced {
                        let _span = rsn_obs::Span::enter(r.endpoint.span());
                        http(addr, "POST", r.endpoint.path(), &r.body)
                    } else {
                        http(addr, "POST", r.endpoint.path(), &r.body)
                    };
                    let latency_s = t0.elapsed().as_secs_f64();
                    busy += latency_s;
                    mine.push(match result {
                        Ok((status, announced, body)) => Response {
                            req: i % list.len(),
                            latency_s,
                            status,
                            announced,
                            body,
                            error: None,
                        },
                        Err(e) => Response {
                            req: i % list.len(),
                            latency_s,
                            status: 0,
                            announced: None,
                            body: Vec::new(),
                            error: Some(e),
                        },
                    });
                }
                *idle.lock().expect("no client panics holding the lock") +=
                    client_start.elapsed().as_secs_f64() - busy;
                responses
                    .lock()
                    .expect("no client panics holding the lock")
                    .extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut responses = responses.into_inner().expect("clients joined");
    responses.sort_by_key(|r| r.req);
    Window {
        covers: responses.len() / list.len(),
        responses,
        elapsed,
        idle: idle.into_inner().expect("clients joined"),
    }
}

/// Sends `PROBES` FT `/lint` requests for `PROBE_NET` through a slow
/// reader and returns how many answers arrived truncated (defect (a)).
fn probe_truncation(addr: SocketAddr, list: &[Request]) -> Result<u64, String> {
    let r = list
        .iter()
        .find(|r| r.endpoint == Endpoint::Lint && r.net == PROBE_NET)
        .ok_or_else(|| format!("no /lint {PROBE_NET} in the list"))?;
    let mut truncated = 0;
    for _ in 0..PROBES {
        match exchange(addr, "POST", r.endpoint.path(), &r.body, Reader::Slow)? {
            (200, Some(n), body) if body.len() == n => {}
            (status, announced, body) => {
                println!(
                    "defect (a) probe: status {status}, {} of {announced:?} body bytes",
                    body.len()
                );
                truncated += 1;
            }
        }
    }
    Ok(truncated)
}

/// Compares one complete answer with its reference; `Err` names the
/// first disagreement.
fn check_answer(r: &Request, body: &Value, goldens: &Goldens) -> Result<(), String> {
    let g = goldens
        .get("serve", &r.golden)
        .ok_or_else(|| format!("no golden for {}", r.golden))?;
    let num = |path: &str| body.get_path(path).and_then(Value::as_f64);
    let want = |key: &str| g.get(key).copied();
    let same = |got: Option<f64>, want: Option<f64>, what: &str| match (got, want) {
        (Some(a), Some(b)) if a == b || (a - b).abs() <= 1e-9 * a.abs().max(1.0) => Ok(()),
        _ => Err(format!("{what}: got {got:?}, reference {want:?}")),
    };
    // Digests are hashes: no round-off tolerance.
    let exact = |got: f64, want: Option<f64>, what: &str| match want {
        Some(w) if w == got => Ok(()),
        _ => Err(format!("{what}: got digest {got}, reference {want:?}")),
    };
    match r.endpoint {
        Endpoint::Sweep => {
            for k in [
                "fault_count",
                "classes",
                "total_weight",
                "worst_segments",
                "avg_segments",
                "worst_bits",
                "avg_bits",
            ] {
                same(num(&format!("report/{k}")), want(&format!("sweep.{k}")), k)?;
            }
            if body.get_path("report/complete") != Some(&Value::Bool(true)) {
                return Err("sweep incomplete".into());
            }
        }
        Endpoint::Lint => {
            same(num("report/errors"), want("lint.errors"), "errors")?;
            same(num("report/warnings"), want("lint.warnings"), "warnings")?;
            same(
                num("report/sat_queries"),
                want("lint.sat_queries"),
                "sat_queries",
            )?;
            let diags = body
                .get_path("report/diagnostics")
                .and_then(Value::as_arr)
                .ok_or("no diagnostics array")?;
            let digest = diag_digest(
                diags
                    .iter()
                    .map(|d| {
                        let s = |k: &str| d.get(k).and_then(Value::as_str).unwrap_or("");
                        format!("{}@{}", s("code"), s("node_name"))
                    })
                    .collect(),
            );
            exact(digest, want("lint.digest"), "diagnostic set")?;
        }
        Endpoint::Synth => {
            for k in ["added_edges", "added_muxes", "added_bits"] {
                same(num(&format!("report/{k}")), want(&format!("synth.{k}")), k)?;
            }
            same(num("nodes"), want("synth.nodes"), "nodes")?;
        }
        Endpoint::Plan => {
            let accessible = body.get_path("plan/accessible") == Some(&Value::Bool(true));
            let path: Vec<&str> = body
                .get_path("plan/path")
                .and_then(Value::as_arr)
                .map_or(Vec::new(), |a| a.iter().filter_map(Value::as_str).collect());
            same(
                Some(accessible as u8 as f64),
                want("plan.accessible"),
                "accessible",
            )?;
            same(
                Some(num("plan/csu_count").unwrap_or(0.0)),
                want("plan.csu_count"),
                "csu_count",
            )?;
            same(
                Some(path.len() as f64),
                want("plan.path_len"),
                "path length",
            )?;
            exact(fnv(&path.join(";")), want("plan.path_digest"), "path")?;
        }
    }
    Ok(())
}

/// Outcome of checking a window's responses.
#[derive(Default)]
struct Checked {
    failed: u64,
    wrong: u64,
    unanswered: u64,
    cli_disagreements: u64,
    bytes: f64,
    /// Client latency per request, failed ones counted as misses.
    latencies_ms: Vec<f64>,
    per_endpoint_ms: BTreeMap<Endpoint, Vec<f64>>,
}

fn check_all(list: &[Request], responses: &[Response], goldens: &Goldens, miss_ms: f64) -> Checked {
    let mut c = Checked::default();
    let mut notes: BTreeMap<String, u64> = BTreeMap::new();
    for resp in responses {
        let r = &list[resp.req];
        c.bytes += resp.body.len() as f64;
        let verdict = if !resp.complete() {
            c.unanswered += 1;
            Err(match &resp.error {
                Some(e) => format!("{} {}: {e}", r.endpoint.path(), r.net),
                None => format!(
                    "{} {}: status {}, {} of {:?} body bytes",
                    r.endpoint.path(),
                    r.net,
                    resp.status,
                    resp.body.len(),
                    resp.announced
                ),
            })
        } else {
            match json::parse(&String::from_utf8_lossy(&resp.body)) {
                Ok(body) => {
                    if r.endpoint == Endpoint::Lint && r.ft {
                        let cli = goldens
                            .get("serve", &r.net)
                            .and_then(|g| g.get("cli.errors").copied());
                        if body.get_path("report/errors").and_then(Value::as_f64) != cli {
                            c.cli_disagreements += 1;
                        }
                    }
                    check_answer(r, &body, goldens).map_err(|e| {
                        c.wrong += 1;
                        format!("{} {}: {e}", r.endpoint.path(), r.net)
                    })
                }
                Err(e) => {
                    c.wrong += 1;
                    Err(format!(
                        "{} {}: unparsable body: {e}",
                        r.endpoint.path(),
                        r.net
                    ))
                }
            }
        };
        match verdict {
            Ok(()) => {
                c.latencies_ms.push(resp.latency_s * 1e3);
                c.per_endpoint_ms
                    .entry(r.endpoint)
                    .or_default()
                    .push(resp.latency_s * 1e3);
            }
            Err(e) => {
                c.failed += 1;
                c.latencies_ms.push(miss_ms);
                *notes.entry(e).or_default() += 1;
            }
        }
    }
    for (note, n) in notes {
        println!("check failed ({n}x): {note}");
    }
    c
}

/// Sends every distinct request of the list once, `TOUCH_CONNECTIONS` at
/// a time: the first touch that builds each network's cached artifacts.
fn first_touch(addr: SocketAddr, list: &[Request]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let distinct: Vec<&Request> = list
        .iter()
        .filter(|r| r.endpoint != Endpoint::Plan && seen.insert((r.endpoint, r.net.clone())))
        .collect();
    let next = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..TOUCH_CONNECTIONS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = distinct.get(i) else { break };
                if let Err(e) = http(addr, "POST", r.endpoint.path(), &r.body) {
                    errors
                        .lock()
                        .expect("no client panics holding the lock")
                        .push(e);
                }
            });
        }
    });
    match errors.into_inner().expect("clients joined").first() {
        Some(e) => Err(format!("first touch failed: {e}")),
        None => Ok(()),
    }
}

/// Runs the `serve` workload against the `rsn-serve` binary at `bin`.
pub fn run(args: &Args, bin: &Path, goldens: &Goldens) -> Result<Report, String> {
    let list = request_list(args.seed, goldens)?;
    println!("{} requests per list", list.len());

    let mut start_times = Vec::new();
    for _ in 0..STARTS - 1 {
        let t0 = Instant::now();
        drop(Daemon::start(bin)?);
        start_times.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let daemon = Daemon::start(bin)?;
    start_times.push(t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    first_touch(daemon.addr, &list)?;
    let touch_s = t1.elapsed().as_secs_f64();
    let setup_s = median(&start_times) + touch_s;
    println!(
        "daemon start-to-healthy median {:.1} ms of {STARTS}, first touch {touch_s:.2} s",
        median(&start_times) * 1e3
    );

    let window = Duration::from_secs_f64(args.seconds);
    let (untraced_window, traced_window) = if args.trace {
        (window / 2, window / 2)
    } else {
        (window, Duration::ZERO)
    };
    let cpu0 = sys::child_cpu_s(daemon.pid()).unwrap_or(0.0);
    let min_covers = if args.trace { 1 } else { MIN_COVERS };
    let w = drive(daemon.addr, &list, untraced_window, min_covers, false);
    let cpu = sys::child_cpu_s(daemon.pid()).unwrap_or(0.0) - cpu0;
    let miss_ms = untraced_window.as_secs_f64() * 1e3;

    let (responses, elapsed) = (&w.responses, w.elapsed);
    let n = responses.len().max(1) as f64;
    let covers = w.covers.max(1) as f64;
    let c = check_all(&list, responses, goldens, miss_ms);
    println!(
        "{} requests ({} covers) in {elapsed:.2} s ({:.2} req/s) from {CLIENTS} client(s), {} failed, {} unanswered, {} lint answers disagree with rsn-lint --ft",
        responses.len(),
        w.covers,
        n / elapsed,
        c.failed,
        c.unanswered,
        c.cli_disagreements
    );

    let mut report = Report {
        attempted: responses.len() as u64,
        failed: c.failed,
        wrong: c.wrong,
        metrics: BTreeMap::new(),
    };
    if !args.trace {
        let peak = sys::peak_rss_mb(&daemon.pid().to_string()).unwrap_or(0.0);
        report.metrics = BTreeMap::from([
            ("setup_s", setup_s),
            ("wall_s", elapsed / covers),
            ("cpu_s", cpu / covers),
            ("peak_rss_mb", peak),
            ("ok_ratio", 1.0 - c.failed as f64 / n),
            ("req_p50_ms", harrell_davis(&c.latencies_ms, 0.5)),
            ("req_p95_ms", harrell_davis(&c.latencies_ms, 0.95)),
        ]);
        return Ok(report);
    }

    // Traced half: the same list with client-side spans per request.
    rsn_obs::reset();
    rsn_obs::set_trace_enabled(true);
    let t_before = daemon.metrics();
    let t = drive(daemon.addr, &list, traced_window, 1, true);
    let t_after = daemon.metrics();
    rsn_obs::set_trace_enabled(false);
    let (t_responses, t_elapsed, t_idle) = (&t.responses, t.elapsed, t.idle);
    let events = rsn_obs::trace_drain();
    let dropped: u64 = events.iter().map(|t| t.dropped).sum();
    let tc = check_all(
        &list,
        t_responses,
        goldens,
        traced_window.as_secs_f64() * 1e3,
    );
    report.attempted += t_responses.len() as u64;
    report.failed += tc.failed;
    report.wrong += tc.wrong;
    if dropped > 0 {
        println!("{dropped} trace event(s) dropped: the traced run counts as failed");
        report.failed += 1;
    }
    let truncated = probe_truncation(daemon.addr, &list)?;
    println!(
        "defect (a) probe: {truncated} of {PROBES} /lint {PROBE_NET} answers truncated for a reader pausing {} ms",
        PROBE_STALL.as_millis()
    );
    let tn = t_responses.len().max(1) as f64;
    let t_per_list = list.len() as f64 / tn;
    let td =
        |k: &str| t_after.get(k).copied().unwrap_or(0.0) - t_before.get(k).copied().unwrap_or(0.0);
    let busy_s = td("rsn_serve_request_ns_sum") * 1e-9;
    let client_s: f64 = t_responses.iter().map(|r| r.latency_s).sum();
    let hits = td("rsn_serve_cache_hits");
    let lookups = hits + td("rsn_serve_cache_misses");
    let p50 = |e: Endpoint| median(tc.per_endpoint_ms.get(&e).map_or(&[][..], |v| &v[..]));
    let mut m = BTreeMap::from([
        ("rsn-serve.lint_p50_ms", p50(Endpoint::Lint)),
        ("rsn-serve.sweep_p50_ms", p50(Endpoint::Sweep)),
        ("rsn-serve.plan_p50_ms", p50(Endpoint::Plan)),
        ("rsn-serve.synth_p50_ms", p50(Endpoint::Synth)),
        ("rsn-serve.server_busy_s", busy_s * t_per_list),
        (
            "rsn-serve.client_wait_s",
            (client_s - busy_s).max(0.0) * t_per_list,
        ),
        (
            "rsn-serve.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        ("rsn-serve.resynth_runs", td("rsn_synth_runs") * t_per_list),
        ("rsn-serve.response_mb", tc.bytes * 1e-6 * t_per_list),
        (
            "rsn-serve.unanswered",
            (c.unanswered + tc.unanswered) as f64,
        ),
        (
            "rsn-serve.cli_disagreements",
            (c.cli_disagreements + tc.cli_disagreements) as f64,
        ),
        ("rsn-serve.slow_reader_truncated", truncated as f64),
        (
            "rsn-fault.classes",
            td("rsn_fault_classes_evaluated") * t_per_list,
        ),
        (
            "rsn-fault.warm_rounds",
            td("rsn_fault_warm_rounds_sum") * t_per_list,
        ),
        (
            "rsn-fault.class_eval_s",
            td("rsn_fault_class_eval_ns_sum") * 1e-9 * t_per_list,
        ),
        (
            "rsn-verify.queries",
            td("rsn_lint_sat_queries") * t_per_list,
        ),
        (
            "rsn-synth.added_edges",
            td("rsn_synth_added_edges") * t_per_list,
        ),
        ("rsn-obs.trace_overhead", (t_elapsed / tn) / (elapsed / n)),
        (
            "rsn-obs.unattributed_share",
            t_idle / (t_elapsed * CLIENTS as f64),
        ),
        ("rsn-obs.trace_dropped", dropped as f64),
    ]);
    for (name, counter) in [
        ("rsn-sat.conflicts", "rsn_sat_conflicts"),
        ("rsn-sat.propagations", "rsn_sat_propagations"),
        ("rsn-sat.eliminated_vars", "rsn_sat_eliminated_vars"),
        ("rsn-sat.probe_units", "rsn_sat_probe_units"),
        ("rsn-sat.cubes", "rsn_sat_cubes"),
        ("rsn-sat.pool_exports", "rsn_sat_pool_exports"),
        ("rsn-sat.pool_imports", "rsn_sat_pool_imports"),
    ] {
        m.insert(name, td(counter) * t_per_list);
    }
    let solves = td("rsn_sat_solve_ns_count");
    if solves > 0.0 {
        m.insert(
            "rsn-sat.us_per_query",
            td("rsn_sat_solve_ns_sum") / solves * 1e-3,
        );
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let trace_path = args
        .out_dir
        .join(format!("serve-seed{}.trace.json", args.seed));
    std::fs::write(
        &trace_path,
        rsn_obs::chrome_trace(&events).to_string_pretty(0),
    )
    .map_err(|e| e.to_string())?;
    println!("client spans written to {}", trace_path.display());
    report.metrics = m;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/sweep` answer that repeats the golden facts is accepted; after
    /// one golden value is perturbed the same answer is caught.
    #[test]
    fn perturbed_serve_golden_is_caught() {
        let mut goldens = Goldens::embedded();
        let g = goldens.get("serve", "u226").expect("u226 golden").clone();
        let mut report: std::collections::BTreeMap<String, Value> = g
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix("sweep.")?.to_string(), Value::Num(*v))))
            .collect();
        report.insert("complete".into(), Value::Bool(true));
        let body = Value::Obj([("report".to_string(), Value::Obj(report))].into());
        let req = Request {
            endpoint: Endpoint::Sweep,
            net: "u226".into(),
            ft: false,
            body: String::new(),
            golden: "u226".into(),
        };
        assert_eq!(check_answer(&req, &body, &goldens), Ok(()));
        *goldens
            .get_mut("serve", "u226")
            .and_then(|f| f.get_mut("sweep.avg_segments"))
            .expect("golden") *= 1.001;
        let err = check_answer(&req, &body, &goldens).expect_err("perturbed golden");
        assert!(err.starts_with("avg_segments"), "{err}");
    }

    /// A pooled `/plan` answer built from the direct library call is
    /// accepted; after its golden path digest is perturbed the same answer
    /// is caught. Every seed's list draws its plans from the pool.
    #[test]
    fn perturbed_plan_golden_is_caught() {
        let mut goldens = Goldens::embedded();
        let key = goldens
            .jobs("serve")
            .find(|(k, f)| k.starts_with("u226/plan/") && f.get("plan.accessible") == Some(&1.0))
            .map(|(k, _)| k.clone())
            .expect("an accessible pooled u226 plan");
        let (fault, target) = key["u226/plan/".len()..]
            .split_once('/')
            .expect("key has fault and target");
        let rsn = rsn_sib::generate(&rsn_itc02::by_name("u226").expect("embedded SoC"))
            .expect("SIB generation succeeds");
        let faults = fault_universe(&rsn);
        let effect = effect_of(
            &rsn,
            &faults[fault.parse::<usize>().expect("fault index")],
            profile(false),
        );
        let plan = plan_faulty_access_on(
            &AccessEngine::new(&rsn),
            &effect,
            rsn.find(target).expect("target segment"),
        )
        .expect("accessible");
        let answer = Value::Obj(
            [
                ("accessible".to_string(), Value::Bool(true)),
                ("csu_count".to_string(), Value::Num(plan.csu_count() as f64)),
                (
                    "path".to_string(),
                    Value::Arr(
                        plan.path
                            .iter()
                            .map(|&n| Value::Str(rsn.node(n).name().to_string()))
                            .collect(),
                    ),
                ),
            ]
            .into(),
        );
        let body = Value::Obj([("plan".to_string(), answer)].into());
        let req = Request {
            endpoint: Endpoint::Plan,
            net: "u226".into(),
            ft: false,
            body: String::new(),
            golden: key.clone(),
        };
        assert_eq!(check_answer(&req, &body, &goldens), Ok(()));
        *goldens
            .get_mut("serve", &key)
            .and_then(|f| f.get_mut("plan.path_digest"))
            .expect("golden") += 1.0;
        let err = check_answer(&req, &body, &goldens).expect_err("perturbed golden");
        assert!(err.starts_with("path"), "{err}");
        for seed in [1, 2, 3] {
            let list = request_list(seed, &Goldens::embedded()).expect("pooled plans");
            assert_eq!(list.len(), 70);
            for r in list.iter().filter(|r| r.endpoint == Endpoint::Plan) {
                assert!(r.golden.starts_with(&format!("{}/plan/", r.net)));
            }
        }
    }

    /// Whole covers only: with the window already over, exactly the
    /// `min_covers` covers that always run; with time left, the next one.
    #[test]
    fn dispatch_sends_whole_covers() {
        let start = Instant::now();
        let dispatch = || Dispatch {
            len: 5,
            next: 0,
            cover_start: start,
            last_cover_s: 0.0,
            closed: false,
        };
        let mut d = dispatch();
        let taken: Vec<usize> = std::iter::from_fn(|| d.take(start, Duration::ZERO, 2)).collect();
        assert_eq!(taken, (0..10).collect::<Vec<_>>());
        let mut d = dispatch();
        let hour = Duration::from_secs(3600);
        assert!((0..15).all(|i| d.take(start, hour, 1) == Some(i)));
    }

    #[test]
    fn truncated_body_is_not_an_answer() {
        let r = Response {
            req: 0,
            latency_s: 0.1,
            status: 200,
            announced: Some(12),
            body: vec![b'{'; 10],
            error: None,
        };
        assert!(!r.complete());
    }
}
