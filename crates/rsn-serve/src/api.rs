//! Endpoint handlers: JSON in, JSON out, engines in between.
//!
//! Every analysis endpoint resolves the request's network, pulls the
//! shared artifacts from the [`ArtifactCache`] and answers with the
//! engine's own report serialization plus a `request_metrics` object —
//! the counters this request (and only this request) produced, captured
//! by the per-request [`rsn_obs::ScopeHandle`] the server installs.
//!
//! ## Network specification
//!
//! Analysis requests name their network with exactly one of:
//!
//! * `"example"`: `"fig2"`, `"chain"` (optional `"segments"`, `"bits"`)
//!   or `"sib_tree"` (optional `"depth"`, `"fanout"`, `"seg_len"`),
//! * `"soc"`: an embedded ITC'02 benchmark name (e.g. `"u226"`),
//! * `"soc_text"`: an inline `.soc` document,
//!
//! optionally followed by `"synthesize": true` to analyze the
//! fault-tolerant synthesized version instead of the flat SIB network.
//!
//! A spec whose network would exceed 4096 segments or 2²⁰ scan bits is
//! refused with `400` before anything is built: the counts come from the
//! spec's numbers or the parsed `.soc` document.

use std::sync::atomic::{AtomicU64, Ordering};

use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_fault::{
    analyze_classes_on_budget, effect_of, plan_faulty_access_on, Fault, HardeningProfile,
};
use rsn_obs::json::Json;
use rsn_verify::{verify_on, VerifyOptions};

use crate::breaker::{Admission, BreakerConfig, Breakers};
use crate::cache::ArtifactCache;
use crate::http::Request;

/// Most segments a requested network may have.
const MAX_SEGMENTS: u64 = 4096;

/// Most scan bits a requested network may have.
const MAX_BITS: u64 = 1 << 20;

/// Shared state of all request handlers.
pub struct ApiContext {
    pub cache: ArtifactCache,
    /// Per-fingerprint circuit breakers.
    pub breakers: Breakers,
    /// Worker threads per fault sweep.
    pub sweep_threads: usize,
}

impl ApiContext {
    pub fn new(cache_cap: usize, sweep_threads: usize, breakers: BreakerConfig) -> ApiContext {
        ApiContext {
            cache: ArtifactCache::new(cache_cap),
            breakers: Breakers::new(breakers),
            sweep_threads: sweep_threads.max(1),
        }
    }
}

/// Per-request bookkeeping shared between the handler and the server's
/// supervision layer. The handler records the resolved network's
/// fingerprint here *before* engine work starts, so even a request that
/// panics can be attributed to its network for circuit breaking.
#[derive(Default)]
pub struct RequestInfo {
    /// Resolved network fingerprint; 0 = not resolved (no breaker
    /// bookkeeping).
    pub fingerprint: AtomicU64,
}

/// A handler outcome: HTTP status plus JSON body.
#[derive(Debug, Clone)]
pub struct ApiResponse {
    pub status: u16,
    pub body: Json,
    /// `Retry-After` seconds, set on circuit-breaker 503s.
    pub retry_after: Option<u64>,
}

impl ApiResponse {
    fn ok(body: Json) -> ApiResponse {
        ApiResponse {
            status: 200,
            body,
            retry_after: None,
        }
    }

    pub(crate) fn error(status: u16, message: impl Into<String>) -> ApiResponse {
        let mut body = Json::obj();
        body.set("error", Json::Str(message.into()));
        ApiResponse {
            status,
            body,
            retry_after: None,
        }
    }
}

/// Breaker admission for the resolved network: records the fingerprint
/// into `info`, then either admits the request or fails fast with a
/// `503` + `Retry-After` when the network's breaker is open.
fn admit(ctx: &ApiContext, rsn: &Rsn, info: &RequestInfo) -> Result<(), ApiResponse> {
    let fp = rsn.fingerprint();
    info.fingerprint.store(fp, Ordering::Relaxed);
    match ctx.breakers.admit(fp) {
        Admission::Allow => Ok(()),
        Admission::FastFail { retry_after_secs } => {
            let mut resp = ApiResponse::error(
                503,
                "circuit breaker open: repeated failures on this network; retry later",
            );
            resp.retry_after = Some(retry_after_secs);
            Err(resp)
        }
    }
}

/// Routes one request. `scope` is this request's metric scope (already
/// entered by the server); its counters are appended to successful
/// analysis responses. `info` carries the resolved network fingerprint
/// back to the server's supervision layer.
pub fn handle(
    ctx: &ApiContext,
    req: &Request,
    budget: &Budget,
    scope: &rsn_obs::ScopeHandle,
    info: &RequestInfo,
) -> ApiResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let mut body = Json::obj();
            body.set("status", Json::Str("ok".into()));
            body.set("cached_networks", Json::Num(ctx.cache.len() as f64));
            ApiResponse::ok(body)
        }
        ("POST", "/lint") => with_json_body(req, |spec| lint(ctx, spec, budget, scope, info)),
        ("POST", "/sweep") => with_json_body(req, |spec| sweep(ctx, spec, budget, scope, info)),
        ("POST", "/plan") => with_json_body(req, |spec| plan(ctx, spec, budget, scope, info)),
        ("POST", "/synth") => with_json_body(req, |spec| synth(ctx, spec, budget, scope, info)),
        ("GET", "/metrics") => ApiResponse::ok(Json::Str(String::new())), // rendered by server
        (_, "/healthz" | "/lint" | "/sweep" | "/plan" | "/synth" | "/metrics") => {
            ApiResponse::error(405, format!("method {} not allowed here", req.method))
        }
        (_, path) => ApiResponse::error(404, format!("no such endpoint: {path}")),
    }
}

fn with_json_body(req: &Request, f: impl FnOnce(&Json) -> ApiResponse) -> ApiResponse {
    // Chaos failpoint: `panic` unwinds into the per-request
    // catch_unwind; `err`/`budget` take the service's error path.
    if rsn_fail::eval("serve.parse").is_some() {
        return ApiResponse::error(500, "injected failure at failpoint serve.parse");
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return ApiResponse::error(400, "body is not UTF-8"),
    };
    match rsn_obs::json::parse(text) {
        Ok(spec) => f(&spec),
        Err(e) => ApiResponse::error(400, format!("body is not valid JSON: {e}")),
    }
}

fn lint(
    ctx: &ApiContext,
    spec: &Json,
    budget: &Budget,
    scope: &rsn_obs::ScopeHandle,
    info: &RequestInfo,
) -> ApiResponse {
    let rsn = match resolve_network(spec) {
        Ok(rsn) => rsn,
        Err(resp) => return resp,
    };
    if let Err(resp) = admit(ctx, &rsn, info) {
        return resp;
    }
    let explain = matches!(spec.get("explain"), Some(Json::Bool(true)));
    let artifacts = ctx.cache.get_or_insert(&rsn);
    let sat = artifacts.network_sat();
    let mut report = verify_on(artifacts.rsn(), &sat, VerifyOptions::default(), budget);
    if explain {
        rsn_verify::explain_report(artifacts.rsn(), &sat, &mut report, budget);
    }
    if cancelled(budget) {
        return ApiResponse::error(408, "request cancelled or deadline exceeded");
    }
    let mut body = Json::obj();
    body.set("report", report.to_json());
    body.set("clean", Json::Bool(report.is_clean()));
    finish(&mut body, &rsn, scope);
    ApiResponse::ok(body)
}

fn sweep(
    ctx: &ApiContext,
    spec: &Json,
    budget: &Budget,
    scope: &rsn_obs::ScopeHandle,
    info: &RequestInfo,
) -> ApiResponse {
    let rsn = match resolve_network(spec) {
        Ok(rsn) => rsn,
        Err(resp) => return resp,
    };
    if let Err(resp) = admit(ctx, &rsn, info) {
        return resp;
    }
    let profile = match hardening_profile(spec) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let threads = spec
        .get("threads")
        .and_then(Json::as_f64)
        .map(|t| (t as usize).clamp(1, 64))
        .unwrap_or(ctx.sweep_threads);

    let artifacts = ctx.cache.get_or_insert(&rsn);
    let engine = artifacts.engine();
    let faults = artifacts.faults();
    let classes = artifacts.classes(profile);
    let report = analyze_classes_on_budget(&engine, &faults, &classes, threads, budget);
    if cancelled(budget) {
        return ApiResponse::error(408, "request cancelled or deadline exceeded");
    }

    let mut result = Json::obj();
    result.set("fault_count", Json::Num(report.fault_count as f64));
    result.set("classes", Json::Num(report.classes as f64));
    result.set("collapse_ratio", Json::Num(report.collapse_ratio));
    result.set("total_weight", Json::Num(report.total_weight as f64));
    result.set("worst_segments", Json::Num(report.worst_segments));
    result.set("avg_segments", Json::Num(report.avg_segments));
    result.set("worst_bits", Json::Num(report.worst_bits));
    result.set("avg_bits", Json::Num(report.avg_bits));
    result.set("quarantined", Json::Num(report.quarantined as f64));
    result.set("skipped", Json::Num(report.skipped as f64));
    result.set("complete", Json::Bool(report.is_complete()));
    if let Some(worst) = &report.worst_fault {
        result.set("worst_fault", fault_json(&rsn, worst));
    }

    let mut body = Json::obj();
    body.set("report", result);
    finish(&mut body, &rsn, scope);
    ApiResponse::ok(body)
}

fn plan(
    ctx: &ApiContext,
    spec: &Json,
    budget: &Budget,
    scope: &rsn_obs::ScopeHandle,
    info: &RequestInfo,
) -> ApiResponse {
    let rsn = match resolve_network(spec) {
        Ok(rsn) => rsn,
        Err(resp) => return resp,
    };
    if let Err(resp) = admit(ctx, &rsn, info) {
        return resp;
    }
    let target_name = match spec.get("target").and_then(Json::as_str) {
        Some(t) => t,
        None => return ApiResponse::error(400, "missing \"target\" segment name"),
    };
    let target = match rsn.find(target_name) {
        Some(id) => id,
        None => return ApiResponse::error(400, format!("no node named \"{target_name}\"")),
    };
    let profile = match hardening_profile(spec) {
        Ok(p) => p,
        Err(resp) => return resp,
    };

    let artifacts = ctx.cache.get_or_insert(&rsn);
    let engine = artifacts.engine();

    // The fault to plan around: an index into the universe, or benign.
    let effect = match spec.get("fault_index").and_then(Json::as_f64) {
        Some(i) => {
            let faults = artifacts.faults();
            let i = i as usize;
            match faults.get(i) {
                Some(f) => effect_of(artifacts.rsn(), f, profile),
                None => {
                    return ApiResponse::error(
                        400,
                        format!("fault_index {i} out of range ({} faults)", faults.len()),
                    )
                }
            }
        }
        None => rsn_fault::FaultEffect::benign(),
    };

    let plan = plan_faulty_access_on(&engine, &effect, target);
    if cancelled(budget) {
        return ApiResponse::error(408, "request cancelled or deadline exceeded");
    }
    let mut result = Json::obj();
    match plan {
        Some(p) => {
            result.set("accessible", Json::Bool(true));
            result.set("csu_count", Json::Num(p.csu_count() as f64));
            result.set(
                "path",
                Json::Arr(
                    p.path
                        .iter()
                        .map(|&n| Json::Str(rsn.node(n).name().to_string()))
                        .collect(),
                ),
            );
        }
        None => {
            result.set("accessible", Json::Bool(false));
        }
    }
    let mut body = Json::obj();
    body.set("plan", result);
    finish(&mut body, &rsn, scope);
    ApiResponse::ok(body)
}

fn synth(
    ctx: &ApiContext,
    spec: &Json,
    budget: &Budget,
    scope: &rsn_obs::ScopeHandle,
    info: &RequestInfo,
) -> ApiResponse {
    let rsn = match resolve_network(spec) {
        Ok(rsn) => rsn,
        Err(resp) => return resp,
    };
    if let Err(resp) = admit(ctx, &rsn, info) {
        return resp;
    }
    let opts = rsn_synth::SynthesisOptions::new();
    let result = match rsn_synth::synthesize(&rsn, &opts) {
        Ok(r) => r,
        Err(e) => return ApiResponse::error(400, format!("synthesis failed: {e}")),
    };
    if cancelled(budget) {
        return ApiResponse::error(408, "request cancelled or deadline exceeded");
    }
    // Cache the synthesized network so follow-up /sweep and /lint
    // requests on it start warm.
    let entry = ctx.cache.get_or_insert(&result.rsn);

    let mut report = Json::obj();
    report.set("added_edges", Json::Num(result.report.added_edges as f64));
    report.set("added_muxes", Json::Num(result.report.added_muxes as f64));
    report.set("added_bits", Json::Num(result.report.added_bits as f64));
    report.set(
        "hardened_muxes",
        Json::Num(result.report.hardened_muxes as f64),
    );

    let mut body = Json::obj();
    body.set("report", report);
    body.set("nodes", Json::Num(entry.rsn().node_count() as f64));
    // Name the network just cached, so the client can address it.
    finish(&mut body, entry.rsn(), scope);
    ApiResponse::ok(body)
}

/// Appends the shared response trailer: the analyzed network's identity
/// and this request's scoped counters.
fn finish(body: &mut Json, rsn: &Rsn, scope: &rsn_obs::ScopeHandle) {
    body.set("network", Json::Str(rsn.name().to_string()));
    body.set(
        "fingerprint",
        Json::Str(format!("{:016x}", rsn.fingerprint())),
    );
    attach_request_metrics(body, scope);
}

/// Appends this request's scoped counters as `request_metrics`. The
/// server also calls this for responses that bypassed the handlers
/// (caught panics, injected chaos), so failures stay as attributable
/// as successes.
pub(crate) fn attach_request_metrics(body: &mut Json, scope: &rsn_obs::ScopeHandle) {
    let snapshot = scope.snapshot();
    let mut counters = Json::obj();
    for (name, value) in &snapshot.counters {
        counters.set(name, Json::Num(*value as f64));
    }
    body.set("request_metrics", counters);
}

fn cancelled(budget: &Budget) -> bool {
    matches!(
        budget.exhausted(),
        Some(rsn_budget::Reason::Cancelled | rsn_budget::Reason::Deadline)
    )
}

fn as_bool(j: &Json) -> Option<bool> {
    match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn hardening_profile(spec: &Json) -> Result<HardeningProfile, ApiResponse> {
    match spec.get("profile").and_then(Json::as_str) {
        None | Some("unhardened") => Ok(HardeningProfile::unhardened()),
        Some("hardened") => Ok(HardeningProfile::hardened()),
        Some(other) => Err(ApiResponse::error(
            400,
            format!("unknown profile \"{other}\" (expected \"unhardened\" or \"hardened\")"),
        )),
    }
}

fn fault_json(rsn: &Rsn, fault: &Fault) -> Json {
    let mut j = Json::obj();
    j.set("site", Json::Str(format!("{:?}", fault.site)));
    j.set("stuck_at", Json::Num(fault.value as u8 as f64));
    j.set("weight", Json::Num(fault.weight as f64));
    j.set(
        "node",
        Json::Str(rsn.node(fault.site.node()).name().to_string()),
    );
    j
}

/// Builds the request's network from its JSON spec.
fn resolve_network(spec: &Json) -> Result<Rsn, ApiResponse> {
    let base = base_network(spec)?;
    if spec.get("synthesize").and_then(as_bool) == Some(true) {
        let opts = rsn_synth::SynthesisOptions::new();
        match rsn_synth::synthesize(&base, &opts) {
            Ok(result) => Ok(result.rsn),
            Err(e) => Err(ApiResponse::error(400, format!("synthesis failed: {e}"))),
        }
    } else {
        Ok(base)
    }
}

/// Refuses a network of more than [`MAX_SEGMENTS`] segments or
/// [`MAX_BITS`] scan bits.
fn check_size(segments: u64, bits: u64) -> Result<(), ApiResponse> {
    if segments > MAX_SEGMENTS || bits > MAX_BITS {
        return Err(ApiResponse::error(
            400,
            format!(
                "network too large: {segments} segments and {bits} scan bits \
                 (at most {MAX_SEGMENTS} and {MAX_BITS})"
            ),
        ));
    }
    Ok(())
}

/// The SIB network of `soc`, once its size is checked: one SIB per
/// module, one SIB and one leaf per chain, one segment per top register.
fn generate_soc(soc: &rsn_itc02::Soc) -> Result<Rsn, ApiResponse> {
    let (modules, chains) = (soc.modules.len() as u64, soc.total_chains() as u64);
    check_size(
        soc.top_registers.len() as u64 + modules + 2 * chains,
        soc.payload_bits() + modules + chains,
    )?;
    rsn_sib::generate(soc)
        .map_err(|e| ApiResponse::error(400, format!("SIB generation failed: {e}")))
}

fn base_network(spec: &Json) -> Result<Rsn, ApiResponse> {
    let num = |key: &str, default: f64| -> f64 {
        spec.get(key).and_then(Json::as_f64).unwrap_or(default)
    };
    if let Some(example) = spec.get("example").and_then(Json::as_str) {
        return match example {
            "fig2" => Ok(rsn_core::examples::fig2()),
            "chain" => {
                let segments = (num("segments", 4.0) as usize).max(1);
                let bits = (num("bits", 8.0) as u32).max(1);
                check_size(
                    segments as u64,
                    (segments as u64).saturating_mul(u64::from(bits)),
                )?;
                Ok(rsn_core::examples::chain(segments, bits))
            }
            "sib_tree" => {
                let depth = (num("depth", 2.0) as u32).clamp(1, 8);
                let fanout = (num("fanout", 2.0) as usize).clamp(1, 16);
                let seg_len = (num("seg_len", 4.0) as u32).max(1);
                // fanout + … + fanout^depth one-bit SIBs over
                // fanout^(depth + 1) leaves; 16^9 fits in a u64.
                let sibs: u64 = (1..=depth).map(|k| (fanout as u64).pow(k)).sum();
                let leaves = (fanout as u64).pow(depth + 1);
                check_size(
                    sibs + leaves,
                    sibs.saturating_add(leaves.saturating_mul(u64::from(seg_len))),
                )?;
                Ok(rsn_core::examples::sib_tree(depth, fanout, seg_len))
            }
            other => Err(ApiResponse::error(
                400,
                format!("unknown example \"{other}\" (fig2, chain, sib_tree)"),
            )),
        };
    }
    if let Some(name) = spec.get("soc").and_then(Json::as_str) {
        let soc = rsn_itc02::by_name(name).ok_or_else(|| {
            ApiResponse::error(400, format!("unknown ITC'02 benchmark \"{name}\""))
        })?;
        return generate_soc(&soc);
    }
    if let Some(text) = spec.get("soc_text").and_then(Json::as_str) {
        let soc = rsn_itc02::parse_soc(text)
            .map_err(|e| ApiResponse::error(400, format!("bad .soc document: {e}")))?;
        return generate_soc(&soc);
    }
    Err(ApiResponse::error(
        400,
        "network spec needs one of \"example\", \"soc\" or \"soc_text\"",
    ))
}
