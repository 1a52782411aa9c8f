//! `rsn-serve` — the resident analysis service.
//!
//! Running lint / sweep / plan / synth as one-shot CLI invocations
//! rebuilds the same expensive artifacts — the [`AccessEngine`]
//! (rsn-fault), the CNF model ([`NetworkSat`], rsn-verify), the
//! collapsed fault partitions — on every call. This crate keeps them
//! resident: a zero-dependency HTTP/1.1 + JSON daemon over `std::net`
//! with a fixed worker pool, a content-addressed [`cache::ArtifactCache`]
//! shared across requests, per-request [`rsn_budget::Budget`] deadlines,
//! client-disconnect cancellation, and bounded-queue admission control.
//!
//! The daemon is *crash-only* (see [`server`]): per-request panic
//! isolation, supervised worker respawn, artifact-cache poisoning
//! recovery and per-network circuit breakers ([`breaker`]) — all of it
//! exercised by `rsn-fail` failpoint injection in the chaos test suite.
//!
//! # Endpoints
//!
//! | Route            | Body                                   | Result |
//! |------------------|----------------------------------------|--------|
//! | `POST /lint`     | network spec (+ explain)               | verification report |
//! | `POST /sweep`    | network spec + profile/threads         | fault-sweep summary |
//! | `POST /plan`     | network spec + target (+ fault_index)  | access plan |
//! | `POST /synth`    | network spec                           | synthesis report, cached FT network's fingerprint |
//! | `GET /metrics`   | —                                      | Prometheus text |
//! | `GET /healthz`   | —                                      | liveness + cache size |
//!
//! Network specs name a built-in example (`{"example": "fig2"}`), an
//! ITC'02 benchmark (`{"soc": "p22810"}`), or inline SoC text
//! (`{"soc_text": "..."}`); `"synthesize": true` runs fault-tolerant
//! synthesis on the base network first. Unknown fields are ignored.
//! `/lint` verifies with `VerifyOptions::default()` on the serial SAT
//! loop, so its report equals a direct `verify_on` call's.
//!
//! [`AccessEngine`]: rsn_fault::AccessEngine
//! [`NetworkSat`]: rsn_verify::NetworkSat

pub mod api;
pub mod breaker;
pub mod cache;
pub mod http;
pub mod server;

pub use api::{ApiContext, ApiResponse};
pub use breaker::{Admission, BreakerConfig, Breakers};
pub use cache::{ArtifactCache, Artifacts};
pub use server::{Server, ServerHandle, ServerOptions};
