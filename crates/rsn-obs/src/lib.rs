//! Observability for the FT-RSN toolchain.
//!
//! This crate carries no dependencies and provides the pieces the rest
//! of the workspace threads through its pipeline:
//!
//! * **Spans** ([`Span`], [`timed`]) — hierarchical wall-clock timers.
//!   Entering a span pushes onto a thread-local stack, so nested phases
//!   aggregate under slash-joined paths (`synthesize/augment/ilp`), each
//!   with a call count and total duration.
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`hist_record`],
//!   [`Registry`]) — a process-global registry of named `u64` counters,
//!   `f64` gauges and log2-bucketed [`Histogram`]s. Counters accumulate,
//!   gauges overwrite, histograms merge bucket-wise; snapshots are
//!   cheap.
//!   Names may embed labels as `base{key=value}` (see [`METRIC_CATALOG`]
//!   for the full inventory).
//! * **Event tracing** ([`TraceGuard`], [`trace_instant`],
//!   [`trace_drain`], [`chrome_trace`]) — opt-in per-thread ring buffers
//!   of timestamped begin/end/instant events, exportable as Chrome /
//!   Perfetto trace JSON. Disabled it costs one relaxed atomic load per
//!   site; enable with `RSN_TRACE=1` or [`set_trace_enabled`]. Spans
//!   emit trace events automatically while enabled.
//! * **Budget trips** ([`record_budget_trip`], [`budget_trips`]) — a
//!   bounded table of first budget exhaustions with the engine, reason
//!   and live span path, so reports show *where* deadlines ran out.
//! * **Logging** ([`error!`], [`warn!`], [`info!`], [`debug!`],
//!   [`trace!`]) — an env-controlled facade. Nothing is printed unless
//!   `RSN_LOG` selects a level, so library crates stay silent by
//!   default.
//! * **Reports** ([`RunReport`]) — a serializable snapshot of all of the
//!   above, written as JSON by a hand-rolled writer (no serde). A small
//!   parser ([`json`]) ships for tests and downstream tooling, and
//!   [`render_prometheus`] renders registry snapshots in the Prometheus
//!   text exposition format.
//!
//! Global state is deliberate: instrumentation crosses crate boundaries
//! and threading a context handle through every solver call would
//! dominate the diff.
//!
//! # Reset contract
//!
//! [`reset`] clears **all** run-scoped global state: span aggregates,
//! counters, gauges, histograms, buffered trace events (drained and
//! discarded) and recorded budget trips. Benchmark drivers call it
//! between rows so no events, samples or trips leak across rows; a
//! driver that wants the events must [`trace_drain`] *before* resetting.
//! Two things deliberately survive a reset because they are process
//! properties, not run properties: the trace timestamp epoch (so
//! timestamps stay monotone across rows accumulated into one trace
//! file) and assigned thread ids.

mod catalog;
mod hist;
pub mod json_impl;
mod log;
mod metrics;
mod prom;
mod report;
mod scope;
mod span;
mod trace;
mod trip;

pub use catalog::{
    catalog_lookup, catalog_matches, strip_labels, CatalogEntry, MetricKind, METRIC_CATALOG,
};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HIST_BUCKETS};
pub use json_impl as json;
pub use log::{log_enabled, log_level, log_message, set_log_level, Level};
pub use metrics::{
    counter_add, counter_get, gauge_set, hist_merge, hist_record, metrics_snapshot, Registry,
};
pub use prom::render_prometheus;
pub use report::RunReport;
pub use scope::{scope_handles, ScopeGuard, ScopeHandle};
pub use span::{span_snapshot, timed, Span, SpanStat};
pub use trace::{
    chrome_trace, set_trace_enabled, trace_drain, trace_enabled, trace_instant, TraceEvent,
    TraceEventKind, TraceGuard, TraceThread, DEFAULT_TRACE_CAP,
};
pub use trip::{budget_trips, record_budget_trip, BudgetTrip, MAX_BUDGET_TRIPS};

/// Clears all run-scoped observability state: span aggregates, counters,
/// gauges, histograms, buffered trace events and budget trips. Call
/// between independent runs (e.g. benchmark rows) so each report
/// reflects exactly one run. See the crate docs ("Reset contract") for
/// what survives.
pub fn reset() {
    span::reset_spans();
    metrics::reset_metrics();
    trace::reset_trace();
    trip::reset_trips();
}
