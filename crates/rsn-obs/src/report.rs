//! Machine-readable run reports: one JSON object per instrumented run,
//! snapshotting the global registry, span tree and budget trips.

use std::collections::BTreeMap;

use crate::json_impl::Json;
use crate::metrics::{metrics_snapshot, Registry};
use crate::span::{span_snapshot, SpanStat};
use crate::trip::{budget_trips, BudgetTrip};

/// A serializable snapshot of all observability state for one run.
///
/// Schema (`to_json`):
///
/// ```json
/// {
///   "name": "<run name>",
///   "counters": { "sat.conflicts": 12, ... },
///   "gauges": { "synth.phases.augment_ms": 0.41, ... },
///   "histograms": {
///     "sat.solve_ns": {
///       "count": 40, "sum": 812345, "min": 1042, "max": 99210,
///       "mean": 20308.6, "p50": 16383, "p90": 65535, "p99": 99210
///     },
///     ...
///   },
///   "budget_trips": [
///     { "engine": "sat", "reason": "work_limit",
///       "span": "pipeline/metric_ft", "at_ms": 1042.77 },
///     ...
///   ],
///   "spans": {
///     "synthesize/augment": { "calls": 1, "total_ms": 0.42 },
///     ...
///   }
/// }
/// ```
///
/// Histogram percentiles are the deterministic log2-bucket upper-bound
/// estimates of [`crate::Histogram::percentile`]; `budget_trips` lists
/// the first [`crate::MAX_BUDGET_TRIPS`] budget exhaustions with the
/// span path live where each engine observed its trip.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub name: String,
    pub registry: Registry,
    pub spans: BTreeMap<String, SpanStat>,
    pub budget_trips: Vec<BudgetTrip>,
}

impl RunReport {
    /// Snapshots the current global counters, gauges, histograms, span
    /// aggregates and budget trips under the given run name. Does not
    /// reset anything; pair with [`crate::reset`] to delimit runs.
    pub fn capture(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            registry: metrics_snapshot(),
            spans: span_snapshot(),
            budget_trips: budget_trips(),
        }
    }

    /// The report as a JSON value (see the struct docs for the schema).
    pub fn to_json_value(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.registry.counters {
            counters.set(k, Json::Num(*v as f64));
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.registry.gauges {
            gauges.set(k, Json::Num(*v));
        }
        let mut hists = Json::obj();
        for (k, h) in &self.registry.histograms {
            let mut o = Json::obj();
            o.set("count", Json::Num(h.count as f64));
            o.set("sum", Json::Num(h.sum as f64));
            o.set(
                "min",
                Json::Num(if h.is_empty() { 0.0 } else { h.min as f64 }),
            );
            o.set("max", Json::Num(h.max as f64));
            o.set("mean", Json::Num(h.mean()));
            o.set("p50", Json::Num(h.percentile(0.50) as f64));
            o.set("p90", Json::Num(h.percentile(0.90) as f64));
            o.set("p99", Json::Num(h.percentile(0.99) as f64));
            hists.set(k, o);
        }
        let mut trips = Vec::new();
        for t in &self.budget_trips {
            let mut o = Json::obj();
            o.set("engine", Json::Str(t.engine.to_string()));
            o.set("reason", Json::Str(t.reason.clone()));
            o.set("span", Json::Str(t.span_path.clone()));
            o.set("at_ms", Json::Num(t.at_ms));
            trips.push(o);
        }
        let mut spans = Json::obj();
        for (path, stat) in &self.spans {
            let mut s = Json::obj();
            s.set("calls", Json::Num(stat.calls as f64));
            s.set("total_ms", Json::Num(stat.total_ms()));
            spans.set(path, s);
        }
        let mut root = Json::obj();
        root.set("name", Json::Str(self.name.clone()));
        root.set("counters", counters);
        root.set("gauges", gauges);
        root.set("histograms", hists);
        root.set("budget_trips", Json::Arr(trips));
        root.set("spans", spans);
        root
    }

    /// Compact single-line JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Indented JSON, two spaces per level.
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value().to_string_pretty(2)
    }
}
