//! Typed named metrics: monotonically increasing `u64` counters,
//! last-write-wins `f64` gauges and log2-bucketed [`Histogram`]s, held in
//! a process-global registry.
//!
//! Names may carry inline labels in the workspace convention
//! `base.name{key=value}` (e.g. `budget.spent{engine=sat}`); the registry
//! treats the whole string as the key, and the Prometheus renderer
//! ([`crate::render_prometheus`]) rewrites the suffix to label syntax.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::hist::Histogram;

/// A snapshot (or free-standing accumulator) of named metrics. Counters
/// accumulate; gauges overwrite; histograms merge bucket-wise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the named histogram, creating it empty
    /// first.
    pub fn hist_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

// Compile-time guarantee: registries move between threads (the global
// registry, per-request scopes) — a future non-Send field fails here.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<Registry>()
};

static GLOBAL: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

/// Adds `delta` to a counter in the global registry (and any report
/// scopes entered on this thread — see [`crate::ScopeHandle`]).
pub fn counter_add(name: &str, delta: u64) {
    GLOBAL.lock().unwrap().counter_add(name, delta);
    crate::scope::tee_counter(name, delta);
}

/// Current value of a global counter (0 if never touched).
pub fn counter_get(name: &str) -> u64 {
    GLOBAL
        .lock()
        .unwrap()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Sets a gauge in the global registry (and any entered scopes).
pub fn gauge_set(name: &str, value: f64) {
    GLOBAL.lock().unwrap().gauge_set(name, value);
    crate::scope::tee_gauge(name, value);
}

/// Records one sample into a histogram in the global registry (and any
/// entered scopes).
pub fn hist_record(name: &str, value: u64) {
    GLOBAL.lock().unwrap().hist_record(name, value);
    crate::scope::tee_hist(name, value);
}

/// Merges a whole pre-accumulated [`Histogram`] into a histogram in the
/// global registry (and any entered scopes). Lets hot loops — e.g. the
/// per-conflict LBD samples of a SAT solve — record into a local
/// histogram and pay the global lock once per solve instead of once per
/// sample.
pub fn hist_merge(name: &str, h: &Histogram) {
    if h.is_empty() {
        return;
    }
    GLOBAL
        .lock()
        .unwrap()
        .histograms
        .entry(name.to_string())
        .or_default()
        .merge(h);
    crate::scope::tee_hist_merge(name, h);
}

/// Clones the global registry.
pub fn metrics_snapshot() -> Registry {
    GLOBAL.lock().unwrap().clone()
}

pub(crate) fn reset_metrics() {
    let mut g = GLOBAL.lock().unwrap();
    g.counters.clear();
    g.gauges.clear();
    g.histograms.clear();
}
