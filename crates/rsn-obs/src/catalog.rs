//! The metric-name catalog: one `const` list of every counter, gauge and
//! histogram the workspace emits.
//!
//! The catalog exists so documentation tables (README/DESIGN) and the
//! names actually reaching the registry cannot drift apart silently: an
//! end-to-end test asserts every name in a real run's
//! [`metrics_snapshot`](crate::metrics_snapshot) matches a catalog entry.
//! When adding a metric, add it here (and to the docs) in the same
//! change — the test fails otherwise.
//!
//! Matching rules: an inline label suffix (`{engine=sat}`) is stripped
//! first, then the name is compared segment-wise against the pattern
//! (segments split on `.`); a `*` pattern segment matches exactly one
//! name segment, which is how dynamic families like
//! `bmc.unroll.<steps>.solve_ns` are covered.

/// Metric kind, for catalog bookkeeping and doc generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// One catalog entry: a kind and a dot-separated name pattern (`*`
/// matches one segment).
pub type CatalogEntry = (MetricKind, &'static str);

use MetricKind::{Counter, Gauge, Histogram};

/// Every metric name the workspace emits.
pub const METRIC_CATALOG: &[CatalogEntry] = &[
    // rsn-sat: CDCL solver statistics, per-call histograms.
    (Counter, "sat.solves"),
    (Counter, "sat.conflicts"),
    (Counter, "sat.decisions"),
    (Counter, "sat.propagations"),
    (Counter, "sat.restarts"),
    (Counter, "sat.sat"),
    (Counter, "sat.unsat"),
    (Counter, "sat.unknown"),
    (Counter, "sat.pool_imports"),
    (Counter, "sat.pool_exports"),
    (Counter, "sat.eliminated_vars"),
    (Counter, "sat.portfolio_winner"),
    (Gauge, "sat.parallel_speedup"),
    (Histogram, "sat.solve_ns"),
    (Histogram, "sat.solve_conflicts"),
    (Histogram, "sat.learnt_lbd"),
    // rsn-ilp: branch & bound and simplex.
    (Counter, "ilp.solves"),
    (Counter, "ilp.nodes"),
    (Counter, "ilp.unproven"),
    (Counter, "ilp.cut_rounds"),
    (Counter, "ilp.cuts_added"),
    (Counter, "ilp.lp_solves"),
    (Counter, "ilp.simplex_iters"),
    (Counter, "ilp.bland_iters"),
    (Histogram, "ilp.solve_ns"),
    (Histogram, "ilp.node_ns"),
    // rsn-bmc: bounded model checking, keyed by unroll depth.
    (Counter, "bmc.builds"),
    (Counter, "bmc.queries"),
    (Counter, "bmc.unknown"),
    (Counter, "bmc.unroll.*.solve_ns"),
    (Gauge, "bmc.unroll.*.vars"),
    (Gauge, "bmc.unroll.*.clauses"),
    (Histogram, "bmc.query_ns"),
    // rsn-bmc: fault-distinguishability miter.
    (Counter, "bmc.miter.builds"),
    (Counter, "bmc.miter.queries"),
    (Counter, "bmc.miter.unknown"),
    (Gauge, "bmc.miter.vars"),
    (Gauge, "bmc.miter.clauses"),
    (Histogram, "bmc.miter.query_ns"),
    // rsn-fault: access engine, collapsing, work-stealing sweep.
    // `fault.steal_batches`, `fault.class_eval_ns` and `fault.warm_rounds`
    // count per claimed chunk of up to 64 classes (one bit-parallel pass
    // each), not per class; the `fault.warm_rounds` sum is the total of
    // fixed-point rounds over every pass.
    (Counter, "fault.faults_simulated"),
    (Counter, "fault.classes_evaluated"),
    (Counter, "fault.quarantined"),
    (Counter, "fault.skipped"),
    (Counter, "fault.steal_batches"),
    (Gauge, "fault.collapse_ratio"),
    (Gauge, "fault.faults_per_sec"),
    (Gauge, "fault.worker_utilization"),
    (Histogram, "fault.class_eval_ns"),
    (Histogram, "fault.warm_rounds"),
    // rsn-synth: pipeline phases and augmentation results.
    (Counter, "synth.runs"),
    (Counter, "synth.added_edges"),
    (Counter, "synth.added_muxes"),
    (Counter, "synth.added_bits"),
    (Gauge, "synth.phases.dataflow_ms"),
    (Gauge, "synth.phases.augment_ms"),
    (Gauge, "synth.phases.build_ms"),
    (Gauge, "synth.phases.harden_ms"),
    (Gauge, "synth.phases.select_ms"),
    // rsn-verify: static lint + SAT checks.
    (Counter, "lint.runs"),
    (Counter, "lint.errors"),
    (Counter, "lint.warnings"),
    (Counter, "lint.sat_queries"),
    (Counter, "lint.incomplete"),
    (Gauge, "lint.verify_ms"),
    (Histogram, "verify.core_size"),
    (Histogram, "verify.explain_ns"),
    (Histogram, "verify.cone_nodes"),
    // rsn-budget: exhaustion and per-engine attribution (inline labels).
    (Counter, "budget.exhausted"),
    (Counter, "budget.spent"),
    // rsn-serve: resident daemon (labels carry the endpoint, e.g.
    // `serve.requests{endpoint=sweep}`).
    (Counter, "serve.requests"),
    (Counter, "serve.responses"),
    (Counter, "serve.errors"),
    (Counter, "serve.rejected"),
    (Counter, "serve.cancelled"),
    (Counter, "serve.cache_hits"),
    (Counter, "serve.cache_misses"),
    (Counter, "serve.panics_caught"),
    (Counter, "serve.worker_respawns"),
    (Counter, "serve.breaker_open"),
    (Counter, "serve.breaker_fast_fail"),
    (Counter, "serve.cache_poisoned"),
    (Gauge, "serve.queue_depth"),
    (Gauge, "serve.cache_networks"),
    (Histogram, "serve.request_ns"),
    // rsn-fail: chaos injection (label carries the point, e.g.
    // `fail.injected{point=sat.solve}`).
    (Counter, "fail.injected"),
    // crates/bench: cross-checks.
    (Counter, "bench.bmc_checked"),
    (Counter, "bench.bmc_mismatches"),
];

/// Strips an inline label suffix: `budget.spent{engine=sat}` →
/// `budget.spent`.
pub fn strip_labels(name: &str) -> &str {
    match name.find('{') {
        Some(open) => &name[..open],
        None => name,
    }
}

fn pattern_matches(pattern: &str, name: &str) -> bool {
    let mut p = pattern.split('.');
    let mut n = name.split('.');
    loop {
        match (p.next(), n.next()) {
            (None, None) => return true,
            (Some(ps), Some(ns)) => {
                if ps != "*" && ps != ns {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// `true` if `name` (labels stripped) matches a catalog entry of any
/// kind.
pub fn catalog_matches(name: &str) -> bool {
    catalog_lookup(name).is_some()
}

/// The kind of the catalog entry matching `name`, if any.
pub fn catalog_lookup(name: &str) -> Option<MetricKind> {
    let base = strip_labels(name);
    METRIC_CATALOG
        .iter()
        .find(|(_, pat)| pattern_matches(pat, base))
        .map(|(kind, _)| *kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_wildcard_matching() {
        assert_eq!(catalog_lookup("sat.solves"), Some(MetricKind::Counter));
        assert_eq!(
            catalog_lookup("bmc.unroll.3.solve_ns"),
            Some(MetricKind::Counter)
        );
        assert_eq!(
            catalog_lookup("bmc.unroll.12.vars"),
            Some(MetricKind::Gauge)
        );
        assert_eq!(catalog_lookup("sat.solve_ns"), Some(MetricKind::Histogram));
        assert!(!catalog_matches("bmc.unroll.3.extra.solve_ns"));
        assert!(!catalog_matches("bmc.unroll.solve_ns"));
        assert!(!catalog_matches("made.up.metric"));
    }

    #[test]
    fn labels_are_stripped_before_matching() {
        assert_eq!(strip_labels("budget.spent{engine=sat}"), "budget.spent");
        assert!(catalog_matches("budget.spent{engine=sat}"));
        assert!(catalog_matches("budget.spent{engine=fault}"));
        assert!(!catalog_matches("budget.unknown{engine=sat}"));
    }

    #[test]
    fn catalog_patterns_are_well_formed() {
        for (_, pat) in METRIC_CATALOG {
            assert!(!pat.is_empty());
            assert!(!pat.contains('{'), "patterns carry no labels: {pat}");
            assert!(
                pat.split('.').all(|s| !s.is_empty()),
                "empty segment in {pat}"
            );
        }
    }
}
