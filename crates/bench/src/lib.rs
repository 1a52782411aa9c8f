//! Shared harness for regenerating the paper's evaluation (Table I and
//! the figures) over the embedded ITC'02 suite.
//!
//! The binary `table1` prints the full table (and with `--json` a
//! machine-readable run report per row). The functions here run one SoC
//! through the complete flow: SIB-RSN generation → fault-tolerance metric
//! of the original → synthesis → metric of the fault-tolerant RSN → area
//! accounting.

use std::time::{Duration, Instant};

use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_fault::{analyze_parallel_budgeted, FaultToleranceReport, HardeningProfile, WeightModel};
use rsn_itc02::{by_name, TableTargets};
use rsn_sib::generate;
use rsn_synth::area::{costs, AreaModel, Overhead};
use rsn_synth::{synthesize, SynthesisOptions, SynthesisResult};

/// One evaluated row of Table I: characteristics, accessibility of the
/// original and fault-tolerant RSN, and overhead ratios.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Module count of the SoC.
    pub modules: usize,
    /// Hierarchy levels of the RSN.
    pub levels: usize,
    /// Multiplexers in the original RSN.
    pub mux: usize,
    /// Segments in the original RSN.
    pub segments: usize,
    /// Scan bits in the original RSN.
    pub bits: u64,
    /// Metric of the original SIB-RSN.
    pub sib: FaultToleranceReport,
    /// Metric of the fault-tolerant RSN.
    pub ft: FaultToleranceReport,
    /// Overhead ratios FT/original.
    pub overhead: Overhead,
    /// Wall-clock time of the synthesis step.
    pub synthesis_time: Duration,
    /// Wall-clock time of both metric evaluations.
    pub metric_time: Duration,
    /// Paper reference values.
    pub paper: &'static TableTargets,
    /// Synthesis diagnostics.
    pub synthesis: SynthesisResult,
    /// `true` if a row budget expired before either metric sweep covered
    /// its full fault universe: the accessibility columns are partial.
    pub timed_out: bool,
}

/// Runs the full pipeline for one embedded benchmark with explicit
/// synthesis options and fault-class weight model (experiment
/// T1-weights: sensitivity of the averages to cell- vs port-level
/// weighting), bounded by a per-row [`Budget`] shared by both metric
/// sweeps.
///
/// Degradation is fail-soft: a starved metric sweep keeps its evaluated
/// prefix and sets [`Row::timed_out`].
///
/// # Panics
///
/// Panics if `name` is not one of the embedded benchmarks or any pipeline
/// stage fails (the embedded suite is expected to succeed end to end);
/// budget exhaustion never panics.
pub fn evaluate_budgeted(
    name: &str,
    opts: &SynthesisOptions,
    model: WeightModel,
    budget: &Budget,
) -> Row {
    let pipeline = rsn_obs::Span::enter("pipeline");
    let soc = by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let paper = rsn_itc02::table_targets(name).expect("paper row exists");
    let rsn = rsn_obs::timed("generate", || {
        generate(&soc).expect("SIB generation succeeds on embedded suite")
    });

    let t0 = Instant::now();
    let sib = {
        let _s = pipeline.child("metric_sib");
        analyze_parallel_budgeted(&rsn, HardeningProfile::unhardened(), model, budget)
    };
    let synth_t0 = Instant::now();
    let synthesis = rsn_obs::timed("synth", || {
        synthesize(&rsn, opts).expect("synthesis succeeds")
    });
    let synthesis_time = synth_t0.elapsed();
    let ft = {
        let _s = pipeline.child("metric_ft");
        analyze_parallel_budgeted(&synthesis.rsn, HardeningProfile::hardened(), model, budget)
    };
    let metric_time = t0.elapsed() - synthesis_time;

    let model = AreaModel::default();
    let overhead = rsn_obs::timed("area", || {
        Overhead::between(&costs(&rsn, &model), &costs(&synthesis.rsn, &model))
    });

    let timed_out = sib.skipped > 0 || ft.skipped > 0;
    Row {
        name: name.to_string(),
        modules: soc.modules.len(),
        levels: soc.depth() + 1,
        mux: rsn.muxes().count(),
        segments: rsn.segments().count(),
        bits: rsn.total_bits(),
        sib,
        ft,
        overhead,
        synthesis_time,
        metric_time,
        paper,
        synthesis,
        timed_out,
    }
}

/// Cross-validates fault-free accessibility of the first `max_targets`
/// segments against the bounded model checker, recording
/// `bench.bmc_checked` / `bench.bmc_mismatches` counters. This is the
/// stage that exercises the SAT solver in a default `table1` run (the
/// structural engine alone never builds a CNF).
///
/// Returns `(checked, mismatches)`. Skipped (returns `(0, 0)`) when the
/// network exceeds `max_nodes` — the CSU unrolling grows quadratically —
/// or has secondary scan ports (not modeled by the BMC). An
/// [`rsn_bmc::Verdict::Unknown`] verdict stops the sweep (remaining
/// targets are neither checked nor counted), so a spot check on an
/// already expired row budget costs one solver entry check and nothing
/// more.
pub fn bmc_spot_check_under(
    rsn: &Rsn,
    steps: usize,
    max_nodes: usize,
    max_targets: usize,
    budget: &Budget,
) -> (u64, u64) {
    if rsn.node_count() > max_nodes
        || rsn.secondary_scan_in().is_some()
        || rsn.secondary_scan_out().is_some()
    {
        return (0, 0);
    }
    let _span = rsn_obs::Span::enter("bmc_spot_check");
    let mut checker = rsn_bmc::BmcChecker::new(rsn, steps);
    let mut checked = 0u64;
    let mut mismatches = 0u64;
    for seg in rsn.segments().take(max_targets) {
        let bmc = match checker.accessible_under(seg, budget) {
            rsn_bmc::Verdict::Unknown { .. } => break,
            verdict => verdict.is_accessible(),
        };
        let structural = rsn.is_accessible(seg);
        checked += 1;
        if bmc != structural {
            mismatches += 1;
            rsn_obs::warn!(
                "bmc/structural disagreement on {}: bmc {bmc} structural {structural}",
                rsn.node(seg).name()
            );
        }
    }
    rsn_obs::counter_add("bench.bmc_checked", checked);
    rsn_obs::counter_add("bench.bmc_mismatches", mismatches);
    (checked, mismatches)
}

/// The 13 benchmark names in Table I order.
pub const BENCHMARKS: [&str; 13] = [
    "u226", "d281", "d695", "h953", "g1023", "x1331", "f2126", "q12710", "t512505", "a586710",
    "p22081", "p34392", "p93791",
];

/// One serial-vs-portfolio measurement of a single SAT-backed workload
/// (one row of `BENCH_sat.json`).
///
/// The timed region is the solve alone — CNF construction is identical
/// on both sides and would only dilute the ratio. `agreement` is the
/// soundness anchor: a speedup that changes the verdict is a bug, not a
/// win.
#[derive(Debug, Clone)]
pub struct SatBenchRow {
    /// Benchmark name.
    pub name: String,
    /// Workload family: `miter-equivalent` or `miter-distinct`.
    pub family: &'static str,
    /// Human-readable description of the concrete instance.
    pub instance: String,
    /// Worker count of the parallel side (the serial side is always 1).
    pub threads: usize,
    /// Wall-clock seconds of the serial solve.
    pub serial_seconds: f64,
    /// Conflicts spent by the serial solve.
    pub serial_conflicts: u64,
    /// Wall-clock seconds of the portfolio solve.
    pub parallel_seconds: f64,
    /// Conflicts spent by the portfolio solve (all workers).
    pub parallel_conflicts: u64,
    /// Seconds of the portfolio solve spent in bounded variable
    /// elimination (its `sat_eliminate` spans).
    pub parallel_eliminate_seconds: f64,
    /// Seconds of the portfolio solve spent in the race, or in the
    /// serial loop that ends a race of width 1 (its `sat_race` spans).
    pub parallel_race_seconds: f64,
    /// Both sides reached the same verdict.
    pub agreement: bool,
    /// `serial_seconds / parallel_seconds`.
    pub speedup: f64,
}

/// What one timed SAT workload cost.
#[derive(Debug, Clone, Copy)]
struct SatCost {
    /// Wall-clock seconds.
    seconds: f64,
    /// The `sat.conflicts` delta.
    conflicts: u64,
    /// Seconds spent in `sat_eliminate` spans.
    eliminate_seconds: f64,
    /// Seconds spent in `sat_race` spans.
    race_seconds: f64,
}

/// Seconds recorded so far in the spans named `step` (the last path
/// component), wherever they nest.
fn step_seconds(step: &str) -> f64 {
    rsn_obs::span_snapshot()
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(step))
        .map(|(_, stat)| stat.total_ns as f64 / 1e9)
        .sum()
}

/// Runs `f` and returns its result plus what it cost.
fn timed_sat<T>(f: impl FnOnce() -> T) -> (T, SatCost) {
    let before = rsn_obs::counter_get("sat.conflicts");
    let (elim0, race0) = (step_seconds("sat_eliminate"), step_seconds("sat_race"));
    let t0 = Instant::now();
    let out = f();
    let seconds = t0.elapsed().as_secs_f64();
    let cost = SatCost {
        seconds,
        conflicts: rsn_obs::counter_get("sat.conflicts") - before,
        eliminate_seconds: step_seconds("sat_eliminate") - elim0,
        race_seconds: step_seconds("sat_race") - race0,
    };
    (out, cost)
}

fn sat_row(
    name: &str,
    family: &'static str,
    instance: String,
    threads: usize,
    serial: SatCost,
    parallel: SatCost,
    agreement: bool,
) -> SatBenchRow {
    SatBenchRow {
        name: name.to_string(),
        family,
        instance,
        threads,
        serial_seconds: serial.seconds,
        serial_conflicts: serial.conflicts,
        parallel_seconds: parallel.seconds,
        parallel_conflicts: parallel.conflicts,
        parallel_eliminate_seconds: parallel.eliminate_seconds,
        parallel_race_seconds: parallel.race_seconds,
        agreement,
        speedup: serial.seconds / parallel.seconds.max(1e-9),
    }
}

/// Conflicts a same-class pair may survive in the hardest-pair probe
/// before it is declared search-hard.
const MITER_PROBE_QUOTA: u64 = 2_000;

/// Same-class pairs examined by the hardest-pair probe.
const MITER_PROBE_PAIRS: usize = 6;

/// Picks the hardest test-equivalence query of the benchmark: the first
/// same-class fault pair (two faults the structural collapser proved
/// equivalent) whose work-limited serial miter solve fails to finish
/// within [`MITER_PROBE_QUOTA`] conflicts — or, if every probe
/// finishes, the one that spent the most conflicts. Same-class pairs
/// are the search-hard family: the solver must re-derive the structural
/// equivalence from the unrolled transition relation.
fn hardest_equivalent_pair(
    rsn: &Rsn,
    steps: usize,
    faults: &[rsn_fault::Fault],
    classes: &rsn_fault::FaultClasses,
    profile: HardeningProfile,
) -> Option<(rsn_fault::FaultEffect, rsn_fault::FaultEffect, String)> {
    let mut best: Option<(u64, usize, usize)> = None;
    for class in classes
        .classes()
        .iter()
        .filter(|c| c.members.len() >= 2)
        .take(MITER_PROBE_PAIRS)
    {
        let (i, j) = (class.members[0] as usize, class.members[1] as usize);
        let a = rsn_fault::effect_of(rsn, &faults[i], profile);
        let b = rsn_fault::effect_of(rsn, &faults[j], profile);
        let mut miter = rsn_bmc::FaultDistinguisher::new(rsn, steps, &a, &b);
        let probe = Budget::unlimited().with_work_limit(MITER_PROBE_QUOTA);
        let (verdict, cost) = timed_sat(|| miter.distinguishable_under(&probe));
        let survived = matches!(verdict, rsn_bmc::Distinguishability::Unknown { .. });
        if survived {
            return Some((a, b, format!("fault pair ({i}, {j}), {steps} steps")));
        }
        if best.is_none_or(|(c, _, _)| cost.conflicts > c) {
            best = Some((cost.conflicts, i, j));
        }
    }
    let (_, i, j) = best?;
    Some((
        rsn_fault::effect_of(rsn, &faults[i], profile),
        rsn_fault::effect_of(rsn, &faults[j], profile),
        format!("fault pair ({i}, {j}), {steps} steps"),
    ))
}

/// Measures the SAT engine serial vs portfolio on one embedded
/// benchmark's fault-distinguishability miters, the only queries that
/// reach the portfolio: the hardest same-class pair (UNSAT,
/// search-hard) and the first cross-class pair (SAT). Sets the
/// `sat.parallel_speedup` gauge to the hard row's ratio.
///
/// # Panics
///
/// Panics if `name` is not one of the embedded benchmarks.
pub fn bench_sat(name: &str, threads: usize) -> Vec<SatBenchRow> {
    let _span = rsn_obs::Span::enter("bench_sat");
    let soc = by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let rsn = generate(&soc).expect("SIB generation succeeds on embedded suite");
    let steps = soc.depth() + 1;
    let mut rows = Vec::new();

    // Each timed solve gets a freshly built miter so learnt clauses
    // cannot leak from the serial side into the portfolio side (or vice
    // versa).
    let profile = HardeningProfile::unhardened();
    let faults = rsn_fault::fault_universe(&rsn);
    let classes = rsn_fault::FaultClasses::build(&rsn, &faults, profile);
    let miter_row = |family: &'static str,
                     a: &rsn_fault::FaultEffect,
                     b: &rsn_fault::FaultEffect,
                     instance: String| {
        let solve = |n: usize| {
            let mut miter = rsn_bmc::FaultDistinguisher::new(&rsn, steps, a, b);
            miter.set_threads(n);
            timed_sat(move || miter.distinguishable_under(&Budget::unlimited()))
        };
        let (serial_verdict, serial) = solve(1);
        let (parallel_verdict, parallel) = solve(threads);
        sat_row(
            name,
            family,
            instance,
            threads,
            serial,
            parallel,
            serial_verdict == parallel_verdict,
        )
    };
    if let Some((a, b, instance)) = hardest_equivalent_pair(&rsn, steps, &faults, &classes, profile)
    {
        let row = miter_row("miter-equivalent", &a, &b, instance);
        rsn_obs::gauge_set("sat.parallel_speedup", row.speedup);
        rows.push(row);
    }
    let mut reps = classes.classes().iter().map(|c| c.members[0] as usize);
    if let (Some(i), Some(j)) = (reps.next(), reps.next()) {
        let a = rsn_fault::effect_of(&rsn, &faults[i], profile);
        let b = rsn_fault::effect_of(&rsn, &faults[j], profile);
        rows.push(miter_row(
            "miter-distinct",
            &a,
            &b,
            format!("fault pair ({i}, {j}), {steps} steps"),
        ));
    }
    rows
}

/// Formats a row in the layout of the paper's Table I (measured values).
pub fn format_row(row: &Row) -> String {
    format!(
        "{:<8} {:>3} {:>2} {:>4} {:>5} {:>6} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>5.2} {:>6.3} {:>6.3} {:>6.3} | {:>5.2} {:>5.2} {:>5.2} {:>5.2}",
        row.name,
        row.modules,
        row.levels,
        row.mux,
        row.segments,
        row.bits,
        row.sib.worst_bits,
        row.sib.avg_bits,
        row.sib.worst_segments,
        row.sib.avg_segments,
        row.ft.worst_bits,
        row.ft.avg_bits,
        row.ft.worst_segments,
        row.ft.avg_segments,
        row.overhead.mux_ratio,
        row.overhead.bits_ratio,
        row.overhead.nets_ratio,
        row.overhead.area_ratio,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_small_benchmark_end_to_end() {
        let row = evaluate_budgeted(
            "q12710",
            &SynthesisOptions::new(),
            WeightModel::Ports,
            &Budget::unlimited(),
        );
        assert_eq!(row.mux, 25);
        assert_eq!(row.segments, 46);
        // Paper shape: SIB worst is total disconnection, FT much better.
        assert_eq!(row.sib.worst_segments, 0.0);
        assert!(row.ft.worst_segments > 0.9, "{}", row.ft.worst_segments);
        assert!(row.ft.avg_segments > row.sib.avg_segments);
        assert!(row.overhead.mux_ratio > 1.5);
    }

    #[test]
    fn format_row_contains_name() {
        let row = evaluate_budgeted(
            "q12710",
            &SynthesisOptions::new(),
            WeightModel::Ports,
            &Budget::unlimited(),
        );
        let s = format_row(&row);
        assert!(s.starts_with("q12710"));
    }

    #[test]
    fn exhausted_row_budget_times_out_but_still_produces_a_row() {
        // A zero work budget starves both metric sweeps deterministically;
        // the row must still come back whole, marked rather than aborted.
        let budget = Budget::unlimited().with_work_limit(0);
        let row = evaluate_budgeted(
            "q12710",
            &SynthesisOptions::new(),
            WeightModel::Ports,
            &budget,
        );
        assert!(row.timed_out);
        assert!(row.sib.skipped > 0 && row.ft.skipped > 0);
        assert_eq!(row.segments, 46, "characteristics survive starvation");
        assert!(row.overhead.mux_ratio > 1.0, "synthesis still ran");
    }

    #[test]
    fn unlimited_budget_row_matches_unbudgeted() {
        let budgeted = evaluate_budgeted(
            "q12710",
            &SynthesisOptions::new(),
            WeightModel::Ports,
            &Budget::unlimited(),
        );
        assert!(!budgeted.timed_out);
        // Each stage of the row equals the unbudgeted engine it wraps.
        let rsn = generate(&by_name("q12710").expect("embedded")).expect("generate");
        let synthesis = rsn_synth::synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        assert_eq!(
            budgeted.sib,
            rsn_fault::analyze(&rsn, HardeningProfile::unhardened())
        );
        assert_eq!(
            budgeted.ft,
            rsn_fault::analyze(&synthesis.rsn, HardeningProfile::hardened())
        );
        assert_eq!(budgeted.synthesis.report, synthesis.report);
    }
}
