//! The metric-name catalog test: after an end-to-end small-SoC run that
//! exercises every engine, every name in the global registry must match
//! an entry of `rsn_obs::METRIC_CATALOG` (and carry the catalogued
//! kind). This is what keeps the README/DESIGN telemetry tables honest —
//! a new or renamed metric fails here until the catalog (and docs) are
//! updated with it.
//!
//! Kept as a single test in its own binary so the process-global
//! registry sees exactly this pipeline.

use rsn_budget::Budget;
use rsn_fault::WeightModel;
use rsn_obs::{catalog_lookup, MetricKind};
use rsn_synth::{augment_ilp_under, AugmentOptions, Dataflow, SynthesisOptions};

#[test]
fn every_emitted_metric_is_catalogued() {
    rsn_obs::reset();

    // The same probes as a `table1 --json`/`--trace` row on u226: the
    // full pipeline (synthesis, both fault sweeps, area) and the BMC spot
    // check (SAT); plus the exact ILP that `table1 --ablation` runs.
    let row = bench::evaluate_budgeted(
        "u226",
        &SynthesisOptions::new(),
        WeightModel::Ports,
        &Budget::unlimited(),
    );
    assert!(row.ft.fault_count > 0);
    let soc = rsn_itc02::by_name("u226").expect("embedded");
    let rsn = rsn_sib::generate(&soc).expect("generate");
    let (checked, _) =
        bench::bmc_spot_check_under(&rsn, row.levels + 2, 150, 4, &Budget::unlimited());
    assert!(checked > 0, "BMC spot check must run");
    let small =
        rsn_sib::generate(&rsn_itc02::by_name("q12710").expect("embedded")).expect("generate");
    let df = Dataflow::extract(&small);
    augment_ilp_under(&df, &AugmentOptions::default(), &Budget::unlimited()).expect("ilp solves");
    // A budget-starved verify exercises the lint + trip paths.
    let starved = Budget::unlimited().with_work_limit(0);
    let _ = rsn_verify::verify_on(
        &rsn,
        &rsn_verify::NetworkSat::build(&rsn),
        rsn_verify::VerifyOptions::default(),
        &starved,
    );
    // An explained verify of a failing network exercises the root-cause
    // engine (verify.core_size / verify.explain_ns / verify.cone_nodes).
    let failing = {
        use rsn_core::{ControlExpr, RsnBuilder};
        let mut b = RsnBuilder::new("metric-catalog-failing");
        let i = b.add_inputs(1);
        let a = b.add_segment("a", 2);
        let c = b.add_segment("c", 2);
        let m = b.add_mux("m", vec![a, c], vec![ControlExpr::input(i)]);
        b.connect(b.scan_in(), a);
        b.connect(b.scan_in(), c);
        b.connect(m, b.scan_out());
        b.set_select(a, ControlExpr::Const(true));
        b.set_select(c, ControlExpr::Const(true));
        b.finish().expect("valid network")
    };
    let sat = rsn_verify::NetworkSat::build(&failing);
    let unlimited = Budget::unlimited();
    let mut report = rsn_verify::verify_on(
        &failing,
        &sat,
        rsn_verify::VerifyOptions::default(),
        &unlimited,
    );
    assert!(report.error_count() > 0, "fixture must fail verification");
    rsn_verify::explain_report(&failing, &sat, &mut report, &unlimited);

    let snapshot = rsn_obs::metrics_snapshot();
    let mut unknown = Vec::new();
    for (name, kind) in snapshot
        .counters
        .keys()
        .map(|n| (n, MetricKind::Counter))
        .chain(snapshot.gauges.keys().map(|n| (n, MetricKind::Gauge)))
        .chain(
            snapshot
                .histograms
                .keys()
                .map(|n| (n, MetricKind::Histogram)),
        )
    {
        match catalog_lookup(name) {
            Some(k) if k == kind => {}
            Some(k) => unknown.push(format!("{name}: emitted as {kind:?}, catalogued as {k:?}")),
            None => unknown.push(format!("{name}: not in METRIC_CATALOG")),
        }
    }
    assert!(
        unknown.is_empty(),
        "metrics drifted from the catalog (update rsn-obs::METRIC_CATALOG \
         and the README/DESIGN tables together):\n{}",
        unknown.join("\n")
    );

    // The run must actually have exercised every engine family — an
    // empty registry would pass the loop above vacuously.
    for required in [
        "sat.solves",
        "ilp.solves",
        "bmc.queries",
        "fault.faults_simulated",
        "synth.runs",
        "lint.runs",
        "budget.spent{engine=sat}",
        "budget.spent{engine=ilp}",
        "budget.spent{engine=fault}",
    ] {
        assert!(
            snapshot.counters.contains_key(required),
            "expected counter {required} after the end-to-end run"
        );
    }
    for hist in [
        "sat.solve_ns",
        "ilp.node_ns",
        "fault.class_eval_ns",
        "fault.warm_rounds",
        "verify.core_size",
        "verify.explain_ns",
        "verify.cone_nodes",
    ] {
        assert!(
            snapshot.histograms.get(hist).is_some_and(|h| !h.is_empty()),
            "expected non-empty histogram {hist}"
        );
    }
    // The starved verify must have tripped and recorded a backtrace.
    let trips = rsn_obs::budget_trips();
    assert!(
        trips.iter().any(|t| t.engine == "verify"),
        "starved verify should record a budget trip, got {trips:?}"
    );

    rsn_obs::reset();
    assert!(rsn_obs::metrics_snapshot().is_empty());
    assert!(rsn_obs::budget_trips().is_empty());
}
