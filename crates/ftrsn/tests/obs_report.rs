//! Golden observability test: a small fixed pipeline run must produce a
//! RunReport whose JSON parses and contains the key solver and synthesis
//! telemetry. Kept as a single test in its own binary so the process-global
//! registry sees exactly this pipeline.

use ftrsn::bmc::{BmcChecker, Verdict};
use ftrsn::budget::Budget;
use ftrsn::core::examples::fig2;
use ftrsn::fault::{analyze, HardeningProfile};
use ftrsn::obs::{self, json, RunReport};
use ftrsn::synth::{augment_ilp_under, synthesize, AugmentOptions, Dataflow, SynthesisOptions};

#[test]
fn fixed_pipeline_report_contains_solver_and_phase_telemetry() {
    obs::reset();

    // A small fixed pipeline: synthesis of fig2, the exact ILP on its
    // dataflow, a BMC probe of every segment, and the fault-tolerance
    // metric of the original.
    let rsn = fig2();
    synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
    augment_ilp_under(
        &Dataflow::extract(&rsn),
        &AugmentOptions::default(),
        &Budget::unlimited(),
    )
    .expect("ilp solves");

    let mut checker = BmcChecker::new(&rsn, 2);
    for seg in rsn.segments() {
        assert_eq!(
            checker.accessible_under(seg, &Budget::unlimited()),
            Verdict::Accessible,
            "{}",
            rsn.node(seg).name()
        );
    }
    let metric = analyze(&rsn, HardeningProfile::unhardened());
    assert!(metric.fault_count > 0);

    let report = RunReport::capture("golden");
    let text = report.to_json_pretty();
    let parsed = json::parse(&text).expect("report JSON parses");

    assert_eq!(
        parsed.get_path("name").and_then(|v| v.as_str()),
        Some("golden")
    );

    // SAT statistics from the BMC queries. All keys exist; the query
    // volume is non-zero.
    for key in [
        "sat.conflicts",
        "sat.decisions",
        "sat.propagations",
        "sat.solves",
    ] {
        assert!(
            parsed.get_path(&format!("counters/{key}")).is_some(),
            "missing counter {key} in {text}"
        );
    }
    let solves = parsed
        .get_path("counters/sat.solves")
        .and_then(|v| v.as_f64());
    assert!(solves.unwrap_or(0.0) >= 4.0, "BMC probed all fig2 segments");
    assert!(
        parsed
            .get_path("counters/sat.decisions")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            > 0.0,
        "satisfiable probes must decide something"
    );

    // ILP branch & bound telemetry from the exact augmentation.
    let nodes = parsed
        .get_path("counters/ilp.nodes")
        .and_then(|v| v.as_f64());
    assert!(
        nodes.unwrap_or(0.0) >= 1.0,
        "ilp.nodes missing or zero in {text}"
    );
    assert!(
        parsed
            .get_path("counters/ilp.simplex_iters")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            >= 1.0
    );
    assert!(parsed.get_path("counters/ilp.cut_rounds").is_some());

    // Per-phase synthesis timings.
    let gauges = parsed.get_path("gauges").expect("gauges object");
    for phase in ["dataflow", "augment", "build", "harden", "select"] {
        let key = format!("synth.phases.{phase}_ms");
        assert!(
            gauges.get(&key).and_then(|v| v.as_f64()).is_some(),
            "missing gauge {key} in {text}"
        );
    }

    // Histogram percentiles from the SAT and ILP calls above.
    for hist in [
        "sat.solve_ns",
        "sat.solve_conflicts",
        "ilp.node_ns",
        "ilp.solve_ns",
    ] {
        for field in ["count", "p50", "p90", "p99", "min", "max", "mean"] {
            assert!(
                parsed
                    .get_path(&format!("histograms/{hist}/{field}"))
                    .and_then(|v| v.as_f64())
                    .is_some(),
                "missing histograms/{hist}/{field} in {text}"
            );
        }
        let count = parsed
            .get_path(&format!("histograms/{hist}/count"))
            .and_then(|v| v.as_f64());
        assert!(count.unwrap_or(0.0) >= 1.0, "{hist} recorded nothing");
    }

    // Per-engine budget attribution; nothing tripped under the
    // unlimited budgets of this pipeline.
    for engine in ["sat", "ilp", "fault"] {
        assert!(
            parsed
                .get_path(&format!("counters/budget.spent{{engine={engine}}}"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
                >= 1.0,
            "missing budget attribution for {engine} in {text}"
        );
    }
    let trips = parsed
        .get_path("budget_trips")
        .and_then(|v| v.as_arr())
        .expect("budget_trips array");
    assert!(trips.is_empty(), "unlimited budgets cannot trip");

    // Fault-simulation counters and the span tree.
    assert!(
        parsed
            .get_path("counters/fault.faults_simulated")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            > 0.0
    );
    let spans = parsed.get_path("spans").expect("spans object");
    for path in ["synthesize", "synthesize/augment", "analyze"] {
        assert!(spans.get(path).is_some(), "missing span {path} in {text}");
    }

    // A second capture after reset is empty.
    obs::reset();
    let fresh = RunReport::capture("fresh");
    assert!(fresh.registry.is_empty());
    assert!(fresh.spans.is_empty());
}
