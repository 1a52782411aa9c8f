//! End-to-end integration tests: SoC description → SIB-RSN →
//! fault-tolerant synthesis → metric and area, with golden expectations
//! derived from the paper's Table I shape.

use ftrsn::fault::{analyze, HardeningProfile};
use ftrsn::itc02::{by_name, table_targets, TABLE1};
use ftrsn::sib::generate;
use ftrsn::synth::area::{costs, AreaModel, Overhead};
use ftrsn::synth::{synthesize, SynthesisOptions};

/// The small half of the suite, kept fast enough for CI.
const SMALL: [&str; 6] = ["u226", "d281", "h953", "x1331", "f2126", "q12710"];

#[test]
fn characteristics_match_table1_for_whole_suite() {
    for t in TABLE1 {
        let soc = by_name(t.name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        assert_eq!(rsn.muxes().count(), t.mux, "{}", t.name);
        assert_eq!(rsn.segments().count(), t.segments, "{}", t.name);
        assert_eq!(rsn.total_bits(), t.bits, "{}", t.name);
    }
}

#[test]
fn sib_rsn_worst_case_is_total_disconnection() {
    // Table I: the worst-case accessibility of every SIB-RSN is 0.00.
    for name in SMALL {
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let report = analyze(&rsn, HardeningProfile::unhardened());
        assert_eq!(report.worst_segments, 0.0, "{name}");
        assert_eq!(report.worst_bits, 0.0, "{name}");
        // Average in a plausible band around the paper's 0.66–0.93.
        assert!(
            report.avg_segments > 0.6 && report.avg_segments < 0.99,
            "{name}: avg {}",
            report.avg_segments
        );
    }
}

#[test]
fn ft_rsn_recovers_worst_case_and_average() {
    for name in SMALL {
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let report = analyze(&result.rsn, HardeningProfile::hardened());
        // Paper: 95% – 99.9% of segments stay accessible for the worst
        // fault; over 99% on average.
        assert!(
            report.worst_segments > 0.9,
            "{name}: worst {}",
            report.worst_segments
        );
        assert!(
            report.avg_segments > 0.99,
            "{name}: avg {}",
            report.avg_segments
        );
        assert_eq!(result.report.repairs, 0, "{name}: Menger repairs");
    }
}

#[test]
fn overhead_ratios_have_paper_shape() {
    let model = AreaModel::default();
    let mut area_by_bits: Vec<(u64, f64)> = Vec::new();
    for name in SMALL {
        let t = table_targets(name).expect("row");
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let o = Overhead::between(&costs(&rsn, &model), &costs(&result.rsn, &model));
        // Mux ratio in the paper's order of magnitude (they report ≈3.5).
        assert!(
            o.mux_ratio > 2.0 && o.mux_ratio < 4.5,
            "{name}: mux {}",
            o.mux_ratio
        );
        // Bit and area overhead bounded and ≥ 1.
        assert!(
            o.bits_ratio >= 1.0 && o.bits_ratio < 1.6,
            "{name}: bits {}",
            o.bits_ratio
        );
        assert!(
            o.area_ratio >= 1.0 && o.area_ratio < 1.7,
            "{name}: area {}",
            o.area_ratio
        );
        area_by_bits.push((t.bits, o.area_ratio));
    }
    // Paper shape: area overhead shrinks as scan bits dominate.
    area_by_bits.sort_by_key(|&(bits, _)| bits);
    let smallest = area_by_bits.first().expect("nonempty").1;
    let largest = area_by_bits.last().expect("nonempty").1;
    assert!(
        smallest > largest,
        "area ratio must decrease with bits: {area_by_bits:?}"
    );
}

#[test]
fn synthesis_preserves_reset_path() {
    // The fault-tolerant network keeps the original reset scan path: the
    // routing bits reset to the original-edge selection.
    for name in ["u226", "q12710"] {
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let orig_path = rsn.trace_path(&rsn.reset_config()).expect("orig");
        let ft_path = result
            .rsn
            .trace_path(&result.rsn.reset_config())
            .expect("ft");
        let orig_names: Vec<String> = orig_path
            .segments(&rsn)
            .map(|s| rsn.node(s).name().to_string())
            .collect();
        let ft_names: Vec<String> = ft_path
            .segments(&result.rsn)
            .map(|s| result.rsn.node(s).name().to_string())
            .collect();
        assert_eq!(orig_names, ft_names, "{name}");
    }
}

#[test]
fn every_segment_remains_fault_free_accessible_after_synthesis() {
    // Fault-free accessibility must not regress: every segment of the FT
    // network is reachable by the structural engine with no fault.
    let soc = by_name("q12710").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
    let acc = ftrsn::fault::accessibility(&result.rsn, &ftrsn::fault::FaultEffect::benign());
    assert_eq!(acc.accessible_segments, acc.total_segments);
}

#[test]
fn every_segment_plannable_in_original_and_ft() {
    // Basis of the T1-latency experiment: the greedy planner reaches every
    // segment from reset in both networks.
    for name in ["u226", "x1331"] {
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        for network in [&rsn, &result.rsn] {
            let report = network.latency_report();
            let unplannable = report
                .per_segment
                .iter()
                .filter(|(_, c)| c.is_none())
                .count();
            assert_eq!(unplannable, 0, "{name}/{}", network.name());
        }
    }
}

#[test]
fn parallel_and_sequential_metric_agree() {
    let soc = by_name("x1331").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let profile = HardeningProfile::unhardened();
    // `analyze` runs on `RSN_THREADS` workers; the engine-level sweep
    // here on exactly one.
    let a = analyze(&rsn, profile);
    let faults = ftrsn::fault::fault_universe(&rsn);
    let classes = ftrsn::fault::FaultClasses::build(&rsn, &faults, profile);
    let engine = ftrsn::fault::AccessEngine::new(&rsn);
    let budget = ftrsn::budget::Budget::unlimited();
    let b = ftrsn::fault::analyze_classes_on_budget(&engine, &faults, &classes, 1, &budget);
    assert_eq!(a, b, "reports are bit-identical at any thread count");
}
