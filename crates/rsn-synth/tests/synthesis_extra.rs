//! Additional synthesis coverage: hardening structure, option variations,
//! and end-to-end invariants over the embedded suite.

use rsn_core::ControlExpr;
use rsn_fault::{analyze, HardeningProfile};
use rsn_itc02::by_name;
use rsn_sib::generate;
use rsn_synth::area::{costs, AreaModel, Overhead};
use rsn_synth::select::derive_selects;
use rsn_synth::{synthesize, Dataflow, SynthesisOptions};

#[test]
fn synthesized_selects_have_multiple_stems() {
    // With the augmented out-degree ≥ 2, derived selects of the original
    // segments are disjunctions over at least two fan-out stems.
    let rsn = rsn_core::examples::fig2();
    let mut opts = SynthesisOptions::new();
    opts.secondary_ports = false;
    let ft = synthesize(&rsn, &opts).expect("synthesize");
    let selects = derive_selects(&ft.rsn);
    for name in ["A", "B", "C"] {
        let seg = ft.rsn.find(name).expect("preserved");
        let stems = ft.rsn.successors(seg).len();
        assert!(stems >= 2, "{name}: only {stems} fan-out stems");
        // The derived expression is a disjunction (or collapses to a
        // constant for always-selected segments).
        match &selects[&seg] {
            ControlExpr::Or(es) => assert!(es.len() >= 2, "{name}"),
            ControlExpr::Const(true) => {}
            other => {
                // Single-stem select would be a hardening violation.
                let printed = format!("{other}");
                assert!(
                    printed.contains('∨'),
                    "{name}: select lacks redundancy: {printed}"
                );
            }
        }
    }
}

#[test]
fn solver_choices_give_equivalent_quality() {
    let soc = by_name("x1331").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let greedy = synthesize(&rsn, &SynthesisOptions::new()).expect("greedy");
    let report = analyze(&greedy.rsn, HardeningProfile::hardened());
    // The greedy result achieves the headline property on its own.
    let total = greedy.rsn.segments().count() as f64;
    assert!(report.worst_segments >= (total - 1.0) / total - 1e-9);
}

#[test]
fn no_secondary_ports_costs_port_resilience_only() {
    let soc = by_name("q12710").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let mut opts = SynthesisOptions::new();
    opts.secondary_ports = false;
    let ft = synthesize(&rsn, &opts).expect("synthesize");
    let report = analyze(&ft.rsn, HardeningProfile::hardened());
    // Port faults now disconnect everything: worst case collapses...
    assert_eq!(report.worst_segments, 0.0);
    // ...but the average barely moves (only 4 port faults exist).
    assert!(report.avg_segments > 0.98, "{report}");
    assert!(ft.rsn.secondary_scan_in().is_none());
}

#[test]
fn alpha_zero_and_one_both_synthesize_correctly() {
    let soc = by_name("x1331").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    for alpha in [0.0, 1.0] {
        let mut opts = SynthesisOptions::new();
        opts.augment.alpha = alpha;
        let ft = synthesize(&rsn, &opts).expect("synthesize");
        let report = analyze(&ft.rsn, HardeningProfile::hardened());
        assert!(report.worst_segments > 0.9, "alpha {alpha}: {report}");
    }
}

#[test]
fn area_model_weights_scale_area_linearly() {
    let rsn = rsn_core::examples::chain(4, 8);
    let base = AreaModel::default();
    let doubled = AreaModel {
        ge_shift_ff: base.ge_shift_ff * 2.0,
        ge_shadow_ff: base.ge_shadow_ff * 2.0,
        ge_mux2: base.ge_mux2 * 2.0,
        ge_voter: base.ge_voter * 2.0,
        ge_gate: base.ge_gate * 2.0,
    };
    let a = costs(&rsn, &base);
    let b = costs(&rsn, &doubled);
    assert!((b.area_ge - 2.0 * a.area_ge).abs() < 1e-9);
    // Ratios are invariant under uniform scaling.
    let o1 = Overhead::between(&a, &a);
    assert!((o1.area_ratio - 1.0).abs() < 1e-12);
}

#[test]
fn ft_dataflow_has_expanded_connectivity() {
    let soc = by_name("h953").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
    let orig_df = Dataflow::extract(&rsn);
    let ft_df = Dataflow::extract(&ft.rsn);
    assert!(ft_df.graph.edge_count() > orig_df.graph.edge_count());
    // Same segment vertices plus the two secondary ports.
    assert_eq!(ft_df.len(), orig_df.len() + 2);
}

#[test]
fn repeated_synthesis_is_idempotent_in_structure() {
    // Synthesizing an already fault-tolerant network must still succeed
    // and keep the worst case at "all but one" (idempotence of the
    // property, not of the netlist).
    let soc = by_name("q12710").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let once = synthesize(&rsn, &SynthesisOptions::new()).expect("first");
    let mut opts = SynthesisOptions::new();
    opts.secondary_ports = false; // port muxes would nest otherwise
    let twice = synthesize(&once.rsn, &opts).expect("second");
    let report = analyze(&twice.rsn, HardeningProfile::hardened());
    assert!(report.avg_segments > 0.98, "{report}");
}

#[test]
fn synthesis_report_counts_are_consistent() {
    let soc = by_name("f2126").expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
    let added_mux_actual = ft.rsn.muxes().count() - rsn.muxes().count();
    assert_eq!(ft.report.added_muxes, added_mux_actual);
    let added_bits_actual = ft.rsn.total_bits() - rsn.total_bits();
    assert_eq!(ft.report.added_bits, added_bits_actual);
    assert_eq!(ft.report.added_edges, ft.augmentation.added.len());
}
