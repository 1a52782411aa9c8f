//! Fault collapsing is exact on the paper's networks: the collapsed
//! sweep and the uncollapsed reference (one singleton class per fault)
//! agree in every aggregate and in the worst-fault witness, on the SIB
//! networks and on their synthesized fault-tolerant counterparts.

use ftrsn::budget::Budget;
use ftrsn::core::Rsn;
use ftrsn::fault::{
    analyze_classes_on_budget, fault_universe, AccessEngine, FaultClasses, HardeningProfile,
};
use ftrsn::itc02::by_name;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SynthesisOptions};

/// Sweeps `rsn` collapsed and uncollapsed and checks they agree.
fn assert_collapse_exact(label: &str, rsn: &Rsn, profile: HardeningProfile) {
    let faults = fault_universe(rsn);
    let engine = AccessEngine::new(rsn);
    let budget = Budget::unlimited();
    let classes = FaultClasses::build(rsn, &faults, profile);
    let singletons = FaultClasses::uncollapsed(rsn, &faults, profile);
    let collapsed = analyze_classes_on_budget(&engine, &faults, &classes, 2, &budget);
    let reference = analyze_classes_on_budget(&engine, &faults, &singletons, 2, &budget);

    assert!(
        collapsed.classes < reference.classes,
        "{label}: collapsing merged nothing"
    );
    assert!(reference.is_complete(), "{label}");
    // Only the class bookkeeping may differ. The f64 aggregates compare
    // exactly: members are expanded in fault order, so the summation
    // order is the reference's.
    let expected = ftrsn::fault::FaultToleranceReport {
        classes: collapsed.classes,
        collapse_ratio: collapsed.collapse_ratio,
        ..reference
    };
    assert_eq!(collapsed, expected, "{label}");
}

#[test]
fn collapsed_sweep_equals_uncollapsed_on_sib_and_ft_networks() {
    for name in ["u226", "d695", "q12710"] {
        let soc = by_name(name).expect("embedded");
        let sib = generate(&soc).expect("generate");
        assert_collapse_exact(&format!("{name} SIB"), &sib, HardeningProfile::unhardened());
        let ft = synthesize(&sib, &SynthesisOptions::new())
            .expect("synthesize")
            .rsn;
        assert_collapse_exact(&format!("{name} FT"), &ft, HardeningProfile::hardened());
    }
}
