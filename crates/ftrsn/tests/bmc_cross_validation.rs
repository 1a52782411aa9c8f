//! Cross-validation of the fast structural accessibility engine against
//! the bounded-model-checking reference semantics (experiment V1 in
//! DESIGN.md): for small networks and the exhaustive fault universe, both
//! engines must agree on every (fault, segment) verdict, and the
//! fault-distinguishability miter must agree with the structural
//! accessible sets and fault classes.

use ftrsn::bmc::{bmc_accessibility, Distinguishability, FaultDistinguisher, Verdict};
use ftrsn::budget::Budget;
use ftrsn::core::examples::{chain, fig2, sib_tree};
use ftrsn::core::Rsn;
use ftrsn::fault::{
    accessibility, effect_of, fault_universe, FaultClasses, FaultEffect, HardeningProfile,
};
use ftrsn::itc02::parse_soc;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SynthesisOptions};

/// Exhaustively compares both engines over the full fault universe.
fn cross_validate(rsn: &Rsn, profile: HardeningProfile, steps: usize) {
    for fault in fault_universe(rsn) {
        let effect = effect_of(rsn, &fault, profile);
        let structural = accessibility(rsn, &effect);
        for (seg, bmc_ok) in bmc_accessibility(rsn, &effect, steps) {
            assert_eq!(
                structural.accessible[seg.index()],
                bmc_ok,
                "disagreement: network {}, fault {fault}, segment {}",
                rsn.name(),
                rsn.node(seg).name()
            );
        }
    }
}

#[test]
fn fig2_agrees() {
    cross_validate(&fig2(), HardeningProfile::unhardened(), 2);
}

#[test]
fn chain_agrees() {
    cross_validate(&chain(4, 2), HardeningProfile::unhardened(), 1);
}

#[test]
fn sib_tree_agrees() {
    cross_validate(&sib_tree(1, 2, 3), HardeningProfile::unhardened(), 3);
}

#[test]
fn small_soc_agrees() {
    let soc = parse_soc("SocName v\n1 0 0 0 2 : 3 2\n2 0 0 0 1 : 4\n").expect("parse");
    let rsn = generate(&soc).expect("generate");
    cross_validate(&rsn, HardeningProfile::unhardened(), 3);
}

#[test]
fn synthesized_ft_network_agrees() {
    // The FT network without secondary ports (BMC precondition); its 13
    // nodes get materialized selects, so fault-free validity is meaningful.
    let rsn = fig2();
    let mut opts = SynthesisOptions::new();
    opts.secondary_ports = false;
    let result = synthesize(&rsn, &opts).expect("synthesize");
    assert!(result.report.selects_materialized);
    cross_validate(&result.rsn, HardeningProfile::hardened(), 5);
}

#[test]
fn bmc_finds_no_access_below_required_depth() {
    // Sanity on the unrolling bound: a depth-2 SIB tree leaf needs two
    // CSUs; with fewer the BMC must answer "inaccessible".
    let rsn = sib_tree(2, 2, 2);
    let leaf = rsn
        .segments()
        .find(|&s| rsn.node(s).name().ends_with(".seg"))
        .expect("leaf");
    let mut shallow = ftrsn::bmc::BmcChecker::new(&rsn, 1);
    assert_eq!(
        shallow.accessible_under(leaf, &Budget::unlimited()),
        Verdict::Inaccessible
    );
    let mut deep = ftrsn::bmc::BmcChecker::new(&rsn, 2);
    assert_eq!(
        deep.accessible_under(leaf, &Budget::unlimited()),
        Verdict::Accessible
    );
}

/// The miter verdict for one fault pair at `steps` CSU operations.
fn distinguish(rsn: &Rsn, steps: usize, a: &FaultEffect, b: &FaultEffect) -> Distinguishability {
    FaultDistinguisher::new(rsn, steps, a, b).distinguishable_under(&Budget::unlimited())
}

#[test]
fn miter_distinguishes_every_fig2_pair_with_different_accessible_sets() {
    // Different accessible sets are observable, so the miter must find a
    // distinguishing stimulus. The sharp cases involve a stuck shadow
    // cell (`shadow(n2)/sa0` vs `/sa1`, or vs `select(n3)/sa1`): a stuck
    // cell ignores writes, so its stuck value must not constrain the
    // shift datum the two machines share.
    let rsn = fig2();
    let profile = HardeningProfile::unhardened();
    let faults = fault_universe(&rsn);
    let effects: Vec<FaultEffect> = faults.iter().map(|f| effect_of(&rsn, f, profile)).collect();
    let access: Vec<Vec<bool>> = effects
        .iter()
        .map(|e| accessibility(&rsn, e).accessible)
        .collect();
    let mut checked = 0;
    for i in 0..faults.len() {
        for j in i + 1..faults.len() {
            if access[i] == access[j] {
                continue;
            }
            checked += 1;
            assert_eq!(
                distinguish(&rsn, 3, &effects[i], &effects[j]),
                Distinguishability::Distinguishable,
                "faults {} and {}",
                faults[i],
                faults[j]
            );
        }
    }
    assert!(checked > 0, "fig2 has pairs with different accessible sets");
}

/// Every pair inside one collapse class is test-equivalent at `steps`.
fn classes_are_miter_equivalent(rsn: &Rsn, steps: usize) {
    let profile = HardeningProfile::unhardened();
    let faults = fault_universe(rsn);
    let classes = FaultClasses::build(rsn, &faults, profile);
    let mut checked = 0;
    for class in classes.classes() {
        for (k, &i) in class.members.iter().enumerate() {
            let a = effect_of(rsn, &faults[i as usize], profile);
            for &j in &class.members[k + 1..] {
                let b = effect_of(rsn, &faults[j as usize], profile);
                checked += 1;
                assert_eq!(
                    distinguish(rsn, steps, &a, &b),
                    Distinguishability::Equivalent,
                    "network {}, faults {} and {}",
                    rsn.name(),
                    faults[i as usize],
                    faults[j as usize]
                );
            }
        }
    }
    assert!(checked > 0, "{} has a class with two members", rsn.name());
}

#[test]
fn miter_finds_fig2_classes_equivalent() {
    classes_are_miter_equivalent(&fig2(), 3);
}

#[test]
fn miter_finds_sib_tree_classes_equivalent() {
    classes_are_miter_equivalent(&sib_tree(2, 2, 3), 3);
}
