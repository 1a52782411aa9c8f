//! Cross-validation of the fast structural accessibility engine against
//! the bounded-model-checking reference semantics (experiment V1 in
//! DESIGN.md): for small networks and the exhaustive fault universe, both
//! engines must agree on every (fault, segment) verdict.

use ftrsn::bmc::{bmc_accessibility, Verdict};
use ftrsn::budget::Budget;
use ftrsn::core::examples::{chain, fig2, sib_tree};
use ftrsn::core::Rsn;
use ftrsn::fault::{accessibility, effect_of, fault_universe, HardeningProfile};
use ftrsn::itc02::parse_soc;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SelectMode, SynthesisOptions};

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
    // The FT network without secondary ports (BMC precondition), with
    // materialized selects so fault-free validity is meaningful.
    let rsn = fig2();
    let mut opts = SynthesisOptions::new();
    opts.secondary_ports = false;
    opts.select_mode = SelectMode::Always;
    let result = synthesize(&rsn, &opts).expect("synthesize");
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
