//! Additional BMC coverage: incremental querying, deeper hierarchies,
//! forced-subtree semantics, and agreement with the fault-free planner.

use rsn_bmc::{bmc_accessibility, BmcChecker, Verdict};
use rsn_budget::Budget;
use rsn_core::examples::{chain, fig2, sib_tree};
use rsn_fault::{effect_of, fault_universe, FaultEffect, FaultSite, HardeningProfile};
use rsn_itc02::parse_soc;
use rsn_sib::generate;

#[test]
fn incremental_queries_reuse_one_checker() {
    let rsn = sib_tree(1, 3, 2);
    let mut checker = BmcChecker::new(&rsn, 2);
    // Query every segment twice; verdicts must be stable.
    let unlimited = Budget::unlimited();
    let first: Vec<Verdict> = rsn
        .segments()
        .map(|s| checker.accessible_under(s, &unlimited))
        .collect();
    let second: Vec<Verdict> = rsn
        .segments()
        .map(|s| checker.accessible_under(s, &unlimited))
        .collect();
    assert_eq!(first, second);
    assert!(
        first.iter().all(|&v| v == Verdict::Accessible),
        "fault-free: all accessible"
    );
}

#[test]
fn bmc_matches_greedy_planner_depths() {
    // For every segment of a depth-3 tree, the minimal BMC depth at which
    // it becomes accessible equals the greedy plan's CSU count.
    let rsn = sib_tree(3, 1, 2);
    for seg in rsn.segments() {
        let plan = rsn.plan_access(seg, &rsn.reset_config()).expect("plan");
        let needed = plan.csu_count();
        if needed > 0 {
            let mut shallow = BmcChecker::new(&rsn, needed - 1);
            assert_eq!(
                shallow.accessible_under(seg, &Budget::unlimited()),
                Verdict::Inaccessible,
                "{} accessible below plan depth {needed}",
                rsn.node(seg).name()
            );
        }
        let mut exact = BmcChecker::new(&rsn, needed);
        assert_eq!(
            exact.accessible_under(seg, &Budget::unlimited()),
            Verdict::Accessible,
            "{}",
            rsn.node(seg).name()
        );
    }
}

#[test]
fn forced_open_subtree_keeps_everything_accessible() {
    // SIB shadow stuck-at-1: the subtree is forced onto the path; all
    // segments stay accessible (longer paths, no corruption).
    let soc = parse_soc("SocName t\n1 0 0 0 2 : 2 2\n2 0 0 0 1 : 2\n").expect("parse");
    let rsn = generate(&soc).expect("generate");
    let sib = rsn.find("m1.sib").expect("sib");
    let fault = rsn_fault::Fault {
        site: FaultSite::SegmentShadow(sib),
        value: true,
        weight: 1,
    };
    let effect = effect_of(&rsn, &fault, HardeningProfile::unhardened());
    for (seg, ok) in bmc_accessibility(&rsn, &effect, 3) {
        assert!(ok, "{} must stay accessible", rsn.node(seg).name());
    }
}

#[test]
fn scan_out_fault_kills_everything_in_bmc() {
    let rsn = fig2();
    let fault = rsn_fault::Fault {
        site: FaultSite::ScanOutPort(rsn.scan_out()),
        value: false,
        weight: 1,
    };
    let effect = effect_of(&rsn, &fault, HardeningProfile::unhardened());
    for (_, ok) in bmc_accessibility(&rsn, &effect, 2) {
        assert!(!ok);
    }
}

#[test]
fn chain_cross_validation_with_all_faults_and_more_steps() {
    // More unrolling steps never change chain verdicts (saturation).
    let rsn = chain(3, 2);
    for fault in fault_universe(&rsn) {
        let effect = effect_of(&rsn, &fault, HardeningProfile::unhardened());
        let at_1: Vec<bool> = bmc_accessibility(&rsn, &effect, 1)
            .into_iter()
            .map(|(_, b)| b)
            .collect();
        let at_3: Vec<bool> = bmc_accessibility(&rsn, &effect, 3)
            .into_iter()
            .map(|(_, b)| b)
            .collect();
        assert_eq!(at_1, at_3, "fault {fault}");
    }
}

#[test]
fn local_loss_only_affects_the_lost_segment() {
    let rsn = sib_tree(1, 2, 3);
    let leaf = rsn.find("t00.seg").expect("leaf");
    let mut effect = FaultEffect::benign();
    effect.local_loss.push(leaf);
    for (seg, ok) in bmc_accessibility(&rsn, &effect, 2) {
        assert_eq!(ok, seg != leaf, "{}", rsn.node(seg).name());
    }
}

#[test]
fn mux_input_edge_fault_verdicts_match_engine() {
    let soc = parse_soc("SocName t\n1 0 0 0 1 : 3\n").expect("parse");
    let rsn = generate(&soc).expect("generate");
    for fault in fault_universe(&rsn) {
        if !matches!(fault.site, FaultSite::MuxInput(..)) {
            continue;
        }
        let effect = effect_of(&rsn, &fault, HardeningProfile::unhardened());
        let structural = rsn_fault::accessibility(&rsn, &effect);
        for (seg, bmc_ok) in bmc_accessibility(&rsn, &effect, 3) {
            assert_eq!(
                structural.accessible[seg.index()],
                bmc_ok,
                "fault {fault} segment {}",
                rsn.node(seg).name()
            );
        }
    }
}
