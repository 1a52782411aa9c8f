//! Cross-validation of the exhaustive SAT-backed verifier (`rsn-verify`)
//! against three other oracles:
//!
//! 1. a sampling lint that traces every scan-out port in the reset
//!    configuration and each one-bit flip of it — every select/path
//!    disagreement it finds must be one the verifier proves;
//! 2. the cycle-accurate simulator — every SAT-derived witness
//!    configuration must reproduce its finding through `trace_path`;
//! 3. `rsn_bmc::verify_select_consistency` — the two independent SAT
//!    encodings must agree on select/path consistency (restricted to
//!    networks with a single scan-out port, the BMC encoding's domain);
//!
//! plus the end-to-end acceptance gate: networks synthesized by the
//! Table-1 flow verify with no diagnostics at all, and the reference
//! twin of the verifier's narrowed queries (`common`): every query
//! decided only on its fan-in cone gets the verdict of a solver that
//! decides every variable.

mod common;

use common::assert_narrowing_matches_reference;
use ftrsn::bmc::verify_select_consistency;
use ftrsn::core::examples::{chain, fig2, sib_tree};
use ftrsn::core::{Config, ControlExpr, NodeId, NodeKind, Rsn, RsnBuilder};
use ftrsn::itc02::by_name;
use ftrsn::obs::ScopeHandle;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SynthesisOptions};
use ftrsn::verify::{verify_with, Code, Severity, VerifyOptions};

fn example_networks() -> Vec<Rsn> {
    vec![fig2(), chain(4, 8), sib_tree(2, 2, 4)]
}

fn embedded_networks() -> Vec<Rsn> {
    ["u226", "d281", "d695"]
        .iter()
        .map(|n| generate(&by_name(n).expect("embedded SoC")).expect("generate"))
        .collect()
}

/// A single-segment network whose select predicate depends on a primary
/// input while the segment is unconditionally on the scan path: every
/// configuration with the input low is a select/path mismatch.
fn mismatched_network() -> (Rsn, ftrsn::core::NodeId) {
    let mut b = RsnBuilder::new("mismatch");
    let i = b.add_inputs(1);
    let s = b.add_segment("s", 4);
    b.set_select(s, ControlExpr::input(i));
    b.connect(b.scan_in(), s);
    b.connect(s, b.scan_out());
    (b.finish().expect("builds"), s)
}

/// A single-segment network whose select is the constant `false` while
/// the segment is unconditionally on the scan path: the reset
/// configuration already disagrees.
fn never_selected_network() -> (Rsn, NodeId) {
    let mut b = RsnBuilder::new("never-selected");
    let s = b.add_segment("s", 2);
    b.connect(b.scan_in(), s);
    b.connect(s, b.scan_out());
    (b.finish().expect("builds"), s)
}

/// The select/path disagreements a sampling lint finds: it probes the
/// reset configuration plus each one-bit flip of it, traces every scan-out
/// port with `trace_path_from` and counts a segment as on the path when
/// any port's path contains it. Configurations that fail to decode at some
/// port, and selects that fail to evaluate, are skipped.
fn sampled_lint_mismatches(rsn: &Rsn) -> Vec<(NodeId, Config)> {
    let reset = rsn.reset_config();
    let mut cfgs = vec![reset.clone()];
    for bit in 0..rsn.shadow_bits() as usize {
        let mut c = reset.clone();
        c.set_bit(bit, !c.bit(bit));
        cfgs.push(c);
    }
    let ports: Vec<NodeId> = rsn
        .node_ids()
        .filter(|&id| matches!(rsn.node(id).kind(), NodeKind::ScanOut))
        .collect();
    let mut out = Vec::new();
    for cfg in cfgs {
        let Ok(paths) = ports
            .iter()
            .map(|&p| rsn.trace_path_from(p, &cfg))
            .collect::<Result<Vec<_>, _>>()
        else {
            continue;
        };
        for seg in rsn.segments() {
            let Ok(selected) = rsn.select(seg, &cfg) else {
                continue;
            };
            if selected != paths.iter().any(|p| p.contains(seg)) {
                out.push((seg, cfg.clone()));
            }
        }
    }
    out
}

#[test]
fn verifier_findings_superset_of_sampled_lint_everywhere() {
    let mut networks = example_networks();
    networks.extend(embedded_networks());
    let (mismatch, mismatch_seg) = mismatched_network();
    let (never, never_seg) = never_selected_network();
    networks.push(mismatch);
    networks.push(never);
    let mut sampled_segments = Vec::new();
    for rsn in &networks {
        let report = verify_with(rsn, VerifyOptions::default());
        for (seg, cfg) in sampled_lint_mismatches(rsn) {
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.code == Code::SelectPathMismatch && d.node == Some(seg)),
                "network {}: segment {seg} disagrees with path membership under \
                 sampled configuration {cfg:?}, but the verifier reports no {} on it:\n{}",
                rsn.name(),
                Code::SelectPathMismatch.as_str(),
                report.render()
            );
            sampled_segments.push((rsn.name().to_string(), seg));
        }
    }
    // The sampling lint is not vacuous: it catches both broken networks.
    for (name, seg) in [("mismatch", mismatch_seg), ("never-selected", never_seg)] {
        assert!(
            sampled_segments.contains(&(name.to_string(), seg)),
            "the sampling lint missed the disagreement on {name}"
        );
    }
}

#[test]
fn witnesses_replay_through_the_simulator() {
    let (rsn, seg) = mismatched_network();
    let report = verify_with(&rsn, VerifyOptions::default());
    let finding = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::SelectPathMismatch)
        .expect("mismatch is found");
    assert_eq!(finding.node, Some(seg));
    assert_eq!(finding.severity, Severity::Error);

    // The witness configuration must exhibit the disagreement in the
    // reference simulator, not merely in the CNF model.
    let cfg = finding.witness.as_ref().expect("witness attached");
    let selected = rsn.select(seg, cfg).expect("select evaluates");
    let on_path = rsn
        .trace_path(cfg)
        .map(|p| p.contains(seg))
        .unwrap_or(false);
    assert_ne!(selected, on_path, "witness does not replay");
}

#[test]
fn agrees_with_bmc_select_consistency_on_single_port_networks() {
    let mut networks = example_networks();
    networks.extend(embedded_networks());
    networks.push(mismatched_network().0);
    for rsn in &networks {
        let ports = rsn
            .node_ids()
            .filter(|&n| matches!(rsn.node(n).kind(), NodeKind::ScanOut))
            .count();
        if ports != 1 {
            continue; // BMC's encoding terminates at the primary port only.
        }
        let bmc = verify_select_consistency(rsn);
        let sat = verify_with(rsn, VerifyOptions::default());
        let sat_mismatch = sat
            .diagnostics
            .iter()
            .any(|d| d.code == Code::SelectPathMismatch);
        assert_eq!(
            bmc.is_some(),
            sat_mismatch,
            "network {}: BMC={:?} vs verifier:\n{}",
            rsn.name(),
            bmc.map(|m| m.segment),
            sat.render()
        );
    }
}

/// u226's FT network, as the Table-1 flow synthesizes it.
fn u226_ft() -> Rsn {
    let rsn = generate(&by_name("u226").expect("embedded SoC")).expect("generate");
    synthesize(&rsn, &SynthesisOptions::new())
        .expect("synthesis")
        .rsn
}

#[test]
fn narrowed_queries_match_a_reference_that_decides_everything() {
    let mut networks = example_networks();
    networks.push(mismatched_network().0);
    networks.push(never_selected_network().0);
    // Placeholder selects: the select checks find 89 mismatches here.
    networks.push(u226_ft());
    for rsn in &networks {
        let witnesses = assert_narrowing_matches_reference(rsn);
        assert!(witnesses > 0, "{}: no witness replayed", rsn.name());
    }
}

#[test]
fn ft_lint_decides_only_query_cones() {
    // A work guard: the lint of u226's FT network made 571 189
    // propagations when every query decided the whole CNF, and 65 540
    // once each decides only its cone.
    let ft = u226_ft();
    let scope = ScopeHandle::new();
    let report = {
        let _in_scope = scope.enter();
        verify_with(&ft, VerifyOptions::without_select_checks())
    };
    assert!(report.is_clean(), "{}", report.render());
    let propagations = scope.snapshot().counters["sat.propagations"];
    assert!(
        propagations < 150_000,
        "{propagations} propagations for {} queries",
        report.sat_queries
    );
}

#[test]
fn table1_flow_with_verification_has_no_errors() {
    for name in ["u226", "d281"] {
        let rsn = generate(&by_name(name).expect("embedded SoC")).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesis");
        let report = verify_with(&result.rsn, result.report.verify_options());
        assert_eq!(report.error_count(), 0, "{}:\n{}", name, report.render());
        assert!(report.sat_queries > 0);
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code != Code::SelectPathMismatch));
        // Not even a warning: the synthesized network has no dead or
        // wasted structure the verifier can prove.
        assert!(
            report.diagnostics.is_empty(),
            "{}:\n{}",
            name,
            report.render()
        );
    }
}
