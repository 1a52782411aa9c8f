//! End-to-end validation of the root-cause explanation engine: every
//! error-severity diagnostic carries an explanation whose cut, replayed
//! against the SAT model, provably eliminates the diagnostic.

use rsn_budget::Budget;
use rsn_core::{examples, ControlExpr, Rsn, RsnBuilder};
use rsn_verify::{
    explain_report, replay_eliminates, Code, NetworkSat, RepairAction, Severity, VerifyOptions,
    VerifyReport,
};

fn verify_and_explain(rsn: &Rsn) -> (NetworkSat, VerifyReport) {
    let sat = NetworkSat::build(rsn);
    let budget = Budget::unlimited();
    let mut report = rsn_verify::verify_on(rsn, &sat, VerifyOptions::default(), &budget);
    explain_report(rsn, &sat, &mut report, &budget);
    (sat, report)
}

/// Every error diagnostic must carry a complete explanation that
/// replays: applying the cut eliminates the finding.
fn assert_errors_replay(rsn: &Rsn, sat: &NetworkSat, report: &VerifyReport) {
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(!errors.is_empty(), "fixture should fail verification");
    for d in errors {
        let e = d
            .explanation
            .as_ref()
            .unwrap_or_else(|| panic!("error diagnostic {} has no explanation", d.code));
        assert!(!e.cut_nodes.is_empty(), "{}: empty cut", d.code);
        assert!(e.complete, "{}: incomplete under unlimited budget", d.code);
        assert_eq!(
            replay_eliminates(rsn, sat, d),
            Some(true),
            "{} on {}: replaying the cut does not eliminate the finding\n{}",
            d.code,
            d.node_name,
            e.render_lines().join("\n")
        );
    }
}

/// Two always-selected branches behind a mux: whichever branch is
/// deselected-by-steering while claiming selection is a mismatch.
fn mismatch_network() -> Rsn {
    let mut b = RsnBuilder::new("mismatch");
    let i = b.add_inputs(1);
    let a = b.add_segment("a", 2);
    let c = b.add_segment("c", 2);
    let m = b.add_mux("m", vec![a, c], vec![ControlExpr::input(i)]);
    b.connect(b.scan_in(), a);
    b.connect(b.scan_in(), c);
    b.connect(m, b.scan_out());
    b.set_select(a, ControlExpr::Const(true));
    b.set_select(c, ControlExpr::Const(true));
    b.finish().unwrap()
}

/// A 3-input mux addressed by (i, i): address 3 overflows.
fn overflow_network() -> Rsn {
    let mut b = RsnBuilder::new("mux-overflow");
    let i = b.add_inputs(1);
    let s0 = b.add_segment("s0", 1);
    let s1 = b.add_segment("s1", 1);
    let s2 = b.add_segment("s2", 1);
    let m = b.add_mux(
        "m",
        vec![s0, s1, s2],
        vec![ControlExpr::input(i), ControlExpr::input(i)],
    );
    b.connect(b.scan_in(), s0);
    b.connect(b.scan_in(), s1);
    b.connect(b.scan_in(), s2);
    b.connect(m, b.scan_out());
    b.finish().unwrap()
}

/// `ctl` feeds a downstream select but sits behind a mux port whose
/// decode condition is unsatisfiable: its shadow state is stuck forever.
fn uncontrollable_network() -> Rsn {
    let mut b = RsnBuilder::new("uncontrollable");
    let i = b.add_inputs(1);
    let ctl = b.add_segment("ctl", 2);
    let a = b.add_segment("a", 1);
    let s = b.add_segment("s", 1);
    let dead = ControlExpr::And(vec![
        ControlExpr::input(i),
        ControlExpr::Not(Box::new(ControlExpr::input(i))),
    ]);
    let m = b.add_mux("m", vec![a, ctl], vec![dead]);
    b.connect(b.scan_in(), ctl);
    b.connect(b.scan_in(), a);
    b.connect(m, s);
    b.connect(s, b.scan_out());
    b.set_select(s, ControlExpr::reg(ctl, 0));
    b.finish().unwrap()
}

/// The fault-tolerance synthesis shape from `rsn-fault`'s benchmarks:
/// four segments behind a 4-way mux steered by `CTL`'s shadow, with a
/// secondary scan-in/out pair. Every segment claims permanent selection,
/// so each off-steering address is a mismatch.
fn ft_fixture() -> Rsn {
    let mut b = RsnBuilder::new("ft-fixture");
    let ctl = b.add_segment("CTL", 2);
    b.set_select(ctl, ControlExpr::TRUE);
    b.connect(b.scan_in(), ctl);
    let si2 = b.add_secondary_scan_in("si2");
    let segs: Vec<_> = (0..4)
        .map(|k| {
            let s = b.add_segment(format!("S{k}"), 2 + k as u32);
            b.set_select(s, ControlExpr::TRUE);
            s
        })
        .collect();
    b.connect(ctl, segs[0]);
    b.connect(ctl, segs[1]);
    b.connect(si2, segs[2]);
    b.connect(si2, segs[3]);
    let m = b.add_mux(
        "M4",
        segs.clone(),
        vec![ControlExpr::reg(ctl, 0), ControlExpr::reg(ctl, 1)],
    );
    let so2 = b.add_secondary_scan_out("so2");
    b.connect(segs[3], so2);
    b.connect(m, b.scan_out());
    b.finish().unwrap()
}

#[test]
fn mismatch_explanations_replay() {
    let rsn = mismatch_network();
    let (sat, report) = verify_and_explain(&rsn);
    assert_errors_replay(&rsn, &sat, &report);
    // The mismatch explanations carry forcing cubes over the mux address
    // input and implicate the mux in the cut.
    let m = rsn.find("m").unwrap();
    for d in report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::SelectPathMismatch)
    {
        let e = d.explanation.as_ref().unwrap();
        assert!(
            !e.control_bits.is_empty(),
            "existence finding must carry a forcing cube"
        );
        assert!(e.cut_nodes.contains(&d.node.unwrap()));
        let _ = m;
    }
}

#[test]
fn overflow_explanations_replay() {
    let rsn = overflow_network();
    let (sat, report) = verify_and_explain(&rsn);
    assert_errors_replay(&rsn, &sat, &report);
    let overflow = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::MuxAddressOverflow)
        .expect("overflow diagnostic");
    let e = overflow.explanation.as_ref().unwrap();
    // Address (i, i) overflows exactly when the input is high: one
    // single-bit cube covers every failing configuration.
    assert_eq!(e.control_bits.len(), 1, "{}", e.render_lines().join("\n"));
    assert_eq!(e.control_bits[0].label, "in0");
    assert!(e.control_bits[0].value);
    assert!(e.other_cubes.is_empty());
}

#[test]
fn uncontrollable_register_explanation_names_steering_cut() {
    let rsn = uncontrollable_network();
    let (sat, report) = verify_and_explain(&rsn);
    assert_errors_replay(&rsn, &sat, &report);
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UncontrollableControlRegister)
        .expect("RSN010 diagnostic");
    let e = diag.explanation.as_ref().unwrap();
    // The refutation must rest on the mux steering logic, not on the
    // register's own path-membership definition.
    let m = rsn.find("m").unwrap();
    assert!(
        e.cut_nodes.contains(&m),
        "cut should implicate the steering mux\n{}",
        e.render_lines().join("\n")
    );
    assert!(
        e.hints.iter().any(|h| h.target == Some(m)),
        "expected a repair hint targeting the mux"
    );
    assert!(e
        .hints
        .iter()
        .any(|h| h.action == RepairAction::HardenMux && h.target.is_some()));
}

#[test]
fn ft_fixture_explanations_pin_forcing_cubes() {
    let rsn = ft_fixture();
    let (sat, report) = verify_and_explain(&rsn);
    assert_errors_replay(&rsn, &sat, &report);

    // S0 is on-path exactly at address 0, so its mismatch is forced by
    // either CTL bit going high: two single-bit cubes cover everything.
    let s0 = rsn.find("S0").unwrap();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::SelectPathMismatch && d.node == Some(s0))
        .expect("S0 mismatch");
    let e = d.explanation.as_ref().unwrap();
    let mut cubes: Vec<Vec<String>> = std::iter::once(&e.control_bits)
        .chain(e.other_cubes.iter())
        .map(|c| {
            c.iter()
                .map(|f| format!("{}={}", f.label, f.value as u8))
                .collect()
        })
        .collect();
    cubes.sort();
    assert_eq!(
        cubes,
        vec![vec!["CTL[0]=1".to_string()], vec!["CTL[1]=1".to_string()]],
        "\n{}",
        e.render_lines().join("\n")
    );
    assert!(e.complete && e.minimized);
    // The steering mux is implicated and suggested for hardening.
    let m = rsn.find("M4").unwrap();
    assert!(e.cut_nodes.contains(&m));
    assert!(e
        .hints
        .iter()
        .any(|h| h.action == RepairAction::HardenMux && h.target == Some(m)));

    // CTL itself is off-path exactly when steered to the secondary
    // branch: a single CTL[1]=1 cube.
    let ctl = rsn.find("CTL").unwrap();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::SelectPathMismatch && d.node == Some(ctl))
        .expect("CTL mismatch");
    let e = d.explanation.as_ref().unwrap();
    assert_eq!(e.control_bits.len(), 1);
    assert_eq!(e.control_bits[0].label, "CTL[1]");
    assert!(e.control_bits[0].value);
    assert!(e.other_cubes.is_empty());

    // S3 drains to the secondary scan-out on every address: clean.
    let s3 = rsn.find("S3").unwrap();
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::SelectPathMismatch && d.node == Some(s3)));
}

#[test]
fn fig2_stays_clean_and_unexplained() {
    let rsn = examples::fig2();
    let (_sat, report) = verify_and_explain(&rsn);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.explanation.is_none() || d.explanation.as_ref().unwrap().complete));
    // Rendering a clean report must not grow explanation chatter.
    assert!(!report.render().contains("root cause"));
}

#[test]
fn exhausted_budget_degrades_without_hanging() {
    let rsn = ft_fixture();
    let sat = NetworkSat::build(&rsn);
    let mut report =
        rsn_verify::verify_on(&rsn, &sat, VerifyOptions::default(), &Budget::unlimited());
    let starved = Budget::unlimited().with_work_limit(0);
    let _ = starved.check(); // trip it
    explain_report(&rsn, &sat, &mut report, &starved);
    for d in &report.diagnostics {
        let e = d.explanation.as_ref().expect("explanation still attached");
        assert!(!e.complete, "starved budget must mark explanations partial");
    }
}

#[test]
fn rendered_report_carries_explanation_lines() {
    let rsn = ft_fixture();
    let (_sat, report) = verify_and_explain(&rsn);
    let text = report.render();
    assert!(text.contains("root cause:"), "{text}");
    assert!(text.contains("force: "), "{text}");
    assert!(text.contains("hint: harden mux M4"), "{text}");
}
