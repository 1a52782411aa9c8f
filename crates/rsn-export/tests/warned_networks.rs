//! Emission must not be gated on a clean verification verdict: a network
//! with warning-severity diagnostics (dead logic, unobservable segments)
//! is still a valid netlist, and the flow's contract is "emit anyway,
//! surface the warnings next to the artifact".

use rsn_core::{ControlExpr, RsnBuilder};
use rsn_export::{to_icl, to_verilog};
use rsn_verify::{verify_with, Code, Severity, VerifyOptions};

/// A network that is structurally sound but carries warnings: `live` is
/// the whole active path, while `spur` hangs off the scan-in with a
/// constant-false select and no route to any scan-out port.
fn warned_network() -> rsn_core::Rsn {
    let mut b = RsnBuilder::new("warned");
    let live = b.add_segment("live", 8);
    let spur = b.add_segment("spur", 4);
    b.set_select(live, ControlExpr::Const(true));
    b.set_select(spur, ControlExpr::Const(false));
    b.connect(b.scan_in(), live);
    b.connect(live, b.scan_out());
    b.connect(b.scan_in(), spur);
    b.finish().expect("network builds")
}

#[test]
fn verilog_and_icl_emission_succeed_for_warned_network() {
    let rsn = warned_network();

    let report = verify_with(&rsn, VerifyOptions::default());
    assert_eq!(report.error_count(), 0, "{}", report.render());
    assert!(report.warning_count() > 0, "{}", report.render());
    let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&Code::NeverSelected));
    assert!(codes.contains(&Code::CannotReachScanOut));

    // Emission is unconditional: both backends produce a netlist for the
    // warned network, including the dead segment.
    let v = to_verilog(&rsn);
    assert!(v.contains("module"), "verilog emitted:\n{v}");
    assert!(v.contains("spur"), "dead segment still present:\n{v}");
    let icl = to_icl(&rsn);
    assert!(icl.contains("spur"), "dead segment still present:\n{icl}");

    // The warnings travel alongside the artifact, not inside it: the
    // rendered report names every warned node.
    let rendered = report.render();
    for d in &report.diagnostics {
        assert_eq!(d.severity, Severity::Warning);
        assert!(rendered.contains(&d.node_name));
    }
}
