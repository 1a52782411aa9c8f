//! SAT-backed static verification of reconfigurable scan networks.
//!
//! Where sampling configurations can miss rare misconfigurations, this
//! crate *proves* properties over all configurations: every select
//! predicate is checked for satisfiability and for agreement with
//! active-scan-path membership by a SAT query over the network's control
//! CNF, multiplexer decode logic is checked per input, and shadow
//! registers that feed control logic are proven placeable on a scan path.
//! Graph passes cover reachability, shadow-less address sources and
//! cyclic control dependencies (SCC).
//!
//! Findings come back as [`Diagnostic`]s with stable `RSN0xx` codes,
//! severities, node provenance and — for existence findings — a witness
//! [`Config`](rsn_core::Config) that reproduces the issue through the
//! simulator. See `DESIGN.md` for the full check catalog.
//!
//! ```
//! let rsn = rsn_core::examples::fig2();
//! let report = rsn_verify::verify_with(&rsn, rsn_verify::VerifyOptions::default());
//! assert!(report.is_clean());
//! println!("{}", report.render());
//! ```

mod checks;
mod cone;
mod diag;
mod encode;
mod explain;

pub use cone::cone_of_influence;
pub use diag::{Code, Diagnostic, Severity, VerifyReport};
pub use encode::{ClauseOrigin, NetworkSat, SatScratch};
pub use explain::{
    explain_report, replay_eliminates, ControlBitFix, Explanation, RepairAction, RepairHint,
};

use rsn_budget::Budget;
use rsn_core::Rsn;

/// How [`verify_with`] runs. Every check family runs: structural
/// reachability and shadow-less address sources (`RSN006`–`RSN008`),
/// multiplexer decode (`RSN003`–`RSN005`), shadow-controllability
/// (`RSN010`) and cyclic control dependencies (`RSN009`), plus the select
/// checks unless they are switched off. Every SAT query runs on the
/// serial CDCL loop, so a report is bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Per-segment select satisfiability and select/path agreement
    /// (`RSN001`, `RSN002`). Meaningless on networks whose selects were
    /// never materialized (synthesis leaves constant-true placeholders on
    /// networks of more than 64 nodes); callers synthesizing such networks
    /// switch it off.
    pub select_checks: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            select_checks: true,
        }
    }
}

impl VerifyOptions {
    /// Options for networks with placeholder (non-materialized) selects:
    /// select-predicate checks are off, everything else on.
    pub fn without_select_checks() -> Self {
        VerifyOptions {
            select_checks: false,
        }
    }
}

/// Verifies `rsn` with the given options.
///
/// Builds one CNF model of the network's control logic and active-path
/// membership, then answers every semantic question with an incremental
/// assumption query against it (see [`verify_on`]). The returned report
/// orders diagnostics by check family, then by node.
pub fn verify_with(rsn: &Rsn, opts: VerifyOptions) -> VerifyReport {
    verify_on(rsn, &NetworkSat::build(rsn), opts, &Budget::unlimited())
}

/// Verifies `rsn` against a prebuilt [`NetworkSat`], bounded by a
/// [`Budget`]. Resident callers (rsn-serve) cache the model per network
/// and pass it here, so repeat verification of the same network skips
/// construction entirely; solver state lives in a private per-call
/// scratch, so concurrent calls against one model are safe.
///
/// `sat` must have been built from this same `rsn`.
///
/// One work unit is spent per check family. Families the budget starves
/// are recorded in [`VerifyReport::incomplete`] — their properties are
/// *unproven*, never silently passed — and `lint.incomplete` /
/// `budget.exhausted` events are counted. Families that did run report
/// exactly as under [`verify_with`]; with an unlimited budget the result
/// is identical.
pub fn verify_on(
    rsn: &Rsn,
    sat: &NetworkSat,
    opts: VerifyOptions,
    budget: &Budget,
) -> VerifyReport {
    // Chaos failpoint: injected errors / budget exhaustion cancel the
    // budget, so every check family lands in `incomplete` (unproven,
    // never silently passed).
    if rsn_fail::eval("verify.run").is_some() {
        budget.cancel();
    }
    let _trace = rsn_obs::TraceGuard::new("verify");
    let start = std::time::Instant::now();
    let mut report = VerifyReport {
        network: rsn.name().to_string(),
        nodes: rsn.node_count(),
        ..VerifyReport::default()
    };

    if budget.check().is_ok() {
        report.checks_run.push("structural");
        report.diagnostics.extend(checks::structural(rsn));
    } else {
        report.incomplete.push("structural");
    }

    // The SAT-backed families share the one CNF model. It is immutable;
    // this run's solver state lives in its own scratch, allocated only
    // once a family runs.
    type SatCheck = fn(&Rsn, &NetworkSat, &mut SatScratch) -> Vec<Diagnostic>;
    let sat_families: [(&'static str, bool, SatCheck); 3] = [
        ("selects", opts.select_checks, checks::select_checks),
        ("muxes", true, checks::mux_checks),
        ("controllability", true, checks::controllability),
    ];
    let mut scratch: Option<SatScratch> = None;
    for (family, enabled, check) in sat_families {
        if !enabled {
            continue;
        }
        if budget.check().is_err() {
            report.incomplete.push(family);
            continue;
        }
        let scr = scratch.get_or_insert_with(|| sat.scratch());
        report.checks_run.push(family);
        report.diagnostics.extend(check(rsn, sat, scr));
    }
    if let Some(scr) = &scratch {
        report.sat_queries = scr.queries();
    }

    if budget.check().is_ok() {
        report.checks_run.push("control-cycles");
        report.diagnostics.extend(checks::control_cycles(rsn));
    } else {
        report.incomplete.push("control-cycles");
    }

    rsn_obs::counter_add("lint.runs", 1);
    rsn_obs::counter_add("lint.errors", report.error_count() as u64);
    rsn_obs::counter_add("lint.warnings", report.warning_count() as u64);
    rsn_obs::counter_add("lint.sat_queries", report.sat_queries as u64);
    // One attribution unit per check family that actually ran (the SAT
    // work inside is attributed to the sat engine by the solver itself).
    rsn_obs::counter_add(
        "budget.spent{engine=verify}",
        report.checks_run.len() as u64,
    );
    if !report.incomplete.is_empty() {
        rsn_obs::counter_add("lint.incomplete", report.incomplete.len() as u64);
        rsn_obs::counter_add("budget.exhausted", 1);
        let reason = budget.exhausted().map_or("work_limit", |r| r.as_str());
        rsn_obs::record_budget_trip("verify", reason);
    }
    rsn_obs::gauge_set("lint.verify_ms", start.elapsed().as_secs_f64() * 1e3);

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::{examples, ControlExpr, RsnBuilder};

    #[test]
    fn example_networks_verify_clean() {
        for rsn in [
            examples::fig2(),
            examples::chain(4, 8),
            examples::sib_tree(2, 2, 4),
        ] {
            let report = verify_with(&rsn, VerifyOptions::default());
            assert!(
                report.is_clean(),
                "{} not clean:\n{}",
                rsn.name(),
                report.render()
            );
            assert_eq!(report.warning_count(), 0, "{}", report.render());
            assert!(report.sat_queries > 0);
        }
    }

    #[test]
    fn unsatisfiable_select_is_proven_never_selected() {
        // select = in0 AND NOT in0 — sampling sees a plain `false`, the
        // solver proves it without enumerating.
        let mut b = RsnBuilder::new("unsat-select");
        let i = b.add_inputs(1);
        let s = b.add_segment("seg", 4);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        b.set_select(
            s,
            ControlExpr::And(vec![
                ControlExpr::input(i),
                ControlExpr::Not(Box::new(ControlExpr::input(i))),
            ]),
        );
        let rsn = b.finish().unwrap();
        let report = verify_with(&rsn, VerifyOptions::default());
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::NeverSelected), "{}", report.render());
        // Never selected but always on the structural path: also a
        // select/path mismatch, with a witness.
        let mismatch = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SelectPathMismatch)
            .expect("mismatch diagnostic");
        assert!(mismatch.witness.is_some());
        assert!(!report.is_clean());
    }

    #[test]
    fn select_path_mismatch_witness_replays_through_simulator() {
        // Two parallel branches behind a mux, but branch selects ignore
        // the mux address: whichever branch is deselected while routed is
        // a mismatch, and the witness must reproduce it in the simulator.
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
        let rsn = b.finish().unwrap();

        let report = verify_with(&rsn, VerifyOptions::default());
        let mismatches: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::SelectPathMismatch)
            .collect();
        assert!(!mismatches.is_empty(), "{}", report.render());
        for d in &mismatches {
            let seg = d.node.unwrap();
            let cfg = d.witness.as_ref().expect("witness");
            let on_path = rsn
                .trace_path(cfg)
                .map(|p| p.contains(seg))
                .unwrap_or(false);
            let selected = rsn.select(seg, cfg).unwrap();
            assert_ne!(
                selected, on_path,
                "witness does not reproduce the mismatch for {}",
                d.node_name
            );
        }
    }

    #[test]
    fn dead_mux_input_and_overflow_are_found() {
        // A 3-input mux on 2 address bits where bit1 is tied low: input 2
        // is dead and address 3 (binary 11) is unreachable... tie bit1
        // high instead so address can overflow to 3.
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
        let rsn = b.finish().unwrap();

        let report = verify_with(&rsn, VerifyOptions::default());
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        // addr = (i, i): reaches 00 and 11 only → inputs 1 and 2 dead at
        // most one alive... actually 00 selects input 0, 11 overflows.
        assert!(
            codes.contains(&Code::MuxAddressOverflow),
            "{}",
            report.render()
        );
        let overflow = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::MuxAddressOverflow)
            .unwrap();
        let cfg = overflow.witness.as_ref().expect("witness");
        assert!(rsn.mux_selected_input(m, cfg).is_err());
        assert!(!report.is_clean());
    }

    #[test]
    fn options_disable_check_families() {
        let rsn = examples::fig2();
        let report = verify_with(&rsn, VerifyOptions::without_select_checks());
        assert!(!report.checks_run.contains(&"selects"));
        assert!(report.checks_run.contains(&"structural"));
        assert!(report.checks_run.contains(&"muxes"));
        let full = verify_with(&rsn, VerifyOptions::default());
        assert!(full.checks_run.contains(&"selects"));
        assert!(report.sat_queries < full.sat_queries);
    }

    #[test]
    fn zero_budget_marks_every_family_incomplete() {
        let rsn = examples::fig2();
        let budget = Budget::unlimited().with_work_limit(0);
        let report = verify_on(
            &rsn,
            &NetworkSat::build(&rsn),
            VerifyOptions::default(),
            &budget,
        );
        assert!(!report.is_complete());
        assert!(report.checks_run.is_empty());
        assert_eq!(
            report.incomplete,
            vec![
                "structural",
                "selects",
                "muxes",
                "controllability",
                "control-cycles"
            ]
        );
        // Starved checks never issue SAT queries and never claim findings.
        assert_eq!(report.sat_queries, 0);
        assert!(report.diagnostics.is_empty());
        // The starvation is loud in both renderings: the summary line
        // plus one explicit UNPROVEN marker per starved family.
        assert!(report.render().contains("INCOMPLETE"));
        for fam in &report.incomplete {
            assert!(
                report.render().contains(&format!("UNPROVEN {fam}")),
                "missing UNPROVEN marker for {fam}:\n{}",
                report.render()
            );
        }
        assert!(report
            .to_json()
            .to_string_pretty(0)
            .contains("\"incomplete\""));
    }

    #[test]
    fn partial_budget_keeps_completed_family_results() {
        let rsn = examples::fig2();
        // Two work units: structural and selects run, the rest starve.
        let budget = Budget::unlimited().with_work_limit(2);
        let report = verify_on(
            &rsn,
            &NetworkSat::build(&rsn),
            VerifyOptions::default(),
            &budget,
        );
        assert_eq!(report.checks_run, vec!["structural", "selects"]);
        assert_eq!(
            report.incomplete,
            vec!["muxes", "controllability", "control-cycles"]
        );
        assert!(report.sat_queries > 0, "the selects family did run");
    }

    #[test]
    fn unlimited_budget_verify_matches_unbudgeted() {
        let rsn = examples::fig2();
        let plain = verify_with(&rsn, VerifyOptions::default());
        let sat = NetworkSat::build(&rsn);
        let budgeted = verify_on(&rsn, &sat, VerifyOptions::default(), &Budget::unlimited());
        assert_eq!(plain, budgeted);
        assert!(budgeted.is_complete());
        assert!(!budgeted.render().contains("INCOMPLETE"));
    }

    #[test]
    fn verify_on_shared_model_matches_owned_build() {
        let rsn = examples::fig2();
        let sat = NetworkSat::build(&rsn);
        let owned = verify_with(&rsn, VerifyOptions::default());
        // Two calls against the same shared model: each gets a private
        // scratch, so both match the owned-build report exactly.
        for _ in 0..2 {
            let shared = verify_on(&rsn, &sat, VerifyOptions::default(), &Budget::unlimited());
            assert_eq!(owned, shared);
        }
    }

    #[test]
    fn report_json_has_stable_shape() {
        let rsn = examples::fig2();
        let report = verify_with(&rsn, VerifyOptions::default());
        let json = report.to_json().to_string_pretty(0);
        assert!(json.contains("\"network\""));
        assert!(json.contains("\"diagnostics\""));
        assert!(json.contains("\"sat_queries\""));
    }

    #[test]
    fn verify_findings_superset_of_sampled_lint() {
        // A segment on the only scan path whose select is constant false:
        // structurally never selected, and a mismatch already at reset.
        let mut b = RsnBuilder::new("never-selected");
        let s = b.add_segment("s", 2);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        let broken = b.finish().unwrap();

        for rsn in [
            examples::fig2(),
            examples::chain(3, 5),
            examples::sib_tree(2, 3, 4),
            broken,
        ] {
            let report = verify_with(&rsn, VerifyOptions::default());
            let reports = |code: Code, node| {
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.code == code && d.node == Some(node))
            };
            let f = rsn_core::structural_findings(&rsn);
            let mut sampled: Vec<(Code, rsn_core::NodeId)> = Vec::new();
            sampled.extend(
                f.unreachable
                    .iter()
                    .map(|&n| (Code::UnreachableFromScanIn, n)),
            );
            sampled.extend(
                f.unobservable
                    .iter()
                    .map(|&n| (Code::CannotReachScanOut, n)),
            );
            sampled.extend(f.never_selected.iter().map(|&n| (Code::NeverSelected, n)));
            sampled.extend(
                f.shadowless_addresses
                    .iter()
                    .map(|&(m, _)| (Code::AddressWithoutShadow, m)),
            );
            sampled.extend(
                sampled_select_mismatches(&rsn)
                    .into_iter()
                    .map(|s| (Code::SelectPathMismatch, s)),
            );
            for &(code, node) in &sampled {
                assert!(
                    reports(code, node),
                    "{}: sampling found {} on {node} but verify did not:\n{}",
                    rsn.name(),
                    code.as_str(),
                    report.render()
                );
            }
            if rsn.name() == "never-selected" {
                assert!(sampled.contains(&(Code::NeverSelected, s)));
                assert!(sampled.contains(&(Code::SelectPathMismatch, s)));
            }
        }
    }

    /// Segments whose select disagrees with membership in the path traced
    /// to any scan-out port, in the reset configuration or one of its
    /// one-bit flips. Configurations that fail to decode are skipped.
    fn sampled_select_mismatches(rsn: &Rsn) -> Vec<rsn_core::NodeId> {
        let reset = rsn.reset_config();
        let mut cfgs = vec![reset.clone()];
        for bit in 0..rsn.shadow_bits() as usize {
            let mut c = reset.clone();
            c.set_bit(bit, !c.bit(bit));
            cfgs.push(c);
        }
        let ports: Vec<rsn_core::NodeId> = rsn
            .node_ids()
            .filter(|&id| matches!(rsn.node(id).kind(), rsn_core::NodeKind::ScanOut))
            .collect();
        let mut out = Vec::new();
        for cfg in &cfgs {
            let Ok(paths) = ports
                .iter()
                .map(|&p| rsn.trace_path_from(p, cfg))
                .collect::<Result<Vec<_>, _>>()
            else {
                continue;
            };
            for seg in rsn.segments() {
                if let Ok(selected) = rsn.select(seg, cfg) {
                    if selected != paths.iter().any(|p| p.contains(seg)) {
                        out.push(seg);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}
