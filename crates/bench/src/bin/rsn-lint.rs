//! `rsn-lint` — static verification front-end for RSN models.
//!
//! ```text
//! rsn-lint [TARGET ...] [--ft] [--explain] [--json] [--quiet]
//! ```
//!
//! Each `TARGET` is one of
//!
//! * an embedded ITC'02 benchmark name (`u226`, `p93791`, ...),
//! * a path to an ITC'02 `.soc` file (generated into a SIB-RSN first),
//! * a path to an IEEE 1687 `.icl` file (as written by `soc2rsn`),
//! * `examples` — the built-in example networks (Fig. 2, chain, SIB tree).
//!
//! Without targets, `examples` plus the full embedded suite is verified.
//!
//! Every network runs through `rsn-verify`: SAT proofs of select/path
//! agreement, select satisfiability, multiplexer decode health and
//! control-register controllability over *all* configurations, plus the
//! structural and control-cycle graph passes. With `--ft`, the
//! fault-tolerant synthesis runs first and its output is verified instead,
//! with the options its synthesis report gives
//! (`SynthesisReport::verify_options`: select checks are skipped when
//! selects are not materialized). `--explain` attaches a root-cause
//! explanation to every diagnostic: a minimal UNSAT core mapped back to
//! the structural elements (cut nodes/edges, forcing control bits) plus
//! repair hints.
//! `--json` prints one JSON report object per network; explanations are
//! embedded under each diagnostic's `"explanation"` key.
//!
//! Note that an `.icl` file exported from a synthesis whose selects were
//! *not* materialized carries placeholder `Select := 1'b1` predicates;
//! linting such a file reports the resulting select/path mismatches,
//! which is a true statement about the netlist as written.
//!
//! Exit codes: `0` — clean; `1` — at least one error-severity finding;
//! `2` — tool failure (unknown target, unreadable or unparsable input,
//! failed synthesis, bad flags).

use std::env;
use std::fs;
use std::process::ExitCode;

use rsn_budget::Budget;
use rsn_core::{examples, Rsn};
use rsn_export::from_icl;
use rsn_itc02::{by_name, parse_soc, suite};
use rsn_sib::generate;
use rsn_synth::{synthesize, SynthesisOptions};
use rsn_verify::{explain_report, NetworkSat, VerifyOptions, VerifyReport};

/// Findings present (exit 1) — distinct from tool failure (exit 2).
const EXIT_FINDINGS: u8 = 1;
/// Unknown target, parse failure, failed synthesis, bad flags (exit 2).
const EXIT_TOOL_ERROR: u8 = 2;

fn usage(code: u8) -> ExitCode {
    eprintln!("usage: rsn-lint [TARGET ...] [--ft] [--explain] [--json] [--quiet]");
    eprintln!("  TARGET: embedded SoC name | file.soc | file.icl | examples");
    eprintln!("  exit codes: 0 clean, 1 findings, 2 tool error");
    ExitCode::from(code)
}

fn load(target: &str) -> Result<Vec<Rsn>, String> {
    if target == "examples" {
        return Ok(vec![
            examples::fig2(),
            examples::chain(4, 8),
            examples::sib_tree(2, 2, 4),
        ]);
    }
    if let Some(soc) = by_name(target) {
        return generate(&soc).map(|r| vec![r]).map_err(|e| e.to_string());
    }
    if target.ends_with(".icl") {
        let text = fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        return from_icl(&text).map(|r| vec![r]).map_err(|e| e.to_string());
    }
    if target.ends_with(".soc") {
        let text = fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        let soc = parse_soc(&text).map_err(|e| e.to_string())?;
        return generate(&soc).map(|r| vec![r]).map_err(|e| e.to_string());
    }
    Err(format!(
        "unknown target {target} (not an embedded SoC, .soc or .icl file)"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut targets: Vec<String> = Vec::new();
    let mut ft = false;
    let mut explain = false;
    let mut json = false;
    let mut quiet = false;
    for a in &args {
        match a.as_str() {
            "--ft" => ft = true,
            "--explain" => explain = true,
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => return usage(0),
            flag if flag.starts_with("--") => return usage(EXIT_TOOL_ERROR),
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("examples".to_string());
        targets.extend(suite().into_iter().map(|s| s.name));
    }

    let budget = Budget::unlimited();
    let mut errors = 0usize;
    let mut reports: Vec<VerifyReport> = Vec::new();
    for target in &targets {
        let networks = match load(target) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_TOOL_ERROR);
            }
        };
        for rsn in networks {
            let (network, vopts) = if ft {
                let result = match synthesize(&rsn, &SynthesisOptions::new()) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("error: synthesis of {} failed: {e}", rsn.name());
                        return ExitCode::from(EXIT_TOOL_ERROR);
                    }
                };
                (result.rsn, result.report.verify_options())
            } else {
                (rsn, VerifyOptions::default())
            };
            let report = if explain {
                let sat = NetworkSat::build(&network);
                let mut report = rsn_verify::verify_on(&network, &sat, vopts, &budget);
                explain_report(&network, &sat, &mut report, &budget);
                report
            } else {
                rsn_verify::verify_with(&network, vopts)
            };
            errors += report.error_count();
            if json {
                println!("{}", report.to_json().to_string_pretty(2));
            } else if !quiet || !report.diagnostics.is_empty() {
                print!("{}", report.render());
            }
            reports.push(report);
        }
    }

    if !json {
        let warnings: usize = reports.iter().map(VerifyReport::warning_count).sum();
        println!(
            "verified {} network(s): {} error(s), {} warning(s)",
            reports.len(),
            errors,
            warnings
        );
    }
    if errors > 0 {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    }
}
