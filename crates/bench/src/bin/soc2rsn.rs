//! `soc2rsn` — end-to-end command-line flow: ITC'02 SoC description in,
//! (fault-tolerant) RSN netlists out.
//!
//! ```text
//! soc2rsn <input.soc | embedded-name> [--ft] [--out DIR]
//!         [--alpha F] [--no-ports] [--report] [--lint]
//! ```
//!
//! Writes `<name>.v` (structural Verilog) and `<name>.icl` (IEEE 1687
//! ICL); with `--ft`, synthesizes the fault-tolerant network first and
//! writes `<name>_ft.*` as well. `--report` prints the fault-tolerance
//! metric of everything it produced.
//!
//! `--lint` statically verifies every emitted network with `rsn-verify`
//! (SAT proofs over all configurations plus graph passes) and prints the
//! structured diagnostics; error-severity findings make the exit code
//! non-zero. The fault-tolerant network is verified with the options its
//! synthesis report gives (`SynthesisReport::verify_options`: no select
//! checks on placeholder selects).

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use rsn_export::{to_icl, to_verilog};
use rsn_fault::{analyze, HardeningProfile};
use rsn_itc02::{by_name, parse_soc};
use rsn_sib::generate;
use rsn_synth::{synthesize, SynthesisOptions};
use rsn_verify::VerifyOptions;

fn usage() -> ExitCode {
    eprintln!(
        "usage: soc2rsn <input.soc | embedded-name> [--ft] [--out DIR] \
         [--alpha F] [--no-ports] [--report] [--lint]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(input) = args.first() else {
        return usage();
    };
    let mut ft = false;
    let mut out_dir = PathBuf::from(".");
    let mut report = false;
    let mut lint = false;
    let mut opts = SynthesisOptions::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--ft" => ft = true,
            "--report" => report = true,
            "--lint" => lint = true,
            "--no-ports" => opts.secondary_ports = false,
            "--out" => {
                i += 1;
                let Some(d) = args.get(i) else { return usage() };
                out_dir = PathBuf::from(d);
            }
            "--alpha" => {
                i += 1;
                let Some(a) = args.get(i).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                opts.augment.alpha = a;
            }
            _ => return usage(),
        }
        i += 1;
    }

    // Load: embedded benchmark name or .soc file.
    let soc = match by_name(input) {
        Some(s) => s,
        None => match fs::read_to_string(input) {
            Ok(text) => match parse_soc(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: cannot read {input}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let rsn = match generate(&soc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let mut lint_errors = 0usize;
    // (name, network, lint options): the synthesized network is linted
    // with the options its synthesis report gives.
    let mut emitted: Vec<(String, rsn_core::Rsn, VerifyOptions)> =
        vec![(soc.name.clone(), rsn.clone(), VerifyOptions::default())];
    if ft {
        match synthesize(&rsn, &opts) {
            Ok(result) => {
                println!(
                    "synthesized: +{} muxes, +{} bits",
                    result.report.added_muxes, result.report.added_bits,
                );
                let vopts = result.report.verify_options();
                emitted.push((format!("{}_ft", soc.name), result.rsn, vopts));
            }
            Err(e) => {
                eprintln!("error: synthesis failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for (name, network, vopts) in &emitted {
        let v = out_dir.join(format!("{name}.v"));
        let icl = out_dir.join(format!("{name}.icl"));
        if let Err(e) = fs::write(&v, to_verilog(network)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = fs::write(&icl, to_icl(network)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "{name}: {} segments, {} muxes, {} bits -> {} / {}",
            network.segments().count(),
            network.muxes().count(),
            network.total_bits(),
            v.display(),
            icl.display()
        );
        if lint {
            let vreport = rsn_verify::verify_with(network, *vopts);
            print!("{}", indent(&vreport.render()));
            lint_errors += vreport.error_count();
        }
        if report {
            let profile = if name.ends_with("_ft") {
                HardeningProfile::hardened()
            } else {
                HardeningProfile::unhardened()
            };
            let m = analyze(network, profile);
            println!("  metric: {m}");
        }
    }
    if lint_errors > 0 {
        eprintln!("error: static verification found {lint_errors} error-severity diagnostic(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("  lint: {l}\n"))
        .collect::<String>()
}
