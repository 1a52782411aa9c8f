//! `lint`: static verification as `rsn-lint` runs it — `NetworkSat::build`
//! then `verify_on` with the serial solver — over SIB networks and their
//! fault-tolerant syntheses. FT networks without materialized selects
//! skip the select checks, as `rsn-lint --ft` does.

use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_synth::SynthesisOptions;
use rsn_verify::{verify_on, NetworkSat, VerifyOptions};

use crate::golden::{self, Facts, Goldens};
use crate::runner::{JobOut, Tracer, Workload};

/// SoCs linted as SIB network and as FT synthesis.
const SIB_AND_FT: [&str; 8] = [
    "u226", "d281", "h953", "g1023", "x1331", "f2126", "q12710", "a586710",
];
/// SoCs linted as SIB network only. Left out, so that a pass (about 5 s
/// on a 2-core host) runs four times in a 20 s window: the SIB networks of
/// t512505 (4.4 s) and p22081 (3.1 s), the FT networks of d695 and p34392
/// (2.2 s each), and p93791, whose SIB and FT verifies take 37 s and
/// 117 s.
const SIB_ONLY: [&str; 2] = ["d695", "p34392"];

/// One verification input.
pub struct LintInput {
    pub name: String,
    pub rsn: Rsn,
    pub opts: VerifyOptions,
}

/// Builds the inputs: SIB networks in Table I order, each followed by
/// its FT synthesis where one is linted.
pub fn inputs() -> Vec<LintInput> {
    let mut out = Vec::new();
    for name in crate::flow::TABLE_ORDER {
        let ft = SIB_AND_FT.contains(&name);
        if !ft && !SIB_ONLY.contains(&name) {
            continue;
        }
        let soc = rsn_itc02::by_name(name).expect("embedded SoC");
        let rsn = rsn_sib::generate(&soc).expect("SIB generation succeeds");
        if ft {
            let synth =
                rsn_synth::synthesize(&rsn, &SynthesisOptions::new()).expect("synthesis succeeds");
            let opts = if synth.report.selects_materialized {
                VerifyOptions::default()
            } else {
                VerifyOptions::without_select_checks()
            };
            out.push(LintInput {
                name: name.to_string(),
                rsn,
                opts: VerifyOptions::default(),
            });
            out.push(LintInput {
                name: format!("{name}-ft"),
                rsn: synth.rsn,
                opts,
            });
        } else {
            out.push(LintInput {
                name: name.to_string(),
                rsn,
                opts: VerifyOptions::default(),
            });
        }
    }
    out
}

pub struct Lint {
    inputs: Vec<LintInput>,
    goldens: Goldens,
    pub facts: Vec<Facts>,
}

impl Lint {
    /// Set-up: the verification inputs.
    pub fn setup() -> Lint {
        let inputs = inputs();
        let facts = vec![Facts::new(); inputs.len()];
        Lint {
            inputs,
            goldens: Goldens::default(),
            facts,
        }
    }
}

impl Workload for Lint {
    type Out = rsn_verify::VerifyReport;

    fn jobs(&self) -> usize {
        self.inputs.len()
    }

    fn job_name(&self, j: usize) -> String {
        self.inputs[j].name.clone()
    }

    fn load_references(&mut self, goldens: &Goldens) {
        self.goldens = goldens.clone();
    }

    fn run(&mut self, j: usize, tr: &Tracer) -> rsn_verify::VerifyReport {
        let input = &self.inputs[j];
        let sat = tr.layer("rsn-verify.cnf_build_s", || NetworkSat::build(&input.rsn));
        tr.layer("rsn-verify.verify_s", || {
            verify_on(&input.rsn, &sat, input.opts, &Budget::unlimited())
        })
    }

    fn check(&mut self, j: usize, report: rsn_verify::VerifyReport) -> JobOut {
        let input = &self.inputs[j];
        let mut out = JobOut::default();
        out.check(
            report.error_count() == 0 && report.warning_count() == 0,
            || {
                format!(
                    "{} error(s), {} warning(s) on a network rsn-lint reports clean",
                    report.error_count(),
                    report.warning_count()
                )
            },
        );
        out.check(report.is_complete(), || {
            format!("incomplete families {:?}", report.incomplete)
        });
        let mut facts = Facts::new();
        facts.insert("queries".into(), report.sat_queries as f64);
        golden::compare(self.goldens.get("lint", &input.name), &facts, &mut out);
        out.add("queries", report.sat_queries as f64);
        self.facts[j] = facts;
        out
    }
}
