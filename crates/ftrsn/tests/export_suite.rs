//! Suite-wide export checks: every embedded benchmark (original and
//! fault-tolerant) emits structurally sane Verilog and ICL, and PDL
//! scripts for sampled accesses.

use ftrsn::export::{read_access_pdl, to_icl, to_verilog, write_access_pdl};
use ftrsn::itc02::suite;
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SynthesisOptions};

#[test]
fn whole_suite_exports_verilog_and_icl() {
    for soc in suite() {
        let rsn = generate(&soc).expect("generate");
        let v = to_verilog(&rsn);
        let icl = to_icl(&rsn);
        assert!(
            v.contains(&format!("module {} (", soc.name)),
            "{}",
            soc.name
        );
        assert!(v.contains("endmodule"), "{}", soc.name);
        assert_eq!(
            icl.matches('{').count(),
            icl.matches('}').count(),
            "{}: unbalanced ICL",
            soc.name
        );
        // One ScanRegister per segment.
        assert_eq!(
            icl.matches("ScanRegister ").count(),
            rsn.segments().count(),
            "{}",
            soc.name
        );
        // One ScanMux per multiplexer.
        assert_eq!(
            icl.matches("ScanMux ").count(),
            rsn.muxes().count(),
            "{}",
            soc.name
        );
    }
}

#[test]
fn small_suite_ft_exports() {
    for name in ["u226", "x1331", "q12710"] {
        let soc = suite()
            .into_iter()
            .find(|s| s.name == name)
            .expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let v = to_verilog(&ft.rsn);
        assert!(v.contains("si2"), "{name}: secondary scan-in");
        assert!(v.contains("/* TMR address net */"), "{name}");
        let icl = to_icl(&ft.rsn);
        assert!(icl.contains("ScanInPort SI2;"), "{name}");
    }
}

#[test]
fn pdl_scripts_cover_sampled_accesses() {
    let soc = suite()
        .into_iter()
        .find(|s| s.name == "q12710")
        .expect("embedded");
    let rsn = generate(&soc).expect("generate");
    let reset = rsn.reset_config();
    for seg in rsn.segments().take(10) {
        let plan = rsn.plan_access(seg, &reset).expect("plan");
        let len = rsn.node(seg).as_segment().expect("segment").length as usize;
        let value = vec![false; len];
        let w = write_access_pdl(&rsn, &plan, &reset, &value);
        let r = read_access_pdl(&rsn, &plan, &reset, None);
        // One iApply per setup CSU plus the data apply.
        assert_eq!(
            w.matches("iApply;").count(),
            plan.csu_count() + 1,
            "{}",
            rsn.node(seg).name()
        );
        assert!(r.contains("iRead"), "{}", rsn.node(seg).name());
    }
}
