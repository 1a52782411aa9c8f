//! SIB-based reconfigurable scan network generation (paper Sec. IV-A).
//!
//! In SIB-based RSNs, *segment insertion bits* (SIBs) — one 1-bit register
//! plus a scan multiplexer — provide a configurable bypass of hierarchies
//! of scan segments (Zadegan et al., DATE'11). Depending on the SIB
//! register value, the multiplexer either connects the lower hierarchy into
//! the scan path or bypasses it.
//!
//! [`generate`] turns an ITC'02-style [`Soc`] description into such an
//! RSN:
//!
//! * each *module* contributes one SIB guarding the module's subnetwork;
//!   nested modules nest their SIBs,
//! * each *scan chain* contributes one SIB guarding a leaf segment of the
//!   chain's length,
//! * *top registers* sit directly on the top-level scan path.
//!
//! The generation contract (relied upon by the embedded `rsn-itc02` suite):
//! `mux = modules + chains`, `segments = mux + chains + top_registers`,
//! `bits = mux + payload_bits`, and the RSN hierarchy depth equals the
//! module nesting depth plus one.
//!
//! # Example
//!
//! ```
//! use rsn_itc02::by_name;
//! use rsn_sib::generate;
//!
//! let soc = by_name("u226").expect("embedded");
//! let rsn = generate(&soc)?;
//! assert_eq!(rsn.muxes().count(), 49);
//! assert_eq!(rsn.segments().count(), 89);
//! assert_eq!(rsn.total_bits(), 1465);
//! # Ok::<(), rsn_core::Error>(())
//! ```

use rsn_core::{ControlExpr, NodeId, Result, Rsn, RsnBuilder};
use rsn_itc02::Soc;

/// Structural statistics of a generated SIB-RSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SibStats {
    /// Number of SIBs (equals the number of scan multiplexers).
    pub sibs: usize,
    /// Number of leaf (chain) segments.
    pub leaves: usize,
    /// Number of direct top-level registers.
    pub top_registers: usize,
    /// Total scan bits, including SIB register bits.
    pub bits: u64,
    /// Hierarchy depth (number of nested SIB levels).
    pub levels: usize,
}

/// Generates a SIB-based RSN from an SoC description.
///
/// # Errors
///
/// Propagates structural validation errors from the RSN builder; a
/// [`Soc`] that passes [`Soc::validate`] always generates successfully.
pub fn generate(soc: &Soc) -> Result<Rsn> {
    let mut b = RsnBuilder::new(soc.name.clone());
    let mut prev = b.scan_in();

    // Direct top-level test data registers.
    for (i, &len) in soc.top_registers.iter().enumerate() {
        let tdr = b.add_segment(format!("tdr{i}"), len);
        b.set_select(tdr, ControlExpr::TRUE);
        b.connect(prev, tdr);
        prev = tdr;
    }

    // Top-level modules in order.
    for idx in soc.top_modules() {
        prev = build_module(&mut b, soc, idx, prev, ControlExpr::TRUE)?;
    }

    let scan_out = b.scan_out();
    b.connect(prev, scan_out);
    b.finish()
}

/// Builds the SIB + subnetwork of module `idx`; returns its exit node.
fn build_module(
    b: &mut RsnBuilder,
    soc: &Soc,
    idx: usize,
    entry: NodeId,
    guard: ControlExpr,
) -> Result<NodeId> {
    let module = &soc.modules[idx];
    let sib = b.add_segment(format!("{}.sib", module.name), 1);
    b.set_select(sib, guard.clone());
    b.connect(entry, sib);

    let inner_guard = guard & ControlExpr::reg(sib, 0);
    let mut inner_prev = sib;

    // Nested modules first, then the module's own chains.
    for child in soc.children(idx) {
        inner_prev = build_module(b, soc, child, inner_prev, inner_guard.clone())?;
    }
    for (ci, &len) in module.chains.iter().enumerate() {
        let csib = b.add_segment(format!("{}.c{ci}.sib", module.name), 1);
        b.set_select(csib, inner_guard.clone());
        b.connect(inner_prev, csib);
        let leaf = b.add_segment(format!("{}.c{ci}.seg", module.name), len);
        b.set_select(leaf, inner_guard.clone() & ControlExpr::reg(csib, 0));
        b.connect(csib, leaf);
        let mux = b.add_mux(
            format!("{}.c{ci}.mux", module.name),
            vec![csib, leaf],
            vec![ControlExpr::reg(csib, 0)],
        );
        inner_prev = mux;
    }

    let mux = b.add_mux(
        format!("{}.mux", module.name),
        vec![sib, inner_prev],
        vec![ControlExpr::reg(sib, 0)],
    );
    Ok(mux)
}

/// Computes structural statistics of a generated SIB-RSN.
///
/// SIBs are recognized by their `.sib` name suffix, leaves by `.seg`, top
/// registers by the `tdr` prefix — the naming contract of [`generate`].
pub fn stats(rsn: &Rsn, soc: &Soc) -> SibStats {
    let sibs = rsn
        .segments()
        .filter(|&s| rsn.node(s).name().ends_with(".sib"))
        .count();
    let leaves = rsn
        .segments()
        .filter(|&s| rsn.node(s).name().ends_with(".seg"))
        .count();
    let top_registers = rsn
        .segments()
        .filter(|&s| rsn.node(s).name().starts_with("tdr"))
        .count();
    SibStats {
        sibs,
        leaves,
        top_registers,
        bits: rsn.total_bits(),
        levels: soc.depth() + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_itc02::{by_name, parse_soc, suite, TABLE1};

    #[test]
    fn generated_networks_verify_clean() {
        for name in ["u226", "d695"] {
            let soc = by_name(name).expect("embedded");
            let rsn = generate(&soc).expect("generate");
            let report = rsn_verify::verify_with(&rsn, rsn_verify::VerifyOptions::default());
            assert!(report.is_clean(), "{name}:\n{}", report.render());
            assert_eq!(report.warning_count(), 0, "{name}:\n{}", report.render());
            assert_eq!(rsn.name(), name);
            assert!(report.sat_queries > 0);
        }
    }

    #[test]
    fn tiny_soc_generates_expected_structure() {
        let soc = parse_soc("SocName tiny\n1 0 0 0 2 : 4 6\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        // 1 module SIB + 2 chain SIBs = 3 muxes; 3 SIBs + 2 leaves = 5 segs.
        assert_eq!(rsn.muxes().count(), 3);
        assert_eq!(rsn.segments().count(), 5);
        assert_eq!(rsn.total_bits(), 3 + 4 + 6);
    }

    #[test]
    fn reset_path_contains_only_top_sibs_and_tdrs() {
        let soc = by_name("u226").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let path = rsn.active_path(&rsn.reset_config()).expect("valid reset");
        let on_path: Vec<&str> = path.segments(&rsn).map(|s| rsn.node(s).name()).collect();
        // Top-level: 1 tdr + 10 module SIBs.
        assert_eq!(on_path.len(), 11, "{on_path:?}");
        assert!(on_path[0].starts_with("tdr"));
        assert!(on_path[1..].iter().all(|n| n.ends_with(".sib")));
    }

    #[test]
    fn every_segment_is_accessible_fault_free() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 6\n2 0 0 0 1 : 3\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        for seg in rsn.segments() {
            assert!(
                rsn.is_accessible(seg),
                "{} must be accessible",
                rsn.node(seg).name()
            );
        }
    }

    #[test]
    fn nested_module_sibs_nest() {
        use rsn_itc02::{Module, Soc};
        let soc = Soc {
            name: "nest".into(),
            modules: vec![Module::top("a", vec![2]), Module::child("b", 0, vec![3])],
            top_registers: vec![],
        };
        let rsn = generate(&soc).expect("generate");
        // Opening only a.sib exposes b.sib but not b's chain.
        let a_sib = rsn.find("a.sib").expect("a.sib");
        let b_sib = rsn.find("b.sib").expect("b.sib");
        let mut cfg = rsn.reset_config();
        cfg.set_bit(rsn.shadow_offset(a_sib).expect("shadow") as usize, true);
        let path = rsn.active_path(&cfg).expect("valid");
        assert!(path.contains(b_sib));
        let b_leaf = rsn.find("b.c0.seg").expect("leaf");
        assert!(!path.contains(b_leaf));
    }

    #[test]
    fn whole_suite_matches_table1_characteristics() {
        for (soc, t) in suite().iter().zip(TABLE1) {
            let rsn = generate(soc).expect("generate");
            assert_eq!(rsn.muxes().count(), t.mux, "{}: mux", t.name);
            assert_eq!(rsn.segments().count(), t.segments, "{}: segments", t.name);
            assert_eq!(rsn.total_bits(), t.bits, "{}: bits", t.name);
            let st = stats(&rsn, soc);
            assert_eq!(st.levels, t.levels, "{}: levels", t.name);
            assert_eq!(st.sibs, t.mux, "{}: sibs == mux", t.name);
        }
    }

    #[test]
    fn deep_leaf_access_plan_length_matches_depth() {
        // x1331 has 4 levels; a leaf in the deepest module needs 4 CSUs.
        let soc = by_name("x1331").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let deepest = (0..soc.modules.len())
            .max_by_key(|&i| soc.module_depth(i))
            .expect("has modules");
        assert_eq!(soc.module_depth(deepest), 3);
        let leaf = rsn
            .find(&format!("{}.c0.seg", soc.modules[deepest].name))
            .expect("leaf exists");
        let plan = rsn.plan_access(leaf, &rsn.reset_config()).expect("plan");
        assert_eq!(plan.csu_count(), 4);
    }

    #[test]
    fn stats_counts_components() {
        let soc = by_name("q12710").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let st = stats(&rsn, &soc);
        assert_eq!(st.sibs, 25);
        assert_eq!(st.leaves, 20);
        assert_eq!(st.top_registers, 1);
        assert_eq!(st.bits, 26183);
    }
}
