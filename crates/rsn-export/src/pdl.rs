//! IEEE 1687 PDL (Procedural Description Language) emission.
//!
//! Turns fault-free access plans ([`Rsn::plan_access`]) into the
//! `iWrite`/`iRead`/`iApply` command sequences a 1687 retargeting tool
//! would replay on the tester: each CSU of the plan becomes one `iApply`
//! preceded by the register writes that CSU performs. This is the
//! executable counterpart of the paper's access computation.

use std::fmt::Write as _;

use rsn_core::access::AccessPlan;
use rsn_core::{Config, NodeId, Rsn};

use crate::ident;

/// Formats a register value as a PDL binary literal (`5'b10110`).
fn bin_literal(bits: &[bool]) -> String {
    let mut s = format!("{}'b", bits.len());
    // PDL literals are written MSB first; our bit 0 is the LSB.
    for &b in bits.iter().rev() {
        s.push(if b { '1' } else { '0' });
    }
    s
}

/// Register values of a segment in a configuration.
fn reg_value(rsn: &Rsn, cfg: &Config, seg: NodeId) -> Option<Vec<bool>> {
    let off = rsn.shadow_offset(seg)?;
    let len = rsn.shadow_len(seg);
    Some((0..len).map(|i| cfg.bit((off + i) as usize)).collect())
}

/// Emits the `iWrite` lines for the registers that differ between two
/// configurations.
fn emit_diff(rsn: &Rsn, out: &mut String, prev: &Config, next: &Config) {
    for seg in rsn.segments() {
        let (Some(a), Some(b)) = (reg_value(rsn, prev, seg), reg_value(rsn, next, seg)) else {
            continue;
        };
        if a != b {
            let _ = writeln!(
                out,
                "    iWrite {} {};",
                ident(rsn.node(seg).name()),
                bin_literal(&b)
            );
        }
    }
}

/// Emits a PDL procedure performing a *write* access per the plan: the
/// setup CSUs followed by the data write. `from` is the configuration the
/// plan starts from; each setup CSU writes the registers that differ from
/// the configuration before it.
///
/// # Example
///
/// ```
/// use rsn_core::examples::sib_tree;
/// use rsn_export::pdl::write_access_pdl;
///
/// let rsn = sib_tree(1, 2, 4);
/// let leaf = rsn.find("t00.seg").expect("leaf");
/// let reset = rsn.reset_config();
/// let plan = rsn.plan_access(leaf, &reset)?;
/// let pdl = write_access_pdl(&rsn, &plan, &reset, &[true, false, true, true]);
/// assert!(pdl.contains("iApply;"));
/// assert!(pdl.contains("iWrite t00_seg 4'b1101;"));
/// # Ok::<(), rsn_core::Error>(())
/// ```
pub fn write_access_pdl(rsn: &Rsn, plan: &AccessPlan, from: &Config, value: &[bool]) -> String {
    let target = ident(rsn.node(plan.target).name());
    let data = format!("iWrite {target} {}", bin_literal(value));
    access_pdl(rsn, plan, from, "write", &data)
}

/// Emits a PDL procedure performing a *read* access per the plan: setup
/// CSUs (as for [`write_access_pdl`]), then a read with an optional
/// expected value.
pub fn read_access_pdl(
    rsn: &Rsn,
    plan: &AccessPlan,
    from: &Config,
    expect: Option<&[bool]>,
) -> String {
    let target = ident(rsn.node(plan.target).name());
    let data = match expect {
        Some(bits) => format!("iRead {target} {}", bin_literal(bits)),
        None => format!("iRead {target}"),
    };
    access_pdl(rsn, plan, from, "read", &data)
}

/// The procedure `<kind>_<target>`: one `iApply` per setup CSU, preceded
/// by its register writes, then the `data` command and its `iApply`.
fn access_pdl(rsn: &Rsn, plan: &AccessPlan, from: &Config, kind: &str, data: &str) -> String {
    let mut out = String::new();
    let target = ident(rsn.node(plan.target).name());
    let _ = writeln!(out, "iProcGroup {};", ident(rsn.name()));
    let _ = writeln!(out, "iProc {kind}_{target} {{}} {{");
    let mut prev = from;
    for step in &plan.steps {
        emit_diff(rsn, &mut out, prev, step);
        let _ = writeln!(out, "    iApply;");
        prev = step;
    }
    let _ = writeln!(out, "    {data};");
    let _ = writeln!(out, "    iApply;");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, sib_tree};

    #[test]
    fn chain_write_needs_single_apply_pair() {
        let rsn = chain(3, 4);
        let s1 = rsn.find("S1").expect("segment");
        let reset = rsn.reset_config();
        let plan = rsn.plan_access(s1, &reset).expect("plan");
        let pdl = write_access_pdl(&rsn, &plan, &reset, &[true; 4]);
        assert_eq!(pdl.matches("iApply;").count(), 1, "{pdl}");
        assert!(pdl.contains("iWrite S1 4'b1111;"));
    }

    #[test]
    fn nested_target_opens_hierarchy_first() {
        let rsn = sib_tree(2, 2, 4);
        let leaf = rsn.find("t000.seg").expect("leaf");
        let reset = rsn.reset_config();
        let plan = rsn.plan_access(leaf, &reset).expect("plan");
        let pdl = write_access_pdl(&rsn, &plan, &reset, &[false, true, false, true]);
        // Two hierarchy levels: two setup applies + the data apply.
        assert_eq!(pdl.matches("iApply;").count(), 3, "{pdl}");
        assert!(pdl.contains("iWrite t0_sib 1'b1;"), "{pdl}");
        assert!(pdl.contains("iWrite t00_sib 1'b1;"), "{pdl}");
        assert!(pdl.contains("iWrite t000_seg 4'b1010;"), "{pdl}");
    }

    #[test]
    fn read_pdl_emits_iread_with_expectation() {
        let rsn = sib_tree(1, 2, 2);
        let leaf = rsn.find("t10.seg").expect("leaf");
        let reset = rsn.reset_config();
        let plan = rsn.plan_access(leaf, &reset).expect("plan");
        let pdl = read_access_pdl(&rsn, &plan, &reset, Some(&[true, false]));
        assert!(pdl.contains("iRead t10_seg 2'b01;"), "{pdl}");
        let pdl = read_access_pdl(&rsn, &plan, &reset, None);
        assert!(pdl.contains("iRead t10_seg;"), "{pdl}");
    }

    #[test]
    fn setup_writes_diff_against_the_plan_start() {
        // Plan from a configuration with t0.sib already open: only t00.sib
        // still needs opening, and t0.sib is not written again.
        let rsn = sib_tree(2, 2, 4);
        let leaf = rsn.find("t000.seg").expect("leaf");
        let t0 = rsn.find("t0.sib").expect("sib");
        let mut from = rsn.reset_config();
        from.set_bit(rsn.shadow_offset(t0).expect("shadow") as usize, true);
        let plan = rsn.plan_access(leaf, &from).expect("plan");
        assert_eq!(plan.csu_count(), 1);
        for pdl in [
            write_access_pdl(&rsn, &plan, &from, &[false; 4]),
            read_access_pdl(&rsn, &plan, &from, None),
        ] {
            assert_eq!(pdl.matches("iApply;").count(), 2, "{pdl}");
            assert!(pdl.contains("iWrite t00_sib 1'b1;"), "{pdl}");
            assert!(!pdl.contains("t0_sib"), "{pdl}");
        }
    }

    #[test]
    fn binary_literals_are_msb_first() {
        assert_eq!(bin_literal(&[true, false, false]), "3'b001");
        assert_eq!(bin_literal(&[false, true]), "2'b10");
        assert_eq!(bin_literal(&[]), "0'b");
    }
}
