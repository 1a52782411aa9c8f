//! SAT-based verification of select-signal consistency.
//!
//! A configuration is *valid* when every segment's select predicate agrees
//! with its active-scan-path membership (exactly one active scan path).
//! For generated networks this holds by construction; for hand-written
//! networks or materialized synthesized selects it is worth proving. This
//! module encodes the question `∃ configuration c, segment s:
//! Select(c, s) ≠ onpath(c, s)` as one SAT query — feasible for networks
//! far beyond exhaustive configuration enumeration.

use rsn_core::{Config, ControlExpr, NodeId, NodeKind, Rsn};
use rsn_sat::{CnfBuilder, Lit};

/// A witness of select/path disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectMismatch {
    /// The disagreeing segment.
    pub segment: NodeId,
    /// A configuration exhibiting the disagreement.
    pub config: Config,
}

/// Proves select/path consistency over *all* configurations, or returns a
/// counterexample.
///
/// # Example
///
/// ```
/// use rsn_bmc::verify_select_consistency;
/// use rsn_core::examples::{fig2, sib_tree};
///
/// assert!(verify_select_consistency(&fig2()).is_none());
/// assert!(verify_select_consistency(&sib_tree(2, 2, 4)).is_none());
/// ```
pub fn verify_select_consistency(rsn: &Rsn) -> Option<SelectMismatch> {
    let mut cnf = CnfBuilder::new();
    let n_bits = rsn.shadow_bits() as usize;
    let bits: Vec<Lit> = (0..n_bits).map(|_| cnf.new_lit()).collect();
    let inputs: Vec<Lit> = (0..rsn.num_inputs()).map(|_| cnf.new_lit()).collect();

    let encode = |cnf: &mut CnfBuilder, e: &ControlExpr| -> Lit {
        fn go(
            cnf: &mut CnfBuilder,
            rsn: &Rsn,
            bits: &[Lit],
            inputs: &[Lit],
            e: &ControlExpr,
        ) -> Lit {
            match e {
                ControlExpr::Const(b) => cnf.constant(*b),
                ControlExpr::Reg(node, bit) => {
                    let off = rsn.shadow_offset(*node).expect("validated reference");
                    bits[(off + *bit) as usize]
                }
                ControlExpr::Input(i) => inputs[i.0 as usize],
                ControlExpr::Not(inner) => !go(cnf, rsn, bits, inputs, inner),
                ControlExpr::And(es) => {
                    let lits: Vec<Lit> = es.iter().map(|x| go(cnf, rsn, bits, inputs, x)).collect();
                    cnf.and(lits)
                }
                ControlExpr::Or(es) => {
                    let lits: Vec<Lit> = es.iter().map(|x| go(cnf, rsn, bits, inputs, x)).collect();
                    cnf.or(lits)
                }
            }
        }
        go(cnf, rsn, &bits, &inputs, e)
    };

    // Mux input conditions.
    let mut cond: std::collections::HashMap<(NodeId, usize), Lit> =
        std::collections::HashMap::new();
    for m in rsn.muxes() {
        let mux = rsn.node(m).as_mux().expect("mux");
        for k in 0..mux.inputs.len() {
            let mut conj = Vec::new();
            for (i, e) in mux.addr_bits.iter().enumerate() {
                let b = encode(&mut cnf, e);
                conj.push(if (k >> i) & 1 == 1 { b } else { !b });
            }
            let lit = cnf.and(conj);
            cond.insert((m, k), lit);
        }
    }

    // onpath literals in reverse topological order.
    let n = rsn.node_count();
    let mut onpath = vec![cnf.lit_false(); n];
    for &v in rsn.topo_order().iter().rev() {
        let l = match rsn.node(v).kind() {
            NodeKind::ScanOut if v == rsn.scan_out() => cnf.lit_true(),
            NodeKind::ScanOut => cnf.lit_false(),
            _ => {
                let mut alts = Vec::new();
                for &w in rsn.successors(v) {
                    match rsn.node(w).kind() {
                        NodeKind::Mux(mux) => {
                            for (k, &inp) in mux.inputs.iter().enumerate() {
                                if inp == v {
                                    let c = cond[&(w, k)];
                                    let a = cnf.and([onpath[w.index()], c]);
                                    alts.push(a);
                                }
                            }
                        }
                        _ => alts.push(onpath[w.index()]),
                    }
                }
                cnf.or(alts)
            }
        };
        onpath[v.index()] = l;
    }

    // Mismatch detector: OR over segments of select XOR onpath.
    let mut mismatch_lits = Vec::new();
    let segs: Vec<NodeId> = rsn.segments().collect();
    for &s in &segs {
        let sel = encode(&mut cnf, &rsn.node(s).as_segment().expect("segment").select);
        let x = cnf.xor(sel, onpath[s.index()]);
        mismatch_lits.push((s, x));
    }
    let any = cnf.or(mismatch_lits.iter().map(|&(_, l)| l));
    cnf.assert_lit(any);

    let solver = cnf.solver_mut();
    if !solver.solve() {
        return None; // consistent for every configuration
    }
    // Extract the witness.
    let mut config = Config::zeroed(n_bits, rsn.num_inputs());
    for (i, &l) in bits.iter().enumerate() {
        if solver.lit_value_model(l) == Some(true) {
            config.set_bit(i, true);
        }
    }
    for (i, &l) in inputs.iter().enumerate() {
        if solver.lit_value_model(l) == Some(true) {
            config.set_input(rsn_core::InputId(i as u32), true);
        }
    }
    let segment = mismatch_lits
        .iter()
        .find(|&&(_, l)| solver.lit_value_model(l) == Some(true))
        .map(|&(s, _)| s)
        .expect("some mismatch literal is true");
    Some(SelectMismatch { segment, config })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, fig2, sib_tree};
    use rsn_core::{ControlExpr, RsnBuilder};

    #[test]
    fn generated_networks_are_consistent() {
        for rsn in [fig2(), chain(5, 3), sib_tree(2, 2, 4)] {
            assert!(
                verify_select_consistency(&rsn).is_none(),
                "{} must be select-consistent",
                rsn.name()
            );
        }
    }

    #[test]
    fn broken_select_is_caught_with_witness() {
        // Segment C selected by the WRONG polarity.
        let mut b = RsnBuilder::new("broken");
        let a = b.add_segment("A", 1);
        b.set_select(a, ControlExpr::TRUE);
        b.connect(b.scan_in(), a);
        let c1 = b.add_segment("B", 1);
        let c2 = b.add_segment("C", 1);
        b.connect(a, c1);
        b.connect(a, c2);
        let m = b.add_mux("M", vec![c1, c2], vec![ControlExpr::reg(a, 0)]);
        b.connect(m, b.scan_out());
        b.set_select(c1, !ControlExpr::reg(a, 0));
        b.set_select(c2, !ControlExpr::reg(a, 0)); // wrong: should be reg(a,0)
        let rsn = b.finish().expect("structurally valid");
        let mismatch = verify_select_consistency(&rsn).expect("inconsistent");
        // The witness must actually exhibit the mismatch.
        let path = rsn.trace_path(&mismatch.config).expect("traceable");
        let selected = rsn
            .select(mismatch.segment, &mismatch.config)
            .expect("eval");
        assert_ne!(selected, path.contains(mismatch.segment));
    }

    #[test]
    fn suite_scale_consistency_check() {
        // A mid-size generated benchmark verifies in one SAT call.
        let soc = rsn_itc02::by_name("q12710").expect("embedded");
        let rsn = rsn_sib::generate(&soc).expect("generate");
        assert!(verify_select_consistency(&rsn).is_none());
    }

    #[test]
    fn materialized_ft_selects_verify() {
        use rsn_synth::{synthesize, SynthesisOptions};
        let rsn = fig2();
        let mut opts = SynthesisOptions::new();
        opts.secondary_ports = false;
        let ft = synthesize(&rsn, &opts).expect("synthesize");
        assert!(ft.report.selects_materialized);
        assert!(
            verify_select_consistency(&ft.rsn).is_none(),
            "synthesized selects must match path membership everywhere"
        );
    }
}
