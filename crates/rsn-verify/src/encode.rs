//! One-shot CNF encoding of a network's control logic and active-path
//! membership, queried incrementally through solver assumptions.
//!
//! The encoding mirrors the semantics of `rsn_core::path`: a node is *on
//! path* iff some successor chain reaches a scan-out port (primary or
//! secondary) with every traversed multiplexer steered to the traversed
//! input — equivalently, iff some `trace_path_from(port, cfg)` contains
//! the node. Every
//! check of the exhaustive engine is a satisfiability question over this
//! single formula, so the CNF is built once per network and each query is
//! one [`Solver::solve_with`](rsn_sat::Solver::solve_with) call — learnt
//! clauses carry over between queries *within one scratch*.
//!
//! The model itself is immutable after [`NetworkSat::build`]: every
//! clause (including derived query gates) is added upfront, and queries
//! run against a caller-owned [`SatScratch`] — a private clone of the
//! pristine solver. That split lets one `Arc<NetworkSat>` serve many
//! concurrent requests, each with its own search state.

use std::collections::HashMap;

use rsn_core::{Config, ControlExpr, InputId, NodeId, NodeKind, Rsn};
use rsn_sat::{CnfBuilder, Lit, Solver};

/// Structural provenance of an emitted clause: which piece of the
/// network the clause encodes. Stored once per clause as an index into a
/// compact side table — the explanation engine maps minimized UNSAT
/// cores back through it to nodes, mux ports and select predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClauseOrigin {
    /// Encoder infrastructure (constant literals); never cut.
    Base,
    /// The select-predicate expression of a segment.
    Select(NodeId),
    /// The address-bit expressions of a mux.
    MuxAddr(NodeId),
    /// The decode conjunction "address == k" of `(mux, input k)`; cutting
    /// it corresponds to cutting the dataflow edge `inputs[k] → mux`.
    MuxPort(NodeId, usize),
    /// The on-path-membership gate of a node.
    OnPath(NodeId),
    /// The `select XOR onpath` query gate of a segment (definitional;
    /// never cut).
    Mismatch(NodeId),
    /// The out-of-range-decode query gate of a mux (definitional; never
    /// cut).
    Overflow(NodeId),
}

/// The CNF model of one network: variables for the control bits (the
/// shadow bits some select predicate or mux address reads) and every
/// primary input, plus derived literals for select predicates, mux input
/// conditions and on-path membership. Immutable once built; queries go
/// through a [`SatScratch`].
pub struct NetworkSat {
    /// The encoder and its pristine solver. No query ever touches this
    /// solver — scratches clone it.
    cnf: CnfBuilder,
    /// Per shadow bit (config bit order): its literal if an encoded
    /// expression reads the bit. No clause mentions any other bit, so
    /// every value of it extends every model.
    bits: Vec<Option<Lit>>,
    /// One literal per primary control input.
    inputs: Vec<Lit>,
    /// `onpath[node]`: the node lies on the active path to the primary
    /// scan-out port.
    onpath: Vec<Lit>,
    /// `select[node]`: the segment's select predicate (segments only).
    select: Vec<Option<Lit>>,
    /// `(mux, input index)` → address decodes to that input.
    cond: HashMap<(NodeId, usize), Lit>,
    /// `mismatch[node] = select XOR onpath` (segments only).
    mismatch: Vec<Option<Lit>>,
    /// Mux → address decodes beyond the input count (only present when
    /// the address space is wider than the input list).
    overflow: HashMap<NodeId, Lit>,
    /// Provenance side table: clause tags recorded by the builder index
    /// into this vector.
    origins: Vec<ClauseOrigin>,
}

// Compile-time guarantee: the artifact stays shareable across threads.
// A future field with interior mutability (Cell, Rc, raw pointers) fails
// here instead of at a distant Arc use site.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<NetworkSat>()
};

/// Caller-owned mutable query state for one [`NetworkSat`]: a private
/// clone of the pristine solver plus a query counter. Learnt clauses
/// accumulate here, never in the shared model.
#[derive(Debug, Clone)]
pub struct SatScratch {
    solver: Solver,
    queries: usize,
}

impl SatScratch {
    /// Number of SAT queries issued through this scratch.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Direct solver access for the explanation engine (core extraction,
    /// blocking clauses). Counts as zero queries; the engine reports its
    /// own metrics.
    pub(crate) fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }
}

impl NetworkSat {
    /// Builds the CNF for `rsn`. Linear in network plus expression size.
    pub fn build(rsn: &Rsn) -> NetworkSat {
        let mut cnf = CnfBuilder::new();
        // Provenance is always recorded: the per-clause cost is one flat
        // push, and the explanation engine needs the table on demand.
        cnf.record_provenance();
        // Only the selects and mux addresses are encoded, so only the bits
        // they read get a variable: data bits would be decided on every
        // satisfiable query without ever being constrained.
        let mut refs = Vec::new();
        for s in rsn.segments() {
            let seg = rsn.node(s).as_segment().expect("segment");
            seg.select.collect_reg_refs(&mut refs);
        }
        for m in rsn.muxes() {
            for e in &rsn.node(m).as_mux().expect("mux").addr_bits {
                e.collect_reg_refs(&mut refs);
            }
        }
        let mut read = vec![false; rsn.shadow_bits() as usize];
        for (node, bit) in refs {
            let off = rsn.shadow_offset(node).expect("validated reference");
            read[(off + bit) as usize] = true;
        }
        let bits: Vec<Option<Lit>> = read.iter().map(|&r| r.then(|| cnf.new_lit())).collect();
        let inputs: Vec<Lit> = (0..rsn.num_inputs()).map(|_| cnf.new_lit()).collect();

        let mut me = NetworkSat {
            cnf,
            bits,
            inputs,
            onpath: Vec::new(),
            select: vec![None; rsn.node_count()],
            cond: HashMap::new(),
            mismatch: vec![None; rsn.node_count()],
            overflow: HashMap::new(),
            origins: Vec::new(),
        };

        // Tag 0 = Base; force the constant literal into existence here so
        // its unit clause is not misattributed to a later region.
        me.begin(ClauseOrigin::Base);
        let _ = me.cnf.lit_true();

        // Select predicates.
        for s in rsn.segments() {
            me.begin(ClauseOrigin::Select(s));
            let e = &rsn.node(s).as_segment().expect("segment").select;
            let l = me.expr_lit(rsn, e);
            me.select[s.index()] = Some(l);
        }

        // Mux input conditions: address equals the input index.
        for m in rsn.muxes() {
            let mux = rsn.node(m).as_mux().expect("mux").clone();
            me.begin(ClauseOrigin::MuxAddr(m));
            let addr: Vec<Lit> = mux.addr_bits.iter().map(|e| me.expr_lit(rsn, e)).collect();
            for k in 0..mux.inputs.len() {
                me.begin(ClauseOrigin::MuxPort(m, k));
                let conj: Vec<Lit> = addr
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| if (k >> i) & 1 == 1 { b } else { !b })
                    .collect();
                let lit = me.cnf.and(conj);
                me.cond.insert((m, k), lit);
            }
        }

        // On-path membership in reverse topological order (the formula of
        // `rsn-bmc`'s select-consistency check, factored here so every
        // check shares it).
        let n = rsn.node_count();
        let fals = me.cnf.lit_false();
        me.onpath = vec![fals; n];
        for &v in rsn.topo_order().iter().rev() {
            me.begin(ClauseOrigin::OnPath(v));
            let l = match rsn.node(v).kind() {
                // Every scan-out port terminates a scan path: a segment
                // steered toward a secondary port is as observable (and as
                // much "selected") as one on the primary path.
                NodeKind::ScanOut => me.cnf.lit_true(),
                _ => {
                    let mut alts = Vec::new();
                    for &w in rsn.successors(v) {
                        match rsn.node(w).kind() {
                            NodeKind::Mux(mux) => {
                                for (k, &inp) in mux.inputs.iter().enumerate() {
                                    if inp == v {
                                        let c = me.cond[&(w, k)];
                                        let a = me.cnf.and([me.onpath[w.index()], c]);
                                        alts.push(a);
                                    }
                                }
                            }
                            _ => alts.push(me.onpath[w.index()]),
                        }
                    }
                    me.cnf.or(alts)
                }
            };
            me.onpath[v.index()] = l;
        }

        // Derived query gates, built upfront: the solver only accepts new
        // clauses at decision level 0, i.e. before the first query.
        for s in rsn.segments() {
            me.begin(ClauseOrigin::Mismatch(s));
            let sel = me.select[s.index()].expect("select literal");
            let on = me.onpath[s.index()];
            me.mismatch[s.index()] = Some(me.cnf.xor(sel, on));
        }
        for m in rsn.muxes() {
            let mux = rsn.node(m).as_mux().expect("mux");
            let n_inputs = mux.inputs.len();
            let span = 1usize << mux.addr_bits.len().min(usize::BITS as usize - 1);
            if n_inputs < span {
                me.begin(ClauseOrigin::Overflow(m));
                // The input conditions partition the address space, so an
                // out-of-range decode is exactly "no valid condition holds".
                let conds: Vec<Lit> = (0..n_inputs).map(|k| me.cond[&(m, k)]).collect();
                let in_range = me.cnf.or(conds);
                me.overflow.insert(m, !in_range);
            }
        }

        me
    }

    /// Opens a provenance region: clauses emitted from here to the next
    /// `begin` carry `origin`.
    fn begin(&mut self, origin: ClauseOrigin) {
        let tag = self.origins.len() as u32;
        self.origins.push(origin);
        self.cnf.set_tag(tag);
    }

    /// Encodes a control expression over the state literals.
    fn expr_lit(&mut self, rsn: &Rsn, e: &ControlExpr) -> Lit {
        match e {
            ControlExpr::Const(b) => self.cnf.constant(*b),
            ControlExpr::Reg(node, bit) => {
                let off = rsn.shadow_offset(*node).expect("validated reference");
                self.bits[(off + *bit) as usize].expect("read bits have a literal")
            }
            ControlExpr::Input(i) => self.inputs[i.0 as usize],
            ControlExpr::Not(inner) => !self.expr_lit(rsn, inner),
            ControlExpr::And(es) => {
                let lits: Vec<Lit> = es.iter().map(|x| self.expr_lit(rsn, x)).collect();
                self.cnf.and(lits)
            }
            ControlExpr::Or(es) => {
                let lits: Vec<Lit> = es.iter().map(|x| self.expr_lit(rsn, x)).collect();
                self.cnf.or(lits)
            }
        }
    }

    /// On-path literal of a node.
    pub fn onpath(&self, node: NodeId) -> Lit {
        self.onpath[node.index()]
    }

    /// Select literal of a segment.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a segment.
    pub fn select(&self, node: NodeId) -> Lit {
        self.select[node.index()].expect("select literal of a segment")
    }

    /// Condition literal for mux `m` decoding input `k`.
    pub fn mux_cond(&self, m: NodeId, k: usize) -> Lit {
        self.cond[&(m, k)]
    }

    /// `select XOR onpath` literal of a segment.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a segment.
    pub fn select_mismatch(&self, node: NodeId) -> Lit {
        self.mismatch[node.index()].expect("mismatch literal of a segment")
    }

    /// Out-of-range-decode literal of mux `m`, or `None` when the address
    /// space exactly covers the inputs.
    pub fn addr_overflow(&self, m: NodeId) -> Option<Lit> {
        self.overflow.get(&m).copied()
    }

    /// A fresh query scratch: a private clone of the pristine solver.
    /// Cheap relative to [`build`](NetworkSat::build) (no re-encoding),
    /// and independent scratches never contend.
    pub fn scratch(&self) -> SatScratch {
        SatScratch {
            solver: self.cnf.solver().clone(),
            queries: 0,
        }
    }

    /// Asks whether the formula is satisfiable under `assumptions`; on
    /// success extracts the witness configuration from the model. Bits
    /// without a literal (read by no select or mux address) are 0.
    pub fn witness(
        &self,
        rsn: &Rsn,
        scratch: &mut SatScratch,
        assumptions: &[Lit],
    ) -> Option<Config> {
        scratch.queries += 1;
        if !scratch.solver.solve_with(assumptions) {
            return None;
        }
        let mut config = Config::zeroed(self.bits.len(), rsn.num_inputs());
        for (i, l) in self.bits.iter().enumerate() {
            if l.is_some_and(|l| scratch.solver.lit_value_model(l) == Some(true)) {
                config.set_bit(i, true);
            }
        }
        for (i, &l) in self.inputs.iter().enumerate() {
            if scratch.solver.lit_value_model(l) == Some(true) {
                config.set_input(InputId(i as u32), true);
            }
        }
        Some(config)
    }

    /// Asks whether the formula is satisfiable under `assumptions`
    /// without extracting a model.
    pub fn satisfiable(&self, scratch: &mut SatScratch, assumptions: &[Lit]) -> bool {
        scratch.queries += 1;
        scratch.solver.solve_with(assumptions)
    }

    /// Number of variables in the model (control-bit and input literals
    /// plus Tseitin gate outputs).
    pub fn model_vars(&self) -> usize {
        self.cnf.solver().num_vars()
    }

    /// Per shadow bit, in config bit order, its literal: `None` for a bit
    /// no select predicate or mux address reads (it has no variable).
    pub fn bit_lits(&self) -> &[Option<Lit>] {
        &self.bits
    }

    /// The primary-input literals, in input order.
    pub fn input_lits(&self) -> &[Lit] {
        &self.inputs
    }

    /// Iterates over every recorded clause of the model together with
    /// its structural origin, in emission order. The explanation engine
    /// re-assembles guarded copies of the formula from this.
    pub fn recorded_clauses(&self) -> impl Iterator<Item = (&[Lit], ClauseOrigin)> + '_ {
        self.cnf
            .recorded()
            .map(move |(lits, tag)| (lits, self.origins[tag as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::sib_tree;
    use rsn_core::RsnBuilder;

    #[test]
    fn mux_address_bits_get_a_variable() {
        // `ctl[0]` steers the mux, but no select predicate reads it.
        let mut b = RsnBuilder::new("address-only");
        let ctl = b.add_segment("ctl", 1);
        let a = b.add_segment("a", 3);
        let c = b.add_segment("c", 2);
        b.connect(b.scan_in(), ctl);
        b.connect(ctl, a);
        b.connect(ctl, c);
        let m = b.add_mux("m", vec![a, c], vec![ControlExpr::reg(ctl, 0)]);
        b.connect(m, b.scan_out());
        let rsn = b.finish().expect("builds");
        let off = |n: NodeId| rsn.shadow_offset(n).expect("shadow") as usize;

        let sat = NetworkSat::build(&rsn);
        assert!(sat.bit_lits()[off(ctl)].is_some());
        assert!(sat.bit_lits()[off(a)..off(a) + 3]
            .iter()
            .all(Option::is_none));
        assert!(sat.bit_lits()[off(c)..off(c) + 2]
            .iter()
            .all(Option::is_none));
        let mut scratch = sat.scratch();
        let cfg = sat
            .witness(&rsn, &mut scratch, &[sat.mux_cond(m, 1)])
            .expect("input 1 is selectable");
        assert!(cfg.bit(off(ctl)));
        assert!(rsn.trace_path(&cfg).expect("traces").contains(c));
    }

    #[test]
    fn data_bits_get_no_variable() {
        // The same SIB tree with 4-bit and 4096-bit instruments: the two
        // differ only in instrument (data) bits, which no select or mux
        // address reads.
        let small = sib_tree(2, 2, 4);
        let large = sib_tree(2, 2, 4096);
        assert!(large.shadow_bits() > small.shadow_bits() + 4000);
        let (small_sat, large_sat) = (NetworkSat::build(&small), NetworkSat::build(&large));
        assert_eq!(small_sat.model_vars(), large_sat.model_vars());

        let verify = |rsn| crate::verify_with(rsn, crate::VerifyOptions::default());
        let (small_report, large_report) = (verify(&small), verify(&large));
        assert!(small_report.is_clean(), "{}", small_report.render());
        assert!(large_report.is_clean(), "{}", large_report.render());
        assert_eq!(small_report.sat_queries, large_report.sat_queries);

        // A witness routing an instrument onto the scan path leaves every
        // instrument bit 0 and replays through the simulator.
        let instruments: Vec<NodeId> = large
            .segments()
            .filter(|&s| large.node(s).as_segment().expect("segment").length == 4096)
            .collect();
        assert_eq!(instruments.len(), 8);
        for &leaf in &instruments {
            let mut scratch = large_sat.scratch();
            let query = [large_sat.onpath(leaf), large_sat.select(leaf)];
            let cfg = large_sat
                .witness(&large, &mut scratch, &query)
                .expect("every instrument is accessible");
            for &seg in &instruments {
                let off = large.shadow_offset(seg).expect("instrument shadow") as usize;
                assert!((off..off + 4096).all(|i| !cfg.bit(i)), "instrument bit set");
            }
            let path = large.trace_path(&cfg).expect("witness traces");
            assert!(path.contains(leaf), "witness does not route the instrument");
            assert!(large.select(leaf, &cfg).expect("select evaluates"));
        }
    }
}
