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
//!
//! Every clause defines a gate or is the constant-true unit, so each
//! query decides only the fan-in cone of its assumptions: any assignment
//! of the cone that falsifies no clause extends to a full model by
//! evaluating the remaining gates (DESIGN.md §8).

use std::collections::HashMap;

use rsn_core::{Config, ControlExpr, InputId, NodeId, NodeKind, Rsn};
use rsn_sat::{CnfBuilder, Lit, Solver, Var};

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
    /// Gate fan-in in CSR form: the inputs of the gate whose output is
    /// variable `v` are `fanin[fanin_start[v]..fanin_start[v + 1]]`.
    /// Control bits, inputs and the constant have none.
    fanin_start: Vec<u32>,
    fanin: Vec<Var>,
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
    /// The decision scope of the last query: the fan-in closure of its
    /// assumption variables, the only variables switched on.
    scope: Vec<Var>,
    /// Per variable: is it in `scope`? Empty until the first query,
    /// while every variable is still on.
    in_scope: Vec<bool>,
}

impl SatScratch {
    /// Number of SAT queries issued through this scratch.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Direct solver access for the explanation engine (core extraction,
    /// blocking clauses). Counts as zero queries; the engine reports its
    /// own metrics. Every decision flag is on: the engine adds blocking
    /// clauses, which are no gate definitions, so its solves must decide
    /// every variable. It only ever uses fresh scratches this way.
    pub(crate) fn solver_mut(&mut self) -> &mut Solver {
        debug_assert!(self.in_scope.is_empty(), "a narrowed scratch");
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
            fanin_start: Vec::new(),
            fanin: Vec::new(),
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
                let lit = me.and(conj);
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
                                        let a = me.and(vec![me.onpath[w.index()], c]);
                                        alts.push(a);
                                    }
                                }
                            }
                            _ => alts.push(me.onpath[w.index()]),
                        }
                    }
                    me.or(alts)
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
            me.mismatch[s.index()] = Some(me.xor(sel, on));
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
                let in_range = me.or(conds);
                me.overflow.insert(m, !in_range);
            }
        }

        let n_vars = me.cnf.solver().num_vars();
        me.fanin_start.resize(n_vars + 1, me.fanin.len() as u32);
        me
    }

    /// Gate `AND(ins)`, with its fan-in recorded.
    fn and(&mut self, ins: Vec<Lit>) -> Lit {
        let fresh = self.cnf.solver().num_vars();
        let out = self.cnf.and(ins.iter().copied());
        self.record_fanin(fresh, out, &ins);
        out
    }

    /// Gate `OR(ins)`, with its fan-in recorded.
    fn or(&mut self, ins: Vec<Lit>) -> Lit {
        let fresh = self.cnf.solver().num_vars();
        let out = self.cnf.or(ins.iter().copied());
        self.record_fanin(fresh, out, &ins);
        out
    }

    /// Gate `a XOR b`, with its fan-in recorded.
    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let fresh = self.cnf.solver().num_vars();
        let out = self.cnf.xor(a, b);
        self.record_fanin(fresh, out, &[a, b]);
        out
    }

    /// Records `ins` as the fan-in of `out` if `out` is a new gate output,
    /// i.e. variable `fresh`; a gate of fewer than two inputs returns an
    /// existing literal and records nothing.
    fn record_fanin(&mut self, fresh: usize, out: Lit, ins: &[Lit]) {
        if out.var().index() == fresh {
            self.fanin_start.resize(fresh + 1, self.fanin.len() as u32);
            self.fanin.extend(ins.iter().map(|l| l.var()));
        }
    }

    /// The recorded inputs of the gate whose output is `v` (empty for a
    /// control bit, an input or the constant).
    fn fanin(&self, v: Var) -> &[Var] {
        let (i, j) = (self.fanin_start[v.index()], self.fanin_start[v.index() + 1]);
        &self.fanin[i as usize..j as usize]
    }

    /// Switches the scratch's decision flags from the previous query's
    /// scope to the fan-in closure of `assumptions`, at a cost of the two
    /// scopes' sizes (plus one pass over every variable on a fresh
    /// scratch, which starts with every flag on).
    ///
    /// Sound only because every clause of the scratch's solver is a gate
    /// definition, the constant-true unit or a learnt clause implied by
    /// them: once the closure is assigned without conflict, the other
    /// gates evaluate in creation order to a full model that agrees with
    /// everything propagation forced. A solver that holds any other
    /// clause (the explanation engine's blocking clauses) must keep every
    /// flag on, so it is only reached through
    /// [`SatScratch::solver_mut`].
    fn narrow(&self, scratch: &mut SatScratch, assumptions: &[Lit]) {
        let SatScratch {
            solver,
            scope,
            in_scope,
            ..
        } = scratch;
        if in_scope.is_empty() {
            for v in 0..solver.num_vars() {
                solver.set_decision(Var(v as u32), false);
            }
            in_scope.resize(solver.num_vars(), false);
        }
        for &v in scope.iter() {
            in_scope[v.index()] = false;
            solver.set_decision(v, false);
        }
        scope.clear();
        // Breadth-first over the fan-in, using the scope as its queue.
        for l in assumptions {
            if !std::mem::replace(&mut in_scope[l.var().index()], true) {
                scope.push(l.var());
            }
        }
        let mut head = 0;
        while head < scope.len() {
            let v = scope[head];
            head += 1;
            for &u in self.fanin(v) {
                if !std::mem::replace(&mut in_scope[u.index()], true) {
                    scope.push(u);
                }
            }
        }
        for &v in scope.iter() {
            solver.set_decision(v, true);
        }
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
                self.and(lits)
            }
            ControlExpr::Or(es) => {
                let lits: Vec<Lit> = es.iter().map(|x| self.expr_lit(rsn, x)).collect();
                self.or(lits)
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
            scope: Vec::new(),
            in_scope: Vec::new(),
        }
    }

    /// Asks whether the formula is satisfiable under `assumptions`; on
    /// success extracts the witness configuration from the model. The
    /// solve decides only the fan-in cone of the assumptions, so a bit or
    /// input outside it reads 0 unless propagation forced it, and so does
    /// a bit without a literal (read by no select or mux address).
    pub fn witness(
        &self,
        rsn: &Rsn,
        scratch: &mut SatScratch,
        assumptions: &[Lit],
    ) -> Option<Config> {
        scratch.queries += 1;
        self.narrow(scratch, assumptions);
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
    /// without extracting a model, deciding only the fan-in cone of the
    /// assumptions.
    pub fn satisfiable(&self, scratch: &mut SatScratch, assumptions: &[Lit]) -> bool {
        scratch.queries += 1;
        self.narrow(scratch, assumptions);
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
    use rsn_core::examples::{chain, fig2, sib_tree};
    use rsn_core::RsnBuilder;
    use std::collections::HashSet;

    /// A 3-input mux on two address bits (so it can overflow) whose
    /// inputs carry selects built from And, Or, Not and constants over
    /// control bits and primary inputs.
    fn mixed_gates() -> Rsn {
        let mut b = RsnBuilder::new("mixed-gates");
        let i = b.add_inputs(2);
        let ctl = b.add_segment("ctl", 2);
        let s: Vec<NodeId> = (0..3).map(|k| b.add_segment(format!("s{k}"), 1)).collect();
        b.set_select(ctl, ControlExpr::TRUE);
        b.connect(b.scan_in(), ctl);
        for &seg in &s {
            b.connect(ctl, seg);
        }
        let (c0, c1) = (ControlExpr::reg(ctl, 0), ControlExpr::reg(ctl, 1));
        let m = b.add_mux("m", s.clone(), vec![c0.clone(), c1.clone()]);
        b.connect(m, b.scan_out());
        let not = |e: ControlExpr| ControlExpr::Not(Box::new(e));
        b.set_select(
            s[0],
            ControlExpr::And(vec![not(c0.clone()), not(c1.clone())]),
        );
        b.set_select(
            s[1],
            ControlExpr::Or(vec![
                ControlExpr::And(vec![c0, not(c1.clone())]),
                ControlExpr::And(vec![ControlExpr::input(i), ControlExpr::Const(false)]),
            ]),
        );
        b.set_select(s[2], ControlExpr::Or(vec![c1, ControlExpr::input(i + 1)]));
        b.finish().expect("builds")
    }

    #[test]
    fn every_clause_defines_a_gate_or_is_the_constant() {
        // Narrowing a query to its fan-in cone is sound only if every
        // clause is the constant-true unit or belongs to the definition
        // of one gate: its newest variable is a gate output and every
        // other variable one of that gate's recorded inputs. Each
        // resolvent of two such clauses on the output must be a
        // tautology, so any input values extend to an output value. A
        // constraint clause fails one of these checks.
        for rsn in [fig2(), chain(4, 8), sib_tree(2, 2, 3), mixed_gates()] {
            let sat = NetworkSat::build(&rsn);
            let free: HashSet<Var> = sat
                .bit_lits()
                .iter()
                .flatten()
                .chain(sat.input_lits())
                .map(|l| l.var())
                .collect();
            let mut constants = HashSet::new();
            let mut gates: HashMap<Var, Vec<&[Lit]>> = HashMap::new();
            for (lits, origin) in sat.recorded_clauses() {
                let out = lits.iter().map(|l| l.var()).max().expect("no empty clause");
                let ins = sat.fanin(out);
                if ins.is_empty() {
                    assert!(lits.len() == 1 && !lits[0].is_neg(), "{origin:?}: {lits:?}");
                    assert!(!free.contains(&out), "{origin:?} constrains {out}");
                    constants.insert(out);
                    continue;
                }
                assert!(
                    lits.iter()
                        .all(|l| l.var() == out || ins.contains(&l.var())),
                    "{origin:?}: {lits:?} is not over the fan-in {ins:?} of {out}"
                );
                gates.entry(out).or_default().push(lits);
            }
            assert!(constants.len() <= 1, "{}: {constants:?}", rsn.name());
            assert!(!gates.is_empty(), "{}: no gates", rsn.name());
            for (out, clauses) in &gates {
                for p in clauses.iter().filter(|c| c.contains(&Lit::pos(*out))) {
                    for n in clauses.iter().filter(|c| c.contains(&Lit::neg(*out))) {
                        assert!(
                            p.iter().any(|&l| l.var() != *out && n.contains(&!l)),
                            "{}: {p:?} and {n:?} leave {out} undefined",
                            rsn.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_witness_decides_only_its_cone() {
        // `ctl[0]` selects `a` and `ctl[1]` selects `c`; no clause ties
        // the two bits, so propagation never forces one from the other.
        let mut b = RsnBuilder::new("two-selects");
        let ctl = b.add_segment("ctl", 2);
        let a = b.add_segment("a", 1);
        let c = b.add_segment("c", 1);
        b.set_select(ctl, ControlExpr::TRUE);
        b.set_select(a, ControlExpr::reg(ctl, 0));
        b.set_select(c, ControlExpr::reg(ctl, 1));
        b.connect(b.scan_in(), ctl);
        b.connect(ctl, a);
        b.connect(a, c);
        b.connect(c, b.scan_out());
        let rsn = b.finish().expect("builds");
        let off = rsn.shadow_offset(ctl).expect("shadow") as usize;

        let sat = NetworkSat::build(&rsn);
        let mut scratch = sat.scratch();
        // Forces ctl[0] = 1, which becomes its saved phase.
        assert!(sat.satisfiable(&mut scratch, &[sat.select(a)]));
        let cfg = sat
            .witness(&rsn, &mut scratch, &[sat.select(c)])
            .expect("c is selectable");
        assert!(cfg.bit(off + 1));
        assert!(!cfg.bit(off), "ctl[0] lies outside the cone of select(c)");
        assert!(rsn.select(c, &cfg).expect("select evaluates"));
        assert!(!rsn.select(a, &cfg).expect("select evaluates"));
        assert_eq!(scratch.queries(), 2);
    }

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
