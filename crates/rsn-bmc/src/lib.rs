//! Bounded model checking of RSN accessibility (paper Sec. II-B, III-A).
//!
//! This crate encodes the paper's formal RSN model
//! `M = {S, H, I, V, C, c₀, Select, Updis, Capdis, Active}` into
//! propositional logic and decides scan-segment accessibility by unrolling
//! the transition relation `T` (eq. 1) for `n + 1` CSU operations:
//!
//! * one SAT variable per *control* bit per time step — a shadow bit that
//!   some segment select, update-disable predicate or mux address reads;
//!   no clause reads any other bit (instrument data), so every value of
//!   it extends every model and it gets no variable,
//! * a structural *on-path* predicate per node per step (the backward
//!   trace from the scan-out port through configured multiplexers),
//! * configuration validity (`Select(c, s) ⇔ s on the active path`,
//!   i.e. exactly one active scan path),
//! * the transition relation: a shadow register may only change if its
//!   segment is active and update is not disabled,
//! * the three fault extensions of Sec. III-A: stuck-at constraints on
//!   registers and signals (a stuck shadow cell is a constant and ignores
//!   writes), an adapted transition relation (a fault on the active path
//!   propagates its stuck value into subsequent updatable registers —
//!   encoded via per-node *taint* literals), and access conditions that
//!   require a clean final path through the target.
//!
//! The BMC engine is the reference semantics used to cross-validate the
//! fast structural engine of `rsn-fault` on small networks; it is
//! deliberately general and makes no assumption about network shape
//! (except that secondary scan ports are not modeled — validation runs on
//! networks before port duplication).
//!
//! # Example
//!
//! ```
//! use rsn_bmc::{BmcChecker, Verdict};
//! use rsn_budget::Budget;
//! use rsn_core::examples::fig2;
//!
//! let rsn = fig2();
//! let mut checker = BmcChecker::new(&rsn, 2);
//! let c = rsn.find("C").expect("segment C");
//! assert_eq!(checker.accessible_under(c, &Budget::unlimited()), Verdict::Accessible);
//! ```

pub mod selects;

pub use selects::{verify_select_consistency, SelectMismatch};

use std::collections::HashMap;

use rsn_budget::Budget;
use rsn_core::{ControlExpr, NodeId, NodeKind, Rsn};
use rsn_fault::FaultEffect;
use rsn_sat::{CnfBuilder, Lit, SolveOutcome};

/// Tri-state accessibility verdict from a budgeted BMC query
/// ([`BmcChecker::accessible_under`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A valid CSU sequence reaching the target with a clean path exists.
    Accessible,
    /// Proven unreachable within the unroll depth.
    Inaccessible,
    /// The budget ran out before the SAT query concluded.
    Unknown {
        /// The unroll depth (CSU steps) the undecided query was posed at.
        bound_reached: usize,
    },
}

impl Verdict {
    /// `true` only for a proven [`Verdict::Accessible`].
    pub fn is_accessible(self) -> bool {
        self == Verdict::Accessible
    }

    /// `true` if the budget ran out before a verdict.
    pub fn is_unknown(self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }
}

/// A bounded model checker for one network and one (optional) fault,
/// reusable across target segments through incremental solving.
#[derive(Debug)]
pub struct BmcChecker {
    cnf: CnfBuilder,
    /// `onpath[t][node]` literals.
    onpath: Vec<Vec<Lit>>,
    /// `taint[t][node]` literals (all-false encoding when fault-free).
    taint: Vec<Vec<Lit>>,
    /// Segments that lose instrument access (from the fault effect).
    local_loss: Vec<NodeId>,
    /// Index of the scan-out node.
    scan_out: NodeId,
    /// Number of CSU steps (the final configuration is step `steps`).
    steps: usize,
}

impl BmcChecker {
    /// Builds the fault-free model with `steps` CSU operations.
    ///
    /// # Panics
    ///
    /// Panics if the network has secondary scan ports (not modeled).
    pub fn new(rsn: &Rsn, steps: usize) -> Self {
        Self::with_fault(rsn, steps, &FaultEffect::benign())
    }

    /// Builds the model of the faulty network with `steps` CSU operations.
    ///
    /// # Panics
    ///
    /// Panics if the network has secondary scan ports (not modeled).
    pub fn with_fault(rsn: &Rsn, steps: usize, effect: &FaultEffect) -> Self {
        Self::build(rsn, steps, effect, &read_bits(rsn))
    }

    /// [`BmcChecker::with_fault`] with the shadow bits that get literals
    /// given by `keep` (a superset of [`read_bits`]).
    fn build(rsn: &Rsn, steps: usize, effect: &FaultEffect, keep: &[bool]) -> Self {
        assert!(
            rsn.secondary_scan_in().is_none() && rsn.secondary_scan_out().is_none(),
            "BMC models networks without secondary scan ports"
        );
        let mut cnf = CnfBuilder::new();
        // Primary-input literals per step (inputs are freely drivable each
        // CSU but must be consistent within a step).
        let inputs: Vec<Vec<Lit>> = (0..=steps)
            .map(|_| (0..rsn.num_inputs()).map(|_| cnf.new_lit()).collect())
            .collect();
        let u = encode_unrolling(&mut cnf, rsn, steps, effect, &inputs, None, keep);

        let mut checker = BmcChecker {
            cnf,
            onpath: u.onpath,
            taint: u.taint,
            local_loss: effect.local_loss.clone(),
            scan_out: rsn.scan_out(),
            steps,
        };
        // Encoding size telemetry, keyed by unroll depth.
        rsn_obs::counter_add("bmc.builds", 1);
        let solver = checker.cnf.solver_mut();
        rsn_obs::gauge_set(
            &format!("bmc.unroll.{steps}.vars"),
            solver.num_vars() as f64,
        );
        rsn_obs::gauge_set(
            &format!("bmc.unroll.{steps}.clauses"),
            solver.num_clauses() as f64,
        );
        checker
    }
}

/// The literal matrices of one `steps`-deep unrolling of the (possibly
/// faulty) transition relation, as written into a caller-supplied
/// builder by [`encode_unrolling`].
struct Unrolling {
    /// `onpath[t][node]` literals.
    onpath: Vec<Vec<Lit>>,
    /// `taint[t][node]` literals.
    taint: Vec<Vec<Lit>>,
}

/// Per shadow bit (config-bit order): `true` if a segment select or
/// update-disable predicate or a mux address reads it. Nothing else is
/// encoded, so an unread bit's chain (reset, freeze, latch) always
/// extends a model: it gets no literal, and a register with no read bit
/// gets no transition gates.
fn read_bits(rsn: &Rsn) -> Vec<bool> {
    let mut refs = Vec::new();
    for s in rsn.segments() {
        let seg = rsn.node(s).as_segment().expect("segment");
        seg.select.collect_reg_refs(&mut refs);
        seg.update_disable.collect_reg_refs(&mut refs);
    }
    for m in rsn.muxes() {
        for e in &rsn.node(m).as_mux().expect("mux").addr_bits {
            e.collect_reg_refs(&mut refs);
        }
    }
    let mut read = vec![false; rsn.shadow_bits() as usize];
    for (node, bit) in refs {
        let off = rsn
            .shadow_offset(node)
            .expect("validated control reference");
        read[(off + bit) as usize] = true;
    }
    read
}

/// Encodes one copy of the faulty network model into `cnf`.
///
/// `inputs[t]` are the per-step primary-input literals, supplied by the
/// caller so several copies can share one stimulus (the miter of
/// [`FaultDistinguisher`]). `data`, when present, supplies per-step
/// shared *shift datum* literals: a clean active write latches
/// `data[t][bit]`, which pins the whole trajectory to a function of
/// `(inputs, data)` — two copies fed the same stimulus can then only
/// diverge through their fault effects. `None` leaves clean writes
/// unconstrained, the classic accessibility semantics where the tester
/// may shift in anything.
///
/// Only the shadow bits flagged in `keep` get literals (and `data` needs
/// entries only for those); `keep` must cover [`read_bits`].
fn encode_unrolling(
    cnf: &mut CnfBuilder,
    rsn: &Rsn,
    steps: usize,
    effect: &FaultEffect,
    inputs: &[Vec<Lit>],
    data: Option<&[Vec<Option<Lit>>]>,
    keep: &[bool],
) -> Unrolling {
    let n_bits = rsn.shadow_bits() as usize;
    let n_nodes = rsn.node_count();

    // Stuck shadow cells hold their value at every step and ignore
    // writes, so a pinned bit is a constant and has no transition.
    let mut pinned: Vec<Option<bool>> = vec![None; n_bits];
    for (&(node, bit), &value) in &effect.forced_bits {
        if let Some(off) = rsn.shadow_offset(node) {
            pinned[(off + bit) as usize] = Some(value);
        }
    }

    // Shadow-register bit literals per step, for the kept bits only.
    let bits: Vec<Vec<Option<Lit>>> = (0..=steps)
        .map(|_| {
            (0..n_bits)
                .map(|i| {
                    keep[i].then(|| match pinned[i] {
                        Some(value) => cnf.constant(value),
                        None => cnf.new_lit(),
                    })
                })
                .collect()
        })
        .collect();

    // Initial configuration = reset (a stuck cell never held the reset
    // value, so pinning wins).
    let reset = rsn.reset_config();
    for (i, l) in bits[0].iter().enumerate() {
        if let (Some(l), None) = (*l, pinned[i]) {
            cnf.assert_lit(if reset.bit(i) { l } else { !l });
        }
    }

    // Corruption lookup.
    let mut corrupt_node = vec![false; n_nodes];
    for &c in &effect.corrupt_nodes {
        corrupt_node[c.index()] = true;
    }
    let corrupt_edge: HashMap<(NodeId, usize), ()> =
        effect.corrupt_mux_inputs.iter().map(|&e| (e, ())).collect();

    let mut onpath: Vec<Vec<Lit>> = Vec::with_capacity(steps + 1);
    let mut taint: Vec<Vec<Lit>> = Vec::with_capacity(steps + 1);

    for t in 0..=steps {
        // Encode a ControlExpr at this step.
        let ctx = ExprCtx {
            rsn,
            bits: &bits[t],
            inputs: &inputs[t],
        };

        // Mux selected-input condition literals: cond[mux][k].
        let mut cond: HashMap<(NodeId, usize), Lit> = HashMap::new();
        for m in rsn.muxes() {
            let mux = rsn.node(m).as_mux().expect("mux");
            // Address-forced mux (stuck address net).
            let forced = effect.forced_mux.get(&m).copied();
            for k in 0..mux.inputs.len() {
                let lit = match forced {
                    Some(fk) => cnf.constant(fk == k),
                    None => {
                        let mut conj = Vec::new();
                        for (i, e) in mux.addr_bits.iter().enumerate() {
                            let b = ctx.encode(&mut *cnf, e);
                            conj.push(if (k >> i) & 1 == 1 { b } else { !b });
                        }
                        cnf.and(conj)
                    }
                };
                cond.insert((m, k), lit);
            }
        }

        // onpath literals, defined in reverse topological order so each
        // node's successors are already defined.
        let mut op = vec![cnf.lit_false(); n_nodes];
        let order: Vec<NodeId> = rsn.topo_order().iter().rev().copied().collect();
        for &v in &order {
            let l = match rsn.node(v).kind() {
                NodeKind::ScanOut if v == rsn.scan_out() => cnf.lit_true(),
                NodeKind::ScanOut => cnf.lit_false(),
                _ => {
                    // v is on the path iff some successor w is on the
                    // path and w's feed is v.
                    let mut alts = Vec::new();
                    for &w in rsn.successors(v) {
                        match rsn.node(w).kind() {
                            NodeKind::Mux(mux) => {
                                for (k, &inp) in mux.inputs.iter().enumerate() {
                                    if inp == v {
                                        let c = cond[&(w, k)];
                                        let a = cnf.and([op[w.index()], c]);
                                        alts.push(a);
                                    }
                                }
                            }
                            _ => alts.push(op[w.index()]),
                        }
                    }
                    cnf.or(alts)
                }
            };
            op[v.index()] = l;
        }

        // Validity. Fault-free: every segment's select must equal its
        // path membership (exactly one active scan path). Under a
        // fault, the fault itself may force mismatches: a *deselected*
        // segment on the path does not shift and corrupts the stream
        // (modeled as taint below); a *selected* segment off the path
        // shifts idly and is benign for routing.
        let mut select_lits = vec![cnf.lit_true(); n_nodes];
        for s in rsn.segments() {
            let sel = ctx.encode(
                &mut *cnf,
                &rsn.node(s).as_segment().expect("segment").select,
            );
            select_lits[s.index()] = sel;
            if effect.is_benign() {
                cnf.assert_eq(sel, op[s.index()]);
            }
        }

        // taint literals in forward topological order.
        let mut tn = vec![cnf.lit_false(); n_nodes];
        for &v in rsn.topo_order() {
            let mut own = cnf.constant(corrupt_node[v.index()]);
            if !effect.is_benign() {
                if let NodeKind::Segment(_) = rsn.node(v).kind() {
                    // On-path-but-deselected segments do not shift.
                    own = cnf.or([own, !select_lits[v.index()]]);
                }
            }
            let incoming = match rsn.node(v).kind() {
                NodeKind::ScanIn => cnf.lit_false(),
                NodeKind::Mux(mux) => {
                    let mut alts = Vec::new();
                    for (k, &inp) in mux.inputs.iter().enumerate() {
                        let c = cond[&(v, k)];
                        let dirty_edge = cnf.constant(corrupt_edge.contains_key(&(v, k)));
                        let up = cnf.or([tn[inp.index()], dirty_edge]);
                        alts.push(cnf.and([c, up]));
                    }
                    cnf.or(alts)
                }
                _ => match rsn.node(v).source() {
                    Some(u) => tn[u.index()],
                    None => cnf.lit_false(),
                },
            };
            let dirt = cnf.or([own, incoming]);
            tn[v.index()] = cnf.and([op[v.index()], dirt]);
        }

        onpath.push(op);
        taint.push(tn);
    }

    // Transition relation between consecutive steps (eq. 1 with the
    // adapted fault semantics), for the registers with a free kept bit.
    let registers: Vec<(NodeId, Vec<usize>)> = rsn
        .segments()
        .filter_map(|s| {
            let off = rsn.shadow_offset(s)? as usize;
            let free: Vec<usize> = (off..off + rsn.shadow_len(s) as usize)
                .filter(|&i| keep[i] && pinned[i].is_none())
                .collect();
            (!free.is_empty()).then_some((s, free))
        })
        .collect();
    let stuck = stuck_value(effect).map(|v| cnf.constant(v));
    for t in 0..steps {
        let ctx = ExprCtx {
            rsn,
            bits: &bits[t],
            inputs: &inputs[t],
        };
        for (s, free) in &registers {
            let seg = rsn.node(*s).as_segment().expect("segment");
            let updis = ctx.encode(&mut *cnf, &seg.update_disable);
            let active = onpath[t][s.index()];
            // frozen := ¬active ∨ updis  → registers keep their value.
            let frozen = cnf.or([!active, updis]);
            let tainted = taint[t][s.index()];
            // Adapted transition: a tainted active write forces the
            // stuck value into the register.
            let writing = stuck.map(|v| (cnf.and([active, !updis, tainted]), v));
            // Shared-stimulus mode: a clean active write latches the
            // shared shift datum, so the trajectory is a function of
            // (inputs, data) alone.
            let clean_write = data.map(|d| (cnf.and([active, !updis, !tainted]), &d[t]));
            for &i in free {
                let cur = bits[t][i].expect("kept bit");
                let next = bits[t + 1][i].expect("kept bit");
                cnf.assert_eq_if(frozen, cur, next);
                if let Some((writing, v)) = writing {
                    cnf.assert_eq_if(writing, next, v);
                }
                if let Some((clean_write, datum)) = clean_write {
                    cnf.assert_eq_if(clean_write, next, datum[i].expect("kept bit"));
                }
            }
        }
    }

    Unrolling { onpath, taint }
}

impl BmcChecker {
    /// Decides accessibility of `target`: is there a sequence of `steps`
    /// valid CSU transitions after which the target lies on the active
    /// scan path and the path is clean end to end? The [`Budget`] is
    /// threaded into the underlying SAT solve (one work unit per
    /// conflict).
    ///
    /// Exhaustion yields [`Verdict::Unknown`] carrying the unroll bound
    /// at which the query was left undecided; the checker stays usable
    /// and the query can be retried with a fresh budget. A segment that
    /// loses its instrument to the fault is decided without consulting
    /// the budget.
    pub fn accessible_under(&mut self, target: NodeId, budget: &Budget) -> Verdict {
        if self.local_loss.contains(&target) {
            return Verdict::Inaccessible;
        }
        let on = self.onpath[self.steps][target.index()];
        let clean = !self.taint[self.steps][self.scan_out.index()];
        let _span = rsn_obs::Span::enter("bmc_solve");
        let start = std::time::Instant::now();
        let outcome = self.cnf.solver_mut().solve_with_under(&[on, clean], budget);
        let query_ns = start.elapsed().as_nanos() as u64;
        rsn_obs::counter_add("bmc.queries", 1);
        rsn_obs::counter_add(&format!("bmc.unroll.{}.solve_ns", self.steps), query_ns);
        rsn_obs::hist_record("bmc.query_ns", query_ns);
        match outcome {
            SolveOutcome::Sat => Verdict::Accessible,
            SolveOutcome::Unsat => Verdict::Inaccessible,
            SolveOutcome::Unknown { reason, .. } => {
                rsn_obs::counter_add("bmc.unknown", 1);
                rsn_obs::record_budget_trip("bmc", reason.as_str());
                Verdict::Unknown {
                    bound_reached: self.steps,
                }
            }
        }
    }
}

/// Distinguishability verdict from a budgeted miter query
/// ([`FaultDistinguisher::distinguishable_under`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distinguishability {
    /// Some shared stimulus provokes observably different scan behavior
    /// from the two faulty machines.
    Distinguishable,
    /// No stimulus within the unroll depth separates the two faults —
    /// they are test-equivalent at this bound.
    Equivalent,
    /// The budget ran out before the SAT query concluded.
    Unknown {
        /// The unroll depth (CSU steps) the undecided query was posed at.
        bound_reached: usize,
    },
}

/// Decides whether two fault effects are *distinguishable*: is there a
/// `steps`-deep CSU stimulus (same primary inputs and the same shift
/// data each step) under which the two faulty machines differ in
/// observable scan behavior — a segment on the active path of one but
/// not the other, or a corrupted bitstream at the scan-out of exactly
/// one?
///
/// The miter unrolls the faulty transition relation of
/// [`BmcChecker::with_fault`] twice into one CNF, sharing the per-step
/// primary-input and shift-datum literals (the latter for control bits
/// only); each machine's trajectory is then a function of the stimulus
/// and can only diverge through the fault effects themselves. A stuck
/// shadow cell ignores writes: it holds its stuck value whatever datum
/// the other machine latches into the same cell. A `Sat` answer is a
/// distinguishing test; `Unsat` proves the pair equivalent within the
/// bound — for two effects from the same collapse class the solver must
/// effectively re-derive the structural equivalence argument, which
/// makes these by far the hardest SAT instances in the workload (and the
/// benchmark family exercised by `table1 --bench-sat`).
///
/// # Example
///
/// ```
/// use rsn_bmc::{Distinguishability, FaultDistinguisher};
/// use rsn_budget::Budget;
/// use rsn_core::examples::fig2;
/// use rsn_fault::{effect_of, fault_universe, HardeningProfile};
///
/// let rsn = fig2();
/// let faults = fault_universe(&rsn);
/// let p = HardeningProfile::unhardened();
/// let a = effect_of(&rsn, &faults[0], p);
/// let same = effect_of(&rsn, &faults[0], p);
/// let mut miter = FaultDistinguisher::new(&rsn, 2, &a, &same);
/// assert_eq!(
///     miter.distinguishable_under(&Budget::unlimited()),
///     Distinguishability::Equivalent,
///     "a fault cannot be told from itself"
/// );
/// ```
#[derive(Debug)]
pub struct FaultDistinguisher {
    cnf: CnfBuilder,
    /// Asserted as an assumption: some observable divergence exists.
    diff: Lit,
    steps: usize,
    /// The local-loss sets differ, which is observable without search.
    structurally_distinct: bool,
}

impl FaultDistinguisher {
    /// Builds the two-copy miter with `steps` CSU operations per copy.
    ///
    /// # Panics
    ///
    /// Panics if the network has secondary scan ports (not modeled).
    pub fn new(rsn: &Rsn, steps: usize, a: &FaultEffect, b: &FaultEffect) -> Self {
        Self::build(rsn, steps, a, b, &read_bits(rsn))
    }

    /// [`FaultDistinguisher::new`] with the shadow bits that get literals
    /// given by `keep` (a superset of [`read_bits`]).
    fn build(rsn: &Rsn, steps: usize, a: &FaultEffect, b: &FaultEffect, keep: &[bool]) -> Self {
        assert!(
            rsn.secondary_scan_in().is_none() && rsn.secondary_scan_out().is_none(),
            "BMC models networks without secondary scan ports"
        );
        let mut cnf = CnfBuilder::new();
        // The shared stimulus: primary inputs per step, plus the shift
        // datum each kept bit would latch on a clean active write.
        let inputs: Vec<Vec<Lit>> = (0..=steps)
            .map(|_| (0..rsn.num_inputs()).map(|_| cnf.new_lit()).collect())
            .collect();
        let data: Vec<Vec<Option<Lit>>> = (0..steps)
            .map(|_| keep.iter().map(|&k| k.then(|| cnf.new_lit())).collect())
            .collect();
        let ua = encode_unrolling(&mut cnf, rsn, steps, a, &inputs, Some(&data), keep);
        let ub = encode_unrolling(&mut cnf, rsn, steps, b, &inputs, Some(&data), keep);

        // Observable divergence at any step: a segment on exactly one
        // active path (the streams differ in composition/length), or a
        // corrupted stream at exactly one scan-out.
        let so = rsn.scan_out().index();
        let mut diffs = Vec::new();
        for t in 0..=steps {
            for s in rsn.segments() {
                diffs.push(cnf.xor(ua.onpath[t][s.index()], ub.onpath[t][s.index()]));
            }
            diffs.push(cnf.xor(ua.taint[t][so], ub.taint[t][so]));
        }
        let diff = cnf.or(diffs);

        // Losing instrument access to different segment sets is directly
        // observable (one machine answers where the other is silent);
        // no search needed.
        let mut la: Vec<NodeId> = a.local_loss.clone();
        let mut lb: Vec<NodeId> = b.local_loss.clone();
        la.sort_unstable();
        lb.sort_unstable();
        let structurally_distinct = la != lb;

        rsn_obs::counter_add("bmc.miter.builds", 1);
        let solver = cnf.solver_mut();
        rsn_obs::gauge_set("bmc.miter.vars", solver.num_vars() as f64);
        rsn_obs::gauge_set("bmc.miter.clauses", solver.num_clauses() as f64);
        FaultDistinguisher {
            cnf,
            diff,
            steps,
            structurally_distinct,
        }
    }

    /// Routes the miter's SAT queries through the portfolio solver with
    /// `threads` workers; see [`rsn_sat::Solver::set_threads`]. This is
    /// the one way into the portfolio from outside rsn-sat: the miters
    /// are the only queries that outlive its serial burst.
    pub fn set_threads(&mut self, threads: usize) {
        self.cnf.solver_mut().set_threads(threads);
    }

    /// The unroll depth of each miter copy.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Decides whether some shared stimulus makes the two faults
    /// observably diverge, bounded by a [`Budget`] threaded into the SAT
    /// solve. The miter stays usable after exhaustion and the query can
    /// be retried.
    pub fn distinguishable_under(&mut self, budget: &Budget) -> Distinguishability {
        if self.structurally_distinct {
            return Distinguishability::Distinguishable;
        }
        let _span = rsn_obs::Span::enter("bmc_miter_solve");
        let start = std::time::Instant::now();
        let diff = self.diff;
        let outcome = self.cnf.solver_mut().solve_with_under(&[diff], budget);
        rsn_obs::counter_add("bmc.miter.queries", 1);
        rsn_obs::hist_record("bmc.miter.query_ns", start.elapsed().as_nanos() as u64);
        match outcome {
            SolveOutcome::Sat => Distinguishability::Distinguishable,
            SolveOutcome::Unsat => Distinguishability::Equivalent,
            SolveOutcome::Unknown { reason, .. } => {
                rsn_obs::counter_add("bmc.miter.unknown", 1);
                rsn_obs::record_budget_trip("bmc", reason.as_str());
                Distinguishability::Unknown {
                    bound_reached: self.steps,
                }
            }
        }
    }
}

/// The stuck value a fault propagates into registers, if the effect
/// contains any data corruption.
fn stuck_value(effect: &FaultEffect) -> Option<bool> {
    // The propagated value equals the fault polarity, which the effect
    // records. Accessibility requires *clean* final paths anyway, so the
    // propagated value only constrains intermediate writes.
    if effect.is_benign() {
        None
    } else {
        Some(effect.stuck.unwrap_or(false))
    }
}

struct ExprCtx<'a> {
    rsn: &'a Rsn,
    /// Per shadow bit: its literal if kept (every read bit is).
    bits: &'a [Option<Lit>],
    inputs: &'a [Lit],
}

impl ExprCtx<'_> {
    fn encode(&self, cnf: &mut CnfBuilder, expr: &ControlExpr) -> Lit {
        match expr {
            ControlExpr::Const(b) => cnf.constant(*b),
            ControlExpr::Reg(node, bit) => {
                let off = self
                    .rsn
                    .shadow_offset(*node)
                    .expect("validated control reference");
                self.bits[(off + bit) as usize].expect("read bits are kept")
            }
            // Primary inputs are free per step but consistent within it.
            ControlExpr::Input(i) => self.inputs[i.0 as usize],
            ControlExpr::Not(e) => {
                let l = self.encode(cnf, e);
                !l
            }
            ControlExpr::And(es) => {
                let lits: Vec<Lit> = es.iter().map(|e| self.encode(cnf, e)).collect();
                cnf.and(lits)
            }
            ControlExpr::Or(es) => {
                let lits: Vec<Lit> = es.iter().map(|e| self.encode(cnf, e)).collect();
                cnf.or(lits)
            }
        }
    }
}

/// Convenience: checks accessibility of every segment under a fault and
/// returns the per-segment verdicts, mirroring
/// [`rsn_fault::accessibility`] for cross-validation.
pub fn bmc_accessibility(rsn: &Rsn, effect: &FaultEffect, steps: usize) -> Vec<(NodeId, bool)> {
    let mut checker = BmcChecker::with_fault(rsn, steps, effect);
    let unlimited = Budget::unlimited();
    rsn.segments()
        .map(|s| (s, checker.accessible_under(s, &unlimited).is_accessible()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, fig2, sib_tree};
    use rsn_fault::{effect_of, fault_universe, HardeningProfile};

    #[test]
    fn fault_free_fig2_all_accessible() {
        let rsn = fig2();
        let mut checker = BmcChecker::new(&rsn, 2);
        for s in rsn.segments() {
            assert_eq!(
                checker.accessible_under(s, &Budget::unlimited()),
                Verdict::Accessible,
                "{}",
                rsn.node(s).name()
            );
        }
    }

    #[test]
    fn zero_steps_only_reset_path() {
        let rsn = fig2();
        let mut checker = BmcChecker::new(&rsn, 0);
        let b = rsn.find("B").expect("B");
        let c = rsn.find("C").expect("C");
        assert_eq!(
            checker.accessible_under(b, &Budget::unlimited()),
            Verdict::Accessible,
            "B is on the reset path"
        );
        assert_eq!(
            checker.accessible_under(c, &Budget::unlimited()),
            Verdict::Inaccessible,
            "C needs one CSU"
        );
    }

    #[test]
    fn one_step_reaches_c() {
        let rsn = fig2();
        let mut checker = BmcChecker::new(&rsn, 1);
        let c = rsn.find("C").expect("C");
        assert_eq!(
            checker.accessible_under(c, &Budget::unlimited()),
            Verdict::Accessible
        );
    }

    #[test]
    fn sib_tree_needs_depth_steps() {
        let rsn = sib_tree(2, 2, 3);
        let leaf = rsn
            .segments()
            .find(|&s| rsn.node(s).name().ends_with(".seg"))
            .expect("leaf");
        let mut shallow = BmcChecker::new(&rsn, 1);
        assert_eq!(
            shallow.accessible_under(leaf, &Budget::unlimited()),
            Verdict::Inaccessible,
            "needs 2 CSUs"
        );
        let mut deep = BmcChecker::new(&rsn, 2);
        assert_eq!(
            deep.accessible_under(leaf, &Budget::unlimited()),
            Verdict::Accessible
        );
    }

    #[test]
    fn chain_with_data_fault_inaccessible() {
        let rsn = chain(3, 2);
        let s1 = rsn.find("S1").expect("S1");
        let faults = fault_universe(&rsn);
        let f = faults
            .iter()
            .find(|f| matches!(f.site, rsn_fault::FaultSite::SegmentData(n) if n == s1))
            .expect("exists");
        let effect = effect_of(&rsn, f, HardeningProfile::unhardened());
        let mut checker = BmcChecker::with_fault(&rsn, 2, &effect);
        for s in rsn.segments() {
            assert_eq!(
                checker.accessible_under(s, &Budget::unlimited()),
                Verdict::Inaccessible,
                "single chain: all lost"
            );
        }
    }

    #[test]
    fn fig2_fault_on_b_keeps_c_accessible() {
        let rsn = fig2();
        let b = rsn.find("B").expect("B");
        let faults = fault_universe(&rsn);
        let f = faults
            .iter()
            .find(|f| matches!(f.site, rsn_fault::FaultSite::SegmentData(n) if n == b))
            .expect("exists");
        let effect = effect_of(&rsn, f, HardeningProfile::unhardened());
        let mut checker = BmcChecker::with_fault(&rsn, 2, &effect);
        assert_eq!(
            checker.accessible_under(b, &Budget::unlimited()),
            Verdict::Inaccessible
        );
        for name in ["A", "C", "D"] {
            let id = rsn.find(name).expect("exists");
            assert_eq!(
                checker.accessible_under(id, &Budget::unlimited()),
                Verdict::Accessible,
                "{name}"
            );
        }
    }

    #[test]
    fn bmc_agrees_with_structural_engine_on_fig2() {
        let rsn = fig2();
        let profile = HardeningProfile::unhardened();
        for fault in fault_universe(&rsn) {
            let effect = effect_of(&rsn, &fault, profile);
            let structural = rsn_fault::accessibility(&rsn, &effect);
            let bmc = bmc_accessibility(&rsn, &effect, 2);
            for (s, bmc_ok) in bmc {
                assert_eq!(
                    structural.accessible[s.index()],
                    bmc_ok,
                    "fault {fault} segment {}",
                    rsn.node(s).name()
                );
            }
        }
    }

    #[test]
    fn zero_budget_yields_unknown_with_bound() {
        let rsn = fig2();
        let mut checker = BmcChecker::new(&rsn, 2);
        let c = rsn.find("C").expect("C");
        let verdict = checker.accessible_under(c, &Budget::unlimited().with_work_limit(0));
        assert_eq!(verdict, Verdict::Unknown { bound_reached: 2 });
        assert!(verdict.is_unknown());
        // Checker survives exhaustion: a fresh budget decides the query.
        assert_eq!(
            checker.accessible_under(c, &Budget::unlimited()),
            Verdict::Accessible
        );
    }

    #[test]
    fn structural_short_circuits_ignore_the_budget() {
        // Local instrument loss is decided without a SAT query, so even a
        // dead budget gets a definitive Inaccessible.
        let rsn = fig2();
        let b = rsn.find("B").expect("B");
        let mut effect = FaultEffect::benign();
        effect.local_loss.push(b);
        let mut checker = BmcChecker::with_fault(&rsn, 2, &effect);
        let dead = Budget::unlimited().with_work_limit(0);
        assert_eq!(checker.accessible_under(b, &dead), Verdict::Inaccessible);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_verdicts() {
        let rsn = fig2();
        let generous = Budget::unlimited().with_work_limit(1_000_000);
        let mut budgeted = BmcChecker::new(&rsn, 2);
        let mut plain = BmcChecker::new(&rsn, 2);
        for s in rsn.segments() {
            let expect = plain.accessible_under(s, &Budget::unlimited());
            assert!(!expect.is_unknown());
            assert_eq!(budgeted.accessible_under(s, &generous), expect);
        }
    }

    #[test]
    fn local_loss_is_respected() {
        let rsn = fig2();
        let b = rsn.find("B").expect("B");
        let mut effect = FaultEffect::benign();
        effect.local_loss.push(b);
        let mut checker = BmcChecker::with_fault(&rsn, 2, &effect);
        assert_eq!(
            checker.accessible_under(b, &Budget::unlimited()),
            Verdict::Inaccessible
        );
        let a = rsn.find("A").expect("A");
        assert_eq!(
            checker.accessible_under(a, &Budget::unlimited()),
            Verdict::Accessible
        );
    }

    /// The unhardened effect of every fault of `rsn`, in universe order.
    fn all_effects(rsn: &Rsn) -> Vec<FaultEffect> {
        let profile = HardeningProfile::unhardened();
        fault_universe(rsn)
            .iter()
            .map(|f| effect_of(rsn, f, profile))
            .collect()
    }

    fn num_vars(cnf: &CnfBuilder) -> usize {
        cnf.solver().num_vars()
    }

    #[test]
    fn data_bits_never_reach_the_encoding() {
        // The two trees differ only in the width of their leaf (data)
        // registers, so both encodings must be the same size.
        let narrow = sib_tree(2, 2, 4);
        let wide = sib_tree(2, 2, 4096);
        let (en, ew) = (all_effects(&narrow), all_effects(&wide));
        assert_eq!(en, ew, "same fault universe and effects");
        let unlimited = Budget::unlimited();
        for i in 0..en.len() {
            let mut cn = BmcChecker::with_fault(&narrow, 3, &en[i]);
            let mut cw = BmcChecker::with_fault(&wide, 3, &ew[i]);
            assert_eq!(num_vars(&cn.cnf), num_vars(&cw.cnf), "checker, fault {i}");
            for s in narrow.segments() {
                assert_eq!(
                    cn.accessible_under(s, &unlimited),
                    cw.accessible_under(s, &unlimited),
                    "fault {i} segment {}",
                    narrow.node(s).name()
                );
            }
            let j = (i + 1) % en.len();
            let mut mn = FaultDistinguisher::new(&narrow, 3, &en[i], &en[j]);
            let mut mw = FaultDistinguisher::new(&wide, 3, &ew[i], &ew[j]);
            assert_eq!(num_vars(&mn.cnf), num_vars(&mw.cnf), "miter ({i}, {j})");
            assert_eq!(
                mn.distinguishable_under(&unlimited),
                mw.distinguishable_under(&unlimited),
                "miter ({i}, {j})"
            );
        }
    }

    #[test]
    fn kept_bits_checker_agrees_with_every_bit_kept() {
        let unlimited = Budget::unlimited();
        for (rsn, steps) in [(fig2(), 2), (chain(3, 2), 2), (sib_tree(2, 2, 3), 3)] {
            let every = vec![true; rsn.shadow_bits() as usize];
            for (i, effect) in all_effects(&rsn).iter().enumerate() {
                let mut kept = BmcChecker::with_fault(&rsn, steps, effect);
                let mut full = BmcChecker::build(&rsn, steps, effect, &every);
                assert!(num_vars(&kept.cnf) < num_vars(&full.cnf));
                for s in rsn.segments() {
                    assert_eq!(
                        kept.accessible_under(s, &unlimited),
                        full.accessible_under(s, &unlimited),
                        "{} fault {i} segment {}",
                        rsn.name(),
                        rsn.node(s).name()
                    );
                }
            }
        }
    }

    #[test]
    fn kept_bits_miter_agrees_with_every_bit_kept() {
        let rsn = fig2();
        let every = vec![true; rsn.shadow_bits() as usize];
        let effects = all_effects(&rsn);
        let unlimited = Budget::unlimited();
        for i in 0..effects.len() {
            for j in i + 1..effects.len() {
                let (a, b) = (&effects[i], &effects[j]);
                let mut kept = FaultDistinguisher::new(&rsn, 3, a, b);
                let mut full = FaultDistinguisher::build(&rsn, 3, a, b, &every);
                assert_eq!(
                    kept.distinguishable_under(&unlimited),
                    full.distinguishable_under(&unlimited),
                    "faults ({i}, {j})"
                );
            }
        }
    }
}
