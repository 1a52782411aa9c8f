//! Root-cause explanation engine: maps failing diagnostics back to
//! minimal structural cuts and forcing control bits.
//!
//! Two proof shapes cover the SAT-backed catalog:
//!
//! * **Existence findings** (`RSN001`, `RSN005` — "a bad configuration
//!   exists"): the witness configuration is generalized into a *minimal
//!   forcing cube* by asking why `F ∧ witness ∧ ¬finding` is
//!   unsatisfiable — the failed-assumption core over the state bits is
//!   exactly the subset of control bits that already forces the finding.
//!   Cubes are enumerated (each found cube is blocked, then the query is
//!   re-solved) until the finding becomes unsatisfiable, so the cube set
//!   *covers* every failing configuration: fixing all listed bits
//!   provably eliminates the diagnostic.
//! * **Universality findings** (`RSN002`, `RSN003`, `RSN004`, `RSN010` —
//!   "no good configuration exists"): the formula is re-assembled with
//!   one guard literal per structural clause group (select predicate,
//!   mux address, decode port, on-path gate) from the provenance table
//!   recorded by [`NetworkSat::build`]. The failed-assumption core over
//!   the guards, minimized by deletion, names the structural elements
//!   whose removal makes the property satisfiable — a minimal cut.
//!
//! Graph-derived findings (`RSN006`–`RSN009`) get structural
//! explanations from their related nodes and cone. Every step is
//! budget-aware: exhaustion degrades to unminimized cores or structural
//! fallbacks, never hangs.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use rsn_budget::Budget;
use rsn_core::{NodeId, NodeKind, Rsn};
use rsn_obs::json::Json;
use rsn_sat::{Lit, SolveOutcome, Solver};

use crate::cone::cone_of_influence;
use crate::diag::{Code, Diagnostic, VerifyReport};
use crate::encode::{ClauseOrigin, NetworkSat};

/// Cap on enumerated forcing cubes per finding; beyond it the
/// explanation is marked incomplete.
const MAX_CUBES: usize = 64;

/// One forced control bit of a forcing cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlBitFix {
    /// Owning shadow register and register-local bit, for shadow bits.
    pub register: Option<(NodeId, u32)>,
    /// Global config-bit index (shadow bits only).
    pub bit: Option<usize>,
    /// Primary-input index (primary inputs only).
    pub input: Option<u32>,
    /// Display label, e.g. `CTL[1]` or `in0`.
    pub label: String,
    /// The value the bit must take to force (or avoid) the finding.
    pub value: bool,
}

impl ControlBitFix {
    fn render(&self) -> String {
        format!("{}={}", self.label, self.value as u8)
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("label", Json::Str(self.label.clone()));
        obj.set("value", Json::Bool(self.value));
        if let Some((reg, b)) = self.register {
            obj.set("register", Json::Num(reg.0 as f64));
            obj.set("register_bit", Json::Num(b as f64));
        }
        if let Some(i) = self.bit {
            obj.set("bit", Json::Num(i as f64));
        }
        if let Some(i) = self.input {
            obj.set("input", Json::Num(i as f64));
        }
        obj
    }
}

/// The kind of repair a hint suggests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairAction {
    /// TMR-harden the mux's address nets (`RsnBuilder::harden_mux`).
    HardenMux,
    /// Revise the segment's select predicate.
    ReviseSelect,
    /// Give the register a shadow so its state becomes writable.
    AddShadow,
    /// Connect the node to the scan fabric.
    ConnectNode,
    /// Break the control-dependency cycle.
    BreakCycle,
}

/// A concrete repair suggestion derived from the cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairHint {
    /// What to do.
    pub action: RepairAction,
    /// The node to do it to, when the action has a single target.
    pub target: Option<NodeId>,
    /// Rendered suggestion, e.g. `harden mux M4`.
    pub text: String,
}

/// Root cause of one diagnostic: the minimal structural cut and/or the
/// forcing control bits, with provenance-backed narrative and repair
/// hints.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Nodes implicated by the cut (owning segments/muxes/registers of
    /// core clause groups, or the forcing registers of a cube).
    pub cut_nodes: Vec<NodeId>,
    /// Dataflow edges implicated by the cut (`input → mux` for core
    /// decode ports, witness-steered edges for cube findings).
    pub cut_edges: Vec<(NodeId, NodeId)>,
    /// Primary forcing cube (existence findings): control-bit values
    /// that already force the finding.
    pub control_bits: Vec<ControlBitFix>,
    /// Remaining enumerated forcing cubes; together with
    /// [`control_bits`](Explanation::control_bits) they cover every
    /// failing configuration when [`complete`](Explanation::complete).
    pub other_cubes: Vec<Vec<ControlBitFix>>,
    /// Minimal structural core (universality findings): the clause
    /// groups whose removal makes the property satisfiable.
    pub core: Vec<ClauseOrigin>,
    /// Size of the cone of influence the finding lives in.
    pub cone_nodes: usize,
    /// Members in the minimized core (cube length for existence
    /// findings, group count for universality findings).
    pub core_size: usize,
    /// Whether deletion-based minimization completed (budget permitting);
    /// an unminimized core is still valid, just possibly larger.
    pub minimized: bool,
    /// Whether the explanation is exhaustive (every failing
    /// configuration covered / the core fully extracted). Budget
    /// exhaustion and the cube cap clear this.
    pub complete: bool,
    /// Human-readable root-cause statement with node names.
    pub narrative: String,
    /// Repair suggestions derived from the cut.
    pub hints: Vec<RepairHint>,
}

impl Explanation {
    /// Indented terminal rendering, one line per element.
    pub fn render_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("root cause: {}", self.narrative));
        if !self.control_bits.is_empty() {
            let force: Vec<String> = self.control_bits.iter().map(|f| f.render()).collect();
            let extra = if self.other_cubes.is_empty() {
                String::new()
            } else {
                format!(" (+{} more cube(s))", self.other_cubes.len())
            };
            out.push(format!("force: {}{}", force.join(", "), extra));
        }
        let mut stats = format!(
            "cone {} node(s); core {}{}",
            self.cone_nodes,
            self.core_size,
            if self.minimized { ", minimal" } else { "" }
        );
        if !self.complete {
            stats.push_str("; partial");
        }
        out.push(stats);
        for h in &self.hints {
            out.push(format!("hint: {}", h.text));
        }
        out
    }

    /// Serializes to an `rsn-obs` JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set(
            "cut_nodes",
            Json::Arr(
                self.cut_nodes
                    .iter()
                    .map(|n| Json::Num(n.0 as f64))
                    .collect(),
            ),
        );
        obj.set(
            "cut_edges",
            Json::Arr(
                self.cut_edges
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::Num(a.0 as f64), Json::Num(b.0 as f64)]))
                    .collect(),
            ),
        );
        obj.set(
            "control_bits",
            Json::Arr(self.control_bits.iter().map(|f| f.to_json()).collect()),
        );
        if !self.other_cubes.is_empty() {
            obj.set(
                "other_cubes",
                Json::Arr(
                    self.other_cubes
                        .iter()
                        .map(|c| Json::Arr(c.iter().map(|f| f.to_json()).collect()))
                        .collect(),
                ),
            );
        }
        if !self.core.is_empty() {
            obj.set(
                "core",
                Json::Arr(
                    self.core
                        .iter()
                        .map(|o| Json::Str(origin_key(*o)))
                        .collect(),
                ),
            );
        }
        obj.set("cone_nodes", Json::Num(self.cone_nodes as f64));
        obj.set("core_size", Json::Num(self.core_size as f64));
        obj.set("minimized", Json::Bool(self.minimized));
        obj.set("complete", Json::Bool(self.complete));
        obj.set("narrative", Json::Str(self.narrative.clone()));
        obj.set(
            "hints",
            Json::Arr(
                self.hints
                    .iter()
                    .map(|h| Json::Str(h.text.clone()))
                    .collect(),
            ),
        );
        obj
    }
}

/// Stable string key of a clause origin, e.g. `select:3` or
/// `mux_port:6:2`.
fn origin_key(o: ClauseOrigin) -> String {
    match o {
        ClauseOrigin::Base => "base".into(),
        ClauseOrigin::Select(n) => format!("select:{}", n.0),
        ClauseOrigin::MuxAddr(n) => format!("mux_addr:{}", n.0),
        ClauseOrigin::MuxPort(n, k) => format!("mux_port:{}:{k}", n.0),
        ClauseOrigin::OnPath(n) => format!("onpath:{}", n.0),
        ClauseOrigin::Mismatch(n) => format!("mismatch:{}", n.0),
        ClauseOrigin::Overflow(n) => format!("overflow:{}", n.0),
    }
}

/// Human label of a clause origin, with node names.
fn origin_label(rsn: &Rsn, o: ClauseOrigin) -> String {
    let name = |n: NodeId| rsn.node(n).name().to_string();
    match o {
        ClauseOrigin::Base => "constants".into(),
        ClauseOrigin::Select(n) => format!("select of {}", name(n)),
        ClauseOrigin::MuxAddr(n) => format!("address of {}", name(n)),
        ClauseOrigin::MuxPort(n, k) => {
            let fed = rsn
                .node(n)
                .as_mux()
                .and_then(|m| m.inputs.get(k).copied())
                .map(|i| format!(" (fed by {})", name(i)))
                .unwrap_or_default();
            format!("port {k} of {}{fed}", name(n))
        }
        ClauseOrigin::OnPath(n) => format!("path membership of {}", name(n)),
        ClauseOrigin::Mismatch(n) => format!("mismatch gate of {}", name(n)),
        ClauseOrigin::Overflow(n) => format!("overflow gate of {}", name(n)),
    }
}

/// `global config bit → (owning register, register-local bit)`.
fn bit_owners(rsn: &Rsn) -> Vec<Option<(NodeId, u32)>> {
    let mut owners = vec![None; rsn.shadow_bits() as usize];
    for n in rsn.node_ids() {
        if let Some(off) = rsn.shadow_offset(n) {
            for b in 0..rsn.shadow_len(n) {
                owners[(off + b) as usize] = Some((n, b));
            }
        }
    }
    owners
}

/// The guarded re-assembly of a [`NetworkSat`] model: every structural
/// clause group gets an activation guard; cores over the guards name
/// structural cuts. Built once per report and shared by every
/// universality finding.
struct GuardedModel {
    solver: Solver,
    /// Deterministically ordered `(group, guard literal)` pairs.
    guards: Vec<(ClauseOrigin, Lit)>,
    /// Reverse lookup: guard literal code → index into `guards`.
    by_code: HashMap<usize, usize>,
}

/// Whether clauses of this origin are guarded (cuttable structure) or
/// added hard (infrastructure and query definitions).
fn guard_group(origin: ClauseOrigin) -> Option<ClauseOrigin> {
    match origin {
        ClauseOrigin::Select(_)
        | ClauseOrigin::MuxAddr(_)
        | ClauseOrigin::MuxPort(_, _)
        | ClauseOrigin::OnPath(_) => Some(origin),
        ClauseOrigin::Base | ClauseOrigin::Mismatch(_) | ClauseOrigin::Overflow(_) => None,
    }
}

impl GuardedModel {
    fn build(sat: &NetworkSat) -> GuardedModel {
        let mut solver = Solver::new();
        for _ in 0..sat.model_vars() {
            solver.new_var();
        }
        let mut map: BTreeMap<ClauseOrigin, Lit> = BTreeMap::new();
        let mut buf: Vec<Lit> = Vec::new();
        for (lits, origin) in sat.recorded_clauses() {
            match guard_group(origin) {
                None => {
                    solver.add_clause(lits.iter().copied());
                }
                Some(key) => {
                    let g = *map.entry(key).or_insert_with(|| Lit::pos(solver.new_var()));
                    buf.clear();
                    buf.extend_from_slice(lits);
                    buf.push(!g);
                    solver.add_clause(buf.iter().copied());
                }
            }
        }
        let guards: Vec<(ClauseOrigin, Lit)> = map.into_iter().collect();
        let by_code = guards
            .iter()
            .enumerate()
            .map(|(i, &(_, g))| (g.code(), i))
            .collect();
        GuardedModel {
            solver,
            guards,
            by_code,
        }
    }

    /// Solves `query` with every guard asserted except `disabled`
    /// groups; on unsat, extracts and shrinks the core and maps it back
    /// to clause groups.
    ///
    /// With `protect_onpath` the path-membership definition groups are
    /// treated as hard (assumed but never part of the cut): a query over
    /// an `onpath` gate would otherwise minimize to its own definition —
    /// sound but vacuous. Protecting them forces the core onto the
    /// steering logic (selects, addresses, decode ports) instead.
    fn core_groups(
        &mut self,
        query: &[Lit],
        disabled: &[ClauseOrigin],
        protect_onpath: bool,
        budget: &Budget,
    ) -> CoreResult {
        let mut hard: Vec<Lit> = query.to_vec();
        let mut soft: Vec<Lit> = Vec::new();
        for &(origin, g) in &self.guards {
            if disabled.contains(&origin) {
                continue;
            }
            if protect_onpath && matches!(origin, ClauseOrigin::OnPath(_)) {
                hard.push(g);
            } else {
                soft.push(g);
            }
        }
        let assum: Vec<Lit> = hard.iter().chain(soft.iter()).copied().collect();
        match self.solver.solve_with_under(&assum, budget) {
            SolveOutcome::Sat => CoreResult::Sat,
            SolveOutcome::Unknown { .. } => CoreResult::Unknown,
            SolveOutcome::Unsat => {
                // Deletion-minimize over the soft guards only, keeping
                // the hard prefix asserted in every trial.
                let core = self.solver.core().to_vec();
                let (cur, minimal) = self.solver.shrink_core_under(&hard, &core, budget);
                let groups: Vec<ClauseOrigin> = cur
                    .iter()
                    .filter_map(|l| self.by_code.get(&l.code()).map(|&i| self.guards[i].0))
                    .collect();
                CoreResult::Unsat { groups, minimal }
            }
        }
    }
}

enum CoreResult {
    Unsat {
        groups: Vec<ClauseOrigin>,
        minimal: bool,
    },
    Sat,
    Unknown,
}

/// Attaches a root-cause [`Explanation`] to every diagnostic of the
/// report that lacks one. `sat` must be the model the report was
/// verified against (structural codes only need `rsn`).
///
/// Budget-aware: an exhausted budget degrades remaining diagnostics to
/// cheap structural explanations marked incomplete. Records the
/// `verify.core_size`, `verify.cone_nodes` and `verify.explain_ns`
/// histograms.
pub fn explain_report(rsn: &Rsn, sat: &NetworkSat, report: &mut VerifyReport, budget: &Budget) {
    let _trace = rsn_obs::TraceGuard::new("explain");
    let owners = bit_owners(rsn);
    let mut guarded: Option<GuardedModel> = None;
    for d in report.diagnostics.iter_mut() {
        if d.explanation.is_some() {
            continue;
        }
        let start = Instant::now();
        let e = explain_diagnostic(rsn, sat, d, &owners, &mut guarded, budget);
        rsn_obs::hist_record("verify.explain_ns", start.elapsed().as_nanos() as u64);
        rsn_obs::hist_record("verify.cone_nodes", e.cone_nodes as u64);
        if !e.core.is_empty() || !e.control_bits.is_empty() {
            rsn_obs::hist_record("verify.core_size", e.core_size as u64);
        }
        d.explanation = Some(e);
    }
}

fn explain_diagnostic(
    rsn: &Rsn,
    sat: &NetworkSat,
    d: &Diagnostic,
    owners: &[Option<(NodeId, u32)>],
    guarded: &mut Option<GuardedModel>,
    budget: &Budget,
) -> Explanation {
    let mut roots: Vec<NodeId> = d.node.into_iter().collect();
    roots.extend(d.related.iter().copied());
    let cone = cone_of_influence(rsn, &roots);
    if budget.check().is_err() {
        return structural_explanation(rsn, d, cone.len(), false);
    }
    let node = match d.node {
        Some(n) => n,
        None => return structural_explanation(rsn, d, cone.len(), true),
    };
    match d.code {
        Code::SelectPathMismatch => explain_witness(
            rsn,
            sat,
            d,
            sat.select_mismatch(node),
            &cone,
            owners,
            guarded,
            budget,
        ),
        Code::MuxAddressOverflow => match sat.addr_overflow(node) {
            Some(l) => explain_witness(rsn, sat, d, l, &cone, owners, guarded, budget),
            None => structural_explanation(rsn, d, cone.len(), true),
        },
        Code::NeverSelected => explain_unsat(
            rsn,
            sat,
            d,
            vec![sat.select(node)],
            &cone,
            guarded,
            budget,
            false,
            format!(
                "the select predicate of {} can never hold",
                rsn.node(node).name()
            ),
        ),
        Code::UncontrollableControlRegister => explain_unsat(
            rsn,
            sat,
            d,
            vec![sat.onpath(node)],
            &cone,
            guarded,
            budget,
            true,
            format!("{} can never lie on any scan path", rsn.node(node).name()),
        ),
        Code::DeadMuxInput | Code::MuxNeverSwitches => {
            explain_dead_ports(rsn, sat, d, node, &cone, guarded, budget)
        }
        _ => structural_explanation(rsn, d, cone.len(), true),
    }
}

/// Existence findings: enumerate minimal forcing cubes of `finding`.
#[allow(clippy::too_many_arguments)]
fn explain_witness(
    rsn: &Rsn,
    sat: &NetworkSat,
    d: &Diagnostic,
    finding: Lit,
    cone: &[NodeId],
    owners: &[Option<(NodeId, u32)>],
    guarded: &mut Option<GuardedModel>,
    budget: &Budget,
) -> Explanation {
    let mut scratch = sat.scratch();
    let mut cubes: Vec<Vec<Lit>> = Vec::new();
    let mut complete = false;
    let mut minimized = true;
    loop {
        if cubes.len() >= MAX_CUBES || budget.check().is_err() {
            break;
        }
        match scratch.solver_mut().solve_with_under(&[finding], budget) {
            SolveOutcome::Unsat => {
                complete = true;
                break;
            }
            SolveOutcome::Unknown { .. } => break,
            SolveOutcome::Sat => {}
        }
        // Generalize the witness: why is ¬finding impossible under it?
        let mut assum = vec![!finding];
        for &l in sat.bit_lits().iter().flatten().chain(sat.input_lits()) {
            match scratch.solver_mut().lit_value_model(l) {
                Some(true) => assum.push(l),
                Some(false) => assum.push(!l),
                None => {}
            }
        }
        let outcome = scratch.solver_mut().solve_with_under(&assum, budget);
        if !outcome.is_unsat() {
            break; // budget ran out mid-generalization
        }
        let core = scratch.solver_mut().core().to_vec();
        let (core, minimal) = scratch.solver_mut().shrink_core_under(&[], &core, budget);
        minimized &= minimal;
        let cube: Vec<Lit> = core.into_iter().filter(|&l| l != !finding).collect();
        if cube.is_empty() {
            // The finding holds in *every* configuration: no control-bit
            // fix exists. Explain the universality structurally instead.
            let mut e = explain_unsat(
                rsn,
                sat,
                d,
                vec![!finding],
                cone,
                guarded,
                budget,
                true,
                format!(
                    "{} in every configuration; no control-bit assignment avoids it",
                    d.message
                ),
            );
            e.minimized &= minimal;
            return e;
        }
        // Block this cube and look for uncovered failing configurations.
        let blocking: Vec<Lit> = cube.iter().map(|&l| !l).collect();
        scratch.solver_mut().retract();
        scratch.solver_mut().add_clause(blocking);
        cubes.push(cube);
    }

    let mut cut_nodes: BTreeSet<NodeId> = BTreeSet::new();
    let mut cut_edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut hints: Vec<RepairHint> = Vec::new();
    if let Some(n) = d.node {
        cut_nodes.insert(n);
        if d.code == Code::SelectPathMismatch {
            push_hint(
                &mut hints,
                RepairAction::ReviseSelect,
                Some(n),
                format!("revise the select predicate of {}", rsn.node(n).name()),
            );
        }
        if rsn.node(n).as_mux().is_some() {
            push_hint(
                &mut hints,
                RepairAction::HardenMux,
                Some(n),
                format!("harden mux {}", rsn.node(n).name()),
            );
        }
    }

    // Map cube literals to control bits and implicate the muxes whose
    // addresses read the forcing registers.
    let fixes: Vec<Vec<ControlBitFix>> = cubes
        .iter()
        .map(|c| cube_to_fixes(rsn, sat, owners, c))
        .collect();
    // Only the primary (first) cube implicates nodes and drives hints:
    // the full cube set still backs the replay, but on large networks the
    // tail cubes touch steering registers all over the fabric and would
    // flood the cut with every mux in sight.
    let mut forcing_regs: BTreeSet<NodeId> = BTreeSet::new();
    if let Some(cube) = fixes.first() {
        for f in cube {
            if let Some((reg, _)) = f.register {
                forcing_regs.insert(reg);
                cut_nodes.insert(reg);
            }
        }
    }
    let mut refs = Vec::new();
    for &m in cone.iter() {
        let NodeKind::Mux(mux) = rsn.node(m).kind() else {
            continue;
        };
        refs.clear();
        for e in &mux.addr_bits {
            e.collect_reg_refs(&mut refs);
        }
        if refs.iter().any(|(reg, _)| forcing_regs.contains(reg)) {
            cut_nodes.insert(m);
            push_hint(
                &mut hints,
                RepairAction::HardenMux,
                Some(m),
                format!("harden mux {}", rsn.node(m).name()),
            );
            if let Some(w) = &d.witness {
                if let Ok(inp) = rsn.mux_selected_input(m, w) {
                    cut_edges.insert((inp, m));
                }
            }
        }
    }

    let (primary, rest) = match fixes.split_first() {
        Some((p, r)) => (p.clone(), r.to_vec()),
        None => (Vec::new(), Vec::new()),
    };
    let core_size = primary.len();
    let narrative = if fixes.is_empty() {
        format!("{} (no forcing cube extracted within budget)", d.message)
    } else {
        let total = fixes.len();
        let bits: Vec<String> = primary.iter().map(|f| f.render()).collect();
        let cover = if complete {
            format!("{total} minimal forcing cube(s) cover all failing configurations")
        } else {
            format!("first {total} forcing cube(s); cover incomplete")
        };
        format!(
            "{} exactly when {} ({cover})",
            d.message,
            bits.join(" and ")
        )
    };
    Explanation {
        cut_nodes: cut_nodes.into_iter().collect(),
        cut_edges: cut_edges.into_iter().collect(),
        control_bits: primary,
        other_cubes: rest,
        core: Vec::new(),
        cone_nodes: cone.len(),
        core_size,
        minimized,
        complete,
        narrative,
        hints,
    }
}

/// Universality findings: a minimal cut of clause groups whose removal
/// makes `query` satisfiable.
#[allow(clippy::too_many_arguments)]
fn explain_unsat(
    rsn: &Rsn,
    sat: &NetworkSat,
    d: &Diagnostic,
    query: Vec<Lit>,
    cone: &[NodeId],
    guarded: &mut Option<GuardedModel>,
    budget: &Budget,
    protect_onpath: bool,
    statement: String,
) -> Explanation {
    let gm = guarded.get_or_insert_with(|| GuardedModel::build(sat));
    match gm.core_groups(&query, &[], protect_onpath, budget) {
        CoreResult::Unsat { groups, minimal } => {
            let mut e = groups_to_explanation(rsn, d, &groups, cone.len());
            e.minimized = minimal;
            e.complete = true;
            e.narrative = if groups.is_empty() {
                format!("{statement}; the refutation needs no cuttable structure")
            } else {
                let labels: Vec<String> = groups.iter().map(|&g| origin_label(rsn, g)).collect();
                format!(
                    "{statement}; the proof rests exactly on: {}",
                    labels.join(", ")
                )
            };
            e
        }
        CoreResult::Sat => {
            // Cannot happen for a sound diagnostic (the query was proven
            // unsat on the unguarded model); degrade gracefully.
            structural_explanation(rsn, d, cone.len(), false)
        }
        CoreResult::Unknown => structural_explanation(rsn, d, cone.len(), false),
    }
}

/// `RSN003`/`RSN004`: merge the cores of every dead decode port.
fn explain_dead_ports(
    rsn: &Rsn,
    sat: &NetworkSat,
    d: &Diagnostic,
    mux: NodeId,
    cone: &[NodeId],
    guarded: &mut Option<GuardedModel>,
    budget: &Budget,
) -> Explanation {
    let Some(m) = rsn.node(mux).as_mux() else {
        return structural_explanation(rsn, d, cone.len(), true);
    };
    // RSN004 names the dead input in `related`; RSN003 means the whole
    // mux, so every port is a candidate.
    let ports: Vec<usize> = (0..m.inputs.len())
        .filter(|&k| d.related.is_empty() || d.related.contains(&m.inputs[k]))
        .collect();
    let gm = guarded.get_or_insert_with(|| GuardedModel::build(sat));
    let mut merged: BTreeSet<ClauseOrigin> = BTreeSet::new();
    let mut minimized = true;
    let mut complete = true;
    let mut dead = 0usize;
    for k in ports {
        if budget.check().is_err() {
            complete = false;
            break;
        }
        match gm.core_groups(&[sat.mux_cond(mux, k)], &[], false, budget) {
            CoreResult::Unsat { groups, minimal } => {
                dead += 1;
                minimized &= minimal;
                merged.extend(groups);
            }
            CoreResult::Sat => {} // alive port (RSN003 lists all)
            CoreResult::Unknown => {
                complete = false;
                break;
            }
        }
    }
    let groups: Vec<ClauseOrigin> = merged.into_iter().collect();
    let mut e = groups_to_explanation(rsn, d, &groups, cone.len());
    e.minimized = minimized;
    e.complete = complete;
    let labels: Vec<String> = groups.iter().map(|&g| origin_label(rsn, g)).collect();
    e.narrative = format!(
        "{} dead decode port(s) of {}; the exclusions rest on: {}",
        dead,
        rsn.node(mux).name(),
        if labels.is_empty() {
            "no cuttable structure".to_string()
        } else {
            labels.join(", ")
        }
    );
    e
}

/// Maps core clause groups to cut nodes/edges and hints.
fn groups_to_explanation(
    rsn: &Rsn,
    d: &Diagnostic,
    groups: &[ClauseOrigin],
    cone_nodes: usize,
) -> Explanation {
    let mut cut_nodes: BTreeSet<NodeId> = BTreeSet::new();
    let mut cut_edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut hints: Vec<RepairHint> = Vec::new();
    if let Some(n) = d.node {
        cut_nodes.insert(n);
    }
    for &g in groups {
        match g {
            ClauseOrigin::Select(n) => {
                cut_nodes.insert(n);
                push_hint(
                    &mut hints,
                    RepairAction::ReviseSelect,
                    Some(n),
                    format!("revise the select predicate of {}", rsn.node(n).name()),
                );
            }
            ClauseOrigin::MuxAddr(m) => {
                cut_nodes.insert(m);
                push_hint(
                    &mut hints,
                    RepairAction::HardenMux,
                    Some(m),
                    format!("harden mux {}", rsn.node(m).name()),
                );
            }
            ClauseOrigin::MuxPort(m, k) => {
                cut_nodes.insert(m);
                if let Some(mx) = rsn.node(m).as_mux() {
                    if let Some(&inp) = mx.inputs.get(k) {
                        cut_edges.insert((inp, m));
                    }
                }
                push_hint(
                    &mut hints,
                    RepairAction::HardenMux,
                    Some(m),
                    format!("harden mux {}", rsn.node(m).name()),
                );
            }
            ClauseOrigin::OnPath(n) => {
                cut_nodes.insert(n);
            }
            ClauseOrigin::Base | ClauseOrigin::Mismatch(_) | ClauseOrigin::Overflow(_) => {}
        }
    }
    Explanation {
        cut_nodes: cut_nodes.into_iter().collect(),
        cut_edges: cut_edges.into_iter().collect(),
        control_bits: Vec::new(),
        other_cubes: Vec::new(),
        core: groups.to_vec(),
        cone_nodes,
        core_size: groups.len(),
        minimized: false,
        complete: false,
        narrative: String::new(),
        hints,
    }
}

/// Cheap explanation for graph-derived findings (and the degraded path
/// when the budget is exhausted).
fn structural_explanation(
    rsn: &Rsn,
    d: &Diagnostic,
    cone_nodes: usize,
    complete: bool,
) -> Explanation {
    let mut cut_nodes: BTreeSet<NodeId> = BTreeSet::new();
    let mut hints: Vec<RepairHint> = Vec::new();
    if let Some(n) = d.node {
        cut_nodes.insert(n);
    }
    cut_nodes.extend(d.related.iter().copied());
    match d.code {
        Code::AddressWithoutShadow => {
            if let Some(&reg) = d.related.first() {
                push_hint(
                    &mut hints,
                    RepairAction::AddShadow,
                    Some(reg),
                    format!("add a shadow register to {}", rsn.node(reg).name()),
                );
            }
        }
        Code::UnreachableFromScanIn | Code::CannotReachScanOut => {
            if let Some(n) = d.node {
                push_hint(
                    &mut hints,
                    RepairAction::ConnectNode,
                    Some(n),
                    format!("connect {} to the scan fabric", rsn.node(n).name()),
                );
            }
        }
        Code::ControlDependencyCycle => {
            if let Some(n) = d.node {
                push_hint(
                    &mut hints,
                    RepairAction::BreakCycle,
                    Some(n),
                    format!("break the control cycle through {}", rsn.node(n).name()),
                );
            }
        }
        _ => {}
    }
    Explanation {
        cut_nodes: cut_nodes.into_iter().collect(),
        cut_edges: Vec::new(),
        control_bits: Vec::new(),
        other_cubes: Vec::new(),
        core: Vec::new(),
        cone_nodes,
        core_size: 0,
        minimized: false,
        complete,
        narrative: d.message.clone(),
        hints,
    }
}

fn push_hint(
    hints: &mut Vec<RepairHint>,
    action: RepairAction,
    target: Option<NodeId>,
    text: String,
) {
    if !hints
        .iter()
        .any(|h| h.action == action && h.target == target)
    {
        hints.push(RepairHint {
            action,
            target,
            text,
        });
    }
}

/// Maps cube literals back to named control bits.
fn cube_to_fixes(
    rsn: &Rsn,
    sat: &NetworkSat,
    owners: &[Option<(NodeId, u32)>],
    cube: &[Lit],
) -> Vec<ControlBitFix> {
    let mut fixes = Vec::new();
    for &l in cube {
        if let Some(i) = sat
            .bit_lits()
            .iter()
            .position(|b| b.is_some_and(|b| b.var() == l.var()))
        {
            let (label, register) = match owners.get(i).copied().flatten() {
                Some((reg, b)) => (format!("{}[{}]", rsn.node(reg).name(), b), Some((reg, b))),
                None => (format!("bit{i}"), None),
            };
            fixes.push(ControlBitFix {
                register,
                bit: Some(i),
                input: None,
                label,
                value: l.polarity(),
            });
        } else if let Some(i) = sat.input_lits().iter().position(|b| b.var() == l.var()) {
            fixes.push(ControlBitFix {
                register: None,
                bit: None,
                input: Some(i as u32),
                label: format!("in{i}"),
                value: l.polarity(),
            });
        }
    }
    fixes
}

/// Replays an explanation against the model and reports whether
/// applying its cut provably eliminates the diagnostic:
///
/// * existence findings — blocking every enumerated forcing cube makes
///   the finding unsatisfiable;
/// * universality findings — disabling the core clause groups makes the
///   refuted property satisfiable.
///
/// Returns `None` for graph-derived codes (no SAT-level replay
/// semantics) and for incomplete explanations.
pub fn replay_eliminates(rsn: &Rsn, sat: &NetworkSat, d: &Diagnostic) -> Option<bool> {
    let e = d.explanation.as_ref()?;
    if !e.complete {
        return None;
    }
    let node = d.node?;
    let _ = rsn;
    match d.code {
        Code::SelectPathMismatch | Code::MuxAddressOverflow => {
            let finding = if d.code == Code::SelectPathMismatch {
                sat.select_mismatch(node)
            } else {
                sat.addr_overflow(node)?
            };
            if e.control_bits.is_empty() {
                // Universality fallback: the finding held everywhere and
                // was explained by a structural core instead.
                if e.core.is_empty() {
                    return None;
                }
                let mut gm = GuardedModel::build(sat);
                return match gm.core_groups(&[!finding], &e.core, true, &Budget::unlimited()) {
                    CoreResult::Sat => Some(true),
                    _ => Some(false),
                };
            }
            let mut scratch = sat.scratch();
            let mut all = vec![e.control_bits.clone()];
            all.extend(e.other_cubes.iter().cloned());
            for cube in &all {
                let blocking: Vec<Lit> = cube.iter().filter_map(|f| fix_lit(sat, f)).collect();
                if blocking.len() != cube.len() {
                    return Some(false);
                }
                let blocking: Vec<Lit> = blocking.into_iter().map(|l| !l).collect();
                scratch.solver_mut().add_clause(blocking);
            }
            Some(!scratch.solver_mut().solve_with(&[finding]))
        }
        Code::NeverSelected | Code::UncontrollableControlRegister => {
            if e.core.is_empty() {
                return None;
            }
            let query = if d.code == Code::NeverSelected {
                sat.select(node)
            } else {
                sat.onpath(node)
            };
            let protect = d.code == Code::UncontrollableControlRegister;
            let mut gm = GuardedModel::build(sat);
            match gm.core_groups(&[query], &e.core, protect, &Budget::unlimited()) {
                CoreResult::Sat => Some(true),
                _ => Some(false),
            }
        }
        _ => None,
    }
}

/// The model literal a [`ControlBitFix`] pins, at the pinned polarity.
fn fix_lit(sat: &NetworkSat, f: &ControlBitFix) -> Option<Lit> {
    let base = if let Some(i) = f.bit {
        sat.bit_lits().get(i).copied()??
    } else if let Some(i) = f.input {
        *sat.input_lits().get(i as usize)?
    } else {
        return None;
    };
    Some(if f.value { base } else { !base })
}
