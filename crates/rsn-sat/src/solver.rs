//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the MiniSat architecture: two-watched-literal
//! propagation, first-UIP conflict analysis, VSIDS variable activities with
//! a lazily-updated binary heap, phase saving, Luby restarts, and
//! activity-based reduction of the learnt-clause database.

#![allow(clippy::needless_range_loop)]
use crate::lit::{Lit, Var};
use rsn_budget::{Budget, Reason};

/// Undefined/true/false assignment value.
const UNDEF: u8 = 2;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
    /// Literal block distance ("glue") at learning time: the number of
    /// distinct decision levels in the clause. 0 for problem clauses.
    /// Low-LBD clauses connect few decision levels and empirically stay
    /// useful, so `reduce_db` prefers them over raw activity.
    lbd: u32,
}

type ClauseRef = usize;

/// Maximum-activity variable order (binary heap with position index).
#[derive(Debug, Clone, Default)]
struct VarOrder {
    heap: Vec<Var>,
    pos: Vec<usize>, // usize::MAX if not in heap
}

impl VarOrder {
    fn contains(&self, v: Var) -> bool {
        v.index() < self.pos.len() && self.pos[v.index()] != usize::MAX
    }

    fn grow(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, usize::MAX);
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("nonempty");
        self.pos[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bump(&mut self, v: Var, act: &[f64]) {
        if let Some(&i) = self.pos.get(v.index()) {
            if i != usize::MAX {
                self.sift_up(i, act);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].index()] = i;
        self.pos[self.heap[j].index()] = j;
    }
}

/// Restart scheduling policy for the CDCL loop.
///
/// The serial default is `Luby { base: 100 }` — the i-th restart fires
/// after `base * luby(i)` conflicts. Portfolio workers diversify over
/// this schedule (and over [`SearchConfig::var_decay`] / phase seeds) so
/// each worker explores a different part of the search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RestartSchedule {
    /// Luby sequence (1,1,2,1,1,2,4,…) scaled by `base` conflicts.
    Luby {
        /// Conflicts per Luby unit.
        base: u64,
    },
    /// Geometric: first restart after `base` conflicts, each subsequent
    /// interval multiplied by `factor`.
    Geometric {
        /// Conflicts before the first restart.
        base: u64,
        /// Interval growth per restart (> 1.0).
        factor: f64,
    },
}

impl RestartSchedule {
    /// Conflict budget of the `i`-th restart interval (0-based).
    fn interval(self, i: u32) -> u64 {
        match self {
            RestartSchedule::Luby { base } => base * luby(i),
            RestartSchedule::Geometric { base, factor } => {
                (base as f64 * factor.powi(i as i32)).min(1e18) as u64
            }
        }
    }
}

/// Tunable search heuristics. [`SearchConfig::default`] reproduces the
/// historical serial behaviour exactly (Luby-100 restarts, VSIDS decay
/// 0.95, saved phases untouched), so a default-configured solve is
/// bit-identical to the pre-configurable solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SearchConfig {
    /// Restart schedule.
    pub restart: RestartSchedule,
    /// VSIDS activity decay per conflict (`var_inc /= var_decay`).
    pub var_decay: f64,
    /// When set, initial phase polarities are scrambled from this
    /// splitmix64 seed before the search starts (portfolio
    /// diversification); `None` keeps the saved phases as-is.
    pub phase_seed: Option<u64>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            restart: RestartSchedule::Luby { base: 100 },
            var_decay: 0.95,
            phase_seed: None,
        }
    }
}

/// Solver statistics, reset by [`Solver::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
}

/// Tri-state result of a budgeted solve ([`Solver::solve_with_under`]).
///
/// `Unknown` means the budget ran out before the solver reached a
/// verdict — the formula may be either satisfiable or unsatisfiable. The
/// solver itself stays consistent (trail unwound to level 0, learnt
/// clauses kept) and may be re-solved with a fresh budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Satisfiable; the model is available through [`Solver::value`].
    Sat,
    /// Proven unsatisfiable (under the given assumptions).
    Unsat,
    /// Budget exhausted before a verdict.
    Unknown {
        /// Conflicts spent in this call before giving up.
        conflicts: u64,
        /// Which budget limit tripped.
        reason: Reason,
    },
}

impl SolveOutcome {
    /// `true` only for a proven [`SolveOutcome::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveOutcome::Sat
    }

    /// `true` only for a proven [`SolveOutcome::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SolveOutcome::Unsat
    }

    /// `true` if the budget ran out before a verdict.
    pub fn is_unknown(self) -> bool {
        matches!(self, SolveOutcome::Unknown { .. })
    }
}

/// A CDCL SAT solver.
///
/// # Example
///
/// ```
/// use rsn_sat::{Lit, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b): forces a = b = true.
/// s.add_clause([Lit::pos(a), Lit::pos(b)]);
/// s.add_clause([Lit::neg(a), Lit::pos(b)]);
/// s.add_clause([Lit::pos(a), Lit::neg(b)]);
/// assert!(s.solve());
/// assert_eq!(s.value(a), Some(true));
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Watch lists indexed by literal code: clauses currently watching the
    /// literal (visited when the literal becomes false).
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    /// Per variable: may the search branch on it (MiniSat's `decision`
    /// flag)? On for every variable unless [`Solver::set_decision`]
    /// switches it off.
    decision: Vec<bool>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    unsat: bool,
    stats: Stats,
    max_learnts: f64,
    /// Temporary buffer for conflict analysis.
    seen: Vec<bool>,
    /// Failed-assumption core of the last unsatisfiable solve.
    core: Vec<Lit>,
    /// Search heuristics (restart schedule, VSIDS decay, phase seed).
    config: SearchConfig,
    /// Worker count for budgeted solves; 1 = the exact serial loop,
    /// > 1 dispatches through the portfolio (see [`crate::portfolio`]).
    threads: usize,
    /// LBD samples of clauses learnt since the last drain; exported to
    /// the `sat.learnt_lbd` histogram once per solve (merging beats
    /// taking the global metrics lock on every conflict).
    lbd_acc: rsn_obs::Histogram,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            decision: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            unsat: false,
            stats: Stats::default(),
            max_learnts: 1000.0,
            seen: Vec::new(),
            core: Vec::new(),
            config: SearchConfig::default(),
            threads: 1,
            lbd_acc: rsn_obs::Histogram::new(),
        }
    }

    /// Replaces the search heuristics (restart schedule, VSIDS decay,
    /// phase scrambling seed). The default reproduces the serial solver
    /// exactly; portfolio workers diversify over this.
    pub(crate) fn set_search_config(&mut self, config: SearchConfig) {
        self.config = config;
    }

    /// Current search heuristics.
    pub(crate) fn search_config(&self) -> SearchConfig {
        self.config
    }

    /// Sets the worker count of every solve: the one public way to reach
    /// the parallel portfolio. `1` (the default) keeps the exact serial
    /// CDCL loop — bit-identical verdicts and stats; `n > 1` routes
    /// [`Solver::solve_with_under`] (and therefore `solve_with`, `solve`
    /// and `shrink_core_under`) through the escalation ladder: a serial
    /// burst, bounded variable elimination, then a race of
    /// `min(n, available_parallelism)` diversified CDCL workers sharing
    /// short learnt clauses (the serial loop when that width is 1).
    /// Values are clamped to at least 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Worker count used by budgeted solves.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.decision.push(true);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.assign.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Makes `v` a decision variable (`on`, the default for every
    /// variable) or not. The search branches only on decision variables,
    /// and a solve answers `Sat` as soon as every decision variable is
    /// assigned without conflict. A variable that is off is assigned only
    /// if propagation forces it; otherwise [`Solver::value`] reads `None`
    /// for it after the solve.
    ///
    /// Flags only narrow the search, so an `Unsat` verdict never depends
    /// on them. A `Sat` verdict does: switching variables off is sound
    /// only if every assignment of the decision variables that falsifies
    /// no clause extends to a model of the whole formula, for instance
    /// when every clause defines a gate and the decision variables are
    /// closed under gate fan-in (how `rsn-verify` narrows its queries).
    /// Flags persist across solves and into clones; call this between
    /// solves.
    pub fn set_decision(&mut self, v: Var, on: bool) {
        self.decision[v.index()] = on;
        // An assigned variable re-enters the order when it is unassigned
        // (`backtrack`); a variable switched off stays in the heap until
        // `decide` pops and drops it.
        if on && self.assign[v.index()] == UNDEF {
            self.order.insert(v, &self.activity);
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (including learnt, excluding deleted).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Solver statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    fn lit_value(&self, l: Lit) -> u8 {
        let a = self.assign[l.var().index()];
        if a == UNDEF {
            UNDEF
        } else {
            (a != 0) as u8 ^ (l.is_neg() as u8)
        }
    }

    fn lit_is_true(&self, l: Lit) -> bool {
        self.lit_value(l) == 1
    }

    fn lit_is_false(&self, l: Lit) -> bool {
        self.lit_value(l) == 0
    }

    /// Unwinds the trail to the root level, retracting any assumptions
    /// left in place by a satisfiable solve so new clauses may be added.
    /// Invalidates the current model.
    pub fn retract(&mut self) {
        self.backtrack(0);
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause after simplification).
    ///
    /// Clauses may only be added at decision level 0 (i.e. between `solve`
    /// calls); literals already falsified at level 0 are removed and
    /// satisfied clauses dropped.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if self.unsat {
            return false;
        }
        let mut c: Vec<Lit> = lits.into_iter().collect();
        for l in &c {
            assert!(
                l.var().index() < self.num_vars(),
                "unallocated variable {}",
                l.var()
            );
        }
        c.sort_unstable();
        c.dedup();
        // Tautology or satisfied?
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return true; // l and ¬l
            }
        }
        c.retain(|&l| !self.lit_is_false(l));
        if c.iter().any(|&l| self.lit_is_true(l)) {
            return true;
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(c, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len();
        self.watches[(!lits[0]).code()].push(cref);
        self.watches[(!lits[1]).code()].push(cref);
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
            lbd,
        });
        if learnt {
            self.stats.learnts += 1;
        }
        cref
    }

    /// Literal block distance of a clause under the current assignment:
    /// the number of distinct non-zero decision levels among its
    /// literals. Must be called before backtracking discards the levels.
    fn clause_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().index()])
            .filter(|&lv| lv > 0)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        (levels.len() as u32).max(1)
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.lit_value(l) == UNDEF);
        let v = l.var();
        self.assign[v.index()] = l.polarity() as u8;
        self.level[v.index()] = self.trail_lim.len() as u32;
        self.reason[v.index()] = reason;
        self.phase[v.index()] = l.polarity();
        self.trail.push(l);
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation; returns the conflicting clause on conflict.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p must be inspected: p became true, so
            // their watch on ¬p is falsified. Our watch lists are indexed
            // by the falsified literal: watches[l] holds clauses that have
            // ¬l among their first two literals... We store: a clause with
            // watched literals w0, w1 appears in watches[(!w0).code()] and
            // watches[(!w1).code()], so when w becomes false (¬w = p true)
            // we look at watches[p.code()].
            let mut i = 0;
            'next_clause: while i < self.watches[p.code()].len() {
                let cref = self.watches[p.code()][i];
                if self.clauses[cref].deleted {
                    self.watches[p.code()].swap_remove(i);
                    continue;
                }
                // The falsified literal is ¬p.
                let false_lit = !p;
                // Normalize so that lits[1] is the falsified watch.
                if self.clauses[cref].lits[0] == false_lit {
                    self.clauses[cref].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[cref].lits[1], false_lit);
                let first = self.clauses[cref].lits[0];
                if self.lit_is_true(first) {
                    i += 1;
                    continue;
                }
                // Search a new watch.
                for k in 2..self.clauses[cref].lits.len() {
                    let l = self.clauses[cref].lits[k];
                    if !self.lit_is_false(l) {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[(!l).code()].push(cref);
                        self.watches[p.code()].swap_remove(i);
                        continue 'next_clause;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_is_false(first) {
                    self.prop_head = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bump(v, &self.activity);
    }

    fn bump_clause(&mut self, c: ClauseRef) {
        self.clauses[c].activity += self.cla_inc;
        if self.clauses[c].activity > 1e100 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder for UIP
        let mut counter = 0usize;
        // Variable of the literal whose reason is currently being expanded
        // (skip it: the reason clause contains the propagated literal).
        let mut p_var: Option<Var> = None;
        let mut p_lit: Option<Lit>;
        let mut cref = conflict;
        let mut trail_idx = self.trail.len();
        let cur_level = self.current_level();

        loop {
            self.bump_clause(cref);
            let lits = self.clauses[cref].lits.clone();
            for &q in lits.iter() {
                if Some(q.var()) == p_var {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.level[v.index()] == cur_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Select next literal to expand: last seen on the trail.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if self.seen[l.var().index()] {
                    p_lit = Some(!l);
                    p_var = Some(l.var());
                    break;
                }
            }
            let pv = p_var.expect("set above");
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p_lit.expect("set above");
                break;
            }
            cref = self.reason[pv.index()].expect("non-decision at current level has a reason");
        }

        // Clear seen flags of remaining literals.
        for l in learnt.iter().skip(1) {
            self.seen[l.var().index()] = false;
        }

        // Backtrack level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    fn backtrack(&mut self, to_level: u32) {
        if self.current_level() <= to_level {
            return;
        }
        let lim = self.trail_lim[to_level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = UNDEF;
            self.reason[v.index()] = None;
            if self.decision[v.index()] {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(to_level as usize);
        self.prop_head = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()] == UNDEF && self.decision[v.index()] {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let phase = self.phase[v.index()];
                self.enqueue(Lit::with_polarity(v, phase), None);
                return true;
            }
        }
        false
    }

    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<ClauseRef> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && c.lits.len() > 2 && !self.is_reason(i)
            })
            .collect();
        // Worst first: highest LBD, ties broken by lowest activity. Glue
        // clauses (LBD ≤ 2) sort last and in practice always survive.
        learnt_refs.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = learnt_refs.len() / 2;
        for &cref in learnt_refs.iter().take(to_delete) {
            self.clauses[cref].deleted = true;
            self.stats.learnts = self.stats.learnts.saturating_sub(1);
        }
    }

    fn is_reason(&self, cref: ClauseRef) -> bool {
        // A clause is locked if it is the reason of its first literal.
        let c = &self.clauses[cref];
        if c.lits.is_empty() {
            return false;
        }
        let v = c.lits[0].var();
        self.reason[v.index()] == Some(cref) && self.assign[v.index()] != UNDEF
    }

    /// Solves the formula without assumptions. Returns `true` if
    /// satisfiable; the model is then available through [`Solver::value`].
    pub fn solve(&mut self) -> bool {
        self.solve_with(&[])
    }

    /// Solves under the given assumptions. Returns `true` if satisfiable
    /// with all assumption literals forced true.
    ///
    /// The solver remains usable afterwards (assumptions are retracted), so
    /// incremental querying is supported.
    ///
    /// Each call exports its [`Stats`] delta into the global `rsn-obs`
    /// registry under `sat.conflicts`, `sat.decisions`,
    /// `sat.propagations`, `sat.restarts` plus `sat.solves` and a
    /// `sat.sat` / `sat.unsat` outcome counter.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> bool {
        match self.solve_with_under(assumptions, &Budget::unlimited()) {
            SolveOutcome::Sat => true,
            SolveOutcome::Unsat => false,
            SolveOutcome::Unknown { .. } => unreachable!("unlimited budget cannot exhaust"),
        }
    }

    /// Solves under assumptions and a [`Budget`].
    ///
    /// One work unit is spent on entry (so a zero budget deterministically
    /// yields `Unknown`) and one per conflict, so a work-unit limit
    /// bounds the number of conflicts and a deadline is honoured within
    /// one clock stride of conflicts. On exhaustion the trail is unwound to
    /// level 0 and [`SolveOutcome::Unknown`] is returned; the solver
    /// stays usable (learnt clauses are kept), and an exhausted budget
    /// makes every later call return `Unknown` immediately.
    ///
    /// Unknown outcomes count into `sat.unknown` and `budget.exhausted`,
    /// and record a [`rsn_obs::record_budget_trip`] backtrace. Each call
    /// also samples the `sat.solve_ns` / `sat.solve_conflicts` histograms
    /// and attributes its budget work (conflicts + the entry unit) to
    /// `budget.spent{engine=sat}`.
    pub fn solve_with_under(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        // Chaos failpoint: `panic`/`delay` fire inside `eval`; an
        // injected error or budget exhaustion cancels the caller's
        // budget, so this call (and the rest of its request) degrades
        // through the normal `Unknown` path instead of dying.
        if rsn_fail::eval("sat.solve").is_some() {
            budget.cancel();
        }
        let _trace = rsn_obs::TraceGuard::new("sat_solve");
        let start = std::time::Instant::now();
        let before = self.stats;
        let result = if self.threads > 1 {
            crate::portfolio::solve_portfolio(self, assumptions, budget)
        } else {
            self.solve_inner_para(assumptions, budget, None)
        };
        let after = self.stats;
        let conflicts = after.conflicts - before.conflicts;
        rsn_obs::counter_add("sat.solves", 1);
        rsn_obs::counter_add("sat.conflicts", conflicts);
        rsn_obs::counter_add("sat.decisions", after.decisions - before.decisions);
        rsn_obs::counter_add("sat.propagations", after.propagations - before.propagations);
        rsn_obs::counter_add("sat.restarts", after.restarts - before.restarts);
        rsn_obs::hist_record("sat.solve_ns", start.elapsed().as_nanos() as u64);
        rsn_obs::hist_record("sat.solve_conflicts", conflicts);
        // One budget unit is spent on entry, one per conflict (see above).
        rsn_obs::counter_add("budget.spent{engine=sat}", conflicts + 1);
        if !self.lbd_acc.is_empty() {
            rsn_obs::hist_merge("sat.learnt_lbd", &self.take_lbd_hist());
        }
        match result {
            SolveOutcome::Sat => rsn_obs::counter_add("sat.sat", 1),
            SolveOutcome::Unsat => rsn_obs::counter_add("sat.unsat", 1),
            SolveOutcome::Unknown { reason, .. } => {
                rsn_obs::counter_add("sat.unknown", 1);
                rsn_obs::counter_add("budget.exhausted", 1);
                rsn_obs::record_budget_trip("sat", reason.as_str());
            }
        }
        result
    }

    /// The CDCL loop. `para` is `None` for the serial path and carries
    /// the portfolio context (sibling stop flag, shared clause pool,
    /// conflict quota) for portfolio workers; every `para` hook is
    /// behind an `if`, so the serial path is the exact historical loop.
    pub(crate) fn solve_inner_para(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
        para: Option<&crate::portfolio::ParaCtx>,
    ) -> SolveOutcome {
        // The core describes the *last* unsatisfiable answer only; an
        // empty core on Unsat means the formula needs no assumptions.
        self.core.clear();
        if self.unsat {
            return SolveOutcome::Unsat;
        }
        let conflicts_at_entry = self.stats.conflicts;
        // An already-exhausted (or zero) budget admits no search at all.
        if let Err(e) = budget.check() {
            return SolveOutcome::Unknown {
                conflicts: 0,
                reason: e.reason,
            };
        }
        if let Some(ctx) = para {
            if let Some(seed) = self.config.phase_seed {
                self.scramble_phases(seed ^ ctx.author as u64);
            }
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveOutcome::Unsat;
        }

        let mut restart_index = 0u32;
        let mut conflicts_until_restart = self.config.restart.interval(restart_index);
        let mut conflict_count_local = 0u64;

        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflict_count_local += 1;
                if self.current_level() as usize <= assumptions.len() {
                    // Conflict among assumptions/root: unsat under
                    // assumptions (formula itself unsat only without them).
                    if assumptions.is_empty() {
                        self.unsat = true;
                    } else {
                        let seeds = self.clauses[conflict].lits.clone();
                        self.core = self.analyze_final(&seeds, assumptions);
                    }
                    self.backtrack(0);
                    return SolveOutcome::Unsat;
                }
                if let Err(e) = budget.check() {
                    self.backtrack(0);
                    return SolveOutcome::Unknown {
                        conflicts: self.stats.conflicts - conflicts_at_entry,
                        reason: e.reason,
                    };
                }
                if let Some(ctx) = para {
                    // A sibling proved the verdict — this worker's result
                    // is discarded, so Unknown/Cancelled is accurate.
                    if ctx.stopped() {
                        self.backtrack(0);
                        return SolveOutcome::Unknown {
                            conflicts: self.stats.conflicts - conflicts_at_entry,
                            reason: Reason::Cancelled,
                        };
                    }
                    // Burst quota exceeded: hand the instance to the next
                    // ladder step.
                    if ctx
                        .quota
                        .is_some_and(|q| self.stats.conflicts - conflicts_at_entry >= q)
                    {
                        self.backtrack(0);
                        return SolveOutcome::Unknown {
                            conflicts: self.stats.conflicts - conflicts_at_entry,
                            reason: Reason::WorkLimit,
                        };
                    }
                }
                let (learnt, bt_level) = self.analyze(conflict);
                let lbd = self.clause_lbd(&learnt);
                self.lbd_acc.record(lbd as u64);
                if let Some(ctx) = para {
                    if let Some(pool) = ctx.pool {
                        pool.publish(&learnt, lbd, ctx.author);
                    }
                }
                // Never backtrack past the assumption levels.
                let bt = bt_level
                    .max(assumptions.len() as u32)
                    .min(self.current_level() - 1);
                self.backtrack(bt);
                if learnt.len() == 1 && bt == 0 {
                    if self.lit_value(learnt[0]) == UNDEF {
                        self.enqueue(learnt[0], None);
                    } else if self.lit_is_false(learnt[0]) {
                        if assumptions.is_empty() {
                            self.unsat = true;
                        }
                        self.backtrack(0);
                        return SolveOutcome::Unsat;
                    }
                } else if learnt.len() == 1 {
                    // Asserting unit but we could not go to level 0 due to
                    // assumptions; enqueue if possible.
                    if self.lit_value(learnt[0]) == UNDEF {
                        self.enqueue(learnt[0], None);
                    } else if self.lit_is_false(learnt[0]) {
                        if !assumptions.is_empty() {
                            self.core = self.analyze_final(&learnt, assumptions);
                        }
                        self.backtrack(0);
                        return SolveOutcome::Unsat;
                    }
                } else {
                    let cref = self.attach_clause(learnt.clone(), true, lbd);
                    if self.lit_value(learnt[0]) == UNDEF {
                        self.enqueue(learnt[0], Some(cref));
                    } else if self.lit_is_false(learnt[0]) {
                        if !assumptions.is_empty() {
                            self.core = self.analyze_final(&learnt, assumptions);
                        }
                        self.backtrack(0);
                        if assumptions.is_empty() {
                            self.unsat = true;
                        }
                        return SolveOutcome::Unsat;
                    }
                }
                self.var_inc /= self.config.var_decay;
                self.cla_inc /= 0.999;
                if self.stats.learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.1;
                }
            } else {
                // Restart?
                if conflict_count_local >= conflicts_until_restart {
                    conflict_count_local = 0;
                    restart_index += 1;
                    conflicts_until_restart = self.config.restart.interval(restart_index);
                    self.stats.restarts += 1;
                    if para.is_some_and(|ctx| ctx.pool.is_some()) {
                        // Clause import happens at level 0 so imported
                        // units live below the assumption pseudo-decisions
                        // (keeping `analyze_final` cores valid); the
                        // assumptions are re-placed by the loop below.
                        self.backtrack(0);
                        let ctx = para.expect("checked above");
                        if !self.import_pool(ctx) {
                            // An imported clause (all F-implied) closed the
                            // proof: unsat regardless of assumptions.
                            self.core.clear();
                            self.unsat = true;
                            return SolveOutcome::Unsat;
                        }
                    } else {
                        self.backtrack(assumptions.len() as u32);
                    }
                    // Restart boundary: re-read the wall clock even if no
                    // conflict crossed a stride since the last check.
                    if let Some(reason) = budget.poll() {
                        self.backtrack(0);
                        return SolveOutcome::Unknown {
                            conflicts: self.stats.conflicts - conflicts_at_entry,
                            reason,
                        };
                    }
                }
                if para.is_some_and(|ctx| ctx.stopped()) {
                    self.backtrack(0);
                    return SolveOutcome::Unknown {
                        conflicts: self.stats.conflicts - conflicts_at_entry,
                        reason: Reason::Cancelled,
                    };
                }
                // Place assumptions as pseudo-decisions.
                if (self.current_level() as usize) < assumptions.len() {
                    let a = assumptions[self.current_level() as usize];
                    if self.lit_is_true(a) {
                        // Already satisfied; open an empty decision level to
                        // keep level bookkeeping aligned.
                        self.trail_lim.push(self.trail.len());
                        continue;
                    }
                    if self.lit_is_false(a) {
                        // ¬a is implied by earlier assumptions (or at the
                        // root); the refutation is that implication plus
                        // the assumption `a` itself.
                        let mut core = self.analyze_final(&[a], assumptions);
                        if !core.contains(&a) {
                            core.push(a);
                        }
                        self.core = core;
                        self.backtrack(0);
                        return SolveOutcome::Unsat;
                    }
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(a, None);
                    continue;
                }
                if !self.decide() {
                    // Every decision variable is assigned.
                    return SolveOutcome::Sat;
                }
            }
        }
    }

    /// MiniSat-style final-conflict analysis. `seeds` are literals that
    /// are falsified (or whose falsification is being explained) under
    /// the assumption pseudo-decisions; the implication trail is walked
    /// backwards from them, expanding reasons, and the assumption
    /// literals reached as decisions form the failed-assumption core.
    ///
    /// Must run *before* backtracking. If a non-assumption decision is
    /// ever reached (which the solve loop's backtrack clamping should
    /// rule out), the full assumption list is returned instead — still a
    /// valid core, merely untight.
    fn analyze_final(&mut self, seeds: &[Lit], assumptions: &[Lit]) -> Vec<Lit> {
        let mut core = Vec::new();
        if assumptions.is_empty() || self.trail_lim.is_empty() {
            return core;
        }
        let mut marked = 0usize;
        for &l in seeds {
            let v = l.var();
            if self.assign[v.index()] != UNDEF && self.level[v.index()] > 0 && !self.seen[v.index()]
            {
                self.seen[v.index()] = true;
                marked += 1;
            }
        }
        let mut clean = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            if marked == 0 {
                break;
            }
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            self.seen[v.index()] = false;
            marked -= 1;
            match self.reason[v.index()] {
                None => {
                    // A decision. Levels 1..=assumptions.len() hold the
                    // assumption pseudo-decisions; the enqueued literal is
                    // the assumption itself.
                    if self.level[v.index()] as usize <= assumptions.len() {
                        core.push(l);
                    } else {
                        debug_assert!(false, "non-assumption decision in final conflict");
                        clean = false;
                    }
                }
                Some(cref) => {
                    let lits = self.clauses[cref].lits.clone();
                    for &q in &lits {
                        let qv = q.var();
                        if qv != v && self.level[qv.index()] > 0 && !self.seen[qv.index()] {
                            self.seen[qv.index()] = true;
                            marked += 1;
                        }
                    }
                }
            }
        }
        debug_assert_eq!(marked, 0, "every marked var lies on the trail");
        if marked > 0 {
            // Unreachable by construction; keep `seen` pristine anyway.
            for i in start..self.trail.len() {
                self.seen[self.trail[i].var().index()] = false;
            }
        }
        if clean {
            core
        } else {
            assumptions.to_vec()
        }
    }

    /// Failed-assumption core of the most recent unsatisfiable solve: a
    /// subset of the assumption literals whose conjunction with the
    /// formula is already unsatisfiable. Empty when the formula is
    /// unsatisfiable without any assumptions. Overwritten by every solve
    /// call (and cleared on `Sat`/`Unknown` outcomes), so read it right
    /// after the `Unsat` verdict.
    pub fn core(&self) -> &[Lit] {
        &self.core
    }

    /// Budget-aware deletion-based minimization of a failed-assumption
    /// core: each member is dropped in turn and the remainder re-solved;
    /// `Unsat` answers also *refine* the working core to the solver's
    /// newly extracted (possibly smaller) one. Returns the shrunk core
    /// and a flag that is `true` iff the pass completed, i.e. every
    /// surviving member was proven necessary (dropping it alone makes
    /// the query satisfiable) — a minimal unsatisfiable subset.
    ///
    /// `hard` is a prefix of assumptions asserted in every trial but never
    /// minimized: its literals are dropped from `core` and from every
    /// refined core, so the result names only the soft members needed on
    /// top of it. Pass `&[]` to minimize the whole core.
    ///
    /// On budget exhaustion the current (still valid, unminimized) core
    /// is returned with `false`; the routine never hangs.
    pub fn shrink_core_under(
        &mut self,
        hard: &[Lit],
        core: &[Lit],
        budget: &Budget,
    ) -> (Vec<Lit>, bool) {
        let soft = |lits: &[Lit]| -> Vec<Lit> {
            lits.iter().copied().filter(|l| !hard.contains(l)).collect()
        };
        let mut cur = soft(core);
        // Every literal is tested exactly once; refinement may delete
        // queued literals early, in which case they are skipped.
        let mut queue: Vec<Lit> = cur.clone();
        while let Some(cand) = queue.pop() {
            if !cur.contains(&cand) {
                continue; // dropped by an earlier refinement
            }
            if budget.check().is_err() {
                return (cur, false);
            }
            let trial: Vec<Lit> = hard
                .iter()
                .copied()
                .chain(cur.iter().copied().filter(|&l| l != cand))
                .collect();
            match self.solve_with_under(&trial, budget) {
                SolveOutcome::Unsat => {
                    // cand is redundant; adopt the refined core (a subset
                    // of `trial`, so necessity of already-kept members is
                    // preserved by monotonicity).
                    cur = soft(&self.core);
                }
                SolveOutcome::Sat => {} // cand is necessary, keep it
                SolveOutcome::Unknown { .. } => return (cur, false),
            }
        }
        (cur, true)
    }

    /// Model value of a variable after a satisfiable [`Solver::solve`] call,
    /// `None` if unassigned (only a variable that is not a decision
    /// variable, see [`Solver::set_decision`], can be).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            UNDEF => None,
            x => Some(x != 0),
        }
    }

    /// Model value of a literal after a satisfiable solve call.
    pub fn lit_value_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.polarity())
    }

    /// Imports clauses published by sibling portfolio workers since this
    /// worker's last import. Must run at decision level 0 — imported
    /// units are enqueued as root facts (below the assumption
    /// pseudo-decisions, keeping [`Solver::analyze_final`] cores valid).
    /// Returns `false` when an import proves unsatisfiability outright;
    /// every shared clause is implied by the formula alone, so that
    /// verdict holds for any assumptions.
    fn import_pool(&mut self, ctx: &crate::portfolio::ParaCtx) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "imports only at level 0");
        let pool = ctx.pool.expect("import_pool requires a pool");
        let mut batch = Vec::new();
        let seen = ctx.last_seen.get();
        ctx.last_seen
            .set(pool.collect_since(seen, ctx.author, &mut batch));
        'clauses: for (mut lits, lbd) in batch {
            // At level 0 every assigned literal is a root fact: a true
            // literal satisfies the clause forever, a false one can be
            // stripped without changing the clause's models.
            let mut w = 0;
            for i in 0..lits.len() {
                match self.lit_value(lits[i]) {
                    1 => continue 'clauses,
                    0 => {}
                    _ => {
                        lits[w] = lits[i];
                        w += 1;
                    }
                }
            }
            lits.truncate(w);
            match lits.len() {
                0 => return false,
                1 => {
                    // Propagate immediately so later clauses in the batch
                    // are filtered against the strengthened root.
                    self.enqueue(lits[0], None);
                    if self.propagate().is_some() {
                        return false;
                    }
                }
                _ => {
                    self.attach_clause(lits, true, lbd);
                }
            }
        }
        true
    }

    /// Reinitializes every saved phase from a splitmix64 stream
    /// (portfolio diversification).
    pub(crate) fn scramble_phases(&mut self, seed: u64) {
        let mut state = seed;
        for p in &mut self.phase {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            *p = z & 1 == 1;
        }
    }

    /// Drains the locally accumulated LBD samples (see `lbd_acc`).
    pub(crate) fn take_lbd_hist(&mut self) -> rsn_obs::Histogram {
        std::mem::replace(&mut self.lbd_acc, rsn_obs::Histogram::new())
    }

    /// Folds a losing worker's LBD samples into this solver's local
    /// accumulator so one `sat.learnt_lbd` merge covers the whole
    /// portfolio.
    pub(crate) fn merge_lbd_hist(&mut self, h: &rsn_obs::Histogram) {
        self.lbd_acc.merge(h);
    }

    /// Overwrites the failed-assumption core (with the core of the
    /// reduced instance after variable elimination).
    pub(crate) fn set_core_direct(&mut self, core: Vec<Lit>) {
        self.core = core;
    }

    /// Latches the formula as unsatisfiable (set when the reduced
    /// instance of an assumption-free query is refuted).
    pub(crate) fn mark_unsat(&mut self) {
        self.unsat = true;
    }

    /// Folds a losing worker's flow counters into these stats so the
    /// portfolio's exported totals account for all work performed.
    pub(crate) fn add_flow_stats(&mut self, delta: Stats) {
        self.stats.conflicts += delta.conflicts;
        self.stats.decisions += delta.decisions;
        self.stats.propagations += delta.propagations;
        self.stats.restarts += delta.restarts;
    }

    /// Flow-counter delta (conflicts/decisions/propagations/restarts)
    /// accumulated since `before`; `learnts` is a level, not a flow, and
    /// stays 0.
    pub(crate) fn flow_delta_since(&self, before: Stats) -> Stats {
        Stats {
            conflicts: self.stats.conflicts - before.conflicts,
            decisions: self.stats.decisions - before.decisions,
            propagations: self.stats.propagations - before.propagations,
            restarts: self.stats.restarts - before.restarts,
            learnts: 0,
        }
    }

    /// `true` once the formula has been latched unsatisfiable (empty
    /// clause, root conflict or a refuted assumption-free solve).
    pub(crate) fn unsat_latched(&self) -> bool {
        self.unsat
    }

    /// Snapshot of the clause database simplified against the root
    /// assignment: satisfied clauses are dropped and root-false literals
    /// stripped. With `learnts == false` the irredundant clauses are
    /// returned, prefixed by one unit clause per root fact (so the
    /// snapshot is self-contained); `learnts == true` returns the learnt
    /// clauses only. Input for the escalation-path variable elimination
    /// (see [`crate::eliminate`]). Call at decision level 0.
    pub(crate) fn root_clauses(&self, learnts: bool) -> Vec<Vec<Lit>> {
        debug_assert!(self.trail_lim.is_empty(), "snapshot requires level 0");
        let mut out = Vec::new();
        if !learnts {
            for &l in &self.trail {
                out.push(vec![l]);
            }
        }
        'clauses: for c in &self.clauses {
            if c.deleted || c.learnt != learnts {
                continue;
            }
            let mut lits = Vec::with_capacity(c.lits.len());
            for &l in &c.lits {
                if self.lit_is_true(l) {
                    continue 'clauses;
                }
                if !self.lit_is_false(l) {
                    lits.push(l);
                }
            }
            out.push(lits);
        }
        out
    }

    /// `true` if the full assignment satisfies every live clause —
    /// validation for models reconstructed after variable elimination.
    pub(crate) fn check_model(&self, model: &[bool]) -> bool {
        self.clauses
            .iter()
            .filter(|c| !c.deleted)
            .all(|c| c.lits.iter().any(|l| model[l.var().index()] != l.is_neg()))
    }

    /// Replays an externally produced full assignment as a sequence of
    /// decisions, leaving the solver in the same state as a satisfiable
    /// solve that happened to make those decisions (so [`Solver::value`],
    /// `retract` and incremental re-solving all behave normally).
    /// Propagation runs after every decision; a conflict — impossible
    /// for a genuine model — aborts the replay and returns `false` with
    /// the trail unwound, and a propagation-forced value disagreeing
    /// with `model` does the same. Call at decision level 0.
    pub(crate) fn adopt_model(&mut self, model: &[bool]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "replay requires level 0");
        debug_assert_eq!(model.len(), self.num_vars());
        if self.unsat || self.propagate().is_some() {
            return false;
        }
        for vi in 0..self.num_vars() {
            match self.assign[vi] {
                UNDEF => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(Lit::with_polarity(Var(vi as u32), model[vi]), None);
                    if self.propagate().is_some() {
                        self.backtrack(0);
                        return false;
                    }
                }
                a if (a != 0) != model[vi] => {
                    self.backtrack(0);
                    return false;
                }
                _ => {}
            }
        }
        true
    }
}

/// The Luby sequence (1,1,2,1,1,2,4,...), used for restart scheduling.
/// `i` is 0-based.
fn luby(i: u32) -> u64 {
    // 1-based recurrence: luby(n) = 2^(k-1) if n = 2^k - 1,
    // else luby(n - 2^(k-1) + 1) for 2^(k-1) <= n < 2^k - 1.
    let mut n = (i + 1) as u64;
    loop {
        if (n + 1).is_power_of_two() {
            return n.div_ceil(2);
        }
        let k = 63 - (n + 1).leading_zeros() as u64; // floor(log2(n+1))
        n -= (1u64 << k) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(v: Var) -> Lit {
        Lit::pos(v)
    }
    fn ln(v: Var) -> Lit {
        Lit::neg(v)
    }

    #[test]
    fn luby_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve());
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([lp(a)]);
        s.add_clause([ln(a), lp(b)]);
        assert!(s.solve());
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([lp(a)]);
        assert!(!s.add_clause([ln(a)]));
        assert!(!s.solve());
    }

    #[test]
    fn pigeonhole_2_into_1_is_unsat() {
        // Two pigeons, one hole.
        let mut s = Solver::new();
        let p = [s.new_var(), s.new_var()];
        s.add_clause([lp(p[0])]);
        s.add_clause([lp(p[1])]);
        s.add_clause([ln(p[0]), ln(p[1])]);
        assert!(!s.solve());
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        // p[i][j]: pigeon i in hole j. 4 pigeons, 3 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 3]; 4];
        for i in 0..4 {
            for j in 0..3 {
                p[i][j] = s.new_var();
            }
        }
        for i in 0..4 {
            s.add_clause((0..3).map(|j| lp(p[i][j])));
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause([ln(p[i1][j]), ln(p[i2][j])]);
                }
            }
        }
        assert!(!s.solve());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn xor_chain_is_sat_with_consistent_parity() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 0  (consistent)
        let mut s = Solver::new();
        let x: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let xor = |s: &mut Solver, a: Var, b: Var, val: bool| {
            if val {
                s.add_clause([lp(a), lp(b)]);
                s.add_clause([ln(a), ln(b)]);
            } else {
                s.add_clause([lp(a), ln(b)]);
                s.add_clause([ln(a), lp(b)]);
            }
        };
        xor(&mut s, x[0], x[1], true);
        xor(&mut s, x[1], x[2], true);
        xor(&mut s, x[0], x[2], false);
        assert!(s.solve());
        let v0 = s.value(x[0]).expect("assigned");
        let v1 = s.value(x[1]).expect("assigned");
        let v2 = s.value(x[2]).expect("assigned");
        assert!(v0 ^ v1);
        assert!(v1 ^ v2);
        assert!(!(v0 ^ v2));
    }

    #[test]
    fn xor_cycle_odd_is_unsat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 1 (odd cycle, unsat)
        let mut s = Solver::new();
        let x: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            s.add_clause([lp(x[a]), lp(x[b])]);
            s.add_clause([ln(x[a]), ln(x[b])]);
        }
        assert!(!s.solve());
    }

    #[test]
    fn assumptions_are_retractable() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([lp(a), lp(b)]);
        assert!(s.solve_with(&[ln(a)]));
        assert_eq!(s.value(b), Some(true));
        assert!(s.solve_with(&[ln(b)]));
        assert_eq!(s.value(a), Some(true));
        // Contradictory assumptions: unsat under assumptions...
        assert!(!s.solve_with(&[ln(a), ln(b)]));
        // ...but the formula itself is still satisfiable.
        assert!(s.solve());
    }

    #[test]
    fn assumption_conflicting_with_unit_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([lp(a)]);
        assert!(!s.solve_with(&[ln(a)]));
        assert!(s.solve());
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause([lp(a), ln(a)]));
        assert!(s.solve());
    }

    #[test]
    fn duplicate_literals_are_deduplicated() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause([lp(a), lp(a), lp(b)]));
        s.add_clause([ln(a)]);
        assert!(s.solve());
        assert_eq!(s.value(b), Some(true));
    }

    /// 4 pigeons / 3 holes: small but guaranteed to conflict.
    fn pigeonhole_4_3() -> Solver {
        let mut s = Solver::new();
        let mut p = [[Var(0); 3]; 4];
        for i in 0..4 {
            for j in 0..3 {
                p[i][j] = s.new_var();
            }
        }
        for i in 0..4 {
            s.add_clause((0..3).map(|j| lp(p[i][j])));
        }
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause([ln(p[i1][j]), ln(p[i2][j])]);
                }
            }
        }
        s
    }

    #[test]
    fn zero_budget_returns_unknown() {
        use rsn_budget::Budget;
        let mut s = pigeonhole_4_3();
        let out = s.solve_with_under(&[], &Budget::unlimited().with_work_limit(0));
        match out {
            SolveOutcome::Unknown { conflicts, reason } => {
                assert_eq!(conflicts, 0);
                assert_eq!(reason, Reason::WorkLimit);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        // Solver is still usable: an unconstrained solve proves unsat.
        assert!(!s.solve());
    }

    #[test]
    fn zero_deadline_returns_unknown() {
        use rsn_budget::Budget;
        use std::time::Duration;
        let mut s = pigeonhole_4_3();
        let out = s.solve_with_under(&[], &Budget::unlimited().with_deadline(Duration::ZERO));
        assert_eq!(
            out,
            SolveOutcome::Unknown {
                conflicts: 0,
                reason: Reason::Deadline
            }
        );
    }

    #[test]
    fn conflict_budget_bounds_search_and_preserves_solver() {
        use rsn_budget::Budget;
        let mut s = pigeonhole_4_3();
        // 1 entry unit + conflict units; the conflict whose check trips
        // is already counted, so at most `limit` conflicts happen.
        let out = s.solve_with_under(&[], &Budget::unlimited().with_work_limit(3));
        match out {
            SolveOutcome::Unknown { conflicts, reason } => {
                assert!(conflicts <= 3, "overran conflict budget: {conflicts}");
                assert_eq!(reason, Reason::WorkLimit);
            }
            // A 12-var pigeonhole needs more than 2 conflicts.
            other => panic!("expected Unknown, got {other:?}"),
        }
        // Re-solving with a fresh, bigger budget finishes the proof.
        let out = s.solve_with_under(&[], &Budget::unlimited().with_work_limit(1_000_000));
        assert_eq!(out, SolveOutcome::Unsat);
    }

    #[test]
    fn exhausted_budget_is_latched_across_solves() {
        use rsn_budget::Budget;
        let budget = Budget::unlimited().with_work_limit(0);
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([lp(a)]);
        assert!(s.solve_with_under(&[], &budget).is_unknown());
        // Same budget again: still Unknown, even for a trivial formula.
        assert!(s.solve_with_under(&[], &budget).is_unknown());
        // A fresh budget resolves it.
        assert!(s.solve_with_under(&[], &Budget::unlimited()).is_sat());
    }

    #[test]
    fn cancel_token_aborts_solve() {
        use rsn_budget::Budget;
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let mut s = pigeonhole_4_3();
        assert_eq!(
            s.solve_with_under(&[], &budget),
            SolveOutcome::Unknown {
                conflicts: 0,
                reason: Reason::Cancelled
            }
        );
    }

    #[test]
    fn budgeted_outcomes_match_unbudgeted_verdicts() {
        use rsn_budget::Budget;
        let generous = Budget::unlimited().with_work_limit(10_000_000);
        let mut s = pigeonhole_4_3();
        assert_eq!(s.solve_with_under(&[], &generous), SolveOutcome::Unsat);

        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([lp(a), lp(b)]);
        s.add_clause([ln(a), lp(b)]);
        assert_eq!(
            s.solve_with_under(&[lp(a)], &Budget::unlimited()),
            SolveOutcome::Sat
        );
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn decision_flags_narrow_the_search() {
        let mut s = Solver::new();
        let (a, b, c, d) = (s.new_var(), s.new_var(), s.new_var(), s.new_var());
        s.add_clause([lp(a), lp(b)]);
        s.add_clause([ln(a), lp(c)]);
        s.add_clause([ln(d), lp(a)]);
        s.add_clause([ln(d), ln(c)]);
        for v in [b, c, d] {
            s.set_decision(v, false);
        }
        // Sat once `a`, the one decision variable, is assigned: `c` and
        // `d` are forced, `b` is left unassigned.
        assert!(s.solve_with(&[lp(a)]));
        assert_eq!(s.value(a), Some(true));
        assert_eq!((s.value(c), s.value(d)), (Some(true), Some(false)));
        assert_eq!(s.value(b), None);
        assert_eq!(s.stats().decisions, 0);
        // Unsat never depends on the flags: `d` forces `a`, then `c`,
        // which `d` forbids.
        assert!(!s.solve_with(&[lp(d)]));
        // Flags persist across solves and into clones, and switching a
        // variable back on makes the search decide it again.
        let mut twin = s.clone();
        assert!(twin.solve());
        assert_eq!(twin.value(b), None);
        s.set_decision(b, true);
        assert!(s.solve());
        assert!(s.value(b).is_some());
    }

    /// Brute-force evaluation for cross-checking.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        for m in 0u32..(1 << num_vars) {
            let val = |l: Lit| {
                let bit = (m >> l.var().0) & 1 == 1;
                bit == l.polarity()
            };
            if clauses.iter().all(|c| c.iter().any(|&l| val(l))) {
                return true;
            }
        }
        false
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic LCG so the test is reproducible.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _round in 0..200 {
            let nv = 4 + (next() % 5) as usize; // 4..8 vars
            let nc = 5 + (next() % 25) as usize;
            let clauses: Vec<Vec<Lit>> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = Var(next() % nv as u32);
                            if next() % 2 == 0 {
                                Lit::pos(v)
                            } else {
                                Lit::neg(v)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut s = Solver::new();
            for _ in 0..nv {
                s.new_var();
            }
            let mut trivially_unsat = false;
            for c in &clauses {
                if !s.add_clause(c.iter().copied()) {
                    trivially_unsat = true;
                }
            }
            let expected = brute_force_sat(nv, &clauses);
            let got = if trivially_unsat { false } else { s.solve() };
            assert_eq!(got, expected, "clauses: {clauses:?}");
            if got {
                // Verify the model.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.lit_value_model(l) == Some(true)),
                        "model does not satisfy {c:?}"
                    );
                }
            }
        }
    }
}
