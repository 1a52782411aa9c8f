//! Branch & bound for 0/1 integer programs, with a lazy-cut callback.
//!
//! Nodes carry variable fixings; each node's LP relaxation is solved by the
//! two-phase simplex and the tree is explored best-first (lowest LP bound
//! first). Lazily separated constraints — the subtour-elimination cuts of
//! the RSN augmentation ILP — are added through
//! [`solve_ilp_with_cuts_under`], mirroring the "lazy constraints"
//! interface of commercial solvers.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use rsn_budget::Budget;

use crate::model::{Constraint, Problem, VarId};
use crate::simplex::{solve_lp_with_stats, LpOutcome};

const INT_EPS: f64 = 1e-6;

/// Errors from the ILP solver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IlpError {
    /// The constraints admit no integral solution.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The node limit was exhausted before *any* integral solution was
    /// found. When an incumbent exists, exhaustion instead returns it
    /// with [`IlpSolution::proven_optimal`] `false`.
    NodeLimit,
    /// The [`Budget`] was exhausted before any integral solution was
    /// found (same incumbent rule as [`IlpError::NodeLimit`]).
    Budget,
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::Infeasible => write!(f, "integer program is infeasible"),
            IlpError::Unbounded => write!(f, "integer program is unbounded"),
            IlpError::NodeLimit => write!(f, "node limit exhausted before a feasible solution"),
            IlpError::Budget => write!(f, "budget exhausted before a feasible solution"),
        }
    }
}

impl std::error::Error for IlpError {}

/// An optimal (or best-found) integral solution.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Objective value.
    pub objective: f64,
    /// Variable values (integral variables are exact 0/1 etc. after
    /// rounding within tolerance).
    pub values: Vec<f64>,
    /// Number of branch-and-bound nodes explored (accumulated across all
    /// re-solves when lazy cuts are in play).
    pub nodes: u64,
    /// Number of lazy-cut rounds that added at least one cut (0 for plain
    /// `solve_ilp`).
    pub cut_rounds: u32,
    /// Total simplex iterations across every LP relaxation solved.
    pub simplex_iters: u64,
    /// `true` if the search proved optimality; `false` if a node limit or
    /// budget stopped the search first, making this the best incumbent
    /// found so far (always feasible, possibly suboptimal).
    pub proven_optimal: bool,
}

impl IlpSolution {
    /// Value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is out of range.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// `true` if a binary variable is set (value > 0.5).
    pub fn is_set(&self, v: VarId) -> bool {
        self.values[v.index()] > 0.5
    }
}

#[derive(Debug)]
struct Node {
    bound: f64,
    fixings: Vec<(VarId, f64)>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on the bound (BinaryHeap is a max-heap).
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
    }
}

fn lp_with_fixings(problem: &Problem, fixings: &[(VarId, f64)], iters: &mut u64) -> LpOutcome {
    let (outcome, stats) = if fixings.is_empty() {
        solve_lp_with_stats(problem)
    } else {
        let mut p = problem.clone();
        for &(v, val) in fixings {
            p.fix_var(v, val);
        }
        solve_lp_with_stats(&p)
    };
    *iters += stats.iterations;
    outcome
}

/// Solves a minimization 0/1 ILP to optimality by branch & bound.
///
/// # Errors
///
/// * [`IlpError::Infeasible`] if no integral solution exists.
/// * [`IlpError::Unbounded`] if the relaxation is unbounded.
/// * [`IlpError::NodeLimit`] after 200 000 nodes without *any* feasible
///   solution; if an incumbent exists it is returned instead, flagged
///   [`IlpSolution::proven_optimal`] `false`.
///
/// Each call exports `ilp.solves` and `ilp.nodes` into the global
/// `rsn-obs` registry (simplex iteration counters are exported by the LP
/// layer underneath).
pub fn solve_ilp(problem: &Problem) -> Result<IlpSolution, IlpError> {
    solve_ilp_under(problem, &Budget::unlimited())
}

/// Like [`solve_ilp`], bounded by a [`Budget`].
///
/// One work unit is spent per branch-and-bound node, so a work-unit
/// limit bounds the tree size and a deadline is honoured within one
/// clock stride of nodes. On exhaustion the best incumbent (if any) is
/// returned with [`IlpSolution::proven_optimal`] `false`; without an
/// incumbent the search fails with [`IlpError::Budget`]. Either way a
/// `budget.exhausted` event is counted.
///
/// # Errors
///
/// Those of [`solve_ilp`], plus [`IlpError::Budget`] when the budget ran
/// out before any feasible solution was found.
pub fn solve_ilp_under(problem: &Problem, budget: &Budget) -> Result<IlpSolution, IlpError> {
    // Chaos failpoint: injected errors / budget exhaustion cancel the
    // caller's budget so the search degrades (incumbent kept, or
    // `IlpError::Budget` and the synthesis greedy fallback) — it never
    // invents a result.
    if rsn_fail::eval("ilp.solve").is_some() {
        budget.cancel();
    }
    let _trace = rsn_obs::TraceGuard::new("ilp_solve");
    let start = std::time::Instant::now();
    let result = solve_ilp_impl(problem, 200_000, budget);
    rsn_obs::counter_add("ilp.solves", 1);
    rsn_obs::hist_record("ilp.solve_ns", start.elapsed().as_nanos() as u64);
    let trip = |budget: &Budget| {
        // An unproven result without an exhausted budget hit the
        // internal node cap instead.
        let reason = budget.exhausted().map_or("node_limit", |r| r.as_str());
        rsn_obs::record_budget_trip("ilp", reason);
    };
    if let Ok(sol) = &result {
        rsn_obs::counter_add("ilp.nodes", sol.nodes);
        // One budget unit per explored node (see above).
        rsn_obs::counter_add("budget.spent{engine=ilp}", sol.nodes);
        if !sol.proven_optimal {
            rsn_obs::counter_add("ilp.unproven", 1);
            rsn_obs::counter_add("budget.exhausted", 1);
            trip(budget);
        }
    } else if result == Err(IlpError::Budget) {
        rsn_obs::counter_add("budget.exhausted", 1);
        trip(budget);
    }
    result
}

/// Which resource stopped the tree search before an optimality proof.
enum LimitHit {
    Nodes,
    Budget,
}

fn solve_ilp_impl(
    problem: &Problem,
    node_limit: u64,
    budget: &Budget,
) -> Result<IlpSolution, IlpError> {
    let mut heap = BinaryHeap::new();
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut nodes = 0u64;
    let mut simplex_iters = 0u64;
    let mut limit_hit: Option<LimitHit> = None;

    {
        let (outcome, stats) = solve_lp_with_stats(problem);
        simplex_iters += stats.iterations;
        match outcome {
            LpOutcome::Infeasible => return Err(IlpError::Infeasible),
            LpOutcome::Unbounded => return Err(IlpError::Unbounded),
            LpOutcome::Optimal { objective, .. } => {
                heap.push(Node {
                    bound: objective,
                    fixings: Vec::new(),
                });
            }
        }
    }

    while let Some(node) = heap.pop() {
        nodes += 1;
        if nodes > node_limit {
            limit_hit = Some(LimitHit::Nodes);
            break;
        }
        if budget.check().is_err() {
            limit_hit = Some(LimitHit::Budget);
            break;
        }
        // Drop guard so every explored node samples `ilp.node_ns`, the
        // bound-dominated `continue` paths included.
        struct NodeTimer(std::time::Instant);
        impl Drop for NodeTimer {
            fn drop(&mut self) {
                rsn_obs::hist_record("ilp.node_ns", self.0.elapsed().as_nanos() as u64);
            }
        }
        let _node_timer = NodeTimer(std::time::Instant::now());
        if let Some((best, _)) = &incumbent {
            if node.bound >= *best - INT_EPS {
                continue; // bound-dominated
            }
        }
        let outcome = lp_with_fixings(problem, &node.fixings, &mut simplex_iters);
        let (objective, x) = match outcome {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => return Err(IlpError::Unbounded),
            LpOutcome::Optimal { objective, x } => (objective, x),
        };
        if let Some((best, _)) = &incumbent {
            if objective >= *best - INT_EPS {
                continue;
            }
        }
        // Most fractional integral variable.
        let mut branch_var = None;
        let mut best_frac = INT_EPS;
        for (j, xj) in x.iter().enumerate().take(problem.num_vars()) {
            if !problem.vars[j].integer {
                continue;
            }
            let frac = (xj - xj.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some(VarId(j as u32));
            }
        }
        match branch_var {
            None => {
                // Integral: new incumbent.
                let mut xi = x;
                for (j, v) in problem.vars.iter().enumerate() {
                    if v.integer {
                        xi[j] = xi[j].round();
                    }
                }
                let obj = problem.objective_value(&xi);
                let better = incumbent.as_ref().is_none_or(|(b, _)| obj < *b - INT_EPS);
                if better {
                    rsn_obs::trace_instant("ilp_incumbent");
                    incumbent = Some((obj, xi));
                }
            }
            Some(v) => {
                let floor = x[v.index()].floor();
                for val in [floor, floor + 1.0] {
                    let mut fixings = node.fixings.clone();
                    fixings.push((v, val));
                    // Cheap child bound: parent objective (LP re-solved on
                    // pop).
                    heap.push(Node {
                        bound: objective,
                        fixings,
                    });
                }
            }
        }
    }

    match (incumbent, limit_hit) {
        (Some((objective, values)), limit) => Ok(IlpSolution {
            objective,
            values,
            nodes,
            cut_rounds: 0,
            simplex_iters,
            proven_optimal: limit.is_none(),
        }),
        (None, None) => Err(IlpError::Infeasible),
        (None, Some(LimitHit::Nodes)) => Err(IlpError::NodeLimit),
        (None, Some(LimitHit::Budget)) => Err(IlpError::Budget),
    }
}

/// Solves an ILP with lazily separated constraints, bounded by a
/// [`Budget`] shared across all cut rounds.
///
/// After each optimal integral solution, `separate` is called with the
/// solution vector; if it returns violated constraints they are added to
/// the model and the ILP is re-solved. Terminates when no cuts are
/// returned.
///
/// This is the mechanism used for the exponential family of
/// subtour-elimination constraints in the RSN augmentation ILP (paper
/// eq. 4): only cuts violated by an actual solution are materialized.
///
/// An incumbent returned under exhaustion satisfies every *separated*
/// constraint: if the budget trips mid-round and the unproven incumbent
/// still violates lazy cuts, it is unusable for the full model and the
/// call fails with [`IlpError::Budget`] instead of returning it.
///
/// # Errors
///
/// Same as [`solve_ilp`], plus termination after 1000 cut rounds is
/// reported as [`IlpError::NodeLimit`], and [`IlpError::Budget`] when the
/// budget ran out before any fully lazily-feasible solution was found.
pub fn solve_ilp_with_cuts_under(
    problem: &Problem,
    mut separate: impl FnMut(&[f64]) -> Vec<Constraint>,
    budget: &Budget,
) -> Result<IlpSolution, IlpError> {
    let mut p = problem.clone();
    // Telemetry accumulated across re-solves: the caller sees total work,
    // not just the final round's.
    let mut total_nodes = 0u64;
    let mut total_iters = 0u64;
    for round in 0..1000u32 {
        let mut sol = solve_ilp_under(&p, budget)?;
        total_nodes += sol.nodes;
        total_iters += sol.simplex_iters;
        let cuts = separate(&sol.values);
        if cuts.is_empty() {
            sol.cut_rounds = round;
            sol.nodes = total_nodes;
            sol.simplex_iters = total_iters;
            rsn_obs::counter_add("ilp.cut_rounds", u64::from(round));
            return Ok(sol);
        }
        if !sol.proven_optimal {
            // Budget ran out and the incumbent still violates lazy
            // constraints: nothing feasible to hand back.
            return Err(IlpError::Budget);
        }
        rsn_obs::counter_add("ilp.cuts_added", cuts.len() as u64);
        for c in cuts {
            p.add_constraint(c);
        }
    }
    Err(IlpError::NodeLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Problem};

    #[test]
    fn knapsack_is_solved_optimally() {
        // max 10x0 + 13x1 + 7x2 s.t. 3x0 + 4x1 + 2x2 <= 6 (min of negation)
        // Optimum: x0 + x1 (7) weight ... let's enumerate: {x0,x1}: w=7 >6.
        // {x1,x2}: w=6, value 20. {x0,x2}: w=5, value 17. -> best 20.
        let mut p = Problem::new();
        let x0 = p.add_binary_var("x0", -10.0);
        let x1 = p.add_binary_var("x1", -13.0);
        let x2 = p.add_binary_var("x2", -7.0);
        p.add_le([(x0, 3.0), (x1, 4.0), (x2, 2.0)], 6.0);
        let sol = solve_ilp(&p).expect("solvable");
        assert!((sol.objective + 20.0).abs() < 1e-6);
        assert!(!sol.is_set(x0));
        assert!(sol.is_set(x1));
        assert!(sol.is_set(x2));
    }

    #[test]
    fn vertex_cover_on_a_triangle() {
        // Minimum vertex cover of a triangle needs 2 vertices.
        let mut p = Problem::new();
        let v: Vec<VarId> = (0..3)
            .map(|i| p.add_binary_var(format!("v{i}"), 1.0))
            .collect();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            p.add_ge([(v[a], 1.0), (v[b], 1.0)], 1.0);
        }
        let sol = solve_ilp(&p).expect("solvable");
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_ilp_is_reported() {
        let mut p = Problem::new();
        let x = p.add_binary_var("x", 1.0);
        let y = p.add_binary_var("y", 1.0);
        p.add_ge([(x, 1.0), (y, 1.0)], 3.0); // max achievable is 2
        assert_eq!(solve_ilp(&p), Err(IlpError::Infeasible));
    }

    #[test]
    fn integrality_gap_is_closed_by_branching() {
        // LP relaxation is fractional (1.5); ILP optimum is 2.
        let mut p = Problem::new();
        let x = p.add_binary_var("x", 1.0);
        let y = p.add_binary_var("y", 1.0);
        p.add_ge([(x, 2.0), (y, 2.0)], 3.0);
        let sol = solve_ilp(&p).expect("solvable");
        assert!((sol.objective - 2.0).abs() < 1e-6);
        assert!(sol.is_set(x) && sol.is_set(y));
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y + x, binary y, continuous x; x + 2y >= 2.5.
        // y=1 -> x >= 0.5, cost 1.5. y=0 -> x >= 2.5, cost 2.5.
        let mut p = Problem::new();
        let x = p.add_var("x", 1.0, None);
        let y = p.add_binary_var("y", 1.0);
        p.add_ge([(x, 1.0), (y, 2.0)], 2.5);
        let sol = solve_ilp(&p).expect("solvable");
        assert!((sol.objective - 1.5).abs() < 1e-6, "{}", sol.objective);
        assert!(sol.is_set(y));
        assert!((sol.value(x) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lazy_cuts_are_separated() {
        // min -x0 - x1 - x2 with xi binary; lazily forbid "all three set"
        // via the cut x0 + x1 + x2 <= 2.
        let mut p = Problem::new();
        let v: Vec<VarId> = (0..3)
            .map(|i| p.add_binary_var(format!("x{i}"), -1.0))
            .collect();
        let vs = v.clone();
        let sol = solve_ilp_with_cuts_under(
            &p,
            move |x| {
                let total: f64 = vs.iter().map(|&v| x[v.index()]).sum();
                if total > 2.5 {
                    vec![Constraint {
                        terms: vs.iter().map(|&v| (v, 1.0)).collect(),
                        op: ConstraintOp::Le,
                        rhs: 2.0,
                    }]
                } else {
                    Vec::new()
                }
            },
            &Budget::unlimited(),
        )
        .expect("solvable");
        assert!((sol.objective + 2.0).abs() < 1e-6);
        assert_eq!(sol.cut_rounds, 1);
        let set = v.iter().filter(|&&x| sol.is_set(x)).count();
        assert_eq!(set, 2);
    }

    /// A knapsack with a known optimum of -20, feasible at every node
    /// depth (used for limit-exhaustion regressions).
    fn knapsack() -> (Problem, f64) {
        let mut p = Problem::new();
        let x0 = p.add_binary_var("x0", -10.0);
        let x1 = p.add_binary_var("x1", -13.0);
        let x2 = p.add_binary_var("x2", -7.0);
        p.add_le([(x0, 3.0), (x1, 4.0), (x2, 2.0)], 6.0);
        (p, -20.0)
    }

    #[test]
    fn node_limit_preserves_feasible_incumbent() {
        // Regression: a tripped node limit used to discard the incumbent
        // and surface as Err(NodeLimit) even for feasible problems. Walk
        // the limit up from 1: every outcome must be either a NodeLimit
        // error (no incumbent yet) or a *feasible* solution, and once the
        // limit stops binding the solution must be proven optimal.
        let (p, optimum) = knapsack();
        let unconstrained = solve_ilp(&p).expect("solvable");
        assert!(unconstrained.proven_optimal);
        let mut saw_unproven = false;
        for limit in 1..=unconstrained.nodes + 1 {
            match solve_ilp_impl(&p, limit, &Budget::unlimited()) {
                Ok(sol) => {
                    assert!(
                        p.is_feasible(&sol.values, 1e-6),
                        "limit {limit}: infeasible incumbent returned"
                    );
                    assert!(sol.objective >= optimum - 1e-6);
                    if sol.proven_optimal {
                        assert!((sol.objective - optimum).abs() < 1e-6);
                    } else {
                        saw_unproven = true;
                    }
                }
                Err(IlpError::NodeLimit) => {} // stopped before any incumbent
                Err(e) => panic!("limit {limit}: unexpected {e:?}"),
            }
        }
        assert!(saw_unproven, "no limit produced an unproven incumbent");
    }

    #[test]
    fn budget_exhaustion_returns_incumbent_or_budget_error() {
        let (p, optimum) = knapsack();
        for limit in 0..=40u64 {
            let budget = Budget::unlimited().with_work_limit(limit);
            match solve_ilp_under(&p, &budget) {
                Ok(sol) => {
                    assert!(p.is_feasible(&sol.values, 1e-6));
                    if budget.exhausted().is_some() {
                        assert!(!sol.proven_optimal);
                    } else {
                        assert!(sol.proven_optimal);
                        assert!((sol.objective - optimum).abs() < 1e-6);
                    }
                }
                Err(IlpError::Budget) => {
                    assert!(budget.exhausted().is_some());
                }
                Err(e) => panic!("budget {limit}: unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn zero_budget_fails_without_incumbent() {
        let (p, _) = knapsack();
        let budget = Budget::unlimited().with_work_limit(0);
        assert_eq!(solve_ilp_under(&p, &budget), Err(IlpError::Budget));
    }

    #[test]
    fn budgeted_cuts_never_return_lazily_infeasible_solutions() {
        // Same model as `lazy_cuts_are_separated`, under a budget tight
        // enough to trip in the first round on some runs: the result is
        // either Err(Budget) or a solution respecting the lazy cut.
        for limit in 0..=40u64 {
            let mut p = Problem::new();
            let v: Vec<VarId> = (0..3)
                .map(|i| p.add_binary_var(format!("x{i}"), -1.0))
                .collect();
            let vs = v.clone();
            let budget = Budget::unlimited().with_work_limit(limit);
            let result = solve_ilp_with_cuts_under(
                &p,
                move |x| {
                    let total: f64 = vs.iter().map(|&v| x[v.index()]).sum();
                    if total > 2.5 {
                        vec![Constraint {
                            terms: vs.iter().map(|&v| (v, 1.0)).collect(),
                            op: ConstraintOp::Le,
                            rhs: 2.0,
                        }]
                    } else {
                        Vec::new()
                    }
                },
                &budget,
            );
            match result {
                Ok(sol) => {
                    let set = v.iter().filter(|&&x| sol.is_set(x)).count();
                    assert!(set <= 2, "limit {limit}: lazy cut violated");
                }
                Err(IlpError::Budget) => {}
                Err(e) => panic!("limit {limit}: unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn exhaustive_cross_check_on_random_binary_ilps() {
        let mut state = 0xabcd_ef01_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _round in 0..40 {
            let n = 3 + (next() % 3) as usize; // 3..5 binaries
            let mut p = Problem::new();
            let vars: Vec<VarId> = (0..n)
                .map(|i| p.add_binary_var(format!("x{i}"), (next() % 21) as f64 - 10.0))
                .collect();
            for _ in 0..3 {
                let terms: Vec<(VarId, f64)> = vars
                    .iter()
                    .map(|&v| (v, (next() % 11) as f64 - 5.0))
                    .collect();
                let rhs = (next() % 11) as f64 - 2.0;
                if next() % 2 == 0 {
                    p.add_le(terms, rhs);
                } else {
                    p.add_ge(terms, rhs);
                }
            }
            // Brute force.
            let mut best: Option<f64> = None;
            for m in 0u32..(1 << n) {
                let x: Vec<f64> = (0..n).map(|j| f64::from((m >> j) & 1)).collect();
                if p.is_feasible(&x, 1e-9) {
                    let obj = p.objective_value(&x);
                    best = Some(best.map_or(obj, |b: f64| b.min(obj)));
                }
            }
            match (solve_ilp(&p), best) {
                (Ok(sol), Some(b)) => {
                    assert!(
                        (sol.objective - b).abs() < 1e-5,
                        "objective {} != brute {b}",
                        sol.objective
                    );
                    assert!(p.is_feasible(&sol.values, 1e-5));
                }
                (Err(IlpError::Infeasible), None) => {}
                (got, want) => panic!("mismatch: {got:?} vs brute {want:?}"),
            }
        }
    }
}
