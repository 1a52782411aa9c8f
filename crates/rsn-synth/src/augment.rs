//! Connectivity augmentation (paper Sec. III-C, III-D).
//!
//! Fault-tolerant RSNs require two *vertex-independent* paths from the
//! scan-in root to every segment and from every segment to the scan-out
//! sink. In a DAG with a unique root and sink this is guaranteed by giving
//! every vertex at least two incoming and two outgoing edges from/to
//! distinct vertices while keeping the graph acyclic (paper Sec. III-D,
//! after Dahl's directed Steiner connectivity results):
//!
//! *Proof sketch (indegree case).* Suppose some vertex `d` were on every
//! root→v path for a set `X` of vertices other than `d`. Take the
//! topologically first `x ∈ X`: its two distinct predecessors are either
//! `d` or outside `X` (by minimality), so at least one predecessor has a
//! root path avoiding `d`, contradicting `x ∈ X`.
//!
//! Two solvers compute a minimum-cost augmenting edge set:
//!
//! * [`augment_greedy`] — a level-by-level deficit-pairing heuristic that
//!   runs in near-linear time. Synthesis uses it.
//! * [`augment_ilp_under`] — the paper's 0/1 ILP with degree constraints
//!   and lazily separated acyclicity (subtour-elimination) cuts, solved by
//!   `rsn-ilp`. Exact; the greedy's oracle in the tests and in
//!   `table1 --ablation`, which checks both pick the same edges on all 13
//!   embedded SoCs.
//!
//! Both finish with a Menger check of every enforceable vertex, answered
//! for all vertices at once from the dominator tree
//! ([`rsn_graph::two_independent_paths`]).

use std::collections::HashSet;

use rsn_budget::Budget;
use rsn_graph::{dominators, two_independent_paths, DiGraph};
use rsn_ilp::{solve_ilp_with_cuts_under, Constraint, ConstraintOp, IlpError, Problem, VarId};

use crate::dataflow::Dataflow;

/// Cost of an augmenting edge: `1 + alpha · (level(j) − level(i))`.
/// Original edges cost 0.
pub fn edge_cost(levels: &[usize], alpha: f64, i: usize, j: usize) -> f64 {
    1.0 + alpha * (levels[j].saturating_sub(levels[i])) as f64
}

/// Candidate in/out edges the ILP considers per vertex (keeps the
/// variable count tractable; candidates are the cheapest by cost).
const MAX_CANDIDATES: usize = 8;

/// Options for the augmentation solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentOptions {
    /// Long-line penalty factor in the edge cost.
    pub alpha: f64,
}

impl Default for AugmentOptions {
    fn default() -> Self {
        AugmentOptions { alpha: 0.1 }
    }
}

/// Result of a connectivity augmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Augmentation {
    /// Added edges as dataflow-vertex pairs `(source, target)`.
    pub added: Vec<(usize, usize)>,
    /// Total cost of the added edges.
    pub cost: f64,
    /// Lazy subtour-cut rounds performed (ILP only).
    pub cut_rounds: u32,
    /// Repair edges added by the post-verification (expected 0).
    pub repairs: usize,
}

/// The vertices each degree-2 constraint is enforceable for:
/// `(ins, outs)`. `ins[v]` holds when `v` is no scan-in port and has at
/// least two distinct potential predecessors (non-sink vertices at its
/// level or below); `outs[v]` when `v` is no scan-out port and has at
/// least two distinct potential successors (non-root vertices at its
/// level or above). Counted once for all vertices, by prefix sums over
/// the levels.
fn enforceable(df: &Dataflow) -> (Vec<bool>, Vec<bool>) {
    let levels = &df.levels;
    let top = levels.iter().copied().max().unwrap_or(0);
    // sources[l + 1]: non-sink vertices at level <= l;
    // targets[l]: non-root vertices at level >= l.
    let mut sources = vec![0usize; top + 2];
    let mut targets = vec![0usize; top + 2];
    for v in 0..df.len() {
        sources[levels[v] + 1] += usize::from(!df.is_sink(v));
        targets[levels[v]] += usize::from(!df.is_root(v));
    }
    for l in 1..top + 2 {
        sources[l] += sources[l - 1];
    }
    for l in (0..=top).rev() {
        targets[l] += targets[l + 1];
    }
    (0..df.len())
        .map(|v| {
            let ins = !df.is_root(v) && sources[levels[v] + 1] - usize::from(!df.is_sink(v)) >= 2;
            let outs = !df.is_sink(v) && targets[levels[v]] - usize::from(!df.is_root(v)) >= 2;
            (ins, outs)
        })
        .unzip()
}

/// Exact augmentation via the paper's ILP with lazy acyclicity cuts,
/// bounded by a [`Budget`] shared across all lazy cut rounds
/// ([`Budget::unlimited`] for an unbounded solve).
///
/// # Errors
///
/// [`IlpError::Budget`] when the budget trips before a usable incumbent
/// exists; otherwise the solver's [`IlpError`] (infeasibility can only
/// occur on degenerate graphs). A returned augmentation always satisfies
/// every separated acyclicity cut, but may be suboptimal if the solve
/// finished on an unproven incumbent.
pub fn augment_ilp_under(
    df: &Dataflow,
    opts: &AugmentOptions,
    budget: &Budget,
) -> Result<Augmentation, IlpError> {
    let n = df.len();
    let levels = &df.levels;
    let existing: HashSet<(usize, usize)> = df.graph.edges().collect();
    let (in_enforceable, out_enforceable) = enforceable(df);

    // Liveness edges: the nearest non-predecessor strict dominator of each
    // vertex (see `pick_source`). These are *required* in the solution —
    // without them, a cost-minimal augmentation can satisfy the degree
    // constraints with detours whose routing control deadlocks after the
    // very fault the detour exists to tolerate.
    let idom = dominators(&df.graph, df.root);
    let mut liveness: Vec<(usize, usize)> = Vec::new();
    for v in (0..n).filter(|&v| in_enforceable[v]) {
        let parents = df.graph.predecessors(v);
        let mut cur = v;
        while idom[cur] != usize::MAX && idom[cur] != cur {
            cur = idom[cur];
            if !parents.contains(&cur)
                && cur != v
                && !df.is_sink(cur)
                && !existing.contains(&(cur, v))
            {
                liveness.push((cur, v));
                break;
            }
            if cur == df.root {
                break;
            }
        }
    }

    // Candidate edges: per vertex, the cheapest MAX_CANDIDATES in-edges and
    // out-edges (plus every original edge at cost 0 and the liveness
    // edges).
    let mut candidates: HashSet<(usize, usize)> = existing.clone();
    candidates.extend(liveness.iter().copied());
    for v in 0..n {
        if v != df.root {
            let mut ins: Vec<usize> = (0..n)
                .filter(|&u| {
                    u != v
                        && !df.is_sink(u)
                        && levels[u] <= levels[v]
                        && !existing.contains(&(u, v))
                })
                .collect();
            ins.sort_by(|&a, &b| {
                edge_cost(levels, opts.alpha, a, v)
                    .partial_cmp(&edge_cost(levels, opts.alpha, b, v))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for &u in ins.iter().take(MAX_CANDIDATES) {
                candidates.insert((u, v));
            }
        }
        if v != df.sink {
            let mut outs: Vec<usize> = (0..n)
                .filter(|&w| {
                    w != v
                        && !df.is_root(w)
                        && levels[w] >= levels[v]
                        && !existing.contains(&(v, w))
                })
                .collect();
            outs.sort_by(|&a, &b| {
                edge_cost(levels, opts.alpha, v, a)
                    .partial_cmp(&edge_cost(levels, opts.alpha, v, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for &w in outs.iter().take(MAX_CANDIDATES) {
                candidates.insert((v, w));
            }
        }
    }

    let mut edges: Vec<(usize, usize)> = candidates.into_iter().collect();
    edges.sort_unstable();

    let mut problem = Problem::new();
    let vars: Vec<VarId> = edges
        .iter()
        .map(|&(i, j)| {
            let cost = if existing.contains(&(i, j)) {
                0.0
            } else {
                edge_cost(levels, opts.alpha, i, j)
            };
            problem.add_binary_var(format!("e{i}_{j}"), cost)
        })
        .collect();

    // Original edges fixed to 1 (E_A ⊇ E); liveness edges required.
    let liveness_set: HashSet<(usize, usize)> = liveness.into_iter().collect();
    for (idx, &(i, j)) in edges.iter().enumerate() {
        if existing.contains(&(i, j)) || liveness_set.contains(&(i, j)) {
            problem.fix_var(vars[idx], 1.0);
        }
    }

    // Degree constraints (paper eq. 2 and 3), where enforceable. The
    // indegree constraint is strengthened: every vertex's original
    // in-edges arrive through a single scan element (its structural
    // driver, possibly a multiplexer shared by several dataflow edges), so
    // they form one failure domain. Two *independent* incoming edges
    // therefore require at least one added edge per vertex.
    for v in 0..n {
        if in_enforceable[v] {
            let added_terms: Vec<(VarId, f64)> = edges
                .iter()
                .enumerate()
                .filter(|&(_, &(i, j))| j == v && !existing.contains(&(i, j)))
                .map(|(idx, _)| (vars[idx], 1.0))
                .collect();
            if !added_terms.is_empty() {
                problem.add_ge(added_terms, 1.0);
            }
            let terms: Vec<(VarId, f64)> = edges
                .iter()
                .enumerate()
                .filter(|&(_, &(_, j))| j == v)
                .map(|(idx, _)| (vars[idx], 1.0))
                .collect();
            if terms.len() >= 2 {
                problem.add_ge(terms, 2.0);
            }
        }
        if out_enforceable[v] {
            let terms: Vec<(VarId, f64)> = edges
                .iter()
                .enumerate()
                .filter(|&(_, &(i, _))| i == v)
                .map(|(idx, _)| (vars[idx], 1.0))
                .collect();
            if terms.len() >= 2 {
                problem.add_ge(terms, 2.0);
            }
        }
    }

    // Lazy acyclicity cuts (paper eq. 4, separated on violation).
    let edges_for_cuts = edges.clone();
    let vars_for_cuts = vars.clone();
    let n_for_cuts = n;
    let solution = solve_ilp_with_cuts_under(
        &problem,
        move |x| {
            let mut g = DiGraph::new(n_for_cuts);
            for (idx, &(i, j)) in edges_for_cuts.iter().enumerate() {
                if x[vars_for_cuts[idx].index()] > 0.5 {
                    g.add_edge(i, j);
                }
            }
            match g.find_cycle() {
                None => Vec::new(),
                Some(cycle) => {
                    // Σ x_e over the cycle ≤ |cycle| − 1.
                    let mut terms = Vec::new();
                    for w in 0..cycle.len() {
                        let a = cycle[w];
                        let b = cycle[(w + 1) % cycle.len()];
                        if let Some(idx) =
                            edges_for_cuts.iter().position(|&(i, j)| i == a && j == b)
                        {
                            terms.push((vars_for_cuts[idx], 1.0));
                        }
                    }
                    let rhs = terms.len() as f64 - 1.0;
                    vec![Constraint {
                        terms,
                        op: ConstraintOp::Le,
                        rhs,
                    }]
                }
            }
        },
        budget,
    )?;

    let mut added = Vec::new();
    let mut cost = 0.0;
    for (idx, &(i, j)) in edges.iter().enumerate() {
        if solution.is_set(vars[idx]) && !existing.contains(&(i, j)) {
            added.push((i, j));
            cost += edge_cost(levels, opts.alpha, i, j);
        }
    }
    let mut aug = Augmentation {
        added,
        cost,
        cut_rounds: solution.cut_rounds,
        repairs: 0,
    };
    repair(df, &in_enforceable, &out_enforceable, &mut aug, opts.alpha);
    Ok(aug)
}

/// Fast level-by-level deficit-pairing augmentation.
///
/// Pairs each missing in-edge with a missing out-edge at the nearest lower
/// (or same) level; same-level edges always point from the earlier to the
/// later vertex in level order, so no cycle can arise.
pub fn augment_greedy(df: &Dataflow, opts: &AugmentOptions) -> Augmentation {
    let n = df.len();
    let levels = &df.levels;
    let max_level = levels.iter().copied().max().unwrap_or(0);

    let mut chosen: HashSet<(usize, usize)> = df.graph.edges().collect();
    let mut added: Vec<(usize, usize)> = Vec::new();
    let mut indeg: Vec<usize> = (0..n).map(|v| df.graph.in_degree(v)).collect();
    let mut outdeg: Vec<usize> = (0..n).map(|v| df.graph.out_degree(v)).collect();

    // Vertices per level, in a fixed order defining the same-level
    // cycle-free orientation.
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for v in 0..n {
        by_level[levels[v]].push(v);
    }
    let mut pos_in_level = vec![0usize; n];
    for lv in &by_level {
        for (i, &v) in lv.iter().enumerate() {
            pos_in_level[v] = i;
        }
    }

    let add_edge = |u: usize,
                    v: usize,
                    chosen: &mut HashSet<(usize, usize)>,
                    added: &mut Vec<(usize, usize)>,
                    indeg: &mut Vec<usize>,
                    outdeg: &mut Vec<usize>|
     -> bool {
        if u == v || chosen.contains(&(u, v)) {
            return false;
        }
        chosen.insert((u, v));
        added.push((u, v));
        indeg[v] += 1;
        outdeg[u] += 1;
        true
    };

    // Pass 1: satisfy in-deficits level by level, preferring partners with
    // out-deficits at the nearest level. Every enforceable vertex needs at
    // least one *added* in-edge (its original in-edges share the failure
    // domain of its single structural driver) and at least two incoming
    // edges in total.
    let idom = dominators(&df.graph, df.root);
    let (in_enforceable, out_enforceable) = enforceable(df);
    let mut added_in = vec![0usize; n];
    for level in 0..=max_level {
        for &v in &by_level[level] {
            if !in_enforceable[v] {
                continue;
            }
            while indeg[v] < 2 || added_in[v] < 1 {
                let partner = pick_source(
                    df,
                    &by_level,
                    &pos_in_level,
                    &chosen,
                    &out_enforceable,
                    &outdeg,
                    &idom,
                    v,
                    level,
                );
                match partner {
                    Some(u) => {
                        if add_edge(u, v, &mut chosen, &mut added, &mut indeg, &mut outdeg) {
                            added_in[v] += 1;
                        }
                    }
                    None => break,
                }
            }
        }
    }

    // Pass 2: satisfy remaining out-deficits with the nearest targets.
    for level in (0..=max_level).rev() {
        for &u in &by_level[level] {
            if !out_enforceable[u] {
                continue;
            }
            while outdeg[u] < 2 {
                let partner =
                    pick_target(df, &by_level, &pos_in_level, &chosen, u, level, max_level);
                match partner {
                    Some(w) => {
                        add_edge(u, w, &mut chosen, &mut added, &mut indeg, &mut outdeg);
                    }
                    None => break,
                }
            }
        }
    }

    let cost = added
        .iter()
        .map(|&(i, j)| edge_cost(levels, opts.alpha, i, j))
        .sum();
    let mut aug = Augmentation {
        added,
        cost,
        cut_rounds: 0,
        repairs: 0,
    };
    repair(df, &in_enforceable, &out_enforceable, &mut aug, opts.alpha);
    aug
}

/// Picks a source for a new in-edge of `v` at `level`.
///
/// Preference order:
/// 1. The nearest *strict dominator* of `v` (walking the immediate-
///    dominator chain) that is not already a direct predecessor: the new
///    edge then bypasses exactly the single point of failure between the
///    root and `v` (the paper's Sec. III-C SPOF), and — crucially for
///    recoverability from the reset configuration — its routing control
///    sits strictly upstream of everything it bypasses, so the network
///    heals position by position after a fault.
/// 2. The nearest lower/same-level vertex, preferring out-deficits
///    (vertices whose outdegree-2 constraint is enforceable and unmet).
#[allow(clippy::too_many_arguments)]
fn pick_source(
    df: &Dataflow,
    by_level: &[Vec<usize>],
    pos_in_level: &[usize],
    chosen: &HashSet<(usize, usize)>,
    out_enforceable: &[bool],
    outdeg: &[usize],
    idom: &[usize],
    v: usize,
    level: usize,
) -> Option<usize> {
    // 1. Nearest non-predecessor strict dominator.
    let parents = df.graph.predecessors(v);
    let mut cur = v;
    while idom[cur] != usize::MAX && idom[cur] != cur {
        cur = idom[cur];
        if !parents.contains(&cur) && cur != v && !df.is_sink(cur) && !chosen.contains(&(cur, v)) {
            return Some(cur);
        }
        if cur == df.root {
            break;
        }
    }
    for prefer_deficit in [true, false] {
        // Same level first (cheapest), earlier position only (acyclic).
        for &u in &by_level[level] {
            if pos_in_level[u] >= pos_in_level[v] || df.is_sink(u) {
                continue;
            }
            if chosen.contains(&(u, v)) {
                continue;
            }
            if prefer_deficit && !(out_enforceable[u] && outdeg[u] < 2) {
                continue;
            }
            return Some(u);
        }
        // Then lower levels, nearest first.
        for l in (0..level).rev() {
            for &u in &by_level[l] {
                if df.is_sink(u) || chosen.contains(&(u, v)) {
                    continue;
                }
                if prefer_deficit && !(out_enforceable[u] && outdeg[u] < 2) {
                    continue;
                }
                return Some(u);
            }
        }
    }
    None
}

/// Picks a target for a new out-edge of `u` at `level`: nearest same or
/// higher level; same-level targets must come later in level order.
fn pick_target(
    df: &Dataflow,
    by_level: &[Vec<usize>],
    pos_in_level: &[usize],
    chosen: &HashSet<(usize, usize)>,
    u: usize,
    level: usize,
    max_level: usize,
) -> Option<usize> {
    for &w in &by_level[level] {
        if pos_in_level[w] <= pos_in_level[u] || df.is_root(w) {
            continue;
        }
        if !chosen.contains(&(u, w)) {
            return Some(w);
        }
    }
    for lvl in by_level.iter().take(max_level + 1).skip(level + 1) {
        for &w in lvl {
            if df.is_root(w) || chosen.contains(&(u, w)) {
                continue;
            }
            return Some(w);
        }
    }
    None
}

/// Verifies the Menger property on the augmented graph and adds direct
/// root/sink repair edges where it fails (expected: never, per the
/// degree-2 theorem; kept as an engineering safety net).
///
/// Vertices are visited in index order, root side before sink side, and
/// both path vectors are recounted after every repair edge, so each check
/// sees the edges added before it.
fn repair(
    df: &Dataflow,
    in_enforceable: &[bool],
    out_enforceable: &[bool],
    aug: &mut Augmentation,
    alpha: f64,
) {
    let mut g = augmented_graph(df, aug);
    let recount = |g: &DiGraph| {
        (
            two_independent_paths(g, df.root),
            two_independent_paths(&g.reversed(), df.sink),
        )
    };
    let (mut from_root, mut to_sink) = recount(&g);
    for v in 0..df.len() {
        if v != df.root && in_enforceable[v] && !from_root[v] {
            g.add_edge(df.root, v);
            aug.added.push((df.root, v));
            aug.cost += edge_cost(&df.levels, alpha, df.root, v);
            aug.repairs += 1;
            (from_root, to_sink) = recount(&g);
        }
        if v != df.sink && out_enforceable[v] && !to_sink[v] {
            g.add_edge(v, df.sink);
            aug.added.push((v, df.sink));
            aug.cost += edge_cost(&df.levels, alpha, v, df.sink);
            aug.repairs += 1;
            (from_root, to_sink) = recount(&g);
        }
    }
}

/// The augmented graph (original + added edges).
pub fn augmented_graph(df: &Dataflow, aug: &Augmentation) -> DiGraph {
    let mut g = df.graph.clone();
    for &(i, j) in &aug.added {
        g.add_edge(i, j);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, fig2, sib_tree};
    use rsn_graph::vertex_independent_paths;

    /// Reference for [`enforceable`]'s `ins`: a scan over all vertices.
    fn in_enforceable(df: &Dataflow, v: usize) -> bool {
        if df.is_root(v) {
            return false;
        }
        let candidates = (0..df.len())
            .filter(|&u| u != v && !df.is_sink(u) && df.levels[u] <= df.levels[v])
            .count();
        candidates >= 2
    }

    /// Reference for [`enforceable`]'s `outs`: a scan over all vertices.
    fn out_enforceable(df: &Dataflow, v: usize) -> bool {
        if df.is_sink(v) {
            return false;
        }
        let candidates = (0..df.len())
            .filter(|&w| w != v && !df.is_root(w) && df.levels[w] >= df.levels[v])
            .count();
        candidates >= 2
    }

    fn check_invariants(df: &Dataflow, aug: &Augmentation) {
        let g = augmented_graph(df, aug);
        assert!(g.is_acyclic(), "augmented graph must stay acyclic");
        for v in 0..df.len() {
            if in_enforceable(df, v) {
                assert!(g.in_degree(v) >= 2, "vertex {v} indegree");
                assert!(
                    vertex_independent_paths(&g, df.root, v) >= 2,
                    "vertex {v} lacks 2 root paths"
                );
            }
            if out_enforceable(df, v) {
                assert!(g.out_degree(v) >= 2, "vertex {v} outdegree");
                assert!(
                    vertex_independent_paths(&g, v, df.sink) >= 2,
                    "vertex {v} lacks 2 sink paths"
                );
            }
        }
        // Level constraint of E_P: level(j) >= level(i) for added edges.
        for &(i, j) in &aug.added {
            assert!(
                df.levels[j] >= df.levels[i],
                "edge ({i},{j}) violates levels"
            );
        }
    }

    #[test]
    fn greedy_augments_fig2() {
        let df = Dataflow::extract(&fig2());
        let aug = augment_greedy(&df, &AugmentOptions::default());
        check_invariants(&df, &aug);
        assert_eq!(aug.repairs, 0, "theorem: no repairs needed");
        assert!(!aug.added.is_empty());
    }

    #[test]
    fn ilp_augments_fig2() {
        let df = Dataflow::extract(&fig2());
        let aug = augment_ilp_under(&df, &AugmentOptions::default(), &Budget::unlimited())
            .expect("solvable");
        check_invariants(&df, &aug);
        assert_eq!(aug.repairs, 0);
    }

    #[test]
    fn ilp_cost_not_worse_than_greedy() {
        // The exact ILP is the greedy's oracle: the greedy must pay the
        // optimum on every network, and pick the optimum's very edges on
        // all but fig2 (whose two optimal edge sets cost 7.10 each).
        let soc = |name| {
            rsn_sib::generate(&rsn_itc02::by_name(name).expect("embedded")).expect("generate")
        };
        let networks = [
            fig2(),
            chain(1, 2),
            chain(3, 2),
            chain(4, 8),
            chain(5, 2),
            chain(6, 2),
            chain(3, 5),
            sib_tree(1, 2, 3),
            sib_tree(1, 2, 4),
            sib_tree(1, 3, 3),
            sib_tree(2, 2, 3),
            sib_tree(2, 2, 4),
            sib_tree(2, 3, 4),
            sib_tree(1, 4, 2),
            soc("q12710"),
            soc("x1331"),
        ];
        for rsn in &networks {
            let label = format!("{} ({} bits)", rsn.name(), rsn.total_bits());
            let df = Dataflow::extract(rsn);
            let opts = AugmentOptions::default();
            let greedy = augment_greedy(&df, &opts);
            let ilp = augment_ilp_under(&df, &opts, &Budget::unlimited()).expect("solvable");
            check_invariants(&df, &greedy);
            check_invariants(&df, &ilp);
            assert!(
                (ilp.cost - greedy.cost).abs() < 1e-6,
                "{label}: ilp {} != greedy {}",
                ilp.cost,
                greedy.cost
            );
            if rsn.name() != "fig2" {
                let sorted = |aug: &Augmentation| {
                    let mut edges = aug.added.clone();
                    edges.sort_unstable();
                    edges
                };
                assert_eq!(sorted(&greedy), sorted(&ilp), "{label}");
            }
        }
    }

    #[test]
    fn chain_augmentation_adds_skip_edges() {
        let df = Dataflow::extract(&chain(6, 2));
        let aug = augment_greedy(&df, &AugmentOptions::default());
        check_invariants(&df, &aug);
        // A pure chain needs roughly one extra in-edge per vertex.
        assert!(aug.added.len() >= df.len() - 3);
    }

    #[test]
    fn every_enforceable_vertex_gains_an_added_in_edge() {
        // The strengthened indegree requirement: in-edges through a shared
        // multiplexer form one failure domain, so every vertex needs at
        // least one *added* in-edge regardless of its dataflow indegree.
        for rsn in [fig2(), chain(5, 2), sib_tree(1, 3, 3)] {
            let df = Dataflow::extract(&rsn);
            let aug = augment_greedy(&df, &AugmentOptions::default());
            for v in 0..df.len() {
                if in_enforceable(&df, v) {
                    assert!(
                        aug.added.iter().any(|&(_, j)| j == v),
                        "{}: vertex {v} has no added in-edge",
                        rsn.name()
                    );
                }
            }
        }
    }

    #[test]
    fn enforceable_matches_the_scan() {
        for rsn in [
            fig2(),
            chain(1, 2),
            chain(6, 2),
            sib_tree(1, 3, 3),
            sib_tree(2, 2, 4),
        ] {
            let df = Dataflow::extract(&rsn);
            let (ins, outs) = enforceable(&df);
            for v in 0..df.len() {
                assert_eq!(ins[v], in_enforceable(&df, v), "{}: in {v}", rsn.name());
                assert_eq!(outs[v], out_enforceable(&df, v), "{}: out {v}", rsn.name());
            }
        }
    }

    /// The repair loop with one max-flow per vertex and side, re-run on
    /// the growing graph: the reference for [`repair`].
    fn reference_repair(df: &Dataflow, aug: &mut Augmentation, alpha: f64) {
        let mut g = augmented_graph(df, aug);
        for v in 0..df.len() {
            if v != df.root && in_enforceable(df, v) && vertex_independent_paths(&g, df.root, v) < 2
            {
                g.add_edge(df.root, v);
                aug.added.push((df.root, v));
                aug.cost += edge_cost(&df.levels, alpha, df.root, v);
                aug.repairs += 1;
            }
            if v != df.sink
                && out_enforceable(df, v)
                && vertex_independent_paths(&g, v, df.sink) < 2
            {
                g.add_edge(v, df.sink);
                aug.added.push((v, df.sink));
                aug.cost += edge_cost(&df.levels, alpha, v, df.sink);
                aug.repairs += 1;
            }
        }
    }

    #[test]
    fn repair_completes_an_under_augmented_network() {
        for rsn in [chain(6, 2), sib_tree(1, 3, 3)] {
            let df = Dataflow::extract(&rsn);
            let (ins, outs) = enforceable(&df);
            let empty = Augmentation {
                added: vec![],
                cost: 0.0,
                cut_rounds: 0,
                repairs: 0,
            };
            let mut fast = empty.clone();
            repair(&df, &ins, &outs, &mut fast, 0.1);
            let mut reference = empty;
            reference_repair(&df, &mut reference, 0.1);
            assert!(fast.repairs > 0, "{}: nothing repaired", rsn.name());
            assert_eq!(fast, reference, "{}", rsn.name());
            let g = augmented_graph(&df, &fast);
            for v in 0..df.len() {
                if ins[v] {
                    assert!(vertex_independent_paths(&g, df.root, v) >= 2, "root → {v}");
                }
                if outs[v] {
                    assert!(vertex_independent_paths(&g, v, df.sink) >= 2, "{v} → sink");
                }
            }
        }
    }

    #[test]
    fn first_vertex_is_exempt() {
        let df = Dataflow::extract(&chain(3, 2));
        // Vertex 1 (first segment) has only the root below and no
        // same-level peers: indegree-2 not enforceable.
        assert!(!in_enforceable(&df, 1));
        assert!(in_enforceable(&df, 2));
    }

    #[test]
    fn edge_cost_penalizes_long_lines() {
        let levels = [0, 1, 2, 5];
        assert!(edge_cost(&levels, 0.5, 0, 3) > edge_cost(&levels, 0.5, 2, 3));
        assert_eq!(edge_cost(&levels, 0.0, 0, 3), edge_cost(&levels, 0.0, 2, 3));
    }
}
