//! Additional graph-algorithm coverage: randomized cross-checks between
//! Menger counts (max-flow), dominators and brute-force path enumeration.
//!
//! Previously written with proptest; now driven by a deterministic
//! generator so the workspace carries no external dependencies and every
//! run exercises the same cases.

use rsn_graph::dominators::dominator_set;
use rsn_graph::{dominators, two_independent_paths, vertex_independent_paths, DiGraph};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random DAG on 7 vertices with edges oriented low → high.
fn small_dag(rng: &mut Rng) -> DiGraph {
    let mut g = DiGraph::new(7);
    let n_edges = 3 + rng.below(13);
    for _ in 0..n_edges {
        let a = rng.below(7) as usize;
        let b = rng.below(7) as usize;
        if a < b {
            g.add_edge(a, b);
        }
    }
    g
}

/// All simple paths from `s` to `t` (for small graphs only).
fn simple_paths(g: &DiGraph, s: usize, t: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut stack = vec![(vec![s], s)];
    while let Some((path, u)) = stack.pop() {
        if u == t {
            out.push(path);
            continue;
        }
        for &v in g.successors(u) {
            if !path.contains(&v) {
                let mut p = path.clone();
                p.push(v);
                stack.push((p, v));
            }
        }
    }
    out
}

/// Maximum set of pairwise internally-vertex-disjoint paths, brute force.
fn brute_vertex_disjoint(g: &DiGraph, s: usize, t: usize) -> usize {
    let paths = simple_paths(g, s, t);
    let n = paths.len();
    let mut best = 0;
    for mask in 0u32..(1 << n.min(12)) {
        let chosen: Vec<&Vec<usize>> = (0..n.min(12))
            .filter(|&i| (mask >> i) & 1 == 1)
            .map(|i| &paths[i])
            .collect();
        let mut ok = true;
        'outer: for (a, pa) in chosen.iter().enumerate() {
            for pb in chosen.iter().skip(a + 1) {
                for v in pa.iter().filter(|&&v| v != s && v != t) {
                    if pb.contains(v) {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        if ok {
            best = best.max(chosen.len());
        }
    }
    best
}

#[test]
fn menger_matches_brute_force() {
    let mut rng = Rng(0x6aa9_0001);
    let mut checked = 0;
    while checked < 64 {
        let g = small_dag(&mut rng);
        let paths = simple_paths(&g, 0, 6);
        // Keep the brute force tractable.
        if paths.len() > 12 {
            continue;
        }
        checked += 1;
        let menger = vertex_independent_paths(&g, 0, 6);
        let brute = brute_vertex_disjoint(&g, 0, 6) as i64;
        assert_eq!(menger, brute, "edges {:?}", g.edges().collect::<Vec<_>>());
    }
}

#[test]
fn dominators_lie_on_every_path() {
    let mut rng = Rng(0x6aa9_0003);
    let mut checked = 0;
    while checked < 64 {
        let g = small_dag(&mut rng);
        let paths = simple_paths(&g, 0, 6);
        if paths.is_empty() || paths.len() > 24 {
            continue;
        }
        checked += 1;
        let idom = dominators(&g, 0);
        for d in dominator_set(&idom, 0, 6) {
            for p in &paths {
                assert!(p.contains(&d), "dominator {d} missing from path {p:?}");
            }
        }
        // Conversely: any vertex on every path (except endpoints) must be
        // a dominator.
        for v in 1..6 {
            if paths.iter().all(|p| p.contains(&v)) {
                assert!(
                    dominator_set(&idom, 0, 6).contains(&v),
                    "common vertex {v} not reported as dominator"
                );
            }
        }
    }
}

#[test]
fn levels_bound_path_lengths() {
    let mut rng = Rng(0x6aa9_0004);
    for _case in 0..64 {
        let g = small_dag(&mut rng);
        if let Some(levels) = g.levels() {
            for (u, v) in g.edges() {
                assert!(levels[v] > levels[u]);
            }
            // Sources sit at level 0.
            for (v, &lv) in levels.iter().enumerate() {
                if g.in_degree(v) == 0 {
                    assert_eq!(lv, 0);
                }
            }
        }
    }
}

#[test]
fn menger_count_matches_removal_argument() {
    // Menger sanity: removing any single internal vertex cannot disconnect
    // s from t if there are >= 2 vertex-independent paths.
    let mut rng = Rng(0x6aa9_0005);
    for _case in 0..64 {
        let mut g = DiGraph::new(8);
        let n_edges = 4 + rng.below(20);
        for _ in 0..n_edges {
            let a = rng.below(8) as usize;
            let b = rng.below(8) as usize;
            if a < b {
                g.add_edge(a, b);
            }
        }
        let (s, t) = (0, 7);
        let k = vertex_independent_paths(&g, s, t);
        if k >= 2 {
            for removed in 1..7 {
                let mut h = DiGraph::new(8);
                for (a, b) in g.edges() {
                    if a != removed && b != removed {
                        h.add_edge(a, b);
                    }
                }
                assert!(h.reachable_from(s)[t], "vertex {removed} was a cut");
            }
        }
    }
}

#[test]
fn dinic_handles_layered_bottlenecks() {
    // 3 parallel 2-hop routes through a width-2 middle layer: flow 2.
    let mut g = DiGraph::new(8);
    for a in [1, 2, 3] {
        g.add_edge(0, a);
    }
    for a in [1, 2, 3] {
        for m in [4, 5] {
            g.add_edge(a, m);
        }
    }
    for m in [4, 5] {
        g.add_edge(m, 7);
    }
    assert_eq!(vertex_independent_paths(&g, 0, 7), 2);
}

#[test]
fn dominator_chain_on_long_path() {
    let n = 64;
    let mut g = DiGraph::new(n);
    for i in 0..n - 1 {
        g.add_edge(i, i + 1);
    }
    let idom = dominators(&g, 0);
    let doms = dominator_set(&idom, 0, n - 1);
    assert_eq!(doms.len(), n - 1, "every predecessor dominates the tail");
}

/// Random digraph on 2..=9 vertices: a DAG (edges low → high) or an
/// arbitrary digraph with cycles and self-loops, plus parallel copies of
/// some edges.
fn random_digraph(rng: &mut Rng) -> DiGraph {
    let n = 2 + rng.below(8) as usize;
    let acyclic = rng.below(2) == 0;
    let mut g = DiGraph::new(n);
    for _ in 0..rng.below(3 * n as u64 + 1) {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if !acyclic || a < b {
            g.add_edge(a, b);
            if rng.below(6) == 0 {
                g.add_edge(a, b);
            }
        }
    }
    g
}

#[test]
fn two_independent_paths_matches_menger() {
    let mut rng = Rng(0x6aa9_0006);
    // Coverage: [direct s→v edges 0, 1, ≥2][answer], unreachable count,
    // self-loops, cyclic graphs.
    let mut seen = [[0usize; 2]; 3];
    let (mut unreachable, mut self_loops, mut cyclic) = (0, 0, 0);
    for _case in 0..2000 {
        let g = random_digraph(&mut rng);
        let s = rng.below(g.len() as u64) as usize;
        let t = rng.below(g.len() as u64) as usize;
        cyclic += usize::from(!g.is_acyclic());
        self_loops += usize::from(g.edges().any(|(a, b)| a == b));
        let from_s = two_independent_paths(&g, s);
        let to_t = two_independent_paths(&g.reversed(), t);
        let reach = g.reachable_from(s);
        for v in 0..g.len() {
            let paths = vertex_independent_paths(&g, s, v);
            assert_eq!(
                from_s[v],
                paths >= 2,
                "s={s} v={v} paths={paths} edges {:?}",
                g.edges().collect::<Vec<_>>()
            );
            assert_eq!(
                to_t[v],
                vertex_independent_paths(&g, v, t) >= 2,
                "v={v} t={t} edges {:?}",
                g.edges().collect::<Vec<_>>()
            );
            if v != s {
                let k = g.successors(s).iter().filter(|&&w| w == v).count();
                seen[k.min(2)][usize::from(from_s[v])] += 1;
                unreachable += usize::from(!reach[v]);
            }
        }
    }
    // Every case of the criterion occurs with both answers, except that
    // two direct edges always give two paths.
    for (k, answers) in seen.iter().enumerate() {
        assert!(
            answers[1] > 0,
            "no vertex with {k} direct edges and 2 paths"
        );
        if k < 2 {
            assert!(answers[0] > 0, "no vertex with {k} direct edges, < 2 paths");
        }
    }
    assert!(unreachable > 0 && self_loops > 0 && cyclic > 0);
}
