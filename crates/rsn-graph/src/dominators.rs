//! Dominator computation for single-point-of-failure analysis.
//!
//! In the RSN dataflow graph, a vertex `d ≠ s` that lies on *every* path
//! from the primary scan-in to segment `s` (i.e. `d` dominates `s`) is a
//! single point of failure for accessing `s`: if the corresponding scan
//! element is faulty, `s` becomes inaccessible (paper Sec. III-C). Running
//! the same analysis on the reversed graph yields post-dominators, the
//! single points of failure between `s` and the scan-out port.

use crate::graph::DiGraph;

/// Computes the immediate dominator of every vertex reachable from `root`
/// using the iterative Cooper–Harvey–Kennedy algorithm.
///
/// Returns `idom[v]`, with `idom[root] == root` and `usize::MAX` for
/// vertices unreachable from `root`.
///
/// # Example
///
/// ```
/// use rsn_graph::{dominators, DiGraph};
///
/// // 0 -> 1 -> 3 and 0 -> 2 -> 3: node 3 is dominated only by 0.
/// let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
/// let idom = dominators(&g, 0);
/// assert_eq!(idom[3], 0);
/// ```
pub fn dominators(g: &DiGraph, root: usize) -> Vec<usize> {
    let n = g.len();
    // Reverse-postorder of the subgraph reachable from root.
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
    let mut stack = vec![(root, 0usize)];
    state[root] = 1;
    while let Some(&mut (u, ref mut i)) = stack.last_mut() {
        if *i < g.successors(u).len() {
            let v = g.successors(u)[*i];
            *i += 1;
            if state[v] == 0 {
                state[v] = 1;
                stack.push((v, 0));
            }
        } else {
            state[u] = 2;
            order.push(u);
            stack.pop();
        }
    }
    order.reverse(); // reverse postorder, root first

    let mut rpo_index = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        rpo_index[v] = i;
    }

    let mut idom = vec![usize::MAX; n];
    idom[root] = root;
    let mut changed = true;
    while changed {
        changed = false;
        for &v in order.iter().skip(1) {
            let mut new_idom = usize::MAX;
            for &p in g.predecessors(v) {
                if idom[p] == usize::MAX {
                    continue; // predecessor not yet processed/unreachable
                }
                new_idom = if new_idom == usize::MAX {
                    p
                } else {
                    intersect(&idom, &rpo_index, new_idom, p)
                };
            }
            if new_idom != usize::MAX && idom[v] != new_idom {
                idom[v] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Computes the immediate post-dominator of every vertex that can reach
/// `sink`: dominator analysis on the reversed graph rooted at the sink.
///
/// Returns `ipdom[v]`, with `ipdom[sink] == sink` and `usize::MAX` for
/// vertices that cannot reach `sink`.
pub fn postdominators(g: &DiGraph, sink: usize) -> Vec<usize> {
    dominators(&g.reversed(), sink)
}

fn intersect(idom: &[usize], rpo: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo[a] > rpo[b] {
            a = idom[a];
        }
        while rpo[b] > rpo[a] {
            b = idom[b];
        }
    }
    a
}

/// For every vertex `v`, whether `g` has two internally vertex-disjoint
/// `s → v` paths: `out[v] == (vertex_independent_paths(g, s, v) >= 2)`.
/// Linear in vertices plus edges after [`dominators`], where the
/// max-flow count costs a full flow problem per vertex.
///
/// With `k` direct `s → v` edges (parallel copies counted), a vertex
/// `v ≠ s` reachable from `s` has two such paths iff
///
/// * `k ≥ 2` — the direct edges are the paths;
/// * `k = 1` — some predecessor `p ≠ s` of `v` is reachable without
///   passing `v`, i.e. `v` does not dominate `p`: the direct edge has no
///   internal vertex to share with the path through `p`;
/// * `k = 0` — `idom[v] == s`: by Menger's theorem a single internal
///   vertex separates `s` from `v` exactly when it dominates `v`.
///
/// `out[s]` is `true` and unreachable vertices are `false`. The sink
/// side (`v → t` paths) is this function on [`DiGraph::reversed`] from
/// `t`.
///
/// # Example
///
/// ```
/// use rsn_graph::{two_independent_paths, DiGraph};
///
/// // Diamond 0 -> {1, 2} -> 3 plus the tail 3 -> 4.
/// let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
/// assert_eq!(two_independent_paths(&g, 0), [true, false, false, true, false]);
/// assert_eq!(two_independent_paths(&g.reversed(), 4), [false, false, false, false, true]);
/// ```
pub fn two_independent_paths(g: &DiGraph, s: usize) -> Vec<bool> {
    let n = g.len();
    let idom = dominators(g, s);
    // Preorder intervals of the dominator tree: `d` dominates `u` iff
    // `pre[u]` lies in `pre[d] .. pre[d] + size[d]`.
    let mut children = vec![Vec::new(); n];
    for v in 0..n {
        if v != s && idom[v] != usize::MAX {
            children[idom[v]].push(v);
        }
    }
    let mut pre = vec![0usize; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![s];
    while let Some(u) = stack.pop() {
        pre[u] = order.len();
        order.push(u);
        stack.extend_from_slice(&children[u]);
    }
    let mut size = vec![1usize; n];
    for &u in order.iter().skip(1).rev() {
        size[idom[u]] += size[u];
    }
    let dominates = |d: usize, u: usize| pre[d] <= pre[u] && pre[u] < pre[d] + size[d];

    let mut direct = vec![0usize; n];
    for &v in g.successors(s) {
        direct[v] += 1;
    }
    (0..n)
        .map(|v| {
            if v == s {
                return true;
            }
            if idom[v] == usize::MAX {
                return false;
            }
            match direct[v] {
                0 => idom[v] == s,
                1 => g
                    .predecessors(v)
                    .iter()
                    .any(|&p| p != s && idom[p] != usize::MAX && !dominates(v, p)),
                _ => true,
            }
        })
        .collect()
}

/// All strict dominators of `v` given an immediate-dominator array
/// (excluding `v` itself, including the root).
pub fn dominator_set(idom: &[usize], root: usize, v: usize) -> Vec<usize> {
    let mut out = Vec::new();
    if idom[v] == usize::MAX {
        return out;
    }
    let mut cur = v;
    while cur != root {
        cur = idom[cur];
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_dominators() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let idom = dominators(&g, 0);
        assert_eq!(idom[1], 0);
        assert_eq!(idom[2], 1);
        assert_eq!(idom[3], 2);
        assert_eq!(dominator_set(&idom, 0, 3), vec![2, 1, 0]);
    }

    #[test]
    fn diamond_merge_dominated_by_root() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let idom = dominators(&g, 0);
        assert_eq!(idom[3], 0);
        assert_eq!(dominator_set(&idom, 0, 3), vec![0]);
    }

    #[test]
    fn unreachable_vertices_have_no_dominator() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let idom = dominators(&g, 0);
        assert_eq!(idom[2], usize::MAX);
        assert!(dominator_set(&idom, 0, 2).is_empty());
    }

    #[test]
    fn bottleneck_vertex_dominates_everything_behind_it() {
        //      0 -> 1 -> 2 -> {3, 4} -> 5
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]);
        let idom = dominators(&g, 0);
        let doms5 = dominator_set(&idom, 0, 5);
        assert!(doms5.contains(&2), "2 is a bottleneck: {doms5:?}");
        assert!(doms5.contains(&1));
        assert!(!doms5.contains(&3));
        assert!(!doms5.contains(&4));
    }

    #[test]
    fn dominators_match_menger_on_diamond_family() {
        // For every vertex v: v has a strict dominator other than the root
        // iff vertex_independent_paths(root, v) < 2.
        use crate::flow::vertex_independent_paths;
        let g = DiGraph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        );
        let idom = dominators(&g, 0);
        for v in 1..7 {
            let doms = dominator_set(&idom, 0, v);
            let has_internal_dom = doms.iter().any(|&d| d != 0);
            let paths = vertex_independent_paths(&g, 0, v);
            // The equivalence only holds for vertices not adjacent to the
            // root: a direct edge is one path with no internal vertex.
            if !g.has_edge(0, v) {
                assert_eq!(
                    has_internal_dom,
                    paths < 2,
                    "vertex {v}: doms={doms:?}, paths={paths}"
                );
            } else {
                assert!(!has_internal_dom, "vertex {v} adjacent to root");
            }
        }
    }
}
